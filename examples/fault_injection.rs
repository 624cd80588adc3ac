//! Seeded fault injection across the stack (docs/SCENARIOS.md, "Failure
//! & variability axes"): the fault axis as a programmatic grid
//! dimension, from timed link faults in the packet engine through
//! message-level stragglers to job failure/restart in the dynamic
//! cluster.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```
//!
//! Part 1 runs one 16-rank MoE all-to-all under every fault regime on
//! the 4:1-oversubscribed AI fabric and compares each faulted cell with
//! its fault-free sibling. Part 2 replays a job burst through the
//! cluster engine with a 60% failure probability and shows restarts,
//! re-queueing, and the exact turnaround accounting. Part 3 runs the
//! distributional regimes — Gilbert–Elliott Markov flapping, a
//! correlated whole-rack failure, and a churn-trace replay — and checks
//! the realized-fault telemetry identities against the generated
//! schedules. Part 4 runs per-packet stochastic link models (random
//! loss and latency jitter) and checks the retransmission-accounting
//! conservation identities: every retransmission is attributed to
//! exactly one trigger, and the unique goodput is invariant between a
//! clean and a lossy run of the same workload.

use atlahs_bench::cluster::{
    run_grid, ArrivalSpec, ClusterGrid, ClusterReport, JobFaultSpec, QueueDiscipline,
};
use atlahs_bench::scenario::{
    BackendFamily, FaultAction, FaultSpec, PlacementSpec, ScenarioGrid, TopologySpec, WorkloadSpec,
};
use atlahs_bench::sweep::{execute, SweepReport};
use atlahs_htsim::CcAlgo;

fn main() {
    // ---- Part 1: one workload, every fault regime -----------------------
    //
    // The group spans both ToRs, so the all-to-all crosses the thin core
    // uplinks the link faults target; the per-rank compute gives the
    // straggler calc costs to inflate.
    let grid = ScenarioGrid {
        topologies: vec![TopologySpec::AiFatTree { nodes: 16, oversub: 4 }],
        workloads: vec![WorkloadSpec::MoeAllToAll {
            ranks: 16,
            group: 16,
            bytes: 64 << 10,
            layers: 1,
            compute_ns: 20_000,
        }],
        ccs: vec![CcAlgo::Mprdma],
        placements: vec![PlacementSpec::Packed],
        backends: vec![BackendFamily::Htsim, BackendFamily::Lgs],
        faults: vec![
            FaultSpec::None,
            // Two core links down from 5 µs to 60 µs: blackholed packets
            // are recovered by retransmission once the links return.
            FaultSpec::LinkFlap { links: 2, down_ns: 5_000, up_ns: 60_000 },
            // Two core links at quarter bandwidth and 3x latency for the
            // first 200 µs: congestion control adapts to the slower wire.
            FaultSpec::Degrade { links: 2, bw_pct: 25, lat_pct: 300, from_ns: 0, to_ns: 200_000 },
            // Half the ranks straggle at 3x compute cost (message level).
            FaultSpec::Straggler { prob_pct: 50, factor_pct: 300, spread_pct: 0, shape: 1 },
        ],
        seed: 1,
        collect_flows: false,
    };
    let cells = grid.expand();
    let report = SweepReport { seed: grid.seed, results: execute(&cells, 0), branch: None };

    // Pair every faulted cell with its fault-free sibling (same key minus
    // the fault suffix) and show what the fault cost.
    println!("# fault regimes vs the clean baseline\n");
    let clean_makespan = |fault_key: &str| {
        let base = fault_key.rsplit_once('/').expect("faulted keys have a suffix").0;
        report.results.iter().find(|r| r.key == base).expect("clean sibling ran").makespan
    };
    for r in report.results.iter().filter(|r| r.key.matches('/').count() == 4) {
        let clean = clean_makespan(&r.key);
        let drops = r.net.map(|n| n.fault_drops).unwrap_or(0);
        println!(
            "{:75} {:8.1} µs  (+{:5.1}% vs clean, {} packets blackholed)",
            r.key,
            r.makespan as f64 / 1e3,
            100.0 * (r.makespan as f64 / clean as f64 - 1.0),
            drops
        );
        assert!(
            r.makespan != clean || drops > 0,
            "{}: the fault regime left no observable trace",
            r.key
        );
    }

    // ---- Part 2: job failures in the dynamic cluster --------------------
    //
    // A burst of ring jobs on the same fabric; each run attempt fails
    // with 60% probability halfway through, up to two failed attempts
    // per job. Failed attempts hold their nodes, then release them and
    // re-queue — so restarts show up in wait, turnaround, and queue depth.
    let cluster = ClusterGrid {
        topology: TopologySpec::AiFatTree { nodes: 16, oversub: 4 },
        catalog: vec![
            WorkloadSpec::Ring { ranks: 8, bytes: 256 << 10, laps: 1 },
            WorkloadSpec::Ring { ranks: 4, bytes: 128 << 10, laps: 1 },
        ],
        arrivals: vec![ArrivalSpec::Trace { times_ns: vec![0, 0, 0, 0, 50_000, 50_000] }],
        queues: vec![QueueDiscipline::Fifo],
        placements: vec![PlacementSpec::Packed],
        ccs: vec![CcAlgo::Mprdma],
        backends: vec![BackendFamily::Lgs],
        faults: vec![
            FaultSpec::None,
            FaultSpec::Job(JobFaultSpec::JobFail { pct: 60, at_pct: 50, retries: 2 }),
        ],
        seed: 7,
    };
    let (cluster_cells, dropped) = cluster.expand_counted();
    assert!(dropped.is_empty(), "catalog fits the fabric");
    let cluster_report = ClusterReport { seed: cluster.seed, results: run_grid(&cluster_cells, 0) };

    println!("\n# job failures in the dynamic cluster\n");
    for r in &cluster_report.results {
        let restarts: u32 = r.jobs.iter().map(|j| j.restarts).sum();
        let lost_ns: u64 = r.jobs.iter().map(|j| j.failed_ns).sum();
        println!(
            "{:60} makespan {:8.1} µs  restarts {}  node-time lost {:6.1} µs",
            r.key,
            r.makespan_ns as f64 / 1e3,
            restarts,
            lost_ns as f64 / 1e3
        );
        for j in &r.jobs {
            // The turnaround identity holds exactly, failed or not.
            assert_eq!(j.start_ns, j.arrival_ns + j.wait_ns + j.failed_ns);
            assert_eq!(j.completion_ns, j.wait_ns + j.failed_ns + j.duration_ns);
        }
        if r.key.ends_with("/jobfail:60:50:2") {
            assert!(restarts > 0, "{}: a 60% failure rate must trigger restarts", r.key);
        } else {
            assert_eq!(restarts, 0, "{}: fault-free cells never restart", r.key);
        }
    }

    // ---- Part 3: distributional fault models ----------------------------
    //
    // The `atlahs_core::faultgen` regimes *generate* the primitive port
    // windows: Markov flapping unrolls a Gilbert–Elliott process per
    // port, rackfail downs a whole edge failure domain, and churn
    // replays a down/up trace. Every faulted cell carries realized-fault
    // telemetry, and the identity `downtime_ns == Σ window durations`
    // holds exactly against the regenerated schedule.
    let dist = ScenarioGrid {
        topologies: vec![TopologySpec::AiFatTree { nodes: 16, oversub: 4 }],
        workloads: vec![WorkloadSpec::MoeAllToAll {
            ranks: 16,
            group: 16,
            bytes: 64 << 10,
            layers: 1,
            compute_ns: 20_000,
        }],
        ccs: vec![CcAlgo::Mprdma],
        placements: vec![PlacementSpec::Packed],
        backends: vec![BackendFamily::Htsim],
        faults: vec![
            FaultSpec::None,
            // Exp(30 µs) up / Exp(10 µs) down sojourns on two core
            // links, unrolled over the first 300 µs.
            FaultSpec::Markov { links: 2, up_ns: 30_000, down_ns: 10_000, horizon_ns: 300_000 },
            // One whole rack (ToR + every port touching it) down from
            // 20 µs to 140 µs.
            FaultSpec::RackFail { racks: 1, from_ns: 20_000, to_ns: 140_000 },
            // Replayed churn: rack 0 bounces early, rack 1 fails later.
            FaultSpec::parse("churn:0;0;d,60000;0;u,100000;1;d,180000;1;u").unwrap(),
        ],
        seed: 1,
        collect_flows: false,
    };
    let dist_cells = dist.expand();
    let dist_report =
        SweepReport { seed: dist.seed, results: execute(&dist_cells, 0), branch: None };
    let clean = dist_report
        .results
        .iter()
        .find(|r| r.key.matches('/').count() == 3)
        .expect("the fault-free sibling ran");

    println!("\n# distributional fault models\n");
    for (cell, r) in dist_cells.iter().zip(&dist_report.results) {
        assert_eq!(cell.key(), r.key, "execute preserves cell order");
        if cell.fault == FaultSpec::None {
            assert!(r.fault.is_none(), "fault-free cells carry no telemetry");
            continue;
        }
        let tel = r.fault.expect("distributional cells report realized-fault telemetry");
        let (lowered, _) = cell.fault.lower(&cell.topology, &cell.backend, 0, cell.seed);
        let FaultAction::Ports(schedule) = lowered else {
            panic!("{}: window faults lower to port windows", r.key);
        };
        assert_eq!(tel.windows, schedule.len() as u64, "{}: window count", r.key);
        assert_eq!(
            tel.downtime_ns,
            schedule.iter().map(|f| f.end_ns - f.start_ns).sum::<u64>(),
            "{}: downtime is exactly the sum of the generated windows",
            r.key
        );
        assert_ne!(r.makespan, clean.makespan, "{}: the fault must bite", r.key);
        println!(
            "{:95} {:8.1} µs  ({} windows, {:7.1} µs port-downtime, {} packets blackholed)",
            r.key,
            r.makespan as f64 / 1e3,
            tel.windows,
            tel.downtime_ns as f64 / 1e3,
            r.net.map(|n| n.fault_drops).unwrap_or(0)
        );
    }

    // ---- Part 4: per-packet stochastic link models ----------------------
    //
    // Unlike the scheduled windows above, `loss:`/`jitter:` perturb
    // *every* packet independently through counter-based draw streams
    // (docs/SCENARIOS.md, "Per-packet stochastic links"). The engine's
    // retransmission accounting satisfies two exact identities:
    //
    //   retransmissions  == rtx_timeout + rtx_fault_drop   (attribution)
    //   payload_bytes - retransmitted_bytes == clean payload  (goodput)
    //
    // — every retransmitted copy is charged to exactly one trigger, and
    // random loss never changes *what* is delivered, only how many
    // wasted copies it takes to deliver it.
    let stoch = ScenarioGrid {
        topologies: vec![TopologySpec::AiFatTree { nodes: 16, oversub: 4 }],
        workloads: vec![WorkloadSpec::MoeAllToAll {
            ranks: 16,
            group: 16,
            bytes: 64 << 10,
            layers: 1,
            compute_ns: 20_000,
        }],
        ccs: vec![CcAlgo::Mprdma],
        placements: vec![PlacementSpec::Packed],
        backends: vec![BackendFamily::Htsim],
        faults: vec![
            FaultSpec::None,
            // 5% random loss on every link.
            FaultSpec::parse("loss:50000").unwrap(),
            // 8% loss confined to the oversubscribed core uplinks.
            FaultSpec::parse("loss:80000:core").unwrap(),
            // Exp(2 µs) latency jitter: delays and reorders, never drops.
            FaultSpec::parse("jitter:exp:2000").unwrap(),
        ],
        seed: 1,
        collect_flows: false,
    };
    let stoch_cells = stoch.expand();
    let stoch_report =
        SweepReport { seed: stoch.seed, results: execute(&stoch_cells, 0), branch: None };
    let clean_net = stoch_report
        .results
        .iter()
        .find(|r| r.key.matches('/').count() == 3)
        .and_then(|r| r.net)
        .expect("the clean sibling ran on htsim");
    assert_eq!(clean_net.stochastic_draws, 0, "clean cells never touch the draw streams");

    println!("\n# per-packet stochastic link models\n");
    for (cell, r) in stoch_cells.iter().zip(&stoch_report.results) {
        let net = r.net.expect("htsim cells report net stats");
        // Attribution: the two split counters reassemble the total, for
        // clean and stochastic cells alike.
        assert_eq!(
            net.retransmissions,
            net.rtx_timeout + net.rtx_fault_drop,
            "{}: every retransmission has exactly one attributed trigger",
            r.key
        );
        if cell.fault == FaultSpec::None {
            continue;
        }
        // Conservation: loss inflates payload_bytes (wasted copies) but
        // the unique goodput equals the clean run's bytes exactly.
        assert_eq!(
            net.payload_bytes - net.retransmitted_bytes,
            clean_net.payload_bytes - clean_net.retransmitted_bytes,
            "{}: unique goodput is invariant under stochastic loss",
            r.key
        );
        assert!(net.stochastic_draws > 0, "{}: the model must be armed", r.key);
        if r.key.contains("/loss:") {
            assert!(net.stochastic_drops > 0, "{}: sustained loss must bite", r.key);
            assert!(net.goodput_ppm() < 1_000_000, "{}: wasted copies cost goodput", r.key);
        } else {
            assert_eq!(net.stochastic_drops, 0, "{}: jitter never drops", r.key);
            assert!(net.jittered > 0, "{}: jitter must perturb timestamps", r.key);
        }
        println!(
            "{:85} {:8.1} µs  ({} drops, {} jittered, goodput {:4.1}%, {} RTOs/kflow)",
            r.key,
            r.makespan as f64 / 1e3,
            net.stochastic_drops,
            net.jittered,
            net.goodput_ppm() as f64 / 1e4,
            net.rtx_storm_per_kflow()
        );
    }
}

//! Integration: the storage pipeline — SPC traces through Direct Drive
//! onto the backends (paper §3.1.3, §6.1).

use atlahs::core::backends::IdealBackend;
use atlahs::core::probe::Recorded;
use atlahs::core::Simulation;
use atlahs::directdrive::{slab_replicas, trace_to_goal, DirectDriveLayout, ServiceParams};
use atlahs::goal::stats::check_matching;
use atlahs::goal::GoalBuilder;
use atlahs::htsim::engine::{HtsimBackend, HtsimConfig};
use atlahs::htsim::topology::TopologyConfig;
use atlahs::htsim::CcAlgo;
use atlahs::tracers::storage::{financial_like, OltpConfig, SpcTrace};

fn workload(ops: usize) -> SpcTrace {
    financial_like(&OltpConfig { operations: ops, seed: 3, ..Default::default() })
}

#[test]
fn spc_trace_roundtrips_through_disk_format() {
    let t = workload(500);
    let text = t.to_text();
    let back = SpcTrace::parse(&text).unwrap();
    assert_eq!(t, back);
}

#[test]
fn full_storage_pipeline_runs_on_packet_level() {
    let layout = DirectDriveLayout::standard(8, 2, 12);
    let params = ServiceParams::default();
    let trace = workload(300);
    let mut b = GoalBuilder::new(layout.total_ranks());
    let completions = trace_to_goal(&trace, &layout, &params, &mut b);
    assert_eq!(completions.len(), 300);
    let goal = b.build().unwrap();
    check_matching(&goal).unwrap();

    let hosts = layout.total_ranks().div_ceil(4) * 4;
    let cfg = HtsimConfig::new(TopologyConfig::fat_tree(hosts, 4), CcAlgo::Mprdma);
    let mut be = Recorded::new(HtsimBackend::new(cfg));
    let rep = Simulation::new(&goal).run(&mut be).unwrap();
    assert_eq!(rep.completed, goal.total_tasks());

    // Every network leg produced a flow record; completion times are sane.
    let flows = be.flows();
    assert!(!flows.is_empty());
    for f in flows {
        assert!(f.end >= f.start);
    }
}

#[test]
fn replication_factor_scales_write_traffic() {
    let trace = SpcTrace {
        records: (0..50)
            .map(|i| atlahs::tracers::storage::SpcRecord {
                asu: 1,
                lba: i * 1000,
                bytes: 16 << 10,
                write: true,
                ts_ns: i * 10_000,
            })
            .collect(),
    };
    let bytes_with = |replicas: usize| {
        let layout = DirectDriveLayout::standard(2, 1, 8);
        let params = ServiceParams { replicas, ..Default::default() };
        let mut b = GoalBuilder::new(layout.total_ranks());
        trace_to_goal(&trace, &layout, &params, &mut b);
        atlahs::goal::ScheduleStats::of(&b.build().unwrap()).bytes_sent
    };
    let r1 = bytes_with(1);
    let r3 = bytes_with(3);
    // 3-way replication roughly triples the data volume (control traffic
    // adds a small constant).
    assert!(r3 as f64 > r1 as f64 * 2.5, "r1={r1} r3={r3}");
}

#[test]
fn reads_and_writes_follow_fig6_flows() {
    let layout = DirectDriveLayout::standard(1, 1, 4);
    let params = ServiceParams::default();
    let one = |write: bool| {
        let trace = SpcTrace {
            records: vec![atlahs::tracers::storage::SpcRecord {
                asu: 0,
                lba: 7,
                bytes: 4096,
                write,
                ts_ns: 0,
            }],
        };
        let mut b = GoalBuilder::new(layout.total_ranks());
        trace_to_goal(&trace, &layout, &params, &mut b);
        b.build().unwrap()
    };
    // Read: client→CCS, CCS→client, client→BSS, BSS→client = 4 sends.
    let read = one(false);
    assert_eq!(atlahs::goal::ScheduleStats::of(&read).sends, 4);
    // Write with 3 replicas: + data to primary, 2 replica copies,
    // 2 replica acks, 1 final ack = 8 sends.
    let write = one(true);
    assert_eq!(atlahs::goal::ScheduleStats::of(&write).sends, 8);
}

#[test]
fn slab_lookup_is_stable_and_spread() {
    let p = ServiceParams::default();
    // Same LBA always maps to the same replicas.
    assert_eq!(slab_replicas(123456, &p, 16), slab_replicas(123456, &p, 16));
    // Adjacent slabs spread across different primaries.
    let primaries: std::collections::HashSet<usize> =
        (0..32).map(|s| slab_replicas(s * p.slab_blocks, &p, 16)[0]).collect();
    assert!(primaries.len() > 8, "spread over BSS: {primaries:?}");
}

#[test]
fn storage_goal_survives_ideal_and_packet_backends_identically() {
    // The same schedule completes the same task count everywhere.
    let layout = DirectDriveLayout::standard(4, 2, 6);
    let params = ServiceParams::default();
    let trace = workload(200);
    let mut b = GoalBuilder::new(layout.total_ranks());
    trace_to_goal(&trace, &layout, &params, &mut b);
    let goal = b.build().unwrap();

    let mut ideal = IdealBackend::new(100, 500);
    let ri = Simulation::new(&goal).run(&mut ideal).unwrap();

    let hosts = layout.total_ranks().div_ceil(4) * 4;
    let mut ht =
        HtsimBackend::new(HtsimConfig::new(TopologyConfig::fat_tree(hosts, 4), CcAlgo::Mprdma));
    let rh = Simulation::new(&goal).run(&mut ht).unwrap();

    assert_eq!(ri.completed, rh.completed);
    assert_eq!(ri.completed, goal.total_tasks());
}

#[test]
fn heavier_offered_load_lengthens_the_tail() {
    let layout = DirectDriveLayout::standard(8, 2, 12);
    let params = ServiceParams::default();
    let tail = |gap: u64| {
        let trace = financial_like(&OltpConfig {
            operations: 400,
            mean_gap_ns: gap,
            seed: 3,
            ..Default::default()
        });
        let mut b = GoalBuilder::new(layout.total_ranks());
        let done = trace_to_goal(&trace, &layout, &params, &mut b);
        let goal = b.build().unwrap();
        let mut be = IdealBackend::new(100, 500);
        let rep = Simulation::new(&goal).run(&mut be).unwrap();
        let _ = done;
        rep.makespan
    };
    // Slower arrivals stretch the workload: total makespan grows with gap.
    assert!(tail(1_000_000) > tail(1_000));
}

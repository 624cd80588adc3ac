//! Integration: cross-backend agreement and divergence — the §6.2 story.
//!
//! On a fully provisioned, symmetric fabric with compute masking, the
//! message-level and packet-level backends should agree closely; when the
//! assumptions break (oversubscribed core), the message-level model must
//! diverge because it cannot see the thinner core.

use atlahs::collectives::{mpi, CollParams};
use atlahs::core::{NsPerByte, Simulation};
use atlahs::goal::{GoalBuilder, GoalSchedule};
use atlahs::htsim::engine::{HtsimBackend, HtsimConfig};
use atlahs::htsim::topology::{LinkParams, TopologyConfig};
use atlahs::htsim::CcAlgo;
use atlahs::lgs::{LgsBackend, LogGopsParams};
use atlahs::testbed::{TestbedBackend, TestbedConfig};

/// A bandwidth-dominated bulk transfer: rank pairs exchange 8 MiB.
fn bulk_pairs(n: usize, bytes: u64) -> GoalSchedule {
    let mut b = GoalBuilder::new(n);
    for r in 0..(n / 2) as u32 {
        let peer = r + (n / 2) as u32;
        b.send(r, peer, bytes, r);
        b.recv(peer, r, bytes, r);
    }
    b.build().unwrap()
}

/// LogGOPS parameters consistent with a `gbps` fabric: `G` is the wire
/// time per byte, the ideal backend's `8 / gbps` ns.
fn lgs_params_for(gbps: u64) -> LogGopsParams {
    LogGopsParams {
        l: 1_000,
        o: 200,
        g: 0,
        big_g: NsPerByte::ratio(8, gbps),
        big_o: NsPerByte::ZERO,
        s: 0,
    }
}

fn run_lgs(goal: &GoalSchedule, p: LogGopsParams) -> u64 {
    let mut be = LgsBackend::new(p);
    Simulation::new(goal).run(&mut be).unwrap().makespan
}

fn run_htsim(goal: &GoalSchedule, topo: TopologyConfig) -> u64 {
    let mut be = HtsimBackend::new(HtsimConfig::new(topo, CcAlgo::Mprdma));
    Simulation::new(goal).run(&mut be).unwrap().makespan
}

fn run_htsim_spray(goal: &GoalSchedule, topo: TopologyConfig) -> u64 {
    let mut cfg = HtsimConfig::new(topo, CcAlgo::Mprdma);
    cfg.spray = true;
    let mut be = HtsimBackend::new(cfg);
    Simulation::new(goal).run(&mut be).unwrap().makespan
}

fn run_testbed(goal: &GoalSchedule, topo: TopologyConfig) -> u64 {
    let mut be = TestbedBackend::new(TestbedConfig::new(topo));
    Simulation::new(goal).run(&mut be).unwrap().makespan
}

#[test]
fn backends_agree_on_bandwidth_bound_transfers() {
    // 8 MiB transfers at 100 Gb/s: serialization (~671 µs, ~729 µs on
    // the testbed's derated links) dwarfs every model's latency/overhead
    // differences. All three backends must land within 15% of each other.
    let goal = bulk_pairs(8, 8 << 20);
    let topo = TopologyConfig::fat_tree(8, 8); // single ToR, no core
    let lgs = run_lgs(&goal, lgs_params_for(100));
    let ht = run_htsim(&goal, topo.clone());
    let tb = run_testbed(&goal, topo);
    let lo = lgs.min(ht).min(tb) as f64;
    let hi = lgs.max(ht).max(tb) as f64;
    assert!(
        hi / lo < 1.15,
        "backends disagree on a trivial transfer: lgs={lgs} htsim={ht} testbed={tb}"
    );
}

#[test]
fn lgs_blind_to_oversubscription_htsim_is_not() {
    // A single cross-ToR bulk flow: no ECMP collisions, no contention —
    // the regime where LGS and htsim must agree. LGS keeps the same G
    // under oversubscription (injection bandwidth is unchanged); htsim
    // sees the thin, shared core once a permutation loads it.
    let mut one = GoalBuilder::new(16);
    one.send(0, 8, 4 << 20, 0);
    one.recv(8, 0, 4 << 20, 0);
    let single = one.build().unwrap();

    let lgs_single = run_lgs(&single, lgs_params_for(100));
    let ht_single = run_htsim(&single, TopologyConfig::fat_tree(16, 4));
    let ratio = ht_single as f64 / lgs_single as f64;
    assert!(
        (0.7..1.3).contains(&ratio),
        "uncontended cross-ToR flow should agree: lgs={lgs_single} htsim={ht_single}"
    );

    // Cross-ToR permutation through a 4:1 core: htsim inflates well past
    // LGS's (unchanged) prediction.
    let n = 16;
    let mut b = GoalBuilder::new(n);
    for r in 0..n as u32 {
        let dst = (r + 8) % n as u32; // always crosses ToRs (4 hosts/ToR)
        b.send(r, dst, 4 << 20, r);
        b.recv(dst, r, 4 << 20, r);
    }
    let goal = b.build().unwrap();
    let lgs = run_lgs(&goal, lgs_params_for(100));
    let full = run_htsim(&goal, TopologyConfig::fat_tree(16, 4));
    let over = run_htsim(&goal, TopologyConfig::fat_tree_oversubscribed(16, 4, 4));
    assert!(over as f64 > lgs as f64 * 2.0, "4:1 core must diverge: lgs={lgs} htsim={over}");
    // ECMP collisions already hurt the fully provisioned permutation, so
    // the *additional* oversubscription penalty is modest — but it must
    // be strictly worse.
    assert!(over > full, "oversubscription must hurt: {full} -> {over}");
}

#[test]
fn spraying_restores_lgs_agreement_on_full_bisection() {
    // The per-packet-spray data path (route resolved per packet, indexed
    // per hop). On a *fully provisioned* fat tree, ECMP hash collisions
    // are the only thing separating htsim from the contention-free LGS
    // model on a permutation; spraying removes them, so the two backends
    // must agree — while per-flow ECMP stays measurably slower.
    let n = 16;
    let mut b = GoalBuilder::new(n);
    for r in 0..n as u32 {
        let dst = (r + 8) % n as u32; // always crosses ToRs (4 hosts/ToR)
        b.send(r, dst, 4 << 20, r);
        b.recv(dst, r, 4 << 20, r);
    }
    let goal = b.build().unwrap();

    let lgs = run_lgs(&goal, lgs_params_for(100));
    let hashed = run_htsim(&goal, TopologyConfig::fat_tree(16, 4));
    let sprayed = run_htsim_spray(&goal, TopologyConfig::fat_tree(16, 4));

    let ratio = sprayed as f64 / lgs as f64;
    assert!(
        (0.7..1.3).contains(&ratio),
        "sprayed permutation on full bisection must track LGS: lgs={lgs} sprayed={sprayed}"
    );
    assert!(
        sprayed < hashed,
        "spraying must beat colliding per-flow ECMP: sprayed={sprayed} hashed={hashed}"
    );

    // Spraying cannot conjure bandwidth: through a 4:1 core the sprayed
    // run must still diverge from LGS's (unchanged) prediction.
    let over = run_htsim_spray(&goal, TopologyConfig::fat_tree_oversubscribed(16, 4, 4));
    assert!(
        over as f64 > lgs as f64 * 2.0,
        "4:1 core must diverge even when sprayed: lgs={lgs} sprayed_over={over}"
    );
}

#[test]
fn oversubscription_causes_drops_only_in_packet_model() {
    // 8 senders per ToR funnel into a single 8:1-oversubscribed uplink
    // with shallow buffers: the initial-window bursts alone exceed the
    // queue, so tail drops are unavoidable before CC can react.
    let n = 32;
    let mut b = GoalBuilder::new(n);
    for r in 0..n as u32 {
        let dst = (r + 16) % n as u32; // always crosses ToRs (8 hosts/ToR)
        b.send(r, dst, 4 << 20, r);
        b.recv(dst, r, 4 << 20, r);
    }
    let goal = b.build().unwrap();

    let mut cfg =
        HtsimConfig::new(TopologyConfig::fat_tree_oversubscribed(32, 8, 8), CcAlgo::Mprdma);
    cfg.queue_bytes = 64 << 10; // shallow buffers expose the loss
    let mut be = HtsimBackend::new(cfg);
    Simulation::new(&goal).run(&mut be).unwrap();
    let stats = be.net_stats();
    assert!(stats.drops > 0, "tail-drop must occur on the thin core");
    assert!(stats.core_drops > 0, "and specifically on core ports");
    assert!(stats.ecn_marks > 0, "ECN marks precede drops");
}

#[test]
fn collectives_rank_consistently_across_backends() {
    // Relative ordering of collective algorithms is model-independent:
    // a bandwidth-optimal ring beats a binomial tree for large payloads
    // on both LGS and htsim.
    let n = 16;
    let big = 4 << 20;
    let build = |f: &dyn Fn(&mut GoalBuilder)| {
        let mut b = GoalBuilder::new(n);
        f(&mut b);
        b.build().unwrap()
    };
    let ranks: Vec<u32> = (0..n as u32).collect();
    let ring = build(&|b: &mut GoalBuilder| {
        mpi::allreduce_ring(b, &ranks, big, 0, &CollParams::default());
    });
    let recdoub = build(&|b: &mut GoalBuilder| {
        mpi::allreduce_recdoub(b, &ranks, big, 0, &CollParams::default());
    });

    let p = lgs_params_for(100);
    let topo = TopologyConfig::fat_tree(16, 4);
    let lgs_ring = run_lgs(&ring, p);
    let lgs_rd = run_lgs(&recdoub, p);
    let ht_ring = run_htsim(&ring, topo.clone());
    let ht_rd = run_htsim(&recdoub, topo);

    assert!(lgs_ring < lgs_rd, "LGS: ring allreduce wins at 4 MiB ({lgs_ring} vs {lgs_rd})");
    assert!(ht_ring < ht_rd, "htsim: ring allreduce wins at 4 MiB ({ht_ring} vs {ht_rd})");
}

#[test]
fn cc_algorithms_converge_on_an_uncontended_path() {
    // One flow, no contention: every CC algorithm should deliver the
    // message in (nearly) the same time.
    let mut b = GoalBuilder::new(2);
    b.send(0, 1, 1 << 20, 0);
    b.recv(1, 0, 1 << 20, 0);
    let goal = b.build().unwrap();
    let topo = TopologyConfig::SingleSwitch { hosts: 2, link: LinkParams::default() };
    let mut times = Vec::new();
    for cc in [CcAlgo::Mprdma, CcAlgo::Swift, CcAlgo::Dctcp, CcAlgo::Ndp] {
        let mut be = HtsimBackend::new(HtsimConfig::new(topo.clone(), cc));
        times.push((cc, Simulation::new(&goal).run(&mut be).unwrap().makespan));
    }
    let lo = times.iter().map(|&(_, t)| t).min().unwrap() as f64;
    let hi = times.iter().map(|&(_, t)| t).max().unwrap() as f64;
    assert!(hi / lo < 1.6, "uncontended path should not depend on CC: {times:?}");
}

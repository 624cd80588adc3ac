//! Determinism goldens for the packet engine.
//!
//! Same seed + same config ⇒ byte-identical results: makespan, the full
//! [`NetStats`] block, and every [`FlowRecord`] of a [`Recorded`] run. The
//! golden values below were captured after the indexed-event-queue /
//! route-arena refactor and pin the engine's exact event ordering: any
//! change that reorders events, perturbs the RNG stream, or alters routing
//! will move at least one of these fingerprints and must be a conscious
//! decision.
//!
//! The grid covers the two topology families the paper validates against
//! (a Clos/fat-tree with an oversubscribed core and a dragonfly), both a
//! DCTCP-like sender-driven CC and receiver-driven NDP, and both routing
//! modes (per-flow ECMP and per-packet spraying).
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```text
//! ATLAHS_PRINT_GOLDENS=1 cargo test --test determinism_golden -- --nocapture
//! ```

mod golden_table;

use atlahs::core::probe::Recorded;
use atlahs::core::{Backend, SimDriver, SimReport, Simulation, Snapshot};
use atlahs::goal::GoalSchedule;
use atlahs::htsim::engine::{HtsimBackend, HtsimConfig};
use atlahs::htsim::fault::{select_fault_ports, FaultKind, PortFault};
use atlahs::htsim::topology::Topology;
use atlahs::htsim::topology::TopologyConfig;
use atlahs::htsim::CcAlgo;
use atlahs::lgs::{LgsBackend, LogGopsParams, StragglerSpec};
use atlahs_bench::workloads::cross_tor_permutation;

/// Everything a run's observable outcome consists of, flattened to a
/// comparable tuple: makespan, key NetStats fields, and an FNV-1a hash
/// over the complete NetStats block plus every flow record in completion
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    makespan: u64,
    packets: u64,
    losses: u64,
    fingerprint: u64,
}

fn fnv(h: u64, x: u64) -> u64 {
    let mut h = h;
    for i in 0..8 {
        h ^= (x >> (8 * i)) & 0xff;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Run `goal` on `backend` with `apply`'s overrides in place before the
/// first task issues: how a fault enters a backend for a whole run.
fn run_applied<B: Backend>(
    goal: &GoalSchedule,
    backend: &mut B,
    apply: impl Fn(&mut B),
) -> SimReport {
    let driver = SimDriver::start(goal, backend);
    apply(backend);
    driver.finish(backend).expect("scenario completes")
}

/// Inject `faults` into a set-up packet backend.
fn inject(faults: &[PortFault]) -> impl Fn(&mut Recorded<HtsimBackend>) + '_ {
    |be| faults.iter().for_each(|&f| be.inner_mut().inject_fault(f))
}

/// One packet-level run on shallow (256 KiB) queues, enough to exercise
/// the loss paths. A faulted run's fingerprint folds in `fault_drops`.
fn run(
    topo: TopologyConfig,
    cc: CcAlgo,
    spray: bool,
    goal: &GoalSchedule,
    faults: &[PortFault],
) -> Golden {
    let mut cfg = HtsimConfig::new(topo, cc);
    cfg.spray = spray;
    cfg.queue_bytes = 256 * 1024;
    let mut be = Recorded::new(HtsimBackend::new(cfg));
    let rep = run_applied(goal, &mut be, inject(faults));
    htsim_fingerprint(&rep, &be, !faults.is_empty())
}

/// Compare a run with its golden, and with an immediate re-run: that one
/// must agree on every bit of the fingerprint, not just the headline
/// numbers.
fn check_golden(name: &str, golden: Golden, run: impl Fn() -> Golden) {
    let got = run();
    if std::env::var_os("ATLAHS_PRINT_GOLDENS").is_some() {
        println!("{name}: {got:?}");
        return;
    }
    assert_eq!(got, golden, "{name}: output drifted from the golden run");
    assert_eq!(got, run(), "{name}: two runs with one seed disagree");
}

/// The [`Golden`] of one packet-level run: FNV-1a over the makespan, the
/// NetStats block (`fault_drops` too when `faulted`) and every flow record
/// in completion order.
fn htsim_fingerprint(rep: &SimReport, be: &Recorded<HtsimBackend>, faulted: bool) -> Golden {
    let st = be.inner().net_stats();
    let mut words = vec![
        rep.makespan,
        st.packets_sent,
        st.drops,
        st.trims,
        st.ecn_marks,
        st.max_queue_bytes,
        st.core_drops,
        st.flows,
        st.retransmissions,
        st.internal_events,
        st.timeouts,
    ];
    if faulted {
        words.push(st.fault_drops);
    }
    for r in be.flows() {
        words.extend([r.src as u64, r.dst as u64, r.bytes, r.start, r.end]);
    }
    Golden {
        makespan: rep.makespan,
        packets: st.packets_sent,
        losses: st.drops + st.trims,
        fingerprint: words.into_iter().fold(0xcbf2_9ce4_8422_2325, fnv),
    }
}

fn clos() -> TopologyConfig {
    TopologyConfig::fat_tree_oversubscribed(32, 8, 4)
}

fn dragonfly() -> TopologyConfig {
    // 3 groups × 4 routers × 2 hosts: each group owns 4 globals over 2
    // peer groups, so cross-group pairs have 2 equal-cost globals and
    // spraying genuinely diverges from per-flow ECMP.
    TopologyConfig::dragonfly(3, 4, 2)
}

fn check(
    name: &str,
    topo: TopologyConfig,
    cc: CcAlgo,
    spray: bool,
    goal: &GoalSchedule,
    golden: Golden,
) {
    check_golden(name, golden, || run(topo.clone(), cc, spray, goal, &[]));
}

#[test]
fn clos_dctcp_ecmp() {
    check(
        "clos_dctcp_ecmp",
        clos(),
        CcAlgo::Dctcp,
        false,
        &cross_tor_permutation(32, 256 * 1024),
        Golden { makespan: 170070, packets: 2749, losses: 85, fingerprint: 9533739521534378490 },
    );
}

#[test]
fn clos_dctcp_spray() {
    check(
        "clos_dctcp_spray",
        clos(),
        CcAlgo::Dctcp,
        true,
        &cross_tor_permutation(32, 256 * 1024),
        Golden { makespan: 142224, packets: 2668, losses: 36, fingerprint: 17379750916316369363 },
    );
}

#[test]
fn clos_ndp_ecmp() {
    check(
        "clos_ndp_ecmp",
        clos(),
        CcAlgo::Ndp,
        false,
        &cross_tor_permutation(32, 256 * 1024),
        Golden { makespan: 159004, packets: 3700, losses: 879, fingerprint: 13801768378120913788 },
    );
}

#[test]
fn clos_ndp_spray() {
    check(
        "clos_ndp_spray",
        clos(),
        CcAlgo::Ndp,
        true,
        &cross_tor_permutation(32, 256 * 1024),
        Golden { makespan: 185839, packets: 5706, losses: 1982, fingerprint: 4573557411911614248 },
    );
}

#[test]
fn dragonfly_dctcp_ecmp() {
    check(
        "dragonfly_dctcp_ecmp",
        dragonfly(),
        CcAlgo::Dctcp,
        false,
        &cross_tor_permutation(24, 256 * 1024),
        Golden { makespan: 125227, packets: 1633, losses: 12, fingerprint: 13005166264371180354 },
    );
}

#[test]
fn dragonfly_dctcp_spray() {
    check(
        "dragonfly_dctcp_spray",
        dragonfly(),
        CcAlgo::Dctcp,
        true,
        &cross_tor_permutation(24, 256 * 1024),
        Golden { makespan: 53538, packets: 1536, losses: 0, fingerprint: 7838740639894170979 },
    );
}

#[test]
fn dragonfly_ndp_ecmp() {
    check(
        "dragonfly_ndp_ecmp",
        dragonfly(),
        CcAlgo::Ndp,
        false,
        &cross_tor_permutation(24, 256 * 1024),
        Golden { makespan: 90539, packets: 1621, losses: 15, fingerprint: 7366083823433530007 },
    );
}

// --- the scenario-sweep synthetic workloads (MoE all-to-all, pipeline-
// --- parallel LLM, storage incast), fingerprinted on both the packet-
// --- level and the message-level backend.

/// LGS golden on `ai_alps` with `straggler` applied: makespan + FNV over
/// every rank finish time and the backend's message counters (LGS has no
/// NetStats/FlowRecords).
fn run_lgs(goal: &GoalSchedule, straggler: StragglerSpec) -> Golden {
    let mut be = LgsBackend::new(LogGopsParams::ai_alps());
    let rep = run_applied(goal, &mut be, |be| be.apply_straggler_now(straggler));
    let st = be.stats();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in [rep.makespan, rep.completed as u64, st.messages, st.bytes, st.rendezvous_messages] {
        h = fnv(h, x);
    }
    for &t in &rep.rank_finish {
        h = fnv(h, t);
    }
    Golden { makespan: rep.makespan, packets: st.messages, losses: 0, fingerprint: h }
}

fn check_lgs(name: &str, goal: &GoalSchedule, golden: Golden) {
    check_golden(name, golden, || run_lgs(goal, StragglerSpec::default()));
}

fn check_synthetic(name: &str, goal: &GoalSchedule, htsim_golden: Golden, lgs_golden: Golden) {
    check(name, clos(), CcAlgo::Dctcp, false, goal, htsim_golden);
    check_lgs(name, goal, lgs_golden);
}

fn moe_goal() -> GoalSchedule {
    atlahs::schedgen::synthetic::moe_alltoall(16, 8, 128 << 10, 2, 10_000).expect("moe builds")
}

fn pipeline_goal() -> GoalSchedule {
    atlahs::schedgen::synthetic::pipeline_parallel(8, 4, 256 << 10, 20_000)
        .expect("pipeline builds")
}

fn storage_incast_goal() -> GoalSchedule {
    atlahs::schedgen::synthetic::storage_incast(4, 12, 128 << 10, 2).expect("incast builds")
}

#[test]
fn synthetic_moe_alltoall() {
    check_synthetic(
        "synthetic_moe_alltoall",
        &moe_goal(),
        Golden { makespan: 624344, packets: 22810, losses: 29, fingerprint: 9882847408263673026 },
        Golden { makespan: 183374, packets: 448, losses: 0, fingerprint: 5609275606591164578 },
    );
}

#[test]
fn synthetic_pipeline_parallel() {
    check_synthetic(
        "synthetic_pipeline_parallel",
        &pipeline_goal(),
        Golden { makespan: 1141354, packets: 3584, losses: 0, fingerprint: 13655304210608727665 },
        Golden { makespan: 866674, packets: 56, losses: 0, fingerprint: 8908028073276139227 },
    );
}

// --- large-trace fingerprints: the message-level path at the scale the
// --- paper replays (millions of GOAL ops through LGS). The smoke-size
// --- variant always runs; the full ~1M-op trace is release-scale and
// --- runs when ATLAHS_LARGE_GOLDENS=1 (ci.sh) or in release test
// --- builds, so the plain debug `cargo test` stays fast.

/// Smoke-size variant of the 1M-op trace below: same generator, same
/// shape (deep per-rank chains, one matcher key per stage boundary and
/// microbatch), ~15k ops.
#[test]
fn lgs_pipeline_large_smoke() {
    let goal = atlahs::schedgen::synthetic::pipeline_parallel(16, 160, 64 << 10, 10_000)
        .expect("pipeline builds");
    assert_eq!(goal.total_tasks(), 14_720);
    check_lgs(
        "lgs_pipeline_large_smoke",
        &goal,
        Golden { makespan: 5578980, packets: 4800, losses: 0, fingerprint: 11293447979076942022 },
    );
}

/// The ~1M-op pipeline_parallel trace through LGS — the acceptance
/// workload of the message-level perf work. Pinning it here guarantees the hot-path machinery
/// (timer-wheel event core, pooled matcher, SoA arena, ring-buffer ready
/// queues) stays bit-identical at trace scale, where rare code paths
/// (matcher spills, wheel overflow tiers) actually fire.
#[test]
fn lgs_pipeline_parallel_1m() {
    if cfg!(debug_assertions) && std::env::var_os("ATLAHS_LARGE_GOLDENS").is_none() {
        eprintln!("lgs_pipeline_parallel_1m: skipped (debug build; set ATLAHS_LARGE_GOLDENS=1)");
        return;
    }
    let goal = atlahs::schedgen::synthetic::pipeline_parallel(64, 2_700, 128 << 10, 5_000)
        .expect("pipeline builds");
    assert_eq!(goal.total_tasks(), 1_026_000);
    check_lgs(
        "lgs_pipeline_parallel_1m",
        &goal,
        Golden {
            makespan: 44782048,
            packets: 340200,
            losses: 0,
            fingerprint: 11592238996050649362,
        },
    );
}

#[test]
fn synthetic_storage_incast() {
    check_synthetic(
        "synthetic_storage_incast",
        &storage_incast_goal(),
        Golden { makespan: 652450, packets: 3661, losses: 301, fingerprint: 1207351324072312170 },
        Golden { makespan: 52392, packets: 192, losses: 0, fingerprint: 4204762182558412328 },
    );
}

#[test]
fn dragonfly_ndp_spray() {
    check(
        "dragonfly_ndp_spray",
        dragonfly(),
        CcAlgo::Ndp,
        true,
        &cross_tor_permutation(24, 256 * 1024),
        Golden { makespan: 55346, packets: 1536, losses: 0, fingerprint: 7130154478266168476 },
    );
}

// --- fault-injection fingerprints: the same engines under seeded link
// --- faults (packet level) and stragglers (message level). The faulty
// --- fingerprint additionally folds in `fault_drops`, so the fault-free
// --- fingerprints above stay untouched.

/// Three seeded core ports flap (down 20 µs – 80 µs into the run).
fn clos_flap() -> Vec<PortFault> {
    select_fault_ports(&Topology::build(clos()), 3, 0xfa)
        .into_iter()
        .map(|port| PortFault { port, start_ns: 20_000, end_ns: 80_000, kind: FaultKind::Down })
        .collect()
}

fn check_faulty(
    name: &str,
    topo: TopologyConfig,
    cc: CcAlgo,
    goal: &GoalSchedule,
    faults: &[PortFault],
    golden: Golden,
) {
    check_golden(name, golden, || run(topo.clone(), cc, false, goal, faults));
}

#[test]
fn clos_dctcp_linkflap() {
    check_faulty(
        "clos_dctcp_linkflap",
        clos(),
        CcAlgo::Dctcp,
        &cross_tor_permutation(32, 256 * 1024),
        &clos_flap(),
        Golden { makespan: 276694, packets: 2763, losses: 18, fingerprint: 14339675977075112708 },
    );
}

#[test]
fn clos_ndp_linkflap() {
    check_faulty(
        "clos_ndp_linkflap",
        clos(),
        CcAlgo::Ndp,
        &cross_tor_permutation(32, 256 * 1024),
        &clos_flap(),
        Golden { makespan: 218506, packets: 3811, losses: 272, fingerprint: 18207225906497027579 },
    );
}

/// LGS straggler golden: half the ranks at 3x calc cost, seeded.
#[test]
fn lgs_moe_straggler() {
    let goal = moe_goal();
    let straggler =
        StragglerSpec { prob_pct: 50, factor_pct: 300, seed: 0xabc, ..Default::default() };
    let golden =
        Golden { makespan: 223374, packets: 448, losses: 0, fingerprint: 5031363226221018023 };
    check_golden("lgs_moe_straggler", golden, || run_lgs(&goal, straggler));
    // The straggler must actually bite: same schedule without it is the
    // fault-free moe golden above, which finishes sooner.
    let got = run_lgs(&goal, straggler);
    let clean = run_lgs(&goal, StragglerSpec::default());
    assert!(got.makespan > clean.makespan, "{} <= {}", got.makespan, clean.makespan);
}

// --- the fault smoke grid (byte-frozen inside stochastic_smoke.json,
// --- which the golden table reproduces): every faulted cell must diverge
// --- from its fault-free sibling, or the golden would silently pin a
// --- fault spec that does nothing.

#[test]
fn fault_smoke_cells_diverge_from_their_clean_siblings() {
    use atlahs_bench::smoke::fault_smoke_grid;
    use atlahs_bench::sweep::execute;

    let cells = fault_smoke_grid().expand();
    assert_eq!(cells.len(), 45);
    let results = execute(&cells, 4);
    let clean: std::collections::HashMap<String, &atlahs_bench::scenario::CellResult> = results
        .iter()
        .filter(|r| r.key.matches('/').count() == 3)
        .map(|r| (r.key.clone(), r))
        .collect();
    let mut faulted = 0;
    for r in &results {
        let parts: Vec<&str> = r.key.split('/').collect();
        if parts.len() != 5 {
            continue;
        }
        faulted += 1;
        let sibling = clean[&parts[..4].join("/")];
        let moved = r.makespan != sibling.makespan
            || r.net.map(|n| n.fault_drops).unwrap_or(0) > 0
            || r.mct != sibling.mct;
        assert!(moved, "{}: fault spec had no observable effect", r.key);
        // Distributional regimes must also report realized-fault
        // telemetry; legacy regimes must not (their goldens are frozen).
        if let Some(cell) = cells.iter().find(|c| c.key() == r.key) {
            assert_eq!(
                r.fault.is_some(),
                cell.fault.distributional(),
                "{}: telemetry presence must track distributional()",
                r.key
            );
        }
    }
    assert_eq!(faulted, 36);
}

// --- checkpoint/resume bit-identity (the backend Snapshot contract):
// --- pausing any backend mid-run, checkpointing, restoring, and
// --- finishing from a cloned driver must reproduce the straight-through
// --- run's complete fingerprint — on the exact goldened scenarios above,
// --- clean and faulted, at several pause points. A drift here means the
// --- snapshot missed mutable state (a matcher slab, a timer-wheel
// --- cursor, an RNG stream) and branch-and-continue sweeps would lie.

/// Run `goal` on `backend` with `apply`'s overrides in place before the
/// first task and a checkpoint/restore cycle at `pause_at`: pause,
/// snapshot, restore the snapshot onto the same backend, and finish from
/// a *clone* of the paused driver (the fan-out pattern of
/// `atlahs sweep --branch-at`).
fn run_resumed<B: Backend + Snapshot>(
    goal: &GoalSchedule,
    backend: &mut B,
    apply: impl Fn(&mut B),
    pause_at: u64,
) -> SimReport {
    let mut driver = SimDriver::start(goal, backend);
    apply(backend);
    driver.run_until(backend, pause_at).expect("prefix completes");
    let snapshot = backend.checkpoint();
    backend.restore(&snapshot);
    driver.clone().finish(backend).expect("suffix completes")
}

#[test]
fn checkpoint_resume_is_bit_identical_on_htsim_clean_and_faulted() {
    let goal = cross_tor_permutation(32, 256 * 1024);
    for faults in [Vec::new(), clos_flap()] {
        let mk = || {
            let mut cfg = HtsimConfig::new(clos(), CcAlgo::Dctcp);
            cfg.queue_bytes = 256 * 1024;
            Recorded::new(HtsimBackend::new(cfg))
        };
        let mut straight_be = mk();
        let straight = run_applied(&goal, &mut straight_be, inject(&faults));
        let want = htsim_fingerprint(&straight, &straight_be, true);
        // Before traffic, mid-flap, and deep into the run.
        for pause_at in [1, 50_000, straight.makespan / 2, straight.makespan - 1] {
            let mut be = mk();
            let rep = run_resumed(&goal, &mut be, inject(&faults), pause_at);
            assert_eq!(
                htsim_fingerprint(&rep, &be, true),
                want,
                "htsim resume at {pause_at} (faults: {}) drifted",
                !faults.is_empty()
            );
            assert_eq!(rep.rank_finish, straight.rank_finish);
        }
    }
}

#[test]
fn checkpoint_resume_is_bit_identical_on_lgs_clean_and_straggled() {
    let goal = moe_goal();
    let params = LogGopsParams::ai_alps();
    let straggler =
        StragglerSpec { prob_pct: 50, factor_pct: 300, seed: 0xabc, ..Default::default() };
    for spec in [StragglerSpec::default(), straggler] {
        let apply = |be: &mut LgsBackend| be.apply_straggler_now(spec);
        let mut straight_be = LgsBackend::new(params);
        let straight = run_applied(&goal, &mut straight_be, apply);
        let (messages, bytes) = (straight_be.stats().messages, straight_be.stats().bytes);
        for pause_at in [1, 25_000, straight.makespan / 2, straight.makespan - 1] {
            let mut be = LgsBackend::new(params);
            let rep = run_resumed(&goal, &mut be, apply, pause_at);
            assert_eq!(rep.makespan, straight.makespan, "lgs resume at {pause_at} drifted");
            assert_eq!(rep.rank_finish, straight.rank_finish);
            assert_eq!(rep.completed, straight.completed);
            assert_eq!((be.stats().messages, be.stats().bytes), (messages, bytes));
        }
    }
}

#[test]
fn checkpoint_resume_is_bit_identical_on_ideal() {
    let goal = moe_goal();
    let mk = || atlahs::core::backends::IdealBackend::new(200, 600);
    let mut straight_be = mk();
    let straight = Simulation::new(&goal).run(&mut straight_be).expect("completes");
    for pause_at in [1, straight.makespan / 3, straight.makespan - 1] {
        let mut be = mk();
        let rep = run_resumed(&goal, &mut be, |_| (), pause_at);
        assert_eq!(rep.makespan, straight.makespan, "ideal resume at {pause_at} drifted");
        assert_eq!(rep.rank_finish, straight.rank_finish);
        assert_eq!(rep.completed, straight.completed);
    }
}

// --- the branch smoke grid (the `branch_smoke.json` row of the golden
// --- table): the shared-prefix snapshot executor must agree byte for
// --- byte with the checked-in golden, and its work counter must prove
// --- prefixes ran once per group.

#[test]
fn branch_smoke_reproduces_the_checked_in_golden_bytes() {
    golden_table::reproduce("branch_smoke.json");
}

// --- the stochastic smoke grid (the `stochastic_smoke.json` row): the
// --- per-packet loss/jitter cells draw from counter-based per-port
// --- streams and must agree byte for byte with the checked-in golden —
// --- with the 45 fault smoke cells byte-frozen inside.

#[test]
fn stochastic_smoke_reproduces_the_checked_in_golden_bytes() {
    golden_table::reproduce("stochastic_smoke.json");
}

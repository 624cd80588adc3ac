//! Property-based cross-backend harness: random well-formed GOAL DAGs run
//! through the message-level (LGS), packet-level (htsim), and ideal
//! backends, checking the invariants every conforming [`Backend`] must
//! uphold regardless of its network model:
//!
//! * **causality** — a task's completion never precedes the completion of
//!   any of its `requires` predecessors, and an op's `CpuFree` never
//!   follows its `Done`;
//! * **byte conservation** — every send and recv the schedule contains is
//!   issued exactly once with its exact byte count, and every task
//!   completes;
//! * **determinism** — re-running a backend on the same schedule
//!   reproduces the complete event log bit for bit;
//! * **optimality bound** — the contention-free ideal backend at the same
//!   link rate and zero latency is a lower bound on the packet-level,
//!   the rendezvous message-level and the testbed makespan (eager LGS
//!   breaks it; that test is ignored with the measured makespans);
//! * **fault regimes** — every invariant above survives seeded fault
//!   injection: link flaps force retransmissions without breaking byte
//!   conservation, straggler inflation never reorders a rank's issue
//!   chains, the ideal bound still holds against a faulted packet run,
//!   identical fault seeds reproduce bit-identical runs, and the harness
//!   catches a backend that silently ignores its fault spec;
//! * **stochastic loss** — under per-packet random loss up to 20%
//!   (200 000 ppm) every flow still completes (no RTO livelock), byte
//!   conservation holds at the issue interface, same-seed re-runs are
//!   bit-identical;
//! * **snapshot anywhere** — pausing at *any* bound (0 and past the
//!   makespan included), checkpointing, and continuing — on the same
//!   backend, on a freshly constructed one that was never set up, or
//!   from a checkpoint of an already-restored state — reproduces the
//!   straight run's report, stats and flow records, for every backend
//!   (the testbed reference included) and every configured fault regime;
//!   and the harness catches an engine that fails to carry its per-port
//!   draw counters across restore.
//!
//! The generator emits schedules from the same family the synthetic
//! workloads use (per-rank send chains and recv chains with interleaved
//! compute, every message matched, tags unique), which is deadlock-free on
//! every backend by construction.

use atlahs::core::api::EventKind;
use atlahs::core::backends::IdealBackend;
use atlahs::core::probe::{Call, FlowRecord, Recorded};
use atlahs::core::{Backend, Completion, OpRef, SimDriver, SimReport, Simulation, Snapshot, Time};
use atlahs::goal::merge::{compose, PlacedJob};
use atlahs::goal::{GoalBuilder, GoalSchedule, Rank, Tag, TaskId, TaskKind};
use atlahs::htsim::engine::{HtsimBackend, HtsimConfig};
use atlahs::htsim::fault::{select_fault_ports, FaultKind, PortFault};
use atlahs::htsim::topology::{LinkParams, Topology, TopologyConfig};
use atlahs::htsim::CcAlgo;
use atlahs::htsim::LinkModel;
use atlahs::lgs::{LgsBackend, LogGopsParams, StragglerSpec};
use atlahs::testbed::{TestbedBackend, TestbedConfig};
use proptest::collection::vec;
use proptest::prelude::*;

// ----------------------------------------------------------- generator ----

/// Raw draws for one generated message: (src draw, dst draw, bytes,
/// insert-calc draw, calc cost).
type RawMsg = (u32, u32, u64, u8, u64);

/// Assemble a well-formed schedule: every message is a matched send/recv
/// pair with a unique tag; per-rank sends (and interleaved calcs) form one
/// dependency chain and recvs another, so no send ever waits on a recv —
/// the construction `schedgen::synthetic` uses, deadlock-free on every
/// backend.
fn assemble(n: usize, msgs: &[RawMsg]) -> GoalSchedule {
    let mut b = GoalBuilder::new(n);
    let mut chain_s: Vec<Option<TaskId>> = vec![None; n];
    let mut chain_r: Vec<Option<TaskId>> = vec![None; n];
    for (m, &(src_draw, dst_draw, bytes, calc_draw, calc_cost)) in msgs.iter().enumerate() {
        let src = src_draw % n as u32;
        let dst = {
            let d = dst_draw % (n as u32 - 1);
            if d >= src {
                d + 1
            } else {
                d
            }
        };
        if calc_draw % 4 == 0 {
            // Occasionally interleave compute into the send chain.
            let c = b.calc(src, calc_cost);
            if let Some(p) = chain_s[src as usize] {
                b.requires(src, c, p);
            }
            chain_s[src as usize] = Some(c);
        }
        let tag = m as u32;
        let s = b.send(src, dst, bytes, tag);
        if let Some(p) = chain_s[src as usize] {
            b.requires(src, s, p);
        }
        chain_s[src as usize] = Some(s);
        let r = b.recv(dst, src, bytes, tag);
        if let Some(p) = chain_r[dst as usize] {
            b.requires(dst, r, p);
        }
        chain_r[dst as usize] = Some(r);
    }
    b.build().expect("generated schedule is valid by construction")
}

// ---------------------------------------------------------- invariants ----

struct RunTrace {
    makespan: u64,
    completed: usize,
    calls: Vec<Call>,
}

const KIND_SEND: u8 = 0;
const KIND_RECV: u8 = 1;
const KIND_CALC: u8 = 2;

impl RunTrace {
    fn of<B: Backend>(report: &SimReport, rec: &Recorded<B>) -> Self {
        RunTrace {
            makespan: report.makespan,
            completed: report.completed,
            calls: rec.calls().to_vec(),
        }
    }

    /// The completions in delivery order.
    fn log(&self) -> impl Iterator<Item = Completion> + '_ {
        self.calls.iter().filter_map(|call| match *call {
            Call::Event(ev) => ev,
            _ => None,
        })
    }

    /// `(op, backend time at issue, kind, bytes or cost)` per issue.
    fn issues(&self) -> impl Iterator<Item = (OpRef, Time, u8, u64)> + '_ {
        self.calls.iter().filter_map(|call| match *call {
            Call::Send { op, bytes, at, .. } => Some((op, at, KIND_SEND, bytes)),
            Call::Recv { op, bytes, at, .. } => Some((op, at, KIND_RECV, bytes)),
            Call::Calc { op, cost, at } => Some((op, at, KIND_CALC, cost)),
            Call::Setup(_) | Call::Event(_) => None,
        })
    }
}

fn run_recorded<B: Backend>(goal: &GoalSchedule, backend: B) -> RunTrace {
    run_applied(goal, backend, |_| ())
}

/// [`run_recorded`] with `apply`'s overrides in place before the first
/// task issues: how a fault enters a backend for a whole run.
fn run_applied<B: Backend>(
    goal: &GoalSchedule,
    backend: B,
    apply: impl FnOnce(&mut B),
) -> RunTrace {
    let mut rec = Recorded::new(backend);
    let driver = SimDriver::start(goal, &mut rec);
    apply(rec.inner_mut());
    let report = driver.finish(&mut rec).expect("generated schedules cannot deadlock");
    RunTrace::of(&report, &rec)
}

/// Check the per-backend invariants; returns the makespan.
fn check_invariants(name: &str, goal: &GoalSchedule, trace: &RunTrace) {
    let total = goal.total_tasks();
    assert_eq!(trace.completed, total, "{name}: not every task completed");

    // Index Done/CpuFree times per op.
    let mut done: std::collections::HashMap<OpRef, Time> = std::collections::HashMap::new();
    let mut cpu_free: std::collections::HashMap<OpRef, Time> = std::collections::HashMap::new();
    let mut last = 0u64;
    for c in trace.log() {
        assert!(c.time >= last, "{name}: event log went backwards");
        last = c.time;
        match c.kind {
            EventKind::Done => {
                assert!(
                    done.insert(c.op, c.time).is_none(),
                    "{name}: duplicate Done for {:?}",
                    c.op
                )
            }
            EventKind::CpuFree => {
                assert!(
                    cpu_free.insert(c.op, c.time).is_none(),
                    "{name}: duplicate CpuFree for {:?}",
                    c.op
                );
            }
        };
    }
    assert_eq!(done.len(), total, "{name}: exactly one Done per task");

    // CpuFree at or before Done.
    for (op, &t) in &cpu_free {
        assert!(t <= done[op], "{name}: CpuFree after Done for {op:?}");
    }

    // Causality: completions respect every completion (`requires`) edge,
    // and no task is issued before its `requires` predecessors complete.
    let mut issue_time: std::collections::HashMap<OpRef, Time> = std::collections::HashMap::new();
    for (op, t, _, _) in trace.issues() {
        issue_time.insert(op, t);
    }
    for (r, sched) in goal.ranks().iter().enumerate() {
        for (task, dep, kind) in sched.dep_edges() {
            if kind != atlahs::goal::DepKind::Full {
                continue;
            }
            let t_op = OpRef::new(r as Rank, task);
            let d_op = OpRef::new(r as Rank, dep);
            assert!(
                done[&d_op] <= done[&t_op],
                "{name}: task {t_op:?} completed before its dependency {d_op:?}"
            );
            assert!(
                done[&d_op] <= issue_time[&t_op],
                "{name}: task {t_op:?} issued before its dependency {d_op:?} completed"
            );
        }
    }

    // Byte conservation per rank: issued send/recv byte totals match the
    // schedule exactly (each op issued once, with its declared size).
    let n = goal.num_ranks();
    let mut want_send = vec![0u64; n];
    let mut want_recv = vec![0u64; n];
    for (r, sched) in goal.ranks().iter().enumerate() {
        for t in sched.tasks() {
            match t.kind {
                TaskKind::Send { bytes, .. } => want_send[r] += bytes,
                TaskKind::Recv { bytes, .. } => want_recv[r] += bytes,
                TaskKind::Calc { .. } => {}
            }
        }
    }
    let mut got_send = vec![0u64; n];
    let mut got_recv = vec![0u64; n];
    for (op, _, kind, bytes) in trace.issues() {
        match kind {
            KIND_SEND => got_send[op.rank as usize] += bytes,
            KIND_RECV => got_recv[op.rank as usize] += bytes,
            _ => {}
        }
    }
    assert_eq!(got_send, want_send, "{name}: sent bytes diverge from the schedule");
    assert_eq!(got_recv, want_recv, "{name}: received bytes diverge from the schedule");
}

fn assert_identical(name: &str, a: &RunTrace, b: &RunTrace) {
    assert_eq!(a.makespan, b.makespan, "{name}: re-run changed the makespan");
    assert_eq!(a.calls, b.calls, "{name}: re-run changed the call stream");
}

fn htsim_backend(n: usize, seed: u64) -> HtsimBackend {
    let topo = TopologyConfig::SingleSwitch { hosts: n, link: LinkParams::default() };
    let mut cfg = HtsimConfig::new(topo, CcAlgo::Mprdma);
    cfg.seed = seed;
    HtsimBackend::new(cfg)
}

/// Ideal reference at the same edge rate with zero latency and no
/// protocol overheads: a lower bound for the packet-level run.
fn ideal_bound() -> IdealBackend {
    IdealBackend::new(LinkParams::default().gbps, 0)
}

// ------------------------------------------------------- fault regimes ----

/// Install a fault schedule in a set-up packet backend.
fn inject(faults: &[PortFault]) -> impl Fn(&mut HtsimBackend) + '_ {
    |b| faults.iter().for_each(|&f| b.inject_fault(f))
}

/// A per-packet stochastic loss model armed on every tier (the
/// draw-stream seed is independent of the engine seed, mirroring how the
/// sweep derives it from the fault label).
fn loss_model(seed: u64, ppm: u32) -> LinkModel {
    LinkModel {
        core_loss_ppm: ppm,
        edge_loss_ppm: ppm,
        jitter: None,
        seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
    }
}

/// Two seeded down-windows early in the run: on a `SingleSwitch` the
/// selection falls back to switch→host delivery ports, so every packet
/// bound for a faulted host inside the window is blackholed and must be
/// recovered by retransmission after the link comes back.
fn flap_faults(n: usize, seed: u64) -> Vec<PortFault> {
    let topo =
        Topology::build(TopologyConfig::SingleSwitch { hosts: n, link: LinkParams::default() });
    select_fault_ports(&topo, 2, seed)
        .into_iter()
        .map(|port| PortFault { port, start_ns: 2_000, end_ns: 40_000, kind: FaultKind::Down })
        .collect()
}

/// A rank's issue stream split into its two dependency chains: the
/// send chain (sends and interleaved calcs) and the recv chain. Each
/// chain's order is forced by `requires` edges, so no fault model may
/// permute it — only shift it in time. (The two chains *may* interleave
/// differently when timing changes, which is why they are compared
/// separately.) Calc entries carry the *schedule's* cost — straggler
/// inflation happens inside the backend, below the issue interface.
type SendChain = Vec<(OpRef, u8, u64)>;
type RecvChain = Vec<(OpRef, u64)>;

fn issue_chains(trace: &RunTrace, rank: Rank) -> (SendChain, RecvChain) {
    let mut send_chain = Vec::new();
    let mut recv_chain = Vec::new();
    for (op, _, kind, bytes) in trace.issues() {
        if op.rank != rank {
            continue;
        }
        if kind == KIND_RECV {
            recv_chain.push((op, bytes));
        } else {
            send_chain.push((op, kind, bytes));
        }
    }
    (send_chain, recv_chain)
}

/// A fault spec must observably change the run; the meta-test below
/// proves the harness catches a backend that swallows its spec.
fn assert_faults_bite(name: &str, clean: &RunTrace, faulty: &RunTrace) {
    assert!(
        clean.makespan != faulty.makespan || clean.log().ne(faulty.log()),
        "{name}: fault spec had no effect"
    );
}

// ----------------------------------------------------- snapshot anywhere ----

/// Where a run is paused, as a share of its own makespan: the low draws
/// pin the bound to 0, the ones above 1000‰ land past the last event.
fn pause_permille() -> impl Strategy<Value = u64> {
    (0u64..1_200).prop_map(|draw| if draw < 100 { 0 } else { draw })
}

/// `run_until(bound)` → `checkpoint` → finish, then every way back into
/// that checkpoint: (i) the same backend, (ii) a freshly constructed
/// backend that was never set up, (iii) a checkpoint taken of an
/// already-restored state. Every continuation must reproduce the
/// straight run's report and whatever `observe` reads off the backend.
/// `apply` is the fault regime, applied before the first task of both
/// runs. `tamper` runs on the restored backend of (i) — the identity for
/// a real check, a deliberate corruption for the meta-test.
fn assert_snapshot_anywhere<B: Backend + Snapshot, O: PartialEq + std::fmt::Debug>(
    name: &str,
    goal: &GoalSchedule,
    permille: u64,
    mk: impl Fn() -> B,
    apply: impl Fn(&mut B),
    observe: impl Fn(&B) -> O,
    tamper: impl Fn(&mut B),
) {
    let start = || {
        let mut b = mk();
        let driver = SimDriver::start(goal, &mut b);
        apply(&mut b);
        (driver, b)
    };
    let (driver, mut sb) = start();
    let report = driver.finish(&mut sb).expect("generated schedules cannot deadlock");
    let bound = report.makespan * permille / 1_000;
    let straight = (report, observe(&sb));

    let (mut driver, mut b) = start();
    driver.run_until(&mut b, bound).expect("generated schedules cannot deadlock");
    let snap = b.checkpoint();
    let finish = |b: &mut B| {
        let report = driver.clone().finish(b).expect("generated schedules cannot deadlock");
        (report, observe(b))
    };
    assert_eq!(finish(&mut b), straight, "{name}: pausing at {bound} perturbed the run");

    b.restore(&snap);
    tamper(&mut b);
    assert_eq!(finish(&mut b), straight, "{name}: restored run diverged (paused at {bound})");

    let mut fresh = mk();
    fresh.restore(&snap);
    assert_eq!(finish(&mut fresh), straight, "{name}: restore into a fresh backend diverged");

    fresh.restore(&snap);
    b.restore(&fresh.checkpoint());
    assert_eq!(finish(&mut b), straight, "{name}: a checkpoint of a restored state diverged");
}

/// The `tamper` of a real check.
fn untouched<B>(_: &mut B) {}

/// The packet backend's observables beyond the report.
fn htsim_observables(b: &Recorded<HtsimBackend>) -> (atlahs::htsim::NetStats, Vec<FlowRecord>) {
    (b.inner().net_stats(), b.flows())
}

// -------------------------------------------------------------- driver ----

fn raw_msg() -> impl Strategy<Value = RawMsg> {
    (0u32..1024, 0u32..1024, 1u64..(256 << 10), 0u8..255, 0u64..50_000)
}

// ----------------------------------------------------- tenant isolation ----

/// Per-op event times of a trace restricted to the ranks in `nodes`:
/// `(op, kind) -> time` for completions, `op -> (time, kind, bytes)` for
/// issues. Sets, not sequences, so unrelated tenants' events interleaving
/// at equal times cannot produce false mismatches.
type EventTimes = (
    std::collections::HashMap<(OpRef, EventKind), Time>,
    std::collections::HashMap<OpRef, (Time, u8, u64)>,
);

fn restrict(trace: &RunTrace, nodes: &[Rank]) -> EventTimes {
    let mine = |r: Rank| nodes.contains(&r);
    let mut completions = std::collections::HashMap::new();
    for c in trace.log() {
        if mine(c.op.rank) {
            assert!(
                completions.insert((c.op, c.kind), c.time).is_none(),
                "duplicate completion for {:?}",
                c.op
            );
        }
    }
    let mut issues = std::collections::HashMap::new();
    for (op, t, kind, bytes) in trace.issues() {
        if mine(op.rank) {
            assert!(issues.insert(op, (t, kind, bytes)).is_none());
        }
    }
    (completions, issues)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tenant isolation: a job composed alongside noise jobs on
    /// *disjoint* nodes must behave exactly as if it were alone — the
    /// same send/recv issue stream with the same byte counts, the same
    /// per-op completion times, and the same per-rank finish times — on
    /// both the message-level and the ideal backend. (The multi-job
    /// composition assigns the job the same task ids, streams, and tags
    /// as a solo placement, and neither backend models
    /// cross-node contention, so any divergence is a compose bug — e.g.
    /// the phantom per-rank dummy tasks this pins down.)
    #[test]
    fn disjoint_tenants_are_isolated_on_contention_free_backends(
        n in 2usize..5,
        msgs in vec(raw_msg(), 1..12),
        noise_msgs in vec(raw_msg(), 1..12),
    ) {
        let job = assemble(n, &msgs);
        let noise = assemble(3, &noise_msgs);
        let cluster = n + 3;
        let job_nodes: Vec<Rank> = (0..n as Rank).collect();
        let noise_nodes: Vec<Rank> = (n as Rank..cluster as Rank).collect();
        let solo = compose(&[PlacedJob::new(&job, job_nodes.clone())], cluster)
            .expect("solo placement composes");
        let multi = compose(
            &[
                PlacedJob::new(&job, job_nodes.clone()),
                PlacedJob::new(&noise, noise_nodes),
            ],
            cluster,
        )
        .expect("disjoint jobs compose");

        // The job's sub-schedule must be untouched by the composition:
        // same task count per node (no phantom dummies on disjoint
        // placements).
        for &node in &job_nodes {
            prop_assert_eq!(
                multi.rank(node).num_tasks(),
                solo.rank(node).num_tasks(),
                "node {}: composition altered the tenant's task list",
                node
            );
        }

        for backend in ["lgs", "ideal"] {
            let (s, m) = match backend {
                "lgs" => (
                    run_recorded(&solo, LgsBackend::new(LogGopsParams::ai_alps())),
                    run_recorded(&multi, LgsBackend::new(LogGopsParams::ai_alps())),
                ),
                _ => (run_recorded(&solo, ideal_bound()), run_recorded(&multi, ideal_bound())),
            };
            let (s_done, s_issues) = restrict(&s, &job_nodes);
            let (m_done, m_issues) = restrict(&m, &job_nodes);
            prop_assert_eq!(
                &s_issues, &m_issues,
                "{}: noise tenants changed the job's issue stream", backend
            );
            prop_assert_eq!(
                &s_done, &m_done,
                "{}: noise tenants changed the job's completion times", backend
            );
        }
    }

    #[test]
    fn backends_uphold_their_contract(
        n in 2usize..6,
        msgs in vec(raw_msg(), 1..16),
        seed in 1u64..1_000_000,
    ) {
        let goal = assemble(n, &msgs);

        // LGS (eager AI parameters).
        let lgs = run_recorded(&goal, LgsBackend::new(LogGopsParams::ai_alps()));
        check_invariants("lgs", &goal, &lgs);
        let lgs2 = run_recorded(&goal, LgsBackend::new(LogGopsParams::ai_alps()));
        assert_identical("lgs", &lgs, &lgs2);

        // LGS again under rendezvous, which adds the RTS/CTS handshake.
        let rdv = LogGopsParams { s: 32 << 10, ..LogGopsParams::hpc_testbed() };
        let lgs_rdv = run_recorded(&goal, LgsBackend::new(rdv));
        check_invariants("lgs-rendezvous", &goal, &lgs_rdv);

        // htsim (packet level).
        let ht = run_recorded(&goal, htsim_backend(n, seed));
        check_invariants("htsim", &goal, &ht);
        let ht2 = run_recorded(&goal, htsim_backend(n, seed));
        assert_identical("htsim", &ht, &ht2);

        // Ideal reference.
        let ideal = run_recorded(&goal, ideal_bound());
        check_invariants("ideal", &goal, &ideal);

        // The contention-free, zero-latency, overhead-free model at the
        // same link rate can only be faster than the packet simulation.
        prop_assert!(
            ideal.makespan <= ht.makespan,
            "ideal {} must lower-bound htsim {}",
            ideal.makespan,
            ht.makespan
        );
    }

    /// The ideal bound holds against the message-level model under
    /// rendezvous, which adds overheads, latency and a handshake to the
    /// same wire time.
    #[test]
    fn ideal_lower_bounds_rendezvous_lgs(n in 2usize..6, msgs in vec(raw_msg(), 1..16)) {
        let goal = assemble(n, &msgs);
        let ideal = run_recorded(&goal, ideal_bound()).makespan;
        let rdv = LogGopsParams { s: 32 << 10, ..LogGopsParams::hpc_testbed() };
        let lgs = run_recorded(&goal, LgsBackend::new(rdv)).makespan;
        prop_assert!(ideal <= lgs, "ideal {ideal} must lower-bound rendezvous lgs {lgs}");
    }

    /// The same law for eager LGS, which it breaks: an eager send
    /// completes `o` after issue, before its bytes have left, while an
    /// ideal send completes when its last byte leaves.
    #[test]
    #[ignore = "broken: the first failing case reads ideal 54 024 ns > eager LGS 49 985 ns"]
    fn ideal_lower_bounds_eager_lgs(n in 2usize..6, msgs in vec(raw_msg(), 1..16)) {
        let goal = assemble(n, &msgs);
        let ideal = run_recorded(&goal, ideal_bound()).makespan;
        let lgs = run_recorded(&goal, LgsBackend::new(LogGopsParams::ai_alps())).makespan;
        prop_assert!(ideal <= lgs, "ideal {ideal} must lower-bound eager lgs {lgs}");
    }

    /// The ideal bound holds against the testbed reference, computation
    /// noise on.
    #[test]
    fn ideal_lower_bounds_testbed(
        n in 2usize..6,
        msgs in vec(raw_msg(), 1..16),
        seed in 1u64..1_000_000,
    ) {
        let goal = assemble(n, &msgs);
        let ideal = run_recorded(&goal, ideal_bound()).makespan;
        let topo = TopologyConfig::SingleSwitch { hosts: n, link: LinkParams::default() };
        let testbed = TestbedBackend::new(TestbedConfig { seed, ..TestbedConfig::new(topo) });
        let testbed = run_recorded(&goal, testbed).makespan;
        prop_assert!(ideal <= testbed, "ideal {ideal} must lower-bound the testbed {testbed}");
    }

    /// The backend contract under fault injection: link flaps and
    /// straggler inflation may slow a run down but must not break
    /// completion, causality, byte conservation, per-chain issue order,
    /// determinism, or the ideal lower bound.
    #[test]
    fn fault_regimes_preserve_the_backend_contract(
        n in 2usize..6,
        msgs in vec(raw_msg(), 1..16),
        seed in 1u64..1_000_000,
    ) {
        let goal = assemble(n, &msgs);

        // htsim under link flaps: the blackholed windows force drops and
        // retransmissions, yet every invariant — including per-rank byte
        // conservation at the issue interface — must still hold, and the
        // run must still complete once the links recover.
        let faults = flap_faults(n, seed);
        let ht = run_applied(&goal, htsim_backend(n, seed), inject(&faults));
        check_invariants("htsim-linkflap", &goal, &ht);

        // Identical fault seed and schedule ⇒ bit-identical re-run.
        let ht2 = run_applied(&goal, htsim_backend(n, seed), inject(&faults));
        assert_identical("htsim-linkflap", &ht, &ht2);

        // Faults only ever slow the packet run down, so the ideal
        // contention-free bound holds a fortiori.
        let ideal = run_recorded(&goal, ideal_bound());
        prop_assert!(
            ideal.makespan <= ht.makespan,
            "ideal {} must lower-bound faulty htsim {}",
            ideal.makespan,
            ht.makespan
        );

        // LGS under straggler inflation: invariants hold, re-runs are
        // bit-identical, the makespan never shrinks, and each rank's two
        // dependency chains issue in exactly the clean run's order.
        let spec = StragglerSpec { prob_pct: 50, factor_pct: 300, seed, ..Default::default() };
        let straggle = || {
            let apply = |b: &mut LgsBackend| b.apply_straggler_now(spec);
            run_applied(&goal, LgsBackend::new(LogGopsParams::ai_alps()), apply)
        };
        let straggled = straggle();
        check_invariants("lgs-straggler", &goal, &straggled);
        assert_identical("lgs-straggler", &straggled, &straggle());

        let clean = run_recorded(&goal, LgsBackend::new(LogGopsParams::ai_alps()));
        prop_assert!(
            straggled.makespan >= clean.makespan,
            "straggler inflation shortened the run: {} < {}",
            straggled.makespan,
            clean.makespan
        );
        for r in 0..n as Rank {
            let (clean_s, clean_r) = issue_chains(&clean, r);
            let (slow_s, slow_r) = issue_chains(&straggled, r);
            prop_assert_eq!(
                clean_s, slow_s,
                "rank {}: straggler inflation reordered the send chain", r
            );
            prop_assert_eq!(
                clean_r, slow_r,
                "rank {}: straggler inflation reordered the recv chain", r
            );
        }
    }

    /// The backend contract under sustained per-packet random loss, at
    /// rates up to 20% (200 000 ppm): every flow completes — the bounded
    /// exponential RTO backoff never livelocks, because the CC window
    /// floor keeps at least one MTU in flight and every retry is
    /// rescheduled — per-rank byte conservation holds at the issue
    /// interface, the same draw-stream seed reproduces the run bit for
    /// bit, and the contention-free ideal bound survives a fortiori.
    #[test]
    fn stochastic_loss_preserves_the_backend_contract(
        n in 2usize..6,
        msgs in vec(raw_msg(), 1..16),
        seed in 1u64..1_000_000,
        ppm in 1_000u32..200_001,
    ) {
        let goal = assemble(n, &msgs);
        let lossy_run = || {
            let apply = |b: &mut HtsimBackend| b.set_link_model(loss_model(seed, ppm));
            run_applied(&goal, htsim_backend(n, seed), apply)
        };
        let lossy = lossy_run();
        // Completion (no RTO livelock), causality, and per-rank byte
        // conservation under loss.
        check_invariants("htsim-loss", &goal, &lossy);

        // Identical draw-stream seed ⇒ bit-identical re-run.
        let lossy2 = lossy_run();
        assert_identical("htsim-loss", &lossy, &lossy2);

        // Loss only ever wastes wire time; the ideal bound still holds.
        let ideal = run_recorded(&goal, ideal_bound());
        prop_assert!(
            ideal.makespan <= lossy.makespan,
            "ideal {} must lower-bound lossy htsim {}",
            ideal.makespan,
            lossy.makespan
        );
    }

    /// Snapshot exactness at an arbitrary event, for every backend and
    /// every configured regime (see [`assert_snapshot_anywhere`]).
    #[test]
    fn snapshot_anywhere_continues_bit_identically(
        n in 2usize..6,
        msgs in vec(raw_msg(), 1..16),
        seed in 1u64..1_000_000,
        permille in pause_permille(),
        ppm in 1_000u32..200_001,
    ) {
        let goal = assemble(n, &msgs);

        assert_snapshot_anywhere("ideal", &goal, permille, ideal_bound, untouched, |_| (), untouched);

        let straggler = StragglerSpec { prob_pct: 50, factor_pct: 300, seed, ..Default::default() };
        for (name, spec) in [("lgs", StragglerSpec::default()), ("lgs-straggler", straggler)] {
            let rdv = LogGopsParams { s: 32 << 10, ..LogGopsParams::hpc_testbed() };
            let mk = || LgsBackend::new(rdv);
            let apply = |b: &mut LgsBackend| b.apply_straggler_now(spec);
            assert_snapshot_anywhere(name, &goal, permille, mk, apply, LgsBackend::stats, untouched);
        }

        // The testbed with its computation noise on: RNG draws ride in the
        // state with the flows.
        let testbed = || {
            let topo = TopologyConfig::SingleSwitch { hosts: n, link: LinkParams::default() };
            TestbedBackend::new(TestbedConfig { seed, ..TestbedConfig::new(topo) })
        };
        assert_snapshot_anywhere("testbed", &goal, permille, testbed, untouched, |_| (), untouched);

        let regimes =
            [("htsim", Vec::new(), 0), ("htsim-linkflap", flap_faults(n, seed), 0), ("htsim-loss", Vec::new(), ppm)];
        for (name, faults, ppm) in regimes {
            let mk = || Recorded::new(htsim_backend(n, seed));
            let apply = |b: &mut Recorded<HtsimBackend>| {
                inject(&faults)(b.inner_mut());
                b.inner_mut().set_link_model(loss_model(seed, ppm));
            };
            assert_snapshot_anywhere(name, &goal, permille, mk, apply, htsim_observables, untouched);
        }
    }
}

/// The harness itself must catch a cheating backend: a "backend" that
/// reports instant completions for everything violates causality/byte
/// accounting and must fail the checks (meta-test for the invariants).
#[test]
#[should_panic(expected = "not every task completed")]
fn harness_rejects_a_backend_that_drops_tasks() {
    struct Lossy(IdealBackend);
    impl Backend for Lossy {
        fn simulation_setup(&mut self, n: usize) {
            self.0.simulation_setup(n)
        }
        fn now(&self) -> Time {
            self.0.now()
        }
        fn send(&mut self, op: OpRef, dst: Rank, bytes: u64, tag: Tag) {
            self.0.send(op, dst, bytes, tag)
        }
        fn recv(&mut self, _op: OpRef, _src: Rank, _bytes: u64, _tag: Tag) {
            // Swallow recvs entirely: the run deadlocks or under-counts.
        }
        fn calc(&mut self, op: OpRef, cost: u64) {
            self.0.calc(op, cost)
        }
        fn next_event(&mut self) -> Option<Completion> {
            self.0.next_event()
        }
    }
    let goal = assemble(3, &[(0, 0, 1024, 1, 0), (1, 1, 2048, 1, 0)]);
    let mut rec = Recorded::new(Lossy(ideal_bound()));
    // The simulation errors with a deadlock; map it to the same panic the
    // invariant checker would raise so the meta-test asserts one message.
    match Simulation::new(&goal).run(&mut rec) {
        Err(_) => panic!("not every task completed"),
        Ok(report) => check_invariants("lossy", &goal, &RunTrace::of(&report, &rec)),
    }
}

/// A fixed all-to-all-ish schedule dense enough that the early fault
/// windows of [`flap_faults`] are guaranteed to blackhole live traffic
/// on every delivery port.
fn dense_goal() -> GoalSchedule {
    let mut msgs = Vec::new();
    for src in 0u32..4 {
        for dst in 0u32..3 {
            msgs.push((src, dst, 128 << 10, 1u8, 0u64));
        }
    }
    assemble(4, &msgs)
}

/// Positive control for the meta-test below: a real faulted engine run
/// visibly diverges from the clean one while keeping every invariant.
#[test]
fn link_faults_observably_perturb_the_packet_run() {
    let goal = dense_goal();
    let clean = run_recorded(&goal, htsim_backend(4, 9));
    let faulty = run_applied(&goal, htsim_backend(4, 9), inject(&flap_faults(4, 9)));
    check_invariants("htsim-linkflap", &goal, &faulty);
    assert_faults_bite("htsim-linkflap", &clean, &faulty);
}

/// The harness must catch a backend that accepts a fault spec and then
/// ignores it: modelled by an engine whose fault list was stripped, its
/// run is bit-identical to the clean one and `assert_faults_bite` has
/// to flag it.
#[test]
#[should_panic(expected = "fault spec had no effect")]
fn harness_catches_a_backend_that_ignores_its_fault_spec() {
    let goal = dense_goal();
    let clean = run_recorded(&goal, htsim_backend(4, 9));
    let fault_blind = run_applied(&goal, htsim_backend(4, 9), inject(&[]));
    assert_faults_bite("fault-blind", &clean, &fault_blind);
}

/// The 10 % loss regime of the two snapshot tests below.
fn lossy(b: &mut Recorded<HtsimBackend>) {
    b.inner_mut().set_link_model(loss_model(9, 100_000));
}

/// Snapshot-mid-loss on a schedule dense enough that the loss is
/// guaranteed to bite: the per-port draw counters ride in the
/// checkpoint, so every continuation consumes exactly the draw stream a
/// straight-through run consumes — same makespan, same realized drops.
#[test]
fn snapshot_mid_loss_resume_is_bit_identical() {
    let mk = || Recorded::new(htsim_backend(4, 9));
    let observe = |b: &Recorded<HtsimBackend>| {
        let drops = b.inner().net_stats().stochastic_drops;
        assert!(drops > 0, "the scenario must actually drop packets");
        htsim_observables(b)
    };
    assert_snapshot_anywhere("htsim-loss", &dense_goal(), 500, mk, lossy, observe, untouched);
}

/// The meta-test for the identity above: an engine that fails to carry
/// its per-port draw counters across restore (emulated with the
/// `skip_stochastic_draws` verification hook) samples a shifted stream,
/// realizes different drops, and must be flagged by the same
/// assertions every snapshot-anywhere check makes.
#[test]
#[should_panic(expected = "restored run diverged")]
fn harness_catches_an_engine_that_skips_draw_counters() {
    let mk = || Recorded::new(htsim_backend(4, 9));
    // A restore that loses counter positions: every host-side port
    // resumes 17 draws ahead of where the snapshot left it.
    let skip = |b: &mut Recorded<HtsimBackend>| {
        (0..4).for_each(|port| b.inner_mut().skip_stochastic_draws(port, 17))
    };
    assert_snapshot_anywhere("htsim-loss", &dense_goal(), 500, mk, lossy, htsim_observables, skip);
}

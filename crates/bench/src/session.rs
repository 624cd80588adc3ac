//! The one cell executor: every simulation the scenario layer runs —
//! a straight sweep cell, a branch-and-continue group, a cluster batch —
//! is one *session* on one backend.
//!
//! ```text
//! start → [run_until(branch_at) → checkpoint] → per member: [restore →] apply(fault) → finish → collect
//! ```
//!
//! A backend is built from its configuration alone, which holds no
//! faults; every member's fault is applied to the set-up backend as an
//! override by the backend that models it (`CellBackend::apply`), against
//! the state it already holds.
//!
//! * **Straight** (`branch_at = None`, one member): the fault is applied
//!   right after `start`, before the driver issues the first task, so it
//!   holds from time 0 — a branched session with no prefix. Nothing is
//!   paused, checkpointed, restored, or cloned.
//! * **Branched** (`branch_at = Some(t)`): the backend runs the clean
//!   prefix to the first event at or after `t`, and each member's fault
//!   is applied there (windows clamped to open no earlier than the branch
//!   point). With one member that is the whole story; with several the
//!   paused state is [`Snapshot::checkpoint`]ed once and every member
//!   restores it first, so the prefix is simulated once per session.
//!
//! [`run`] holds the only `match` on [`BackendSpec`] that constructs a
//! backend; the driver behind it is monomorphised per backend type.

use std::time::{Duration, Instant};

use atlahs_core::backends::IdealBackend;
use atlahs_core::probe::Recorded;
use atlahs_core::{Backend, SimDriver, SimReport, Snapshot};
use atlahs_goal::GoalSchedule;
use atlahs_htsim::engine::{HtsimBackend, HtsimConfig, NetStats};
use atlahs_lgs::{LgsBackend, StragglerSpec};
use atlahs_testbed::{TestbedBackend, TestbedConfig};

use crate::scenario::{
    cell_seed, lgs_params_for, BackendSpec, FaultSpec, FaultTelemetry, TopologySpec,
};

/// What one session simulates on: the fabric, the backend on top of it,
/// and the simulation seed (packet RNG; fault draws derive from it).
pub struct Session<'a> {
    pub topology: &'a TopologySpec,
    pub backend: BackendSpec,
    pub seed: u64,
    /// Record per-flow completion times (packet-level backends only): the
    /// backend runs inside a [`Recorded`] wrapper.
    pub collect_flows: bool,
}

/// One member's finished run.
pub struct Outcome {
    pub report: SimReport,
    /// Flow-completion summary and packet statistics (all-zero / `None`
    /// off the packet-level backends).
    pub mct: DistSummary,
    pub net: Option<NetStats>,
    pub fault: Option<FaultTelemetry>,
    /// Host wall-clock of the member's share of the session; the shared
    /// prefix is charged to the first member.
    pub wall: Duration,
}

/// Mean / p99 / max summary of a set of durations (the MCT columns of
/// sweep reports and Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistSummary {
    pub mean: f64,
    pub p99: u64,
    pub max: u64,
    pub count: usize,
}

impl DistSummary {
    pub fn of(mut durations: Vec<u64>) -> DistSummary {
        if durations.is_empty() {
            // A cell without flow records summarizes to zeros.
            return DistSummary { mean: 0.0, p99: 0, max: 0, count: 0 };
        }
        durations.sort_unstable();
        let count = durations.len();
        let mean = durations.iter().map(|&d| d as f64).sum::<f64>() / count as f64;
        let p99 = durations[p99_index(count)];
        let max = *durations.last().unwrap();
        DistSummary { mean, p99, max, count }
    }
}

/// Where the p99 of `count > 0` sorted values sits: the ⌈0.99·count⌉-th.
fn p99_index(count: usize) -> usize {
    (count * 99).div_ceil(100) - 1
}

/// What the driver needs from a backend beyond `Backend + Snapshot`.
/// Fault families a backend does not model are ignored (the default).
trait CellBackend: Backend + Snapshot {
    /// Put `fault` onto the set-up backend, from now on, with its draws
    /// keyed by `seed`; returns the realized-fault telemetry of the
    /// distributional regimes. `ranks` is the simulated schedule's width.
    fn apply(&mut self, _fault: &FaultSpec, _seed: u64, _ranks: usize) -> Option<FaultTelemetry> {
        None
    }

    fn harvest(&self) -> (DistSummary, Option<NetStats>) {
        (DistSummary::of(Vec::new()), None)
    }
}

impl CellBackend for IdealBackend {}

impl CellBackend for TestbedBackend {}

impl CellBackend for LgsBackend {
    fn apply(&mut self, fault: &FaultSpec, seed: u64, ranks: usize) -> Option<FaultTelemetry> {
        let FaultSpec::Straggler(spec) = fault else { return None };
        let spec = StragglerSpec { seed, ..*spec };
        self.apply_straggler_now(spec);
        (spec.spread_pct > 0).then(|| FaultTelemetry {
            stragglers: (0..ranks).filter(|&r| spec.is_straggler(r)).count() as u64,
            ..FaultTelemetry::default()
        })
    }
}

impl CellBackend for HtsimBackend {
    fn apply(&mut self, fault: &FaultSpec, seed: u64, _ranks: usize) -> Option<FaultTelemetry> {
        match fault {
            FaultSpec::Window(window) => {
                let ports = window.lower(self.topology(), seed);
                // Telemetry describes the generated schedule, before a
                // branch point clamps its windows.
                let telemetry = window.distributional().then(|| FaultTelemetry {
                    windows: ports.len() as u64,
                    downtime_ns: ports.iter().map(|f| f.end_ns - f.start_ns).sum(),
                    stragglers: 0,
                });
                ports.into_iter().for_each(|f| self.inject_fault(f));
                telemetry
            }
            // Packets already in flight were drawn (or not) under the
            // prefix's clean model; the per-port draw counters ride in
            // the snapshot, so every member continues the same stream.
            FaultSpec::Stochastic(spec) => {
                self.set_link_model(spec.model(seed));
                None
            }
            _ => None,
        }
    }

    fn harvest(&self) -> (DistSummary, Option<NetStats>) {
        (DistSummary::of(Vec::new()), Some(self.net_stats()))
    }
}

/// A recorded cell reports its flows' completion times next to whatever
/// the backend it wraps reports.
impl<B: CellBackend> CellBackend for Recorded<B> {
    fn apply(&mut self, fault: &FaultSpec, seed: u64, ranks: usize) -> Option<FaultTelemetry> {
        self.inner_mut().apply(fault, seed, ranks)
    }

    fn harvest(&self) -> (DistSummary, Option<NetStats>) {
        let mct = DistSummary::of(self.flows().iter().map(|f| f.duration()).collect());
        (mct, self.inner().harvest().1)
    }
}

/// Run one session of `goal`: one [`Outcome`] per entry of `faults`, in
/// order. A straight session (`branch_at = None`) has exactly one member.
pub fn run(
    session: &Session<'_>,
    goal: &GoalSchedule,
    branch_at: Option<u64>,
    faults: &[&FaultSpec],
) -> Vec<Outcome> {
    let Session { topology, seed, collect_flows, .. } = *session;
    match session.backend {
        BackendSpec::Htsim { cc, spray } => {
            let mut cfg = HtsimConfig::new(topology.config(), cc);
            cfg.seed = seed;
            cfg.spray = spray;
            let backend = HtsimBackend::new(cfg);
            if collect_flows {
                drive(Recorded::new(backend), session, goal, branch_at, faults)
            } else {
                drive(backend, session, goal, branch_at, faults)
            }
        }
        BackendSpec::Lgs => {
            drive(LgsBackend::new(lgs_params_for(topology)), session, goal, branch_at, faults)
        }
        BackendSpec::Ideal => {
            let link = topology.edge_link();
            let backend = IdealBackend::new(link.gbps, link.latency_ns);
            drive(backend, session, goal, branch_at, faults)
        }
        BackendSpec::Testbed => {
            let mut cfg = TestbedConfig::new(topology.config());
            cfg.seed = seed;
            drive(TestbedBackend::new(cfg), session, goal, branch_at, faults)
        }
    }
}

fn drive<B: CellBackend>(
    mut backend: B,
    session: &Session<'_>,
    goal: &GoalSchedule,
    branch_at: Option<u64>,
    faults: &[&FaultSpec],
) -> Vec<Outcome> {
    assert!(branch_at.is_some() || faults.len() == 1, "a straight session has one member");
    let t0 = Instant::now();
    let mut driver = SimDriver::start(goal, &mut backend);
    let mut snapshot = None;
    if let Some(at) = branch_at {
        driver.run_until(&mut backend, at).expect(DEADLOCK_FREE);
        // One member needs no way back to the branch point.
        snapshot = (faults.len() > 1).then(|| backend.checkpoint());
    }
    let mut prefix_wall = t0.elapsed();

    let mut driver = Some(driver);
    let last = faults.len() - 1;
    let members = faults.iter().enumerate().map(|(i, fault)| {
        let t1 = Instant::now();
        if let Some(state) = &snapshot {
            backend.restore(state);
        }
        // Every fault draw is keyed by a sub-seed of the simulation seed,
        // so workload generation, placement and the packet RNG are
        // untouched by the fault axis.
        let seed = cell_seed(session.seed, &fault.label());
        let telemetry = backend.apply(fault, seed, goal.num_ranks());
        let driver = if i < last { driver.clone() } else { driver.take() };
        let driver = driver.expect("the driver lives until the last member takes it");
        let report = driver.finish(&mut backend).expect(DEADLOCK_FREE);
        let (mct, net) = backend.harvest();
        let wall = std::mem::take(&mut prefix_wall) + t1.elapsed();
        Outcome { report, mct, net, fault: telemetry, wall }
    });
    members.collect()
}

const DEADLOCK_FREE: &str = "schedule must complete (deadlock-free by construction)";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use crate::scenario::WorkloadSpec;

    #[test]
    fn dist_summary_stats() {
        let s = DistSummary::of((1..=100).collect());
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.p99, 99);
        assert_eq!(s.max, 100);
        assert_eq!(s.count, 100);
    }

    /// The p99 index is integer arithmetic. The float formula it replaced
    /// agrees with it on every count a run can reach (checked on every
    /// count up to 3·10⁶ and on random ones below 2⁴⁷); they first differ
    /// near 1.5·10¹⁴, where the float rounds `count · 0.99` down to an
    /// integer it is not, and differ more often above.
    #[test]
    fn p99_index_matches_the_float_formula_it_replaced() {
        let float = |count: usize| ((count as f64 * 0.99).ceil() as usize - 1).min(count - 1);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let below_2_47 = std::iter::repeat_with(move || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (x >> 17).max(1) as usize
        });
        for count in (1..=3_000_000).chain(below_2_47.take(1_000_000)) {
            assert_eq!(p99_index(count), float(count), "count {count}");
        }
        let first = 150_399_820_919_799;
        assert_eq!((p99_index(first), float(first)), (148_895_822_710_601, 148_895_822_710_600));
    }

    #[test]
    fn dist_summary_of_empty_is_zeros() {
        let s = DistSummary::of(Vec::new());
        assert_eq!((s.mean, s.p99, s.max, s.count), (0.0, 0, 0, 0));
    }

    /// The testbed has two ways in while the benchmark's fidelity block
    /// still calls `runner`: a session and `runner::run_testbed`. They
    /// must give the same report, and so must a branched session whose
    /// members restore the testbed's checkpoint.
    #[test]
    fn testbed_session_matches_the_runner() {
        let topology = TopologySpec::AiFatTree { nodes: 8, oversub: 2 };
        let workload = WorkloadSpec::MoeAllToAll {
            ranks: 8,
            group: 4,
            bytes: 64 << 10,
            layers: 2,
            compute_ns: 3_000,
        };
        let goal = workload.build_jobs(5).pop().unwrap();
        let session = Session {
            topology: &topology,
            backend: BackendSpec::Testbed,
            seed: 5,
            collect_flows: false,
        };
        let (want, _) = runner::run_testbed(&goal, topology.config(), 5);
        let straight = run(&session, &goal, None, &[&FaultSpec::None]);
        assert_eq!(straight[0].report, want);
        let branched = run(&session, &goal, Some(want.makespan / 2), &[&FaultSpec::None; 2]);
        for member in &branched {
            assert_eq!(member.report, want);
        }
    }
}

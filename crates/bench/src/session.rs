//! The one cell executor: every simulation the scenario layer runs —
//! a straight sweep cell, a branch-and-continue group, a cluster batch —
//! is one *session* on one backend.
//!
//! ```text
//! start → [run_until(branch_at) → checkpoint] → per member: [restore →] apply fault → finish → collect
//! ```
//!
//! * **Straight** (`branch_at = None`, one member): the member's fault is
//!   part of the backend's *configuration* — port windows enter the event
//!   queue before any traffic — and nothing is paused, checkpointed,
//!   restored, or cloned.
//! * **Branched** (`branch_at = Some(t)`): the backend starts clean, runs
//!   to the first event at or after `t`, and each member's fault is
//!   applied *now* (windows clamped to open no earlier than the branch
//!   point). With one member that is the whole story; with several the
//!   paused state is [`Snapshot::checkpoint`]ed once and every member
//!   restores it first, so the prefix is simulated once per session.
//!
//! [`run`] holds the only `match` on [`BackendSpec`] that constructs a
//! backend; the driver behind it is monomorphised per backend type.

use std::time::{Duration, Instant};

use atlahs_core::backends::IdealBackend;
use atlahs_core::{Backend, SimDriver, SimReport, Snapshot};
use atlahs_goal::GoalSchedule;
use atlahs_htsim::engine::{HtsimBackend, HtsimConfig, NetStats};
use atlahs_lgs::LgsBackend;
use atlahs_testbed::{TestbedBackend, TestbedConfig};

use crate::scenario::{
    lgs_params_for, BackendSpec, FaultAction, FaultSpec, FaultTelemetry, TopologySpec,
};

/// What one session simulates on: the fabric, the backend on top of it,
/// and the simulation seed (packet RNG; fault draws derive from it).
pub struct Session<'a> {
    pub topology: &'a TopologySpec,
    pub backend: BackendSpec,
    pub seed: u64,
    /// Record per-flow completion times (packet-level backends only).
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
            // Degenerate workloads (e.g. `--ops 0`) summarize to zeros
            // instead of panicking.
            return DistSummary { mean: 0.0, p99: 0, max: 0, count: 0 };
        }
        durations.sort_unstable();
        let count = durations.len();
        let mean = durations.iter().map(|&d| d as f64).sum::<f64>() / count as f64;
        let p99 = durations[((count as f64 * 0.99).ceil() as usize - 1).min(count - 1)];
        let max = *durations.last().unwrap();
        DistSummary { mean, p99, max, count }
    }
}

/// What the driver needs from a backend beyond `Backend + Snapshot`.
/// Actions a backend does not model are ignored (the defaults).
trait CellBackend: Backend + Snapshot {
    /// Put a lowered fault onto the *running* backend.
    fn apply_now(&mut self, _fault: FaultAction) {}

    fn harvest(&self) -> (DistSummary, Option<NetStats>) {
        (DistSummary::of(Vec::new()), None)
    }
}

impl CellBackend for IdealBackend {}

impl CellBackend for TestbedBackend {}

impl CellBackend for LgsBackend {
    fn apply_now(&mut self, fault: FaultAction) {
        if let FaultAction::Straggler(spec) = fault {
            self.apply_straggler_now(spec);
        }
    }
}

impl CellBackend for HtsimBackend {
    fn apply_now(&mut self, fault: FaultAction) {
        match fault {
            FaultAction::Ports(windows) => windows.into_iter().for_each(|w| self.inject_fault(w)),
            // Packets already in flight were drawn (or not) under the
            // prefix's clean model; the per-port draw counters ride in
            // the snapshot, so every member continues the same stream.
            FaultAction::Link(model) => self.set_link_model(model),
            FaultAction::None | FaultAction::Straggler(_) => {}
        }
    }

    fn harvest(&self) -> (DistSummary, Option<NetStats>) {
        let mct = DistSummary::of(self.flow_records().iter().map(|f| f.duration()).collect());
        (mct, Some(self.net_stats()))
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
            let build = |fault| {
                let mut cfg = HtsimConfig::new(topology.config(), cc);
                cfg.seed = seed;
                cfg.spray = spray;
                cfg.collect_flows = collect_flows;
                match fault {
                    FaultAction::Ports(windows) => cfg.faults = windows,
                    FaultAction::Link(model) => cfg.link_model = model,
                    FaultAction::None | FaultAction::Straggler(_) => {}
                }
                HtsimBackend::new(cfg)
            };
            drive(build, session, goal, branch_at, faults)
        }
        BackendSpec::Lgs => {
            let build = |fault| {
                let straggler = match fault {
                    FaultAction::Straggler(spec) => spec,
                    _ => Default::default(),
                };
                LgsBackend::with_straggler(lgs_params_for(topology), straggler)
            };
            drive(build, session, goal, branch_at, faults)
        }
        BackendSpec::Ideal => {
            let link = topology.edge_link();
            let build = |_| IdealBackend::new(link.bytes_per_ns(), link.latency_ns);
            drive(build, session, goal, branch_at, faults)
        }
        BackendSpec::Testbed => {
            let build = |_| {
                let mut cfg = TestbedConfig::new(topology.config());
                cfg.seed = seed;
                TestbedBackend::new(cfg)
            };
            drive(build, session, goal, branch_at, faults)
        }
    }
}

fn drive<B: CellBackend>(
    build: impl FnOnce(FaultAction) -> B,
    session: &Session<'_>,
    goal: &GoalSchedule,
    branch_at: Option<u64>,
    faults: &[&FaultSpec],
) -> Vec<Outcome> {
    assert!(branch_at.is_some() || faults.len() == 1, "a straight session has one member");
    let lower = |fault: &FaultSpec| {
        fault.lower(session.topology, &session.backend, goal.num_ranks(), session.seed)
    };
    // A straight session's one fault is part of the configuration; a
    // branched one starts clean.
    let (mut backend, configured) = match branch_at {
        None => {
            let (action, telemetry) = lower(faults[0]);
            (build(action), telemetry)
        }
        Some(_) => (build(FaultAction::None), None),
    };

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
        let mut telemetry = configured;
        if branch_at.is_some() {
            if let Some(state) = &snapshot {
                backend.restore(state);
            }
            let (action, realized) = lower(fault);
            backend.apply_now(action);
            telemetry = realized;
        }
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

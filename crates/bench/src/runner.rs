//! Run one GOAL schedule on a hand-built backend: the API of the
//! benchmark's fidelity block (`benchmark/src/fidelity.rs`). The figures
//! run their backends as scenario cells through [`crate::session`]; this
//! module goes once that block moves onto the figure cells.

use std::time::{Duration, Instant};

use atlahs_core::backends::IdealBackend;
use atlahs_core::{Backend, SimReport, Simulation};
use atlahs_goal::GoalSchedule;
use atlahs_htsim::engine::{FlowRecord, HtsimBackend, HtsimConfig, NetStats};
use atlahs_htsim::topology::TopologyConfig;
use atlahs_htsim::CcAlgo;
use atlahs_lgs::{LgsBackend, LogGopsParams};
use atlahs_testbed::{TestbedBackend, TestbedConfig};

/// Run `goal` on an arbitrary backend, returning the report and the
/// simulator's wall-clock cost.
fn run_on<B: Backend>(goal: &GoalSchedule, backend: &mut B) -> (SimReport, Duration) {
    let t0 = Instant::now();
    let rep = Simulation::new(goal).run(backend);
    (rep.expect("schedule must complete (deadlock-free by construction)"), t0.elapsed())
}

/// "Measured" runtime: the fluid-flow testbed emulator standing in for
/// the real cluster (docs/ARCHITECTURE.md, "Backends").
pub fn run_testbed(goal: &GoalSchedule, topo: TopologyConfig, seed: u64) -> (SimReport, Duration) {
    let mut cfg = TestbedConfig::new(topo);
    cfg.seed = seed;
    run_on(goal, &mut TestbedBackend::new(cfg))
}

/// ATLAHS LGS prediction.
pub fn run_lgs(goal: &GoalSchedule, params: LogGopsParams) -> (SimReport, Duration) {
    run_on(goal, &mut LgsBackend::new(params))
}

/// Result of one packet-level run.
pub struct HtsimRun {
    pub report: SimReport,
    pub stats: NetStats,
    pub flows: Vec<FlowRecord>,
    pub wall: Duration,
}

/// ATLAHS htsim prediction (optionally keeping per-flow records).
pub fn run_htsim(
    goal: &GoalSchedule,
    topo: TopologyConfig,
    cc: CcAlgo,
    seed: u64,
    collect_flows: bool,
) -> HtsimRun {
    let mut cfg = HtsimConfig::new(topo, cc);
    cfg.seed = seed;
    cfg.collect_flows = collect_flows;
    HtsimRun::of(goal, cfg)
}

/// ATLAHS htsim on the AI fabric: Slingshot/UEC-class adaptive load
/// balancing (per-packet spraying), the configuration the paper's AI
/// validation uses.
pub fn run_htsim_ai(goal: &GoalSchedule, topo: TopologyConfig, cc: CcAlgo, seed: u64) -> HtsimRun {
    let mut cfg = HtsimConfig::new(topo, cc);
    cfg.seed = seed;
    cfg.spray = true;
    HtsimRun::of(goal, cfg)
}

impl HtsimRun {
    fn of(goal: &GoalSchedule, cfg: HtsimConfig) -> HtsimRun {
        let mut backend = HtsimBackend::new(cfg);
        let (report, wall) = run_on(goal, &mut backend);
        HtsimRun {
            report,
            stats: backend.net_stats(),
            flows: backend.flow_records().to_vec(),
            wall,
        }
    }
}

/// The compute-only makespan: the same schedule on an effectively
/// instant, contention-free network. This is the dark-blue
/// "non-overlapped computation" bar of Figs. 8/10 — the part of the
/// runtime no network improvement can remove.
pub fn compute_only_ns(goal: &GoalSchedule) -> u64 {
    let mut ideal = IdealBackend::new(1e9, 0);
    let (rep, _) = run_on(goal, &mut ideal);
    rep.makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use atlahs_goal::GoalBuilder;

    fn ring_goal(n: usize) -> GoalSchedule {
        let mut b = GoalBuilder::new(n);
        for r in 0..n as u32 {
            let dst = (r + 1) % n as u32;
            let src = (r + n as u32 - 1) % n as u32;
            b.send(r, dst, 64 << 10, 0);
            b.recv(r, src, 64 << 10, 0);
        }
        b.build().unwrap()
    }

    #[test]
    fn all_backends_complete_the_same_schedule() {
        let goal = ring_goal(8);
        let topo = workloads::ai_topology(8);
        let (t, _) = run_testbed(&goal, topo.clone(), 1);
        let (l, _) = run_lgs(&goal, LogGopsParams::ai_alps());
        let h = run_htsim(&goal, topo, CcAlgo::Mprdma, 1, false);
        for rep in [&t, &l, &h.report] {
            assert_eq!(rep.completed, goal.total_tasks());
            assert!(rep.makespan > 0);
        }
    }

    #[test]
    fn compute_only_is_a_lower_bound() {
        let suite = workloads::ai_suite(0.005, true, 7);
        let (_, goal) = workloads::ai_goal(&suite[0].cfg);
        let comp = compute_only_ns(&goal);
        let (meas, _) = run_testbed(&goal, workloads::ai_topology(4), 1);
        assert!(comp > 0);
        assert!(comp <= meas.makespan, "comp {comp} vs measured {}", meas.makespan);
    }

    #[test]
    fn flow_records_only_when_requested() {
        let goal = ring_goal(4);
        let topo = workloads::ai_topology(4);
        let without = run_htsim(&goal, topo.clone(), CcAlgo::Mprdma, 1, false);
        let with = run_htsim(&goal, topo, CcAlgo::Mprdma, 1, true);
        assert!(without.flows.is_empty());
        assert_eq!(with.flows.len(), 4);
    }
}

//! Run GOAL schedules across the backends with wall-clock bookkeeping.

use std::time::{Duration, Instant};

use atlahs_core::backends::IdealBackend;
use atlahs_core::{Backend, SimReport, Simulation};
use atlahs_goal::GoalSchedule;
use atlahs_htsim::engine::{FlowRecord, HtsimBackend, HtsimConfig, NetStats};
use atlahs_htsim::topology::TopologyConfig;
use atlahs_htsim::CcAlgo;
use atlahs_lgs::{LgsBackend, LogGopsParams};
use atlahs_testbed::{TestbedBackend, TestbedConfig};

/// Time a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Run `goal` on an arbitrary backend, returning the report and the
/// simulator's wall-clock cost.
pub fn run_on<B: Backend>(goal: &GoalSchedule, backend: &mut B) -> (SimReport, Duration) {
    let (rep, wall) = timed(|| Simulation::new(goal).run(backend));
    (rep.expect("schedule must complete (deadlock-free by construction)"), wall)
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
    run_htsim_cfg(goal, cfg)
}

/// ATLAHS htsim with a fully explicit configuration.
pub fn run_htsim_cfg(goal: &GoalSchedule, cfg: HtsimConfig) -> HtsimRun {
    let mut backend = HtsimBackend::new(cfg);
    let (report, wall) = run_on(goal, &mut backend);
    HtsimRun { report, stats: backend.net_stats(), flows: backend.flow_records().to_vec(), wall }
}

/// ATLAHS htsim on the AI fabric: Slingshot/UEC-class adaptive load
/// balancing (per-packet spraying), the configuration the paper's AI
/// validation uses.
pub fn run_htsim_ai(goal: &GoalSchedule, topo: TopologyConfig, cc: CcAlgo, seed: u64) -> HtsimRun {
    let mut cfg = HtsimConfig::new(topo, cc);
    cfg.seed = seed;
    cfg.spray = true;
    run_htsim_cfg(goal, cfg)
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

/// Mean / p99 / max summary of a set of durations (Fig. 11's MCT rows).
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
}

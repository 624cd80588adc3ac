//! SPC block trace → Direct Drive GOAL conversion (paper §3.1.3).
//!
//! A thin orchestration layer over [`atlahs_directdrive`]: it sizes the
//! storage cluster, runs the request-flow lowering, and returns both the
//! schedule and the per-request completion vertices (used by harnesses to
//! extract completion-time statistics).

use atlahs_directdrive::{trace_to_goal, DirectDriveLayout, ServiceParams};
use atlahs_goal::{GoalBuilder, GoalError, GoalSchedule, TaskId};
use atlahs_tracers::storage::SpcTrace;

/// Storage conversion configuration.
#[derive(Debug, Clone)]
pub struct StorageToGoalConfig {
    pub clients: usize,
    pub ccs: usize,
    pub bss: usize,
    pub params: ServiceParams,
}

impl Default for StorageToGoalConfig {
    fn default() -> Self {
        StorageToGoalConfig { clients: 8, ccs: 2, bss: 12, params: ServiceParams::default() }
    }
}

/// Result of a storage conversion.
pub struct StorageGoal {
    pub goal: GoalSchedule,
    pub layout: DirectDriveLayout,
    /// Per-request completion vertex (client-side), in trace order.
    pub completions: Vec<TaskId>,
}

/// Convert a block trace into a Direct Drive GOAL schedule.
pub fn convert(trace: &SpcTrace, cfg: &StorageToGoalConfig) -> Result<StorageGoal, GoalError> {
    let layout = DirectDriveLayout::standard(cfg.clients, cfg.ccs, cfg.bss);
    let mut b = GoalBuilder::new(layout.total_ranks());
    let completions = trace_to_goal(trace, &layout, &cfg.params, &mut b);
    Ok(StorageGoal { goal: b.build()?, layout, completions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlahs_core::{backends::IdealBackend, Simulation};
    use atlahs_tracers::storage::{financial_like, OltpConfig};

    #[test]
    fn convert_and_simulate() {
        let trace = financial_like(&OltpConfig { operations: 300, ..OltpConfig::default() });
        let sg = convert(&trace, &StorageToGoalConfig::default()).unwrap();
        assert_eq!(sg.completions.len(), 300);
        atlahs_goal::stats::check_matching(&sg.goal).unwrap();
        let mut be = IdealBackend::new(100, 500);
        let rep = Simulation::new(&sg.goal).run(&mut be).unwrap();
        assert_eq!(rep.completed, sg.goal.total_tasks());
    }

    #[test]
    fn cluster_size_matches_layout() {
        let trace = financial_like(&OltpConfig { operations: 50, ..OltpConfig::default() });
        let cfg = StorageToGoalConfig { clients: 4, ccs: 1, bss: 6, ..Default::default() };
        let sg = convert(&trace, &cfg).unwrap();
        assert_eq!(sg.goal.num_ranks(), 4 + 1 + 6 + 3);
        assert_eq!(sg.layout.bss.len(), 6);
    }
}

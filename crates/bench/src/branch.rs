//! The old path of branch-and-continue execution (`atlahs sweep
//! --branch-at`), which lives in [`crate::sweep`] beside the straight
//! executor it shares its groups with; this module keeps the path and
//! the branched executor's tests.

pub use crate::sweep::{execute_branched, run_cell_branched_straight, BranchStats};

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::scenario::{CellResult, ScenarioCell};
    use crate::smoke::{self, sweep_grid};
    use crate::spec::FaultSpec;
    use crate::sweep::SweepReport;

    fn strip_wall(mut results: Vec<CellResult>) -> String {
        for r in &mut results {
            r.wall = Duration::ZERO;
        }
        SweepReport { seed: 1, results, branch: None }.to_json().pretty()
    }

    /// The branch smoke grid's `--branch-at`: a mid-run point.
    fn branch_smoke_at() -> u64 {
        smoke::args(smoke::BRANCH).number("branch-at", 0).unwrap()
    }

    /// Branch times the session's shapes are compared at: the first
    /// event, the smoke grid's mid-run point, and a time past every
    /// makespan (`run_until` goes quiescent before the checkpoint, so
    /// overrides land on a finished run).
    fn branch_times() -> [u64; 3] {
        [1, branch_smoke_at(), u64::MAX]
    }

    /// The tentpole contract: the shared-prefix snapshot fan-out is
    /// byte-identical to pausing-and-injecting each cell independently,
    /// and the prefix is simulated once per group, not once per cell.
    #[test]
    fn branched_sweep_matches_straight_through_byte_for_byte() {
        let grid = sweep_grid(smoke::BRANCH);
        let cells = grid.expand();
        assert_eq!(cells.len(), 24);

        for branch_at in branch_times() {
            let (branched, stats) = execute_branched(&cells, branch_at, 2);
            assert_eq!(stats.prefix_runs, 8, "4 prefix groups per workload");
            assert!(stats.prefix_runs < cells.len(), "suffix-only re-simulation");

            let straight: Vec<CellResult> = cells
                .iter()
                .map(|c| run_cell_branched_straight(c, &c.workload.build_jobs(c.seed), branch_at))
                .collect();
            assert_eq!(strip_wall(branched), strip_wall(straight), "branch at {branch_at}");
        }
    }

    /// Thread count must not leak into branched results, and overrides
    /// must actually bite: faulted branches diverge from their clean
    /// siblings somewhere in the grid.
    #[test]
    fn branched_sweep_is_thread_count_independent_and_faults_bite() {
        let cells = sweep_grid(smoke::BRANCH).expand();
        let (serial, s1) = execute_branched(&cells, branch_smoke_at(), 1);
        let (parallel, s4) = execute_branched(&cells, branch_smoke_at(), 4);
        assert_eq!(s1, s4);
        assert_eq!(strip_wall(serial.clone()), strip_wall(parallel));

        let mut diverged = 0;
        for r in &serial {
            if let Some(clean) = serial.iter().find(|c| {
                c.key != r.key && r.key.starts_with(c.key.as_str()) && !c.key.contains("straggler")
            }) {
                if r.makespan != clean.makespan {
                    diverged += 1;
                }
            }
        }
        assert!(diverged > 0, "no branch override changed any makespan");
    }

    /// A stochastic link model armed at the branch point is
    /// byte-identical to a straight-through run that calls
    /// `set_link_model` at the same instant — the per-port draw
    /// counters ride in the snapshot, so the fork and the reference
    /// consume the same stream.
    #[test]
    fn stochastic_branch_cells_match_straight_through() {
        let mk = |fault| ScenarioCell {
            topology: crate::spec::TopologySpec::AiFatTree { nodes: 16, oversub: 4 },
            workload: crate::scenario::WorkloadSpec::MoeAllToAll {
                ranks: 16,
                group: 16,
                bytes: 64 << 10,
                layers: 2,
                compute_ns: 20_000,
            },
            placement: crate::scenario::PlacementSpec::Packed,
            backend: crate::spec::BackendSpec::Htsim {
                cc: atlahs_htsim::CcAlgo::Mprdma,
                spray: false,
            },
            fault,
            seed: 11,
            collect_flows: false,
        };
        let cells = vec![
            mk(FaultSpec::None),
            mk(FaultSpec::parse("loss:50000").unwrap()),
            mk(FaultSpec::parse("jitter:uniform:1500").unwrap()),
        ];
        let (branched, stats) = execute_branched(&cells, branch_smoke_at(), 2);
        assert_eq!(stats.prefix_runs, 1, "all three cells share one clean prefix");
        let straight: Vec<CellResult> = cells
            .iter()
            .map(|c| {
                run_cell_branched_straight(c, &c.workload.build_jobs(c.seed), branch_smoke_at())
            })
            .collect();
        assert_eq!(strip_wall(branched.clone()), strip_wall(straight));
        let lossy = branched.iter().find(|r| r.key.contains("loss:")).unwrap();
        let clean = branched
            .iter()
            .find(|r| !r.key.contains("loss:") && !r.key.contains("jitter:"))
            .unwrap();
        assert!(lossy.net.unwrap().stochastic_drops > 0, "the branch-armed model must bite");
        assert_ne!(lossy.makespan, clean.makespan, "5% loss after the branch costs time");
        assert_eq!(clean.net.unwrap().stochastic_draws, 0, "the clean sibling never draws");
    }

    /// `FaultSpec::None` branch cells are pure pause/checkpoint/resume —
    /// wherever the branch point falls they must equal the ordinary
    /// straight executor exactly (same makespan, stats, and flow
    /// summaries), since nothing is ever injected. The clean cells run
    /// inside their full groups, so each one is restored from its group's
    /// snapshot like any faulted sibling.
    #[test]
    fn clean_branch_cells_equal_the_straight_executor() {
        let cells = sweep_grid(smoke::BRANCH).expand();
        let clean = |results: Vec<CellResult>| -> Vec<CellResult> {
            let keep = cells.iter().zip(results).filter(|(c, _)| c.fault == FaultSpec::None);
            keep.map(|(_, r)| r).collect()
        };
        let plain = strip_wall(clean(crate::sweep::execute(&cells, 2)));
        for branch_at in branch_times() {
            let (branched, _) = execute_branched(&cells, branch_at, 2);
            assert_eq!(strip_wall(clean(branched)), plain, "branch at {branch_at}");
        }
    }
}

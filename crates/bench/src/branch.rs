//! Branch-and-continue sweep execution: simulate a shared prefix once,
//! snapshot, fan out into N what-if continuations.
//!
//! A branched sweep reinterprets the grid's fault axis as *branch
//! overrides*: every cell that shares a prefix — same topology,
//! workload, placement, and backend, hence the same derived seed and the
//! same composed schedule — is grouped; the group's simulation runs
//! clean up to the branch time, the backend is
//! [`atlahs_core::Snapshot::checkpoint`]ed and the scheduler driver cloned, and each
//! cell then restores the snapshot, applies its override at the branch
//! point, and runs to completion. Only the post-branch suffix is
//! re-simulated per cell; the prefix is paid once per group (the
//! `prefix_runs` counter in [`BranchStats`], surfaced in the JSON
//! report, is how CI verifies that). The mechanics are
//! [`crate::session`]'s: a group is a session with a branch point and
//! several members.
//!
//! ## Exactness
//!
//! The snapshot path must be invisible: for every cell,
//! [`execute_branched`] and [`run_cell_branched_straight`] (pause at the
//! branch time, apply the override, finish — *no* checkpoint/restore)
//! produce bit-identical [`CellResult`]s. That is the backend
//! [`atlahs_core::Snapshot`] contract, pinned in this module's tests and by the
//! `branch_smoke.json` row of the golden table in `tests/golden_table/mod.rs`.
//!
//! Branched results are **not** comparable to a straight sweep of the
//! same faults. Both apply a fault the one way a backend takes one, as an
//! override, but a straight cell applies it at t = 0, before the first
//! task issues, while a branched override clamps every fault window to
//! open no earlier than the branch time and its events enter the queue
//! after the prefix's traffic. The branch answers "what if this failed
//! *from here on*?", not "what if this had been failing all along?".

use std::sync::Arc;

use atlahs_goal::GoalSchedule;

use crate::scenario::{run_members, CellResult, ScenarioCell};
use crate::sweep::execute_groups;

/// Shared-prefix work accounting of one branched sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchStats {
    /// The branch time (ns): overrides apply at the first pause at or
    /// after this simulated time.
    pub branch_at: u64,
    /// Shared-prefix groups — and therefore how many times a prefix was
    /// actually simulated. A grid whose cells all differ only in the
    /// fault axis has `prefix_runs` = 1; CI asserts `prefix_runs` <
    /// number of cells on the branch smoke grid.
    pub prefix_runs: usize,
}

/// Run a branched sweep: group cells by shared prefix, simulate each
/// prefix once, and fan each group out into its per-cell continuations.
///
/// Results are in cell order and independent of `threads` (groups
/// parallelize across the claim-index pool; cells within a group run
/// serially against the group's snapshot).
pub fn execute_branched(
    cells: &[ScenarioCell],
    branch_at: u64,
    threads: usize,
) -> (Vec<CellResult>, BranchStats) {
    // Group by everything except the fault axis: topology, workload and
    // seed, placement, and backend — exactly the state the prefix
    // depends on.
    let mut index_of: std::collections::HashMap<(String, u64), usize> =
        std::collections::HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let g = *index_of.entry((cell.prefix_key(), cell.seed)).or_insert(groups.len());
        if g == groups.len() {
            groups.push(Vec::new());
        }
        groups[g].push(i);
    }
    let results = execute_groups(cells, &groups, Some(branch_at), threads);
    (results, BranchStats { branch_at, prefix_runs: groups.len() })
}

/// The straight-through reference for one branched cell: pause at the
/// branch time, apply the override, run to completion — the identical
/// mechanics with **no** checkpoint/restore (a one-member session).
/// [`execute_branched`] must match this bit for bit on every cell.
pub fn run_cell_branched_straight(
    cell: &ScenarioCell,
    jobs: &[Arc<GoalSchedule>],
    branch_at: u64,
) -> CellResult {
    run_members(&[cell], jobs, Some(branch_at)).pop().expect("one member, one result")
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::scenario::FaultSpec;
    use crate::smoke::{branch_smoke_grid, BRANCH_SMOKE_AT};
    use crate::sweep::SweepReport;

    fn strip_wall(mut results: Vec<CellResult>) -> String {
        for r in &mut results {
            r.wall = Duration::ZERO;
        }
        SweepReport { seed: 1, results, branch: None }.to_json().pretty()
    }

    /// Branch times the session's shapes are compared at: the first
    /// event, the smoke grid's pinned mid-run point, and a time past
    /// every makespan (`run_until` goes quiescent before the checkpoint,
    /// so overrides land on a finished run).
    const BRANCH_TIMES: [u64; 3] = [1, BRANCH_SMOKE_AT, u64::MAX];

    /// The tentpole contract: the shared-prefix snapshot fan-out is
    /// byte-identical to pausing-and-injecting each cell independently,
    /// and the prefix is simulated once per group, not once per cell.
    #[test]
    fn branched_sweep_matches_straight_through_byte_for_byte() {
        let grid = branch_smoke_grid();
        let cells = grid.expand();
        assert_eq!(cells.len(), 24);

        for branch_at in BRANCH_TIMES {
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
        let cells = branch_smoke_grid().expand();
        let (serial, s1) = execute_branched(&cells, BRANCH_SMOKE_AT, 1);
        let (parallel, s4) = execute_branched(&cells, BRANCH_SMOKE_AT, 4);
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
            topology: crate::scenario::TopologySpec::AiFatTree { nodes: 16, oversub: 4 },
            workload: crate::scenario::WorkloadSpec::MoeAllToAll {
                ranks: 16,
                group: 16,
                bytes: 64 << 10,
                layers: 2,
                compute_ns: 20_000,
            },
            placement: crate::scenario::PlacementSpec::Packed,
            backend: crate::scenario::BackendSpec::Htsim {
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
        let (branched, stats) = execute_branched(&cells, BRANCH_SMOKE_AT, 2);
        assert_eq!(stats.prefix_runs, 1, "all three cells share one clean prefix");
        let straight: Vec<CellResult> = cells
            .iter()
            .map(|c| run_cell_branched_straight(c, &c.workload.build_jobs(c.seed), BRANCH_SMOKE_AT))
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
        let cells = branch_smoke_grid().expand();
        let clean = |results: Vec<CellResult>| -> Vec<CellResult> {
            let keep = cells.iter().zip(results).filter(|(c, _)| c.fault == FaultSpec::None);
            keep.map(|(_, r)| r).collect()
        };
        let plain = strip_wall(clean(crate::sweep::execute(&cells, 2)));
        for branch_at in BRANCH_TIMES {
            let (branched, _) = execute_branched(&cells, branch_at, 2);
            assert_eq!(strip_wall(clean(branched)), plain, "branch at {branch_at}");
        }
    }
}

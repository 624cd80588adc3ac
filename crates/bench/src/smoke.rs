//! The fixed smoke grids the goldens pin, each written once: as the
//! `atlahs sweep`/`atlahs cluster` flags docs/SCENARIOS.md prints for it.
//!
//! Each grid is a frozen, fast (< a few seconds) cell set whose JSON
//! report is goldened under `tests/goldens/` and reproduced byte for byte
//! by the golden table in `tests/golden_table/mod.rs`, which parses these
//! lines with the CLI's own [`ScenarioGrid::from_args`] and
//! [`ClusterGrid::from_args`]: any change to simulation behavior, report
//! formatting, seed derivation or the flag grammar shows up as a golden
//! diff. `tests/goldens.rs` checks each line against its documented
//! command.

use crate::args::Args;
use crate::cluster::ClusterGrid;
use crate::scenario::ScenarioGrid;

/// The sweep grid: 24 fast cells spanning both packet-level CC
/// algorithms, spraying, the message-level model and the ideal bound.
/// Golden `tests/goldens/sweep_smoke.json`; the fault axis is left at
/// `none`, so no key has a fault segment ([`FAULT`] covers faults).
pub const SWEEP: &str = "--topos switch:8,ai-fattree:16:4 \
    --workloads ring:8:131072:1,moe:8:4:65536:1:2000 \
    --backends htsim,htsim-spray,lgs,ideal --collect-flows";

/// The fault grid: 45 cells, per workload `none` with both htsim CCs and
/// LGS (3); `linkflap`, `degrade` and the generated `markov`,
/// `rackfail` and `churn` with the two htsim CCs (2 each); the uniform and
/// the Weibull-spread `straggler` with LGS (1 each). Its results are, in
/// order and byte for byte, 45 of the 75 in `stochastic_smoke.json`.
///
/// Every workload spans all 16 nodes (both ToRs), so packed placement
/// still pushes traffic through the core uplinks the link faults target,
/// and every workload carries per-rank compute for the straggler to
/// inflate: each faulted cell diverges from its `none` sibling (pinned by
/// `fault_smoke_cells_diverge_from_their_clean_siblings` in
/// `tests/determinism_golden.rs`). The churn replay bounces rack 0 early
/// and fails rack 1 later, while rack 0 is already back.
pub const FAULT: &str = "--topos ai-fattree:16:4 --backends htsim,lgs --collect-flows \
    --workloads moe:16:16:65536:1:20000,moe:16:16:32768:2:4000,pipeline:16:2:65536:2000 \
    --faults none,linkflap:2:5000:60000,degrade:2:25:300:0:200000,straggler:50:300,\
    markov:4:20000:20000:300000,rackfail:1:20000:140000,\
    churn:0;0;d,60000;0;u,100000;1;d,180000;1;u,straggler:50:200:200:2";

/// The stochastic grid: [`FAULT`] with five per-packet link models
/// appended to the fault axis — 2 % loss everywhere, 8 % on the
/// oversubscribed core uplinks only, and one jitter cell per sampler
/// family at scales near the per-hop latency, so reordering happens. They
/// apply to the two htsim CCs only: 45 + 30 = 75 cells, golden
/// `tests/goldens/stochastic_smoke.json`. The fault axis never perturbs
/// cell seeds or the other axes' keys, so the fault grid's 45 cells keep
/// their bytes inside this golden.
pub const STOCHASTIC: &str = "--topos ai-fattree:16:4 --backends htsim,lgs --collect-flows \
    --workloads moe:16:16:65536:1:20000,moe:16:16:32768:2:4000,pipeline:16:2:65536:2000 \
    --faults none,linkflap:2:5000:60000,degrade:2:25:300:0:200000,straggler:50:300,\
    markov:4:20000:20000:300000,rackfail:1:20000:140000,\
    churn:0;0;d,60000;0;u,100000;1;d,180000;1;u,straggler:50:200:200:2,\
    loss:20000,loss:80000:core,jitter:exp:2000,jitter:weibull:3000:2,jitter:uniform:1500";

/// The branch-and-continue grid: 24 cells over 8 shared prefixes, golden
/// `tests/goldens/branch_smoke.json`. Per workload `none` and the three
/// window regimes pair with both htsim CCs (8 cells), the two stragglers
/// and `none` with LGS (3) and `none` with the ideal bound (1). The
/// branch time, 60 µs, falls inside every workload's steady state, so
/// each continuation replays a real mid-flight snapshot; both workloads
/// carry per-rank compute, so completions (the only points the scheduler
/// can pause at) exist well before it. The windows open at or after the
/// branch time where possible, but clamping is part of what is smoked:
/// injection at the branch point must clip already-elapsed windows
/// instead of rewriting history.
pub const BRANCH: &str = "--topos ai-fattree:16:4 \
    --workloads moe:16:16:65536:1:20000,pipeline:16:2:65536:2000 \
    --backends htsim,lgs,ideal --collect-flows --branch-at 60000 \
    --faults none,linkflap:2:70000:140000,degrade:2:25:300:60000:250000,\
    markov:2:20000:20000:300000,straggler:50:300,straggler:50:200:200:2";

/// The cluster grid: 24 cells crossing both arrival families, both queue
/// disciplines and packed/random placement over the packet-level
/// (MPRDMA), message-level and ideal backends on the default 16-node
/// 4:1 fabric, where random placement scatters rings across the thin
/// uplinks. The offered load keeps the queue and the slowdown paths busy
/// (mean gap far below a job's duration). Golden
/// `tests/goldens/cluster_smoke.json`; no fault axis ([`CLUSTER_FAULT`]
/// covers job faults).
pub const CLUSTER: &str = "--catalog ring:8:262144:1,incast:5:131072:1 \
    --arrivals poisson:8:40000,trace:0;0;0;30000;30000;400000 \
    --queues fifo,smallest --placements packed,random \
    --backends htsim,lgs,ideal";

/// The cluster fault grid: 3 message-level cells over one saturated
/// arrival stream — fault-free, Bernoulli `jobfail` and the
/// exponential `mtbf` process, whose 20 µs MTBF fires on a fair share
/// of tens-of-µs job runs. Golden `tests/goldens/cluster_fault_smoke.json`,
/// a grid of its own so the fault axis does not multiply [`CLUSTER`]'s
/// 24 cells.
pub const CLUSTER_FAULT: &str = "--catalog ring:8:262144:1,incast:5:131072:1 \
    --arrivals poisson:8:40000 --backends lgs \
    --faults none,jobfail:50:50:2,mtbf:20000:3";

/// The flags of a whitespace-separated flag line, as the CLI reads them.
pub fn args(line: &str) -> Args {
    Args::from_tokens(["atlahs"].into_iter().chain(line.split_whitespace()).map(String::from))
}

/// The sweep grid of one of the flag lines above.
pub fn sweep_grid(line: &str) -> ScenarioGrid {
    ScenarioGrid::from_args(&args(line)).expect("smoke flag lines parse")
}

/// The cluster grid of one of the flag lines above.
pub fn cluster_grid(line: &str) -> ClusterGrid {
    ClusterGrid::from_args(&args(line)).expect("smoke flag lines parse")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FaultSpec;

    #[test]
    fn smoke_grids_have_their_frozen_cell_counts() {
        assert_eq!(sweep_grid(SWEEP).expand().len(), 24);
        assert_eq!(cluster_grid(CLUSTER).expand_counted().0.len(), 24);
        assert_eq!(cluster_grid(CLUSTER_FAULT).expand_counted().0.len(), 3);
        let cells = sweep_grid(FAULT).expand();
        assert_eq!(cells.len(), 45);
        // 15 cells per workload: 3 fault-free, 10 packet-level faulted
        // (5 regimes × 2 CCs), 2 message-level stragglers.
        let faulted = cells.iter().filter(|c| c.fault != FaultSpec::None).count();
        assert_eq!(faulted, 36);
        // Every faulted cell is a window or straggler cell, so it reports
        // a `fault` object.
        assert!(cells
            .iter()
            .filter(|c| c.fault != FaultSpec::None)
            .all(|c| matches!(c.fault, FaultSpec::Window(_) | FaultSpec::Straggler(_))));
        let mut keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 45, "fault smoke keys are unique");
        // The cell key derivation counts '/' separators; no fault label
        // may smuggle one in.
        assert!(keys.iter().all(|k| k.matches('/').count() <= 4), "{keys:?}");
    }

    #[test]
    fn stochastic_smoke_grid_extends_the_fault_grid_without_moving_it() {
        let base = sweep_grid(FAULT).expand();
        let cells = sweep_grid(STOCHASTIC).expand();
        assert_eq!(cells.len(), 75, "45 fault cells + 5 models x 2 CCs x 3 workloads");
        let stochastic: Vec<_> =
            cells.iter().filter(|c| matches!(c.fault, FaultSpec::Stochastic(_))).collect();
        assert_eq!(stochastic.len(), 30);
        // Stochastic regimes are packet-level: htsim cells only.
        assert!(stochastic
            .iter()
            .all(|c| matches!(c.backend, crate::spec::BackendSpec::Htsim { .. })));
        // Every original fault-smoke cell survives with its exact key
        // and seed — the appended axis values cannot move the frozen 45.
        for b in &base {
            assert!(
                cells.iter().any(|c| c.key() == b.key() && c.seed == b.seed),
                "fault smoke cell {} lost or re-seeded",
                b.key()
            );
        }
        let mut keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 75, "stochastic smoke keys are unique");
    }

    #[test]
    fn branch_smoke_grid_has_its_frozen_shape() {
        let cells = sweep_grid(BRANCH).expand();
        assert_eq!(cells.len(), 24, "12 cells per workload");
        // 4 shared prefixes per workload: htsim×2 CCs, lgs, ideal.
        let mut prefixes: Vec<String> = cells
            .iter()
            .map(|c| {
                format!(
                    "{}/{}/{}/{}",
                    c.topology.label(),
                    c.workload.label(),
                    c.placement.label(),
                    c.backend.label()
                )
            })
            .collect();
        prefixes.sort();
        prefixes.dedup();
        assert_eq!(prefixes.len(), 8);
        let mut keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 24, "branch smoke keys are unique");
    }

    #[test]
    fn fault_smoke_seeds_ignore_the_fault_axis() {
        use crate::spec::cell_seed;
        for c in sweep_grid(FAULT).expand() {
            assert_eq!(c.seed, cell_seed(1, &c.workload.label()));
        }
    }
}

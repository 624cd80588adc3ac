//! The fixed smoke grids the goldens pin.
//!
//! Each grid is a frozen, fast (< a few seconds) cell set whose JSON
//! report is goldened under `tests/goldens/` and reproduced byte for byte
//! by the golden table in `tests/golden_table/mod.rs`: any change to
//! simulation behavior, report formatting, or seed derivation shows up as
//! a golden diff. Every grid is also reachable from the CLI as plain axis flags;
//! docs/SCENARIOS.md spells each one out.

use atlahs_htsim::fault::WindowFault;
use atlahs_htsim::CcAlgo;

use crate::cluster::{ArrivalSpec, ClusterGrid, JobFaultSpec, QueueDiscipline};
use crate::scenario::{
    BackendFamily, FaultSpec, PlacementSpec, ScenarioGrid, TopologySpec, WorkloadSpec,
};

/// The fixed sweep smoke grid: 24 fast cells spanning both packet-level
/// CC algorithms, spraying, the message-level model, and the ideal
/// bound. Goldened as `tests/goldens/sweep_smoke.json`; the fault axis
/// is deliberately empty so these cells (and their seeds and keys) are
/// frozen at their pre-fault-axis bytes.
pub fn sweep_smoke_grid() -> ScenarioGrid {
    ScenarioGrid {
        topologies: vec![
            TopologySpec::SingleSwitch { hosts: 8 },
            TopologySpec::AiFatTree { nodes: 16, oversub: 4 },
        ],
        workloads: vec![
            WorkloadSpec::Ring { ranks: 8, bytes: 128 << 10, laps: 1 },
            WorkloadSpec::MoeAllToAll {
                ranks: 8,
                group: 4,
                bytes: 64 << 10,
                layers: 1,
                compute_ns: 2_000,
            },
        ],
        ccs: vec![CcAlgo::Mprdma, CcAlgo::Ndp],
        placements: vec![PlacementSpec::Packed],
        backends: vec![
            BackendFamily::Htsim,
            BackendFamily::HtsimSpray,
            BackendFamily::Lgs,
            BackendFamily::Ideal,
        ],
        faults: vec![],
        seed: 1,
        collect_flows: true,
    }
}

/// The fixed fault-injection smoke grid: 45 cells exercising every
/// fault regime against the backends it applies to, byte-frozen inside
/// `tests/goldens/stochastic_smoke.json` (45 of its 75 results, in order).
///
/// Per workload: `none` pairs with both htsim CCs and LGS (3 cells);
/// `linkflap`, `degrade`, and the distributional `markov`, `rackfail`,
/// and `churn` regimes with the two htsim CCs (2 each); and the uniform
/// plus the Weibull-spread `straggler` with LGS (1 each) — 15 cells ×
/// 3 workloads = 45. The original 24 cells keep their exact
/// pre-distributional keys, seeds, and report bytes; the 21
/// distributional cells additionally carry realized-fault telemetry.
///
/// Every workload spans all 16 nodes (both ToRs), so packed placement
/// still pushes traffic through the core uplinks the link faults
/// target, and every workload carries per-rank compute, so the
/// straggler has calc costs to inflate: each faulted cell demonstrably
/// diverges from its `none` sibling (pinned by the
/// `fault_smoke_cells_diverge_from_their_clean_siblings` test in
/// `tests/determinism_golden.rs`).
pub fn fault_smoke_grid() -> ScenarioGrid {
    ScenarioGrid {
        topologies: vec![TopologySpec::AiFatTree { nodes: 16, oversub: 4 }],
        workloads: vec![
            WorkloadSpec::MoeAllToAll {
                ranks: 16,
                group: 16,
                bytes: 64 << 10,
                layers: 1,
                compute_ns: 20_000,
            },
            WorkloadSpec::MoeAllToAll {
                ranks: 16,
                group: 16,
                bytes: 32 << 10,
                layers: 2,
                compute_ns: 4_000,
            },
            WorkloadSpec::PipelineLlm {
                stages: 16,
                microbatches: 2,
                bytes: 64 << 10,
                compute_ns: 2_000,
            },
        ],
        ccs: vec![CcAlgo::Mprdma, CcAlgo::Ndp],
        placements: vec![PlacementSpec::Packed],
        backends: vec![BackendFamily::Htsim, BackendFamily::Lgs],
        faults: vec![
            FaultSpec::None,
            FaultSpec::Window(WindowFault::LinkFlap { links: 2, down_ns: 5_000, up_ns: 60_000 }),
            FaultSpec::Window(WindowFault::Degrade {
                links: 2,
                bw_pct: 25,
                lat_pct: 300,
                from_ns: 0,
                to_ns: 200_000,
            }),
            FaultSpec::Straggler { prob_pct: 50, factor_pct: 300, spread_pct: 0, shape: 1 },
            // Distributional regimes (atlahs_core::faultgen): a heavy
            // Gilbert–Elliott flap, a whole-rack outage, a two-rack
            // churn replay, and Weibull-spread stragglers.
            FaultSpec::Window(WindowFault::Markov {
                links: 4,
                up_ns: 20_000,
                down_ns: 20_000,
                horizon_ns: 300_000,
            }),
            FaultSpec::Window(WindowFault::RackFail { racks: 1, from_ns: 20_000, to_ns: 140_000 }),
            FaultSpec::Window(WindowFault::Churn { events: churn_smoke_trace() }),
            FaultSpec::Straggler { prob_pct: 50, factor_pct: 200, spread_pct: 200, shape: 2 },
        ],
        seed: 1,
        collect_flows: true,
    }
}

/// The fixed per-packet stochastic smoke grid: the fault smoke grid's
/// exact axes plus five stochastic link models appended to the fault
/// axis, goldened as `tests/goldens/stochastic_smoke.json`.
///
/// The five appended regimes — all-tier loss, core-only loss, and one
/// jitter cell per faultgen sampler family — apply only to the two
/// htsim CCs, adding 10 cells per workload: 45 + 30 = 75 cells total.
/// Because the fault axis never perturbs cell seeds or the other axes'
/// keys, the original 45 cells keep their exact [`fault_smoke_grid`]
/// report bytes inside this golden, which is what pins them; the 30
/// stochastic cells additionally carry the gated `net` realization
/// fields (`stochastic_draws` et al.).
pub fn stochastic_smoke_grid() -> ScenarioGrid {
    let mut grid = fault_smoke_grid();
    for tok in [
        // 2% everywhere: enough to force retransmissions on every
        // workload without drowning the run in timeouts.
        "loss:20000",
        // 8% on the oversubscribed core uplinks only — the edge stays
        // clean, so recovery cost tracks core traversal.
        "loss:80000:core",
        // One cell per sampler family, scales near the fabric's own
        // per-hop latency so reordering actually happens.
        "jitter:exp:2000",
        "jitter:weibull:3000:2",
        "jitter:uniform:1500",
    ] {
        grid.faults.push(FaultSpec::parse(tok).expect("frozen smoke tokens are valid"));
    }
    grid
}

/// The pinned branch time of the branch smoke grid (`--branch-at 60000`):
/// 60 µs into the run, inside every workload's steady state, so each
/// continuation replays a real mid-flight snapshot rather than an empty
/// or drained simulation.
pub const BRANCH_SMOKE_AT: u64 = 60_000;

/// The fixed branch-and-continue smoke grid: 24 cells over 8 shared
/// prefixes, goldened as `tests/goldens/branch_smoke.json` from a run
/// with `--branch-at` [`BRANCH_SMOKE_AT`].
///
/// Per workload (2): the four fault axis values pair with both htsim CCs
/// (8 cells), the two straggler regimes plus `none` with LGS (3), and
/// `none` with the ideal bound (1) — 12 cells across 4 prefix groups
/// (htsim-mprdma, htsim-ndp, lgs, ideal). Both workloads carry per-rank
/// compute so completions — the only points the scheduler can pause at —
/// exist well before the branch time. The fault windows open at or after
/// [`BRANCH_SMOKE_AT`] where possible, but clamping is part of the
/// contract being smoked: injection at the branch point must clip
/// already-elapsed windows instead of rewriting history.
pub fn branch_smoke_grid() -> ScenarioGrid {
    ScenarioGrid {
        topologies: vec![TopologySpec::AiFatTree { nodes: 16, oversub: 4 }],
        workloads: vec![
            WorkloadSpec::MoeAllToAll {
                ranks: 16,
                group: 16,
                bytes: 64 << 10,
                layers: 1,
                compute_ns: 20_000,
            },
            WorkloadSpec::PipelineLlm {
                stages: 16,
                microbatches: 2,
                bytes: 64 << 10,
                compute_ns: 2_000,
            },
        ],
        ccs: vec![CcAlgo::Mprdma, CcAlgo::Ndp],
        placements: vec![PlacementSpec::Packed],
        backends: vec![BackendFamily::Htsim, BackendFamily::Lgs, BackendFamily::Ideal],
        faults: vec![
            FaultSpec::None,
            FaultSpec::Window(WindowFault::LinkFlap { links: 2, down_ns: 70_000, up_ns: 140_000 }),
            FaultSpec::Window(WindowFault::Degrade {
                links: 2,
                bw_pct: 25,
                lat_pct: 300,
                from_ns: 60_000,
                to_ns: 250_000,
            }),
            FaultSpec::Window(WindowFault::Markov {
                links: 2,
                up_ns: 20_000,
                down_ns: 20_000,
                horizon_ns: 300_000,
            }),
            FaultSpec::Straggler { prob_pct: 50, factor_pct: 300, spread_pct: 0, shape: 1 },
            FaultSpec::Straggler { prob_pct: 50, factor_pct: 200, spread_pct: 200, shape: 2 },
        ],
        seed: 1,
        collect_flows: true,
    }
}

/// The frozen churn trace the fault smoke grid replays: rack 0 bounces
/// early, rack 1 fails later while 0 is already back.
fn churn_smoke_trace() -> Vec<atlahs_core::faultgen::ChurnEvent> {
    atlahs_core::faultgen::parse_churn_inline("0;0;d,60000;0;u,100000;1;d,180000;1;u")
        .expect("the frozen smoke trace is valid")
}

/// The fixed cluster smoke grid: 24 fast cells crossing both arrival
/// families, both queue disciplines, and packed/random placement over
/// the packet-level (MPRDMA), message-level, and ideal backends on a
/// small oversubscribed fabric. Goldened as
/// `tests/goldens/cluster_smoke.json`; fault axis empty for the same
/// frozen-bytes reason as [`sweep_smoke_grid`].
pub fn cluster_smoke_grid() -> ClusterGrid {
    ClusterGrid {
        // 16 nodes across two ToRs behind a 4:1 core: random placement
        // scatters rings across the thin uplinks, so the placement axis
        // (and the htsim slowdown path) actually moves the goldens.
        topology: TopologySpec::AiFatTree { nodes: 16, oversub: 4 },
        catalog: vec![
            WorkloadSpec::Ring { ranks: 8, bytes: 256 << 10, laps: 1 },
            WorkloadSpec::Incast { ranks: 5, bytes: 128 << 10, repeat: 1 },
        ],
        arrivals: vec![
            // Offered load high enough that the queue and the slowdown
            // paths are actually exercised (mean gap << job duration).
            ArrivalSpec::Poisson { jobs: 8, mean_gap_ns: 40_000 },
            ArrivalSpec::Trace { times_ns: vec![0, 0, 0, 30_000, 30_000, 400_000] },
        ],
        queues: vec![QueueDiscipline::Fifo, QueueDiscipline::SmallestFirst],
        placements: vec![PlacementSpec::Packed, PlacementSpec::Random],
        ccs: vec![CcAlgo::Mprdma],
        backends: vec![BackendFamily::Htsim, BackendFamily::Lgs, BackendFamily::Ideal],
        faults: vec![],
        seed: 1,
    }
}

/// The fixed cluster fault smoke grid: 3 message-level cells over one saturated arrival stream — fault-free,
/// Bernoulli `jobfail`, and the distributional `mtbf` process — goldened
/// as `tests/goldens/cluster_fault_smoke.json`. Kept separate from
/// [`cluster_smoke_grid`] so that golden's bytes stay frozen.
pub fn cluster_fault_smoke_grid() -> ClusterGrid {
    ClusterGrid {
        topology: TopologySpec::AiFatTree { nodes: 16, oversub: 4 },
        catalog: vec![
            WorkloadSpec::Ring { ranks: 8, bytes: 256 << 10, laps: 1 },
            WorkloadSpec::Incast { ranks: 5, bytes: 128 << 10, repeat: 1 },
        ],
        arrivals: vec![ArrivalSpec::Poisson { jobs: 8, mean_gap_ns: 40_000 }],
        queues: vec![QueueDiscipline::Fifo],
        placements: vec![PlacementSpec::Packed],
        ccs: vec![],
        backends: vec![BackendFamily::Lgs],
        faults: vec![
            FaultSpec::None,
            FaultSpec::Job(JobFaultSpec::JobFail { pct: 50, at_pct: 50, retries: 2 }),
            // Job runs are tens of µs, so a 20 µs MTBF fires on a
            // realistic fraction of attempts.
            FaultSpec::Job(JobFaultSpec::Mtbf { mtbf_ns: 20_000, retries: 3 }),
        ],
        seed: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grids_have_their_frozen_cell_counts() {
        assert_eq!(sweep_smoke_grid().expand().len(), 24);
        assert_eq!(cluster_smoke_grid().expand_counted().0.len(), 24);
        assert_eq!(cluster_fault_smoke_grid().expand_counted().0.len(), 3);
        let cells = fault_smoke_grid().expand();
        assert_eq!(cells.len(), 45);
        // 15 cells per workload: 3 fault-free, 10 packet-level faulted
        // (5 regimes × 2 CCs), 2 message-level stragglers.
        let faulted = cells.iter().filter(|c| c.fault != FaultSpec::None).count();
        assert_eq!(faulted, 36);
        let distributional = cells.iter().filter(|c| c.fault.distributional()).count();
        assert_eq!(distributional, 21, "7 distributional cells per workload");
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
        let base = fault_smoke_grid().expand();
        let cells = stochastic_smoke_grid().expand();
        assert_eq!(cells.len(), 75, "45 fault cells + 5 models x 2 CCs x 3 workloads");
        let stochastic: Vec<_> =
            cells.iter().filter(|c| matches!(c.fault, FaultSpec::Stochastic(_))).collect();
        assert_eq!(stochastic.len(), 30);
        // Stochastic regimes are packet-level: htsim cells only.
        assert!(stochastic
            .iter()
            .all(|c| matches!(c.backend, crate::scenario::BackendSpec::Htsim { .. })));
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
        let cells = branch_smoke_grid().expand();
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
        use crate::scenario::cell_seed;
        for c in fault_smoke_grid().expand() {
            assert_eq!(c.seed, cell_seed(1, &c.workload.label()));
        }
    }
}

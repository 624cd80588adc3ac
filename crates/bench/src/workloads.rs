//! The paper's workload suites at configurable scale, shared by every
//! harness binary.
//!
//! Scale semantics: `scale` multiplies model/problem *sizes* (parameter
//! bytes, halo bytes, compute time), never the rank/GPU counts — the
//! paper's topologies and parallelization layouts are preserved exactly,
//! so congestion structure (who shares which link) is authentic while
//! packet-level simulation stays tractable.

use atlahs_core::NsPerByte;
use atlahs_goal::GoalSchedule;
use atlahs_htsim::topology::{LinkParams, TopologyConfig};
use atlahs_schedgen::{mpi2goal, nccl2goal};
use atlahs_testbed::{EFFICIENCY_PCT, HOST_O};
use atlahs_tracers::mpi::{self, HpcAppConfig, MpiTrace, Scaling};
use atlahs_tracers::nccl::{presets, trace_llm, LlmConfig, NsysReport};
use atlahs_tracers::storage::{financial_like, OltpConfig, SpcTrace};

use crate::args::{by_name, name_of};

// ---------------------------------------------------------------- AI ----

/// The six Fig. 8 LLM training presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlmPreset {
    Llama7bDp16,
    Llama7bDp128,
    Llama70b,
    Mistral8x7b,
    Moe8x13b,
    Moe8x70b,
}

impl LlmPreset {
    pub const NAMES: [(&'static str, LlmPreset); 6] = [
        ("llama7b-dp16", LlmPreset::Llama7bDp16),
        ("llama7b-dp128", LlmPreset::Llama7bDp128),
        ("llama70b", LlmPreset::Llama70b),
        ("mistral8x7b", LlmPreset::Mistral8x7b),
        ("moe8x13b", LlmPreset::Moe8x13b),
        ("moe8x70b", LlmPreset::Moe8x70b),
    ];

    pub fn name(self) -> &'static str {
        name_of(&Self::NAMES, &self)
    }

    pub fn cfg(self, scale: f64) -> LlmConfig {
        match self {
            LlmPreset::Llama7bDp16 => presets::llama7b_dp16(scale),
            LlmPreset::Llama7bDp128 => presets::llama7b_dp128(scale),
            LlmPreset::Llama70b => presets::llama70b(scale),
            LlmPreset::Mistral8x7b => presets::mistral8x7b(scale),
            LlmPreset::Moe8x13b => presets::moe8x13b(scale),
            LlmPreset::Moe8x70b => presets::moe8x70b(scale),
        }
    }

    pub(crate) fn parse(tok: &str) -> Result<LlmPreset, String> {
        by_name("LLM preset", &Self::NAMES, tok)
    }
}

/// One AI validation case (a Fig. 8 column).
#[derive(Debug, Clone)]
pub struct AiCase {
    /// Model name, e.g. `Llama 7B`.
    pub name: String,
    /// `16 GPUs 4 Nodes` style summary.
    pub geometry: String,
    /// `TP1 PP1 DP16` style parallelization summary.
    pub parallelism: String,
    pub cfg: LlmConfig,
}

impl AiCase {
    fn from_cfg(cfg: LlmConfig) -> AiCase {
        AiCase {
            name: cfg.name.clone(),
            geometry: format!("{} GPUs {} Nodes", cfg.gpus(), cfg.nodes()),
            parallelism: format!(
                "TP{} PP{} DP{}{}",
                cfg.tp,
                cfg.pp,
                cfg.dp,
                if cfg.ep > 1 { format!(" EP{}", cfg.ep) } else { String::new() }
            ),
            cfg,
        }
    }
}

/// The six Fig. 8 training configurations, one per [`LlmPreset::NAMES`]
/// entry in that order. `quick` runs one iteration with the batch capped
/// at two microbatches per pipeline, otherwise the preset's own iterations
/// and batch.
pub fn ai_suite(scale: f64, quick: bool, seed: u64) -> Vec<AiCase> {
    LlmPreset::NAMES
        .iter()
        .map(|&(_, preset)| {
            AiCase::from_cfg(shape_llm(preset.cfg(scale), seed, quick.then_some(1), quick))
        })
        .collect()
}

/// Shape `cfg` for one run: its trace seed, its iterations (the
/// preset's own for `None`), and with `cap_batch` a batch of at most two
/// microbatches per pipeline. The quick run is one iteration, capped:
/// the per-iteration communication *structure* (rings, pipelines, expert
/// alltoalls, bucketed DP allreduce) is unchanged.
pub(crate) fn shape_llm(
    mut cfg: LlmConfig,
    seed: u64,
    iterations: Option<u32>,
    cap_batch: bool,
) -> LlmConfig {
    cfg.seed = seed;
    cfg.iterations = iterations.unwrap_or(cfg.iterations);
    if cap_batch {
        cfg.batch = cfg.batch.min(2 * cfg.dp);
    }
    cfg
}

/// Trace an LLM config and lower it to a node-level GOAL schedule.
pub fn ai_goal(cfg: &LlmConfig) -> (NsysReport, GoalSchedule) {
    let report = trace_llm(cfg);
    let goal = nccl2goal::convert(&report, &nccl2goal::NcclToGoalConfig::default())
        .expect("LLM trace must lower to GOAL");
    (report, goal)
}

/// The Alps-class AI fabric: fully provisioned two-level fat tree,
/// 200 Gb/s links (25 GB/s per direction, the paper's Slingshot rate).
pub fn ai_topology(nodes: usize) -> TopologyConfig {
    ai_topology_oversubscribed(nodes, 1)
}

/// Same fabric with `ratio:1` ToR→core oversubscription (Figs. 12/13);
/// `ratio` must divide [`ai_hosts_per_tor`].
pub fn ai_topology_oversubscribed(nodes: usize, ratio: usize) -> TopologyConfig {
    let link = LinkParams { gbps: 200, latency_ns: 500 };
    fat_tree(nodes, ai_hosts_per_tor(nodes), ratio, link)
}

/// Hosts per ToR of the AI fabric: 8 keeps multiple ToRs in play from 16
/// nodes up.
pub fn ai_hosts_per_tor(nodes: usize) -> usize {
    if nodes <= 8 {
        nodes.max(2)
    } else {
        8
    }
}

/// A two-level fat tree of `link`s with `ratio:1` ToR→core
/// oversubscription, which must divide `hosts_per_tor`: a ratio that does
/// not would be rounded to one that does.
fn fat_tree(hosts: usize, hosts_per_tor: usize, ratio: usize, link: LinkParams) -> TopologyConfig {
    assert!(
        ratio >= 1 && hosts_per_tor % ratio == 0,
        "oversub {ratio} must divide the {hosts_per_tor} hosts per ToR"
    );
    let uplinks_per_tor = hosts_per_tor / ratio;
    TopologyConfig::FatTree2L { hosts, hosts_per_tor, uplinks_per_tor, edge: link, core: link }
}

// --------------------------------------------------------------- HPC ----

/// Identifier of one HPC application skeleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HpcApp {
    CloverLeaf,
    Hpcg,
    Lulesh,
    Lammps,
    Icon,
    OpenMx,
}

impl HpcApp {
    /// The CLI tokens (`hpc:<app>:…` workloads, docs/SCENARIOS.md).
    pub const NAMES: [(&'static str, HpcApp); 6] = [
        ("cloverleaf", HpcApp::CloverLeaf),
        ("hpcg", HpcApp::Hpcg),
        ("lulesh", HpcApp::Lulesh),
        ("lammps", HpcApp::Lammps),
        ("icon", HpcApp::Icon),
        ("openmx", HpcApp::OpenMx),
    ];

    /// The application's own spelling (figure and table rows).
    pub fn name(self) -> &'static str {
        match self {
            HpcApp::CloverLeaf => "CloverLeaf",
            HpcApp::Hpcg => "HPCG",
            HpcApp::Lulesh => "LULESH",
            HpcApp::Lammps => "LAMMPS",
            HpcApp::Icon => "ICON",
            HpcApp::OpenMx => "OpenMX",
        }
    }

    /// How the application's problem grows with the rank count: ICON and
    /// OpenMX are the strong-scaling set, the rest scale weakly.
    pub fn scaling(self) -> Scaling {
        match self {
            HpcApp::Icon | HpcApp::OpenMx => Scaling::Strong,
            _ => Scaling::Weak,
        }
    }

    pub fn trace(self, cfg: &HpcAppConfig) -> MpiTrace {
        match self {
            HpcApp::CloverLeaf => mpi::cloverleaf(cfg),
            HpcApp::Hpcg => mpi::hpcg(cfg),
            HpcApp::Lulesh => mpi::lulesh(cfg),
            HpcApp::Lammps => mpi::lammps(cfg),
            HpcApp::Icon => mpi::icon(cfg),
            HpcApp::OpenMx => mpi::openmx(cfg),
        }
    }
}

/// One Fig. 10 column: app at a `(procs/nodes)` scale point.
#[derive(Debug, Clone)]
pub struct HpcCase {
    pub app: HpcApp,
    pub procs: usize,
    pub nodes: usize,
    pub scaling: Scaling,
}

impl HpcCase {
    pub fn label(&self) -> String {
        format!("{} ({}/{})", self.app.name(), self.procs, self.nodes)
    }
}

/// The fifteen Fig. 10 validation points, each at its application's
/// [`HpcApp::scaling`].
pub fn hpc_suite() -> Vec<HpcCase> {
    use HpcApp::*;
    let mk = |app: HpcApp, procs, nodes| HpcCase { app, procs, nodes, scaling: app.scaling() };
    vec![
        mk(CloverLeaf, 128, 8),
        mk(Hpcg, 128, 8),
        mk(Hpcg, 512, 32),
        mk(Hpcg, 1024, 64),
        mk(Lulesh, 128, 8),
        mk(Lulesh, 432, 27),
        mk(Lulesh, 1024, 64),
        mk(Lammps, 128, 8),
        mk(Lammps, 512, 32),
        mk(Lammps, 1024, 64),
        mk(Icon, 128, 8),
        mk(Icon, 512, 32),
        mk(Icon, 1024, 64),
        mk(OpenMx, 128, 8),
        mk(OpenMx, 512, 32),
    ]
}

/// Trace one HPC case at `scale` and lower it to GOAL.
///
/// Strong-scaling cases start from a proportionally larger total problem
/// (the whole point of strong scaling is dividing a *fixed, large* problem
/// across more ranks), so per-rank compute stays in the realistic
/// mostly-computation regime the paper's applications exhibit.
pub fn hpc_goal(case: &HpcCase, scale: f64, seed: u64) -> (MpiTrace, GoalSchedule) {
    let base_compute = ((2_000_000.0 * scale) as u64).max(50_000);
    let cfg = HpcAppConfig {
        ranks: case.procs,
        iterations: ((10.0 * scale).ceil() as u32).max(2),
        scaling: case.scaling,
        compute_ns: match case.scaling {
            Scaling::Weak => base_compute,
            // Strong-scaling totals are sized so per-rank compute stays
            // dominant at the largest rank counts (the paper's ICON and
            // OpenMX run at 69–92% non-overlapped computation).
            Scaling::Strong => base_compute * case.procs as u64 * 4,
        },
        halo_bytes: ((64.0 * 1024.0 * scale) as u64).max(1024),
        noise: 0.02,
        seed,
    };
    let trace = case.app.trace(&cfg);
    let goal = mpi2goal::convert(&trace, &mpi2goal::MpiToGoalConfig::default())
        .expect("MPI trace must lower to GOAL");
    (trace, goal)
}

/// HPC fabric link class (ConnectX-3-era 56 Gb/s).
const HPC_LINK: LinkParams = LinkParams { gbps: 56, latency_ns: 600 };

/// The CSCS test-bed-class HPC fabric: 56 Gb/s links, one ToR per
/// physical node's worth of MPI ranks (fat tree, fully provisioned).
pub fn hpc_topology(procs: usize, nodes: usize) -> TopologyConfig {
    fat_tree(procs, (procs / nodes.max(1)).max(1), 1, HPC_LINK)
}

/// LogGOPS parameters *calibrated against the testbed emulator* for a
/// fabric built from `link`, the way the paper fits them to the physical
/// cluster with Netgauge (§5.3): `L` is the 4-hop cross-ToR path latency
/// (host→ToR→core→ToR→host), `o` the testbed's host overhead, `G` the
/// inverse of its efficiency-derated link bandwidth, `8 / (gbps · pct/100)`
/// ns per byte. The HPC/AI helpers below and the scenario-sweep engine
/// all delegate here; the constants are the testbed's own.
pub fn lgs_params_for_link(link: LinkParams) -> atlahs_lgs::LogGopsParams {
    atlahs_lgs::LogGopsParams {
        l: 4 * link.latency_ns,
        o: HOST_O,
        g: 0,
        big_g: NsPerByte::ratio(800, link.gbps * EFFICIENCY_PCT),
        big_o: NsPerByte::ZERO,
        s: 0,
    }
}

/// LogGOPS parameters calibrated against the testbed on the HPC fabric.
pub fn hpc_lgs_params() -> atlahs_lgs::LogGopsParams {
    lgs_params_for_link(HPC_LINK)
}

/// LogGOPS parameters calibrated against the testbed on the AI fabric.
pub fn ai_lgs_params(nodes: usize) -> atlahs_lgs::LogGopsParams {
    lgs_params_for_link(ai_topology(nodes).edge_link())
}

// ---------------------------------------------------------- Synthetic ----

/// Cross-ToR permutation: every rank sends `bytes` to the rank half a
/// ring away (tag = sender), so with ≤ `hosts/2` hosts per ToR every
/// flow crosses the core. The workload of the htsim determinism goldens
/// (`tests/determinism_golden.rs`).
pub fn cross_tor_permutation(hosts: u32, bytes: u64) -> GoalSchedule {
    let mut b = atlahs_goal::GoalBuilder::new(hosts as usize);
    for h in 0..hosts {
        let dst = (h + hosts / 2) % hosts;
        b.send(h, dst, bytes, h);
        b.recv(dst, h, bytes, h);
    }
    b.build().expect("permutation is matched by construction")
}

// ------------------------------------------------------------ Storage ----

/// The Fig. 11 storage workload, Financial-distribution-like OLTP I/O, at
/// a controlled offered load: `mean_gap_ns` is the mean inter-arrival gap
/// per the whole trace (smaller = more concurrent requests in flight =
/// more core congestion).
pub fn storage_trace_at_load(operations: usize, mean_gap_ns: u64, seed: u64) -> SpcTrace {
    financial_like(&OltpConfig { operations, mean_gap_ns, seed })
}

/// Hosts per ToR of the storage fabric.
pub const STORAGE_HOSTS_PER_TOR: usize = 8;

/// Fat tree fronting the Direct Drive cluster; `ratio` = 1 (fully
/// provisioned) or 8 (the paper's 8:1 oversubscription), and must divide
/// [`STORAGE_HOSTS_PER_TOR`].
pub fn storage_topology(hosts: usize, ratio: usize) -> TopologyConfig {
    let padded = hosts.div_ceil(STORAGE_HOSTS_PER_TOR) * STORAGE_HOSTS_PER_TOR;
    let link = LinkParams { gbps: 100, latency_ns: 500 };
    fat_tree(padded, STORAGE_HOSTS_PER_TOR, ratio, link)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The calibration itself: a lone bulk flow across the core of each
    /// suite's fabric finishes on the testbed at `L + 2o` plus a drain
    /// that is LGS's `G·b` to within 1 ns.
    #[test]
    fn a_lone_bulk_flow_drains_on_the_testbed_in_lgs_g_times_b() {
        use atlahs_core::Simulation;
        use atlahs_testbed::{TestbedBackend, TestbedConfig};
        for (topo, dst) in
            [(hpc_topology(4, 2), 2), (ai_topology(16), 8), (storage_topology(16, 1), 8)]
        {
            let p = lgs_params_for_link(topo.edge_link());
            assert_eq!((p.g, p.big_o, p.s), (0, NsPerByte::ZERO, 0));
            for bytes in [1 << 20, 8 << 20, 12_345_677] {
                let mut b = atlahs_goal::GoalBuilder::new(dst as usize + 1);
                b.send(0, dst, bytes, 0);
                b.recv(dst, 0, bytes, 0);
                let goal = b.build().unwrap();
                let mut testbed = TestbedBackend::new(TestbedConfig::new(topo.clone()));
                let makespan = Simulation::new(&goal).run(&mut testbed).unwrap().makespan;
                let drain = makespan - p.l - 2 * p.o;
                let g_b = p.big_g.round(bytes);
                assert!(drain.abs_diff(g_b) <= 1, "{topo:?}, {bytes} B: {drain} vs G·b {g_b}");
            }
        }
    }

    #[test]
    fn ai_suite_matches_fig8_geometry() {
        let suite = ai_suite(0.01, true, 7);
        assert_eq!(suite.len(), 6);
        let geoms: Vec<&str> = suite.iter().map(|c| c.geometry.as_str()).collect();
        assert_eq!(
            geoms,
            vec![
                "16 GPUs 4 Nodes",
                "128 GPUs 32 Nodes",
                "256 GPUs 64 Nodes",
                "64 GPUs 16 Nodes",
                "128 GPUs 32 Nodes",
                "256 GPUs 64 Nodes",
            ]
        );
        assert_eq!(suite[2].parallelism, "TP1 PP8 DP32");
        assert_eq!(suite[5].parallelism, "TP4 PP8 DP8 EP8");
    }

    #[test]
    fn quick_mode_caps_batch() {
        let quick = ai_suite(0.01, true, 7);
        let full = ai_suite(0.01, false, 7);
        assert!(quick[1].cfg.batch <= full[1].cfg.batch);
        assert_eq!(quick[0].cfg.iterations, 1);
    }

    #[test]
    fn ai_goal_produces_node_ranks() {
        let suite = ai_suite(0.005, true, 7);
        let (report, goal) = ai_goal(&suite[0].cfg);
        assert_eq!(report.num_gpus(), 16);
        assert_eq!(goal.num_ranks(), 4);
        atlahs_goal::stats::check_matching(&goal).unwrap();
    }

    #[test]
    fn hpc_suite_has_fifteen_points() {
        let suite = hpc_suite();
        assert_eq!(suite.len(), 15);
        assert_eq!(suite[0].label(), "CloverLeaf (128/8)");
        assert_eq!(suite[14].label(), "OpenMX (512/32)");
        let weak = suite.iter().filter(|c| c.scaling == Scaling::Weak).count();
        assert_eq!(weak, 10);
    }

    #[test]
    fn hpc_goal_builds_and_matches() {
        let case = &hpc_suite()[0];
        let (trace, goal) = hpc_goal(case, 0.05, 3);
        assert_eq!(trace.num_ranks(), 128);
        assert_eq!(goal.num_ranks(), 128);
        atlahs_goal::stats::check_matching(&goal).unwrap();
    }

    #[test]
    fn topologies_fit_their_workloads() {
        assert_eq!(ai_topology(4).num_hosts(), 4);
        assert_eq!(ai_topology(64).num_hosts(), 64);
        assert_eq!(hpc_topology(128, 8).num_hosts(), 128);
        assert!(storage_topology(47, 8).num_hosts() >= 47);
        // Oversubscription must reduce the uplink count.
        if let TopologyConfig::FatTree2L { uplinks_per_tor, hosts_per_tor, .. } =
            ai_topology_oversubscribed(64, 4)
        {
            assert_eq!(hosts_per_tor / uplinks_per_tor, 4);
        } else {
            panic!("expected fat tree");
        }
    }

    #[test]
    fn storage_trace_is_financial_like() {
        let t = storage_trace_at_load(2000, 200_000, 11);
        assert_eq!(t.len(), 2000);
        let wf = t.write_fraction();
        assert!(wf > 0.5, "Financial is write-heavy: {wf}");
    }

    #[test]
    fn scale_shrinks_hpc_traces() {
        let case = &hpc_suite()[1];
        let (_, small) = hpc_goal(case, 0.02, 3);
        let (_, big) = hpc_goal(case, 0.2, 3);
        let sb = atlahs_goal::ScheduleStats::of(&small).bytes_sent;
        let bb = atlahs_goal::ScheduleStats::of(&big).bytes_sent;
        assert!(bb > sb);
    }
}

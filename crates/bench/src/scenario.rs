//! Declarative scenario grids: the cartesian space the paper's evaluation
//! figures are points in.
//!
//! A [`ScenarioGrid`] names a set of topologies, workloads, congestion
//! controls, placement strategies, and backends; [`ScenarioGrid::expand`]
//! takes the cartesian product and drops infeasible combinations (workload
//! larger than the fabric, CC-less backends duplicated per CC), yielding
//! [`ScenarioCell`]s. Each cell is a fully specified, *single-threaded,
//! deterministic* simulation: its seed is derived from the grid seed and
//! the cell's workload label (see [`cell_seed`]; stable under reordering
//! and subsetting of the grid), so any cell can be re-run in isolation
//! and must reproduce its sweep result bit for bit, and cells sharing a
//! workload simulate the same generated instance.
//!
//! [`run_cell`] executes one cell; the parallel executor lives in
//! [`crate::sweep`].

use std::sync::Arc;
use std::time::Duration;

use atlahs_core::faultgen::num;
use atlahs_core::{allocate, NsPerByte, PlacementStrategy};
use atlahs_goal::merge::{compose, PlacedJob};
use atlahs_goal::{GoalBuilder, GoalSchedule};
use atlahs_htsim::engine::NetStats;
use atlahs_htsim::{CcAlgo, MAX_MESSAGE_BYTES};
use atlahs_schedgen::synthetic;

use crate::args::{by_name, name_of, unknown, Args};
use crate::session::{self, DistSummary, Session};
pub use crate::spec::{cell_seed, lgs_params_for, parse_cc, BackendSpec, FaultSpec, TopologySpec};
use crate::spec::{FaultTelemetry, HORIZON_NS};
pub use crate::workloads::LlmPreset;
use crate::workloads::{self, HpcApp, HpcCase};

// ------------------------------------------------------------ workload ----

/// One workload axis value. Every variant lowers to one (or, for
/// [`WorkloadSpec::MultiJob`], several) GOAL schedules.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Ring rotation ([`synthetic::ring`]).
    Ring { ranks: usize, bytes: u64, laps: u32 },
    /// Half-ring shift permutation ([`synthetic::permutation`]).
    Permutation { ranks: usize, bytes: u64, shift: usize, repeat: u32 },
    /// Uniform random traffic ([`synthetic::uniform_random`]).
    UniformRandom { ranks: usize, bytes: u64, msgs: usize },
    /// N-to-one incast onto rank 0 ([`synthetic::incast`]; `ranks`
    /// includes the sink).
    Incast { ranks: usize, bytes: u64, repeat: u32 },
    /// MoE expert-parallel all-to-all ([`synthetic::moe_alltoall`]).
    MoeAllToAll { ranks: usize, group: usize, bytes: u64, layers: u32, compute_ns: u64 },
    /// Pipeline-parallel LLM training ([`synthetic::pipeline_parallel`]).
    PipelineLlm { stages: usize, microbatches: u32, bytes: u64, compute_ns: u64 },
    /// Fan-in storage reads ([`synthetic::storage_incast`]).
    StorageIncast { clients: usize, servers: usize, bytes: u64, reads: u32 },
    /// Traced LLM training iteration (Fig. 8 presets; node-level GOAL).
    Llm { preset: LlmPreset, scale: f64, iterations: u32, cap_batch: bool },
    /// Traced HPC application skeleton (Fig. 10 apps).
    Hpc { app: HpcApp, procs: usize, nodes: usize, scale: f64 },
    /// Direct Drive OLTP storage trace at a controlled offered load
    /// (the Fig. 11 workload; arrival timestamps divided by `compress`).
    Storage { ops: usize, gap_ns: u64, compress: u64 },
    /// Several jobs co-scheduled on one fabric (Fig. 13); the cell's
    /// placement strategy decides who gets which nodes.
    MultiJob { jobs: Vec<WorkloadSpec> },
}

impl WorkloadSpec {
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Ring { ranks, bytes, laps } => format!("ring:{ranks}:{bytes}:{laps}"),
            WorkloadSpec::Permutation { ranks, bytes, shift, repeat } => {
                format!("perm:{ranks}:{bytes}:{shift}:{repeat}")
            }
            WorkloadSpec::UniformRandom { ranks, bytes, msgs } => {
                format!("uniform:{ranks}:{bytes}:{msgs}")
            }
            WorkloadSpec::Incast { ranks, bytes, repeat } => {
                format!("incast:{ranks}:{bytes}:{repeat}")
            }
            WorkloadSpec::MoeAllToAll { ranks, group, bytes, layers, compute_ns } => {
                format!("moe:{ranks}:{group}:{bytes}:{layers}:{compute_ns}")
            }
            WorkloadSpec::PipelineLlm { stages, microbatches, bytes, compute_ns } => {
                format!("pipeline:{stages}:{microbatches}:{bytes}:{compute_ns}")
            }
            WorkloadSpec::StorageIncast { clients, servers, bytes, reads } => {
                format!("storage-incast:{clients}:{servers}:{bytes}:{reads}")
            }
            WorkloadSpec::Llm { preset, scale, iterations, cap_batch } => {
                format!("llm:{}:{scale}:{iterations}:{cap_batch}", preset.name())
            }
            WorkloadSpec::Hpc { app, procs, nodes, scale } => {
                format!("hpc:{}:{procs}:{nodes}:{scale}", name_of(&HpcApp::NAMES, app))
            }
            WorkloadSpec::Storage { ops, gap_ns, compress } => {
                format!("storage:{ops}:{gap_ns}:{compress}")
            }
            WorkloadSpec::MultiJob { jobs } => {
                let inner: Vec<String> = jobs.iter().map(|j| j.label()).collect();
                format!("multi[{}]", inner.join("+"))
            }
        }
    }

    /// Total ranks this workload occupies (sum over jobs).
    pub fn ranks(&self) -> usize {
        match self {
            WorkloadSpec::Ring { ranks, .. }
            | WorkloadSpec::Permutation { ranks, .. }
            | WorkloadSpec::UniformRandom { ranks, .. }
            | WorkloadSpec::Incast { ranks, .. }
            | WorkloadSpec::MoeAllToAll { ranks, .. } => *ranks,
            WorkloadSpec::PipelineLlm { stages, .. } => *stages,
            WorkloadSpec::StorageIncast { clients, servers, .. } => clients + servers,
            WorkloadSpec::Llm { preset, scale, .. } => preset.cfg(*scale).nodes() as usize,
            WorkloadSpec::Hpc { procs, .. } => *procs,
            WorkloadSpec::Storage { .. } => storage_layout().total_ranks(),
            WorkloadSpec::MultiJob { jobs } => jobs.iter().map(|j| j.ranks()).sum(),
        }
    }

    /// Lower to one GOAL schedule per job.
    ///
    /// Schedules come back in `Arc`s so the sweep executor can share one
    /// task arena per distinct (workload, seed) across every cell of a
    /// grid — a sweep never holds more than one copy of a workload's
    /// arena, no matter how many topology/CC/placement/backend cells
    /// reference it.
    pub fn build_jobs(&self, seed: u64) -> Vec<Arc<GoalSchedule>> {
        match self {
            WorkloadSpec::MultiJob { jobs } => {
                jobs.iter().flat_map(|j| j.build_jobs(seed)).collect()
            }
            other => vec![Arc::new(other.build_goal(seed))],
        }
    }

    fn build_goal(&self, seed: u64) -> GoalSchedule {
        match *self {
            WorkloadSpec::Ring { ranks, bytes, laps } => {
                synthetic::ring(ranks, bytes, laps).expect("ring is well-formed")
            }
            WorkloadSpec::Permutation { ranks, bytes, shift, repeat } => {
                synthetic::permutation(ranks, bytes, shift, repeat)
                    .expect("permutation is well-formed")
            }
            WorkloadSpec::UniformRandom { ranks, bytes, msgs } => {
                synthetic::uniform_random(ranks, bytes, msgs, seed)
                    .expect("uniform traffic is well-formed")
            }
            WorkloadSpec::Incast { ranks, bytes, repeat } => {
                assert!(ranks >= 2, "incast needs a sink and at least one sender");
                synthetic::incast(ranks - 1, bytes, repeat).expect("incast is well-formed")
            }
            WorkloadSpec::MoeAllToAll { ranks, group, bytes, layers, compute_ns } => {
                synthetic::moe_alltoall(ranks, group, bytes, layers, compute_ns)
                    .expect("moe all-to-all is well-formed")
            }
            WorkloadSpec::PipelineLlm { stages, microbatches, bytes, compute_ns } => {
                synthetic::pipeline_parallel(stages, microbatches, bytes, compute_ns)
                    .expect("pipeline is well-formed")
            }
            WorkloadSpec::StorageIncast { clients, servers, bytes, reads } => {
                synthetic::storage_incast(clients, servers, bytes, reads)
                    .expect("storage incast is well-formed")
            }
            WorkloadSpec::Llm { preset, scale, iterations, cap_batch } => {
                let cfg =
                    workloads::shape_llm(preset.cfg(scale), seed, Some(iterations), cap_batch);
                let (_, goal) = workloads::ai_goal(&cfg);
                goal
            }
            WorkloadSpec::Hpc { app, procs, nodes, scale } => {
                let case = HpcCase { app, procs, nodes, scaling: app.scaling() };
                let (_, goal) = workloads::hpc_goal(&case, scale, seed);
                goal
            }
            WorkloadSpec::Storage { ops, gap_ns, compress } => {
                storage_goal(ops, gap_ns, compress, seed)
            }
            WorkloadSpec::MultiJob { .. } => unreachable!("handled in build_jobs"),
        }
    }

    /// Parse a CLI token — the inverse of [`WorkloadSpec::label`], plus
    /// the short forms (see `docs/SCENARIOS.md` for the grammar).
    /// Structural constraints (group divides ranks, enough ranks, …) are
    /// checked here so a bad token fails at the CLI, not inside a worker.
    pub fn parse(tok: &str) -> Result<WorkloadSpec, String> {
        let single = |tok: &str| {
            let spec = Self::parse_inner(tok)?;
            spec.check().map_err(|e| format!("workload `{tok}`: {e}"))?;
            Ok(spec)
        };
        match tok.strip_prefix("multi[").and_then(|rest| rest.strip_suffix(']')) {
            // Jobs are single workloads: `build_jobs` flattens anyway, and
            // a nested `multi[…]` would make the `+` split ambiguous.
            Some(jobs) => jobs
                .split('+')
                .map(single)
                .collect::<Result<_, String>>()
                .map(|jobs| WorkloadSpec::MultiJob { jobs }),
            None => single(tok),
        }
    }

    /// Validate structural constraints the generators assert. Zero-work
    /// repetition counts are rejected too: an empty schedule is useless in
    /// a sweep and a hard error in the dynamic cluster engine. Every
    /// synthetic generator sends exactly `<bytes>` per message, so that
    /// field is bounded by the largest message the packet engine carries.
    /// The total compute of a pipeline (a forward calc of `<compute_ns>`
    /// and a backward one of twice that per stage and microbatch) or an
    /// MoE run (one calc per rank and layer) is bounded by
    /// [`HORIZON_NS`], so no chain of its calcs runs past the `u64` clock.
    pub(crate) fn check(&self) -> Result<(), String> {
        if let WorkloadSpec::Ring { bytes, .. }
        | WorkloadSpec::Permutation { bytes, .. }
        | WorkloadSpec::UniformRandom { bytes, .. }
        | WorkloadSpec::Incast { bytes, .. }
        | WorkloadSpec::MoeAllToAll { bytes, .. }
        | WorkloadSpec::PipelineLlm { bytes, .. }
        | WorkloadSpec::StorageIncast { bytes, .. } = *self
        {
            if bytes > MAX_MESSAGE_BYTES {
                return Err(format!(
                    "<bytes> must be at most {MAX_MESSAGE_BYTES} ({} packets of 4096 B)",
                    u32::MAX
                ));
            }
        }
        let product =
            |factors: [u64; 4]| factors.iter().fold(1u128, |p, &f| p.saturating_mul(f.into()));
        let compute = match *self {
            WorkloadSpec::PipelineLlm { stages, microbatches, compute_ns, .. } => Some((
                "<stages> × <microbatches> × 3 × <compute_ns>",
                product([stages as u64, microbatches.into(), 3, compute_ns]),
            )),
            WorkloadSpec::MoeAllToAll { ranks, layers, compute_ns, .. } => Some((
                "<ranks> × <layers> × <compute_ns>",
                product([ranks as u64, layers.into(), 1, compute_ns]),
            )),
            _ => None,
        };
        if let Some((span, total)) = compute {
            if total > u128::from(HORIZON_NS) {
                return Err(format!("{span} must be at most {HORIZON_NS} ns"));
            }
        }
        match *self {
            WorkloadSpec::Ring { ranks, laps, .. } if ranks < 2 || laps < 1 => {
                Err("a ring needs at least 2 ranks and 1 lap".into())
            }
            WorkloadSpec::Permutation { ranks, shift, repeat, .. }
                if ranks < 2 || shift % ranks == 0 || repeat < 1 =>
            {
                Err("shift must move data (shift % ranks != 0, repeat >= 1)".into())
            }
            WorkloadSpec::UniformRandom { ranks, msgs, .. } if ranks < 2 || msgs < 1 => {
                Err("uniform traffic needs at least 2 ranks and 1 message".into())
            }
            WorkloadSpec::Incast { ranks, repeat, .. } if ranks < 2 || repeat < 1 => {
                Err("incast needs a sink, at least one sender, and 1 repeat".into())
            }
            WorkloadSpec::MoeAllToAll { ranks, group, layers, .. }
                if group < 2 || ranks % group != 0 || layers < 1 =>
            {
                Err("EP group must be >= 2 and divide the rank count; layers >= 1".into())
            }
            WorkloadSpec::PipelineLlm { stages, microbatches, .. }
                if stages < 2 || microbatches < 1 =>
            {
                Err("a pipeline needs >= 2 stages and >= 1 microbatch".into())
            }
            WorkloadSpec::StorageIncast { clients, servers, reads, .. }
                if clients < 1 || servers < 1 || reads < 1 =>
            {
                Err("need at least one client, one server, and one read".into())
            }
            WorkloadSpec::Llm { iterations: 0, .. } => {
                Err("an LLM run needs at least 1 iteration".into())
            }
            WorkloadSpec::Hpc { procs: 0, .. } => Err("an HPC run needs at least 1 process".into()),
            WorkloadSpec::Storage { ops: 0, .. } => {
                Err("a storage run needs at least 1 operation".into())
            }
            WorkloadSpec::Storage { ops, .. } if ops > MAX_STORAGE_OPS => {
                Err("<ops> must be at most 1000000".into())
            }
            WorkloadSpec::Storage { compress: 0, .. } => Err("compress must be at least 1".into()),
            WorkloadSpec::Llm { scale, .. } | WorkloadSpec::Hpc { scale, .. }
                if !(scale > 0.0 && scale <= 1.0) =>
            {
                Err("scale must be in (0, 1]".into())
            }
            _ => Ok(()),
        }
    }

    /// The token forms, one per line: what an unknown token's error and
    /// `atlahs list` print (the vocabularies are [`LlmPreset::NAMES`] and
    /// [`HpcApp::NAMES`]).
    pub const GRAMMAR: &'static str = "\
        ring:<ranks>:<bytes>:<laps>\n\
        perm:<ranks>:<bytes>:<shift>:<repeat>\n\
        uniform:<ranks>:<bytes>:<msgs>\n\
        incast:<ranks>:<bytes>:<repeat>\n\
        moe:<ranks>:<group>:<bytes>:<layers>:<compute_ns>\n\
        pipeline:<stages>:<microbatches>:<bytes>:<compute_ns>\n\
        storage-incast:<clients>:<servers>:<bytes>:<reads>\n\
        llm:<preset>:<scale>[:<iterations>:<cap_batch>]   (default 1:true)\n\
        hpc:<app>:<procs>:<nodes>:<scale>\n\
        storage:<ops>:<gap_ns>:<compress>\n\
        multi[<workload>+<workload>+…]   co-scheduled jobs on one fabric (sweep only)";

    fn parse_inner(tok: &str) -> Result<WorkloadSpec, String> {
        let parts: Vec<&str> = tok.split(':').collect();
        let n = |s: &str| num::<usize>(tok, s);
        let b = |s: &str| num::<u64>(tok, s);
        let r = |s: &str| num::<u32>(tok, s);
        match parts.as_slice() {
            ["ring", ranks, bytes, laps] => {
                Ok(WorkloadSpec::Ring { ranks: n(ranks)?, bytes: b(bytes)?, laps: r(laps)? })
            }
            ["perm", ranks, bytes, shift, repeat] => Ok(WorkloadSpec::Permutation {
                ranks: n(ranks)?,
                bytes: b(bytes)?,
                shift: n(shift)?,
                repeat: r(repeat)?,
            }),
            ["uniform", ranks, bytes, msgs] => Ok(WorkloadSpec::UniformRandom {
                ranks: n(ranks)?,
                bytes: b(bytes)?,
                msgs: n(msgs)?,
            }),
            ["incast", ranks, bytes, repeat] => {
                Ok(WorkloadSpec::Incast { ranks: n(ranks)?, bytes: b(bytes)?, repeat: r(repeat)? })
            }
            ["moe", ranks, group, bytes, layers, compute] => Ok(WorkloadSpec::MoeAllToAll {
                ranks: n(ranks)?,
                group: n(group)?,
                bytes: b(bytes)?,
                layers: r(layers)?,
                compute_ns: b(compute)?,
            }),
            ["pipeline", stages, mbs, bytes, compute] => Ok(WorkloadSpec::PipelineLlm {
                stages: n(stages)?,
                microbatches: r(mbs)?,
                bytes: b(bytes)?,
                compute_ns: b(compute)?,
            }),
            ["storage-incast", clients, servers, bytes, reads] => Ok(WorkloadSpec::StorageIncast {
                clients: n(clients)?,
                servers: n(servers)?,
                bytes: b(bytes)?,
                reads: r(reads)?,
            }),
            // The short form is one batch-capped iteration.
            ["llm", preset, scale] => Ok(WorkloadSpec::Llm {
                preset: LlmPreset::parse(preset)?,
                scale: num(tok, scale)?,
                iterations: 1,
                cap_batch: true,
            }),
            ["llm", preset, scale, iterations, cap_batch] => Ok(WorkloadSpec::Llm {
                preset: LlmPreset::parse(preset)?,
                scale: num(tok, scale)?,
                iterations: r(iterations)?,
                cap_batch: cap_batch
                    .parse()
                    .map_err(|_| format!("bad cap_batch `{cap_batch}` in `{tok}` (true|false)"))?,
            }),
            ["hpc", app, procs, nodes, scale] => Ok(WorkloadSpec::Hpc {
                app: by_name("HPC app", &HpcApp::NAMES, app)?,
                procs: n(procs)?,
                nodes: n(nodes)?,
                scale: num(tok, scale)?,
            }),
            ["storage", ops, gap, compress] => {
                Ok(WorkloadSpec::Storage { ops: n(ops)?, gap_ns: b(gap)?, compress: b(compress)? })
            }
            _ => Err(unknown("workload", tok, Self::GRAMMAR)),
        }
    }
}

/// The most operations a storage workload may trace (`check`'s error text
/// spells it out). The generator holds every operation's record, and
/// 100 000 operations lower to 1.87 M GOAL tasks, so the bound keeps a run
/// near 19 M tasks instead of aborting an allocation.
const MAX_STORAGE_OPS: usize = 1_000_000;

/// The Direct Drive cluster geometry every storage cell uses: 16 clients,
/// 4 CCS, 24 BSS (the Fig. 11 deployment).
pub fn storage_layout() -> atlahs_directdrive::DirectDriveLayout {
    atlahs_directdrive::DirectDriveLayout::standard(16, 4, 24)
}

/// NVMe/RDMA-class service times (the fabric-bound regime Fig. 11
/// studies; `ServiceParams::default` would pace traffic below the core).
pub fn storage_service_params() -> atlahs_directdrive::ServiceParams {
    atlahs_directdrive::ServiceParams {
        ccs_lookup_ns: 300,
        bss_read_base_ns: 1_500,
        bss_write_base_ns: 2_000,
        bss_per_byte: NsPerByte::ps(5),
        ..atlahs_directdrive::ServiceParams::default()
    }
}

fn storage_goal(ops: usize, gap_ns: u64, compress: u64, seed: u64) -> GoalSchedule {
    let mut trace = workloads::storage_trace_at_load(ops, gap_ns, seed);
    // Compress arrival timestamps to reach the fabric-saturating offered
    // load the paper's 5k-operation burst represents.
    for rec in &mut trace.records {
        rec.ts_ns /= compress;
    }
    let layout = storage_layout();
    let mut b = GoalBuilder::new(layout.total_ranks());
    atlahs_directdrive::trace_to_goal(&trace, &layout, &storage_service_params(), &mut b);
    b.build().expect("storage GOAL must build")
}

// ----------------------------------------------------------- placement ----

/// Placement axis value: [`PlacementStrategy`] minus the seed (Random
/// draws its permutation from the cell seed at run time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementSpec {
    Packed,
    Random,
    RoundRobin,
}

impl PlacementSpec {
    pub const NAMES: [(&'static str, PlacementSpec); 3] = [
        ("packed", PlacementSpec::Packed),
        ("random", PlacementSpec::Random),
        ("roundrobin", PlacementSpec::RoundRobin),
    ];

    pub fn label(&self) -> &'static str {
        name_of(&Self::NAMES, self)
    }

    pub fn strategy(&self, seed: u64) -> PlacementStrategy {
        match self {
            PlacementSpec::Packed => PlacementStrategy::Packed,
            PlacementSpec::Random => PlacementStrategy::Random { seed },
            PlacementSpec::RoundRobin => PlacementStrategy::RoundRobin,
        }
    }

    pub fn parse(tok: &str) -> Result<PlacementSpec, String> {
        by_name("placement", &Self::NAMES, tok)
    }
}

// ------------------------------------------------------------- backend ----

/// Backend family axis value. htsim families are crossed with the grid's
/// CC axis at expansion time; `lgs`/`ideal` have no CC notion and appear
/// once per (topology, workload, placement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendFamily {
    /// Packet-level, per-flow ECMP.
    Htsim,
    /// Packet-level, per-packet spraying (UEC/Slingshot-class ALB).
    HtsimSpray,
    /// Message-level LogGOPS, parameters calibrated from the topology's
    /// edge link (see [`lgs_params_for`]).
    Lgs,
    /// Contention-free fixed-rate reference
    /// ([`atlahs_core::backends::IdealBackend`]).
    Ideal,
}

impl BackendFamily {
    pub const NAMES: [(&'static str, BackendFamily); 4] = [
        ("htsim", BackendFamily::Htsim),
        ("htsim-spray", BackendFamily::HtsimSpray),
        ("lgs", BackendFamily::Lgs),
        ("ideal", BackendFamily::Ideal),
    ];

    pub fn parse(tok: &str) -> Result<BackendFamily, String> {
        by_name("backend", &Self::NAMES, tok)
    }

    /// The concrete backends of this family: htsim families cross with
    /// the CC axis, CC-less backends appear once.
    pub fn specs(&self, ccs: &[CcAlgo]) -> Vec<BackendSpec> {
        let htsim = |spray| ccs.iter().map(|&cc| BackendSpec::Htsim { cc, spray }).collect();
        match self {
            BackendFamily::Htsim => htsim(false),
            BackendFamily::HtsimSpray => htsim(true),
            BackendFamily::Lgs => vec![BackendSpec::Lgs],
            BackendFamily::Ideal => vec![BackendSpec::Ideal],
        }
    }
}

// ---------------------------------------------------------------- grid ----

/// A declarative scenario grid: the cartesian product of its axes.
#[derive(Debug, Clone)]
pub struct ScenarioGrid {
    pub topologies: Vec<TopologySpec>,
    pub workloads: Vec<WorkloadSpec>,
    pub ccs: Vec<CcAlgo>,
    pub placements: Vec<PlacementSpec>,
    pub backends: Vec<BackendFamily>,
    /// Fault/variability axis. Empty means fault-free (equivalent to
    /// `[FaultSpec::None]`); non-`None` entries multiply only the
    /// backends they apply to (see [`FaultSpec::applies_to`]).
    pub faults: Vec<FaultSpec>,
    /// Grid-level seed; each cell derives its own (see [`cell_seed`]).
    pub seed: u64,
    /// Record per-flow completion times on packet-level cells (MCT
    /// columns in the report).
    pub collect_flows: bool,
}

impl ScenarioGrid {
    /// The grid `atlahs sweep` runs for these flags (docs/SCENARIOS.md):
    /// each axis a comma-separated list, unset axes at their defaults. An
    /// error is the `--flag: reason` the CLI prints.
    pub fn from_args(args: &Args) -> Result<ScenarioGrid, String> {
        Ok(ScenarioGrid {
            topologies: args.axis(
                "topos",
                "ai-fattree:16:1,ai-fattree:16:4",
                TopologySpec::parse,
            )?,
            workloads: args.axis(
                "workloads",
                "ring:16:262144:1,moe:16:4:262144:2:5000",
                WorkloadSpec::parse,
            )?,
            ccs: args.axis("ccs", "mprdma,ndp", parse_cc)?,
            placements: args.axis("placements", "packed", PlacementSpec::parse)?,
            backends: args.axis("backends", "htsim,lgs", BackendFamily::parse)?,
            faults: args.axis("faults", "none", |tok| FaultSpec::parse(tok)?.in_sweep())?,
            seed: args.number("seed", 1)?,
            collect_flows: args.flag("collect-flows"),
        })
    }

    /// Expand to concrete cells: the cartesian product, minus infeasible
    /// combinations (workload wider than the fabric). htsim families are
    /// crossed with the CC axis; CC-less backends appear once; every key
    /// appears once.
    ///
    /// Cells come out in a deterministic order (topology-major), but each
    /// cell's seed depends only on its own workload, so subsetting or
    /// reordering the grid never changes any cell's result.
    pub fn expand(&self) -> Vec<ScenarioCell> {
        self.expand_counted().0
    }

    /// [`ScenarioGrid::expand`], also returning the (topology, workload)
    /// pairs dropped as infeasible, so callers can tell the user instead
    /// of silently shrinking the grid.
    pub fn expand_counted(&self) -> (Vec<ScenarioCell>, Vec<String>) {
        let mut cells = Vec::new();
        let mut dropped = Vec::new();
        let workloads = unique(&self.workloads, |w| w.label());
        let placements = unique(&self.placements, |p| **p);
        let regimes = backend_faults(&self.backends, &self.ccs, &self.faults);
        for topo in unique(&self.topologies, |t| t.label()) {
            let hosts = topo.hosts();
            for workload in &workloads {
                if workload.ranks() > hosts {
                    // Infeasible: workload wider than the fabric.
                    dropped.push(too_wide(workload, topo, hosts));
                    continue;
                }
                let seed = cell_seed(self.seed, &workload.label());
                for placement in &placements {
                    for &(backend, fault) in &regimes {
                        cells.push(ScenarioCell {
                            topology: topo.clone(),
                            workload: (*workload).clone(),
                            placement: **placement,
                            backend,
                            fault: fault.clone(),
                            seed,
                            collect_flows: self.collect_flows,
                        });
                    }
                }
            }
        }
        (cells, dropped)
    }
}

/// The backend × fault regimes a grid crosses its other axes with, each
/// once, backend-major: htsim families cross with the CC axis, CC-less
/// backends appear once, and each backend pairs only with the faults that
/// apply to it. An empty fault axis is a fault-free grid.
pub(crate) fn backend_faults<'a>(
    families: &[BackendFamily],
    ccs: &[CcAlgo],
    faults: &'a [FaultSpec],
) -> Vec<(BackendSpec, &'a FaultSpec)> {
    const FAULT_FREE: &[FaultSpec] = &[FaultSpec::None];
    let faults = unique(if faults.is_empty() { FAULT_FREE } else { faults }, |f| f.label());
    let backends = unique(families.iter().flat_map(|f| f.specs(ccs)), |b| *b);
    let pairs = backends.iter().flat_map(|backend| {
        faults.iter().filter(|f| f.applies_to(backend)).map(|&fault| (*backend, fault))
    });
    pairs.collect()
}

/// Why a workload was dropped from a grid: it is wider than the fabric.
pub(crate) fn too_wide(workload: &WorkloadSpec, topo: &TopologySpec, hosts: usize) -> String {
    format!(
        "{} needs {} ranks but {} has {hosts} hosts",
        workload.label(),
        workload.ranks(),
        topo.label()
    )
}

/// The first occurrence of each value on one grid axis, in order. A value
/// repeated on an axis (`--faults none,none`) names the same cells again,
/// and a report carries every key once. `label` is what two values must
/// differ in to be distinct cells.
pub(crate) fn unique<T, L: PartialEq>(
    axis: impl IntoIterator<Item = T>,
    label: impl Fn(&T) -> L,
) -> Vec<T> {
    let mut seen = Vec::new();
    let first = |value: &T| {
        let label = label(value);
        let new = !seen.contains(&label);
        if new {
            seen.push(label);
        }
        new
    };
    axis.into_iter().filter(first).collect()
}

// ---------------------------------------------------------------- cell ----

/// One fully specified scenario: a deterministic single-threaded
/// simulation.
#[derive(Debug, Clone)]
pub struct ScenarioCell {
    pub topology: TopologySpec,
    pub workload: WorkloadSpec,
    pub placement: PlacementSpec,
    pub backend: BackendSpec,
    /// Fault/variability regime ([`FaultSpec::None`] = perfect fabric).
    pub fault: FaultSpec,
    /// The simulation seed (workload generation, placement permutation,
    /// packet-level RNG). Grid expansion derives it via [`cell_seed`]
    /// from the workload label; the figures pin it explicitly. Fault
    /// randomness uses the *derived* `cell_seed(seed, fault_label)`, so
    /// this seed — and every fault-free result — is independent of the
    /// fault axis.
    pub seed: u64,
    /// Record per-flow completion times (packet-level backends only).
    pub collect_flows: bool,
}

impl ScenarioCell {
    /// `topology/workload/placement/backend`: everything but the fault
    /// axis — what cells of one branch-and-continue prefix share.
    pub fn prefix_key(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.topology.label(),
            self.workload.label(),
            self.placement.label(),
            self.backend.label()
        )
    }

    /// Canonical cell key: [`Self::prefix_key`], with a trailing `/fault`
    /// segment only for faulted cells — fault-free keys are identical to
    /// a grid without the fault axis.
    pub fn key(&self) -> String {
        self.fault.keyed(self.prefix_key())
    }
}

/// Everything a cell run produces. Wall-clock is kept for operator
/// output but excluded from the JSON report, which must be byte-identical
/// across thread counts and re-runs.
#[derive(Debug, Clone)]
pub struct CellResult {
    pub key: String,
    pub seed: u64,
    /// Simulated makespan (ns).
    pub makespan: u64,
    /// GOAL tasks completed.
    pub tasks: usize,
    /// Message completion time summary (all-zero when flows were not
    /// collected or the backend is not packet-level).
    pub mct: DistSummary,
    /// Packet-level statistics (htsim cells only).
    pub net: Option<NetStats>,
    /// Per-job finish time: the latest rank finish among each job's
    /// nodes, in job order.
    pub job_finish: Vec<u64>,
    /// Peak task-arena bytes the cell's simulation held: the SoA task
    /// storage of the schedule handed to the backend (the composed
    /// multi-job schedule when placement remaps ranks). Deterministic,
    /// so memory regressions surface in byte-compared sweep reports.
    pub task_arena_bytes: u64,
    /// Realized-fault telemetry; `Some` exactly for window and straggler
    /// faults on a backend that models them.
    pub fault: Option<FaultTelemetry>,
    /// Host wall-clock cost of the cell (not part of the JSON report).
    pub wall: Duration,
}

/// Run one cell to completion. Single-threaded and deterministic: the
/// same cell always produces the same result, bit for bit.
pub fn run_cell(cell: &ScenarioCell) -> CellResult {
    let jobs = cell.workload.build_jobs(cell.seed);
    run_members(&[cell], &jobs, None).pop().expect("one member, one result")
}

/// A cell's composed schedule and per-job node placements.
pub struct PreparedGoal {
    /// `None` when the single packed job runs un-remapped (the identity
    /// placement) and the schedule is borrowed from `jobs[0]` instead.
    merged: Option<GoalSchedule>,
    /// Per-job node sets, in job order.
    pub placements: Vec<Vec<u32>>,
}

impl PreparedGoal {
    /// The schedule the backend simulates. `jobs` must be the slice this
    /// was prepared from.
    pub fn goal<'a>(&'a self, jobs: &'a [Arc<GoalSchedule>]) -> &'a GoalSchedule {
        match self.merged.as_ref() {
            Some(g) => g,
            None => &jobs[0],
        }
    }
}

/// Place and compose a cell's jobs into the schedule its backend will
/// simulate. A single packed job runs un-remapped (the identity
/// placement), so single-job cells simulate exactly the schedule their
/// workload lowers to; everything else goes through allocate + compose.
pub fn prepare_goal(cell: &ScenarioCell, jobs: &[Arc<GoalSchedule>]) -> PreparedGoal {
    let hosts = cell.topology.hosts();
    let single_packed = jobs.len() == 1 && cell.placement == PlacementSpec::Packed;
    if single_packed {
        PreparedGoal {
            merged: None,
            placements: vec![(0..jobs[0].num_ranks() as u32).collect::<Vec<u32>>()],
        }
    } else {
        let sizes: Vec<usize> = jobs.iter().map(|j| j.num_ranks()).collect();
        let placement = allocate(cell.placement.strategy(cell.seed), hosts, &sizes)
            .expect("grid expansion only admits workloads that fit the fabric");
        let placed: Vec<PlacedJob<'_>> = jobs
            .iter()
            .zip(placement.iter())
            .map(|(goal, nodes)| PlacedJob::new(goal, nodes.clone()))
            .collect();
        PreparedGoal {
            merged: Some(compose(&placed, hosts).expect("disjoint placements compose")),
            placements: placement,
        }
    }
}

/// Run cells that share everything but the fault axis — topology,
/// workload (hence seed), placement, and backend — as one
/// [`session`]: straight when `branch_at` is `None` (exactly one
/// member), otherwise the shared prefix is simulated once and each
/// member's fault applied at the branch point. Results in member order.
/// `jobs` must equal the members' `workload.build_jobs(seed)`
/// (deterministic, so the sweep builds it once and shares it).
pub(crate) fn run_members(
    members: &[&ScenarioCell],
    jobs: &[Arc<GoalSchedule>],
    branch_at: Option<u64>,
) -> Vec<CellResult> {
    let lead = members[0];
    let prepared = prepare_goal(lead, jobs);
    let goal = prepared.goal(jobs);
    let session = Session {
        topology: &lead.topology,
        backend: lead.backend,
        seed: lead.seed,
        collect_flows: lead.collect_flows,
    };
    let faults: Vec<&FaultSpec> = members.iter().map(|cell| &cell.fault).collect();
    let outcomes = session::run(&session, goal, branch_at, &faults);
    let results = members.iter().zip(outcomes).map(|(cell, outcome)| CellResult {
        key: cell.key(),
        seed: cell.seed,
        makespan: outcome.report.makespan,
        tasks: outcome.report.completed,
        mct: outcome.mct,
        net: outcome.net,
        job_finish: prepared.placements.iter().map(|n| outcome.report.job_finish(n)).collect(),
        task_arena_bytes: goal.task_arena_bytes(),
        fault: outcome.fault,
        wall: outcome.wall,
    });
    results.collect()
}

#[cfg(test)]
mod tests {
    use atlahs_core::faultgen;
    use atlahs_core::SimDriver;
    use atlahs_htsim::engine::{HtsimBackend, HtsimConfig};
    use atlahs_htsim::fault::WindowFault;
    use atlahs_htsim::topology::{Topology, TopologyConfig, MAX_ECMP, MAX_HOSTS};
    use atlahs_lgs::StragglerSpec;

    use super::*;
    use crate::args::names;
    use crate::spec::{JobFaultSpec, CC_NAMES};

    #[test]
    fn topology_labels_roundtrip() {
        for spec in [
            TopologySpec::AiFatTree { nodes: 32, oversub: 4 },
            TopologySpec::HpcFatTree { procs: 128, nodes: 8 },
            TopologySpec::StorageFatTree { hosts: 48, oversub: 8 },
            TopologySpec::Dragonfly { groups: 3, routers: 4, hosts_per_router: 2 },
            TopologySpec::SingleSwitch { hosts: 16 },
        ] {
            assert_eq!(TopologySpec::parse(&spec.label()).unwrap(), spec);
        }
        assert!(TopologySpec::parse("torus:4:4").is_err());
    }

    /// `parse` is the inverse of `label` for every variant, so any key a
    /// report prints can be fed back to `--workloads`.
    #[test]
    fn workload_labels_roundtrip() {
        let singles = vec![
            WorkloadSpec::Ring { ranks: 4, bytes: 1024, laps: 1 },
            WorkloadSpec::Permutation { ranks: 16, bytes: 65536, shift: 8, repeat: 2 },
            WorkloadSpec::UniformRandom { ranks: 16, bytes: 4096, msgs: 100 },
            WorkloadSpec::Incast { ranks: 9, bytes: 65536, repeat: 2 },
            WorkloadSpec::MoeAllToAll {
                ranks: 16,
                group: 4,
                bytes: 65536,
                layers: 2,
                compute_ns: 1000,
            },
            WorkloadSpec::PipelineLlm { stages: 4, microbatches: 4, bytes: 1 << 20, compute_ns: 5 },
            WorkloadSpec::StorageIncast { clients: 2, servers: 8, bytes: 131072, reads: 2 },
            WorkloadSpec::Llm {
                preset: LlmPreset::Llama7bDp16,
                scale: 0.001,
                iterations: 1,
                cap_batch: true,
            },
            WorkloadSpec::Llm {
                preset: LlmPreset::Moe8x13b,
                scale: 1.0,
                iterations: 3,
                cap_batch: false,
            },
            WorkloadSpec::Hpc { app: HpcApp::Lulesh, procs: 8, nodes: 8, scale: 0.02 },
            WorkloadSpec::Hpc { app: HpcApp::OpenMx, procs: 16, nodes: 2, scale: 1.0 },
            WorkloadSpec::Storage { ops: 500, gap_ns: 50, compress: 12 },
        ];
        let multi = WorkloadSpec::MultiJob { jobs: singles.clone() };
        assert!(multi.label().starts_with("multi[ring:4:1024:1+perm:16:65536:8:2+"));
        for w in singles.into_iter().chain([multi]) {
            let label = w.label();
            assert_eq!(WorkloadSpec::parse(&label).unwrap_or_else(|e| panic!("{label}: {e}")), w);
        }
        // The short LLM form keeps working and keys as its full label.
        let short = WorkloadSpec::parse("llm:llama7b-dp16:0.001").unwrap();
        assert_eq!(short.label(), "llm:llama7b-dp16:0.001:1:true");
        // Jobs are validated like top-level tokens; wrappers do not nest.
        assert!(WorkloadSpec::parse("multi[ring:4:1024:1+ring:1:1024:1]").is_err());
        assert!(WorkloadSpec::parse("multi[ring:4:1024:1+multi[ring:4:1024:1]]").is_err());
        assert!(WorkloadSpec::parse("multi[]").is_err());
        assert!(WorkloadSpec::parse("llm:llama7b-dp16:0.001:0:true").is_err());
        assert!(WorkloadSpec::parse("llm:llama7b-dp16:0.001:1:yes").is_err());
    }

    #[test]
    fn workload_tokens_parse() {
        for tok in [
            "ring:16:65536:2",
            "perm:16:65536:8:1",
            "uniform:16:4096:100",
            "incast:9:65536:2",
            "moe:16:4:65536:2:1000",
            "pipeline:4:4:1048576:5000",
            "storage-incast:2:8:131072:2",
            "llm:llama7b-dp16:0.002",
            "hpc:lulesh:8:8:0.02",
            "storage:500:50:12",
        ] {
            let w = WorkloadSpec::parse(tok).unwrap_or_else(|e| panic!("{tok}: {e}"));
            assert!(w.ranks() > 0, "{tok}");
        }
        assert!(WorkloadSpec::parse("bogus:1").is_err());
        // Structurally invalid tokens fail at parse time, not in a worker.
        assert!(WorkloadSpec::parse("moe:7:4:1024:1:0").is_err());
        assert!(WorkloadSpec::parse("perm:8:1024:8:1").is_err());
        assert!(WorkloadSpec::parse("pipeline:1:4:1024:0").is_err());
        assert!(WorkloadSpec::parse("ring:1:1024:1").is_err());
        assert!(WorkloadSpec::parse("llm:llama7b-dp16:7.0").is_err());
        // Zero-work repetition counts are rejected at parse time: they
        // lower to empty schedules the cluster engine cannot run.
        assert!(WorkloadSpec::parse("ring:4:1024:0").is_err());
        assert!(WorkloadSpec::parse("incast:4:1024:0").is_err());
        assert!(WorkloadSpec::parse("uniform:4:1024:0").is_err());
        assert!(WorkloadSpec::parse("moe:8:4:1024:0:10").is_err());
        assert!(WorkloadSpec::parse("storage-incast:2:2:1024:0").is_err());
    }

    /// A message of more than `u32::MAX` packets used to wrap htsim's
    /// packet count: 2⁴⁴ B became a 0-packet flow whose timer re-armed
    /// forever, and larger sizes silently shrank.
    #[test]
    fn message_sizes_beyond_the_packet_engine_are_rejected() {
        let max = MAX_MESSAGE_BYTES;
        assert_eq!(max, 17_592_186_040_320);
        assert!(WorkloadSpec::parse(&format!("ring:2:{max}:1")).is_ok());
        let over = max + 1;
        for tok in [
            format!("ring:2:{over}:1"),
            format!("perm:4:{over}:1:1"),
            format!("uniform:4:{over}:1"),
            format!("incast:4:{over}:1"),
            format!("moe:4:2:{over}:1:0"),
            format!("pipeline:2:1:{over}:0"),
            format!("storage-incast:1:1:{}:1", u64::MAX),
            format!("multi[ring:2:1024:1+ring:2:{}:1]", 1u64 << 44),
        ] {
            let err = WorkloadSpec::parse(&tok).unwrap_err();
            assert!(err.contains(&format!("<bytes> must be at most {max}")), "{tok}: {err}");
        }
    }

    #[test]
    fn total_compute_is_bounded_by_the_horizon() {
        // 2 stages × 1 microbatch × 3 calcs' worth, and 4 ranks × 1 layer.
        let (pipe, moe) = (HORIZON_NS / 6, HORIZON_NS / 4);
        assert!(WorkloadSpec::parse(&format!("pipeline:2:1:1024:{pipe}")).is_ok());
        assert!(WorkloadSpec::parse(&format!("moe:4:2:1024:1:{moe}")).is_ok());
        for tok in [
            format!("pipeline:2:1:1024:{}", pipe + 1),
            format!("moe:4:2:1024:1:{}", moe + 1),
            format!("pipeline:4294967295:4294967295:1024:{}", u64::MAX),
        ] {
            let err = WorkloadSpec::parse(&tok).unwrap_err();
            assert!(err.ends_with(&format!("must be at most {HORIZON_NS} ns")), "{tok}: {err}");
        }
    }

    #[test]
    fn expansion_is_cartesian_minus_infeasible() {
        let grid = ScenarioGrid {
            topologies: vec![
                TopologySpec::SingleSwitch { hosts: 8 },
                TopologySpec::SingleSwitch { hosts: 32 },
            ],
            workloads: vec![
                WorkloadSpec::Ring { ranks: 8, bytes: 1024, laps: 1 },
                WorkloadSpec::Ring { ranks: 16, bytes: 1024, laps: 1 }, // only fits the big switch
            ],
            ccs: vec![CcAlgo::Mprdma, CcAlgo::Ndp],
            placements: vec![PlacementSpec::Packed, PlacementSpec::Random],
            backends: vec![BackendFamily::Htsim, BackendFamily::Lgs],
            faults: vec![],
            seed: 1,
            collect_flows: false,
        };
        let (cells, dropped) = grid.expand_counted();
        // Feasible (topology, workload) pairs: 3. Each × 2 placements ×
        // (2 htsim CCs + 1 lgs) = 3 × 2 × 3 = 18.
        assert_eq!(cells.len(), 18);
        // The 16-rank ring does not fit the 8-host switch — reported,
        // not silently dropped.
        assert_eq!(dropped.len(), 1);
        assert!(dropped[0].contains("ring:16:1024:1"), "{dropped:?}");
        // Keys are unique.
        let mut keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 18);
        // Cells sharing a workload share its seed (same generated
        // instance across topologies/placements/backends); distinct
        // workloads get distinct seeds.
        let seed_of = |label: &str| {
            let seeds: Vec<u64> =
                cells.iter().filter(|c| c.workload.label() == label).map(|c| c.seed).collect();
            assert!(seeds.windows(2).all(|w| w[0] == w[1]), "{label}: {seeds:?}");
            seeds[0]
        };
        assert_ne!(seed_of("ring:8:1024:1"), seed_of("ring:16:1024:1"));
    }

    #[test]
    fn cell_seeds_are_stable_and_distinct() {
        let a = cell_seed(7, "ring:8:1024:1");
        let b = cell_seed(7, "ring:8:1024:1");
        let c = cell_seed(7, "ring:16:1024:1");
        let d = cell_seed(8, "ring:8:1024:1");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn run_cell_is_deterministic_across_backends() {
        for backend in [
            BackendSpec::Htsim { cc: CcAlgo::Mprdma, spray: false },
            BackendSpec::Lgs,
            BackendSpec::Ideal,
        ] {
            let cell = ScenarioCell {
                topology: TopologySpec::SingleSwitch { hosts: 8 },
                workload: WorkloadSpec::Ring { ranks: 8, bytes: 64 << 10, laps: 1 },
                placement: PlacementSpec::Packed,
                backend,
                fault: FaultSpec::None,
                seed: 5,
                collect_flows: true,
            };
            let a = run_cell(&cell);
            let b = run_cell(&cell);
            assert_eq!(a.makespan, b.makespan, "{:?}", backend);
            assert_eq!(a.mct, b.mct);
            assert_eq!(a.net, b.net);
            assert!(a.makespan > 0);
            assert_eq!(a.job_finish.len(), 1);
        }
    }

    /// A job's own tags are kept whatever its placement: tags past 2^24
    /// (as a large nccl2goal lowering mints) used to panic in `compose`
    /// under any non-packed placement.
    #[test]
    fn random_placement_runs_a_job_whose_tags_pass_2_pow_24() {
        let mut b = GoalBuilder::new(4);
        for r in 0..4u32 {
            let tag = (1 << 24) + r;
            b.send(r, (r + 1) % 4, 4096, tag);
            b.recv((r + 1) % 4, r, 4096, tag);
        }
        let jobs = [Arc::new(b.build().unwrap())];
        let cell = ScenarioCell {
            topology: TopologySpec::SingleSwitch { hosts: 8 },
            workload: WorkloadSpec::Ring { ranks: 4, bytes: 4096, laps: 1 },
            placement: PlacementSpec::Random,
            backend: BackendSpec::Lgs,
            fault: FaultSpec::None,
            seed: 5,
            collect_flows: false,
        };
        let result = run_members(&[&cell], &jobs, None).pop().unwrap();
        assert_eq!(result.tasks, 8);
        assert!(result.makespan > 0);
    }

    /// The one label⇄parse round trip for every `--faults` token, the
    /// families [`FaultSpec::parse`] delegates included: any fault segment
    /// a report key prints can be fed back to `--faults`.
    #[test]
    fn fault_labels_roundtrip() {
        for spec in [
            FaultSpec::None,
            FaultSpec::Window(WindowFault::LinkFlap { links: 2, down_ns: 10_000, up_ns: 60_000 }),
            FaultSpec::Window(WindowFault::Degrade {
                links: 1,
                bw_pct: 25,
                lat_pct: 400,
                from_ns: 0,
                to_ns: 500_000,
            }),
            FaultSpec::Straggler(StragglerSpec {
                prob_pct: 25,
                factor_pct: 300,
                shape: 1,
                ..Default::default()
            }),
            FaultSpec::Straggler(StragglerSpec {
                prob_pct: 25,
                factor_pct: 300,
                spread_pct: 150,
                shape: 2,
                seed: 0,
            }),
            FaultSpec::Window(WindowFault::Markov {
                links: 2,
                up_ns: 40_000,
                down_ns: 8_000,
                horizon_ns: 400_000,
            }),
            FaultSpec::Window(WindowFault::RackFail { racks: 1, from_ns: 10_000, to_ns: 90_000 }),
            FaultSpec::Window(WindowFault::SwitchFail {
                switches: 1,
                from_ns: 10_000,
                to_ns: 90_000,
            }),
            FaultSpec::Window(WindowFault::Churn {
                events: faultgen::parse_churn_inline("1000;0;d,5000;0;u,2000;1;d,7000;1;u")
                    .unwrap(),
            }),
            FaultSpec::Job(JobFaultSpec::JobFail { pct: 25, at_pct: 50, retries: 3 }),
            FaultSpec::Job(JobFaultSpec::JobFail { pct: 100, at_pct: 0, retries: 1 }),
            FaultSpec::Job(JobFaultSpec::Mtbf { mtbf_ns: 2_000_000, retries: 3 }),
        ] {
            assert_eq!(FaultSpec::parse(&spec.label()).unwrap(), spec);
        }
        for tok in [
            "loss:20000",
            "loss:80000:core",
            "loss:5000:edge",
            "jitter:exp:2000",
            "jitter:weibull:3000:2",
            "jitter:uniform:1500",
        ] {
            let spec = FaultSpec::parse(tok).unwrap();
            assert!(matches!(spec, FaultSpec::Stochastic(_)), "{tok}");
            assert_eq!(spec.label(), tok);
        }
        // The uniform straggler keeps its historical short label.
        let uniform =
            StragglerSpec { prob_pct: 25, factor_pct: 300, shape: 7, ..Default::default() };
        assert_eq!(FaultSpec::Straggler(uniform).label(), "straggler:25:300");
        // Out-of-range percentages and shapes clamp instead of erroring
        // (CLI forgiveness), so they label as the value they clamp to.
        for (tok, label) in [
            ("straggler:250:300:100:99", "straggler:100:300:100:16"),
            ("jobfail:150:200:2", "jobfail:100:100:2"),
        ] {
            assert_eq!(FaultSpec::parse(tok).unwrap().label(), label);
        }
    }

    /// Every name-table vocabulary round-trips all its values (so no name
    /// and no value appears twice), and a stranger's error lists the names.
    #[test]
    fn name_tables_roundtrip_every_value() {
        fn check<T: Copy + PartialEq + std::fmt::Debug>(
            table: &[(&'static str, T)],
            parse: impl Fn(&str) -> Result<T, String>,
            label: impl Fn(&T) -> String,
        ) {
            for &(name, value) in table {
                assert_eq!(parse(name).unwrap(), value);
                assert_eq!(label(&value), name);
            }
            let err = parse("no-such-name").unwrap_err();
            assert!(err.contains(&names(table)), "{err}");
        }
        use crate::cluster::QueueDiscipline;
        check(&LlmPreset::NAMES, LlmPreset::parse, |p| p.name().into());
        let hpc = |tok: &str| by_name("HPC app", &HpcApp::NAMES, tok);
        check(&HpcApp::NAMES, hpc, |a| name_of(&HpcApp::NAMES, a).into());
        check(&PlacementSpec::NAMES, PlacementSpec::parse, |p| p.label().into());
        check(&QueueDiscipline::NAMES, QueueDiscipline::parse, |q| q.label().into());
        let family = |f: &BackendFamily| name_of(&BackendFamily::NAMES, f).into();
        check(&BackendFamily::NAMES, BackendFamily::parse, family);
        // The CC table agrees with `CcAlgo`'s own (capitalized) display.
        check(&CC_NAMES, parse_cc, |cc| cc.to_string().to_ascii_lowercase());
        assert_eq!(parse_cc("NDP"), Ok(CcAlgo::Ndp));
    }

    #[test]
    fn parse_rejects_degenerate_and_malformed_specs() {
        // Satellite: degenerate degrade parameters die at parse time, not
        // at simulation time as a never-draining queue or a time-warped
        // wire.
        let err = FaultSpec::parse("degrade:2:0:300:0:200000").unwrap_err();
        assert!(err.contains("bw_pct"), "{err}");
        let err = FaultSpec::parse("degrade:2:25:0:0:200000").unwrap_err();
        assert!(err.contains("lat_pct"), "{err}");
        // Distributional specs validate their shape too: a zero mean
        // sojourn in either state would collapse the Gilbert–Elliott
        // chain (the exponential sampler degenerates to instant
        // transitions), and a zero horizon generates nothing.
        let err = FaultSpec::parse("markov:2:0:8000:400000").unwrap_err();
        assert!(err.contains("sojourn"), "zero up sojourn: {err}");
        let err = FaultSpec::parse("markov:2:40000:0:400000").unwrap_err();
        assert!(err.contains("sojourn"), "zero down sojourn: {err}");
        let err = FaultSpec::parse("markov:2:40000:8000:0").unwrap_err();
        assert!(err.contains("horizon"), "zero horizon: {err}");
        assert!(FaultSpec::parse("rackfail:1:90000:10000").is_err(), "inverted window");
        assert!(FaultSpec::parse("churn:").is_err(), "empty trace");
        assert!(FaultSpec::parse("churn:1000;0;d").is_err(), "domain left down");
        assert!(FaultSpec::parse("churn:@/no/such/trace-file").is_err(), "missing file");
        assert!(FaultSpec::parse("meteor:1").unwrap_err().contains(FaultSpec::GRAMMAR));
        assert!(FaultSpec::parse("linkflap:1:500:100").is_err(), "window must close after open");
        // The job-scope family: bad numbers, wrong arity, and a zero MTBF
        // (the exponential time-to-failure sampler would degenerate:
        // every attempt fails at t=0, forever) die naming the constraint.
        assert!(FaultSpec::parse("jobfail:x:50:3").unwrap_err().contains("bad number `x`"));
        assert!(FaultSpec::parse("jobfail:10:50").unwrap_err().contains("expected jobfail:"));
        assert!(FaultSpec::parse("mtbf:1000").is_err());
        let err = FaultSpec::parse("mtbf:0:3").unwrap_err();
        assert!(err.contains("mean time between failures"), "{err}");
        // Every retry re-simulates the job: the count is bounded.
        assert!(FaultSpec::parse("jobfail:100:50:100").is_ok());
        for tok in ["jobfail:100:50:101", "mtbf:1000:4294967295"] {
            let err = FaultSpec::parse(tok).unwrap_err();
            assert_eq!(err, format!("fault `{tok}`: <retries> must be at most 100"));
        }
        // Satellite: degenerate stochastic link models die at parse time
        // with messages that say what to use instead.
        let err = FaultSpec::parse("loss:0").unwrap_err();
        assert!(err.contains("drop the token instead"), "{err}");
        let err = FaultSpec::parse("loss:1000000").unwrap_err();
        assert!(err.contains("outage, not noise"), "{err}");
        let err = FaultSpec::parse("loss:20000:rack").unwrap_err();
        assert!(err.contains("unknown loss tier"), "{err}");
        let err = FaultSpec::parse("jitter:exp:0").unwrap_err();
        assert!(err.contains("never perturbs a timestamp"), "{err}");
        let err = FaultSpec::parse("jitter:weibull:3000:0").unwrap_err();
        assert!(err.contains("weibull shape"), "{err}");
        let err = FaultSpec::parse("jitter:gauss:100").unwrap_err();
        assert!(err.contains("expected jitter:exp"), "{err}");
        // Zero-work tokens: a 0-task schedule is a 0 ns sweep cell and a
        // panic in the cluster engine, so they die at parse time.
        let err = WorkloadSpec::parse("hpc:lulesh:0:1:1").unwrap_err();
        assert_eq!(err, "workload `hpc:lulesh:0:1:1`: an HPC run needs at least 1 process");
        let err = WorkloadSpec::parse("storage:0:1:1").unwrap_err();
        assert_eq!(err, "workload `storage:0:1:1`: a storage run needs at least 1 operation");
        // Every operation is held as a record before lowering: an
        // unbounded count panicked or aborted allocating them.
        assert!(WorkloadSpec::parse("storage:1000000:50:12").is_ok());
        for tok in ["storage:1000001:50:12", "storage:18446744073709551615:50:12"] {
            let err = WorkloadSpec::parse(tok).unwrap_err();
            assert_eq!(err, format!("workload `{tok}`: <ops> must be at most 1000000"));
        }
        // A zero fabric dimension used to reach a worker and divide by it.
        for (tok, field) in [
            ("ai-fattree:16:0", "oversub"),
            ("ai-fattree:0", "nodes"),
            ("hpc-fattree:0:8", "procs"),
            ("storage-fattree:16:0", "oversub"),
            ("dragonfly:2:0:4", "routers"),
            ("dragonfly:2:4:0", "hosts"),
            ("switch:0", "hosts"),
        ] {
            let err = TopologySpec::parse(tok).unwrap_err();
            let want = format!("topology `{tok}`: {field} must be at least 1");
            assert_eq!(err, want);
        }
        // A one-group dragonfly has no global links to build.
        for tok in ["dragonfly:0:0:0", "dragonfly:1:4:2"] {
            let err = TopologySpec::parse(tok).unwrap_err();
            assert_eq!(err, format!("topology `{tok}`: groups must be at least 2"));
        }
    }

    /// An oversubscription ratio that does not divide the hosts per ToR
    /// used to be rounded: `ai-fattree:16:3` built a 4:1 fabric and
    /// `ai-fattree:16:16` an 8:1 one under their labels.
    #[test]
    fn oversubscription_ratios_must_divide_the_rack() {
        for (tok, oversub, hosts_per_tor) in [
            ("ai-fattree:16:3", 3, 8),
            ("ai-fattree:16:16", 16, 8),
            ("ai-fattree:4:8", 8, 4),
            ("storage-fattree:48:3", 3, 8),
        ] {
            let err = TopologySpec::parse(tok).unwrap_err();
            let want = format!(
                "topology `{tok}`: oversub {oversub} must divide the {hosts_per_tor} hosts per ToR"
            );
            assert_eq!(err, want);
        }
        for (tok, uplinks) in
            [("ai-fattree:16:8", 1), ("ai-fattree:4:2", 2), ("storage-fattree:48:4", 2)]
        {
            let spec = TopologySpec::parse(tok).unwrap();
            let TopologyConfig::FatTree2L { hosts_per_tor, uplinks_per_tor, .. } = spec.config()
            else {
                panic!("{tok} is a fat tree");
            };
            assert_eq!(uplinks_per_tor, uplinks, "{tok}");
            assert_eq!(hosts_per_tor / uplinks_per_tor * uplinks_per_tor, hosts_per_tor);
        }
    }

    /// Route-cache keys hold 2^24 hosts and 2^16 ECMP buckets:
    /// `hpc-fattree:140000:2` gave each ToR 70 000 uplinks, and bucket
    /// 65 536 of one destination aliased bucket 0 of the next.
    #[test]
    fn fabrics_past_the_route_key_are_rejected() {
        for (tok, field, max) in [
            ("hpc-fattree:140000:2", "procs / nodes", MAX_ECMP),
            ("hpc-fattree:16777217:65536", "procs", MAX_HOSTS),
            ("ai-fattree:16777217", "nodes", MAX_HOSTS),
            ("storage-fattree:16777217", "hosts", MAX_HOSTS),
            ("switch:16777217", "hosts", MAX_HOSTS),
            ("dragonfly:1025:128:129", "groups × routers × hosts", MAX_HOSTS),
            ("dragonfly:2:65537:1", "routers", MAX_ECMP),
        ] {
            let err = TopologySpec::parse(tok).unwrap_err();
            assert_eq!(err, format!("topology `{tok}`: {field} must be at most {max}"));
        }
        for tok in ["hpc-fattree:131072:2", "switch:16777216", "dragonfly:2:65536:1"] {
            assert!(TopologySpec::parse(tok).is_ok(), "{tok} fits the key");
        }
    }

    /// `storage:<ops>:<gap_ns>:0` used to run as `…:1` under the typed
    /// token's report key: the compression factor is a divisor, so 0 is an
    /// error naming the field, and `parse` stays the inverse of `label`.
    #[test]
    fn storage_compress_zero_is_rejected_not_rewritten() {
        let err = WorkloadSpec::parse("storage:500:50:0").unwrap_err();
        assert_eq!(err, "workload `storage:500:50:0`: compress must be at least 1");
        for tok in ["storage:500:50:1", "storage:500:50:12"] {
            assert_eq!(WorkloadSpec::parse(tok).unwrap().label(), tok);
        }
    }

    /// A churn trace file has one format, the line format; a JSON array
    /// is refused as its first line.
    #[test]
    fn churn_trace_files_key_like_their_inline_twins() {
        let path = std::env::temp_dir().join(format!("atlahs_churn_{}.trace", std::process::id()));
        std::fs::write(
            &path,
            "# rack 0 bounces twice\n1000 0 down\n5000 0 up\n20000 0 down # again\n21000 0 up\n",
        )
        .unwrap();
        let inline = FaultSpec::parse("churn:1000;0;d,5000;0;u,20000;0;d,21000;0;u").unwrap();
        let from_file = FaultSpec::parse(&format!("churn:@{}", path.display())).unwrap();
        assert_eq!(from_file, inline, "file traces canonicalize to the inline spec");
        assert_eq!(from_file.label(), "churn:1000;0;d,5000;0;u,20000;0;d,21000;0;u");
        // A time past `u64`, a domain past `u32` and a JSON array are
        // refused naming their line.
        for (trace, want) in [
            ("0 0 down\n1e30 0 up\n", "churn trace line 2: bad time"),
            ("0 5000000000 down\n", "churn trace line 1: bad domain"),
            ("[[1000, 0, \"down\"], [5000, 0, \"up\"]]", "churn trace line 1: expected `<t_ns> "),
        ] {
            std::fs::write(&path, trace).unwrap();
            let err = FaultSpec::parse(&format!("churn:@{}", path.display())).unwrap_err();
            assert!(err.starts_with(want), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn markov_cell_diverges_and_reports_telemetry() {
        let mk = |fault| ScenarioCell {
            topology: TopologySpec::AiFatTree { nodes: 16, oversub: 4 },
            workload: WorkloadSpec::Ring { ranks: 16, bytes: 1 << 20, laps: 1 },
            placement: PlacementSpec::Packed,
            backend: BackendSpec::Htsim { cc: CcAlgo::Mprdma, spray: false },
            fault,
            seed: 3,
            collect_flows: false,
        };
        let clean = run_cell(&mk(FaultSpec::None));
        assert_eq!(clean.fault, None, "fault-free cells carry no telemetry");
        let markov =
            WindowFault::Markov { links: 2, up_ns: 30_000, down_ns: 60_000, horizon_ns: 400_000 };
        let a = run_cell(&mk(FaultSpec::Window(markov.clone())));
        let b = run_cell(&mk(FaultSpec::Window(markov.clone())));
        assert_eq!(a.makespan, b.makespan, "markov cells re-run bit-identically");
        assert_eq!(a.fault, b.fault);
        let tel = a.fault.expect("window cells report realized-fault telemetry");
        assert!(tel.windows > 0 && tel.downtime_ns > 0, "{tel:?}");
        // The telemetry identity: downtime is exactly the sum of the
        // generated windows' durations.
        let topo = Topology::build(mk(FaultSpec::None).topology.config());
        let fault_seed = cell_seed(3, &markov.label());
        let schedule = markov.lower(&topo, fault_seed);
        assert_eq!(tel.windows, schedule.len() as u64);
        assert_eq!(tel.downtime_ns, schedule.iter().map(|f| f.end_ns - f.start_ns).sum::<u64>());
        assert_ne!(a.makespan, clean.makespan, "heavy flapping must bite");
    }

    #[test]
    fn rackfail_and_churn_cells_diverge_from_clean() {
        let mk = |fault| ScenarioCell {
            topology: TopologySpec::AiFatTree { nodes: 16, oversub: 4 },
            workload: WorkloadSpec::Ring { ranks: 16, bytes: 1 << 20, laps: 1 },
            placement: PlacementSpec::Packed,
            backend: BackendSpec::Htsim { cc: CcAlgo::Mprdma, spray: false },
            fault,
            seed: 3,
            collect_flows: false,
        };
        let clean = run_cell(&mk(FaultSpec::None));
        let rack = run_cell(&mk(FaultSpec::parse("rackfail:1:0:300000").unwrap()));
        assert_ne!(rack.makespan, clean.makespan, "a rack outage must bite");
        assert!(rack.net.unwrap().fault_drops > 0, "rack ports drop traffic: {:?}", rack.net);
        let tel = rack.fault.unwrap();
        assert_eq!(tel.downtime_ns, tel.windows * 300_000, "uniform windows sum exactly");
        let churn = FaultSpec::parse("churn:0;0;d,250000;0;u").unwrap();
        let churned = run_cell(&mk(churn));
        assert_ne!(churned.makespan, clean.makespan, "churn replay must bite");
        assert!(churned.fault.unwrap().windows > 0);
    }

    /// No golden carries `switchfail`: the realized windows of one
    /// `switchfail` and one `rackfail` cell on a fat tree and on a
    /// dragonfly, pinned at what the per-topology failure-domain
    /// derivation the port table replaced gave.
    #[test]
    fn domain_failure_telemetry_is_pinned() {
        let rack_16_4: Vec<u32> = (8..16).chain(24..32).chain([34, 35, 37, 39]).collect();
        let router = vec![6, 7, 18, 19, 26, 27, 33];
        for (topo, fault, windows, downtime_ns, ports) in [
            ("ai-fattree:16:4", "switchfail:1:10000:90000", 4, 320_000, vec![33, 35, 38, 39]),
            ("ai-fattree:16:4", "rackfail:1:10000:90000", 20, 1_600_000, rack_16_4),
            ("dragonfly:3:2:2", "switchfail:1:10000:90000", 7, 560_000, router.clone()),
            ("dragonfly:3:2:2", "rackfail:1:10000:90000", 7, 560_000, router),
        ] {
            let topology = Topology::build(TopologySpec::parse(topo).unwrap().config());
            let Ok(FaultSpec::Window(window)) = FaultSpec::parse(fault) else {
                panic!("{fault} is a window fault")
            };
            let faults = window.lower(&topology, cell_seed(7, fault));
            let downtime: u64 = faults.iter().map(|f| f.end_ns - f.start_ns).sum();
            assert_eq!((faults.len(), downtime), (windows, downtime_ns), "{topo} {fault}");
            assert_eq!(faults.iter().map(|f| f.port).collect::<Vec<_>>(), ports, "{topo} {fault}");
        }
    }

    #[test]
    fn spread_straggler_cell_reports_straggler_count() {
        let mk = |fault| ScenarioCell {
            topology: TopologySpec::SingleSwitch { hosts: 8 },
            workload: WorkloadSpec::MoeAllToAll {
                ranks: 8,
                group: 4,
                bytes: 64 << 10,
                layers: 1,
                compute_ns: 50_000,
            },
            placement: PlacementSpec::Packed,
            backend: BackendSpec::Lgs,
            fault,
            seed: 2,
            collect_flows: false,
        };
        let uniform = run_cell(&mk(FaultSpec::parse("straggler:100:400").unwrap()));
        let spread = run_cell(&mk(FaultSpec::parse("straggler:100:400:200:2").unwrap()));
        for tel in [uniform.fault, spread.fault] {
            let tel = tel.expect("straggler cells report realized-fault telemetry");
            assert_eq!(tel.stragglers, 8, "prob 100% slows every rank");
            assert_eq!((tel.windows, tel.downtime_ns), (0, 0), "message-level: no port windows");
        }
        assert!(
            spread.makespan > uniform.makespan,
            "the Weibull spread only adds slowdown: {} vs {}",
            spread.makespan,
            uniform.makespan
        );
    }

    #[test]
    fn fault_axis_multiplies_only_applicable_backends() {
        let grid = ScenarioGrid {
            topologies: vec![TopologySpec::SingleSwitch { hosts: 8 }],
            workloads: vec![WorkloadSpec::Ring { ranks: 8, bytes: 1024, laps: 1 }],
            // Values repeated on an axis (`--faults none,none`) name the
            // same cells again and must not repeat a key in the report.
            ccs: vec![CcAlgo::Mprdma, CcAlgo::Mprdma],
            placements: vec![PlacementSpec::Packed],
            backends: vec![BackendFamily::Htsim, BackendFamily::Lgs, BackendFamily::Ideal],
            faults: vec![
                FaultSpec::None,
                FaultSpec::None,
                FaultSpec::parse("linkflap:1:1000:50000").unwrap(),
                FaultSpec::parse("straggler:100:200").unwrap(),
                FaultSpec::parse("loss:20000").unwrap(),
                FaultSpec::parse("loss:20000").unwrap(),
            ],
            seed: 1,
            collect_flows: false,
        };
        let cells = grid.expand();
        // htsim: none + linkflap + loss; lgs: none + straggler; ideal: none.
        assert_eq!(cells.len(), 6, "{:?}", cells.iter().map(|c| c.key()).collect::<Vec<_>>());
        let keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
        assert!(keys.iter().any(|k| k.ends_with("htsim-mprdma")));
        assert!(keys.iter().any(|k| k.ends_with("htsim-mprdma/linkflap:1:1000:50000")));
        assert!(keys.iter().any(|k| k.ends_with("htsim-mprdma/loss:20000")));
        assert!(keys.iter().any(|k| k.ends_with("lgs/straggler:100:200")));
        assert!(keys.iter().any(|k| k == "switch:8/ring:8:1024:1/packed/ideal"));
        // The fault axis never perturbs the base cell seed.
        let seeds: std::collections::HashSet<u64> = cells.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), 1, "all cells share one workload, hence one seed");
        assert_eq!(seeds.into_iter().next().unwrap(), cell_seed(1, "ring:8:1024:1"));
    }

    #[test]
    fn faulted_cells_differ_from_clean_and_rerun_identically() {
        let mk = |fault| ScenarioCell {
            topology: TopologySpec::AiFatTree { nodes: 16, oversub: 4 },
            workload: WorkloadSpec::Ring { ranks: 16, bytes: 1 << 20, laps: 1 },
            placement: PlacementSpec::Packed,
            backend: BackendSpec::Htsim { cc: CcAlgo::Mprdma, spray: false },
            fault,
            seed: 3,
            collect_flows: false,
        };
        let clean = run_cell(&mk(FaultSpec::None));
        let flap = FaultSpec::parse("linkflap:2:5000:400000").unwrap();
        let a = run_cell(&mk(flap.clone()));
        let b = run_cell(&mk(flap));
        assert_eq!(a.makespan, b.makespan, "faulted cells re-run bit-identically");
        assert_eq!(a.net, b.net);
        assert!(a.net.unwrap().fault_drops > 0, "the flap must bite: {:?}", a.net);
        assert!(
            a.makespan > clean.makespan,
            "a 395 µs core outage cannot speed the ring up: {} vs {}",
            a.makespan,
            clean.makespan
        );
    }

    #[test]
    fn stochastic_cells_bite_sub_seed_and_rerun_identically() {
        let mk = |fault| ScenarioCell {
            topology: TopologySpec::AiFatTree { nodes: 16, oversub: 4 },
            workload: WorkloadSpec::Ring { ranks: 16, bytes: 1 << 20, laps: 1 },
            placement: PlacementSpec::Packed,
            backend: BackendSpec::Htsim { cc: CcAlgo::Mprdma, spray: false },
            fault,
            seed: 3,
            collect_flows: false,
        };
        let clean = run_cell(&mk(FaultSpec::None));
        assert_eq!(clean.net.unwrap().stochastic_draws, 0, "clean cells never draw");
        let loss = FaultSpec::parse("loss:50000").unwrap();
        let a = run_cell(&mk(loss.clone()));
        let b = run_cell(&mk(loss.clone()));
        assert_eq!(a.makespan, b.makespan, "lossy cells re-run bit-identically");
        assert_eq!(a.net, b.net);
        let net = a.net.unwrap();
        assert!(net.stochastic_drops > 0, "5% loss must bite: {net:?}");
        assert_eq!(net.retransmissions, net.rtx_timeout + net.rtx_fault_drop, "attribution sums");
        assert!(a.makespan > clean.makespan, "recovery costs time");
        assert_eq!(a.fault, None, "stochastic cells report via net stats, not FaultTelemetry");
        // The draw-stream seed is the fault sub-seed, so the model is
        // keyed off (cell seed, fault label) exactly like port faults: the
        // cell equals a bare engine run with the model so keyed.
        let FaultSpec::Stochastic(spec) = loss else { panic!("loss is a link model") };
        let mut cfg = HtsimConfig::new(mk(FaultSpec::None).topology.config(), CcAlgo::Mprdma);
        cfg.seed = 3;
        let mut engine = HtsimBackend::new(cfg);
        let goal = mk(FaultSpec::None).workload.build_jobs(3).pop().unwrap();
        let driver = SimDriver::start(&goal, &mut engine);
        engine.set_link_model(spec.model(cell_seed(3, "loss:50000")));
        let bare = driver.finish(&mut engine).unwrap();
        assert_eq!((bare.makespan, Some(engine.net_stats())), (a.makespan, a.net));
        // Jitter-only cells delay but never drop.
        let jitter = run_cell(&mk(FaultSpec::parse("jitter:exp:2000").unwrap()));
        let jnet = jitter.net.unwrap();
        assert!(jnet.jittered > 0 && jnet.stochastic_drops == 0, "{jnet:?}");
        assert!(jitter.makespan > clean.makespan, "jitter stretches the wire");
    }

    #[test]
    fn straggler_cell_slows_lgs_only_when_applicable() {
        let mk = |fault| ScenarioCell {
            topology: TopologySpec::SingleSwitch { hosts: 8 },
            workload: WorkloadSpec::MoeAllToAll {
                ranks: 8,
                group: 4,
                bytes: 64 << 10,
                layers: 1,
                compute_ns: 50_000,
            },
            placement: PlacementSpec::Packed,
            backend: BackendSpec::Lgs,
            fault,
            seed: 2,
            collect_flows: false,
        };
        let clean = run_cell(&mk(FaultSpec::None));
        let slow = run_cell(&mk(FaultSpec::parse("straggler:100:400").unwrap()));
        assert!(
            slow.makespan > clean.makespan + 100_000,
            "4x calc inflation on a compute-heavy MoE must show: {} vs {}",
            slow.makespan,
            clean.makespan
        );
    }

    /// Every fault family against every backend: the families a backend
    /// does not model (`applies_to` false) and the job scope leave the
    /// cell bit-identical to the clean one with no telemetry, and where a
    /// family applies, telemetry is present exactly for window and
    /// straggler faults. This ties `FaultSpec::applies_to` to what each
    /// backend's `apply` models.
    #[test]
    fn every_fault_family_meets_every_backend() {
        let mk = |backend, fault| ScenarioCell {
            topology: TopologySpec::AiFatTree { nodes: 16, oversub: 4 },
            workload: WorkloadSpec::parse("moe:16:4:32768:1:5000").unwrap(),
            placement: PlacementSpec::Packed,
            backend,
            fault,
            seed: 4,
            collect_flows: false,
        };
        let faults = [
            "linkflap:2:5000:60000",
            "degrade:2:10:300:0:60000",
            "markov:2:20000:20000:400000",
            "loss:5000",
            "straggler:50:300",
            "straggler:50:200:200:2",
            "jobfail:50:50:2",
        ];
        for backend in [
            BackendSpec::Htsim { cc: CcAlgo::Mprdma, spray: false },
            BackendSpec::Htsim { cc: CcAlgo::Mprdma, spray: true },
            BackendSpec::Lgs,
            BackendSpec::Ideal,
            BackendSpec::Testbed,
        ] {
            let clean = run_cell(&mk(backend, FaultSpec::None));
            assert_eq!(clean.fault, None);
            for tok in faults {
                let fault = FaultSpec::parse(tok).unwrap();
                let cell = run_cell(&mk(backend, fault.clone()));
                let at = format!("{} × {tok}", backend.label());
                if !fault.applies_to(&backend) || matches!(fault, FaultSpec::Job(_)) {
                    assert_eq!(cell.makespan, clean.makespan, "{at}");
                    assert_eq!(cell.job_finish, clean.job_finish, "{at}");
                    assert_eq!(cell.net, clean.net, "{at}");
                    assert_eq!(cell.fault, None, "{at}");
                } else {
                    let windowed = matches!(fault, FaultSpec::Window(_) | FaultSpec::Straggler(_));
                    assert_eq!(cell.fault.is_some(), windowed, "{at}");
                    // A degraded port is slow, not down.
                    if tok.starts_with("degrade") {
                        let tel = cell.fault.unwrap();
                        assert!(tel.windows > 0 && tel.downtime_ns == 0, "{at}: {tel:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn random_placement_changes_the_packet_level_result() {
        let mk = |placement| ScenarioCell {
            topology: TopologySpec::AiFatTree { nodes: 16, oversub: 4 },
            workload: WorkloadSpec::Ring { ranks: 8, bytes: 1 << 20, laps: 1 },
            placement,
            backend: BackendSpec::Htsim { cc: CcAlgo::Mprdma, spray: false },
            fault: FaultSpec::None,
            seed: 1,
            collect_flows: false,
        };
        let packed = run_cell(&mk(PlacementSpec::Packed));
        let random = run_cell(&mk(PlacementSpec::Random));
        assert_eq!(packed.tasks, random.tasks);
        // With this seed the random permutation scatters the ring across
        // both ToRs of the 4:1 fabric, so it pays for the thin core.
        // (Not a theorem over all seeds — a lucky permutation can beat
        // packed's intra-ToR port collisions — but deterministic here.)
        assert!(
            random.makespan > packed.makespan,
            "packed {} vs random {}",
            packed.makespan,
            random.makespan
        );
    }
}

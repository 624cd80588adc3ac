//! The seven workloads: their load generators, the pipeline or grid each
//! one runs, and the checks on what comes out.
//!
//! The generators ([`Workload::generate`]) are the load generator: they
//! run untimed and hand the program under test nothing but text — an
//! nsys-style, MPI or SPC trace, or a grid spec of CLI tokens. Everything
//! from that text to the serialised report bytes is inside the `pipeline`
//! root span ([`run`]), which is the run's `wall_s`.

use atlahs_bench::branch::{self, BranchStats};
use atlahs_bench::cluster::{
    self, ArrivalSpec, ClusterGrid, ClusterOutcome, ClusterReport, QueueDiscipline,
};
use atlahs_bench::json::Json;
use atlahs_bench::scenario::{
    self, parse_cc, BackendFamily, CellResult, FaultSpec, PlacementSpec, ScenarioCell,
    ScenarioGrid, TopologySpec, WorkloadSpec,
};
use atlahs_bench::sweep::{self, SweepReport};
use atlahs_bench::workloads as suites;
use atlahs_core::{Backend, SimReport, Simulation};
use atlahs_goal::{GoalBuilder, GoalSchedule};
use atlahs_htsim::engine::{HtsimBackend, HtsimConfig, NetStats};
use atlahs_htsim::CcAlgo;
use atlahs_lgs::{LgsBackend, LgsStats, LogGopsParams};
use atlahs_schedgen::{mpi2goal, nccl2goal};
use atlahs_tracers::mpi::{self, HpcAppConfig, MpiTrace, Scaling};
use atlahs_tracers::nccl::{presets, trace_llm, NsysReport};
use atlahs_tracers::storage::SpcTrace;

use crate::span::{Layer, SpanId, SpanLog};
use crate::timed::{Offer, Timed};

// ------------------------------------------------------------ catalogue ----

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AiLgsTrace,
    HpcLgsRendezvous,
    StorageHtsimOversub,
    AiHtsimSpray,
    SweepGrid,
    BranchGrid,
    ClusterGrid,
}

impl Workload {
    /// Run order of one interleaved repetition.
    pub const ALL: [Workload; 7] = [
        Workload::AiLgsTrace,
        Workload::HpcLgsRendezvous,
        Workload::StorageHtsimOversub,
        Workload::AiHtsimSpray,
        Workload::SweepGrid,
        Workload::BranchGrid,
        Workload::ClusterGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AiLgsTrace => "ai_lgs_trace",
            Workload::HpcLgsRendezvous => "hpc_lgs_rendezvous",
            Workload::StorageHtsimOversub => "storage_htsim_oversub",
            Workload::AiHtsimSpray => "ai_htsim_spray",
            Workload::SweepGrid => "sweep_grid",
            Workload::BranchGrid => "branch_grid",
            Workload::ClusterGrid => "cluster_grid",
        }
    }

    /// One sentence on why the workload is in the benchmark (the same
    /// text `BENCHMARK.json` carries; a unit test keeps them equal).
    pub fn why(self) -> &'static str {
        match self {
            Workload::AiLgsTrace => "paper's AI path: nccl2goal lowering and the GOAL codec do most of the work, LGS runs eager",
            Workload::HpcLgsRendezvous => "same core+lgs layers used differently: 1024 ranks, RTS/CTS handshakes, simulation-dominated, trace parsing visible",
            Workload::StorageHtsimOversub => "Fig. 11: htsim in its worst regime, over 30% drops, RTO timers and retransmissions loading the eventq wheel",
            Workload::AiHtsimSpray => "htsim in the opposite regime: per-packet spraying on a fully provisioned fabric, under 2% drops; a loss-recovery gain that costs forwarding shows here",
            Workload::SweepGrid => "many small cells on 2 threads: per-cell overhead, GOAL sharing, compose and placement, fault checks, report writing",
            Workload::BranchGrid => "the Snapshot path: one checkpoint per prefix, a restore and a suffix re-simulation per what-if cell",
            Workload::ClusterGrid => "the third executor: hundreds of compose calls, NodePool allocate and release, solo and co-run simulations per batch",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL.into_iter().find(|w| w.name() == name).ok_or_else(|| {
            let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload `{name}` (known: {})", known.join(", "))
        })
    }

    /// Whether the workload is one of the three grid executors (no
    /// per-layer split of its `execute` span is visible from outside).
    pub fn is_grid(self) -> bool {
        matches!(self, Workload::SweepGrid | Workload::BranchGrid | Workload::ClusterGrid)
    }

    /// OS threads doing work in a run (the noise guard only judges
    /// single-threaded runs).
    pub fn threads(self) -> usize {
        if self == Workload::SweepGrid {
            SWEEP_THREADS
        } else {
            1
        }
    }

    /// Generate the run's input text from `seed`. `quick` shrinks the
    /// workload roughly twentyfold (numbers not comparable to full size).
    pub fn generate(self, seed: u64, quick: bool) -> String {
        match self {
            Workload::AiLgsTrace => {
                let mut cfg = presets::llama7b_dp128(if quick { 0.0005 } else { AI_LGS_SCALE });
                cfg.seed = seed;
                if quick {
                    cfg.iterations = 1;
                }
                trace_llm(&cfg).to_text()
            }
            Workload::HpcLgsRendezvous => mpi::lulesh(&HpcAppConfig {
                ranks: if quick { 216 } else { 1024 },
                iterations: if quick { 15 } else { HPC_ITERATIONS },
                scaling: Scaling::Weak,
                compute_ns: 2_000_000,
                halo_bytes: 400_000,
                noise: 0.02,
                seed,
            })
            .to_text(),
            Workload::StorageHtsimOversub => {
                let ops = if quick { 3_000 } else { STORAGE_OPS };
                let mut trace = suites::storage_trace_at_load(ops, 50, seed);
                // Compress arrivals to the fabric-saturating offered load
                // of Fig. 11 (the same ÷12 `bench_engine` applies).
                for r in &mut trace.records {
                    r.ts_ns /= 12;
                }
                trace.to_text()
            }
            Workload::AiHtsimSpray => {
                let mut cfg = presets::moe8x13b(AI_HTSIM_SCALE);
                cfg.seed = seed;
                cfg.iterations = 1;
                if quick {
                    cfg.batch = 8;
                }
                trace_llm(&cfg).to_text()
            }
            Workload::SweepGrid => sweep_spec(seed, quick),
            Workload::BranchGrid => branch_spec(seed, quick),
            Workload::ClusterGrid => cluster_spec(seed, quick),
        }
    }
}

// Frozen full-size inputs. Each was tuned on the 2-vCPU reference box so
// one cold run takes about 2 s; the README ("Sizing") records why not
// longer and the measurements behind every value.
const AI_LGS_SCALE: f64 = 0.002;
const HPC_ITERATIONS: u32 = 70;
const STORAGE_OPS: usize = 55_000;
const AI_HTSIM_SCALE: f64 = 0.001;
const SWEEP_THREADS: usize = 2;

fn sweep_spec(seed: u64, quick: bool) -> String {
    let (layers, repeat, laps) = if quick { (1, 1, 1) } else { (8, 8, 10) };
    format!(
        "seed={seed}\n\
         threads={SWEEP_THREADS}\n\
         topos=ai-fattree:32:1,ai-fattree:32:4,dragonfly:4:4:4\n\
         workloads=moe:32:8:131072:{layers}:5000,perm:32:1048576:16:{repeat},\
         ring:16:262144:{laps}+moe:8:4:131072:{layers}:5000+incast:8:131072:{repeat}\n\
         ccs=mprdma\n\
         placements=packed,random\n\
         backends=htsim,lgs,ideal\n\
         faults=none,loss:500,linkflap:2:20000:120000,straggler:50:300\n"
    )
}

fn branch_spec(seed: u64, quick: bool) -> String {
    // Branch at half the clean makespan of the shorter workload, measured
    // once at the frozen sizes (README): every prefix is mid-flight there.
    let (layers, repeat, branch_at) = if quick { (1, 1, 60_000) } else { (12, 8, 700_000) };
    format!(
        "seed={seed}\n\
         threads=1\n\
         branch_at={branch_at}\n\
         topos=ai-fattree:32:4\n\
         workloads=moe:32:8:262144:{layers}:5000,perm:32:4194304:8:{repeat}\n\
         ccs=mprdma\n\
         placements=packed\n\
         backends=htsim,lgs,ideal\n\
         faults=none,linkflap:2:800000:1600000,loss:500,\
         degrade:2:25:300:700000:3000000,markov:2:200000:200000:4000000,\
         straggler:50:300,straggler:50:200:200:2\n"
    )
}

fn cluster_spec(seed: u64, quick: bool) -> String {
    let jobs = if quick { 6 } else { 150 };
    format!(
        "seed={seed}\n\
         threads=1\n\
         topology=ai-fattree:64:4\n\
         catalog=ring:16:131072:8,perm:16:131072:1:8,perm:16:131072:4:8,perm:16:131072:8:8\n\
         arrivals=poisson:{jobs}:40000\n\
         queues=fifo,smallest\n\
         placements=packed,random\n\
         ccs=mprdma\n\
         backends=lgs,htsim\n"
    )
}

// ----------------------------------------------------------- spec text ----

/// A grid spec: `key=value` lines whose values are comma-separated CLI
/// tokens of `docs/SCENARIOS.md` (jobs of a multi-job workload are joined
/// with `+`).
#[derive(Debug)]
struct Spec<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Spec<'a> {
    fn parse(text: &'a str) -> Result<Spec<'a>, String> {
        let pairs = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| l.split_once('=').ok_or_else(|| format!("spec line without `=`: `{l}`")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Spec { pairs })
    }

    fn value(&self, key: &str) -> Result<&'a str, String> {
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("spec has no `{key}` line"))
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.value(key)?;
        v.trim().parse().map_err(|_| format!("spec `{key}`: bad number `{v}`"))
    }

    fn axis<T>(
        &self,
        key: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.value(key)?
            .split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(|t| parse(t).map_err(|e| format!("spec `{key}`: {e}")))
            .collect()
    }
}

fn parse_workload(tok: &str) -> Result<WorkloadSpec, String> {
    if tok.contains('+') {
        let jobs = tok.split('+').map(WorkloadSpec::parse).collect::<Result<Vec<_>, _>>()?;
        Ok(WorkloadSpec::MultiJob { jobs })
    } else {
        WorkloadSpec::parse(tok)
    }
}

fn scenario_grid(spec: &Spec<'_>) -> Result<ScenarioGrid, String> {
    Ok(ScenarioGrid {
        topologies: spec.axis("topos", TopologySpec::parse)?,
        workloads: spec.axis("workloads", parse_workload)?,
        ccs: spec.axis("ccs", parse_cc)?,
        placements: spec.axis("placements", PlacementSpec::parse)?,
        backends: spec.axis("backends", BackendFamily::parse)?,
        faults: spec.axis("faults", FaultSpec::parse)?,
        seed: spec.number("seed")?,
        collect_flows: false,
    })
}

fn cluster_grid(spec: &Spec<'_>) -> Result<ClusterGrid, String> {
    let topology = spec
        .axis("topology", TopologySpec::parse)?
        .pop()
        .ok_or_else(|| "spec `topology`: empty".to_string())?;
    Ok(ClusterGrid {
        topology,
        catalog: spec.axis("catalog", WorkloadSpec::parse)?,
        arrivals: spec.axis("arrivals", ArrivalSpec::parse)?,
        queues: spec.axis("queues", QueueDiscipline::parse)?,
        placements: spec.axis("placements", PlacementSpec::parse)?,
        ccs: spec.axis("ccs", parse_cc)?,
        backends: spec.axis("backends", BackendFamily::parse)?,
        faults: Vec::new(),
        seed: spec.number("seed")?,
    })
}

// ---------------------------------------------------------- fingerprint ----

/// FNV-1a over 64-bit words: the simulated outputs of a run folded into
/// one number, so two runs can be compared exactly.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) -> &mut Self {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn fingerprint_report(report: &SimReport) -> Fingerprint {
    let mut fp = Fingerprint::new();
    fp.word(report.makespan).word(report.completed as u64);
    for &t in &report.rank_finish {
        fp.word(t);
    }
    fp
}

pub fn fingerprint_lgs(report: &SimReport, stats: &LgsStats) -> u64 {
    fingerprint_report(report)
        .word(stats.messages)
        .word(stats.bytes)
        .word(stats.rendezvous_messages)
        .finish()
}

pub fn fingerprint_htsim(report: &SimReport, net: &NetStats) -> u64 {
    let mut fp = fingerprint_report(report);
    for (_, w) in net_fields(net) {
        fp.word(w);
    }
    fp.finish()
}

/// Every `NetStats` counter with its report name.
fn net_fields(n: &NetStats) -> [(&'static str, u64); 18] {
    [
        ("packets_sent", n.packets_sent),
        ("drops", n.drops),
        ("trims", n.trims),
        ("ecn_marks", n.ecn_marks),
        ("max_queue_bytes", n.max_queue_bytes),
        ("core_drops", n.core_drops),
        ("flows", n.flows),
        ("retransmissions", n.retransmissions),
        ("internal_events", n.internal_events),
        ("timeouts", n.timeouts),
        ("fault_drops", n.fault_drops),
        ("stochastic_draws", n.stochastic_draws),
        ("stochastic_drops", n.stochastic_drops),
        ("jittered", n.jittered),
        ("rtx_fault_drop", n.rtx_fault_drop),
        ("rtx_timeout", n.rtx_timeout),
        ("payload_bytes", n.payload_bytes),
        ("retransmitted_bytes", n.retransmitted_bytes),
    ]
}

fn fingerprint_cells(results: &[CellResult]) -> u64 {
    let mut fp = Fingerprint::new();
    for r in results {
        fp.word(r.makespan).word(r.tasks as u64);
        if let Some(net) = &r.net {
            for (_, w) in net_fields(net) {
                fp.word(w);
            }
        }
    }
    fp.finish()
}

fn fingerprint_cluster(results: &[ClusterOutcome]) -> u64 {
    let mut fp = Fingerprint::new();
    for r in results {
        fp.word(r.makespan_ns).word(r.batches as u64).word(r.jobs.len() as u64);
        for j in &r.jobs {
            fp.word(j.start_ns).word(j.duration_ns).word(j.solo_ns);
        }
    }
    fp.finish()
}

// -------------------------------------------------------------- outcome ----

/// What one run of a workload produced, besides its spans.
#[derive(Debug, Default)]
pub struct Outcome {
    /// GOAL tasks completed (summed over cells).
    pub tasks: u64,
    /// GOAL tasks the schedules held; a run that completes fewer failed.
    pub tasks_expected: u64,
    /// Simulated makespan (the largest over cells); 0 fails the run.
    pub makespan_ns: u64,
    /// Smallest per-cell makespan; 0 fails the run.
    pub min_makespan_ns: u64,
    pub fingerprint: u64,
    pub report_bytes: u64,
    /// Exact counts and sizes, by per-layer metric name.
    pub counters: Vec<(&'static str, f64)>,
    /// Traced pipelines: the offer script seen at `send`/`recv`.
    pub offers: Vec<Offer>,
    /// Grid workloads: the expanded cells, kept for the traced probes.
    pub cells: Vec<ScenarioCell>,
    pub branch_at: u64,
}

impl Outcome {
    fn count(&mut self, name: &'static str, value: f64) {
        self.counters.push((name, value));
    }
}

/// Run `workload` once on `input`: everything between the input text and
/// the serialised report bytes happens inside the returned root span.
pub fn run(
    workload: Workload,
    input: &str,
    seed: u64,
    traced: bool,
    log: &mut SpanLog,
) -> Result<(SpanId, Outcome), String> {
    let root = log.open("pipeline", Layer::Harness, None);
    let outcome = match workload {
        Workload::AiLgsTrace => {
            let goal = lower_nccl(input, log, root)?;
            run_lgs(goal, LogGopsParams::ai_alps(), traced, log, root)?
        }
        Workload::HpcLgsRendezvous => {
            let goal = lower_mpi(input, log, root)?;
            run_lgs(goal, LogGopsParams::hpc_testbed(), traced, log, root)?
        }
        Workload::StorageHtsimOversub => {
            let goal = lower_storage(input, log, root)?;
            let topo = suites::storage_topology(goal.0.num_ranks(), 8);
            let mut cfg = HtsimConfig::new(topo, CcAlgo::Mprdma);
            cfg.seed = seed;
            run_htsim(goal, cfg, traced, log, root)?
        }
        Workload::AiHtsimSpray => {
            let goal = lower_nccl(input, log, root)?;
            let mut cfg = HtsimConfig::new(suites::ai_topology(goal.0.num_ranks()), CcAlgo::Mprdma);
            cfg.seed = seed;
            cfg.spray = true;
            run_htsim(goal, cfg, traced, log, root)?
        }
        Workload::SweepGrid => run_sweep(input, log, root)?,
        Workload::BranchGrid => run_branch(input, log, root)?,
        Workload::ClusterGrid => run_cluster(input, log, root)?,
    };
    log.close(root);
    Ok((root, outcome))
}

// ------------------------------------------------------------ pipelines ----

/// A lowered schedule plus the tracer-side counts of its trace.
type Lowered = (GoalSchedule, Vec<(&'static str, f64)>);

fn lower_nccl(text: &str, log: &mut SpanLog, root: SpanId) -> Result<Lowered, String> {
    let report = log.time("tracers.parse", Layer::Tracers, root, || NsysReport::parse(text))?;
    let goal = log
        .time("schedgen.lower", Layer::Schedgen, root, || {
            nccl2goal::convert(&report, &nccl2goal::NcclToGoalConfig::default())
        })
        .map_err(|e| format!("nccl2goal: {e}"))?;
    Ok((goal, trace_counts(text, report.num_records())))
}

fn lower_mpi(text: &str, log: &mut SpanLog, root: SpanId) -> Result<Lowered, String> {
    let trace = log.time("tracers.parse", Layer::Tracers, root, || MpiTrace::parse(text))?;
    let goal = log
        .time("schedgen.lower", Layer::Schedgen, root, || {
            mpi2goal::convert(&trace, &mpi2goal::MpiToGoalConfig::default())
        })
        .map_err(|e| format!("mpi2goal: {e}"))?;
    Ok((goal, trace_counts(text, trace.num_records())))
}

fn lower_storage(text: &str, log: &mut SpanLog, root: SpanId) -> Result<Lowered, String> {
    let trace = log.time("tracers.parse", Layer::Tracers, root, || SpcTrace::parse(text))?;
    let goal = log
        .time("schedgen.lower", Layer::Schedgen, root, || {
            let layout = scenario::storage_layout();
            let mut b = GoalBuilder::new(layout.total_ranks());
            atlahs_directdrive::trace_to_goal(
                &trace,
                &layout,
                &scenario::storage_service_params(),
                &mut b,
            );
            b.build()
        })
        .map_err(|e| format!("directdrive: {e}"))?;
    Ok((goal, trace_counts(text, trace.len())))
}

fn trace_counts(text: &str, records: usize) -> Vec<(&'static str, f64)> {
    vec![("trace_bytes", text.len() as f64), ("trace_records", records as f64)]
}

/// The GOAL binary round trip a CLI user pays between `schedgen` and the
/// simulator; the decoded schedule is the one simulated.
fn codec_round_trip(
    goal: GoalSchedule,
    out: &mut Outcome,
    log: &mut SpanLog,
    root: SpanId,
) -> Result<GoalSchedule, String> {
    let bytes = log.time("goal.encode", Layer::Goal, root, || atlahs_goal::binary::encode(&goal));
    drop(goal);
    let goal = log
        .time("goal.decode", Layer::Goal, root, || atlahs_goal::binary::decode(&bytes))
        .map_err(|e| format!("goal decode: {e}"))?;
    let tasks = goal.total_tasks() as f64;
    out.tasks_expected = goal.total_tasks() as u64;
    out.count("goal_bytes_per_task", bytes.len() as f64 / tasks);
    out.count("arena_bytes_per_task", goal.task_arena_bytes() as f64 / tasks);
    Ok(goal)
}

/// `Simulation::run` inside the `core.run` span; in a traced run the
/// backend is wrapped so its share of the span can be split off.
fn simulate<B: Backend>(
    goal: &GoalSchedule,
    backend: B,
    layer: Layer,
    traced: bool,
    out: &mut Outcome,
    log: &mut SpanLog,
    root: SpanId,
) -> Result<(SimReport, B), String> {
    let (report, backend) = if traced {
        let mut timed = Timed::new(backend);
        let run = log.open("core.run", Layer::Core, Some(root));
        let report = Simulation::new(goal).run(&mut timed);
        log.close(run);
        timed.record_aggregates(log, run, layer);
        out.count("backend_calls", timed.backend_calls() as f64);
        let (backend, offers) = timed.into_parts();
        out.offers = offers;
        (report, backend)
    } else {
        let mut backend = backend;
        let report =
            log.time("core.run", Layer::Core, root, || Simulation::new(goal).run(&mut backend));
        (report, backend)
    };
    let report = report.map_err(|e| format!("simulation: {e}"))?;
    out.tasks = report.completed as u64;
    out.makespan_ns = report.makespan;
    out.min_makespan_ns = report.makespan;
    Ok((report, backend))
}

fn sim_report_json(report: &SimReport) -> Json {
    let mut doc = Json::obj();
    doc.set("schema", Json::Str("atlahs-benchmark-run-v1".into()));
    doc.set("makespan_ns", Json::Num(report.makespan as f64));
    doc.set("completed", Json::Num(report.completed as f64));
    doc.set(
        "rank_finish_ns",
        Json::Arr(report.rank_finish.iter().map(|&t| Json::Num(t as f64)).collect()),
    );
    doc
}

fn run_lgs(
    lowered: Lowered,
    params: LogGopsParams,
    traced: bool,
    log: &mut SpanLog,
    root: SpanId,
) -> Result<Outcome, String> {
    let mut out = Outcome { counters: lowered.1, ..Outcome::default() };
    let goal = codec_round_trip(lowered.0, &mut out, log, root)?;
    let backend = log.time("lgs.build", Layer::Lgs, root, || LgsBackend::new(params));
    let (report, backend) = simulate(&goal, backend, Layer::Lgs, traced, &mut out, log, root)?;
    let stats = backend.stats();
    out.report_bytes = log.time("report", Layer::Harness, root, || {
        let mut doc = sim_report_json(&report);
        let mut lgs = Json::obj();
        lgs.set("messages", Json::Num(stats.messages as f64));
        lgs.set("bytes", Json::Num(stats.bytes as f64));
        lgs.set("rendezvous_messages", Json::Num(stats.rendezvous_messages as f64));
        doc.set("lgs", lgs);
        std::hint::black_box(doc.pretty()).len() as u64
    });
    out.fingerprint = fingerprint_lgs(&report, &stats);
    out.count("messages", stats.messages as f64);
    out.count("rendezvous_messages", stats.rendezvous_messages as f64);
    Ok(out)
}

fn run_htsim(
    lowered: Lowered,
    cfg: HtsimConfig,
    traced: bool,
    log: &mut SpanLog,
    root: SpanId,
) -> Result<Outcome, String> {
    let mut out = Outcome { counters: lowered.1, ..Outcome::default() };
    let goal = codec_round_trip(lowered.0, &mut out, log, root)?;
    let backend = log.time("htsim.build", Layer::Htsim, root, || HtsimBackend::new(cfg));
    let (report, backend) = simulate(&goal, backend, Layer::Htsim, traced, &mut out, log, root)?;
    let net = backend.net_stats();
    out.report_bytes = log.time("report", Layer::Harness, root, || {
        let mut doc = sim_report_json(&report);
        let mut j = Json::obj();
        for (name, w) in net_fields(&net) {
            j.set(name, Json::Num(w as f64));
        }
        doc.set("net", j);
        std::hint::black_box(doc.pretty()).len() as u64
    });
    out.fingerprint = fingerprint_htsim(&report, &net);
    let q = backend.queue_stats();
    for (name, v) in [
        ("lane_pushes", q.lane_pushes),
        ("wheel_pushes", q.wheel_pushes),
        ("heap_pushes", q.heap_pushes),
        ("cascades", q.cascades),
        ("internal_events", net.internal_events),
        ("packets_sent", net.packets_sent),
        ("drops", net.drops),
        ("retransmissions", net.retransmissions),
        ("timeouts", net.timeouts),
    ] {
        out.count(name, v as f64);
    }
    let unique = net.payload_bytes - net.retransmitted_bytes;
    out.count("goodput_ratio", unique as f64 / net.payload_bytes.max(1) as f64);
    Ok(out)
}

// ---------------------------------------------------------------- grids ----

fn cells_outcome(
    cells: Vec<ScenarioCell>,
    results: &[CellResult],
    branch: Option<BranchStats>,
    report_bytes: u64,
) -> Outcome {
    let mut out = Outcome {
        tasks: results.iter().map(|r| r.tasks as u64).sum(),
        makespan_ns: results.iter().map(|r| r.makespan).max().unwrap_or(0),
        min_makespan_ns: results.iter().map(|r| r.makespan).min().unwrap_or(0),
        fingerprint: fingerprint_cells(results),
        report_bytes,
        branch_at: branch.map_or(0, |b| b.branch_at),
        ..Outcome::default()
    };
    // The executors panic on a deadlocked cell, so a cell that returns
    // completed its schedule.
    out.tasks_expected = out.tasks;
    out.count("cells", results.len() as f64);
    out.count("cell_wall_sum_s", results.iter().map(|r| r.wall.as_secs_f64()).sum());
    out.count("prefix_runs", branch.map_or(0, |b| b.prefix_runs) as f64);
    out.cells = cells;
    out
}

/// Spec text to cells, inside the `bench.expand` span: the set-up of the
/// sweep and branch workloads. Returns the grid, its cells, the thread
/// count and the branch time (0 for a spec without a `branch_at` line).
fn expand_scenario(
    input: &str,
    log: &mut SpanLog,
    root: SpanId,
) -> Result<(ScenarioGrid, Vec<ScenarioCell>, usize, u64), String> {
    log.time("bench.expand", Layer::Bench, root, || {
        let spec = Spec::parse(input)?;
        let grid = scenario_grid(&spec)?;
        let cells = grid.expand();
        let branch_at = if spec.value("branch_at").is_ok() { spec.number("branch_at")? } else { 0 };
        Ok((grid, cells, spec.number("threads")?, branch_at))
    })
}

fn run_sweep(input: &str, log: &mut SpanLog, root: SpanId) -> Result<Outcome, String> {
    let (grid, cells, threads, _) = expand_scenario(input, log, root)?;
    let results = log.time("bench.execute", Layer::Bench, root, || sweep::execute(&cells, threads));
    let report = SweepReport { seed: grid.seed, results, branch: None };
    let report_bytes = log.time("bench.report", Layer::Bench, root, || {
        let json = std::hint::black_box(report.to_json().pretty());
        let csv = std::hint::black_box(report.to_csv());
        (json.len() + csv.len()) as u64
    });
    Ok(cells_outcome(cells, &report.results, None, report_bytes))
}

fn run_branch(input: &str, log: &mut SpanLog, root: SpanId) -> Result<Outcome, String> {
    let (grid, cells, threads, branch_at) = expand_scenario(input, log, root)?;
    let (results, stats) = log.time("bench.execute", Layer::Bench, root, || {
        branch::execute_branched(&cells, branch_at, threads)
    });
    let report = SweepReport { seed: grid.seed, results, branch: Some(stats) };
    let report_bytes = log.time("bench.report", Layer::Bench, root, || {
        std::hint::black_box(report.to_json().pretty()).len() as u64
    });
    Ok(cells_outcome(cells, &report.results, Some(stats), report_bytes))
}

fn run_cluster(input: &str, log: &mut SpanLog, root: SpanId) -> Result<Outcome, String> {
    let (grid, threads, cells) = log.time("bench.expand", Layer::Bench, root, || {
        let spec = Spec::parse(input)?;
        let grid = cluster_grid(&spec)?;
        let (cells, dropped) = grid.expand_counted();
        if !dropped.is_empty() {
            return Err(format!("cluster catalog entries do not fit: {dropped:?}"));
        }
        Ok((grid, spec.number::<usize>("threads")?, cells))
    })?;
    let results =
        log.time("bench.execute", Layer::Bench, root, || cluster::run_grid(&cells, threads));
    let report = ClusterReport { seed: grid.seed, results };
    let report_bytes = log.time("bench.report", Layer::Bench, root, || {
        std::hint::black_box(report.to_json().pretty()).len() as u64
    });
    let results = &report.results;

    // The engine does not report task counts; count, outside the timed
    // region, the tasks of the schedule each completed job instantiated.
    let tasks_of: Vec<(String, u64)> = grid
        .catalog
        .iter()
        .map(|w| {
            let tasks = w.build_jobs(grid.seed).iter().map(|g| g.total_tasks() as u64).sum();
            (w.label(), tasks)
        })
        .collect();
    let mut tasks = 0u64;
    for job in results.iter().flat_map(|r| &r.jobs) {
        tasks += tasks_of
            .iter()
            .find(|(label, _)| *label == job.workload)
            .map(|(_, t)| *t)
            .ok_or_else(|| format!("job workload `{}` is not in the catalog", job.workload))?;
    }
    let jobs: usize = results.iter().map(|r| r.jobs.len()).sum();
    let mut out = Outcome {
        tasks,
        tasks_expected: tasks,
        makespan_ns: results.iter().map(|r| r.makespan_ns).max().unwrap_or(0),
        min_makespan_ns: results.iter().map(|r| r.makespan_ns).min().unwrap_or(0),
        fingerprint: fingerprint_cluster(results),
        report_bytes,
        ..Outcome::default()
    };
    let arrived: usize = cells.iter().map(|c| c.arrivals.num_jobs()).sum();
    if jobs != arrived {
        return Err(format!("{jobs} of {arrived} arrived jobs completed"));
    }
    out.count("cells", results.len() as f64);
    out.count("jobs", jobs as f64);
    out.count("cell_wall_sum_s", results.iter().map(|r| r.wall.as_secs_f64()).sum());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_unknown_names_are_rejected() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        let err = Workload::parse("ai_lgs").unwrap_err();
        assert!(err.contains("unknown workload `ai_lgs`") && err.contains("sweep_grid"), "{err}");
    }

    #[test]
    fn same_seed_same_input_other_seed_other_input() {
        for w in Workload::ALL {
            let a = w.generate(3, true);
            assert_eq!(a, w.generate(3, true), "{}", w.name());
            assert_ne!(a, w.generate(4, true), "{}", w.name());
        }
    }

    #[test]
    fn grid_specs_parse_and_expand() {
        let text = sweep_spec(1, false);
        let grid = scenario_grid(&Spec::parse(&text).unwrap()).unwrap();
        let cells = grid.expand();
        // 3 topologies x 3 workloads x 2 placements x (htsim: none, loss,
        // linkflap; lgs: none, straggler; ideal: none).
        assert_eq!(cells.len(), 108);
        assert!(grid
            .workloads
            .iter()
            .any(|w| matches!(w, WorkloadSpec::MultiJob { jobs } if jobs.len() == 3)));

        let text = branch_spec(1, false);
        let grid = scenario_grid(&Spec::parse(&text).unwrap()).unwrap();
        assert_eq!(grid.expand().len(), 2 * (5 + 3 + 1));

        let text = cluster_spec(1, false);
        let grid = cluster_grid(&Spec::parse(&text).unwrap()).unwrap();
        let (cells, dropped) = grid.expand_counted();
        assert_eq!((cells.len(), dropped.len()), (8, 0));
    }

    #[test]
    fn spec_errors_name_the_line() {
        assert!(Spec::parse("seed").unwrap_err().contains("without `=`"));
        let spec = Spec::parse("seed=x\ntopos=nope:1\n").unwrap();
        assert!(spec.number::<u64>("seed").unwrap_err().contains("bad number"));
        assert!(spec.value("ccs").unwrap_err().contains("no `ccs`"));
        assert!(spec.axis("topos", TopologySpec::parse).unwrap_err().starts_with("spec `topos`"));
    }

    #[test]
    fn quick_runs_complete_and_repeat_exactly() {
        for w in Workload::ALL {
            let input = w.generate(1, true);
            let mut fps = Vec::new();
            for traced in [false, true] {
                let mut log = SpanLog::new(0);
                let (root, out) = run(w, &input, 1, traced, &mut log).unwrap();
                assert!(out.tasks > 0 && out.tasks == out.tasks_expected, "{}", w.name());
                assert!(out.min_makespan_ns > 0 && out.report_bytes > 0, "{}", w.name());
                assert!(log.get(root).duration_ns() > 0);
                assert_eq!(out.offers.is_empty(), !traced || w.is_grid(), "{}", w.name());
                fps.push(out.fingerprint);
            }
            assert_eq!(fps[0], fps[1], "tracing changed the simulation of {}", w.name());
        }
    }

    #[test]
    fn fingerprint_depends_on_every_word() {
        let a = Fingerprint::new().word(1).word(2).finish();
        let b = Fingerprint::new().word(2).word(1).finish();
        let c = Fingerprint::new().word(1).word(3).finish();
        assert!(a != b && a != c && b != c);
    }
}

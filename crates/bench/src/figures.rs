//! The paper's evaluation figures and Table 1, printed by
//! `atlahs fig <name> [flags]` (docs/ARCHITECTURE.md has the
//! paper-section index).
//!
//! Every figure that simulates runs its simulations as scenario cells
//! through [`crate::sweep::execute`] — the executor `atlahs sweep` uses —
//! with a pinned seed, packed placement and no fault. Only the AstraSim
//! baseline (not a GOAL backend) and `compute_only_ns` (an instant
//! network, not a fabric) run outside the cells. Each function
//! returns the figure's printed text; [`NAMES`] lists the flags each
//! reads, and anything else is a usage error.
//!
//! Absolute values differ from the paper (the substrate is synthetic;
//! docs/ARCHITECTURE.md, "Backends"), but the qualitative shape — who
//! wins, by what factor, where the crossovers sit — is the reproduction
//! target.

use std::time::Instant;

use atlahs_baselines::{chakra, AstraSim, AstraSystemConfig};
use atlahs_core::backends::IdealBackend;
use atlahs_core::Simulation;
use atlahs_goal::{binary, GoalSchedule};
use atlahs_htsim::CcAlgo;
use atlahs_tracers::mpi::Scaling;
use atlahs_tracers::nccl::presets;

use crate::args::Cli;
use crate::scenario::{storage_layout, CellResult, PlacementSpec, ScenarioCell, WorkloadSpec};
use crate::spec::{BackendSpec, FaultSpec, TopologySpec};
use crate::sweep::execute;
use crate::table::{fmt_bytes, fmt_pct, pct_err, Table};
use crate::workloads::{self, HpcApp, HpcCase, LlmPreset};

/// A figure: reads its flags, returns its printed text.
pub type Figure = fn(&Cli) -> String;

/// Every figure: its name, the flags it reads, and the function printing it.
pub const NAMES: [(&str, &str, Figure); 8] = [
    ("fig01", "--scale --seed --ranks", fig01),
    ("fig08", "--scale --seed --full --timing", fig08),
    ("fig09", "--scale --seed --full", fig09),
    ("fig10", "--scale --seed", fig10),
    ("fig11", "--ops --gap --compress --seed --threads", fig11),
    ("fig12", "--scale --seed --threads", fig12),
    ("fig13", "--scale --seed --threads", fig13),
    ("table1", "--scale --seed --full", table1),
];

/// `--scale`: workload scale in (0, 1]. It multiplies model and problem
/// sizes, never rank counts (see [`crate::workloads`]).
fn scale(cli: &Cli, default: f64) -> f64 {
    let scale = cli.number("scale", default);
    if !(scale > 0.0 && scale <= 1.0) {
        cli.fail(format!("--scale: {scale} is not in (0, 1]"));
    }
    scale
}

/// A figure's cell: pinned seed, packed placement, no fault, no flow
/// records.
fn cell(
    topology: TopologySpec,
    workload: WorkloadSpec,
    backend: BackendSpec,
    seed: u64,
) -> ScenarioCell {
    ScenarioCell {
        topology,
        workload,
        placement: PlacementSpec::Packed,
        backend,
        fault: FaultSpec::None,
        seed,
        collect_flows: false,
    }
}

fn ms(ns: u64) -> String {
    format!("{:.3} ms", ns as f64 / 1e6)
}

/// The three runs of one validation row: the testbed reference, then the
/// LGS and the MPRDMA htsim predictions of it.
fn validation_cells(
    topology: TopologySpec,
    workload: WorkloadSpec,
    spray: bool,
    seed: u64,
) -> [ScenarioCell; 3] {
    [BackendSpec::Testbed, BackendSpec::Lgs, BackendSpec::Htsim { cc: CcAlgo::Mprdma, spray }]
        .map(|backend| cell(topology.clone(), workload.clone(), backend, seed))
}

/// Fig. 8's cells for one LLM preset on its fully provisioned AI fabric,
/// htsim spraying per packet. `quick` runs one iteration with the batch
/// capped at two microbatches per pipeline, otherwise the preset's own
/// iterations and batch.
pub fn fig08_cells(preset: LlmPreset, scale: f64, quick: bool, seed: u64) -> [ScenarioCell; 3] {
    let cfg = workloads::shape_llm(preset.cfg(scale), seed, quick.then_some(1), quick);
    let workload =
        WorkloadSpec::Llm { preset, scale, iterations: cfg.iterations, cap_batch: quick };
    let fabric = TopologySpec::AiFatTree { nodes: cfg.nodes() as usize, oversub: 1 };
    validation_cells(fabric, workload, true, seed)
}

/// Fig. 10's cells for one application point on its HPC fabric.
pub fn fig10_cells(case: &HpcCase, scale: f64, seed: u64) -> [ScenarioCell; 3] {
    let &HpcCase { app, procs, nodes, .. } = case;
    let workload = WorkloadSpec::Hpc { app, procs, nodes, scale };
    validation_cells(TopologySpec::HpcFatTree { procs, nodes }, workload, false, seed)
}

/// The compute-only makespan: the same schedule on an effectively
/// instant, contention-free network. This is the dark-blue
/// "non-overlapped computation" bar of Figs. 8/10 — the part of the
/// runtime no network improvement can remove.
fn compute_only_ns(goal: &GoalSchedule) -> u64 {
    let mut instant = IdealBackend::new(8_000_000_000, 0);
    let report = Simulation::new(goal).run(&mut instant);
    report.expect("schedule must complete (deadlock-free by construction)").makespan
}

/// The columns a Fig. 8/10 row shares, from the three runs of `goal`
/// ([`validation_cells`]): the measured makespan, its non-overlapped
/// computation share, then LGS and htsim each with its signed error
/// against measured. Also returns those two errors.
fn validation_row(goal: &GoalSchedule, runs: &[CellResult]) -> ([String; 6], [f64; 2]) {
    let [measured, lgs, ht] = runs else { unreachable!("three cells per row") };
    let nonovl = compute_only_ns(goal) as f64 / measured.makespan as f64 * 100.0;
    let errors = [lgs, ht].map(|run| pct_err(measured.makespan, run.makespan));
    let columns = [
        ms(measured.makespan),
        format!("{nonovl:.1}%"),
        ms(lgs.makespan),
        fmt_pct(errors[0]),
        ms(ht.makespan),
        fmt_pct(errors[1]),
    ];
    (columns, errors)
}

/// **E1 / Fig. 1C** — Why application traces matter: Swift vs MPRDMA on
/// two synthetic microbenchmarks (incast, permutation) and a realistic
/// LLM training workload with overlapping DP/PP traffic.
///
/// ```text
/// atlahs fig fig01 [--scale 0.002] [--seed 1] [--ranks 32]
/// ```
///
/// Expected shape (paper): the two algorithms look comparable on the
/// microbenchmarks (low single-digit % differences, either direction),
/// but the LLM trace exposes Swift's weakness with multi-hop congestion
/// — a consistent slowdown on total iteration time (paper: ~4%) that the
/// microbenchmarks alone would never reveal.
fn fig01(cli: &Cli) -> String {
    let scale = scale(cli, 0.002);
    let seed = cli.number("seed", 1u64);
    let ranks = cli.number("ranks", 32usize);

    // Synthetic microbenchmarks on a fully provisioned fabric: congestion
    // only at the last hop (incast) or nowhere structural (permutation).
    // Incast needs ranks+1 hosts (n senders + 1 sink); pad to the ToR size,
    // through the topology grammar, whose bound refuses a fabric too large
    // to route before any workload is built (a saturated sum is past it).
    let fabric = format!("ai-fattree:{}:1", ranks.saturating_add(8) / 8 * 8);
    let fabric = TopologySpec::parse(&fabric).unwrap_or_else(|e| cli.fail(format!("--ranks: {e}")));
    // The application trace: PP victim flows + DP ring allreduce on an
    // oversubscribed core (the Fig. 1A/1B scenario).
    let llm = LlmPreset::Mistral8x7b.cfg(scale);
    let rows = [
        (
            format!("incast ({ranks}:1, 1 MiB)"),
            fabric.clone(),
            WorkloadSpec::Incast { ranks: ranks + 1, bytes: 1 << 20, repeat: 2 },
        ),
        (
            format!("permutation ({ranks} ranks, 1 MiB)"),
            fabric,
            WorkloadSpec::Permutation { ranks, bytes: 1 << 20, shift: ranks / 2, repeat: 2 },
        ),
        (
            format!("LLM training ({}, {} nodes, 4:1 core)", llm.name, llm.nodes()),
            TopologySpec::AiFatTree { nodes: llm.nodes() as usize, oversub: 4 },
            WorkloadSpec::Llm {
                preset: LlmPreset::Mistral8x7b,
                scale,
                iterations: 1,
                cap_batch: true,
            },
        ),
    ];
    let mut cells = Vec::new();
    for (_, fabric, workload) in &rows {
        if let Err(e) = workload.check() {
            cli.fail(format!("--ranks: workload `{}`: {e}", workload.label()));
        }
        for cc in [CcAlgo::Mprdma, CcAlgo::Swift] {
            let backend = BackendSpec::Htsim { cc, spray: false };
            cells.push(cell(fabric.clone(), workload.clone(), backend, seed));
        }
    }
    let results = execute(&cells, 0);

    let mut table = Table::new(["workload", "MPRDMA", "Swift", "Swift vs MPRDMA"]);
    for ((label, ..), pair) in rows.iter().zip(results.chunks(2)) {
        let (m, s) = (pair[0].makespan, pair[1].makespan);
        let delta = (s as f64 - m as f64) / m as f64 * 100.0;
        table.row([label.clone(), ms(m), ms(s), format!("{delta:+.1}%")]);
    }
    format!(
        "# Fig. 1C — Swift vs MPRDMA: microbenchmarks vs an application trace\n\
         # (scale={scale}, seed={seed}, {ranks} ranks for microbenchmarks)\n\n{}\n\
         (paper: microbenchmarks comparable; Swift ~4% slower on the LLM iteration)\n",
        table.render()
    )
}

/// **E3 / Fig. 8** — AI validation: measured vs predicted training
/// iteration time for six LLM configurations, against ATLAHS LGS, ATLAHS
/// htsim, and the AstraSim-class baseline.
///
/// Also **E5 (§5.2)** with `--timing`: simulator wall-clock comparison
/// (the paper's 13.9× / 2.7× LGS-over-AstraSim speedups). The cells then
/// run on one thread (otherwise on every core), so each wall-clock is one
/// simulation's alone.
///
/// ```text
/// atlahs fig fig08 [--scale 0.002] [--seed 1] [--timing] [--full]
/// ```
///
/// Expected shape (paper): both ATLAHS backends within ±5% of measured;
/// AstraSim executes only for the two pure-DP Llama 7B configurations
/// (every other run aborts with "src and dest have the same address") and
/// overpredicts on those two; ATLAHS LGS simulates faster than AstraSim.
fn fig08(cli: &Cli) -> String {
    let scale = scale(cli, 0.002);
    let seed = cli.number("seed", 1u64);
    let quick = !cli.args.flag("full");
    let timing = cli.args.flag("timing");
    // 0 = one thread per core.
    let threads = if timing { 1 } else { 0 };

    // `ai_suite` lists the cases in `LlmPreset::NAMES` order.
    let cases = workloads::ai_suite(scale, quick, seed);
    let cells: Vec<ScenarioCell> = LlmPreset::NAMES
        .iter()
        .flat_map(|&(_, preset)| fig08_cells(preset, scale, quick, seed))
        .collect();
    let results = execute(&cells, threads);

    let mut table = Table::new([
        "workload",
        "geometry",
        "parallelism",
        "measured",
        "non-ovl comp",
        "LGS",
        "err",
        "htsim",
        "err",
        "AstraSim",
        "err",
    ]);
    let mut walls =
        Table::new(["workload", "ATLAHS LGS", "ATLAHS htsim", "AstraSim", "LGS speedup"]);
    for (case, runs) in cases.iter().zip(results.chunks(3)) {
        let (report, goal) = workloads::ai_goal(&case.cfg);
        let (validation, _) = validation_row(&goal, runs);

        // The baseline replays its own Chakra conversion of the same trace.
        let et = chakra::from_nsys(&report);
        let astra_cfg = AstraSystemConfig {
            gpus_per_node: case.cfg.gpus_per_node,
            ..AstraSystemConfig::default()
        };
        let t0 = Instant::now();
        let astra = AstraSim::new(astra_cfg).run(&et);
        let astra_wall = t0.elapsed().as_secs_f64();

        let (astra_cell, astra_err) = match &astra {
            Ok(rep) => (ms(rep.makespan_ns), fmt_pct(pct_err(runs[0].makespan, rep.makespan_ns))),
            Err(e) => {
                let msg = e.to_string();
                let short = msg.split(": ").last().unwrap_or(&msg).to_string();
                (short, "—".to_string())
            }
        };
        let head = [case.name.clone(), case.geometry.clone(), case.parallelism.clone()];
        table.row(head.into_iter().chain(validation).chain([astra_cell, astra_err]));

        let lgs_wall = runs[1].wall.as_secs_f64();
        let (astra_cell, speedup) = match astra {
            Ok(_) => {
                (format!("{astra_wall:.3} s"), format!("{:.1}x", astra_wall / lgs_wall.max(1e-9)))
            }
            Err(_) => ("failed".to_string(), "—".to_string()),
        };
        walls.row([
            format!("{} {}", case.name, case.geometry),
            format!("{lgs_wall:.3} s"),
            format!("{:.3} s", runs[2].wall.as_secs_f64()),
            astra_cell,
            speedup,
        ]);
    }

    let mut out = format!(
        "# Fig. 8 — AI validation (scale={scale}, seed={seed}, quick={quick})\n\
         # measured = fluid-flow testbed emulator (docs/ARCHITECTURE.md, Backends); \
         times per training run\n\n{}",
        table.render()
    );
    if timing {
        out += "\n# §5.2 — simulation wall-clock (same runs as above)\n";
        out += &walls.render();
    }
    out
}

/// **E4 / Fig. 9** — Trace size: GOAL (ATLAHS, compact binary) vs Chakra
/// (AstraSim, verbose per-node schema) for the six Fig. 8 configurations.
///
/// ```text
/// atlahs fig fig09 [--scale 0.002] [--seed 1] [--full]
/// ```
///
/// Expected shape (paper): Chakra consistently larger, 1.8×–10.6×
/// depending on the workload mix (compute-gap-dominated traces inflate
/// the most, because every inferred gap becomes a fully-attributed node).
fn fig09(cli: &Cli) -> String {
    let scale = scale(cli, 0.002);
    let seed = cli.number("seed", 1u64);
    let quick = !cli.args.flag("full");

    let mut table =
        Table::new(["workload", "geometry", "GOAL (ATLAHS)", "Chakra (AstraSim)", "ratio"]);
    for case in workloads::ai_suite(scale, quick, seed) {
        let (report, goal) = workloads::ai_goal(&case.cfg);
        let goal_bytes = binary::encode(&goal).len() as u64;
        let chakra_bytes = chakra::from_nsys(&report).to_text().len() as u64;
        table.row([
            case.name.clone(),
            case.geometry.clone(),
            fmt_bytes(goal_bytes),
            fmt_bytes(chakra_bytes),
            format!("{:.1}x", chakra_bytes as f64 / goal_bytes as f64),
        ]);
    }
    format!(
        "# Fig. 9 — GOAL vs Chakra trace sizes (scale={scale}, seed={seed})\n\n{}\n\
         (paper ratios: 9.0x, 3.8x, 1.8x, 10.6x, 4.4x, 2.5x — Chakra always larger)\n",
        table.render()
    )
}

/// **E6 / Fig. 10** — HPC validation: measured vs predicted runtime for
/// fifteen application/scale points (weak and strong scaling), error of
/// ATLAHS LGS and ATLAHS htsim against the measured runtime.
///
/// ```text
/// atlahs fig fig10 [--scale 0.05] [--seed 1]
/// ```
///
/// Expected shape (paper): prediction error below ~5% across all points
/// for both backends; LGS error drifts slightly upward with scale while
/// htsim stays flat; the non-overlapped-computation share is high
/// (57–93%) for these MPI+OpenMP codes.
fn fig10(cli: &Cli) -> String {
    let scale = scale(cli, 0.05);
    let seed = cli.number("seed", 1u64);

    let cases = workloads::hpc_suite();
    let cells: Vec<ScenarioCell> =
        cases.iter().flat_map(|case| fig10_cells(case, scale, seed)).collect();
    let results = execute(&cells, 0);

    let mut table = Table::new([
        "app (procs/nodes)",
        "scaling",
        "measured",
        "non-ovl comp",
        "LGS",
        "err",
        "htsim",
        "err",
    ]);
    let mut worst_lgs: f64 = 0.0;
    let mut worst_ht: f64 = 0.0;
    for (case, runs) in cases.iter().zip(results.chunks(3)) {
        let (_, goal) = workloads::hpc_goal(case, scale, seed);
        let (validation, [e_lgs, e_ht]) = validation_row(&goal, runs);
        worst_lgs = worst_lgs.max(e_lgs.abs());
        worst_ht = worst_ht.max(e_ht.abs());
        let scaling = match case.scaling {
            Scaling::Weak => "weak",
            Scaling::Strong => "strong",
        };
        table.row([case.label(), scaling.to_string()].into_iter().chain(validation));
    }
    format!(
        "# Fig. 10 — HPC validation (scale={scale}, seed={seed})\n\
         # measured = fluid-flow testbed emulator; LGS params calibrated against it\n\
         # (the paper fits LogGOPS to its physical cluster with Netgauge the same way)\n\n{}\n\
         worst |error|: LGS {worst_lgs:.1}%  htsim {worst_ht:.1}%  (paper target: <5%)\n",
        table.render()
    )
}

/// **E7 / Fig. 11** — Effect of congestion control on distributed
/// storage: 5k Direct Drive operations (Financial-like distribution),
/// MPRDMA vs NDP, fully provisioned vs 8:1 oversubscribed fat tree;
/// Message Completion Time mean / p99 / max.
///
/// ```text
/// atlahs fig fig11 [--ops 5000] [--gap 50] [--compress 12] [--seed 1] [--threads 0]
/// ```
///
/// The four cells ({full, 8:1} × {MPRDMA, NDP}) are the fabrics,
/// workload, CCs and backend of the sweep
///
/// ```text
/// atlahs sweep --topos storage-fattree:48:1,storage-fattree:48:8 \
///              --workloads storage:5000:50:12 --ccs mprdma,ndp \
///              --backends htsim --collect-flows
/// ```
///
/// but not its seeds: the figure runs every cell at `--seed`, where the
/// sweep runs each at `cell_seed(seed, workload label)`. So the sweep
/// generates a different storage trace, and its MCTs are not the figure's.
///
/// Expected shape (paper): comparable MCT on the fully provisioned
/// fabric; under 8:1 oversubscription NDP degrades — mean +14%, p99 +35%,
/// max +77% over MPRDMA — because receiver-driven control cannot see
/// congestion in the core.
fn fig11(cli: &Cli) -> String {
    let ops = cli.number("ops", 5_000usize);
    let gap = cli.number("gap", 50u64);
    let compress = cli.number("compress", 12u64);
    let seed = cli.number("seed", 1u64);
    let threads = cli.number("threads", 0usize);

    let hosts = storage_layout().total_ranks();
    let workload = WorkloadSpec::Storage { ops, gap_ns: gap, compress };
    if let Err(e) = workload.check() {
        // Blame `--compress` only when the operation count alone is fine.
        let ops_ok = WorkloadSpec::Storage { ops, gap_ns: gap, compress: 1 }.check().is_ok();
        let flag = if ops_ok { "compress" } else { "ops" };
        cli.fail(format!("--{flag}: workload `{}`: {e}", workload.label()));
    }
    let grid = [
        (1, "fully provisioned", CcAlgo::Mprdma),
        (1, "fully provisioned", CcAlgo::Ndp),
        (8, "8:1 oversubscribed", CcAlgo::Mprdma),
        (8, "8:1 oversubscribed", CcAlgo::Ndp),
    ];
    let cells = grid.map(|(oversub, _, cc)| ScenarioCell {
        collect_flows: true,
        ..cell(
            TopologySpec::StorageFatTree { hosts, oversub },
            workload.clone(),
            BackendSpec::Htsim { cc, spray: false },
            seed,
        )
    });
    let results = execute(&cells, threads);

    let mut table =
        Table::new(["topology", "CC", "mean MCT", "p99 MCT", "max MCT", "flows", "drops/trims"]);
    for ((_, tlabel, cc), run) in grid.iter().zip(&results) {
        let mct = run.mct;
        let net = run.net.expect("packet-level cell");
        table.row([
            tlabel.to_string(),
            cc.to_string(),
            format!("{:.1} µs", mct.mean / 1e3),
            format!("{:.1} µs", mct.p99 as f64 / 1e3),
            format!("{:.1} µs", mct.max as f64 / 1e3),
            format!("{}", mct.count),
            format!("{}", net.drops + net.trims),
        ]);
    }
    let mut out = format!(
        "# Fig. 11 — storage MCT under congestion control (ops={ops}, gap={gap}ns, \
         compress={compress}x, seed={seed})\n\n{}",
        table.render()
    );

    // The paper's headline deltas: NDP relative to MPRDMA, oversubscribed.
    let (m, n) = (results[2].mct, results[3].mct);
    if m.count > 0 && n.count > 0 {
        out += &format!(
            "\n8:1 oversubscribed, NDP vs MPRDMA: mean {:+.0}%  p99 {:+.0}%  max {:+.0}%\n\
             (paper: mean +14%, p99 +35%, max +77%)\n",
            (n.mean / m.mean - 1.0) * 100.0,
            (n.p99 as f64 / m.p99 as f64 - 1.0) * 100.0,
            (n.max as f64 / m.max as f64 - 1.0) * 100.0,
        );
    } else {
        out += "\n(no flows simulated — nothing to compare)\n";
    }
    out
}

/// **E8 / Fig. 12** — ATLAHS LGS vs ATLAHS htsim when the topology
/// assumption breaks: Llama 7B on a fully provisioned vs a 4:1
/// oversubscribed fat tree, plus the packet-drop statistic only the
/// packet-level backend can report.
///
/// ```text
/// atlahs fig fig12 [--scale 0.002] [--seed 1] [--threads 0]
/// ```
///
/// Per oversubscription ratio one sprayed-htsim cell, and one LGS cell
/// on the fully provisioned fabric for both rows. The grid
///
/// ```text
/// atlahs sweep --topos ai-fattree:32:1,ai-fattree:32:4 \
///              --workloads llm:llama7b-dp128:0.002 --ccs mprdma \
///              --backends htsim-spray,lgs
/// ```
///
/// has the same fabrics, workload and backends, but differs twice:
/// - it runs two LGS cells, one per fabric, where the figure runs one;
/// - the figure runs every cell at `--seed`, where the sweep runs each at
///   `cell_seed(seed, workload label)`, so the sweep traces the LLM from
///   another seed.
///
/// Expected shape (paper): on the fully provisioned fabric the two
/// backends agree within ~1%; with 4:1 oversubscription LGS (whose `G`
/// cannot see the thinner core) diverges by >100% while htsim reports
/// massive core drops.
fn fig12(cli: &Cli) -> String {
    let scale = scale(cli, 0.002);
    let seed = cli.number("seed", 1u64);
    let threads = cli.number("threads", 0usize);

    let nodes = presets::llama7b_dp128(scale).nodes() as usize;
    let workload = WorkloadSpec::Llm {
        preset: LlmPreset::Llama7bDp128,
        scale,
        iterations: 1,
        cap_batch: true,
    };
    // LGS is topology-oblivious: same G for both configurations, exactly
    // the paper's setup (theoretical injection bandwidth is unchanged),
    // so one LGS cell on the fully provisioned fabric serves both rows.
    let ratios: [(usize, &str); 2] = [(1, "no oversubscription"), (4, "4:1 oversubscription")];
    let fabric = |oversub| TopologySpec::AiFatTree { nodes, oversub };
    let mut cells = vec![cell(fabric(1), workload.clone(), BackendSpec::Lgs, seed)];
    for &(ratio, _) in &ratios {
        let backend = BackendSpec::Htsim { cc: CcAlgo::Mprdma, spray: true };
        cells.push(cell(fabric(ratio), workload.clone(), backend, seed));
    }
    let results = execute(&cells, threads);
    let lgs_makespan = results[0].makespan;

    let mut table = Table::new([
        "topology",
        "ATLAHS LGS",
        "ATLAHS htsim",
        "LGS vs htsim",
        "total drops",
        "core drops",
    ]);
    for ((_, label), ht) in ratios.iter().zip(&results[1..]) {
        let net = ht.net.expect("packet-level cell");
        table.row([
            label.to_string(),
            ms(lgs_makespan),
            ms(ht.makespan),
            fmt_pct(pct_err(ht.makespan, lgs_makespan)),
            format!("{}", net.drops),
            format!("{}", net.core_drops),
        ]);
    }
    format!(
        "# Fig. 12 — LGS vs htsim under oversubscription (scale={scale}, seed={seed})\n\n{}\n\
         (paper: -0.5% agreement fully provisioned, -120.3% divergence at 4:1,\n \
         with ~1e8 packet drops visible only to the packet-level backend)\n",
        table.render()
    )
}

/// **E9 / Fig. 13** — Job placement in a shared cluster: Llama (AI) and
/// LULESH (HPC) co-scheduled on an oversubscribed fat tree, packed vs
/// random allocation, per-application runtime impact.
///
/// ```text
/// atlahs fig fig13 [--scale 0.002] [--seed 1] [--threads 0]
/// ```
///
/// One multi-job workload (Llama + LULESH), the placement strategy as the
/// grid axis. The cell runner performs the allocate → compose → simulate
/// pipeline and reports per-job finish times.
///
/// Expected shape (paper): random allocation inflates Llama's runtime
/// (~+36%) because its DP rings start crossing the oversubscribed core,
/// while compute-bound LULESH barely moves (~+2%).
fn fig13(cli: &Cli) -> String {
    let scale = scale(cli, 0.002);
    let seed = cli.number("seed", 1u64);
    let threads = cli.number("threads", 0usize);

    // Job A: Llama 7B on 16 GPUs -> 4 nodes (communication-heavy).
    // Job B: LULESH on 8 ranks (compute-heavy).
    let workload = WorkloadSpec::MultiJob {
        jobs: vec![
            WorkloadSpec::Llm {
                preset: LlmPreset::Llama7bDp16,
                scale,
                iterations: 1,
                cap_batch: false,
            },
            WorkloadSpec::Hpc { app: HpcApp::Lulesh, procs: 8, nodes: 8, scale: scale.max(0.02) },
        ],
    };
    // 4 + 8 jobs on a 16-node cluster, 4:1 oversubscribed.
    let placements = [
        (PlacementSpec::Packed, "Packed Allocation"),
        (PlacementSpec::Random, "Random Allocation"),
    ];
    let cells = placements.map(|(placement, _)| ScenarioCell {
        placement,
        ..cell(
            TopologySpec::AiFatTree { nodes: 16, oversub: 4 },
            workload.clone(),
            BackendSpec::Htsim { cc: CcAlgo::Mprdma, spray: false },
            seed,
        )
    });
    let results = execute(&cells, threads);

    let mut table = Table::new(["allocation", "Llama", "LULESH"]);
    let mut finish = Vec::new();
    for ((_, label), run) in placements.iter().zip(&results) {
        let [llama_t, lulesh_t] = run.job_finish[..] else {
            panic!("expected two co-scheduled jobs, got {:?}", run.job_finish)
        };
        table.row([label.to_string(), ms(llama_t), ms(lulesh_t)]);
        finish.push((llama_t as f64, lulesh_t as f64));
    }
    let [(lp, up), (lr, ur)] = finish[..] else { unreachable!("two placements") };
    format!(
        "# Fig. 13 — job placement (scale={scale}, seed={seed})\n\n{}\n\
         random vs packed: Llama {:+.0}%  LULESH {:+.0}%   (paper: +36% / +2%)\n",
        table.render(),
        (lr / lp - 1.0) * 100.0,
        (ur / up - 1.0) * 100.0,
    )
}

/// **E2 / Table 1** — Released trace dataset summary: raw trace size vs
/// GOAL size for every application/configuration of the paper's Table 1.
///
/// ```text
/// atlahs fig table1 [--scale 0.002] [--seed 1] [--full]
/// ```
///
/// Raw traces are the tracer artifacts (nsys-style text for AI, MPI logs
/// for HPC); GOAL sizes use the compact binary encoding. Absolute sizes
/// are scale-dependent; the paper's shape is that the two stay within a
/// small factor of each other in both directions (GOAL grows when
/// collectives decompose into many sends, shrinks when verbose trace
/// records collapse into single vertices).
fn table1(cli: &Cli) -> String {
    let scale = scale(cli, 0.002);
    let seed = cli.number("seed", 1u64);
    let quick = !cli.args.flag("full");

    let mut table = Table::new(["app", "configuration", "trace", "GOAL", "GOAL/trace"]);
    let mut row = |app: &str, configuration: String, trace_bytes: usize, goal: &GoalSchedule| {
        let goal_bytes = binary::encode(goal).len();
        table.row([
            app.to_string(),
            configuration,
            fmt_bytes(trace_bytes as u64),
            fmt_bytes(goal_bytes as u64),
            format!("{:.2}", goal_bytes as f64 / trace_bytes as f64),
        ]);
    };

    // ---- AI rows (DLRM + the Fig. 8 configurations) ----
    let dlrm = workloads::shape_llm(presets::dlrm(scale), seed, quick.then_some(1), quick);
    let suite = workloads::ai_suite(scale, quick, seed).into_iter().map(|c| c.cfg);
    for cfg in std::iter::once(dlrm).chain(suite) {
        let (report, goal) = workloads::ai_goal(&cfg);
        let configuration = format!("{} GPUs {} Nodes", cfg.gpus(), cfg.nodes());
        row(&cfg.name, configuration, report.to_text().len(), &goal);
    }

    // ---- HPC rows (Table 1's process/node grid: the Fig. 10 points,
    // every one traced as weak scaling) ----
    for case in workloads::hpc_suite() {
        let case = HpcCase { scaling: Scaling::Weak, ..case };
        let (trace, goal) = workloads::hpc_goal(&case, scale.max(0.02), seed);
        let configuration = format!("{} Procs {} Nodes", case.procs, case.nodes);
        row(case.app.name(), configuration, trace.to_text().len(), &goal);
    }
    format!("# Table 1 — trace dataset summary (scale={scale}, seed={seed})\n\n{}", table.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 8 prints `ai_suite`'s cases beside the cells it simulates:
    /// each case's configuration is the one its cells run.
    #[test]
    fn fig08_prints_the_configuration_it_simulates() {
        let (scale, seed) = (0.002, 1);
        let suite = workloads::ai_suite(scale, true, seed);
        for (i, preset) in [(0, LlmPreset::Llama7bDp16), (3, LlmPreset::Mistral8x7b)] {
            let (_, printed) = workloads::ai_goal(&suite[i].cfg);
            let simulated = fig08_cells(preset, scale, true, seed)[0].workload.build_jobs(seed);
            assert_eq!(printed, *simulated[0], "{}", suite[i].name);
        }
    }

    #[test]
    fn compute_only_is_a_lower_bound() {
        let suite = workloads::ai_suite(0.005, true, 7);
        let (_, goal) = workloads::ai_goal(&suite[0].cfg);
        let comp = compute_only_ns(&goal);
        let (meas, _) = crate::runner::run_testbed(&goal, workloads::ai_topology(4), 1);
        assert!(comp > 0);
        assert!(comp <= meas.makespan, "comp {comp} vs measured {}", meas.makespan);
    }
}

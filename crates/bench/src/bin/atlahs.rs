//! The unified `atlahs` CLI: declarative scenario sweeps over the whole
//! toolchain (docs/SCENARIOS.md).
//!
//! ```text
//! atlahs sweep [--topos t1,t2] [--workloads w1,w2] [--ccs c1,c2]
//!              [--placements p1,p2] [--backends b1,b2] [--faults f1,f2]
//!              [--seed N] [--threads N] [--collect-flows]
//!              [--out report.json] [--csv report.csv] [--md report.md]
//!              [--branch-at NS] [--quiet]
//! atlahs cluster [--topo t] [--catalog w1,w2] [--arrivals a1,a2]
//!                [--queues q1,q2] [--placements p1,p2] [--ccs c1,c2]
//!                [--backends b1,b2] [--faults f1,f2] [--seed N]
//!                [--threads N]
//!                [--out report.json] [--csv report.csv] [--md report.md]
//!                [--quiet]
//! atlahs fig <fig01|fig08|fig09|fig10|fig11|fig12|fig13|table1> [flags]
//! atlahs lint [--root DIR]
//! atlahs list
//! atlahs help
//! ```
//!
//! Every subcommand reads a fixed flag set: a flag outside the set, a
//! malformed number, a token no grammar matches, a fault outside the
//! subcommand's scope or a stray positional argument exits 2 with
//! `atlahs <sub>: …`.
//!
//! `fig` prints one of the paper's figures or Table 1
//! ([`atlahs_bench::figures`]); the figure name is its one positional
//! argument.
//!
//! `list` prints every axis's token grammar from the constants the
//! parsers' own errors print.
//!
//! `sweep` expands the cartesian grid, runs every cell across OS threads
//! (each cell a deterministic single-threaded simulation with a derived
//! seed), prints a summary table, and optionally writes the JSON/CSV/
//! markdown reports. The JSON report is byte-identical regardless of
//! `--threads`.
//!
//! `cluster` runs the dynamic multi-tenant engine: a seeded job-arrival
//! process over a workload catalog, an online allocator with queueing and
//! backfill, per-job wait/completion/slowdown metrics (docs/SCENARIOS.md).
//! Same determinism guarantee.
//!
//! `lint` runs the offline determinism audit (docs/DETERMINISM.md): a
//! static pass over every non-shim crate banning floats, default-hashed
//! maps, hash-order iteration, wall clocks, ambient randomness and
//! `unsafe` from result-affecting code, honouring
//! `// det-lint: allow(<rule>) — <reason>` annotations. Exits 1 on any
//! finding (a ci.sh stage).

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use atlahs_bench::args::{Args, Cli};
use atlahs_bench::branch::execute_branched;
use atlahs_bench::cluster::{run_grid, ArrivalSpec, ClusterGrid, ClusterReport, QueueDiscipline};
use atlahs_bench::figures;
use atlahs_bench::scenario::{
    names, parse_cc, BackendFamily, FaultSpec, LlmPreset, PlacementSpec, ScenarioGrid,
    TopologySpec, WorkloadSpec, CC_NAMES,
};
use atlahs_bench::sweep::{execute, SweepReport};
use atlahs_bench::table::Table;
use atlahs_bench::workloads::HpcApp;

fn main() {
    let mut argv: Vec<String> = std::env::args().collect();
    // Pull the subcommand out so `Args` sees only `--flag value` pairs.
    let sub =
        if argv.len() > 1 && !argv[1].starts_with("--") { argv.remove(1) } else { String::new() };
    let args = Args::from_tokens(argv);

    match sub.as_str() {
        "sweep" => sweep(Cli::new("sweep", &args, SWEEP_FLAGS)),
        "cluster" => cluster(Cli::new("cluster", &args, CLUSTER_FLAGS)),
        "lint" => lint(Cli::new("lint", &args, "--root")),
        "fig" => fig(&args),
        "list" => list(),
        "" | "help" | "-h" => usage(),
        other => {
            eprintln!("atlahs: unknown subcommand `{other}`\n");
            usage();
            std::process::exit(2);
        }
    }
}

fn usage() {
    println!(
        "atlahs — the ATLAHS scenario-sweep CLI\n\n\
         USAGE:\n  atlahs sweep [axes] [execution] [output]\n  \
         atlahs cluster [axes] [execution] [output]\n  \
         atlahs fig <fig01|fig08|fig09|fig10|fig11|fig12|fig13|table1> [flags]\n  \
         atlahs lint [--root DIR]\n  atlahs list\n\n\
         FIG (docs/ARCHITECTURE.md has the paper-section index):\n\
         \x20 print one of the paper's figures; each reads --seed and the\n\
         \x20 knobs it names (--scale, --ranks, --ops, --threads, ...).\n\n\
         LINT (docs/DETERMINISM.md):\n\
         \x20 the static determinism audit: bans floats, default-hashed maps,\n\
         \x20 hash-order iteration, wall clocks, ambient randomness and unsafe\n\
         \x20 from result-affecting crates; checks det-lint annotations.\n\
         \x20 Exits 1 on any finding (runs as a ci.sh stage).\n\n\
         AXES (comma-separated; `atlahs list` prints every token grammar,\n\
         docs/SCENARIOS.md explains them). A flag the subcommand does not read\n\
         is an error.\n\
         \x20 sweep:\n\
         \x20 --topos      topologies   (default ai-fattree:16:1,ai-fattree:16:4)\n\
         \x20 --workloads  workloads    (default ring:16:262144:1,moe:16:4:262144:2:5000)\n\
         \x20 --ccs        congestion controls for htsim (default mprdma,ndp)\n\
         \x20 --placements placements   (default packed)\n\
         \x20 --backends   backend families (default htsim,lgs)\n\
         \x20 --faults     sweep-scope fault regimes (default none)\n\
         \x20 cluster (the dynamic multi-tenant engine):\n\
         \x20 --topo       the one shared fabric (default ai-fattree:16:4)\n\
         \x20 --catalog    single-job workloads arrivals draw from\n\
         \x20              (default ring:4:131072:1,incast:3:65536:1)\n\
         \x20 --arrivals   arrival processes (default poisson:12:200000)\n\
         \x20 --queues     queue disciplines (default fifo)\n\
         \x20 --placements / --ccs / --backends as for sweep (default packed /\n\
         \x20              mprdma / lgs,ideal)\n\
         \x20 --faults     cluster-scope fault regimes (default none)\n\n\
         EXECUTION:\n\
         \x20 --seed N         grid seed; every cell derives its own (default 1)\n\
         \x20 --threads N      worker threads; 0 = all cores (default 0)\n\
         \x20 --collect-flows  record per-flow MCT statistics (sweep only)\n\
         \x20 --branch-at NS   branch-and-continue: simulate each shared prefix\n\
         \x20                  (topology+workload+placement+backend) once, snapshot,\n\
         \x20                  apply each cell's --faults value at NS, re-simulate\n\
         \x20                  only the suffix (sweep only)\n\n\
         OUTPUT:\n\
         \x20 --out FILE   write the deterministic JSON report\n\
         \x20 --csv FILE   write the CSV report\n\
         \x20 --md FILE    write the markdown report\n\
         \x20 --quiet      suppress the summary table"
    );
}

/// `atlahs fig <name>`: print one of the paper's figures.
fn fig(args: &Args) {
    let name = args.positionals().first().map_or("", String::as_str);
    let Some(&(_, flags, figure)) = figures::NAMES.iter().find(|(n, ..)| *n == name) else {
        let known: Vec<&str> = figures::NAMES.iter().map(|(n, ..)| *n).collect();
        let what = if name.is_empty() {
            "name a figure".into()
        } else {
            format!("unknown figure `{name}`")
        };
        Cli { sub: "fig", args }.fail(format!("{what} ({})", known.join("|")));
    };
    print!("{}", figure(&Cli::new("fig", args, flags)));
}

/// Every axis vocabulary, printed from the constants the parsers' own
/// errors print.
fn list() {
    let section = |title: &str, grammar: &str| {
        println!("{title}:");
        grammar.lines().for_each(|form| println!("  {form}"));
    };
    section("topologies", TopologySpec::GRAMMAR);
    section("workloads", WorkloadSpec::GRAMMAR);
    println!("  llm presets: {}", names(&LlmPreset::NAMES));
    println!("  hpc apps:    {}", names(&HpcApp::NAMES));
    println!("ccs:        {}", names(&CC_NAMES));
    println!("placements: {}", names(&PlacementSpec::NAMES));
    println!("backends:   {}", names(&BackendFamily::NAMES));
    section("faults (where accepted; backends they bite on)", FaultSpec::GRAMMAR);
    section("arrivals (cluster)", ArrivalSpec::GRAMMAR);
    println!("queues (cluster): {}", names(&QueueDiscipline::NAMES));
}

/// `atlahs lint`: the workspace determinism audit (docs/DETERMINISM.md).
/// Exits non-zero on any unannotated violation or stale, malformed or
/// refused `det-lint` annotation.
fn lint(cli: Cli<'_>) {
    let explicit = cli.args.get_str("root", "");
    let root = if explicit.is_empty() {
        // Walk upward from the current directory to the workspace root.
        let mut dir = std::env::current_dir().expect("current dir");
        while !(dir.join("crates").is_dir() && dir.join("ci.sh").is_file()) {
            if !dir.pop() {
                cli.fail("no workspace root found above the current directory".into());
            }
        }
        dir
    } else {
        std::path::PathBuf::from(explicit)
    };
    if !root.join("crates").is_dir() {
        cli.fail(format!("`{}` is not the workspace root (no crates/)", root.display()));
    }
    let report = atlahs_lint::run(&root)
        .unwrap_or_else(|e| cli.fail(format!("audit failed to read the workspace: {e}")));
    for f in &report.findings {
        println!("{f}");
    }
    println!(
        "atlahs lint: {} crates, {} files, {} allow annotations honoured, {} finding{}",
        report.crates_scanned,
        report.files_scanned,
        report.annotations_used,
        report.findings.len(),
        if report.findings.len() == 1 { "" } else { "s" },
    );
    if !report.is_clean() {
        std::process::exit(1);
    }
}

/// The flags each subcommand reads. Anything else is refused: a mistyped
/// flag must not silently run the default grid.
const SWEEP_FLAGS: &str = "--topos --workloads --ccs --placements --backends --faults --seed \
     --threads --collect-flows --branch-at --out --csv --md --quiet";
const CLUSTER_FLAGS: &str = "--topo --catalog --arrivals --queues --placements --ccs --backends \
     --faults --seed --threads --out --csv --md --quiet";

/// The shared head of `sweep` and `cluster`: say what expansion
/// dropped, refuse an empty grid, read `--threads`, print the header
/// line (`shape` names the axes that were crossed).
fn expanded<C>(
    cli: &Cli<'_>,
    (cells, dropped): (Vec<C>, Vec<String>),
    dropped_what: &str,
    shape: String,
    seed: u64,
) -> (Vec<C>, usize) {
    for reason in &dropped {
        eprintln!("atlahs {}: skipping {dropped_what}: {reason}", cli.sub);
    }
    if cells.is_empty() {
        cli.fail("the grid expanded to zero feasible cells".into());
    }
    let threads = cli.number("threads", 0usize);
    if !cli.args.flag("quiet") {
        println!(
            "# atlahs {} — {} cells ({shape}), seed {seed}, threads {}",
            cli.sub,
            cells.len(),
            if threads == 0 { "auto".to_string() } else { threads.to_string() },
        );
    }
    (cells, threads)
}

/// The shared tail of `sweep` and `cluster`: the summary table and
/// the JSON/CSV/markdown reports the flags ask for.
fn emit(
    cli: &Cli<'_>,
    cells: usize,
    elapsed: Duration,
    cell_wall: Duration,
    table: Table,
    [json, csv, markdown]: [&dyn Fn() -> String; 3],
) {
    let quiet = cli.args.flag("quiet");
    if !quiet {
        table.print();
        println!(
            "\n{cells} cells in {:.2} s wall ({:.2} s of single-threaded cell time)",
            elapsed.as_secs_f64(),
            cell_wall.as_secs_f64(),
        );
    }
    for (flag, what, render) in
        [("out", "JSON", json), ("csv", "CSV", csv), ("md", "markdown", markdown)]
    {
        let path = cli.args.get_str(flag, "");
        if path.is_empty() {
            continue;
        }
        std::fs::write(&path, render()).unwrap_or_else(|e| {
            eprintln!("atlahs {}: cannot write {what} report to {path}: {e}", cli.sub);
            std::process::exit(1);
        });
        if !quiet {
            println!("wrote {what} report: {path}");
        }
    }
}

fn sweep(cli: Cli<'_>) {
    let args = cli.args;
    let grid = ScenarioGrid {
        topologies: cli.axis("topos", "ai-fattree:16:1,ai-fattree:16:4", TopologySpec::parse),
        workloads: cli.axis(
            "workloads",
            "ring:16:262144:1,moe:16:4:262144:2:5000",
            WorkloadSpec::parse,
        ),
        ccs: cli.axis("ccs", "mprdma,ndp", parse_cc),
        placements: cli.axis("placements", "packed", PlacementSpec::parse),
        backends: cli.axis("backends", "htsim,lgs", BackendFamily::parse),
        faults: cli.axis("faults", "none", |tok| FaultSpec::parse(tok)?.in_sweep()),
        seed: cli.number("seed", 1),
        collect_flows: args.flag("collect-flows"),
    };

    // Branch-and-continue: `--branch-at <ns>` simulates each shared
    // prefix (same topology/workload/placement/backend) once, snapshots,
    // and fans out into per-cell continuations whose `--faults` value is
    // applied *at the branch point*.
    let branch_at = cli.number("branch-at", 0);

    let shape = format!(
        "{} topologies x {} workloads x {} placements x {} backend specs",
        grid.topologies.len(),
        grid.workloads.len(),
        grid.placements.len(),
        grid.backends.len(),
    );
    let (cells, threads) =
        expanded(&cli, grid.expand_counted(), "infeasible combination", shape, grid.seed);

    let t0 = Instant::now();
    let (results, branch) = if branch_at > 0 {
        let (results, stats) = execute_branched(&cells, branch_at, threads);
        if !args.flag("quiet") {
            println!(
                "# branch-and-continue at {branch_at} ns: {} shared prefixes for {} cells",
                stats.prefix_runs,
                cells.len(),
            );
        }
        (results, Some(stats))
    } else {
        (execute(&cells, threads), None)
    };
    let elapsed = t0.elapsed();
    let report = SweepReport { seed: grid.seed, results, branch };
    emit(
        &cli,
        report.results.len(),
        elapsed,
        report.total_cell_wall(),
        report.summary_table(),
        [&|| report.to_json().pretty(), &|| report.to_csv(), &|| report.to_markdown()],
    );
}

fn cluster(cli: Cli<'_>) {
    let mut topos = cli.axis("topo", "ai-fattree:16:4", TopologySpec::parse);
    if topos.len() != 1 {
        cli.fail("--topo takes exactly one fabric".into());
    }
    let grid = ClusterGrid {
        topology: topos.pop().expect("checked above"),
        catalog: cli.axis("catalog", "ring:4:131072:1,incast:3:65536:1", |tok| {
            match WorkloadSpec::parse(tok)? {
                WorkloadSpec::MultiJob { .. } => {
                    Err(format!("catalog entries are single jobs, `{tok}` is several"))
                }
                single => Ok(single),
            }
        }),
        arrivals: cli.axis("arrivals", "poisson:12:200000", ArrivalSpec::parse),
        queues: cli.axis("queues", "fifo", QueueDiscipline::parse),
        placements: cli.axis("placements", "packed", PlacementSpec::parse),
        ccs: cli.axis("ccs", "mprdma", parse_cc),
        backends: cli.axis("backends", "lgs,ideal", BackendFamily::parse),
        faults: cli.axis("faults", "none", |tok| FaultSpec::parse(tok)?.in_cluster()),
        seed: cli.number("seed", 1),
    };

    let shape = format!(
        "{} arrival specs x {} queues x {} placements x {} backend families on {}",
        grid.arrivals.len(),
        grid.queues.len(),
        grid.placements.len(),
        grid.backends.len(),
        grid.topology.label(),
    );
    let (cells, threads) =
        expanded(&cli, grid.expand_counted(), "oversized catalog workload", shape, grid.seed);

    let t0 = Instant::now();
    let results = run_grid(&cells, threads);
    let elapsed = t0.elapsed();
    let report = ClusterReport { seed: grid.seed, results };
    emit(
        &cli,
        report.results.len(),
        elapsed,
        report.total_cell_wall(),
        report.summary_table(),
        [&|| report.to_json().pretty(), &|| report.to_csv(), &|| report.to_markdown()],
    );
}

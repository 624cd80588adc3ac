//! The unified `atlahs` CLI: declarative scenario sweeps over the whole
//! toolchain (docs/SCENARIOS.md).
//!
//! ```text
//! atlahs sweep [--topos t1,t2] [--workloads w1,w2] [--ccs c1,c2]
//!              [--placements p1,p2] [--backends b1,b2] [--faults f1,f2]
//!              [--seed N] [--threads N] [--collect-flows]
//!              [--out report.json] [--csv report.csv] [--md report.md]
//!              [--quiet] [--smoke] [--fault-smoke] [--stochastic-smoke]
//! atlahs cluster [--topo t] [--catalog w1,w2] [--arrivals a1,a2]
//!                [--queues q1,q2] [--placements p1,p2] [--ccs c1,c2]
//!                [--backends b1,b2] [--faults f1,f2] [--seed N]
//!                [--threads N]
//!                [--out report.json] [--csv report.csv] [--md report.md]
//!                [--quiet] [--smoke] [--fault-smoke]
//! atlahs lint [--root DIR]
//! atlahs list
//! atlahs help
//! ```
//!
//! `sweep` expands the cartesian grid, runs every cell across OS threads
//! (each cell a deterministic single-threaded simulation with a derived
//! seed), prints a summary table, and optionally writes the JSON/CSV/
//! markdown reports. The JSON report is byte-identical regardless of
//! `--threads`. `--smoke` runs the fixed CI grid (ci.sh diffs its JSON
//! against `tests/goldens/sweep_smoke.json`); `--fault-smoke` runs the
//! fixed fault-injection grid (diffed against
//! `tests/goldens/fault_smoke.json`); `--stochastic-smoke` runs the
//! fixed per-packet stochastic link-model grid (diffed against
//! `tests/goldens/stochastic_smoke.json`).
//!
//! `cluster` runs the dynamic multi-tenant engine: a seeded job-arrival
//! process over a workload catalog, an online allocator with queueing and
//! backfill, per-job wait/completion/slowdown metrics (docs/SCENARIOS.md).
//! Same determinism guarantee; `--smoke` runs the fixed CI grid diffed
//! against `tests/goldens/cluster_smoke.json`, and `--fault-smoke` the
//! fixed failure-injection grid diffed against
//! `tests/goldens/cluster_fault_smoke.json`.
//!
//! `lint` runs the offline determinism audit (docs/DETERMINISM.md): a
//! static pass over every non-shim crate banning floats, default-hashed
//! maps, hash-order iteration, wall clocks, ambient randomness and
//! `unsafe` from result-affecting code, honouring
//! `// det-lint: allow(<rule>) — <reason>` annotations, and checking
//! golden-file hygiene. Exits 1 on any finding (a ci.sh stage).

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use atlahs_bench::args::Args;
use atlahs_bench::branch::execute_branched;
use atlahs_bench::cluster::{
    run_grid, ArrivalSpec, ClusterFaultSpec, ClusterGrid, ClusterReport, QueueDiscipline,
};
use atlahs_bench::scenario::{
    parse_cc, BackendFamily, FaultSpec, PlacementSpec, ScenarioGrid, TopologySpec, WorkloadSpec,
};
use atlahs_bench::smoke;
use atlahs_bench::sweep::{execute, SweepReport};
use atlahs_bench::table::Table;

fn main() {
    let mut argv: Vec<String> = std::env::args().collect();
    // Pull the subcommand out so `Args` sees only `--flag value` pairs.
    let sub =
        if argv.len() > 1 && !argv[1].starts_with("--") { argv.remove(1) } else { String::new() };
    let args = Args::from_tokens(argv);

    match sub.as_str() {
        "sweep" => sweep(&args),
        "cluster" => cluster(&args),
        "lint" => lint(&args),
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
         atlahs lint [--root DIR]\n  atlahs list\n\n\
         LINT (docs/DETERMINISM.md):\n\
         \x20 the static determinism audit: bans floats, default-hashed maps,\n\
         \x20 hash-order iteration, wall clocks, ambient randomness and unsafe\n\
         \x20 from result-affecting crates; checks det-lint annotations and\n\
         \x20 golden hygiene. Exits 1 on any finding (runs as a ci.sh stage).\n\n\
         SWEEP AXES (comma-separated; see `atlahs list` and docs/SCENARIOS.md):\n\
         \x20 --topos      topologies   (default ai-fattree:16:1,ai-fattree:16:4)\n\
         \x20 --workloads  workloads    (default ring:16:262144:1,moe:16:4:262144:2:5000)\n\
         \x20 --ccs        congestion controls for htsim (default mprdma,ndp)\n\
         \x20 --placements placements   (default packed)\n\
         \x20 --backends   backend families (default htsim,lgs)\n\
         \x20 --faults     fault regimes  (default none; see `atlahs list`)\n\n\
         CLUSTER AXES (dynamic multi-tenant engine; docs/SCENARIOS.md):\n\
         \x20 --topo       the shared fabric (default ai-fattree:16:4)\n\
         \x20 --catalog    workload catalog arrivals draw from\n\
         \x20              (default ring:4:131072:1,incast:3:65536:1)\n\
         \x20 --arrivals   poisson:<jobs>:<mean_gap_ns> | trace:<t0>;<t1>;…\n\
         \x20              (default poisson:12:200000)\n\
         \x20 --queues     fifo | smallest (default fifo)\n\
         \x20 --placements / --ccs / --backends as for sweep (default packed /\n\
         \x20              mprdma / lgs,ideal)\n\
         \x20 --faults     none | jobfail:<pct>:<at_pct>:<retries> |\n\
         \x20              mtbf:<mtbf_ns>:<retries> | loss:<ppm>[:core|:edge] |\n\
         \x20              jitter:exp|weibull|uniform:… (htsim only; default none)\n\n\
         EXECUTION:\n\
         \x20 --seed N         grid seed; every cell derives its own (default 1)\n\
         \x20 --threads N      worker threads; 0 = all cores (default 0)\n\
         \x20 --collect-flows  record per-flow MCT statistics (sweep only)\n\
         \x20 --smoke          run the fixed CI smoke grid (ignores axis flags)\n\
         \x20 --fault-smoke    run the fixed fault-injection grid\n\
         \x20 --stochastic-smoke  run the fixed per-packet stochastic grid\n\
         \x20                  (sweep only)\n\
         \x20 --branch-at NS   branch-and-continue: simulate each shared prefix\n\
         \x20                  (topology+workload+placement+backend) once, snapshot,\n\
         \x20                  apply each cell's fault at NS, re-simulate only the\n\
         \x20                  suffix (sweep only)\n\
         \x20 --branch F1,F2   extra fault regimes applied only at the branch point\n\
         \x20                  (appended to --faults; requires --branch-at)\n\
         \x20 --branch-smoke   run the fixed branched CI grid at its pinned\n\
         \x20                  branch time\n\n\
         OUTPUT:\n\
         \x20 --out FILE   write the deterministic JSON report\n\
         \x20 --csv FILE   write the CSV report\n\
         \x20 --md FILE    write the markdown report\n\
         \x20 --quiet      suppress the summary table"
    );
}

fn list() {
    println!(
        "topologies:\n\
         \x20 ai-fattree:<nodes>[:<oversub>]        200 Gb/s Alps-class fat tree\n\
         \x20 hpc-fattree:<procs>:<nodes>           56 Gb/s CSCS-class fat tree\n\
         \x20 storage-fattree:<hosts>[:<oversub>]   100 Gb/s Direct Drive fabric\n\
         \x20 dragonfly:<groups>:<routers>:<hosts>  balanced dragonfly\n\
         \x20 switch:<hosts>                        single crossbar switch\n\
         workloads:\n\
         \x20 ring:<ranks>:<bytes>:<laps>\n\
         \x20 perm:<ranks>:<bytes>:<shift>:<repeat>\n\
         \x20 uniform:<ranks>:<bytes>:<msgs>\n\
         \x20 incast:<ranks>:<bytes>:<repeat>\n\
         \x20 moe:<ranks>:<group>:<bytes>:<layers>:<compute_ns>\n\
         \x20 pipeline:<stages>:<microbatches>:<bytes>:<compute_ns>\n\
         \x20 storage-incast:<clients>:<servers>:<bytes>:<reads>\n\
         \x20 llm:<preset>:<scale>[:<iterations>:<cap_batch>]   (default 1:true)\n\
         \x20   presets: llama7b-dp16 llama7b-dp128 llama70b mistral8x7b moe8x13b moe8x70b\n\
         \x20 hpc:<app>:<procs>:<nodes>:<scale>   apps: cloverleaf hpcg lulesh\n\
         \x20                                           lammps icon openmx\n\
         \x20 storage:<ops>:<gap_ns>:<compress>\n\
         \x20 multi[<workload>+<workload>+…]   co-scheduled jobs on one fabric (sweep only)\n\
         ccs:        mprdma swift ndp dctcp\n\
         placements: packed random roundrobin\n\
         backends:   htsim htsim-spray lgs ideal\n\
         faults (sweep):\n\
         \x20 none\n\
         \x20 linkflap:<links>:<down_ns>:<up_ns>              (htsim only)\n\
         \x20 degrade:<links>:<bw_pct>:<lat_pct>:<from_ns>:<to_ns>  (htsim only)\n\
         \x20 straggler:<prob_pct>:<factor_pct>[:<spread_pct>:<shape>]  (lgs only)\n\
         \x20 markov:<links>:<up_ns>:<down_ns>:<horizon_ns>   (htsim only)\n\
         \x20 rackfail:<racks>:<from_ns>:<to_ns>              (htsim only)\n\
         \x20 switchfail:<switches>:<from_ns>:<to_ns>         (htsim only)\n\
         \x20 churn:<t;dom;d|u,...> | churn:@<trace-file>     (htsim only)\n\
         \x20 loss:<ppm>[:core|:edge]                         (htsim only)\n\
         \x20 jitter:exp:<mean_ns> | jitter:weibull:<scale_ns>:<shape>\n\
         \x20   | jitter:uniform:<max_ns>                     (htsim only)\n\
         arrivals (cluster): poisson:<jobs>:<mean_gap_ns>  trace:<t0>;<t1>;…\n\
         queues (cluster):   fifo smallest\n\
         faults (cluster):   none  jobfail:<pct>:<at_pct>:<retries>\n\
         \x20                   mtbf:<mtbf_ns>:<retries>  loss:…  jitter:…"
    );
}

/// `atlahs lint`: the workspace determinism audit (docs/DETERMINISM.md).
/// Exits non-zero on any unannotated violation, stale or malformed
/// `det-lint` annotation, or golden-hygiene failure.
fn lint(args: &Args) {
    let root = {
        let explicit = args.get_str("root", "");
        if explicit.is_empty() {
            find_workspace_root()
        } else {
            std::path::PathBuf::from(explicit)
        }
    };
    if !root.join("crates").is_dir() {
        eprintln!("atlahs lint: `{}` is not the workspace root (no crates/)", root.display());
        std::process::exit(2);
    }
    let report = match atlahs_lint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("atlahs lint: audit failed to read the workspace: {e}");
            std::process::exit(2);
        }
    };
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

/// Walk upward from the current directory to the workspace root.
fn find_workspace_root() -> std::path::PathBuf {
    let mut d = std::env::current_dir().expect("current dir");
    loop {
        if d.join("crates").is_dir() && d.join("ci.sh").is_file() {
            return d;
        }
        if !d.pop() {
            eprintln!("atlahs lint: no workspace root found above the current directory");
            std::process::exit(2);
        }
    }
}

fn split_list(s: &str) -> Vec<&str> {
    s.split(',').map(str::trim).filter(|t| !t.is_empty()).collect()
}

/// The subcommand being run and its flags: what axis parsing and report
/// emission need to read input and to name themselves in errors.
struct Cli<'a> {
    sub: &'a str,
    args: &'a Args,
}

impl Cli<'_> {
    /// Parse the comma-separated axis `--flag`.
    fn axis<T>(
        &self,
        flag: &str,
        default: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Vec<T> {
        let raw = self.args.get_str(flag, default);
        split_list(&raw)
            .into_iter()
            .map(|tok| {
                parse(tok).unwrap_or_else(|e| {
                    eprintln!("atlahs {}: --{flag}: {e}", self.sub);
                    std::process::exit(2);
                })
            })
            .collect()
    }

    /// The shared tail of `sweep` and `cluster`: the summary table and
    /// the JSON/CSV/markdown reports the flags ask for.
    fn emit(
        &self,
        cells: usize,
        elapsed: Duration,
        cell_wall: Duration,
        table: Table,
        reports: [(&str, &str, &dyn Fn() -> String); 3],
    ) {
        let quiet = self.args.flag("quiet");
        if !quiet {
            table.print();
            println!(
                "\n{cells} cells in {:.2} s wall ({:.2} s of single-threaded cell time)",
                elapsed.as_secs_f64(),
                cell_wall.as_secs_f64(),
            );
        }
        for (flag, what, render) in reports {
            let path = self.args.get_str(flag, "");
            if path.is_empty() {
                continue;
            }
            std::fs::write(&path, render()).unwrap_or_else(|e| {
                eprintln!("atlahs {}: cannot write {what} report to {path}: {e}", self.sub);
                std::process::exit(1);
            });
            if !quiet {
                println!("wrote {what} report: {path}");
            }
        }
    }
}

fn sweep(args: &Args) {
    let cli = Cli { sub: "sweep", args };
    let grid = if args.flag("branch-smoke") {
        smoke::branch_smoke_grid()
    } else if args.flag("stochastic-smoke") {
        smoke::stochastic_smoke_grid()
    } else if args.flag("fault-smoke") {
        smoke::fault_smoke_grid()
    } else if args.flag("smoke") {
        smoke::sweep_smoke_grid()
    } else {
        ScenarioGrid {
            topologies: cli.axis("topos", "ai-fattree:16:1,ai-fattree:16:4", TopologySpec::parse),
            workloads: cli.axis(
                "workloads",
                "ring:16:262144:1,moe:16:4:262144:2:5000",
                WorkloadSpec::parse,
            ),
            ccs: cli.axis("ccs", "mprdma,ndp", parse_cc),
            placements: cli.axis("placements", "packed", PlacementSpec::parse),
            backends: cli.axis("backends", "htsim,lgs", BackendFamily::parse),
            faults: cli.axis("faults", "none", FaultSpec::parse),
            seed: args.seed(),
            collect_flows: args.flag("collect-flows"),
        }
    };

    // Branch-and-continue: `--branch-at <ns>` simulates each shared
    // prefix (same topology/workload/placement/backend) once, snapshots,
    // and fans out into per-cell continuations whose fault axis is
    // applied *at the branch point*. `--branch <faults>` appends what-if
    // override values to the fault axis; `--branch-smoke` runs the fixed
    // CI branch grid at its pinned branch time.
    let mut grid = grid;
    if !args.get_str("branch", "").is_empty() {
        if args.get("branch-at", 0u64) == 0 && !args.flag("branch-smoke") {
            eprintln!("atlahs sweep: --branch requires --branch-at <ns>");
            std::process::exit(2);
        }
        grid.faults.extend(cli.axis("branch", "", FaultSpec::parse));
    }
    let grid = grid;
    let branch_at = if args.flag("branch-smoke") {
        args.get("branch-at", smoke::BRANCH_SMOKE_AT)
    } else {
        args.get("branch-at", 0u64)
    };

    let (cells, dropped) = grid.expand_counted();
    for reason in &dropped {
        eprintln!("atlahs sweep: skipping infeasible combination: {reason}");
    }
    if cells.is_empty() {
        eprintln!("atlahs sweep: the grid expanded to zero feasible cells");
        std::process::exit(2);
    }
    let threads = args.get("threads", 0usize);
    let quiet = args.flag("quiet");

    if !quiet {
        println!(
            "# atlahs sweep — {} cells ({} topologies x {} workloads x {} placements x \
             {} backend specs), seed {}, threads {}",
            cells.len(),
            grid.topologies.len(),
            grid.workloads.len(),
            grid.placements.len(),
            grid.backends.len(),
            grid.seed,
            if threads == 0 { "auto".to_string() } else { threads.to_string() },
        );
    }

    let t0 = Instant::now();
    let (results, branch) = if branch_at > 0 {
        let (results, stats) = execute_branched(&cells, branch_at, threads);
        if !quiet {
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
    cli.emit(
        report.results.len(),
        elapsed,
        report.total_cell_wall(),
        report.summary_table(),
        [
            ("out", "JSON", &|| report.to_json().pretty()),
            ("csv", "CSV", &|| report.to_csv()),
            ("md", "markdown", &|| report.to_markdown()),
        ],
    );
}

fn cluster(args: &Args) {
    let cli = Cli { sub: "cluster", args };
    let grid = if args.flag("fault-smoke") {
        smoke::cluster_fault_smoke_grid()
    } else if args.flag("smoke") {
        smoke::cluster_smoke_grid()
    } else {
        let topos = cli.axis("topo", "ai-fattree:16:4", TopologySpec::parse);
        if topos.len() != 1 {
            eprintln!("atlahs cluster: --topo takes exactly one fabric");
            std::process::exit(2);
        }
        ClusterGrid {
            topology: topos.into_iter().next().expect("checked above"),
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
            faults: cli.axis("faults", "none", ClusterFaultSpec::parse),
            seed: args.seed(),
        }
    };

    let (cells, dropped) = grid.expand_counted();
    for reason in &dropped {
        eprintln!("atlahs cluster: skipping oversized catalog workload: {reason}");
    }
    if cells.is_empty() {
        eprintln!("atlahs cluster: the grid expanded to zero feasible cells");
        std::process::exit(2);
    }
    let threads = args.get("threads", 0usize);
    let quiet = args.flag("quiet");

    if !quiet {
        println!(
            "# atlahs cluster — {} cells ({} arrival specs x {} queues x {} placements x \
             {} backend families) on {}, seed {}, threads {}",
            cells.len(),
            grid.arrivals.len(),
            grid.queues.len(),
            grid.placements.len(),
            grid.backends.len(),
            grid.topology.label(),
            grid.seed,
            if threads == 0 { "auto".to_string() } else { threads.to_string() },
        );
    }

    let t0 = Instant::now();
    let results = run_grid(&cells, threads);
    let elapsed = t0.elapsed();
    let report = ClusterReport { seed: grid.seed, results };
    cli.emit(
        report.results.len(),
        elapsed,
        report.total_cell_wall(),
        report.summary_table(),
        [
            ("out", "JSON", &|| report.to_json().pretty()),
            ("csv", "CSV", &|| report.to_csv()),
            ("md", "markdown", &|| report.to_markdown()),
        ],
    );
}

//! **E3 / Fig. 8** — AI validation: measured vs predicted training
//! iteration time for six LLM configurations, against ATLAHS LGS, ATLAHS
//! htsim, and the AstraSim-class baseline.
//!
//! Also **E5 (§5.2)** with `--timing`: simulator wall-clock comparison
//! (the paper's 13.9× / 2.7× LGS-over-AstraSim speedups).
//!
//! ```text
//! cargo run --release --bin fig08_ai_validation -- [--scale 0.002] [--seed 1] [--timing] [--full]
//! ```
//!
//! Expected shape (paper): both ATLAHS backends within ±5% of measured;
//! AstraSim executes only for the two pure-DP Llama 7B configurations
//! (every other run aborts with "src and dest have the same address") and
//! overpredicts on those two; ATLAHS LGS simulates faster than AstraSim.

#![forbid(unsafe_code)]

use atlahs_baselines::{chakra, AstraSim, AstraSystemConfig};
use atlahs_bench::args::Args;
use atlahs_bench::runner::{self, timed};
use atlahs_bench::table::{fmt_pct, pct_err, Table};
use atlahs_bench::workloads;
use atlahs_htsim::CcAlgo;

fn main() {
    let args = Args::parse();
    let scale = args.scale(0.002);
    let seed = args.seed();
    let quick = !args.flag("full");
    let timing = args.flag("timing");

    println!("# Fig. 8 — AI validation (scale={scale}, seed={seed}, quick={quick})");
    println!("# measured = fluid-flow testbed emulator (docs/ARCHITECTURE.md, Backends); times per training run\n");

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
    let mut timing_rows = Vec::new();

    for case in workloads::ai_suite(scale, quick, seed) {
        let (report, goal) = workloads::ai_goal(&case.cfg);
        let topo = workloads::ai_topology(case.cfg.nodes() as usize);

        let (measured, _) = runner::run_testbed(&goal, topo.clone(), seed);
        let comp_ns = runner::compute_only_ns(&goal);
        let nonovl = comp_ns as f64 / measured.makespan as f64 * 100.0;

        let (lgs, lgs_wall) =
            runner::run_lgs(&goal, workloads::ai_lgs_params(case.cfg.nodes() as usize));
        let ht = runner::run_htsim_ai(&goal, topo, CcAlgo::Mprdma, seed);

        // The baseline replays its own Chakra conversion of the same trace.
        let et = chakra::from_nsys(&report);
        let astra_cfg = AstraSystemConfig {
            gpus_per_node: case.cfg.gpus_per_node,
            ..AstraSystemConfig::default()
        };
        let (astra, astra_wall) = timed(|| AstraSim::new(astra_cfg).run(&et));

        let (astra_cell, astra_err) = match &astra {
            Ok(rep) => (
                format!("{:.3} ms", rep.makespan_ns as f64 / 1e6),
                fmt_pct(pct_err(measured.makespan, rep.makespan_ns)),
            ),
            Err(e) => {
                let msg = e.to_string();
                let short = msg.split(": ").last().unwrap_or(&msg).to_string();
                (short, "—".to_string())
            }
        };

        table.row([
            case.name.clone(),
            case.geometry.clone(),
            case.parallelism.clone(),
            format!("{:.3} ms", measured.makespan as f64 / 1e6),
            format!("{nonovl:.1}%"),
            format!("{:.3} ms", lgs.makespan as f64 / 1e6),
            fmt_pct(pct_err(measured.makespan, lgs.makespan)),
            format!("{:.3} ms", ht.report.makespan as f64 / 1e6),
            fmt_pct(pct_err(measured.makespan, ht.report.makespan)),
            astra_cell,
            astra_err,
        ]);

        if timing {
            timing_rows.push((
                format!("{} {}", case.name, case.geometry),
                lgs_wall,
                ht.wall,
                astra.is_ok().then_some(astra_wall),
            ));
        }
    }
    table.print();

    if timing {
        println!("\n# §5.2 — simulation wall-clock (same runs as above)");
        let mut t =
            Table::new(["workload", "ATLAHS LGS", "ATLAHS htsim", "AstraSim", "LGS speedup"]);
        for (name, lgs, ht, astra) in timing_rows {
            let (astra_cell, speedup) = match astra {
                Some(a) => (
                    format!("{:.3} s", a.as_secs_f64()),
                    format!("{:.1}x", a.as_secs_f64() / lgs.as_secs_f64().max(1e-9)),
                ),
                None => ("failed".to_string(), "—".to_string()),
            };
            t.row([
                name,
                format!("{:.3} s", lgs.as_secs_f64()),
                format!("{:.3} s", ht.as_secs_f64()),
                astra_cell,
                speedup,
            ]);
        }
        t.print();
    }
}

//! The ATLAHS benchmark: host time of the three paper pipelines, two
//! packet regimes and three grid executors, end to end and layer by
//! layer. See `README.md` beside this package.
//!
//! ```text
//! atlahs_benchmark [--seed N] [--reps N] [--workload NAME]... [--quick] [--out FILE]
//! atlahs_benchmark --workload NAME --seed N --seconds S --trace 0|1
//! atlahs_benchmark --compare PARENT.tsv CHANGE.tsv
//! ```
//!
//! The first form prints the full report; the second is what the
//! repository's benchmark driver calls (one workload, one JSON result as
//! the last line); the third judges an A/B experiment made by `ab.sh`.

#![forbid(unsafe_code)]

mod child;
mod compare;
mod fidelity;
mod metrics;
mod parent;
mod probes;
mod span;
mod stats;
mod timed;
mod workloads;

use workloads::Workload;

const USAGE: &str = "usage:
  atlahs_benchmark [--seed N] [--reps N] [--workload NAME]... [--quick] [--out FILE]
      full report: every workload (or the named ones) --reps times interleaved,
      one fresh process per run, plus one traced run per workload
  atlahs_benchmark --workload NAME --seed N --seconds S --trace 0|1
      driver contract: measure one workload for S seconds; the last line of
      standard output is one JSON result (--trace 1: per-layer metrics)
  atlahs_benchmark --compare PARENT.tsv CHANGE.tsv
      verdicts of an A/B experiment recorded by benchmark/ab.sh";

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Cli {
    child: bool,
    compare: Option<(String, String)>,
    workloads: Vec<Workload>,
    seed: Option<u64>,
    reps: Option<usize>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value =
            |what: &str| it.next().cloned().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--child" => cli.child = true,
            "--quick" => cli.quick = true,
            "--workload" => cli.workloads.push(Workload::parse(&value("a workload name")?)?),
            "--seed" => {
                let v = value("a number")?;
                cli.seed = Some(v.parse().map_err(|_| format!("--seed: bad number `{v}`"))?);
            }
            "--reps" => {
                let v = value("a number")?;
                let n: usize = v.parse().map_err(|_| format!("--reps: bad number `{v}`"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                cli.reps = Some(n);
            }
            "--seconds" => {
                let v = value("a number")?;
                let s: f64 = v.parse().map_err(|_| format!("--seconds: bad number `{v}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, not `{v}`"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                // `--trace 0|1`, or bare `--trace` meaning 1.
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => cli.out = Some(value("a file name")?),
            "--compare" => cli.compare = Some((value("two files")?, value("two files")?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.child && cli.workloads.len() != 1 {
        return Err("--child takes exactly one --workload".into());
    }
    if cli.seconds.is_some() && cli.workloads.len() != 1 {
        return Err("--seconds measures exactly one --workload".into());
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("atlahs_benchmark: {e}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let seed = cli.seed.unwrap_or(1);
    let code = if let Some((parent, change)) = &cli.compare {
        match compare::main(parent, change) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("atlahs_benchmark --compare: {e}");
                1
            }
        }
    } else if cli.child {
        child::main(cli.workloads[0], seed, cli.trace, cli.quick)
    } else if let Some(seconds) = cli.seconds {
        parent::contract(cli.workloads[0], seed, seconds, cli.trace, cli.quick)
    } else {
        let workloads =
            if cli.workloads.is_empty() { Workload::ALL.to_vec() } else { cli.workloads };
        // `--quick` is a smoke test of the harness: one repetition.
        let reps = cli.reps.unwrap_or(if cli.quick { 1 } else { 5 });
        parent::report(&workloads, seed, reps, cli.quick, cli.out.as_deref())
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_contract_arguments_parse() {
        let c =
            cli(&["--workload", "sweep_grid", "--seed", "42", "--seconds", "10", "--trace", "1"])
                .unwrap();
        assert_eq!(c.workloads, vec![Workload::SweepGrid]);
        assert_eq!((c.seed, c.seconds, c.trace), (Some(42), Some(10.0), true));
        let c = cli(&["--workload", "sweep_grid", "--seconds", "3", "--trace", "0"]).unwrap();
        assert!(!c.trace);
    }

    #[test]
    fn report_arguments_parse() {
        let c = cli(&[
            "--workload",
            "ai_lgs_trace",
            "--workload",
            "branch_grid",
            "--reps",
            "3",
            "--quick",
            "--trace",
            "--out",
            "r.json",
        ])
        .unwrap();
        assert_eq!(c.workloads, vec![Workload::AiLgsTrace, Workload::BranchGrid]);
        assert_eq!((c.reps, c.quick, c.trace), (Some(3), true, true));
        assert_eq!(c.out.as_deref(), Some("r.json"));
        assert_eq!(cli(&[]).unwrap(), Cli::default());
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(cli(&["--workload", "nope"]).unwrap_err().contains("unknown workload `nope`"));
        assert!(cli(&["--frobnicate"]).unwrap_err().contains("unknown argument"));
        assert!(cli(&["--seed"]).unwrap_err().contains("needs"));
        assert!(cli(&["--seed", "x"]).unwrap_err().contains("bad number"));
        assert!(cli(&["--reps", "0"]).unwrap_err().contains("at least 1"));
        assert!(cli(&["--seconds", "-1", "--workload", "sweep_grid"]).is_err());
        assert!(cli(&["--seconds", "5"]).unwrap_err().contains("exactly one"));
        assert!(cli(&["--child"]).unwrap_err().contains("exactly one"));
        assert!(cli(&["--compare", "a"]).unwrap_err().contains("two files"));
    }
}

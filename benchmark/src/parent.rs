//! The parent process: spawns one fresh child per run, judges the runs,
//! and reports medians.
//!
//! Two front ends share it. The *contract* front end (`--seconds`) is what
//! the repository's benchmark driver calls: one workload, children spawned
//! until the requested seconds have been measured, one JSON result as the
//! last line. The *report* front end (no `--seconds`) interleaves all
//! workloads `--reps` times, adds one traced run each, and prints every
//! metric with its spread, the fidelity block and the interaction checks.

use std::process::{Command, Stdio};
use std::time::Instant;

use atlahs_bench::json::Json;
use atlahs_bench::table::Table;

use crate::child::{one_line, ChildResult};
use crate::fidelity::{self, Fidelity};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, Summary};
use crate::workloads::Workload;

/// The seed `expected.json` pins simulated outputs for.
const EXPECTED: &str = include_str!("../expected.json");

/// A single-threaded run whose wall time exceeds its CPU time by more than
/// this factor was descheduled or stalled: it is marked noisy and re-run.
const NOISY_WALL_OVER_CPU: f64 = 1.25;

/// Kernel share of CPU time above which a workload is mis-sized. Fresh
/// memory costs about 1 ms of page-fault time per MiB of peak RSS, which
/// puts the two LGS pipelines at 13-15% at *any* size; the regime this
/// guards against (README, "the nccl2goal cliff") reads 20-35%.
const MAX_KERNEL_SHARE: f64 = 0.18;

/// A contract invocation must end within 180 s; stop spawning well before.
const CONTRACT_DEADLINE_S: f64 = 120.0;

/// One child process and what became of it.
#[derive(Debug, Clone)]
pub struct Run {
    pub result: Result<ChildResult, String>,
    pub noisy: bool,
}

impl Run {
    fn spawn(workload: Workload, seed: u64, traced: bool, quick: bool) -> Run {
        let result = (|| {
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            let mut cmd = Command::new(exe);
            cmd.args(["--child", "--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if quick {
                cmd.arg("--quick");
            }
            // `output` waits for the child, so no process outlives a run.
            let out = cmd
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn: {e}"))?;
            if !out.status.success() {
                return Err(format!("child exited with {}", out.status));
            }
            let r = ChildResult::from_stdout(&String::from_utf8_lossy(&out.stdout))?;
            match r.failure() {
                Some(why) => Err(why),
                None => Ok(r),
            }
        })();
        let noisy = result.as_ref().is_ok_and(|r| {
            workload.threads() == 1 && r.wall_s > NOISY_WALL_OVER_CPU * (r.cpu_user_s + r.cpu_sys_s)
        });
        Run { result, noisy }
    }
}

/// Every run of one workload in this invocation.
#[derive(Debug, Clone)]
pub struct WorkloadRuns {
    pub workload: Workload,
    pub seed: u64,
    pub quick: bool,
    pub untraced: Vec<Run>,
    pub traced: Vec<Run>,
}

impl WorkloadRuns {
    pub fn new(workload: Workload, seed: u64, quick: bool) -> Self {
        WorkloadRuns { workload, seed, quick, untraced: Vec::new(), traced: Vec::new() }
    }

    /// One untraced run; a noisy one is kept and followed by one re-run.
    /// Returns the wall seconds measured.
    pub fn run_untraced(&mut self) -> f64 {
        let mut measured = 0.0;
        for attempt in 0..2 {
            let run = Run::spawn(self.workload, self.seed, false, self.quick);
            measured += run.result.as_ref().map_or(0.0, |r| r.wall_s);
            let again = run.noisy && attempt == 0;
            self.untraced.push(run);
            if !again {
                break;
            }
            eprintln!(
                "  {}: noisy run (wall > 1.25 x CPU), running once more",
                self.workload.name()
            );
        }
        measured
    }

    pub fn run_traced(&mut self) -> f64 {
        let run = Run::spawn(self.workload, self.seed, true, self.quick);
        let measured = run.result.as_ref().map_or(0.0, |r| r.wall_s);
        self.traced.push(run);
        measured
    }

    fn ok_untraced(&self) -> impl Iterator<Item = &ChildResult> {
        self.untraced.iter().filter_map(|r| r.result.as_ref().ok())
    }

    fn ok_traced(&self) -> impl Iterator<Item = &ChildResult> {
        self.traced.iter().filter_map(|r| r.result.as_ref().ok())
    }

    pub fn runs(&self) -> usize {
        self.untraced.len() + self.traced.len()
    }

    /// The fingerprint the runs agree on (the first successful run's).
    fn fingerprint(&self) -> Option<u64> {
        self.ok_untraced().chain(self.ok_traced()).next().map(|r| r.fingerprint)
    }

    /// Runs that errored, broke a check, or simulated something else than
    /// the other runs of this workload and seed.
    pub fn failed_runs(&self) -> usize {
        self.failures().len()
    }

    /// Why each failed run failed.
    pub fn failures(&self) -> Vec<String> {
        let fp = self.fingerprint();
        self.untraced
            .iter()
            .chain(&self.traced)
            .filter_map(|run| match &run.result {
                Err(e) => Some(e.clone()),
                Ok(r) if Some(r.fingerprint) != fp => Some(format!(
                    "fingerprint {:016x} differs from the first run's {:016x}",
                    r.fingerprint,
                    fp.unwrap_or(0)
                )),
                Ok(_) => None,
            })
            .collect()
    }

    /// Values of one end-to-end metric over the successful untraced runs.
    fn values(&self, metric: &str) -> Vec<f64> {
        self.ok_untraced()
            .map(|r| match metric {
                "wall_s" => r.wall_s,
                "setup_s" => r.setup_s,
                "tasks_per_s" => r.tasks_per_s(),
                "peak_rss_mb" => r.peak_rss_mb,
                other => unreachable!("`{other}` is not an end-to-end metric"),
            })
            .collect()
    }

    pub fn summary(&self, metric: &str) -> Option<Summary> {
        Summary::of(&self.values(metric))
    }

    /// 1 if the simulated output differs from `expected.json`, 0 if it
    /// matches, `None` if nothing is pinned for this seed and size.
    pub fn sim_drift(&self) -> Option<u32> {
        let pinned = expected_fingerprint(self.workload, self.seed, self.quick)?;
        Some(u32::from(self.fingerprint()? != pinned))
    }

    /// Median kernel share of CPU time over the untraced runs (one run's
    /// share is only good to a percent or so: `/proc` counts 10 ms ticks).
    fn kernel_share(&self) -> f64 {
        median(&self.ok_untraced().map(ChildResult::kernel_share).collect::<Vec<_>>())
    }

    /// Every per-layer metric by name: the median over the traced runs
    /// (exact counts are equal in all of them), plus the numbers only the
    /// parent knows. A metric off the workload's path reads 0.
    pub fn per_layer(&self, fidelity: &Fidelity) -> Vec<(&'static str, f64)> {
        let untraced_wall = median(&self.values("wall_s"));
        PER_LAYER
            .iter()
            .map(|&(name, _, _)| {
                let from_children: Vec<f64> = self
                    .ok_traced()
                    .filter_map(|r| r.layers.iter().find(|(k, _)| k == name).map(|(_, v)| *v))
                    .collect();
                let value = match name {
                    "trace_overhead_ratio" if untraced_wall > 0.0 => {
                        let traced: Vec<f64> = self.ok_traced().map(|r| r.wall_s).collect();
                        median(&traced) / untraced_wall
                    }
                    "sim_drift" => f64::from(self.sim_drift().unwrap_or(0)),
                    _ => match fidelity.metrics().iter().find(|(k, _)| *k == name) {
                        Some((_, v)) => *v,
                        None => median(&from_children),
                    },
                };
                (name, value)
            })
            .collect()
    }
}

fn expected_fingerprint(workload: Workload, seed: u64, quick: bool) -> Option<u64> {
    let doc = Json::parse(EXPECTED).expect("expected.json is valid JSON");
    let pinned_seed = doc.get("seed").and_then(Json::as_f64).expect("expected.json has a seed");
    if quick || seed as f64 != pinned_seed {
        return None;
    }
    let hex = doc.get("fingerprints")?.get(workload.name())?.as_str()?;
    Some(u64::from_str_radix(hex, 16).expect("expected.json fingerprints are hex"))
}

// ------------------------------------------------------------- contract ----

/// The contract front end: measure one workload for `seconds`, print the
/// runs and, as the last line, one JSON result. Returns the exit code.
pub fn contract(workload: Workload, seed: u64, seconds: f64, traced: bool, quick: bool) -> i32 {
    let started = Instant::now();
    let mut runs = WorkloadRuns::new(workload, seed, quick);
    let mut measured = 0.0;
    while measured < seconds && started.elapsed().as_secs_f64() < CONTRACT_DEADLINE_S {
        let mut step = runs.run_untraced();
        if traced {
            step += runs.run_traced();
        }
        if step == 0.0 {
            break; // every run of this round failed: more of them measure nothing
        }
        measured += step;
    }

    let metrics = if traced {
        let fidelity = fidelity::measure(seed);
        print_fidelity(&fidelity, seed);
        let layers = runs.per_layer(&fidelity);
        print_layers(std::slice::from_ref(&runs), std::slice::from_ref(&layers));
        let mut m = Json::obj();
        for ((name, value), (_, unit, _)) in layers.iter().zip(PER_LAYER) {
            m.set(name, metric_json(*value, unit));
        }
        m
    } else {
        let mut m = Json::obj();
        for def in END_TO_END {
            m.set(def.name, metric_json(median(&runs.values(def.name)), def.unit));
        }
        m
    };
    print_end_to_end(std::slice::from_ref(&runs));

    let failed = runs.failed_runs();
    let attempted = runs.runs().max(1);
    let mut doc = Json::obj();
    doc.set("correct", Json::Bool(failed == 0 && runs.runs() > 0));
    doc.set("attempted", Json::Num(attempted as f64));
    doc.set("failed", Json::Num(failed as f64));
    doc.set("metrics", metrics);
    println!("{}", one_line(&doc));
    0
}

fn metric_json(value: f64, unit: &str) -> Json {
    let mut j = Json::obj();
    j.set("value", Json::Num(value));
    j.set("unit", Json::Str(unit.into()));
    j
}

// --------------------------------------------------------------- report ----

/// The report front end. Returns the exit code (1 if any run failed).
pub fn report(
    workloads: &[Workload],
    seed: u64,
    reps: usize,
    quick: bool,
    out: Option<&str>,
) -> i32 {
    println!(
        "# atlahs benchmark: seed {seed}, {reps} rep(s) per workload, {} core(s) available{}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if quick { ", QUICK sizes: numbers are NOT comparable to full-size runs" } else { "" }
    );
    println!("# all times are host time; simulated quantities are exact counts");
    let mut all: Vec<WorkloadRuns> =
        workloads.iter().map(|&w| WorkloadRuns::new(w, seed, quick)).collect();
    // Interleaved: w1..w7, then again, so slow drift of the host hits
    // every workload alike.
    for rep in 0..reps {
        for runs in &mut all {
            eprintln!("rep {}/{reps}: {}", rep + 1, runs.workload.name());
            runs.run_untraced();
        }
    }
    for runs in &mut all {
        eprintln!("traced: {}", runs.workload.name());
        runs.run_traced();
    }
    let fidelity = fidelity::measure(seed);
    let layers: Vec<Vec<(&'static str, f64)>> =
        all.iter().map(|r| r.per_layer(&fidelity)).collect();

    println!("\n## Workloads");
    for runs in &all {
        println!("  {}: {}", runs.workload.name(), runs.workload.why());
    }
    print_end_to_end(&all);
    print_layers(&all, &layers);
    print_fidelity(&fidelity, seed);
    let checks = interaction_checks(&all, &layers);
    println!("\n## Interaction table, checked against the traced runs");
    for (what, holds) in &checks {
        println!("  [{}] {what}", if *holds { "ok" } else { "NO" });
    }

    if let Some(path) = out {
        let doc = report_json(&all, &layers, &fidelity, &checks, seed, reps, quick);
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("--out {path}: {e}");
            return 1;
        }
        println!("\nwrote {path}");
    }
    i32::from(all.iter().any(|r| r.failed_runs() > 0))
}

fn print_end_to_end(all: &[WorkloadRuns]) {
    println!("\n## End to end (untraced runs; median [min, q1, q3, max] n)");
    let mut table = Table::new(["workload", "metric", "median", "[min, q1, q3, max]", "n"]);
    for runs in all {
        for def in END_TO_END {
            let Some(s) = runs.summary(def.name) else { continue };
            table.row([
                runs.workload.name().to_string(),
                format!("{} ({}, {} is better)", def.name, def.unit, def.better.name()),
                format!("{:.6}", s.median),
                format!("[{:.6}, {:.6}, {:.6}, {:.6}]", s.min, s.q1, s.q3, s.max),
                s.n.to_string(),
            ]);
        }
    }
    table.print();
    println!("  (so few repetitions support no tail percentile; none is reported)");
    for runs in all {
        let noisy = runs.untraced.iter().filter(|r| r.noisy).count();
        let kernel = runs.kernel_share();
        println!(
            "  {}: failed_runs {}/{}  sim_drift {}  noisy {}  kernel share {:.1}%{}  fingerprint {}",
            runs.workload.name(),
            runs.failed_runs(),
            runs.runs(),
            runs.sim_drift().map_or("n/a (seed or size not pinned)".into(), |d| d.to_string()),
            noisy,
            kernel * 100.0,
            if kernel > MAX_KERNEL_SHARE { " (over 18%: SIZING BUG)" } else { "" },
            runs.fingerprint().map_or("none".into(), |f| format!("{f:016x}")),
        );
        for why in runs.failures() {
            println!("    failed: {why}");
        }
    }
}

fn print_layers(all: &[WorkloadRuns], layers: &[Vec<(&'static str, f64)>]) {
    println!("\n## Per layer (traced runs; 0 = the layer is not on that workload's path)");
    let mut header = vec!["metric".to_string(), "unit".to_string()];
    header.extend(all.iter().map(|r| r.workload.name().to_string()));
    let mut table = Table::new(header);
    for (i, (name, unit, _)) in PER_LAYER.iter().enumerate() {
        let mut row = vec![name.to_string(), unit.to_string()];
        row.extend(layers.iter().map(|l| format_value(l[i].1)));
        table.row(row);
    }
    table.print();
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.6}")
    }
}

fn print_fidelity(f: &Fidelity, seed: u64) {
    println!("\n## Fidelity (simulated makespan error; exact, determined by seed {seed})");
    println!("  reference = atlahs_testbed, the in-repo fluid-flow emulator, NOT hardware");
    println!(
        "  llama7b-dp16, 1 iteration: lgs_err_pct {:+.3}  htsim_err_pct {:+.3}",
        f.ai.lgs_err_pct, f.ai.htsim_err_pct
    );
    println!(
        "  LULESH 128 ranks / 8 nodes: lgs_err_pct {:+.3}  htsim_err_pct {:+.3}",
        f.hpc.lgs_err_pct, f.hpc.htsim_err_pct
    );
}

/// What the README's interaction table predicts, as checks on the traced
/// runs of whichever workloads were run.
fn interaction_checks(
    all: &[WorkloadRuns],
    layers: &[Vec<(&'static str, f64)>],
) -> Vec<(String, bool)> {
    let get = |w: Workload, name: &str| -> Option<f64> {
        let i = all.iter().position(|r| r.workload == w)?;
        layers[i].iter().find(|(k, _)| *k == name).map(|(_, v)| *v)
    };
    // Shares are of the program's own time: the traced wall minus what the
    // tracing itself cost.
    let share = |w: Workload, name: &str| {
        Some(get(w, name)? / (get(w, "traced_wall_s")? - get(w, "tracing_self_s")?))
    };
    let ratio = |w: Workload, a: &str, b: &str| Some(get(w, a)? / get(w, b)?);
    let mut checks: Vec<(String, Option<bool>)> = vec![
        (
            "schedgen self time >= 50% of wall on ai_lgs_trace".into(),
            share(Workload::AiLgsTrace, "schedgen_self_s").map(|s| s >= 0.5),
        ),
        (
            "schedgen self time < 10% of wall on storage_htsim_oversub".into(),
            share(Workload::StorageHtsimOversub, "schedgen_self_s").map(|s| s < 0.1),
        ),
        (
            "schedgen self time < 10% of wall on ai_htsim_spray".into(),
            share(Workload::AiHtsimSpray, "schedgen_self_s").map(|s| s < 0.1),
        ),
        (
            "htsim backend_s >= 60% of wall on storage_htsim_oversub".into(),
            share(Workload::StorageHtsimOversub, "backend_s").map(|s| s >= 0.6),
        ),
        (
            "drops/packets_sent > 30% and timeouts > 0 on storage_htsim_oversub".into(),
            ratio(Workload::StorageHtsimOversub, "drops", "packets_sent").and_then(|r| {
                Some(r > 0.3 && get(Workload::StorageHtsimOversub, "timeouts")? > 0.0)
            }),
        ),
        (
            "drops/packets_sent < 5% on ai_htsim_spray".into(),
            ratio(Workload::AiHtsimSpray, "drops", "packets_sent").map(|r| r < 0.05),
        ),
        (
            "rendezvous_messages > 0 on hpc_lgs_rendezvous".into(),
            get(Workload::HpcLgsRendezvous, "rendezvous_messages").map(|v| v > 0.0),
        ),
        (
            "rendezvous_messages = 0 on ai_lgs_trace (eager)".into(),
            get(Workload::AiLgsTrace, "rendezvous_messages").map(|v| v == 0.0),
        ),
    ];
    for runs in all {
        let w = runs.workload;
        checks.push((
            format!("per-layer self times sum to within 5% of traced wall_s on {}", w.name()),
            ratio(w, "layer_self_sum_s", "traced_wall_s").map(|r| (r - 1.0).abs() <= 0.05),
        ));
        checks.push((
            format!("kernel share of CPU time <= 18% on {}", w.name()),
            Some(runs.kernel_share() <= MAX_KERNEL_SHARE),
        ));
    }
    // A check on a workload that was not run says nothing.
    checks.into_iter().filter_map(|(what, holds)| Some((what, holds?))).collect()
}

fn report_json(
    all: &[WorkloadRuns],
    layers: &[Vec<(&'static str, f64)>],
    fidelity: &Fidelity,
    checks: &[(String, bool)],
    seed: u64,
    reps: usize,
    quick: bool,
) -> Json {
    let mut doc = Json::obj();
    doc.set("schema", Json::Str("atlahs-benchmark-report-v1".into()));
    doc.set("seed", Json::Str(seed.to_string()));
    doc.set("reps", Json::Num(reps as f64));
    doc.set("quick", Json::Bool(quick));
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    doc.set("available_parallelism", Json::Num(cores as f64));
    let mut workloads = Vec::new();
    for (runs, layer) in all.iter().zip(layers) {
        let mut w = Json::obj();
        w.set("name", Json::Str(runs.workload.name().into()));
        w.set("runs", Json::Num(runs.runs() as f64));
        w.set("failed_runs", Json::Num(runs.failed_runs() as f64));
        w.set("sim_drift", runs.sim_drift().map_or(Json::Null, |d| Json::Num(f64::from(d))));
        w.set(
            "fingerprint",
            runs.fingerprint().map_or(Json::Null, |f| Json::Str(format!("{f:016x}"))),
        );
        let mut e2e = Json::obj();
        for def in END_TO_END {
            let Some(s) = runs.summary(def.name) else { continue };
            let mut m = Json::obj();
            m.set("unit", Json::Str(def.unit.into()));
            for (k, v) in [
                ("median", s.median),
                ("min", s.min),
                ("q1", s.q1),
                ("q3", s.q3),
                ("max", s.max),
                ("n", s.n as f64),
            ] {
                m.set(k, Json::Num(v));
            }
            e2e.set(def.name, m);
        }
        w.set("end_to_end", e2e);
        let mut per_layer = Json::obj();
        for (name, value) in layer {
            per_layer.set(name, Json::Num(*value));
        }
        w.set("per_layer", per_layer);
        let children = runs
            .untraced
            .iter()
            .chain(&runs.traced)
            .map(|run| match &run.result {
                Ok(r) => {
                    let mut j = r.to_json();
                    j.set("noisy", Json::Bool(run.noisy));
                    j
                }
                Err(e) => {
                    let mut j = Json::obj();
                    j.set("error", Json::Str(e.clone()));
                    j
                }
            })
            .collect();
        w.set("children", Json::Arr(children));
        workloads.push(w);
    }
    doc.set("workloads", Json::Arr(workloads));
    let mut fid = Json::obj();
    fid.set("reference", Json::Str("atlahs_testbed (in-repo emulator, not hardware)".into()));
    for (name, value) in fidelity.metrics() {
        fid.set(name, Json::Num(value));
    }
    doc.set("fidelity", fid);
    let mut chk = Json::obj();
    for (what, holds) in checks {
        chk.set(what, Json::Bool(*holds));
    }
    doc.set("interaction_checks", chk);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_run(wall_s: f64, fingerprint: u64) -> Run {
        Run {
            result: Ok(ChildResult {
                workload: "ai_htsim_spray".into(),
                seed: 1,
                traced: false,
                quick: false,
                wall_s,
                setup_s: 0.5,
                tasks: 1000,
                tasks_expected: 1000,
                makespan_ns: 9,
                min_makespan_ns: 9,
                fingerprint,
                cpu_user_s: wall_s * 0.9,
                cpu_sys_s: wall_s * 0.05,
                peak_rss_mb: 100.0,
                layers: vec![("drops".into(), 7.0), ("lower_s".into(), wall_s / 10.0)],
            }),
            noisy: false,
        }
    }

    fn runs_of(untraced: Vec<Run>, traced: Vec<Run>) -> WorkloadRuns {
        WorkloadRuns { workload: Workload::AiHtsimSpray, seed: 1, quick: false, untraced, traced }
    }

    #[test]
    fn medians_come_from_the_untraced_runs_only() {
        let r = runs_of(vec![ok_run(3.0, 5), ok_run(1.0, 5), ok_run(2.0, 5)], vec![ok_run(9.0, 5)]);
        assert_eq!(r.summary("wall_s").unwrap().median, 2.0);
        assert_eq!(r.summary("tasks_per_s").unwrap().median, 1000.0 / 1.5);
        assert_eq!((r.runs(), r.failed_runs()), (4, 0));
    }

    #[test]
    fn errors_and_deviating_fingerprints_are_failed_runs() {
        let err = Run { result: Err("child exited with 1".into()), noisy: false };
        let r = runs_of(vec![ok_run(1.0, 5), err, ok_run(1.0, 6)], vec![ok_run(1.0, 5)]);
        assert_eq!(r.failed_runs(), 2);
        let why = r.failures();
        assert!(why[0].contains("exited") && why[1].contains("differs"), "{why:?}");
    }

    #[test]
    fn per_layer_lists_every_registered_metric() {
        let fid = Fidelity {
            ai: fidelity::Errors { lgs_err_pct: 1.5, htsim_err_pct: -2.5 },
            hpc: fidelity::Errors { lgs_err_pct: 3.5, htsim_err_pct: 4.5 },
        };
        let r = runs_of(vec![ok_run(2.0, 5)], vec![ok_run(3.0, 5), ok_run(5.0, 5)]);
        let layers = r.per_layer(&fid);
        assert_eq!(layers.len(), PER_LAYER.len());
        let get = |n: &str| layers.iter().find(|(k, _)| *k == n).unwrap().1;
        assert_eq!(get("trace_overhead_ratio"), 2.0); // median(3, 5) / 2
        assert_eq!(get("drops"), 7.0);
        assert_eq!(get("lower_s"), 0.4);
        assert_eq!(get("htsim_err_pct_ai"), -2.5);
        assert_eq!(get("cells"), 0.0); // not on this workload's path
    }

    #[test]
    fn expected_json_pins_every_workload_for_its_seed_only() {
        for w in Workload::ALL {
            assert!(expected_fingerprint(w, 1, false).is_some(), "{}", w.name());
            assert_eq!(expected_fingerprint(w, 2, false), None);
            assert_eq!(expected_fingerprint(w, 1, true), None);
        }
        let r = runs_of(vec![ok_run(1.0, 5)], vec![]);
        assert_eq!(r.sim_drift(), Some(1)); // 5 is not the pinned fingerprint
    }

    #[test]
    fn format_value_keeps_counts_exact() {
        assert_eq!(format_value(1234567.0), "1234567");
        assert_eq!(format_value(0.25), "0.250000");
        assert_eq!(format_value(1234.56), "1234.6");
    }
}

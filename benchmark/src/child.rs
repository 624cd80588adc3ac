//! One run in one fresh process, and the line it reports.
//!
//! The parent spawns this binary with `--child`; the child generates its
//! input from the seed (untimed), runs the workload once, and prints one
//! JSON line ([`ChildResult`]) as the last line of its standard output. A
//! cold process per run is what a CLI user pays, and it makes peak RSS a
//! per-run number.

use std::time::Instant;

use atlahs_bench::json::Json;

use crate::probes;
use crate::span::{Calibration, Layer, SpanLog};
use crate::workloads::{self, Outcome, Workload};

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`, 100 on
/// every Linux ABI.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Directory (relative to the working directory) trace files go to.
pub const TRACE_DIR: &str = "target/benchmark";

/// What a child reports about its run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub quick: bool,
    /// Input text in memory to serialised report bytes (host seconds).
    pub wall_s: f64,
    /// The part of `wall_s` before the first simulated event.
    pub setup_s: f64,
    pub tasks: u64,
    pub tasks_expected: u64,
    pub makespan_ns: u64,
    pub min_makespan_ns: u64,
    pub fingerprint: u64,
    /// CPU time of the timed region, all threads.
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    /// `VmHWM` at exit.
    pub peak_rss_mb: f64,
    /// Per-layer metrics by name (traced runs only).
    pub layers: Vec<(String, f64)>,
}

impl ChildResult {
    pub fn tasks_per_s(&self) -> f64 {
        self.tasks as f64 / (self.wall_s - self.setup_s)
    }

    /// Share of the region's CPU time spent in the kernel.
    pub fn kernel_share(&self) -> f64 {
        let cpu = self.cpu_user_s + self.cpu_sys_s;
        if cpu > 0.0 {
            self.cpu_sys_s / cpu
        } else {
            0.0
        }
    }

    /// Why the run counts as failed, if it does.
    pub fn failure(&self) -> Option<String> {
        if self.tasks < self.tasks_expected {
            Some(format!("completed {} of {} tasks", self.tasks, self.tasks_expected))
        } else if self.tasks == 0 {
            Some("completed no task".into())
        } else if self.min_makespan_ns == 0 {
            Some("zero makespan".into())
        } else if !(self.wall_s > self.setup_s && self.setup_s > 0.0) {
            Some(format!("implausible times: wall {} s, setup {} s", self.wall_s, self.setup_s))
        } else {
            None
        }
    }

    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("workload", Json::Str(self.workload.clone()));
        j.set("seed", Json::Str(self.seed.to_string()));
        j.set("traced", Json::Bool(self.traced));
        j.set("quick", Json::Bool(self.quick));
        j.set("wall_s", Json::Num(self.wall_s));
        j.set("setup_s", Json::Num(self.setup_s));
        j.set("tasks", Json::Num(self.tasks as f64));
        j.set("tasks_expected", Json::Num(self.tasks_expected as f64));
        j.set("makespan_ns", Json::Num(self.makespan_ns as f64));
        j.set("min_makespan_ns", Json::Num(self.min_makespan_ns as f64));
        // 64 bits do not fit a JSON number.
        j.set("fingerprint", Json::Str(format!("{:016x}", self.fingerprint)));
        j.set("cpu_user_s", Json::Num(self.cpu_user_s));
        j.set("cpu_sys_s", Json::Num(self.cpu_sys_s));
        j.set("peak_rss_mb", Json::Num(self.peak_rss_mb));
        let mut layers = Json::obj();
        for (name, value) in &self.layers {
            layers.set(name, Json::Num(*value));
        }
        j.set("layers", layers);
        j
    }

    pub fn from_json(j: &Json) -> Result<ChildResult, String> {
        let num = |key: &str| {
            j.get(key).and_then(Json::as_f64).ok_or_else(|| format!("child line lacks `{key}`"))
        };
        let text = |key: &str| {
            j.get(key).and_then(Json::as_str).ok_or_else(|| format!("child line lacks `{key}`"))
        };
        let flag = |key: &str| match j.get(key) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("child line lacks `{key}`")),
        };
        let layers = match j.get("layers") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|v| (k.clone(), v))
                        .ok_or_else(|| format!("layer metric `{k}` is not a number"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("child line lacks `layers`".into()),
        };
        Ok(ChildResult {
            workload: text("workload")?.to_string(),
            seed: text("seed")?.parse().map_err(|_| "child line: bad `seed`".to_string())?,
            traced: flag("traced")?,
            quick: flag("quick")?,
            wall_s: num("wall_s")?,
            setup_s: num("setup_s")?,
            tasks: num("tasks")? as u64,
            tasks_expected: num("tasks_expected")? as u64,
            makespan_ns: num("makespan_ns")? as u64,
            min_makespan_ns: num("min_makespan_ns")? as u64,
            fingerprint: u64::from_str_radix(text("fingerprint")?, 16)
                .map_err(|_| "child line: bad `fingerprint`".to_string())?,
            cpu_user_s: num("cpu_user_s")?,
            cpu_sys_s: num("cpu_sys_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            layers,
        })
    }

    /// The child's result is the last line of its standard output.
    pub fn from_stdout(stdout: &str) -> Result<ChildResult, String> {
        let line = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| "child printed nothing".to_string())?;
        ChildResult::from_json(&Json::parse(line).map_err(|e| format!("child line: {e}"))?)
    }
}

/// A `Json` document on one line (its pretty form never breaks a line
/// inside a string, so dropping each line's indentation is enough).
pub fn one_line(j: &Json) -> String {
    j.pretty().lines().map(str::trim_start).collect()
}

/// `(user, system)` CPU seconds of this process so far, all threads.
fn cpu_times() -> Result<(f64, f64), String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc: {e}"))?;
    // The command name (field 2) may hold spaces; fields resume after `)`.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // utime and stime are fields 14 and 15; `rest` starts at field 3.
    Ok((ticks(11)? / CLOCK_TICKS_PER_S, ticks(12)? / CLOCK_TICKS_PER_S))
}

/// Peak resident set of this process (MiB).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Run `workload` once in this process and return what to report.
pub fn run(
    workload: Workload,
    seed: u64,
    traced: bool,
    quick: bool,
) -> Result<ChildResult, String> {
    let input = workload.generate(seed, quick);
    let mut log = SpanLog::new(seed);
    if traced {
        log.calibration = Calibration::measure(1 << 20);
    }

    let cpu0 = cpu_times()?;
    let (root, outcome) = workloads::run(workload, &input, seed, traced, &mut log)?;
    let cpu1 = cpu_times()?;
    drop(input);

    let root_span = log.get(root).clone();
    let first_event = if workload.is_grid() { "bench.execute" } else { "core.run" };
    let setup_ns = log
        .find(first_event)
        .map(|s| s.start_ns - root_span.start_ns)
        .ok_or_else(|| format!("no `{first_event}` span recorded"))?;

    let mut result = ChildResult {
        workload: workload.name().to_string(),
        seed,
        traced,
        quick,
        wall_s: root_span.duration_ns() as f64 / 1e9,
        setup_s: setup_ns as f64 / 1e9,
        tasks: outcome.tasks,
        tasks_expected: outcome.tasks_expected,
        makespan_ns: outcome.makespan_ns,
        min_makespan_ns: outcome.min_makespan_ns,
        fingerprint: outcome.fingerprint,
        cpu_user_s: cpu1.0 - cpu0.0,
        cpu_sys_s: cpu1.1 - cpu0.1,
        peak_rss_mb: 0.0,
        layers: Vec::new(),
    };
    if traced {
        result.layers = layer_metrics(workload, &log, &outcome, &result);
        std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
        let path = format!("{TRACE_DIR}/trace-{}.json", workload.name());
        std::fs::write(&path, log.to_json(workload.name()).pretty())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    result.peak_rss_mb = peak_rss_mb()?;
    Ok(result)
}

/// The per-layer metrics of a traced run, from its spans, the counts the
/// run returned, and the probes (which run here, after the timed region).
fn layer_metrics(
    workload: Workload,
    log: &SpanLog,
    outcome: &Outcome,
    result: &ChildResult,
) -> Vec<(String, f64)> {
    let mut m: Vec<(String, f64)> =
        outcome.counters.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    let mut put = |name: &str, value: f64| m.push((name.to_string(), value));
    let tasks = outcome.tasks.max(1) as f64;

    let self_s = log.self_by_layer();
    let layer_s = |l: Layer| self_s.iter().find(|(x, _)| *x == l).map_or(0.0, |(_, s)| *s);
    put("traced_wall_s", result.wall_s);
    put("kernel_share", result.kernel_share());
    put("cpu_s", result.cpu_user_s + result.cpu_sys_s);
    put("tracing_self_s", layer_s(Layer::Tracing));
    put("harness_self_s", layer_s(Layer::Harness));
    put("layer_self_sum_s", self_s.iter().map(|(_, s)| s).sum());
    put("schedgen_self_s", layer_s(Layer::Schedgen));

    // tracers, schedgen, goal
    put("parse_s", log.seconds("tracers.parse"));
    let lower_s = log.seconds("schedgen.lower");
    put("lower_s", lower_s);
    put("lower_ns_per_task", lower_s * 1e9 / tasks);
    put("codec_s", log.seconds("goal.encode") + log.seconds("goal.decode"));

    // core and the backend under it
    let backend_layer = match workload {
        Workload::AiLgsTrace | Workload::HpcLgsRendezvous => Some(Layer::Lgs),
        Workload::StorageHtsimOversub | Workload::AiHtsimSpray => Some(Layer::Htsim),
        _ => None,
    };
    put("sched_self_s", layer_s(Layer::Core));
    let (mut backend_ns, mut backend_calls) = (0.0, 0u64);
    for a in log.aggregates.iter().filter(|a| Some(a.layer) == backend_layer) {
        backend_ns += log.corrected_ns(a);
        backend_calls += a.calls;
    }
    put("backend_s", backend_ns / 1e9);
    put("backend_ns_per_call", backend_ns / backend_calls.max(1) as f64);
    put("build_s", log.seconds("htsim.build") + log.seconds("lgs.build"));
    let events =
        outcome.counters.iter().find(|(k, _)| *k == "internal_events").map_or(0.0, |(_, v)| *v);
    put("ns_per_event", if events > 0.0 { backend_ns / events } else { 0.0 });
    put("matcher_offers", outcome.offers.len() as f64);
    put("matcher_replay_s", probes::matcher_replay_s(&outcome.offers));
    put("eventq_probe_ns_per_op", probes::eventq_ns_per_op());

    // the grid executors
    let execute_s = log.seconds("bench.execute");
    put("expand_s", log.seconds("bench.expand"));
    put("execute_s", execute_s);
    put("report_s", log.seconds("bench.report") + log.seconds("report"));
    if workload == Workload::SweepGrid {
        let (compose_s, compose_calls) = probes::compose_probe(&outcome.cells);
        put("compose_probe_s", compose_s);
        put("compose_calls", compose_calls as f64);
        let one_thread_s = probes::execute_one_thread_s(&outcome.cells);
        put("thread_efficiency", one_thread_s / (workload.threads() as f64 * execute_s));
    }
    if workload == Workload::BranchGrid {
        let straight_s = probes::straight_sum_s(&outcome.cells, outcome.branch_at);
        put("branch_vs_straight", execute_s / straight_s);
        let (lgs, htsim) = probes::snapshot_costs(&outcome.cells, outcome.branch_at);
        put("checkpoint_us_lgs", lgs.checkpoint_us);
        put("restore_us_lgs", lgs.restore_us);
        put("checkpoint_us_htsim", htsim.checkpoint_us);
        put("restore_us_htsim", htsim.restore_us);
    }
    m
}

/// Entry point of `--child`: run, print the line, return the exit code.
pub fn main(workload: Workload, seed: u64, traced: bool, quick: bool) -> i32 {
    let started = Instant::now();
    match run(workload, seed, traced, quick) {
        Ok(result) => {
            eprintln!(
                "  child {} seed {seed}: wall {:.3} s, whole process {:.3} s",
                workload.name(),
                result.wall_s,
                started.elapsed().as_secs_f64()
            );
            println!("{}", one_line(&result.to_json()));
            0
        }
        Err(e) => {
            eprintln!("child {} seed {seed} failed: {e}", workload.name());
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChildResult {
        ChildResult {
            workload: "ai_lgs_trace".into(),
            seed: u64::MAX,
            traced: true,
            quick: false,
            wall_s: 3.123456789,
            setup_s: 2.000000001,
            tasks: 5_020_000,
            tasks_expected: 5_020_000,
            makespan_ns: 123_456_789_012,
            min_makespan_ns: 123_456_789_012,
            fingerprint: 0xfedc_ba98_7654_3210,
            cpu_user_s: 2.9,
            cpu_sys_s: 0.2,
            peak_rss_mb: 1234.5,
            layers: vec![("lower_s".into(), 1.75), ("drops".into(), 0.0)],
        }
    }

    #[test]
    fn child_line_parses_back_to_the_same_result() {
        let r = sample();
        let line = one_line(&r.to_json());
        assert!(!line.contains('\n'));
        let noisy_stdout = format!("a progress line\n{line}\n\n");
        assert_eq!(ChildResult::from_stdout(&noisy_stdout), Ok(r));
    }

    #[test]
    fn malformed_child_output_is_an_error_not_a_panic() {
        assert!(ChildResult::from_stdout("").unwrap_err().contains("nothing"));
        assert!(ChildResult::from_stdout("not json").is_err());
        assert!(ChildResult::from_stdout("{\"workload\": \"x\"}").unwrap_err().contains("lacks"));
        let mut j = sample().to_json();
        if let Json::Obj(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "fingerprint");
        }
        assert!(ChildResult::from_json(&j).unwrap_err().contains("fingerprint"));
    }

    #[test]
    fn failure_rules() {
        assert_eq!(sample().failure(), None);
        let mut r = sample();
        r.tasks -= 1;
        assert!(r.failure().unwrap().contains("completed"));
        let mut r = sample();
        r.min_makespan_ns = 0;
        assert_eq!(r.failure().unwrap(), "zero makespan");
        let mut r = sample();
        r.setup_s = r.wall_s;
        assert!(r.failure().unwrap().contains("implausible"));
    }

    #[test]
    fn derived_numbers() {
        let r = sample();
        assert!((r.tasks_per_s() - 5_020_000.0 / (3.123456789 - 2.000000001)).abs() < 1e-6);
        assert!((r.kernel_share() - 0.2 / 3.1).abs() < 1e-12);
    }

    #[test]
    fn proc_readers_work_on_this_process() {
        let (user, sys) = cpu_times().unwrap();
        assert!(user >= 0.0 && sys >= 0.0);
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}

//! The `atlahs` binary's error paths: bad input exits 2 with a message
//! naming the subcommand that was run, never a panic or an abort.

use std::process::{Command, Output};

fn atlahs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_atlahs")).args(args).output().expect("atlahs runs")
}

fn stderr_of_usage_error(out: &Output) -> String {
    assert_eq!(out.status.code(), Some(2), "bad input is a usage error: {out:?}");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn axis_errors_name_the_subcommand_that_was_run() {
    let err = stderr_of_usage_error(&atlahs(&["cluster", "--arrivals", "poisson:x:1"]));
    assert!(err.starts_with("atlahs cluster: --arrivals: "), "{err}");
    let multi = "multi[ring:4:1024:1+ring:4:1024:1]";
    let err = stderr_of_usage_error(&atlahs(&["cluster", "--catalog", multi]));
    assert!(err.starts_with("atlahs cluster: --catalog: catalog entries are single jobs"), "{err}");
    let err = stderr_of_usage_error(&atlahs(&["sweep", "--faults", "meteor:1"]));
    assert!(err.starts_with("atlahs sweep: --faults: "), "{err}");
}

/// A flag the subcommand does not read is refused — the singular
/// `--topo … --workload …` used to exit 0 having simulated the *default*
/// 16-node grid — and a malformed number is a usage error, not a panic
/// with a backtrace.
#[test]
fn mistyped_flags_and_numbers_are_usage_errors() {
    let singular = ["sweep", "--topo", "switch:4", "--workload", "ring:4:1024:1"];
    let err = stderr_of_usage_error(&atlahs(&singular));
    assert!(err.starts_with("atlahs sweep: --topo: unknown flag (sweep reads --topos "), "{err}");
    let err = stderr_of_usage_error(&atlahs(&["cluster", "--topos", "switch:8"]));
    assert!(err.starts_with("atlahs cluster: --topos: unknown flag"), "{err}");
    for (sub, flag, value) in [
        ("sweep", "--threads", "abc"),
        ("sweep", "--seed", "x"),
        ("sweep", "--branch-at", "y"),
        ("cluster", "--threads", "abc"),
        ("cluster", "--seed", "x"),
    ] {
        let err = stderr_of_usage_error(&atlahs(&[sub, flag, value]));
        assert!(err.starts_with(&format!("atlahs {sub}: {flag}: cannot parse")), "{err}");
    }
}

/// A zero fabric dimension used to pass the parser and divide by zero in
/// the fabric builder (exit 101 with a backtrace).
#[test]
fn degenerate_topologies_are_usage_errors() {
    for tok in ["ai-fattree:16:0", "storage-fattree:16:0", "dragonfly:0:0:0"] {
        let err = stderr_of_usage_error(&atlahs(&["sweep", "--topos", tok]));
        assert!(err.starts_with(&format!("atlahs sweep: --topos: topology `{tok}`: ")), "{err}");
        assert!(err.contains("must be at least 1"), "{err}");
    }
    let err = stderr_of_usage_error(&atlahs(&["cluster", "--topo", "ai-fattree:16:0"]));
    let want = "atlahs cluster: --topo: topology `ai-fattree:16:0`: oversub must be at least 1";
    assert!(err.starts_with(want), "{err}");
}

/// A workload that does no work used to pass the parser: `atlahs cluster`
/// then panicked on the empty schedule (exit 101) and `atlahs sweep`
/// reported a 0-task, 0 ns cell.
#[test]
fn zero_work_workloads_are_usage_errors() {
    let hpc = "workload `hpc:lulesh:0:1:1`: an HPC run needs at least 1 process";
    let storage = "workload `storage:0:1:1`: a storage run needs at least 1 operation";
    for (tok, reason) in [("hpc:lulesh:0:1:1", hpc), ("storage:0:1:1", storage)] {
        let cluster = ["cluster", "--topo", "switch:64", "--catalog", tok, "--backends", "lgs"];
        let err = stderr_of_usage_error(&atlahs(&cluster));
        assert!(err.starts_with(&format!("atlahs cluster: --catalog: {reason}")), "{err}");
        let err = stderr_of_usage_error(&atlahs(&["sweep", "--workloads", tok]));
        assert!(err.starts_with(&format!("atlahs sweep: --workloads: {reason}")), "{err}");
    }
}

/// One fault grammar, two scopes: each subcommand refuses the tokens it
/// cannot express and says why and where they belong.
#[test]
fn faults_outside_a_subcommands_scope_are_refused_with_the_reason() {
    let err = stderr_of_usage_error(&atlahs(&["sweep", "--faults", "jobfail:50:50:2"]));
    assert!(err.starts_with("atlahs sweep: --faults: fault `jobfail:50:50:2` fails and "), "{err}");
    assert!(err.contains("it is an `atlahs cluster` fault"), "{err}");
    let branch = ["sweep", "--branch-at", "1000", "--branch", "mtbf:20000:3"];
    let err = stderr_of_usage_error(&atlahs(&branch));
    assert!(err.starts_with("atlahs sweep: --branch: fault `mtbf:20000:3`"), "{err}");
    let err = stderr_of_usage_error(&atlahs(&["cluster", "--faults", "linkflap:1:10:20"]));
    assert!(err.starts_with("atlahs cluster: --faults: fault `linkflap:1:10:20` picks "), "{err}");
    assert!(err.contains("it is an `atlahs sweep` fault"), "{err}");
}

/// A report key fed back to `--workloads` runs: the multi-job scenario is
/// reachable from the CLI, and a repeated axis value repeats no key.
#[test]
fn report_keys_are_accepted_workloads_and_unique() {
    let dir = std::env::temp_dir().join(format!("atlahs_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("report.json");
    let out = atlahs(&[
        "sweep",
        "--topos",
        "switch:8",
        "--workloads",
        "multi[ring:4:1024:1+ring:4:1024:1]",
        "--backends",
        "lgs",
        "--faults",
        "none,none",
        "--quiet",
        "--out",
        report.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&report).unwrap();
    let key = "\"key\": \"switch:8/multi[ring:4:1024:1+ring:4:1024:1]/packed/lgs\"";
    assert_eq!(text.matches(key).count(), 1, "{text}");
    assert!(text.contains("\"cells\": 1"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A hostile churn trace (200 000 unclosed brackets) is a parse error,
/// not a stack overflow in the recursive-descent JSON parser.
#[test]
fn hostile_churn_trace_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("atlahs_cli_deep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("deep.json");
    std::fs::write(&trace, "[".repeat(200_000)).unwrap();
    let out = atlahs(&["sweep", "--faults", &format!("churn:@{}", trace.display())]);
    let err = stderr_of_usage_error(&out);
    assert!(err.contains("nesting deeper than 128 levels"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

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
    // Branch-time overrides are `--faults` under `--branch-at`.
    let err = stderr_of_usage_error(&atlahs(&["sweep", "--branch-at", "1", "--branch", "none"]));
    assert!(err.starts_with("atlahs sweep: --branch: unknown flag"), "{err}");
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
/// the fabric builder (exit 101 with a backtrace); so did a one-group
/// dragonfly, on the builder's `groups >= 2` assert. An oversubscription
/// ratio that does not divide a rack used to be rounded silently, and a
/// fabric past the route cache's key (2^16 ECMP routes) used to alias
/// routes.
#[test]
fn degenerate_topologies_are_usage_errors() {
    for (tok, reason) in [
        ("ai-fattree:16:0", "oversub must be at least 1"),
        ("storage-fattree:16:0", "oversub must be at least 1"),
        ("dragonfly:0:0:0", "groups must be at least 2"),
        ("dragonfly:1:4:2", "groups must be at least 2"),
        ("ai-fattree:16:3", "oversub 3 must divide the 8 hosts per ToR"),
        ("storage-fattree:48:3", "oversub 3 must divide the 8 hosts per ToR"),
        ("hpc-fattree:140000:2", "procs / nodes must be at most 65536"),
    ] {
        let err = stderr_of_usage_error(&atlahs(&["sweep", "--topos", tok]));
        let want = format!("atlahs sweep: --topos: topology `{tok}`: {reason}");
        assert!(err.starts_with(&want), "{err}");
    }
    let err = stderr_of_usage_error(&atlahs(&["cluster", "--topo", "ai-fattree:16:0"]));
    let want = "atlahs cluster: --topo: topology `ai-fattree:16:0`: oversub must be at least 1";
    assert!(err.starts_with(want), "{err}");
}

/// A workload that does no work used to pass the parser: `atlahs cluster`
/// then panicked on the empty schedule (exit 101) and `atlahs sweep`
/// reported a 0-task, 0 ns cell. A zero-job Poisson process likewise ran
/// `atlahs cluster` cells with no jobs in them.
#[test]
fn zero_work_workloads_are_usage_errors() {
    let err = stderr_of_usage_error(&atlahs(&["cluster", "--arrivals", "poisson:0:100"]));
    let want = "atlahs cluster: --arrivals: arrivals `poisson:0:100`: a Poisson process needs \
                at least 1 job";
    assert!(err.starts_with(want), "{err}");
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

/// Each retry of a failed job re-simulates it (about 0.44 ms per retry
/// on the ideal backend), so `jobfail:100:50:4294967295` would have run
/// for about three weeks; and a Poisson process holds every arrival
/// time, so `poisson:4294967295:1` aborted allocating 32 GiB. Both fields
/// are bounded at parse time.
#[test]
fn unbounded_cluster_fields_are_usage_errors() {
    for (flag, tok, want) in [
        ("--faults", "jobfail:100:50:101", "<retries> must be at most 100"),
        ("--faults", "mtbf:1000:101", "<retries> must be at most 100"),
        ("--arrivals", "poisson:100001:1", "<jobs> must be at most 100000"),
    ] {
        let err = stderr_of_usage_error(&atlahs(&["cluster", flag, tok, "--backends", "ideal"]));
        assert!(err.starts_with(&format!("atlahs cluster: {flag}: ")), "{err}");
        assert!(err.contains(&format!("`{tok}`: {want}")), "{err}");
    }
}

/// A storage workload holds a record per operation: `storage:<ops>:…`
/// with 2⁶⁴−1 ops panicked on the allocation's capacity overflow, and
/// 10⁹ ops aborted allocating 32 GB.
#[test]
fn oversized_storage_workloads_are_usage_errors() {
    for ops in ["18446744073709551615", "1000000000"] {
        let tok = format!("storage:{ops}:50:12");
        let topos = "storage-fattree:48:1";
        let sweep = ["sweep", "--workloads", &tok, "--topos", topos, "--backends", "lgs"];
        let err = stderr_of_usage_error(&atlahs(&sweep));
        let want =
            format!("atlahs sweep: --workloads: workload `{tok}`: <ops> must be at most 1000000");
        assert!(err.starts_with(&want), "{err}");
    }
}

/// A message too large for htsim's 32-bit packet count used to hang
/// `atlahs sweep --backends htsim` (2⁴⁴ B wrapped to a 0-packet flow) and
/// to run on the message-level backends; every backend now refuses it.
#[test]
fn oversized_messages_are_usage_errors() {
    for tok in ["ring:2:17592186044416:1", "storage-incast:1:1:18446744073709551615:1"] {
        let sweep = ["sweep", "--topos", "switch:4", "--workloads", tok, "--backends", "lgs"];
        let err = stderr_of_usage_error(&atlahs(&sweep));
        let want = format!(
            "atlahs sweep: --workloads: workload `{tok}`: <bytes> must be at most 17592186040320"
        );
        assert!(err.starts_with(&want), "{err}");
    }
}

/// A jitter scale past a second used to hang an htsim cell, its
/// retransmission timer re-injecting every backed-off RTO until the
/// jittered copy landed; next to a clean LGS cell it went unnoticed.
#[test]
fn unbounded_jitter_is_a_usage_error() {
    let sweep = ["sweep", "--topos", "switch:4", "--workloads", "ring:4:1024:1", "--backends"];
    let tok = "jitter:uniform:1000000000000000000";
    let faults = format!("none,{tok}");
    let err = stderr_of_usage_error(&atlahs(&[&sweep[..], &["lgs", "--faults", &faults]].concat()));
    let want =
        format!("atlahs sweep: --faults: fault `{tok}`: jitter max must be <= 1000000000 ns");
    assert!(err.starts_with(&want), "{err}");
}

/// One fault grammar, two scopes: each subcommand refuses the tokens it
/// cannot express and says why and where they belong.
#[test]
fn faults_outside_a_subcommands_scope_are_refused_with_the_reason() {
    let err = stderr_of_usage_error(&atlahs(&["sweep", "--faults", "jobfail:50:50:2"]));
    assert!(err.starts_with("atlahs sweep: --faults: fault `jobfail:50:50:2` fails and "), "{err}");
    assert!(err.contains("it is an `atlahs cluster` fault"), "{err}");
    let branch = ["sweep", "--branch-at", "1000", "--faults", "mtbf:20000:3"];
    let err = stderr_of_usage_error(&atlahs(&branch));
    assert!(err.starts_with("atlahs sweep: --faults: fault `mtbf:20000:3` fails "), "{err}");
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

/// A hostile churn trace (200 000 unclosed brackets) is a parse error of
/// its first line, not a stack overflow: a trace file has the line format
/// only.
#[test]
fn hostile_churn_trace_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("atlahs_cli_deep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("deep.json");
    std::fs::write(&trace, "[".repeat(200_000)).unwrap();
    let out = atlahs(&["sweep", "--faults", &format!("churn:@{}", trace.display())]);
    let err = stderr_of_usage_error(&out);
    let want = "churn trace line 1: expected `<t_ns> <domain> <down|up>`";
    assert!(err.starts_with(&format!("atlahs sweep: --faults: {want}")), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--faults` used to split at every `,`, so the inline churn grammar,
/// which joins its events with `,`, could not sit in a fault list. A
/// comma followed by a digit now continues the current token.
#[test]
fn inline_churn_traces_fit_in_a_fault_list() {
    let sweep = [
        "sweep",
        "--topos",
        "ai-fattree:16:4",
        "--workloads",
        "ring:16:4096:1",
        "--ccs",
        "mprdma",
        "--backends",
        "htsim",
        "--faults",
        "none,churn:0;0;d,60000;0;u",
    ];
    let out = atlahs(&sweep);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("# atlahs sweep — 2 cells "), "{stdout}");
    assert!(stdout.contains("/churn:0;0;d,60000;0;u"), "{stdout}");
}

/// The smoke goldens are reachable from the CLI as plain axis flags
/// (docs/SCENARIOS.md spells each grid out): the stochastic grid, inline
/// churn trace included, and the cluster grid reproduce their goldens.
#[test]
fn smoke_grids_spelled_as_axis_flags_reproduce_their_goldens() {
    let dir = std::env::temp_dir().join(format!("atlahs_cli_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let faults = "none,linkflap:2:5000:60000,degrade:2:25:300:0:200000,straggler:50:300,\
                  markov:4:20000:20000:300000,rackfail:1:20000:140000,\
                  churn:0;0;d,60000;0;u,100000;1;d,180000;1;u,straggler:50:200:200:2,\
                  loss:20000,loss:80000:core,jitter:exp:2000,jitter:weibull:3000:2,\
                  jitter:uniform:1500";
    let stochastic = [
        "sweep",
        "--topos",
        "ai-fattree:16:4",
        "--workloads",
        "moe:16:16:65536:1:20000,moe:16:16:32768:2:4000,pipeline:16:2:65536:2000",
        "--backends",
        "htsim,lgs",
        "--faults",
        faults,
        "--collect-flows",
    ];
    let cluster = [
        "cluster",
        "--catalog",
        "ring:8:262144:1,incast:5:131072:1",
        "--arrivals",
        "poisson:8:40000,trace:0;0;0;30000;30000;400000",
        "--queues",
        "fifo,smallest",
        "--placements",
        "packed,random",
        "--backends",
        "htsim,lgs,ideal",
    ];
    for (grid, golden) in
        [(&stochastic[..], "stochastic_smoke.json"), (&cluster[..], "cluster_smoke.json")]
    {
        let report = dir.join(golden);
        let run = [grid, &["--threads", "2", "--quiet", "--out", report.to_str().unwrap()]];
        let out = atlahs(&run.concat());
        assert!(out.status.success(), "{out:?}");
        let want = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/goldens/");
        let want = std::fs::read_to_string(format!("{want}{golden}")).unwrap();
        assert!(std::fs::read_to_string(&report).unwrap() == want, "{golden} drifted");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A bare token used to be dropped: `--backends ideal smoke` ran the grid
/// and exited 0 without a word about `smoke`. Only `fig` takes a
/// positional, and exactly one: a figure it knows.
#[test]
fn stray_positionals_and_unknown_figures_are_usage_errors() {
    let sweep = ["sweep", "--topos", "switch:4", "--workloads", "ring:4:1024:1", "--backends"];
    let err = stderr_of_usage_error(&atlahs(&[&sweep[..], &["ideal", "smoke"]].concat()));
    assert!(err.starts_with("atlahs sweep: stray argument `smoke`"), "{err}");
    let err = stderr_of_usage_error(&atlahs(&["fig", "fig09", "extra"]));
    assert!(err.starts_with("atlahs fig: stray argument `extra`"), "{err}");
    let known = "(fig01|fig08|fig09|fig10|fig11|fig12|fig13|table1)";
    let err = stderr_of_usage_error(&atlahs(&["fig", "fig99"]));
    assert!(err.starts_with(&format!("atlahs fig: unknown figure `fig99` {known}")), "{err}");
    let err = stderr_of_usage_error(&atlahs(&["fig"]));
    assert!(err.starts_with(&format!("atlahs fig: name a figure {known}")), "{err}");
}

/// The figure binaries read their flags through a parser that panicked on
/// a malformed number (`--seed banana`, exit 101), asserted on the scale
/// range (`--scale 0`), divided by zero on `--ranks 0`, and ignored an
/// unknown or mistyped flag (`--sclae 0.5` ran at the default scale).
/// fig11 ran `--compress 0` as 1x and printed an empty figure for
/// `--ops 0`, both with exit 0.
#[test]
fn figure_flags_are_usage_errors() {
    for (args, want) in [
        (&["fig", "fig08", "--seed", "banana"][..], "atlahs fig: --seed: cannot parse \"banana\""),
        (&["fig", "fig10", "--scale", "0"], "atlahs fig: --scale: 0 is not in (0, 1]"),
        (
            &["fig", "fig01", "--ranks", "0"],
            "atlahs fig: --ranks: workload `incast:1:1048576:2`: incast needs a sink",
        ),
        (&["fig", "fig09", "--sclae", "0.5", "--bogus"], "atlahs fig: --bogus: unknown flag"),
        (
            &["fig", "fig11", "--compress", "0"],
            "atlahs fig: --compress: workload `storage:5000:50:0`: compress must be at least 1",
        ),
        (
            &["fig", "fig11", "--ops", "0"],
            "atlahs fig: --ops: workload `storage:0:50:12`: a storage run needs at least 1 \
             operation",
        ),
        (
            &["fig", "fig11", "--ops", "18446744073709551615"],
            "atlahs fig: --ops: workload `storage:18446744073709551615:50:12`: <ops> must be at \
             most 1000000",
        ),
    ] {
        let err = stderr_of_usage_error(&atlahs(args));
        assert!(err.starts_with(want), "{args:?}: {err}");
    }
}

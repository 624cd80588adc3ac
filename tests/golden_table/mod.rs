//! The golden table: every report under `tests/goldens/` and the run that
//! must reproduce it byte for byte.
//!
//! The five grid rows are `atlahs sweep`/`atlahs cluster` commands: a
//! subcommand and the flag line [`atlahs_bench::smoke`] writes once, run
//! through the CLI's own parser ([`ScenarioGrid::from_args`],
//! [`ClusterGrid::from_args`]) and executors on 2 worker threads (reports
//! are `--threads`-invariant); `tests/goldens.rs` checks each line
//! against the command docs/SCENARIOS.md prints for it. The fidelity row
//! is the cells `atlahs fig fig08` and `atlahs fig fig10` build
//! ([`fig08_cells`], [`fig10_cells`]): Fig. 8's Llama 7B DP16 case and
//! Fig. 10's six 128-rank points, each on {testbed, LGS, htsim}, at a
//! fixed small scale — the paper's §5 claim (simulated runtimes within
//! single-digit percent of the reference) as a byte-compared artefact.
//! Their reference is `atlahs_testbed`, the repository's own fluid-flow
//! emulator standing in for the paper's measured clusters, **not
//! hardware**.
//!
//! Each row is checked by one test through [`reproduce`]:
//!
//! | golden                     | test                                                                    |
//! |----------------------------|-------------------------------------------------------------------------|
//! | `sweep_smoke.json`         | `sweep_smoke_pin::no_fault_sweep_reproduces_the_checked_in_golden_bytes` |
//! | `stochastic_smoke.json`    | `determinism_golden::stochastic_smoke_reproduces_the_checked_in_golden_bytes` |
//! | `branch_smoke.json`        | `determinism_golden::branch_smoke_reproduces_the_checked_in_golden_bytes` |
//! | `cluster_smoke.json`       | `goldens::cluster_smoke_reproduces_the_checked_in_golden_bytes`         |
//! | `cluster_fault_smoke.json` | `goldens::cluster_fault_smoke_reproduces_the_checked_in_golden_bytes`   |
//! | `fidelity_smoke.json`      | `fidelity_smoke::validation_cells_reproduce_the_fidelity_golden`        |
//!
//! `goldens::every_golden_has_a_row` fails on a golden file missing from
//! the table or a row without its file. On a mismatch [`reproduce`]
//! writes the report the run produces now under `CARGO_TARGET_TMPDIR`,
//! named like its golden; after an intended behaviour change, review it
//! and copy it over the golden.

use std::path::{Path, PathBuf};

use atlahs_bench::cluster::{run_grid, ClusterGrid, ClusterReport};
use atlahs_bench::figures::{fig08_cells, fig10_cells};
use atlahs_bench::scenario::{LlmPreset, ScenarioCell, ScenarioGrid};
use atlahs_bench::smoke;
use atlahs_bench::sweep::{execute, SweepReport};
use atlahs_bench::workloads::hpc_suite;

const THREADS: usize = 2;

/// Golden file name → the `atlahs` subcommand and flags whose JSON report
/// must equal it.
pub const GOLDENS: [(&str, &str, &str); 5] = [
    ("sweep_smoke.json", "sweep", smoke::SWEEP),
    ("stochastic_smoke.json", "sweep", smoke::STOCHASTIC),
    ("branch_smoke.json", "sweep", smoke::BRANCH),
    ("cluster_smoke.json", "cluster", smoke::CLUSTER),
    ("cluster_fault_smoke.json", "cluster", smoke::CLUSTER_FAULT),
];

/// The golden of the Fig. 8/10 validation cells, which no grid spells.
pub const FIDELITY: &str = "fidelity_smoke.json";

/// The directory holding the checked-in goldens.
pub fn dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

/// Run `name`'s row and panic unless its report equals the golden byte
/// for byte, leaving the actual report under `CARGO_TARGET_TMPDIR`.
pub fn reproduce(name: &str) {
    let got = match GOLDENS.iter().find(|(n, ..)| *n == name) {
        Some(&(_, "sweep", flags)) => sweep(name, flags),
        Some(&(_, "cluster", flags)) => cluster(flags),
        Some(&(_, sub, _)) => panic!("`{sub}` is not a grid subcommand"),
        None if name == FIDELITY => fidelity(),
        None => panic!("tests/goldens/{name} has no row"),
    };
    if got != std::fs::read_to_string(dir().join(name)).unwrap_or_default() {
        let actual = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&actual, &got).expect("the target directory is writable");
        panic!(
            "tests/goldens/{name} drifted; the report the run produces now is {}",
            actual.display()
        );
    }
}

/// `atlahs sweep <flags>`'s JSON report. 45 of the stochastic grid's 75
/// cells, in order, are the fault grid's: an inactive link model consumes
/// zero draws, so the stochastic axis must not move them. A branched grid
/// must run each shared prefix once per group, not per cell.
fn sweep(name: &str, flags: &str) -> String {
    let args = smoke::args(flags);
    let grid = ScenarioGrid::from_args(&args).expect("a golden's flags parse");
    let cells = grid.expand();
    if name == "stochastic_smoke.json" {
        assert_eq!(cells.len(), 75);
    }
    let branch_at = args.number("branch-at", 0).expect("a golden's flags parse");
    let report = SweepReport::run(grid.seed, &cells, branch_at, THREADS);
    if let Some(stats) = report.branch {
        assert_eq!(stats.prefix_runs, 8, "prefixes must run once per group, not per cell");
    }
    report.to_json().pretty()
}

/// `atlahs cluster <flags>`'s JSON report.
fn cluster(flags: &str) -> String {
    let grid = ClusterGrid::from_args(&smoke::args(flags)).expect("a golden's flags parse");
    let results = run_grid(&grid.expand_counted().0, THREADS);
    ClusterReport { seed: grid.seed, results }.to_json().pretty()
}

/// The fidelity row's cells: Fig. 8's Llama 7B DP16 case and Fig. 10's
/// six 128-rank points, each on {testbed, LGS, htsim}.
pub fn fidelity_cells() -> Vec<ScenarioCell> {
    let mut cells = fig08_cells(LlmPreset::Llama7bDp16, 0.002, true, 1).to_vec();
    for case in hpc_suite().iter().filter(|case| case.procs == 128) {
        cells.extend(fig10_cells(case, 0.05, 1));
    }
    assert_eq!(cells.len(), 3 * 7);
    cells
}

fn fidelity() -> String {
    let results = execute(&fidelity_cells(), THREADS);
    SweepReport { seed: 1, results, branch: None }.to_json().pretty()
}

//! The golden table: every report under `tests/goldens/` and the run that
//! must reproduce it byte for byte.
//!
//! Each run uses 2 worker threads (reports are `--threads`-invariant).
//! The grids are the frozen ones in [`atlahs_bench::smoke`]; the
//! fidelity cells are the ones `atlahs fig fig08` and `atlahs fig fig10`
//! build ([`fig08_cells`], [`fig10_cells`]): Fig. 8's Llama 7B DP16 case
//! and Fig. 10's six 128-rank points, each on {testbed, LGS, htsim}, at a
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

use atlahs_bench::branch::execute_branched;
use atlahs_bench::cluster::{run_grid, ClusterGrid, ClusterReport};
use atlahs_bench::figures::{fig08_cells, fig10_cells};
use atlahs_bench::scenario::{LlmPreset, ScenarioGrid};
use atlahs_bench::smoke;
use atlahs_bench::sweep::{execute, SweepReport};
use atlahs_bench::workloads::hpc_suite;

const THREADS: usize = 2;

/// A run that renders its JSON report.
type Run = fn() -> String;

/// Golden file name → the run whose JSON report must equal it.
pub const GOLDENS: [(&str, Run); 6] = [
    ("sweep_smoke.json", || sweep(smoke::sweep_smoke_grid())),
    ("stochastic_smoke.json", stochastic_smoke),
    ("branch_smoke.json", branch_smoke),
    ("cluster_smoke.json", || cluster(smoke::cluster_smoke_grid())),
    ("cluster_fault_smoke.json", || cluster(smoke::cluster_fault_smoke_grid())),
    ("fidelity_smoke.json", fidelity),
];

/// The directory holding the checked-in goldens.
pub fn dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

/// Run `name`'s row and panic unless its report equals the golden byte
/// for byte, leaving the actual report under `CARGO_TARGET_TMPDIR`.
pub fn reproduce(name: &str) {
    let (_, run) = GOLDENS.iter().find(|(n, _)| *n == name).expect("the golden has a row");
    let got = run();
    if got != std::fs::read_to_string(dir().join(name)).unwrap_or_default() {
        let actual = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&actual, &got).expect("the target directory is writable");
        panic!(
            "tests/goldens/{name} drifted; the report the run produces now is {}",
            actual.display()
        );
    }
}

fn sweep(grid: ScenarioGrid) -> String {
    let results = execute(&grid.expand(), THREADS);
    SweepReport { seed: grid.seed, results, branch: None }.to_json().pretty()
}

/// 45 of the 75 cells, in order, are `smoke::fault_smoke_grid`'s: an
/// inactive link model consumes zero draws, so the stochastic axis must
/// not move them.
fn stochastic_smoke() -> String {
    let grid = smoke::stochastic_smoke_grid();
    assert_eq!(grid.expand().len(), 75);
    sweep(grid)
}

/// The branch grid at its pinned branch time; each shared prefix must
/// run once per group, not per cell.
fn branch_smoke() -> String {
    let grid = smoke::branch_smoke_grid();
    let (results, stats) = execute_branched(&grid.expand(), smoke::BRANCH_SMOKE_AT, THREADS);
    assert_eq!(stats.prefix_runs, 8, "prefixes must run once per group, not per cell");
    SweepReport { seed: grid.seed, results, branch: Some(stats) }.to_json().pretty()
}

fn cluster(grid: ClusterGrid) -> String {
    let results = run_grid(&grid.expand_counted().0, THREADS);
    ClusterReport { seed: grid.seed, results }.to_json().pretty()
}

fn fidelity() -> String {
    let mut cells = fig08_cells(LlmPreset::Llama7bDp16, 0.002, true, 1).to_vec();
    for case in hpc_suite().iter().filter(|case| case.procs == 128) {
        cells.extend(fig10_cells(case, 0.05, 1));
    }
    assert_eq!(cells.len(), 3 * 7);
    SweepReport { seed: 1, results: execute(&cells, THREADS), branch: None }.to_json().pretty()
}

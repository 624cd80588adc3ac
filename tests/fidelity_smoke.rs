//! Fidelity as a golden: the paper's §5 claim — simulated runtimes within
//! single-digit percent of measured ones — as a byte-compared artefact.
//!
//! The cells are the ones `atlahs fig fig08` and `atlahs fig fig10` build
//! ([`fig08_cells`], [`fig10_cells`]): Fig. 8's Llama 7B DP16 case and
//! Fig. 10's six 128-rank points, each on {testbed, LGS, htsim}, at a fixed
//! small scale and seed 1. The golden holds their makespans, so a change
//! that moves either backend's signed error against the reference — or
//! the reference itself — fails here.
//!
//! The reference is `atlahs_testbed`, the repository's own fluid-flow
//! emulator standing in for the paper's measured clusters — **not
//! hardware**. The golden pins agreement with that model, not with a
//! machine.

use atlahs_bench::figures::{fig08_cells, fig10_cells};
use atlahs_bench::scenario::LlmPreset;
use atlahs_bench::sweep::{execute, SweepReport};
use atlahs_bench::workloads::hpc_suite;

const AI_SCALE: f64 = 0.002;
const HPC_SCALE: f64 = 0.05;

#[test]
fn validation_cells_reproduce_the_fidelity_golden() {
    let mut cells = fig08_cells(LlmPreset::Llama7bDp16, AI_SCALE, true, 1).to_vec();
    for case in hpc_suite().iter().filter(|case| case.procs == 128) {
        cells.extend(fig10_cells(case, HPC_SCALE, 1));
    }
    assert_eq!(cells.len(), 3 * 7);
    let report = SweepReport { seed: 1, results: execute(&cells, 2), branch: None };
    let got = report.to_json().pretty();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/fidelity_smoke.json");
    let want = std::fs::read_to_string(path).unwrap_or_default();
    if got != want {
        let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fidelity_smoke.json");
        std::fs::write(&actual, &got).expect("the target directory is writable");
        panic!(
            "the Fig. 8/10 validation cells drifted from tests/goldens/fidelity_smoke.json; \
             the report they produce now is {}",
            actual.display()
        );
    }
}

//! Fidelity as a golden: the paper's §5 claim — simulated runtimes within
//! single-digit percent of measured ones — as a byte-compared artefact.
//!
//! The cells are the `fidelity_smoke.json` row of the golden table
//! (`tests/golden_table/mod.rs`): Fig. 8's Llama 7B DP16 case and Fig.
//! 10's six 128-rank points, each on {testbed, LGS, htsim}. The golden
//! holds their makespans, so a change that moves either backend's signed
//! error against the reference — or the reference itself — fails here.
//! The reference is `atlahs_testbed`, a fluid-flow emulator, **not
//! hardware**.

mod golden_table;

#[test]
fn validation_cells_reproduce_the_fidelity_golden() {
    golden_table::reproduce("fidelity_smoke.json");
}

//! Regression pin: the fault axis must not perturb pre-existing cells,
//! and the constants under the smoke goldens stay put.
//!
//! The first test runs the `sweep_smoke.json` row of the golden table
//! (`tests/golden_table/mod.rs`): the frozen no-fault smoke grid must
//! reproduce its golden **byte for byte** — same keys (no fault suffix),
//! same FNV cell seeds, same simulation outcomes, same JSON formatting.
//! If fault machinery ever leaks into fault-free cells (a key gaining a
//! label, a seed folding fault state, an engine scheduling a phantom
//! event, a report gaining a field), this diff fails.
//!
//! The rest pin the arithmetic itself: [`cell_seed`] is an FNV-1a fold
//! whose exact constants the goldens (and every fault sub-seed derived
//! from them) depend on; the faultgen samplers and the counter-based draw
//! stream are what the distributional and stochastic cells realize. A
//! moved constant would also fail a golden row, but there as a
//! whole-report diff; here it is named.

mod golden_table;

use atlahs_bench::scenario::cell_seed;
use atlahs_core::faultgen::{exp_sample, fnv_draw2, uniform_sample, weibull_sample, LN2_Q32};

#[test]
fn no_fault_sweep_reproduces_the_checked_in_golden_bytes() {
    golden_table::reproduce("sweep_smoke.json");
}

#[test]
fn cell_seed_derivation_is_pinned() {
    // The two workload labels of the smoke grid, folded with grid seed 1.
    // These constants were captured when the goldens were frozen; moving
    // them silently re-seeds every golden cell.
    assert_eq!(cell_seed(1, "ring:8:131072:1"), 0x0f6c_e8d9_dca0_194b);
    assert_eq!(cell_seed(1, "moe:8:4:65536:1:2000"), 0x6a59_8ae1_febf_396f);
    // Seeds are forced odd (`| 1`) so they never collapse a multiplicative
    // RNG stream, and differ across grid seeds and labels.
    assert_eq!(cell_seed(7, "ring:8:131072:1") & 1, 1);
    assert_ne!(cell_seed(2, "ring:8:131072:1"), cell_seed(1, "ring:8:131072:1"));
    assert_ne!(cell_seed(1, "ring:8:131072:2"), cell_seed(1, "ring:8:131072:1"));
}

#[test]
fn distributional_fault_sub_seeds_are_pinned() {
    // Fault sub-seeds fold the *fault label* over the cell seed
    // (`cell_seed(cell.seed, &fault.label())`), so the label grammar is
    // part of the golden contract. These are the labels of the frozen
    // fault (inside stochastic_smoke.json) and cluster-fault smoke grids,
    // folded with seed 1.
    assert_eq!(cell_seed(1, "markov:4:20000:20000:300000"), 0x2b0f_6cf7_c548_b0c3);
    assert_eq!(cell_seed(1, "rackfail:1:20000:140000"), 0xcd84_7300_be65_5359);
    assert_eq!(cell_seed(1, "churn:0;0;d,60000;0;u,100000;1;d,180000;1;u"), 0x4ba5_c56d_4a10_87df);
    assert_eq!(cell_seed(1, "straggler:50:200:200:2"), 0x401e_9891_5b58_d1a3);
    assert_eq!(cell_seed(1, "mtbf:20000:3"), 0xfb11_a53b_7793_c353);
}

#[test]
fn stochastic_sub_seeds_and_draw_stream_are_pinned() {
    // The stochastic-smoke cells derive their draw-stream seeds exactly
    // like every other fault sub-seed — `cell_seed(cell.seed, label)` —
    // so the five frozen loss/jitter labels are part of the golden
    // contract of tests/goldens/stochastic_smoke.json.
    assert_eq!(cell_seed(1, "loss:20000"), 0xdc17_5da5_15a2_b8e7);
    assert_eq!(cell_seed(1, "loss:80000:core"), 0x34a4_6458_c76d_b647);
    assert_eq!(cell_seed(1, "jitter:exp:2000"), 0xf62a_0076_149f_8ea9);
    assert_eq!(cell_seed(1, "jitter:weibull:3000:2"), 0xac23_0fbc_f39b_4967);
    assert_eq!(cell_seed(1, "jitter:uniform:1500"), 0x5fbc_d743_b777_a1a5);
    // The counter-based draw stream itself: FNV-1a over (seed, stream
    // tag, port, counter). "loss" and "jitter" are disjoint streams on
    // the same counter value, and every (port, counter) pair is a fresh
    // draw — the goldens realize exactly these words.
    assert_eq!(fnv_draw2(1, "loss", 0, 0), 0xfaf5_d5c4_4c29_ccbf);
    assert_eq!(fnv_draw2(1, "jitter", 0, 0), 0x8720_46c9_eb0c_a1c6);
    assert_eq!(fnv_draw2(1, "loss", 3, 7), 0xef00_cd63_07fb_39db);
}

#[test]
fn faultgen_sampler_constants_are_pinned() {
    // The distributional goldens depend on the Q32 fixed-point
    // inverse-CDF samplers; these constants pin the arithmetic. ln(2) in
    // Q32: floor(0.6931471805599453 * 2^32).
    assert_eq!(LN2_Q32, 2_977_044_472);
    // A median draw inverts to mean*ln(2) (the exponential median) and
    // to scale*ln(2)^(1/shape) for the Weibull.
    assert_eq!(exp_sample(30_000, u64::MAX / 2), 20_794);
    assert_eq!(weibull_sample(30_000, 2, u64::MAX / 2), 24_976);
    // The uniform jitter sampler maps the draw's high 32 bits onto
    // [0, max_ns): exactly max/2 at the median, max-1 at the top.
    assert_eq!(uniform_sample(1_500, u64::MAX / 2), 749);
    assert_eq!(uniform_sample(1_500, u64::MAX), 1_499);
    assert_eq!(uniform_sample(1_500, 0), 0);
}

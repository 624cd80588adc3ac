//! Every message-level per-byte cost against the float formula it replaced.
//!
//! Each cost site charges an exact `NsPerByte` rate, rounded half up (the
//! LGS gaps, the ideal wire time) or down (the NVLink copy, the Direct
//! Drive media time, reductions). One test per rate in use keeps the
//! replaced `f64` formula as its reference and asserts that the integer
//! cost (the site's own cost function where it has one) equals it on:
//!
//! * every size below 3·10⁶;
//! * 10⁶ xorshift sizes below 2⁴⁸;
//! * 10⁵ sizes ≡ 25 (mod 50) up to 2⁴⁸, where 0.18 ns/B costs an exact
//!   half nanosecond and round-half-up must agree with `f64::round`;
//! * `150·2^j` for `j < 40`, where 1/150 ns/B costs a whole number and a
//!   float product just below it would truncate one short.
//!
//! The two first differ past 2⁵³ bytes, where an `f64` stops holding
//! every integer.

use atlahs::collectives::nccl::NcclConfig;
use atlahs::collectives::CollParams;
use atlahs::core::backends::IdealBackend;
use atlahs::directdrive::ServiceParams;
use atlahs::htsim::topology::LinkParams;
use atlahs::lgs::LogGopsParams;
use atlahs::schedgen::nccl2goal::NcclToGoalConfig;
use atlahs_bench::scenario::storage_service_params;
use atlahs_bench::workloads::lgs_params_for_link;

fn xorshift(mut x: u64) -> impl Iterator<Item = u64> {
    std::iter::repeat_with(move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x >> 16
    })
}

fn sizes() -> impl Iterator<Item = u64> {
    let ties = xorshift(0x2545_f491_4f6c_dd1d).map(|r| r - r % 50 + 25);
    (0..3_000_000)
        .chain(xorshift(0x9e37_79b9_7f4a_7c15).take(1_000_000))
        .chain(ties.take(100_000))
        .chain((0..40).map(|j| 150 << j))
}

/// `site(b) == reference(b)` for every size of [`sizes`].
fn check(what: &str, site: impl Fn(u64) -> u64, reference: impl Fn(u64) -> u64) {
    for b in sizes() {
        assert_eq!(site(b), reference(b), "{what} at {b} B");
    }
}

// ---- LGS: `g + G·b` and `o + O·b`, rounded half up -----------------------

fn lgs(what: &str, p: LogGopsParams, g_ns_per_byte: f64) {
    check(what, |b| p.nic_cost(b), |b| p.g + (b as f64 * g_ns_per_byte).round() as u64);
    // `O = 0`: the float path was skipped and the cost was `o` alone.
    check(what, |b| p.cpu_cost(b), |_| p.o);
}

#[test]
fn lgs_ai_alps_g() {
    lgs("ai_alps G = 0.04", LogGopsParams::ai_alps(), 0.04);
}

#[test]
fn lgs_hpc_testbed_g() {
    lgs("hpc_testbed G = 0.18", LogGopsParams::hpc_testbed(), 0.18);
}

/// The link-calibrated `G`: `1 / (bytes_per_ns · 0.92)` in the parent.
fn lgs_link(gbps: u64) {
    let link = LinkParams { gbps, latency_ns: 500 };
    let g = 1.0 / (link.bytes_per_ns() * 0.92);
    lgs(&format!("link-calibrated G at {gbps} Gb/s"), lgs_params_for_link(link), g);
}

#[test]
fn lgs_link_calibrated_g_200_gbps() {
    lgs_link(200);
}

#[test]
fn lgs_link_calibrated_g_100_gbps() {
    lgs_link(100);
}

#[test]
fn lgs_link_calibrated_g_56_gbps() {
    lgs_link(56);
}

// ---- ideal backend: `bytes / bandwidth`, rounded half up -----------------

fn ideal(gbps: u64, bytes_per_ns: f64) {
    let backend = IdealBackend::new(gbps, 0);
    check(
        &format!("ideal wire time at {gbps} Gb/s"),
        |b| backend.tx_time(b),
        |b| (b as f64 / bytes_per_ns).round() as u64,
    );
}

#[test]
fn ideal_tx_25_bytes_per_ns() {
    ideal(200, 25.0);
}

#[test]
fn ideal_tx_12_5_bytes_per_ns() {
    ideal(100, 12.5);
}

#[test]
fn ideal_tx_7_bytes_per_ns() {
    ideal(56, 7.0);
}

/// `compute_only_ns`'s effectively instant network.
#[test]
fn ideal_tx_10e9_bytes_per_ns() {
    ideal(8_000_000_000, 1e9);
}

// ---- truncated costs: NVLink copy, Direct Drive media, reductions --------

#[test]
fn nvlink_copy_one_150th() {
    let rate = NcclToGoalConfig::default().intra_per_byte;
    check("NVLink copy at 1/150 ns/B", |b| rate.trunc(b), |b| (b as f64 * (1.0 / 150.0)) as u64);
}

fn media(what: &str, p: ServiceParams, ns_per_byte: f64) {
    for (write, base) in [(false, p.bss_read_base_ns), (true, p.bss_write_base_ns)] {
        check(what, |b| p.media_ns(write, b), |b| base + (b as f64 * ns_per_byte) as u64);
    }
}

#[test]
fn directdrive_media_default_0_05() {
    media("Direct Drive media at 0.05 ns/B", ServiceParams::default(), 0.05);
}

#[test]
fn directdrive_media_storage_cells_0_005() {
    media("Direct Drive media at 0.005 ns/B", storage_service_params(), 0.005);
}

#[test]
fn mpi_reduce_0_05() {
    let rate = CollParams::default().reduce_per_byte;
    check("MPI reduction at 0.05 ns/B", |b| rate.trunc(b), |b| (b as f64 * 0.05) as u64);
}

#[test]
fn nccl_reduce_0_01() {
    let rate = NcclConfig::default().reduce_per_byte;
    check("NCCL reduction at 0.01 ns/B", |b| rate.trunc(b), |b| (b as f64 * 0.01) as u64);
}

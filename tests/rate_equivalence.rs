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
//!
//! The packet engine's link arithmetic gets one test per site, each
//! against the parent's float formula: serialisation, BDP and RTO at
//! 200, 100 and 56 Gb/s under every degrade `bw_pct` in 1..=1000 plus
//! large ones, the base RTT on every route of five small fabrics, and the
//! ECN draw. They are equal except where the parent's rate `7·bw_pct/100`
//! B/ns is not a binary fraction (56 Gb/s inside a degrade window, which
//! no pinned output runs): there the float was off by one and the integer
//! is the exact ceiling or floor.

use atlahs::collectives::nccl::NcclConfig;
use atlahs::collectives::CollParams;
use atlahs::core::backends::IdealBackend;
use atlahs::directdrive::ServiceParams;
use atlahs::htsim::engine::{bdp_and_rto, ecn_mark, tx_ns};
use atlahs::htsim::topology::{LinkParams, Topology, TopologyConfig};
use atlahs::lgs::LogGopsParams;
use atlahs::schedgen::nccl2goal::INTRA_PER_BYTE;
use atlahs_bench::scenario::{storage_service_params, TopologySpec};
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

/// The link-calibrated `G`: `1 / (bytes_per_ns · 0.92)` in the parent,
/// with `bytes_per_ns = gbps / 8`.
fn lgs_link(gbps: u64) {
    let link = LinkParams { gbps, latency_ns: 500 };
    let g = 1.0 / (link.gbps as f64 / 8.0 * 0.92);
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
    check(
        "NVLink copy at 1/150 ns/B",
        |b| INTRA_PER_BYTE.trunc(b),
        |b| (b as f64 * (1.0 / 150.0)) as u64,
    );
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

// ---- htsim: one integer rate per port, in units of 10 Mb/s ---------------

/// The line rates of the three fabrics: AI, storage, HPC.
const GBPS: [u64; 3] = [200, 100, 56];

/// Every degrade-window bandwidth from 1 % to 1000 %, then large ones.
fn bw_pcts() -> impl Iterator<Item = u32> {
    (1..=1000).chain([4_096, 65_535, 1 << 20, u32::MAX])
}

/// The parent's port rate in B/ns: `bytes_per_ns()` nominally and
/// `bytes_per_ns() * bw_pct / 100` inside a degrade window (equal at
/// 100 % for these rates).
fn float_rate(gbps: u64, bw_pct: u32) -> f64 {
    gbps as f64 / 8.0 * bw_pct as f64 / 100.0
}

/// The `bw_pct` values at which `site` differs from `reference` on some
/// input of `inputs`. Where they differ, `exact(input, site value)` must
/// hold: the integer site is then right and the float was off.
fn divergent_pcts(
    gbps: u64,
    inputs: impl Iterator<Item = u64> + Clone,
    site: impl Fn(u64, u64) -> u64,
    reference: impl Fn(f64, u64) -> u64,
    exact: impl Fn(u64, u64, u64) -> bool,
) -> Vec<u32> {
    let link = LinkParams { gbps, latency_ns: 500 };
    assert_eq!(float_rate(gbps, 100), gbps as f64 / 8.0);
    let mut out = Vec::new();
    for bw_pct in bw_pcts() {
        let (rate, float) = (link.rate(bw_pct), float_rate(gbps, bw_pct));
        let mut differs = false;
        for x in inputs.clone() {
            let got = site(rate, x);
            if got != reference(float, x) {
                assert!(exact(rate, x, got), "{gbps} Gb/s × {bw_pct} %, input {x}: {got}");
                differs = true;
            }
        }
        if differs {
            out.push(bw_pct);
        }
    }
    out
}

/// No divergence at 200 and 100 Gb/s, where every rate the parent used is
/// a binary fraction; at 56 Gb/s, `count` of the `bw_pct` in 1..=1000,
/// starting with `first`.
fn assert_documented(what: &str, gbps: u64, pcts: &[u32], count: usize, first: &[u32]) {
    if gbps != 56 {
        assert!(pcts.is_empty(), "{what} at {gbps} Gb/s diverges at {pcts:?}");
        return;
    }
    let small: Vec<u32> = pcts.iter().copied().filter(|&p| p <= 1000).collect();
    assert_eq!(small.len(), count, "{what} at 56 Gb/s diverges at {small:?}");
    assert_eq!(&small[..first.len()], first, "{what} at 56 Gb/s");
}

#[test]
fn htsim_serialisation() {
    for gbps in GBPS {
        let pcts = divergent_pcts(
            gbps,
            64..=4160,
            |rate, wire| tx_ns(rate, wire as u32),
            |rate, wire| (wire as f64 / rate).ceil() as u64,
            // `t` is the ceiling: `t` ns carry the frame, `t − 1` do not.
            |rate, wire, t| t * rate >= wire * 800 && (t - 1) * rate < wire * 800,
        );
        assert_documented("tx_ns", gbps, &pcts, 74, &[5, 10, 20, 29]);
    }
}

/// Base RTTs from a one-hop header exchange to beyond any fabric here.
fn base_rtts() -> impl Iterator<Item = u64> + Clone {
    (1..=20_000).chain((20_000..=1_000_000).step_by(997)).chain([1 << 20, 1 << 32])
}

#[test]
fn htsim_bdp_and_rto() {
    let floor =
        |num: u128, den: u128, got: u64| got as u128 * den <= num && (got as u128 + 1) * den > num;
    for gbps in GBPS {
        let pcts = divergent_pcts(
            gbps,
            base_rtts(),
            |rate, rtt| bdp_and_rto(rate, rtt).0,
            |rate, rtt| (rtt as f64 * rate) as u64,
            |rate, rtt, bdp| floor(rtt as u128 * rate as u128, 800, bdp),
        );
        assert_documented("BDP", gbps, &pcts, 128, &[5, 10, 20]);
        let pcts = divergent_pcts(
            gbps,
            base_rtts(),
            |rate, rtt| bdp_and_rto(rate, rtt).1,
            |rate, rtt| 3 * rtt + (10.0 * 4096_f64 / rate) as u64,
            |rate, rtt, rto| floor(10 * 4096 * 800, rate as u128, rto - 3 * rtt),
        );
        assert_documented("RTO", gbps, &pcts, 0, &[]);
    }
}

/// The parent's base RTT: per-hop latency plus `mtu / bytes_per_ns`
/// forward and `64 / bytes_per_ns` back, summed in `f64` and rounded.
fn float_base_rtt(topo: &Topology, path: &[u32], rpath: &[u32], mtu: u32) -> u64 {
    let hop = |p: u32, bytes: f64| {
        let l = topo.ports()[p as usize].link;
        l.latency_ns as f64 + bytes / (l.gbps as f64 / 8.0)
    };
    let fwd: f64 = path.iter().map(|&p| hop(p, mtu as f64)).sum();
    let rev: f64 = rpath.iter().map(|&p| hop(p, 64.0)).sum();
    (fwd + rev).round() as u64
}

#[test]
fn htsim_base_rtt() {
    let mixed = TopologyConfig::Dragonfly {
        groups: 4,
        routers_per_group: 3,
        hosts_per_router: 2,
        global_per_router: 1,
        edge: LinkParams { gbps: 200, latency_ns: 500 },
        local: LinkParams { gbps: 100, latency_ns: 600 },
        global: LinkParams { gbps: 56, latency_ns: 1_500 },
    };
    let specs = ["switch:8", "ai-fattree:16:2", "hpc-fattree:16:16", "storage-fattree:16:4"];
    let configs = specs.iter().map(|s| TopologySpec::parse(s).unwrap().config());
    let configs = configs.chain([TopologyConfig::dragonfly(4, 3, 2), mixed]);
    for config in configs {
        let topo = Topology::build(config.clone());
        let hosts = topo.num_hosts() as u32;
        for src in 0..hosts {
            for dst in (0..hosts).filter(|&d| d != src) {
                // Every ECMP bucket: no fabric here has more than 8 per pair.
                for ecmp in 0..8 {
                    let (path, rpath) = (topo.route(src, dst, ecmp), topo.route(dst, src, ecmp));
                    assert_eq!(
                        topo.base_rtt(&path, &rpath, 4096),
                        float_base_rtt(&topo, &path, &rpath, 4096),
                        "{config:?}: {src} → {dst}, ECMP {ecmp}"
                    );
                }
            }
        }
    }
}

/// The parent's ECN draw: `random::<f64>()`, i.e. `(word >> 11) · 2⁻⁵³`,
/// against `p = (q − K_min) / (K_max − K_min)` rounded to an `f64`.
fn float_ecn(q: u64, queue_bytes: u64, word: u64) -> bool {
    let (kmin, kmax) = (queue_bytes / 5, queue_bytes * 4 / 5);
    if q >= kmax {
        return true;
    }
    q > kmin && {
        let p = (q - kmin) as f64 / (kmax - kmin).max(1) as f64;
        ((word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }
}

#[test]
fn htsim_ecn_mark() {
    let cap = 1 << 20;
    let (kmin, kmax) = (cap / 5, cap * 4 / 5);
    // 10⁶ random (depth, word) pairs over the whole buffer.
    let mut x = 0x853c_49e6_748f_ea9b_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..1_000_000 {
        let (q, word) = (next() % (cap + 4096), next());
        assert_eq!(ecn_mark(q, cap, || word), float_ecn(q, cap, word), "depth {q}, word {word:#x}");
    }
    // Outside (K_min, K_max) no word is drawn.
    for q in [0, kmin, kmax, cap] {
        ecn_mark(q, cap, || panic!("depth {q} drew a word"));
    }
    // The exact threshold `w*`: the marks are exactly the words whose top
    // 53 bits are below `⌈excess·2⁵³ / span⌉`. The float agrees except at
    // depths where rounding `p` moves the threshold by one word.
    let span = (kmax - kmin) as u128;
    let mut off_by_one = 0;
    for q in kmin + 1..kmax {
        let threshold = (((q - kmin) as u128) << 53).div_ceil(span) as u64;
        let (below, at) = ((threshold - 1) << 11, threshold << 11);
        assert!(ecn_mark(q, cap, || below) && !ecn_mark(q, cap, || at), "depth {q}");
        if !float_ecn(q, cap, below) || float_ecn(q, cap, at) {
            off_by_one += 1;
        }
    }
    assert_eq!(off_by_one, 209_742);
    // A word exactly at `p`, which the 1 MiB buffer's odd span never
    // meets: with 10 B (K_min 2, K_max 8) depth 5 marks with probability
    // 1/2, and the word whose top 53 bits are 2⁵² is the first that does
    // not mark.
    for (word, marked) in [(((1u64 << 52) - 1) << 11, true), (1 << 63, false)] {
        assert_eq!(ecn_mark(5, 10, || word), marked, "word {word:#x}");
        assert_eq!(float_ecn(5, 10, word), marked, "word {word:#x}");
    }
}

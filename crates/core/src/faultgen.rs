//! Seeded fault-scenario generation: integer-parameterized distributions
//! that *compile down* to the primitive fault events the execution layers
//! already understand (timed port windows, straggler factors, job-failure
//! draws) instead of replacing them.
//!
//! Everything here is a pure function of integer inputs:
//!
//! * Randomness is an FNV-1a fold ([`fnv_draw`]) over `(seed, stream,
//!   index)` — no RNG stream is consumed, so a fault axis can never
//!   perturb any other seeded draw, and the same spec reproduces
//!   bit-identically across threads and reruns.
//! * Inverse-CDF sampling is **fixed-point** (Q32) integer arithmetic:
//!   `-ln u` is computed by a bit-by-bit repeated-squaring `log2`
//!   ([`LN2_Q32`] converts), and Weibull's `k`-th root by binary search.
//!   No floats means no platform/libm drift in the goldens, and
//!   distribution specs stay `Eq`/hashable like the integer-percent
//!   fault params they generate.
//!
//! Built on top of the samplers:
//!
//! * [`unroll_two_state`] — a Gilbert–Elliott two-state up/down process
//!   unrolled deterministically over a horizon into non-overlapping
//!   `(start, end)` down-windows (Markov-modulated link flapping).
//! * [`ChurnEvent`] + [`parse_churn_trace`] / [`parse_churn_inline`] —
//!   a small `t, domain, down|up` trace format replayed into per-domain
//!   down-windows ([`churn_windows`]).
//!
//! The grid layer maps windows onto topology failure domains (whole
//! racks, whole switches) and ports; the cluster engine draws MTBF-style
//! times-to-failure from [`exp_sample`] directly.

/// `round(ln 2 · 2^32)` — the Q32 fixed-point natural log of 2, the
/// only non-trivial constant in the sampler. Pinned (together with
/// sample values) in `tests/sweep_smoke_pin.rs`: moving it re-seeds
/// every distributional fault golden.
pub const LN2_Q32: u64 = 2_977_044_472;

/// The one FNV-1a fold behind every fault draw in the tree — the grid
/// layer's `cell_seed`, the straggler and job-failure decisions, and the
/// two draws below: offset basis mixed with `seed` times the golden
/// ratio, then the 64-bit FNV prime over the bytes of `parts` in order.
#[inline]
pub fn fnv_fold(seed: u64, parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for part in parts {
        for &b in *part {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// FNV-1a draw over `(seed, stream, n)`: [`fnv_fold`] of the stream
/// label then `n` little-endian.
pub fn fnv_draw(seed: u64, stream: &str, n: u64) -> u64 {
    fnv_fold(seed, &[stream.as_bytes(), &n.to_le_bytes()])
}

/// FNV-1a draw over `(seed, stream, a, b)` — the two-index variant of
/// [`fnv_draw`] (folding `a` then `b` little-endian). The per-packet
/// stochastic link layer uses it as `fnv_draw2(seed, "loss"/"jitter",
/// port, draw_counter)`: the counter pair addresses one draw per packet
/// per port, so the stream is position-independent — re-runs, thread
/// counts, and snapshot/restore all replay the identical sequence as
/// long as the counters are carried in the checkpoint.
pub fn fnv_draw2(seed: u64, stream: &str, a: u64, b: u64) -> u64 {
    fnv_fold(seed, &[stream.as_bytes(), &a.to_le_bytes(), &b.to_le_bytes()])
}

/// `log2(m)` in Q32 for a Q32 mantissa `m` in `[1, 2)`, by 32 rounds of
/// repeated squaring: squaring doubles the exponent, so whether the
/// square reaches 2 is exactly the next fraction bit.
fn log2_q32(mut m: u128) -> u64 {
    debug_assert!((1u128 << 32..2u128 << 32).contains(&m));
    let mut out = 0u64;
    for i in 0..32u32 {
        m = (m * m) >> 32;
        if m >= 2u128 << 32 {
            m >>= 1;
            out |= 1 << (31 - i);
        }
    }
    out
}

/// `-ln(u / 2^32)` in Q32 for `u` in `[1, 2^32)`. Strictly positive and
/// monotone non-increasing in `u` — the inverse-CDF property the
/// samplers (and their property tests) rely on.
fn neg_ln_q32(u: u32) -> u64 {
    debug_assert!(u >= 1);
    let u = u as u64;
    let bits = 64 - u.leading_zeros() as u64; // 1..=32
    let e = 33 - bits; // u/2^32 = m · 2^-e with m in [1, 2)
    let m = (u as u128) << (33 - bits); // Q32 mantissa
    let ln_m = ((log2_q32(m) as u128 * LN2_Q32 as u128) >> 32) as u64;
    e * LN2_Q32 - ln_m
}

/// The largest Q32 `x` with `(x/2^32)^k ≤ y/2^32`, by binary search.
/// `k` must be in `[1, 16]` (callers clamp).
fn kth_root_q32(y: u64, k: u32) -> u64 {
    debug_assert!((1..=16).contains(&k));
    if k == 1 || y == 0 {
        return y;
    }
    let pow = |x: u64| -> u128 {
        let mut acc: u128 = 1 << 32;
        for _ in 0..k {
            acc = (acc * x as u128) >> 32;
        }
        acc
    };
    // y ≥ 1.0 ⇒ root ≤ y; y < 1.0 ⇒ root < 1.0.
    let (mut lo, mut hi) = (0u64, y.max(1 << 32) + 1);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if pow(mid) <= y as u128 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Exponential inverse-CDF sample: `mean_ns · (-ln u)` with `u` the top
/// 32 bits of `draw` (forced non-zero). Can return 0 for a draw very
/// close to 1 — callers needing progress apply `.max(1)`.
pub fn exp_sample(mean_ns: u64, draw: u64) -> u64 {
    let u = ((draw >> 32) as u32) | 1;
    (((mean_ns as u128) * neg_ln_q32(u) as u128) >> 32) as u64
}

/// Weibull inverse-CDF sample: `scale_ns · (-ln u)^(1/shape)`. Shape 1
/// degenerates to the exponential; shape > 1 concentrates around the
/// scale (wear-out-like repair times), shape is clamped to `[1, 16]`.
pub fn weibull_sample(scale_ns: u64, shape: u32, draw: u64) -> u64 {
    let u = ((draw >> 32) as u32) | 1;
    let root = kth_root_q32(neg_ln_q32(u), shape.clamp(1, 16));
    (((scale_ns as u128) * root as u128) >> 32) as u64
}

/// Uniform sample in `[0, max_ns)`: the draw's top 32 bits scale
/// `max_ns` as a Q32 fraction. Pure integer, exactly `max_ns` distinct
/// outcomes when `max_ns ≤ 2^32` — no modulo bias.
pub fn uniform_sample(max_ns: u64, draw: u64) -> u64 {
    ((max_ns as u128 * ((draw >> 32) as u128)) >> 32) as u64
}

/// An integer-parameterized sojourn/inter-arrival distribution. `Eq` and
/// hashable by construction, so specs embedding one keep exact labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// Exponential with the given mean.
    Exp { mean_ns: u64 },
    /// Weibull with the given scale and integer shape (clamped to
    /// `[1, 16]` at sample time).
    Weibull { scale_ns: u64, shape: u32 },
    /// Uniform in `[0, max_ns)`.
    Uniform { max_ns: u64 },
}

impl Distribution {
    /// Inverse-CDF sample from one FNV draw. Exp/Weibull are monotone
    /// non-increasing in the draw's top 32 bits; Uniform is monotone
    /// non-decreasing.
    pub fn sample(&self, draw: u64) -> u64 {
        match *self {
            Distribution::Exp { mean_ns } => exp_sample(mean_ns, draw),
            Distribution::Weibull { scale_ns, shape } => weibull_sample(scale_ns, shape, draw),
            Distribution::Uniform { max_ns } => uniform_sample(max_ns, draw),
        }
    }
}

/// Unroll a Gilbert–Elliott two-state (up/down) process over
/// `[0, horizon_ns)` into down-windows.
///
/// The process starts up at t = 0; sojourn `i` in each state is an
/// independent inverse-CDF sample from `fnv_draw(seed, "up"/"down", i)`,
/// clamped to ≥ 1 ns so the unroll always advances. Windows are
/// non-overlapping and ascending **by construction** (each down-window
/// is preceded by ≥ 1 ns of up time and clipped to the horizon);
/// `max_windows` bounds the schedule for pathological parameter choices.
pub fn unroll_two_state(
    seed: u64,
    up: &Distribution,
    down: &Distribution,
    horizon_ns: u64,
    max_windows: usize,
) -> Vec<(u64, u64)> {
    let mut windows = Vec::new();
    let mut t = 0u64;
    let mut i = 0u64;
    while windows.len() < max_windows {
        t = t.saturating_add(up.sample(fnv_draw(seed, "up", i)).max(1));
        if t >= horizon_ns {
            break;
        }
        let end = t.saturating_add(down.sample(fnv_draw(seed, "down", i)).max(1)).min(horizon_ns);
        windows.push((t, end));
        t = end;
        i += 1;
    }
    windows
}

/// One churn-trace event: failure domain `domain` goes down or comes
/// back up at `t_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChurnEvent {
    pub t_ns: u64,
    pub domain: u32,
    pub down: bool,
}

/// Validate a churn trace: per domain, events must be in strictly
/// increasing time order, strictly alternate down/up starting with
/// `down`, and every `down` must be closed by an `up` (finite windows
/// are what guarantee recovery).
pub fn validate_churn(events: &[ChurnEvent]) -> Result<(), String> {
    use std::collections::BTreeMap;
    let mut open: BTreeMap<u32, u64> = BTreeMap::new();
    let mut last: BTreeMap<u32, u64> = BTreeMap::new();
    for e in events {
        if let Some(&t) = last.get(&e.domain) {
            if e.t_ns <= t {
                return Err(format!(
                    "churn trace: domain {} events must be strictly increasing in time \
                     ({} after {})",
                    e.domain, e.t_ns, t
                ));
            }
        }
        last.insert(e.domain, e.t_ns);
        match (e.down, open.contains_key(&e.domain)) {
            (true, true) => {
                return Err(format!(
                    "churn trace: domain {} goes down while already down",
                    e.domain
                ))
            }
            (false, false) => {
                return Err(format!("churn trace: domain {} comes up while already up", e.domain))
            }
            (true, false) => {
                open.insert(e.domain, e.t_ns);
            }
            (false, true) => {
                open.remove(&e.domain);
            }
        }
    }
    // BTreeMap iterates in key order, so the lowest offending domain is
    // reported without an explicit min scan.
    if let Some((&d, _)) = open.iter().next() {
        return Err(format!(
            "churn trace: domain {d} is left down at end of trace (every down needs an up)"
        ));
    }
    Ok(())
}

/// The down-windows of one domain in a **validated** churn trace.
pub fn churn_windows(events: &[ChurnEvent], domain: u32) -> Vec<(u64, u64)> {
    let mut windows = Vec::new();
    let mut open: Option<u64> = None;
    for e in events.iter().filter(|e| e.domain == domain) {
        match (e.down, open) {
            (true, None) => open = Some(e.t_ns),
            (false, Some(start)) => {
                windows.push((start, e.t_ns));
                open = None;
            }
            _ => {} // unreachable on validated traces
        }
    }
    windows
}

/// Parse the churn trace *file* format: one `<t_ns> <domain> <down|up>`
/// event per line, `#` comments and blank lines ignored. Validated.
pub fn parse_churn_trace(text: &str) -> Result<Vec<ChurnEvent>, String> {
    let mut events = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let err = |what: &str| format!("churn trace line {}: {what} in `{line}`", no + 1);
        let [t, domain, state] = fields.as_slice() else {
            return Err(err("expected `<t_ns> <domain> <down|up>`"));
        };
        events.push(ChurnEvent {
            t_ns: t.parse().map_err(|_| err("bad time"))?,
            domain: domain.parse().map_err(|_| err("bad domain"))?,
            down: match *state {
                "down" => true,
                "up" => false,
                _ => return Err(err("state must be `down` or `up`")),
            },
        });
    }
    validate_churn(&events)?;
    Ok(events)
}

/// Parse the *inline* churn grammar used in fault labels and CLI
/// tokens: events `t;domain;d|u` joined by `,`. Validated.
pub fn parse_churn_inline(s: &str) -> Result<Vec<ChurnEvent>, String> {
    let mut events = Vec::new();
    for ev in s.split(',') {
        let fields: Vec<&str> = ev.split(';').collect();
        let err = |what: &str| format!("churn event `{ev}`: {what}");
        let [t, domain, state] = fields.as_slice() else {
            return Err(err("expected `t;domain;d|u`"));
        };
        events.push(ChurnEvent {
            t_ns: t.parse().map_err(|_| err("bad time"))?,
            domain: domain.parse().map_err(|_| err("bad domain"))?,
            down: match *state {
                "d" => true,
                "u" => false,
                _ => return Err(err("state must be `d` or `u`")),
            },
        });
    }
    validate_churn(&events)?;
    Ok(events)
}

/// The canonical inline label of a churn trace (inverse of
/// [`parse_churn_inline`]).
pub fn churn_inline_label(events: &[ChurnEvent]) -> String {
    events
        .iter()
        .map(|e| format!("{};{};{}", e.t_ns, e.domain, if e.down { "d" } else { "u" }))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---- satellite: sampler property tests --------------------------

    /// The tolerance (percent) the empirical-mean property allows; the
    /// meta-test below proves a biased sampler lands far outside it.
    const MEAN_TOL_PCT: u64 = 5;

    fn empirical_mean(dist: &Distribution, seed: u64, n: u64) -> u64 {
        let sum: u128 = (0..n).map(|i| dist.sample(fnv_draw(seed, "mean", i)) as u128).sum();
        (sum / n as u128) as u64
    }

    #[test]
    fn inverse_cdf_is_monotone_in_the_draw() {
        // -ln u is non-increasing in u, so samples are non-increasing in
        // the draw's top 32 bits — for both distributions and across the
        // full range including the extremes.
        let us: Vec<u32> = (0..=20).map(|i| 1u32 << i).chain([u32::MAX - 1, u32::MAX]).collect();
        for dist in [
            Distribution::Exp { mean_ns: 1_000_000 },
            Distribution::Weibull { scale_ns: 1_000_000, shape: 3 },
        ] {
            let samples: Vec<u64> = us.iter().map(|&u| dist.sample((u as u64) << 32)).collect();
            for w in samples.windows(2) {
                assert!(w[0] >= w[1], "{dist:?}: sample must not increase with the draw");
            }
            assert!(samples[0] > samples[samples.len() - 1], "the samplers are not constant");
        }
    }

    #[test]
    fn empirical_mean_tracks_the_integer_parameter() {
        let mean = 100_000u64;
        for seed in [1, 7, 0xdead_beef] {
            let got = empirical_mean(&Distribution::Exp { mean_ns: mean }, seed, 20_000);
            let dev = got.abs_diff(mean);
            assert!(
                dev * 100 <= mean * MEAN_TOL_PCT,
                "seed {seed}: empirical mean {got} deviates from {mean} by more than \
                 {MEAN_TOL_PCT}%"
            );
        }
        // Weibull with shape 1 *is* the exponential: identical samples.
        for i in 0..256 {
            let d = fnv_draw(3, "w1", i);
            assert_eq!(
                Distribution::Weibull { scale_ns: 5_000, shape: 1 }.sample(d),
                Distribution::Exp { mean_ns: 5_000 }.sample(d),
            );
        }
        // Weibull mean is scale · Γ(1 + 1/k); for k = 2 that is
        // scale · √π/2 ≈ 0.8862 · scale.
        let got = empirical_mean(&Distribution::Weibull { scale_ns: mean, shape: 2 }, 1, 20_000);
        let expect = 88_623u64;
        assert!(
            got.abs_diff(expect) * 100 <= expect * MEAN_TOL_PCT,
            "Weibull(k=2) empirical mean {got} vs Γ-expected {expect}"
        );
    }

    #[test]
    fn same_seed_reproduces_identically() {
        let dist = Distribution::Exp { mean_ns: 77_000 };
        let a: Vec<u64> = (0..512).map(|i| dist.sample(fnv_draw(9, "s", i))).collect();
        let b: Vec<u64> = (0..512).map(|i| dist.sample(fnv_draw(9, "s", i))).collect();
        assert_eq!(a, b, "same (seed, stream, index) ⇒ same sample");
        let c: Vec<u64> = (0..512).map(|i| dist.sample(fnv_draw(10, "s", i))).collect();
        assert_ne!(a, c, "a different seed moves the draws");
        let d: Vec<u64> = (0..512).map(|i| dist.sample(fnv_draw(9, "t", i))).collect();
        assert_ne!(a, d, "a different stream moves the draws");
    }

    #[test]
    fn meta_biased_sampler_is_caught_by_the_mean_property() {
        // A plausible-looking but broken sampler: it loses the draw's
        // top bit (an off-by-one in a mask or shift would look exactly
        // like this after a refactor), so u never reaches [0.5, 1) and
        // the mean inflates to (1 + ln 2) ≈ 1.69× the parameter. It must
        // land far outside the tolerance the real property allows —
        // proving the mean check has teeth.
        let mean = 100_000u64;
        let biased = |draw: u64| exp_sample(mean, draw & !(1 << 63));
        let n = 20_000u64;
        let sum: u128 = (0..n).map(|i| biased(fnv_draw(1, "mean", i)) as u128).sum();
        let got = (sum / n as u128) as u64;
        assert!(
            got.abs_diff(mean) * 100 > mean * MEAN_TOL_PCT,
            "the biased sampler's mean {got} slipped inside the tolerance — \
             the empirical-mean property would not catch it"
        );
    }

    #[test]
    fn uniform_sample_is_bounded_monotone_and_mean_centered() {
        let max = 100_000u64;
        for i in 0..4096u64 {
            let s = uniform_sample(max, fnv_draw(5, "u", i));
            assert!(s < max, "uniform samples stay strictly below max_ns");
        }
        assert_eq!(uniform_sample(max, 0), 0);
        assert_eq!(uniform_sample(max, u64::MAX), max - 1);
        assert_eq!(uniform_sample(0, u64::MAX), 0, "max_ns 0 is the degenerate no-jitter case");
        let mut prev = 0;
        for u in (0..=u32::MAX as u64).step_by(1 << 24) {
            let s = uniform_sample(max, u << 32);
            assert!(s >= prev, "uniform is monotone in the draw's top bits");
            prev = s;
        }
        let n = 20_000u64;
        let sum: u128 = (0..n)
            .map(|i| Distribution::Uniform { max_ns: max }.sample(fnv_draw(1, "mean", i)) as u128)
            .sum();
        let got = (sum / n as u128) as u64;
        assert!(
            got.abs_diff(max / 2) * 100 <= (max / 2) * MEAN_TOL_PCT,
            "uniform empirical mean {got} deviates from {}",
            max / 2
        );
    }

    #[test]
    fn fnv_draw2_separates_streams_and_indices() {
        // Distinct (stream, a, b) triples draw independently; same
        // inputs reproduce — the contract the per-port packet draw
        // streams rely on.
        assert_eq!(fnv_draw2(9, "loss", 3, 17), fnv_draw2(9, "loss", 3, 17));
        assert_ne!(fnv_draw2(9, "loss", 3, 17), fnv_draw2(9, "jitter", 3, 17));
        assert_ne!(fnv_draw2(9, "loss", 3, 17), fnv_draw2(9, "loss", 4, 17));
        assert_ne!(fnv_draw2(9, "loss", 3, 17), fnv_draw2(9, "loss", 3, 18));
        assert_ne!(fnv_draw2(9, "loss", 3, 17), fnv_draw2(10, "loss", 3, 17));
        // The fold extends fnv_draw: folding `a` as part of the stream
        // text would alias port/counter boundaries; the le-bytes fold
        // keeps (a, b) unambiguous.
        assert_ne!(fnv_draw2(9, "s", 0x0101, 0), fnv_draw2(9, "s", 1, 0x0100_0000_0000_0001));
    }

    // ---- fixed-point internals --------------------------------------

    #[test]
    fn fixed_point_log_hits_known_values() {
        // -ln(1/2) = ln 2 exactly.
        assert_eq!(neg_ln_q32(1 << 31), LN2_Q32);
        // -ln(2^-32) = 32 ln 2 exactly (mantissa 1.0 contributes nothing).
        assert_eq!(neg_ln_q32(1), 32 * LN2_Q32);
        // -ln(1/e) = 1.0: within a few ulps of 2^32.
        let e_inv = (4_294_967_296.0f64 / std::f64::consts::E) as u32;
        let got = neg_ln_q32(e_inv);
        assert!(got.abs_diff(1 << 32) < 16, "-ln(1/e) ≈ 1.0, got Q32 {got}");
    }

    #[test]
    fn kth_root_is_exact_on_perfect_powers_and_monotone() {
        let q = |x: f64| (x * 4_294_967_296.0) as u64;
        assert_eq!(kth_root_q32(q(4.0), 2), q(2.0));
        assert_eq!(kth_root_q32(q(8.0), 3), q(2.0));
        assert_eq!(kth_root_q32(1 << 32, 5), 1 << 32);
        let mut prev = 0;
        for y in (0..=(10u64 << 32)).step_by(1 << 30) {
            let r = kth_root_q32(y, 3);
            assert!(r >= prev, "k-th root must be monotone in y");
            prev = r;
        }
    }

    // ---- Gilbert–Elliott unroll -------------------------------------

    #[test]
    fn two_state_unroll_is_sorted_disjoint_and_clipped() {
        let up = Distribution::Exp { mean_ns: 40_000 };
        let down = Distribution::Exp { mean_ns: 8_000 };
        let w = unroll_two_state(42, &up, &down, 1_000_000, 4096);
        assert!(!w.is_empty(), "a 1 ms horizon at 40 µs MTBF must flap");
        let mut prev_end = 0;
        for &(s, e) in &w {
            assert!(s >= prev_end, "windows must not overlap: {w:?}");
            assert!(e > s, "windows are non-empty");
            assert!(e <= 1_000_000, "windows are clipped to the horizon");
            prev_end = e;
        }
        assert_eq!(w, unroll_two_state(42, &up, &down, 1_000_000, 4096), "seeded ⇒ reproducible");
        assert_ne!(w, unroll_two_state(43, &up, &down, 1_000_000, 4096));
        // The cap bounds pathological parameter choices.
        assert_eq!(unroll_two_state(42, &up, &down, u64::MAX, 3).len(), 3);
    }

    // ---- churn traces -----------------------------------------------

    #[test]
    fn churn_trace_roundtrips_and_pairs_windows() {
        let text = "
            # rack 1 blips twice, rack 0 once
            1000  1 down
            5000  1 up
            2000  0 down   # interleaved with rack 1
            9000  0 up
            7000  1 down
            8000  1 up
        ";
        let events = parse_churn_trace(text).unwrap();
        assert_eq!(events.len(), 6);
        assert_eq!(churn_windows(&events, 1), vec![(1000, 5000), (7000, 8000)]);
        assert_eq!(churn_windows(&events, 0), vec![(2000, 9000)]);
        assert_eq!(churn_windows(&events, 2), vec![]);
        let label = churn_inline_label(&events);
        assert_eq!(parse_churn_inline(&label).unwrap(), events, "inline grammar roundtrips");
    }

    #[test]
    fn churn_validation_rejects_malformed_traces() {
        assert!(parse_churn_trace("100 0 down").unwrap_err().contains("left down"));
        assert!(parse_churn_trace("100 0 up").unwrap_err().contains("already up"));
        assert!(parse_churn_trace("100 0 down\n100 0 up")
            .unwrap_err()
            .contains("strictly increasing"));
        assert!(parse_churn_trace("100 0 down\n200 0 down").unwrap_err().contains("already down"));
        assert!(parse_churn_trace("100 0 sideways").unwrap_err().contains("down"));
        assert!(parse_churn_inline("5;0;d").unwrap_err().contains("left down"));
        assert!(parse_churn_inline("banana").unwrap_err().contains("expected"));
    }

    #[test]
    fn churn_validation_error_names_lowest_open_domain() {
        // With several domains left down, the error must always name the
        // lowest-numbered one — error text is part of the deterministic
        // surface (the map behind it iterates in key order).
        let trace = "100 7 down\n200 3 down\n300 5 down\n";
        for _ in 0..4 {
            let err = parse_churn_trace(trace).unwrap_err();
            assert!(err.contains("domain 3 is left down"), "{err}");
        }
    }

    /// Trace files arrive from other tooling: Windows CRLF endings,
    /// trailing blank lines, and comment-only lines must all parse to
    /// the same events as the canonical LF form.
    #[test]
    fn churn_trace_tolerates_crlf_blank_and_comment_lines() {
        let canonical = parse_churn_trace("1000 0 down\n5000 0 up\n").unwrap();
        let crlf = "1000 0 down\r\n5000 0 up\r\n";
        assert_eq!(parse_churn_trace(crlf).unwrap(), canonical, "CRLF endings");
        let padded = "# header comment\r\n\r\n1000 0 down\r\n   \r\n5000 0 up # inline\r\n\r\n\r\n";
        assert_eq!(
            parse_churn_trace(padded).unwrap(),
            canonical,
            "comment-only, blank, and trailing-blank lines"
        );
        assert_eq!(parse_churn_trace("# only comments\n\n   \n").unwrap(), vec![]);
    }

    /// Parse errors name the offending line by its **1-based** file line
    /// number, counting comment and blank lines, so the message points
    /// at the line an editor shows.
    #[test]
    fn churn_trace_errors_report_one_based_line_numbers() {
        let err = parse_churn_trace("garbage").unwrap_err();
        assert!(err.contains("line 1:"), "{err}");
        // Line 1 is a comment, 2 is blank, 3 is valid; the malformed
        // line is the file's 4th.
        let err = parse_churn_trace("# setup\n\n1000 0 down\n5000 0 sideways\n").unwrap_err();
        assert!(err.contains("line 4:"), "{err}");
        assert!(err.contains("sideways"), "quotes the offending text: {err}");
        // CRLF does not shift the count.
        let err = parse_churn_trace("# c\r\n1000 0 down\r\nnot-a-time 0 up\r\n").unwrap_err();
        assert!(err.contains("line 3:"), "{err}");
    }
}

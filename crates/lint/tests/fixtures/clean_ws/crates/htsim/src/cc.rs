//! A file on the float allowance list: its allow is honoured.

/// A congestion window grown by a float gain.
pub fn grow(cwnd: u64) -> u64 {
    // det-lint: allow(float) — window arithmetic awaiting its integer form
    (cwnd as f64 * 1.5) as u64
}

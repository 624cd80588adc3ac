//! A float-free crate: its float allow must be refused.

#![forbid(unsafe_code)]

/// The float below must fail the audit despite its annotation.
pub fn nic_cost(bytes: u64) -> u64 {
    // det-lint: allow(float) — per-byte cost parameter
    (bytes as f64 * 0.04).round() as u64
}

//! A float-free file in a crate that keeps floats elsewhere: its float
//! allow must be refused.

/// The float below must fail the audit despite its annotation.
pub fn tx_ns(wire: u64, gbps: u64) -> u64 {
    // det-lint: allow(float) — link-rate parameter
    (wire as f64 / (gbps as f64 / 8.0)).ceil() as u64
}

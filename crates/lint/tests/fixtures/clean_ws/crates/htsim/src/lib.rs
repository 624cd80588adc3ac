//! A result-affecting crate that still keeps floats: its allow is honoured.

#![forbid(unsafe_code)]

/// A link rate folded once at build time.
pub fn bytes_per_ns(gbps: u64) -> u64 {
    // det-lint: allow(float) — link-rate parameter folded once at build time
    (gbps as f64 / 8.0) as u64
}

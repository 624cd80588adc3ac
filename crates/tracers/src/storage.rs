//! SPC-format block I/O traces and an OLTP workload generator.
//!
//! The SPC trace file format (Storage Performance Council; also used by the
//! UMass Trace Repository) is a CSV of `ASU,LBA,Size,Opcode,Timestamp`
//! records, one per I/O command. The paper replays the UMass *Financial*
//! distribution through the Direct Drive model; [`financial_like`]
//! generates a synthetic workload with that character: write-dominant OLTP
//! with small, skewed accesses and bursty arrivals.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One SPC trace record (sizes in bytes, timestamps in ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpcRecord {
    /// Application storage unit (logical volume).
    pub asu: u32,
    /// Logical block address (512-byte units, as in SPC).
    pub lba: u64,
    pub bytes: u32,
    pub write: bool,
    pub ts_ns: u64,
}

/// A block-level I/O trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpcTrace {
    pub records: Vec<SpcRecord>,
}

impl SpcTrace {
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serialize as SPC CSV (`ASU,LBA,Size,Opcode,Timestamp-in-seconds`).
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for r in &self.records {
            let _ = writeln!(
                out,
                "{},{},{},{},{:.9}",
                r.asu,
                r.lba,
                r.bytes,
                if r.write { 'W' } else { 'R' },
                r.ts_ns as f64 / 1e9
            );
        }
        out
    }

    /// Parse SPC CSV. The timestamp is in seconds and is stored as rounded
    /// nanoseconds; one that is not finite, is negative, or reaches 2^64
    /// ns is an error, not a saturated `0` or `u64::MAX`.
    pub fn parse(input: &str) -> Result<SpcTrace, String> {
        let mut records = Vec::new();
        for (ln, line) in input.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |m: &str| format!("line {}: {m}", ln + 1);
            let f: Vec<&str> = line.split(',').collect();
            if f.len() != 5 {
                return Err(err("expected 5 comma-separated fields"));
            }
            let write = match f[3].trim() {
                "W" | "w" => true,
                "R" | "r" => false,
                _ => return Err(err("opcode must be R or W")),
            };
            // Seconds → ns. `as u64` saturates what does not fit (NaN and
            // negatives to 0, infinities and ≥ 2^64 = `u64::MAX as f64` ns
            // to u64::MAX), so those are rejected first.
            let ts_ns = f[4].trim().parse::<f64>().map(|s| (s * 1e9).round());
            let ts_ns = ts_ns.ok().filter(|ns| ns.is_sign_positive() && *ns < u64::MAX as f64);
            records.push(SpcRecord {
                asu: f[0].trim().parse().map_err(|_| err("bad ASU"))?,
                lba: f[1].trim().parse().map_err(|_| err("bad LBA"))?,
                bytes: f[2].trim().parse().map_err(|_| err("bad size"))?,
                write,
                ts_ns: ts_ns.ok_or_else(|| err("bad timestamp"))? as u64,
            });
        }
        Ok(SpcTrace { records })
    }

    /// Fraction of write operations.
    pub fn write_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.write).count() as f64 / self.records.len() as f64
    }
}

/// Generator parameters for the Financial-like OLTP workload.
#[derive(Debug, Clone)]
pub struct OltpConfig {
    pub operations: usize,
    /// Probability an operation is a write (Financial1 ≈ 0.77).
    pub write_ratio: f64,
    /// Mean inter-arrival gap (ns); arrivals are exponential with bursts.
    pub mean_gap_ns: u64,
    /// Number of distinct hot regions; accesses are Zipf-skewed over them.
    pub hot_regions: usize,
    /// Volume size in 512-byte blocks.
    pub volume_blocks: u64,
    pub seed: u64,
}

impl Default for OltpConfig {
    fn default() -> Self {
        OltpConfig {
            operations: 5_000,
            write_ratio: 0.77,
            mean_gap_ns: 200_000,
            hot_regions: 16,
            volume_blocks: 1 << 24, // 8 GiB volume
            seed: 11,
        }
    }
}

/// Generate a Financial-like OLTP block trace: small write-dominant I/O,
/// log-area sequential writes mixed with Zipf-skewed random accesses, and
/// bursty exponential arrivals.
pub fn financial_like(cfg: &OltpConfig) -> SpcTrace {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut records = Vec::with_capacity(cfg.operations);
    let mut ts = 0u64;
    let mut log_head = 0u64;
    // Zipf-ish weights over hot regions: w_i ∝ 1/(i+1).
    let weights: Vec<f64> = (0..cfg.hot_regions).map(|i| 1.0 / (i + 1) as f64).collect();
    let wsum: f64 = weights.iter().sum();
    let region_blocks = cfg.volume_blocks / cfg.hot_regions.max(1) as u64;

    for _ in 0..cfg.operations {
        // Bursty arrivals: 30% of ops arrive back-to-back (1 µs), the rest
        // exponential around the mean.
        let gap = if rng.random::<f64>() < 0.3 {
            1_000
        } else {
            let u: f64 = rng.random::<f64>().max(1e-12);
            (-u.ln() * cfg.mean_gap_ns as f64) as u64
        };
        ts += gap;

        let write = rng.random::<f64>() < cfg.write_ratio;
        let (lba, bytes, asu) = if write && rng.random::<f64>() < 0.5 {
            // Sequential log append: 512B..4KiB.
            let sz = 512u32 << rng.random_range(0..4u32);
            let lba = log_head;
            log_head += (sz / 512) as u64;
            (lba, sz, 0)
        } else {
            // Skewed random access: pick a hot region by Zipf weight.
            let mut pick = rng.random::<f64>() * wsum;
            let mut region = 0usize;
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    region = i;
                    break;
                }
                pick -= w;
            }
            let lba = region as u64 * region_blocks + rng.random_range(0..region_blocks.max(1));
            // 4 KiB pages dominate; occasional 8-64 KiB.
            let sz = if rng.random::<f64>() < 0.85 {
                4096
            } else {
                4096u32 << rng.random_range(1..5u32)
            };
            (lba, sz, 1 + (region % 3) as u32)
        };
        records.push(SpcRecord { asu, lba, bytes, write, ts_ns: ts });
    }
    SpcTrace { records }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_respects_count_and_order() {
        let t = financial_like(&OltpConfig::default());
        assert_eq!(t.len(), 5_000);
        for w in t.records.windows(2) {
            assert!(w[1].ts_ns >= w[0].ts_ns, "timestamps must be monotonic");
        }
    }

    #[test]
    fn write_dominance_matches_financial() {
        let t = financial_like(&OltpConfig::default());
        let wf = t.write_fraction();
        assert!((0.70..0.84).contains(&wf), "write fraction {wf}");
    }

    #[test]
    fn sizes_are_small_blocks() {
        let t = financial_like(&OltpConfig::default());
        let small = t.records.iter().filter(|r| r.bytes <= 8192).count();
        assert!(small as f64 / t.len() as f64 > 0.8, "OLTP is small-block");
        for r in &t.records {
            assert!(r.bytes >= 512 && r.bytes % 512 == 0);
            assert!(r.lba < (1 << 25), "lba within bounds-ish: {}", r.lba);
        }
    }

    #[test]
    fn accesses_are_skewed() {
        let cfg = OltpConfig::default();
        let t = financial_like(&cfg);
        let region_blocks = cfg.volume_blocks / cfg.hot_regions as u64;
        let mut counts = vec![0usize; cfg.hot_regions + 1];
        for r in t.records.iter().filter(|r| r.asu != 0) {
            let region = (r.lba / region_blocks) as usize;
            counts[region.min(cfg.hot_regions)] += 1;
        }
        // Hottest region should see several times the traffic of region 8.
        assert!(counts[0] > counts[8] * 3, "{counts:?}");
    }

    #[test]
    fn csv_roundtrip() {
        let cfg = OltpConfig { operations: 200, ..OltpConfig::default() };
        let t = financial_like(&cfg);
        let text = t.to_text();
        let back = SpcTrace::parse(&text).unwrap();
        assert_eq!(t.len(), back.len());
        // timestamps are re-quantized through seconds; check fields
        for (a, b) in t.records.iter().zip(&back.records) {
            assert_eq!(a.asu, b.asu);
            assert_eq!(a.lba, b.lba);
            assert_eq!(a.bytes, b.bytes);
            assert_eq!(a.write, b.write);
            assert!(a.ts_ns.abs_diff(b.ts_ns) < 1_000);
        }
    }

    #[test]
    fn parse_rejects_bad_rows() {
        assert!(SpcTrace::parse("1,2,3").is_err());
        assert!(SpcTrace::parse("1,2,4096,X,0.5").is_err());
        assert!(SpcTrace::parse("a,2,4096,R,0.5").is_err());
        // comments and blanks are fine
        let ok = SpcTrace::parse("# header\n\n0,100,4096,R,0.001\n").unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn timestamps_that_do_not_fit_u64_ns_are_rejected() {
        for ts in ["-5", "-0.000000001", "-0", "nan", "NaN", "inf", "-inf", "1e300", "18446744074"]
        {
            let err = SpcTrace::parse(&format!("0,100,4096,R,{ts}\n")).unwrap_err();
            assert_eq!(err, "line 1: bad timestamp", "{ts}");
        }
        // The largest whole second below 2^64 ns, and the format's own output.
        let at = |ts: &str| SpcTrace::parse(&format!("0,1,512,W,{ts}")).unwrap().records[0].ts_ns;
        assert!(at("18446744073") > 18_446_744_072_000_000_000);
        assert_eq!(at("0"), 0);
        assert_eq!(at("1.500000001"), 1_500_000_001);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = financial_like(&OltpConfig::default());
        let b = financial_like(&OltpConfig::default());
        assert_eq!(a, b);
        let c = financial_like(&OltpConfig { seed: 5, ..OltpConfig::default() });
        assert_ne!(a, c);
    }
}

//! Crate tiers and rule identities — the policy half of the audit.
//!
//! The bit-identity contract (docs/DETERMINISM.md) splits the workspace
//! into three tiers. **Result-affecting** crates produce or transform
//! simulation state: any nondeterminism there changes report bytes.
//! **Reporting/infra** crates aggregate, time, and print — they may use
//! wall clocks and default-hashed maps because the deterministic report
//! writers never observe their iteration order. **Exempt** crates are
//! the offline dependency shims, which mirror external APIs verbatim.

/// Determinism tier of a crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Simulation output depends on this code: all rules apply.
    ResultAffecting,
    /// Tooling around the simulators: only `unsafe-attr` applies.
    Reporting,
    /// Offline shims mirroring external crates: not scanned.
    Exempt,
}

/// Classify a crate by its directory name under `crates/` (the umbrella
/// root crate is passed as `"atlahs"`).
pub fn crate_tier(dir_name: &str) -> Tier {
    match dir_name {
        // The engines (the testbed is the session backend whose output
        // the fidelity golden pins), the schedule representation, the
        // schedule generators, and the shared queue/hash substrate.
        "core" | "eventq" | "htsim" | "lgs" | "testbed" | "goal" | "collectives" | "schedgen"
        | "directdrive" => Tier::ResultAffecting,
        // Harnesses, tracers, reports, baselines, the audit itself, and
        // the umbrella re-export crate.
        "bench" | "baselines" | "tracers" | "lint" | "atlahs" => Tier::Reporting,
        "shims" => Tier::Exempt,
        // Unknown crates default to the strict tier so a new crate must
        // opt *out* of the contract explicitly (in this table), never
        // silently fall outside it.
        _ => Tier::ResultAffecting,
    }
}

/// The files (workspace-relative) in which `det-lint: allow(float)` is
/// still honoured: htsim's congestion-control windows, the testbed's
/// max-min solver, and the placement ratios in `core`. Everywhere else a
/// float allow is itself a finding — every message-level cost is an exact
/// `atlahs_core::NsPerByte` rate, and htsim's link arithmetic is integer.
pub const FLOAT_ALLOW_FILES: [&str; 3] =
    ["crates/core/src/placement.rs", "crates/htsim/src/cc.rs", "crates/testbed/src/lib.rs"];

/// Rule identifiers, as written inside `det-lint: allow(<rule>)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `f32`/`f64` types, float literals, float casts.
    Float,
    /// `HashMap`/`HashSet` with the default `RandomState` hasher.
    DefaultHash,
    /// Iteration over a hash-layout-dependent map or set.
    HashIter,
    /// `Instant` / `SystemTime` wall-clock reads.
    WallClock,
    /// `thread_rng` and other ambient (OS-seeded) randomness.
    AmbientRand,
    /// `unsafe` blocks, functions, impls, or traits.
    UnsafeBlock,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    UnsafeAttr,
}

/// Every annotatable rule, in report order.
pub const ALL_RULES: [Rule; 7] = [
    Rule::Float,
    Rule::DefaultHash,
    Rule::HashIter,
    Rule::WallClock,
    Rule::AmbientRand,
    Rule::UnsafeBlock,
    Rule::UnsafeAttr,
];

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::Float => "float",
            Rule::DefaultHash => "default-hash",
            Rule::HashIter => "hash-iter",
            Rule::WallClock => "wall-clock",
            Rule::AmbientRand => "ambient-rand",
            Rule::UnsafeBlock => "unsafe",
            Rule::UnsafeAttr => "unsafe-attr",
        }
    }

    pub fn parse(s: &str) -> Option<Rule> {
        ALL_RULES.into_iter().find(|r| r.name() == s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_cover_the_workspace() {
        assert_eq!(crate_tier("htsim"), Tier::ResultAffecting);
        assert_eq!(crate_tier("eventq"), Tier::ResultAffecting);
        assert_eq!(crate_tier("testbed"), Tier::ResultAffecting);
        assert_eq!(crate_tier("bench"), Tier::Reporting);
        assert_eq!(crate_tier("shims"), Tier::Exempt);
        // Unknown crates land in the strict tier.
        assert_eq!(crate_tier("brand_new_crate"), Tier::ResultAffecting);
    }

    #[test]
    fn rule_names_round_trip() {
        for r in ALL_RULES {
            assert_eq!(Rule::parse(r.name()), Some(r));
        }
        assert_eq!(Rule::parse("not-a-rule"), None);
    }
}

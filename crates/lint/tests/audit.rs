//! End-to-end tests for the determinism audit: per-rule fixture files
//! (a trigger and a pass for every rule), annotation behaviour, the two
//! fake fixture workspaces (one clean, one with a seeded violation and
//! broken goldens), and finally the audit of this repository itself —
//! `cargo test` fails the moment a determinism hazard lands in a
//! result-affecting crate.

use std::path::{Path, PathBuf};

use atlahs_lint::policy::Tier;
use atlahs_lint::{run, scan_source};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Rules hit by a per-rule fixture under `fixtures/rules/`, scanned at
/// the result-affecting tier (where every rule is live).
fn rules_hit(name: &str) -> Vec<String> {
    let path = fixture_dir().join("rules").join(name);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let (findings, _) = scan_source(name, &src, Tier::ResultAffecting, false, true);
    findings.into_iter().map(|f| f.rule).collect()
}

fn assert_pair(rule: &str, trigger: &str, pass: &str) {
    let hit = rules_hit(trigger);
    assert!(hit.iter().any(|r| r == rule), "{trigger}: expected a `{rule}` finding, got {hit:?}");
    let clean = rules_hit(pass);
    assert!(clean.is_empty(), "{pass}: expected no findings, got {clean:?}");
}

#[test]
fn float_trigger_and_pass() {
    assert_pair("float", "float_trigger.rs", "float_pass.rs");
}

#[test]
fn default_hash_trigger_and_pass() {
    assert_pair("default-hash", "default_hash_trigger.rs", "default_hash_pass.rs");
}

#[test]
fn hash_iter_trigger_and_pass() {
    assert_pair("hash-iter", "hash_iter_trigger.rs", "hash_iter_pass.rs");
}

#[test]
fn wall_clock_trigger_and_pass() {
    assert_pair("wall-clock", "wall_clock_trigger.rs", "wall_clock_pass.rs");
}

#[test]
fn ambient_rand_trigger_and_pass() {
    assert_pair("ambient-rand", "ambient_rand_trigger.rs", "ambient_rand_pass.rs");
}

#[test]
fn unsafe_trigger_and_pass() {
    assert_pair("unsafe", "unsafe_trigger.rs", "unsafe_pass.rs");
}

#[test]
fn annotated_float_is_clean_and_counted() {
    let src = std::fs::read_to_string(fixture_dir().join("rules/annotated_pass.rs")).unwrap();
    let (findings, used) =
        scan_source("annotated_pass.rs", &src, Tier::ResultAffecting, false, true);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(used, 1, "the allow must be reported as honoured");
}

#[test]
fn stale_annotation_fixture_is_flagged() {
    let hit = rules_hit("stale_annotation.rs");
    assert_eq!(hit, vec!["stale-annotation"]);
}

#[test]
fn reporting_tier_only_enforces_unsafe_hygiene() {
    // A float that would fail core is fine in a reporting crate.
    let src = std::fs::read_to_string(fixture_dir().join("rules/float_trigger.rs")).unwrap();
    let (findings, _) = scan_source("float_trigger.rs", &src, Tier::Reporting, false, true);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn float_allow_fixture_is_refused_where_floats_are_gone() {
    // The annotated float that passes above, in a file outside
    // `FLOAT_ALLOW_FILES`: the allow is refused and the float stands.
    let src = std::fs::read_to_string(fixture_dir().join("rules/annotated_pass.rs")).unwrap();
    let (findings, used) =
        scan_source("annotated_pass.rs", &src, Tier::ResultAffecting, false, false);
    let rules: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(rules, ["refused-annotation", "float"]);
    assert_eq!(used, 0, "a refused allow is not honoured");
}

#[test]
fn clean_fixture_workspace_audits_clean() {
    // `crates/htsim/src/cc.rs` keeps an annotated float: honoured and
    // counted.
    let report = run(&fixture_dir().join("clean_ws")).expect("audit runs");
    assert!(report.is_clean(), "unexpected findings: {:?}", report.findings);
    assert_eq!(report.files_scanned, 3);
    assert_eq!(report.annotations_used, 1);
}

#[test]
fn seeded_violation_fails_the_audit() {
    // The meta-test: plant a float in a result-affecting crate, an
    // annotated float in a file off the float allowance (htsim's
    // engine.rs, although its crate keeps floats in cc.rs), and a full set of
    // golden-hygiene defects, and the audit must catch all of them. If
    // this test fails, the gate itself has rotted.
    let report = run(&fixture_dir().join("violating_ws")).expect("audit runs");
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    assert!(rules.contains(&"float"), "seeded float not caught: {rules:?}");
    assert!(rules.contains(&"refused-annotation"), "engine.rs float allow honoured: {rules:?}");
    assert!(rules.contains(&"golden-orphan"), "orphan golden not caught: {rules:?}");
    assert!(rules.contains(&"golden-parse"), "broken golden not caught: {rules:?}");
    assert!(rules.contains(&"golden-missing"), "missing golden not caught: {rules:?}");
    assert_eq!(report.findings.len(), 6, "exactly the seeded defects: {:?}", report.findings);
    assert_eq!(report.annotations_used, 0);
}

#[test]
fn audit_report_is_deterministic() {
    let root = fixture_dir().join("violating_ws");
    let a = run(&root).expect("audit runs");
    let b = run(&root).expect("audit runs");
    assert_eq!(a.findings, b.findings, "the audit must report in a stable order");
}

#[test]
fn this_workspace_is_clean() {
    // The audit of the real repository: every violation is either fixed
    // or carries a `det-lint: allow` with a recorded justification.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run(&root).expect("audit runs");
    assert!(
        report.is_clean(),
        "determinism audit failures:\n{}",
        report.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
    assert!(report.files_scanned > 50, "audit saw {} files — walk broken?", report.files_scanned);
}

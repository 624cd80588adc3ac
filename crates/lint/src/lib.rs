//! `atlahs_lint` — the workspace determinism audit.
//!
//! Every result path in this workspace is contractually a pure function
//! of the simulation spec: byte-identical across re-runs, `--threads N`,
//! snapshot/restore, and branch-and-continue. That contract is pinned
//! *dynamically* by the determinism goldens; this crate enforces it
//! *statically*, so a default-hashed map or a stray float cannot ship
//! and then break bit-identity on the next rustc or platform bump.
//!
//! The audit is three passes (see docs/DETERMINISM.md):
//!
//! 1. **Rules** — a lightweight Rust lexer (`lexer`) feeds a per-crate
//!    policy engine (`policy`, `rules`): result-affecting crates may not
//!    use floats, default-hashed maps, hash-order iteration, wall
//!    clocks, ambient randomness, or `unsafe`; every non-shim crate
//!    root must carry `#![forbid(unsafe_code)]`.
//! 2. **Annotations** — legitimate sites are exempted in place via
//!    `// det-lint: allow(<rule>) — <reason>` (`annotations`), and an
//!    annotation that no longer suppresses anything is itself an error,
//!    as is an `allow(float)` outside the files that still keep floats
//!    (`policy::FLOAT_ALLOW_FILES`).
//! 3. **Hygiene** — every golden under `tests/goldens/` must parse as
//!    JSON and be referenced by a test or ci.sh stage, and every golden
//!    path ci.sh names must exist (`hygiene`).
//!
//! Run it as `atlahs lint` (a ci.sh stage) or via [`run`].

#![forbid(unsafe_code)]

pub mod annotations;
pub mod hygiene;
pub mod json;
pub mod lexer;
pub mod policy;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use annotations::Parsed;
use policy::{Rule, Tier};

/// One audit finding. `rule` is a stable machine-readable identifier:
/// an annotatable rule name (`float`, `default-hash`, …) or one of the
/// audit's own checks (`bad-annotation`, `refused-annotation`,
/// `stale-annotation`, `golden-parse`, `golden-orphan`, `golden-missing`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line; 0 for whole-file findings.
    pub line: u32,
    pub rule: String,
    pub message: String,
}

impl Finding {
    pub fn new(file: &str, line: u32, rule: &str, message: impl Into<String>) -> Finding {
        Finding { file: file.into(), line, rule: rule.into(), message: message.into() }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
        } else {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.message)
        }
    }
}

/// Result of a full workspace audit.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub crates_scanned: usize,
    pub files_scanned: usize,
    /// `det-lint: allow` annotations that suppressed at least one hit.
    pub annotations_used: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Audit a single source file. Exposed so the fixture tests (and any
/// future editor integration) can lint sources without a workspace.
/// `float_allows` says whether the file may still annotate floats
/// ([`policy::FLOAT_ALLOW_FILES`]); where it may not, an `allow(float)`
/// is a `refused-annotation` finding and suppresses nothing. Returns the
/// findings and the number of annotations that suppressed at least one
/// raw hit.
pub fn scan_source(
    file: &str,
    src: &str,
    tier: Tier,
    is_crate_root: bool,
    float_allows: bool,
) -> (Vec<Finding>, usize) {
    let lexed = lexer::lex(src);
    let (raw, exempt_ranges) = rules::scan(&lexed.tokens, tier, is_crate_root);

    let in_exempt = |line: u32| exempt_ranges.iter().any(|&(lo, hi)| line >= lo && line <= hi);

    let mut findings = Vec::new();
    let mut anns = Vec::new();
    for c in &lexed.comments {
        if in_exempt(c.line) {
            continue; // test code: rules don't run, so neither do allows
        }
        if !c.text.trim_start().starts_with("det-lint") {
            continue; // prose *mentioning* det-lint, not a directive
        }
        match annotations::parse(c) {
            Parsed::Ok(mut a) => {
                if !float_allows && a.rules.contains(&Rule::Float) {
                    let why = "`allow(float)` is refused in this file: floats remain only in \
                               htsim's congestion windows, the testbed solver and core's \
                               placement ratios";
                    findings.push(Finding::new(file, c.line, "refused-annotation", why));
                    a.rules.retain(|&r| r != Rule::Float);
                    if a.rules.is_empty() {
                        continue;
                    }
                }
                if !c.trailing {
                    // Standalone: covers the next line holding code.
                    match lexed.tokens.iter().find(|t| t.line > c.line) {
                        Some(t) => a.target_line = t.line,
                        None => a.target_line = u32::MAX, // nothing follows: stale
                    }
                }
                anns.push(a);
            }
            Parsed::Malformed(msg) => {
                findings.push(Finding::new(file, c.line, "bad-annotation", msg));
            }
        }
    }

    let mut used = vec![false; anns.len()];
    for f in &raw {
        let covered = anns
            .iter()
            .enumerate()
            .find(|(_, a)| a.target_line == f.line && a.rules.contains(&f.rule));
        if let Some((i, _)) = covered {
            used[i] = true;
            continue;
        }
        findings.push(Finding::new(file, f.line, f.rule.name(), f.message.clone()));
    }
    let mut used_count = 0usize;
    for (a, u) in anns.iter().zip(&used) {
        if *u {
            used_count += 1;
        } else {
            let message = format!(
                "stale annotation: line {} no longer triggers {} — remove the allow",
                if a.target_line == u32::MAX { a.line } else { a.target_line },
                a.rules.iter().map(|r| r.name()).collect::<Vec<_>>().join(", "),
            );
            findings.push(Finding::new(file, a.line, "stale-annotation", message));
        }
    }
    findings.sort_by_key(|x| (x.line, x.rule.clone()));
    (findings, used_count)
}

/// Audit the workspace rooted at `root` (the directory holding
/// `Cargo.toml`, `crates/`, `tests/goldens/`, and `ci.sh`).
pub fn run(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    // (workspace-relative path, source) for every scanned file, reused
    // as the reference haystack by the hygiene pass.
    let mut sources: Vec<(String, String)> = Vec::new();

    // ---- the eleven-plus crates under crates/ ----
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir.file_name().unwrap_or_default().to_string_lossy().into_owned();
        let tier = policy::crate_tier(&name);
        if tier == Tier::Exempt {
            continue; // shims mirror external crates verbatim
        }
        report.crates_scanned += 1;
        scan_tree(root, &dir.join("src"), tier, &mut report, &mut sources)?;
        // Crate test dirs join the haystack (tests reference goldens)
        // but are not rule-scanned: test code is exempt by policy.
        collect_sources(root, &dir.join("tests"), &mut sources)?;
    }

    // ---- the umbrella crate at the workspace root ----
    report.crates_scanned += 1;
    let tier = policy::crate_tier("atlahs");
    scan_tree(root, &root.join("src"), tier, &mut report, &mut sources)?;
    collect_sources(root, &root.join("tests"), &mut sources)?;
    collect_sources(root, &root.join("examples"), &mut sources)?;

    // ---- golden hygiene ----
    report.findings.extend(hygiene::run(root, &sources));

    report.findings.sort_by(|a, b| {
        (a.file.clone(), a.line, a.rule.clone()).cmp(&(b.file.clone(), b.line, b.rule.clone()))
    });
    Ok(report)
}

/// Is this path a crate root (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`)?
fn is_crate_root(path: &Path) -> bool {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let parent = path.parent().and_then(|p| p.file_name()).unwrap_or_default().to_string_lossy();
    (parent == "src" && (name == "lib.rs" || name == "main.rs")) || parent == "bin"
}

fn scan_tree(
    root: &Path,
    dir: &Path,
    tier: Tier,
    report: &mut Report,
    sources: &mut Vec<(String, String)>,
) -> io::Result<()> {
    for path in walk_rs(dir)? {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().into_owned();
        let src = fs::read_to_string(&path)?;
        let float_allows = policy::FLOAT_ALLOW_FILES.contains(&rel.as_str());
        let (mut findings, used) =
            scan_source(&rel, &src, tier, is_crate_root(&path), float_allows);
        report.findings.append(&mut findings);
        report.annotations_used += used;
        report.files_scanned += 1;
        sources.push((rel, src));
    }
    Ok(())
}

/// Add `.rs` files under `dir` to the hygiene haystack without scanning.
fn collect_sources(root: &Path, dir: &Path, sources: &mut Vec<(String, String)>) -> io::Result<()> {
    for path in walk_rs(dir)? {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().into_owned();
        sources.push((rel, fs::read_to_string(&path)?));
    }
    Ok(())
}

/// All `.rs` files under `dir`, recursively, in sorted order (the audit
/// report must itself be deterministic). A missing dir is empty.
fn walk_rs(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> =
            fs::read_dir(&d)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_annotation_suppresses_and_counts() {
        let src = "fn f() { let x = 1.0; // det-lint: allow(float) — pinned\n}";
        let (f, used) = scan_source("x.rs", src, Tier::ResultAffecting, false, true);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(used, 1);
    }

    #[test]
    fn standalone_annotation_covers_next_code_line() {
        let src = "fn f() {\n  // det-lint: allow(float) — pinned\n  let x = 1.0;\n}";
        let (f, used) = scan_source("x.rs", src, Tier::ResultAffecting, false, true);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(used, 1);
    }

    #[test]
    fn stale_annotation_is_a_finding() {
        let src = "fn f() {\n  // det-lint: allow(float) — nothing here\n  let x = 1;\n}";
        let (f, used) = scan_source("x.rs", src, Tier::ResultAffecting, false, true);
        assert_eq!(used, 0);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "stale-annotation");
    }

    #[test]
    fn annotation_covers_only_its_named_rule() {
        let src = "fn f() { let t = Instant::now(); // det-lint: allow(float) — wrong rule\n}";
        let (f, _) = scan_source("x.rs", src, Tier::ResultAffecting, false, true);
        let rules: Vec<&str> = f.iter().map(|x| x.rule.as_str()).collect();
        assert!(rules.contains(&"wall-clock"));
        assert!(rules.contains(&"stale-annotation"));
    }

    #[test]
    fn malformed_annotation_is_a_finding() {
        let src = "fn f() { let x = 1.0; // det-lint: allow(float)\n}";
        let (f, _) = scan_source("x.rs", src, Tier::ResultAffecting, false, true);
        assert!(f.iter().any(|x| x.rule == "bad-annotation"));
        // The unsuppressed float hit remains.
        assert!(f.iter().any(|x| x.rule == "float"));
    }

    #[test]
    fn float_allow_is_refused_where_floats_are_gone() {
        let src = "fn f() {\n  // det-lint: allow(float) — was pinned\n  let x = 1.0;\n}";
        let (f, used) = scan_source("x.rs", src, Tier::ResultAffecting, false, false);
        let rules: Vec<&str> = f.iter().map(|x| x.rule.as_str()).collect();
        assert_eq!(rules, ["refused-annotation", "float"]);
        assert_eq!(used, 0);
        // The other rules of a multi-rule allow still apply.
        let src = "fn f() { let t = Instant::now(); // det-lint: allow(float, wall-clock) — r\n}";
        let (f, used) = scan_source("x.rs", src, Tier::ResultAffecting, false, false);
        let rules: Vec<&str> = f.iter().map(|x| x.rule.as_str()).collect();
        assert_eq!(rules, ["refused-annotation"]);
        assert_eq!(used, 1);
    }

    #[test]
    fn annotations_inside_test_code_are_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n  // det-lint: allow(float) — unused\n  fn t() { let x = 1.0; }\n}";
        let (f, used) = scan_source("x.rs", src, Tier::ResultAffecting, false, true);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(used, 0);
    }
}

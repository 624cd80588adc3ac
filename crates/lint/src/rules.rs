//! The determinism rules, evaluated over the lexed token stream.
//!
//! Rules are lexical by design (see `lexer.rs`): each one targets a
//! construct whose *presence* is the hazard, so token-level matching is
//! sufficient and keeps the audit dependency-free. `#[cfg(test)]` items
//! and `#[test]` functions are exempt — test code is covered by the
//! dynamic goldens, and the contract governs shipped result paths.

use crate::lexer::{TokKind, Token};
use crate::policy::{Rule, Tier};

/// A rule hit before annotation filtering.
#[derive(Debug, Clone)]
pub struct RawFinding {
    pub line: u32,
    pub rule: Rule,
    pub message: String,
}

impl RawFinding {
    fn new(line: u32, rule: Rule, message: impl Into<String>) -> RawFinding {
        RawFinding { line, rule, message: message.into() }
    }
}

/// Iterator-producing methods whose order reflects hash-bucket layout.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Ambient (OS- or thread-seeded) randomness sources.
const AMBIENT_RAND: [&str; 5] = ["thread_rng", "ThreadRng", "OsRng", "getrandom", "from_entropy"];

/// Scan one file's tokens. `is_crate_root` enables the `unsafe-attr`
/// check (crate roots are `src/lib.rs`, `src/main.rs`, `src/bin/*.rs`).
/// Returns the findings plus the exempt (test-code) line ranges, which
/// the annotation layer uses to ignore `det-lint` comments inside tests.
pub fn scan(toks: &[Token], tier: Tier, is_crate_root: bool) -> (Vec<RawFinding>, Vec<(u32, u32)>) {
    let exempt = test_code_mask(toks);
    let mut out = Vec::new();

    if is_crate_root && tier != Tier::Exempt {
        unsafe_attr_rule(toks, &mut out);
    }
    if tier == Tier::ResultAffecting {
        let in_use = use_statement_mask(toks);
        float_rule(toks, &exempt, &mut out);
        default_hash_rule(toks, &exempt, &in_use, &mut out);
        hash_iter_rule(toks, &exempt, &mut out);
        ident_rules(toks, &exempt, &mut out);
    }

    // One finding per (line, rule): a line with three float literals
    // needs one annotation, not three.
    out.sort_by_key(|a| (a.line, a.rule));
    out.dedup_by(|a, b| (a.line, a.rule) == (b.line, b.rule));
    (out, ranges_of(toks, &exempt))
}

/// Per-token exemption mask for `#[cfg(test)]` / `#[test]` items.
fn test_code_mask(toks: &[Token]) -> Vec<bool> {
    let mut exempt = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && i + 1 < toks.len() && toks[i + 1].text == "[" {
            // Parse the attribute group; decide whether it gates on test.
            let (end, is_test) = attr_group(toks, i + 1);
            if is_test {
                // Cover this attribute, any further attributes, and the
                // item they decorate (to its `;` or matching brace).
                let mut j = end + 1;
                while j + 1 < toks.len() && toks[j].text == "#" && toks[j + 1].text == "[" {
                    let (e, _) = attr_group(toks, j + 1);
                    j = e + 1;
                }
                let item_end = item_extent(toks, j);
                for e in exempt.iter_mut().take(item_end.min(toks.len())).skip(i) {
                    *e = true;
                }
                i = item_end;
                continue;
            }
            i = end + 1;
            continue;
        }
        i += 1;
    }
    exempt
}

/// Given the index of the `[` of an attribute, return (index of the
/// matching `]`, whether the attribute is test-gating).
fn attr_group(toks: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut is_cfg = false;
    let mut saw_test = false;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "cfg" => is_cfg = true,
            "test" => {
                // `#[cfg(not(test))]` gates *shipped* code; only a bare
                // `test` (or `all(test, ..)` etc.) marks test code.
                let negated = j >= 2 && toks[j - 1].text == "(" && toks[j - 2].text == "not";
                if !negated {
                    saw_test = true;
                }
            }
            _ => {}
        }
        j += 1;
    }
    // `#[test]` (bare) or `#[cfg(...test...)]`.
    let bare_test = j == open + 2 && saw_test;
    (j.min(toks.len().saturating_sub(1)), bare_test || (is_cfg && saw_test))
}

/// End index (exclusive) of the item starting at `start`: past the
/// first `;` at depth 0, or past the matching `}` of the first brace.
fn item_extent(toks: &[Token], start: usize) -> usize {
    let mut j = start;
    let mut depth = 0usize;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            ";" if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Collapse a token exemption mask into line ranges.
fn ranges_of(toks: &[Token], exempt: &[bool]) -> Vec<(u32, u32)> {
    let mut ranges: Vec<(u32, u32)> = Vec::new();
    let mut prev_exempt = false;
    for (t, &e) in toks.iter().zip(exempt) {
        if e {
            match ranges.last_mut() {
                // Consecutive exempt tokens span one region even across
                // blank or comment-only lines inside the item.
                Some((_, hi)) if prev_exempt => *hi = (*hi).max(t.line),
                _ => ranges.push((t.line, t.line)),
            }
        }
        prev_exempt = e;
    }
    ranges
}

/// Mask of tokens inside `use ...;` statements (a `use` of `HashMap` is
/// not by itself a violation — the construction sites are).
fn use_statement_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut in_use = false;
    for (k, t) in toks.iter().enumerate() {
        if t.text == "use" && t.kind == TokKind::Ident {
            in_use = true;
        }
        mask[k] = in_use;
        if t.text == ";" {
            in_use = false;
        }
    }
    mask
}

fn float_rule(toks: &[Token], exempt: &[bool], out: &mut Vec<RawFinding>) {
    for (k, t) in toks.iter().enumerate() {
        if exempt[k] {
            continue;
        }
        let hit = match t.kind {
            TokKind::Float => Some("float literal"),
            TokKind::Ident if t.text == "f32" || t.text == "f64" => Some("float type"),
            _ => None,
        };
        if let Some(what) = hit {
            let why = format!(
                "{what} `{}` (integer arithmetic only: Q32 fixed point, `NsPerByte` rates)",
                t.text
            );
            out.push(RawFinding::new(t.line, Rule::Float, why));
        }
    }
}

fn default_hash_rule(toks: &[Token], exempt: &[bool], in_use: &[bool], out: &mut Vec<RawFinding>) {
    for (k, t) in toks.iter().enumerate() {
        if exempt[k] || in_use[k] || t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "RandomState" {
            let why = "explicit `RandomState` (per-process random hash seeds)";
            out.push(RawFinding::new(t.line, Rule::DefaultHash, why));
            continue;
        }
        if t.text != "HashMap" && t.text != "HashSet" {
            continue;
        }
        if !has_explicit_hasher(toks, k) {
            let why = format!(
                "`{}` with default `RandomState` (use `eventq::hash::FastBuildHasher` \
                 or a `BTreeMap`/`BTreeSet`)",
                t.text
            );
            out.push(RawFinding::new(t.line, Rule::DefaultHash, why));
        }
    }
}

/// Does the `HashMap`/`HashSet` at token `k` name its hasher?
fn has_explicit_hasher(toks: &[Token], k: usize) -> bool {
    let needed_commas = if toks[k].text == "HashMap" { 2 } else { 1 };
    let mut j = k + 1;
    // Turbofish: `HashMap::<K, V, H>::new`.
    if j + 1 < toks.len() && toks[j].text == "::" && toks[j + 1].text == "<" {
        j += 1;
    }
    if j < toks.len() && toks[j].text == "<" {
        // Count commas at angle depth 1, outside (), [] groups.
        let (mut angle, mut other, mut commas) = (0i32, 0i32, 0usize);
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" => {
                    angle -= 1;
                    if angle == 0 {
                        break;
                    }
                }
                "(" | "[" => other += 1,
                ")" | "]" => other -= 1,
                "," if angle == 1 && other == 0 => commas += 1,
                _ => {}
            }
            j += 1;
        }
        return commas >= needed_commas;
    }
    if j + 1 < toks.len() && toks[j].text == "::" {
        // `HashMap::with_hasher(..)` / `with_capacity_and_hasher(..)`
        // carry the hasher in the value; `new`/`default`/
        // `with_capacity` pin `RandomState`.
        return matches!(toks[j + 1].text.as_str(), "with_hasher" | "with_capacity_and_hasher");
    }
    // Bare mention in type position without generics: treat as default.
    false
}

fn hash_iter_rule(toks: &[Token], exempt: &[bool], out: &mut Vec<RawFinding>) {
    // Identifiers declared (or assigned) in this file with a hash-map
    // type or constructor. Lexical and file-local by design: cross-file
    // aliases are caught where the map is declared.
    let mut maps: Vec<&str> = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if (t.text == "HashMap" || t.text == "HashSet") && k >= 2 && t.kind == TokKind::Ident {
            // Walk back over a `std :: collections ::`-style path.
            let mut p = k - 1;
            while p >= 2 && toks[p].text == "::" && toks[p - 1].kind == TokKind::Ident {
                p -= 2;
            }
            if p >= 1 && (toks[p].text == ":" || toks[p].text == "=") {
                let cand = &toks[p - 1];
                if cand.kind == TokKind::Ident && !maps.contains(&cand.text.as_str()) {
                    maps.push(cand.text.as_str());
                }
            }
        }
    }
    if maps.is_empty() {
        return;
    }
    for (k, t) in toks.iter().enumerate() {
        if exempt[k] || t.kind != TokKind::Ident || !maps.contains(&t.text.as_str()) {
            continue;
        }
        // `map.iter()` and friends.
        if k + 2 < toks.len() && toks[k + 1].text == "." {
            let m = toks[k + 2].text.as_str();
            if ITER_METHODS.contains(&m) && k + 3 < toks.len() && toks[k + 3].text == "(" {
                let why = format!(
                    "iteration over hash map `{}` via `.{m}()` (order reflects bucket \
                     layout; sort first or use a BTreeMap)",
                    t.text
                );
                out.push(RawFinding::new(t.line, Rule::HashIter, why));
                continue;
            }
        }
        // `for x in &map` / `for x in map`.
        let mut p = k;
        while p > 0 && (toks[p - 1].text == "&" || toks[p - 1].text == "mut") {
            p -= 1;
        }
        if p > 0 && toks[p - 1].text == "in" {
            let why = format!(
                "`for` iteration over hash map `{}` (order reflects bucket layout)",
                t.text
            );
            out.push(RawFinding::new(t.line, Rule::HashIter, why));
        }
    }
}

/// Wall-clock, ambient-randomness, and `unsafe` keyword hits.
fn ident_rules(toks: &[Token], exempt: &[bool], out: &mut Vec<RawFinding>) {
    for (k, t) in toks.iter().enumerate() {
        if exempt[k] || t.kind != TokKind::Ident {
            continue;
        }
        let (rule, why) = match t.text.as_str() {
            "Instant" | "SystemTime" => {
                (Rule::WallClock, format!("wall-clock `{}` in a result-affecting crate", t.text))
            }
            "unsafe" => (Rule::UnsafeBlock, "`unsafe` in a result-affecting crate".into()),
            s if AMBIENT_RAND.contains(&s) => {
                (Rule::AmbientRand, format!("ambient randomness `{s}` (seeded draws only)"))
            }
            _ => continue,
        };
        out.push(RawFinding::new(t.line, rule, why));
    }
}

/// The crate root must carry `#![forbid(unsafe_code)]`.
fn unsafe_attr_rule(toks: &[Token], out: &mut Vec<RawFinding>) {
    let mut deny_line = None;
    for w in 0..toks.len().saturating_sub(6) {
        if toks[w].text == "#"
            && toks[w + 1].text == "!"
            && toks[w + 2].text == "["
            && toks[w + 4].text == "("
            && toks[w + 5].text == "unsafe_code"
            && toks[w + 6].text == ")"
        {
            match toks[w + 3].text.as_str() {
                "forbid" => return,
                "deny" => deny_line = Some(toks[w].line),
                _ => {}
            }
        }
    }
    out.push(match deny_line {
        Some(line) => RawFinding::new(
            line,
            Rule::UnsafeAttr,
            "`#![deny(unsafe_code)]`: prefer `forbid`, or annotate why deny",
        ),
        None => {
            RawFinding::new(1, Rule::UnsafeAttr, "crate root missing `#![forbid(unsafe_code)]`")
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn findings(src: &str, tier: Tier) -> Vec<RawFinding> {
        scan(&lex(src).tokens, tier, false).0
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn hot() {}\n#[cfg(test)]\nmod tests {\n  fn t() { let x: f64 = 1.0; }\n}\n";
        assert!(findings(src, Tier::ResultAffecting).is_empty());
    }

    #[test]
    fn test_fns_are_exempt_but_surrounding_code_is_not() {
        let src = "#[test]\nfn t() { let x = 1.0; }\nfn hot() { let y = 2.0; }\n";
        let f = findings(src, Tier::ResultAffecting);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn reporting_tier_skips_determinism_rules() {
        let src = "fn f() { let x = 1.0; let m = std::collections::HashMap::new(); }";
        assert!(findings(src, Tier::Reporting).is_empty());
    }

    #[test]
    fn explicit_hasher_passes_default_hash() {
        let src = "struct S { q: HashMap<K, V, FastBuildHasher> }\n\
                   fn f() { let m: HashMap<(u32, u32), V, FastBuildHasher> = \
                   HashMap::with_hasher(h); }";
        assert!(findings(src, Tier::ResultAffecting).is_empty());
    }

    #[test]
    fn default_hasher_flagged_once_per_line() {
        let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
        let f = findings(src, Tier::ResultAffecting);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::DefaultHash);
    }

    #[test]
    fn use_statements_are_not_flagged() {
        let src = "use std::collections::HashMap;\nfn f(m: HashMap<K, V, H>) {}";
        assert!(findings(src, Tier::ResultAffecting).is_empty());
    }

    #[test]
    fn hash_iter_flags_iteration_not_lookup() {
        let src = "fn f() { let m: HashMap<u32, u32, H> = HashMap::with_hasher(h);\n\
                   m.get(&1);\nfor (k, v) in &m { use_it(k, v); }\nm.keys();\n}";
        let f = findings(src, Tier::ResultAffecting);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == Rule::HashIter));
        assert_eq!(f[0].line, 3);
        assert_eq!(f[1].line, 4);
    }

    #[test]
    fn wall_clock_rand_and_unsafe_flagged() {
        let src = "fn f() { let t = Instant::now(); let r = thread_rng(); unsafe { x() } }";
        let mut rules: Vec<Rule> =
            findings(src, Tier::ResultAffecting).into_iter().map(|f| f.rule).collect();
        rules.sort();
        assert_eq!(rules, vec![Rule::WallClock, Rule::AmbientRand, Rule::UnsafeBlock]);
    }

    #[test]
    fn unsafe_attr_checked_on_crate_roots_only() {
        let src = "//! docs\nfn f() {}";
        let (f, _) = scan(&lex(src).tokens, Tier::Reporting, true);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::UnsafeAttr);
        let (f2, _) = scan(&lex(src).tokens, Tier::Reporting, false);
        assert!(f2.is_empty());
        let good = "#![forbid(unsafe_code)]\nfn f() {}";
        let (f3, _) = scan(&lex(good).tokens, Tier::Reporting, true);
        assert!(f3.is_empty());
    }

    #[test]
    fn deny_unsafe_code_is_flagged_but_annotatable() {
        let src = "#![deny(unsafe_code)]\nfn f() {}";
        let (f, _) = scan(&lex(src).tokens, Tier::Reporting, true);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("deny"));
    }
}

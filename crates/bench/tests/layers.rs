//! The crate's modules form layers: no two modules reach each other, not
//! even through a cycle of several, so the crate reads bottom-up
//! (docs/ARCHITECTURE.md, "Evaluation layer").
//!
//! The test reads the non-test code of every `src/*.rs` (everything
//! before its `#[cfg(test)]` line, comments dropped) and collects each
//! `crate::<module>` it names, re-exports included. A `pub use` at an old
//! module keeps an import path alive, and it too may only point down.

use std::collections::BTreeMap;

/// Module name → the other modules its non-test code names.
fn module_graph() -> BTreeMap<String, Vec<String>> {
    let src = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
    let mut graph = BTreeMap::new();
    for entry in std::fs::read_dir(src).expect("src/ is readable") {
        let path = entry.unwrap().path();
        let (Some(stem), Some("rs")) =
            (path.file_stem().and_then(|s| s.to_str()), path.extension().and_then(|e| e.to_str()))
        else {
            continue;
        };
        if stem == "lib" {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let mut refs = Vec::new();
        for line in text.lines().take_while(|line| !line.starts_with("#[cfg(test)]")) {
            let code = line.split("//").next().unwrap_or("");
            for (at, _) in code.match_indices("crate::") {
                refs.extend(modules_named(&code[at + "crate::".len()..]));
            }
        }
        refs.retain(|m| m != stem);
        refs.sort();
        refs.dedup();
        graph.insert(stem.to_string(), refs);
    }
    graph
}

/// The modules a path after `crate::` starts with: one name, or each
/// first name of a `{a::…, b, …}` group.
fn modules_named(rest: &str) -> Vec<String> {
    let ident = |s: &str| -> String {
        s.trim_start().chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect()
    };
    match rest.strip_prefix('{') {
        None => vec![ident(rest)],
        Some(group) => {
            let group = group.split('}').next().unwrap_or("");
            group.split(',').map(ident).filter(|m| !m.is_empty()).collect()
        }
    }
}

/// The shortest cycle through `start`, if the graph has one, as
/// `a → b → … → a` (a breadth-first search back to `start`).
fn cycle_through(graph: &BTreeMap<String, Vec<String>>, start: &str) -> Option<String> {
    let mut came_from: BTreeMap<&str, &str> = BTreeMap::new();
    let mut frontier = vec![start];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &here in &frontier {
            for to in graph.get(here).into_iter().flatten() {
                if to == start {
                    // Back from `here` to `start`, whose successors name it.
                    let mut path = vec![here];
                    while let Some(&prev) = came_from.get(path[path.len() - 1]) {
                        path.push(prev);
                    }
                    path.reverse();
                    path.push(start);
                    return Some(path.join(" → "));
                }
                if !came_from.contains_key(to.as_str()) {
                    came_from.insert(to, here);
                    next.push(to.as_str());
                }
            }
        }
        frontier = next;
    }
    None
}

#[test]
fn no_two_modules_import_each_other() {
    let graph = module_graph();
    assert!(graph.len() >= 10, "the scan found the crate's modules: {graph:?}");
    for (module, refs) in &graph {
        for r in refs {
            assert!(graph.contains_key(r), "{module} names `crate::{r}`, which is no module");
        }
    }
    let cycles: Vec<String> = graph.keys().filter_map(|m| cycle_through(&graph, m)).collect();
    assert!(cycles.is_empty(), "import cycles among the modules:\n{}", cycles.join("\n"));
}

#[test]
fn the_scan_reads_paths_and_groups() {
    assert_eq!(modules_named("scenario::{a, b};"), ["scenario"]);
    assert_eq!(modules_named("{args::Args, json::Json};"), ["args", "json"]);
    let mut graph = BTreeMap::new();
    graph.insert("a".to_string(), vec!["b".to_string()]);
    graph.insert("b".to_string(), vec!["c".to_string()]);
    graph.insert("c".to_string(), vec!["a".to_string()]);
    assert_eq!(cycle_through(&graph, "a").as_deref(), Some("a → b → c → a"));
    graph.insert("c".to_string(), vec![]);
    assert_eq!(cycle_through(&graph, "a"), None);
}

//! Repo-hygiene pass over the golden corpus.
//!
//! The determinism contract is only as strong as the goldens that pin
//! it, so the audit checks the corpus itself:
//!
//! * every file under `tests/goldens/` must parse as JSON (a truncated
//!   or hand-mangled golden must fail before a byte diff reads it);
//! * every golden must be referenced by at least one test source or
//!   `ci.sh` stage — an orphan golden is a contract nobody enforces;
//! * every `tests/goldens/...` path named in `ci.sh` must exist.

use std::fs;
use std::path::Path;

use crate::json;
use crate::Finding;

/// Run the hygiene pass rooted at the workspace directory.
pub fn run(root: &Path, rust_sources: &[(String, String)]) -> Vec<Finding> {
    let mut out = Vec::new();
    let goldens_dir = root.join("tests/goldens");
    let ci_path = root.join("ci.sh");
    let ci = fs::read_to_string(&ci_path).unwrap_or_default();

    // ---- parse + orphan checks over the corpus ----
    let mut goldens: Vec<std::path::PathBuf> = match fs::read_dir(&goldens_dir) {
        Ok(rd) => rd.filter_map(|e| e.ok().map(|e| e.path())).filter(|p| p.is_file()).collect(),
        Err(_) => {
            out.push(Finding {
                file: "tests/goldens".into(),
                line: 0,
                rule: "golden-missing".into(),
                message: "golden directory tests/goldens/ not found".into(),
            });
            return out;
        }
    };
    goldens.sort();
    for path in &goldens {
        let name = path.file_name().unwrap_or_default().to_string_lossy().into_owned();
        let rel = format!("tests/goldens/{name}");
        match fs::read_to_string(path) {
            Ok(body) => {
                if let Err(e) = json::validate(&body) {
                    out.push(Finding {
                        file: rel.clone(),
                        line: 0,
                        rule: "golden-parse".into(),
                        message: format!("golden is not valid JSON: {e}"),
                    });
                }
            }
            Err(e) => out.push(Finding {
                file: rel.clone(),
                line: 0,
                rule: "golden-parse".into(),
                message: format!("golden unreadable: {e}"),
            }),
        }
        let referenced =
            ci.contains(&name) || rust_sources.iter().any(|(_, src)| src.contains(&name));
        if !referenced {
            out.push(Finding {
                file: rel,
                line: 0,
                rule: "golden-orphan".into(),
                message: format!(
                    "orphan golden: `{name}` is referenced by no test source and no ci.sh stage"
                ),
            });
        }
    }

    // ---- every golden path ci.sh names must exist ----
    for (lineno, line) in ci.lines().enumerate() {
        let mut rest = line;
        while let Some(pos) = rest.find("tests/goldens/") {
            let tail = &rest[pos..];
            let end = tail
                .find(|c: char| c.is_whitespace() || c == '"' || c == '\'' || c == ')' || c == '`')
                .unwrap_or(tail.len());
            let rel = &tail[..end];
            if rel.len() > "tests/goldens/".len() && !root.join(rel).is_file() {
                out.push(Finding {
                    file: "ci.sh".into(),
                    line: (lineno + 1) as u32,
                    rule: "golden-missing".into(),
                    message: format!("ci.sh references `{rel}`, which does not exist"),
                });
            }
            rest = &tail[end..];
        }
    }
    out
}

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
            let why = "golden directory tests/goldens/ not found";
            out.push(Finding::new("tests/goldens", 0, "golden-missing", why));
            return out;
        }
    };
    goldens.sort();
    for path in &goldens {
        let name = path.file_name().unwrap_or_default().to_string_lossy().into_owned();
        let rel = format!("tests/goldens/{name}");
        let invalid = match fs::read_to_string(path) {
            Ok(body) => {
                json::validate(&body).err().map(|e| format!("golden is not valid JSON: {e}"))
            }
            Err(e) => Some(format!("golden unreadable: {e}")),
        };
        if let Some(why) = invalid {
            out.push(Finding::new(&rel, 0, "golden-parse", why));
        }
        let referenced =
            ci.contains(&name) || rust_sources.iter().any(|(_, src)| src.contains(&name));
        if !referenced {
            let why = format!(
                "orphan golden: `{name}` is referenced by no test source and no ci.sh stage"
            );
            out.push(Finding::new(&rel, 0, "golden-orphan", why));
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
                let why = format!("ci.sh references `{rel}`, which does not exist");
                out.push(Finding::new("ci.sh", (lineno + 1) as u32, "golden-missing", why));
            }
            rest = &tail[end..];
        }
    }
    out
}

//! A minimal `--flag [value]` argument parser for the harness binaries.
//!
//! Not a CLI framework: every harness takes a handful of numeric knobs and
//! boolean switches, so a 100-line parser beats a dependency.

use std::collections::HashMap;

/// Parsed arguments: `--key value` pairs and bare `--switch`es.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    switches: Vec<String>,
    program: String,
}

impl Args {
    /// Parse the process arguments. A token starting with `--` is a key;
    /// if the next token does not start with `--`, it is that key's value,
    /// otherwise the key is a boolean switch.
    pub fn parse() -> Args {
        Self::from_tokens(std::env::args())
    }

    /// Parse an explicit token stream (first token = program name).
    pub fn from_tokens<I: IntoIterator<Item = String>>(iter: I) -> Args {
        let mut it = iter.into_iter();
        let program = it.next().unwrap_or_default();
        let mut values = HashMap::new();
        let mut switches = Vec::new();
        let tokens: Vec<String> = it.collect();
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            if let Some(key) = t.strip_prefix("--") {
                if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                    values.insert(key.to_string(), tokens[i + 1].clone());
                    i += 2;
                } else {
                    switches.push(key.to_string());
                    i += 1;
                }
            } else {
                // Bare positional tokens are ignored by the harnesses.
                i += 1;
            }
        }
        Args { values, switches, program }
    }

    pub fn program(&self) -> &str {
        &self.program
    }

    /// A `--switch` with no value.
    pub fn flag(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name) || self.values.contains_key(name)
    }

    /// Every `--key` given, with or without a value, sorted.
    pub fn keys(&self) -> Vec<&str> {
        let mut keys: Vec<&str> =
            self.values.keys().chain(&self.switches).map(String::as_str).collect();
        keys.sort_unstable();
        keys
    }

    /// A typed `--key value`: `Ok(None)` when absent, the reason when
    /// present but malformed.
    pub fn try_get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |v: &String| v.parse().map_err(|_| format!("cannot parse {v:?}"));
        self.values.get(name).map(parse).transpose()
    }

    /// [`Args::try_get`] for the figure binaries: falls back to `default`
    /// when absent, panics with a usage message when malformed.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.try_get(name) {
            Ok(value) => value.unwrap_or(default),
            Err(why) => panic!("--{name}: {why}"),
        }
    }

    /// A string `--key value`.
    pub fn get_str(&self, name: &str, default: &str) -> String {
        self.values.get(name).cloned().unwrap_or_else(|| default.to_string())
    }

    /// Common knob: RNG seed.
    pub fn seed(&self) -> u64 {
        self.get("seed", 1u64)
    }

    /// Common knob: workload scale factor in (0, 1].
    pub fn scale(&self, default: f64) -> f64 {
        let s: f64 = self.get("scale", default);
        assert!(s > 0.0 && s <= 1.0, "--scale must be in (0, 1]");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::from_tokens(
            std::iter::once("prog".to_string()).chain(s.split_whitespace().map(String::from)),
        )
    }

    #[test]
    fn values_and_switches() {
        let a = args("--seed 42 --timing --scale 0.5");
        assert_eq!(a.get("seed", 0u64), 42);
        assert!(a.flag("timing"));
        assert!(!a.flag("quick"));
        assert!((a.scale(1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn defaults_apply() {
        let a = args("");
        assert_eq!(a.seed(), 1);
        assert_eq!(a.get("ops", 500usize), 500);
        assert_eq!(a.get_str("mode", "fast"), "fast");
    }

    #[test]
    fn flag_with_value_counts_as_flag() {
        let a = args("--timing 1");
        assert!(a.flag("timing"));
    }

    #[test]
    #[should_panic(expected = "cannot parse")]
    fn malformed_value_panics() {
        args("--seed banana").get("seed", 0u64);
    }

    #[test]
    #[should_panic(expected = "--scale must be in")]
    fn scale_out_of_range_panics() {
        args("--scale 3.0").scale(1.0);
    }

    #[test]
    fn positional_tokens_ignored() {
        let a = args("stray --seed 9 more");
        assert_eq!(a.seed(), 9);
    }
}

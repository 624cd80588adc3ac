//! The `atlahs` CLI's argument layer: a minimal `--flag [value]` parser
//! and the usage-error front every subcommand reads its flags through.
//!
//! Not a CLI framework: every subcommand takes a handful of axis lists,
//! numeric knobs and boolean switches, so a small parser beats a
//! dependency.

use std::collections::HashMap;

/// Parsed arguments: `--key value` pairs, bare `--switch`es and the
/// positional tokens in between.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

impl Args {
    /// Parse an explicit token stream (first token = program name). A
    /// token starting with `--` is a key; if the next token does not
    /// start with `--`, it is that key's value, otherwise the key is a
    /// boolean switch. Any other token is positional.
    pub fn from_tokens<I: IntoIterator<Item = String>>(iter: I) -> Args {
        let mut args = Args::default();
        let mut tokens = iter.into_iter().skip(1).peekable();
        while let Some(t) = tokens.next() {
            match t.strip_prefix("--") {
                Some(key) => match tokens.next_if(|next| !next.starts_with("--")) {
                    Some(value) => {
                        args.values.insert(key.to_string(), value);
                    }
                    None => args.switches.push(key.to_string()),
                },
                None => args.positionals.push(t),
            }
        }
        args
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

    /// The tokens that are neither a `--key` nor its value, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// A typed `--key value`: `Ok(None)` when absent, the reason when
    /// present but malformed.
    pub fn try_get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |v: &String| v.parse().map_err(|_| format!("cannot parse {v:?}"));
        self.values.get(name).map(parse).transpose()
    }

    /// A string `--key value`.
    pub fn get_str(&self, name: &str, default: &str) -> String {
        self.values.get(name).cloned().unwrap_or_else(|| default.to_string())
    }
}

/// The subcommand being run and its flags: what flag parsing needs to
/// read input and to name the subcommand in errors.
pub struct Cli<'a> {
    pub sub: &'a str,
    pub args: &'a Args,
}

impl<'a> Cli<'a> {
    /// Refuse a flag outside `flags` (a mistyped flag must not silently
    /// run the defaults) and a stray positional token. `fig` takes
    /// exactly one positional: the figure name.
    pub fn new(sub: &'a str, args: &'a Args, flags: &str) -> Cli<'a> {
        let cli = Cli { sub, args };
        let read = |key: &&str| flags.split(' ').any(|flag| flag.strip_prefix("--") == Some(key));
        if let Some(stray) = args.keys().into_iter().find(|key| !read(key)) {
            cli.fail(format!("--{stray}: unknown flag ({sub} reads {flags})"));
        }
        let named = usize::from(sub == "fig");
        if let Some(stray) = args.positionals().get(named) {
            cli.fail(format!("stray argument `{stray}`"));
        }
        cli
    }

    /// A usage error: say what is wrong, naming the subcommand, and exit 2.
    pub fn fail(&self, what: String) -> ! {
        eprintln!("atlahs {}: {what}", self.sub);
        std::process::exit(2);
    }

    /// The numeric `--flag`.
    pub fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        let given = self.args.try_get(flag).unwrap_or_else(|e| self.fail(format!("--{flag}: {e}")));
        given.unwrap_or(default)
    }

    /// Parse the comma-separated axis `--flag`.
    pub fn axis<T>(
        &self,
        flag: &str,
        default: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Vec<T> {
        let raw = self.args.get_str(flag, default);
        let tokens = raw.split(',').map(str::trim).filter(|tok| !tok.is_empty());
        tokens
            .map(|tok| parse(tok).unwrap_or_else(|e| self.fail(format!("--{flag}: {e}"))))
            .collect()
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
        assert_eq!(a.try_get("seed"), Ok(Some(42u64)));
        assert!(a.flag("timing"));
        assert!(!a.flag("quick"));
        assert_eq!(a.try_get("scale"), Ok(Some(0.5f64)));
        assert_eq!(a.keys(), ["scale", "seed", "timing"]);
    }

    #[test]
    fn defaults_apply() {
        let a = args("");
        assert_eq!(a.try_get::<u64>("seed"), Ok(None));
        assert_eq!(a.get_str("mode", "fast"), "fast");
        assert!(a.positionals().is_empty());
    }

    #[test]
    fn flag_with_value_counts_as_flag() {
        let a = args("--timing 1");
        assert!(a.flag("timing"));
    }

    /// Bare tokens used to be dropped, so `--backends ideal smoke` ran
    /// without a word about `smoke`; they are kept for [`Cli::new`] to
    /// refuse.
    #[test]
    fn positional_tokens_are_kept() {
        let a = args("stray --seed 9 more");
        assert_eq!(a.try_get("seed"), Ok(Some(9u64)));
        assert_eq!(a.positionals(), ["stray", "more"]);
    }
}

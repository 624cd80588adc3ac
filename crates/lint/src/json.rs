//! The workspace's one JSON codec: a value tree, a stable pretty-printer,
//! and a strict, depth-bounded parser.
//!
//! Not a serde replacement. The report writers need stable, human-diffable
//! pretty-printing (object keys keep insertion order, so goldens diff
//! cleanly); the golden-hygiene pass and the churn-trace loader need a
//! parser that turns *any* input — truncated, hand-mangled, or hostile —
//! into a `line N: …` error, never a panic. `atlahs_bench::json`
//! re-exports this module.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser is
/// recursive descent; the bound keeps hostile input (`[[[[…`) a typed
/// error instead of a stack overflow. Reports nest 4–5 levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Numbers are `f64` (reports only store measurements).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object (stable output; duplicate keys are not
    /// merged, `get` returns the first match).
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert/append a key into an object (panics on non-objects: misuse
    /// is a harness bug, not input data).
    pub fn set(&mut self, key: &str, value: Json) -> &mut Json {
        match self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value)),
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse one JSON document. Errors read `line N: <what>`; nesting
    /// deeper than [`MAX_DEPTH`] is an error like any other.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { src: text, i: 0, line: 1, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != text.len() {
            return Err(p.err("trailing data after the JSON document"));
        }
        Ok(v)
    }
}

/// Validate that `src` is one well-formed JSON document.
pub fn validate(src: &str) -> Result<(), String> {
    Json::parse(src).map(drop)
}

fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf
    } else if n == n.trunc() && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    src: &'a str,
    i: usize,
    line: u32,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("line {}: {msg}", self.line)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            match c {
                b'\n' => self.line += 1,
                b' ' | b'\t' | b'\r' => {}
                _ => break,
            }
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                self.i += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => {
                let c = self.src[self.i..].chars().next().expect("peeked a byte");
                Err(self.err(&format!("unexpected `{c}`")))
            }
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.src.as_bytes()[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    /// Comma-separated items up to `close` (the opener is consumed).
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(c) if c == close => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err(&format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        let mut pairs = Vec::new();
        self.items(b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            pairs.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Json::Obj(pairs))
    }

    fn array(&mut self) -> Result<Json, String> {
        let mut items = Vec::new();
        self.items(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run up to the next quote, escape, or raw newline
            // (all ASCII, so the slice ends on a char boundary).
            let rest = &self.src[self.i..];
            let run =
                rest.find(['"', '\\', '\n']).ok_or_else(|| self.err("unterminated string"))?;
            s.push_str(&rest[..run]);
            self.i += run + 1;
            match rest.as_bytes()[run] {
                b'"' => return Ok(s),
                b'\n' => return Err(self.err("raw newline in string")),
                _ => s.push(self.escape()?),
            }
        }
    }

    /// The character an escape sequence stands for (the `\` is consumed).
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hex = self.src.as_bytes().get(self.i + 1..self.i + 5).unwrap_or_default();
                if hex.len() != 4 || !hex.iter().all(u8::is_ascii_hexdigit) {
                    return Err(self.err("bad \\u escape"));
                }
                let code = hex
                    .iter()
                    .fold(0, |n, &h| n * 16 + (h as char).to_digit(16).expect("checked hex"));
                self.i += 4;
                // Lone surrogates have no scalar value.
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(self.err("bad escape in string")),
        };
        self.i += 1;
        Ok(c)
    }

    fn digits(&mut self) -> usize {
        let start = self.i;
        while matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
            self.i += 1;
        }
        self.i - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        // Leading zeros are accepted (the writers never emit them).
        if self.digits() == 0 {
            return Err(self.err("malformed number"));
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if self.digits() == 0 {
                return Err(self.err("malformed number fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("malformed number exponent"));
            }
        }
        self.src[start..self.i].parse().map(Json::Num).map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::{validate, Json, MAX_DEPTH};

    #[test]
    fn accepts_real_report_shapes() {
        validate(r#"{"v": 1, "cells": [{"key": "a,b", "ns": 123}], "ok": true}"#).unwrap();
        validate("[1, -2.5, 3e9, null, \"s\\n\", []]").unwrap();
        validate("  {}\n").unwrap();
    }

    #[test]
    fn rejects_truncation_and_trailing_garbage() {
        assert!(validate(r#"{"a": [1, 2"#).is_err());
        assert!(validate(r#"{"a": 1} trailing"#).is_err());
        assert!(validate("").is_err());
    }

    #[test]
    fn rejects_structural_breakage_with_line_numbers() {
        let err = validate("{\n \"a\": 1,\n \"b\" 2\n}").unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        assert!(validate("{'a': 1}").is_err());
        assert!(
            validate("{\"a\": 01}").is_ok(),
            "leading zeros accepted (writers never emit them)"
        );
    }

    #[test]
    fn roundtrip_object() {
        let mut j = Json::obj();
        j.set("name", Json::Str("fig11".into()));
        j.set("wall_ms", Json::Num(123.5));
        j.set("events", Json::Num(1_000_000.0));
        j.set("tags", Json::Arr(vec![Json::Str("a".into()), Json::Bool(true), Json::Null]));
        let text = j.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, j);
        assert_eq!(back.get("wall_ms").unwrap().as_f64(), Some(123.5));
        assert_eq!(back.get("name").unwrap().as_str(), Some("fig11"));
    }

    #[test]
    fn integers_print_without_fraction() {
        let mut j = Json::obj();
        j.set("n", Json::Num(42.0));
        assert!(j.pretty().contains("\"n\": 42\n"), "{}", j.pretty());
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let j = Json::parse(r#"{"s": "a\nbA\" \\"}"#).unwrap();
        assert_eq!(j.get("s").unwrap().as_str(), Some("a\nbA\" \\"));
    }

    #[test]
    fn decodes_every_escape_and_multibyte_runs() {
        let j = Json::parse(r#"["éA\ud800", "é✓", "\b\f\/"]"#).unwrap();
        assert_eq!(j.as_arr().unwrap()[0].as_str(), Some("éA\u{fffd}"));
        assert_eq!(j.as_arr().unwrap()[1].as_str(), Some("é✓"));
        assert_eq!(j.as_arr().unwrap()[2].as_str(), Some("\u{8}\u{c}/"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
    }

    #[test]
    fn nested_roundtrip() {
        let text = "{\n  \"a\": [\n    {\n      \"b\": -1.5e3\n    }\n  ]\n}\n";
        let j = Json::parse(text).unwrap();
        assert_eq!(j.pretty(), text.replace("-1.5e3", "-1500"));
    }

    /// The merged parser is as strict as either predecessor was.
    #[test]
    fn rejects_what_either_predecessor_rejected() {
        for bad in [
            "tru",
            "nul",
            "[fals]",
            r#""\x""#,
            r#""\u12g4""#,
            r#""\u+123""#,
            r#""\u12"#,
            "\"a\nb\"",
            "\"open",
            "1.",
            "1e",
            "-",
            "--1",
            "1-2",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "{1: 2}",
            "é",
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(err.starts_with("line "), "{bad:?}: {err}");
        }
    }

    /// Hostile nesting is a typed error, not a stack overflow — at the
    /// bound, far past it, and for both container kinds.
    #[test]
    fn nesting_is_bounded() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + "1" + &close.repeat(n);
        assert!(Json::parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest("{\"k\":", "}", MAX_DEPTH)).is_ok());
        for src in [
            nest("[", "]", MAX_DEPTH + 1),
            nest("{\"k\":", "}", MAX_DEPTH + 1),
            "[".repeat(200_000),
            "{\"k\":".repeat(200_000),
            "[{\"k\":".repeat(100_000),
        ] {
            let err = Json::parse(&src).unwrap_err();
            assert!(err.contains("nesting deeper than 128 levels"), "{err}");
            assert_eq!(validate(&src).unwrap_err(), err);
        }
    }
}

//! The byte-level scanner behind [`MpiTrace::parse`](crate::mpi::MpiTrace::parse)
//! and [`NsysReport::parse`](crate::nccl::NsysReport::parse).
//!
//! [`lines`] cuts the input at `\n` and trims each line; [`Line::record`]
//! splits a `NAME: key=value …` record at its first colon into the name
//! and its [`Fields`], which read each key up to its `=` and then the
//! value's digits into a `u64` in the same pass; [`number`] reads a
//! header's numbers the same way. Every piece is a slice of the input:
//! nothing is allocated per line, only error messages are.
//!
//! Whitespace is the ASCII part of `char::is_whitespace`: space, `\t`,
//! `\n`, `\x0B`, `\x0C` and `\r`. Any other byte — non-ASCII whitespace
//! such as U+00A0 included — belongs to the token it touches, so a line
//! that uses it as a separator fails with a `line N: …` error instead of
//! being read the way `str::split_whitespace` would read it.

use std::fmt::Display;

/// `char::is_whitespace` for ASCII bytes (`u8::is_ascii_whitespace` leaves
/// out `\x0B`).
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | 0x0B | 0x0C | b'\r')
}

/// `s` without leading and trailing whitespace.
pub(crate) fn trim(s: &str) -> &str {
    let b = s.as_bytes();
    let start = b.iter().position(|&c| !is_space(c)).unwrap_or(b.len());
    let end = b.iter().rposition(|&c| !is_space(c)).map_or(start, |i| i + 1);
    &s[start..end]
}

/// The number at the start of `b`, read up to the first whitespace byte:
/// `(value, bytes read)`. The value is what `str::parse::<u64>` makes of
/// those bytes — an optional `+`, then at least one digit, no overflow —
/// and `None` where that fails. Up to 19 digits cannot overflow, so they
/// accumulate in one unchecked pass; a longer run is re-read with checked
/// arithmetic.
fn digits(b: &[u8]) -> (Option<u64>, usize) {
    let first = usize::from(b.first() == Some(&b'+'));
    let (mut i, mut value, mut bad) = (first, 0u64, false);
    while let Some(&c) = b.get(i).filter(|&&c| !is_space(c)) {
        let d = c.wrapping_sub(b'0');
        bad |= d > 9;
        value = value.wrapping_mul(10).wrapping_add(u64::from(d));
        i += 1;
    }
    let value = match i - first {
        n if bad || n == 0 => None,
        1..=19 => Some(value),
        _ => b[first..i]
            .iter()
            .try_fold(0u64, |v, &c| v.checked_mul(10)?.checked_add((c - b'0').into())),
    };
    (value, i)
}

/// `s`, trimmed, as a decimal number narrowed to `T`: what
/// `s.trim().parse::<T>()` reads for ASCII `s`.
pub(crate) fn number<T: TryFrom<u64>>(s: &str) -> Option<T> {
    let s = trim(s);
    match digits(s.as_bytes()) {
        (Some(v), n) if n == s.len() => T::try_from(v).ok(),
        _ => None,
    }
}

/// One trimmed, non-blank line and its 1-based number.
pub(crate) struct Line<'a> {
    pub(crate) no: usize,
    pub(crate) text: &'a str,
}

/// The non-blank lines of `input`, numbered as `str::lines` numbers them.
pub(crate) fn lines(input: &str) -> impl Iterator<Item = Line<'_>> {
    input.split('\n').zip(1..).filter_map(|(l, no)| {
        let text = trim(l);
        (!text.is_empty()).then_some(Line { no, text })
    })
}

impl<'a> Line<'a> {
    /// The error `line N: msg`.
    pub(crate) fn err(&self, msg: impl Display) -> String {
        format!("line {}: {msg}", self.no)
    }

    /// The line as a record: the name before its first colon and the
    /// fields after it; `None` if there is no colon.
    pub(crate) fn record(&self) -> Option<(&'a str, Fields<'a>)> {
        self.text.split_once(':').map(|(name, rest)| (name, Fields(rest)))
    }
}

/// One `key=value` token of a record.
pub(crate) struct Field<'a> {
    pub(crate) key: &'a str,
    /// The whole token, for error messages.
    pub(crate) token: &'a str,
    value: Option<u64>,
}

impl Field<'_> {
    /// The value narrowed to `T`; `None` if it is not a number or does not
    /// fit.
    pub(crate) fn value<T: TryFrom<u64>>(&self) -> Option<T> {
        T::try_from(self.value?).ok()
    }
}

/// The whitespace-separated tokens of a record, each read in one pass: the
/// key up to `=`, then the value's digits. A token without `=` comes out
/// as `Err(token)`.
pub(crate) struct Fields<'a>(&'a str);

impl<'a> Iterator for Fields<'a> {
    type Item = Result<Field<'a>, &'a str>;

    fn next(&mut self) -> Option<Self::Item> {
        let (s, b) = (self.0, self.0.as_bytes());
        let start = b.iter().position(|&c| !is_space(c))?;
        let eq = b[start..]
            .iter()
            .position(|&c| c == b'=' || is_space(c))
            .map_or(b.len(), |n| start + n);
        if b.get(eq) != Some(&b'=') {
            self.0 = &s[eq..];
            return Some(Err(&s[start..eq]));
        }
        let (value, len) = digits(&b[eq + 1..]);
        let end = eq + 1 + len;
        self.0 = &s[end..];
        Some(Ok(Field { key: &s[start..eq], token: &s[start..end], value }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitespace_is_the_ascii_part_of_char_is_whitespace() {
        for b in 0..=127u8 {
            assert_eq!(is_space(b), char::from(b).is_whitespace(), "byte {b:#04x}");
        }
        assert_eq!(trim("\x0B\t a b\r\x0C "), "a b");
        assert_eq!(trim("\u{a0}a\u{a0}"), "\u{a0}a\u{a0}");
        assert_eq!(trim(" \t"), "");
    }

    #[test]
    fn numbers_read_like_str_parse() {
        for s in ["0", "+7", " 007\t", "18446744073709551615", "4294967295", "4294967296"] {
            assert_eq!(number::<u64>(s), s.trim().parse::<u64>().ok(), "{s}");
            assert_eq!(number::<u32>(s), s.trim().parse::<u32>().ok(), "{s}");
        }
        for s in ["", "+", "-0", "++1", "1 2", "1_0", "18446744073709551616", "1e3", "٣"] {
            assert_eq!(number::<u64>(s), None, "{s}");
            assert!(s.trim().parse::<u64>().is_err(), "{s}");
        }
    }

    #[test]
    fn lines_are_numbered_like_str_lines() {
        let input = "a\r\n\n \t\nb  \nc";
        let got: Vec<(usize, &str)> = lines(input).map(|l| (l.no, l.text)).collect();
        assert_eq!(got, [(1, "a"), (4, "b"), (5, "c")]);
    }

    #[test]
    fn fields_split_at_whitespace_and_the_first_equals_sign() {
        let line = Line { no: 3, text: "OP:a=1\tb=+2  c==3 d" };
        let (name, fields) = line.record().unwrap();
        assert_eq!(name, "OP");
        let got: Vec<_> = fields.map(|f| f.map(|f| (f.key, f.token, f.value::<u64>()))).collect();
        assert_eq!(
            got,
            [
                Ok(("a", "a=1", Some(1))),
                Ok(("b", "b=+2", Some(2))),
                Ok(("c", "c==3", None)),
                Err("d")
            ]
        );
        assert_eq!(line.err("bad"), "line 3: bad");
        assert!(Line { no: 1, text: "no colon" }.record().is_none());
    }
}

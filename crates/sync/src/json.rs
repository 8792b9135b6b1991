//! The workspace's one JSON codec.
//!
//! Every JSON document the system writes or reads — wire requests and
//! replies, Perfetto traces, `--metrics-out` snapshots, figure dumps, the
//! load generator's report and fault plans — goes through this module. It
//! holds the rules of JSON once: one string escaper ([`escape`],
//! [`write_str`]), one number policy ([`num`], [`fixed`]) and one pull
//! reader ([`Reader`]). The layout of each document stays at its call site
//! as a format string. The workspace builds offline, so there is no serde.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Escapes `s` as the inside of a JSON string (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Pushes `s` onto `out` as a quoted, escaped JSON string.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

fn escape_into(out: &mut String, s: &str) {
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
}

/// Formats a number in its shortest round-trip form; NaN and the
/// infinities, which JSON cannot spell, become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Formats a number with exactly `places` decimals; non-finite values
/// become `null`, as in [`num`].
pub fn fixed(v: f64, places: usize) -> String {
    if v.is_finite() {
        format!("{v:.places$}")
    } else {
        "null".to_string()
    }
}

/// A flat JSON value: what [`parse_object`] maps each key to.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A (de-escaped) string.
    Str(String),
    /// Any JSON number, kept as f64.
    Num(f64),
    /// true / false.
    Bool(bool),
    /// null.
    Null,
}

impl Json {
    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }
}

fn exact_u64(v: f64) -> Option<u64> {
    (v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64).then_some(v as u64)
}

/// Parses one flat JSON object (`{"k": v, ...}`) into a key → value map.
/// Nested objects and arrays are rejected: the wire protocol never uses them.
pub fn parse_object(input: &str) -> Result<BTreeMap<String, Json>, String> {
    let mut r = Reader::new(input);
    let mut map = BTreeMap::new();
    r.object(|r, key| {
        let value = match r.peek() {
            Some(b'"') => Json::Str(r.string()?),
            Some(b't' | b'f') => Json::Bool(r.bool()?),
            Some(b'n') => r.null().map(|()| Json::Null)?,
            Some(b'{' | b'[') => return Err(r.error("nested objects/arrays are not supported")),
            _ => Json::Num(r.f64()?),
        };
        map.insert(key, value);
        Ok(())
    })
    .and_then(|()| r.end())
    .map_err(|e| e.to_string())?;
    Ok(map)
}

/// A syntax or schema error at a byte offset into the reader's input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Byte offset the error points at.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

fn err(offset: usize, message: impl Into<String>) -> Error {
    Error {
        offset,
        message: message.into(),
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for Error {}

/// A pull reader over one JSON text: the caller walks the document's schema
/// and asks for each value in turn, so a schema error can point at the
/// exact token, just like a syntax error. Every read skips leading
/// whitespace.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self { text, pos: 0 }
    }

    /// An error at the current position.
    pub fn error(&self, message: impl Into<String>) -> Error {
        err(self.pos, message)
    }

    /// The next non-whitespace byte, without consuming it.
    fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\r' | b'\n') = self.byte() {
            self.pos += 1;
        }
        self.byte()
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn unexpected(&self, want: &str) -> Error {
        let found = self.text[self.pos..].chars().next();
        let found = found.map_or("end of input".to_string(), |c| format!("{c:?}"));
        self.error(format!("expected {want}, found {found}"))
    }

    /// Consumes `want` if it is the next non-whitespace byte.
    fn eat(&mut self, want: u8) -> bool {
        let found = self.peek() == Some(want);
        self.pos += usize::from(found);
        found
    }

    fn expect(&mut self, want: u8) -> Result<(), Error> {
        match self.eat(want) {
            true => Ok(()),
            false => Err(self.unexpected(&format!("{:?}", char::from(want)))),
        }
    }

    /// Reads `open`, then `,`-separated elements up to `close`, calling
    /// `each` to read every element.
    fn elements(
        &mut self,
        open: u8,
        close: u8,
        mut each: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.expect(open)?;
        if self.eat(close) {
            return Ok(());
        }
        loop {
            each(self)?;
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.unexpected(&format!("',' or {:?}", char::from(close))));
            }
        }
    }

    /// Reads an object, calling `field` with each key; `field` must read
    /// the key's value.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, String) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.elements(b'{', b'}', |r| {
            let key = r.string()?;
            r.expect(b':')?;
            field(r, key)
        })
    }

    /// Reads an array, calling `item` once per element; `item` must read
    /// the element.
    pub fn array(&mut self, item: impl FnMut(&mut Self) -> Result<(), Error>) -> Result<(), Error> {
        self.elements(b'[', b']', item)
    }

    /// Reads a string, decoding its escapes. A `\uXXXX` surrogate pair
    /// decodes to one character; a lone surrogate becomes U+FFFD.
    pub fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text.as_bytes()[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            let run = run.ok_or_else(|| err(self.text.len(), "unterminated string"))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            match rest[run] {
                b'"' => return Ok(out),
                b'\\' => out.push(self.unescape()?),
                _ => return Err(err(self.pos - 1, "control character in string")),
            }
        }
    }

    /// Decodes the escape after a consumed backslash.
    fn unescape(&mut self) -> Result<char, Error> {
        let c = match self.byte() {
            Some(b @ (b'"' | b'\\' | b'/')) => char::from(b),
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                // `self.pos` is on the `u`: four hex digits follow it, and a
                // low surrogate's `\uXXXX` may follow them.
                let hex = |at: usize| {
                    let h = self.text.get(at..at + 4);
                    let h = h.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))?;
                    u32::from_str_radix(h, 16).ok()
                };
                let mut code = hex(self.pos + 1).ok_or_else(|| self.error("bad \\u escape"))?;
                let mut len = 4;
                if (0xd800..0xdc00).contains(&code) && self.text[self.pos + 5..].starts_with("\\u")
                {
                    if let Some(low @ 0xdc00..=0xdfff) = hex(self.pos + 7) {
                        code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                        len = 10;
                    }
                }
                self.pos += len;
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(self.unexpected("an escape character")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Reads a number.
    pub fn f64(&mut self) -> Result<f64, Error> {
        self.peek();
        let start = self.pos;
        while let Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') = self.byte() {
            self.pos += 1;
        }
        match &self.text[start..self.pos] {
            "" => Err(self.unexpected("a value")),
            text => text
                .parse()
                .map_err(|_| err(start, format!("invalid number {text:?}"))),
        }
    }

    /// Reads a number that must be a non-negative integer.
    pub fn u64(&mut self) -> Result<u64, Error> {
        self.peek();
        let start = self.pos;
        let v = self.f64()?;
        exact_u64(v)
            .ok_or_else(|| err(start, format!("expected a non-negative integer, found {v}")))
    }

    fn literal(&mut self, word: &str) -> bool {
        self.peek();
        let found = self.text[self.pos..].starts_with(word);
        self.pos += if found { word.len() } else { 0 };
        found
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, Error> {
        if self.literal("true") {
            Ok(true)
        } else if self.literal("false") {
            Ok(false)
        } else {
            Err(self.unexpected("a boolean"))
        }
    }

    /// Reads `null`.
    pub fn null(&mut self) -> Result<(), Error> {
        match self.literal("null") {
            true => Ok(()),
            false => Err(self.unexpected("null")),
        }
    }

    /// Reads and discards one value of any shape, nested or not.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'{') => self.object(|r, _| r.skip_value()),
            Some(b'[') => self.array(Self::skip_value),
            Some(b'"') => self.string().map(drop),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'n') => self.null(),
            _ => self.f64().map(drop),
        }
    }

    /// Checks that only whitespace is left.
    pub fn end(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing data")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_request_line() {
        let m = parse_object(
            r#"{"id": 7, "kernel": "matmul", "threads": 2, "deadline_ms": 1500, "warm": true, "note": null}"#,
        )
        .unwrap();
        assert_eq!(m["id"].as_u64(), Some(7));
        assert_eq!(m["kernel"].as_str(), Some("matmul"));
        assert_eq!(m["deadline_ms"].as_u64(), Some(1500));
        assert_eq!(m["warm"], Json::Bool(true));
        assert_eq!(m["note"], Json::Null);
    }

    #[test]
    fn empty_object_and_whitespace() {
        assert!(parse_object("  { }  ").unwrap().is_empty());
    }

    #[test]
    fn escapes_round_trip() {
        let original = "a\"b\\c\nd\te\r\u{1}f✓😀";
        let mut line = String::from("{\"s\": ");
        write_str(&mut line, original);
        line.push('}');
        let m = parse_object(&line).unwrap();
        assert_eq!(m["s"].as_str(), Some(original));
        assert_eq!(escape("\r\u{1f}"), "\\r\\u001f");
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":[1]}",
            "{\"a\":{}}",
            "{\"a\":1} trailing",
            "{\"a\":1e}",
            "{'a':1}",
            "{\"a\":\"raw\ttab\"}",
            "{\"a\":\"\\x\"}",
            "{\"a\":\"\\u12\"}",
            "{\"a\":\"open}",
            "{\"a\":truefalse}",
        ] {
            assert!(parse_object(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn numbers_parse_and_validate() {
        let m = parse_object(r#"{"a": -2.5, "b": 1e3, "c": 3}"#).unwrap();
        assert_eq!(m["a"].as_f64(), Some(-2.5));
        assert_eq!(m["a"].as_u64(), None);
        assert_eq!(m["b"].as_u64(), Some(1000));
        assert_eq!(m["c"].as_u64(), Some(3));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        let grin = parse_object(r#"{"c":"\ud83d\ude00"}"#).unwrap();
        let party = parse_object(r#"{"c":"\ud83c\udf89"}"#).unwrap();
        assert_eq!(grin["c"].as_str(), Some("😀"));
        assert_eq!(party["c"].as_str(), Some("🎉"));
        // Lone surrogates (high without low, low alone) stay U+FFFD, and
        // the escape after a lone high surrogate still decodes.
        let lone = parse_object(r#"{"c":"\ud83dx\ude00\ud83d\u0041"}"#).unwrap();
        assert_eq!(lone["c"].as_str(), Some("\u{fffd}x\u{fffd}\u{fffd}A"));
    }

    #[test]
    fn errors_carry_the_byte_offset() {
        let err = parse_object(r#"{"a": 1, "b" 2}"#).unwrap_err();
        assert!(err.ends_with("at byte 13"), "{err}");
        let mut r = Reader::new("  [1, -2]");
        assert_eq!(r.u64().unwrap_err().offset, 2);
        let mut r = Reader::new("[1, -2]");
        let mut got = Vec::new();
        let err = r.array(|r| r.u64().map(|v| got.push(v))).unwrap_err();
        assert_eq!((got, err.offset), (vec![1], 4));
    }

    #[test]
    fn skip_value_walks_nested_documents() {
        let mut r = Reader::new(r#" {"a": [1, {"b": [true, null, "x\"]"]}], "c": {}} "#);
        r.skip_value().unwrap();
        r.end().unwrap();
        let mut r = Reader::new(r#"{"a": [1, 2}"#);
        assert!(r.skip_value().is_err());
    }

    #[test]
    fn number_policy() {
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(num(3.0), "3");
        assert_eq!(fixed(0.25, 9), "0.250000000");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(num(v), "null");
            assert_eq!(fixed(v, 3), "null");
        }
    }
}

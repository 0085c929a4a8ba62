//! The workspace's JSON: a value tree, a compact and a pretty writer, and
//! a reader for what the binaries read back.
//!
//! Written: the `BENCH_*.json` baselines (pretty) and `fleet --scale-row`'s
//! child line (compact). Read: `BENCH_batch.json`, rewritten section by
//! section through [`benchfile`](crate::benchfile), and that child line.
//! Strings and floats follow `telemetry::export`'s rules, the ones the
//! metrics files use. A number keeps its literal text, so a section read
//! and written back keeps its bytes. The reader answers anything outside
//! the grammar with a [`JsonError`] naming the byte offset, and bounds
//! nesting at [`MAX_DEPTH`] so no input can exhaust the stack.

use std::fmt;

use telemetry::export::{json_escape, json_f64};

/// Deepest nesting of arrays and objects the reader accepts (the BENCH
/// files nest four deep).
pub const MAX_DEPTH: usize = 64;

/// One JSON value. Objects keep their keys in file order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number as its literal text, already valid JSON.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n.to_string())
            }
        }
    )*};
}
from_int!(u32, u64, usize);

/// `json_f64`'s form; JSON has no NaN or infinity, so those are `null`.
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        if !v.is_finite() {
            return Json::Null;
        }
        let mut text = String::new();
        json_f64(v, &mut text);
        Json::Num(text)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl Json {
    /// An object from `(key, value)` pairs, in the given order.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value under `key`, when `self` is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A number's text parsed as `T` (`u64` takes only non-negative
    /// integers, `f64` any number).
    pub fn num<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            Json::Num(text) => text.parse().ok(),
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

    /// The value on one line, without whitespace.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// One item or key per line at a two-space indent, `": "` after a
    /// key, `[]`/`{}` for an empty container, no trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// `depth` is the pretty writer's nesting level; `None` writes compact.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        let (open, close, entries): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(text) => return out.push_str(text),
            Json::Str(s) => return json_escape(s, out),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => {
                ('{', '}', fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect())
            }
        };
        out.push(open);
        let inner = depth.map(|d| d + 1);
        for (i, (key, value)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            newline(out, inner);
            if let Some(key) = key {
                json_escape(key, out);
                out.push_str(if depth.is_some() { ": " } else { ":" });
            }
            value.write(out, inner);
        }
        if !entries.is_empty() {
            newline(out, depth);
        }
        out.push(close);
    }

    /// Parse one JSON value, with nothing but whitespace around it.
    pub fn parse(bytes: &[u8]) -> Result<Json, JsonError> {
        let mut r = Reader { bytes, pos: 0 };
        let value = r.value(0)?;
        r.skip_ws();
        if r.pos < bytes.len() {
            return Err(r.err("trailing characters"));
        }
        Ok(value)
    }
}

fn newline(out: &mut String, depth: Option<usize>) {
    if let Some(depth) = depth {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    }
}

/// Why a text is not JSON, and the byte offset where the reader stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub reason: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

impl std::error::Error for JsonError {}

const LITERALS: [(&[u8], Json); 3] =
    [(b"null", Json::Null), (b"true", Json::Bool(true)), (b"false", Json::Bool(false))];

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn err(&self, reason: &'static str) -> JsonError {
        JsonError { offset: self.pos, reason }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consume `b` after optional whitespace.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    /// Advance over a run of ASCII digits; false when there is none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// One value inside `depth` containers.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_ws();
        let c = self.peek().ok_or_else(|| self.err("unexpected end of input"))?;
        for (word, value) in LITERALS {
            if self.bytes[self.pos..].starts_with(word) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        match c {
            b'"' => self.string().map(Json::Str),
            b'-' | b'0'..=b'9' => self.number(),
            b'[' | b'{' if depth == MAX_DEPTH => Err(self.err("nesting too deep")),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.eat(b']') {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    if self.eat(b']') {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(b',') {
                        return Err(self.err("expected `,` or `]`"));
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                if self.eat(b'}') {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.err("expected a string key"));
                    }
                    let key = self.string()?;
                    if !self.eat(b':') {
                        return Err(self.err("expected `:`"));
                    }
                    fields.push((key, self.value(depth + 1)?));
                    if self.eat(b'}') {
                        return Ok(Json::Obj(fields));
                    }
                    if !self.eat(b',') {
                        return Err(self.err("expected `,` or `}`"));
                    }
                }
            }
            _ => Err(self.err("unexpected character")),
        }
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, kept as text.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.pos += usize::from(self.peek() == Some(b'-'));
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else if !self.digits() {
            return Err(self.err("expected a digit"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err(self.err("expected a digit after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            if !self.digits() {
                return Err(self.err("expected an exponent digit"));
            }
        }
        Ok(Json::Num(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned()))
    }

    /// A quoted string, its escapes decoded. A `\u` escape must name a
    /// character on its own: the writer escapes only control characters,
    /// so surrogate pairs never occur.
    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // the opening quote
        let mut s = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            let run = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| JsonError {
                offset: start + e.valid_up_to(),
                reason: "invalid UTF-8 in string",
            })?;
            s.push_str(run);
            let c = match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                None => return Err(self.err("unterminated string")),
                Some(b'\\') => self.bytes.get(self.pos + 1).copied(),
                Some(_) => return Err(self.err("control character in string")),
            };
            let decoded = match c {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let hex = self.bytes.get(self.pos + 2..self.pos + 6).unwrap_or_default();
                    let hex = std::str::from_utf8(hex).unwrap_or_default();
                    let unit = u32::from_str_radix(hex, 16)
                        .ok()
                        .filter(|_| hex.len() == 4 && hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .ok_or_else(|| self.err("expected four hex digits after `\\u`"))?;
                    let c = char::from_u32(unit).ok_or_else(|| self.err("surrogate `\\u` escape"))?;
                    self.pos += 4;
                    c
                }
                _ => return Err(self.err("bad escape")),
            };
            self.pos += 2;
            s.push(decoded);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Json, JsonError> {
        Json::parse(text.as_bytes())
    }

    #[test]
    fn the_writers_lay_out_numbers_strings_and_containers() {
        let v = Json::obj([
            ("a", Json::Arr(vec![1u64.into(), Json::obj([("b", "x\"\n\r\t\u{7}".into())])])),
            ("f", Json::Arr(vec![3.0.into(), (0.1 + 0.2).into(), f64::NAN.into()])),
            ("e", Json::Arr(vec![])),
            ("o", Json::Obj(vec![])),
        ]);
        let pretty = "{\n  \"a\": [\n    1,\n    {\n      \"b\": \"x\\\"\\n\\r\\t\\u0007\"\n    }\n  \
                      ],\n  \"f\": [\n    3.0,\n    0.30000000000000004,\n    null\n  ],\n  \
                      \"e\": [],\n  \"o\": {}\n}";
        assert_eq!(v.to_pretty(), pretty);
        let compact = concat!(
            r#"{"a":[1,{"b":"x\"\n\r\t\u0007"}],"#,
            r#""f":[3.0,0.30000000000000004,null],"e":[],"o":{}}"#
        );
        assert_eq!(v.to_compact(), compact);
        assert_eq!(parse(pretty), Ok(v.clone()));
        assert_eq!(parse(compact), Ok(v));
        // Number text survives a round trip whatever its form.
        let text = "[1e5,-0.5,0,12345678901234567890123,1.0E-7]";
        assert_eq!(parse(text).unwrap().to_compact(), text);
    }

    #[test]
    fn errors_name_the_offset() {
        let cases = [
            ("", 0, "unexpected end of input"),
            ("[1,]", 3, "unexpected character"),
            ("{\"a\" 1}", 5, "expected `:`"),
            ("{1:2}", 1, "expected a string key"),
            ("01", 1, "trailing characters"),
            ("-", 1, "expected a digit"),
            ("1.", 2, "expected a digit after `.`"),
            ("\"a\nb\"", 2, "control character in string"),
            ("\"\\ud800\"", 1, "surrogate `\\u` escape"),
            ("\"\\u12\"", 1, "expected four hex digits after `\\u`"),
            ("\"\\q\"", 1, "bad escape"),
            ("nul", 0, "unexpected character"),
        ];
        for (text, offset, reason) in cases {
            assert_eq!(parse(text), Err(JsonError { offset, reason }), "{text:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 1);
        let too_deep = JsonError { offset: MAX_DEPTH, reason: "nesting too deep" };
        assert_eq!(parse(&deep), Err(too_deep));
        assert!(parse(&format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH))).is_ok());
    }

    #[test]
    fn accessors_read_the_tree() {
        let v = parse(r#"{"n": 7, "m": -12, "f": 2.5e3, "s": "x", "a": [true]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::num::<u64>), Some(7));
        assert_eq!(v.get("m").and_then(Json::num::<i64>), Some(-12));
        assert_eq!(v.get("m").and_then(Json::num::<u64>), None);
        assert_eq!(v.get("f").and_then(Json::num::<f64>), Some(2500.0));
        assert_eq!(v.get("f").and_then(Json::num::<u64>), None);
        assert_eq!(v.get("s").and_then(Json::num::<u64>), None);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("a").and_then(Json::as_arr), Some(&[Json::Bool(true)][..]));
        assert_eq!(v.get("missing"), None);
    }
}

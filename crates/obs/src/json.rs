//! A minimal JSON value, parser and writer.
//!
//! Output matches the conventional pretty-printing (two-space indent) and
//! compact forms, so files written by earlier versions of the repo parse
//! back byte-identically. Objects preserve insertion order.

use std::fmt;
use std::ops::Index;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (kept exact; JSON has no integer/float distinction).
    Int(i128),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

/// A parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

static NULL: Value = Value::Null;

impl Value {
    /// Object member by key (`Null` when absent or not an object).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    #[must_use]
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric payload as `f64` (integers convert).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Is this a string?
    #[must_use]
    pub fn is_string(&self) -> bool {
        matches!(self, Value::Str(_))
    }

    /// Is this `null`?
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Compact serialization (no whitespace).
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization (two-space indent).
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => write_int(out, *n),
            Value::Float(x) => out.push_str(&format_f64(*x)),
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

impl Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;

    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(step) = indent {
        out.push('\n');
        for _ in 0..depth * step {
            out.push(' ');
        }
    }
}

/// Formats a float the way conventional JSON writers do: integral finite
/// values keep a trailing `.0`, non-finite values degrade to `null` (JSON
/// has no NaN/Inf).
fn format_f64(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

/// The widest integer [`format_int`] writes: `i128::MIN`'s 40 bytes.
pub(crate) const INT_MAX_LEN: usize = "-170141183460469231731687303715884105728".len();

/// Writes `n` in decimal, as [`Value::Int`] renders it, to the front of
/// `out`; returns the byte count (at most [`INT_MAX_LEN`]).
pub(crate) fn format_int(out: &mut [u8], n: i128) -> usize {
    let sign = usize::from(n < 0);
    // A digit overwrites the sign when `n` is not negative.
    out[0] = b'-';
    let mut m = n.unsigned_abs();
    let len = sign
        + match u64::try_from(m) {
            Ok(m) => m.checked_ilog10(),
            Err(_) => m.checked_ilog10(),
        }
        .map_or(1, |d| d as usize + 1);
    let mut i = len;
    // Digits past `u64` take `u128` steps; the rest divide natively.
    while m > u128::from(u64::MAX) {
        i -= 1;
        out[i] = b'0' + (m % 10) as u8;
        m /= 10;
    }
    let mut m = m as u64;
    loop {
        i -= 1;
        out[i] = b'0' + (m % 10) as u8;
        m /= 10;
        if m == 0 {
            break;
        }
    }
    len
}

/// Appends `n` in decimal, as [`Value::Int`] renders it.
pub(crate) fn write_int(out: &mut String, n: i128) {
    let mut buf = [0u8; INT_MAX_LEN];
    let len = format_int(&mut buf, n);
    out.push_str(std::str::from_utf8(&buf[..len]).expect("ascii digits"));
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let v = p.value()?;
    p.finish()?;
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser { text, bytes: text.as_bytes(), pos: 0 }
    }

    /// Trailing whitespace is fine, anything else is not.
    fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError { at: self.pos, msg: msg.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Moves past a run of string bytes that are neither `"` nor `\\`.
    fn skip_plain(&mut self) {
        let rest = &self.bytes[self.pos..];
        self.pos += rest.iter().position(|&c| c == b'"' || c == b'\\').unwrap_or(rest.len());
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: runs of plain bytes. Both ends sit next to an
            // ASCII quote or backslash (or the end): char boundaries.
            self.skip_plain();
            s.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                // Surrogate pair.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(ch.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let c = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char).to_digit(16).ok_or_else(|| self.err("bad hex digit"))?;
            cp = cp * 16 + d;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if text.is_empty() || text == "-" {
            return Err(self.err("malformed number"));
        }
        if float {
            text.parse::<f64>().map(Value::Float).map_err(|_| self.err("malformed number"))
        } else {
            text.parse::<i128>().map(Value::Int).map_err(|_| self.err("integer overflow"))
        }
    }
}

/// Shorthand for building an object value.
#[must_use]
pub fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Object(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<i128> for Value {
    fn from(n: i128) -> Value {
        Value::Int(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Int(n as i128)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::Int(n as i128)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Int(n as i128)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Int(n as i128)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Float(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_pretty() {
        let v = obj(vec![
            ("nodes", Value::Array(vec![obj(vec![("id", 0u32.into()), ("w", "9".into())])])),
            ("empty", Value::Array(vec![])),
        ]);
        let s = v.to_string_pretty();
        assert_eq!(
            s,
            "{\n  \"nodes\": [\n    {\n      \"id\": 0,\n      \"w\": \"9\"\n    }\n  ],\n  \"empty\": []\n}"
        );
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn roundtrip_compact() {
        let v = Value::Array(vec![
            Value::Null,
            true.into(),
            Value::Int(-42),
            Value::Float(2.0),
            Value::Float(0.5),
            "a\"b\\c\nd".into(),
        ]);
        let s = v.to_string_compact();
        assert_eq!(s, "[null,true,-42,2.0,0.5,\"a\\\"b\\\\c\\nd\"]");
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn parses_numbers() {
        assert_eq!(parse("7").unwrap(), Value::Int(7));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("1.5e2").unwrap(), Value::Float(150.0));
        assert!(parse("-").is_err());
        assert!(parse("01x").is_err());
    }

    #[test]
    fn parses_escapes_and_unicode() {
        assert_eq!(parse(r#""é\tA""#).unwrap(), Value::Str("é\tA".to_string()));
        assert_eq!(parse(r#""😀""#).unwrap(), Value::Str("😀".to_string()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("not json").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("1 trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn index_access_mirrors_lookup() {
        let v = parse(r#"{"figure5": {"throughput": "10/9"}, "xs": [1, 2]}"#).unwrap();
        assert!(v["figure5"]["throughput"].is_string());
        assert_eq!(v["xs"][1].as_i128(), Some(2));
        assert!(v["missing"]["also missing"].is_null());
    }

    #[test]
    fn writes_every_i128() {
        let past_u64 = i128::from(u64::MAX) + 1;
        for n in [
            0,
            7,
            -7,
            10,
            9_999_999_999_999_999_999,
            10_000_000_000_000_000_000,
            i128::from(u64::MAX),
            -i128::from(u64::MAX),
            past_u64,
            -past_u64,
            i128::MAX,
            i128::MIN,
        ] {
            let mut out = String::new();
            write_int(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }

    #[test]
    fn preserves_member_order() {
        let s = r#"{"z": 1, "a": 2, "m": 3}"#;
        let Value::Object(members) = parse(s).unwrap() else { panic!("object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }
}

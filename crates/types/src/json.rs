//! Minimal JSON document model, writer and parser.
//!
//! The bench binaries emit machine-readable run telemetry (`--json`), the
//! simulators serialize their run reports, and `bench_report`/`dresar_diff`
//! read committed telemetry documents back, so the workspace needs a JSON
//! layer that works in a hermetic, offline build. This module provides one:
//! a [`JsonValue`] tree, a deterministic compact writer (object keys keep
//! insertion order, integers print without a fractional part), a
//! recursive-descent parser, and the [`ToJson`]/[`FromJson`] conversion
//! traits. Stats and report types serialize through [`ToJson`]; only the
//! metrics registry also decodes through [`FromJson`] — run reports are
//! written, never read back.
//!
//! Determinism matters here: two identical simulator runs must serialize to
//! byte-identical output, so objects are ordered vectors (never hash maps)
//! and float formatting is the shortest round-trip form Rust's `{}` gives.

use std::collections::BTreeMap;
use std::fmt;

/// Version stamp carried by every machine-readable JSON document the
/// workspace emits (`--json` modes of the bench binaries, `BENCH_*.json`).
/// Bump it whenever the shape of any emitted document changes so downstream
/// tooling can detect incompatible formats instead of mis-parsing them.
///
/// History: 1 = PR 1 (probe/ablations/fig* documents, unversioned);
/// 2 = PR 2 (adds `schema_version`, component metrics, percentiles, BENCH
/// telemetry).
pub const SCHEMA_VERSION: u32 = 2;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number. Integers up to 2^53 round-trip exactly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order is preserved when writing.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience constructor for object nodes.
    pub fn obj() -> ObjBuilder {
        ObjBuilder(Vec::new())
    }

    /// Looks a key up in an object node.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The node as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The node as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The node as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The node as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The node as an array slice.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace). Deterministic: equal trees
    /// produce equal bytes.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_num(*n, out),
            JsonValue::Str(s) => write_str(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at("trailing characters", p.pos));
        }
        Ok(v)
    }
}

fn write_num(n: f64, out: &mut String) {
    use fmt::Write;
    if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        // JSON has no NaN/Infinity; null is the conventional stand-in.
        out.push_str("null");
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Builder for object nodes with a fluent field API.
#[derive(Debug)]
pub struct ObjBuilder(Vec<(String, JsonValue)>);

impl ObjBuilder {
    /// Adds a field.
    pub fn field(mut self, key: &str, value: impl ToJson) -> Self {
        self.0.push((key.to_string(), value.to_json()));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> JsonValue {
        JsonValue::Obj(self.0)
    }
}

/// Conversion into a [`JsonValue`].
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> JsonValue;
}

/// Conversion from a [`JsonValue`].
pub trait FromJson: Sized {
    /// Reconstructs the value; fails on shape mismatches.
    fn from_json(v: &JsonValue) -> Result<Self, JsonError>;
}

impl ToJson for JsonValue {
    fn to_json(&self) -> JsonValue {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Num(*self)
    }
}

impl ToJson for &str {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

macro_rules! impl_tojson_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> JsonValue {
                JsonValue::Num(*self as f64)
            }
        }
    )*};
}

impl_tojson_int!(u8, u16, u32, u64, usize, i32, i64);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> JsonValue {
        match self {
            Some(v) => v.to_json(),
            None => JsonValue::Null,
        }
    }
}

impl<V: ToJson> ToJson for BTreeMap<u64, V> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(self.iter().map(|(k, v)| (k.to_string(), v.to_json())).collect())
    }
}

/// Error from parsing or [`FromJson`] reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset in the input, when parsing.
    pub pos: Option<usize>,
}

impl JsonError {
    /// A shape/reconstruction error with no input position.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into(), pos: None }
    }

    fn at(msg: impl Into<String>, pos: usize) -> Self {
        JsonError { msg: msg.into(), pos: Some(pos) }
    }

    /// Helper: fetch a required numeric field from an object node.
    pub fn want_u64(v: &JsonValue, key: &str) -> Result<u64, JsonError> {
        v.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| JsonError::new(format!("missing or non-integer field `{key}`")))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(p) => write!(f, "{} at byte {}", self.msg, p),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(format!("expected `{}`", b as char), self.pos))
        }
    }

    fn eat_word(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError::at(format!("expected `{word}`"), self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_word("null", JsonValue::Null),
            Some(b't') => self.eat_word("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_word("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(JsonError::at("expected a JSON value", self.pos)),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(JsonError::at("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(JsonError::at("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::at("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| JsonError::at("bad \\u escape", self.pos))?;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::at("bad escape", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str, so it
                    // is valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(JsonValue::Num).map_err(|_| JsonError::at("bad number", start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = JsonValue::parse(text).unwrap();
            assert_eq!(v.dump(), text);
        }
    }

    #[test]
    fn roundtrip_nested() {
        let v = JsonValue::obj()
            .field("name", "fft")
            .field("cycles", 1234u64)
            .field("ratio", 0.25)
            .field("tags", vec!["a".to_string(), "b\"c".to_string()])
            .build();
        let text = v.dump();
        let back = JsonValue::parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.dump(), text);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(JsonValue::Num(42.0).dump(), "42");
        assert_eq!(JsonValue::Num(0.5).dump(), "0.5");
    }

    #[test]
    fn object_lookup_helpers() {
        let v = JsonValue::parse("{\"a\":1,\"b\":\"x\",\"c\":[1,2]}").unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(v.get("b").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(JsonValue::as_arr).unwrap().len(), 2);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("12 34").is_err());
        assert!(JsonValue::parse("\"open").is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = JsonValue::parse(" { \"k\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_arr).unwrap().len(), 2);
    }
}

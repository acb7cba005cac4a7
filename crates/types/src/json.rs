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
//!
//! A value too large to build as a tree first (a traced run's event log)
//! joins it as a [`JsonValue::Deferred`] node, which writes its own bytes
//! straight into the output when the tree is dumped. [`escape`] gives the
//! escaped twin of a string at compile time, for such writers' fixed
//! fragments.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

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
    /// A value that writes its own bytes when the tree is dumped. Two
    /// deferred nodes are equal when they write equal bytes; [`parse`]
    /// never produces one.
    ///
    /// [`parse`]: JsonValue::parse
    Deferred(Arc<dyn WriteJson>),
}

/// A value that writes itself as JSON text, for a [`JsonValue::Deferred`]
/// node.
pub trait WriteJson: fmt::Debug + Send + Sync {
    /// Appends exactly one complete JSON value to `out`.
    fn write_json(&self, out: &mut String);
}

impl PartialEq for dyn WriteJson {
    fn eq(&self, other: &Self) -> bool {
        let (mut a, mut b) = (String::new(), String::new());
        self.write_json(&mut a);
        other.write_json(&mut b);
        a == b
    }
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
            JsonValue::Deferred(w) => w.write_json(out),
        }
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
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

/// What [`write_str`] and [`escape`] write for each byte: 0 for the byte
/// itself, else the letter after the backslash, with `u` for `\u00XX`.
/// Only the quote, the backslash and the controls below 0x20 escape; every
/// byte of a multi-byte UTF-8 char is 0x80 or above, so a run between
/// escapes always ends on a char boundary.
const ESCAPES: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = b'u';
        b += 1;
    }
    table[b'\n' as usize] = b'n';
    table[b'\r' as usize] = b'r';
    table[b'\t' as usize] = b't';
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table
};

const HEX: &[u8; 16] = b"0123456789abcdef";

/// The length of `s` once escaped as a [`JsonValue::Str`] is dumped,
/// without the quotes: the `N` to call [`escape`] with.
pub const fn escaped_len(s: &str) -> usize {
    let bytes = s.as_bytes();
    let (mut len, mut i) = (0, 0);
    while i < bytes.len() {
        len += match ESCAPES[bytes[i] as usize] {
            0 => 1,
            b'u' => 6,
            _ => 2,
        };
        i += 1;
    }
    len
}

/// `s` escaped as a [`JsonValue::Str`] is dumped, without the quotes, for
/// use in a constant: `escape::<{ escaped_len(S) }>(S)`. Panics (at
/// compile time, in a constant) when `N` is not [`escaped_len`]`(s)`.
pub const fn escape<const N: usize>(s: &str) -> [u8; N] {
    let bytes = s.as_bytes();
    let mut out = [0u8; N];
    let (mut i, mut o) = (0, 0);
    while i < bytes.len() {
        let b = bytes[i];
        match ESCAPES[b as usize] {
            0 => {
                out[o] = b;
                o += 1;
            }
            b'u' => {
                let hex =
                    [b'\\', b'u', b'0', b'0', HEX[(b >> 4) as usize], HEX[(b & 0xf) as usize]];
                let mut k = 0;
                while k < hex.len() {
                    out[o + k] = hex[k];
                    k += 1;
                }
                o += hex.len();
            }
            letter => {
                out[o] = b'\\';
                out[o + 1] = letter;
                o += 2;
            }
        }
        i += 1;
    }
    assert!(o == N, "escape::<N> wants N == escaped_len(s)");
    out
}

/// Writes `s` as a quoted JSON string, copying each run of bytes that
/// needs no escape in one piece.
fn write_str(s: &str, out: &mut String) {
    let bytes = s.as_bytes();
    // SAFETY: only ASCII bytes and whole runs of `s` cut at ASCII bytes,
    // hence at char boundaries, are appended, so `out` stays UTF-8.
    let out = unsafe { out.as_mut_vec() };
    out.reserve(bytes.len() + 2);
    out.push(b'"');
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape = ESCAPES[usize::from(b)];
        if escape == 0 {
            continue;
        }
        out.extend_from_slice(&bytes[run..i]);
        if escape == b'u' {
            let (hi, lo) = (HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]);
            out.extend_from_slice(&[b'\\', b'u', b'0', b'0', hi, lo]);
        } else {
            out.extend_from_slice(&[b'\\', escape]);
        }
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// Builder for object nodes with a fluent field API.
#[derive(Debug)]
pub struct ObjBuilder(Vec<(String, JsonValue)>);

impl ObjBuilder {
    /// Adds a field, moving an owned `value` into the tree.
    pub fn field(mut self, key: &str, value: impl ToJson) -> Self {
        self.0.push((key.to_string(), value.into_json()));
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

    /// Builds the JSON representation from an owned value, moving what it
    /// can instead of copying it: a [`JsonValue`] subtree, a `String`, and
    /// the items of a `Vec`.
    fn into_json(self) -> JsonValue
    where
        Self: Sized,
    {
        self.to_json()
    }
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

    fn into_json(self) -> JsonValue {
        self
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

    fn into_json(self) -> JsonValue {
        JsonValue::Str(self)
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

    fn into_json(self) -> JsonValue {
        JsonValue::Arr(self.into_iter().map(ToJson::into_json).collect())
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

/// The deepest array/object nesting [`JsonValue::parse`] accepts. The
/// parser recurses once per level, so an unbounded depth would let a small
/// document overflow the stack; the workspace writes at most 7 levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
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
            Some(b'[') | Some(b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(JsonError::at(
                        format!("nesting deeper than {MAX_DEPTH} levels"),
                        self.pos,
                    ));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'[') { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
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
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
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
                Some(b) if b < 0x20 => {
                    return Err(JsonError::at("control character in string", self.pos))
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

    /// Skips a run of ASCII digits; returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, as RFC 8259
    /// writes it: no leading zeros, and digits on both sides of a `.`.
    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        let bad = || JsonError::at("bad number", start);
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.bytes[int_start] == b'0') {
            return Err(bad());
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(JsonValue::Num).map_err(|_| bad())
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
        // A sign inside a \u escape, leading zeros, a bare `.`, an empty
        // exponent and raw control characters inside a string.
        for text in
            ["\"\\u+041\"", "01", "-01", "1.", "-", "1e", "1e+", "\"a\nb\"", "\"\t\"", "\"\u{1}\""]
        {
            assert!(JsonValue::parse(text).is_err(), "accepted {text:?}");
        }
        for text in ["0", "-0", "10", "0.5", "1e5", "1E-2", "\"\\u0041\""] {
            assert!(JsonValue::parse(text).is_ok(), "rejected {text:?}");
        }
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.msg.contains("nesting"), "{err}");
        // Deep enough to overflow a thread's stack without the bound.
        assert!(JsonValue::parse(&nested(10_000)).is_err());
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(JsonValue::parse(&objects).is_err());
    }

    /// The per-`char` escaper `write_str` replaced, kept as the reference
    /// its output must equal byte for byte.
    fn write_str_per_char(s: &str, out: &mut String) {
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

    fn assert_escapes_like_reference(s: &str) {
        let (mut new, mut reference) = (String::new(), String::new());
        write_str(s, &mut new);
        write_str_per_char(s, &mut reference);
        assert_eq!(new, reference, "escaping {s:?}");
        let back = JsonValue::parse(&new).expect("escaped string parses");
        assert_eq!(back.as_str(), Some(s), "round trip of {s:?}");
    }

    #[test]
    fn escaper_matches_the_per_char_reference() {
        assert_escapes_like_reference("");
        for c in '\u{0}'..='\u{7f}' {
            assert_escapes_like_reference(&c.to_string());
            assert_escapes_like_reference(&format!("a{c}b{c}{c}"));
        }
        // 2-, 3- and 4-byte chars, alone and on either side of an escape,
        // so a copied run starts or ends next to a multi-byte char.
        for wide in ["é", "ß", "€", "中", "😀", "𝄞"] {
            assert_escapes_like_reference(wide);
            for esc in ["\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}"] {
                assert_escapes_like_reference(&format!("{wide}{esc}"));
                assert_escapes_like_reference(&format!("{esc}{wide}"));
                assert_escapes_like_reference(&format!("{esc}{wide}{esc}{wide}{wide}{esc}"));
            }
        }
        // A seeded 1 MB mix of plain ASCII, escapes and wide chars.
        let alphabet: Vec<char> = "ab{}:,0 \"\\\n\r\t\u{0}\u{8}\u{1b}\u{7f}é€😀".chars().collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut mixed = String::new();
        while mixed.len() < 1 << 20 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            mixed.push(alphabet[(x % alphabet.len() as u64) as usize]);
        }
        assert_escapes_like_reference(&mixed);
    }

    #[test]
    fn const_escape_matches_write_str() {
        const S: &str = "a\"b\\c\nd\re\tf\u{0}\u{1f}\u{7f} é€😀 {\"k\":1}";
        const ESCAPED: [u8; escaped_len(S)] = escape::<{ escaped_len(S) }>(S);
        let mut quoted = String::new();
        write_str(S, &mut quoted);
        assert_eq!(ESCAPED.as_slice(), &quoted.as_bytes()[1..quoted.len() - 1]);
        assert_eq!(escaped_len("plain_label"), "plain_label".len());
    }

    /// A deferred value that writes fixed text.
    #[derive(Debug)]
    struct Fixed(&'static str);

    impl WriteJson for Fixed {
        fn write_json(&self, out: &mut String) {
            out.push_str(self.0);
        }
    }

    fn deferred(text: &'static str) -> JsonValue {
        JsonValue::Deferred(Arc::new(Fixed(text)))
    }

    #[test]
    fn deferred_node_writes_in_place() {
        let v = JsonValue::obj()
            .field("a", 1u64)
            .field("d", deferred("\"x\\ny\""))
            .field("arr", JsonValue::Arr(vec![deferred("[1,2]"), JsonValue::Null, deferred("{}")]))
            .field("z", "end")
            .build();
        let text = v.dump();
        assert_eq!(text, r#"{"a":1,"d":"x\ny","arr":[[1,2],null,{}],"z":"end"}"#);
        let back = JsonValue::parse(&text).expect("dump of a deferred node parses");
        assert_eq!(back.get("d").and_then(JsonValue::as_str), Some("x\ny"));
        assert_eq!(back.get("arr").and_then(JsonValue::as_arr).map(<[_]>::len), Some(3));
        assert_eq!(back.dump(), text, "the parsed tree writes the same bytes");
    }

    #[test]
    fn deferred_nodes_compare_by_written_bytes() {
        #[derive(Debug)]
        struct Pieces;
        impl WriteJson for Pieces {
            fn write_json(&self, out: &mut String) {
                out.push('"');
                out.push_str("ab");
                out.push('"');
            }
        }
        let pieces = JsonValue::Deferred(Arc::new(Pieces));
        assert_eq!(deferred("\"ab\""), pieces, "different writers, same bytes");
        assert_ne!(deferred("\"ab\""), deferred("\"abc\""));
        assert_eq!(pieces.clone(), pieces, "a clone shares the writer");
        assert_ne!(pieces, JsonValue::Str("ab".into()), "a deferred node is not a parsed one");
    }

    #[test]
    fn field_moves_an_owned_string_without_copying_it() {
        let s = "x".repeat(1000);
        let ptr = s.as_ptr();
        let v = JsonValue::obj().field("k", JsonValue::Str(s)).build();
        let moved = v.get("k").and_then(JsonValue::as_str).expect("field kept");
        assert_eq!(moved.as_ptr(), ptr, "the string's heap buffer moved, not a copy");
        let nested = JsonValue::obj().field("outer", v).build();
        let inner = nested.get("outer").and_then(|o| o.get("k")).and_then(JsonValue::as_str);
        assert_eq!(inner.map(str::as_ptr), Some(ptr), "nesting moves the subtree too");
    }

    #[test]
    fn whitespace_tolerated() {
        let v = JsonValue::parse(" { \"k\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_arr).unwrap().len(), 2);
    }
}

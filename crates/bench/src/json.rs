//! A minimal JSON document builder **and parser** for the
//! machine-readable bench reports (`BENCH_figures.json`) and the
//! `asd-serve` wire protocol.
//!
//! The workspace has no external dependencies, so this is the smallest
//! emitter that produces valid RFC 8259 output: objects keep insertion
//! order (reports stay diffable run-to-run), strings are escaped, and
//! non-finite floats serialize as `null` rather than producing an
//! invalid document. [`parse`] is the matching recursive-descent reader:
//! it accepts exactly the documents [`Value::render`] emits (plus
//! insignificant whitespace), returns a typed [`JsonError`] on malformed
//! input instead of panicking, and bounds nesting depth so hostile
//! network input cannot blow the stack.

use std::fmt::Write as _;

/// 2^53, the first integer an `f64` cannot tell from its neighbour;
/// [`Value::as_u64`] accepts only numbers below it.
const EXACT_LIMIT: f64 = 9_007_199_254_740_992.0;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (serialized as `null` when not finite).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion-ordered, not deduplicated.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object, to be filled with [`Value::set`].
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// Object field lookup (first occurrence); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The numeric payload, if this is a [`Value::Num`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer: `None` unless
    /// this is a non-negative [`Value::Num`] with no fractional part below
    /// 2^53. From 2^53 up, neighbouring integers parse to the same `f64`
    /// (2^53 + 1 reads as 2^53), so no value there names one integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < EXACT_LIMIT => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is a [`Value::Arr`].
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: `get(key)` then [`Value::as_str`].
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Value::as_str)
    }

    /// Convenience: `get(key)` then [`Value::as_u64`].
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Value::as_u64)
    }

    /// Add a field to an object (no-op on non-objects).
    pub fn set(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        if let Value::Obj(fields) = self {
            fields.push((key.to_string(), value.into()));
        }
        self
    }

    /// Serialize to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) if n.is_finite() => {
                // `{}` on f64 always includes enough digits to round-trip.
                let _ = write!(out, "{n}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Num(n as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
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

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Arr(items)
    }
}

/// Why a document failed to parse: the byte offset and a short message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub at: usize,
    /// What was wrong there.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest object/array nesting [`parse`] accepts. Protocol messages
/// nest a handful of levels; 128 leaves a wide margin while keeping the
/// recursive parser safe on untrusted network input.
pub const MAX_PARSE_DEPTH: usize = 128;

/// Parse one JSON document. The entire input must be consumed (trailing
/// whitespace allowed); duplicate object keys are kept in order, exactly
/// as [`Value::set`] would have produced them.
///
/// # Errors
///
/// [`JsonError`] with the byte offset of the first malformed construct.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(input, bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing data after document"));
    }
    Ok(v)
}

fn err(at: usize, message: &str) -> JsonError {
    JsonError { at, message: message.to_string() }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, "unexpected character"))
    }
}

fn parse_value(
    input: &str,
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
) -> Result<Value, JsonError> {
    if depth > MAX_PARSE_DEPTH {
        return Err(err(*pos, "nesting too deep"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => Ok(Value::Str(parse_string(input, bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(input, bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected `,` or `]` in array")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(input, bytes, pos)?;
                skip_ws(bytes, pos);
                expect_byte(bytes, pos, b':').map_err(|e| err(e.at, "expected `:` after key"))?;
                let value = parse_value(input, bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(err(*pos, "expected `,` or `}` in object")),
                }
            }
        }
        Some(b) if *b == b'-' || b.is_ascii_digit() => parse_number(input, bytes, pos),
        Some(_) => Err(err(*pos, "unexpected character")),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(err(*pos, "invalid literal"))
    }
}

fn parse_number(input: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while bytes.get(*pos).is_some_and(|b| b.is_ascii_digit()) {
        *pos += 1;
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        while bytes.get(*pos).is_some_and(|b| b.is_ascii_digit()) {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while bytes.get(*pos).is_some_and(|b| b.is_ascii_digit()) {
            *pos += 1;
        }
    }
    input[start..*pos].parse::<f64>().map(Value::Num).map_err(|_| err(start, "malformed number"))
}

fn parse_string(input: &str, bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect_byte(bytes, pos, b'"').map_err(|e| err(e.at, "expected string"))?;
    let mut out = String::new();
    loop {
        let start = *pos;
        // Fast path: run of plain bytes up to the next quote or escape.
        while let Some(&b) = bytes.get(*pos) {
            if b == b'"' || b == b'\\' || b < 0x20 {
                break;
            }
            *pos += 1;
        }
        // The slice boundaries land on ASCII delimiters, so this is
        // always a valid char boundary of the UTF-8 input.
        out.push_str(&input[start..*pos]);
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = parse_hex4(input, bytes, *pos + 1)?;
                        *pos += 4;
                        // Surrogate pairs: a high surrogate must be
                        // followed by an escaped low surrogate.
                        let c = if (0xD800..0xDC00).contains(&code) {
                            if bytes.get(*pos + 1) == Some(&b'\\')
                                && bytes.get(*pos + 2) == Some(&b'u')
                            {
                                let low = parse_hex4(input, bytes, *pos + 3)?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(err(*pos, "invalid low surrogate"));
                                }
                                *pos += 6;
                                let joined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(joined)
                            } else {
                                None
                            }
                        } else {
                            char::from_u32(code)
                        };
                        match c {
                            Some(c) => out.push(c),
                            None => return Err(err(*pos, "invalid \\u escape")),
                        }
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => return Err(err(*pos, "unescaped control character")),
        }
    }
}

fn parse_hex4(input: &str, bytes: &[u8], at: usize) -> Result<u32, JsonError> {
    if at + 4 > bytes.len() || !input.is_char_boundary(at) || !input.is_char_boundary(at + 4) {
        return Err(err(at, "truncated \\u escape"));
    }
    u32::from_str_radix(&input[at..at + 4], 16).map_err(|_| err(at, "invalid \\u escape"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_document() {
        let mut inner = Value::obj();
        inner.set("gain", 12.5).set("name", "milc");
        let mut doc = Value::obj();
        doc.set("schema", "asd-bench-figures/1");
        doc.set("rows", Value::Arr(vec![inner, Value::Null]));
        assert_eq!(
            doc.render(),
            r#"{"schema":"asd-bench-figures/1","rows":[{"gain":12.5,"name":"milc"},null]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let v = Value::Str("a\"b\\c\nd\u{1}".to_string());
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert_eq!(Value::Num(f64::INFINITY).render(), "null");
        assert_eq!(Value::Num(0.25).render(), "0.25");
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Value::from(42u64).render(), "42");
        assert_eq!(Value::from(7usize).render(), "7");
    }

    #[test]
    fn set_ignores_non_objects() {
        let mut v = Value::Null;
        v.set("k", 1.0);
        assert_eq!(v, Value::Null);
    }

    #[test]
    fn parse_roundtrips_rendered_documents() {
        let mut inner = Value::obj();
        inner.set("gain", 12.5).set("name", "milc").set("ok", true).set("none", Value::Null);
        let mut doc = Value::obj();
        doc.set("schema", "asd-serve/1");
        doc.set("rows", Value::Arr(vec![inner, Value::Num(-3.25), Value::Num(1e21)]));
        let text = doc.render();
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.render(), text);
        assert_eq!(parsed.get("schema").and_then(Value::as_str), Some("asd-serve/1"));
        let rows = parsed.get("rows").and_then(Value::as_arr).unwrap();
        assert_eq!(rows[0].get("gain").and_then(Value::as_f64), Some(12.5));
        assert_eq!(rows[0].get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(rows[1].as_f64(), Some(-3.25));
    }

    #[test]
    fn parse_handles_whitespace_and_escapes() {
        let v = parse(" { \"a\\n\\\"b\" : [ 1 , 2.5e2 , \"\\u0041\\ud83d\\ude00\" ] } ").unwrap();
        let arr = v.get("a\n\"b").and_then(Value::as_arr).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(250.0));
        assert_eq!(arr[2].as_str(), Some("A\u{1F600}"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "01x",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 lone\"",
            "{} trailing",
            "nan",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Depth bound: a pathological bracket run errors instead of
        // overflowing the stack.
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn as_u64_is_exact() {
        assert_eq!(Value::Num(42.0).as_u64(), Some(42));
        assert_eq!(Value::Num(EXACT_LIMIT - 1.0).as_u64(), Some((1 << 53) - 1));
        assert_eq!(Value::Num(EXACT_LIMIT).as_u64(), None);
        assert_eq!(parse("9007199254740993").unwrap().as_u64(), None, "2^53 + 1");
        assert_eq!(Value::Num(f64::INFINITY).as_u64(), None);
        assert_eq!(Value::Num(0.0).as_u64(), Some(0));
        assert_eq!(Value::Num(1.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Num(f64::NAN).as_u64(), None);
        assert_eq!(Value::Str("7".into()).as_u64(), None);
    }

    #[test]
    fn field_accessors() {
        let mut v = Value::obj();
        v.set("s", "x").set("n", 9u64);
        assert_eq!(v.str_field("s"), Some("x"));
        assert_eq!(v.u64_field("n"), Some(9));
        assert_eq!(v.str_field("missing"), None);
        assert_eq!(Value::Null.get("s"), None);
    }
}

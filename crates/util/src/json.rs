//! Minimal JSON emission and parsing.
//!
//! The telemetry stream and the `--json` CLI surface need JSON output,
//! but the workspace is deliberately dependency-free (see the crate
//! docs): this module is a hand-rolled *writer* for the small, flat
//! shapes we serialise, plus a small recursive-descent *parser*
//! ([`parse`]) that the row decoder ([`crate::rows`]) reads those shapes
//! back with. The writer makes two guarantees the telemetry determinism
//! contract relies on:
//!
//! - **Byte determinism**: the same value always renders to the same
//!   bytes (fields are written in call order; numbers use Rust's
//!   shortest round-trip `Display`).
//! - **Valid JSON**: strings are escaped per RFC 8259, and non-finite
//!   floats (which JSON cannot represent) are written as `null`.
//!
//! The parser preserves number tokens as raw text ([`JsonValue::Number`])
//! so 64-bit integers — configuration fingerprints, nanosecond durations —
//! round-trip exactly instead of being squeezed through `f64`.

use std::fmt::Write as _;

/// Escape `s` and append it, quoted, to `out`.
pub fn push_str_escaped(out: &mut String, s: &str) {
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

/// Render a JSON number (`null` for NaN/±∞, which JSON cannot encode).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Incremental writer for one JSON object. Fields appear in call order.
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl JsonObject {
    /// Start `{`.
    pub fn new() -> JsonObject {
        JsonObject {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        push_str_escaped(&mut self.buf, key);
        self.buf.push(':');
    }

    /// String field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        push_str_escaped(&mut self.buf, value);
        self
    }

    /// Float field (`null` for non-finite values).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        push_f64(&mut self.buf, value);
        self
    }

    /// Optional float field.
    pub fn opt_f64(mut self, key: &str, value: Option<f64>) -> Self {
        self.key(key);
        match value {
            Some(v) => push_f64(&mut self.buf, v),
            None => self.buf.push_str("null"),
        }
        self
    }

    /// Unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Array-of-strings field.
    pub fn str_array(mut self, key: &str, values: &[String]) -> Self {
        self.key(key);
        self.buf.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            push_str_escaped(&mut self.buf, v);
        }
        self.buf.push(']');
        self
    }

    /// Array-of-floats field.
    pub fn f64_array(mut self, key: &str, values: &[f64]) -> Self {
        self.key(key);
        self.buf.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            push_f64(&mut self.buf, *v);
        }
        self.buf.push(']');
        self
    }

    /// Array-of-unsigned-integers field (exact, unlike [`f64_array`]).
    ///
    /// [`f64_array`]: JsonObject::f64_array
    pub fn u64_array(mut self, key: &str, values: &[u64]) -> Self {
        self.key(key);
        self.buf.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            let _ = write!(self.buf, "{v}");
        }
        self.buf.push(']');
        self
    }

    /// Field whose value is already-rendered JSON (nested object/array).
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Close `}` and return the rendered object.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

/// Render a slice of pre-rendered JSON values as a JSON array.
pub fn array_of(values: &[String]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(v);
    }
    out.push(']');
    out
}

/// A parsed JSON value.
///
/// Numbers keep their raw source text so integer-valued fields (u64
/// fingerprints, nanosecond durations) can be re-parsed exactly via
/// [`JsonValue::as_u64`] without an intermediate lossy `f64`.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its raw token text.
    Number(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as key/value pairs in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object (`None` for other kinds or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as an exact `u64`, if this is a non-negative integer
    /// token (no exponent, no fraction).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Is this `null`?
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

/// Parse one JSON document. Trailing non-whitespace is an error (the
/// journal stores exactly one value per line).
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&token) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", token as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte '{}' at {pos}", *c as char)),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    // Validate the token by asking Rust's float parser; the raw text is
    // what we keep.
    raw.parse::<f64>()
        .map_err(|_| format!("invalid number '{raw}' at byte {start}"))?;
    Ok(JsonValue::Number(raw.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, pos)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: expect a \uXXXX low half.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err("unpaired surrogate".to_string());
                            }
                            *pos += 2;
                            let lo = parse_hex4(bytes, pos)?;
                            0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF)
                        } else {
                            hi
                        };
                        out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                    }
                    _ => return Err(format!("invalid escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash as one
                // slice. The input is a &str and both delimiters are
                // ASCII, so the run starts and ends on char boundaries and
                // each byte is validated once.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                let run = std::str::from_utf8(&bytes[*pos..end]).map_err(|e| e.to_string())?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    // `*pos` is on the 'u'; consume 4 hex digits, leaving `*pos` on the
    // last one (the caller advances past it).
    let start = *pos + 1;
    let end = start + 4;
    if end > bytes.len() {
        return Err("truncated \\u escape".to_string());
    }
    let hex = std::str::from_utf8(&bytes[start..end]).map_err(|e| e.to_string())?;
    let code = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".to_string())?;
    *pos = end - 1;
    Ok(code)
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_characters() {
        let mut s = String::new();
        push_str_escaped(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn object_renders_fields_in_call_order() {
        let j = JsonObject::new()
            .str("type", "X")
            .u64("n", 3)
            .f64("x", 1.5)
            .bool("ok", true)
            .raw("err", "null")
            .str_array("delta", &["-XX:+UseG1GC".to_string()])
            .f64_array("samples", &[0.25, 0.5])
            .finish();
        assert_eq!(
            j,
            r#"{"type":"X","n":3,"x":1.5,"ok":true,"err":null,"delta":["-XX:+UseG1GC"],"samples":[0.25,0.5]}"#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let j = JsonObject::new()
            .f64("inf", f64::INFINITY)
            .opt_f64("nan", Some(f64::NAN))
            .finish();
        assert_eq!(j, r#"{"inf":null,"nan":null}"#);
    }

    #[test]
    fn array_of_joins_rendered_values() {
        let vals = vec!["1".to_string(), r#"{"a":2}"#.to_string()];
        assert_eq!(array_of(&vals), r#"[1,{"a":2}]"#);
    }

    #[test]
    fn identical_values_render_identical_bytes() {
        let render = || JsonObject::new().f64("t", 0.1 + 0.2).finish();
        assert_eq!(render(), render());
    }

    #[test]
    fn parses_what_the_writer_emits() {
        let j = JsonObject::new()
            .str("type", "Trial")
            .u64("fp", u64::MAX)
            .raw("err", "null")
            .f64("p", 0.125)
            .bool("ok", true)
            .u64_array("samples", &[1, 2, 9_007_199_254_740_993])
            .finish();
        let v = parse(&j).unwrap();
        assert_eq!(v.get("type").and_then(JsonValue::as_str), Some("Trial"));
        assert_eq!(v.get("fp").and_then(JsonValue::as_u64), Some(u64::MAX));
        assert!(v.get("err").unwrap().is_null());
        assert_eq!(v.get("p").and_then(JsonValue::as_f64), Some(0.125));
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
        let samples: Vec<u64> = v
            .get("samples")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|s| s.as_u64().unwrap())
            .collect();
        // 2^53 + 1 survives: no f64 round-trip on integer tokens.
        assert_eq!(samples, vec![1, 2, 9_007_199_254_740_993]);
    }

    #[test]
    fn parses_escapes_and_nesting() {
        let v = parse(r#"{"a":"x\"\né😀","b":[{"c":null},-1.5e2]}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(JsonValue::as_str),
            Some("x\"\né\u{1F600}")
        );
        let b = v.get("b").and_then(JsonValue::as_array).unwrap();
        assert!(b[0].get("c").unwrap().is_null());
        assert_eq!(b[1].as_f64(), Some(-150.0));
    }

    #[test]
    fn multi_byte_runs_around_escapes_decode_exactly() {
        let v = parse(r#"["aé€😀\n\"xé", "é\\", "\u00e9€", "😀"]"#).unwrap();
        let strings: Vec<&str> = v
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap())
            .collect();
        assert_eq!(strings, ["aé€😀\n\"xé", "é\\", "é€", "😀"]);
        // Long strings parse whole, through the same runs.
        let long = "é€😀x".repeat(10_000);
        let v = parse(&format!("{{\"s\":\"{long}\\t{long}\"}}")).unwrap();
        assert_eq!(
            v.get("s").and_then(JsonValue::as_str),
            Some(&*format!("{long}\t{long}"))
        );
    }

    #[test]
    fn an_unterminated_string_ending_in_a_multi_byte_char_is_rejected() {
        for bad in ["\"aé", "\"x😀", "[\"€", "{\"k\":\"\\n😀"] {
            assert_eq!(
                parse(bad),
                Err("unterminated string".to_string()),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            r#"{"a":}"#,
            "[1,",
            "tru",
            r#""unterminated"#,
            "1 2",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn float_display_round_trips_exactly() {
        // The journal stores p-values via Display; shortest-repr floats
        // must re-parse to the identical bit pattern.
        for f in [0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300] {
            let v = parse(&format!("{f}")).unwrap();
            assert_eq!(v.as_f64(), Some(f));
        }
    }
}

//! Minimal JSON value model, writer, and recursive-descent parser.
//!
//! Every machine-readable artifact in this workspace is written by
//! hand, with no serialization framework. This module centralizes the
//! one piece that must be *read back* as well: trace JSONL lines and run
//! manifests. Integers and floats are kept distinct (`i128` vs `f64`)
//! so `u64` cycle stamps round-trip exactly.
//!
//! Parsing is linear in the input: a string literal is copied run by
//! run, each run reaching to the next `"` or `\`, so the time to read
//! a document is bounded by its length (which is how `piton-serve`'s
//! request-line cap bounds the CPU one request can cost). Arrays and
//! objects nest at most 128 deep, so the reader's recursion is bounded
//! too: deeper input is an error, not a stack overflow.

use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Any number without `.`, `e`, or `E` in its literal.
    Int(i128),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i128().and_then(|v| u64::try_from(v).ok())
    }

    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            #[allow(clippy::cast_precision_loss)]
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact single-line JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Float(v) => out.push_str(&render_f64(*v)),
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Renders an `f64` so it parses back as a float. JSON forbids bare
/// `NaN`/`inf` literals, so those render as self-describing strings.
#[must_use]
pub fn render_f64(v: f64) -> String {
    if v.is_nan() {
        // JSON has no NaN; pick a self-describing impossible literal.
        return "\"NaN\"".to_owned();
    }
    if v.is_infinite() {
        return if v > 0.0 {
            "\"inf\"".to_owned()
        } else {
            "\"-inf\"".to_owned()
        };
    }
    // `{}` is Rust's shortest round-trip form; force a `.0` onto
    // integral values so the reader keeps the int/float distinction.
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Appends `s` as a JSON string literal, escaped exactly as
/// [`Value::render`] escapes it.
pub fn write_escaped(out: &mut String, s: &str) {
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

/// How deep arrays and objects may nest in a parsed document.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document, rejecting trailing garbage.
///
/// # Errors
///
/// Returns a message naming the byte offset and what was expected.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("expected '{lit}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Value::Null),
            Some(b't') => self.eat_literal("true", Value::Bool(true)),
            Some(b'f') => self.eat_literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn nested(&mut self, read: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = read(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid \\u{hex} escape"))?,
                            );
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\`.
                    // Both are ASCII, so the run ends on a character
                    // boundary of the `&str` input.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.input[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let lit = &self.input[start..self.pos];
        if float {
            lit.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| format!("bad number '{lit}': {e}"))
        } else {
            lit.parse::<i128>()
                .map(Value::Int)
                .map_err(|e| format!("bad number '{lit}': {e}"))
        }
    }
}

/// Convenience: an object builder preserving field order.
#[derive(Default)]
pub struct ObjectBuilder {
    fields: Vec<(String, Value)>,
}

impl ObjectBuilder {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    #[must_use]
    pub fn field(mut self, key: &str, value: Value) -> Self {
        self.fields.push((key.to_owned(), value));
        self
    }

    #[must_use]
    pub fn build(self) -> Value {
        Value::Object(self.fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("-42").unwrap(), Value::Int(-42));
        assert_eq!(parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(parse("2e3").unwrap(), Value::Float(2000.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".to_owned()));
    }

    #[test]
    fn u64_round_trips_exactly() {
        let v = Value::Int(i128::from(u64::MAX));
        let back = parse(&v.render()).unwrap();
        assert_eq!(back.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn nested_round_trip() {
        let doc = "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\\\"y\",\"d\":-0.25}";
        let v = parse(doc).unwrap();
        assert_eq!(parse(&v.render()).unwrap(), v);
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn a_mebibyte_string_literal_parses_in_linear_time() {
        // Multibyte characters, every escape `write_escaped` emits, and
        // plain ASCII runs, repeated to fill 1 MiB of literal.
        let unit = "héllo wörld \u{1F980} \"q\" \\ \n\r\t \u{1} ascii-run ";
        let mut s = String::new();
        while s.len() < 1 << 20 {
            s.push_str(unit);
        }
        let literal = Value::Str(s.clone()).render();
        assert!(literal.len() > 1 << 20);
        let start = std::time::Instant::now();
        let back = parse(&literal).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(back.as_str(), Some(s.as_str()));
        assert_eq!(back.render(), literal);
        assert!(
            elapsed.as_secs_f64() < 1.0,
            "1 MiB literal took {elapsed:?}"
        );
    }

    #[test]
    fn nesting_is_capped_rather_than_overflowing_the_stack() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        assert!(parse(&"{\"a\":[".repeat(1 << 19)).is_err());
        assert!(parse(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn strings_keep_their_text_around_escapes_and_multibyte_runs() {
        assert_eq!(
            parse(r#""a\u00e9b\"é\\""#).unwrap(),
            Value::Str("aéb\"é\\".to_owned())
        );
        assert_eq!(parse(r#""""#).unwrap(), Value::Str(String::new()));
        assert!(parse(r#""é"#).is_err());
        assert!(parse(r#""é\"#).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Strings drawn from every UTF-8 width: control characters,
        /// ASCII (`"` and `\` included), then 2-, 3- and 4-byte scalars.
        fn any_string() -> impl Strategy<Value = String> {
            const BANDS: [(u32, u32); 5] = [
                (0, 0x20),
                (0x20, 0x80),
                (0x80, 0x800),
                (0x800, 0x1_0000),
                (0x1_0000, 0x11_0000),
            ];
            proptest::collection::vec((0..BANDS.len(), any::<u32>()), 0..64).prop_map(|draws| {
                draws
                    .into_iter()
                    .map(|(band, x)| {
                        let (lo, hi) = BANDS[band];
                        char::from_u32(lo + x % (hi - lo)).unwrap_or('\u{fffd}')
                    })
                    .collect()
            })
        }

        proptest! {
            /// Any string — non-ASCII and control characters included —
            /// reads back from its rendered literal unchanged.
            #[test]
            fn rendered_strings_parse_back_exactly(s in any_string()) {
                let literal = Value::Str(s.clone()).render();
                prop_assert_eq!(parse(&literal).unwrap(), Value::Str(s));
            }
        }
    }

    #[test]
    fn float_render_keeps_float_type() {
        let v = Value::Float(3.0);
        assert_eq!(v.render(), "3.0");
        assert_eq!(parse("3.0").unwrap(), v);
    }
}

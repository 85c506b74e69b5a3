//! Minimal JSON codec for the wire protocol.
//!
//! The offline dependency set has no real `serde` (see `compat/README.md`),
//! and the protocol only needs flat request/response objects plus nested
//! arrays for instance chunks — small enough to own. Objects preserve
//! insertion order so responses serialize deterministically.

use std::fmt;

/// A JSON value. Integers are kept separate from floats so counters
/// round-trip exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fractional part or exponent.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, linear lookup (objects here are tiny).
    Obj(Vec<(String, Json)>),
}

/// Parse failure with byte position.
#[derive(Debug)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting depth bound: protocol messages are nearly flat, so anything
/// deeper is hostile or broken input, not data.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer value (accepts integral floats).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(i) => Some(i),
            Json::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => Some(f as i64),
            _ => None,
        }
    }

    /// Non-negative integer value.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// Numeric value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Float(f) => Some(f),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document, requiring it to span the whole input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}

impl From<u64> for Json {
    fn from(u: u64) -> Json {
        i64::try_from(u).map_or(Json::Float(u as f64), Json::Int)
    }
}

impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::from(u as u64)
    }
}

impl From<u32> for Json {
    fn from(u: u32) -> Json {
        Json::Int(i64::from(u))
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Appends the document to `out`. The one serializer: [`fmt::Display`]
    /// and [`crate::wire::write_json`] both go through it, so a line
    /// reaches its socket as one rendered buffer instead of one fragment
    /// per token.
    pub(crate) fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => push_display(out, i),
            Json::Float(x) if x.is_finite() => push_display(out, x),
            Json::Float(_) => out.push_str("null"), // NaN/inf have no JSON form
            Json::Str(s) => psgl_obs::push_json_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    psgl_obs::push_json_string(out, k);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends a number in its `Display` form (writing to a `String` cannot fail).
pub(crate) fn push_display(out: &mut String, value: impl fmt::Display) {
    let _ = fmt::Write::write_fmt(out, format_args!("{value}"));
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_to(&mut out);
        f.write_str(&out)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { pos: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this is
                    // always a valid boundary walk).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("bad utf-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u`; if they form a high surrogate,
    /// also consumes the following `\uXXXX` low surrogate.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(cp).ok_or_else(|| self.err("bad surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("bad unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError { pos: start, message: format!("bad number {text:?}") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_protocol_shaped_documents() {
        let cases = [
            r#"{"verb":"count","graph":"g1","workers":4,"budget":1000}"#,
            r#"{"ok":true,"instances":[[0,1,2],[3,4,5]],"rate":0.5}"#,
            r#"[null,true,false,-7,1.5,"x"]"#,
            "{}",
            "[]",
        ];
        for text in cases {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text, "roundtrip of {text}");
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        }
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"a":1,"b":"x","c":[2],"d":true,"e":2.5}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e").unwrap().as_f64(), Some(2.5));
        assert!(v.get("missing").is_none());
        assert!(v.get("b").unwrap().as_u64().is_none());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = Json::Str("a\"b\\c\nd\te\u{1}π €".to_string());
        let parsed = Json::parse(&original.to_string()).unwrap();
        assert_eq!(parsed, original);
        // Escaped input forms.
        assert_eq!(Json::parse(r#""é€😀""#).unwrap(), Json::Str("é€😀".to_string()));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a"}"#,
            "tru",
            "01x",
            r#""unterminated"#,
            "[1] garbage",
            r#""\ud800""#,
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Deep nesting is bounded, not a stack overflow.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn numbers_keep_integer_identity() {
        assert_eq!(Json::parse("9007199254740993").unwrap(), Json::Int(9007199254740993));
        assert_eq!(Json::parse("-3").unwrap().as_i64(), Some(-3));
        assert_eq!(Json::parse("3.0").unwrap().as_u64(), Some(3));
        assert_eq!(Json::from(u64::MAX), Json::Float(u64::MAX as f64));
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
    }

    /// The bytes on the wire are a contract with raw-socket clients: each
    /// row is what the token-at-a-time `Display` of earlier releases
    /// printed for the value.
    #[test]
    fn serializer_output_is_pinned_byte_for_byte() {
        let nested = Json::obj([
            ("ok", Json::from(true)),
            ("rows", Json::Arr(vec![Json::Arr(vec![]), Json::from(vec![1u32, 2]), Json::Null])),
            ("inner", Json::obj([("k", Json::Obj(vec![]))])),
        ]);
        let escapes = Json::Obj(vec![(
            "q\"k\\".to_string(),
            Json::from("\" \\ \n \r \t \u{1} \u{1f} / π 😀"),
        )]);
        let table = [
            (nested, r#"{"ok":true,"rows":[[],[1,2],null],"inner":{"k":{}}}"#),
            (escapes, r#"{"q\"k\\":"\" \\ \n \r \t \u0001 \u001f / π 😀"}"#),
            (Json::Int(i64::MIN), "-9223372036854775808"),
            (Json::from(u64::MAX), "18446744073709552000"),
            (Json::Float(3.0), "3"),
            (Json::Float(-0.0), "-0"),
            (Json::Float(0.1), "0.1"),
            (Json::Float(95.893481), "95.893481"),
            (Json::Float(1e21), "1000000000000000000000"),
            (Json::Float(1.5e-7), "0.00000015"),
            (Json::Float(f64::NAN), "null"),
            (Json::Float(f64::INFINITY), "null"),
            (Json::Float(f64::NEG_INFINITY), "null"),
            (Json::Bool(false), "false"),
            (Json::Null, "null"),
        ];
        for (value, golden) in table {
            let mut out = String::new();
            value.write_to(&mut out);
            assert_eq!(out, golden);
            assert_eq!(value.to_string(), golden, "Display delegates to the same writer");
        }
    }
}

//! A JSON reader for the benchmark's own files.
//!
//! The vendored `serde_json` stand-in only writes; `compare`, the suite
//! (which merges its child runs' records) and the schema validator need to
//! read reports and `BENCHMARK.json` back.

use std::fmt;

use serde_json::{Map, Value};

/// Where and why a document failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// What was expected there.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Nesting deeper than this is refused, so a hostile file cannot overflow
/// the stack. Reports nest five levels.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// [`ParseError`] on malformed input, trailing garbage, or nesting beyond
/// 64 levels.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after the document"));
    }
    Ok(value)
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos).copied() {
            None => Err(self.error("unexpected end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.pos += 1; // '{'
        let mut map = Map::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.error("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(self.error("expected ':'"));
            }
            self.pos += 1;
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                if self.bytes[self.pos] < 0x20 {
                    return Err(self.error("control character in string"));
                }
                self.pos += 1;
            }
            // The input is a `&str` and the scan stops only at ASCII
            // bytes, so the slice ends on a character boundary.
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf-8 input"));
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1; // backslash
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.error("unknown escape")),
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit)) // from_str_radix takes a sign
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        Ok(digits)
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.eat("\\u") {
                return Err(self.error("lone surrogate"));
            }
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.error("invalid surrogate pair"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid code point"))
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Number(n)),
            _ => {
                self.pos = start;
                Err(self.error("malformed number"))
            }
        }
    }
}

/// `value[key]` of an object, or `None`.
pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(map) => map.get(key),
        _ => None,
    }
}

/// The number held by `value`, if it is one.
pub fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::Number(n) => Some(*n),
        _ => None,
    }
}

/// The string held by `value`, if it is one.
pub fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::String(s) => Some(s),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn round_trips_what_the_writer_emits() {
        let doc = json!({
            "schema": "x/1",
            "n": 3usize,
            "x": 0.1f64,
            "neg": -2.5e-3f64,
            "flag": true,
            "none": Value::Null,
            "text": "quote\" slash\\ tab\t newline\n é",
            "list": vec![1.0f64, 2.0, 3.5],
            "nested": json!({ "a": json!([]), "b": json!({}) }),
        });
        let pretty = serde_json::to_string_pretty(&doc).unwrap();
        assert_eq!(parse(&pretty).unwrap(), doc);
        let compact = serde_json::to_string(&doc).unwrap();
        assert_eq!(parse(&compact).unwrap(), doc);
    }

    #[test]
    fn floats_keep_all_their_digits() {
        let x = 1.203_456_789_012_345_6_f64;
        let text = serde_json::to_string(&Value::Number(x)).unwrap();
        assert_eq!(parse(&text).unwrap(), Value::Number(x));
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(
            parse(r#""\u00e9\ud83d\ude00\/""#).unwrap(),
            Value::String("é😀/".into())
        );
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\u+123""#).is_err());
    }

    #[test]
    fn garbage_is_rejected_with_an_offset_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\":}",
            "[1 2]",
            "tru",
            "1.2.3",
            "\"abc",
            "{} x",
            "\"\\q\"",
            "[1,]",
            "{,}",
            "nul",
            "-",
            "\"\u{1}\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = parse("[1, ?]").unwrap_err();
        assert_eq!(err.offset, 4);
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn accessors() {
        let doc = parse(r#"{"a": {"b": 2}, "s": "x"}"#).unwrap();
        assert_eq!(
            get(&doc, "a").and_then(|a| get(a, "b")).and_then(as_f64),
            Some(2.0)
        );
        assert_eq!(get(&doc, "s").and_then(as_str), Some("x"));
        assert_eq!(get(&doc, "missing"), None);
        assert_eq!(as_f64(&doc), None);
    }
}

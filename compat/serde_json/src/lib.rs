//! Offline drop-in subset of `serde_json`.
//!
//! Renders and parses the [`serde::Value`] tree as JSON text. Supports the
//! workspace's trace I/O surface: [`to_string`], [`to_writer`],
//! [`from_str`]. Integers round-trip exactly (`u64`/`i64` payloads are
//! never squeezed through `f64`).

#![deny(missing_docs)]

use serde::{DeError, Deserialize, Number, Serialize, Value};
use std::collections::BTreeMap;
use std::io;

/// Error from serializing or parsing JSON.
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
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

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(Number::U64(n)) => out.push_str(&n.to_string()),
        Value::Number(Number::I64(n)) => out.push_str(&n.to_string()),
        Value::Number(Number::F64(n)) => {
            if n.is_finite() {
                out.push_str(&format!("{n:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::String(s) => escape_into(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

/// Serialize `value` to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out);
    Ok(out)
}

/// Serialize `value` as JSON into `writer` (no trailing newline, matching
/// upstream `serde_json::to_writer`).
pub fn to_writer<W: io::Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<(), Error> {
    let s = to_string(value)?;
    writer
        .write_all(s.as_bytes())
        .map_err(|e| Error(e.to_string()))
}

/// Parse a JSON string into `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value_str(s)?;
    Ok(T::from_value(&value)?)
}

/// Parse a JSON string into a raw [`Value`] tree. Arrays and objects
/// nest at most 127 deep, as upstream `serde_json`'s recursion limit
/// allows: deeper input is an error, not a stack overflow.
pub fn parse_value_str(s: &str) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(Error(format!("trailing characters at offset {}", p.pos)));
    }
    Ok(v)
}

/// The nesting depth at which a container is refused, counted as
/// upstream `serde_json` counts its recursion limit.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at offset {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(Error(format!("unexpected input at offset {}", self.pos))),
        }
    }

    /// Parse one container with `parse`, one level deeper. The parser
    /// recurses per level, so the depth is capped before the stack is.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        self.depth += 1;
        if self.depth >= MAX_DEPTH {
            return Err(Error(format!(
                "recursion limit exceeded at offset {}",
                self.pos
            )));
        }
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(Error("unterminated string".into()));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error("unterminated escape".into()));
                    };
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
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| Error("bad \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for trace data;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(Error("unknown escape".into())),
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 sequences from the source.
                    let start = self.pos - 1;
                    let width = utf8_width(c);
                    let end = start + width;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .ok_or_else(|| Error("invalid utf-8 in string".into()))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        let num = if is_float {
            Number::F64(
                text.parse()
                    .map_err(|_| Error(format!("invalid number `{text}`")))?,
            )
        } else if text.starts_with('-') {
            Number::I64(
                text.parse()
                    .map_err(|_| Error(format!("invalid number `{text}`")))?,
            )
        } else {
            Number::U64(
                text.parse()
                    .map_err(|_| Error(format!("invalid number `{text}`")))?,
            )
        };
        Ok(Value::Number(num))
    }

    fn array(&mut self) -> Result<Value, Error> {
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
                _ => return Err(Error(format!("expected `,` or `]` at offset {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => {
                    return Err(Error(format!(
                        "expected `,` or `}}` at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        let big = u64::MAX;
        assert_eq!(from_str::<u64>(&to_string(&big).unwrap()).unwrap(), big);
        assert_eq!(from_str::<i64>("-7").unwrap(), -7);
        assert_eq!(from_str::<f64>("2.5").unwrap(), 2.5);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = "a \"quoted\"\\ line\nwith µnicode".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        assert_eq!(from_str::<String>(r#""A""#).unwrap(), "A");
    }

    #[test]
    fn nested_value_parses() {
        let v = parse_value_str(r#"{"a": [1, 2.5, null], "b": {"c": "d"}}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(|a| match a {
                Value::Array(items) => Some(items.len()),
                _ => None,
            }),
            Some(3)
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")),
            Some(&Value::String("d".into()))
        );
    }

    #[test]
    fn malformed_input_errors() {
        assert!(from_str::<u64>("{not json}").is_err());
        assert!(from_str::<u64>("12 34").is_err());
        assert!(parse_value_str("[1, 2").is_err());
    }

    #[test]
    fn nesting_is_capped_at_the_upstream_depth() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_value_str(&nest(MAX_DEPTH - 1)).is_ok());
        let err = parse_value_str(&nest(MAX_DEPTH)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        // Depth counts the containers around a value, not all of them.
        let wide = format!("[{}]", vec![nest(MAX_DEPTH - 2); 3].join(","));
        assert!(parse_value_str(&wide).is_ok());
        // A hostile line is an error, not a stack overflow.
        assert!(parse_value_str(&"[".repeat(200_000)).is_err());
        assert!(parse_value_str(&"{\"a\":".repeat(200_000)).is_err());
    }

    /// A `Value` drawn from `words`, nested at most `depth` deep: every
    /// variant, integers of both signs over their whole range, finite
    /// floats from raw bit patterns, and strings with quotes, escapes,
    /// control characters and multi-byte UTF-8.
    fn value_from(words: &mut impl Iterator<Item = u64>, depth: u32) -> Value {
        let w = words.next().unwrap_or(0);
        let kinds = if depth == 0 { 6 } else { 8 };
        let len = w / 8 % 4;
        match w % kinds {
            0 => Value::Null,
            1 => Value::Bool(w & 8 != 0),
            2 => Value::Number(Number::U64(words.next().unwrap_or(w))),
            3 => Value::Number(Number::I64(words.next().unwrap_or(w) as i64)),
            4 => {
                let f = f64::from_bits(words.next().unwrap_or(w));
                Value::Number(Number::F64(if f.is_finite() { f } else { w as f64 }))
            }
            5 => Value::String(string_from(words)),
            6 => Value::Array((0..len).map(|_| value_from(words, depth - 1)).collect()),
            _ => Value::Object(
                (0..len)
                    .map(|_| (string_from(words), value_from(words, depth - 1)))
                    .collect(),
            ),
        }
    }

    fn string_from(words: &mut impl Iterator<Item = u64>) -> String {
        const CHARS: [char; 12] = [
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', 'µ', '𝄞',
        ];
        let w = words.next().unwrap_or(0);
        (0..w % 8)
            .map(|i| CHARS[(w >> (4 + 4 * i)) as usize % CHARS.len()])
            .collect()
    }

    /// `v` as the parser reads it back: a non-negative `I64` renders as
    /// bare digits, which parse as `U64`.
    fn normalized(v: &Value) -> Value {
        match v {
            Value::Number(Number::I64(n)) if *n >= 0 => Value::Number(Number::U64(*n as u64)),
            Value::Array(items) => Value::Array(items.iter().map(normalized).collect()),
            Value::Object(map) => Value::Object(
                map.iter()
                    .map(|(k, v)| (k.clone(), normalized(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every `Value` survives `to_string` then `parse_value_str`, with
        /// non-negative integers reading back as `U64`.
        #[test]
        fn every_value_round_trips(words in prop::collection::vec(any::<u64>(), 1..64)) {
            let v = value_from(&mut words.into_iter(), 4);
            let text = to_string(&v).unwrap();
            prop_assert_eq!(parse_value_str(&text).unwrap(), normalized(&v));
        }
    }

    #[test]
    fn vec_round_trip() {
        let xs = vec![1u32, 2, 3];
        let json = to_string(&xs).unwrap();
        assert_eq!(json, "[1,2,3]");
        assert_eq!(from_str::<Vec<u32>>(&json).unwrap(), xs);
    }
}

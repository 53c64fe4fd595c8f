//! Offline shim for `serde_json`: [`to_string`] / [`from_str`] over the
//! serde shim's JSON-shaped data model, with a hand-rolled recursive
//! descent parser. Floats round-trip bit-exactly (the writer uses Rust's
//! shortest-roundtrip `Display`, the reader Rust's correctly rounded
//! parser), matching the behavior the real crate only provides with its
//! `float_roundtrip` feature.

use serde::value::Value;
use serde::{Deserialize, Serialize};

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde_json shim: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Serializes `value` to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize_json(&mut out);
    Ok(out)
}

/// Parses JSON text and deserializes a `T` from it.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse(text)?;
    T::deserialize_json(&value).map_err(Error)
}

/// Parses JSON text into the generic tree.
pub fn parse(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut at = 0usize;
    let value = parse_value(bytes, &mut at, 0)?;
    skip_ws(bytes, &mut at);
    if at != bytes.len() {
        return Err(Error(format!("trailing data at byte {at}")));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], at: &mut usize) {
    while *at < bytes.len() && matches!(bytes[*at], b' ' | b'\t' | b'\n' | b'\r') {
        *at += 1;
    }
}

fn expect(bytes: &[u8], at: &mut usize, token: u8) -> Result<(), Error> {
    skip_ws(bytes, at);
    if *at < bytes.len() && bytes[*at] == token {
        *at += 1;
        Ok(())
    } else {
        Err(Error(format!(
            "expected {:?} at byte {}",
            token as char, *at
        )))
    }
}

/// Deepest array/object nesting [`parse`] accepts: the parser recurses
/// once per level, so untrusted text must not choose the stack depth.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], at: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(bytes, at);
    if depth > MAX_DEPTH {
        return Err(Error(format!(
            "nesting deeper than {MAX_DEPTH} at byte {at}",
            at = *at
        )));
    }
    match bytes.get(*at) {
        None => Err(Error("unexpected end of input".into())),
        Some(b'{') => {
            *at += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, at);
            if bytes.get(*at) == Some(&b'}') {
                *at += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                skip_ws(bytes, at);
                let key = match parse_value(bytes, at, depth + 1)? {
                    Value::String(s) => s,
                    other => {
                        return Err(Error(format!(
                            "object key must be string, got {}",
                            other.kind()
                        )))
                    }
                };
                expect(bytes, at, b':')?;
                let value = parse_value(bytes, at, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, at);
                match bytes.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b'}') => {
                        *at += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => {
                        return Err(Error(format!(
                            "expected ',' or '}}' at byte {at}",
                            at = *at
                        )))
                    }
                }
            }
        }
        Some(b'[') => {
            *at += 1;
            let mut items = Vec::new();
            skip_ws(bytes, at);
            if bytes.get(*at) == Some(&b']') {
                *at += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, at, depth + 1)?);
                skip_ws(bytes, at);
                match bytes.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b']') => {
                        *at += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error(format!("expected ',' or ']' at byte {at}", at = *at))),
                }
            }
        }
        Some(b'"') => parse_string(bytes, at).map(Value::String),
        Some(b't') => parse_keyword(bytes, at, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, at, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(bytes, at, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *at;
            *at += 1;
            while *at < bytes.len()
                && matches!(bytes[*at], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *at += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*at]).map_err(|e| Error(e.to_string()))?;
            Ok(Value::Number(text.to_string()))
        }
        Some(c) => Err(Error(format!(
            "unexpected byte {:?} at {}",
            *c as char, *at
        ))),
    }
}

fn parse_keyword(bytes: &[u8], at: &mut usize, word: &str, value: Value) -> Result<Value, Error> {
    if bytes[*at..].starts_with(word.as_bytes()) {
        *at += word.len();
        Ok(value)
    } else {
        Err(Error(format!("invalid literal at byte {}", *at)))
    }
}

fn parse_string(bytes: &[u8], at: &mut usize) -> Result<String, Error> {
    debug_assert_eq!(bytes[*at], b'"');
    *at += 1;
    let mut out = String::new();
    loop {
        // Copy the run of plain bytes up to the next quote or backslash in
        // one piece: both are ASCII, so a run never splits a UTF-8 scalar.
        let rest = &bytes[*at..];
        let run = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
        out.push_str(std::str::from_utf8(&rest[..run]).map_err(|e| Error(e.to_string()))?);
        *at += run;
        match bytes.get(*at) {
            None => return Err(Error("unterminated string".into())),
            Some(b'"') => {
                *at += 1;
                return Ok(out);
            }
            Some(_) => {
                // A backslash.
                *at += 1;
                match bytes.get(*at) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*at + 1..*at + 5)
                            .ok_or_else(|| Error("truncated \\u escape".into()))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| Error(e.to_string()))?,
                            16,
                        )
                        .map_err(|e| Error(e.to_string()))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| Error(format!("invalid codepoint {code:#x}")))?,
                        );
                        *at += 4;
                    }
                    other => return Err(Error(format!("bad escape {other:?}"))),
                }
                *at += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_vec_f64_is_bit_exact() {
        let xs: Vec<f64> = vec![0.1, 1.0 / 3.0, -2.5e-17, 7.0, 1e300, 2f64.powi(-1074)];
        let text = to_string(&xs).unwrap();
        let back: Vec<f64> = from_str(&text).unwrap();
        assert_eq!(xs.len(), back.len());
        for (a, b) in xs.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn parses_nested_objects() {
        let v = parse(r#"{"a": [1, 2.5, {"b": "x\ny"}], "c": null, "d": true}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj.len(), 3);
        assert_eq!(obj[0].0, "a");
        let arr = obj[0].1.as_array().unwrap();
        assert_eq!(arr[0], Value::Number("1".into()));
        assert_eq!(arr.len(), 3);
        assert_eq!(obj[1].1, Value::Null);
        assert_eq!(obj[2].1, Value::Bool(true));
    }

    #[test]
    fn rejects_nesting_deeper_than_the_cap() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH + 1)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 2)).is_err());
        assert!(parse(&"[".repeat(1 << 20)).is_err());
    }

    /// A 256 KiB string of 1- to 4-byte scalars and every escape the
    /// reader knows parses to its value, and the writer's form of that
    /// value reads back unchanged.
    #[test]
    fn long_strings_with_escapes_round_trip() {
        let pieces: [(&str, &str); 16] = [
            ("a", "a"),
            ("Z9 ", "Z9 "),
            ("é", "é"),
            ("€", "€"),
            ("𝄞", "𝄞"),
            (r#"\""#, "\""),
            (r"\\", "\\"),
            (r"\/", "/"),
            (r"\b", "\u{8}"),
            (r"\f", "\u{c}"),
            (r"\n", "\n"),
            (r"\r", "\r"),
            (r"\t", "\t"),
            (r"\u0001", "\u{1}"),
            (r"\u00e9", "é"),
            (r"\u20AC", "€"),
        ];
        let (mut text, mut want) = (String::from("\""), String::new());
        let mut lcg = 1u64;
        while want.len() < 256 << 10 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (json, value) = pieces[(lcg >> 60) as usize];
            text.push_str(json);
            want.push_str(value);
        }
        text.push('"');
        assert_eq!(from_str::<String>(&text).unwrap(), want);
        let written = to_string(&want).unwrap();
        assert_eq!(from_str::<String>(&written).unwrap(), want);
        assert!(parse(&text[..text.len() - 1]).is_err(), "unterminated");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("[1,2] extra").is_err());
        assert!(parse("[1,2,]").is_err());
    }
}

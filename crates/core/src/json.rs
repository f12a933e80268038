//! The workspace's one JSON codec: a minimal value type, a recursive
//! parser, and the string escaper. The offline dependency set has no
//! serde, so the bench record (`BENCH_lp.json`) and the flight recorder's
//! JSONL dumps both read and write through this module.
//!
//! The parser accepts the JSON subset the repo writes — objects, arrays,
//! UTF-8 strings with the escapes `\" \\ \/ \n \r \t \uXXXX` (no
//! surrogate pairs), numbers, `true`, `false` and `null` — and reports
//! the byte offset of the first error. Duplicate keys keep the last
//! value. Nesting deeper than [`MAX_DEPTH`] is an error, so a hostile
//! file cannot overflow the parser's stack.
//!
//! ```
//! use abt_core::json::{self, Json};
//!
//! let v = Json::parse(r#"{"id": "e1", "ms": 2.5, "ok": true}"#).unwrap();
//! let obj = v.as_object("row").unwrap();
//! assert_eq!(json::get(obj, "id").unwrap().as_str("id").unwrap(), "e1");
//! assert_eq!(json::get(obj, "ms").unwrap().as_f64("ms").unwrap(), 2.5);
//!
//! let mut out = String::new();
//! json::escape_into(&mut out, "a \"b\"\n");
//! assert_eq!(out, r#"a \"b\"\n"#);
//! ```

use std::collections::BTreeMap;

/// Deepest object/array nesting [`Json::parse`] accepts (the repo's own
/// documents nest at most 4 deep).
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `{ "key": value, … }`.
    Object(BTreeMap<String, Json>),
    /// `[ value, … ]`.
    Array(Vec<Json>),
    /// A string.
    Str(String),
    /// A number.
    Num(f64),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(v)
    }

    /// The object's map, or an error naming `what`.
    pub fn as_object(&self, what: &str) -> Result<&BTreeMap<String, Json>, String> {
        match self {
            Json::Object(m) => Ok(m),
            other => Err(format!("{what}: expected object, got {other:?}")),
        }
    }

    /// The array's items, or an error naming `what`.
    pub fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Array(v) => Ok(v),
            other => Err(format!("{what}: expected array, got {other:?}")),
        }
    }

    /// The string, or an error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("{what}: expected string, got {other:?}")),
        }
    }

    /// The number, or an error naming `what`.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Num(v) => Ok(*v),
            other => Err(format!("{what}: expected number, got {other:?}")),
        }
    }

    /// The boolean, or an error naming `what`.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(v) => Ok(*v),
            other => Err(format!("{what}: expected bool, got {other:?}")),
        }
    }
}

/// The value under a required `key`.
pub fn get<'a>(obj: &'a BTreeMap<String, Json>, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

/// Appends `s` to `out` as the body of a JSON string literal: `"`, `\`,
/// `\n`, `\r` and `\t` get their short escapes, every other control
/// character a `\u00XX` escape, so the writer never emits invalid JSON
/// whatever it is handed.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", ch as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if depth == MAX_DEPTH && matches!(b.get(*pos), Some(b'{' | b'[')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth + 1)?;
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut out = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(out));
            }
            loop {
                out.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(out));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        // A JSON number starts with a digit or a minus sign.
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            s.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number {s:?} at byte {start}: {e}"))
        }
        Some(_) => Err(format!("unexpected value at byte {}", *pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    // Accumulate raw bytes and decode as UTF-8 at the end, so multi-byte
    // characters survive the round trip.
    let mut out: Vec<u8> = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => {
                return String::from_utf8(out).map_err(|e| format!("invalid UTF-8 in string: {e}"))
            }
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                        *pos += 4;
                        // Surrogate pairs are outside this subset.
                        let ch = char::from_u32(code)
                            .ok_or_else(|| format!("unsupported \\u codepoint {code:#x}"))?;
                        out.extend_from_slice(ch.to_string().as_bytes());
                    }
                    other => return Err(format!("unsupported escape \\{}", other as char)),
                }
            }
            other => out.push(other),
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaped_strings_roundtrip() {
        let original = "quote \" backslash \\ cr \r lf \n tab \t bell \u{7} ünï 日本";
        let mut lit = String::from("\"");
        escape_into(&mut lit, original);
        lit.push('"');
        assert_eq!(Json::parse(&lit).unwrap(), Json::Str(original.into()));
    }

    #[test]
    fn rejects_malformed_values() {
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        for bad in ["+1", ".5", "e5", "-", "tru", "[1,]", "{\"a\" 1}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(
            Json::parse(&nested(1_000_000)).is_err(),
            "no stack overflow"
        );
    }
}

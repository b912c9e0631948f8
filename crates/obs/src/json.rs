//! A minimal JSON well-formedness validator and document parser.
//!
//! The trace exporter and run-history ledger write JSON by hand (no serde
//! in this offline build), so tests and the CI smoke step need an
//! independent check that the output actually parses — and the `report`
//! subcommand needs to read ledger records back. [`validate`] is a strict
//! recursive-descent recogniser; [`parse`] is the same grammar building a
//! [`Value`] tree. Object members preserve document order, so a parsed
//! value re-rendered through its [`Display`](fmt::Display) impl
//! round-trips key order.

use std::fmt;

/// Validates that `s` is exactly one well-formed JSON value (plus
/// whitespace). Returns the byte offset and a message on error.
pub fn validate(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

/// A parsed JSON document tree.
///
/// Numbers are kept as `f64` (every number the ledger writes is exactly
/// representable); object members keep their document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in document member order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up an object member by key (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => {
                members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The number this value holds, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string this value holds, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean this value holds, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements of this value, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members of this value, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Convenience: `self.get(key)` then [`Value::as_f64`].
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Value::as_f64)
    }

    /// Convenience: `self.get(key)` then [`Value::as_str`].
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Value::as_str)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::String(s) => write_json_string(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Object(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_json_string(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_json_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Parses `s` as exactly one JSON value (plus whitespace) into a
/// [`Value`] tree.
///
/// # Errors
///
/// Returns the byte offset and a message for malformed input.
pub fn parse(s: &str) -> Result<Value, String> {
    validate(s)?;
    let b = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    Ok(build(b, &mut pos))
}

/// Builds the tree for pre-validated input (panics on malformed input,
/// which [`parse`] rules out).
fn build(b: &[u8], pos: &mut usize) -> Value {
    match b[*pos] {
        b'{' => {
            *pos += 1; // '{'
            let mut members = Vec::new();
            skip_ws(b, pos);
            while b[*pos] != b'}' {
                skip_ws(b, pos);
                let key = build_string(b, pos);
                skip_ws(b, pos);
                *pos += 1; // ':'
                skip_ws(b, pos);
                members.push((key, build(b, pos)));
                skip_ws(b, pos);
                if b[*pos] == b',' {
                    *pos += 1;
                    skip_ws(b, pos);
                }
            }
            *pos += 1; // '}'
            Value::Object(members)
        }
        b'[' => {
            *pos += 1; // '['
            let mut items = Vec::new();
            skip_ws(b, pos);
            while b[*pos] != b']' {
                skip_ws(b, pos);
                items.push(build(b, pos));
                skip_ws(b, pos);
                if b[*pos] == b',' {
                    *pos += 1;
                    skip_ws(b, pos);
                }
            }
            *pos += 1; // ']'
            Value::Array(items)
        }
        b'"' => Value::String(build_string(b, pos)),
        b't' => {
            *pos += 4;
            Value::Bool(true)
        }
        b'f' => {
            *pos += 5;
            Value::Bool(false)
        }
        b'n' => {
            *pos += 4;
            Value::Null
        }
        _ => {
            let start = *pos;
            let mut end = *pos;
            while end < b.len()
                && matches!(b[end], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                end += 1;
            }
            *pos = end;
            let text = std::str::from_utf8(&b[start..end]).expect("validated ascii number");
            Value::Number(text.parse().expect("validated number"))
        }
    }
}

fn build_string(b: &[u8], pos: &mut usize) -> String {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return out;
            }
            b'\\' => {
                *pos += 1;
                match b[*pos] {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = std::str::from_utf8(&b[*pos + 1..*pos + 5])
                            .expect("validated hex");
                        let code = u32::from_str_radix(hex, 16).expect("validated hex");
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => unreachable!("validated escape"),
                }
                *pos += 1;
            }
            _ => {
                // Copy one UTF-8 scalar (multi-byte sequences included).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xc0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&b[start..*pos]).expect("validated utf-8"),
                );
            }
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn fail(pos: usize, what: &str) -> Result<(), String> {
    Err(format!("{what} at byte {pos}"))
}

fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, "true"),
        Some(b'f') => literal(b, pos, "false"),
        Some(b'n') => literal(b, pos, "null"),
        Some(c) if *c == b'-' || c.is_ascii_digit() => number(b, pos),
        _ => fail(*pos, "expected a JSON value"),
    }
}

fn literal(b: &[u8], pos: &mut usize, word: &str) -> Result<(), String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(())
    } else {
        fail(*pos, "malformed literal")
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return fail(*pos, "expected object key string");
        }
        string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return fail(*pos, "expected ':'");
        }
        *pos += 1;
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return fail(*pos, "expected ',' or '}'"),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return fail(*pos, "expected ',' or ']'"),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // opening quote
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        if b.len() < *pos + 5
                            || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return fail(*pos, "bad \\u escape");
                        }
                        *pos += 5;
                    }
                    _ => return fail(*pos, "bad escape"),
                }
            }
            0x00..=0x1f => return fail(*pos, "raw control character in string"),
            _ => *pos += 1,
        }
    }
    fail(*pos, "unterminated string")
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_digits = eat_digits(b, pos);
    if int_digits == 0 {
        return fail(start, "malformed number");
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if eat_digits(b, pos) == 0 {
            return fail(*pos, "digits required after '.'");
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if eat_digits(b, pos) == 0 {
            return fail(*pos, "digits required in exponent");
        }
    }
    Ok(())
}

fn eat_digits(b: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - start
}

#[cfg(test)]
mod tests {
    use super::{parse, validate, Value};

    #[test]
    fn parses_a_document_tree() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny"}, "d": true, "e": null}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1], Value::Number(2.5));
        assert_eq!(v.get("b").unwrap().get_str("c"), Some("x\ny"));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get_f64("d"), None, "bool is not a number");
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn display_round_trips_with_member_order() {
        let doc = r#"{"z":1,"a":[true,null,"q\"uote"],"n":-2.5}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.to_string(), doc);
        // Round-trip: rendering then reparsing is a fixed point.
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn display_renders_integral_numbers_without_fraction() {
        assert_eq!(Value::Number(3.0).to_string(), "3");
        assert_eq!(Value::Number(3.25).to_string(), "3.25");
        assert_eq!(Value::Number(-0.5).to_string(), "-0.5");
    }

    #[test]
    fn parses_unicode_escapes_and_multibyte() {
        let v = parse(r#""café é""#).unwrap();
        assert_eq!(v.as_str(), Some("café é"));
    }

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-3.25e+7",
            r#"{"a":[1,2,{"b":"x\ny"}],"c":true,"d":null}"#,
            " { \"k\" : [ 1 , 2 ] } ",
            r#""é""#,
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01x",
            "\"unterminated",
            "{} extra",
            "{'single':1}",
            "[1 2]",
            "tru",
            "1.",
            "\"bad \\q escape\"",
        ] {
            assert!(validate(bad).is_err(), "accepted: {bad}");
        }
    }
}

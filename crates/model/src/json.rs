//! Minimal JSON support for measurement-record interchange.
//!
//! The allowed dependency set includes `serde` but not `serde_json`, so this
//! module provides a small self-contained JSON document model ([`Value`]),
//! writer, and recursive-descent parser — enough to export
//! [`TracerouteRecord`]s in an Atlas-like JSON shape and read them back.
//!
//! This is intentionally not a general-purpose JSON library: numbers are
//! `f64`, strings support only the escapes JSON requires, and the parser
//! rejects documents nested deeper than [`MAX_DEPTH`].

use crate::records::{Hop, MeasurementId, ProbeId, Reply, TracerouteRecord};
use crate::{Asn, SimTime};
use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Maximum nesting depth accepted by the parser.
pub const MAX_DEPTH: usize = 64;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Number(f64),
    /// A JSON string.
    String(String),
    /// A JSON array.
    Array(Vec<Value>),
    /// A JSON object. `BTreeMap` keeps key order deterministic.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Shorthand: object from key/value pairs.
    pub fn object(pairs: Vec<(&str, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Get a field of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Interpret as f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Interpret as u64 (rejects negatives and non-integers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Interpret as str.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Interpret as array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Interpret as bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    /// Writes the document straight into the formatter's sink: nodes
    /// recurse through `write_value`, never back through `write!`, and no
    /// intermediate buffer is built.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self)
    }
}

fn write_value<W: fmt::Write>(out: &mut W, v: &Value) -> fmt::Result {
    match v {
        Value::Null => out.write_str("null"),
        Value::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
        Value::Number(n) => {
            if n.is_finite() {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(out, "{}", *n as i64)
                } else {
                    write!(out, "{n}")
                }
            } else {
                // JSON has no NaN/Inf; emit null like most encoders.
                out.write_str("null")
            }
        }
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.write_char('[')?;
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_value(out, v)?;
            }
            out.write_char(']')
        }
        Value::Object(map) => {
            out.write_char('{')?;
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_escaped(out, k)?;
                out.write_char(':')?;
                write_value(out, v)?;
            }
            out.write_char('}')
        }
    }
}

/// A quoted JSON string. Runs of bytes that need no escape are written
/// with one `write_str`; every byte that does is ASCII, so a run never
/// splits a multi-byte character.
fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.write_str(&s[run..i])?;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Error produced by [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a JSON document.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document too deeply nested"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
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
            let val = self.value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let start = self.pos + 1;
                            let hex = self
                                .bytes
                                .get(start..start + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not needed for our records.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("invalid code point"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one go. Both are ASCII, and the run starts where
                    // the previous token ended, so both ends fall on
                    // character boundaries of the input `str`.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = self
                        .text
                        .get(start..self.pos)
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

// ---------------------------------------------------------------------------
// TracerouteRecord <-> JSON
// ---------------------------------------------------------------------------

/// Encode a record in an Atlas-like JSON object.
pub fn record_to_json(r: &TracerouteRecord) -> Value {
    let hops = r
        .hops
        .iter()
        .map(|h| {
            let replies = h
                .replies
                .iter()
                .map(|rep| match (rep.from, rep.rtt_ms) {
                    (Some(from), Some(rtt)) => Value::object(vec![
                        ("from", Value::String(from.to_string())),
                        ("rtt", Value::Number(rtt)),
                    ]),
                    _ => Value::object(vec![("x", Value::String("*".into()))]),
                })
                .collect();
            Value::object(vec![
                ("hop", Value::Number(f64::from(h.ttl))),
                ("result", Value::Array(replies)),
            ])
        })
        .collect();
    Value::object(vec![
        ("msm_id", Value::Number(f64::from(r.msm_id.0))),
        ("prb_id", Value::Number(f64::from(r.probe_id.0))),
        ("src_asn", Value::Number(f64::from(r.probe_asn.0))),
        ("dst_addr", Value::String(r.dst.to_string())),
        ("timestamp", Value::Number(r.timestamp.0 as f64)),
        ("paris_id", Value::Number(f64::from(r.paris_id))),
        ("result", Value::Array(hops)),
        ("reached", Value::Bool(r.destination_reached)),
    ])
}

/// Error converting JSON into a [`TracerouteRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "record decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, DecodeError> {
    v.get(key)
        .ok_or_else(|| DecodeError(format!("missing field {key:?}")))
}

/// Decode a record from the JSON shape produced by [`record_to_json`].
pub fn record_from_json(v: &Value) -> Result<TracerouteRecord, DecodeError> {
    let dst: Ipv4Addr = field(v, "dst_addr")?
        .as_str()
        .ok_or_else(|| DecodeError("dst_addr not a string".into()))?
        .parse()
        .map_err(|e| DecodeError(format!("bad dst_addr: {e}")))?;
    let hops = field(v, "result")?
        .as_array()
        .ok_or_else(|| DecodeError("result not an array".into()))?
        .iter()
        .map(|h| {
            let ttl = field(h, "hop")?
                .as_u64()
                .ok_or_else(|| DecodeError("hop not an integer".into()))?
                as u8;
            let replies = field(h, "result")?
                .as_array()
                .ok_or_else(|| DecodeError("hop result not an array".into()))?
                .iter()
                .map(|rep| {
                    if rep.get("x").is_some() {
                        Ok(Reply::TIMEOUT)
                    } else {
                        let from: Ipv4Addr = field(rep, "from")?
                            .as_str()
                            .ok_or_else(|| DecodeError("from not a string".into()))?
                            .parse()
                            .map_err(|e| DecodeError(format!("bad from: {e}")))?;
                        let rtt = field(rep, "rtt")?
                            .as_f64()
                            .ok_or_else(|| DecodeError("rtt not a number".into()))?;
                        Ok(Reply::new(from, rtt))
                    }
                })
                .collect::<Result<Vec<_>, DecodeError>>()?;
            Ok(Hop::new(ttl, replies))
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;
    Ok(TracerouteRecord {
        msm_id: MeasurementId(
            field(v, "msm_id")?
                .as_u64()
                .ok_or_else(|| DecodeError("msm_id not an integer".into()))? as u32,
        ),
        probe_id: ProbeId(
            field(v, "prb_id")?
                .as_u64()
                .ok_or_else(|| DecodeError("prb_id not an integer".into()))? as u32,
        ),
        probe_asn: Asn(field(v, "src_asn")?
            .as_u64()
            .ok_or_else(|| DecodeError("src_asn not an integer".into()))?
            as u32),
        dst,
        timestamp: SimTime(
            field(v, "timestamp")?
                .as_u64()
                .ok_or_else(|| DecodeError("timestamp not an integer".into()))?,
        ),
        paris_id: field(v, "paris_id")?
            .as_u64()
            .ok_or_else(|| DecodeError("paris_id not an integer".into()))? as u16,
        hops,
        destination_reached: field(v, "reached")?
            .as_bool()
            .ok_or_else(|| DecodeError("reached not a bool".into()))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for s in ["null", "true", "false", "0", "-1.5", "1e3", "\"a b\""] {
            let v = parse(s).unwrap();
            let back = parse(&v.to_string()).unwrap();
            assert_eq!(v, back, "round-trip failed for {s}");
        }
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":[1,2,{"b":"x\"y"}],"c":null}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Value::Null));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x\"y"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"\\q\"").is_err());
    }

    #[test]
    fn rejects_deep_nesting() {
        let doc = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&doc).is_err());
    }

    #[test]
    fn escapes_control_characters() {
        let v = Value::String("a\nb\tc\u{1}".into());
        let s = v.to_string();
        assert_eq!(s, "\"a\\nb\\tc\\u0001\"");
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(parse(r#""A""#).unwrap().as_str(), Some("A"));
    }

    #[test]
    fn record_round_trip() {
        let rec = TracerouteRecord {
            msm_id: MeasurementId(1010),
            probe_id: ProbeId(12345),
            probe_asn: Asn(2497),
            dst: "193.0.14.129".parse().unwrap(),
            timestamp: SimTime(1_448_866_800),
            paris_id: 7,
            hops: vec![
                Hop::new(
                    1,
                    vec![
                        Reply::new("10.0.0.1".parse().unwrap(), 0.52),
                        Reply::TIMEOUT,
                        Reply::new("10.0.0.1".parse().unwrap(), 0.61),
                    ],
                ),
                Hop::new(2, vec![Reply::TIMEOUT; 3]),
            ],
            destination_reached: false,
        };
        let json = record_to_json(&rec).to_string();
        let back = record_from_json(&parse(&json).unwrap()).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn decode_rejects_missing_fields() {
        let v = parse(r#"{"msm_id":1}"#).unwrap();
        assert!(record_from_json(&v).is_err());
    }

    /// The exact bytes the writer emits, for every escape class, for
    /// multi-byte UTF-8 next to escapes, for nesting, and for each number
    /// form. Reports are compared byte for byte, so this must never move.
    #[test]
    fn writer_bytes_are_pinned() {
        let doc = Value::object(vec![
            ("quote\"key", Value::String("say \"hi\"".into())),
            ("back\\slash", Value::String("C:\\dir\\".into())),
            (
                "controls",
                Value::String("\u{1}\u{8}\u{c}\u{1f}\n\r\t\u{7f}".into()),
            ),
            ("utf8", Value::String("é→中😀\"é\\".into())),
            (
                "numbers",
                Value::Array(vec![
                    Value::Number(0.0),
                    Value::Number(-0.0),
                    Value::Number(42.0),
                    Value::Number(-7.0),
                    Value::Number(999_999_999_999_999.0),
                    Value::Number(1e15),
                    Value::Number(0.1),
                    Value::Number(-2.5),
                    Value::Number(1e-7),
                    Value::Number(f64::NAN),
                    Value::Number(f64::INFINITY),
                ]),
            ),
            (
                "nested",
                Value::Array(vec![
                    Value::Array(vec![]),
                    Value::object(vec![]),
                    Value::object(vec![("b", Value::Bool(true)), ("a", Value::Null)]),
                    Value::Array(vec![Value::Bool(false), Value::String(String::new())]),
                ]),
            ),
        ]);
        let expected = concat!(
            r#"{"back\\slash":"C:\\dir\\","#,
            r#""controls":"\u0001\u0008\u000c\u001f\n\r\t"#,
            "\u{7f}\",",
            r#""nested":[[],{},{"a":null,"b":true},[false,""]],"#,
            r#""numbers":[0,0,42,-7,999999999999999,1000000000000000,0.1,-2.5,0.0000001,null,null],"#,
            r#""quote\"key":"say \"hi\"","#,
            r#""utf8":"é→中😀\"é\\"}"#,
        );
        assert_eq!(doc.to_string(), expected);
        assert_eq!(format!("{doc}"), expected);
    }

    /// Non-ASCII text between escapes survives a write → parse round
    /// trip, and the parser copies raw runs of any length.
    #[test]
    fn non_ascii_and_escapes_round_trip() {
        let long = "ü".repeat(1000);
        for text in [
            "",
            "plain",
            "é",
            "中文\"引号\"",
            "😀\\😀\n",
            "\u{1}é\u{1f}中\t",
            &long,
        ] {
            let v = Value::String(text.to_string());
            assert_eq!(parse(&v.to_string()).unwrap(), v, "{text:?}");
        }
        let v = parse(r#"{"é":["a\u00e9b","\u4e2d\"x\\"]}"#).unwrap();
        let arr = v.get("é").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_str(), Some("aéb"));
        assert_eq!(arr[1].as_str(), Some("中\"x\\"));
    }

    /// Byte offsets of parse errors, as the parser has always reported
    /// them.
    #[test]
    fn parse_error_offsets_are_pinned() {
        let offset = |doc: &str| parse(doc).unwrap_err().offset;
        assert_eq!(offset(""), 0);
        assert_eq!(offset(r#""abc"#), 4);
        assert_eq!(offset(r#""é中"#), 6);
        assert_eq!(offset(r#""ab\q""#), 4);
        assert_eq!(offset(r#""é\u12""#), 4);
        assert_eq!(offset(r#"["é" x]"#), 6);
        assert_eq!(offset(r#"{"é":1,}"#), 8);
        assert_eq!(offset("[1,]"), 3);
        assert_eq!(offset("1 2"), 2);
        assert_eq!(offset(r#""ok" é"#), 5);
    }

    #[test]
    fn number_formatting_integers_stay_integers() {
        assert_eq!(Value::Number(3.0).to_string(), "3");
        assert_eq!(Value::Number(3.25).to_string(), "3.25");
        assert_eq!(Value::Number(f64::NAN).to_string(), "null");
    }
}

//! A compact, dependency-free JSON serializer compatible with `serde`.
//!
//! `dcn-core` persists simulation reports as JSON. Pulling in a full JSON
//! crate is unnecessary for write-only output, so this module implements the
//! subset of the [`serde::Serializer`] contract that plain-old-data report
//! types exercise: primitives, strings, options, sequences, maps, structs,
//! and unit/newtype enum variants.
//!
//! The consumer side is [`parse_json`]/[`JsonValue`]: a small
//! recursive-descent parser and the workspace's one JSON reader (adversary
//! genomes, corpus entries, reports, journal lines, the ledger, TELEM
//! snapshots and sharded BENCH tables). Integers parse **exactly** (no
//! float round-trip), so 64-bit RNG seeds survive a serialize→parse cycle
//! bit-for-bit, and every other number parses with `str::parse`, which
//! recovers the identical `f64` from the emitter's shortest-round-trip
//! `Display`; `-0` reads as `Float(-0.0)`, so a `-0.0` cell is re-emitted as
//! `-0`. Outside input is held to two rules: every error names the byte
//! offset it tripped on, and an object that repeats a key is an error at
//! that key's opening quote.

use serde::ser::{self, Serialize};
use std::collections::HashSet;
use std::fmt::{self, Display, Write as FmtWrite};

/// Serialization error (only string formatting can fail, plus custom messages).
#[derive(Debug)]
pub struct JsonError(String);

impl Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json serialization error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl ser::Error for JsonError {
    fn custom<T: Display>(msg: T) -> Self {
        JsonError(msg.to_string())
    }
}

/// Serializes any [`Serialize`] value to a compact JSON string.
pub fn to_json_string<T: Serialize>(value: &T) -> Result<String, JsonError> {
    let mut out = String::with_capacity(256);
    value.serialize(&mut JsonSerializer { out: &mut out })?;
    Ok(out)
}

fn escape_into(out: &mut String, s: &str) {
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

fn float_into(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        // JSON has no Inf/NaN; emit null like serde_json's lossy mode.
        out.push_str("null");
    }
}

struct JsonSerializer<'a> {
    out: &'a mut String,
}

/// Compound serializer state shared by sequences, maps and structs.
struct Compound<'a, 'b> {
    ser: &'b mut JsonSerializer<'a>,
    first: bool,
    closer: char,
}

impl<'a, 'b> Compound<'a, 'b> {
    fn comma(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.ser.out.push(',');
        }
    }
}

type Result_<T = ()> = Result<T, JsonError>;

impl<'a, 'b> ser::Serializer for &'b mut JsonSerializer<'a> {
    type Ok = ();
    type Error = JsonError;
    type SerializeSeq = Compound<'a, 'b>;
    type SerializeTuple = Compound<'a, 'b>;
    type SerializeTupleStruct = Compound<'a, 'b>;
    type SerializeTupleVariant = Compound<'a, 'b>;
    type SerializeMap = Compound<'a, 'b>;
    type SerializeStruct = Compound<'a, 'b>;
    type SerializeStructVariant = Compound<'a, 'b>;

    fn serialize_bool(self, v: bool) -> Result_ {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }
    fn serialize_i8(self, v: i8) -> Result_ {
        self.serialize_i64(v as i64)
    }
    fn serialize_i16(self, v: i16) -> Result_ {
        self.serialize_i64(v as i64)
    }
    fn serialize_i32(self, v: i32) -> Result_ {
        self.serialize_i64(v as i64)
    }
    fn serialize_i64(self, v: i64) -> Result_ {
        let _ = write!(self.out, "{v}");
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result_ {
        self.serialize_u64(v as u64)
    }
    fn serialize_u16(self, v: u16) -> Result_ {
        self.serialize_u64(v as u64)
    }
    fn serialize_u32(self, v: u32) -> Result_ {
        self.serialize_u64(v as u64)
    }
    fn serialize_u64(self, v: u64) -> Result_ {
        let _ = write!(self.out, "{v}");
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result_ {
        float_into(self.out, v as f64);
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> Result_ {
        float_into(self.out, v);
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result_ {
        let mut buf = [0u8; 4];
        escape_into(self.out, v.encode_utf8(&mut buf));
        Ok(())
    }
    fn serialize_str(self, v: &str) -> Result_ {
        escape_into(self.out, v);
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result_ {
        use serde::ser::SerializeSeq;
        let mut seq = self.serialize_seq(Some(v.len()))?;
        for b in v {
            seq.serialize_element(b)?;
        }
        seq.end()
    }
    fn serialize_none(self) -> Result_ {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_some<T: ?Sized + Serialize>(self, value: &T) -> Result_ {
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result_ {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result_ {
        self.serialize_unit()
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
    ) -> Result_ {
        self.serialize_str(variant)
    }
    fn serialize_newtype_struct<T: ?Sized + Serialize>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result_ {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: ?Sized + Serialize>(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result_ {
        self.out.push('{');
        escape_into(self.out, variant);
        self.out.push(':');
        value.serialize(&mut *self)?;
        self.out.push('}');
        Ok(())
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result_<Self::SerializeSeq> {
        self.out.push('[');
        Ok(Compound {
            ser: self,
            first: true,
            closer: ']',
        })
    }
    fn serialize_tuple(self, len: usize) -> Result_<Self::SerializeTuple> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result_<Self::SerializeTupleStruct> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result_<Self::SerializeTupleVariant> {
        self.out.push('{');
        escape_into(self.out, variant);
        self.out.push_str(":[");
        Ok(Compound {
            ser: self,
            first: true,
            closer: ']',
        })
        // Note: the trailing '}' for the variant wrapper is emitted in `end`
        // via the two-character closer trick below; see SerializeTupleVariant.
    }
    fn serialize_map(self, _len: Option<usize>) -> Result_<Self::SerializeMap> {
        self.out.push('{');
        Ok(Compound {
            ser: self,
            first: true,
            closer: '}',
        })
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result_<Self::SerializeStruct> {
        self.out.push('{');
        Ok(Compound {
            ser: self,
            first: true,
            closer: '}',
        })
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result_<Self::SerializeStructVariant> {
        self.out.push('{');
        escape_into(self.out, variant);
        self.out.push_str(":{");
        Ok(Compound {
            ser: self,
            first: true,
            closer: '}',
        })
        // Same note as tuple variants: outer '}' handled in `end`.
    }
}

impl<'a, 'b> ser::SerializeSeq for Compound<'a, 'b> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result_ {
        self.comma();
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result_ {
        self.ser.out.push(self.closer);
        Ok(())
    }
}

impl<'a, 'b> ser::SerializeTuple for Compound<'a, 'b> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result_ {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result_ {
        ser::SerializeSeq::end(self)
    }
}

impl<'a, 'b> ser::SerializeTupleStruct for Compound<'a, 'b> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_field<T: ?Sized + Serialize>(&mut self, value: &T) -> Result_ {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result_ {
        ser::SerializeSeq::end(self)
    }
}

impl<'a, 'b> ser::SerializeTupleVariant for Compound<'a, 'b> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_field<T: ?Sized + Serialize>(&mut self, value: &T) -> Result_ {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result_ {
        self.ser.out.push(self.closer);
        self.ser.out.push('}'); // close the {"variant": ...} wrapper
        Ok(())
    }
}

impl<'a, 'b> ser::SerializeMap for Compound<'a, 'b> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_key<T: ?Sized + Serialize>(&mut self, key: &T) -> Result_ {
        self.comma();
        // JSON object keys must be strings; serialize the key and require it
        // produced a string literal.
        let before = self.ser.out.len();
        key.serialize(&mut *self.ser)?;
        if !self.ser.out[before..].starts_with('"') {
            // Wrap non-string keys (e.g. integers) in quotes, as serde_json does.
            let raw = self.ser.out.split_off(before);
            escape_into(self.ser.out, &raw);
        }
        self.ser.out.push(':');
        Ok(())
    }
    fn serialize_value<T: ?Sized + Serialize>(&mut self, value: &T) -> Result_ {
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result_ {
        self.ser.out.push(self.closer);
        Ok(())
    }
}

impl<'a, 'b> ser::SerializeStruct for Compound<'a, 'b> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_field<T: ?Sized + Serialize>(&mut self, key: &'static str, value: &T) -> Result_ {
        self.comma();
        escape_into(self.ser.out, key);
        self.ser.out.push(':');
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result_ {
        self.ser.out.push(self.closer);
        Ok(())
    }
}

impl<'a, 'b> ser::SerializeStructVariant for Compound<'a, 'b> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_field<T: ?Sized + Serialize>(&mut self, key: &'static str, value: &T) -> Result_ {
        ser::SerializeStruct::serialize_field(self, key, value)
    }
    fn end(self) -> Result_ {
        self.ser.out.push(self.closer);
        self.ser.out.push('}'); // close the {"variant": {...}} wrapper
        Ok(())
    }
}

/// A parsed JSON value — the consumer-side counterpart of
/// [`to_json_string`] for replaying committed artifacts.
///
/// Integers keep their exact bits: a token with no sign, fraction or
/// exponent parses into [`JsonValue::Uint`] (and a negative one into
/// [`JsonValue::Int`]), so `u64` RNG seeds round-trip losslessly where a
/// float-only representation would truncate above 2⁵³. Object key order is
/// preserved.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer literal (exact).
    Uint(u64),
    /// Negative integer literal (exact), except `-0`.
    Int(i64),
    /// Any other number: a fraction or exponent, `-0`, or an integer
    /// outside the 64-bit range.
    Float(f64),
    /// String literal (escapes decoded).
    Str(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object, in source key order; [`parse_json`] rejects a repeated key.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value as an exact `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::Uint(v) => Some(v),
            JsonValue::Int(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integer that fits.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as an `f64` (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::Uint(v) => Some(v as f64),
            JsonValue::Int(v) => Some(v as f64),
            JsonValue::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            JsonValue::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object (key/value pairs in source order).
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// How many arrays and objects [`parse_json`] nests before it gives up.
/// The parser recurses once per level, so without a bound a document of
/// enough `[` would overflow the stack and abort the process, which no
/// `catch_unwind` can stop. The emitters write a handful of levels.
///
/// ```
/// use dcn_util::json::{parse_json, MAX_DEPTH};
/// // On the main thread, 100,000 levels are an error, not an abort.
/// let err = parse_json(&"[".repeat(100_000)).unwrap_err();
/// assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
/// ```
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document. Trailing non-whitespace is an error, and
/// so are nesting deeper than [`MAX_DEPTH`] and an object that repeats a
/// key. Every error names the byte offset it tripped on.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// Parses one array or object, one level deeper.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Collect the raw run up to the next escape or closing quote;
            // str::from_utf8 keeps multi-byte characters intact.
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| {
                    format!(
                        "invalid UTF-8 in string at byte {}",
                        start + e.valid_up_to()
                    )
                })?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let at = self.pos;
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {at}"))?;
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
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let digit = self.peek().and_then(|b| (b as char).to_digit(16));
                                code = code * 16
                                    + digit.ok_or_else(|| {
                                        format!("bad \\u escape at byte {}", self.pos)
                                    })?;
                                self.pos += 1;
                            }
                            // Surrogate pairs are out of scope: the emitter
                            // never produces them (only control characters).
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid \\u codepoint at byte {at}"))?,
                            );
                        }
                        other => {
                            return Err(format!("unknown escape \\{} at byte {at}", other as char))
                        }
                    }
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if integral {
            if text.starts_with('-') {
                // `-0` falls through to `Float(-0.0)`: it is how the emitter
                // writes a negative zero, which `Int(0)` would re-emit as `0`.
                if let Some(v) = text.parse::<i64>().ok().filter(|&v| v != 0) {
                    return Ok(JsonValue::Int(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::Uint(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        // A set, not a scan of `fields`: a hostile object of n keys must
        // not cost n² comparisons.
        let mut keys = HashSet::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if !keys.insert(key.clone()) {
                return Err(format!("duplicate key {key:?} at byte {key_at}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;
    use std::collections::BTreeMap;

    #[derive(Serialize)]
    struct Report {
        name: String,
        nodes: u32,
        costs: Vec<u64>,
        ratio: f64,
        note: Option<String>,
    }

    #[test]
    fn struct_roundtrip_shape() {
        let r = Report {
            name: "fig1".into(),
            nodes: 100,
            costs: vec![1, 2, 3],
            ratio: 0.5,
            note: None,
        };
        let s = to_json_string(&r).unwrap();
        assert_eq!(
            s,
            r#"{"name":"fig1","nodes":100,"costs":[1,2,3],"ratio":0.5,"note":null}"#
        );
    }

    #[test]
    fn escaping() {
        let s = to_json_string(&"a\"b\\c\nd").unwrap();
        assert_eq!(s, r#""a\"b\\c\nd""#);
    }

    #[test]
    fn map_with_integer_keys() {
        let mut m = BTreeMap::new();
        m.insert(1u32, "one");
        m.insert(2u32, "two");
        let s = to_json_string(&m).unwrap();
        assert_eq!(s, r#"{"1":"one","2":"two"}"#);
    }

    #[derive(Serialize)]
    enum Algo {
        Oblivious,
        Rbma { b: u32 },
        Pair(u32, u32),
    }

    #[test]
    fn enum_variants() {
        assert_eq!(to_json_string(&Algo::Oblivious).unwrap(), r#""Oblivious""#);
        assert_eq!(
            to_json_string(&Algo::Rbma { b: 6 }).unwrap(),
            r#"{"Rbma":{"b":6}}"#
        );
        assert_eq!(
            to_json_string(&Algo::Pair(1, 2)).unwrap(),
            r#"{"Pair":[1,2]}"#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_json_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_json_string(&f64::INFINITY).unwrap(), "null");
    }

    #[test]
    fn nested_options_and_tuples() {
        let v: (Option<u8>, Option<u8>, bool) = (Some(3), None, true);
        assert_eq!(to_json_string(&v).unwrap(), "[3,null,true]");
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse_json("42").unwrap(), JsonValue::Uint(42));
        assert_eq!(parse_json("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(parse_json("1.5").unwrap(), JsonValue::Float(1.5));
        assert_eq!(parse_json("2e3").unwrap(), JsonValue::Float(2000.0));
        assert_eq!(
            parse_json(r#""a\nb\"c""#).unwrap(),
            JsonValue::Str("a\nb\"c".into())
        );
        assert_eq!(parse_json(r#""A""#).unwrap(), JsonValue::Str("A".into()));
    }

    #[test]
    fn parse_u64_seeds_exactly() {
        // Above 2^53: a float round-trip would corrupt these.
        let seed = 0xDEAD_BEEF_CAFE_F00Du64;
        let text = to_json_string(&seed).unwrap();
        assert_eq!(parse_json(&text).unwrap().as_u64(), Some(seed));
        assert_eq!(
            parse_json("18446744073709551615").unwrap(),
            JsonValue::Uint(u64::MAX)
        );
    }

    #[test]
    fn parse_compound_round_trip() {
        #[derive(Serialize)]
        struct Entry {
            name: String,
            seeds: Vec<u64>,
            ratio: f64,
            tag: Option<bool>,
        }
        let text = to_json_string(&Entry {
            name: "worst \"genome\"".into(),
            seeds: vec![1, u64::MAX],
            ratio: 2.25,
            tag: None,
        })
        .unwrap();
        let v = parse_json(&text).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("worst \"genome\""));
        let seeds: Vec<u64> = v
            .get("seeds")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.as_u64().unwrap())
            .collect();
        assert_eq!(seeds, vec![1, u64::MAX]);
        assert_eq!(v.get("ratio").unwrap().as_f64(), Some(2.25));
        assert_eq!(v.get("tag").unwrap(), &JsonValue::Null);
        // Enum variant shapes parse back too.
        let e = parse_json(r#"{"Rbma":{"b":6}}"#).unwrap();
        assert_eq!(e.get("Rbma").unwrap().get("b").unwrap().as_usize(), Some(6));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "tru",
            "[1,",
            "{\"a\":}",
            "[1 2]",
            "\"unterminated",
            "1.2.3",
            "{,}",
            "42 x",
            "nullx",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn nesting_is_bounded_with_the_offending_byte() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        // Exactly at the limit still parses; one level more names the byte
        // of the first `[` past it.
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        let objects = "{\"k\":".repeat(MAX_DEPTH) + "null" + &"}".repeat(MAX_DEPTH);
        assert!(parse_json(&objects).is_ok());
        let err = parse_json(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        // Unbounded recursion used to overflow the stack and abort: 10,000
        // levels on a thread with a test thread's 2 MiB stack (100,000 on
        // the main thread are `MAX_DEPTH`'s doctest).
        let err = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| parse_json(&"[".repeat(10_000)))
            .unwrap()
            .join()
            .expect("no stack overflow")
            .unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        let err = parse_json(&"[{\"a\":".repeat(50_000)).unwrap_err();
        assert!(err.contains(&format!("at byte {}", 3 * MAX_DEPTH)), "{err}");
    }

    #[test]
    fn object_key_order_and_lookup() {
        let v = parse_json(r#"{"b":1,"a":2,"c":3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["b", "a", "c"]);
        assert_eq!(v.get("b").unwrap().as_u64(), Some(1));
        assert!(v.get("missing").is_none());
        // A repeated key is an error at its opening quote.
        let err = parse_json(r#"{"b":1,"a":2,"b":3}"#).unwrap_err();
        assert!(err.contains("duplicate key \"b\" at byte 13"), "{err}");
    }

    #[test]
    fn string_errors_name_their_byte() {
        for (bad, at) in [
            (r#"{"title":"abc"#, 13),
            ("\"a\\", 2),
            (r#""\u12"#, 5),
            (r#""\u12x4""#, 5),
            (r#""\ud800""#, 1),
            (r#""\q""#, 1),
        ] {
            let err = parse_json(bad).unwrap_err();
            assert!(err.contains(&format!("at byte {at}")), "{bad:?}: {err}");
        }
    }

    #[test]
    fn negative_zero_survives_the_integer_path() {
        let v = parse_json("-0").unwrap();
        assert!(matches!(v, JsonValue::Float(z) if z == 0.0 && z.is_sign_negative()));
        assert_eq!(to_json_string(&v.as_f64().unwrap()).unwrap(), "-0");
        assert_eq!(parse_json("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(parse_json("0").unwrap(), JsonValue::Uint(0));
    }
}

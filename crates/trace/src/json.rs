//! Hand-rolled JSON serialization — the workspace's replacement for
//! `serde`/`serde_json`.
//!
//! Every report-bearing type in the workspace implements [`ToJson`] by
//! hand (the former `#[derive(Serialize)]` sites). The module also
//! carries the workspace's one JSON reader: [`parse`] turns text into a
//! [`Value`], and [`validate`] (used by tests and the bench harness to
//! assert that emitted report lines are well-formed) is defined on it.
//!
//! Conventions (matching what serde's derive would have produced):
//!
//! * structs → objects with the field names as keys;
//! * unit enum variants → the variant name as a string;
//! * data-carrying enum variants → externally tagged objects,
//!   `{"Variant":{...}}`;
//! * non-finite floats → `null`.
//!
//! # Examples
//!
//! ```
//! use tlat_trace::json::{JsonObject, ToJson};
//!
//! let mut obj = JsonObject::new();
//! obj.field("name", &"fig5").field("accuracy", &0.97);
//! assert_eq!(obj.finish(), r#"{"name":"fig5","accuracy":0.97}"#);
//! ```

use std::fmt::Write as _;

/// Types that can serialize themselves as a JSON value.
pub trait ToJson {
    /// Appends this value's JSON representation to `out`.
    fn write_json(&self, out: &mut String);

    /// This value serialized as a standalone JSON string.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// Appends a JSON string literal (with escaping) to `out`.
pub fn write_escaped(s: &str, out: &mut String) {
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

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_escaped(self, out);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_escaped(self, out);
    }
}

macro_rules! int_to_json {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )+};
}

int_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            // `{:?}` prints the shortest representation that parses
            // back to the same f64 (and always includes `.0` for
            // integral values, keeping the token a JSON number).
            let _ = write!(out, "{self:?}");
        } else {
            // JSON has no NaN/Infinity.
            out.push_str("null");
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (*self).write_json(out);
    }
}

/// Incremental JSON object writer. Fields serialize in insertion
/// order; keys are escaped.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject { buf: String::new() }
    }

    /// Appends one `"name":value` member.
    pub fn field(&mut self, name: &str, value: &dyn ToJson) -> &mut Self {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        write_escaped(name, &mut self.buf);
        self.buf.push(':');
        value.write_json(&mut self.buf);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(&mut self) -> String {
        format!("{{{}}}", self.buf)
    }

    /// Closes the object, appending the JSON text to `out`.
    pub fn finish_into(&mut self, out: &mut String) {
        out.push('{');
        out.push_str(&self.buf);
        out.push('}');
    }
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// Deepest array/object nesting the reader accepts. The workspace's
/// [`ToJson`] types nest a handful of levels; the bound keeps hostile
/// input (a line of 200 000 `[`) from overflowing the reader's stack.
const MAX_DEPTH: usize = 128;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its source text so the caller picks the type:
    /// `"12".parse::<u64>()` succeeds, `"1.5"` and `"-3"` do not.
    Number(&'a str),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Array(Vec<Value<'a>>),
    /// An object's members in source order, repeated keys included.
    Object(Vec<(String, Value<'a>)>),
}

/// Parses `text` as exactly one JSON value (with optional surrounding
/// whitespace). Returns `None` for malformed input, for nesting deeper
/// than 128 arrays/objects, and for `\u` escapes naming a UTF-16
/// surrogate (a decoded string is a Rust `String`, which cannot hold
/// one).
pub fn parse(text: &str) -> Option<Value<'_>> {
    let mut pos = 0usize;
    skip_ws(text.as_bytes(), &mut pos);
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    (pos == text.len()).then_some(value)
}

/// Checks that `text` is exactly one JSON value [`parse`] accepts.
/// Used by tests and the bench harness to guard emitted report lines.
pub fn validate(text: &str) -> bool {
    parse(text).is_some()
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `*pos`, which sits inside `depth` arrays or
/// objects.
fn parse_value<'a>(t: &'a str, pos: &mut usize, depth: usize) -> Option<Value<'a>> {
    let b = t.as_bytes();
    match b.get(*pos)? {
        b'{' | b'[' if depth == MAX_DEPTH => None,
        b'{' => parse_object(t, pos, depth + 1),
        b'[' => parse_array(t, pos, depth + 1),
        b'"' => parse_string(t, pos).map(Value::Str),
        b't' => parse_lit(b, pos, b"true").then_some(Value::Bool(true)),
        b'f' => parse_lit(b, pos, b"false").then_some(Value::Bool(false)),
        b'n' => parse_lit(b, pos, b"null").then_some(Value::Null),
        _ => parse_number(t, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        true
    } else {
        false
    }
}

/// Parses the string literal opening at `*pos`, decoding its escapes.
fn parse_string(t: &str, pos: &mut usize) -> Option<String> {
    let b = t.as_bytes();
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    let mut run = *pos; // start of the pending unescaped run
    loop {
        match *b.get(*pos)? {
            b'"' => {
                out.push_str(&t[run..*pos]);
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                out.push_str(&t[run..*pos]);
                let c = match *b.get(*pos + 1)? {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'b' => '\u{8}',
                    b'f' => '\u{c}',
                    b'n' => '\n',
                    b'r' => '\r',
                    b't' => '\t',
                    b'u' => {
                        let hex = t.get(*pos + 2..*pos + 6)?;
                        if !hex.bytes().all(|h| h.is_ascii_hexdigit()) {
                            return None;
                        }
                        *pos += 4;
                        char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                    }
                    _ => return None,
                };
                out.push(c);
                *pos += 2;
                run = *pos;
            }
            c if c < 0x20 => return None,
            _ => *pos += 1,
        }
    }
}

fn parse_number<'a>(t: &'a str, pos: &mut usize) -> Option<Value<'a>> {
    let b = t.as_bytes();
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        *pos > from
    };
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    if !digits(pos) {
        return None;
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(pos) {
            return None;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(pos) {
            return None;
        }
    }
    Some(Value::Number(&t[start..*pos]))
}

fn parse_array<'a>(t: &'a str, pos: &mut usize, depth: usize) -> Option<Value<'a>> {
    let b = t.as_bytes();
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Value::Array(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(parse_value(t, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Value::Array(items));
            }
            _ => return None,
        }
    }
}

fn parse_object<'a>(t: &'a str, pos: &mut usize, depth: usize) -> Option<Value<'a>> {
    let b = t.as_bytes();
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Value::Object(members));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return None;
        }
        let key = parse_string(t, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return None;
        }
        *pos += 1;
        skip_ws(b, pos);
        members.push((key, parse_value(t, pos, depth)?));
        skip_ws(b, pos);
        match b.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Value::Object(members));
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_serialize() {
        assert_eq!(true.to_json(), "true");
        assert_eq!(42u32.to_json(), "42");
        assert_eq!((-7i64).to_json(), "-7");
        assert_eq!(0.5f64.to_json(), "0.5");
        assert_eq!(1.0f64.to_json(), "1.0");
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(f64::INFINITY.to_json(), "null");
        assert_eq!("hi".to_json(), "\"hi\"");
        assert_eq!(Option::<u32>::None.to_json(), "null");
        assert_eq!(Some(3u32).to_json(), "3");
        assert_eq!(vec![1u32, 2, 3].to_json(), "[1,2,3]");
        assert_eq!([1u64, 2].to_json(), "[1,2]");
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for v in [0.1, 1.0 / 3.0, 1e-300, 123456.789, f64::MIN_POSITIVE] {
            let text = v.to_json();
            assert_eq!(text.parse::<f64>().unwrap(), v, "{text}");
            assert!(validate(&text), "{text}");
        }
    }

    #[test]
    fn strings_escape_control_characters() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let text = nasty.to_json();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert!(validate(&text));
    }

    #[test]
    fn object_builder_orders_fields() {
        let mut obj = JsonObject::new();
        obj.field("a", &1u32)
            .field("b", &"two")
            .field("c", &vec![3.0f64]);
        let text = obj.finish();
        assert_eq!(text, r#"{"a":1,"b":"two","c":[3.0]}"#);
        assert!(validate(&text));
    }

    #[test]
    fn empty_object_is_valid() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert!(validate("{}"));
    }

    #[test]
    fn validator_accepts_well_formed_inputs() {
        for ok in [
            "null",
            "true",
            "-12.5e3",
            "\"str\"",
            "[]",
            "[1,[2,{}],\"x\"]",
            r#"{"k":{"nested":[null,false]}}"#,
            " { \"k\" : 1 } ",
        ] {
            assert!(validate(ok), "{ok}");
        }
    }

    #[test]
    fn parser_decodes_escapes_and_keeps_nesting() {
        let num = |n| Value::Number(n);
        assert_eq!(
            parse(r#"{"a":"x\"y","b":12,"c":1.5}"#),
            Some(Value::Object(vec![
                ("a".to_owned(), Value::Str("x\"y".to_owned())),
                ("b".to_owned(), num("12")),
                ("c".to_owned(), num("1.5")),
            ]))
        );
        assert_eq!("12".parse::<u64>(), Ok(12));
        assert!("1.5".parse::<u64>().is_err(), "floats are not integers");
        // Nested members come back as nested values, so a caller that
        // wants flat records can tell and reject them.
        assert_eq!(
            parse(r#"{"a":{"n":1}}"#),
            Some(Value::Object(vec![(
                "a".to_owned(),
                Value::Object(vec![("n".to_owned(), num("1"))])
            )]))
        );
        assert_eq!(
            parse(r#"{"a":[1]}"#),
            Some(Value::Object(vec![(
                "a".to_owned(),
                Value::Array(vec![num("1")])
            )]))
        );
        assert_eq!(parse("{}"), Some(Value::Object(Vec::new())));
        assert_eq!(
            parse(r#"["\u0041\/\n",true,null]"#),
            Some(Value::Array(vec![
                Value::Str("A/\n".to_owned()),
                Value::Bool(true),
                Value::Null
            ]))
        );
    }

    #[test]
    fn nesting_past_the_bound_is_rejected_not_a_stack_overflow() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(validate(&nested(MAX_DEPTH)));
        assert!(!validate(&nested(MAX_DEPTH + 1)));
        assert!(!validate(&nested(200_000)));
        let objects = "{\"k\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(!validate(&objects));
    }

    #[test]
    fn surrogate_escapes_are_rejected() {
        // A decoded string is a Rust `String`, which has no surrogates.
        assert!(!validate(r#""\ud800""#));
        assert!(!validate(r#""\ud83d\ude00""#));
        assert!(validate(r#""\u00e9""#));
    }

    #[test]
    fn validator_rejects_malformed_inputs() {
        for bad in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"k\"}",
            "{\"k\":}",
            "{k:1}",
            "\"unterminated",
            "01abc",
            "1 2",
            "nul",
            "\"bad\\q\"",
            "[1][2]",
            "-",
            "1.",
            "1e",
        ] {
            assert!(!validate(bad), "{bad}");
        }
    }
}

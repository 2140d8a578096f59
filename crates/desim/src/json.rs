//! The one JSON codec every artifact is built, rendered and checked with.
//!
//! A [`Json`] object keeps its members' order and a number keeps its text,
//! so `render(parse(s)) == s` for anything [`Json::render`] wrote. Floats
//! enter only through [`Json::fixed`] or [`Json::float`] (non-finite ones
//! become `null`); other scalars convert with `From`. The layout is one
//! rule: compact, except that an array element starts a new line when the
//! array is a member of the root object or the element itself contains an
//! array; a document ends with one `\n`. [`Json::parse`] is strict RFC 8259.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, held as its JSON text.
    Number(String),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; members keep their insertion order.
    Object(Vec<(String, Json)>),
}

/// How deep the parser nests before it gives up (artifacts nest ~8 deep).
const MAX_DEPTH: usize = 128;

impl Json {
    /// An object of `(key, value)` members, in order.
    pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        let members = members.into_iter().map(|(k, v)| (k.to_string(), v));
        Json::Object(members.collect())
    }

    /// `v` with exactly `decimals` digits after the point.
    pub fn fixed(v: f64, decimals: usize) -> Json {
        Json::finite(v, || format!("{v:.decimals$}"))
    }

    /// `v` in the shortest text that reads back as the same `f64`.
    pub fn float(v: f64) -> Json {
        Json::finite(v, || format!("{v}"))
    }

    fn finite(v: f64, text: impl FnOnce() -> String) -> Json {
        if v.is_finite() {
            Json::Number(text())
        } else {
            Json::Null
        }
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Result<&Json, String> {
        let found = match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key),
            _ => None,
        };
        found
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing \"{key}\""))
    }

    /// The items of an array.
    pub fn as_array(&self) -> Result<&[Json], String> {
        match self {
            Json::Array(items) => Ok(items),
            _ => Err("expected an array".to_string()),
        }
    }

    /// The text of a string.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::String(s) => Ok(s),
            _ => Err("expected a string".to_string()),
        }
    }

    /// A boolean.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err("expected a boolean".to_string()),
        }
    }

    /// A number.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Json::Number(text) => text.parse().map_err(|_| format!("bad number {text}")),
            _ => Err("expected a number".to_string()),
        }
    }

    /// A non-negative integer.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::Number(text) => text.parse().map_err(|_| format!("not a count: {text}")),
            _ => Err("expected a count".to_string()),
        }
    }

    /// The document text, ended by one `\n`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, matches!(self, Json::Object(_)));
        out.push('\n');
        out
    }

    /// `top` marks the root object and the arrays that are its members.
    fn write(&self, out: &mut String, top: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(text) => out.push_str(text),
            Json::String(s) => write_string(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if top || item.holds_array() {
                        out.push('\n');
                    }
                    item.write(out, false);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write(out, top && matches!(value, Json::Array(_)));
                }
                out.push('}');
            }
        }
    }

    /// Whether an array sits anywhere inside this value.
    fn holds_array(&self) -> bool {
        let is_or_holds = |v: &Json| matches!(v, Json::Array(_)) || v.holds_array();
        match self {
            Json::Array(items) => items.iter().any(is_or_holds),
            Json::Object(members) => members.iter().any(|(_, v)| is_or_holds(v)),
            _ => false,
        }
    }

    /// Parses one RFC 8259 document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser { text, pos: 0 };
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.pos < text.len() {
            return Err(parser.error("trailing characters"));
        }
        Ok(value)
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! from {
    ($($t:ty: $v:ident => $json:expr;)*) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $json
            }
        }
    )*};
}

from! {
    bool: v => Json::Bool(v);
    &str: v => Json::String(v.to_string());
    String: v => Json::String(v);
    i32: v => Json::Number(v.to_string());
    u32: v => Json::Number(v.to_string());
    u64: v => Json::Number(v.to_string());
    usize: v => Json::Number(v.to_string());
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `byte` after any whitespace, if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_whitespace();
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            return Ok(());
        }
        Err(self.error(&format!("expected '{}'", byte as char)))
    }

    /// The next byte, consumed.
    fn next(&mut self) -> Option<u8> {
        let byte = self.peek();
        self.pos += 1;
        byte
    }

    /// Parses `item (',' item)* close`, or `close` alone, after the opener.
    fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.eat(close) {
                return Ok(());
            }
            self.expect(b',')?;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.list(b'}', |p| {
                    p.skip_whitespace();
                    let key = p.string()?;
                    p.expect(b':')?;
                    members.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Object(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.list(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Array(items))
            }
            Some(b'"') => self.string().map(Json::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'n') => self.word("null", Json::Null),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            _ => Err(self.error("expected a value")),
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.error("expected a value"));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// Consumes a run of digits; errors when there is none.
    fn digits(&mut self) -> Result<(), String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a digit"));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.pos += usize::from(self.peek() == Some(b'-'));
        // A leading zero stands alone: `01` ends the number after the `0`.
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            self.digits()?;
        }
        Ok(Json::Number(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte;
            // all three are ASCII, so the run ends on a char boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.next() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err(self.error("raw control character in a string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// The character the escape after a backslash stands for.
    fn escape(&mut self) -> Result<char, String> {
        Ok(match self.next() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) {
                    // A high surrogate must be followed by a low one.
                    let paired = self.text[self.pos..].starts_with("\\u");
                    self.pos += if paired { 2 } else { 0 };
                    let low = if paired { self.hex4()? } else { 0 };
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.error("lone surrogate"));
                    }
                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                }
                // `from_u32` refuses a lone low surrogate.
                char::from_u32(code).ok_or_else(|| self.error("lone surrogate"))?
            }
            _ => return Err(self.error("bad escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.text.get(self.pos..self.pos + 4).unwrap_or_default();
        if digits.len() < 4 || !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.error("expected four hex digits"));
        }
        self.pos += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_breaks_root_arrays_and_array_holders_only() {
        let doc = Json::object([
            ("rows", Json::Array(vec![1u64.into(), 2u64.into()])),
            (
                "nested",
                Json::object([(
                    "cells",
                    Json::Array(vec![
                        Json::object([("xs", Json::Array(vec![true.into()]))]),
                        Json::object([("x", Json::Null)]),
                    ]),
                )]),
            ),
        ]);
        assert_eq!(
            doc.render(),
            "{\"rows\":[\n1,\n2],\"nested\":{\"cells\":[\n{\"xs\":[true]},{\"x\":null}]}}\n"
        );
        // A root array is not a member of a root object.
        assert_eq!(
            Json::Array(vec![1u64.into(), "a".into()]).render(),
            "[1,\"a\"]\n"
        );
    }

    #[test]
    fn numbers_keep_their_text_and_non_finite_floats_are_null() {
        assert_eq!(Json::fixed(2.0, 2).render(), "2.00\n");
        assert_eq!(Json::fixed(0.12345, 4).render(), "0.1235\n");
        assert_eq!(Json::float(1.0).render(), "1\n");
        assert_eq!(Json::float(0.1 + 0.2).render(), "0.30000000000000004\n");
        assert_eq!(Json::float(f64::INFINITY), Json::Null);
        assert_eq!(Json::fixed(f64::NAN, 2), Json::Null);
        let text = "{\"a\":1.50,\"b\":-0,\"c\":2e-3,\"d\":[]}\n";
        let doc = Json::parse(text).unwrap();
        assert_eq!(doc.get("a"), Ok(&Json::Number("1.50".into())));
        assert_eq!(doc.get("c").and_then(Json::as_f64), Ok(0.002));
        assert_eq!(doc.render(), text);
    }

    #[test]
    fn strings_escape_on_the_way_out_and_decode_on_the_way_in() {
        let s = "q\"b\\n\nr\rt\tc\u{1}é😀";
        let text = Json::from(s).render();
        assert_eq!(text, "\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001é😀\"\n");
        assert_eq!(Json::parse(&text), Ok(Json::from(s)));
        assert_eq!(
            Json::parse("\"\\/\\b\\f\\u00e9\\ud83d\\ude00\""),
            Ok(Json::from("/\u{8}\u{c}é😀"))
        );
    }

    #[test]
    fn parser_rejects_what_rfc_8259_forbids() {
        for bad in [
            "[1,2,]",
            "{\"a\":1,}",
            "NaN",
            "[NaN]",
            "01",
            "[-01]",
            "1.",
            "\"tab\there\"",
            "\"line\nbreak\"",
            "\"unterminated",
            "[1,2",
            "{\"a\":1",
            "{\"a\" 1}",
            "{} x",
            "[1] [2]",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "\"\\x\"",
            "",
            "tru",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn accessors_name_what_is_missing_or_mistyped() {
        let doc = Json::parse(" {\"n\": 3, \"s\": \"x\", \"b\": false, \"a\": [null]} ").unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_u64), Ok(3));
        assert_eq!(doc.get("s").and_then(Json::as_str), Ok("x"));
        assert_eq!(doc.get("b").and_then(Json::as_bool), Ok(false));
        assert_eq!(doc.get("a").and_then(Json::as_array), Ok(&[Json::Null][..]));
        assert_eq!(doc.get("zz"), Err("missing \"zz\"".to_string()));
        assert!(doc.get("s").and_then(Json::as_f64).is_err());
        assert!(Json::fixed(1.5, 1).as_u64().is_err());
        assert!(doc.get("a").and_then(|a| a.get("x")).is_err());
        assert_eq!(Json::from(None::<u64>), Json::Null);
    }
}

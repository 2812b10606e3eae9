//! The workspace's one JSON module: a string [`escape`] for writers and a
//! recursive-descent [`parse`] for readers.
//!
//! The workspace builds offline, so instead of serde every document — the
//! obs exporters, the serve protocol, the fleet journal and telemetry, the
//! bench trajectory — is written by hand with [`escape`] for its strings,
//! and everything read back goes through [`parse`]. The parser is strict
//! RFC 8259 (no raw control characters in strings, exact number grammar,
//! no trailing data), caps nesting depth, and runs in time linear in its
//! input, so it is safe on hostile client lines and torn journal tails.

use std::fmt;

/// Nesting depth cap: every document in the workspace is shallow, so
/// anything deeper than this is hostile or corrupt input.
const MAX_DEPTH: u32 = 32;

/// Escapes `s` for inclusion inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, preserving key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object; `None` for other value kinds.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric payload as a u32, if it fits.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|n| u32::try_from(n).ok())
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure with the byte offset of the first problem.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// What was wrong.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
/// The first syntax problem found, with its byte offset.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { src: input, bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { message: message.to_owned(), at: self.pos }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.bytes.get(self.pos) == Some(&c);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    /// One or more ASCII digits.
    fn digits(&mut self) -> Result<(), ParseError> {
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            Err(self.err("expected a digit"))
        } else {
            Ok(())
        }
    }

    /// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| ParseError { message: format!("invalid number `{text}`"), at: start })
    }

    /// Copies each unescaped run in one slice, so the scan is linear in
    /// the string's length. Runs end only at ASCII bytes (`"`, `\` or a
    /// control character), which are always char boundaries.
    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(self.bytes.get(self.pos), Some(&c) if c != b'"' && c != b'\\' && c >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed by any reader;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character")),
            }
        }
    }

    fn array(&mut self, depth: u32) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `]`"));
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Obj(fields));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `}`"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shaped_objects() {
        let v = parse(r#"{"id":3,"cmd":"run","max_steps":1024,"opts":{"deep":[1,2,-3.5]}}"#)
            .expect("parses");
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("cmd").and_then(Value::as_str), Some("run"));
        assert_eq!(v.get("max_steps").and_then(Value::as_u64), Some(1024));
        let deep = v.get("opts").and_then(|o| o.get("deep")).and_then(Value::as_arr).unwrap();
        assert_eq!(deep.len(), 3);
        assert_eq!(deep[2], Value::Num(-3.5));
    }

    #[test]
    fn resolves_escapes_and_rejects_garbage() {
        let v = parse(r#""a\n\"bAé ü""#).expect("string parses");
        assert_eq!(v.as_str(), Some("a\n\"bAé ü"));
        for bad in [
            "{",
            "{\"a\":}",
            "[1,2,]",
            "{} trailing",
            "nul",
            "\"unterminated",
            "\"raw\u{1}control\"",
            r#""\u+041""#,
            r#""\u00g1""#,
            r#""\x""#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(64) + &"]".repeat(64);
        assert!(parse(&deep).is_err(), "depth limit enforced");
    }

    #[test]
    fn number_grammar_is_exact() {
        for (ok, n) in [("0", 0.0), ("-0", 0.0), ("12", 12.0), ("1.5e2", 150.0), ("2E-1", 0.2)] {
            assert_eq!(parse(ok).unwrap().as_f64(), Some(n), "{ok}");
        }
        for bad in ["01", "1.", ".5", "-", "1e", "1e+", "+1", "--1", "1.2.3", "0x10"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn numeric_accessors_guard_range_and_kind() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("4294967295").unwrap().as_u32(), Some(u32::MAX));
        assert_eq!(parse("4294967296").unwrap().as_u32(), None);
        assert_eq!(parse("true").unwrap().as_bool(), Some(true));
        assert_eq!(parse("\"7\"").unwrap().as_f64(), None);
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let s = "q\"b\\s\n\r\t\u{1}\u{1f} ünï";
        let quoted = format!("\"{}\"", escape(s));
        assert!(!quoted.contains('\n'), "one line: {quoted}");
        assert_eq!(parse(&quoted).unwrap().as_str(), Some(s));
    }
}

//! The workspace's one JSON module: one reader, one string escaper, one
//! number formatter. Every report, journal, stats, trace and protocol
//! byte is written through [`escape_into`] / [`json_f64`] and read back
//! through [`Value::parse`], so what the format *is* lives here and
//! nowhere else.
//!
//! The reader accepts exactly RFC 8259 — number grammar, string escapes
//! (surrogate pairs included), no raw control characters in strings, no
//! trailing bytes — and reports the byte offset of the first violation.
//! Two properties matter more than generality:
//!
//! - **Numbers are raw tokens.** A [`Value::Num`] stores the literal
//!   characters from the input, so a `u64` campaign seed round-trips
//!   losslessly — it is never squeezed through an `f64` (which silently
//!   mangles integers above 2^53).
//! - **Objects preserve insertion order.** Encoding a decoded object
//!   reproduces the original bytes of any compact document, which keeps
//!   record payloads comparable byte for byte.

use std::fmt::{self, Write as _};

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token (lossless for any integer width).
    Num(String),
    /// A string (decoded — escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

/// A syntax error with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Checks that `input` is exactly one well-formed JSON value (plus
/// surrounding whitespace): parse and discard.
///
/// # Errors
/// The first syntax error, with its byte offset.
pub fn validate(input: &str) -> Result<(), ParseError> {
    Value::parse(input).map(drop)
}

impl Value {
    /// Parses one JSON document; trailing non-whitespace is an error.
    /// Containers nested deeper than [`MAX_DEPTH`] are refused — the
    /// parser is recursive descent, and a hostile line of a million `[`s
    /// must get an error, not a stack overflow.
    ///
    /// # Errors
    /// The first syntax error, with its byte offset.
    pub fn parse(s: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            src: s,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != s.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// A number value from anything that displays as a JSON number.
    pub fn num(n: impl ToString) -> Value {
        Value::Num(n.to_string())
    }

    /// Object field lookup (first match; `None` for non-objects too).
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

    /// The number token parsed as `u64`, if this is an integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number token parsed as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (no whitespace), objects in
    /// insertion order, number tokens verbatim.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(raw) => out.push_str(raw),
            Value::Str(s) => escape_into(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.encode_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a JSON string literal (quotes and escapes included):
/// `"` and `\` backslash-escaped, newline, carriage return and tab by
/// letter, every other control character as `\u00XX`, everything else
/// verbatim.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    // Every escaped character is ASCII, so cutting the unescaped runs at
    // their byte positions always lands on char boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// `s` as a standalone JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(s, &mut out);
    out
}

/// `v` as a JSON number, for `write!`/`format!`: shortest round-trip
/// form; non-finite values (not representable in JSON) become `null`.
pub fn json_f64(v: f64) -> impl fmt::Display {
    struct Num(f64);
    impl fmt::Display for Num {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if self.0.is_finite() {
                write!(f, "{}", self.0)
            } else {
                f.write_str("null")
            }
        }
    }
    Num(v)
}

/// Deepest container nesting [`Value::parse`] accepts. Far beyond any
/// value the stack emits, far below any stack limit.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Parses one container (the opening bracket is at `pos`) one level
    /// deeper.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            match self.peek() {
                Some(b'0'..=b'9') => self.digits(),
                _ => return Err(self.err("expected digit after '.'")),
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            match self.peek() {
                Some(b'0'..=b'9') => self.digits(),
                _ => return Err(self.err("expected digit in exponent")),
            }
        }
        // The token is *stored*, never converted, so wide integers stay
        // exact.
        Ok(Value::Num(self.src[start..self.pos].to_owned()))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            // Consume the whole run up to the next quote, escape or
            // control byte in one go. All of those are ASCII, never UTF-8
            // continuation bytes, so the run ends on a char boundary.
            // (Per-char consumption would be O(n²) on long strings — a
            // hostile megabyte string must cost one pass.)
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.pos += 1;
            }
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// Decodes one escape; `pos` is just past the backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                // Surrogate errors point at the escape's backslash.
                let at = self.pos - 1;
                let surrogate = |message| ParseError {
                    offset: at,
                    message,
                };
                self.pos += 1;
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // A high surrogate: the low half must follow.
                    let lo = if self.src[self.pos..].starts_with("\\u") {
                        self.pos += 2;
                        self.hex4()?
                    } else {
                        0
                    };
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(surrogate("high surrogate without a low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                return char::from_u32(code).ok_or(surrogate("lone low surrogate"));
            }
            _ => return Err(self.err("invalid escape character")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = self.peek().and_then(|b| (b as char).to_digit(16));
            code = code * 16 + digit.ok_or_else(|| self.err("invalid \\u escape"))?;
            self.pos += 1;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Compact documents: accepted, and re-encoded verbatim.
    const VERBATIM: &[&str] = &[
        "null",
        "true",
        "0",
        "-0",
        "-1.5e-3",
        "123.456",
        "1E+2",
        "9223372036854775811", // 2^63 + 3: unrepresentable in f64
        "[]",
        "{}",
        "\"\"",
        r#"{"a":1,"b":[true,null,"x\n"],"c":{"d":-2.5e3}}"#,
        r#"{"a":{"b":[1,"x",true]},"c":-0.5}"#,
        r#"{"seed":9223372036854775811}"#,
    ];

    /// Accepted documents whose compact re-encoding differs (whitespace,
    /// escapes the writer spells differently).
    const NORMALISED: &[(&str, &str)] = &[
        (" false ", "false"),
        ("[1, 2, [3, {\"a\": null}]]", r#"[1,2,[3,{"a":null}]]"#),
        (" { \"a\" : [ 1 , 2 ] } ", r#"{"a":[1,2]}"#),
        ("\"hi \\n \\u00e9\"", "\"hi \\n é\""),
        (r#""\/\b\f\ud83d\ude00""#, "\"/\\u0008\\u000c😀\""),
    ];

    /// Rejected documents with the byte offset of the first error.
    const REJECTED: &[(&str, usize)] = &[
        ("", 0),
        ("nul", 0),
        ("{", 1),
        ("01", 1),
        ("1.", 2),
        ("-.5", 1),
        ("00.1e1", 1),
        ("1e", 2),
        ("-", 1),
        ("+1", 0),
        ("1 2", 2),
        ("[1,]", 3),
        ("{\"a\":}", 5),
        ("{\"a\"}", 4),
        ("{\"a\":1,}", 7),
        ("{a:1}", 1),
        ("\"unterminated", 13),
        ("\"bad \\q escape\"", 6),
        ("\"\\u12g4\"", 5),
        ("\"a\u{1}b\"", 2), // raw control byte inside a string
        ("\"\\udc00\"", 1), // lone low surrogate
        ("\"\\ud83d\"", 1), // high surrogate, nothing after
        ("\"\\ud83d\\u0041\"", 1),
        ("[1] extra", 4),
        ("\u{1}", 0),
    ];

    #[test]
    fn accepts_valid_documents() {
        let same = VERBATIM.iter().map(|d| (*d, *d));
        for (doc, encoded) in same.chain(NORMALISED.iter().copied()) {
            let v = Value::parse(doc).unwrap_or_else(|e| panic!("should accept {doc}: {e}"));
            assert_eq!(v.encode(), encoded, "{doc}");
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for &(doc, offset) in REJECTED {
            let err = Value::parse(doc).expect_err(doc);
            assert_eq!(err.offset, offset, "{doc:?}: {err}");
            assert_eq!(validate(doc), Err(err), "validate is parse-and-discard");
        }
    }

    #[test]
    fn error_reports_offset() {
        let err = validate("[1, x]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nest = |n: usize| "[".repeat(n) + "1" + &"]".repeat(n);
        assert!(Value::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Value::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((err.offset, err.message.contains("nesting")), (128, true));
        // A megabyte of brackets is refused with a plain error.
        assert!(Value::parse(&"[".repeat(1 << 20)).is_err());
        let err = Value::parse(&"{\"a\":".repeat(10_000)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn helpers_escape_and_format() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\r\t\u{1}\u{1f}é"), "\"\\r\\t\\u0001\\u001fé\"");
        assert_eq!(json_f64(0.5).to_string(), "0.5");
        assert_eq!(json_f64(3.0).to_string(), "3");
        assert_eq!(json_f64(f64::NAN).to_string(), "null");
        assert_eq!(json_f64(f64::INFINITY).to_string(), "null");
        let mut out = String::from("k=");
        escape_into("a b", &mut out);
        assert_eq!(out, "k=\"a b\"");
    }

    #[test]
    fn any_string_survives_escape_then_parse() {
        // Controls, quotes, backslashes, Latin-1, BMP and astral code
        // points, in seeded random mixtures.
        let alphabet: Vec<char> =
            "\"\\/\n\r\t\0\u{1}\u{8}\u{c}\u{1b}\u{1f} au0\u{7f}é\u{2028}\u{ffff}😀\u{10ffff}"
                .chars()
                .collect();
        let mut rng = Rng::seed_from_u64(0x15_0A7E);
        for i in 0..10_000 {
            let len = rng.gen_range(0..24);
            let s: String = (0..len)
                .map(|_| alphabet[rng.gen_range(0..alphabet.len() as u64) as usize])
                .collect();
            let lit = json_str(&s);
            assert!(!lit.bytes().any(|b| b < 0x20), "iteration {i}: {lit:?}");
            assert_eq!(Value::parse(&lit), Ok(Value::Str(s)), "iteration {i}");
        }
    }
}

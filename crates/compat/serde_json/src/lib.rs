//! Offline stand-in for `serde_json`, working over the workspace serde
//! facade's [`serde::Value`] tree: `to_string` / `to_string_pretty` render
//! it, `from_str` parses JSON text back into any [`serde::Deserialize`]
//! type.
//!
//! The parser sits under every durable tier (snapshots, experiment cells,
//! queue messages, `trace:` workloads), some of whose input comes from
//! outside the program, so it is linear in document size — strings are
//! copied run by run, never re-validated — holds to the JSON grammar (no
//! `1.`, `1e`, `01`; `\u` surrogate pairs decode, lone surrogates do
//! not) except that raw control characters inside strings are accepted,
//! and refuses nesting deeper than 128 levels with an ordinary [`Error`]
//! rather than overflowing the stack.

pub use serde::Value;
use std::fmt;

/// A serialization or parse failure.
#[derive(Clone, Debug, PartialEq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Renders a value as compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_json())
}

/// Renders a value as indented JSON.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(
    value: &T,
) -> Result<String, Error> {
    Ok(value.to_value().to_json_pretty())
}

/// Converts a value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Parses JSON text into any deserializable type.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value(text)?;
    T::from_value(&value).map_err(|e| Error(e.0))
}

/// How deep arrays and objects may nest. The parser recurses once per
/// level, so without a cap a hostile `[[[[…` document overflows the stack
/// and aborts the process; nothing the workspace writes nests past ten.
const MAX_DEPTH: usize = 128;

/// Parses JSON text into a [`Value`] tree.
///
/// # Errors
/// Malformed text, or nesting deeper than 128 levels, with the byte
/// offset where parsing stopped.
pub fn parse_value(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
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
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Runs an array or object parser one level down, within [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, Error>,
    ) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    /// Skips a run of ASCII digits; `false` if there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, kept as
    /// its literal text.
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        if !self.digits() {
            return Err(self.err("malformed number"));
        }
        if self.pos - int_start > 1 && self.text.as_bytes()[int_start] == b'0' {
            self.pos = int_start + 1;
            return Err(self.err("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err(self.err("expected a digit after the decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(self.err("expected a digit in the exponent"));
            }
        }
        Ok(Value::Number(self.text[start..self.pos].to_string()))
    }

    /// The four hex digits of a `\u` escape starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, Error> {
        let hex = self
            .text
            .as_bytes()
            .get(at..at + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        hex.iter()
            .try_fold(0u32, |code, b| Some(code * 16 + char::from(*b).to_digit(16)?))
            .ok_or_else(|| self.err("bad \\u escape"))
    }

    /// A `\u` escape, `pos` on the `u`: one BMP code point, or a
    /// high/low surrogate pair (`\ud83d\ude00`) naming an astral one.
    /// Leaves `pos` on the escape's last hex digit.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let mut code = self.hex4(self.pos + 1)?;
        if (0xD800..0xDC00).contains(&code) {
            let low = match self.text.as_bytes().get(self.pos + 5..self.pos + 7) {
                Some(b"\\u") => self.hex4(self.pos + 7)?,
                _ => return Err(self.err("lone surrogate in \\u escape")),
            };
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("lone surrogate in \\u escape"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            self.pos += 6;
        }
        self.pos += 4;
        char::from_u32(code).ok_or_else(|| self.err("lone surrogate in \\u escape"))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one piece:
            // both are ASCII, so the run starts and ends on char boundaries
            // of the (already valid) input text.
            let rest = &self.text[self.pos..];
            let run = rest.bytes().position(|b| matches!(b, b'"' | b'\\'));
            let run = &rest[..run.unwrap_or(rest.len())];
            out.push_str(run);
            self.pos += run.len();
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
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
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
            }
        }
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
                _ => return Err(self.err("expected , or ] in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected , or } in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_reprints() {
        let text = r#"{"a":1,"b":[true,null,"x\n"],"c":{"d":-2.5e3}}"#;
        let v = parse_value(text).unwrap();
        assert_eq!(v.to_json(), text);
    }

    #[test]
    fn round_trips_typed() {
        let xs = vec![1u64, 2, u64::MAX];
        let s = to_string(&xs).unwrap();
        let back: Vec<u64> = from_str(&s).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value("{").is_err());
        assert!(parse_value("[1,]").is_err());
        assert!(parse_value("12 34").is_err());
        assert!(parse_value("nul").is_err());
    }

    #[test]
    fn unicode_and_escapes() {
        let v = parse_value(r#""café λ""#).unwrap();
        assert_eq!(v, Value::String("café λ".into()));
    }
}

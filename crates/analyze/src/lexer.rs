//! A small comment/string-aware Rust lexer with test-scope tracking.
//!
//! The lint rules need three things no plain `grep` can give them:
//!
//! * **string/comment awareness** — `SystemTime::now()` inside a doc
//!   comment or a string literal is not a clock read, and spec strings
//!   live *inside* literals;
//! * **test-scope tracking** — `#[cfg(test)]`-gated items and `mod tests`
//!   blocks are exempt from the library-code rules;
//! * **inline allow annotations** — a `lint:allow(rule-a,rule-b)` comment
//!   suppresses those rules on its own line and the following line.
//!
//! This is deliberately *not* a full Rust grammar: it tokenizes
//! identifiers, numbers, string/char literals, lifetimes, and single-char
//! punctuation with line numbers, and layers a brace-depth scanner on top
//! for `#[cfg(test)]` / `#[test]` / `mod tests` scopes. That is exactly
//! enough for token-pattern rules, and small enough to audit.

use std::collections::{BTreeMap, BTreeSet};

/// One lexed token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword.
    Ident(String),
    /// A numeric literal (verbatim text).
    Num(String),
    /// A cooked or raw string literal (unquoted contents; escape
    /// sequences are left verbatim — rules only need substring checks and
    /// spec strings never contain escapes).
    Str(String),
    /// A character literal.
    Char,
    /// A lifetime (`'a`).
    Lifetime,
    /// A single punctuation character.
    Punct(char),
}

/// A token plus its location and scope classification.
#[derive(Clone, Debug)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
    /// Whether the token sits in test-only code (`#[cfg(test)]` item,
    /// `#[test]` function, or a `mod tests` block).
    pub in_test: bool,
}

/// A fully lexed source file.
#[derive(Clone, Debug, Default)]
pub struct LexedFile {
    /// All tokens in source order.
    pub tokens: Vec<Token>,
    /// Per-line rule suppressions from `lint:allow(...)` comments: an
    /// annotation covers its own line and the next line, so it can sit at
    /// the end of the offending line or on a line of its own above it.
    pub allows: BTreeMap<u32, BTreeSet<String>>,
}

impl LexedFile {
    /// Whether `rule` is suppressed on `line` by an inline annotation.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.get(&line).is_some_and(|rules| rules.contains(rule))
    }
}

/// Lexes Rust source text.
pub fn lex(source: &str) -> LexedFile {
    let mut raw = RawLexer::new(source);
    raw.run();
    let tokens = mark_test_scopes(raw.tokens);
    LexedFile { tokens, allows: raw.allows }
}

struct RawLexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
    allows: BTreeMap<u32, BTreeSet<String>>,
}

impl<'a> RawLexer<'a> {
    fn new(source: &'a str) -> Self {
        RawLexer {
            bytes: source.as_bytes(),
            pos: 0,
            line: 1,
            tokens: Vec::new(),
            allows: BTreeMap::new(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn push(&mut self, tok: Tok, line: u32) {
        self.tokens.push(Token { tok, line, in_test: false });
    }

    fn run(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek_at(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek_at(1) == Some(b'*') => self.block_comment(),
                b'"' => self.cooked_string(),
                b'r' | b'b' => {
                    if !self.raw_or_byte_string() {
                        self.ident();
                    }
                }
                b'\'' => self.char_or_lifetime(),
                c if c.is_ascii_alphabetic() || c == b'_' => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                c => {
                    let line = self.line;
                    self.bump();
                    self.push(Tok::Punct(c as char), line);
                }
            }
        }
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        self.record_allow(text, line);
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let start = self.pos;
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(), self.peek_at(1)) {
                (Some(b'/'), Some(b'*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some(b'*'), Some(b'/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        self.record_allow(text, line);
    }

    /// Parses `lint:allow(rule-a, rule-b)` out of a comment and registers
    /// the rules for the comment's line and the next line.
    fn record_allow(&mut self, comment: &str, line: u32) {
        let Some(idx) = comment.find("lint:allow(") else { return };
        let rest = &comment[idx + "lint:allow(".len()..];
        let Some(end) = rest.find(')') else { return };
        for rule in rest[..end].split(',') {
            let rule = rule.trim().to_string();
            if rule.is_empty() {
                continue;
            }
            for l in [line, line + 1] {
                self.allows.entry(l).or_default().insert(rule.clone());
            }
        }
    }

    fn cooked_string(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        let start = self.pos;
        loop {
            match self.peek() {
                None => break,
                Some(b'\\') => {
                    self.bump();
                    self.bump();
                }
                Some(b'"') => break,
                Some(_) => {
                    self.bump();
                }
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("").to_string();
        self.bump(); // closing quote
        self.push(Tok::Str(text), line);
    }

    /// Attempts `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`; returns
    /// false if the lookahead is a plain identifier starting with r/b.
    fn raw_or_byte_string(&mut self) -> bool {
        let mut off = 1; // past the r/b
        if self.peek() == Some(b'b') && self.peek_at(1) == Some(b'r') {
            off = 2;
        }
        let mut hashes = 0usize;
        while self.peek_at(off + hashes) == Some(b'#') {
            hashes += 1;
        }
        if self.peek_at(off + hashes) != Some(b'"') {
            // `b'x'` byte char: let char lexing handle it.
            if off == 1 && self.peek() == Some(b'b') && self.peek_at(1) == Some(b'\'') {
                self.bump();
                self.char_or_lifetime();
                return true;
            }
            return false;
        }
        let is_raw = self.peek() == Some(b'r') || self.peek_at(1) == Some(b'r');
        let line = self.line;
        for _ in 0..off + hashes + 1 {
            self.bump();
        }
        let start = self.pos;
        let end;
        loop {
            match self.peek() {
                None => {
                    end = self.pos;
                    break;
                }
                Some(b'\\') if !is_raw => {
                    self.bump();
                    self.bump();
                }
                Some(b'"') => {
                    // Raw strings close only on `"` + the right number of
                    // hashes.
                    let mut ok = true;
                    for h in 0..hashes {
                        if self.peek_at(1 + h) != Some(b'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        end = self.pos;
                        self.bump();
                        for _ in 0..hashes {
                            self.bump();
                        }
                        break;
                    }
                    self.bump();
                }
                Some(_) => {
                    self.bump();
                }
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..end]).unwrap_or("").to_string();
        self.push(Tok::Str(text), line);
        true
    }

    fn char_or_lifetime(&mut self) {
        let line = self.line;
        self.bump(); // opening '
                     // Lifetime: 'ident not followed by a closing quote.
        if matches!(self.peek(), Some(c) if c.is_ascii_alphabetic() || c == b'_') {
            let mut off = 1;
            while matches!(self.peek_at(off), Some(c) if c.is_ascii_alphanumeric() || c == b'_')
            {
                off += 1;
            }
            if self.peek_at(off) != Some(b'\'') {
                for _ in 0..off {
                    self.bump();
                }
                self.push(Tok::Lifetime, line);
                return;
            }
        }
        loop {
            match self.peek() {
                None => break,
                Some(b'\\') => {
                    self.bump();
                    self.bump();
                }
                Some(b'\'') => {
                    self.bump();
                    break;
                }
                Some(_) => {
                    self.bump();
                }
            }
        }
        self.push(Tok::Char, line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
            self.bump();
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("").to_string();
        self.push(Tok::Ident(text), line);
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'.')
        {
            // Stop a range expression `0..n` from being eaten as a float.
            if self.peek() == Some(b'.') && self.peek_at(1) == Some(b'.') {
                break;
            }
            self.bump();
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("").to_string();
        self.push(Tok::Num(text), line);
    }
}

/// Marks tokens inside test-only scopes: `#[cfg(test)]` items, `#[test]`
/// functions, and `mod tests` blocks. A pending marker attaches to the
/// next `{...}` block at the same depth; an item that ends with `;`
/// before opening a block (e.g. `#[cfg(test)] use x;`) drops it.
fn mark_test_scopes(mut tokens: Vec<Token>) -> Vec<Token> {
    let mut depth: i32 = 0;
    let mut test_until: Vec<i32> = Vec::new(); // depths owning a test block
    let mut pending_test = false;
    let mut i = 0;
    while i < tokens.len() {
        let is_test_attr = matches!(&tokens[i].tok, Tok::Punct('#'))
            && matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
            && match tokens.get(i + 2).map(|t| &t.tok) {
                // #[test], #[cfg(test)], #[cfg(all(test, ...))] ...
                Some(Tok::Ident(name)) if name == "test" => true,
                Some(Tok::Ident(name)) if name == "cfg" => {
                    attr_mentions_test(&tokens, i + 3)
                }
                _ => false,
            };
        if is_test_attr {
            pending_test = true;
        }
        // `mod tests` / `mod test` without an attribute.
        if let Tok::Ident(kw) = &tokens[i].tok {
            if kw == "mod" {
                if let Some(Tok::Ident(name)) = tokens.get(i + 1).map(|t| &t.tok) {
                    if name == "tests" || name == "test" {
                        pending_test = true;
                    }
                }
            }
        }
        match &tokens[i].tok {
            Tok::Punct('{') => {
                depth += 1;
                if pending_test {
                    test_until.push(depth);
                    pending_test = false;
                }
            }
            Tok::Punct('}') => {
                if test_until.last() == Some(&depth) {
                    test_until.pop();
                    // The closing brace itself is still test scope.
                    tokens[i].in_test = true;
                    depth -= 1;
                    i += 1;
                    continue;
                }
                depth -= 1;
            }
            Tok::Punct(';') => {
                // An item that never opened a block consumes the marker.
                pending_test = false;
            }
            _ => {}
        }
        tokens[i].in_test = !test_until.is_empty() || pending_test || is_test_attr;
        i += 1;
    }
    tokens
}

/// Whether the parenthesized attribute arguments starting at `start`
/// (expected `(`) mention the bare ident `test`.
fn attr_mentions_test(tokens: &[Token], start: usize) -> bool {
    if !matches!(tokens.get(start).map(|t| &t.tok), Some(Tok::Punct('('))) {
        return false;
    }
    let mut depth = 0i32;
    for t in &tokens[start..] {
        match &t.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            Tok::Ident(name) if name == "test" => return true,
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(file: &LexedFile) -> Vec<(String, bool)> {
        file.tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some((s.clone(), t.in_test)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_tokens() {
        let src = r##"
            // panic! in a comment
            /* unwrap() in a block comment */
            fn f() { let s = "panic!(\"no\")"; }
        "##;
        let file = lex(src);
        assert!(idents(&file).iter().all(|(s, _)| s != "panic" && s != "unwrap"));
        // The string literal itself is a token with its contents.
        assert!(file
            .tokens
            .iter()
            .any(|t| matches!(&t.tok, Tok::Str(s) if s.contains("panic!"))));
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let src =
            r###"fn f<'a>(x: &'a str) -> &'a str { let _ = r#"spec "x:y=1""#; x }"###;
        let file = lex(src);
        assert!(file
            .tokens
            .iter()
            // lint:allow(spec-literal) lexer fixture, not a real spec.
            .any(|t| matches!(&t.tok, Tok::Str(s) if s.contains("x:y=1"))));
        assert!(file.tokens.iter().any(|t| matches!(&t.tok, Tok::Lifetime)));
    }

    #[test]
    fn cfg_test_mod_is_test_scope() {
        let src = r#"
            fn lib() { work(); }
            #[cfg(test)]
            mod tests {
                fn helper() { broken(); }
            }
            fn lib2() { more(); }
        "#;
        let file = lex(src);
        let ids = idents(&file);
        let of = |name: &str| ids.iter().find(|(s, _)| s == name).unwrap().1;
        assert!(!of("work"));
        assert!(of("broken"));
        assert!(!of("more"));
    }

    #[test]
    fn test_attr_fn_is_test_scope() {
        let src = r#"
            #[test]
            fn a_test() { boom(); }
            fn lib() { fine(); }
        "#;
        let file = lex(src);
        let ids = idents(&file);
        assert!(ids.iter().find(|(s, _)| s == "boom").unwrap().1);
        assert!(!ids.iter().find(|(s, _)| s == "fine").unwrap().1);
    }

    #[test]
    fn cfg_test_use_item_does_not_poison_rest_of_file() {
        let src = r#"
            #[cfg(test)]
            use std::fmt;
            fn lib() { fine(); }
        "#;
        let file = lex(src);
        let ids = idents(&file);
        assert!(!ids.iter().find(|(s, _)| s == "fine").unwrap().1);
    }

    #[test]
    fn allow_annotations_cover_their_line_and_the_next() {
        let src =
            "fn f() {\n    // lint:allow(time-arith) justified\n    g();\n    h();\n}\n";
        let file = lex(src);
        assert!(file.allowed("time-arith", 2));
        assert!(file.allowed("time-arith", 3));
        assert!(!file.allowed("time-arith", 4));
        assert!(!file.allowed("spec-literal", 3));
    }

    #[test]
    fn nested_block_comments() {
        let file = lex("/* a /* nested */ still comment */ fn f() {}");
        assert_eq!(
            idents(&file).iter().map(|(s, _)| s.as_str()).collect::<Vec<_>>(),
            ["fn", "f"]
        );
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let file = lex("for i in 0..10 { let x = 1.5; }");
        let nums: Vec<String> = file
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Num(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, ["0", "10", "1.5"]);
    }
}

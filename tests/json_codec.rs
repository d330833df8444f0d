//! The workspace JSON codec (`crates/compat/serde` + `serde_json`) under
//! every durable tier: render → parse is the identity on random trees,
//! the grammar rejects what JSON rejects, hostile nesting is a typed
//! error, and parse time is linear in document size.

use proptest::prelude::*;
use serde_json::{parse_value, Value};

/// Code points that exercise every string path of the codec: plain ASCII,
/// the escaped set, control characters (named and `\u00XX`-rendered),
/// and two-, three- and four-byte UTF-8.
const ALPHABET: [char; 18] = [
    'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{8}', '\u{1f}',
    '\u{7f}', 'é', 'λ', '漢', '😀',
];

/// Number literals spanning the grammar, including the integer widths the
/// workspace round-trips as text.
const NUMBERS: [&str; 9] = [
    "0",
    "-0",
    "7",
    "-12",
    "3.25",
    "1e9",
    "-2.5E-3",
    "18446744073709551615",
    "-170141183460469231731687303715884105728",
];

/// The random words a tree is built from, front to back; an exhausted
/// list reads as zeros (`null`s, empty strings).
struct Words<'a>(std::slice::Iter<'a, u32>);

impl Words<'_> {
    fn next(&mut self) -> usize {
        self.0.next().copied().unwrap_or(0) as usize
    }

    fn text(&mut self) -> String {
        (0..self.next() % 12).map(|_| ALPHABET[self.next() % ALPHABET.len()]).collect()
    }

    /// One tree: each node takes a word for its kind and, for strings and
    /// containers, one for its length. Containers stop nesting at depth 6.
    fn tree(&mut self, depth: usize) -> Value {
        let kind = self.next();
        match kind % if depth < 6 { 7 } else { 5 } {
            0 => Value::Null,
            1 => Value::Bool(kind.is_multiple_of(2)),
            2 | 3 => Value::Number(NUMBERS[self.next() % NUMBERS.len()].to_string()),
            4 => Value::String(self.text()),
            5 => {
                Value::Array((0..self.next() % 5).map(|_| self.tree(depth + 1)).collect())
            }
            _ => Value::Object(
                (0..self.next() % 5)
                    .map(|_| (self.text(), self.tree(depth + 1)))
                    .collect(),
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Compact and pretty renderings both parse back to the tree they
    /// were rendered from.
    #[test]
    fn prop_render_then_parse_is_the_identity(
        words in proptest::collection::vec(0u32..1_000_000, 1..400),
    ) {
        let v = Words(words.iter()).tree(0);
        prop_assert_eq!(parse_value(&v.to_json()).unwrap(), v.clone());
        prop_assert_eq!(parse_value(&v.to_json_pretty()).unwrap(), v);
    }
}

fn error_of(text: &str) -> String {
    parse_value(text).expect_err(text).to_string()
}

/// The four `rejects_garbage` inputs of the codec's unit tests fail as
/// they always have, message and byte offset included.
#[test]
fn garbage_keeps_its_errors() {
    assert_eq!(error_of("{"), "json error: expected '\"' at byte 1");
    assert_eq!(error_of("[1,]"), "json error: expected a JSON value at byte 3");
    assert_eq!(error_of("12 34"), "json error: trailing characters at byte 3");
    assert_eq!(error_of("nul"), "json error: expected null at byte 0");
    assert_eq!(error_of("\"abc"), "json error: unterminated string at byte 4");
}

/// `1e`, `1.` and `01` used to come back as `Value::Number` and fail (or
/// not) only at typed decode; they are parse errors with an offset now.
#[test]
fn malformed_numbers_are_rejected_at_parse() {
    for (text, offset) in [
        ("1e", 2),
        ("1e+", 3),
        ("1.", 2),
        ("1.e3", 2),
        ("01", 1),
        ("-01", 2),
        ("-", 1),
        ("[1, 2., 3]", 6),
    ] {
        let message = error_of(text);
        assert!(message.ends_with(&format!("at byte {offset}")), "{text}: {message}");
    }
    for text in ["0", "-0", "10", "0.5", "1e5", "1E+5", "-2.5e-3", "[0,1]"] {
        let v = parse_value(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(v.to_json(), text);
    }
}

/// A submitter that ASCII-escapes its output writes astral code points as
/// surrogate pairs; a surrogate on its own names nothing.
#[test]
fn surrogate_pairs_decode_and_lone_surrogates_do_not() {
    assert_eq!(
        parse_value(r#""\ud83d\ude00 \uD83D\uDE00 \u00e9""#).unwrap(),
        Value::String("😀 😀 é".to_string())
    );
    for text in [
        r#""\ud83d""#,
        r#""\ud83d rest""#,
        r#""\ude00""#,
        r#""\ud83dA""#,
        r#""\ud83d\ud83d""#,
        r#""\ud83d\ude""#,
    ] {
        assert!(parse_value(text).is_err(), "{text} must not parse");
    }
}

/// Nesting is capped: the parser recurses per level, and an inbox file of
/// a million `[` used to overflow the stack and abort the process.
#[test]
fn hostile_nesting_is_a_typed_error() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(parse_value(&nested(128)).is_ok());
    let message = error_of(&nested(129));
    assert!(message.contains("nesting deeper than 128"), "{message}");
    assert!(parse_value(&"[".repeat(1_000_000)).is_err());
    assert!(parse_value(&"{\"k\":".repeat(1_000_000)).is_err());
}

/// Parse time is linear in document size. The parser this replaced
/// re-validated the whole remaining document once per string character
/// and needed minutes for this input in a debug build, so the two-second
/// ceiling is two orders of magnitude of margin, not a timing race.
#[test]
fn four_megabytes_of_strings_parse_in_linear_time() {
    let entry = Value::Object(vec![
        ("name".to_string(), Value::String("org-é-λ \"quoted\" \\ tab\t".repeat(4))),
        ("release".to_string(), Value::Number("123456".to_string())),
    ]);
    let entry_len = entry.to_json().len();
    let doc = Value::Array(vec![entry; (4 << 20) / entry_len + 1]);
    let text = doc.to_json();
    assert!(text.len() >= 4 << 20, "{} bytes", text.len());
    let started = std::time::Instant::now();
    let parsed = parse_value(&text).unwrap();
    let took = started.elapsed();
    assert!(took.as_secs_f64() < 2.0, "parsing {} bytes took {took:?}", text.len());
    assert_eq!(parsed, doc);
}

//! The committed lint configuration: `lint_allow.toml` (suppressions with
//! mandatory justifications) and `lint_ratchet.toml` (per-rule violation
//! ceilings that may only decrease).
//!
//! The build environment has no crates.io access, so a `toml` dependency
//! is not an option; [`toml_lite`] parses exactly the subset these two
//! files use — `[section]`, `[[array-of-table]]`, `key = "string"`,
//! `key = integer`, and `#` comments — and rejects everything else, so a
//! typo in a config file is a loud error, not a silently ignored entry.

use std::collections::BTreeMap;
use std::fmt;

/// A parse or validation failure in a lint config file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The file the error is about.
    pub file: String,
    /// 1-based line (0 when the error is not line-anchored).
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{}:{}: {}", self.file, self.line, self.message)
        } else {
            write!(f, "{}: {}", self.file, self.message)
        }
    }
}

impl std::error::Error for ConfigError {}

/// Minimal TOML-subset parsing: just enough for the two lint files.
pub mod toml_lite {
    use super::ConfigError;

    /// A parsed value: the subset has only strings and integers.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Value {
        /// A quoted string.
        Str(String),
        /// A non-negative integer.
        Int(u64),
    }

    /// One `[section]` or `[[section]]` with its `key = value` pairs.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Table {
        /// The bracketed name.
        pub name: String,
        /// Whether it was declared `[[name]]` (array-of-tables entry).
        pub array: bool,
        /// The section's key/value pairs in file order.
        pub entries: Vec<(String, Value)>,
        /// 1-based line of the section header.
        pub line: u32,
    }

    /// Parses the TOML subset. Top-level keys before any section header
    /// are rejected (the lint files never use them).
    pub fn parse(file_label: &str, text: &str) -> Result<Vec<Table>, ConfigError> {
        let err = |line: u32, message: String| ConfigError {
            file: file_label.to_string(),
            line,
            message,
        };
        let mut tables: Vec<Table> = Vec::new();
        for (idx, raw_line) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = strip_comment(raw_line).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("[[") {
                let name = rest
                    .strip_suffix("]]")
                    .ok_or_else(|| err(lineno, "unterminated [[section]]".into()))?;
                tables.push(Table {
                    name: name.trim().to_string(),
                    array: true,
                    entries: Vec::new(),
                    line: lineno,
                });
            } else if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| err(lineno, "unterminated [section]".into()))?;
                tables.push(Table {
                    name: name.trim().to_string(),
                    array: false,
                    entries: Vec::new(),
                    line: lineno,
                });
            } else {
                let (key, value) = line.split_once('=').ok_or_else(|| {
                    err(lineno, format!("expected key = value, got {line:?}"))
                })?;
                let value = parse_value(value.trim()).map_err(|m| {
                    err(lineno, format!("bad value for {}: {m}", key.trim()))
                })?;
                let table = tables.last_mut().ok_or_else(|| {
                    err(lineno, "key = value before any [section]".into())
                })?;
                table.entries.push((key.trim().to_string(), value));
            }
        }
        Ok(tables)
    }

    fn parse_value(text: &str) -> Result<Value, String> {
        if let Some(rest) = text.strip_prefix('"') {
            let inner = rest
                .strip_suffix('"')
                .ok_or_else(|| "unterminated string".to_string())?;
            if inner.contains('"') || inner.contains('\\') {
                return Err("escapes and embedded quotes are outside the subset".into());
            }
            return Ok(Value::Str(inner.to_string()));
        }
        text.parse::<u64>()
            .map(Value::Int)
            .map_err(|_| format!("expected a quoted string or an integer, got {text:?}"))
    }

    /// Strips a `#` comment, respecting `#` inside quoted strings.
    fn strip_comment(line: &str) -> &str {
        let mut in_str = false;
        for (i, c) in line.char_indices() {
            match c {
                '"' => in_str = !in_str,
                '#' if !in_str => return &line[..i],
                _ => {}
            }
        }
        line
    }
}

use toml_lite::{Table, Value};

/// One suppression: up to `count` findings of `rule` in `path` are
/// accepted, with a mandatory human justification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// The rule being suppressed.
    pub rule: String,
    /// Workspace-relative file path (forward slashes).
    pub path: String,
    /// How many findings the entry covers.
    pub count: u64,
    /// Why the findings are acceptable (must be non-empty — allowlist
    /// etiquette is enforced mechanically).
    pub reason: String,
    /// Source line in `lint_allow.toml`.
    pub line: u32,
}

/// The parsed allowlist.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Allowlist {
    /// All entries, file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses `lint_allow.toml` text. Every entry must be an `[[allow]]`
    /// table carrying `rule`, `path`, `count >= 1`, and a non-empty
    /// `reason`.
    pub fn parse(file_label: &str, text: &str) -> Result<Self, ConfigError> {
        let tables = toml_lite::parse(file_label, text)?;
        let mut entries = Vec::new();
        for t in tables {
            if !(t.array && t.name == "allow") {
                return Err(ConfigError {
                    file: file_label.to_string(),
                    line: t.line,
                    message: format!(
                        "unexpected section [{}{}{}] (only [[allow]] entries are defined)",
                        if t.array { "[" } else { "" },
                        t.name,
                        if t.array { "]" } else { "" },
                    ),
                });
            }
            entries.push(allow_entry(file_label, &t)?);
        }
        Ok(Allowlist { entries })
    }

    /// Total allowance for `(rule, path)`.
    pub fn allowance(&self, rule: &str, path: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.rule == rule && e.path == path)
            .map(|e| e.count)
            .sum()
    }
}

fn allow_entry(file_label: &str, t: &Table) -> Result<AllowEntry, ConfigError> {
    let err = |message: String| ConfigError {
        file: file_label.to_string(),
        line: t.line,
        message,
    };
    let mut rule = None;
    let mut path = None;
    let mut count = None;
    let mut reason = None;
    for (k, v) in &t.entries {
        match (k.as_str(), v) {
            ("rule", Value::Str(s)) => rule = Some(s.clone()),
            ("path", Value::Str(s)) => path = Some(s.clone()),
            ("count", Value::Int(n)) => count = Some(*n),
            ("reason", Value::Str(s)) => reason = Some(s.clone()),
            (k, _) => {
                return Err(err(format!("unknown or mistyped key {k:?} in [[allow]]")))
            }
        }
    }
    let rule = rule.ok_or_else(|| err("[[allow]] missing rule".into()))?;
    let path = path.ok_or_else(|| err("[[allow]] missing path".into()))?;
    let count = count.ok_or_else(|| err("[[allow]] missing count".into()))?;
    let reason = reason.ok_or_else(|| err("[[allow]] missing reason".into()))?;
    if count == 0 {
        return Err(
            err("[[allow]] count must be >= 1 (delete the entry instead)".into()),
        );
    }
    if reason.trim().is_empty() {
        return Err(err(
            "[[allow]] reason must be a non-empty justification (allowlist etiquette)"
                .into(),
        ));
    }
    Ok(AllowEntry { rule, path, count, reason, line: t.line })
}

/// The parsed ratchet: rule → maximum accepted violation count, and
/// clippy lint → maximum number of `#[expect(clippy::<lint>)]` sites in
/// library code. The committed counts may only decrease over time;
/// `fairsched-analyze check --update-ratchet` rewrites the file to the
/// current (lower) counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ratchet {
    /// Rule → ceiling (the `[ratchet]` section).
    pub limits: BTreeMap<String, u64>,
    /// Clippy lint → ceiling on its deliberate exceptions (the `[expect]`
    /// section).
    pub expects: BTreeMap<String, u64>,
}

impl Ratchet {
    /// Parses `lint_ratchet.toml` text: a `[ratchet]` section of `rule =
    /// count` pairs and an optional `[expect]` section of `lint = count`
    /// pairs.
    pub fn parse(file_label: &str, text: &str) -> Result<Self, ConfigError> {
        let tables = toml_lite::parse(file_label, text)?;
        let mut out = Ratchet::default();
        for t in tables {
            let err = |message: String| ConfigError {
                file: file_label.to_string(),
                line: t.line,
                message,
            };
            let section = match t.name.as_str() {
                "ratchet" if !t.array => &mut out.limits,
                "expect" if !t.array => &mut out.expects,
                _ => {
                    return Err(err(format!(
                    "unexpected section {:?} (only [ratchet] and [expect] are defined)",
                    t.name
                )))
                }
            };
            for (k, v) in &t.entries {
                let Value::Int(n) = v else {
                    return Err(err(format!(
                        "ratchet count for {k:?} must be an integer"
                    )));
                };
                if section.insert(k.clone(), *n).is_some() {
                    return Err(err(format!("duplicate ratchet entry for {k:?}")));
                }
            }
        }
        Ok(out)
    }

    /// Renders the canonical file text for `--update-ratchet`.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Per-rule violation ceilings for `fairsched-analyze check`, and\n\
             # under [expect] per-lint ceilings on `#[expect(clippy::<lint>)]`\n\
             # sites in library code. Counts may only decrease: lower the\n\
             # number when you fix sites, never raise it. Regenerate with\n\
             # `fairsched-analyze check --update-ratchet` after a burn-down.\n\n\
             [ratchet]\n",
        );
        for (rule, count) in &self.limits {
            out.push_str(&format!("{rule} = {count}\n"));
        }
        out.push_str("\n[expect]\n");
        for (lint, count) in &self.expects {
            out.push_str(&format!("{lint} = {count}\n"));
        }
        out
    }
}

/// One registered on-disk format version: the id as it appears in source
/// (`fairsched-<name>/vN`) and the decode test that proves the current
/// code still reads it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaEntry {
    /// The full version literal, e.g. `fairsched-session-snapshot/v1`.
    pub id: String,
    /// `workspace/relative/file.rs::test_fn_name` — the test that decodes
    /// (or, for retired versions, provably rejects) this format.
    pub decode_test: String,
    /// Optional free-form context (e.g. "negative fixture: decoder must
    /// reject unknown versions").
    pub note: Option<String>,
    /// Source line in `schema_registry.toml`.
    pub line: u32,
}

/// The parsed `schema_registry.toml`: every `fairsched-*/vN` format
/// literal in non-test library code must have an entry here, so
/// snapshot/journal/report formats cannot fork silently.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchemaRegistry {
    /// All entries, file order.
    pub entries: Vec<SchemaEntry>,
}

impl SchemaRegistry {
    /// Parses `schema_registry.toml` text: `[[schema]]` tables carrying
    /// `id`, `decode_test`, and an optional `note`. Duplicate ids are
    /// rejected at parse time.
    pub fn parse(file_label: &str, text: &str) -> Result<Self, ConfigError> {
        let tables = toml_lite::parse(file_label, text)?;
        let mut entries: Vec<SchemaEntry> = Vec::new();
        for t in tables {
            if !(t.array && t.name == "schema") {
                return Err(ConfigError {
                    file: file_label.to_string(),
                    line: t.line,
                    message: format!(
                        "unexpected section {:?} (only [[schema]] entries are defined)",
                        t.name
                    ),
                });
            }
            let entry = schema_entry(file_label, &t)?;
            if entries.iter().any(|e| e.id == entry.id) {
                return Err(ConfigError {
                    file: file_label.to_string(),
                    line: t.line,
                    message: format!("duplicate [[schema]] entry for id {:?}", entry.id),
                });
            }
            entries.push(entry);
        }
        Ok(SchemaRegistry { entries })
    }

    /// The entry registering `id`, if any.
    pub fn get(&self, id: &str) -> Option<&SchemaEntry> {
        self.entries.iter().find(|e| e.id == id)
    }
}

fn schema_entry(file_label: &str, t: &Table) -> Result<SchemaEntry, ConfigError> {
    let err = |message: String| ConfigError {
        file: file_label.to_string(),
        line: t.line,
        message,
    };
    let mut id = None;
    let mut decode_test = None;
    let mut note = None;
    for (k, v) in &t.entries {
        match (k.as_str(), v) {
            ("id", Value::Str(s)) => id = Some(s.clone()),
            ("decode_test", Value::Str(s)) => decode_test = Some(s.clone()),
            ("note", Value::Str(s)) => note = Some(s.clone()),
            (k, _) => {
                return Err(err(format!("unknown or mistyped key {k:?} in [[schema]]")))
            }
        }
    }
    let id = id.ok_or_else(|| err("[[schema]] missing id".into()))?;
    let decode_test =
        decode_test.ok_or_else(|| err("[[schema]] missing decode_test".into()))?;
    if !decode_test.contains("::") {
        return Err(err(format!(
            "decode_test {decode_test:?} must be \"path/to/file.rs::test_fn\""
        )));
    }
    Ok(SchemaEntry { id, decode_test, note, line: t.line })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_allowlist() {
        let text = r#"
# comment
[[allow]]
rule = "time-arith"
path = "crates/sim/src/exhaustive.rs"
count = 3
reason = "instance families with small fixed sizes"

[[allow]]
rule = "spec-literal"
path = "crates/core/src/spec.rs"
count = 2
reason = "deliberate malformed fixtures"
"#;
        let a = Allowlist::parse("lint_allow.toml", text).unwrap();
        assert_eq!(a.entries.len(), 2);
        assert_eq!(a.allowance("time-arith", "crates/sim/src/exhaustive.rs"), 3);
        assert_eq!(a.allowance("time-arith", "crates/core/src/spec.rs"), 0);
    }

    #[test]
    fn allowlist_requires_reason() {
        let text = "[[allow]]\nrule = \"time-arith\"\npath = \"x.rs\"\ncount = 1\nreason = \"  \"\n";
        let e = Allowlist::parse("lint_allow.toml", text).unwrap_err();
        assert!(e.message.contains("reason"), "{e}");
        let text2 = "[[allow]]\nrule = \"time-arith\"\npath = \"x.rs\"\ncount = 1\n";
        assert!(Allowlist::parse("lint_allow.toml", text2).is_err());
    }

    #[test]
    fn allowlist_rejects_zero_count_and_unknown_keys() {
        let zero = "[[allow]]\nrule = \"r\"\npath = \"p\"\ncount = 0\nreason = \"x\"\n";
        assert!(Allowlist::parse("lint_allow.toml", zero).is_err());
        let unknown = "[[allow]]\nrule = \"r\"\npath = \"p\"\ncount = 1\nreason = \"x\"\nnote = \"y\"\n";
        assert!(Allowlist::parse("lint_allow.toml", unknown).is_err());
    }

    #[test]
    fn parses_ratchet_and_renders_canonically() {
        let text = "[ratchet]\ntime-arith = 240 # ceiling\nhygiene = 12\n\
                    [expect]\nunwrap_used = 3\n";
        let r = Ratchet::parse("lint_ratchet.toml", text).unwrap();
        assert_eq!(r.limits.get("time-arith"), Some(&240));
        assert_eq!(r.expects.get("unwrap_used"), Some(&3));
        let rendered = r.render();
        let again = Ratchet::parse("lint_ratchet.toml", &rendered).unwrap();
        assert_eq!(again, r);
    }

    #[test]
    fn ratchet_rejects_duplicates_and_strings() {
        assert!(Ratchet::parse("r", "[ratchet]\na = 1\na = 2\n").is_err());
        assert!(Ratchet::parse("r", "[ratchet]\na = \"1\"\n").is_err());
        assert!(Ratchet::parse("r", "[other]\na = 1\n").is_err());
    }

    #[test]
    fn parses_schema_registry() {
        let text = r#"
[[schema]]
id = "fairsched-session-snapshot/v1"
decode_test = "crates/sim/src/stepper.rs::snapshot_restore_round_trips_mid_run"

[[schema]]
id = "fairsched-experiment/v2"
decode_test = "crates/experiment/src/spec.rs::bad_documents_are_typed_errors"
note = "negative fixture: decoder must reject unknown versions"
"#;
        let r = SchemaRegistry::parse("schema_registry.toml", text).unwrap();
        assert_eq!(r.entries.len(), 2);
        let e = r.get("fairsched-session-snapshot/v1").unwrap();
        assert!(e.decode_test.ends_with("::snapshot_restore_round_trips_mid_run"));
        assert!(e.note.is_none());
        assert!(r.get("fairsched-experiment/v2").unwrap().note.is_some());
        assert!(r.get("fairsched-nope/v1").is_none());
    }

    #[test]
    fn schema_registry_rejects_duplicates_and_malformed_entries() {
        let dup = "[[schema]]\nid = \"a/v1\"\ndecode_test = \"f.rs::t\"\n\
                   [[schema]]\nid = \"a/v1\"\ndecode_test = \"f.rs::t\"\n";
        assert!(SchemaRegistry::parse("s", dup)
            .unwrap_err()
            .message
            .contains("duplicate"));
        let no_sep = "[[schema]]\nid = \"a/v1\"\ndecode_test = \"not-a-pointer\"\n";
        assert!(SchemaRegistry::parse("s", no_sep).is_err());
        let missing = "[[schema]]\nid = \"a/v1\"\n";
        assert!(SchemaRegistry::parse("s", missing).is_err());
        let wrong_section = "[schema]\nid = \"a/v1\"\n";
        assert!(SchemaRegistry::parse("s", wrong_section).is_err());
    }

    #[test]
    fn toml_lite_rejects_garbage() {
        assert!(toml_lite::parse("f", "just words\n").is_err());
        assert!(toml_lite::parse("f", "[sec\n").is_err());
        assert!(toml_lite::parse("f", "a = 1\n").is_err());
    }
}

//! `schema-version`: every on-disk format version must be registered and
//! provably decodable.
//!
//! The workspace persists a growing family of versioned formats —
//! session snapshots, experiment cells and reports, serve config and
//! snapshots, the bench lattice, the analyzer's own report — each tagged
//! with a `fairsched-<name>/vN` literal. Nothing stopped a format from
//! forking silently: bump the string, forget the migration, and old
//! journals stop decoding with no test to notice.
//!
//! This rule closes the loop through the committed
//! `schema_registry.toml` ([`SchemaRegistry`]):
//!
//! * every schema-shaped literal in non-test code (and in golden/bench
//!   JSON artifacts) must have a `[[schema]]` entry, or carry
//!   `lint:allow(schema-version)`;
//! * every entry's `decode_test` pointer (`file.rs::test_fn`) must name
//!   a test-scope fn of a scanned source file — found through the
//!   lexer's test-scope flags, so a renamed test breaks the lint, not the
//!   archaeology;
//! * every entry must still be *used*: an id no literal anywhere mentions
//!   (test usage counts) is a stale registration;
//! * ids must match the `fairsched-<name>/vN` shape on both sides.
//!
//! Retired versions stay registered with a `note` and a decode test that
//! proves the current decoder *rejects* them (e.g.
//! `fairsched-experiment/v2`'s negative fixture) — the registry records
//! format history, not just the live set.

use std::collections::BTreeSet;

use crate::config::SchemaRegistry;
use crate::lexer::{LexedFile, Tok};
use crate::rules::spec_literals::Literal;
use crate::rules::SCHEMA_VERSION;
use crate::{Finding, SourceFile};

/// The committed registry's workspace-relative path.
pub const REGISTRY_PATH: &str = "schema_registry.toml";

/// Whether a string is a schema version id: `fairsched-<name>/vN` with a
/// kebab-case name and a decimal version, full-string.
pub fn is_schema_id(text: &str) -> bool {
    let Some(rest) = text.strip_prefix("fairsched-") else { return false };
    let Some((name, version)) = rest.split_once("/v") else { return false };
    !name.is_empty()
        && name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        && !name.starts_with('-')
        && !name.ends_with('-')
        && !version.is_empty()
        && version.chars().all(|c| c.is_ascii_digit())
}

/// Whether `file` declares a fn named `name` in test scope: a `#[test]`
/// fn, or any fn inside a `#[cfg(test)]` item or `mod tests` block.
pub fn has_test_fn(file: &LexedFile, name: &str) -> bool {
    file.tokens.windows(2).any(|w| {
        matches!(&w[0].tok, Tok::Ident(kw) if kw == "fn")
            && matches!(&w[1].tok, Tok::Ident(n) if n == name)
            && w[1].in_test
    })
}

/// Validates the literal pool and the registry against each other.
/// `registry` is `None` when `schema_registry.toml` is missing, which
/// turns every non-test schema literal into a finding.
pub fn check(
    registry: Option<&SchemaRegistry>,
    literals: &[Literal],
    sources: &[SourceFile],
    out: &mut Vec<Finding>,
) {
    // Pass 1: literals → registration requirement; collect all usage
    // (test usage keeps an entry alive — negative fixtures are usage).
    let mut used: BTreeSet<&str> = BTreeSet::new();
    for lit in literals {
        if !is_schema_id(&lit.text) {
            continue;
        }
        used.insert(lit.text.as_str());
        if lit.in_test || lit.allowed {
            continue;
        }
        match registry {
            None => out.push(Finding::new(
                SCHEMA_VERSION,
                &lit.path,
                lit.line,
                format!(
                    "schema version {:?} used but {REGISTRY_PATH} is missing — commit \
                     the registry with a [[schema]] entry and a decode test",
                    lit.text
                ),
            )),
            Some(reg) if reg.get(&lit.text).is_none() => out.push(Finding::new(
                SCHEMA_VERSION,
                &lit.path,
                lit.line,
                format!(
                    "schema version {:?} is not registered in {REGISTRY_PATH} — add a \
                     [[schema]] entry with a decode_test proving the format still reads",
                    lit.text
                ),
            )),
            Some(_) => {}
        }
    }

    // Pass 2: registry entries → pointer validity and staleness.
    let Some(reg) = registry else { return };
    for entry in &reg.entries {
        if !is_schema_id(&entry.id) {
            out.push(Finding::new(
                SCHEMA_VERSION,
                REGISTRY_PATH,
                entry.line,
                format!(
                    "registered id {:?} does not match the fairsched-<name>/vN shape",
                    entry.id
                ),
            ));
        }
        // decode_test = "path/to/file.rs::test_fn" (parser guarantees a
        // `::` separator; split on the last one).
        let (file, test_fn) = match entry.decode_test.rsplit_once("::") {
            Some(parts) => parts,
            None => continue,
        };
        let scanned = sources.iter().find(|s| s.rel == file);
        if scanned.is_none() {
            out.push(Finding::new(
                SCHEMA_VERSION,
                REGISTRY_PATH,
                entry.line,
                format!(
                    "decode_test for {:?} points at {file:?}, which is not a workspace \
                     source file",
                    entry.id
                ),
            ));
        } else if !scanned.is_some_and(|s| has_test_fn(&s.lexed, test_fn)) {
            out.push(Finding::new(
                SCHEMA_VERSION,
                REGISTRY_PATH,
                entry.line,
                format!(
                    "decode_test for {:?} names {test_fn:?} in {file:?}, but no #[test] \
                     fn with that name exists there",
                    entry.id
                ),
            ));
        }
        if !used.contains(entry.id.as_str()) {
            out.push(Finding::new(
                SCHEMA_VERSION,
                REGISTRY_PATH,
                entry.line,
                format!(
                    "registered schema {:?} no longer appears anywhere in the tree — \
                     delete the entry or keep the literal in the decode test",
                    entry.id
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn source(rel: &str, src: &str) -> SourceFile {
        SourceFile { rel: rel.to_string(), text: src.to_string(), lexed: lex(src) }
    }

    fn lit(text: &str, in_test: bool) -> Literal {
        Literal {
            text: text.to_string(),
            path: "crates/sim/src/stepper.rs".into(),
            line: 7,
            allowed: false,
            in_test,
        }
    }

    const DECODER: &str = r#"
        pub const SCHEMA: &str = "fairsched-session-snapshot/v1";
        #[cfg(test)]
        mod tests {
            #[test]
            fn snapshot_round_trips() {}
        }
    "#;

    fn sources() -> Vec<SourceFile> {
        vec![source("crates/sim/src/stepper.rs", DECODER)]
    }

    fn registry(text: &str) -> SchemaRegistry {
        SchemaRegistry::parse(REGISTRY_PATH, text).unwrap()
    }

    #[test]
    fn schema_id_shape() {
        assert!(is_schema_id("fairsched-session-snapshot/v1"));
        assert!(is_schema_id("fairsched-experiment/v12"));
        assert!(!is_schema_id("fairsched-/v1"));
        assert!(!is_schema_id("fairsched-x/v"));
        assert!(!is_schema_id("fairsched-X/v1"));
        assert!(!is_schema_id("other-thing/v1"));
        assert!(!is_schema_id("fairsched-x/v1 trailing"));
    }

    #[test]
    fn registered_literal_with_live_test_is_clean() {
        let reg = registry(
            "[[schema]]\nid = \"fairsched-session-snapshot/v1\"\n\
             decode_test = \"crates/sim/src/stepper.rs::snapshot_round_trips\"\n",
        );
        let mut out = Vec::new();
        check(
            Some(&reg),
            &[lit("fairsched-session-snapshot/v1", false)],
            &sources(),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unregistered_literal_and_missing_registry_are_findings() {
        let mut out = Vec::new();
        check(None, &[lit("fairsched-session-snapshot/v1", false)], &sources(), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("missing"));

        let reg = registry("");
        out.clear();
        check(
            Some(&reg),
            &[lit("fairsched-session-snapshot/v1", false)],
            &sources(),
            &mut out,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("not registered"));
    }

    #[test]
    fn test_scope_and_allowed_literals_are_exempt_but_count_as_usage() {
        let reg = registry(
            "[[schema]]\nid = \"fairsched-session-snapshot/v1\"\n\
             decode_test = \"crates/sim/src/stepper.rs::snapshot_round_trips\"\n",
        );
        let mut out = Vec::new();
        // Only a test-scope literal mentions the id: no unregistered
        // finding (test scope) and no stale finding (usage counted).
        check(
            Some(&reg),
            &[lit("fairsched-session-snapshot/v1", true)],
            &sources(),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");

        let mut allowed = lit("fairsched-rogue/v1", false);
        allowed.allowed = true;
        out.clear();
        check(
            Some(&reg),
            &[allowed, lit("fairsched-session-snapshot/v1", false)],
            &sources(),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn broken_pointers_and_stale_entries_are_findings() {
        // The first pointer names a test renamed away from a scanned
        // file; the second names a file that is not there at all.
        let reg = registry(
            "[[schema]]\nid = \"fairsched-session-snapshot/v1\"\n\
             decode_test = \"crates/sim/src/stepper.rs::renamed_away\"\n\
             [[schema]]\nid = \"fairsched-gone/v1\"\n\
             decode_test = \"crates/nope/src/lib.rs::whatever\"\n",
        );
        let mut out = Vec::new();
        check(
            Some(&reg),
            &[lit("fairsched-session-snapshot/v1", false)],
            &sources(),
            &mut out,
        );
        let msgs: Vec<&str> = out.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(out.len(), 3, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("no #[test] fn")));
        assert!(msgs.iter().any(|m| m.contains("not a workspace source file")));
        assert!(msgs.iter().any(|m| m.contains("no longer appears")));
        assert!(out.iter().all(|f| f.path == REGISTRY_PATH));
    }

    #[test]
    fn test_fns_are_found_by_the_lexers_test_scope() {
        let src = r#"
            pub struct Engine { x: u32 }
            pub fn run() {}
            impl Engine { fn helper(&self) {} }
            #[cfg(test)]
            mod tests {
                #[test]
                fn engine_runs() {}
                fn helper_in_tests() {}
            }
        "#;
        let file = lex(src);
        assert!(has_test_fn(&file, "engine_runs"));
        assert!(has_test_fn(&file, "helper_in_tests"));
        assert!(!has_test_fn(&file, "run"));
        assert!(!has_test_fn(&file, "helper"));
        assert!(!has_test_fn(&file, "no_such_fn"));
    }

    #[test]
    fn non_test_library_fn_does_not_satisfy_decode_test() {
        let src = "pub fn decode_it() {}\n";
        let g = vec![source("crates/sim/src/stepper.rs", src)];
        let reg = registry(
            "[[schema]]\nid = \"fairsched-session-snapshot/v1\"\n\
             decode_test = \"crates/sim/src/stepper.rs::decode_it\"\n",
        );
        let mut out = Vec::new();
        check(Some(&reg), &[lit("fairsched-session-snapshot/v1", false)], &g, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("no #[test] fn"));
    }
}

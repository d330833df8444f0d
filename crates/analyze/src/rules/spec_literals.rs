//! `spec-literal`: every `"family:key=value,..."` literal in the
//! workspace must be valid against the *live* registries.
//!
//! The analyzer links the fairsched crates, so the source of truth is the
//! same three [`Registry::shared`] singletons (schedulers, workloads,
//! metrics) the CLI resolves at runtime — a renamed family or parameter
//! breaks the lint before it breaks a user.
//!
//! Checked sources: string literals in every workspace `.rs` file
//! (library *and* test code — deliberately malformed fixtures carry
//! `lint:allow(spec-literal)`), strings and object keys in
//! `tests/golden/**/*.json` and `BENCH_lattice.json` (report metric maps
//! are keyed by spec strings), and `spec=` header lines in
//! `tests/golden/workloads/*.txt`.
//!
//! A string is *claimed* as a spec literal when it has the shape
//! `ident:...=...` with no whitespace. Claimed literals must parse as
//! [`SpecBody`], name a registered family, use only that family's
//! accepted parameter keys, and round-trip canonically (sorted params).
//! Bare literals equal to a registered name count as references. Finally,
//! the rule doubles as a static registry-coverage gate: a registered
//! family that no literal anywhere references is itself a finding.

use std::collections::{BTreeMap, BTreeSet};

use fairsched_core::scheduler::SchedulerKind;
use fairsched_core::spec::{Factory, Registry, SpecBody, SpecKind};
use fairsched_sim::MetricKind;
use fairsched_workloads::WorkloadKind;

use crate::lexer::Tok;
use crate::rules::SPEC_LITERAL;
use crate::{Finding, SourceFile};

/// One registry family as seen by the lint: where it is registered and
/// which parameter keys it accepts (merged across registries when the
/// same name exists in more than one).
#[derive(Clone, Debug, Default)]
pub struct Family {
    /// Registry labels (`scheduler` / `workload` / `metric`).
    pub registries: Vec<&'static str>,
    /// Union of accepted parameter keys.
    pub params: BTreeSet<String>,
}

/// Snapshot of the three live registries.
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    /// Family name → metadata.
    pub families: BTreeMap<String, Family>,
}

impl RegistrySnapshot {
    /// Reads the shared singletons the rest of the workspace uses.
    pub fn live() -> Self {
        let mut snap = RegistrySnapshot::default();
        snap.add_registry::<SchedulerKind>("scheduler");
        snap.add_registry::<WorkloadKind>("workload");
        snap.add_registry::<MetricKind>("metric");
        snap
    }

    /// Adds every family of axis `K`'s shared registry under `label`.
    fn add_registry<K: SpecKind>(&mut self, label: &'static str) {
        let registry = Registry::<K>::shared();
        for name in registry.names() {
            let params = registry
                .get(name)
                .map(|f| f.accepted_params().iter().map(|p| p.to_string()).collect())
                .unwrap_or_default();
            self.add(label, name, params);
        }
    }

    /// Registers one family (test seam; `live()` uses it too).
    pub fn add(&mut self, registry: &'static str, name: &str, params: BTreeSet<String>) {
        let fam = self.families.entry(name.to_string()).or_default();
        fam.registries.push(registry);
        fam.params.extend(params);
    }
}

/// A candidate literal extracted from some source.
#[derive(Clone, Debug)]
pub struct Literal {
    /// The literal text.
    pub text: String,
    /// Workspace-relative source path.
    pub path: String,
    /// 1-based line; 0 for JSON sources (not line-addressable).
    pub line: u32,
    /// Whether an inline `lint:allow(spec-literal)` covers it.
    pub allowed: bool,
    /// Whether the literal sits in test-only Rust code (always false for
    /// JSON/golden sources). The `schema-version` rule skips test-scope
    /// literals for the registration requirement while still counting
    /// them as usage.
    pub in_test: bool,
}

/// Extracts candidate literals from lexed Rust sources.
pub fn literals_from_rust(sources: &[SourceFile]) -> Vec<Literal> {
    let mut out = Vec::new();
    for src in sources {
        for t in &src.lexed.tokens {
            if let Tok::Str(s) = &t.tok {
                out.push(Literal {
                    text: s.clone(),
                    path: src.rel.clone(),
                    line: t.line,
                    allowed: src.lexed.allowed(SPEC_LITERAL, t.line),
                    in_test: t.in_test,
                });
            }
        }
    }
    out
}

/// Extracts candidate literals (strings *and* object keys) from a parsed
/// JSON document.
pub fn literals_from_json(path: &str, value: &serde::Value, out: &mut Vec<Literal>) {
    fn push(out: &mut Vec<Literal>, path: &str, text: &str) {
        out.push(Literal {
            text: text.to_string(),
            path: path.to_string(),
            line: 0,
            allowed: false,
            in_test: false,
        });
    }
    match value {
        serde::Value::String(s) => push(out, path, s),
        serde::Value::Array(items) => {
            for v in items {
                literals_from_json(path, v, out);
            }
        }
        serde::Value::Object(entries) => {
            for (k, v) in entries {
                push(out, path, k);
                literals_from_json(path, v, out);
            }
        }
        _ => {}
    }
}

/// Extracts the `spec=` header literal from a workload golden's text.
pub fn literal_from_workload_golden(path: &str, text: &str) -> Option<Literal> {
    let first = text.lines().next()?;
    let spec = first.strip_prefix("spec=")?;
    Some(Literal {
        text: spec.to_string(),
        path: path.to_string(),
        line: 1,
        allowed: false,
        in_test: false,
    })
}

/// Whether a string is *claimed* as a spec literal: `ident:...` with at
/// least one `=` and no whitespace. Claimed literals must validate.
fn claimed(text: &str) -> bool {
    let Some((name, rest)) = text.split_once(':') else { return false };
    fairsched_core::spec::valid_ident(name)
        && rest.contains('=')
        && !text.chars().any(char::is_whitespace)
}

/// Validates all literals against a registry snapshot, appending findings
/// and returning the set of referenced family names.
pub fn check(
    snap: &RegistrySnapshot,
    literals: &[Literal],
    out: &mut Vec<Finding>,
) -> BTreeSet<String> {
    let mut referenced = BTreeSet::new();
    for lit in literals {
        if snap.families.contains_key(&lit.text) {
            // Bare family name: a reference, nothing to validate.
            referenced.insert(lit.text.clone());
            continue;
        }
        if !claimed(&lit.text) {
            continue;
        }
        if lit.allowed {
            continue;
        }
        let mut fail = |message: String| {
            out.push(Finding::new(SPEC_LITERAL, &lit.path, lit.line, message));
        };
        let body: SpecBody = match lit.text.parse() {
            Ok(b) => b,
            Err(e) => {
                fail(format!("spec literal {:?} does not parse: {e:?}", lit.text));
                continue;
            }
        };
        let Some(family) = snap.families.get(body.name()) else {
            fail(format!(
                "spec literal {:?} names unknown family {:?} (not in any registry)",
                lit.text,
                body.name()
            ));
            continue;
        };
        referenced.insert(body.name().to_string());
        for (key, _) in body.params() {
            if !family.params.contains(key) {
                fail(format!(
                    "spec literal {:?}: family {:?} ({}) does not accept param {:?} \
                     (accepted: {})",
                    lit.text,
                    body.name(),
                    family.registries.join("+"),
                    key,
                    family.params.iter().cloned().collect::<Vec<_>>().join(", "),
                ));
            }
        }
        let canonical = body.to_string();
        if canonical != lit.text {
            fail(format!(
                "spec literal {:?} is not canonical (expected {canonical:?}; params \
                 sort by key)",
                lit.text
            ));
        }
    }
    referenced
}

/// The registry-coverage gate: every registered family must be referenced
/// by at least one literal somewhere in the workspace or goldens.
pub fn coverage(
    snap: &RegistrySnapshot,
    referenced: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    for (name, family) in &snap.families {
        if !referenced.contains(name) {
            out.push(Finding::new(
                SPEC_LITERAL,
                "workspace",
                0,
                format!(
                    "registry family {:?} ({}) is never referenced by any spec \
                     literal, test, or golden — dead registration or missing coverage",
                    name,
                    family.registries.join("+"),
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> RegistrySnapshot {
        let mut s = RegistrySnapshot::default();
        s.add(
            "workload",
            "fpt",
            ["horizon", "k", "maxdur"].iter().map(|p| p.to_string()).collect(),
        );
        s.add("scheduler", "rr", BTreeSet::new());
        s
    }

    fn lit(text: &str) -> Literal {
        Literal {
            text: text.to_string(),
            path: "x.rs".into(),
            line: 3,
            allowed: false,
            in_test: false,
        }
    }

    #[test]
    fn valid_literals_pass_and_reference() {
        let mut out = Vec::new();
        let refs = check(&snap(), &[lit("fpt:horizon=800,k=3"), lit("rr")], &mut out);
        assert!(out.is_empty(), "{out:?}");
        assert!(refs.contains("fpt") && refs.contains("rr"));
    }

    #[test]
    fn unknown_family_param_and_noncanonical_fail() {
        let mut out = Vec::new();
        check(
            &snap(),
            &[lit("ftp:k=3"), lit("fpt:cores=2"), lit("fpt:k=3,horizon=800")],
            &mut out,
        );
        let msgs: Vec<&str> = out.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(out.len(), 3, "{msgs:?}");
        assert!(msgs[0].contains("unknown family"));
        assert!(msgs[1].contains("does not accept param"));
        assert!(msgs[2].contains("not canonical"));
    }

    #[test]
    fn unclaimed_strings_are_ignored() {
        let mut out = Vec::new();
        check(
            &snap(),
            &[lit("error: bad thing"), lit("a/b/c.rs"), lit("k=3"), lit("https://x")],
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn malformed_claimed_literal_fails_unless_allowed() {
        let mut out = Vec::new();
        check(&snap(), &[lit("fpt:k=1,k=1")], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        let mut allowed = lit("fpt:k=1,k=1");
        allowed.allowed = true;
        out.clear();
        check(&snap(), &[allowed], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn coverage_gate_flags_unreferenced_families() {
        let mut out = Vec::new();
        let refs = check(&snap(), &[lit("fpt:k=3")], &mut out);
        coverage(&snap(), &refs, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("\"rr\""));
    }
}

//! `fairsched-analyze`: the offline static-analysis lint suite for the
//! fairsched workspace.
//!
//! Run as `cargo run -p fairsched-analyze -- check`. The tool scans every
//! workspace `.rs` file plus the golden/bench JSON artifacts, entirely
//! offline, and enforces four rule families (see [`rules`]):
//! `Time`-overflow widening in library code, spec-literal validity
//! against the live registries, golden/bench hygiene (with a per-lint
//! ceiling on deliberate clippy exceptions), and schema-version
//! registration. Panic-freedom, determinism and durable writes are
//! clippy's: restriction lints in the root `Cargo.toml` and
//! `disallowed-*` bans in each replay-critical crate's `clippy.toml`.
//!
//! Three committed files govern the verdict:
//!
//! * `lint_allow.toml` — file-scoped suppressions, each with a mandatory
//!   one-line justification;
//! * `lint_ratchet.toml` — per-rule violation ceilings, and per-lint
//!   ceilings on `#[expect(clippy::…)]` sites, that may only decrease
//!   (`--update-ratchet` rewrites them to the current counts);
//! * `schema_registry.toml` — the on-disk format registry the
//!   `schema-version` rule enforces.
//!
//! Exit codes: `0` clean (stale ratchets and unused allowlist entries are
//! warnings), `1` lint failure (some rule exceeds its ratchet), `2`
//! configuration or I/O error.

pub mod config;
pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::error::Error;
use std::fs;
use std::path::{Path, PathBuf};

use config::{Allowlist, Ratchet, SchemaRegistry};
use lexer::LexedFile;
use rules::{hygiene, schema_version, spec_literals, time_arith, ALL_RULES};

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (see [`rules::ALL_RULES`]).
    pub rule: String,
    /// Workspace-relative path (forward slashes), or `workspace` for
    /// findings not tied to a file.
    pub path: String,
    /// 1-based line; 0 when not line-addressable (JSON artifacts).
    pub line: u32,
    /// Human explanation.
    pub message: String,
}

impl Finding {
    /// Constructs a finding.
    pub fn new(rule: &str, path: &str, line: u32, message: String) -> Self {
        Finding { rule: rule.to_string(), path: path.to_string(), line, message }
    }
}

/// One lexed workspace source file.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Raw text (orphan detection does substring search on it).
    pub text: String,
    /// The lexed token stream.
    pub lexed: LexedFile,
}

/// The crate source trees held to the library-code rules (`time-arith`
/// and the `#[expect]` ceiling). Tests, benches, the CLI facade, the
/// compat stubs, and this analyzer are exempt.
pub const LIBRARY_PREFIXES: [&str; 6] = [
    "crates/core/src/",
    "crates/sim/src/",
    "crates/workloads/src/",
    "crates/bench/src/",
    "crates/experiment/src/",
    "crates/serve/src/",
];

/// Directory names never descended into.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "testdata", ".github"];

/// Whether a workspace-relative path is library code.
pub fn is_library(rel: &str) -> bool {
    LIBRARY_PREFIXES.iter().any(|p| rel.starts_with(p))
}

/// Options for [`run_check`].
#[derive(Clone, Debug)]
pub struct Options {
    /// Workspace root.
    pub root: PathBuf,
    /// Rewrite `lint_ratchet.toml` to the current counts.
    pub update_ratchet: bool,
}

/// The result of a full check.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Findings that survived the allowlist.
    pub findings: Vec<Finding>,
    /// Per-rule counts after allowlist suppression.
    pub totals: BTreeMap<String, u64>,
    /// Committed ratchet ceilings in effect.
    pub ratchet: BTreeMap<String, u64>,
    /// Non-fatal observations (stale ratchets, unused allowlist entries).
    pub warnings: Vec<String>,
    /// Ratchet violations (non-empty ⇒ exit 1).
    pub failures: Vec<String>,
    /// Findings suppressed by `lint_allow.toml`.
    pub suppressed: u64,
}

impl Outcome {
    /// Whether the workspace passes.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the machine-readable JSON report (uploaded as a CI
    /// artifact).
    pub fn report(&self) -> serde::Value {
        use serde::Value;
        let num = |n: u64| Value::Number(n.to_string());
        let strings =
            |v: &[String]| Value::Array(v.iter().cloned().map(Value::String).collect());
        let mut rules = Vec::new();
        for rule in ALL_RULES {
            let count = self.totals.get(rule).copied().unwrap_or(0);
            let limit = self.ratchet.get(rule).copied().unwrap_or(0);
            let status = if count > limit {
                "over"
            } else if count < limit {
                "stale"
            } else {
                "ok"
            };
            rules.push((
                rule.to_string(),
                Value::Object(vec![
                    ("count".into(), num(count)),
                    ("ratchet".into(), num(limit)),
                    ("status".into(), Value::String(status.into())),
                ]),
            ));
        }
        let findings = self
            .findings
            .iter()
            .map(|f| {
                Value::Object(vec![
                    ("rule".into(), Value::String(f.rule.clone())),
                    ("path".into(), Value::String(f.path.clone())),
                    ("line".into(), num(u64::from(f.line))),
                    ("message".into(), Value::String(f.message.clone())),
                ])
            })
            .collect();
        Value::Object(vec![
            ("schema".into(), Value::String("fairsched-analyze-report/v1".into())),
            ("rules".into(), Value::Object(rules)),
            ("findings".into(), Value::Array(findings)),
            ("suppressed".into(), num(self.suppressed)),
            ("warnings".into(), strings(&self.warnings)),
            ("failures".into(), strings(&self.failures)),
            ("ok".into(), Value::Bool(self.ok())),
        ])
    }
}

/// Runs the full check over a workspace root.
pub fn run_check(opts: &Options) -> Result<Outcome, Box<dyn Error>> {
    let sources = load_sources(&opts.root)?;
    let mut findings = Vec::new();
    let mut outcome = Outcome::default();

    let ratchet_path = opts.root.join("lint_ratchet.toml");
    let mut ratchet = if ratchet_path.exists() {
        Ratchet::parse("lint_ratchet.toml", &fs::read_to_string(&ratchet_path)?)?
    } else {
        outcome.warnings.push(
            "lint_ratchet.toml missing: all ceilings default to 0 (run --update-ratchet)"
                .to_string(),
        );
        Ratchet::default()
    };

    // Library-code rules.
    let library: Vec<&SourceFile> =
        sources.iter().filter(|s| is_library(&s.rel)).collect();
    let lexed_refs: Vec<(&str, &LexedFile)> =
        library.iter().map(|s| (s.rel.as_str(), &s.lexed)).collect();
    let time_names = time_arith::collect_time_names(&lexed_refs);
    for src in &library {
        time_arith::check(&src.rel, &src.lexed, &time_names, &mut findings);
    }

    // Spec literals: all Rust sources + golden artifacts, validated
    // against the live registries.
    let mut literals = spec_literals::literals_from_rust(&sources);
    let goldens = collect_goldens(&opts.root, &mut findings, &mut literals)?;
    let snap = spec_literals::RegistrySnapshot::live();
    let referenced = spec_literals::check(&snap, &literals, &mut findings);
    spec_literals::coverage(&snap, &referenced, &mut findings);

    // Schema versions: the literal pool against the committed registry.
    let registry_path = opts.root.join(schema_version::REGISTRY_PATH);
    let registry = if registry_path.exists() {
        Some(SchemaRegistry::parse(
            schema_version::REGISTRY_PATH,
            &fs::read_to_string(&registry_path)?,
        )?)
    } else {
        None
    };
    schema_version::check(registry.as_ref(), &literals, &sources, &mut findings);

    // Hygiene: orphan goldens (schema checks ran during collection) and
    // the deliberate clippy exceptions against their ceilings.
    hygiene::check_orphans(&goldens, &sources, &mut findings);
    let expects = hygiene::count_expects(&sources);
    if !opts.update_ratchet {
        hygiene::check_expects(
            &expects,
            &ratchet.expects,
            &mut findings,
            &mut outcome.warnings,
        );
    }

    findings.sort_by(|a, b| (&a.rule, &a.path, a.line).cmp(&(&b.rule, &b.path, b.line)));

    // Allowlist, then ratchet.
    let allow = read_allowlist(&opts.root)?;
    let (kept, suppressed) = apply_allowlist(findings, &allow, &mut outcome.warnings);
    outcome.findings = kept;
    outcome.suppressed = suppressed;
    for rule in ALL_RULES {
        let count = outcome.findings.iter().filter(|f| f.rule == rule).count() as u64;
        outcome.totals.insert(rule.to_string(), count);
    }

    if opts.update_ratchet {
        ratchet.limits =
            ALL_RULES.iter().map(|r| (r.to_string(), outcome.totals[*r])).collect();
        ratchet.expects = expects;
        fs::write(&ratchet_path, ratchet.render())?;
    }
    for (rule, limit) in &ratchet.limits {
        if !ALL_RULES.contains(&rule.as_str()) {
            outcome
                .warnings
                .push(format!("lint_ratchet.toml names unknown rule {rule:?}"));
            continue;
        }
        let count = outcome.totals.get(rule).copied().unwrap_or(0);
        if count < *limit {
            outcome.warnings.push(format!(
                "ratchet for {rule} is stale: {limit} committed, {count} current — \
                 tighten it with --update-ratchet"
            ));
        }
    }
    for rule in ALL_RULES {
        let limit = ratchet.limits.get(rule).copied().unwrap_or(0);
        let count = outcome.totals[rule];
        if count > limit {
            outcome.failures.push(format!(
                "{rule}: {count} findings exceed the committed ratchet of {limit}"
            ));
        }
    }
    outcome.ratchet = ratchet.limits;
    Ok(outcome)
}

/// Reads `lint_allow.toml` if present.
fn read_allowlist(root: &Path) -> Result<Allowlist, Box<dyn Error>> {
    let path = root.join("lint_allow.toml");
    if !path.exists() {
        return Ok(Allowlist::default());
    }
    Ok(Allowlist::parse("lint_allow.toml", &fs::read_to_string(path)?)?)
}

/// Applies file-scoped allowlist suppression: per `(rule, path)` group,
/// up to the granted allowance of findings is dropped (earliest first, so
/// newly introduced sites at the bottom of a file surface first).
fn apply_allowlist(
    findings: Vec<Finding>,
    allow: &Allowlist,
    warnings: &mut Vec<String>,
) -> (Vec<Finding>, u64) {
    let mut used: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut kept = Vec::new();
    let mut suppressed = 0u64;
    for f in findings {
        let key = (f.rule.clone(), f.path.clone());
        let granted = allow.allowance(&f.rule, &f.path);
        let u = used.entry(key).or_insert(0);
        if *u < granted {
            *u += 1;
            suppressed += 1;
        } else {
            kept.push(f);
        }
    }
    for e in &allow.entries {
        let consumed = used.get(&(e.rule.clone(), e.path.clone())).copied().unwrap_or(0);
        let granted = allow.allowance(&e.rule, &e.path);
        if consumed < granted {
            warnings.push(format!(
                "lint_allow.toml:{} grants {} for {} in {} but only {} matched — \
                 shrink or delete the entry",
                e.line, granted, e.rule, e.path, consumed
            ));
        }
    }
    (kept, suppressed)
}

/// Recursively collects and lexes every workspace `.rs` file.
pub fn load_sources(root: &Path) -> Result<Vec<SourceFile>, Box<dyn Error>> {
    let mut files = Vec::new();
    walk(root, root, &mut |abs, rel| {
        if rel.ends_with(".rs") {
            files.push((abs.to_path_buf(), rel.to_string()));
        }
        Ok(())
    })?;
    files.sort_by(|a, b| a.1.cmp(&b.1));
    let mut out = Vec::new();
    for (abs, rel) in files {
        let text = fs::read_to_string(&abs)?;
        let lexed = lexer::lex(&text);
        out.push(SourceFile { rel, text, lexed });
    }
    Ok(out)
}

/// Collects golden/bench artifacts, runs their schema checks, and feeds
/// their strings into the spec-literal pool. Returns the golden paths
/// (for orphan detection).
fn collect_goldens(
    root: &Path,
    findings: &mut Vec<Finding>,
    literals: &mut Vec<spec_literals::Literal>,
) -> Result<Vec<String>, Box<dyn Error>> {
    let mut goldens = Vec::new();
    let golden_root = root.join("tests/golden");
    if golden_root.exists() {
        walk(&golden_root, root, &mut |abs, rel| {
            goldens.push(rel.to_string());
            let text = fs::read_to_string(abs)?;
            if rel.ends_with(".json") {
                match serde_json::parse_value(&text) {
                    Ok(doc) => {
                        // Bench goldens pin bench-crate tables, not reports.
                        if !rel.starts_with("tests/golden/bench/") {
                            hygiene::check_report(rel, &doc, findings);
                        }
                        spec_literals::literals_from_json(rel, &doc, literals);
                    }
                    Err(e) => findings.push(Finding::new(
                        rules::HYGIENE,
                        rel,
                        0,
                        format!("golden JSON does not parse: {e:?}"),
                    )),
                }
            } else if rel.starts_with("tests/golden/workloads/") {
                hygiene::check_workload_golden(rel, &text, findings);
                literals.extend(spec_literals::literal_from_workload_golden(rel, &text));
            } else if rel.ends_with(".txt") {
                hygiene::check_schedule_golden(rel, &text, findings);
            }
            Ok(())
        })?;
    }
    goldens.sort();
    let bench = root.join("BENCH_lattice.json");
    if bench.exists() {
        let text = fs::read_to_string(&bench)?;
        match serde_json::parse_value(&text) {
            Ok(doc) => {
                hygiene::check_bench_lattice("BENCH_lattice.json", &doc, findings);
                spec_literals::literals_from_json("BENCH_lattice.json", &doc, literals);
            }
            Err(e) => findings.push(Finding::new(
                rules::HYGIENE,
                "BENCH_lattice.json",
                0,
                format!("bench artifact does not parse: {e:?}"),
            )),
        }
    }
    // Committed experiment specs, wherever they live: every
    // `*.experiment.json` must load through the real spec parser, and its
    // spec strings join the literal pool so an unknown scheduler or
    // workload name in a fixture fails the lint, not the nightly run.
    walk(root, root, &mut |abs, rel| {
        if !rel.ends_with(".experiment.json") {
            return Ok(());
        }
        let text = fs::read_to_string(abs)?;
        match serde_json::parse_value(&text) {
            Ok(doc) => {
                hygiene::check_experiment_spec(rel, &doc, findings);
                spec_literals::literals_from_json(rel, &doc, literals);
            }
            Err(e) => findings.push(Finding::new(
                rules::HYGIENE,
                rel,
                0,
                format!("experiment spec does not parse as JSON: {e:?}"),
            )),
        }
        Ok(())
    })?;
    Ok(goldens)
}

/// A file visitor for [`walk`]: `(absolute, workspace_relative)`.
type Visitor<'a> = dyn FnMut(&Path, &str) -> Result<(), Box<dyn Error>> + 'a;

/// Depth-first walk calling `visit(abs, workspace_relative)` on files.
fn walk(dir: &Path, root: &Path, visit: &mut Visitor<'_>) -> Result<(), Box<dyn Error>> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(&path, root, visit)?;
        } else {
            let rel = path
                .strip_prefix(root)
                .map(|p| p.to_string_lossy().replace('\\', "/"))
                .unwrap_or_else(|_| name.clone());
            visit(&path, &rel)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_scope_is_the_five_crates() {
        assert!(is_library("crates/core/src/fairness.rs"));
        assert!(is_library("crates/bench/src/baseline.rs"));
        assert!(is_library("crates/experiment/src/runner.rs"));
        assert!(!is_library("crates/core/tests/x.rs"));
        assert!(!is_library("tests/end_to_end.rs"));
        assert!(!is_library("crates/compat/serde/src/lib.rs"));
        assert!(!is_library("crates/analyze/src/lib.rs"));
    }

    #[test]
    fn allowlist_drops_earliest_findings_and_flags_unused() {
        let allow = Allowlist::parse(
            "lint_allow.toml",
            "[[allow]]\nrule = \"time-arith\"\npath = \"a.rs\"\ncount = 2\nreason = \"x\"\n\
             [[allow]]\nrule = \"time-arith\"\npath = \"b.rs\"\ncount = 1\nreason = \"y\"\n",
        )
        .unwrap();
        let findings = vec![
            Finding::new("time-arith", "a.rs", 1, "one".into()),
            Finding::new("time-arith", "a.rs", 5, "two".into()),
            Finding::new("time-arith", "a.rs", 9, "three".into()),
        ];
        let mut warnings = Vec::new();
        let (kept, suppressed) = apply_allowlist(findings, &allow, &mut warnings);
        assert_eq!(kept.len(), 1);
        assert_eq!(suppressed, 2);
        assert_eq!(kept[0].line, 9);
        // The b.rs entry matched nothing: flagged as unused.
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("b.rs"));
    }
}

//! `hygiene`: golden / bench artifact schema checks and orphan detection.
//!
//! The golden corpus is the regression anchor for the whole workspace, so
//! it gets its own lint family:
//!
//! * `tests/golden/reports/*.json` must parse and carry the report
//!   schema's load-bearing keys (`workload_spec`, `scheduler_spec`,
//!   `metric_specs`, `orgs`, `aggregates`), with `orgs` entries holding
//!   `name` + `metrics`;
//! * `tests/golden/bench/*.json` (bench tables and trajectories) must
//!   parse;
//! * `tests/golden/workloads/*.txt` must open with a `spec=` header and
//!   list at least one `org=` line;
//! * `tests/golden/*.txt` (schedule goldens) must open with `scheduler=`
//!   and carry a `horizon=` line;
//! * `BENCH_lattice.json` must declare `schema =
//!   "fairsched-bench-lattice/v1"` with non-empty `cases`, a `timeline`
//!   array, and a `summary` object;
//! * every committed `*.experiment.json` fixture must load through the
//!   real [`fairsched_experiment::ExperimentSpec`] parser (and its spec
//!   strings are validated against the live registries by the
//!   spec-literal rule);
//! * every golden file must be referenced by name from some workspace
//!   `.rs` file — an unreferenced golden is dead weight that silently
//!   stops guarding anything (reported as an orphan);
//! * the deliberate clippy exceptions in non-test library code — each
//!   `#[expect(clippy::<lint>, …)]` or `#![expect(clippy::<lint>, …)]`
//!   — may not outnumber, per lint, the ceiling in `lint_ratchet.toml`'s
//!   `[expect]` section, so a new panic site or raw write cannot slip in
//!   behind a fresh expectation unseen.

use std::collections::BTreeMap;

use crate::lexer::{Tok, Token};
use crate::rules::HYGIENE;
use crate::{is_library, Finding, SourceFile};

/// The expected `schema` tag in `BENCH_lattice.json`.
pub const BENCH_SCHEMA: &str = "fairsched-bench-lattice/v1";

/// Keys every golden report JSON must carry.
const REPORT_KEYS: [&str; 5] =
    ["workload_spec", "scheduler_spec", "metric_specs", "orgs", "aggregates"];

fn get<'a>(v: &'a serde::Value, key: &str) -> Option<&'a serde::Value> {
    match v {
        serde::Value::Object(entries) => {
            entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }
        _ => None,
    }
}

/// Checks one golden report JSON (already parsed; parse failures are
/// reported by the caller, which owns the file I/O).
pub fn check_report(path: &str, doc: &serde::Value, out: &mut Vec<Finding>) {
    for key in REPORT_KEYS {
        if get(doc, key).is_none() {
            out.push(Finding::new(
                HYGIENE,
                path,
                0,
                format!("golden report is missing required key {key:?}"),
            ));
        }
    }
    if let Some(serde::Value::Array(orgs)) = get(doc, "orgs") {
        for (i, org) in orgs.iter().enumerate() {
            if get(org, "name").is_none() || get(org, "metrics").is_none() {
                out.push(Finding::new(
                    HYGIENE,
                    path,
                    0,
                    format!("golden report orgs[{i}] is missing name/metrics"),
                ));
            }
        }
    }
}

/// Checks one workload golden's text.
pub fn check_workload_golden(path: &str, text: &str, out: &mut Vec<Finding>) {
    let first = text.lines().next().unwrap_or("");
    if !first.starts_with("spec=") {
        out.push(Finding::new(
            HYGIENE,
            path,
            1,
            "workload golden must open with a `spec=` header".to_string(),
        ));
    }
    if !text.lines().any(|l| l.starts_with("org=")) {
        out.push(Finding::new(
            HYGIENE,
            path,
            0,
            "workload golden lists no `org=` lines".to_string(),
        ));
    }
}

/// Checks one schedule golden's text (`tests/golden/*.txt`).
pub fn check_schedule_golden(path: &str, text: &str, out: &mut Vec<Finding>) {
    let first = text.lines().next().unwrap_or("");
    if !first.starts_with("scheduler=") {
        out.push(Finding::new(
            HYGIENE,
            path,
            1,
            "schedule golden must open with a `scheduler=` header".to_string(),
        ));
    }
    if !text.lines().any(|l| l.starts_with("horizon=")) {
        out.push(Finding::new(
            HYGIENE,
            path,
            0,
            "schedule golden carries no `horizon=` line".to_string(),
        ));
    }
}

/// Checks the bench lattice artifact (already parsed).
pub fn check_bench_lattice(path: &str, doc: &serde::Value, out: &mut Vec<Finding>) {
    match get(doc, "schema") {
        Some(serde::Value::String(s)) if s == BENCH_SCHEMA => {}
        other => out.push(Finding::new(
            HYGIENE,
            path,
            0,
            format!("bench artifact schema must be {BENCH_SCHEMA:?}, found {other:?}"),
        )),
    }
    match get(doc, "cases") {
        Some(serde::Value::Array(cases)) if !cases.is_empty() => {
            for (i, case) in cases.iter().enumerate() {
                for key in ["name", "scheduler", "lattice"] {
                    if get(case, key).is_none() {
                        out.push(Finding::new(
                            HYGIENE,
                            path,
                            0,
                            format!("bench cases[{i}] is missing {key:?}"),
                        ));
                    }
                }
                if let Some(serde::Value::String(name)) = get(case, "name") {
                    if name.starts_with("scale/") {
                        check_scale_case(path, i, name, case, out);
                    }
                }
            }
        }
        _ => out.push(Finding::new(
            HYGIENE,
            path,
            0,
            "bench artifact must carry a non-empty `cases` array".to_string(),
        )),
    }
    if !matches!(get(doc, "timeline"), Some(serde::Value::Array(_))) {
        out.push(Finding::new(
            HYGIENE,
            path,
            0,
            "bench artifact must carry a `timeline` array".to_string(),
        ));
    }
    if !matches!(get(doc, "summary"), Some(serde::Value::Object(_))) {
        out.push(Finding::new(
            HYGIENE,
            path,
            0,
            "bench artifact must carry a `summary` object".to_string(),
        ));
    }
}

/// Job-count floor a committed `scale/` bench row must report — the
/// million-job tier's reason to exist.
pub const SCALE_MIN_JOBS: u64 = 1_000_000;

/// Validates one `scale/` case of the bench artifact: the million-job
/// tier's rows must carry the full numeric timing schema, report a
/// million-job trace (`scale/` at toy sizes would gate nothing), and have
/// a `null` lattice — the coalition lattice is 2^k and the tier runs at
/// `k = 100`, so a non-null lattice means the row was mislabeled.
fn check_scale_case(
    path: &str,
    i: usize,
    name: &str,
    case: &serde::Value,
    out: &mut Vec<Finding>,
) {
    let numeric = |key: &str| -> Option<u64> {
        match get(case, key) {
            Some(serde::Value::Number(n)) => n.parse::<u64>().ok(),
            _ => None,
        }
    };
    for key in [
        "k",
        "n_jobs",
        "horizon",
        "samples",
        "wall_ns_min",
        "wall_ns_mean",
        "engine_events",
    ] {
        if numeric(key).is_none() {
            out.push(Finding::new(
                HYGIENE,
                path,
                0,
                format!("bench cases[{i}] ({name}): scale row lacks numeric {key:?}"),
            ));
        }
    }
    if let Some(n_jobs) = numeric("n_jobs") {
        if n_jobs < SCALE_MIN_JOBS {
            out.push(Finding::new(
                HYGIENE,
                path,
                0,
                format!(
                    "bench cases[{i}] ({name}): scale row reports {n_jobs} jobs, \
                     below the {SCALE_MIN_JOBS} tier floor"
                ),
            ));
        }
    }
    if !matches!(get(case, "lattice"), Some(serde::Value::Null) | None) {
        out.push(Finding::new(
            HYGIENE,
            path,
            0,
            format!(
                "bench cases[{i}] ({name}): scale rows must have a null lattice \
                 (no 2^100 coalition lattice exists)"
            ),
        ));
    }
}

/// Checks one committed `*.experiment.json` fixture (already parsed)
/// against the real loader — the exact code `fairsched experiment run`
/// uses — so a fixture that drifts from the spec schema fails the lint
/// with the loader's own typed diagnostic.
pub fn check_experiment_spec(path: &str, doc: &serde::Value, out: &mut Vec<Finding>) {
    if let Err(e) = fairsched_experiment::ExperimentSpec::from_json_value(doc) {
        out.push(Finding::new(HYGIENE, path, 0, e.to_string()));
    }
}

/// Orphan detection: a golden (workspace-relative path) is an orphan when
/// no workspace `.rs` source mentions its file name — or its extensionless
/// stem, since the golden test tables name cases by stem and append the
/// extension when resolving the path.
pub fn check_orphans(
    golden_paths: &[String],
    sources: &[SourceFile],
    out: &mut Vec<Finding>,
) {
    for path in golden_paths {
        let name = path.rsplit('/').next().unwrap_or(path);
        let stem = name.rsplit_once('.').map_or(name, |(s, _)| s);
        let referenced =
            sources.iter().any(|s| s.text.contains(name) || s.text.contains(stem));
        if !referenced {
            out.push(Finding::new(
                HYGIENE,
                path,
                0,
                "orphan golden: no workspace source references this file".to_string(),
            ));
        }
    }
}

/// Counts, per clippy lint, the `#[expect(clippy::<lint>, …)]` and
/// `#![expect(clippy::<lint>, …)]` attributes in non-test library code.
/// An attribute that expects several lints counts once for each.
pub fn count_expects(sources: &[SourceFile]) -> BTreeMap<String, u64> {
    let mut counts = BTreeMap::new();
    for src in sources.iter().filter(|s| is_library(&s.rel)) {
        let toks = &src.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.in_test || t.tok != Tok::Punct('#') {
                continue;
            }
            let open = if is(toks, i + 1, "!") { i + 2 } else { i + 1 };
            if !(is(toks, open, "[")
                && is(toks, open + 1, "expect")
                && is(toks, open + 2, "("))
            {
                continue;
            }
            let mut depth = 0;
            for j in open + 2..toks.len() {
                match &toks[j].tok {
                    Tok::Punct('(') => depth += 1,
                    Tok::Punct(')') if depth == 1 => break,
                    Tok::Punct(')') => depth -= 1,
                    Tok::Ident(c) if c == "clippy" && is(toks, j + 1, ":") => {
                        if let Some(Tok::Ident(lint)) = toks.get(j + 3).map(|t| &t.tok) {
                            *counts.entry(lint.clone()).or_insert(0) += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    counts
}

/// Whether token `i` is the identifier or single punctuation `text`.
fn is(toks: &[Token], i: usize, text: &str) -> bool {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => s == text,
        Some(Tok::Punct(c)) => text.len() == 1 && text.starts_with(*c),
        _ => false,
    }
}

/// Holds the expectation counts against their committed ceilings: a lint
/// over its ceiling (a lint with no ceiling has 0) is a finding, and a
/// ceiling above its count is a stale-ceiling warning.
pub fn check_expects(
    counts: &BTreeMap<String, u64>,
    ceilings: &BTreeMap<String, u64>,
    out: &mut Vec<Finding>,
    warnings: &mut Vec<String>,
) {
    for (lint, &count) in counts {
        let limit = ceilings.get(lint).copied().unwrap_or(0);
        if count > limit {
            out.push(Finding::new(
                HYGIENE,
                "lint_ratchet.toml",
                0,
                format!(
                    "{count} `#[expect(clippy::{lint})]` sites in library code exceed \
                     the [expect] ceiling of {limit} — fix the new site instead"
                ),
            ));
        }
    }
    for (lint, &limit) in ceilings {
        let count = counts.get(lint).copied().unwrap_or(0);
        if count < limit {
            warnings.push(format!(
                "[expect] ceiling for {lint} is stale: {limit} committed, {count} \
                 current — tighten it with --update-ratchet"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn source(rel: &str, src: &str) -> SourceFile {
        SourceFile { rel: rel.into(), text: src.into(), lexed: lex(src) }
    }

    #[test]
    fn expects_are_counted_per_lint_in_library_code_only() {
        let lib = r#"
            #![expect(clippy::expect_used, reason = "module")]
            #[expect(clippy::unwrap_used, clippy::panic, reason = "two lints (x)")]
            fn f() {}
            #[allow(clippy::unwrap_used)]
            fn g() {}
            #[cfg(test)]
            mod tests {
                #[expect(clippy::unwrap_used, reason = "test code")]
                fn h() {}
            }
        "#;
        let counts = count_expects(&[
            source("crates/core/src/lib.rs", lib),
            source("tests/t.rs", "#[expect(clippy::panic)]\nfn t() {}\n"),
        ]);
        let want: BTreeMap<String, u64> =
            [("expect_used", 1), ("panic", 1), ("unwrap_used", 1)]
                .map(|(l, n)| (l.to_string(), n))
                .into();
        assert_eq!(counts, want);

        let mut out = Vec::new();
        let mut warnings = Vec::new();
        let ceilings: BTreeMap<String, u64> = [("expect_used", 1), ("unwrap_used", 2)]
            .map(|(l, n)| (l.to_string(), n))
            .into();
        check_expects(&counts, &ceilings, &mut out, &mut warnings);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("clippy::panic"), "{out:?}");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("unwrap_used"), "{warnings:?}");
    }

    fn parse(json: &str) -> serde::Value {
        serde_json::parse_value(json).expect("test json")
    }

    #[test]
    fn report_schema_violations_are_found() {
        let doc = parse(r#"{"workload_spec": "fpt:k=3", "orgs": [{"name": "org0"}]}"#);
        let mut out = Vec::new();
        check_report("tests/golden/reports/x.json", &doc, &mut out);
        // Missing scheduler_spec, metric_specs, aggregates + org without
        // metrics.
        assert_eq!(out.len(), 4, "{out:?}");
    }

    #[test]
    fn good_report_passes() {
        let doc = parse(
            r#"{"workload_spec": "w", "scheduler_spec": "s", "metric_specs": ["m"],
                "orgs": [{"name": "org0", "metrics": {"m": 1}}], "aggregates": {"m": 1}}"#,
        );
        let mut out = Vec::new();
        check_report("r.json", &doc, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn workload_and_schedule_golden_headers() {
        let mut out = Vec::new();
        check_workload_golden(
            "w.txt",
            "spec=fpt:k=3\nseed=1\norg=org0 machines=2\n",
            &mut out,
        );
        check_schedule_golden("s.txt", "scheduler=Ref\nhorizon=40\n", &mut out);
        assert!(out.is_empty(), "{out:?}");
        check_workload_golden("w.txt", "seed=1\n", &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn bench_schema_and_cases_are_checked() {
        let mut out = Vec::new();
        let good = parse(
            r#"{"schema": "fairsched-bench-lattice/v1",
                "cases": [{"name": "c", "scheduler": "ref", "lattice": {}}],
                "timeline": [], "summary": {}}"#,
        );
        check_bench_lattice("BENCH_lattice.json", &good, &mut out);
        assert!(out.is_empty(), "{out:?}");
        let bad = parse(r#"{"schema": "v0", "cases": []}"#);
        check_bench_lattice("BENCH_lattice.json", &bad, &mut out);
        assert_eq!(out.len(), 4, "{out:?}");
    }

    #[test]
    fn scale_rows_get_schema_and_size_checks() {
        let mut out = Vec::new();
        let good = parse(
            r#"{"schema": "fairsched-bench-lattice/v1",
                "cases": [{"name": "scale/fifo/k=100", "scheduler": "Fifo",
                           "k": 100, "n_jobs": 1047934, "horizon": 9999999,
                           "samples": 2, "wall_ns_min": 1, "wall_ns_mean": 2,
                           "engine_events": 3, "lattice": null}],
                "timeline": [], "summary": {}}"#,
        );
        check_bench_lattice("BENCH_lattice.json", &good, &mut out);
        assert!(out.is_empty(), "{out:?}");

        // Sub-tier job count, missing timing key, non-null lattice: all
        // reported; non-scale rows are untouched by the extra checks.
        let bad = parse(
            r#"{"schema": "fairsched-bench-lattice/v1",
                "cases": [{"name": "scale/fifo/k=100", "scheduler": "Fifo",
                           "k": 100, "n_jobs": 10, "horizon": 1,
                           "samples": 2, "wall_ns_mean": 2,
                           "engine_events": 3, "lattice": {"settles": 1}},
                          {"name": "ref/k=8", "scheduler": "Ref",
                           "lattice": {"settles": 1}}],
                "timeline": [], "summary": {}}"#,
        );
        check_bench_lattice("BENCH_lattice.json", &bad, &mut out);
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out.iter().any(|f| f.message.contains("wall_ns_min")), "{out:?}");
        assert!(out.iter().any(|f| f.message.contains("tier floor")), "{out:?}");
        assert!(out.iter().any(|f| f.message.contains("null lattice")), "{out:?}");
    }

    #[test]
    fn experiment_specs_go_through_the_real_loader() {
        let mut out = Vec::new();
        let good = parse(
            r#"{"schema": "fairsched-experiment/v1", "name": "t",
                "workloads": ["fpt:k=2"], "schedulers": ["fifo"]}"#,
        );
        check_experiment_spec("t.experiment.json", &good, &mut out);
        assert!(out.is_empty(), "{out:?}");
        let bad = parse(
            r#"{"schema": "fairsched-experiment/v1", "name": "t",
                "workloads": ["fpt:k="], "schedulers": ["fifo"]}"#,
        );
        check_experiment_spec("t.experiment.json", &bad, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("workloads[0]"), "{out:?}");
    }

    #[test]
    fn orphans_are_reported() {
        let src = source("tests/t.rs", "load(\"tests/golden/used.txt\")");
        let mut out = Vec::new();
        check_orphans(
            &["tests/golden/used.txt".into(), "tests/golden/unused.txt".into()],
            &[src],
            &mut out,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].path, "tests/golden/unused.txt");
    }
}

//! Integration tests driving [`fairsched_analyze::run_check`] against the
//! seeded fixture workspaces under `testdata/` — each rule family must
//! fire on the violations fixture, the allowlist must suppress, a
//! deliberate clippy exception at its ceiling must pass and one above it
//! fail, and a too-high ratchet must be reported as stale (not a
//! failure).
//!
//! `testdata/` is a skipped directory name in the workspace walker, so
//! these deliberately broken files are invisible when the analyzer runs
//! over the real repository. The last test reads the real repository.

use std::path::PathBuf;

use fairsched_analyze::lexer::Tok;
use fairsched_analyze::{load_sources, run_check, Finding, Options, Outcome};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("testdata").join(name)
}

/// The real repository root.
fn workspace() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn check(name: &str) -> Outcome {
    run_check(&Options { root: fixture(name), update_ratchet: false })
        .expect("fixture check runs")
}

fn of_rule<'a>(o: &'a Outcome, rule: &str) -> Vec<&'a Finding> {
    o.findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn violations_fixture_trips_every_rule_family() {
    let o = check("violations");
    assert!(!o.ok(), "seeded violations must fail: {:?}", o.failures);

    // time-arith: the raw product and the Time+Time sum, but neither the
    // inline-allowed product nor anything in the #[cfg(test)] module.
    let ta = of_rule(&o, "time-arith");
    assert_eq!(ta.len(), 2, "{ta:?}");
    assert!(ta.iter().any(|f| f.message.contains("raw `*`")));
    assert!(ta.iter().any(|f| f.message.contains("raw `+`")));

    // spec-literal: the unknown family in library code (coverage-gate
    // findings about the tiny workspace land on the synthetic
    // `workspace` path and are ignored here).
    let sl: Vec<_> = of_rule(&o, "spec-literal")
        .into_iter()
        .filter(|f| f.path != "workspace")
        .collect();
    assert_eq!(sl.len(), 1, "{sl:?}");
    assert!(sl[0].message.contains("nosuchfamily"));

    // hygiene: bad report schema (missing keys + org without metrics),
    // workload golden without a spec= header, wrong bench schema, orphan
    // goldens, and an `#[expect(clippy::unwrap_used)]` above its ceiling
    // of 0 (the one in the #[cfg(test)] module is not counted).
    let hy = of_rule(&o, "hygiene");
    assert!(
        hy.iter().any(|f| f.path.ends_with("bad_report.json")
            && f.message.contains("scheduler_spec")),
        "{hy:?}"
    );
    assert!(hy.iter().any(|f| f.message.contains("`spec=` header")), "{hy:?}");
    assert!(hy
        .iter()
        .any(|f| f.path == "BENCH_lattice.json" && f.message.contains("schema")));
    assert!(
        hy.iter()
            .any(|f| f.path.ends_with("orphan_schedule.txt")
                && f.message.contains("orphan"))
    );
    let over: Vec<_> =
        hy.iter().filter(|f| f.message.contains("clippy::unwrap_used")).collect();
    assert_eq!(over.len(), 1, "{hy:?}");
    assert!(
        over[0].message.starts_with("1 ") && over[0].message.contains("ceiling of 0")
    );

    // schema-version: the unregistered literal in library code, plus the
    // rotten registry entry (dead decode test + id used nowhere). The
    // healthy entry — live decode test, id kept alive by a test-scope
    // literal — produces nothing.
    let sv = of_rule(&o, "schema-version");
    assert_eq!(sv.len(), 3, "{sv:?}");
    assert!(sv.iter().any(|f| f.path == "crates/sim/src/engine.rs"
        && f.message.contains("fairsched-engine-state/v1")
        && f.message.contains("not registered")));
    assert!(
        sv.iter()
            .any(|f| f.path == "schema_registry.toml"
                && f.message.contains("no #[test] fn"))
    );
    assert!(sv
        .iter()
        .any(|f| f.path == "schema_registry.toml"
            && f.message.contains("no longer appears")));

    // With no committed ratchet every non-zero family is a failure.
    assert!(o.failures.iter().any(|f| f.contains("time-arith")));
    assert!(o.failures.iter().any(|f| f.contains("hygiene")));
    assert!(o.failures.iter().any(|f| f.contains("schema-version")));
}

#[test]
fn allowlist_suppresses_and_unused_entries_are_flagged() {
    let o = check("allowed");
    assert!(o.ok(), "fully covered fixture must pass: {:?}", o.failures);
    assert_eq!(o.suppressed, 2, "both time-arith sites suppressed");
    assert_eq!(of_rule(&o, "time-arith").len(), 0);
    // The `#[expect(clippy::unwrap_used)]` site sits at its ceiling.
    assert_eq!(of_rule(&o, "hygiene").len(), 0);
    assert!(!o.warnings.iter().any(|w| w.contains("[expect]")), "{:?}", o.warnings);
    // The registered schema literal with a live decode test is clean.
    assert_eq!(of_rule(&o, "schema-version").len(), 0);
    assert!(
        o.warnings
            .iter()
            .any(|w| w.contains("time-arith") && w.contains("only 0 matched")),
        "unused allowlist entry must be reported: {:?}",
        o.warnings
    );
}

#[test]
fn too_high_ratchet_is_reported_stale_but_passes() {
    let o = check("stale");
    assert!(o.ok(), "{:?}", o.failures);
    assert_eq!(of_rule(&o, "time-arith").len(), 0);
    assert!(
        o.warnings.iter().any(|w| w.contains("time-arith") && w.contains("stale")),
        "stale ratchet must be surfaced: {:?}",
        o.warnings
    );
    assert!(
        o.warnings.iter().any(|w| w.contains("[expect] ceiling for panic is stale")),
        "stale [expect] ceiling must be surfaced: {:?}",
        o.warnings
    );
}

#[test]
fn report_json_carries_rule_counts_and_verdict() {
    let o = check("violations");
    let report = o.report();
    let serde::Value::Object(entries) = &report else { panic!("object report") };
    let get = |k: &str| entries.iter().find(|(n, _)| n == k).map(|(_, v)| v);
    assert!(matches!(get("ok"), Some(serde::Value::Bool(false))));
    let Some(serde::Value::Object(rules)) = get("rules") else { panic!("rules object") };
    assert_eq!(rules.len(), 4);
    // Round-trips through the JSON writer/parser.
    let text = report.to_json_pretty();
    let parsed = serde_json::parse_value(&text).expect("report parses");
    assert_eq!(format!("{parsed:?}"), format!("{report:?}"));
}

/// Test code never names a fixed path under the shared system temp dir,
/// where two test runs on one host would delete each other's files:
/// integration tests use `env!("CARGO_TARGET_TMPDIR")`, and unit tests
/// call their crate's `scratch_dir` helper, which adds the process id and
/// a counter. Only those helpers may call `temp_dir()` in test code.
#[test]
fn test_code_reaches_temp_dir_only_through_the_scratch_helpers() {
    let root = workspace();
    let mut offenders = Vec::new();
    let mut helpers = 0;
    for src in load_sources(&root).expect("workspace sources load") {
        let test_file = src.rel.starts_with("tests/") || src.rel.contains("/tests/");
        let toks = &src.lexed.tokens;
        for (i, w) in toks.windows(5).enumerate() {
            // `env::temp_dir(`, however the `env` module is reached.
            let call = matches!(
                (&w[0].tok, &w[1].tok, &w[2].tok, &w[3].tok, &w[4].tok),
                (Tok::Ident(m), Tok::Punct(':'), Tok::Punct(':'), Tok::Ident(f), Tok::Punct('('))
                    if m == "env" && f == "temp_dir"
            );
            if !call || !(test_file || w[3].in_test) {
                continue;
            }
            // The enclosing fn is the last `fn <name>` before the call.
            let enclosing =
                toks[..i].windows(2).rev().find_map(|w| match (&w[0].tok, &w[1].tok) {
                    (Tok::Ident(kw), Tok::Ident(name)) if kw == "fn" => {
                        Some(name.as_str())
                    }
                    _ => None,
                });
            if enclosing == Some("scratch_dir") && src.rel.ends_with("/src/lib.rs") {
                helpers += 1;
            } else {
                offenders.push(format!("{}:{}", src.rel, w[3].line));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "temp_dir() in test code outside scratch_dir: {offenders:?}"
    );
    assert_eq!(
        helpers, 4,
        "one scratch_dir helper each in core, experiment, workloads, serve"
    );
}

/// Clippy, not this analyzer, bans clock reads, entropy, hash-ordered
/// collections and raw writes; its scope is the set of crates whose
/// `clippy.toml` lists the bans. The five replay-critical crates carry
/// all of them, and the bench, which measures wall time, only the raw
/// writes.
#[test]
fn replay_critical_crates_ban_clocks_entropy_hash_types_and_raw_writes() {
    const RAW_WRITES: [&str; 6] = [
        "std::fs::write",
        "std::fs::File::create",
        "std::fs::File::create_new",
        "std::fs::OpenOptions::new",
        "std::fs::File::options",
        "std::fs::rename",
    ];
    const DETERMINISM: [&str; 7] = [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "rand::thread_rng",
        "rand::SeedableRng::from_entropy",
        "rand::rngs::OsRng",
        "std::collections::HashMap",
        "std::collections::HashSet",
    ];
    let root = workspace();
    let config = |krate: &str| {
        std::fs::read_to_string(root.join("crates").join(krate).join("clippy.toml"))
            .expect("crate clippy.toml")
    };
    let bans = |text: &str, path: &str| text.contains(&format!("path = \"{path}\""));
    for krate in ["core", "sim", "workloads", "experiment", "serve"] {
        let text = config(krate);
        for path in RAW_WRITES.iter().chain(&DETERMINISM) {
            assert!(bans(&text, path), "crates/{krate}/clippy.toml must ban {path}");
        }
        // Clippy reads only the nearest clippy.toml, so the root's test
        // exemptions are repeated.
        assert!(text.contains("allow-unwrap-in-tests = true"), "crates/{krate}");
    }
    let bench = config("bench");
    assert!(RAW_WRITES.iter().all(|p| bans(&bench, p)), "bench must ban raw writes");
    assert!(!DETERMINISM.iter().any(|p| bans(&bench, p)), "bench may read the clock");
}

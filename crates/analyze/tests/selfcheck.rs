//! Integration tests driving [`fairsched_analyze::run_check`] against the
//! seeded fixture workspaces under `testdata/` — each rule family must
//! fire on the violations fixture, the allowlist must suppress, and a
//! too-high ratchet must be reported as stale (not a failure).
//!
//! `testdata/` is a skipped directory name in the workspace walker, so
//! these deliberately broken files are invisible when the analyzer runs
//! over the real repository.

use std::path::PathBuf;

use fairsched_analyze::{run_check, Finding, Options, Outcome};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("testdata").join(name)
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
    // workload golden without a spec= header, wrong bench schema, and
    // orphan goldens.
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

    // determinism: the wall-clock read, the hash-map for-loop, and the
    // unseeded RNG in the replay-critical sim file — but neither the
    // inline-allowed clock read nor anything in the #[cfg(test)] module.
    let det = of_rule(&o, "determinism");
    assert_eq!(det.len(), 3, "{det:?}");
    assert!(det.iter().all(|f| f.path == "crates/sim/src/engine.rs"));
    assert!(det.iter().any(|f| f.message.contains("wall-clock")));
    assert!(det.iter().any(|f| f.message.contains("for-loop over hash-ordered")));
    assert!(det.iter().any(|f| f.message.contains("unseeded")));

    // durability: the raw fs::write, but not the inline-allowed one.
    let du = of_rule(&o, "durability");
    assert_eq!(du.len(), 1, "{du:?}");
    assert!(du[0].path == "crates/sim/src/engine.rs");
    assert!(du[0].message.contains("fairsched_core::journal"));

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
    assert!(o.failures.iter().any(|f| f.contains("determinism")));
    assert!(o.failures.iter().any(|f| f.contains("durability")));
    assert!(o.failures.iter().any(|f| f.contains("schema-version")));
}

#[test]
fn allowlist_suppresses_and_unused_entries_are_flagged() {
    let o = check("allowed");
    assert!(o.ok(), "fully covered fixture must pass: {:?}", o.failures);
    assert_eq!(
        o.suppressed, 4,
        "both time-arith sites plus the determinism and durability sites suppressed"
    );
    assert_eq!(of_rule(&o, "time-arith").len(), 0);
    assert_eq!(of_rule(&o, "determinism").len(), 0);
    assert_eq!(of_rule(&o, "durability").len(), 0);
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
        o.warnings.iter().any(|w| w.contains("determinism") && w.contains("stale")),
        "stale determinism ratchet must be surfaced: {:?}",
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
    assert_eq!(rules.len(), 6);
    // Round-trips through the JSON writer/parser.
    let text = report.to_json_pretty();
    let parsed = serde_json::parse_value(&text).expect("report parses");
    assert_eq!(format!("{parsed:?}"), format!("{report:?}"));
}

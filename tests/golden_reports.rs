//! Golden snapshots of the CLI's reports.
//!
//! The JSON report is the machine-readable contract of the `fairsched`
//! binary: downstream tooling parses it, so its *schema* (field names,
//! nesting, canonical `metric_specs`) and its *values* (deterministic
//! given workload spec + seed) are pinned here byte for byte. The human
//! report (metric table plus the "fairness vs exact REF reference"
//! section) is pinned the same way. The fixtures live under
//! `tests/golden/reports/`: `.json` for JSON reports, `.stdout` for human
//! ones.
//!
//! Regenerate with `REGEN_GOLDEN=1 cargo test --test golden_reports` —
//! but only when a *deliberate* schema or pipeline change is being made,
//! in which case the diff documents it.

use std::path::PathBuf;
use std::process::Command;

struct Case {
    name: &'static str,
    args: &'static [&'static str],
}

fn cases() -> Vec<Case> {
    vec![
        // The spec-addressed run from the issue: explicit metrics,
        // delay runs the exact REF reference automatically.
        Case {
            name: "fpt_k3_delay_psi",
            args: &["--json", "--workload", "fpt:k=3", "--metrics", "delay,psi"],
        },
        // Default metric set (machines/completed/flow/waiting/psi), a
        // parameterized metric spec surviving the comma list, and a
        // non-default horizon/seed.
        Case {
            name: "fpt_k3_default_metrics",
            args: &[
                "--json",
                "--workload",
                "fpt:k=3",
                "--horizon",
                "2000",
                "--seed",
                "7",
            ],
        },
        Case {
            name: "fpt_k2_norm_ideal_ranking",
            args: &[
                "--json",
                "--workload",
                "fpt:horizon=500,k=2",
                "--horizon",
                "500",
                "--seed",
                "3",
                "--scheduler",
                "fairshare",
                "--metrics",
                // lint:allow(spec-literal) comma-joined metric *list*, split by parse_list
                "delay:norm=ideal,ranking,utilization",
            ],
        },
        // The time-series axis: a timeline spec next to a scalar one pins
        // the `series` schema (spec/times/orgs/values/aggregate) and its
        // coexistence with the scalar columns.
        Case {
            name: "fpt_k2_timeline",
            args: &[
                "--json",
                "--workload",
                "fpt:horizon=500,k=2",
                "--horizon",
                "500",
                "--seed",
                "3",
                "--scheduler",
                "fifo",
                "--metrics",
                "delay,timeline:samples=8",
            ],
        },
    ]
}

/// Human (non-JSON) reports.
fn text_cases() -> Vec<Case> {
    vec![
        // A non-REF scheduler: the metric table is followed by the
        // per-organization comparison against the exact REF reference.
        Case {
            name: "fpt_k3_roundrobin_text",
            args: &[
                "--workload",
                "fpt:k=3",
                "--horizon",
                "2000",
                "--seed",
                "7",
                "--scheduler",
                "roundrobin",
            ],
        },
        // REF is its own reference: delay is zero and no fairness
        // section is printed.
        Case {
            name: "fpt_k3_ref_delay_psi_text",
            args: &[
                "--workload",
                "fpt:k=3",
                "--scheduler",
                "ref",
                "--metrics",
                "delay,psi",
            ],
        },
    ]
}

fn golden_path(name: &str, extension: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/reports")
        .join(format!("{name}.{extension}"))
}

/// Writes `rendered` as the golden under `REGEN_GOLDEN`, else reports
/// whether it matches the committed one.
fn matches_golden(name: &str, extension: &str, rendered: &str) -> bool {
    let path = golden_path(name, extension);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return true;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    rendered == expected
}

fn run_cli(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_fairsched"))
        .args(args)
        .output()
        .expect("fairsched binary runs");
    assert!(
        output.status.success(),
        "fairsched {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("report is UTF-8")
}

#[test]
fn cli_json_reports_match_golden_fixtures() {
    let mut mismatches = Vec::new();
    for case in cases() {
        let rendered = run_cli(case.args);
        // The report must be parseable JSON carrying the canonical specs.
        let value = serde_json::parse_value(&rendered)
            .unwrap_or_else(|e| panic!("{}: output is not JSON: {e}", case.name));
        assert!(
            value.get("metric_specs").is_some(),
            "{}: report lost its metric_specs provenance",
            case.name
        );
        if !matches_golden(case.name, "json", &rendered) {
            mismatches.push(case.name);
        }
    }
    assert!(
        mismatches.is_empty(),
        "CLI reports diverged from the golden fixtures for: {mismatches:?} \
         (REGEN_GOLDEN=1 only for deliberate schema/pipeline changes)"
    );
}

#[test]
fn cli_text_reports_match_golden_fixtures() {
    let mismatches: Vec<&str> = text_cases()
        .into_iter()
        .filter(|case| !matches_golden(case.name, "stdout", &run_cli(case.args)))
        .map(|case| case.name)
        .collect();
    assert!(
        mismatches.is_empty(),
        "CLI human reports diverged from the golden fixtures for: {mismatches:?} \
         (REGEN_GOLDEN=1 only for deliberate output changes)"
    );
}

/// Reference-based metrics with `--no-reference` fail with the typed
/// error, not a panic or a silent omission.
#[test]
fn no_reference_with_delay_metric_is_a_typed_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_fairsched"))
        .args(["--json", "--workload", "fpt:k=2", "--metrics", "delay", "--no-reference"])
        .output()
        .expect("fairsched binary runs");
    assert!(!output.status.success(), "--no-reference with delay must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("needs the REF reference"),
        "unexpected error output: {stderr}"
    );
}

/// The timeline family compares against REF too: `--no-reference` +
/// `timeline` is the same typed NeedsReference error.
#[test]
fn no_reference_with_timeline_metric_is_a_typed_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_fairsched"))
        .args([
            "--json",
            "--workload",
            "fpt:k=2",
            "--metrics",
            "timeline:samples=8",
            "--no-reference",
        ])
        .output()
        .expect("fairsched binary runs");
    assert!(!output.status.success(), "--no-reference with timeline must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("timeline") && stderr.contains("needs the REF reference"),
        "unexpected error output: {stderr}"
    );
}

/// A malformed timeline sample count fails with the typed parameter
/// error (the historical core path panicked on zero samples).
#[test]
fn zero_timeline_samples_is_a_typed_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_fairsched"))
        .args(["--json", "--workload", "fpt:k=2", "--metrics", "timeline:samples=0"])
        .output()
        .expect("fairsched binary runs");
    assert!(!output.status.success(), "samples=0 must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("timeline:samples") && stderr.contains("at least 1"),
        "unexpected error output: {stderr}"
    );
}

//! Integration tests for the scheduler registry and the `Simulation`
//! session API: every registered spec must round-trip through
//! `FromStr`/`Display`, build on a small trace, and run; unknown or
//! malformed specs must yield typed errors, never panics.

use fairsched::core::scheduler::registry::{
    BuildContext, Registry, SchedulerSpec, SpecError,
};
use fairsched::core::Trace;
use fairsched::sim::{SimError, Simulation};
use proptest::prelude::*;

fn small_trace() -> Trace {
    let mut b = Trace::builder();
    let a = b.org("a", 1);
    let c = b.org("b", 2);
    b.job(a, 0, 3).job(c, 0, 2).job(a, 2, 1).job(c, 4, 4);
    b.build().unwrap()
}

/// The paper's Table 1/2 algorithm set plus baselines, as spec strings —
/// the acceptance surface: each must be constructible from a string, and
/// together they are the built-in factories' conformance specs.
const PAPER_SPECS: [&str; 12] = [
    "ref",
    "general-ref:util=sp",
    "general-ref:util=flowtime",
    "rand:perms=15",
    "rand:perms=75",
    "directcontr",
    "fairshare",
    "utfairshare",
    "currfairshare",
    "roundrobin",
    "fifo",
    "random",
];

#[test]
fn every_paper_scheduler_builds_from_its_string() {
    let trace = small_trace();
    let registry = Registry::default();
    for text in PAPER_SPECS {
        let spec: SchedulerSpec = text
            .parse()
            .unwrap_or_else(|e| panic!("paper spec {text:?} failed to parse: {e}"));
        registry
            .build(&spec, &BuildContext { trace: &trace, seed: 1 })
            .unwrap_or_else(|e| panic!("paper spec {text:?} failed to build: {e}"));
    }
    let mut declared: Vec<String> = registry
        .conformance_specs()
        .into_iter()
        .flat_map(|(_, specs)| specs)
        .map(|spec| spec.to_string())
        .collect();
    let mut paper = PAPER_SPECS.map(str::to_string).to_vec();
    declared.sort();
    paper.sort();
    assert_eq!(declared, paper, "built-in conformance specs drifted from the paper set");
}

#[test]
fn every_registered_spec_round_trips_builds_and_runs() {
    let trace = small_trace();
    let registry = Registry::default();
    let specs: Vec<SchedulerSpec> = registry.names().map(SchedulerSpec::bare).collect();
    assert!(specs.len() >= 10, "registry lost factories: {specs:?}");
    for spec in &specs {
        // FromStr ∘ Display is the identity.
        let reparsed: SchedulerSpec = spec
            .to_string()
            .parse()
            .unwrap_or_else(|e| panic!("{spec} did not re-parse: {e}"));
        assert_eq!(&reparsed, spec, "round trip changed {spec}");
        // And the spec actually runs end to end through a session.
        let result = Simulation::new(&trace)
            .scheduler_spec(spec.clone())
            .horizon(60)
            .validate(true)
            .seed(5)
            .run()
            .unwrap_or_else(|e| panic!("{spec} failed to run: {e}"));
        assert_eq!(result.completed_jobs, 4, "{spec} must finish all jobs");
    }
}

#[test]
fn matrix_covers_the_whole_registry() {
    let trace = small_trace();
    let registry = Registry::default();
    let reports = Simulation::new(&trace)
        .horizon(60)
        .run_matrix_reports(
            &registry.names().map(SchedulerSpec::bare).collect::<Vec<_>>(),
        )
        .expect("full-registry matrix");
    assert_eq!(reports.len(), registry.names().count());
}

/// A `rand` spec whose permutation budget is out of range, given or
/// Hoeffding-derived, makes the CLI exit 1 with the typed parameter error
/// instead of aborting on the allocation or panicking.
#[test]
fn cli_rejects_out_of_range_rand_budgets() {
    for (spec, key) in [
        ("rand:perms=1000000000", "perms"),
        ("rand:eps=0.0001,lambda=0.9999", "eps"),
        ("rand:eps=nan,lambda=0.5", "eps"),
        ("rand:eps=inf,lambda=0.5", "eps"),
        ("rand:eps=1e-300,lambda=0.5", "eps"),
    ] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_fairsched"))
            .args(["--workload", "fpt:k=3", "--scheduler", spec, "--no-reference"])
            .output()
            .expect("fairsched binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{spec}: {stderr}");
        assert!(stderr.contains(key) && !stderr.contains("panicked"), "{spec}: {stderr}");
    }
}

/// RAND runs on 35 organizations and refuses 65 (more than a
/// `Coalition` holds) with a typed error, never a panic.
#[test]
fn cli_rand_runs_at_35_orgs_and_refuses_65() {
    for (orgs, code) in [(35, 0), (65, 1)] {
        let workload = format!("synth:orgs={orgs},preset=lpc,scale=1");
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_fairsched"))
            .args(["--workload", &workload, "--scheduler", "rand:perms=3"])
            .args(["--horizon", "200", "--no-reference", "--json", "--metrics", "psi"])
            .output()
            .expect("fairsched binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(code), "{orgs} orgs: {stderr}");
        assert!(!stderr.contains("panicked"), "{orgs} orgs: {stderr}");
    }
}

/// A misspelled option, a value option without its value, and a flag
/// followed by a value exit 2 with the usage text instead of running
/// with a default in place of what was asked for.
#[test]
fn cli_rejects_unknown_and_malformed_options() {
    for args in [
        &[
            "--workload",
            "fpt:k=3",
            "--horizn",
            "500",
            "--no-reference",
            "--metrics",
            "psi",
        ][..],
        &["--workload", "fpt:k=3", "--no-reference", "--jsn"],
        &["--workload", "fpt:k=3", "--no-reference", "--json", "yes"],
        &["--workload", "fpt:k=3", "--no-reference", "--horizon"],
    ] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_fairsched"))
            .args(args)
            .output()
            .expect("fairsched binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: fairsched"), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} ran");
    }
}

/// `submit` and `serve` refuse a misspelled option before touching the
/// serve directory: a bogus `submit` key drops no message, and a
/// misspelled `serve --workload` does not fix the directory's identity
/// to the default workload. `serve` is spawned with a deadline, since a
/// daemon that accepts the command line would wait for a stop message.
#[test]
fn serve_and_submit_reject_unknown_options() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fairsched-cli-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp dir");

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_fairsched"))
        .args(["submit", "--dir", dir_arg, "--stop", "--bogus", "1"])
        .output()
        .expect("fairsched binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("usage: fairsched submit"), "{stderr}");
    assert!(!dir.exists(), "submit wrote into {}", dir.display());

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_fairsched"))
        .args(["serve", "--dir", dir_arg, "--wrkload", "fpt:k=2", "--poll-ms", "20"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("fairsched binary spawns");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on serve") {
            break Some(status);
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let initialized = dir.exists();
    let _ = std::fs::remove_dir_all(&dir);
    let status = status.expect("serve accepted a misspelled option and kept running");
    assert_eq!(status.code(), Some(2));
    assert!(!initialized, "serve initialized the directory");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Parameterized rand specs round-trip and build for any positive
    /// permutation count.
    #[test]
    fn prop_rand_specs_round_trip_and_build(perms in 1usize..200, seed in 0u64..1000) {
        let text = format!("rand:perms={perms}");
        let spec: SchedulerSpec = text.parse().expect("valid spec");
        prop_assert_eq!(spec.to_string(), text);
        let trace = small_trace();
        let built = Registry::default()
            .build(&spec, &BuildContext { trace: &trace, seed });
        prop_assert!(built.is_ok());
    }

    /// Arbitrary junk either parses as a spec or fails with a typed
    /// `SpecError` — and whatever parses never panics when built (it may
    /// be an unknown scheduler, which must also be a typed error).
    #[test]
    fn prop_junk_specs_never_panic(bytes in proptest::collection::vec(32u8..127, 0..24)) {
        let text: String = bytes.iter().map(|&b| b as char).collect();
        let trace = small_trace();
        match text.parse::<SchedulerSpec>() {
            Ok(spec) => {
                // Typed success or typed failure; a panic fails the test.
                let _ = Registry::default()
                    .build(&spec, &BuildContext { trace: &trace, seed: 0 });
            }
            Err(e) => {
                let shown = e.to_string();
                prop_assert!(!shown.is_empty());
            }
        }
    }

    /// The session API turns unknown names into SimError::Spec, never a
    /// panic (lowercase identifiers that happen not to be registered).
    #[test]
    fn prop_unknown_names_are_typed_errors(suffix in 0u32..100_000) {
        let trace = small_trace();
        let name = format!("zz-{suffix}");
        match Simulation::new(&trace).scheduler(&name) {
            Ok(session) => match session.run() {
                Err(SimError::Spec(SpecError::UnknownScheduler { name: n, .. })) => {
                    prop_assert_eq!(n, name);
                }
                other => {
                    prop_assert!(false, "expected UnknownScheduler, got {:?}", other.map(|r| r.scheduler));
                }
            },
            Err(e) => prop_assert!(false, "{} should parse as a spec: {}", name, e),
        }
    }
}

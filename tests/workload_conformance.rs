//! The workload axis's domain conformance checks.
//!
//! The common contract every factory of every axis upholds (coverage,
//! self-selection, round trip, canonical display, typed errors) is
//! checked once for all three registries in `tests/spec_conformance.rs`.
//! Every workload factory — built-in or downstream — must in addition
//! uphold, for each spec it declares via
//! [`Factory::conformance_specs`]:
//!
//! 1. **determinism** — the same spec + seed builds the identical
//!    [`Trace`], byte for byte, across repeated builds;
//! 2. **seed sensitivity** — different seeds produce different traces
//!    (unless the factory opts out via
//!    [`WorkloadFactory::seed_sensitive`]);
//! 3. **trace validity** — the built trace passes every model invariant
//!    (sorted releases, contiguous ids, machines present), is non-empty,
//!    and honors the spec's own structural parameters (`orgs`/`k` counts,
//!    `split=equal` balance, the one-machine-per-organization floor).
//!
//! Downstream crates get the same guarantees for free: the suite is a
//! plain function over any registry, demonstrated below on a registry
//! extended with a custom factory.

use fairsched::core::spec::Factory;
use fairsched::core::Trace;
use fairsched::workloads::spec::{
    WorkloadContext, WorkloadError, WorkloadFactory, WorkloadKind, WorkloadRegistry,
    WorkloadSpec,
};

/// Seeds used for determinism/sensitivity probing (fixed, so the suite is
/// itself deterministic).
const SEEDS: [u64; 3] = [0, 1, 9];

fn build(
    registry: &WorkloadRegistry,
    spec: &WorkloadSpec,
    seed: u64,
) -> Result<Trace, WorkloadError> {
    registry.build(spec, &WorkloadContext { seed })
}

/// Runs the workload conformance checks over every factory in
/// `registry`, returning human-readable violations (empty = conformant).
fn conformance_violations(registry: &WorkloadRegistry) -> Vec<String> {
    let mut violations = Vec::new();
    let mut fail = |name: &str, spec: &str, what: String| {
        violations.push(format!("[{name}] {spec}: {what}"));
    };

    for (name, specs) in registry.conformance_specs() {
        let factory = registry.get(&name).expect("iterated name is registered");

        for spec in &specs {
            let label = spec.to_string();

            // 1. Determinism: same spec + seed ⇒ identical trace.
            let mut traces = Vec::new();
            for &seed in &SEEDS {
                match (build(registry, spec, seed), build(registry, spec, seed)) {
                    (Ok(a), Ok(b)) => {
                        if a != b {
                            fail(
                                &name,
                                &label,
                                format!(
                                    "seed {seed}: two builds differ (non-deterministic)"
                                ),
                            );
                        }
                        traces.push((seed, a));
                    }
                    (Err(e), _) | (_, Err(e)) => {
                        fail(&name, &label, format!("seed {seed}: build failed: {e}"));
                    }
                }
            }
            if traces.len() != SEEDS.len() {
                continue;
            }

            // 2. Seed sensitivity (opt-out via `seed_sensitive`).
            if factory.seed_sensitive() {
                let base = &traces[0].1;
                if traces[1..].iter().all(|(_, t)| t == base) {
                    fail(
                        &name,
                        &label,
                        format!("seeds {SEEDS:?} all produced the identical trace"),
                    );
                }
            }

            // 3. Trace validity + structural agreement with the spec.
            for (seed, trace) in &traces {
                if let Err(e) = trace.validate() {
                    fail(&name, &label, format!("seed {seed}: invalid trace: {e}"));
                }
                if trace.n_jobs() == 0 {
                    fail(&name, &label, format!("seed {seed}: empty trace"));
                }
                for w in trace.releases().windows(2) {
                    if w[0] > w[1] {
                        fail(&name, &label, format!("seed {seed}: unsorted releases"));
                        break;
                    }
                }
                let info = trace.cluster_info();
                if trace.n_orgs() == 0 || info.n_machines() == 0 {
                    fail(
                        &name,
                        &label,
                        format!("seed {seed}: no organizations/machines"),
                    );
                }
                // The machine-split floor: every organization contributes.
                let counts: Vec<usize> =
                    trace.orgs().iter().map(|o| o.n_machines).collect();
                if counts.contains(&0) {
                    fail(
                        &name,
                        &label,
                        format!(
                            "seed {seed}: an organization has no machines: {counts:?}"
                        ),
                    );
                }
                // Org-count parameters must be honored exactly (the synth
                // and swf families call it `orgs`, fpt calls it `k`).
                for key in ["orgs", "k"] {
                    if let Some(raw) = spec.get(key) {
                        if let Ok(want) = raw.parse::<usize>() {
                            if trace.n_orgs() != want {
                                fail(
                                    &name,
                                    &label,
                                    format!(
                                        "seed {seed}: {key}={want} but trace has {} organizations",
                                        trace.n_orgs()
                                    ),
                                );
                            }
                        }
                    }
                }
                // An equal split must be balanced to within one machine.
                if spec.get("split") == Some("equal") || spec.name() == "fpt" {
                    let (min, max) = (
                        counts.iter().copied().min().unwrap_or(0),
                        counts.iter().copied().max().unwrap_or(0),
                    );
                    if max - min > 1 {
                        fail(
                            &name,
                            &label,
                            format!("seed {seed}: equal split is unbalanced: {counts:?}"),
                        );
                    }
                }
            }
        }
    }
    violations
}

#[test]
fn every_registered_factory_conforms() {
    let violations = conformance_violations(WorkloadRegistry::shared());
    assert!(
        violations.is_empty(),
        "workload conformance violations:\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn every_registered_factory_has_conformance_coverage() {
    // The one-assert CI gate: registering a workload family without
    // conformance specs fails the build.
    let registry = WorkloadRegistry::shared();
    let covered: Vec<(String, usize)> = registry
        .conformance_specs()
        .into_iter()
        .map(|(name, specs)| (name, specs.len()))
        .collect();
    assert!(
        covered.iter().all(|(_, n)| *n > 0) && covered.len() >= 3,
        "factories without conformance specs: {covered:?}"
    );
}

#[test]
fn conformance_specs_cover_every_builtin_family() {
    let names: Vec<String> =
        WorkloadRegistry::shared().names().map(str::to_string).collect();
    assert_eq!(names, ["fpt", "swf", "synth", "trace"]);
}

/// A downstream factory registered into an extended registry inherits the
/// whole contract from the same harness function — no extra test code.
#[test]
fn downstream_factories_get_conformance_for_free() {
    struct Sawtooth;
    impl Factory<WorkloadKind> for Sawtooth {
        fn name(&self) -> &str {
            "sawtooth"
        }
        fn summary(&self) -> &str {
            "test-only deterministic burst pattern with a seeded phase"
        }
        fn accepted_params(&self) -> &[&str] {
            &["orgs", "jobs"]
        }
        fn conformance_specs(&self) -> Vec<WorkloadSpec> {
            vec![
                WorkloadSpec::bare("sawtooth").with("orgs", 3).with("jobs", 20),
                // lint:allow(spec-literal) test-local family, not in the shared registry
                "sawtooth:jobs=7,orgs=2".parse().unwrap(),
            ]
        }
    }
    impl WorkloadFactory for Sawtooth {
        fn build(
            &self,
            spec: &WorkloadSpec,
            ctx: &WorkloadContext,
        ) -> Result<Trace, WorkloadError> {
            spec.deny_unknown_params(self.accepted_params())?;
            let orgs = spec.parsed("orgs", 2usize)?;
            let jobs = spec.parsed("jobs", 10usize)?;
            if orgs == 0 || jobs == 0 {
                return Err(spec.bad_param("orgs", "orgs and jobs must be positive"));
            }
            let mut b = Trace::builder();
            let ids: Vec<_> =
                (0..orgs).map(|i| b.org(format!("saw{i}"), 1 + i % 2)).collect();
            for j in 0..jobs {
                let phase = ctx.seed % 7;
                b.job(ids[j % orgs], (j as u64) * 3 + phase, 1 + (j as u64 + phase) % 5);
            }
            Ok(b.build()?)
        }
    }

    let mut registry = WorkloadRegistry::default();
    registry.register(Box::new(Sawtooth));
    let violations = conformance_violations(&registry);
    assert!(
        violations.is_empty(),
        "downstream factory failed inherited conformance:\n  {}",
        violations.join("\n  ")
    );
}

/// Spec strings are the experiment-matrix data format; the error surface
/// must stay typed end to end (no panics) for matrix tooling to collect.
#[test]
fn registry_errors_are_typed_not_panics() {
    // (Unknown names and parameters are part of the common contract in
    // `tests/spec_conformance.rs`.)
    let registry = WorkloadRegistry::shared();
    let ctx = WorkloadContext { seed: 0 };
    assert!(matches!(registry.build_str("", &ctx), Err(WorkloadError::Empty)));
    assert!(matches!(
        registry.build_str("synth:", &ctx),
        Err(WorkloadError::BadSyntax { .. })
    ));
    assert!(matches!(
        registry.build_str("fpt:k=-3", &ctx),
        Err(WorkloadError::BadParam { .. })
    ));
    assert!(matches!(
        registry.build_str("swf:path=/definitely/not/here.swf", &ctx),
        Err(WorkloadError::Io { .. })
    ));
}

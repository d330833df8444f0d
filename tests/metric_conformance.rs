//! The metric axis's domain conformance checks.
//!
//! The common contract every factory of every axis upholds (coverage,
//! self-selection, round trip, canonical display, typed errors) is
//! checked once for all three registries in `tests/spec_conformance.rs`.
//! Every metric factory — built-in or downstream — must in addition
//! uphold, for each spec it declares via
//! [`Factory::conformance_specs`]:
//!
//! 1. **determinism** — the same spec over the same context evaluates to
//!    the identical column, bit for bit, across repeated evaluations;
//! 2. **shape** — one value per organization, aggregate present;
//! 3. **reference coherence** — a factory claiming
//!    [`MetricFactory::needs_reference`] fails typedly without a
//!    reference and succeeds with one; a factory not claiming it must
//!    evaluate without one;
//! 4. **horizon invariance where claimed** — factories claiming
//!    [`MetricFactory::horizon_invariant`] must evaluate to the same
//!    values at any horizon past the schedule's completion.
//!
//! Downstream crates get the same guarantees for free: the suite is a
//! plain function over any registry, demonstrated below on a registry
//! extended with a custom fairness index.

use fairsched::core::spec::Factory;
use fairsched::core::utility::sp_vector;
use fairsched::core::Trace;
use fairsched::sim::report::{
    MetricColumn, MetricContext, MetricError, MetricFactory, MetricKind, MetricOutput,
    MetricRegistry, MetricSpec, MetricValue, ReferenceData,
};
use fairsched::sim::{SimResult, Simulation};
use fairsched::workloads::spec::{WorkloadContext, WorkloadRegistry};

/// The fixed scenario every factory is probed on: a small registry-built
/// workload, one practical scheduler, and the exact REF reference, run to
/// completion (so horizon-invariance claims are checkable past it).
struct Scenario {
    trace: Trace,
    eval: SimResult,
    reference: SimResult,
}

fn scenario() -> Scenario {
    let trace = WorkloadRegistry::shared()
        .build_str("fpt:horizon=600,k=2", &WorkloadContext { seed: 11 })
        .unwrap();
    let run = |spec: &str| {
        Simulation::new(&trace).scheduler(spec).unwrap().seed(11).run().unwrap()
    };
    let eval = run("fairshare");
    let reference = run("ref");
    Scenario { trace, eval, reference }
}

/// A context over the scenario's schedules at an explicit horizon (the
/// ψ vectors are recomputed for that horizon, exactly as a run evaluated
/// there would see them).
fn context_at<'a>(
    s: &'a Scenario,
    horizon: u64,
    psi: &'a [i128],
    psi_ref: &'a [i128],
) -> MetricContext<'a> {
    MetricContext {
        trace: &s.trace,
        schedule: &s.eval.schedule,
        psi,
        horizon,
        reference: Some(ReferenceData { schedule: &s.reference.schedule, psi: psi_ref }),
    }
}

/// Canonical, bit-faithful rendering of an output for equality checks
/// (scalar columns and time-series columns alike).
fn render_output(o: &MetricOutput) -> String {
    match o {
        MetricOutput::Column(c) => {
            let mut out = format!("{}|", c.spec);
            for v in &c.per_org {
                out.push_str(&v.render());
                out.push(';');
            }
            out.push_str(&c.aggregate.render());
            out
        }
        MetricOutput::Series(s) => {
            let mut out = format!("{}|t:", s.spec);
            for t in &s.times {
                out.push_str(&t.to_string());
                out.push(';');
            }
            for vs in &s.per_org {
                out.push('|');
                for v in vs {
                    out.push_str(&v.render());
                    out.push(';');
                }
            }
            out.push('|');
            for v in &s.aggregate {
                out.push_str(&v.render());
                out.push(';');
            }
            out
        }
    }
}

/// Runs the metric conformance checks over every factory in `registry`,
/// returning human-readable violations (empty = conformant).
fn conformance_violations(registry: &MetricRegistry) -> Vec<String> {
    let s = scenario();
    let h1 = s.eval.horizon;
    let h2 = h1 * 2 + 17;
    let psi_h1 = sp_vector(&s.trace, &s.eval.schedule, h1);
    let psi_h2 = sp_vector(&s.trace, &s.eval.schedule, h2);
    let ref_h1 = sp_vector(&s.trace, &s.reference.schedule, h1);
    let ref_h2 = sp_vector(&s.trace, &s.reference.schedule, h2);

    let mut violations = Vec::new();
    let mut fail = |name: &str, spec: &str, what: String| {
        violations.push(format!("[{name}] {spec}: {what}"));
    };

    for (name, specs) in registry.conformance_specs() {
        let factory = registry.get(&name).expect("iterated name is registered");

        for spec in &specs {
            let label = spec.to_string();

            // 3a. Reference coherence: reference-based factories must
            //     fail typedly when the context has no reference.
            let bare = MetricContext {
                trace: &s.trace,
                schedule: &s.eval.schedule,
                psi: &psi_h1,
                horizon: h1,
                reference: None,
            };
            match (factory.needs_reference(), registry.build(spec, &bare)) {
                (true, Err(MetricError::NeedsReference { .. })) => {}
                (true, other) => fail(
                    &name,
                    &label,
                    format!(
                        "claims needs_reference but evaluating without one gave {other:?}"
                    ),
                ),
                (false, Err(e)) => {
                    fail(&name, &label, format!("failed without a reference: {e}"))
                }
                (false, Ok(_)) => {}
            }

            // 1 + 2. Determinism and shape, over the full context.
            let ctx = context_at(&s, h1, &psi_h1, &ref_h1);
            let a = match registry.build(spec, &ctx) {
                Ok(c) => c,
                Err(e) => {
                    fail(&name, &label, format!("evaluation failed: {e}"));
                    continue;
                }
            };
            match registry.build(spec, &ctx) {
                Ok(b) if render_output(&a) == render_output(&b) => {}
                Ok(_) => fail(
                    &name,
                    &label,
                    "two evaluations differ (non-deterministic)".into(),
                ),
                Err(e) => fail(&name, &label, format!("re-evaluation failed: {e}")),
            }
            match &a {
                MetricOutput::Column(c) => {
                    if c.per_org.len() != s.trace.n_orgs() {
                        fail(
                            &name,
                            &label,
                            format!(
                                "column has {} values for {} organizations",
                                c.per_org.len(),
                                s.trace.n_orgs()
                            ),
                        );
                    }
                }
                MetricOutput::Series(sr) => {
                    if sr.per_org.len() != s.trace.n_orgs() {
                        fail(
                            &name,
                            &label,
                            format!(
                                "series has {} organization rows for {} organizations",
                                sr.per_org.len(),
                                s.trace.n_orgs()
                            ),
                        );
                    }
                    if sr.per_org.iter().any(|vs| vs.len() != sr.times.len())
                        || sr.aggregate.len() != sr.times.len()
                    {
                        fail(&name, &label, "series rows disagree with the grid".into());
                    }
                    if !sr.times.windows(2).all(|w| w[0] < w[1])
                        || sr.times.iter().any(|&t| t == 0 || t > h1)
                    {
                        fail(
                            &name,
                            &label,
                            "series grid is not strictly increasing within (0, horizon]"
                                .into(),
                        );
                    }
                }
            }
            if a.spec() != spec {
                fail(&name, &label, "output spec differs from the request".into());
            }

            // 4. Horizon invariance where claimed: the schedule is fully
            //    complete at h1, so any later horizon must agree.
            if factory.horizon_invariant() {
                let ctx2 = context_at(&s, h2, &psi_h2, &ref_h2);
                match registry.build(spec, &ctx2) {
                    Ok(b) => {
                        if render_output(&a) != render_output(&b) {
                            fail(
                                &name,
                                &label,
                                format!(
                                    "claims horizon invariance but values differ at h={h1} vs h={h2}"
                                ),
                            );
                        }
                    }
                    Err(e) => fail(
                        &name,
                        &label,
                        format!("evaluation at horizon {h2} failed: {e}"),
                    ),
                }
            }
        }
    }
    violations
}

#[test]
fn every_registered_factory_conforms() {
    let violations = conformance_violations(MetricRegistry::shared());
    assert!(
        violations.is_empty(),
        "metric conformance violations:\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn every_registered_factory_has_conformance_coverage() {
    // The one-assert CI gate: registering a metric family without
    // conformance specs fails the build.
    let registry = MetricRegistry::shared();
    let covered: Vec<(String, usize)> = registry
        .conformance_specs()
        .into_iter()
        .map(|(name, specs)| (name, specs.len()))
        .collect();
    assert!(
        covered.iter().all(|(_, n)| *n > 0) && covered.len() >= 10,
        "factories without conformance specs: {covered:?}"
    );
}

#[test]
fn conformance_specs_cover_every_builtin_family() {
    let names: Vec<String> =
        MetricRegistry::shared().names().map(str::to_string).collect();
    assert_eq!(
        names,
        [
            "completed",
            "delay",
            "flow",
            "machines",
            "psi",
            "ranking",
            "stretch",
            "timeline",
            "units",
            "utility",
            "utilization",
            "waiting",
        ]
    );
}

/// A downstream fairness index registered into an extended registry
/// inherits the whole contract from the same harness function — no extra
/// test code.
#[test]
fn downstream_factories_get_conformance_for_free() {
    /// Largest-minus-smallest ψ (a max-min fairness gap index).
    struct PsiGap;
    impl Factory<MetricKind> for PsiGap {
        fn name(&self) -> &str {
            "psigap"
        }
        fn summary(&self) -> &str {
            "test-only max-min psi gap"
        }
        fn conformance_specs(&self) -> Vec<MetricSpec> {
            vec![MetricSpec::bare("psigap")]
        }
    }
    impl MetricFactory for PsiGap {
        fn evaluate(
            &self,
            spec: &MetricSpec,
            ctx: &MetricContext<'_>,
        ) -> Result<MetricOutput, MetricError> {
            spec.deny_unknown_params(&[])?;
            let max = ctx.psi.iter().max().copied().unwrap_or(0);
            Ok(MetricColumn {
                spec: spec.clone(),
                per_org: ctx.psi.iter().map(|p| MetricValue::Int(max - p)).collect(),
                aggregate: MetricValue::Int(
                    max - ctx.psi.iter().min().copied().unwrap_or(0),
                ),
            }
            .into())
        }
    }

    let mut registry = MetricRegistry::default();
    registry.register(Box::new(PsiGap));
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
    let registry = MetricRegistry::shared();
    let s = scenario();
    let ctx = MetricContext::from_result(&s.trace, &s.eval);
    // (Unknown names and parameters are part of the common contract in
    // `tests/spec_conformance.rs`.)
    assert!(matches!("".parse::<MetricSpec>(), Err(MetricError::Empty)));
    assert!(matches!("delay:".parse::<MetricSpec>(), Err(MetricError::BadSyntax { .. })));
    assert!(matches!(
        registry.build(&"utility:kind=vibes".parse().unwrap(), &ctx),
        Err(MetricError::BadParam { .. })
    ));
    assert!(matches!(
        registry.build(&"delay".parse().unwrap(), &ctx),
        Err(MetricError::NeedsReference { .. })
    ));
}

//! The conformance harness shared by all three experiment axes.
//!
//! Every factory registered in a `Registry<K>` — scheduler, workload or
//! metric, built-in or downstream — must uphold one common contract,
//! checked by one generic function for each spec it declares via
//! [`Factory::conformance_specs`]:
//!
//! 1. **coverage** — the factory declares at least one conformance spec,
//!    so registering without coverage fails the suite;
//! 2. **self-selection** — each of its specs selects the factory itself;
//! 3. **round trip** — `parse(display(spec)) == spec`;
//! 4. **canonical display** — re-rendering the reparsed spec is a
//!    fixpoint;
//! 5. **typed errors** — an unregistered name and an unknown parameter
//!    fail with the axis's own error, exactly as its conversion from
//!    [`SpecFailure`] words them.
//!
//! Each axis adds its domain checks on the same conformance specs:
//! schedulers build and run deterministically (below); workloads build
//! valid, seed-sensitive traces (`tests/workload_conformance.rs`); metrics
//! keep their shape, reference coherence and claimed horizon invariance
//! (`tests/metric_conformance.rs`).

use fairsched::core::scheduler::registry::{
    BuildContext, Registry, SchedulerFactory, SchedulerKind, SchedulerSpec, SpecError,
};
use fairsched::core::scheduler::{RandomScheduler, Scheduler};
use fairsched::core::spec::{self, Factory, Spec, SpecFailure, SpecKind};
use fairsched::core::Trace;
use fairsched::sim::{
    run_scheduler, MetricContext, MetricRegistry, SimOptions, Simulation,
};
use fairsched::workloads::{WorkloadContext, WorkloadRegistry};

/// Runs the common contract over every factory in `registry`, probing
/// builds with `ctx`; returns human-readable violations (empty =
/// conformant).
fn common_violations<K: SpecKind>(
    registry: &spec::Registry<K>,
    ctx: &K::Ctx<'_>,
) -> Vec<String> {
    let mut violations = Vec::new();
    let mut fail = |name: &str, spec: &str, what: String| {
        violations.push(format!("[{} {name}] {spec}: {what}", K::SPEC_TYPE));
    };

    // 5a. An unregistered name is the axis's typed unknown-name error.
    let unknown = "zz-unregistered";
    let known = registry.names().map(str::to_string).collect();
    let want = K::Error::from(SpecFailure::UnknownName { name: unknown.into(), known });
    match registry.build(&Spec::bare(unknown), ctx) {
        Err(e) if e.to_string() == want.to_string() => {}
        Err(e) => fail(unknown, unknown, format!("unknown name gave {e:?}")),
        Ok(_) => fail(unknown, unknown, "an unregistered name built".into()),
    }

    for (name, specs) in registry.conformance_specs() {
        // 1. Coverage.
        if specs.is_empty() {
            fail(&name, "<none>", "factory declares no conformance specs".into());
            continue;
        }
        let factory = registry.get(&name).expect("iterated name is registered");
        for spec in &specs {
            let label = spec.to_string();
            // 2. Self-selection.
            if spec.name() != name {
                fail(
                    &name,
                    &label,
                    "conformance spec selects a different factory".into(),
                );
                continue;
            }
            // 3 + 4. Round trip and canonical display.
            match label.parse::<Spec<K>>() {
                Err(e) => {
                    fail(&name, &label, format!("display does not reparse: {e}"));
                    continue;
                }
                Ok(reparsed) => {
                    if &reparsed != spec {
                        fail(&name, &label, "parse(display(spec)) != spec".into());
                    }
                    if reparsed.to_string() != label {
                        fail(&name, &label, "display is not canonical".into());
                    }
                }
            }
            // 5b. An unknown parameter is the axis's typed error.
            let accepted =
                factory.accepted_params().iter().map(|p| p.to_string()).collect();
            let failure = SpecFailure::UnknownParam {
                name: name.clone(),
                param: "zz-bogus".into(),
                accepted,
            };
            let want = K::Error::from(failure);
            match registry.build(&spec.clone().with("zz-bogus", 1), ctx) {
                Err(e) if e.to_string() == want.to_string() => {}
                Err(e) => fail(&name, &label, format!("unknown parameter gave {e:?}")),
                Ok(_) => fail(&name, &label, "an unknown parameter was accepted".into()),
            }
        }
    }
    violations
}

fn assert_conformant(violations: Vec<String>) {
    assert!(
        violations.is_empty(),
        "conformance violations:\n  {}",
        violations.join("\n  ")
    );
}

fn small_trace() -> Trace {
    WorkloadRegistry::shared()
        .build_str("fpt:horizon=400,k=3", &WorkloadContext { seed: 5 })
        .unwrap()
}

#[test]
fn every_shared_registry_meets_the_common_contract() {
    let trace = small_trace();
    assert_conformant(common_violations(
        Registry::shared(),
        &BuildContext { trace: &trace, seed: 1 },
    ));
    assert_conformant(common_violations(
        WorkloadRegistry::shared(),
        &WorkloadContext { seed: 1 },
    ));
    let result = Simulation::new(&trace).scheduler("fifo").unwrap().run().unwrap();
    assert_conformant(common_violations(
        MetricRegistry::shared(),
        &MetricContext::from_result(&trace, &result),
    ));
}

/// Scheduler domain check: every conformance spec builds and runs to a
/// valid schedule, identically for the same seed.
fn scheduler_violations(registry: &Registry, trace: &Trace) -> Vec<String> {
    let mut violations = Vec::new();
    let options = SimOptions { horizon: 400, validate: true };
    for spec in registry.conformance_specs().into_iter().flat_map(|(_, specs)| specs) {
        let run = |seed| -> Result<_, String> {
            let ctx = BuildContext { trace, seed };
            let mut scheduler = registry.build(&spec, &ctx).map_err(|e| e.to_string())?;
            run_scheduler(trace, scheduler.as_mut(), options).map_err(|e| e.to_string())
        };
        match (run(7), run(7)) {
            (Ok(a), Ok(b)) if a.schedule == b.schedule && a.psi == b.psi => {}
            (Ok(_), Ok(_)) => violations.push(format!("{spec}: two runs differ")),
            (Err(e), _) | (_, Err(e)) => violations.push(format!("{spec}: {e}")),
        }
    }
    violations
}

#[test]
fn every_scheduler_conformance_spec_builds_and_runs_deterministically() {
    assert_conformant(scheduler_violations(Registry::shared(), &small_trace()));
}

/// A hand-built trace over `n_orgs` one-machine organizations, each with
/// one short job.
fn many_org_trace(n_orgs: usize) -> Trace {
    let mut b = Trace::builder();
    for u in 0..n_orgs {
        let org = b.org(format!("o{u}"), 1);
        b.job(org, u as u64 % 5, 2);
    }
    b.build().unwrap()
}

/// On traces wide enough to outgrow the exact factorial table (35
/// organizations) and the 64-bit `Coalition` (65), every conformance
/// spec either runs — to a schedule or a typed `SimError` — or refuses
/// the trace with `UnsupportedTrace`; none panics.
#[test]
fn every_scheduler_runs_or_refuses_many_org_traces() {
    let options = SimOptions { horizon: 50, validate: true };
    let mut panicked = Vec::new();
    for n_orgs in [35, 65] {
        let trace = many_org_trace(n_orgs);
        let specs = Registry::shared().conformance_specs();
        for spec in specs.into_iter().flat_map(|(_, specs)| specs) {
            let run = std::panic::catch_unwind(|| {
                let ctx = BuildContext { trace: &trace, seed: 3 };
                match Registry::shared().build(&spec, &ctx) {
                    Ok(mut scheduler) => {
                        let _ = run_scheduler(&trace, scheduler.as_mut(), options);
                    }
                    Err(SpecError::UnsupportedTrace { .. }) => {}
                    Err(e) => panic!("{spec}: refused with {e}"),
                }
            });
            if run.is_err() {
                panicked.push(format!("{spec} at {n_orgs} organizations"));
            }
        }
    }
    assert!(panicked.is_empty(), "panicked: {panicked:?}");
}

/// A downstream policy: the seeded random baseline with its seed shifted.
struct ShiftedRandom;

impl Factory<SchedulerKind> for ShiftedRandom {
    fn name(&self) -> &str {
        "shifted-random"
    }
    fn summary(&self) -> &str {
        "test-only random baseline with a shifted seed"
    }
    fn accepted_params(&self) -> &[&str] {
        &["shift"]
    }
    fn conformance_specs(&self) -> Vec<SchedulerSpec> {
        vec![
            SchedulerSpec::bare("shifted-random"),
            SchedulerSpec::bare("shifted-random").with("shift", 3),
        ]
    }
}

impl SchedulerFactory for ShiftedRandom {
    fn build(
        &self,
        spec: &SchedulerSpec,
        ctx: &BuildContext<'_>,
    ) -> Result<Box<dyn Scheduler>, SpecError> {
        spec.deny_unknown_params(self.accepted_params())?;
        let shift: u64 = spec.parsed("shift", 1)?;
        Ok(Box::new(RandomScheduler::new(ctx.seed.wrapping_add(shift))))
    }
}

/// Registers without conformance coverage: the harness must catch it.
struct NoCoverage;

impl Factory<SchedulerKind> for NoCoverage {
    fn name(&self) -> &str {
        "nocoverage"
    }
    fn summary(&self) -> &str {
        "registers without conformance specs"
    }
    fn conformance_specs(&self) -> Vec<SchedulerSpec> {
        Vec::new()
    }
}

impl SchedulerFactory for NoCoverage {
    fn build(
        &self,
        _spec: &SchedulerSpec,
        ctx: &BuildContext<'_>,
    ) -> Result<Box<dyn Scheduler>, SpecError> {
        Ok(Box::new(RandomScheduler::new(ctx.seed)))
    }
}

/// A downstream factory registered into an extended registry inherits
/// the whole contract from the same harness functions, and a factory
/// registered without coverage is caught.
#[test]
fn a_downstream_extended_registry_meets_the_same_contract() {
    let trace = small_trace();
    let ctx = BuildContext { trace: &trace, seed: 1 };
    let mut registry = Registry::default();
    registry.register(Box::new(ShiftedRandom));
    assert_conformant(common_violations(&registry, &ctx));
    assert_conformant(scheduler_violations(&registry, &trace));

    registry.register(Box::new(NoCoverage));
    let violations = common_violations(&registry, &ctx);
    assert!(
        violations.iter().any(|v| v.contains("[SchedulerSpec nocoverage]")
            && v.contains("no conformance specs")),
        "missing coverage must be reported, got: {violations:?}"
    );
}

/// The harness itself catches each broken promise of the common contract.
#[test]
fn the_common_contract_reports_each_violation() {
    /// Declares a spec of another factory and accepts any parameter.
    struct Liar;
    impl Factory<SchedulerKind> for Liar {
        fn name(&self) -> &str {
            "liar"
        }
        fn summary(&self) -> &str {
            "test-only broken factory"
        }
        fn conformance_specs(&self) -> Vec<SchedulerSpec> {
            vec![SchedulerSpec::bare("fifo"), SchedulerSpec::bare("liar")]
        }
    }
    impl SchedulerFactory for Liar {
        fn build(
            &self,
            _spec: &SchedulerSpec,
            ctx: &BuildContext<'_>,
        ) -> Result<Box<dyn Scheduler>, SpecError> {
            Ok(Box::new(RandomScheduler::new(ctx.seed)))
        }
    }
    let trace = small_trace();
    let mut registry = Registry::new();
    registry.register(Box::new(Liar));
    let violations =
        common_violations(&registry, &BuildContext { trace: &trace, seed: 0 });
    for needle in ["selects a different factory", "unknown parameter was accepted"] {
        assert!(
            violations.iter().any(|v| v.contains(needle)),
            "{needle:?} must be reported, got: {violations:?}"
        );
    }
}

//! The scheduler registry: one construction path for every algorithm.
//!
//! Historically every scheduler had a bespoke constructor
//! (`RefScheduler::new(&trace)`, `RandScheduler::new(&trace, n, seed)`,
//! `DirectContrScheduler::new(seed)`, …) and every consumer — the bench
//! runner, the CLI, tests, examples — hard-coded its own list. This module
//! is the scheduler axis of the generic [`crate::spec`] design:
//!
//! * [`SchedulerSpec`] — [`Spec`]`<`[`SchedulerKind`]`>`, a parsed,
//!   canonical description of a scheduler configuration, written as a
//!   string such as `"ref"`, `"rand:perms=15"` or
//!   `"general-ref:util=flowtime"`, with [`SpecError`]-worded failures.
//! * [`SchedulerFactory`] — an object-safe builder turning a spec plus a
//!   [`BuildContext`] (trace + seed) into a boxed [`Scheduler`]. The
//!   context unifies trace-dependent construction (REF, RAND) and
//!   seed-dependent construction (RAND, DIRECTCONTR, RANDOM) behind one
//!   signature.
//! * [`Registry`] — [`spec::Registry`]`<`[`SchedulerKind`]`>`.
//!   [`Registry::default`] knows every algorithm in the paper's Table 1/2
//!   set plus the baselines; [`Registry::register`] lets downstream crates
//!   add policies without touching this crate.
//!
//! ```
//! use fairsched_core::scheduler::registry::{BuildContext, Registry, SchedulerSpec};
//! use fairsched_core::Trace;
//!
//! let mut b = Trace::builder();
//! let org = b.org("solo", 1);
//! b.job(org, 0, 3);
//! let trace = b.build().unwrap();
//!
//! let registry = Registry::default();
//! let spec: SchedulerSpec = "rand:perms=10".parse().unwrap();
//! let mut scheduler = registry.build(&spec, &BuildContext { trace: &trace, seed: 7 }).unwrap();
//! assert_eq!(scheduler.name(), "Rand(N=10)");
//! assert_eq!(spec.to_string(), "rand:perms=10");
//! ```

use super::rand_shapley::sampled_slots;
use super::{
    CurrFairShareScheduler, DirectContrScheduler, FairShareScheduler, FifoScheduler,
    GeneralRefScheduler, RandScheduler, RandomScheduler, RefScheduler,
    RoundRobinScheduler, Scheduler, UtFairShareScheduler, MAX_PERMUTATIONS,
    MAX_SAMPLED_SLOTS,
};
use crate::model::Trace;
use crate::spec::{self, Factory, FnFactory, Spec, SpecFailure, SpecKind};
use crate::utility::{FlowTime, Makespan, ResourceShare, SpUtility, Tardiness};
use coopgame::sampling::hoeffding_permutations;
use coopgame::Coalition;
use std::fmt;

/// Why a spec string or a build from a spec was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The spec string was empty.
    Empty,
    /// The spec string does not follow `name[:key=value,...]`.
    BadSyntax {
        /// The offending input.
        spec: String,
        /// What was wrong with it.
        reason: String,
    },
    /// No factory is registered under the requested name.
    UnknownScheduler {
        /// The requested name.
        name: String,
        /// Registered names, sorted.
        known: Vec<String>,
    },
    /// The named scheduler does not accept this parameter.
    UnknownParam {
        /// The scheduler name.
        scheduler: String,
        /// The rejected parameter key.
        param: String,
        /// Keys the scheduler accepts.
        accepted: Vec<String>,
    },
    /// A parameter value failed to parse or violated a constraint.
    BadParam {
        /// The scheduler name.
        scheduler: String,
        /// The parameter key.
        param: String,
        /// What was wrong with the value.
        reason: String,
    },
    /// The spec is fine but the scheduler cannot be built for the
    /// context's trace (the exponential schedulers cap the number of
    /// organizations).
    UnsupportedTrace {
        /// The scheduler name.
        scheduler: String,
        /// Why this trace is out of reach.
        reason: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Empty => write!(f, "empty scheduler spec"),
            SpecError::BadSyntax { spec, reason } => {
                write!(f, "malformed scheduler spec {spec:?}: {reason}")
            }
            SpecError::UnknownScheduler { name, known } => {
                write!(f, "unknown scheduler {name:?} (known: {})", known.join(", "))
            }
            SpecError::UnknownParam { scheduler, param, accepted } => {
                if accepted.is_empty() {
                    write!(
                        f,
                        "scheduler {scheduler:?} takes no parameters, got {param:?}"
                    )
                } else {
                    write!(
                        f,
                        "scheduler {scheduler:?} does not accept {param:?} (accepted: {})",
                        accepted.join(", ")
                    )
                }
            }
            SpecError::BadParam { scheduler, param, reason } => {
                write!(f, "bad value for {scheduler}:{param}: {reason}")
            }
            SpecError::UnsupportedTrace { scheduler, reason } => {
                write!(f, "scheduler {scheduler:?} cannot run this workload: {reason}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl From<SpecFailure> for SpecError {
    fn from(e: SpecFailure) -> Self {
        match e {
            SpecFailure::Empty => SpecError::Empty,
            SpecFailure::BadSyntax { spec, reason } => {
                SpecError::BadSyntax { spec, reason }
            }
            SpecFailure::UnknownName { name, known } => {
                SpecError::UnknownScheduler { name, known }
            }
            SpecFailure::UnknownParam { name, param, accepted } => {
                SpecError::UnknownParam { scheduler: name, param, accepted }
            }
            SpecFailure::BadParam { name, param, reason } => {
                SpecError::BadParam { scheduler: name, param, reason }
            }
        }
    }
}

/// The scheduler axis of the experiment matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SchedulerKind {}

/// A parsed scheduler configuration (see [`Spec`]).
pub type SchedulerSpec = Spec<SchedulerKind>;

/// The name → factory map behind every scheduler construction in the
/// workspace (see [`spec::Registry`]).
pub type Registry = spec::Registry<SchedulerKind>;

impl SchedulerSpec {
    /// A helper for factories whose scheduler cannot take the context's
    /// trace.
    pub fn unsupported_trace(&self, reason: impl Into<String>) -> SpecError {
        SpecError::UnsupportedTrace {
            scheduler: self.name().to_string(),
            reason: reason.into(),
        }
    }
}

/// Everything a factory may need to instantiate a scheduler: the trace
/// (REF and RAND precompute coalition lattices from it) and a seed
/// (driving any internal randomness deterministically).
#[derive(Copy, Clone, Debug)]
pub struct BuildContext<'a> {
    /// The trace the scheduler will be run against.
    pub trace: &'a Trace,
    /// Seed for any internal randomness.
    pub seed: u64,
}

/// An object-safe scheduler builder, registered under a unique name.
pub trait SchedulerFactory: Factory<SchedulerKind> {
    /// Instantiates the scheduler for a spec in a context.
    ///
    /// Implementations should reject parameters outside
    /// [`accepted_params`](Factory::accepted_params) via
    /// [`Spec::deny_unknown_params`].
    fn build(
        &self,
        spec: &SchedulerSpec,
        ctx: &BuildContext<'_>,
    ) -> Result<Box<dyn Scheduler>, SpecError>;
}

impl<F> SchedulerFactory for FnFactory<SchedulerKind, F>
where
    F: Fn(&SchedulerSpec, &BuildContext<'_>) -> Result<Box<dyn Scheduler>, SpecError>
        + Send
        + Sync,
{
    fn build(
        &self,
        spec: &SchedulerSpec,
        ctx: &BuildContext<'_>,
    ) -> Result<Box<dyn Scheduler>, SpecError> {
        spec.deny_unknown_params(self.accepted)?;
        (self.build)(spec, ctx)
    }
}

impl SpecKind for SchedulerKind {
    const SPEC_TYPE: &'static str = "SchedulerSpec";
    type Error = SpecError;
    type Factory = dyn SchedulerFactory;
    type Ctx<'a> = BuildContext<'a>;
    type Output = Box<dyn Scheduler>;

    fn run(
        factory: &dyn SchedulerFactory,
        spec: &SchedulerSpec,
        ctx: &BuildContext<'_>,
    ) -> Result<Box<dyn Scheduler>, SpecError> {
        factory.build(spec, ctx)
    }

    fn shared() -> &'static Registry {
        static SHARED: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
        SHARED.get_or_init(Registry::default)
    }

    /// The paper's whole algorithm set (Section 7.1) plus the extra
    /// baselines. The conformance specs are the paper's Table 1/2 spec
    /// strings:
    ///
    /// | spec | scheduler | parameters |
    /// |---|---|---|
    /// | `ref` | [`RefScheduler`] | — |
    /// | `general-ref` | [`GeneralRefScheduler`] | `util` = `sp` \| `flowtime` \| `makespan` \| `share` \| `tardiness` |
    /// | `rand` | [`RandScheduler`] | `perms` (default 15), or `eps` + `lambda` for the Theorem 5.6 sizing; at most [`MAX_PERMUTATIONS`] either way, and at most [`MAX_SAMPLED_SLOTS`] sampled coalition × organization slots |
    /// | `directcontr` | [`DirectContrScheduler`] | — |
    /// | `fairshare` | [`FairShareScheduler`] | — |
    /// | `utfairshare` | [`UtFairShareScheduler`] | — |
    /// | `currfairshare` | [`CurrFairShareScheduler`] | — |
    /// | `roundrobin` | [`RoundRobinScheduler`] | — |
    /// | `fifo` | [`FifoScheduler`] | — |
    /// | `random` | [`RandomScheduler`] | — |
    fn builtins(r: &mut Registry) {
        register_fn(
            r,
            "ref",
            "exact Shapley reference (exponential in the number of organizations)",
            &[],
            || vec![SchedulerSpec::bare("ref")],
            |spec, ctx| match RefScheduler::try_new(ctx.trace) {
                Ok(scheduler) => Ok(Box::new(scheduler)),
                Err(e) => Err(spec.unsupported_trace(e.to_string())),
            },
        );
        register_fn(
            r,
            "general-ref",
            "REF generalized to a pluggable utility function",
            &["util"],
            || {
                let spec = |util| SchedulerSpec::bare("general-ref").with("util", util);
                vec![spec("sp"), spec("flowtime")]
            },
            |spec, ctx| {
                if ctx.trace.n_orgs() > GeneralRefScheduler::MAX_ORGS {
                    return Err(spec.unsupported_trace(format!(
                        "general REF supports at most {} organizations, got {}",
                        GeneralRefScheduler::MAX_ORGS,
                        ctx.trace.n_orgs()
                    )));
                }
                let util = spec.get("util").unwrap_or("sp");
                Ok(match util {
                    "sp" => Box::new(GeneralRefScheduler::new(ctx.trace, SpUtility)),
                    "flowtime" => Box::new(GeneralRefScheduler::new(ctx.trace, FlowTime)),
                    "makespan" => Box::new(GeneralRefScheduler::new(ctx.trace, Makespan)),
                    "share" => Box::new(GeneralRefScheduler::new(ctx.trace, ResourceShare)),
                    "tardiness" => Box::new(GeneralRefScheduler::new(ctx.trace, Tardiness)),
                    other => {
                        return Err(spec.bad_param(
                            "util",
                            format!(
                                "unknown utility {other:?} (one of: sp, flowtime, makespan, share, tardiness)"
                            ),
                        ))
                    }
                })
            },
        );
        register_fn(
            r,
            "rand",
            "randomized Shapley sampling (the paper's RAND / FPRAS)",
            &["perms", "eps", "lambda"],
            || {
                let spec = |perms| SchedulerSpec::bare("rand").with("perms", perms);
                vec![spec(15), spec(75)]
            },
            |spec, ctx| {
                if ctx.trace.n_orgs() > Coalition::MAX_PLAYERS {
                    return Err(spec.unsupported_trace(format!(
                        "RAND samples coalitions of at most {} organizations, got {}",
                        Coalition::MAX_PLAYERS,
                        ctx.trace.n_orgs()
                    )));
                }
                let (key, perms) = if spec.get("eps").is_some()
                    || spec.get("lambda").is_some()
                {
                    if spec.get("perms").is_some() {
                        return Err(spec.bad_param(
                            "perms",
                            "give either perms or eps+lambda, not both",
                        ));
                    }
                    // Guarantee mode is the *pair*: a lone eps or lambda
                    // would silently replace the perms default with a
                    // Hoeffding-derived budget.
                    match (spec.get("eps"), spec.get("lambda")) {
                        (Some(_), None) => {
                            return Err(
                                spec.bad_param("eps", "guarantee mode also needs lambda")
                            )
                        }
                        (None, Some(_)) => {
                            return Err(
                                spec.bad_param("lambda", "guarantee mode also needs eps")
                            )
                        }
                        _ => {}
                    }
                    let eps = spec.parsed("eps", 1.0f64)?;
                    let lambda = spec.parsed("lambda", 0.9f64)?;
                    if !(eps.is_finite() && eps > 0.0) {
                        return Err(spec.bad_param("eps", "must be finite and positive"));
                    }
                    if !(lambda > 0.0 && lambda < 1.0) {
                        return Err(spec.bad_param("lambda", "must be in (0, 1)"));
                    }
                    ("eps", hoeffding_permutations(ctx.trace.n_orgs(), eps, lambda))
                } else {
                    ("perms", spec.parsed("perms", 15usize)?)
                };
                if !(1..=MAX_PERMUTATIONS).contains(&perms) {
                    return Err(spec.bad_param(
                        key,
                        format!(
                            "{perms} sampled permutations is outside 1..={MAX_PERMUTATIONS}"
                        ),
                    ));
                }
                // Checked before anything is drawn or allocated: past the
                // budget the lattice would exhaust memory, not fail.
                let k = ctx.trace.n_orgs();
                let slots = sampled_slots(k, perms);
                if slots > MAX_SAMPLED_SLOTS {
                    return Err(spec.bad_param(
                        key,
                        format!(
                            "{perms} sampled permutations of {k} organizations may simulate \
                             {slots} coalition × organization slots, over the budget of \
                             {MAX_SAMPLED_SLOTS}"
                        ),
                    ));
                }
                Ok(Box::new(RandScheduler::new(ctx.trace, perms, ctx.seed)))
            },
        );
        register_fn(
            r,
            "directcontr",
            "direct-contribution heuristic (Figure 9)",
            &[],
            || vec![SchedulerSpec::bare("directcontr")],
            |_, ctx| Ok(Box::new(DirectContrScheduler::new(ctx.seed))),
        );
        register_fn(
            r,
            "fairshare",
            "usage/share balancing (classic fair share)",
            &[],
            || vec![SchedulerSpec::bare("fairshare")],
            |_, _| Ok(Box::new(FairShareScheduler::new())),
        );
        register_fn(
            r,
            "utfairshare",
            "utility/share balancing",
            &[],
            || vec![SchedulerSpec::bare("utfairshare")],
            |_, _| Ok(Box::new(UtFairShareScheduler::new())),
        );
        register_fn(
            r,
            "currfairshare",
            "running-jobs/share balancing",
            &[],
            || vec![SchedulerSpec::bare("currfairshare")],
            |_, _| Ok(Box::new(CurrFairShareScheduler::new())),
        );
        register_fn(
            r,
            "roundrobin",
            "cycle through organizations with waiting jobs",
            &[],
            || vec![SchedulerSpec::bare("roundrobin")],
            |_, _| Ok(Box::new(RoundRobinScheduler::new())),
        );
        register_fn(
            r,
            "fifo",
            "global first-in-first-out baseline",
            &[],
            || vec![SchedulerSpec::bare("fifo")],
            |_, _| Ok(Box::new(FifoScheduler::new())),
        );
        register_fn(
            r,
            "random",
            "uniformly random organization baseline",
            &[],
            || vec![SchedulerSpec::bare("random")],
            |_, ctx| Ok(Box::new(RandomScheduler::new(ctx.seed))),
        );
    }
}

/// Registers a closure-backed built-in (the closure's signature pins the
/// argument types the built-ins leave to inference).
fn register_fn<F>(
    r: &mut Registry,
    name: &'static str,
    summary: &'static str,
    accepted: &'static [&'static str],
    conformance: fn() -> Vec<SchedulerSpec>,
    build: F,
) where
    F: Fn(&SchedulerSpec, &BuildContext<'_>) -> Result<Box<dyn Scheduler>, SpecError>
        + Send
        + Sync
        + 'static,
{
    r.register(Box::new(FnFactory { name, summary, accepted, conformance, build }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> Trace {
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        let c = b.org("b", 1);
        b.job(a, 0, 2).job(c, 0, 1).job(a, 1, 1);
        b.build().unwrap()
    }

    #[test]
    fn grammar_failures_are_scheduler_worded() {
        assert_eq!("".parse::<SchedulerSpec>(), Err(SpecError::Empty));
        let err = "rand:".parse::<SchedulerSpec>().unwrap_err();
        assert!(matches!(err, SpecError::BadSyntax { .. }));
        assert!(
            err.to_string().starts_with("malformed scheduler spec \"rand:\""),
            "{err}"
        );
    }

    #[test]
    fn default_registry_builds_every_scheduler() {
        let trace = tiny_trace();
        let registry = Registry::default();
        let ctx = BuildContext { trace: &trace, seed: 3 };
        let mut names = Vec::new();
        for spec in registry.names().map(SchedulerSpec::bare) {
            let s = registry
                .build(&spec, &ctx)
                .unwrap_or_else(|e| panic!("default spec {spec} failed to build: {e}"));
            names.push(s.name());
        }
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn unknown_scheduler_is_typed_error() {
        let trace = tiny_trace();
        let registry = Registry::default();
        let err = match registry
            .build_str("nonesuch", &BuildContext { trace: &trace, seed: 0 })
        {
            Err(e) => e,
            Ok(_) => panic!("nonesuch must not build"),
        };
        match err {
            SpecError::UnknownScheduler { name, known } => {
                assert_eq!(name, "nonesuch");
                assert!(known.contains(&"ref".to_string()));
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn unknown_and_bad_params_are_typed_errors() {
        let trace = tiny_trace();
        let registry = Registry::default();
        let ctx = BuildContext { trace: &trace, seed: 0 };
        match registry.build_str("ref:bogus=1", &ctx) {
            Err(e @ SpecError::UnknownParam { .. }) => {
                assert_eq!(
                    e.to_string(),
                    "scheduler \"ref\" takes no parameters, got \"bogus\""
                )
            }
            _ => panic!("ref:bogus=1 must be UnknownParam"),
        }
        assert!(matches!(
            registry.build_str("rand:perms=zero", &ctx),
            Err(SpecError::BadParam { .. })
        ));
        assert!(matches!(
            registry.build_str("rand:perms=0", &ctx),
            Err(SpecError::BadParam { .. })
        ));
        assert!(matches!(
            registry.build_str("rand:perms=5,eps=0.1", &ctx),
            Err(SpecError::BadParam { .. })
        ));
        // Guarantee mode requires the eps+lambda pair; a lone key must
        // error instead of silently re-deriving the sampling budget.
        assert!(matches!(
            registry.build_str("rand:eps=0.5", &ctx),
            Err(SpecError::BadParam { .. })
        ));
        assert!(matches!(
            registry.build_str("rand:lambda=0.99", &ctx),
            Err(SpecError::BadParam { .. })
        ));
        assert!(matches!(
            registry.build_str("general-ref:util=nope", &ctx),
            Err(SpecError::BadParam { .. })
        ));
    }

    /// The exponential schedulers cap the organization count; a trace
    /// past the cap is a typed build error, not the constructors' panic.
    #[test]
    fn too_many_organizations_is_a_typed_build_error() {
        let mut b = Trace::builder();
        for u in 0..17 {
            let org = b.org(format!("o{u}"), 1);
            b.job(org, 0, 1);
        }
        let trace = b.build().unwrap();
        let registry = Registry::default();
        let ctx = BuildContext { trace: &trace, seed: 0 };
        for spec in ["ref", "general-ref:util=sp"] {
            match registry.build_str(spec, &ctx) {
                Err(SpecError::UnsupportedTrace { reason, .. }) => {
                    assert!(reason.contains("got 17"), "{reason}")
                }
                Err(other) => panic!("{spec}: wrong error {other}"),
                Ok(_) => panic!("{spec} must not build for 17 organizations"),
            }
        }
        assert!(registry.build_str("rand:perms=5", &ctx).is_ok());
    }

    #[test]
    fn out_of_range_permutation_budgets_are_typed_errors() {
        let mut b = Trace::builder();
        for u in 0..3 {
            let org = b.org(format!("o{u}"), 1);
            b.job(org, 0, 1);
        }
        let trace = b.build().unwrap();
        let registry = Registry::default();
        let ctx = BuildContext { trace: &trace, seed: 0 };
        let huge = hoeffding_permutations(3, 0.0001, 0.9999);
        let cases = [
            ("rand:perms=1000000000", "perms", "1000000000 sampled permutations"),
            ("rand:eps=0.0001,lambda=0.9999", "eps", &*format!("{huge} sampled")),
            ("rand:eps=nan,lambda=0.5", "eps", "finite and positive"),
            ("rand:eps=inf,lambda=0.5", "eps", "finite and positive"),
            (
                "rand:eps=1e-300,lambda=0.5",
                "eps",
                &*format!("outside 1..={MAX_PERMUTATIONS}"),
            ),
        ];
        for (text, key, needle) in cases {
            match registry.build_str(text, &ctx) {
                Err(SpecError::BadParam { scheduler, param, reason }) => {
                    assert_eq!(
                        (scheduler.as_str(), param.as_str()),
                        ("rand", key),
                        "{text}"
                    );
                    assert!(reason.contains(needle), "{text}: {reason}");
                }
                Err(other) => panic!("{text}: wrong error {other}"),
                Ok(_) => panic!("{text} must not build"),
            }
        }
    }

    #[test]
    fn oversized_sampled_lattices_are_typed_errors() {
        // 64 organizations: the budget check must fire before RAND draws
        // a permutation or allocates a coalition.
        let mut b = Trace::builder();
        for u in 0..64 {
            let org = b.org(format!("o{u}"), 1);
            b.job(org, 0, 1);
        }
        let trace = b.build().unwrap();
        let registry = Registry::default();
        let ctx = BuildContext { trace: &trace, seed: 0 };
        for (text, key) in
            [("rand:eps=0.5,lambda=0.5", "eps"), ("rand:perms=1048576", "perms")]
        {
            match registry.build_str(text, &ctx) {
                Err(SpecError::BadParam { param, reason, .. }) => {
                    assert_eq!(param, key, "{text}");
                    assert!(
                        reason.contains("coalition × organization slots"),
                        "{text}: {reason}"
                    );
                }
                Err(other) => panic!("{text}: wrong error {other}"),
                Ok(_) => panic!("{text} must not build"),
            }
        }
        // The paper's N = 15 stays far inside the budget.
        assert!(registry.build_str("rand:perms=15", &ctx).is_ok());
    }

    #[test]
    fn sampled_slots_bounds_the_lattice_rand_builds() {
        assert_eq!(sampled_slots(1, MAX_PERMUTATIONS), 1);
        assert_eq!(sampled_slots(10, 46_000), 1023 * 10);
        assert_eq!(sampled_slots(64, 15), (15 * 63 + 1) * 64);
        assert_eq!(sampled_slots(64, usize::MAX), usize::MAX);
        for (k, perms) in [(3, 1), (6, 4), (8, 30), (12, 7)] {
            let mut b = Trace::builder();
            for u in 0..k {
                let org = b.org(format!("o{u}"), 1);
                b.job(org, 0, 1);
            }
            let trace = b.build().unwrap();
            let rand = RandScheduler::new(&trace, perms, 5);
            assert!(
                rand.n_coalitions() * k <= sampled_slots(k, perms),
                "k={k}, N={perms}"
            );
        }
    }

    #[test]
    fn rand_guarantee_spec_uses_hoeffding() {
        let trace = tiny_trace();
        let registry = Registry::default();
        let ctx = BuildContext { trace: &trace, seed: 1 };
        let built = registry.build_str("rand:eps=1.0,lambda=0.5", &ctx).unwrap();
        let n = coopgame::sampling::hoeffding_permutations(2, 1.0, 0.5);
        assert_eq!(built.name(), format!("Rand(N={n})"));
    }

    #[test]
    fn seed_flows_into_randomized_schedulers() {
        let trace = tiny_trace();
        let registry = Registry::default();
        let a = registry
            .build_str("rand:perms=6", &BuildContext { trace: &trace, seed: 9 })
            .unwrap();
        let b = registry
            .build_str("rand:perms=6", &BuildContext { trace: &trace, seed: 9 })
            .unwrap();
        assert_eq!(a.name(), b.name());
    }
}

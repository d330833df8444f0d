//! The scheduler registry: one construction path for every algorithm.
//!
//! Historically every scheduler had a bespoke constructor
//! (`RefScheduler::new(&trace)`, `RandScheduler::new(&trace, n, seed)`,
//! `DirectContrScheduler::new(seed)`, …) and every consumer — the bench
//! runner, the CLI, tests, examples — hard-coded its own list. This module
//! replaces those call sites with three pieces:
//!
//! * [`SchedulerSpec`] — a parsed, canonical description of a scheduler
//!   configuration, written as a string such as `"ref"`,
//!   `"rand:perms=15"` or `"general-ref:util=flowtime"`. Specs implement
//!   [`FromStr`]/[`Display`] (round-tripping exactly) and, with the
//!   `serde` feature, serialize as that same string.
//! * [`SchedulerFactory`] — an object-safe builder turning a spec plus a
//!   [`BuildContext`] (trace + seed) into a boxed [`Scheduler`]. The
//!   context unifies trace-dependent construction (REF, RAND) and
//!   seed-dependent construction (RAND, DIRECTCONTR, RANDOM) behind one
//!   signature.
//! * [`Registry`] — a name → factory map. [`Registry::default`] knows
//!   every algorithm in the paper's Table 1/2 set plus the baselines;
//!   [`Registry::register`] lets downstream crates add policies without
//!   touching this crate.
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

use super::{
    CurrFairShareScheduler, DirectContrScheduler, FairShareScheduler, FifoScheduler,
    GeneralRefScheduler, RandScheduler, RandomScheduler, RefScheduler,
    RoundRobinScheduler, Scheduler, UtFairShareScheduler,
};
use crate::model::Trace;
use crate::spec::{valid_ident, ParamError, SpecBody, SpecParseError};
use crate::utility::{FlowTime, Makespan, ResourceShare, SpUtility, Tardiness};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

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

/// A parsed scheduler configuration: a registry name plus string
/// parameters, with a canonical textual form.
///
/// The grammar — `name` or `name:key=value,key=value`, sorted parameters,
/// canonical `Display`, `FromStr` ∘ `Display` the identity on canonical
/// strings — is the shared [`crate::spec`] grammar, the same one workload
/// specs use; this type wraps [`SpecBody`] with scheduler-worded errors.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SchedulerSpec {
    body: SpecBody,
}

impl SchedulerSpec {
    /// A parameterless spec.
    pub fn bare(name: impl Into<String>) -> Self {
        SchedulerSpec { body: SpecBody::bare(name) }
    }

    /// Adds or replaces a parameter (builder style). Values containing
    /// the structural characters `%`/`,`/`=` are percent-escaped on
    /// render, so the `Display`/`FromStr` (and serde) round trip holds
    /// for any non-empty value.
    ///
    /// # Panics
    /// Panics if the key is not a lowercase identifier or the rendered
    /// value is empty.
    pub fn with(self, key: impl Into<String>, value: impl fmt::Display) -> Self {
        SchedulerSpec { body: self.body.with(key, value) }
    }

    /// The registry name this spec selects.
    pub fn name(&self) -> &str {
        self.body.name()
    }

    /// All parameters, sorted by key.
    pub fn params(&self) -> impl Iterator<Item = (&str, &str)> {
        self.body.params()
    }

    /// A raw parameter value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.body.get(key)
    }

    fn lift(&self, e: ParamError) -> SpecError {
        match e {
            ParamError::Unknown { param, accepted } => SpecError::UnknownParam {
                scheduler: self.name().to_string(),
                param,
                accepted,
            },
            ParamError::Bad { param, reason } => {
                SpecError::BadParam { scheduler: self.name().to_string(), param, reason }
            }
        }
    }

    /// Rejects parameters outside `accepted` (factories call this first so
    /// typos fail loudly instead of silently using defaults).
    pub fn deny_unknown_params(&self, accepted: &[&str]) -> Result<(), SpecError> {
        self.body.deny_unknown_params(accepted).map_err(|e| self.lift(e))
    }

    /// A typed parameter with a default.
    pub fn parsed<T: FromStr>(&self, key: &str, default: T) -> Result<T, SpecError> {
        self.body.parsed(key, default).map_err(|e| self.lift(e))
    }

    /// A helper for range/constraint violations discovered by factories.
    pub fn bad_param(&self, key: &str, reason: impl Into<String>) -> SpecError {
        SpecError::BadParam {
            scheduler: self.name().to_string(),
            param: key.to_string(),
            reason: reason.into(),
        }
    }

    /// A helper for factories whose scheduler cannot take the context's
    /// trace.
    pub fn unsupported_trace(&self, reason: impl Into<String>) -> SpecError {
        SpecError::UnsupportedTrace {
            scheduler: self.name().to_string(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for SchedulerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.body.fmt(f)
    }
}

impl FromStr for SchedulerSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        match s.parse::<SpecBody>() {
            Ok(body) => Ok(SchedulerSpec { body }),
            Err(SpecParseError::Empty) => Err(SpecError::Empty),
            Err(SpecParseError::BadSyntax { spec, reason }) => {
                Err(SpecError::BadSyntax { spec, reason })
            }
        }
    }
}

#[cfg(feature = "serde")]
impl serde::Serialize for SchedulerSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.to_string())
    }
}

#[cfg(feature = "serde")]
impl serde::Deserialize for SchedulerSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::String(s) => {
                s.parse().map_err(|e: SpecError| serde::DeError(e.to_string()))
            }
            _ => Err(serde::DeError::expected("string", "SchedulerSpec")),
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
pub trait SchedulerFactory: Send + Sync {
    /// The registry name (what spec strings select).
    fn name(&self) -> &str;

    /// One-line human description, shown in CLI help.
    fn summary(&self) -> &str;

    /// Parameter keys this factory accepts (for error messages and docs).
    fn accepted_params(&self) -> &[&str] {
        &[]
    }

    /// Instantiates the scheduler for a spec in a context.
    ///
    /// Implementations should reject parameters outside
    /// [`accepted_params`](SchedulerFactory::accepted_params) via
    /// [`SchedulerSpec::deny_unknown_params`].
    fn build(
        &self,
        spec: &SchedulerSpec,
        ctx: &BuildContext<'_>,
    ) -> Result<Box<dyn Scheduler>, SpecError>;
}

/// A closure-backed [`SchedulerFactory`] (how all built-ins are defined).
struct FnFactory<F> {
    name: &'static str,
    summary: &'static str,
    accepted: &'static [&'static str],
    build: F,
}

impl<F> SchedulerFactory for FnFactory<F>
where
    F: Fn(&SchedulerSpec, &BuildContext<'_>) -> Result<Box<dyn Scheduler>, SpecError>
        + Send
        + Sync,
{
    fn name(&self) -> &str {
        self.name
    }

    fn summary(&self) -> &str {
        self.summary
    }

    fn accepted_params(&self) -> &[&str] {
        self.accepted
    }

    fn build(
        &self,
        spec: &SchedulerSpec,
        ctx: &BuildContext<'_>,
    ) -> Result<Box<dyn Scheduler>, SpecError> {
        spec.deny_unknown_params(self.accepted)?;
        (self.build)(spec, ctx)
    }
}

/// The name → factory map behind every scheduler construction in the
/// workspace.
///
/// [`Registry::default`] pre-populates the paper's full algorithm set;
/// use [`Registry::new`] + [`Registry::register`] for a curated set, or
/// `register` on a default registry to add downstream policies.
pub struct Registry {
    factories: BTreeMap<String, Box<dyn SchedulerFactory>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry { factories: BTreeMap::new() }
    }

    /// The process-wide default registry, built once on first use
    /// (factories are `Send + Sync`, so the instance is freely shared
    /// across threads — `Simulation` sessions and the bench runners all
    /// resolve through it instead of rebuilding [`Registry::default`] per
    /// call).
    pub fn shared() -> &'static Registry {
        static SHARED: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
        SHARED.get_or_init(Registry::default)
    }

    /// Registers a factory, replacing any previous one of the same name
    /// (last registration wins, so downstream crates can override
    /// built-ins) and returning the replaced factory if any.
    pub fn register(
        &mut self,
        factory: Box<dyn SchedulerFactory>,
    ) -> Option<Box<dyn SchedulerFactory>> {
        let name = factory.name().to_string();
        debug_assert!(valid_ident(&name), "invalid factory name {name:?}");
        self.factories.insert(name, factory)
    }

    /// The factory registered under `name`.
    pub fn get(&self, name: &str) -> Option<&dyn SchedulerFactory> {
        self.factories.get(name).map(Box::as_ref)
    }

    /// All registered names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.factories.keys().map(String::as_str)
    }

    /// One canonical parameterless spec per registered factory, sorted by
    /// name (what `run_matrix`-style sweeps and the round-trip tests use).
    pub fn default_specs(&self) -> Vec<SchedulerSpec> {
        self.factories.keys().map(SchedulerSpec::bare).collect()
    }

    /// Builds a scheduler from a parsed spec.
    pub fn build(
        &self,
        spec: &SchedulerSpec,
        ctx: &BuildContext<'_>,
    ) -> Result<Box<dyn Scheduler>, SpecError> {
        let factory = self.factories.get(spec.name()).ok_or_else(|| {
            SpecError::UnknownScheduler {
                name: spec.name().to_string(),
                known: self.names().map(str::to_string).collect(),
            }
        })?;
        factory.build(spec, ctx)
    }

    /// Parses and builds in one step.
    pub fn build_str(
        &self,
        spec: &str,
        ctx: &BuildContext<'_>,
    ) -> Result<Box<dyn Scheduler>, SpecError> {
        self.build(&spec.parse()?, ctx)
    }

    /// A help listing: one `name — summary [params]` line per factory.
    pub fn help(&self) -> String {
        let mut out = String::new();
        for f in self.factories.values() {
            out.push_str(&format!("  {:<14} {}", f.name(), f.summary()));
            if !f.accepted_params().is_empty() {
                out.push_str(&format!(" (params: {})", f.accepted_params().join(", ")));
            }
            out.push('\n');
        }
        out
    }

    fn register_fn<F>(
        &mut self,
        name: &'static str,
        summary: &'static str,
        accepted: &'static [&'static str],
        build: F,
    ) where
        F: Fn(&SchedulerSpec, &BuildContext<'_>) -> Result<Box<dyn Scheduler>, SpecError>
            + Send
            + Sync
            + 'static,
    {
        self.register(Box::new(FnFactory { name, summary, accepted, build }));
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("names", &self.names().collect::<Vec<_>>())
            .finish()
    }
}

impl Default for Registry {
    /// A registry with the paper's whole algorithm set (Section 7.1) plus
    /// the extra baselines:
    ///
    /// | spec | scheduler | parameters |
    /// |---|---|---|
    /// | `ref` | [`RefScheduler`] | — |
    /// | `general-ref` | [`GeneralRefScheduler`] | `util` = `sp` \| `flowtime` \| `makespan` \| `share` \| `tardiness` |
    /// | `rand` | [`RandScheduler`] | `perms` (default 15), or `eps` + `lambda` for the Theorem 5.6 sizing |
    /// | `directcontr` | [`DirectContrScheduler`] | — |
    /// | `fairshare` | [`FairShareScheduler`] | — |
    /// | `utfairshare` | [`UtFairShareScheduler`] | — |
    /// | `currfairshare` | [`CurrFairShareScheduler`] | — |
    /// | `roundrobin` | [`RoundRobinScheduler`] | — |
    /// | `fifo` | [`FifoScheduler`] | — |
    /// | `random` | [`RandomScheduler`] | — |
    fn default() -> Self {
        let mut r = Registry::new();
        r.register_fn(
            "ref",
            "exact Shapley reference (exponential in the number of organizations)",
            &[],
            |spec, ctx| match RefScheduler::try_new(ctx.trace) {
                Ok(scheduler) => Ok(Box::new(scheduler)),
                Err(e) => Err(spec.unsupported_trace(e.to_string())),
            },
        );
        r.register_fn(
            "general-ref",
            "REF generalized to a pluggable utility function",
            &["util"],
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
        r.register_fn(
            "rand",
            "randomized Shapley sampling (the paper's RAND / FPRAS)",
            &["perms", "eps", "lambda"],
            |spec, ctx| {
                if spec.get("eps").is_some() || spec.get("lambda").is_some() {
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
                    if eps <= 0.0 {
                        return Err(spec.bad_param("eps", "must be positive"));
                    }
                    if !(lambda > 0.0 && lambda < 1.0) {
                        return Err(spec.bad_param("lambda", "must be in (0, 1)"));
                    }
                    return Ok(Box::new(RandScheduler::with_guarantee(
                        ctx.trace, eps, lambda, ctx.seed,
                    )));
                }
                let perms = spec.parsed("perms", 15usize)?;
                if perms == 0 {
                    return Err(spec.bad_param("perms", "need at least one permutation"));
                }
                Ok(Box::new(RandScheduler::new(ctx.trace, perms, ctx.seed)))
            },
        );
        r.register_fn(
            "directcontr",
            "direct-contribution heuristic (Figure 9)",
            &[],
            |_, ctx| Ok(Box::new(DirectContrScheduler::new(ctx.seed))),
        );
        r.register_fn(
            "fairshare",
            "usage/share balancing (classic fair share)",
            &[],
            |_, _| Ok(Box::new(FairShareScheduler::new())),
        );
        r.register_fn("utfairshare", "utility/share balancing", &[], |_, _| {
            Ok(Box::new(UtFairShareScheduler::new()))
        });
        r.register_fn("currfairshare", "running-jobs/share balancing", &[], |_, _| {
            Ok(Box::new(CurrFairShareScheduler::new()))
        });
        r.register_fn(
            "roundrobin",
            "cycle through organizations with waiting jobs",
            &[],
            |_, _| Ok(Box::new(RoundRobinScheduler::new())),
        );
        r.register_fn("fifo", "global first-in-first-out baseline", &[], |_, _| {
            Ok(Box::new(FifoScheduler::new()))
        });
        r.register_fn(
            "random",
            "uniformly random organization baseline",
            &[],
            |_, ctx| Ok(Box::new(RandomScheduler::new(ctx.seed))),
        );
        r
    }
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
    fn parses_bare_and_parameterized() {
        let s: SchedulerSpec = "ref".parse().unwrap();
        assert_eq!(s.name(), "ref");
        assert_eq!(s.params().count(), 0);

        let s: SchedulerSpec = "rand:perms=15".parse().unwrap();
        assert_eq!(s.name(), "rand");
        assert_eq!(s.get("perms"), Some("15"));

        let s: SchedulerSpec = "general-ref:util=flowtime".parse().unwrap();
        assert_eq!(s.get("util"), Some("flowtime"));
    }

    #[test]
    fn display_is_canonical_and_round_trips() {
        for text in
            ["ref", "rand:perms=75", "rand:eps=0.5,lambda=0.9", "general-ref:util=sp"]
        {
            let spec: SchedulerSpec = text.parse().unwrap();
            assert_eq!(spec.to_string(), text);
            let again: SchedulerSpec = spec.to_string().parse().unwrap();
            assert_eq!(again, spec);
        }
        // Parameters are sorted into canonical order.
        let spec: SchedulerSpec = "rand:lambda=0.9,eps=0.5".parse().unwrap();
        assert_eq!(spec.to_string(), "rand:eps=0.5,lambda=0.9");
    }

    #[test]
    fn reserved_value_characters_round_trip_escaped() {
        let spec = SchedulerSpec::bare("x").with("k", "a,b=1");
        assert_eq!(spec.to_string(), "x:k=a%2cb%3d1");
        let back: SchedulerSpec = spec.to_string().parse().unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.get("k"), Some("a,b=1"));
    }

    #[test]
    #[should_panic(expected = "invalid spec param key")]
    fn with_rejects_bad_keys() {
        let _ = SchedulerSpec::bare("x").with("K!", 1);
    }

    #[test]
    fn rejects_malformed_specs() {
        for text in [
            "",
            "  ",
            "Ref",
            "rand:",
            "rand:perms",
            "rand:perms=",
            "a b",
            "rand:p=1,p=2",
            "rand:=1",
        ] {
            let r: Result<SchedulerSpec, _> = text.parse();
            assert!(r.is_err(), "{text:?} should not parse");
        }
    }

    #[test]
    fn default_registry_builds_every_scheduler() {
        let trace = tiny_trace();
        let registry = Registry::default();
        let ctx = BuildContext { trace: &trace, seed: 3 };
        let mut names = Vec::new();
        for spec in registry.default_specs() {
            let s = registry
                .build(&spec, &ctx)
                .unwrap_or_else(|e| panic!("default spec {spec} failed to build: {e}"));
            names.push(s.name());
        }
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn shared_registry_is_built_once_and_complete() {
        let a = Registry::shared();
        let b = Registry::shared();
        assert!(std::ptr::eq(a, b), "shared() must return one instance");
        // Same factory set as a fresh default.
        let fresh = Registry::default();
        assert_eq!(a.names().collect::<Vec<_>>(), fresh.names().collect::<Vec<_>>());
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
        assert!(matches!(
            registry.build_str("ref:bogus=1", &ctx),
            Err(SpecError::UnknownParam { .. })
        ));
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
    fn rand_guarantee_spec_uses_hoeffding() {
        let trace = tiny_trace();
        let registry = Registry::default();
        let ctx = BuildContext { trace: &trace, seed: 1 };
        let built = registry.build_str("rand:eps=1.0,lambda=0.5", &ctx).unwrap();
        let n = coopgame::sampling::hoeffding_permutations(2, 1.0, 0.5);
        assert_eq!(built.name(), format!("Rand(N={n})"));
    }

    #[test]
    fn registration_extends_and_overrides() {
        struct Custom;
        impl SchedulerFactory for Custom {
            fn name(&self) -> &str {
                "custom"
            }
            fn summary(&self) -> &str {
                "test-only"
            }
            fn build(
                &self,
                _spec: &SchedulerSpec,
                _ctx: &BuildContext<'_>,
            ) -> Result<Box<dyn Scheduler>, SpecError> {
                Ok(Box::new(FifoScheduler::new()))
            }
        }
        let mut registry = Registry::default();
        assert!(registry.register(Box::new(Custom)).is_none());
        assert!(registry.get("custom").is_some());
        let trace = tiny_trace();
        let built = registry
            .build_str("custom", &BuildContext { trace: &trace, seed: 0 })
            .unwrap();
        assert_eq!(built.name(), "Fifo");
        // Same-name registration replaces (and hands back) the old factory.
        assert!(registry.register(Box::new(Custom)).is_some());
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

    #[test]
    fn help_mentions_every_name() {
        let registry = Registry::default();
        let help = registry.help();
        for name in registry.names() {
            assert!(help.contains(name), "help is missing {name}");
        }
    }

    #[cfg(feature = "serde")]
    #[test]
    fn serde_round_trip_is_the_spec_string() {
        use serde::{Deserialize, Serialize};
        let spec: SchedulerSpec = "rand:perms=15".parse().unwrap();
        let v = spec.to_value();
        assert_eq!(v, serde::Value::String("rand:perms=15".into()));
        let back = SchedulerSpec::from_value(&v).unwrap();
        assert_eq!(back, spec);
        assert!(SchedulerSpec::from_value(&serde::Value::Number("3".into())).is_err());
    }
}

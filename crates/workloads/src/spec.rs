//! The workload registry: one construction path for every workload.
//!
//! The *workload* axis of the paper's experiment matrix, so a whole
//! Section 7.2-style evaluation — workloads × machine splits × schedulers
//! — is expressible as strings. It is one instance of the generic
//! [`fairsched_core::spec`] design, with [`WorkloadKind`] as the axis:
//!
//! * [`WorkloadSpec`] — [`Spec`]`<`[`WorkloadKind`]`>`, a parsed, canonical
//!   description of a workload, written as a string such as
//!   `"synth:preset=ricc,scale=0.5"`,
//!   `"swf:path=/logs/lpc.swf,start=0,end=86400"` or `"fpt:k=8"`, with
//!   [`WorkloadError`]-worded failures.
//! * [`WorkloadFactory`] — an object-safe builder turning a spec plus a
//!   [`WorkloadContext`] (seed) into a [`Trace`]. Like every factory it
//!   declares [`conformance_specs`](Factory::conformance_specs), which the
//!   conformance harness (`tests/spec_conformance.rs`) exercises, so
//!   downstream-registered workloads inherit the round-trip, determinism
//!   and validity guarantees for free.
//! * [`WorkloadRegistry`] — [`Registry`]`<`[`WorkloadKind`]`>`.
//!   [`WorkloadRegistry::default`] knows the built-in families below;
//!   [`WorkloadRegistry::shared`] is the process-wide instance every
//!   consumer (CLI `--workload`, bench experiments, `Simulation`
//!   sessions) resolves through; [`WorkloadRegistry::register`] admits
//!   downstream families without touching this crate.
//!
//! # Built-in families
//!
//! | spec | workload | parameters |
//! |---|---|---|
//! | `synth` | seeded synthetic preset ([`crate::presets`]) | `preset` (lpc \| pik \| ricc \| sharcnet, default lpc), `scale` (default 0.1), `orgs` (default 5), `horizon` (default 20000), `split` (zipf \| uniform \| equal, default zipf), `zipf` (exponent, default 1.0) |
//! | `swf` | a Standard Workload Format log ([`crate::swf`]) | `path` (required), `start`/`end` (submit window, defaults 0/∞), `machines` (default 64), `orgs` (default 5), `split`, `zipf` |
//! | `fpt` | the lattice-bench FPT growth family (`2k` users on `2k` machines, equal split) | `k` (required), `horizon` (default 2000), `load` (default 0.8), `median` (default 40), `sigma` (default 1.0), `maxdur` (default 500) |
//! | `trace` | a serialized [`Trace`] replayed verbatim from JSON (see [`write_trace_json`]) | `path` (required) |
//!
//! ```
//! use fairsched_workloads::spec::{WorkloadContext, WorkloadRegistry, WorkloadSpec};
//!
//! let registry = WorkloadRegistry::default();
//! let spec: WorkloadSpec = "synth:orgs=3,preset=lpc,scale=0.05".parse().unwrap();
//! let trace = registry.build(&spec, &WorkloadContext { seed: 7 }).unwrap();
//! assert_eq!(trace.n_orgs(), 3);
//! assert_eq!(spec.to_string(), "synth:orgs=3,preset=lpc,scale=0.05");
//! ```

use crate::assign::{to_trace, MachineSplit};
use crate::presets::{preset, PresetName};
use crate::swf;
use crate::synth::{generate, SynthConfig};
use fairsched_core::model::{Time, Trace, TraceError};
use fairsched_core::spec::{Factory, FnFactory, Registry, Spec, SpecFailure, SpecKind};
use std::fmt;

/// Why a workload spec string or a build from one was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkloadError {
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
    UnknownWorkload {
        /// The requested name.
        name: String,
        /// Registered names, sorted.
        known: Vec<String>,
    },
    /// The named workload does not accept this parameter.
    UnknownParam {
        /// The workload name.
        workload: String,
        /// The rejected parameter key.
        param: String,
        /// Keys the workload accepts.
        accepted: Vec<String>,
    },
    /// A parameter value failed to parse or violated a constraint.
    BadParam {
        /// The workload name.
        workload: String,
        /// The parameter key.
        param: String,
        /// What was wrong with the value.
        reason: String,
    },
    /// A workload file (e.g. an SWF log) could not be read.
    Io {
        /// The path that failed.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// The workload file failed to parse as SWF.
    Swf(swf::SwfError),
    /// A serialized trace file failed to parse as JSON.
    Json {
        /// The path that failed.
        path: String,
        /// The parse error message.
        message: String,
    },
    /// The generated trace failed model validation.
    InvalidTrace(TraceError),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Empty => write!(f, "empty workload spec"),
            WorkloadError::BadSyntax { spec, reason } => {
                write!(f, "malformed workload spec {spec:?}: {reason}")
            }
            WorkloadError::UnknownWorkload { name, known } => {
                write!(f, "unknown workload {name:?} (known: {})", known.join(", "))
            }
            WorkloadError::UnknownParam { workload, param, accepted } => {
                if accepted.is_empty() {
                    write!(f, "workload {workload:?} takes no parameters, got {param:?}")
                } else {
                    write!(
                        f,
                        "workload {workload:?} does not accept {param:?} (accepted: {})",
                        accepted.join(", ")
                    )
                }
            }
            WorkloadError::BadParam { workload, param, reason } => {
                write!(f, "bad value for {workload}:{param}: {reason}")
            }
            WorkloadError::Io { path, message } => {
                write!(f, "cannot read workload file {path:?}: {message}")
            }
            WorkloadError::Swf(e) => write!(f, "{e}"),
            WorkloadError::Json { path, message } => {
                write!(f, "cannot parse trace file {path:?}: {message}")
            }
            WorkloadError::InvalidTrace(e) => write!(f, "invalid trace: {e}"),
        }
    }
}

impl std::error::Error for WorkloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkloadError::Swf(e) => Some(e),
            WorkloadError::InvalidTrace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<swf::SwfError> for WorkloadError {
    fn from(e: swf::SwfError) -> Self {
        WorkloadError::Swf(e)
    }
}

impl From<TraceError> for WorkloadError {
    fn from(e: TraceError) -> Self {
        WorkloadError::InvalidTrace(e)
    }
}

impl From<SpecFailure> for WorkloadError {
    fn from(e: SpecFailure) -> Self {
        match e {
            SpecFailure::Empty => WorkloadError::Empty,
            SpecFailure::BadSyntax { spec, reason } => {
                WorkloadError::BadSyntax { spec, reason }
            }
            SpecFailure::UnknownName { name, known } => {
                WorkloadError::UnknownWorkload { name, known }
            }
            SpecFailure::UnknownParam { name, param, accepted } => {
                WorkloadError::UnknownParam { workload: name, param, accepted }
            }
            SpecFailure::BadParam { name, param, reason } => {
                WorkloadError::BadParam { workload: name, param, reason }
            }
        }
    }
}

/// The workload axis of the experiment matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WorkloadKind {}

/// A parsed workload configuration (see [`Spec`]).
pub type WorkloadSpec = Spec<WorkloadKind>;

/// The name → factory map behind every workload construction in the
/// workspace (see [`Registry`]).
pub type WorkloadRegistry = Registry<WorkloadKind>;

/// Everything a factory may need beyond the spec itself: the seed driving
/// generation, user→organization shuffling, and machine-split draws.
#[derive(Copy, Clone, Debug)]
pub struct WorkloadContext {
    /// Seed for all workload randomness (same spec + same seed ⇒ the
    /// identical [`Trace`], byte for byte — the conformance suite pins
    /// this for every registered factory).
    pub seed: u64,
}

/// An object-safe workload builder, registered under a unique name.
pub trait WorkloadFactory: Factory<WorkloadKind> {
    /// Whether different seeds must yield different traces (true for every
    /// built-in family; a deterministic replay workload may opt out).
    fn seed_sensitive(&self) -> bool {
        true
    }

    /// Instantiates the trace for a spec in a context.
    ///
    /// Implementations should reject parameters outside
    /// [`accepted_params`](Factory::accepted_params) via
    /// [`Spec::deny_unknown_params`].
    fn build(
        &self,
        spec: &WorkloadSpec,
        ctx: &WorkloadContext,
    ) -> Result<Trace, WorkloadError>;
}

impl<F> WorkloadFactory for FnFactory<WorkloadKind, F>
where
    F: Fn(&WorkloadSpec, &WorkloadContext) -> Result<Trace, WorkloadError> + Send + Sync,
{
    fn build(
        &self,
        spec: &WorkloadSpec,
        ctx: &WorkloadContext,
    ) -> Result<Trace, WorkloadError> {
        spec.deny_unknown_params(self.accepted)?;
        (self.build)(spec, ctx)
    }
}

/// Resolves the shared `split`/`zipf` parameter pair into a
/// [`MachineSplit`]; the `zipf` exponent is rejected unless `split` is
/// `zipf` so a forgotten `split=uniform` cannot silently ignore it.
fn split_from_spec(spec: &WorkloadSpec) -> Result<MachineSplit, WorkloadError> {
    match spec.get("split").unwrap_or("zipf") {
        "zipf" => {
            let s = spec.parsed("zipf", 1.0f64)?;
            if !s.is_finite() || s <= 0.0 {
                return Err(spec.bad_param("zipf", "exponent must be positive"));
            }
            Ok(MachineSplit::Zipf(s))
        }
        other => {
            if spec.get("zipf").is_some() {
                return Err(spec.bad_param("zipf", "only meaningful with split=zipf"));
            }
            match other {
                "uniform" => Ok(MachineSplit::Uniform),
                "equal" => Ok(MachineSplit::Equal),
                _ => Err(spec.bad_param(
                    "split",
                    format!("unknown split {other:?} (one of: zipf, uniform, equal)"),
                )),
            }
        }
    }
}

/// The canonical spec for a synthetic preset workload — the inverse of the
/// `synth` factory, used by the bench runner and CLI to express their
/// classic flag combinations as registry specs. A Zipf split with exponent
/// 1.0 (the paper's default) is rendered with no `split`/`zipf` params,
/// keeping the canonical form minimal.
pub fn synth_spec(
    preset: PresetName,
    scale: f64,
    orgs: usize,
    split: MachineSplit,
    horizon: Time,
) -> WorkloadSpec {
    let mut spec = WorkloadSpec::bare("synth")
        .with("preset", preset.key())
        .with("scale", scale)
        .with("orgs", orgs)
        .with("horizon", horizon);
    spec = match split {
        // Zipf with exponent 1.0 is the default: omit both params so the
        // canonical form stays minimal.
        MachineSplit::Zipf(s) => {
            if s == 1.0 {
                spec
            } else {
                spec.with("split", "zipf").with("zipf", s)
            }
        }
        MachineSplit::Uniform => spec.with("split", "uniform"),
        MachineSplit::Equal => spec.with("split", "equal"),
    };
    spec
}

/// The canonical spec for the FPT lattice-bench family at `k`
/// organizations (defaults for everything else).
pub fn fpt_spec(k: usize) -> WorkloadSpec {
    WorkloadSpec::bare("fpt").with("k", k)
}

/// The committed tiny SWF log used for conformance and examples (absolute
/// path, so the harness finds it from any crate's test working directory).
pub fn sample_swf_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/sample.swf")
}

/// The committed tiny serialized trace used by the `trace:` family's
/// conformance specs.
pub fn sample_trace_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/sample_trace.json")
}

/// Serializes a [`Trace`] to the JSON format the `trace:` workload family
/// replays — the export half of making externally generated scenarios
/// spec-addressable (`trace:path=...`).
#[expect(
    clippy::expect_used,
    reason = "a trace holds only integers and strings, which always serialize"
)]
pub fn trace_to_json(trace: &Trace) -> String {
    serde_json::to_string_pretty(trace).expect("traces serialize")
}

/// Writes [`trace_to_json`] to a file, so the canonical export/import
/// cycle is `write_trace_json(&trace, p)` → `trace:path=p`. The write is
/// scratch + commit-rename ([`fairsched_core::journal::atomic_write`]):
/// a crash mid-export leaves the previous file intact, never a torn
/// trace that `trace:path=...` would later half-read.
pub fn write_trace_json(
    trace: &Trace,
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    fairsched_core::journal::atomic_write(path.as_ref(), &trace_to_json(trace))
        .map_err(|e| std::io::Error::other(e.to_string()))
}

/// Replays an `swf:` spec: validates its parameters, then streams the log
/// once ([`swf::stream_trace`]) into the trace and the whole log's
/// [`swf::SwfStats`]. The `swf` factory and `fairsched --swf` both go
/// through here, so they accept, reject and word errors alike.
pub fn swf_replay(
    spec: &WorkloadSpec,
    ctx: &WorkloadContext,
) -> Result<(Trace, swf::SwfStats), WorkloadError> {
    let path = spec.required("path")?;
    let start = spec.parsed("start", 0u64)?;
    let end = spec.parsed("end", Time::MAX)?;
    if start >= end {
        return Err(spec.bad_param("end", "window end must exceed start"));
    }
    let machines = spec.parsed("machines", 64usize)?;
    let orgs = spec.parsed("orgs", 5usize)?;
    if orgs == 0 {
        return Err(spec.bad_param("orgs", "need at least one organization"));
    }
    if machines < orgs {
        return Err(spec.bad_param(
            "machines",
            format!("need at least one machine per organization ({orgs})"),
        ));
    }
    let split = split_from_spec(spec)?;
    swf::stream_trace(path, start, end, orgs, machines, split, ctx.seed).map_err(|e| {
        match e {
            swf::SwfStreamError::Io { path, message } => {
                WorkloadError::Io { path, message }
            }
            swf::SwfStreamError::Parse(e) => WorkloadError::from(e),
            swf::SwfStreamError::EmptyWindow => spec.bad_param(
                "path",
                format!("submit window [{start}, {end}) selects no jobs"),
            ),
            swf::SwfStreamError::Trace(e) => WorkloadError::from(e),
        }
    })
}

#[expect(clippy::unwrap_used, reason = "fixed canonical spec literals that parse")]
fn synth_conformance() -> Vec<WorkloadSpec> {
    vec![
        "synth:horizon=1500,orgs=3,preset=lpc,scale=0.08".parse().unwrap(),
        "synth:horizon=1200,orgs=2,preset=pik,scale=0.01,split=equal".parse().unwrap(),
        "synth:horizon=1000,orgs=3,preset=ricc,scale=0.004,split=uniform"
            .parse()
            .unwrap(),
        "synth:horizon=1200,orgs=4,preset=sharcnet,scale=0.008,split=zipf,zipf=1.5"
            .parse()
            .unwrap(),
    ]
}

fn swf_conformance() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::bare("swf")
            .with("path", sample_swf_path())
            .with("machines", 6)
            .with("orgs", 3),
        WorkloadSpec::bare("swf")
            .with("path", sample_swf_path())
            .with("machines", 4)
            .with("orgs", 2)
            .with("start", 0)
            .with("end", 500)
            .with("split", "uniform"),
    ]
}

#[expect(clippy::unwrap_used, reason = "fixed canonical spec literals that parse")]
fn fpt_conformance() -> Vec<WorkloadSpec> {
    vec![
        "fpt:k=3".parse().unwrap(),
        "fpt:horizon=800,k=5,maxdur=120,median=25".parse().unwrap(),
    ]
}

/// The `trace:` family: replay a serialized [`Trace`] from JSON verbatim.
/// Deterministic by construction — the file *is* the trace — so it opts
/// out of seed sensitivity.
struct TraceFileFactory;

impl Factory<WorkloadKind> for TraceFileFactory {
    fn name(&self) -> &str {
        "trace"
    }

    fn summary(&self) -> &str {
        "replay a serialized trace from JSON (see write_trace_json)"
    }

    fn accepted_params(&self) -> &[&str] {
        &["path"]
    }

    fn conformance_specs(&self) -> Vec<WorkloadSpec> {
        vec![WorkloadSpec::bare("trace").with("path", sample_trace_path())]
    }
}

impl WorkloadFactory for TraceFileFactory {
    fn seed_sensitive(&self) -> bool {
        false
    }

    fn build(
        &self,
        spec: &WorkloadSpec,
        _ctx: &WorkloadContext,
    ) -> Result<Trace, WorkloadError> {
        spec.deny_unknown_params(self.accepted_params())?;
        let path = spec.required("path")?.to_string();
        let text = std::fs::read_to_string(&path).map_err(|e| WorkloadError::Io {
            path: path.clone(),
            message: e.to_string(),
        })?;
        let trace: Trace = serde_json::from_str(&text).map_err(|e| {
            WorkloadError::Json { path: path.clone(), message: e.to_string() }
        })?;
        trace.validate()?;
        Ok(trace)
    }
}

impl SpecKind for WorkloadKind {
    const SPEC_TYPE: &'static str = "WorkloadSpec";
    type Error = WorkloadError;
    type Factory = dyn WorkloadFactory;
    type Ctx<'a> = WorkloadContext;
    type Output = Trace;

    fn run(
        factory: &dyn WorkloadFactory,
        spec: &WorkloadSpec,
        ctx: &WorkloadContext,
    ) -> Result<Trace, WorkloadError> {
        factory.build(spec, ctx)
    }

    fn shared() -> &'static WorkloadRegistry {
        static SHARED: std::sync::OnceLock<WorkloadRegistry> = std::sync::OnceLock::new();
        SHARED.get_or_init(WorkloadRegistry::default)
    }

    /// The built-in workload families: `synth` (the Section 7.2
    /// presets), `swf` (archive log replay), `fpt` (the lattice-bench
    /// growth family), and `trace` (serialized-trace replay).
    fn builtins(r: &mut WorkloadRegistry) {
        r.register(Box::new(TraceFileFactory));
        register_fn(
            r,
            "synth",
            "seeded synthetic preset (Section 7.2 archive shapes)",
            &["preset", "scale", "orgs", "horizon", "split", "zipf"],
            synth_conformance,
            |spec, ctx| {
                let name = spec.get("preset").unwrap_or("lpc");
                let name = PresetName::parse(name).ok_or_else(|| {
                    spec.bad_param(
                        "preset",
                        format!(
                            "unknown preset {name:?} (one of: lpc, pik, ricc, sharcnet)"
                        ),
                    )
                })?;
                let scale = spec.parsed("scale", 0.1f64)?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err(spec.bad_param("scale", "must be in (0, 1]"));
                }
                let orgs = spec.parsed("orgs", 5usize)?;
                if orgs == 0 {
                    return Err(spec.bad_param("orgs", "need at least one organization"));
                }
                let horizon = spec.parsed("horizon", 20_000u64)?;
                if horizon == 0 {
                    return Err(spec.bad_param("horizon", "must be positive"));
                }
                let split = split_from_spec(spec)?;
                let p = preset(name, scale, horizon);
                if p.synth.n_machines < orgs {
                    return Err(spec.bad_param(
                        "orgs",
                        format!(
                            "preset at this scale has only {} machines for {orgs} organizations",
                            p.synth.n_machines
                        ),
                    ));
                }
                let jobs = generate(&p.synth, ctx.seed);
                Ok(to_trace(&jobs, orgs, p.synth.n_machines, split, ctx.seed)?)
            },
        );
        register_fn(
            r,
            "swf",
            "replay a Standard Workload Format archive log",
            &["path", "start", "end", "machines", "orgs", "split", "zipf"],
            swf_conformance,
            |spec, ctx| swf_replay(spec, ctx).map(|(trace, _)| trace),
        );
        register_fn(
            r,
            "fpt",
            "lattice-bench FPT growth family (2k users on 2k machines)",
            &["k", "horizon", "load", "median", "sigma", "maxdur"],
            fpt_conformance,
            |spec, ctx| {
                spec.required("k")?;
                let k = spec.parsed("k", 0usize)?;
                if k == 0 {
                    return Err(spec.bad_param("k", "need at least one organization"));
                }
                let horizon = spec.parsed("horizon", 2_000u64)?;
                if horizon == 0 {
                    return Err(spec.bad_param("horizon", "must be positive"));
                }
                let load = spec.parsed("load", 0.8f64)?;
                if !load.is_finite() || load <= 0.0 {
                    return Err(spec.bad_param("load", "must be positive"));
                }
                let median = spec.parsed("median", 40.0f64)?;
                if !median.is_finite() || median < 1.0 {
                    return Err(spec.bad_param("median", "must be at least 1"));
                }
                let sigma = spec.parsed("sigma", 1.0f64)?;
                if !sigma.is_finite() || sigma < 0.0 {
                    return Err(spec.bad_param("sigma", "must be non-negative"));
                }
                let maxdur = spec.parsed("maxdur", 500u64)?;
                if maxdur == 0 {
                    return Err(spec.bad_param("maxdur", "must be positive"));
                }
                let config = SynthConfig {
                    n_users: 2 * k,
                    horizon,
                    n_machines: 2 * k,
                    load,
                    duration_median: median,
                    duration_sigma: sigma,
                    max_duration: maxdur,
                    ..SynthConfig::default()
                };
                let jobs = generate(&config, ctx.seed);
                Ok(to_trace(&jobs, k, 2 * k, MachineSplit::Equal, ctx.seed)?)
            },
        );
    }
}

/// Registers a closure-backed built-in (the closure's signature pins the
/// argument types the built-ins leave to inference).
fn register_fn<F>(
    r: &mut WorkloadRegistry,
    name: &'static str,
    summary: &'static str,
    accepted: &'static [&'static str],
    conformance: fn() -> Vec<WorkloadSpec>,
    build: F,
) where
    F: Fn(&WorkloadSpec, &WorkloadContext) -> Result<Trace, WorkloadError>
        + Send
        + Sync
        + 'static,
{
    r.register(Box::new(FnFactory { name, summary, accepted, conformance, build }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seed: u64) -> WorkloadContext {
        WorkloadContext { seed }
    }

    #[test]
    fn grammar_failures_are_workload_worded() {
        assert!(matches!("".parse::<WorkloadSpec>(), Err(WorkloadError::Empty)));
        let err = "synth:".parse::<WorkloadSpec>().unwrap_err();
        assert!(matches!(err, WorkloadError::BadSyntax { .. }));
        assert!(
            err.to_string().starts_with("malformed workload spec \"synth:\""),
            "{err}"
        );
    }

    #[test]
    fn default_registry_builds_every_conformance_spec() {
        let registry = WorkloadRegistry::default();
        for (name, specs) in registry.conformance_specs() {
            assert!(!specs.is_empty(), "factory {name} has no conformance specs");
            for spec in specs {
                let trace = registry
                    .build(&spec, &ctx(3))
                    .unwrap_or_else(|e| panic!("conformance spec {spec} failed: {e}"));
                assert!(trace.n_jobs() > 0, "{spec} built an empty trace");
            }
        }
    }

    #[test]
    fn unknown_workload_is_typed_error() {
        let registry = WorkloadRegistry::default();
        match registry.build_str("nonesuch:x=1", &ctx(0)) {
            Err(WorkloadError::UnknownWorkload { name, known }) => {
                assert_eq!(name, "nonesuch");
                assert_eq!(known, vec!["fpt", "swf", "synth", "trace"]);
            }
            other => panic!("wrong outcome: {other:?}"),
        }
    }

    #[test]
    fn unknown_and_bad_params_are_typed_errors() {
        let registry = WorkloadRegistry::default();
        assert!(matches!(
            registry.build_str("synth:bogus=1", &ctx(0)),
            Err(WorkloadError::UnknownParam { .. })
        ));
        for bad in [
            "synth:preset=venus",
            "synth:scale=0",
            "synth:scale=2",
            "synth:orgs=0",
            "synth:horizon=0",
            "synth:split=diagonal",
            "synth:split=equal,zipf=1.2",
            "synth:orgs=900,preset=lpc,scale=0.1",
            "fpt:k=0",
            "fpt:k=three",
            "fpt:k=2,load=0",
            "swf:path=/nope,start=5,end=5",
            "swf:machines=1,orgs=4,path=/nope",
        ] {
            assert!(
                matches!(
                    registry.build_str(bad, &ctx(0)),
                    Err(WorkloadError::BadParam { .. })
                ),
                "{bad:?} should be BadParam"
            );
        }
        // fpt without k, swf without path.
        assert!(matches!(
            registry.build_str("fpt", &ctx(0)),
            Err(WorkloadError::BadParam { .. })
        ));
        assert!(matches!(
            registry.build_str("swf", &ctx(0)),
            Err(WorkloadError::BadParam { .. })
        ));
    }

    #[test]
    fn swf_missing_file_is_io_error() {
        let registry = WorkloadRegistry::default();
        assert!(matches!(
            registry.build_str("swf:path=/no/such/file.swf", &ctx(0)),
            Err(WorkloadError::Io { .. })
        ));
    }

    #[test]
    fn trace_family_replays_serialized_traces_verbatim() {
        let registry = WorkloadRegistry::default();
        let spec = WorkloadSpec::bare("trace").with("path", sample_trace_path());
        let a = registry.build(&spec, &ctx(0)).unwrap();
        assert_eq!(a.n_orgs(), 2);
        assert_eq!(a.n_jobs(), 4);
        assert_eq!(a.orgs()[0].name, "alpha");
        assert_eq!(a.job(fairsched_core::JobId(2)).deadline, Some(9));
        // Seed-independent: the file is the trace.
        assert_eq!(a, registry.build(&spec, &ctx(99)).unwrap());
        // Export ∘ import is the identity.
        let dir = crate::scratch_dir("trace-roundtrip");
        let path = dir.join("roundtrip.json");
        write_trace_json(&a, &path).unwrap();
        let spec2 = WorkloadSpec::bare("trace").with("path", path.display());
        assert_eq!(registry.build(&spec2, &ctx(3)).unwrap(), a);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_family_errors_are_typed() {
        let registry = WorkloadRegistry::default();
        assert!(matches!(
            registry.build_str("trace", &ctx(0)),
            Err(WorkloadError::BadParam { .. })
        ));
        assert!(matches!(
            registry.build_str("trace:path=/no/such/trace.json", &ctx(0)),
            Err(WorkloadError::Io { .. })
        ));
        // A readable file that is not a serialized trace is a Json error.
        assert!(matches!(
            registry.build(
                &WorkloadSpec::bare("trace").with("path", sample_swf_path()),
                &ctx(0)
            ),
            Err(WorkloadError::Json { .. })
        ));
        // A parseable file describing an invalid trace fails validation.
        let dir = crate::scratch_dir("trace-invalid");
        let path = dir.join("invalid.json");
        std::fs::write(
            &path,
            r#"{"orgs":[{"name":"a","n_machines":1}],
               "jobs":[{"id":0,"org":0,"release":0,"proc_time":0,"deadline":null}]}"#,
        )
        .unwrap();
        let spec = WorkloadSpec::bare("trace").with("path", path.display());
        assert!(matches!(
            registry.build(&spec, &ctx(0)),
            Err(WorkloadError::InvalidTrace(TraceError::ZeroProcTime { .. }))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synth_spec_builder_is_canonical_and_builds() {
        let spec =
            synth_spec(PresetName::LpcEgee, 0.08, 3, MachineSplit::Zipf(1.0), 1_500);
        assert_eq!(spec.to_string(), "synth:horizon=1500,orgs=3,preset=lpc,scale=0.08");
        let spec2 = synth_spec(PresetName::Ricc, 0.004, 3, MachineSplit::Uniform, 1_000);
        assert_eq!(
            spec2.to_string(),
            "synth:horizon=1000,orgs=3,preset=ricc,scale=0.004,split=uniform"
        );
        let spec3 =
            synth_spec(PresetName::PikIplex, 0.01, 2, MachineSplit::Zipf(1.5), 900);
        assert_eq!(
            spec3.to_string(),
            "synth:horizon=900,orgs=2,preset=pik,scale=0.01,split=zipf,zipf=1.5"
        );
        let registry = WorkloadRegistry::default();
        let t = registry.build(&spec, &ctx(5)).unwrap();
        assert_eq!(t.n_orgs(), 3);
    }

    #[test]
    fn fpt_matches_direct_construction() {
        // The registry fpt family must reproduce the historical
        // `bench_workload` construction bit for bit (perf baselines and
        // golden fixtures depend on it).
        let k = 4;
        let seed = 5;
        let config = SynthConfig {
            n_users: 2 * k,
            horizon: 2_000,
            n_machines: 2 * k,
            load: 0.8,
            duration_median: 40.0,
            duration_sigma: 1.0,
            max_duration: 500,
            ..SynthConfig::default()
        };
        let jobs = generate(&config, seed);
        let direct = to_trace(&jobs, k, 2 * k, MachineSplit::Equal, seed).unwrap();
        let via_registry =
            WorkloadRegistry::shared().build(&fpt_spec(k), &ctx(seed)).unwrap();
        assert_eq!(direct, via_registry);
    }

    #[test]
    fn synth_matches_direct_construction() {
        let horizon = 1_500;
        let p = preset(PresetName::LpcEgee, 0.08, horizon);
        let jobs = generate(&p.synth, 9);
        let direct =
            to_trace(&jobs, 3, p.synth.n_machines, MachineSplit::Zipf(1.0), 9).unwrap();
        let via_registry = WorkloadRegistry::shared()
            .build(
                &synth_spec(
                    PresetName::LpcEgee,
                    0.08,
                    3,
                    MachineSplit::Zipf(1.0),
                    horizon,
                ),
                &ctx(9),
            )
            .unwrap();
        assert_eq!(direct, via_registry);
    }

    #[test]
    fn preset_param_shares_the_presetname_parsing_path() {
        // Aliases and case-insensitive labels accepted by
        // `PresetName::parse` work verbatim as `preset=` values.
        let registry = WorkloadRegistry::default();
        let base = "horizon=800,orgs=2,scale=0.05";
        let canon =
            registry.build_str(&format!("synth:{base},preset=lpc"), &ctx(3)).unwrap();
        for alias in ["LPC", "lpc-egee", "LpcEgee", "LPC-EGEE"] {
            let spec = WorkloadSpec::bare("synth")
                .with("horizon", 800)
                .with("orgs", 2)
                .with("scale", 0.05)
                .with("preset", alias);
            let t = registry.build(&spec, &ctx(3)).unwrap();
            assert_eq!(t, canon, "alias {alias:?} diverged from canonical preset");
        }
    }
}

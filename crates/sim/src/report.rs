//! The metrics registry and the typed `Report` pipeline — the measurement
//! half of the spec-addressable triad.
//!
//! The *fairness-measure* axis of the paper's experiment matrix, so a
//! whole evaluation — which policies, on which workloads, measured how —
//! is expressible as strings. It is one instance of the generic
//! [`fairsched_core::spec`] design, with [`MetricKind`] as the axis:
//!
//! * [`MetricSpec`] — [`Spec`]`<`[`MetricKind`]`>`, a parsed, canonical
//!   description of a fairness index, written as a string such as
//!   `"delay"`, `"delay:norm=ideal"`, `"psi"`, `"utility:kind=contrib"`,
//!   `"stretch"` or `"ranking"`, with [`MetricError`]-worded failures.
//! * [`MetricFactory`] — an object-safe evaluator turning a spec plus a
//!   [`MetricContext`] (trace, schedule, exact `ψ_sp`, horizon, optional
//!   REF reference) into a per-organization [`MetricColumn`]. Like every
//!   factory it declares [`conformance_specs`](Factory::conformance_specs)
//!   (the harness in `tests/spec_conformance.rs` fails factories
//!   registered without coverage); it also declares whether it
//!   [`needs a reference`](MetricFactory::needs_reference) schedule, and
//!   whether its values are
//!   [`horizon-invariant`](MetricFactory::horizon_invariant) once every
//!   scheduled job has completed.
//! * [`MetricRegistry`] — [`Registry`]`<`[`MetricKind`]`>` with the
//!   built-in families below; [`MetricRegistry::shared`] is the
//!   process-wide instance, [`MetricRegistry::register`] admits downstream
//!   fairness indices in one file, and [`MetricRegistry::build`]
//!   evaluates one spec.
//!
//! # Built-in metric families
//!
//! | spec | per-organization value | aggregate | reference? |
//! |---|---|---|---|
//! | `machines` | machines contributed | pool size | no |
//! | `completed` | jobs completed by the horizon | total | no |
//! | `flow` | total flow time of completed jobs | total | no |
//! | `waiting` | total waiting time of started jobs | total | no |
//! | `units` | unit job parts executed | busy time | no |
//! | `stretch` | mean stretch of completed jobs | overall mean | no |
//! | `utilization` | executed units / own machine-time | pool utilization | no |
//! | `psi` | exact `ψ_sp` | coalition value | no |
//! | `utility` | pluggable utility (`kind` = sp \| flowtime \| makespan \| share \| tardiness \| contrib) | sum | no |
//! | `delay` | deviation from REF (`norm` = ptot \| none \| ideal) | `Δψ/p_tot` (the paper's Tables 1–2 number) | yes |
//! | `ranking` | rank shift vs the REF ordering | Kendall-tau distance | yes |
//! | `timeline` | fairness trajectory per sample time (`samples` = N, `stat` = unfairness \| delta_psi \| ptot) | `Δψ(t)/p_tot(t)` series | yes |
//!
//! Results come back as a typed [`Report`]: one row per organization, one
//! [`MetricColumn`] per requested spec, with the canonical spec strings
//! carried for provenance and sink adapters [`Report::to_json`],
//! [`Report::to_csv`] and [`Report::render_table`] replacing the
//! hand-rolled output paths the bench tables and the CLI used to own.
//!
//! # The time-series axis
//!
//! Definition 3.1 demands fairness *at every time moment*, so a report
//! has a third axis besides organizations × metrics: **time**. A factory
//! may produce a [`TimeSeriesColumn`] instead of a scalar
//! [`MetricColumn`] — per-organization values *per sample time* plus an
//! aggregate trajectory — distinguished by the [`MetricOutput`] it
//! returns from [`MetricFactory::evaluate`]. The built-in `timeline`
//! family streams `ψ/ψ*/p_tot` through the dedup'd sample grid of
//! [`fairsched_core::fairness::timeline_sample_times`] in a single pass
//! over the schedule entries (`O(entries + samples·orgs)`); every sink
//! carries series alongside scalar columns. It is the library's one
//! fairness trajectory; [`fairsched_core::fairness::FairnessReport`]
//! evaluated per sample time is its independent recompute.

use crate::engine::SimResult;
use crate::metrics::org_metrics;
use fairsched_core::fairness::{schedule_series, timeline_sample_times};
use fairsched_core::model::{Time, Trace};
use fairsched_core::schedule::Schedule;
use fairsched_core::scheduler::registry::SchedulerSpec;
use fairsched_core::spec::{Factory, FnFactory, Registry, Spec, SpecFailure, SpecKind};
use fairsched_core::utility::{
    sp_value, FlowTime, Makespan, ResourceShare, SpUtility, Tardiness, Util, Utility,
};
use fairsched_workloads::spec::WorkloadSpec;
use serde::Serialize;
use std::fmt;
use std::str::FromStr;

/// Why a metric spec string or an evaluation from one was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricError {
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
    UnknownMetric {
        /// The requested name.
        name: String,
        /// Registered names, sorted.
        known: Vec<String>,
    },
    /// The named metric does not accept this parameter.
    UnknownParam {
        /// The metric name.
        metric: String,
        /// The rejected parameter key.
        param: String,
        /// Keys the metric accepts.
        accepted: Vec<String>,
    },
    /// A parameter value failed to parse or violated a constraint.
    BadParam {
        /// The metric name.
        metric: String,
        /// The parameter key.
        param: String,
        /// What was wrong with the value.
        reason: String,
    },
    /// The metric compares against the REF reference schedule, but the
    /// context carries none (e.g. the CLI was run with `--no-reference`).
    NeedsReference {
        /// The metric name.
        metric: String,
    },
}

impl fmt::Display for MetricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricError::Empty => write!(f, "empty metric spec"),
            MetricError::BadSyntax { spec, reason } => {
                write!(f, "malformed metric spec {spec:?}: {reason}")
            }
            MetricError::UnknownMetric { name, known } => {
                write!(f, "unknown metric {name:?} (known: {})", known.join(", "))
            }
            MetricError::UnknownParam { metric, param, accepted } => {
                if accepted.is_empty() {
                    write!(f, "metric {metric:?} takes no parameters, got {param:?}")
                } else {
                    write!(
                        f,
                        "metric {metric:?} does not accept {param:?} (accepted: {})",
                        accepted.join(", ")
                    )
                }
            }
            MetricError::BadParam { metric, param, reason } => {
                write!(f, "bad value for {metric}:{param}: {reason}")
            }
            MetricError::NeedsReference { metric } => write!(
                f,
                "metric {metric:?} needs the REF reference schedule, but none was provided"
            ),
        }
    }
}

impl std::error::Error for MetricError {}

impl From<SpecFailure> for MetricError {
    fn from(e: SpecFailure) -> Self {
        match e {
            SpecFailure::Empty => MetricError::Empty,
            SpecFailure::BadSyntax { spec, reason } => {
                MetricError::BadSyntax { spec, reason }
            }
            SpecFailure::UnknownName { name, known } => {
                MetricError::UnknownMetric { name, known }
            }
            SpecFailure::UnknownParam { name, param, accepted } => {
                MetricError::UnknownParam { metric: name, param, accepted }
            }
            SpecFailure::BadParam { name, param, reason } => {
                MetricError::BadParam { metric: name, param, reason }
            }
        }
    }
}

/// The metric axis of the experiment matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MetricKind {}

/// A parsed metric configuration (see [`Spec`]).
pub type MetricSpec = Spec<MetricKind>;

/// The name → factory map behind every fairness measurement in the
/// workspace (see [`Registry`]).
pub type MetricRegistry = Registry<MetricKind>;

/// One measured value: exact integers stay exact (`ψ_sp`, delays, counts
/// are integer quantities in this model), ratios are floats. Rendering
/// ([`MetricValue::render`], JSON serialization) is locale-independent
/// and round-trippable: integers verbatim, floats via Rust's
/// shortest-round-trip `{:?}` formatting.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// An exact integer quantity.
    Int(i128),
    /// A real-valued quantity (ratio, mean, distance).
    Float(f64),
}

impl MetricValue {
    /// The value as `f64` (exact for the integer range `f64` covers; the
    /// aggregation layer works in `f64` like the paper's tables).
    pub fn as_f64(&self) -> f64 {
        match self {
            MetricValue::Int(i) => *i as f64,
            MetricValue::Float(v) => *v,
        }
    }

    /// Exact, locale-stable, round-trippable text: parsing the output
    /// recovers the value bit for bit.
    pub fn render(&self) -> String {
        match self {
            MetricValue::Int(i) => i.to_string(),
            MetricValue::Float(v) => format!("{v:?}"),
        }
    }

    /// Human-oriented rendering for tables: integers exact, floats with
    /// the paper's ~3 significant digits (`format_sig`).
    pub fn render_sig(&self) -> String {
        match self {
            MetricValue::Int(i) => i.to_string(),
            MetricValue::Float(v) => format_sig(*v),
        }
    }
}

impl fmt::Display for MetricValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl serde::Serialize for MetricValue {
    fn to_value(&self) -> serde::Value {
        match self {
            MetricValue::Int(i) => serde::Value::Number(i.to_string()),
            // serde_json convention for non-finite floats; finite floats
            // keep the shortest representation that round-trips exactly.
            MetricValue::Float(v) if v.is_finite() => {
                serde::Value::Number(format!("{v:?}"))
            }
            MetricValue::Float(_) => serde::Value::Null,
        }
    }
}

/// The REF comparison data for reference-based metrics (`delay`,
/// `ranking`): the reference schedule and its exact `ψ_sp` vector at the
/// same horizon.
#[derive(Copy, Clone, Debug)]
pub struct ReferenceData<'a> {
    /// The reference (fair) schedule.
    pub schedule: &'a Schedule,
    /// Exact `ψ_sp` per organization under the reference, at the context
    /// horizon.
    pub psi: &'a [Util],
}

/// Everything a metric may read: the evaluated schedule with its exact
/// utilities, and (optionally) the REF reference.
#[derive(Copy, Clone, Debug)]
pub struct MetricContext<'a> {
    /// The trace the schedule was produced from.
    pub trace: &'a Trace,
    /// The evaluated schedule.
    pub schedule: &'a Schedule,
    /// Exact `ψ_sp` per organization at `horizon`.
    pub psi: &'a [Util],
    /// The evaluation horizon.
    pub horizon: Time,
    /// The REF comparison data, when a reference run is available.
    pub reference: Option<ReferenceData<'a>>,
}

impl<'a> MetricContext<'a> {
    /// A context over a finished [`SimResult`] (no reference).
    pub fn from_result(trace: &'a Trace, result: &'a SimResult) -> Self {
        MetricContext {
            trace,
            schedule: &result.schedule,
            psi: &result.psi,
            horizon: result.horizon,
            reference: None,
        }
    }

    /// Attaches a reference run (builder style). The reference must have
    /// been evaluated at the same horizon.
    pub fn with_reference(mut self, reference: &'a SimResult) -> Self {
        self.reference =
            Some(ReferenceData { schedule: &reference.schedule, psi: &reference.psi });
        self
    }

    fn require_reference(
        &self,
        spec: &MetricSpec,
    ) -> Result<ReferenceData<'a>, MetricError> {
        self.reference.ok_or_else(|| MetricError::NeedsReference {
            metric: spec.name().to_string(),
        })
    }
}

/// One evaluated metric: the canonical spec it came from (provenance),
/// one value per organization, and the aggregate over the whole cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricColumn {
    /// The canonical spec this column answers.
    pub spec: MetricSpec,
    /// One value per organization, in trace order.
    pub per_org: Vec<MetricValue>,
    /// The cluster-wide aggregate (sum, mean or distance — see the
    /// factory's summary).
    pub aggregate: MetricValue,
}

/// One evaluated time-series metric — the third `Report` axis: values
/// *per organization per sample time*, plus the cluster-wide aggregate
/// trajectory. Produced by factories whose [`MetricOutput`] is
/// [`MetricOutput::Series`] (the built-in `timeline` family).
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeriesColumn {
    /// The canonical spec this series answers.
    pub spec: MetricSpec,
    /// The strictly increasing sample times (the dedup'd grid of
    /// [`fairsched_core::fairness::timeline_sample_times`]: every time in
    /// `(0, horizon]`, the last exactly the horizon).
    pub times: Vec<Time>,
    /// `per_org[u][i]` = organization `u`'s value at `times[i]`.
    pub per_org: Vec<Vec<MetricValue>>,
    /// `aggregate[i]` = the cluster-wide value at `times[i]`.
    pub aggregate: Vec<MetricValue>,
}

impl TimeSeriesColumn {
    /// The final sample's aggregate — the scalar a series projects to when
    /// a consumer needs one number (e.g. a bench table cell). For the
    /// `timeline` family this equals the corresponding endpoint metric at
    /// the horizon (`stat=unfairness` ↔ `delay`'s `Δψ/p_tot`) bit for bit.
    pub fn final_aggregate(&self) -> Option<MetricValue> {
        self.aggregate.last().copied()
    }
}

/// What evaluating one metric spec produced: a scalar per-organization
/// [`MetricColumn`], or a per-organization [`TimeSeriesColumn`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricOutput {
    /// A scalar column (one value per organization + aggregate).
    Column(MetricColumn),
    /// A time series (values per organization per sample time).
    Series(TimeSeriesColumn),
}

impl MetricOutput {
    /// The canonical spec this output answers.
    pub fn spec(&self) -> &MetricSpec {
        match self {
            MetricOutput::Column(c) => &c.spec,
            MetricOutput::Series(s) => &s.spec,
        }
    }

    /// The scalar column, if this output is one.
    pub fn as_column(&self) -> Option<&MetricColumn> {
        match self {
            MetricOutput::Column(c) => Some(c),
            MetricOutput::Series(_) => None,
        }
    }

    /// Consumes into the scalar column, if this output is one.
    pub fn into_column(self) -> Option<MetricColumn> {
        match self {
            MetricOutput::Column(c) => Some(c),
            MetricOutput::Series(_) => None,
        }
    }

    /// The time series, if this output is one.
    pub fn as_series(&self) -> Option<&TimeSeriesColumn> {
        match self {
            MetricOutput::Column(_) => None,
            MetricOutput::Series(s) => Some(s),
        }
    }

    /// Consumes into the time series, if this output is one.
    pub fn into_series(self) -> Option<TimeSeriesColumn> {
        match self {
            MetricOutput::Column(_) => None,
            MetricOutput::Series(s) => Some(s),
        }
    }
}

impl From<MetricColumn> for MetricOutput {
    fn from(c: MetricColumn) -> Self {
        MetricOutput::Column(c)
    }
}

impl From<TimeSeriesColumn> for MetricOutput {
    fn from(s: TimeSeriesColumn) -> Self {
        MetricOutput::Series(s)
    }
}

/// An object-safe fairness-index evaluator, registered under a unique
/// name.
pub trait MetricFactory: Factory<MetricKind> {
    /// Whether this metric compares against the REF reference schedule
    /// ([`MetricContext::reference`]). Consumers use this to decide
    /// whether a reference run is needed at all.
    fn needs_reference(&self) -> bool {
        false
    }

    /// Whether the metric's values are invariant to the evaluation
    /// horizon once every scheduled job has completed (true for counting
    /// metrics like `flow` or `completed`; false for `ψ_sp`-based ones,
    /// which keep growing with `t`). Claimed invariance is enforced by
    /// the conformance harness.
    fn horizon_invariant(&self) -> bool {
        false
    }

    /// Evaluates the metric for a spec in a context, producing either a
    /// scalar [`MetricColumn`] or a [`TimeSeriesColumn`] (wrapped in
    /// [`MetricOutput`]; scalar factories simply return
    /// `Ok(column.into())`).
    ///
    /// Implementations should reject parameters outside
    /// [`accepted_params`](Factory::accepted_params) via
    /// [`Spec::deny_unknown_params`].
    fn evaluate(
        &self,
        spec: &MetricSpec,
        ctx: &MetricContext<'_>,
    ) -> Result<MetricOutput, MetricError>;
}

/// A built-in metric's evaluation closure plus the two properties a
/// [`MetricFactory`] declares beyond the common metadata.
struct MetricFn<F> {
    needs_reference: bool,
    horizon_invariant: bool,
    eval: F,
}

impl<F> MetricFactory for FnFactory<MetricKind, MetricFn<F>>
where
    F: Fn(&MetricSpec, &MetricContext<'_>) -> Result<MetricOutput, MetricError>
        + Send
        + Sync,
{
    fn needs_reference(&self) -> bool {
        self.build.needs_reference
    }

    fn horizon_invariant(&self) -> bool {
        self.build.horizon_invariant
    }

    fn evaluate(
        &self,
        spec: &MetricSpec,
        ctx: &MetricContext<'_>,
    ) -> Result<MetricOutput, MetricError> {
        spec.deny_unknown_params(self.accepted)?;
        if self.build.needs_reference {
            ctx.require_reference(spec)?;
        }
        (self.build.eval)(spec, ctx)
    }
}

/// Registers a closure-backed built-in (the closure's signature pins the
/// argument types the built-ins leave to inference).
#[allow(clippy::too_many_arguments)]
fn register_fn<F>(
    r: &mut MetricRegistry,
    name: &'static str,
    summary: &'static str,
    accepted: &'static [&'static str],
    conformance: fn() -> Vec<MetricSpec>,
    needs_reference: bool,
    horizon_invariant: bool,
    eval: F,
) where
    F: Fn(&MetricSpec, &MetricContext<'_>) -> Result<MetricOutput, MetricError>
        + Send
        + Sync
        + 'static,
{
    let build = MetricFn { needs_reference, horizon_invariant, eval };
    r.register(Box::new(FnFactory { name, summary, accepted, conformance, build }));
}

fn column(
    spec: &MetricSpec,
    per_org: Vec<MetricValue>,
    aggregate: MetricValue,
) -> MetricOutput {
    MetricOutput::Column(MetricColumn { spec: spec.clone(), per_org, aggregate })
}

fn int_column(spec: &MetricSpec, per_org: Vec<i128>) -> MetricOutput {
    let aggregate = MetricValue::Int(per_org.iter().sum());
    column(spec, per_org.into_iter().map(MetricValue::Int).collect(), aggregate)
}

/// Ranks organizations by a utility vector, best (largest) first, ties
/// broken by organization index. `rank[u]` is the 0-based position of
/// organization `u` in that ordering.
fn ranks_by_desc(values: &[Util]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[b].cmp(&values[a]).then(a.cmp(&b)));
    let mut rank = vec![0usize; values.len()];
    for (pos, &org) in order.iter().enumerate() {
        rank[org] = pos;
    }
    rank
}

impl SpecKind for MetricKind {
    const SPEC_TYPE: &'static str = "MetricSpec";
    type Error = MetricError;
    type Factory = dyn MetricFactory;
    type Ctx<'a> = MetricContext<'a>;
    type Output = MetricOutput;

    fn run(
        factory: &dyn MetricFactory,
        spec: &MetricSpec,
        ctx: &MetricContext<'_>,
    ) -> Result<MetricOutput, MetricError> {
        factory.evaluate(spec, ctx)
    }

    fn shared() -> &'static MetricRegistry {
        static SHARED: std::sync::OnceLock<MetricRegistry> = std::sync::OnceLock::new();
        SHARED.get_or_init(MetricRegistry::default)
    }

    /// The built-in metric families (see the [module docs](self) for the
    /// full table).
    fn builtins(r: &mut MetricRegistry) {
        register_fn(
            r,
            "machines",
            "machines each organization contributes to the pool",
            &[],
            || vec![MetricSpec::bare("machines")],
            false,
            true,
            |spec, ctx| {
                Ok(int_column(
                    spec,
                    ctx.trace.orgs().iter().map(|o| o.n_machines as i128).collect(),
                ))
            },
        );
        register_fn(
            r,
            "completed",
            "jobs completed by the horizon",
            &[],
            || vec![MetricSpec::bare("completed")],
            false,
            true,
            |spec, ctx| {
                let m = org_metrics(ctx.trace, ctx.schedule, ctx.horizon);
                Ok(int_column(spec, m.iter().map(|o| o.completed as i128).collect()))
            },
        );
        register_fn(
            r,
            "flow",
            "total flow time (completion - release) of completed jobs",
            &[],
            || vec![MetricSpec::bare("flow")],
            false,
            true,
            |spec, ctx| {
                let m = org_metrics(ctx.trace, ctx.schedule, ctx.horizon);
                Ok(int_column(spec, m.iter().map(|o| o.flow_time as i128).collect()))
            },
        );
        register_fn(
            r,
            "waiting",
            "total waiting time (start - release) of started jobs",
            &[],
            || vec![MetricSpec::bare("waiting")],
            false,
            true,
            |spec, ctx| {
                let m = org_metrics(ctx.trace, ctx.schedule, ctx.horizon);
                Ok(int_column(spec, m.iter().map(|o| o.waiting_time as i128).collect()))
            },
        );
        register_fn(
            r,
            "units",
            "unit job parts executed before the horizon",
            &[],
            || vec![MetricSpec::bare("units")],
            false,
            true,
            |spec, ctx| {
                let m = org_metrics(ctx.trace, ctx.schedule, ctx.horizon);
                Ok(int_column(spec, m.iter().map(|o| o.units as i128).collect()))
            },
        );
        register_fn(
            r,
            "stretch",
            "mean stretch (flow / processing time) of completed jobs",
            &[],
            || vec![MetricSpec::bare("stretch")],
            false,
            true,
            |spec, ctx| {
                let m = org_metrics(ctx.trace, ctx.schedule, ctx.horizon);
                let per_org: Vec<MetricValue> =
                    m.iter().map(|o| MetricValue::Float(o.mean_stretch)).collect();
                let jobs: usize = m.iter().map(|o| o.completed).sum();
                let aggregate = if jobs == 0 {
                    MetricValue::Float(0.0)
                } else {
                    // Per-org means recombined by completed-job weight:
                    // the overall mean stretch across every completed job.
                    let total: f64 =
                        m.iter().map(|o| o.mean_stretch * o.completed as f64).sum();
                    MetricValue::Float(total / jobs as f64)
                };
                Ok(column(spec, per_org, aggregate))
            },
        );
        register_fn(
            r,
            "utilization",
            "executed units over own machine-time (aggregate: pool utilization)",
            &[],
            || vec![MetricSpec::bare("utilization")],
            false,
            false,
            |spec, ctx| {
                let info = ctx.trace.cluster_info();
                let m = org_metrics(ctx.trace, ctx.schedule, ctx.horizon);
                let per_org: Vec<MetricValue> = m
                    .iter()
                    .map(|o| {
                        let denom = info.machines_of(o.org) as f64 * ctx.horizon as f64;
                        MetricValue::Float(if denom > 0.0 {
                            o.units as f64 / denom
                        } else {
                            0.0
                        })
                    })
                    .collect();
                let aggregate = MetricValue::Float(if ctx.horizon > 0 {
                    ctx.schedule.utilization(info.n_machines(), ctx.horizon)
                } else {
                    0.0
                });
                Ok(column(spec, per_org, aggregate))
            },
        );
        register_fn(
            r,
            "psi",
            "exact strategy-proof utility psi_sp (aggregate: coalition value)",
            &[],
            || vec![MetricSpec::bare("psi")],
            false,
            false,
            |spec, ctx| Ok(int_column(spec, ctx.psi.to_vec())),
        );
        register_fn(
            r,
            "utility",
            "pluggable utility function",
            &["kind"],
            || {
                vec![
                    MetricSpec::bare("utility"),
                    MetricSpec::bare("utility").with("kind", "flowtime"),
                    MetricSpec::bare("utility").with("kind", "contrib"),
                ]
            },
            false,
            false,
            |spec, ctx| {
                let kind = spec.get("kind").unwrap_or("sp");
                let per_org: Vec<f64> = match kind {
                    "sp" => SpUtility.org_values(ctx.trace, ctx.schedule, ctx.horizon),
                    "flowtime" => FlowTime.org_values(ctx.trace, ctx.schedule, ctx.horizon),
                    "makespan" => Makespan.org_values(ctx.trace, ctx.schedule, ctx.horizon),
                    "share" => {
                        ResourceShare.org_values(ctx.trace, ctx.schedule, ctx.horizon)
                    }
                    "tardiness" => {
                        Tardiness.org_values(ctx.trace, ctx.schedule, ctx.horizon)
                    }
                    // Direct contribution: the psi_sp produced on the
                    // machines each organization *owns* (what its hardware
                    // earned the coalition), as opposed to `psi`, which is
                    // what its jobs received.
                    "contrib" => {
                        let info = ctx.trace.cluster_info();
                        let mut acc = vec![0 as Util; ctx.trace.n_orgs()];
                        for e in ctx.schedule.entries() {
                            acc[info.owner(e.machine).index()] +=
                                sp_value(e.start, e.proc_time, ctx.horizon);
                        }
                        acc.into_iter().map(|v| v as f64).collect()
                    }
                    other => {
                        return Err(spec.bad_param(
                            "kind",
                            format!(
                                "unknown utility {other:?} (one of: sp, flowtime, makespan, share, tardiness, contrib)"
                            ),
                        ))
                    }
                };
                let aggregate = MetricValue::Float(per_org.iter().sum());
                Ok(column(
                    spec,
                    per_org.into_iter().map(MetricValue::Float).collect(),
                    aggregate,
                ))
            },
        );
        register_fn(
            r,
            "delay",
            "deviation from the REF reference (aggregate: the paper's delta-psi/p_tot)",
            &["norm"],
            || {
                vec![
                    MetricSpec::bare("delay"),
                    MetricSpec::bare("delay").with("norm", "none"),
                    MetricSpec::bare("delay").with("norm", "ideal"),
                ]
            },
            true,
            false,
            |spec, ctx| {
                let reference = ctx.require_reference(spec)?;
                let devs: Vec<Util> = ctx
                    .psi
                    .iter()
                    .zip(reference.psi)
                    .map(|(psi, psi_ref)| psi - psi_ref)
                    .collect();
                let delta_psi: Util = devs.iter().map(|d| d.abs()).sum();
                match spec.get("norm").unwrap_or("ptot") {
                    // The paper's headline number: the average unjustified
                    // delay (or speed-up) of a job unit. Computed exactly
                    // as `FairnessReport::unfairness` for bit-identity
                    // with the historical tables.
                    "ptot" => {
                        let p_tot = reference.schedule.completed_units(ctx.horizon);
                        let scale = |v: Util| {
                            MetricValue::Float(if p_tot == 0 {
                                0.0
                            } else {
                                v as f64 / p_tot as f64
                            })
                        };
                        let aggregate = scale(delta_psi);
                        Ok(column(spec, devs.into_iter().map(scale).collect(), aggregate))
                    }
                    // Raw integer deviations (signed per organization,
                    // Manhattan distance aggregate).
                    "none" => Ok(column(
                        spec,
                        devs.iter().map(|&d| MetricValue::Int(d)).collect(),
                        MetricValue::Int(delta_psi),
                    )),
                    // Relative to the ideal: each organization's deviation
                    // as a fraction of its reference utility.
                    "ideal" => {
                        let per_org: Vec<MetricValue> = devs
                            .iter()
                            .zip(reference.psi)
                            .map(|(&d, &ideal)| {
                                MetricValue::Float(if ideal == 0 {
                                    0.0
                                } else {
                                    d as f64 / ideal as f64
                                })
                            })
                            .collect();
                        let total_ideal: Util =
                            reference.psi.iter().map(|v| v.abs()).sum();
                        let aggregate = MetricValue::Float(if total_ideal == 0 {
                            0.0
                        } else {
                            delta_psi as f64 / total_ideal as f64
                        });
                        Ok(column(spec, per_org, aggregate))
                    }
                    other => Err(spec.bad_param(
                        "norm",
                        format!("unknown norm {other:?} (one of: ptot, none, ideal)"),
                    )),
                }
            },
        );
        register_fn(
            r,
            "ranking",
            "rank shift vs the REF ordering (aggregate: Kendall-tau distance)",
            &[],
            || vec![MetricSpec::bare("ranking")],
            true,
            false,
            |spec, ctx| {
                let reference = ctx.require_reference(spec)?;
                let rank_eval = ranks_by_desc(ctx.psi);
                let rank_ref = ranks_by_desc(reference.psi);
                let per_org: Vec<MetricValue> = rank_ref
                    .iter()
                    .zip(&rank_eval)
                    // Positive = the organization moved up (was favored)
                    // relative to its fair position.
                    .map(|(&r, &e)| MetricValue::Int(r as i128 - e as i128))
                    .collect();
                let k = ctx.psi.len();
                let mut discordant = 0usize;
                for u in 0..k {
                    for v in (u + 1)..k {
                        let eval_says = rank_eval[u] < rank_eval[v];
                        let ref_says = rank_ref[u] < rank_ref[v];
                        if eval_says != ref_says {
                            discordant += 1;
                        }
                    }
                }
                let pairs = k * (k.saturating_sub(1)) / 2;
                let aggregate = MetricValue::Float(if pairs == 0 {
                    0.0
                } else {
                    discordant as f64 / pairs as f64
                });
                Ok(column(spec, per_org, aggregate))
            },
        );
        register_fn(
            r,
            "timeline",
            "fairness trajectory vs REF per sample time (Definition 3.1)",
            &["samples", "stat"],
            || {
                vec![
                    MetricSpec::bare("timeline"),
                    MetricSpec::bare("timeline").with("samples", 16),
                    MetricSpec::bare("timeline")
                        .with("samples", 8)
                        .with("stat", "delta_psi"),
                    MetricSpec::bare("timeline").with("stat", "ptot"),
                ]
            },
            true,
            false,
            |spec, ctx| {
                let reference = ctx.require_reference(spec)?;
                // A zero sample count would trip the core grid's contract
                // panic; spec-addressed evaluation stays typed end to end.
                let samples: usize = spec.parsed("samples", DEFAULT_TIMELINE_SAMPLES)?;
                if samples == 0 {
                    return Err(spec.bad_param("samples", "must be at least 1"));
                }
                // Spec strings are untrusted experiment input: a huge
                // count would make every series row `samples` values long
                // (a horizon-scale allocation per organization), so cap
                // the grid at the factory boundary with a typed error.
                if samples > MAX_TIMELINE_SAMPLES {
                    return Err(spec.bad_param(
                        "samples",
                        format!("at most {MAX_TIMELINE_SAMPLES} samples per timeline"),
                    ));
                }
                // Parse the stat into a closed enum up front so the
                // per-sample dispatch below is exhaustive — bad values are
                // a typed error here, not an unreachable arm later.
                #[derive(Copy, Clone, PartialEq)]
                enum Stat {
                    Unfairness,
                    DeltaPsi,
                    Ptot,
                }
                let stat = match spec.get("stat").unwrap_or("unfairness") {
                    "unfairness" => Stat::Unfairness,
                    "delta_psi" => Stat::DeltaPsi,
                    "ptot" => Stat::Ptot,
                    other => {
                        return Err(spec.bad_param(
                            "stat",
                            format!(
                                "unknown stat {other:?} (one of: unfairness, delta_psi, ptot)"
                            ),
                        ))
                    }
                };
                let times = timeline_sample_times(ctx.horizon, samples);
                // One streaming pass per schedule: O(entries + samples·orgs),
                // bit-identical to a per-sample sp_vector recompute. The
                // ptot stat reads only the reference, so the evaluated
                // schedule is swept only when a ψ comparison needs it.
                let refs = schedule_series(ctx.trace, reference.schedule, &times);
                let eval = (stat != Stat::Ptot)
                    .then(|| schedule_series(ctx.trace, ctx.schedule, &times));
                let n = ctx.trace.n_orgs();
                // (Vec::clone drops reserved capacity, so reserve per row.)
                let mut per_org: Vec<Vec<MetricValue>> =
                    (0..n).map(|_| Vec::with_capacity(times.len())).collect();
                let mut aggregate = Vec::with_capacity(times.len());
                let mut devs: Vec<Util> = Vec::with_capacity(n);
                for i in 0..times.len() {
                    let p_tot: Time = refs.units[i].iter().sum();
                    // Deviations only matter to the ψ-comparing stats.
                    let delta_psi: Util = match &eval {
                        None => 0,
                        Some(eval) => {
                            devs.clear();
                            devs.extend((0..n).map(|u| eval.psi[i][u] - refs.psi[i][u]));
                            devs.iter().map(|d| d.abs()).sum()
                        }
                    };
                    match stat {
                        // The paper's headline ratio, per moment: the
                        // same arithmetic as `FairnessReport::unfairness`
                        // (and `delay:norm=ptot`), so the final point is
                        // bit-identical to the endpoint metrics.
                        Stat::Unfairness => {
                            let scale = |v: Util| {
                                MetricValue::Float(if p_tot == 0 {
                                    0.0
                                } else {
                                    v as f64 / p_tot as f64
                                })
                            };
                            for (u, &d) in devs.iter().enumerate() {
                                per_org[u].push(scale(d));
                            }
                            aggregate.push(scale(delta_psi));
                        }
                        // Raw signed deviations + Manhattan distance.
                        Stat::DeltaPsi => {
                            for (u, &d) in devs.iter().enumerate() {
                                per_org[u].push(MetricValue::Int(d));
                            }
                            aggregate.push(MetricValue::Int(delta_psi));
                        }
                        // Reference throughput: unit parts completed in
                        // the REF schedule, per organization and total.
                        Stat::Ptot => {
                            for (row, &units) in per_org.iter_mut().zip(&refs.units[i]) {
                                row.push(MetricValue::Int(units as i128));
                            }
                            aggregate.push(MetricValue::Int(p_tot as i128));
                        }
                    }
                }
                Ok(MetricOutput::Series(TimeSeriesColumn {
                    spec: spec.clone(),
                    times,
                    per_org,
                    aggregate,
                }))
            },
        );
    }
}

/// The sample count the `timeline` metric family uses when the spec
/// carries no `samples` parameter.
pub const DEFAULT_TIMELINE_SAMPLES: usize = 64;

/// The largest sample count the `timeline` family accepts. Every emitted
/// point costs one value per organization in the report (and its sinks),
/// so an unbounded spec-supplied count would turn one metric string into
/// a multi-gigabyte allocation; requests above this fail with a typed
/// [`MetricError::BadParam`].
pub const MAX_TIMELINE_SAMPLES: usize = 1 << 20;

/// A typed measurement report: one run, measured by a list of metric
/// specs. The canonical spec strings ride along for provenance, so any
/// sink output is self-describing.
#[derive(Clone, Debug)]
pub struct Report {
    /// The evaluated scheduler's display name.
    pub scheduler: String,
    /// The scheduler registry spec, when the run was spec-addressed.
    pub scheduler_spec: Option<SchedulerSpec>,
    /// The workload registry spec, when the trace was spec-addressed.
    pub workload_spec: Option<WorkloadSpec>,
    /// The evaluation horizon.
    pub horizon: Time,
    /// The seed the run used.
    pub seed: u64,
    /// Organization names, in trace order.
    pub orgs: Vec<String>,
    /// The evaluated scalar columns, in request order among themselves.
    pub columns: Vec<MetricColumn>,
    /// The evaluated time-series columns (the `timeline` family), in
    /// request order among themselves.
    pub series: Vec<TimeSeriesColumn>,
}

impl Report {
    /// Evaluates `specs` over a finished run (plus the REF reference run,
    /// for metrics that compare against it). Provenance fields
    /// (`scheduler_spec`, `workload_spec`, `seed`) start empty; the
    /// `Simulation` session fills them in.
    pub fn evaluate(
        registry: &MetricRegistry,
        specs: &[MetricSpec],
        trace: &Trace,
        result: &SimResult,
        reference: Option<&SimResult>,
    ) -> Result<Report, MetricError> {
        let mut ctx = MetricContext::from_result(trace, result);
        if let Some(reference) = reference {
            ctx = ctx.with_reference(reference);
        }
        let mut columns = Vec::new();
        let mut series = Vec::new();
        for spec in specs {
            match registry.build(spec, &ctx)? {
                MetricOutput::Column(c) => columns.push(c),
                MetricOutput::Series(s) => series.push(s),
            }
        }
        Ok(Report {
            scheduler: result.scheduler.clone(),
            scheduler_spec: None,
            workload_spec: None,
            horizon: result.horizon,
            seed: 0,
            orgs: trace.orgs().iter().map(|o| o.name.clone()).collect(),
            columns,
            series,
        })
    }

    /// The canonical spec strings of the evaluated columns (the
    /// provenance every sink carries): scalar columns first, then
    /// time-series columns, each group in request order.
    pub fn metric_specs(&self) -> Vec<String> {
        self.columns
            .iter()
            .map(|c| c.spec.to_string())
            .chain(self.series.iter().map(|s| s.spec.to_string()))
            .collect()
    }

    /// The scalar column evaluated for `spec` (by canonical string
    /// equality).
    pub fn column(&self, spec: &str) -> Option<&MetricColumn> {
        let wanted: MetricSpec = spec.parse().ok()?;
        self.columns.iter().find(|c| c.spec == wanted)
    }

    /// The time-series column evaluated for `spec` (by canonical string
    /// equality).
    pub fn time_series(&self, spec: &str) -> Option<&TimeSeriesColumn> {
        let wanted: MetricSpec = spec.parse().ok()?;
        self.series.iter().find(|s| s.spec == wanted)
    }

    /// The report as a JSON value tree (see [`Report::to_json`] for the
    /// schema).
    pub fn to_json_value(&self) -> serde::Value {
        use serde::Value;
        let spec_strings = self.metric_specs();
        let orgs: Vec<Value> = self
            .orgs
            .iter()
            .enumerate()
            .map(|(u, name)| {
                Value::Object(vec![
                    ("name".to_string(), Value::String(name.clone())),
                    (
                        "metrics".to_string(),
                        Value::Object(
                            self.columns
                                .iter()
                                .zip(&spec_strings)
                                .map(|(c, s)| {
                                    (s.clone(), serde::Serialize::to_value(&c.per_org[u]))
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let aggregates = Value::Object(
            self.columns
                .iter()
                .zip(&spec_strings)
                .map(|(c, s)| (s.clone(), serde::Serialize::to_value(&c.aggregate)))
                .collect(),
        );
        let opt_spec = |s: &Option<String>| match s {
            Some(s) => Value::String(s.clone()),
            None => Value::Null,
        };
        let mut fields = vec![
            ("scheduler".to_string(), Value::String(self.scheduler.clone())),
            (
                "scheduler_spec".to_string(),
                opt_spec(&self.scheduler_spec.as_ref().map(|s| s.to_string())),
            ),
            (
                "workload_spec".to_string(),
                opt_spec(&self.workload_spec.as_ref().map(|s| s.to_string())),
            ),
            ("horizon".to_string(), Value::Number(self.horizon.to_string())),
            ("seed".to_string(), Value::Number(self.seed.to_string())),
            (
                "metric_specs".to_string(),
                Value::Array(spec_strings.iter().cloned().map(Value::String).collect()),
            ),
            ("orgs".to_string(), Value::Array(orgs)),
            ("aggregates".to_string(), aggregates),
        ];
        // The time axis, present only when a series metric was evaluated
        // (so scalar-only reports keep their historical schema byte for
        // byte): per series, the sample times, per-organization value
        // rows, and the aggregate trajectory — all exact round-trippable
        // numbers.
        if !self.series.is_empty() {
            let values = |vs: &[MetricValue]| {
                Value::Array(vs.iter().map(serde::Serialize::to_value).collect())
            };
            let series: Vec<Value> = self
                .series
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("spec".to_string(), Value::String(s.spec.to_string())),
                        (
                            "times".to_string(),
                            Value::Array(
                                s.times
                                    .iter()
                                    .map(|t| Value::Number(t.to_string()))
                                    .collect(),
                            ),
                        ),
                        (
                            "orgs".to_string(),
                            Value::Array(
                                self.orgs
                                    .iter()
                                    .zip(&s.per_org)
                                    .map(|(name, vs)| {
                                        Value::Object(vec![
                                            (
                                                "name".to_string(),
                                                Value::String(name.clone()),
                                            ),
                                            ("values".to_string(), values(vs)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        ("aggregate".to_string(), values(&s.aggregate)),
                    ])
                })
                .collect();
            fields.push(("series".to_string(), Value::Array(series)));
        }
        Value::Object(fields)
    }

    /// Parses a report back from its [`Report::to_json_value`] tree — the
    /// inverse of the JSON sink, used by the durable experiment runner to
    /// rebuild typed reports from committed cell files. Numbers are
    /// classified by their literal text: integer literals become
    /// [`MetricValue::Int`]; literals carrying a `.` or an exponent
    /// (every finite float the sink emits has one) become
    /// [`MetricValue::Float`]; and `null` — the sink's encoding for
    /// non-finite floats — becomes `Float(NAN)`. For any report, feeding
    /// `to_json_value` output back through here reproduces every sink
    /// output (`to_json`, `to_csv`, `render_table`) byte for byte.
    pub fn from_json_value(v: &serde::Value) -> Result<Report, serde::DeError> {
        use serde::{DeError, Value};
        fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, DeError> {
            v.get(key).ok_or_else(|| DeError(format!("report JSON is missing {key:?}")))
        }
        fn string(v: &Value, what: &str) -> Result<String, DeError> {
            match v {
                Value::String(s) => Ok(s.clone()),
                _ => Err(DeError::expected("string", what)),
            }
        }
        fn number<T: FromStr>(v: &Value, what: &str) -> Result<T, DeError> {
            match v {
                Value::Number(text) => text
                    .parse()
                    .map_err(|_| DeError(format!("bad number {text:?} for {what}"))),
                _ => Err(DeError::expected("number", what)),
            }
        }
        fn metric_value(v: &Value, what: &str) -> Result<MetricValue, DeError> {
            match v {
                Value::Number(text) if text.contains(['.', 'e', 'E']) => text
                    .parse::<f64>()
                    .map(MetricValue::Float)
                    .map_err(|_| DeError(format!("bad float {text:?} for {what}"))),
                Value::Number(text) => text
                    .parse::<i128>()
                    .map(MetricValue::Int)
                    .map_err(|_| DeError(format!("bad integer {text:?} for {what}"))),
                // The sink writes non-finite floats as null.
                Value::Null => Ok(MetricValue::Float(f64::NAN)),
                _ => Err(DeError::expected("number or null", what)),
            }
        }

        let scheduler = string(field(v, "scheduler")?, "scheduler")?;
        let opt_spec = |key: &str| -> Result<Option<String>, DeError> {
            match field(v, key)? {
                Value::Null => Ok(None),
                other => string(other, key).map(Some),
            }
        };
        let scheduler_spec = opt_spec("scheduler_spec")?
            .map(|s| {
                s.parse::<SchedulerSpec>()
                    .map_err(|e| DeError(format!("bad scheduler_spec: {e}")))
            })
            .transpose()?;
        let workload_spec = opt_spec("workload_spec")?
            .map(|s| {
                s.parse::<WorkloadSpec>()
                    .map_err(|e| DeError(format!("bad workload_spec: {e}")))
            })
            .transpose()?;
        let horizon: Time = number(field(v, "horizon")?, "horizon")?;
        let seed: u64 = number(field(v, "seed")?, "seed")?;

        let Value::Array(org_entries) = field(v, "orgs")? else {
            return Err(DeError::expected("array", "orgs"));
        };
        let mut orgs = Vec::with_capacity(org_entries.len());
        for entry in org_entries {
            orgs.push(string(field(entry, "name")?, "org name")?);
        }

        // Series first: the scalar pass below needs to know which of the
        // `metric_specs` entries are time-series columns.
        let mut series = Vec::new();
        if let Some(series_value) = v.get("series") {
            let Value::Array(entries) = series_value else {
                return Err(DeError::expected("array", "series"));
            };
            for entry in entries {
                let spec_text = string(field(entry, "spec")?, "series spec")?;
                let spec: MetricSpec = spec_text
                    .parse()
                    .map_err(|e: MetricError| DeError(format!("bad series spec: {e}")))?;
                let Value::Array(time_values) = field(entry, "times")? else {
                    return Err(DeError::expected("array", "series times"));
                };
                let times = time_values
                    .iter()
                    .map(|t| number::<Time>(t, "series time"))
                    .collect::<Result<Vec<_>, _>>()?;
                let Value::Array(series_orgs) = field(entry, "orgs")? else {
                    return Err(DeError::expected("array", "series orgs"));
                };
                if series_orgs.len() != orgs.len() {
                    return Err(DeError(format!(
                        "series {spec_text:?} has {} org rows for {} orgs",
                        series_orgs.len(),
                        orgs.len()
                    )));
                }
                let mut per_org = Vec::with_capacity(series_orgs.len());
                for row in series_orgs {
                    let Value::Array(vals) = field(row, "values")? else {
                        return Err(DeError::expected("array", "series values"));
                    };
                    per_org.push(
                        vals.iter()
                            .map(|x| metric_value(x, "series value"))
                            .collect::<Result<Vec<_>, _>>()?,
                    );
                }
                let Value::Array(agg) = field(entry, "aggregate")? else {
                    return Err(DeError::expected("array", "series aggregate"));
                };
                let aggregate = agg
                    .iter()
                    .map(|x| metric_value(x, "series aggregate"))
                    .collect::<Result<Vec<_>, _>>()?;
                series.push(TimeSeriesColumn { spec, times, per_org, aggregate });
            }
        }

        let Value::Array(spec_values) = field(v, "metric_specs")? else {
            return Err(DeError::expected("array", "metric_specs"));
        };
        let aggregates = field(v, "aggregates")?;
        let mut columns = Vec::new();
        for sv in spec_values {
            let text = string(sv, "metric spec")?;
            if series.iter().any(|s| s.spec.to_string() == text) {
                continue;
            }
            let spec: MetricSpec = text
                .parse()
                .map_err(|e: MetricError| DeError(format!("bad metric spec: {e}")))?;
            let mut per_org = Vec::with_capacity(orgs.len());
            for entry in org_entries {
                let metrics = field(entry, "metrics")?;
                let value = metrics
                    .get(&text)
                    .ok_or_else(|| DeError(format!("org is missing metric {text:?}")))?;
                per_org.push(metric_value(value, "metric value")?);
            }
            let aggregate = metric_value(
                aggregates
                    .get(&text)
                    .ok_or_else(|| DeError(format!("aggregates is missing {text:?}")))?,
                "aggregate",
            )?;
            columns.push(MetricColumn { spec, per_org, aggregate });
        }
        Ok(Report {
            scheduler,
            scheduler_spec,
            workload_spec,
            horizon,
            seed,
            orgs,
            columns,
            series,
        })
    }

    /// Machine-readable JSON: run provenance (`scheduler`,
    /// `scheduler_spec`, `workload_spec`, `horizon`, `seed`), the
    /// canonical `metric_specs`, per-organization `metrics` objects keyed
    /// by those same canonical strings, and the cluster-wide
    /// `aggregates`. All numbers are exact and round-trippable (integers
    /// verbatim, floats in shortest-round-trip form).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json_pretty()
    }

    /// CSV: one `org` row per organization plus an `(all)` aggregate
    /// row; columns are the canonical metric specs. Values use the exact
    /// [`MetricValue::render`] form; fields containing commas or quotes
    /// are double-quoted.
    ///
    /// Each time-series column follows as its own block after a blank
    /// line: the header's first cell is the canonical series spec (where
    /// the scalar block says `org`, this block says which series the `t`
    /// column belongs to), then one column per organization plus `(all)`,
    /// and one row per sample time — exact values throughout.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        // A series-only report has no scalar values to tabulate; skip the
        // degenerate name-only block and emit the series directly.
        let series_only = self.columns.is_empty() && !self.series.is_empty();
        if !series_only {
            out.push_str("org");
            for c in &self.columns {
                out.push(',');
                out.push_str(&csv_field(&c.spec.to_string()));
            }
            out.push('\n');
            for (u, name) in self.orgs.iter().enumerate() {
                out.push_str(&csv_field(name));
                for c in &self.columns {
                    out.push(',');
                    out.push_str(&c.per_org[u].render());
                }
                out.push('\n');
            }
            out.push_str("(all)");
            for c in &self.columns {
                out.push(',');
                out.push_str(&c.aggregate.render());
            }
            out.push('\n');
        }
        for s in &self.series {
            if !series_only || !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&csv_field(&s.spec.to_string()));
            for name in &self.orgs {
                out.push(',');
                out.push_str(&csv_field(name));
            }
            out.push_str(",(all)\n");
            for (i, t) in s.times.iter().enumerate() {
                out.push_str(&t.to_string());
                for vs in &s.per_org {
                    out.push(',');
                    out.push_str(&vs[i].render());
                }
                out.push(',');
                out.push_str(&s.aggregate[i].render());
                out.push('\n');
            }
        }
        out
    }

    /// A human-oriented aligned table: one row per organization plus the
    /// `(all)` aggregate row, floats at the paper's ~3 significant
    /// digits. Each time-series column follows as its own titled table
    /// (one row per sample time).
    pub fn render_table(&self) -> String {
        let specs: Vec<String> =
            self.columns.iter().map(|c| c.spec.to_string()).collect();
        let org_w = self
            .orgs
            .iter()
            .map(String::len)
            .chain([8, "(all)".len()])
            .max()
            .unwrap_or(8)
            + 2;
        let widths: Vec<usize> = self
            .columns
            .iter()
            .zip(&specs)
            .map(|(c, s)| {
                c.per_org
                    .iter()
                    .chain([&c.aggregate])
                    .map(|v| v.render_sig().len())
                    .chain([s.len()])
                    .max()
                    .unwrap_or(6)
                    + 2
            })
            .collect();
        let mut out = String::new();
        // A series-only report has no scalar values to tabulate; skip the
        // degenerate name-only table and render the series directly.
        let series_only = self.columns.is_empty() && !self.series.is_empty();
        if !series_only {
            out.push_str(&format!("{:<org_w$}", "org"));
            for (s, w) in specs.iter().zip(&widths) {
                out.push_str(&format!("{s:>w$}", w = w));
            }
            out.push('\n');
            for (u, name) in self.orgs.iter().enumerate() {
                out.push_str(&format!("{name:<org_w$}"));
                for (c, w) in self.columns.iter().zip(&widths) {
                    out.push_str(&format!("{:>w$}", c.per_org[u].render_sig(), w = w));
                }
                out.push('\n');
            }
            out.push_str(&format!("{:<org_w$}", "(all)"));
            for (c, w) in self.columns.iter().zip(&widths) {
                out.push_str(&format!("{:>w$}", c.aggregate.render_sig(), w = w));
            }
            out.push('\n');
        }
        for s in &self.series {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&format!("{}:\n", s.spec));
            let columns: Vec<Vec<String>> = s
                .per_org
                .iter()
                .chain([&s.aggregate])
                .map(|vs| vs.iter().map(MetricValue::render_sig).collect())
                .collect();
            let labels: Vec<&str> =
                self.orgs.iter().map(String::as_str).chain(["(all)"]).collect();
            out.push_str(&render_time_table(&s.times, &labels, &columns));
        }
        out
    }
}

/// Renders an aligned time table: a left-justified `t` column plus one
/// right-justified labeled column per value series (cells pre-rendered;
/// `columns[c][i]` belongs to `labels[c]` at `times[i]`): the layout of
/// [`Report::render_table`]'s series blocks.
pub(crate) fn render_time_table(
    times: &[Time],
    labels: &[&str],
    columns: &[Vec<String>],
) -> String {
    let t_w =
        times.iter().map(|t| t.to_string().len()).chain(["t".len()]).max().unwrap_or(1)
            + 2;
    let widths: Vec<usize> = columns
        .iter()
        .zip(labels)
        .map(|(vals, label)| {
            vals.iter().map(String::len).chain([label.len()]).max().unwrap_or(6) + 2
        })
        .collect();
    let mut out = String::new();
    out.push_str(&format!("{:<t_w$}", "t"));
    for (label, w) in labels.iter().zip(&widths) {
        out.push_str(&format!("{label:>w$}", w = w));
    }
    out.push('\n');
    for (i, t) in times.iter().enumerate() {
        out.push_str(&format!("{t:<t_w$}"));
        for (vals, w) in columns.iter().zip(&widths) {
            out.push_str(&format!("{:>w$}", vals[i], w = w));
        }
        out.push('\n');
    }
    out
}

/// Quotes a CSV field when it contains a delimiter, quote, or newline
/// (RFC 4180 style), so canonical spec strings — which legitimately
/// contain commas — survive the CSV sinks verbatim. Public so every CSV
/// sink in the workspace (the experiment runner's included) shares the
/// one quoting rule.
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Formats with 3 significant-ish digits like the paper's tables (e.g.
/// `238`, `0.014`, `2839`). Presentation only — machine outputs (JSON,
/// CSV) always carry exact round-trippable values.
pub(crate) fn format_sig(v: f64) -> String {
    if v < 0.0 {
        format!("-{}", format_sig(-v))
    } else if v == 0.0 {
        "0".to_string()
    } else if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Mean/sd aggregation of one labelled value series — the per-scheduler
/// cell statistic of the paper's Tables 1–2, built by the experiment
/// runner's summary sinks.
#[derive(Clone, Debug, Serialize)]
pub struct LabeledStat {
    /// Row label (algorithm name or spec).
    pub label: String,
    /// Mean over the series.
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than two values).
    pub sd: f64,
    /// The raw per-instance values.
    pub values: Vec<f64>,
}

impl LabeledStat {
    /// Aggregates a value series (mean + sample sd).
    pub fn from_values(label: String, values: Vec<f64>) -> LabeledStat {
        let n = values.len().max(1) as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = if values.len() > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        LabeledStat { label, mean, sd: var.sqrt(), values }
    }
}

/// A Table-1-style summary grid: one row per scheduler, one (avg, sd)
/// column pair per workload, each cell aggregating one metric over many
/// instances (the experiment runner's `summary.{json,csv,txt}`).
/// [`SummaryTable::render`] is presentational
/// (`format_sig`), [`SummaryTable::to_json`] and
/// [`SummaryTable::to_csv`] carry exact round-trippable floats.
#[derive(Clone, Debug, Serialize)]
pub struct SummaryTable {
    /// Table title.
    pub title: String,
    /// Canonical spec of the metric the cells aggregate.
    pub metric: String,
    /// Column (workload) labels.
    pub columns: Vec<String>,
    /// `cells[c]` = per-algorithm stats for column `c`.
    pub cells: Vec<Vec<LabeledStat>>,
}

impl SummaryTable {
    /// Renders the paper-style table (3 significant digits; see
    /// [`SummaryTable::to_json`] for exact values).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.title));
        let n_algos = self.cells.first().map_or(0, |c| c.len());
        // Columns widen to fit long labels (canonical workload and
        // scheduler spec strings), so headers never run together.
        let algo_w =
            (0..n_algos).map(|a| self.cells[0][a].label.len() + 2).fold(16, usize::max);
        let col_w = 11;
        let avg_w: Vec<usize> =
            self.columns.iter().map(|c| (c.len() + 2).max(2 * col_w) - col_w).collect();
        out.push_str(&format!("{:<algo_w$}", ""));
        for (c, w) in self.columns.iter().zip(&avg_w) {
            out.push_str(&format!("{:>width$}", c, width = w + col_w));
        }
        out.push('\n');
        out.push_str(&format!("{:<algo_w$}", "algorithm"));
        for w in &avg_w {
            out.push_str(&format!("{:>w$}{:>col_w$}", "Avg", "St.dev"));
        }
        out.push('\n');
        for a in 0..n_algos {
            out.push_str(&format!("{:<algo_w$}", self.cells[0][a].label));
            for (c, w) in avg_w.iter().enumerate() {
                let s = &self.cells[c][a];
                out.push_str(&format!(
                    "{:>w$}{:>col_w$}",
                    format_sig(s.mean),
                    format_sig(s.sd)
                ));
            }
            out.push('\n');
        }
        out
    }

    /// Machine-readable JSON with exact, round-trippable floats (no
    /// `format_sig` truncation — the fix for the historical
    /// render-vs-JSON drift).
    pub fn to_json(&self) -> String {
        self.to_value().to_json_pretty()
    }

    /// CSV: one row per algorithm, `avg`/`sd` column pair per workload
    /// column, exact values. Labels containing commas (canonical
    /// multi-parameter workload specs) are CSV-quoted, not rewritten.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("algorithm");
        for c in &self.columns {
            out.push_str(&format!(
                ",{},{}",
                csv_field(&format!("{c} avg")),
                csv_field(&format!("{c} sd"))
            ));
        }
        out.push('\n');
        let n_algos = self.cells.first().map_or(0, |c| c.len());
        for a in 0..n_algos {
            out.push_str(&csv_field(&self.cells[0][a].label));
            for c in 0..self.columns.len() {
                let s = &self.cells[c][a];
                out.push_str(&format!(",{:?},{:?}", s.mean, s.sd));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;
    use fairsched_core::fairness::FairnessReport;

    fn small_trace() -> Trace {
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        let c = b.org("b", 2);
        b.job(a, 0, 3).job(c, 0, 2).job(a, 2, 1).job(c, 4, 4);
        b.build().unwrap()
    }

    fn run(trace: &Trace, scheduler: &str, horizon: Time) -> SimResult {
        Simulation::new(trace)
            .scheduler(scheduler)
            .unwrap()
            .horizon(horizon)
            .seed(3)
            .run()
            .unwrap()
    }

    #[test]
    fn registry_errors_are_typed() {
        let registry = MetricRegistry::default();
        let trace = small_trace();
        let result = run(&trace, "fifo", 50);
        let ctx = MetricContext::from_result(&trace, &result);
        assert_eq!("".parse::<MetricSpec>(), Err(MetricError::Empty));
        let err = "delay:".parse::<MetricSpec>().unwrap_err();
        assert!(matches!(err, MetricError::BadSyntax { .. }));
        assert!(err.to_string().starts_with("malformed metric spec \"delay:\""), "{err}");
        assert!(matches!(
            registry.build(&"nonesuch".parse().unwrap(), &ctx),
            Err(MetricError::UnknownMetric { .. })
        ));
        assert!(matches!(
            registry.build(&"psi:warp=9".parse().unwrap(), &ctx),
            Err(MetricError::UnknownParam { .. })
        ));
        assert!(matches!(
            registry.build(&"utility:kind=vibes".parse().unwrap(), &ctx),
            Err(MetricError::BadParam { .. })
        ));
        assert!(matches!(
            registry.build(&"delay".parse().unwrap(), &ctx),
            Err(MetricError::NeedsReference { .. })
        ));
        assert!(matches!(
            registry.build(&"delay:norm=sideways".parse().unwrap(), &ctx),
            Err(MetricError::NeedsReference { .. }) | Err(MetricError::BadParam { .. })
        ));
    }

    #[test]
    fn counting_metrics_match_org_metrics_bit_for_bit() {
        let trace = small_trace();
        let result = run(&trace, "roundrobin", 40);
        let ctx = MetricContext::from_result(&trace, &result);
        let registry = MetricRegistry::default();
        let m = org_metrics(&trace, &result.schedule, 40);
        let col = |name: &str| {
            registry
                .build(&name.parse().unwrap(), &ctx)
                .unwrap()
                .into_column()
                .unwrap()
                .per_org
        };
        for (u, om) in m.iter().enumerate() {
            assert_eq!(col("completed")[u], MetricValue::Int(om.completed as i128));
            assert_eq!(col("flow")[u], MetricValue::Int(om.flow_time as i128));
            assert_eq!(col("waiting")[u], MetricValue::Int(om.waiting_time as i128));
            assert_eq!(col("units")[u], MetricValue::Int(om.units as i128));
            match col("stretch")[u] {
                MetricValue::Float(v) => {
                    assert_eq!(v.to_bits(), om.mean_stretch.to_bits())
                }
                other => panic!("stretch must be a float, got {other:?}"),
            }
        }
        assert_eq!(
            col("psi"),
            result.psi.iter().map(|&p| MetricValue::Int(p)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn delay_default_matches_fairness_report_bit_for_bit() {
        let trace = small_trace();
        let horizon = 40;
        let eval = run(&trace, "fifo", horizon);
        let reference = run(&trace, "ref", horizon);
        let ctx = MetricContext::from_result(&trace, &eval).with_reference(&reference);
        let col = MetricRegistry::shared()
            .build(&"delay".parse().unwrap(), &ctx)
            .unwrap()
            .into_column()
            .unwrap();
        let old = FairnessReport::from_schedules(
            &trace,
            &eval.schedule,
            &reference.schedule,
            horizon,
        );
        match col.aggregate {
            MetricValue::Float(v) => {
                assert_eq!(v.to_bits(), old.unfairness().to_bits())
            }
            other => panic!("delay aggregate must be a float, got {other:?}"),
        }
        // norm=none carries the signed integer deviations.
        let raw = MetricRegistry::shared()
            .build(&"delay:norm=none".parse().unwrap(), &ctx)
            .unwrap()
            .into_column()
            .unwrap();
        for (u, o) in old.per_org.iter().enumerate() {
            assert_eq!(raw.per_org[u], MetricValue::Int(o.deviation()));
        }
        assert_eq!(raw.aggregate, MetricValue::Int(old.delta_psi));
    }

    #[test]
    fn ranking_is_zero_against_itself_and_detects_swaps() {
        let trace = small_trace();
        let result = run(&trace, "ref", 40);
        let ctx = MetricContext::from_result(&trace, &result).with_reference(&result);
        let col = MetricRegistry::shared()
            .build(&"ranking".parse().unwrap(), &ctx)
            .unwrap()
            .into_column()
            .unwrap();
        assert_eq!(col.aggregate, MetricValue::Float(0.0));
        assert!(col.per_org.iter().all(|v| *v == MetricValue::Int(0)));
        // A fabricated reference with the opposite ordering flips every
        // pair.
        let mut swapped = result.clone();
        swapped.psi.reverse();
        let ctx2 = MetricContext::from_result(&trace, &result).with_reference(&swapped);
        let col2 = MetricRegistry::shared()
            .build(&"ranking".parse().unwrap(), &ctx2)
            .unwrap()
            .into_column()
            .unwrap();
        match col2.aggregate {
            MetricValue::Float(v) => assert!(v > 0.0, "swapped ranking must differ"),
            other => panic!("ranking aggregate must be a float, got {other:?}"),
        }
    }

    #[test]
    fn utility_contrib_attributes_value_to_machine_owners() {
        let trace = small_trace();
        let result = run(&trace, "fifo", 50);
        let ctx = MetricContext::from_result(&trace, &result);
        let col = MetricRegistry::shared()
            .build(&"utility:kind=contrib".parse().unwrap(), &ctx)
            .unwrap()
            .into_column()
            .unwrap();
        // Total contribution equals the coalition value.
        let total: f64 = col.per_org.iter().map(MetricValue::as_f64).sum();
        assert_eq!(total, result.coalition_value() as f64);
    }

    #[test]
    fn report_sinks_are_consistent_and_round_trippable() {
        let trace = small_trace();
        let result = run(&trace, "fairshare", 40);
        let reference = run(&trace, "ref", 40);
        let specs: Vec<MetricSpec> = ["machines", "completed", "psi", "delay"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let report = Report::evaluate(
            MetricRegistry::shared(),
            &specs,
            &trace,
            &result,
            Some(&reference),
        )
        .unwrap();
        assert_eq!(report.metric_specs(), ["machines", "completed", "psi", "delay"]);
        assert_eq!(report.orgs, ["a", "b"]);

        // JSON: parse back and compare the delay aggregate bit for bit.
        let json = report.to_json();
        let v = serde_json::parse_value(&json).unwrap();
        let aggregates = v.get("aggregates").unwrap();
        let delay_text = match aggregates.get("delay").unwrap() {
            serde::Value::Number(n) => n.clone(),
            other => panic!("delay aggregate must be a number, got {other:?}"),
        };
        let reparsed: f64 = delay_text.parse().unwrap();
        assert_eq!(
            reparsed.to_bits(),
            report.column("delay").unwrap().aggregate.as_f64().to_bits(),
            "JSON floats must round-trip exactly"
        );
        assert_eq!(
            v.get("metric_specs").unwrap(),
            &serde::Value::Array(vec![
                serde::Value::String("machines".into()),
                serde::Value::String("completed".into()),
                serde::Value::String("psi".into()),
                serde::Value::String("delay".into()),
            ])
        );

        // CSV: header carries canonical specs, one row per org + (all).
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "org,machines,completed,psi,delay");
        assert_eq!(lines.len(), 2 + trace.n_orgs());
        assert!(lines.last().unwrap().starts_with("(all),"));

        // Table: every org and spec appears.
        let table = report.render_table();
        for needle in ["org", "a", "b", "(all)", "machines", "delay"] {
            assert!(table.contains(needle), "table is missing {needle}:\n{table}");
        }
    }

    #[test]
    fn summary_table_renders_and_serializes_exactly() {
        let stat = |label: &str, mean: f64| LabeledStat {
            label: label.into(),
            mean,
            sd: mean / 2.0,
            values: vec![mean],
        };
        let t = SummaryTable {
            title: "Table 1".into(),
            metric: "delay".into(),
            columns: vec!["LPC-EGEE".into(), "RICC".into()],
            cells: vec![
                vec![stat("RoundRobin", 238.4), stat("FairShare", 16.0)],
                vec![stat("RoundRobin", 2839.0), stat("FairShare", 0.1 + 0.2)],
            ],
        };
        let r = t.render();
        assert!(r.contains("RoundRobin"));
        assert!(r.contains("LPC-EGEE"));
        assert!(r.contains("238"));
        let json = t.to_json();
        assert!(json.contains("\"metric\": \"delay\""));
        // The 0.30000000000000004 cell must survive JSON exactly — no
        // format_sig truncation drift between render() and to_json().
        let v = serde_json::parse_value(&json).unwrap();
        let cells = match v.get("cells").unwrap() {
            serde::Value::Array(c) => c,
            _ => panic!("cells must be an array"),
        };
        let ricc = match &cells[1] {
            serde::Value::Array(c) => c,
            _ => panic!("column must be an array"),
        };
        let mean_text = match ricc[1].get("mean").unwrap() {
            serde::Value::Number(n) => n.clone(),
            _ => panic!("mean must be a number"),
        };
        assert_eq!(mean_text.parse::<f64>().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        let csv = t.to_csv();
        assert!(csv.starts_with("algorithm,LPC-EGEE avg,LPC-EGEE sd,RICC avg,RICC sd"));
        assert!(csv.contains("0.30000000000000004"));
        // Canonical multi-parameter spec labels survive the CSV sink
        // verbatim via RFC 4180 quoting, not comma rewriting.
        let spec_table = SummaryTable {
            title: "t".into(),
            metric: "delay".into(),
            columns: vec!["synth:horizon=800,orgs=3".into()],
            cells: vec![vec![stat("fifo", 1.0)]],
        };
        let csv = spec_table.to_csv();
        assert!(
            csv.starts_with("algorithm,\"synth:horizon=800,orgs=3 avg\""),
            "comma-bearing labels must be quoted, got: {csv}"
        );
        assert!(csv.contains("synth:horizon=800,orgs=3"));
    }

    #[test]
    fn format_sig_matches_paper_style() {
        assert_eq!(format_sig(0.0), "0");
        assert_eq!(format_sig(0.0144), "0.014");
        assert_eq!(format_sig(6.04), "6.0");
        assert_eq!(format_sig(238.4), "238");
        assert_eq!(format_sig(-238.4), "-238");
        assert_eq!(format_sig(-0.0144), "-0.014");
    }

    fn ref_context() -> (Trace, SimResult, SimResult) {
        let trace = small_trace();
        let eval = run(&trace, "fifo", 40);
        let reference = run(&trace, "ref", 40);
        (trace, eval, reference)
    }

    /// The core sample grid panics on `samples == 0` (and a non-numeric
    /// count never reaches it); the spec-addressed family stays typed end
    /// to end.
    #[test]
    fn timeline_bad_params_are_typed_errors_not_panics() {
        let (trace, eval, reference) = ref_context();
        let ctx = MetricContext::from_result(&trace, &eval).with_reference(&reference);
        let registry = MetricRegistry::shared();
        let err = |spec: &str| registry.build(&spec.parse().unwrap(), &ctx);
        assert!(matches!(
            err("timeline:samples=0"),
            Err(MetricError::BadParam { ref metric, ref param, .. })
                if metric == "timeline" && param == "samples"
        ));
        assert!(matches!(
            err("timeline:samples=lots"),
            Err(MetricError::BadParam { ref param, .. }) if param == "samples"
        ));
        // Untrusted spec input cannot request an unbounded grid (every
        // point costs a value per organization in the report).
        assert!(matches!(
            err(&format!("timeline:samples={}", MAX_TIMELINE_SAMPLES + 1)),
            Err(MetricError::BadParam { ref param, .. }) if param == "samples"
        ));
        assert!(matches!(
            err("timeline:stat=vibes"),
            Err(MetricError::BadParam { ref param, .. }) if param == "stat"
        ));
        assert!(matches!(err("timeline:warp=9"), Err(MetricError::UnknownParam { .. })));
        let bare = MetricContext::from_result(&trace, &eval);
        assert!(matches!(
            registry.build(&"timeline".parse().unwrap(), &bare),
            Err(MetricError::NeedsReference { ref metric }) if metric == "timeline"
        ));
    }

    /// Series shape, the dedup'd grid contract, and endpoint bit-identity
    /// with the scalar metrics: `stat=unfairness` ends on `delay`'s
    /// `Δψ/p_tot`, `stat=delta_psi` on `delay:norm=none`'s Manhattan
    /// distance, `stat=ptot` on the reference's completed units.
    #[test]
    fn timeline_series_shape_and_endpoints_match_scalar_metrics() {
        let (trace, eval, reference) = ref_context();
        let ctx = MetricContext::from_result(&trace, &eval).with_reference(&reference);
        let registry = MetricRegistry::shared();
        let series = |spec: &str| {
            registry.build(&spec.parse().unwrap(), &ctx).unwrap().into_series().unwrap()
        };
        let column = |spec: &str| {
            registry.build(&spec.parse().unwrap(), &ctx).unwrap().into_column().unwrap()
        };

        let s = series("timeline:samples=16");
        assert!(s.times.windows(2).all(|w| w[0] < w[1]), "grid must increase");
        assert!(s.times.len() <= 16);
        assert_eq!(*s.times.last().unwrap(), ctx.horizon);
        assert_eq!(s.per_org.len(), trace.n_orgs());
        for vs in &s.per_org {
            assert_eq!(vs.len(), s.times.len());
        }
        assert_eq!(s.aggregate.len(), s.times.len());
        let delay = column("delay");
        match (s.final_aggregate().unwrap(), delay.aggregate) {
            (MetricValue::Float(a), MetricValue::Float(b)) => {
                assert_eq!(a.to_bits(), b.to_bits(), "endpoint must equal delay")
            }
            other => panic!("both must be floats, got {other:?}"),
        }
        // Per-org endpoints equal delay's scaled deviations too.
        for (u, v) in delay.per_org.iter().enumerate() {
            assert_eq!(s.per_org[u].last().unwrap(), v);
        }

        let d = series("timeline:samples=16,stat=delta_psi");
        assert_eq!(
            d.final_aggregate().unwrap(),
            column("delay:norm=none").aggregate,
            "delta_psi endpoint must equal the Manhattan distance"
        );
        // More samples than horizon moments: dedup'd, never duplicated.
        let oversampled = series("timeline:samples=4000,stat=delta_psi");
        assert_eq!(oversampled.times.len(), ctx.horizon as usize);
        assert_eq!(oversampled.final_aggregate(), d.final_aggregate());

        let p = series("timeline:samples=16,stat=ptot");
        assert_eq!(
            p.final_aggregate().unwrap(),
            MetricValue::Int(reference.schedule.completed_units(ctx.horizon) as i128)
        );
        // p_tot is monotone in t.
        let ints: Vec<i128> = p
            .aggregate
            .iter()
            .map(|v| match v {
                MetricValue::Int(i) => *i,
                other => panic!("ptot must be integer, got {other:?}"),
            })
            .collect();
        assert!(ints.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn report_sinks_carry_time_series() {
        let (trace, eval, reference) = ref_context();
        let specs: Vec<MetricSpec> =
            ["psi", "timeline:samples=4"].iter().map(|s| s.parse().unwrap()).collect();
        let report = Report::evaluate(
            MetricRegistry::shared(),
            &specs,
            &trace,
            &eval,
            Some(&reference),
        )
        .unwrap();
        assert_eq!(report.columns.len(), 1);
        assert_eq!(report.series.len(), 1);
        assert_eq!(report.metric_specs(), ["psi", "timeline:samples=4"]);
        let s = report.time_series("timeline:samples=4").unwrap();

        // JSON: the series field carries times/orgs/aggregate with exact
        // round-trippable values.
        let v = serde_json::parse_value(&report.to_json()).unwrap();
        let series = match v.get("series").unwrap() {
            serde::Value::Array(a) => a,
            other => panic!("series must be an array, got {other:?}"),
        };
        assert_eq!(series.len(), 1);
        assert_eq!(
            series[0].get("spec").unwrap(),
            &serde::Value::String("timeline:samples=4".into())
        );
        let aggregate = match series[0].get("aggregate").unwrap() {
            serde::Value::Array(a) => a,
            other => panic!("aggregate must be an array, got {other:?}"),
        };
        assert_eq!(aggregate.len(), s.times.len());
        if let serde::Value::Number(n) = &aggregate[s.times.len() - 1] {
            let reparsed: f64 = n.parse().unwrap();
            assert_eq!(
                reparsed.to_bits(),
                s.final_aggregate().unwrap().as_f64().to_bits(),
                "series floats must round-trip exactly"
            );
        } else {
            panic!("aggregate entries must be numbers");
        }

        // A scalar-only report keeps the historical schema: no series key.
        let scalar_only = Report::evaluate(
            MetricRegistry::shared(),
            &["psi".parse().unwrap()],
            &trace,
            &eval,
            None,
        )
        .unwrap();
        let v = serde_json::parse_value(&scalar_only.to_json()).unwrap();
        assert!(v.get("series").is_none(), "scalar reports must not grow a series key");

        // CSV: the series block header names the spec, the orgs, (all).
        let csv = report.to_csv();
        assert!(csv.contains("\ntimeline:samples=4,a,b,(all)\n"), "csv:\n{csv}");
        let last_t = s.times.last().unwrap();
        assert!(
            csv.lines().any(|l| l.starts_with(&format!("{last_t},"))),
            "csv must carry a row for the final sample time:\n{csv}"
        );

        // Table: the series is rendered under its spec heading.
        let table = report.render_table();
        assert!(table.contains("timeline:samples=4:"), "table:\n{table}");
        assert!(table.contains("(all)"));

        // A series-only report skips the degenerate scalar block: no
        // value-less `org` table/CSV header, straight to the series.
        let series_only = Report::evaluate(
            MetricRegistry::shared(),
            &["timeline:samples=4".parse().unwrap()],
            &trace,
            &eval,
            Some(&reference),
        )
        .unwrap();
        let table = series_only.render_table();
        assert!(
            table.starts_with("timeline:samples=4:"),
            "series-only table must skip the scalar block:\n{table}"
        );
        let csv = series_only.to_csv();
        assert!(
            csv.starts_with("timeline:samples=4,a,b,(all)\n"),
            "series-only CSV must skip the scalar block:\n{csv}"
        );
    }
}

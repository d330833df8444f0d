//! The `Simulation` session API: one fluent, fallible entry point for
//! running any registered scheduler over any registered workload.
//!
//! The engine entry point ([`crate::run_scheduler`]) takes
//! an already-constructed `&mut dyn Scheduler`. [`Simulation`] adds
//! construction from data: schedulers are named by
//! [`SchedulerSpec`] strings resolved through a [`Registry`], workloads by
//! [`WorkloadSpec`] strings resolved through a [`WorkloadRegistry`], and
//! every failure — malformed spec, unknown scheduler or workload, invalid
//! trace, scheduler contract violations — surfaces as a typed
//! [`SimError`].
//!
//! [`run`](Simulation::run) returns one schedule. Everything measured goes
//! through one [`ReportRow`] per trace: [`run_report`](Simulation::run_report)
//! is a one-cell row, [`run_matrix_reports`](Simulation::run_matrix_reports)
//! and [`run_grid_reports`](Simulation::run_grid_reports) are serial loops
//! over rows, and [`report_row`](Simulation::report_row) hands the row to
//! callers that drive it cell by cell (the durable experiment runner).
//!
//! ```
//! use fairsched_core::Trace;
//! use fairsched_sim::Simulation;
//!
//! let mut b = Trace::builder();
//! let alpha = b.org("alpha", 1);
//! let beta = b.org("beta", 2);
//! b.jobs(alpha, 0, 4, 3);
//! b.job(beta, 6, 2);
//! let trace = b.build().unwrap();
//!
//! let result = Simulation::new(&trace)
//!     .scheduler("fairshare")?
//!     .horizon(5_000)
//!     .validate(true)
//!     .seed(7)
//!     .run()?;
//! assert_eq!(result.completed_jobs, 4);
//!
//! // Compare several schedulers with identical settings: one typed
//! // `Report` per spec, in spec order. `delay` measures each against the
//! // exact REF schedule, which runs once for the whole row.
//! let specs = ["roundrobin".parse()?, "directcontr".parse()?];
//! let reports = Simulation::new(&trace)
//!     .horizon(5_000)
//!     .metrics(&["delay", "psi"])?
//!     .run_matrix_reports(&specs)?;
//! assert_eq!(reports.len(), 2);
//! assert_eq!(reports[1].scheduler, "DirectContr");
//!
//! // A session needs no hand-built trace: workloads are specs too, and a
//! // whole (workload × scheduler) experiment grid is pure data.
//! let result = Simulation::session()
//!     .workload("fpt:k=2")?
//!     .scheduler("fairshare")?
//!     .horizon(500)
//!     .seed(3)
//!     .run()?;
//! assert!(result.completed_jobs > 0);
//!
//! let grid = Simulation::session().horizon(500).seed(3).run_grid_reports(
//!     &["fpt:k=2".parse()?, "fpt:k=3".parse()?],
//!     &["fifo".parse()?, "roundrobin".parse()?],
//! );
//! assert_eq!(grid.len(), 4);
//! assert!(grid.iter().all(|cell| cell.report.is_ok()));
//! # Ok::<(), fairsched_sim::SimError>(())
//! ```

use crate::engine::{run_scheduler, SimOptions, SimResult};
use crate::report::{MetricError, MetricRegistry, MetricSpec, Report};
use fairsched_core::model::{OrgId, Time, Trace, TraceError};
use fairsched_core::schedule::ScheduleViolation;
use fairsched_core::scheduler::registry::{
    BuildContext, Registry, SchedulerSpec, SpecError,
};
use fairsched_core::scheduler::Scheduler;
use fairsched_workloads::spec::{
    WorkloadContext, WorkloadError, WorkloadRegistry, WorkloadSpec,
};
use std::borrow::Cow;
use std::fmt;
use std::rc::Rc;

/// Why a simulation session could not produce a result.
#[derive(Clone, Debug)]
pub enum SimError {
    /// The trace fails model validation.
    InvalidTrace(TraceError),
    /// The scheduler spec was malformed, unknown, or had bad parameters.
    Spec(SpecError),
    /// The workload spec was malformed, unknown, had bad parameters, or
    /// failed to build (missing file, malformed SWF, invalid trace).
    Workload(WorkloadError),
    /// A metric spec was malformed, unknown, had bad parameters, or could
    /// not be evaluated (e.g. a reference-based metric with no REF run).
    Metric(MetricError),
    /// `run` was called without choosing a scheduler.
    NoScheduler,
    /// `run` was called on a session with neither a trace nor a workload.
    NoWorkload,
    /// The scheduler broke the greedy contract by selecting an
    /// organization with no waiting jobs.
    BadSelection {
        /// The offending scheduler's display name.
        scheduler: String,
        /// The organization it selected.
        org: OrgId,
        /// When.
        t: Time,
    },
    /// The scheduler picked a machine index outside the free list.
    /// (Before the session API this was silently coerced to machine 0.)
    BadMachinePick {
        /// The offending scheduler's display name.
        scheduler: String,
        /// The picked index.
        picked: usize,
        /// How many machines were actually free.
        free: usize,
        /// When.
        t: Time,
    },
    /// Post-run validation found a model-invariant violation.
    InvalidSchedule {
        /// The offending scheduler's display name.
        scheduler: String,
        /// The violated invariant.
        violation: ScheduleViolation,
    },
    /// A mid-run admission was attempted on a scheduler that cannot
    /// splice new jobs into its state (see
    /// [`Scheduler::admits_jobs`](fairsched_core::scheduler::Scheduler::admits_jobs)).
    AdmitUnsupported {
        /// The declining scheduler's display name.
        scheduler: String,
    },
    /// A mid-run admission's release time is not strictly after the
    /// session's stepped-to high-water mark: the engine has already
    /// processed that time moment, so admitting would rewrite history.
    AdmitTooLate {
        /// The rejected job's release time.
        release: Time,
        /// How far the session has stepped.
        stepped_to: Time,
    },
    /// A session snapshot could not be parsed or replayed.
    Snapshot {
        /// What went wrong (rendered, so the variant stays `Clone`).
        message: String,
    },
    /// A filesystem operation on behalf of a run failed (the durable
    /// experiment runner's cell/journal/report writes). The fields are
    /// rendered strings so the error stays `Clone` like every other
    /// variant and survives serialization into cell files.
    Io {
        /// The attempted operation (`read`, `write`, `rename`, …).
        op: String,
        /// The path involved.
        path: String,
        /// The rendered OS error.
        message: String,
    },
}

impl SimError {
    /// Wraps a [`std::io::Error`] with the operation and path it
    /// interrupted, so filesystem failures surface as typed per-cell
    /// errors instead of panics.
    pub fn io(op: &str, path: impl AsRef<std::path::Path>, e: &std::io::Error) -> Self {
        SimError::Io {
            op: op.to_string(),
            path: path.as_ref().display().to_string(),
            message: e.to_string(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidTrace(e) => write!(f, "invalid trace: {e}"),
            SimError::Spec(e) => write!(f, "{e}"),
            SimError::Workload(e) => write!(f, "{e}"),
            SimError::Metric(e) => write!(f, "{e}"),
            SimError::NoScheduler => {
                write!(f, "no scheduler chosen (call .scheduler(..) before .run())")
            }
            SimError::NoWorkload => write!(
                f,
                "no trace or workload chosen (call Simulation::new(&trace) or .workload(..))"
            ),
            SimError::BadSelection { scheduler, org, t } => write!(
                f,
                "scheduler {scheduler} selected {org} which has no waiting jobs at t={t}"
            ),
            SimError::BadMachinePick { scheduler, picked, free, t } => write!(
                f,
                "scheduler {scheduler} picked machine index {picked} with only {free} free at t={t}"
            ),
            SimError::InvalidSchedule { scheduler, violation } => {
                write!(f, "scheduler {scheduler} produced an invalid schedule: {violation}")
            }
            SimError::AdmitUnsupported { scheduler } => write!(
                f,
                "scheduler {scheduler} does not support mid-run job admission"
            ),
            SimError::AdmitTooLate { release, stepped_to } => write!(
                f,
                "cannot admit a job releasing at t={release}: the session has already \
                 stepped to t={stepped_to} (releases must be strictly later)"
            ),
            SimError::Snapshot { message } => {
                write!(f, "bad session snapshot: {message}")
            }
            SimError::Io { op, path, message } => {
                write!(f, "io error ({op} {path}): {message}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::InvalidTrace(e) => Some(e),
            SimError::Spec(e) => Some(e),
            SimError::Workload(e) => Some(e),
            SimError::Metric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpecError> for SimError {
    fn from(e: SpecError) -> Self {
        SimError::Spec(e)
    }
}

impl From<fairsched_core::journal::FsError> for SimError {
    fn from(e: fairsched_core::journal::FsError) -> Self {
        SimError::Io { op: e.op, path: e.path, message: e.message }
    }
}

impl From<WorkloadError> for SimError {
    fn from(e: WorkloadError) -> Self {
        SimError::Workload(e)
    }
}

impl From<MetricError> for SimError {
    fn from(e: MetricError) -> Self {
        SimError::Metric(e)
    }
}

/// What `run` will instantiate.
enum Chosen {
    None,
    Spec(SchedulerSpec),
    Instance(Box<dyn Scheduler>),
}

/// Where the session's trace comes from.
enum Source<'a> {
    /// Nothing chosen yet (only valid on a [`Simulation::session`]
    /// template that is used for
    /// [`run_grid_reports`](Simulation::run_grid_reports) or completed
    /// with [`workload`](Simulation::workload)).
    None,
    /// A caller-owned trace.
    Trace(&'a Trace),
    /// A workload spec, resolved through the workload registry with the
    /// session seed when the run starts.
    Workload(WorkloadSpec),
}

/// A fluent simulation session over one trace or workload spec.
///
/// Defaults: horizon = [`Trace::completion_horizon`] (run to completion),
/// `validate = false`, `seed = 0`, scheduler resolution through
/// [`Registry::shared`]. Workload and metric specs always resolve through
/// [`WorkloadRegistry::shared`] and [`MetricRegistry::shared`]; metrics
/// from a custom registry are evaluated with [`Report::evaluate`]. See the
/// [module docs](self) for examples.
pub struct Simulation<'a> {
    source: Source<'a>,
    registry: Option<&'a Registry>,
    metrics: Vec<MetricSpec>,
    chosen: Chosen,
    horizon: Option<Time>,
    validate: bool,
    seed: u64,
}

/// The metric specs a report-producing run evaluates when none were
/// chosen with [`Simulation::metrics`]: the classic per-organization
/// summary (machine counts, completions, flow, waiting, exact `ψ_sp`) —
/// reference-free, so it works on any session.
pub const DEFAULT_REPORT_METRICS: [&str; 5] =
    ["machines", "completed", "flow", "waiting", "psi"];

impl Simulation<'static> {
    /// A settings-only session template with no trace or workload chosen
    /// yet: complete it with [`workload`](Simulation::workload) /
    /// [`workload_spec`](Simulation::workload_spec), or use it directly
    /// for [`run_grid_reports`](Simulation::run_grid_reports), which
    /// supplies its own workload axis.
    pub fn session() -> Self {
        Simulation {
            source: Source::None,
            registry: None,
            metrics: Vec::new(),
            chosen: Chosen::None,
            horizon: None,
            validate: false,
            seed: 0,
        }
    }
}

impl<'a> Simulation<'a> {
    /// A session over `trace` with default settings.
    pub fn new(trace: &'a Trace) -> Self {
        Simulation { source: Source::Trace(trace), ..Simulation::session() }
    }

    /// Chooses the workload by spec string (`"synth:preset=ricc,scale=0.5"`,
    /// `"fpt:k=8"`, …), replacing any previously chosen trace or workload.
    /// Fails fast on syntax errors; unknown names and bad parameter values
    /// surface from [`run`](Simulation::run), where the workload registry
    /// is consulted. The trace is built with the session
    /// [`seed`](Simulation::seed).
    pub fn workload(mut self, spec: &str) -> Result<Self, SimError> {
        self.source = Source::Workload(spec.parse::<WorkloadSpec>()?);
        Ok(self)
    }

    /// Chooses the workload by parsed spec.
    pub fn workload_spec(mut self, spec: WorkloadSpec) -> Self {
        self.source = Source::Workload(spec);
        self
    }

    /// Chooses the metrics the report-producing runs
    /// ([`run_report`](Simulation::run_report),
    /// [`run_matrix_reports`](Simulation::run_matrix_reports),
    /// [`run_grid_reports`](Simulation::run_grid_reports)) evaluate, by
    /// spec string (`"delay"`, `"delay:norm=ideal"`, `"psi"`, …). Fails
    /// fast on syntax errors; unknown names and bad parameter values
    /// surface from the run, where the metric registry is consulted.
    /// Without this call the [`DEFAULT_REPORT_METRICS`] set is used.
    pub fn metrics(mut self, specs: &[&str]) -> Result<Self, SimError> {
        self.metrics = specs
            .iter()
            .map(|s| s.parse::<MetricSpec>())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self)
    }

    /// Chooses the metrics by parsed specs.
    pub fn metric_specs(mut self, specs: Vec<MetricSpec>) -> Self {
        self.metrics = specs;
        self
    }

    /// Chooses the scheduler by spec string (`"ref"`, `"rand:perms=15"`,
    /// …). Fails fast on syntax errors; unknown names and bad parameter
    /// values surface from [`run`](Simulation::run), where the registry is
    /// consulted.
    pub fn scheduler(mut self, spec: &str) -> Result<Self, SimError> {
        self.chosen = Chosen::Spec(spec.parse::<SchedulerSpec>()?);
        Ok(self)
    }

    /// Chooses the scheduler by parsed spec.
    pub fn scheduler_spec(mut self, spec: SchedulerSpec) -> Self {
        self.chosen = Chosen::Spec(spec);
        self
    }

    /// Supplies an already-built scheduler instance (the escape hatch for
    /// custom policies not worth registering).
    pub fn scheduler_instance(mut self, scheduler: Box<dyn Scheduler>) -> Self {
        self.chosen = Chosen::Instance(scheduler);
        self
    }

    /// Resolves spec names through `registry` instead of
    /// [`Registry::default`].
    pub fn registry(mut self, registry: &'a Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Sets the evaluation horizon (default: the trace's completion
    /// horizon, i.e. run to completion).
    pub fn horizon(mut self, horizon: Time) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Enables post-run validation of every model invariant (a sorted
    /// event sweep, `O(n log n)` in jobs + entries — usable even at
    /// paper scale).
    pub fn validate(mut self, validate: bool) -> Self {
        self.validate = validate;
        self
    }

    /// Seeds the scheduler's internal randomness (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn options_for(&self, trace: &Trace) -> SimOptions {
        SimOptions {
            horizon: self.horizon.unwrap_or_else(|| trace.completion_horizon()),
            validate: self.validate,
        }
    }

    /// The registry this session resolves scheduler specs through: the
    /// explicit one if supplied, else the process-wide [`Registry::shared`]
    /// default (built once behind a `OnceLock`, not per call).
    fn resolve_registry(&self) -> &'a Registry {
        self.registry.unwrap_or_else(|| Registry::shared())
    }

    /// The metric specs report runs evaluate: the chosen ones, or
    /// [`DEFAULT_REPORT_METRICS`].
    fn effective_metrics(&self) -> Vec<MetricSpec> {
        if self.metrics.is_empty() {
            // All defaults are bare names, so no parse (and no panic path)
            // is involved in constructing them.
            DEFAULT_REPORT_METRICS.iter().map(|s| MetricSpec::bare(*s)).collect()
        } else {
            self.metrics.clone()
        }
    }

    /// The session's workload provenance, if it was chosen by spec.
    fn workload_provenance(&self) -> Option<WorkloadSpec> {
        match &self.source {
            Source::Workload(spec) => Some(spec.clone()),
            _ => None,
        }
    }

    /// The session's trace: borrowed when supplied via
    /// [`new`](Simulation::new), built through the workload registry (with
    /// the session seed) when chosen by spec.
    fn resolve_trace(&self) -> Result<Cow<'a, Trace>, SimError> {
        match &self.source {
            Source::None => Err(SimError::NoWorkload),
            Source::Trace(t) => Ok(Cow::Borrowed(*t)),
            Source::Workload(spec) => {
                let ctx = WorkloadContext { seed: self.seed };
                Ok(Cow::Owned(WorkloadRegistry::shared().build(spec, &ctx)?))
            }
        }
    }

    /// Runs the session, consuming it.
    pub fn run(self) -> Result<SimResult, SimError> {
        let trace = self.resolve_trace()?;
        let options = self.options_for(&trace);
        match self.chosen {
            Chosen::None => Err(SimError::NoScheduler),
            Chosen::Instance(mut s) => run_scheduler(&trace, s.as_mut(), options),
            Chosen::Spec(ref spec) => {
                run_spec(self.resolve_registry(), spec, &trace, self.seed, options)
            }
        }
    }

    /// Runs the session and measures it: like [`run`](Simulation::run),
    /// but the outcome is a typed [`Report`] evaluating the session's
    /// metric specs (set with [`metrics`](Simulation::metrics); default
    /// [`DEFAULT_REPORT_METRICS`]). When any chosen metric compares
    /// against REF (`delay`, `ranking`), the exact reference schedule is
    /// run automatically with the same settings.
    pub fn run_report(mut self) -> Result<Report, SimError> {
        let chosen = std::mem::replace(&mut self.chosen, Chosen::None);
        let trace = self.resolve_trace()?;
        let mut row = self.report_row(&trace, self.workload_provenance());
        match chosen {
            Chosen::None => Err(SimError::NoScheduler),
            Chosen::Spec(spec) => row.report(&spec),
            Chosen::Instance(mut scheduler) => {
                let result = run_scheduler(&trace, scheduler.as_mut(), row.options);
                row.finish(None, result.map(Rc::new))
            }
        }
    }

    /// Opens the [`ReportRow`] of this session's settings (scheduler
    /// registry, metrics, horizon, validation, seed) over `trace`: the
    /// unit every report-producing run — this session's own, and the
    /// durable experiment runner's — computes through. `workload` is the
    /// provenance stamped on the row's reports. Any scheduler chosen on
    /// the session is ignored; the row is asked per spec.
    pub fn report_row<'r>(
        &self,
        trace: &'r Trace,
        workload: Option<WorkloadSpec>,
    ) -> ReportRow<'r>
    where
        'a: 'r,
    {
        let metric_specs = self.effective_metrics();
        // Unknown metric names need no reference here; they fail typedly
        // at evaluation.
        let needs_reference = metric_specs.iter().any(|spec| {
            MetricRegistry::shared().get(spec.name()).is_some_and(|f| f.needs_reference())
        });
        ReportRow {
            trace,
            registry: self.resolve_registry(),
            needs_reference,
            metric_specs,
            options: self.options_for(trace),
            seed: self.seed,
            workload,
            reference: None,
        }
    }

    /// One [`Report`] per scheduler spec, in spec order: every spec run
    /// with this session's settings over one resolved trace, as one
    /// [`ReportRow`] (so REF runs at most once, when a metric needs it).
    /// Any scheduler chosen via [`scheduler`](Simulation::scheduler) is
    /// ignored here; only `specs` are run. The first failing spec's error
    /// is returned.
    pub fn run_matrix_reports(
        &self,
        specs: &[SchedulerSpec],
    ) -> Result<Vec<Report>, SimError> {
        let trace = self.resolve_trace()?;
        let mut row = self.report_row(&trace, self.workload_provenance());
        specs.iter().map(|spec| row.report(spec)).collect()
    }

    /// The full `(workload × scheduler)` grid in row-major order (all
    /// schedulers of `workloads[0]`, then `workloads[1]`, …), each cell a
    /// typed [`Report`] or the typed error that stopped it. Each workload
    /// is built once (with the session seed) and runs as one
    /// [`ReportRow`]. A workload that fails to build fails *its row's*
    /// cells and the grid continues, so one bad spec cannot take down a
    /// sweep.
    pub fn run_grid_reports(
        &self,
        workloads: &[WorkloadSpec],
        schedulers: &[SchedulerSpec],
    ) -> Vec<ReportCell> {
        let ctx = WorkloadContext { seed: self.seed };
        let registry = WorkloadRegistry::shared();
        let mut cells = Vec::with_capacity(workloads.len() * schedulers.len());
        for wspec in workloads {
            let trace = registry.build(wspec, &ctx);
            let mut row = trace.as_ref().map(|t| self.report_row(t, Some(wspec.clone())));
            cells.extend(schedulers.iter().map(|sspec| ReportCell {
                workload: wspec.clone(),
                scheduler: sspec.clone(),
                report: match &mut row {
                    Ok(row) => row.report(sspec),
                    Err(e) => Err(SimError::Workload((*e).clone())),
                },
            }));
        }
        cells
    }
}

/// Builds `spec` through `registry` for `trace` and runs it.
fn run_spec(
    registry: &Registry,
    spec: &SchedulerSpec,
    trace: &Trace,
    seed: u64,
    options: SimOptions,
) -> Result<SimResult, SimError> {
    let mut scheduler = registry.build(spec, &BuildContext { trace, seed })?;
    run_scheduler(trace, scheduler.as_mut(), options)
}

/// Whether `spec` is the scheduler the reference run builds: a cell
/// running it *is* the reference run of its row.
fn is_reference_spec(spec: &SchedulerSpec) -> bool {
    spec.name() == "ref" && spec.params().next().is_none()
}

/// One row of a report grid — the cells that share a trace, a seed and
/// the session settings and differ only in their scheduler — and the one
/// place the "run scheduler → obtain the REF reference →
/// [`Report::evaluate`] → stamp provenance" sequence lives (open one with
/// [`Simulation::report_row`]).
///
/// What the row shares is the reference run: REF runs at most once, on
/// the first cell whose metrics compare against it, and a bare `ref` cell
/// *is* that run (in either order) rather than a second one. A failed
/// reference is the same typed error on every cell that needs it — after
/// the cell's own scheduler error, which comes first — while cells with
/// reference-free metrics still succeed.
#[derive(Debug)]
pub struct ReportRow<'r> {
    trace: &'r Trace,
    registry: &'r Registry,
    metric_specs: Vec<MetricSpec>,
    needs_reference: bool,
    options: SimOptions,
    seed: u64,
    workload: Option<WorkloadSpec>,
    /// The row's REF run, once some cell asked for it.
    reference: Option<Result<Rc<SimResult>, SimError>>,
}

impl ReportRow<'_> {
    /// Runs `spec` over the row's trace and measures it.
    pub fn report(&mut self, spec: &SchedulerSpec) -> Result<Report, SimError> {
        let result = if is_reference_spec(spec) {
            self.reference()
        } else {
            self.run(spec).map(Rc::new)
        };
        self.finish(Some(spec), result)
    }

    fn run(&self, spec: &SchedulerSpec) -> Result<SimResult, SimError> {
        run_spec(self.registry, spec, self.trace, self.seed, self.options)
    }

    /// The row's reference run, made on first use.
    fn reference(&mut self) -> Result<Rc<SimResult>, SimError> {
        match &self.reference {
            Some(run) => run.clone(),
            None => {
                let run = self.run(&SchedulerSpec::bare("ref")).map(Rc::new);
                self.reference = Some(run.clone());
                run
            }
        }
    }

    /// Measures one finished run of the row. The cell's own error comes
    /// first, then the reference's.
    fn finish(
        &mut self,
        spec: Option<&SchedulerSpec>,
        result: Result<Rc<SimResult>, SimError>,
    ) -> Result<Report, SimError> {
        let result = result?;
        let reference = if self.needs_reference { Some(self.reference()?) } else { None };
        let mut report = Report::evaluate(
            MetricRegistry::shared(),
            &self.metric_specs,
            self.trace,
            &result,
            reference.as_deref(),
        )?;
        report.seed = self.seed;
        report.scheduler_spec = spec.cloned();
        report.workload_spec = self.workload.clone();
        Ok(report)
    }
}

/// One cell of a [`Simulation::run_grid_reports`] sweep: which workload ×
/// which scheduler, and the typed measured outcome.
#[derive(Debug)]
pub struct ReportCell {
    /// The workload axis value.
    pub workload: WorkloadSpec,
    /// The scheduler axis value.
    pub scheduler: SchedulerSpec,
    /// The measured outcome; errors are per-cell, the grid always
    /// completes.
    pub report: Result<Report, SimError>,
}

impl fmt::Debug for Simulation<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("horizon", &self.horizon)
            .field("validate", &self.validate)
            .field("seed", &self.seed)
            .field(
                "source",
                &match &self.source {
                    Source::None => "<none>".to_string(),
                    Source::Trace(t) => {
                        format!("<trace {} orgs, {} jobs>", t.n_orgs(), t.n_jobs())
                    }
                    Source::Workload(s) => s.to_string(),
                },
            )
            .field(
                "scheduler",
                &match &self.chosen {
                    Chosen::None => "<none>".to_string(),
                    Chosen::Spec(s) => s.to_string(),
                    Chosen::Instance(s) => format!("<instance {}>", s.name()),
                },
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsched_core::scheduler::FifoScheduler;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn small_trace() -> Trace {
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        let c = b.org("b", 1);
        b.job(a, 0, 3).job(c, 0, 2).job(a, 2, 1).job(c, 4, 4);
        b.build().unwrap()
    }

    #[test]
    fn builder_runs_spec_through_default_registry() {
        let trace = small_trace();
        let result = Simulation::new(&trace)
            .scheduler("fairshare")
            .unwrap()
            .horizon(50)
            .validate(true)
            .seed(7)
            .run()
            .unwrap();
        assert_eq!(result.scheduler, "FairShare");
        assert_eq!(result.completed_jobs, 4);
    }

    #[test]
    fn default_horizon_runs_to_completion() {
        let trace = small_trace();
        let result = Simulation::new(&trace).scheduler("fifo").unwrap().run().unwrap();
        assert_eq!(result.completed_jobs, trace.n_jobs());
        assert_eq!(result.horizon, trace.completion_horizon());
    }

    #[test]
    fn missing_scheduler_is_typed_error() {
        let trace = small_trace();
        assert!(matches!(Simulation::new(&trace).run(), Err(SimError::NoScheduler)));
    }

    #[test]
    fn malformed_spec_fails_fast() {
        let trace = small_trace();
        let err = Simulation::new(&trace).scheduler("rand:perms");
        assert!(matches!(err, Err(SimError::Spec(SpecError::BadSyntax { .. }))));
    }

    #[test]
    fn unknown_scheduler_surfaces_at_run() {
        let trace = small_trace();
        let err = Simulation::new(&trace).scheduler("warp-drive").unwrap().run();
        assert!(matches!(err, Err(SimError::Spec(SpecError::UnknownScheduler { .. }))));
    }

    #[test]
    fn instance_escape_hatch() {
        let trace = small_trace();
        let result = Simulation::new(&trace)
            .scheduler_instance(Box::new(FifoScheduler::new()))
            .horizon(50)
            .run()
            .unwrap();
        assert_eq!(result.scheduler, "Fifo");
    }

    #[test]
    fn run_matrix_fans_out_in_order() {
        use crate::report::MetricValue;
        let trace = small_trace();
        let specs = parse_all(&["roundrobin", "fairshare", "rand:perms=5"]);
        let reports = Simulation::new(&trace)
            .horizon(50)
            .validate(true)
            .seed(3)
            .run_matrix_reports(&specs)
            .unwrap();
        let names: Vec<&str> = reports.iter().map(|r| r.scheduler.as_str()).collect();
        assert_eq!(names, ["RoundRobin", "FairShare", "Rand(N=5)"]);
        for r in &reports {
            let completed = &r.column("completed").unwrap().per_org;
            assert_eq!(completed.iter().map(MetricValue::as_f64).sum::<f64>(), 4.0);
        }
    }

    #[test]
    fn run_matrix_propagates_spec_errors() {
        let trace = small_trace();
        let specs = vec!["roundrobin".parse().unwrap(), "nonesuch".parse().unwrap()];
        assert!(matches!(
            Simulation::new(&trace).run_matrix_reports(&specs),
            Err(SimError::Spec(SpecError::UnknownScheduler { .. }))
        ));
    }

    #[test]
    fn custom_registry_is_consulted() {
        let trace = small_trace();
        let registry = Registry::new(); // deliberately empty
        let err =
            Simulation::new(&trace).registry(&registry).scheduler("fifo").unwrap().run();
        assert!(matches!(err, Err(SimError::Spec(SpecError::UnknownScheduler { .. }))));
    }

    #[test]
    fn workload_source_builds_through_registry() {
        let result = Simulation::session()
            .workload("fpt:k=2")
            .unwrap()
            .scheduler("fifo")
            .unwrap()
            .horizon(500)
            .seed(3)
            .run()
            .unwrap();
        assert_eq!(result.scheduler, "Fifo");
        assert!(result.completed_jobs > 0);
    }

    #[test]
    fn workload_source_matches_direct_registry_build() {
        use fairsched_workloads::spec::WorkloadRegistry;
        let trace = WorkloadRegistry::shared()
            .build_str("fpt:k=2", &WorkloadContext { seed: 9 })
            .unwrap();
        let direct = Simulation::new(&trace)
            .scheduler("roundrobin")
            .unwrap()
            .horizon(400)
            .seed(9)
            .run()
            .unwrap();
        let via_spec = Simulation::session()
            .workload("fpt:k=2")
            .unwrap()
            .scheduler("roundrobin")
            .unwrap()
            .horizon(400)
            .seed(9)
            .run()
            .unwrap();
        assert_eq!(direct.schedule, via_spec.schedule);
        assert_eq!(direct.psi, via_spec.psi);
    }

    #[test]
    fn session_without_source_is_typed_error() {
        let err = Simulation::session().scheduler("fifo").unwrap().run();
        assert!(matches!(err, Err(SimError::NoWorkload)));
    }

    #[test]
    fn malformed_workload_spec_fails_fast() {
        let err = Simulation::session().workload("fpt:k");
        assert!(matches!(err, Err(SimError::Workload(WorkloadError::BadSyntax { .. }))));
    }

    #[test]
    fn unknown_workload_surfaces_at_run() {
        let err = Simulation::session()
            // lint:allow(spec-literal) deliberately unregistered family.
            .workload("marsbase:crew=3")
            .unwrap()
            .scheduler("fifo")
            .unwrap()
            .run();
        assert!(matches!(
            err,
            Err(SimError::Workload(WorkloadError::UnknownWorkload { .. }))
        ));
    }

    #[test]
    fn run_matrix_over_workload_source_resolves_once_and_fans_out() {
        let specs: Vec<SchedulerSpec> = ["fifo", "roundrobin", "rand:perms=5"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let session =
            Simulation::session().workload("fpt:k=3").unwrap().horizon(600).seed(7);
        let reports = session.run_matrix_reports(&specs).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].scheduler, "Fifo");
        assert_eq!(reports[2].scheduler, "Rand(N=5)");
        for report in &reports {
            assert_eq!(report.workload_spec.as_ref().unwrap().to_string(), "fpt:k=3");
        }
    }

    /// The grid must equal the serial double loop cell for cell: same
    /// row-major order, same reports.
    #[test]
    fn run_grid_matches_serial_double_loop() {
        let workloads: Vec<WorkloadSpec> = ["fpt:k=2", "fpt:horizon=500,k=3"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let schedulers = parse_all(&["fifo", "fairshare", "rand:perms=4"]);
        let session = || Simulation::session().horizon(400).validate(true).seed(11);
        let grid = session()
            .metrics(&["delay", "psi"])
            .unwrap()
            .run_grid_reports(&workloads, &schedulers);
        assert_eq!(grid.len(), 6);
        let mut cells = grid.iter().enumerate();
        for wspec in &workloads {
            for sspec in &schedulers {
                let (i, cell) = cells.next().unwrap();
                assert_eq!(&cell.workload, wspec, "row-major order broken at {i}");
                assert_eq!(&cell.scheduler, sspec, "row-major order broken at {i}");
                let serial = session()
                    .workload_spec(wspec.clone())
                    .scheduler_spec(sspec.clone())
                    .metrics(&["delay", "psi"])
                    .unwrap()
                    .run_report()
                    .unwrap();
                let cell_report = cell.report.as_ref().unwrap();
                assert_eq!(cell_report.to_json(), serial.to_json(), "cell {i} diverged");
            }
        }
    }

    /// One invalid workload spec fails its own row's cells with a typed
    /// error; the rest of the grid still runs.
    #[test]
    fn run_grid_collects_typed_errors_and_continues() {
        let workloads: Vec<WorkloadSpec> = ["fpt:k=2", "fpt:k=0", "fpt:k=3"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let schedulers: Vec<SchedulerSpec> =
            ["fifo", "roundrobin"].iter().map(|s| s.parse().unwrap()).collect();
        let grid = Simulation::session()
            .horizon(300)
            .seed(5)
            .run_grid_reports(&workloads, &schedulers);
        assert_eq!(grid.len(), 6);
        for cell in &grid {
            if cell.workload.to_string() == "fpt:k=0" {
                assert!(
                    matches!(
                        cell.report,
                        Err(SimError::Workload(WorkloadError::BadParam { .. }))
                    ),
                    "bad workload row must carry the typed build error"
                );
            } else {
                assert!(
                    cell.report.is_ok(),
                    "healthy rows must survive a bad workload in the grid"
                );
            }
        }
        // Bad *scheduler* specs likewise fail per cell, not the grid.
        let grid = Simulation::session().horizon(300).seed(5).run_grid_reports(
            &["fpt:k=2".parse().unwrap()],
            &["fifo".parse().unwrap(), "warpdrive".parse().unwrap()],
        );
        assert!(grid[0].report.is_ok());
        assert!(matches!(
            grid[1].report,
            Err(SimError::Spec(SpecError::UnknownScheduler { .. }))
        ));
    }

    #[test]
    fn grid_seed_flows_into_workload_builds() {
        let workloads: Vec<WorkloadSpec> = vec!["fpt:k=2".parse().unwrap()];
        let schedulers: Vec<SchedulerSpec> = vec!["fifo".parse().unwrap()];
        let run = |seed| {
            let mut grid = Simulation::session()
                .horizon(300)
                .seed(seed)
                .run_grid_reports(&workloads, &schedulers);
            let report = grid.remove(0).report.unwrap();
            ["flow", "psi"].map(|m| report.column(m).unwrap().per_org.clone())
        };
        assert_eq!(run(4), run(4));
        assert_ne!(run(4), run(5), "different seeds must yield different workloads");
    }

    #[test]
    fn run_report_defaults_to_the_classic_summary() {
        let trace = small_trace();
        let report = Simulation::new(&trace)
            .scheduler("fifo")
            .unwrap()
            .horizon(50)
            .run_report()
            .unwrap();
        assert_eq!(report.metric_specs(), DEFAULT_REPORT_METRICS);
        assert_eq!(report.scheduler, "Fifo");
        assert_eq!(report.scheduler_spec.as_ref().unwrap().to_string(), "fifo");
        assert_eq!(report.orgs, ["a", "b"]);
        // machines column reflects the trace.
        let machines = report.column("machines").unwrap();
        assert_eq!(machines.per_org.len(), 2);
    }

    #[test]
    fn run_report_runs_the_reference_for_delay_metrics() {
        use crate::report::MetricValue;
        let trace = small_trace();
        let report = Simulation::new(&trace)
            .scheduler("roundrobin")
            .unwrap()
            .horizon(50)
            .metrics(&["delay", "psi", "ranking"])
            .unwrap()
            .run_report()
            .unwrap();
        assert_eq!(report.metric_specs(), ["delay", "psi", "ranking"]);
        assert!(matches!(
            report.column("delay").unwrap().aggregate,
            MetricValue::Float(v) if v >= 0.0
        ));
        // REF against itself is perfectly fair: delay 0 everywhere.
        let self_fair = Simulation::new(&trace)
            .scheduler("ref")
            .unwrap()
            .horizon(50)
            .metrics(&["delay"])
            .unwrap()
            .run_report()
            .unwrap();
        assert_eq!(self_fair.column("delay").unwrap().aggregate, MetricValue::Float(0.0));
    }

    #[test]
    fn malformed_metric_spec_fails_fast_and_unknown_surfaces_at_run() {
        let trace = small_trace();
        let err = Simulation::new(&trace).metrics(&["delay:norm"]);
        assert!(matches!(err, Err(SimError::Metric(MetricError::BadSyntax { .. }))));
        let err = Simulation::new(&trace)
            .scheduler("fifo")
            .unwrap()
            .metrics(&["vibes"])
            .unwrap()
            .run_report();
        assert!(matches!(err, Err(SimError::Metric(MetricError::UnknownMetric { .. }))));
    }

    #[test]
    fn run_matrix_reports_match_individual_runs_and_carry_provenance() {
        let specs: Vec<SchedulerSpec> =
            ["fifo", "fairshare"].iter().map(|s| s.parse().unwrap()).collect();
        let session = Simulation::session()
            .workload("fpt:k=2")
            .unwrap()
            .horizon(400)
            .seed(9)
            .metrics(&["delay", "psi"])
            .unwrap();
        let reports = session.run_matrix_reports(&specs).unwrap();
        assert_eq!(reports.len(), 2);
        for (spec, report) in specs.iter().zip(&reports) {
            assert_eq!(report.scheduler_spec.as_ref().unwrap(), spec);
            assert_eq!(report.workload_spec.as_ref().unwrap().to_string(), "fpt:k=2");
            assert_eq!(report.seed, 9);
            let solo = Simulation::session()
                .workload("fpt:k=2")
                .unwrap()
                .scheduler_spec(spec.clone())
                .horizon(400)
                .seed(9)
                .metrics(&["delay", "psi"])
                .unwrap()
                .run_report()
                .unwrap();
            assert_eq!(
                report.column("psi").unwrap().per_org,
                solo.column("psi").unwrap().per_org,
                "matrix report diverged from solo run for {spec}"
            );
            assert_eq!(
                report.column("delay").unwrap().aggregate,
                solo.column("delay").unwrap().aggregate
            );
        }
    }

    #[test]
    fn run_grid_reports_collect_typed_errors_and_continue() {
        let workloads: Vec<WorkloadSpec> =
            ["fpt:k=2", "fpt:k=0"].iter().map(|s| s.parse().unwrap()).collect();
        let schedulers: Vec<SchedulerSpec> =
            ["fifo", "roundrobin"].iter().map(|s| s.parse().unwrap()).collect();
        let cells = Simulation::session()
            .horizon(300)
            .seed(5)
            .metrics(&["completed", "psi"])
            .unwrap()
            .run_grid_reports(&workloads, &schedulers);
        assert_eq!(cells.len(), 4);
        for cell in &cells {
            if cell.workload.to_string() == "fpt:k=0" {
                assert!(matches!(
                    cell.report,
                    Err(SimError::Workload(WorkloadError::BadParam { .. }))
                ));
            } else {
                let report = cell.report.as_ref().unwrap();
                assert_eq!(report.workload_spec.as_ref().unwrap(), &cell.workload);
                assert_eq!(report.scheduler_spec.as_ref().unwrap(), &cell.scheduler);
                assert_eq!(report.metric_specs(), ["completed", "psi"]);
            }
        }
    }

    /// The time axis flows through the session pipeline transparently:
    /// a `timeline` spec triggers the automatic REF run, the report
    /// carries the series, and its endpoint equals the scalar `delay`.
    #[test]
    fn run_report_carries_timeline_series() {
        let trace = small_trace();
        let report = Simulation::new(&trace)
            .scheduler("fifo")
            .unwrap()
            .horizon(50)
            .metrics(&["delay", "timeline:samples=8"])
            .unwrap()
            .run_report()
            .unwrap();
        assert_eq!(report.metric_specs(), ["delay", "timeline:samples=8"]);
        let series = report.time_series("timeline:samples=8").unwrap();
        assert_eq!(*series.times.last().unwrap(), 50);
        assert_eq!(
            series.final_aggregate().unwrap(),
            report.column("delay").unwrap().aggregate,
            "trajectory endpoint must equal the scalar delay"
        );
        // The timeline alone also triggers the automatic reference run.
        let solo = Simulation::new(&trace)
            .scheduler("fifo")
            .unwrap()
            .horizon(50)
            .metrics(&["timeline:samples=8"])
            .unwrap()
            .run_report()
            .unwrap();
        assert_eq!(solo.time_series("timeline:samples=8").unwrap(), series);
        // A zero sample count is a typed error, not the core panic.
        let err = Simulation::new(&trace)
            .scheduler("fifo")
            .unwrap()
            .horizon(50)
            .metrics(&["timeline:samples=0"])
            .unwrap()
            .run_report();
        assert!(matches!(err, Err(SimError::Metric(MetricError::BadParam { .. }))));
    }

    #[test]
    fn grid_reports_carry_timeline_series() {
        let cells = Simulation::session()
            .horizon(300)
            .seed(5)
            .metrics(&["timeline:samples=6"])
            .unwrap()
            .run_grid_reports(
                &["fpt:k=2".parse().unwrap()],
                &["fifo".parse().unwrap(), "fairshare".parse().unwrap()],
            );
        assert_eq!(cells.len(), 2);
        for cell in &cells {
            let report = cell.report.as_ref().unwrap();
            let s = report.time_series("timeline:samples=6").unwrap();
            assert_eq!(*s.times.last().unwrap(), 300);
            assert_eq!(s.aggregate.len(), s.times.len());
            assert!(s.times.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// A registry whose `ref` factory counts its builds (and, when
    /// `fails`, returns the typed build error REF gives a trace with too
    /// many organizations).
    fn counting_registry(fails: bool) -> (Registry, Arc<AtomicUsize>) {
        use fairsched_core::scheduler::registry::{SchedulerFactory, SchedulerKind};
        use fairsched_core::scheduler::RefScheduler;
        use fairsched_core::spec::Factory;
        struct CountingRef {
            builds: Arc<AtomicUsize>,
            fails: bool,
        }
        impl Factory<SchedulerKind> for CountingRef {
            fn name(&self) -> &str {
                "ref"
            }
            fn summary(&self) -> &str {
                "test-only build-counting REF"
            }
            fn conformance_specs(&self) -> Vec<SchedulerSpec> {
                vec![SchedulerSpec::bare("ref")]
            }
        }
        impl SchedulerFactory for CountingRef {
            fn build(
                &self,
                spec: &SchedulerSpec,
                ctx: &BuildContext<'_>,
            ) -> Result<Box<dyn Scheduler>, SpecError> {
                self.builds.fetch_add(1, Ordering::Relaxed);
                if self.fails {
                    return Err(spec.unsupported_trace("test-only failure"));
                }
                Ok(Box::new(RefScheduler::new(ctx.trace)))
            }
        }
        let builds = Arc::new(AtomicUsize::new(0));
        let mut registry = Registry::default();
        registry.register(Box::new(CountingRef { builds: builds.clone(), fails }));
        (registry, builds)
    }

    fn parse_all(specs: &[&str]) -> Vec<SchedulerSpec> {
        specs.iter().map(|s| s.parse().unwrap()).collect()
    }

    /// What a row shares: REF is built once when a metric compares
    /// against it — by the row's own bare `ref` cell if it has one,
    /// wherever that cell stands — and never for reference-free metrics.
    /// Both row-level paths (the `ReportRow` the experiment runner drives
    /// cell by cell, and `run_matrix_reports`) agree with stand-alone
    /// `run_report` calls cell for cell.
    #[test]
    fn a_row_builds_the_reference_at_most_once() {
        let trace = small_trace();
        let with_ref = parse_all(&[
            "fifo",
            "roundrobin",
            "ref",
            "fairshare",
            "rand:perms=5",
            "directcontr",
        ]);
        let without_ref = parse_all(&["fifo", "roundrobin", "rand:perms=5"]);
        for (specs, metrics, expected_builds) in [
            (&with_ref, ["delay", "psi"], 1),
            (&without_ref, ["delay", "psi"], 1),
            (&without_ref, ["flow", "psi"], 0),
            (&with_ref, ["flow", "psi"], 1),
        ] {
            let (registry, builds) = counting_registry(false);
            let session = Simulation::new(&trace)
                .registry(&registry)
                .horizon(50)
                .seed(7)
                .metrics(&metrics)
                .unwrap();
            let mut row = session.report_row(&trace, None);
            let serial: Vec<Report> =
                specs.iter().map(|spec| row.report(spec).unwrap()).collect();
            assert_eq!(
                builds.swap(0, Ordering::Relaxed),
                expected_builds,
                "row {specs:?}"
            );
            let matrix = session.run_matrix_reports(specs).unwrap();
            assert_eq!(
                builds.swap(0, Ordering::Relaxed),
                expected_builds,
                "matrix {specs:?}"
            );
            for ((spec, serial), matrix) in specs.iter().zip(&serial).zip(&matrix) {
                let solo = Simulation::new(&trace)
                    .horizon(50)
                    .seed(7)
                    .metrics(&metrics)
                    .unwrap()
                    .scheduler_spec(spec.clone())
                    .run_report()
                    .unwrap();
                assert_eq!(serial.to_json(), solo.to_json(), "row cell {spec}");
                assert_eq!(matrix.to_json(), solo.to_json(), "matrix cell {spec}");
            }
        }
    }

    /// A reference that cannot be built is one attempt and the same typed
    /// error on every cell that needs it; a cell's own error still comes
    /// first, and reference-free metrics never notice.
    #[test]
    fn a_failed_reference_fails_the_cells_that_need_it_with_one_error() {
        let trace = small_trace();
        let specs = parse_all(&["fifo", "warp-drive", "ref", "roundrobin"]);
        let (registry, builds) = counting_registry(true);
        let session = Simulation::new(&trace).registry(&registry).horizon(50);
        let mut row = session.metrics(&["delay"]).unwrap().report_row(&trace, None);
        let errors: Vec<SimError> =
            specs.iter().map(|spec| row.report(spec).unwrap_err()).collect();
        assert_eq!(builds.swap(0, Ordering::Relaxed), 1);
        for (spec, error) in specs.iter().zip(&errors) {
            match error {
                SimError::Spec(SpecError::UnknownScheduler { .. }) => {
                    assert_eq!(spec.name(), "warp-drive")
                }
                SimError::Spec(SpecError::UnsupportedTrace { scheduler, .. }) => {
                    assert_eq!(scheduler, "ref");
                    assert_ne!(spec.name(), "warp-drive");
                }
                other => panic!("{spec}: unexpected error {other}"),
            }
        }
        let session = Simulation::new(&trace).registry(&registry).horizon(50);
        let reports = session
            .metrics(&["psi"])
            .unwrap()
            .run_matrix_reports(&parse_all(&["fifo", "roundrobin"]))
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(builds.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn seed_reaches_randomized_schedulers() {
        let trace = small_trace();
        let run = |seed| {
            Simulation::new(&trace)
                .scheduler("random")
                .unwrap()
                .horizon(40)
                .seed(seed)
                .run()
                .unwrap()
                .schedule
                .entries()
                .to_vec()
        };
        assert_eq!(run(5), run(5));
    }
}

//! The `ExperimentSpec` JSON format: a whole grid sweep as pure data.
//!
//! A spec names the three registry axes by their canonical spec strings
//! (the same `name[:key=value,...]` grammar the CLI, bench, and session
//! API use), plus the run settings:
//!
//! ```json
//! {
//!   "schema": "fairsched-experiment/v1",
//!   "name": "tiny-grid",
//!   "workloads": ["fpt:k=2", "fpt:k=3"],
//!   "schedulers": ["fifo", "roundrobin"],
//!   "metrics": ["delay", "psi"],
//!   "horizon": 400,
//!   "validate": false,
//!   "seeds": { "base": 3, "count": 2, "workload_stride": 1, "scheduler_stride": 1 },
//!   "retry": { "max_attempts": 3, "backoff_ms": 10 }
//! }
//! ```
//!
//! `metrics`, `horizon`, `validate`, `seeds`, and `retry` are optional;
//! their defaults reproduce [`Simulation::run_grid_reports`] behavior
//! (default metric set, run-to-completion horizon, no validation, one
//! instance at seed 0). The [`SeedPlan`] strides decouple the workload
//! and scheduler seed axes: instance `i` builds workloads at `base +
//! i·workload_stride` and seeds schedulers at `base +
//! i·scheduler_stride`, generalizing the historical fixed `base_seed + i`
//! shift (equal strides — the default — keep both axes coupled and match
//! `run_grid_reports` with session seed `base + i·stride` exactly).
//!
//! [`Simulation::run_grid_reports`]: fairsched_sim::Simulation::run_grid_reports

use fairsched_core::model::Time;
use fairsched_core::scheduler::registry::SchedulerSpec;
use fairsched_sim::report::MetricSpec;
use fairsched_sim::DEFAULT_REPORT_METRICS;
use fairsched_workloads::spec::WorkloadSpec;
use serde::Value;
use std::fmt;

/// The `schema` tag every experiment spec document must carry.
pub const SPEC_SCHEMA: &str = "fairsched-experiment/v1";

/// Why an experiment spec document was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecLoadError {
    /// Where in the document (`workloads[1]`, `seeds.count`, …).
    pub at: String,
    /// What was wrong there.
    pub reason: String,
}

impl SpecLoadError {
    fn new(at: impl Into<String>, reason: impl Into<String>) -> Self {
        SpecLoadError { at: at.into(), reason: reason.into() }
    }
}

impl fmt::Display for SpecLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad experiment spec at {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for SpecLoadError {}

/// The seed axes of an experiment: instance `i` builds its workloads at
/// [`SeedPlan::workload_seed`]`(i)` and seeds its schedulers at
/// [`SeedPlan::scheduler_seed`]`(i)`.
///
/// Seeds live on the `u64` ring (strides deliberately wrap), so any
/// base/stride/count combination is valid data rather than a panic.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SeedPlan {
    /// The seed of instance 0 (both axes).
    pub base: u64,
    /// How many instances to run.
    pub count: u64,
    /// Per-instance step of the workload seed axis.
    pub workload_stride: u64,
    /// Per-instance step of the scheduler seed axis.
    pub scheduler_stride: u64,
}

impl Default for SeedPlan {
    fn default() -> Self {
        SeedPlan { base: 0, count: 1, workload_stride: 1, scheduler_stride: 1 }
    }
}

impl SeedPlan {
    /// The workload-build seed of instance `i`.
    pub fn workload_seed(&self, instance: u64) -> u64 {
        self.base.wrapping_add(instance.wrapping_mul(self.workload_stride))
    }

    /// The scheduler/session seed of instance `i`.
    pub fn scheduler_seed(&self, instance: u64) -> u64 {
        self.base.wrapping_add(instance.wrapping_mul(self.scheduler_stride))
    }

    /// Whether the two seed axes ever diverge.
    pub fn decoupled(&self) -> bool {
        self.workload_stride != self.scheduler_stride
    }
}

/// Retry policy for transient (io) failures: at most `max_attempts`
/// tries per operation, sleeping `backoff_ms · 2^(attempt-1)` between
/// them (capped — see [`RetryPolicy::backoff_for`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries per filesystem operation (≥ 1).
    pub max_attempts: u32,
    /// Base backoff in milliseconds before the second attempt.
    pub backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, backoff_ms: 10 }
    }
}

/// The largest grid a spec may name. The runner enumerates every cell
/// key up front, so an unbounded `seeds.count` would exhaust memory
/// before the first cell ran; paper-scale Table 1 is 2 400 cells.
pub const MAX_CELLS: u64 = 1 << 20;

/// The longest single backoff sleep, so a misconfigured spec cannot park
/// the runner for minutes between retries.
pub const MAX_BACKOFF_MS: u64 = 250;

impl RetryPolicy {
    /// The bounded sleep after failed attempt number `attempt` (1-based):
    /// exponential in the attempt index, capped at [`MAX_BACKOFF_MS`].
    pub fn backoff_for(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(16);
        self.backoff_ms.saturating_mul(1u64 << shift).min(MAX_BACKOFF_MS)
    }
}

/// A full experiment: the three spec axes plus run settings. See the
/// [module docs](self) for the JSON format.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentSpec {
    /// Display name (also the default run-directory stem).
    pub name: String,
    /// The workload axis, in grid order.
    pub workloads: Vec<WorkloadSpec>,
    /// The scheduler axis, in grid order.
    pub schedulers: Vec<SchedulerSpec>,
    /// The metrics every cell evaluates.
    pub metrics: Vec<MetricSpec>,
    /// Evaluation horizon; `None` runs each trace to completion.
    pub horizon: Option<Time>,
    /// Whether to run post-run schedule validation per cell.
    pub validate: bool,
    /// The seed axes.
    pub seeds: SeedPlan,
    /// Transient-failure retry policy.
    pub retry: RetryPolicy,
}

impl ExperimentSpec {
    /// A minimal spec over the given axes with all-default settings
    /// (default metric set, completion horizon, one instance at seed 0).
    pub fn new(
        name: impl Into<String>,
        workloads: Vec<WorkloadSpec>,
        schedulers: Vec<SchedulerSpec>,
    ) -> Self {
        ExperimentSpec {
            name: name.into(),
            workloads,
            schedulers,
            metrics: default_metrics(),
            horizon: None,
            validate: false,
            seeds: SeedPlan::default(),
            retry: RetryPolicy::default(),
        }
    }

    /// Total cell count: `instances × workloads × schedulers`.
    pub fn n_cells(&self) -> u64 {
        self.seeds
            .count
            .saturating_mul(self.workloads.len() as u64)
            .saturating_mul(self.schedulers.len() as u64)
    }

    /// The canonical JSON tree (the inverse of
    /// [`ExperimentSpec::from_json_value`]; all defaults written out, so
    /// two specs are equal iff their trees are).
    pub fn to_json_value(&self) -> Value {
        let specs =
            |it: Vec<String>| Value::Array(it.into_iter().map(Value::String).collect());
        Value::Object(vec![
            ("schema".into(), Value::String(SPEC_SCHEMA.into())),
            ("name".into(), Value::String(self.name.clone())),
            (
                "workloads".into(),
                specs(self.workloads.iter().map(|w| w.to_string()).collect()),
            ),
            (
                "schedulers".into(),
                specs(self.schedulers.iter().map(|s| s.to_string()).collect()),
            ),
            (
                "metrics".into(),
                specs(self.metrics.iter().map(|m| m.to_string()).collect()),
            ),
            (
                "horizon".into(),
                match self.horizon {
                    Some(h) => Value::Number(h.to_string()),
                    None => Value::Null,
                },
            ),
            ("validate".into(), Value::Bool(self.validate)),
            (
                "seeds".into(),
                Value::Object(vec![
                    ("base".into(), Value::Number(self.seeds.base.to_string())),
                    ("count".into(), Value::Number(self.seeds.count.to_string())),
                    (
                        "workload_stride".into(),
                        Value::Number(self.seeds.workload_stride.to_string()),
                    ),
                    (
                        "scheduler_stride".into(),
                        Value::Number(self.seeds.scheduler_stride.to_string()),
                    ),
                ]),
            ),
            (
                "retry".into(),
                Value::Object(vec![
                    (
                        "max_attempts".into(),
                        Value::Number(self.retry.max_attempts.to_string()),
                    ),
                    (
                        "backoff_ms".into(),
                        Value::Number(self.retry.backoff_ms.to_string()),
                    ),
                ]),
            ),
        ])
    }

    /// The canonical pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json_pretty()
    }

    /// Parses a spec document from its JSON tree. Spec strings are
    /// validated syntactically (and canonicalized); unknown registry
    /// names surface later as typed per-cell errors, so a spec written
    /// for a downstream registry still loads.
    pub fn from_json_value(v: &Value) -> Result<ExperimentSpec, SpecLoadError> {
        let obj = |v: &Value| -> bool { matches!(v, Value::Object(_)) };
        if !obj(v) {
            return Err(SpecLoadError::new("document", "expected a JSON object"));
        }
        match v.get("schema") {
            Some(Value::String(s)) if s == SPEC_SCHEMA => {}
            Some(Value::String(s)) => {
                return Err(SpecLoadError::new(
                    "schema",
                    format!("expected {SPEC_SCHEMA:?}, found {s:?}"),
                ))
            }
            _ => {
                return Err(SpecLoadError::new(
                    "schema",
                    format!("missing schema tag (expected {SPEC_SCHEMA:?})"),
                ))
            }
        }
        let name = match v.get("name") {
            Some(Value::String(s)) if !s.is_empty() => s.clone(),
            Some(_) => return Err(SpecLoadError::new("name", "expected a string")),
            None => return Err(SpecLoadError::new("name", "missing")),
        };
        let workloads =
            parse_spec_list::<WorkloadSpec>(v, "workloads", /* required: */ true)?;
        let schedulers =
            parse_spec_list::<SchedulerSpec>(v, "schedulers", /* required: */ true)?;
        let mut metrics = parse_spec_list::<MetricSpec>(v, "metrics", false)?;
        if metrics.is_empty() {
            metrics = default_metrics();
        }
        let horizon = match v.get("horizon") {
            None | Some(Value::Null) => None,
            Some(other) => Some(number::<Time>(other, "horizon")?),
        };
        let validate = match v.get("validate") {
            None => false,
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err(SpecLoadError::new("validate", "expected a bool")),
        };
        let defaults = SeedPlan::default();
        let seeds = match v.get("seeds") {
            None => defaults,
            Some(seeds) if obj(seeds) => SeedPlan {
                base: opt_number(seeds, "seeds.base", "base", defaults.base)?,
                count: opt_number(seeds, "seeds.count", "count", defaults.count)?,
                workload_stride: opt_number(
                    seeds,
                    "seeds.workload_stride",
                    "workload_stride",
                    defaults.workload_stride,
                )?,
                scheduler_stride: opt_number(
                    seeds,
                    "seeds.scheduler_stride",
                    "scheduler_stride",
                    defaults.scheduler_stride,
                )?,
            },
            Some(_) => return Err(SpecLoadError::new("seeds", "expected an object")),
        };
        if seeds.count == 0 {
            return Err(SpecLoadError::new("seeds.count", "must be at least 1"));
        }
        let rd = RetryPolicy::default();
        let retry = match v.get("retry") {
            None => rd,
            Some(retry) if obj(retry) => RetryPolicy {
                max_attempts: opt_number(
                    retry,
                    "retry.max_attempts",
                    "max_attempts",
                    rd.max_attempts,
                )?,
                backoff_ms: opt_number(
                    retry,
                    "retry.backoff_ms",
                    "backoff_ms",
                    rd.backoff_ms,
                )?,
            },
            Some(_) => return Err(SpecLoadError::new("retry", "expected an object")),
        };
        if retry.max_attempts == 0 {
            return Err(SpecLoadError::new("retry.max_attempts", "must be at least 1"));
        }
        let spec = ExperimentSpec {
            name,
            workloads,
            schedulers,
            metrics,
            horizon,
            validate,
            seeds,
            retry,
        };
        let cells = spec.n_cells();
        if cells > MAX_CELLS {
            return Err(SpecLoadError::new(
                "seeds.count",
                format!("the grid has {cells} cells, more than the {MAX_CELLS} allowed"),
            ));
        }
        Ok(spec)
    }

    /// Parses a spec from JSON text (the CLI's `experiment run FILE`
    /// input).
    pub fn from_json_str(text: &str) -> Result<ExperimentSpec, SpecLoadError> {
        let value = serde_json::parse_value(text).map_err(|e| {
            SpecLoadError::new("document", format!("does not parse as JSON: {e:?}"))
        })?;
        ExperimentSpec::from_json_value(&value)
    }
}

/// The default metric axis: the session API's
/// [`DEFAULT_REPORT_METRICS`], as bare specs.
pub fn default_metrics() -> Vec<MetricSpec> {
    DEFAULT_REPORT_METRICS.iter().map(|s| MetricSpec::bare(*s)).collect()
}

fn number<T: std::str::FromStr>(v: &Value, at: &str) -> Result<T, SpecLoadError> {
    match v {
        Value::Number(text) => text
            .parse()
            .map_err(|_| SpecLoadError::new(at, format!("bad number {text:?}"))),
        _ => Err(SpecLoadError::new(at, "expected a number")),
    }
}

fn opt_number<T: std::str::FromStr>(
    parent: &Value,
    at: &str,
    key: &str,
    default: T,
) -> Result<T, SpecLoadError> {
    match parent.get(key) {
        None => Ok(default),
        Some(v) => number(v, at),
    }
}

fn parse_spec_list<T>(
    v: &Value,
    key: &str,
    required: bool,
) -> Result<Vec<T>, SpecLoadError>
where
    T: std::str::FromStr,
    T::Err: fmt::Display,
{
    let items = match v.get(key) {
        Some(Value::Array(items)) => items,
        Some(_) => return Err(SpecLoadError::new(key, "expected an array of strings")),
        None if required => return Err(SpecLoadError::new(key, "missing")),
        None => return Ok(Vec::new()),
    };
    if required && items.is_empty() {
        return Err(SpecLoadError::new(key, "must not be empty"));
    }
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let at = format!("{key}[{i}]");
        match item {
            Value::String(s) => out.push(
                s.parse::<T>().map_err(|e| SpecLoadError::new(&at, e.to_string()))?,
            ),
            _ => return Err(SpecLoadError::new(&at, "expected a spec string")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(
            "tiny",
            vec!["fpt:k=2".parse().unwrap()],
            vec!["fifo".parse().unwrap(), "roundrobin".parse().unwrap()],
        );
        spec.metrics = vec!["delay".parse().unwrap(), "psi".parse().unwrap()];
        spec.horizon = Some(400);
        spec.seeds =
            SeedPlan { base: 3, count: 2, workload_stride: 1, scheduler_stride: 1 };
        spec
    }

    #[test]
    fn json_round_trip_is_identity() {
        let spec = tiny();
        let reparsed = ExperimentSpec::from_json_str(&spec.to_json()).unwrap();
        assert_eq!(spec, reparsed);
        assert_eq!(spec.to_json(), reparsed.to_json());
    }

    #[test]
    fn seed_strides_round_trip_and_evaluate() {
        let mut spec = tiny();
        spec.seeds =
            SeedPlan { base: 10, count: 3, workload_stride: 100, scheduler_stride: 7 };
        let reparsed = ExperimentSpec::from_json_str(&spec.to_json()).unwrap();
        assert_eq!(reparsed.seeds, spec.seeds);
        assert!(reparsed.seeds.decoupled());
        assert_eq!(reparsed.seeds.workload_seed(2), 210);
        assert_eq!(reparsed.seeds.scheduler_seed(2), 24);
        // Equal strides (the default) keep the axes coupled.
        assert!(!SeedPlan::default().decoupled());
        assert_eq!(SeedPlan::default().workload_seed(5), 5);
    }

    #[test]
    fn defaults_fill_in_when_fields_are_omitted() {
        let minimal = r#"{
            "schema": "fairsched-experiment/v1",
            "name": "m",
            "workloads": ["fpt:k=2"],
            "schedulers": ["fifo"]
        }"#;
        let spec = ExperimentSpec::from_json_str(minimal).unwrap();
        assert_eq!(spec.metrics, default_metrics());
        assert_eq!(spec.horizon, None);
        assert!(!spec.validate);
        assert_eq!(spec.seeds, SeedPlan::default());
        assert_eq!(spec.retry, RetryPolicy::default());
        assert_eq!(spec.n_cells(), 1);
    }

    #[test]
    fn bad_documents_are_typed_errors() {
        let cases: &[(&str, &str)] = &[
            (r#"{"name": "x"}"#, "schema"),
            (r#"{"schema": "fairsched-experiment/v2", "name": "x"}"#, "schema"),
            (r#"{"schema": "fairsched-experiment/v1"}"#, "name"),
            (
                r#"{"schema": "fairsched-experiment/v1", "name": "x",
                    "workloads": [], "schedulers": ["fifo"]}"#,
                "workloads",
            ),
            (
                r#"{"schema": "fairsched-experiment/v1", "name": "x",
                    "workloads": ["fpt:k"], "schedulers": ["fifo"]}"#,
                "workloads[0]",
            ),
            (
                r#"{"schema": "fairsched-experiment/v1", "name": "x",
                    "workloads": ["fpt:k=2"], "schedulers": ["fifo"],
                    "seeds": {"count": 0}}"#,
                "seeds.count",
            ),
            (
                r#"{"schema": "fairsched-experiment/v1", "name": "x",
                    "workloads": ["fpt:k=2"], "schedulers": ["fifo"],
                    "retry": {"max_attempts": 0}}"#,
                "retry.max_attempts",
            ),
        ];
        for (doc, at) in cases {
            let err = ExperimentSpec::from_json_str(doc).unwrap_err();
            assert_eq!(&err.at, at, "{err}");
        }
    }

    /// A huge seed count used to reach `cell_keys`, which materialises
    /// every key: `experiment status` hung and `experiment run` aborted
    /// out of memory after committing `spec.json`.
    #[test]
    fn oversized_grids_are_rejected_at_load() {
        let doc = |count: u64| {
            format!(
                r#"{{"schema": "fairsched-experiment/v1", "name": "x",
                    "workloads": ["fpt:k=2", "fpt:k=3"], "schedulers": ["fifo"],
                    "seeds": {{"count": {count}}}}}"#
            )
        };
        for count in [u64::MAX, MAX_CELLS / 2 + 1] {
            let err = ExperimentSpec::from_json_str(&doc(count)).unwrap_err();
            assert_eq!(err.at, "seeds.count", "{err}");
        }
        let largest = ExperimentSpec::from_json_str(&doc(MAX_CELLS / 2)).unwrap();
        assert_eq!(largest.n_cells(), MAX_CELLS);
    }

    #[test]
    fn spec_strings_are_canonicalized() {
        let doc = r#"{
            "schema": "fairsched-experiment/v1",
            "name": "c",
            "workloads": ["fpt:k=2,horizon=800"],
            "schedulers": ["rand:perms=5"],
            "metrics": ["delay:norm=ideal"]
        }"#;
        let spec = ExperimentSpec::from_json_str(doc).unwrap();
        // Params sort by key in canonical form.
        assert_eq!(spec.workloads[0].to_string(), "fpt:horizon=800,k=2");
        assert_eq!(spec.metrics[0].to_string(), "delay:norm=ideal");
    }

    #[test]
    fn backoff_is_exponential_and_bounded() {
        let retry = RetryPolicy { max_attempts: 10, backoff_ms: 10 };
        assert_eq!(retry.backoff_for(1), 10);
        assert_eq!(retry.backoff_for(2), 20);
        assert_eq!(retry.backoff_for(3), 40);
        assert_eq!(retry.backoff_for(9), MAX_BACKOFF_MS);
        // Huge attempt indices stay bounded instead of overflowing.
        assert_eq!(retry.backoff_for(u32::MAX), MAX_BACKOFF_MS);
    }
}

//! The durable runner: executes a grid spec cell by cell, committing
//! each result atomically and resuming from whatever survived a crash.
//!
//! Durability invariants (the kill-point sweep in the facade tests
//! crashes at every [`SITES`](crate::failpoint::SITES) entry to prove
//! them):
//!
//! 1. **Atomic commits.** Every file the runner produces — the spec
//!    snapshot, each cell, the six final sinks — is written to a
//!    `*.tmp` scratch file and `rename`d into place, so a crash leaves
//!    either the old state or the new state, never a torn file. The
//!    journal is append-only and its reader tolerates a torn final line.
//! 2. **Cells are the source of truth.** Resume decodes the committed
//!    `cells/*.json` files (checking each one's embedded canonical key
//!    against the expected key) and recomputes exactly the cells that are
//!    missing, torn, or mismatched. The journal is advisory — corrupting
//!    or deleting it loses nothing.
//! 3. **One decode path.** The final report is always aggregated from
//!    *encoded* cells — freshly computed cells are round-tripped through
//!    the same [`encode_cell`]/[`decode_cell`] pair that resume uses — so
//!    an interrupted-and-resumed run emits byte-identical
//!    `report.{json,csv,txt}` and `summary.{json,csv,txt}` to an
//!    uninterrupted one by construction.
//!
//! Computation is shared per grid *row* — the consecutive cells that
//! differ only in their scheduler build one trace and run the REF
//! reference at most once (see [`compute_cell`]) — but nothing about a
//! row is durable: only cells are committed.
//!
//! Transient failures (real io errors and injected [`Fault::Io`]) are
//! retried per the spec's [`RetryPolicy`] with bounded exponential
//! backoff; cells whose simulation fails become typed `failed` entries in
//! the final report instead of aborting the sweep.

use crate::cell::{cell_keys, decode_cell, encode_cell, CellKey, StoredCell};
use crate::failpoint::{Fault, FaultPlan};
use crate::journal::{self, Journal, JournalEntry};
use crate::spec::{ExperimentSpec, SpecLoadError};
use fairsched_core::Trace;
use fairsched_sim::report::{csv_field, LabeledStat, SummaryTable};
use fairsched_sim::{Report, ReportRow, SimError, Simulation};
use fairsched_workloads::spec::{WorkloadContext, WorkloadRegistry};
use serde::Value;
use std::cell::OnceCell;
use std::path::{Path, PathBuf};

/// The `schema` tag of the final aggregated `report.json`.
pub const REPORT_SCHEMA: &str = "fairsched-experiment-report/v1";

/// How a run executes.
#[derive(Debug, Default)]
pub struct RunnerOptions {
    /// Continue a previous run in the same directory, skipping every
    /// intact committed cell. Without this, a directory that already
    /// holds a run is an error (never silently clobber results).
    pub resume: bool,
    /// The deterministic fault schedule (empty in production).
    pub faults: FaultPlan,
}

/// What a completed run did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Total cells in the grid.
    pub total: u64,
    /// Cells computed by this invocation.
    pub computed: u64,
    /// Cells skipped because an intact committed result existed.
    pub skipped: u64,
    /// Cells whose outcome is a typed failure (stored or fresh).
    pub failed: u64,
    /// Transient-failure retries performed across all writes.
    pub retried: u64,
}

/// A point-in-time view of a run directory (`experiment status`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatusSummary {
    /// Total cells in the grid.
    pub total: u64,
    /// Cells with an intact committed successful report.
    pub done: u64,
    /// Cells with an intact committed typed failure.
    pub failed: u64,
    /// Cells not yet committed (missing, torn, or key-mismatched).
    pub pending: u64,
    /// Intact journal entries.
    pub journal_entries: u64,
    /// Whether the journal ends in a torn line (crash signature).
    pub journal_truncated: bool,
}

/// The six aggregated sinks, as file contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FinalReport {
    /// `report.json` — machine-readable, exact values.
    pub json: String,
    /// `report.csv` — one block per cell, exact values.
    pub csv: String,
    /// `report.txt` — human-oriented aligned tables.
    pub table: String,
    /// `summary.json` — the mean ± sd tables (see [`aggregate`]) as one
    /// JSON array, exact values.
    pub summary_json: String,
    /// `summary.csv` — one block per summary table, exact values.
    pub summary_csv: String,
    /// `summary.txt` — the summary tables in paper layout.
    pub summary_table: String,
}

/// Why a run stopped (as opposed to degrading per cell).
#[derive(Clone, Debug)]
pub enum RunnerError {
    /// An armed crash fail point fired (simulated `kill -9`).
    Crash {
        /// The site that fired.
        site: String,
    },
    /// A filesystem operation failed even after retries, on a file the
    /// run cannot proceed without (spec snapshot, journal, final report).
    Io(SimError),
    /// The spec document was rejected.
    Spec(SpecLoadError),
    /// The directory already holds a run and `--resume` was not given.
    DirExists {
        /// The offending directory.
        dir: String,
    },
    /// Resuming against a directory whose spec snapshot differs from the
    /// requested spec — the cells there answer a different experiment.
    SpecMismatch {
        /// The offending directory.
        dir: String,
    },
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunnerError::Crash { site } => {
                write!(f, "simulated crash at fail point {site}")
            }
            RunnerError::Io(e) => write!(f, "{e}"),
            RunnerError::Spec(e) => write!(f, "{e}"),
            RunnerError::DirExists { dir } => write!(
                f,
                "run directory {dir} already holds an experiment \
                 (pass --resume to continue it)"
            ),
            RunnerError::SpecMismatch { dir } => write!(
                f,
                "run directory {dir} was created by a different spec \
                 (its cells answer a different experiment)"
            ),
        }
    }
}

impl std::error::Error for RunnerError {}

/// A write-path outcome: crash aborts the run, io feeds the retry loop.
enum WriteError {
    Crash { site: String },
    Io(SimError),
}

impl From<WriteError> for RunnerError {
    fn from(e: WriteError) -> Self {
        match e {
            WriteError::Crash { site } => RunnerError::Crash { site },
            WriteError::Io(e) => RunnerError::Io(e),
        }
    }
}

/// The durable experiment runner for one spec × one run directory.
#[derive(Debug)]
pub struct Runner {
    spec: ExperimentSpec,
    dir: PathBuf,
    options: RunnerOptions,
    retried: u64,
}

impl Runner {
    /// Binds `spec` to run directory `dir` under `options`.
    pub fn new(
        spec: ExperimentSpec,
        dir: impl Into<PathBuf>,
        options: RunnerOptions,
    ) -> Self {
        Runner { spec, dir: dir.into(), options, retried: 0 }
    }

    /// The path of a cell's committed file.
    fn cell_path(&self, key: &CellKey) -> PathBuf {
        self.dir.join("cells").join(key.file_name())
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }

    fn spec_path(&self) -> PathBuf {
        self.dir.join("spec.json")
    }

    /// Registers one pass through a fail point.
    fn check_site(&mut self, site: &str) -> Result<(), WriteError> {
        match self.options.faults.check(site) {
            None => Ok(()),
            Some(Fault::Crash { site }) => Err(WriteError::Crash { site }),
            Some(Fault::Io { site }) => Err(WriteError::Io(SimError::Io {
                op: "inject".into(),
                path: site,
                message: "injected io fault".into(),
            })),
        }
    }

    /// One write-then-rename commit ([`fairsched_core::journal`]'s two
    /// halves), passing through the `{prefix}.tmp` and `{prefix}.commit`
    /// fail points (the two distinct crash windows).
    fn try_atomic_write(
        &mut self,
        prefix: &str,
        path: &Path,
        contents: &str,
    ) -> Result<(), WriteError> {
        self.check_site(&format!("{prefix}.tmp"))?;
        let tmp = fairsched_core::journal::write_scratch(path, contents)
            .map_err(|e| WriteError::Io(SimError::from(e)))?;
        self.check_site(&format!("{prefix}.commit"))?;
        fairsched_core::journal::commit_scratch(&tmp, path)
            .map_err(|e| WriteError::Io(SimError::from(e)))
    }

    /// [`try_atomic_write`](Self::try_atomic_write) under the spec's
    /// retry policy: transient io failures are retried with bounded
    /// backoff; crashes are never retried (a dead process retries
    /// nothing).
    fn atomic_write(
        &mut self,
        prefix: &str,
        path: &Path,
        contents: &str,
    ) -> Result<(), WriteError> {
        let retry = self.spec.retry;
        let mut attempt = 1u32;
        loop {
            match self.try_atomic_write(prefix, path, contents) {
                Ok(()) => return Ok(()),
                Err(WriteError::Crash { site }) => {
                    return Err(WriteError::Crash { site })
                }
                Err(WriteError::Io(e)) => {
                    if attempt >= retry.max_attempts {
                        return Err(WriteError::Io(e));
                    }
                    std::thread::sleep(std::time::Duration::from_millis(
                        retry.backoff_for(attempt),
                    ));
                    attempt += 1;
                    self.retried += 1;
                }
            }
        }
    }

    /// One journal append under the `journal.append` fail point and the
    /// retry policy.
    fn journal_append(&mut self, entry: &JournalEntry) -> Result<(), WriteError> {
        let retry = self.spec.retry;
        let path = self.journal_path();
        let mut attempt = 1u32;
        loop {
            let fired = self.check_site("journal.append");
            let result = match fired {
                Err(e) => Err(e),
                Ok(()) => journal::append(&path, entry).map_err(WriteError::Io),
            };
            match result {
                Ok(()) => return Ok(()),
                Err(WriteError::Crash { site }) => {
                    return Err(WriteError::Crash { site })
                }
                Err(WriteError::Io(e)) => {
                    if attempt >= retry.max_attempts {
                        return Err(WriteError::Io(e));
                    }
                    std::thread::sleep(std::time::Duration::from_millis(
                        retry.backoff_for(attempt),
                    ));
                    attempt += 1;
                    self.retried += 1;
                }
            }
        }
    }

    /// Reads and decodes a committed cell, validating its embedded key;
    /// anything missing, torn, or mismatched is `None` (recompute).
    fn read_stored(&self, key: &CellKey) -> Option<StoredCell> {
        let text = std::fs::read_to_string(self.cell_path(key)).ok()?;
        let value = serde_json::parse_value(&text).ok()?;
        let stored = decode_cell(&value)?;
        (stored.key == key.canonical()).then_some(stored)
    }

    /// Ensures the run directory exists and holds this spec's snapshot.
    fn prepare_dir(&mut self) -> Result<(), RunnerError> {
        let spec_path = self.spec_path();
        let have_snapshot = spec_path.exists();
        if have_snapshot && !self.options.resume {
            return Err(RunnerError::DirExists { dir: self.dir.display().to_string() });
        }
        std::fs::create_dir_all(self.dir.join("cells"))
            .map_err(|e| RunnerError::Io(SimError::io("create-dir", &self.dir, &e)))?;
        let canonical = self.spec.to_json_value();
        if have_snapshot {
            let text = std::fs::read_to_string(&spec_path)
                .map_err(|e| RunnerError::Io(SimError::io("read", &spec_path, &e)))?;
            let stored = serde_json::parse_value(&text)
                .ok()
                .and_then(|v| ExperimentSpec::from_json_value(&v).ok().map(|_| v));
            match stored {
                Some(v) if v == canonical => Ok(()),
                _ => {
                    Err(RunnerError::SpecMismatch { dir: self.dir.display().to_string() })
                }
            }
        } else {
            let mut text = canonical.to_json_pretty();
            text.push('\n');
            self.atomic_write("spec", &spec_path, &text).map_err(RunnerError::from)
        }
    }

    /// Runs the experiment to completion (or to the first crash /
    /// non-degradable io failure), then writes the three aggregated
    /// report sinks and the three summary sinks.
    pub fn run(&mut self) -> Result<RunSummary, RunnerError> {
        self.prepare_dir()?;
        let keys = cell_keys(&self.spec);
        let mut summary =
            RunSummary { total: keys.len() as u64, ..RunSummary::default() };
        let mut outcomes: Vec<(CellKey, StoredCell)> = Vec::with_capacity(keys.len());
        // Rows are the unit of computation, cells the unit of durability:
        // a row's trace and REF reference are made once, by the first
        // pending cell that needs them (a fully committed row builds
        // nothing), while every pending cell is still journaled and
        // committed on its own, in grid order — so the fail-point hit
        // sequence and every committed byte are those of a cell-by-cell
        // run, and a resume landing mid-row computes exactly what is
        // missing.
        let row_lens: Vec<usize> =
            keys.chunk_by(CellKey::same_row).map(<[CellKey]>::len).collect();
        let mut keys = keys.into_iter();
        for row_len in row_lens {
            let trace = OnceCell::new();
            let mut row: Option<Result<ReportRow<'_>, SimError>> = None;
            for key in keys.by_ref().take(row_len) {
                if let Some(stored) = self.read_stored(&key) {
                    summary.skipped += 1;
                    if stored.status == "failed" {
                        summary.failed += 1;
                    }
                    outcomes.push((key, stored));
                    continue;
                }
                let canonical = key.canonical();
                self.journal_append(&JournalEntry {
                    cell: canonical.clone(),
                    state: "running".into(),
                    attempt: 1,
                })?;
                let row = row.get_or_insert_with(|| {
                    match trace.get_or_init(|| row_trace(&key)) {
                        Ok(trace) => Ok(open_row(&key, trace)),
                        Err(e) => Err(e.clone()),
                    }
                });
                let computed = match row {
                    Ok(row) => row.report(&key.scheduler),
                    Err(e) => Err(e.clone()),
                };
                let encoded = encode_cell(&key, &computed);
                let mut text = encoded.to_json_pretty();
                text.push('\n');
                // The single decode path: even a freshly computed cell is
                // consumed through the same decoder resume uses, so the
                // aggregation below cannot depend on how the cell was obtained.
                let Some(mut stored) = decode_cell(&encoded) else {
                    // encode/decode are inverses for every SimError and every
                    // Report the simulator can produce; reaching this means a
                    // bug, which must surface as a typed failure, not a panic.
                    return Err(RunnerError::Io(SimError::Io {
                        op: "decode".into(),
                        path: self.cell_path(&key).display().to_string(),
                        message: "freshly encoded cell failed to decode".into(),
                    }));
                };
                let cell_path = self.cell_path(&key);
                match self.atomic_write("cell", &cell_path, &text) {
                    Ok(()) => {}
                    Err(WriteError::Crash { site }) => {
                        return Err(RunnerError::Crash { site })
                    }
                    Err(WriteError::Io(e)) => {
                        // Degrade: the sweep continues, this cell's outcome is
                        // a typed io failure (and, being uncommitted, resume
                        // will recompute it).
                        stored = match decode_cell(&encode_cell(&key, &Err(e))) {
                            Some(s) => s,
                            None => stored,
                        };
                    }
                }
                summary.computed += 1;
                let state = if stored.status == "failed" {
                    summary.failed += 1;
                    "failed"
                } else {
                    "done"
                };
                self.journal_append(&JournalEntry {
                    cell: canonical,
                    state: state.into(),
                    attempt: 1,
                })?;
                outcomes.push((key, stored));
            }
        }
        summary.retried = self.retried;
        let report = aggregate(&self.spec, &outcomes);
        for (name, contents) in [
            ("report.json", &report.json),
            ("report.csv", &report.csv),
            ("report.txt", &report.table),
            ("summary.json", &report.summary_json),
            ("summary.csv", &report.summary_csv),
            ("summary.txt", &report.summary_table),
        ] {
            let path = self.dir.join(name);
            self.atomic_write("report", &path, contents)?;
        }
        Ok(summary)
    }

    /// Inspects a run directory without executing anything.
    pub fn status(spec: &ExperimentSpec, dir: &Path) -> Result<StatusSummary, SimError> {
        let runner = Runner::new(spec.clone(), dir, RunnerOptions::default());
        let mut status = StatusSummary::default();
        for key in cell_keys(spec) {
            status.total += 1;
            match runner.read_stored(&key) {
                Some(stored) if stored.status == "failed" => status.failed += 1,
                Some(_) => status.done += 1,
                None => status.pending += 1,
            }
        }
        let Journal { entries, truncated } =
            journal::read_journal(&runner.journal_path())?;
        status.journal_entries = entries.len() as u64;
        status.journal_truncated = truncated;
        Ok(status)
    }
}

/// Builds the trace of `key`'s row, at the row's workload seed.
fn row_trace(key: &CellKey) -> Result<Trace, SimError> {
    WorkloadRegistry::shared()
        .build(&key.workload, &WorkloadContext { seed: key.workload_seed })
        .map_err(SimError::Workload)
}

/// Opens `key`'s row over its trace: the session runs at the scheduler
/// seed (for coupled seed plans that is the workload seed too, which is
/// what [`Simulation::run_grid_reports`] does with its one session seed)
/// and the reports keep the workload's provenance.
fn open_row<'t>(key: &CellKey, trace: &'t Trace) -> ReportRow<'t> {
    let mut session = Simulation::session()
        .metric_specs(key.metrics.clone())
        .validate(key.validate)
        .seed(key.scheduler_seed);
    if let Some(h) = key.horizon {
        session = session.horizon(h);
    }
    session.report_row(trace, Some(key.workload.clone()))
}

/// Computes one cell, purely: no filesystem side effects, so a crash can
/// never leave a half-computed cell behind. This is the row of one cell —
/// the [`Runner`] opens the same [`ReportRow`] once per grid row and asks
/// it for each pending cell, so a cell computed here and one computed
/// inside a shared row are the same bytes.
pub fn compute_cell(key: &CellKey) -> Result<Report, SimError> {
    let trace = row_trace(key)?;
    open_row(key, &trace).report(&key.scheduler)
}

/// Builds the six final sinks from decoded cells. Pure and deterministic
/// in its inputs — this is the *only* producer of the final artifacts,
/// which is what makes clean and resumed runs byte-identical.
///
/// The `report.*` sinks list every cell. The `summary.*` sinks hold one
/// mean ± sd [`SummaryTable`] per scalar metric, in spec order: titled by
/// the spec name, a column per workload spec, a row per scheduler spec,
/// each cell [`LabeledStat::from_values`] over the done instances'
/// aggregates in instance order (the paper's Tables 1–2 and Figure 10).
pub fn aggregate(spec: &ExperimentSpec, cells: &[(CellKey, StoredCell)]) -> FinalReport {
    let done = cells.iter().filter(|(_, s)| s.status == "done").count();
    let failed = cells.len() - done;

    // report.json: schema + counts + every cell in grid order.
    let mut cell_values = Vec::with_capacity(cells.len());
    for (key, stored) in cells {
        let mut fields = vec![
            ("workload".into(), Value::String(key.workload.to_string())),
            ("scheduler".into(), Value::String(key.scheduler.to_string())),
            ("instance".into(), Value::Number(key.instance.to_string())),
            ("workload_seed".into(), Value::Number(key.workload_seed.to_string())),
            ("scheduler_seed".into(), Value::Number(key.scheduler_seed.to_string())),
            ("status".into(), Value::String(stored.status.clone())),
        ];
        match (&stored.report, &stored.error) {
            (Some(report), _) => fields.push(("report".into(), report.to_json_value())),
            (None, Some(error)) => {
                fields.push(("error".into(), Value::String(error.clone())))
            }
            (None, None) => {}
        }
        cell_values.push(Value::Object(fields));
    }
    let mut json = Value::Object(vec![
        ("schema".into(), Value::String(REPORT_SCHEMA.into())),
        ("name".into(), Value::String(spec.name.clone())),
        ("total".into(), Value::Number(cells.len().to_string())),
        ("done".into(), Value::Number(done.to_string())),
        ("failed".into(), Value::Number(failed.to_string())),
        ("cells".into(), Value::Array(cell_values)),
    ])
    .to_json_pretty();
    json.push('\n');

    // report.csv / report.txt: one block per cell, using the existing
    // per-report sinks verbatim.
    let mut csv = String::new();
    let mut table = String::new();
    for (i, (key, stored)) in cells.iter().enumerate() {
        let head = format!(
            "cell {i}: workload={} scheduler={} instance={} status={}",
            key.workload, key.scheduler, key.instance, stored.status
        );
        if i > 0 {
            csv.push('\n');
            table.push('\n');
        }
        csv.push_str(&format!("# {head}\n"));
        table.push_str(&format!("== {head} ==\n"));
        match (&stored.report, &stored.error) {
            (Some(report), _) => {
                csv.push_str(&report.to_csv());
                table.push_str(&report.render_table());
            }
            (None, Some(error)) => {
                csv.push_str(&format!("error,{}\n", csv_field(error)));
                table.push_str(&format!("error: {error}\n"));
            }
            (None, None) => {}
        }
    }
    let tables = summary_tables(spec, cells);
    let mut summary_json =
        Value::Array(tables.iter().map(serde::Serialize::to_value).collect())
            .to_json_pretty();
    summary_json.push('\n');
    let blocks = |render: fn(&SummaryTable) -> String, open: &str, close: &str| {
        let rendered: Vec<String> = tables
            .iter()
            .map(|t| format!("{open}{}{close}\n{}", t.metric, render(t)))
            .collect();
        rendered.join("\n")
    };
    FinalReport {
        json,
        csv,
        table,
        summary_json,
        summary_csv: blocks(SummaryTable::to_csv, "# ", ""),
        summary_table: blocks(SummaryTable::render, "== ", " =="),
    }
}

/// The summary tables of [`aggregate`], in one pass over the cells.
/// Failed cells are left out, and a metric no done cell evaluates as a
/// scalar (the `timeline` family) gives no table.
fn summary_tables(
    spec: &ExperimentSpec,
    cells: &[(CellKey, StoredCell)],
) -> Vec<SummaryTable> {
    let (n_workloads, n_schedulers) = (spec.workloads.len(), spec.schedulers.len());
    // values[m][w][s]: metric m's aggregates for workload w and scheduler
    // s, in instance order; `None` until a done cell evaluates m.
    let mut values: Vec<Option<Vec<Vec<Vec<f64>>>>> = vec![None; spec.metrics.len()];
    for (key, stored) in cells {
        let Some(report) = &stored.report else { continue };
        let w = spec.workloads.iter().position(|w| *w == key.workload);
        let s = spec.schedulers.iter().position(|s| *s == key.scheduler);
        let (Some(w), Some(s)) = (w, s) else { continue };
        for column in &report.columns {
            if let Some(m) = spec.metrics.iter().position(|m| *m == column.spec) {
                values[m].get_or_insert_with(|| {
                    vec![vec![Vec::new(); n_schedulers]; n_workloads]
                })[w][s]
                    .push(column.aggregate.as_f64());
            }
        }
    }
    spec.metrics
        .iter()
        .zip(values)
        .filter_map(|(metric, values)| {
            Some(SummaryTable {
                title: spec.name.clone(),
                metric: metric.to_string(),
                columns: spec.workloads.iter().map(ToString::to_string).collect(),
                cells: values?
                    .into_iter()
                    .map(|column| {
                        spec.schedulers
                            .iter()
                            .zip(column)
                            .map(|(s, v)| LabeledStat::from_values(s.to_string(), v))
                            .collect()
                    })
                    .collect(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::FaultMode;
    use crate::spec::SeedPlan;

    fn tiny_spec(name: &str) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(
            name,
            vec!["fpt:horizon=200,k=2".parse().unwrap()],
            vec!["fifo".parse().unwrap(), "roundrobin".parse().unwrap()],
        );
        spec.metrics = vec!["completed".parse().unwrap(), "psi".parse().unwrap()];
        spec.horizon = Some(200);
        spec.seeds =
            SeedPlan { base: 3, count: 1, workload_stride: 1, scheduler_stride: 1 };
        spec
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        crate::scratch_dir(&format!("runner-{tag}"))
    }

    fn read(dir: &Path, name: &str) -> String {
        std::fs::read_to_string(dir.join(name)).unwrap()
    }

    #[test]
    fn clean_run_commits_everything_and_resume_recomputes_nothing() {
        let spec = tiny_spec("clean");
        let dir = fresh_dir("clean");
        let summary =
            Runner::new(spec.clone(), &dir, RunnerOptions::default()).run().unwrap();
        assert_eq!((summary.total, summary.computed, summary.skipped), (2, 2, 0));
        assert_eq!(summary.failed, 0);
        let status = Runner::status(&spec, &dir).unwrap();
        assert_eq!((status.done, status.pending, status.failed), (2, 0, 0));
        assert!(!status.journal_truncated);
        assert_eq!(status.journal_entries, 4); // running + done, per cell

        // Re-running without --resume refuses; with it, zero recompute
        // and byte-identical artifacts.
        let before = (
            read(&dir, "report.json"),
            read(&dir, "report.csv"),
            read(&dir, "report.txt"),
        );
        let again = Runner::new(spec.clone(), &dir, RunnerOptions::default()).run();
        assert!(matches!(again, Err(RunnerError::DirExists { .. })));
        let resumed = Runner::new(
            spec,
            &dir,
            RunnerOptions { resume: true, ..RunnerOptions::default() },
        )
        .run()
        .unwrap();
        assert_eq!((resumed.computed, resumed.skipped), (0, 2));
        let after = (
            read(&dir, "report.json"),
            read(&dir, "report.csv"),
            read(&dir, "report.txt"),
        );
        assert_eq!(before, after);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_json_decodes_with_committed_schema() {
        // The decode test schema_registry.toml points at for
        // "fairsched-experiment-report/v1": a fresh run's report.json
        // must parse and carry the committed schema tag plus the
        // structural fields downstream consumers key on, so a silent
        // format bump breaks here before it breaks an archive reader.
        let spec = tiny_spec("schema");
        let dir = fresh_dir("schema");
        Runner::new(spec, &dir, RunnerOptions::default()).run().unwrap();
        let doc = serde_json::parse_value(&read(&dir, "report.json")).unwrap();
        assert_eq!(doc.get("schema"), Some(&Value::String(REPORT_SCHEMA.into())));
        assert_eq!(doc.get("total"), Some(&Value::Number("2".into())));
        assert_eq!(doc.get("done"), Some(&Value::Number("2".into())));
        assert_eq!(doc.get("failed"), Some(&Value::Number("0".into())));
        let Some(Value::Array(cells)) = doc.get("cells") else {
            panic!("report.json has no cells array: {doc:?}");
        };
        assert_eq!(cells.len(), 2);
        for cell in cells {
            for field in ["workload", "scheduler", "instance", "status", "report"] {
                assert!(cell.get(field).is_some(), "cell missing {field}");
            }
            assert_eq!(cell.get("status"), Some(&Value::String("done".into())));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn io_faults_are_retried_within_policy() {
        let spec = tiny_spec("retry");
        let dir = fresh_dir("retry");
        let faults = FaultPlan::none().arm("cell.tmp", 1, FaultMode::Io).arm(
            "journal.append",
            2,
            FaultMode::Io,
        );
        let summary =
            Runner::new(spec.clone(), &dir, RunnerOptions { resume: false, faults })
                .run()
                .unwrap();
        assert_eq!(summary.computed, 2);
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.retried, 2);
        assert_eq!(Runner::status(&spec, &dir).unwrap().done, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_cell_write_degrades_to_failed_entry() {
        let mut spec = tiny_spec("degrade");
        spec.retry.max_attempts = 1;
        let dir = fresh_dir("degrade");
        // Arm the first cell's scratch write only.
        let faults = FaultPlan::none().arm("cell.tmp", 1, FaultMode::Io);
        let summary =
            Runner::new(spec.clone(), &dir, RunnerOptions { resume: false, faults })
                .run()
                .unwrap();
        assert_eq!((summary.computed, summary.failed), (2, 1));
        assert!(read(&dir, "report.json").contains("injected io fault"));
        // The degraded cell was never committed: resume recomputes it and
        // heals the report.
        let resumed = Runner::new(
            spec.clone(),
            &dir,
            RunnerOptions { resume: true, ..RunnerOptions::default() },
        )
        .run()
        .unwrap();
        assert_eq!((resumed.computed, resumed.skipped, resumed.failed), (1, 1, 0));
        assert!(!read(&dir, "report.json").contains("injected io fault"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_scheduler_is_a_typed_failed_cell_not_an_abort() {
        let mut spec = tiny_spec("badcell");
        spec.schedulers.push("no-such-policy".parse().unwrap());
        let dir = fresh_dir("badcell");
        let summary =
            Runner::new(spec.clone(), &dir, RunnerOptions::default()).run().unwrap();
        assert_eq!((summary.total, summary.failed), (3, 1));
        let status = Runner::status(&spec, &dir).unwrap();
        assert_eq!((status.done, status.failed, status.pending), (2, 1, 0));
        assert!(read(&dir, "report.csv").contains("status=failed"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_mismatch_on_resume_is_refused() {
        let spec = tiny_spec("mismatch");
        let dir = fresh_dir("mismatch");
        Runner::new(spec.clone(), &dir, RunnerOptions::default()).run().unwrap();
        let mut other = spec;
        other.seeds.base = 99;
        let err = Runner::new(
            other,
            &dir,
            RunnerOptions { resume: true, ..RunnerOptions::default() },
        )
        .run()
        .unwrap_err();
        assert!(matches!(err, RunnerError::SpecMismatch { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs `spec` cleanly in a fresh directory.
    fn run_fresh(spec: &ExperimentSpec, tag: &str) -> (RunSummary, PathBuf) {
        let dir = fresh_dir(tag);
        let summary =
            Runner::new(spec.clone(), &dir, RunnerOptions::default()).run().unwrap();
        (summary, dir)
    }

    /// Every cell of the grid, computed and decoded as the runner does.
    fn decoded_cells(spec: &ExperimentSpec) -> Vec<(CellKey, StoredCell)> {
        cell_keys(spec)
            .into_iter()
            .map(|key| {
                let stored =
                    decode_cell(&encode_cell(&key, &compute_cell(&key))).unwrap();
                (key, stored)
            })
            .collect()
    }

    fn labels(table: &SummaryTable) -> Vec<&str> {
        table.cells[0].iter().map(|s| s.label.as_str()).collect()
    }

    #[test]
    fn summary_skips_failed_cells_and_series_metrics_in_spec_order() {
        let mut spec = tiny_spec("summary");
        spec.schedulers = ["roundrobin", "no-such-policy", "fifo"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        spec.metrics = ["timeline:samples=4", "psi", "completed"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        spec.seeds.count = 2;
        let cells = decoded_cells(&spec);
        let tables = summary_tables(&spec, &cells);
        // The series-only `timeline` gives no table; the scalars keep
        // spec order.
        let metrics: Vec<&str> = tables.iter().map(|t| t.metric.as_str()).collect();
        assert_eq!(metrics, ["psi", "completed"]);
        for (m, table) in tables.iter().enumerate() {
            assert_eq!(table.title, "summary");
            assert_eq!(table.columns, ["fpt:horizon=200,k=2"]);
            assert_eq!(labels(table), ["roundrobin", "no-such-policy", "fifo"]);
            // The failed cells are left out; the others list their
            // instances in order.
            assert!(table.cells[0][1].values.is_empty());
            for (row, scheduler) in [(0, "roundrobin"), (2, "fifo")] {
                let expected: Vec<f64> = cells
                    .iter()
                    .filter(|(k, _)| k.scheduler.to_string() == scheduler)
                    .map(|(_, s)| {
                        s.report.as_ref().unwrap().columns[m].aggregate.as_f64()
                    })
                    .collect();
                assert_eq!(table.cells[0][row].values, expected, "{scheduler}");
                assert_eq!(expected.len(), 2);
            }
        }
        let report = aggregate(&spec, &cells);
        let json = serde_json::parse_value(&report.summary_json).unwrap();
        assert!(matches!(json, Value::Array(ref t) if t.len() == 2));
        assert!(report.summary_csv.starts_with("# psi\nalgorithm,"));
        assert!(report.summary_csv.contains("\n\n# completed\n"));
        assert!(report.summary_table.starts_with("== psi ==\nsummary\n"));
        assert!(report.summary_table.contains("\n\n== completed ==\n"));
    }

    #[test]
    fn stats_math() {
        let mut spec = tiny_spec("stats");
        spec.metrics = vec!["psi".parse().unwrap()];
        spec.seeds.count = 2;
        let tables = summary_tables(&spec, &decoded_cells(&spec));
        for stat in &tables[0].cells[0] {
            let [a, b] = stat.values[..] else { panic!("two instances: {stat:?}") };
            assert_eq!(stat.mean, (a + b) / 2.0);
            assert!((stat.sd - (a - b).abs() / std::f64::consts::SQRT_2).abs() < 1e-9);
        }
    }

    /// A synth workload's grid gives one summary row per scheduler, one
    /// value per instance.
    #[test]
    fn experiment_produces_stats_per_algo() {
        let mut spec = ExperimentSpec::new(
            "synth",
            vec!["synth:horizon=2000,orgs=3,preset=lpc,scale=0.1".parse().unwrap()],
            ["roundrobin", "fairshare", "rand:perms=5"]
                .iter()
                .map(|s| s.parse().unwrap())
                .collect(),
        );
        spec.metrics = vec!["delay".parse().unwrap()];
        spec.horizon = Some(2_000);
        spec.seeds.base = 7;
        spec.seeds.count = 2;
        let table = summary_tables(&spec, &decoded_cells(&spec)).remove(0);
        assert_eq!(labels(&table), ["roundrobin", "fairshare", "rand:perms=5"]);
        for s in &table.cells[0] {
            assert_eq!(s.values.len(), 2);
            assert!(s.mean >= 0.0 && s.sd >= 0.0);
        }
    }

    /// The fpt family reaches the runner like the synth presets do, and
    /// summary columns carry the canonical workload spec.
    #[test]
    fn fpt_workload_specs_run_in_experiments() {
        let mut spec = tiny_spec("fpt");
        // lint:allow(spec-literal) unsorted input; asserts it canonicalizes
        spec.workloads = vec!["fpt:k=3,horizon=600".parse().unwrap()];
        spec.horizon = Some(600);
        let table = summary_tables(&spec, &decoded_cells(&spec)).remove(0);
        assert_eq!(table.columns, ["fpt:horizon=600,k=3"]);
        assert!(table.cells[0].iter().all(|s| s.values.len() == 1));
    }

    /// Summary rows are labelled by canonical scheduler spec strings, so
    /// any registered spec is a row.
    #[test]
    fn spec_rows_run_in_experiments() {
        let mut spec = tiny_spec("spec-rows");
        spec.schedulers = vec![
            "general-ref:util=flowtime".parse().unwrap(),
            "rand:perms=3".parse().unwrap(),
        ];
        let table = summary_tables(&spec, &decoded_cells(&spec)).remove(0);
        assert_eq!(labels(&table), ["general-ref:util=flowtime", "rand:perms=3"]);
    }

    /// A clean run leaves no cell out of its summary.
    #[test]
    fn outcome_has_no_failures_on_clean_run() {
        let mut spec = tiny_spec("clean-summary");
        spec.seeds.count = 2;
        let (summary, dir) = run_fresh(&spec, "clean-summary");
        assert_eq!(summary.failed, 0);
        for table in summary_tables(&spec, &decoded_cells(&spec)) {
            assert!(table.cells[0].iter().all(|s| s.values.len() == 2));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn instance_is_deterministic() {
        let key = cell_keys(&tiny_spec("det")).remove(1);
        assert_eq!(
            compute_cell(&key).unwrap().to_json(),
            compute_cell(&key).unwrap().to_json()
        );
    }

    /// A scheduler spec its factory rejects fails every instance as a
    /// typed cell, and the healthy row still aggregates.
    #[test]
    fn bad_scheduler_is_reported_per_instance_not_panicked() {
        let mut spec = tiny_spec("bad-scheduler");
        spec.schedulers = vec!["rand:perms=0".parse().unwrap(), "fifo".parse().unwrap()];
        spec.seeds.count = 2;
        let (summary, dir) = run_fresh(&spec, "bad-scheduler");
        assert_eq!((summary.total, summary.failed), (4, 2));
        assert!(read(&dir, "report.json").contains("perms"));
        let table = summary_tables(&spec, &decoded_cells(&spec)).remove(0);
        assert!(table.cells[0][0].values.is_empty());
        assert_eq!(table.cells[0][1].values.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A workload that cannot be built fails every cell as a typed entry
    /// and leaves nothing to summarise.
    #[test]
    fn invalid_workload_spec_is_collected_not_panicked() {
        let mut spec = tiny_spec("bad-workload");
        // scale=0 violates the synth factory's (0, 1] constraint; the
        // second family is deliberately unregistered.
        spec.workloads = vec![
            "synth:preset=lpc,scale=0".parse().unwrap(),
            // lint:allow(spec-literal) deliberately unregistered family.
            "quantumfoam:qubits=8".parse().unwrap(),
        ];
        let (summary, dir) = run_fresh(&spec, "bad-workload");
        assert_eq!((summary.total, summary.failed), (4, 4));
        assert_eq!(read(&dir, "summary.json"), "[]\n");
        let report = read(&dir, "report.txt");
        assert_eq!(report.matches("bad value for synth:scale").count(), 2, "{report}");
        assert_eq!(report.matches("unknown workload").count(), 2, "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Instance seeds live on the `u64` ring: a base seed at the top
    /// wraps to 0 on both axes instead of overflowing.
    #[test]
    fn instance_seeds_wrap_around_the_u64_ring() {
        let mut spec = tiny_spec("wrap");
        spec.seeds.base = u64::MAX;
        spec.seeds.count = 2;
        let seeds: Vec<(u64, u64)> = cell_keys(&spec)
            .iter()
            .map(|k| (k.workload_seed, k.scheduler_seed))
            .collect();
        assert_eq!(seeds, [(u64::MAX, u64::MAX), (u64::MAX, u64::MAX), (0, 0), (0, 0)]);
        let (summary, dir) = run_fresh(&spec, "wrap");
        assert_eq!(summary.failed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `timeline` cell's final sample equals the same cell's `delay`
    /// aggregate bit for bit, so the trajectory ends on the table value.
    #[test]
    fn timeline_metric_cells_project_to_the_final_point() {
        let mut spec = tiny_spec("timeline");
        spec.metrics =
            vec!["delay".parse().unwrap(), "timeline:samples=16".parse().unwrap()];
        for (key, stored) in decoded_cells(&spec) {
            let report = stored.report.unwrap();
            let delay = report.columns[0].aggregate.as_f64();
            let last = report.series[0].final_aggregate().unwrap().as_f64();
            assert_eq!(last.to_bits(), delay.to_bits(), "{}", key.scheduler);
        }
    }

    #[test]
    fn crash_fault_stops_the_run_with_the_site() {
        let spec = tiny_spec("crash");
        let dir = fresh_dir("crash");
        let faults = FaultPlan::none().arm("cell.commit", 1, FaultMode::Crash);
        let err = Runner::new(spec, &dir, RunnerOptions { resume: false, faults })
            .run()
            .unwrap_err();
        assert!(
            matches!(&err, RunnerError::Crash { site } if site == "cell.commit"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

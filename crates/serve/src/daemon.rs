//! The serving daemon: a [`SimSession`] wrapped in a crash-safe control
//! loop over the [`SubmissionQueue`].
//!
//! State on disk (all JSON, all committed atomically):
//!
//! * `config.json` — workload/scheduler/seed identity, written once at
//!   init; reopening with a different identity is refused.
//! * `queue/accepted/` — the journal: the totally-ordered message log
//!   (owned by [`SubmissionQueue`]).
//! * `snapshot.json` — `{schema, applied_seq, stopped, session}`: the
//!   session's replay-based snapshot plus the journal position it covers.
//!   Rewritten once the applied journal tail beyond it reaches
//!   `SNAPSHOT_EVERY` (64) messages, and whenever a `stop` is applied —
//!   not after every message: its cost grows with history, the cost of
//!   replaying a bounded tail does not.
//! * `trace.json`, `schedule.json` — the finalized run, written by
//!   [`Daemon::finalize`] on clean shutdown.
//!
//! The recovery invariant: **journal ∘ snapshot = state**. On open, the
//! daemon restores the snapshot (or starts fresh from `config.json`) and
//! replays the accepted tail `seq > applied_seq` — at most
//! `SNAPSHOT_EVERY` journal files, whatever the history. The invariant
//! holds for a snapshot of any staleness: because the engine is
//! deterministic and results are rewritten idempotently, a `kill -9`
//! anywhere — before acceptance, between acceptance and result, between
//! result and snapshot — loses nothing and changes no byte of the final
//! schedule (the headline integration test drives exactly this).

use crate::http::Endpoints;
use crate::message::Message;
use crate::queue::SubmissionQueue;
use fairsched_core::fairness::{schedule_series, timeline_sample_times};
use fairsched_core::journal::{atomic_write, FsError};
use fairsched_core::model::OrgId;
use fairsched_sim::{
    MetricRegistry, MetricSpec, Report, SimError, SimSession, Simulation,
    DEFAULT_REPORT_METRICS,
};
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The schema tag of `config.json`.
pub const CONFIG_SCHEMA: &str = "fairsched-serve-config/v1";
/// The schema tag of `snapshot.json`.
pub const SNAPSHOT_SCHEMA: &str = "fairsched-serve-snapshot/v1";
/// How many applied journal messages may lie beyond `snapshot.json`
/// before it is rewritten: the bound on what a reopen replays.
const SNAPSHOT_EVERY: u64 = 64;
/// Sample count for the `/series` endpoint's ψ_sp timeline.
const SERIES_SAMPLES: usize = 64;

/// Everything that can go wrong in the serve layer.
#[derive(Debug)]
pub enum ServeError {
    /// The engine or scheduler failed (typed, from `fairsched-sim`).
    Sim(SimError),
    /// A filesystem step failed.
    Fs(FsError),
    /// `config.json` is missing, malformed, or conflicts with the
    /// requested identity.
    Config {
        /// What was wrong.
        message: String,
    },
    /// A persisted artifact (snapshot, endpoint document) failed to
    /// render or re-parse.
    Render {
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Sim(e) => write!(f, "{e}"),
            ServeError::Fs(e) => write!(f, "{e}"),
            ServeError::Config { message } => write!(f, "bad serve config: {message}"),
            ServeError::Render { message } => write!(f, "render failure: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(e)
    }
}

impl From<FsError> for ServeError {
    fn from(e: FsError) -> Self {
        ServeError::Fs(e)
    }
}

/// The daemon's durable identity: which workload seeds the base trace,
/// which scheduler runs it, under which seed. Fixed at init.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Workload registry spec (e.g. `fpt:k=4`, `synth:preset=ricc`).
    pub workload: String,
    /// Scheduler registry spec (e.g. `ref`, `fairshare`).
    pub scheduler: String,
    /// Seed for both workload generation and the scheduler.
    pub seed: u64,
}

impl ServeConfig {
    /// The config path under `dir`.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join("config.json")
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("schema".to_string(), Value::String(CONFIG_SCHEMA.to_string())),
            ("workload".to_string(), Value::String(self.workload.clone())),
            ("scheduler".to_string(), Value::String(self.scheduler.clone())),
            ("seed".to_string(), self.seed.to_value()),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, ServeError> {
        check_schema(v, CONFIG_SCHEMA)?;
        Ok(ServeConfig {
            workload: config_field(v, "workload")?,
            scheduler: config_field(v, "scheduler")?,
            seed: config_field(v, "seed")?,
        })
    }

    /// Loads `dir/config.json`.
    pub fn load(dir: &Path) -> Result<Self, ServeError> {
        let path = Self::path(dir);
        let text = std::fs::read_to_string(&path).map_err(|e| ServeError::Config {
            message: format!(
                "cannot read {} ({e}); initialize the directory with \
                 `fairsched serve --dir {} --workload ... --scheduler ...`",
                path.display(),
                dir.display(),
            ),
        })?;
        let v = serde_json::parse_value(&text)
            .map_err(|e| ServeError::Config { message: e.to_string() })?;
        Self::from_value(&v)
    }

    /// Writes the config if absent; verifies it matches if present. A
    /// serve directory's identity is fixed at init — reopening with a
    /// different workload/scheduler/seed is an error, not a restart.
    pub fn init(&self, dir: &Path) -> Result<(), ServeError> {
        std::fs::create_dir_all(dir).map_err(|e| FsError::new("create-dir", dir, &e))?;
        let path = Self::path(dir);
        if path.exists() {
            let existing = Self::load(dir)?;
            if existing != *self {
                return Err(ServeError::Config {
                    message: format!(
                        "{} already initialized as workload={} scheduler={} seed={}; \
                         refusing to reopen as workload={} scheduler={} seed={}",
                        dir.display(),
                        existing.workload,
                        existing.scheduler,
                        existing.seed,
                        self.workload,
                        self.scheduler,
                        self.seed,
                    ),
                });
            }
            return Ok(());
        }
        atomic_write(&path, &self.to_value().to_json_pretty())?;
        Ok(())
    }
}

fn config_field<T: serde::Deserialize>(v: &Value, name: &str) -> Result<T, ServeError> {
    serde::field(v, name, "ServeConfig")
        .map_err(|e| ServeError::Config { message: e.to_string() })
}

fn check_schema(v: &Value, expected: &str) -> Result<(), ServeError> {
    match v.get("schema") {
        Some(Value::String(s)) if s == expected => Ok(()),
        Some(Value::String(s)) => Err(ServeError::Config {
            message: format!("schema {s:?}, expected {expected:?}"),
        }),
        _ => Err(ServeError::Config {
            message: format!("missing schema tag (expected {expected:?})"),
        }),
    }
}

/// The online scheduling daemon: session + queue + journal position.
pub struct Daemon {
    dir: PathBuf,
    config: ServeConfig,
    queue: SubmissionQueue,
    session: SimSession,
    /// Highest journal sequence number applied to the session.
    applied_seq: u64,
    /// The journal position `snapshot.json` covers (0 before the first).
    snapshot_seq: u64,
    /// Next sequence number to assign on acceptance.
    next_seq: u64,
    stopped: bool,
    endpoints: Arc<Mutex<Endpoints>>,
}

impl Daemon {
    /// Opens the serve directory: loads `config.json`, restores
    /// `snapshot.json` if present (else builds the session fresh from
    /// the configured workload), replays the accepted journal tail, and
    /// renders the endpoint documents.
    pub fn open(dir: &Path) -> Result<Daemon, ServeError> {
        let config = ServeConfig::load(dir)?;
        let queue = SubmissionQueue::open(dir)?;
        let snapshot_path = dir.join("snapshot.json");
        let (session, applied_seq, stopped) = if snapshot_path.exists() {
            let text = std::fs::read_to_string(&snapshot_path)
                .map_err(|e| FsError::new("read", &snapshot_path, &e))?;
            let v = serde_json::parse_value(&text)
                .map_err(|e| ServeError::Render { message: e.to_string() })?;
            check_schema(&v, SNAPSHOT_SCHEMA)?;
            let applied_seq: u64 = serde::field(&v, "applied_seq", "ServeSnapshot")
                .map_err(|e| ServeError::Render { message: e.to_string() })?;
            let session_value = v.get("session").ok_or_else(|| ServeError::Render {
                message: "snapshot missing session".to_string(),
            })?;
            // Older snapshots lack the flag; a missing field means a
            // still-running daemon wrote them.
            let stopped = matches!(v.get("stopped"), Some(Value::Bool(true)));
            (SimSession::restore_value(session_value)?, applied_seq, stopped)
        } else {
            (
                SimSession::from_workload(
                    &config.workload,
                    &config.scheduler,
                    config.seed,
                )?,
                0,
                false,
            )
        };
        let next_seq = queue.max_accepted_seq()?.map_or(1, |m| m.saturating_add(1));
        let mut daemon = Daemon {
            dir: dir.to_path_buf(),
            config,
            queue,
            session,
            applied_seq,
            snapshot_seq: applied_seq,
            next_seq,
            stopped,
            endpoints: Arc::new(Mutex::new(Endpoints::default())),
        };
        // Replay the journal tail the snapshot doesn't cover. Results are
        // rewritten idempotently; engine determinism makes the replayed
        // session byte-identical to the pre-crash one.
        for (seq, path) in daemon.queue.accepted_after(applied_seq)? {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| FsError::new("read", &path, &e))?;
            daemon.apply_text(seq, &text)?;
        }
        daemon.refresh_endpoints()?;
        Ok(daemon)
    }

    /// The serve directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The durable identity.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The underlying session (trace, schedule, stepped-to mark).
    pub fn session(&self) -> &SimSession {
        &self.session
    }

    /// Highest journal sequence number applied so far.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Whether a `stop` message has been applied.
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// The shared endpoint documents (hand to [`crate::HttpServer`]).
    pub fn endpoints(&self) -> Arc<Mutex<Endpoints>> {
        Arc::clone(&self.endpoints)
    }

    /// Decodes and applies journal entry `seq`, writing its result.
    /// Malformed text and rejected submissions become recorded rejections
    /// (the queue must never wedge on bad input); engine failures on
    /// `advance` propagate after being recorded (the loop cannot safely
    /// outlive a scheduler contract violation).
    fn apply_text(&mut self, seq: u64, text: &str) -> Result<(), ServeError> {
        let outcome = match Message::from_json(text) {
            Err(reason) => rejection(seq, "malformed", &reason),
            Ok(Message::Submit { org, release, proc_time, deadline }) => {
                match self.session.admit(OrgId(org), release, proc_time, deadline) {
                    Ok(id) => Value::Object(vec![
                        ("seq".to_string(), seq.to_value()),
                        ("ok".to_string(), Value::Bool(true)),
                        ("kind".to_string(), Value::String("submit".to_string())),
                        ("job".to_string(), id.index().to_value()),
                    ]),
                    Err(e) => rejection(seq, "submit", &e.to_string()),
                }
            }
            Ok(Message::Advance { until }) => match self.session.step(until) {
                Ok(()) => Value::Object(vec![
                    ("seq".to_string(), seq.to_value()),
                    ("ok".to_string(), Value::Bool(true)),
                    ("kind".to_string(), Value::String("advance".to_string())),
                    ("until".to_string(), until.to_value()),
                ]),
                Err(e) => {
                    // Record, then fail: replay hits the same error at the
                    // same seq, so the journal stays the source of truth.
                    let outcome = rejection(seq, "advance", &e.to_string());
                    self.queue.write_result(seq, &outcome)?;
                    self.applied_seq = seq;
                    return Err(ServeError::Sim(e));
                }
            },
            Ok(Message::Stop) => {
                self.stopped = true;
                Value::Object(vec![
                    ("seq".to_string(), seq.to_value()),
                    ("ok".to_string(), Value::Bool(true)),
                    ("kind".to_string(), Value::String("stop".to_string())),
                ])
            }
        };
        self.queue.write_result(seq, &outcome)?;
        self.applied_seq = seq;
        // The snapshot trails the journal by a bounded tail: that is what
        // keeps its O(history) rewrite off the per-message path and a
        // reopen's replay short.
        if self.stopped || seq.saturating_sub(self.snapshot_seq) >= SNAPSHOT_EVERY {
            self.persist()?;
        }
        Ok(())
    }

    /// One poll: accepts every pending inbox file (assigning sequence
    /// numbers in stamp order), applies each — which rewrites the
    /// snapshot when it has fallen `SNAPSHOT_EVERY` messages behind or a
    /// `stop` was applied — and, if anything was processed, re-renders
    /// the endpoints. Returns how many messages were processed.
    pub fn drain(&mut self) -> Result<usize, ServeError> {
        let pending = self.queue.pending()?;
        let mut processed = 0usize;
        for path in pending {
            let seq = self.next_seq;
            self.next_seq = seq.saturating_add(1);
            let journal = self.queue.accept(&path, seq)?;
            let text = std::fs::read_to_string(&journal)
                .map_err(|e| FsError::new("read", &journal, &e))?;
            self.apply_text(seq, &text)?;
            processed = processed.saturating_add(1);
            if self.stopped {
                break; // later submissions stay in the inbox, unaccepted
            }
        }
        if processed > 0 {
            self.refresh_endpoints()?;
        }
        Ok(processed)
    }

    /// Atomically writes `snapshot.json` covering the journal position.
    pub fn persist(&mut self) -> Result<(), ServeError> {
        let snapshot = Value::Object(vec![
            ("schema".to_string(), Value::String(SNAPSHOT_SCHEMA.to_string())),
            ("applied_seq".to_string(), self.applied_seq.to_value()),
            ("stopped".to_string(), Value::Bool(self.stopped)),
            ("session".to_string(), self.session.snapshot_value()),
        ]);
        atomic_write(&self.dir.join("snapshot.json"), &snapshot.to_json_pretty())?;
        self.snapshot_seq = self.applied_seq;
        Ok(())
    }

    /// The drain loop: poll the inbox every `poll_ms` until a `stop`
    /// message is applied.
    pub fn run(&mut self, poll_ms: u64) -> Result<(), ServeError> {
        while !self.stopped {
            if self.drain()? == 0 {
                std::thread::sleep(std::time::Duration::from_millis(poll_ms));
            }
        }
        Ok(())
    }

    /// Writes the finalized run — `trace.json` (the grown trace) and
    /// `schedule.json` (the schedule built so far) — for offline
    /// comparison against a batch run.
    pub fn finalize(&self) -> Result<(), ServeError> {
        atomic_write(
            &self.dir.join("trace.json"),
            &self.session.trace().to_value().to_json_pretty(),
        )?;
        atomic_write(&self.dir.join("schedule.json"), &self.schedule_json())?;
        Ok(())
    }

    fn schedule_json(&self) -> String {
        self.session.schedule().to_value().to_json_pretty()
    }

    /// The equivalence check behind the headline test: run the configured
    /// scheduler from scratch over the *grown* trace (base + admissions)
    /// to the stepped-to mark, write `schedule.batch.json`, and return
    /// whether it is byte-identical to the incrementally built schedule.
    pub fn batch_check(&self) -> Result<bool, ServeError> {
        let grown = self.session.trace().clone();
        let result = Simulation::new(&grown)
            .scheduler(&self.config.scheduler)?
            .horizon(self.session.stepped_to().unwrap_or(0))
            .seed(self.config.seed)
            .run()?;
        let batch = result.schedule.to_value().to_json_pretty();
        atomic_write(&self.dir.join("schedule.batch.json"), &batch)?;
        Ok(batch == self.schedule_json())
    }

    /// Re-renders the three endpoint documents from the live session.
    fn refresh_endpoints(&mut self) -> Result<(), ServeError> {
        let mark = self.session.stepped_to().unwrap_or(0);
        let status = Value::Object(vec![
            ("scheduler".to_string(), Value::String(self.session.scheduler_name())),
            ("scheduler_spec".to_string(), Value::String(self.config.scheduler.clone())),
            ("workload".to_string(), Value::String(self.config.workload.clone())),
            ("seed".to_string(), self.config.seed.to_value()),
            ("stepped_to".to_string(), self.session.stepped_to().to_value()),
            ("orgs".to_string(), self.session.trace().n_orgs().to_value()),
            ("jobs".to_string(), self.session.trace().n_jobs().to_value()),
            ("admissions".to_string(), self.session.admissions().len().to_value()),
            ("completed".to_string(), self.session.completed_jobs().to_value()),
            ("applied_seq".to_string(), self.applied_seq.to_value()),
            ("stopped".to_string(), Value::Bool(self.stopped)),
        ])
        .to_json();

        let specs: Vec<MetricSpec> =
            DEFAULT_REPORT_METRICS.iter().map(|s| MetricSpec::bare(*s)).collect();
        let result = self.session.result_at(mark, false)?;
        let report = Report::evaluate(
            MetricRegistry::shared(),
            &specs,
            self.session.trace(),
            &result,
            None,
        )
        .map_err(|e| ServeError::Render { message: e.to_string() })?
        .to_json();

        let times = timeline_sample_times(mark, SERIES_SAMPLES);
        let sweep =
            schedule_series(self.session.trace(), self.session.schedule(), &times);
        let series = Value::Object(vec![
            ("times".to_string(), sweep.times.to_value()),
            ("psi".to_string(), sweep.psi.to_value()),
            ("units".to_string(), sweep.units.to_value()),
            ("events_applied".to_string(), sweep.stats.events_applied.to_value()),
            ("org_evals".to_string(), sweep.stats.org_evals.to_value()),
        ])
        .to_json();

        let mut docs = self.endpoints.lock().unwrap_or_else(|e| e.into_inner());
        docs.status = status;
        docs.report = report;
        docs.series = series;
        Ok(())
    }
}

fn rejection(seq: u64, kind: &str, reason: &str) -> Value {
    Value::Object(vec![
        ("seq".to_string(), seq.to_value()),
        ("ok".to_string(), Value::Bool(false)),
        ("kind".to_string(), Value::String(kind.to_string())),
        ("error".to_string(), Value::String(reason.to_string())),
    ])
}

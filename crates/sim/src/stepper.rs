//! The resumable simulation session: step, admit, snapshot, restore.
//!
//! [`Simulation`](crate::Simulation) runs a trace to its horizon in one
//! call; [`SimSession`] is the *online* counterpart behind `fairsched
//! serve`. A session owns a trace, a scheduler instance, and the engine's
//! event-loop position ([`EngineState`]), and exposes:
//!
//! * [`step(until)`](SimSession::step) — advance the event loop to a time
//!   high-water mark, incrementally; stepping in increments is
//!   bit-identical to one batch run because both drive the *same* loop;
//! * [`admit`](SimSession::admit) — splice a new job into the running
//!   trace (release strictly after the stepped-to mark), **reusing** the
//!   scheduler's incremental state — the REF family's coalition lattice
//!   and its φ rows are not rebuilt, the new job's duration is spliced into
//!   the oracle and the lattice learns of it at `on_release`, exactly as
//!   in a batch run over the grown trace;
//! * [`snapshot`](SimSession::snapshot) / [`restore`](SimSession::restore)
//!   — a crash-safe serialized form. Snapshots are *replay-based*: they
//!   record the base trace, the scheduler spec + seed, the admission log,
//!   and the stepped-to mark. Restore rebuilds the scheduler from the
//!   base trace, replays admissions, and steps forward; engine
//!   determinism makes the restored session bit-identical to the
//!   original (pinned by a property test over random traces, schedulers,
//!   and split points).
//!
//! ```
//! use fairsched_core::model::OrgId;
//! use fairsched_core::Trace;
//! use fairsched_sim::{SimSession, Simulation};
//!
//! let mut b = Trace::builder();
//! let alpha = b.org("alpha", 1);
//! let beta = b.org("beta", 1);
//! b.job(alpha, 0, 3).job(beta, 0, 3).job(alpha, 1, 2);
//! let trace = b.build().unwrap();
//!
//! let mut session = SimSession::new(trace, "ref", 0)?;
//! session.step(2)?;
//! session.admit(OrgId(1), 5, 4, None)?; // arrives online, after t=2
//! let snap = session.snapshot();
//! let restored = SimSession::restore(&snap)?;
//! assert_eq!(
//!     session.finish(100, true)?.schedule,
//!     restored.finish(100, true)?.schedule,
//! );
//! # Ok::<(), fairsched_sim::SimError>(())
//! ```

use crate::engine::{EngineState, SimOptions, SimResult};
use crate::session::SimError;
use fairsched_core::model::{JobId, OrgId, Time, Trace};
use fairsched_core::schedule::Schedule;
use fairsched_core::scheduler::registry::{BuildContext, Registry, SchedulerSpec};
use fairsched_core::scheduler::Scheduler;
use fairsched_workloads::spec::{WorkloadContext, WorkloadRegistry};
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// The schema tag snapshots carry (bump on layout changes).
pub const SNAPSHOT_SCHEMA: &str = "fairsched-session-snapshot/v1";

/// One mid-run admission, as recorded in the snapshot's replay log.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Admission {
    /// The submitting organization.
    pub org: OrgId,
    /// Release time (strictly after the stepped-to mark at admission).
    pub release: Time,
    /// Processing time.
    pub proc_time: Time,
    /// Optional deadline (for the tardiness utility).
    pub deadline: Option<Time>,
}

/// A resumable simulation run: trace + scheduler + engine position.
pub struct SimSession {
    spec: SchedulerSpec,
    seed: u64,
    base_trace: Trace,
    trace: Trace,
    scheduler: Box<dyn Scheduler>,
    engine: EngineState,
    admissions: Vec<Admission>,
}

impl SimSession {
    /// Starts a session over `trace` with the scheduler named by spec
    /// string (resolved through [`Registry::shared`]) and `seed`.
    pub fn new(trace: Trace, scheduler_spec: &str, seed: u64) -> Result<Self, SimError> {
        let spec: SchedulerSpec = scheduler_spec.parse()?;
        Self::from_parts(trace, spec, seed)
    }

    /// Starts a session over a registered workload, by spec string: the
    /// trace is built through [`WorkloadRegistry::shared`] with `seed`.
    pub fn from_workload(
        workload_spec: &str,
        scheduler_spec: &str,
        seed: u64,
    ) -> Result<Self, SimError> {
        let wspec = workload_spec.parse::<fairsched_workloads::spec::WorkloadSpec>()?;
        let trace =
            WorkloadRegistry::shared().build(&wspec, &WorkloadContext { seed })?;
        Self::new(trace, scheduler_spec, seed)
    }

    fn from_parts(
        trace: Trace,
        spec: SchedulerSpec,
        seed: u64,
    ) -> Result<Self, SimError> {
        let mut scheduler =
            Registry::shared().build(&spec, &BuildContext { trace: &trace, seed })?;
        let engine = EngineState::new(&trace, scheduler.as_mut())?;
        Ok(SimSession {
            spec,
            seed,
            base_trace: trace.clone(),
            trace,
            scheduler,
            engine,
            admissions: Vec::new(),
        })
    }

    /// The trace as grown by admissions so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The schedule built so far.
    pub fn schedule(&self) -> &Schedule {
        self.engine.schedule()
    }

    /// How far the session has stepped (`None` before the first step).
    pub fn stepped_to(&self) -> Option<Time> {
        self.engine.stepped_to()
    }

    /// Jobs completed so far.
    pub fn completed_jobs(&self) -> usize {
        self.engine.completed_jobs()
    }

    /// The scheduler's display name.
    pub fn scheduler_name(&self) -> String {
        self.scheduler.name()
    }

    /// The scheduler spec the session was built from.
    pub fn scheduler_spec(&self) -> &SchedulerSpec {
        &self.spec
    }

    /// The session seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The mid-run admissions recorded so far, in admission order.
    pub fn admissions(&self) -> &[Admission] {
        &self.admissions
    }

    /// Advances the event loop until the next event would fall after
    /// `until` and records `until` as the stepped-to high-water mark.
    /// Stepping to an earlier time than a previous step is a no-op.
    ///
    /// # Errors
    /// [`SimError::BadSelection`] / [`SimError::BadMachinePick`] exactly
    /// as [`run_scheduler`](crate::run_scheduler).
    pub fn step(&mut self, until: Time) -> Result<(), SimError> {
        self.engine.step(&self.trace, self.scheduler.as_mut(), until)
    }

    /// Admits a new job into the running trace.
    ///
    /// The release must be strictly after the stepped-to mark (the
    /// engine has already processed that moment); equal-release ties
    /// land behind existing jobs in admission order, matching the
    /// builder's stable sort — which is why a grown session stays
    /// bit-identical to a batch run over the grown trace.
    ///
    /// # Errors
    /// * [`SimError::AdmitUnsupported`] — the scheduler cannot splice
    ///   (the general REF holds a trace snapshot);
    /// * [`SimError::AdmitTooLate`] — `release <= stepped_to`;
    /// * [`SimError::InvalidTrace`] — unknown org, zero processing time,
    ///   or time overflow (checked before anything mutates).
    pub fn admit(
        &mut self,
        org: OrgId,
        release: Time,
        proc_time: Time,
        deadline: Option<Time>,
    ) -> Result<JobId, SimError> {
        if !self.scheduler.admits_jobs() {
            return Err(SimError::AdmitUnsupported { scheduler: self.scheduler.name() });
        }
        if let Some(stepped_to) = self.engine.stepped_to() {
            if release <= stepped_to {
                return Err(SimError::AdmitTooLate { release, stepped_to });
            }
        }
        let id = self
            .trace
            .admit_job(org, release, proc_time, deadline)
            .map_err(SimError::InvalidTrace)?;
        self.scheduler.on_admit(&self.trace.job(id));
        self.admissions.push(Admission { org, release, proc_time, deadline });
        Ok(id)
    }

    /// Steps to `horizon` and evaluates the run there without consuming
    /// the session (the engine position is copied for evaluation).
    pub fn result_at(
        &mut self,
        horizon: Time,
        validate: bool,
    ) -> Result<SimResult, SimError> {
        self.step(horizon)?;
        self.engine.clone().into_result(
            &self.trace,
            self.scheduler.as_mut(),
            SimOptions { horizon, validate },
        )
    }

    /// Steps to `horizon` and evaluates the run there, consuming the
    /// session. Equivalent to a batch [`run_scheduler`](crate::run_scheduler)
    /// over the grown trace.
    pub fn finish(
        mut self,
        horizon: Time,
        validate: bool,
    ) -> Result<SimResult, SimError> {
        self.step(horizon)?;
        self.engine.into_result(
            &self.trace,
            self.scheduler.as_mut(),
            SimOptions { horizon, validate },
        )
    }

    /// The session as a replay snapshot tree: scheduler spec + seed, the
    /// base trace, the admission log, and the stepped-to mark.
    /// [`restore_value`](SimSession::restore_value) inverts it; callers
    /// that embed the snapshot in a larger document nest this tree rather
    /// than re-parsing [`snapshot`](SimSession::snapshot)'s text.
    pub fn snapshot_value(&self) -> Value {
        Value::Object(vec![
            ("schema".to_string(), Value::String(SNAPSHOT_SCHEMA.to_string())),
            ("scheduler".to_string(), Value::String(self.spec.to_string())),
            ("seed".to_string(), self.seed.to_value()),
            ("stepped_to".to_string(), self.engine.stepped_to().to_value()),
            ("base_trace".to_string(), self.base_trace.to_value()),
            ("admissions".to_string(), self.admissions.to_value()),
        ])
    }

    /// [`snapshot_value`](SimSession::snapshot_value) as compact JSON.
    pub fn snapshot(&self) -> String {
        self.snapshot_value().to_json()
    }

    /// Rebuilds a session from a
    /// [`snapshot_value`](SimSession::snapshot_value) tree: the scheduler
    /// is reconstructed from the base trace (same spec, same seed), the
    /// admission log is replayed, and the engine steps to the recorded
    /// mark. Determinism of the engine and of every registered scheduler
    /// makes the result bit-identical to the session that was
    /// snapshotted.
    pub fn restore_value(v: &Value) -> Result<Self, SimError> {
        let schema: String = field(v, "schema")?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(SimError::Snapshot {
                message: format!(
                    "unsupported schema {schema:?} (expected {SNAPSHOT_SCHEMA:?})"
                ),
            });
        }
        let spec_str: String = field(v, "scheduler")?;
        let seed: u64 = field(v, "seed")?;
        let stepped_to: Option<Time> = field(v, "stepped_to")?;
        let base_trace: Trace = field(v, "base_trace")?;
        let admissions: Vec<Admission> = field(v, "admissions")?;
        let spec: SchedulerSpec = spec_str.parse()?;
        let mut session = Self::from_parts(base_trace, spec, seed)?;
        // Replay in admission order *before* stepping: equal-release ties
        // land behind earlier admissions exactly as they did live, and
        // with nothing stepped yet every recorded release is admissible.
        for a in &admissions {
            session.admit(a.org, a.release, a.proc_time, a.deadline)?;
        }
        if let Some(t) = stepped_to {
            session.step(t)?;
        }
        Ok(session)
    }

    /// [`restore_value`](SimSession::restore_value) over snapshot text.
    pub fn restore(snapshot: &str) -> Result<Self, SimError> {
        let v = serde_json::parse_value(snapshot)
            .map_err(|e| SimError::Snapshot { message: e.to_string() })?;
        Self::restore_value(&v)
    }
}

/// Snapshot field access with [`SimError::Snapshot`] errors.
fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, SimError> {
    serde::field(v, name, "SessionSnapshot")
        .map_err(|e| SimError::Snapshot { message: e.to_string() })
}

impl fmt::Debug for SimSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimSession")
            .field("scheduler", &self.spec.to_string())
            .field("seed", &self.seed)
            .field("stepped_to", &self.engine.stepped_to())
            .field("jobs", &self.trace.n_jobs())
            .field("admissions", &self.admissions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_scheduler;
    use fairsched_core::Trace;

    fn small_trace() -> Trace {
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        let c = b.org("b", 1);
        b.job(a, 0, 3).job(c, 0, 2).job(a, 2, 1).job(c, 4, 4);
        b.build().unwrap()
    }

    fn batch(trace: &Trace, spec: &str, seed: u64, horizon: Time) -> SimResult {
        let mut scheduler = Registry::shared()
            .build(&spec.parse().unwrap(), &BuildContext { trace, seed })
            .unwrap();
        run_scheduler(trace, scheduler.as_mut(), SimOptions { horizon, validate: true })
            .unwrap()
    }

    #[test]
    fn stepping_in_increments_matches_batch() {
        for spec in ["ref", "rand:perms=7", "fairshare", "fifo", "directcontr"] {
            let trace = small_trace();
            let expected = batch(&trace, spec, 3, 50);
            let mut session = SimSession::new(trace, spec, 3).unwrap();
            for until in [0, 1, 2, 3, 7, 20, 50] {
                session.step(until).unwrap();
            }
            let got = session.finish(50, true).unwrap();
            assert_eq!(got.schedule, expected.schedule, "schedule diverged for {spec}");
            assert_eq!(got.psi, expected.psi, "psi diverged for {spec}");
            assert_eq!(got.completed_jobs, expected.completed_jobs);
        }
    }

    #[test]
    fn step_to_earlier_time_is_a_noop() {
        let mut session = SimSession::new(small_trace(), "fifo", 0).unwrap();
        session.step(10).unwrap();
        let before = session.schedule().entries().to_vec();
        session.step(2).unwrap();
        assert_eq!(session.schedule().entries(), &before[..]);
        assert_eq!(session.stepped_to(), Some(10));
    }

    #[test]
    fn admitted_session_matches_batch_over_grown_trace() {
        for spec in ["ref", "rand:perms=5", "fairshare"] {
            // Batch reference: the same jobs known up front.
            let mut b = Trace::builder();
            let a = b.org("a", 1);
            let c = b.org("b", 1);
            b.job(a, 0, 3).job(c, 0, 2).job(a, 2, 1).job(c, 4, 4);
            b.job(c, 5, 2).job(a, 7, 3); // the "online" arrivals
            let grown = b.build().unwrap();
            let expected = batch(&grown, spec, 9, 60);

            let mut session = SimSession::new(small_trace(), spec, 9).unwrap();
            session.step(4).unwrap();
            session.admit(OrgId(1), 5, 2, None).unwrap();
            session.step(6).unwrap();
            session.admit(OrgId(0), 7, 3, None).unwrap();
            let got = session.finish(60, true).unwrap();
            assert_eq!(got.schedule, expected.schedule, "schedule diverged for {spec}");
            assert_eq!(got.psi, expected.psi, "psi diverged for {spec}");
        }
    }

    /// The schedulers that cache selection keys per event time keep the
    /// batch schedule when jobs arrive between steps: seeded traces at
    /// k ∈ {1, 2, 5, 100} with zero-machine organizations, equal releases
    /// and a backlog, a third of the jobs admitted online.
    #[test]
    fn round_cached_schedulers_admit_mid_run_like_the_batch_run() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for (k, seed) in [(1usize, 1u64), (2, 2), (5, 3), (100, 4)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let machines: Vec<usize> = (0..k)
                .map(|u| {
                    if u > 0 && rng.random_bool(0.3) {
                        0
                    } else {
                        rng.random_range(1..3)
                    }
                })
                .collect();
            let mut job = |span: Time| {
                (
                    rng.random_range(0..k) as u32,
                    rng.random_range(1..span),
                    rng.random_range(1..20),
                )
            };
            let base: Vec<_> = (0..3 * k + 10).map(|_| job(40)).collect();
            let online: Vec<_> = (0..k + 5).map(|_| job(80)).collect();
            let build = |jobs: &[(u32, Time, Time)]| {
                let mut b = Trace::builder();
                for (u, &m) in machines.iter().enumerate() {
                    b.org(format!("o{u}"), m);
                }
                for &(u, r, p) in jobs {
                    b.job(OrgId(u), r, p);
                }
                b.build().unwrap()
            };
            let grown = build(&[base.clone(), online.clone()].concat());
            for spec in ["fifo", "fairshare", "utfairshare", "currfairshare"] {
                let expected = batch(&grown, spec, seed, 100_000);
                let mut session = SimSession::new(build(&base), spec, seed).unwrap();
                for until in (0..=90).step_by(6) {
                    for &(u, r, p) in &online {
                        if r <= until && session.stepped_to().is_none_or(|s| r > s) {
                            session.admit(OrgId(u), r, p, None).unwrap();
                        }
                    }
                    session.step(until).unwrap();
                }
                let got = session.finish(100_000, true).unwrap();
                let case = format!("{spec} at k={k}");
                assert_eq!(got.completed_jobs, grown.n_jobs(), "{case}");
                assert_eq!(got.schedule, expected.schedule, "{case}: schedule");
                assert_eq!(got.psi, expected.psi, "{case}: psi");
            }
        }
    }

    #[test]
    fn admit_at_or_before_stepped_to_is_rejected() {
        let mut session = SimSession::new(small_trace(), "fifo", 0).unwrap();
        session.step(5).unwrap();
        let err = session.admit(OrgId(0), 5, 1, None);
        assert!(
            matches!(err, Err(SimError::AdmitTooLate { release: 5, stepped_to: 5 })),
            "got {err:?}"
        );
        // Strictly later is fine.
        session.admit(OrgId(0), 6, 1, None).unwrap();
    }

    #[test]
    fn general_ref_declines_admission() {
        let mut session =
            SimSession::new(small_trace(), "general-ref:util=sp", 0).unwrap();
        let err = session.admit(OrgId(0), 10, 1, None);
        assert!(matches!(err, Err(SimError::AdmitUnsupported { .. })), "got {err:?}");
    }

    #[test]
    fn admit_invalid_job_is_typed_and_does_not_desync() {
        let mut session = SimSession::new(small_trace(), "ref", 0).unwrap();
        session.step(1).unwrap();
        assert!(session.admit(OrgId(9), 5, 1, None).is_err(), "unknown org");
        assert!(session.admit(OrgId(0), 5, 0, None).is_err(), "zero proc time");
        // The failed admissions left no residue: the session still matches
        // the plain batch run.
        let expected = batch(&small_trace(), "ref", 0, 50);
        assert_eq!(session.finish(50, true).unwrap().schedule, expected.schedule);
    }

    #[test]
    fn snapshot_restore_round_trips_mid_run() {
        let mut session = SimSession::new(small_trace(), "ref", 4).unwrap();
        session.step(2).unwrap();
        session.admit(OrgId(1), 5, 2, None).unwrap();
        session.step(4).unwrap();
        let snap = session.snapshot();
        let restored = SimSession::restore(&snap).unwrap();
        assert_eq!(restored.stepped_to(), session.stepped_to());
        assert_eq!(restored.admissions(), session.admissions());
        assert_eq!(restored.schedule(), session.schedule());
        let a = session.finish(50, true).unwrap();
        let b = restored.finish(50, true).unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.psi, b.psi);
    }

    #[test]
    fn snapshot_of_fresh_session_restores() {
        let session = SimSession::new(small_trace(), "rand:perms=5", 7).unwrap();
        let restored = SimSession::restore(&session.snapshot()).unwrap();
        assert_eq!(restored.stepped_to(), None);
        let a = session.finish(50, true).unwrap();
        let b = restored.finish(50, true).unwrap();
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn restore_rejects_garbage_and_wrong_schema() {
        assert!(matches!(SimSession::restore("{nope"), Err(SimError::Snapshot { .. })));
        assert!(matches!(
            SimSession::restore(r#"{"schema":"other/v9"}"#),
            Err(SimError::Snapshot { .. })
        ));
        assert!(matches!(
            SimSession::restore(r#"{"schema":"fairsched-session-snapshot/v1"}"#),
            Err(SimError::Snapshot { .. })
        ));
    }

    proptest::proptest! {
        /// Replay-based recovery is exact: restoring a snapshot taken at
        /// any split point — with any mix of mid-run admissions — then
        /// finishing yields the *bit-identical* schedule and ψ vector of
        /// the session that kept running, across random traces and the
        /// scheduler families (exact REF, sampled RAND, fair-share, RR).
        #[test]
        fn prop_restore_then_step_is_bit_identical(
            jobs in proptest::collection::vec((0u32..3, 0u64..40, 1u64..10), 1..25),
            admits in proptest::collection::vec((0u32..3, 1u64..60, 1u64..10), 0..6),
            scheduler_idx in 0usize..4,
            split in 0u64..50,
        ) {
            let spec = ["ref", "rand:perms=5", "fairshare", "roundrobin"]
                [scheduler_idx];
            let mut b = Trace::builder();
            let orgs = [b.org("o0", 1), b.org("o1", 2), b.org("o2", 1)];
            for (o, r, p) in &jobs {
                b.job(orgs[*o as usize], *r, *p);
            }
            let trace = b.build().unwrap();
            let mut live = SimSession::new(trace, spec, 11).unwrap();
            live.step(split).unwrap();
            for (o, r, p) in &admits {
                // Only strictly-later releases are admissible online.
                if *r > split {
                    live.admit(OrgId(*o), *r, *p, None).unwrap();
                }
            }
            let restored = SimSession::restore(&live.snapshot()).unwrap();
            proptest::prop_assert_eq!(restored.stepped_to(), live.stepped_to());
            proptest::prop_assert_eq!(restored.schedule(), live.schedule());
            let a = live.finish(120, true).unwrap();
            let b = restored.finish(120, true).unwrap();
            proptest::prop_assert_eq!(a.schedule, b.schedule);
            proptest::prop_assert_eq!(a.psi, b.psi);
        }
    }

    #[test]
    fn from_workload_builds_through_the_registry() {
        let mut session = SimSession::from_workload("fpt:k=2", "fairshare", 3).unwrap();
        session.step(100).unwrap();
        assert!(!session.schedule().is_empty());
        let direct = {
            let wspec = "fpt:k=2".parse().unwrap();
            let trace = WorkloadRegistry::shared()
                .build(&wspec, &WorkloadContext { seed: 3 })
                .unwrap();
            batch(&trace, "fairshare", 3, 500)
        };
        assert_eq!(session.finish(500, true).unwrap().schedule, direct.schedule);
    }
}

//! Schedules and validation of the paper's structural invariants.

use crate::model::{ClusterInfo, JobId, MachineId, OrgId, Time, Trace};
use std::fmt;

/// One scheduled job: which job started when, on which machine, and how
/// long it ran. A schedule entry corresponds to the paper's triple
/// `(J, s, M(J))`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ScheduledJob {
    /// The job.
    pub job: JobId,
    /// The issuing organization (denormalized for convenience).
    pub org: OrgId,
    /// The machine it ran on.
    pub machine: MachineId,
    /// Start time (`s ≥ release`).
    pub start: Time,
    /// Processing time (`completion = start + proc_time`).
    pub proc_time: Time,
}

impl ScheduledJob {
    /// Completion time, saturating at [`Time::MAX`] (a saturated
    /// completion is beyond any representable horizon; the raw `+` would
    /// wrap it into the past in release-style builds).
    #[inline]
    pub fn completion(&self) -> Time {
        crate::checked_time::completion(self.start, self.proc_time)
    }

    /// Number of unit-size parts completed strictly before `t`
    /// (`min(p, t − s)`, clamped at 0 when `s > t`).
    #[inline]
    pub fn units_before(&self, t: Time) -> Time {
        self.proc_time.min(t.saturating_sub(self.start))
    }
}

/// Violations of the model invariants detected by [`Schedule::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleViolation {
    /// A job started before its release time.
    StartedBeforeRelease(JobId),
    /// Two jobs overlap on one machine.
    MachineOverlap(MachineId, JobId, JobId),
    /// Jobs of one organization were started out of FIFO order.
    FifoViolation(OrgId, JobId, JobId),
    /// A recorded processing time disagrees with the trace.
    WrongProcTime(JobId),
    /// A job appears more than once.
    DuplicateJob(JobId),
    /// A machine id out of range.
    UnknownMachine(MachineId),
    /// Greediness violated: at some time a machine was idle, a released job
    /// was waiting, yet nothing was started.
    NotGreedy {
        /// A time at which the violation is visible.
        time: Time,
    },
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleViolation::StartedBeforeRelease(j) => {
                write!(f, "{j} started before its release")
            }
            ScheduleViolation::MachineOverlap(m, a, b) => {
                write!(f, "{a} and {b} overlap on {m}")
            }
            ScheduleViolation::FifoViolation(o, a, b) => {
                write!(f, "{o}: {b} started before earlier job {a}")
            }
            ScheduleViolation::WrongProcTime(j) => {
                write!(f, "{j} has a processing time different from the trace")
            }
            ScheduleViolation::DuplicateJob(j) => write!(f, "{j} scheduled twice"),
            ScheduleViolation::UnknownMachine(m) => write!(f, "unknown machine {m}"),
            ScheduleViolation::NotGreedy { time } => {
                write!(f, "idle machine with waiting jobs at t={time}")
            }
        }
    }
}

impl std::error::Error for ScheduleViolation {}

/// A (possibly partial) schedule: the set of started jobs.
///
/// Jobs not present were not started (yet). Entries are kept in start-time
/// order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Schedule {
    entries: Vec<ScheduledJob>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Appends a started job. Starts must be appended in non-decreasing
    /// start-time order (as an online scheduler produces them).
    ///
    /// # Panics
    /// Panics if `start` precedes the last recorded start.
    pub fn push(&mut self, entry: ScheduledJob) {
        if let Some(last) = self.entries.last() {
            assert!(
                last.start <= entry.start,
                "schedule entries must be appended in start-time order"
            );
        }
        self.entries.push(entry);
    }

    /// All entries in start-time order.
    #[inline]
    pub fn entries(&self) -> &[ScheduledJob] {
        &self.entries
    }

    /// Number of started jobs.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no job has started.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries of one organization, in start order.
    pub fn entries_of(&self, org: OrgId) -> impl Iterator<Item = &ScheduledJob> {
        self.entries.iter().filter(move |e| e.org == org)
    }

    /// The entry for a specific job, if started.
    pub fn entry(&self, job: JobId) -> Option<&ScheduledJob> {
        self.entries.iter().find(|e| e.job == job)
    }

    /// Total number of unit-size job parts completed strictly before `t` —
    /// the paper's `p_tot` when evaluated on the reference fair schedule
    /// (Section 7.2).
    pub fn completed_units(&self, t: Time) -> Time {
        self.entries.iter().map(|e| e.units_before(t)).sum()
    }

    /// Total busy machine time in `[0, t)`.
    pub fn busy_time(&self, t: Time) -> Time {
        self.completed_units(t)
    }

    /// Resource utilization in `[0, t)`: busy time divided by `m·t`
    /// (Section 6's metric).
    pub fn utilization(&self, n_machines: usize, t: Time) -> f64 {
        if n_machines == 0 || t == 0 {
            return 0.0;
        }
        self.busy_time(t) as f64 / (n_machines as f64 * t as f64)
    }

    /// Checks every structural invariant of the model against the trace:
    /// release respected, no machine overlap, per-organization FIFO,
    /// processing times faithful, no duplicates, and — because every
    /// algorithm in the paper is greedy — the no-idle condition up to
    /// `horizon`.
    pub fn validate(
        &self,
        trace: &Trace,
        horizon: Time,
    ) -> Result<(), ScheduleViolation> {
        let info = trace.cluster_info();
        self.validate_with_info(trace, &info, horizon)
    }

    /// [`Schedule::validate`] with a precomputed [`ClusterInfo`].
    pub fn validate_with_info(
        &self,
        trace: &Trace,
        info: &ClusterInfo,
        horizon: Time,
    ) -> Result<(), ScheduleViolation> {
        let mut seen = vec![false; trace.n_jobs()];
        // Per-machine last completion, for overlap checks (entries are in
        // start order, so a per-machine scan suffices).
        let mut machine_last: Vec<Option<(JobId, Time)>> = vec![None; info.n_machines()];
        // Per-org last started job id, for FIFO checks.
        let mut org_last: Vec<Option<JobId>> = vec![None; trace.n_orgs()];

        for e in &self.entries {
            let job = trace.job(e.job);
            if seen[e.job.index()] {
                return Err(ScheduleViolation::DuplicateJob(e.job));
            }
            seen[e.job.index()] = true;
            if e.start < job.release {
                return Err(ScheduleViolation::StartedBeforeRelease(e.job));
            }
            if e.proc_time != job.proc_time || e.org != job.org {
                return Err(ScheduleViolation::WrongProcTime(e.job));
            }
            if e.machine.index() >= info.n_machines() {
                return Err(ScheduleViolation::UnknownMachine(e.machine));
            }
            if let Some((prev, end)) = machine_last[e.machine.index()] {
                if e.start < end {
                    return Err(ScheduleViolation::MachineOverlap(
                        e.machine, prev, e.job,
                    ));
                }
            }
            machine_last[e.machine.index()] = Some((e.job, e.completion()));
            if let Some(prev) = org_last[e.org.index()] {
                if prev > e.job {
                    return Err(ScheduleViolation::FifoViolation(e.org, prev, e.job));
                }
            }
            org_last[e.org.index()] = Some(e.job);
        }

        self.check_greedy(trace, info, horizon)
    }

    /// The greediness check: a single event sweep over sorted starts,
    /// completions, and releases with running counters — `O(n log n)` in
    /// the number of jobs and schedule entries, so `validate(true)` stays
    /// usable at paper scale (the old implementation rescanned every
    /// entry and every job at every event time: `O(jobs²·events)`).
    ///
    /// At each event time `t < horizon`:
    /// * machines busy = `#{starts ≤ t} − #{completions ≤ t}` (exactly the
    ///   entries with `start ≤ t < completion`),
    /// * a job is waiting iff `#{releases ≤ t} > #{starts ≤ t}` (every
    ///   started job has `release ≤ start ≤ t`, release order having been
    ///   validated by the caller),
    ///
    /// and an idle machine together with a waiting job is a greediness
    /// violation — reported at the earliest such time, matching the
    /// per-time rescan exactly.
    fn check_greedy(
        &self,
        trace: &Trace,
        info: &ClusterInfo,
        horizon: Time,
    ) -> Result<(), ScheduleViolation> {
        let mut starts: Vec<Time> = self.entries.iter().map(|e| e.start).collect();
        let mut completions: Vec<Time> =
            self.entries.iter().map(|e| e.completion()).collect();
        let mut releases: Vec<Time> = trace.jobs().iter().map(|j| j.release).collect();
        starts.sort_unstable();
        completions.sort_unstable();
        releases.sort_unstable();

        // Candidate times: every event strictly before the horizon.
        let mut times: Vec<Time> = releases
            .iter()
            .chain(starts.iter())
            .chain(completions.iter())
            .copied()
            .filter(|&t| t < horizon)
            .collect();
        times.sort_unstable();
        times.dedup();

        let n_machines = info.n_machines();
        let (mut si, mut ci, mut ri) = (0usize, 0usize, 0usize);
        for &t in &times {
            while si < starts.len() && starts[si] <= t {
                si += 1;
            }
            while ci < completions.len() && completions[ci] <= t {
                ci += 1;
            }
            while ri < releases.len() && releases[ri] <= t {
                ri += 1;
            }
            let busy = si - ci;
            let waiting = ri > si;
            if busy < n_machines && waiting {
                return Err(ScheduleViolation::NotGreedy { time: t });
            }
        }
        Ok(())
    }
}

impl FromIterator<ScheduledJob> for Schedule {
    fn from_iter<T: IntoIterator<Item = ScheduledJob>>(iter: T) -> Self {
        let mut entries: Vec<ScheduledJob> = iter.into_iter().collect();
        entries.sort_by_key(|e| e.start);
        Schedule { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Trace;
    use proptest::prelude::*;

    fn trace_1org_1machine() -> Trace {
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        b.job(a, 0, 3).job(a, 0, 2);
        b.build().unwrap()
    }

    fn sj(job: u32, org: u32, machine: u32, start: Time, p: Time) -> ScheduledJob {
        ScheduledJob {
            job: JobId(job),
            org: OrgId(org),
            machine: MachineId(machine),
            start,
            proc_time: p,
        }
    }

    #[test]
    fn valid_sequential_schedule() {
        let t = trace_1org_1machine();
        let s: Schedule = [sj(0, 0, 0, 0, 3), sj(1, 0, 0, 3, 2)].into_iter().collect();
        s.validate(&t, 100).unwrap();
    }

    #[test]
    fn detects_overlap() {
        let t = trace_1org_1machine();
        let s: Schedule = [sj(0, 0, 0, 0, 3), sj(1, 0, 0, 2, 2)].into_iter().collect();
        assert!(matches!(
            s.validate(&t, 100),
            Err(ScheduleViolation::MachineOverlap(..))
        ));
    }

    #[test]
    fn detects_early_start() {
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        b.job(a, 5, 1);
        let t = b.build().unwrap();
        let s: Schedule = [sj(0, 0, 0, 2, 1)].into_iter().collect();
        assert_eq!(
            s.validate(&t, 100),
            Err(ScheduleViolation::StartedBeforeRelease(JobId(0)))
        );
    }

    #[test]
    fn detects_fifo_violation() {
        let mut b = Trace::builder();
        let a = b.org("a", 2);
        b.job(a, 0, 2).job(a, 0, 2);
        let t = b.build().unwrap();
        // Job 1 starts at 0, job 0 at 1: FIFO broken.
        let s: Schedule = [sj(1, 0, 0, 0, 2), sj(0, 0, 1, 0, 2)].into_iter().collect();
        // Note both start at 0; entry order decides. Make job1 strictly first:
        let s2: Schedule = [sj(1, 0, 0, 0, 2), sj(0, 0, 1, 1, 2)].into_iter().collect();
        // With equal starts the FIFO check uses append order:
        let r = s.validate(&t, 100);
        let r2 = s2.validate(&t, 100);
        assert!(
            matches!(r, Err(ScheduleViolation::FifoViolation(..)))
                || matches!(r2, Err(ScheduleViolation::FifoViolation(..)))
        );
    }

    #[test]
    fn detects_duplicate() {
        let t = trace_1org_1machine();
        let s: Schedule = [sj(0, 0, 0, 0, 3), sj(0, 0, 0, 3, 3)].into_iter().collect();
        assert_eq!(s.validate(&t, 100), Err(ScheduleViolation::DuplicateJob(JobId(0))));
    }

    #[test]
    fn detects_wrong_proc_time() {
        let t = trace_1org_1machine();
        let s: Schedule = [sj(0, 0, 0, 0, 7)].into_iter().collect();
        assert!(s.validate(&t, 0) == Err(ScheduleViolation::WrongProcTime(JobId(0))));
    }

    #[test]
    fn detects_non_greedy_idle() {
        let t = trace_1org_1machine();
        // Job 0 delayed to t=1 with the machine idle at t=0.
        let s: Schedule = [sj(0, 0, 0, 1, 3), sj(1, 0, 0, 4, 2)].into_iter().collect();
        assert!(matches!(
            s.validate(&t, 100),
            Err(ScheduleViolation::NotGreedy { time: 0 })
        ));
    }

    #[test]
    fn greedy_check_ignores_beyond_horizon() {
        let t = trace_1org_1machine();
        // Nothing scheduled, but horizon 0: nothing to check.
        let s = Schedule::new();
        s.validate(&t, 0).unwrap();
        assert!(s.validate(&t, 1).is_err());
    }

    #[test]
    fn units_and_utilization() {
        let e = sj(0, 0, 0, 2, 5);
        assert_eq!(e.units_before(0), 0);
        assert_eq!(e.units_before(2), 0);
        assert_eq!(e.units_before(4), 2);
        assert_eq!(e.units_before(7), 5);
        assert_eq!(e.units_before(100), 5);
        let s: Schedule = [e].into_iter().collect();
        assert_eq!(s.completed_units(7), 5);
        assert!((s.utilization(1, 10) - 0.5).abs() < 1e-12);
        assert_eq!(s.utilization(0, 10), 0.0);
    }

    #[test]
    fn push_requires_start_order() {
        let mut s = Schedule::new();
        s.push(sj(0, 0, 0, 5, 1));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut s2 = s.clone();
            s2.push(sj(1, 0, 0, 3, 1));
        }));
        assert!(result.is_err());
    }

    /// The pre-sweep greediness check, kept as a property-test oracle:
    /// rescans every entry and job at every event time.
    fn check_greedy_naive(
        s: &Schedule,
        trace: &Trace,
        n_machines: usize,
        horizon: Time,
    ) -> Result<(), ScheduleViolation> {
        let mut times: Vec<Time> = trace
            .jobs()
            .iter()
            .map(|j| j.release)
            .chain(s.entries.iter().flat_map(|e| [e.start, e.completion()]))
            .filter(|&t| t < horizon)
            .collect();
        times.sort_unstable();
        times.dedup();
        for &t in &times {
            let busy =
                s.entries.iter().filter(|e| e.start <= t && t < e.completion()).count();
            if busy >= n_machines {
                continue;
            }
            let waiting = trace.jobs().iter().any(|j| {
                j.release <= t
                    && match s.entry(j.id) {
                        None => true,
                        Some(e) => e.start > t,
                    }
            });
            if waiting {
                return Err(ScheduleViolation::NotGreedy { time: t });
            }
        }
        Ok(())
    }

    proptest! {
        /// The event-sweep greediness check agrees with the naive
        /// per-time rescan on arbitrary (partial, possibly non-greedy)
        /// two-machine schedules, including the violation time.
        #[test]
        fn prop_greedy_sweep_matches_naive(
            jobs in proptest::collection::vec((0u64..30, 1u64..8), 1..12),
            delays in proptest::collection::vec(0u64..6, 12),
            skip in 0usize..3,
            horizon in 1u64..60,
        ) {
            let mut b = Trace::builder();
            let a = b.org("a", 2);
            for &(r, p) in &jobs {
                b.job(a, r, p);
            }
            let trace = b.build().unwrap();
            // Build a serial schedule on machines 0/1 with arbitrary extra
            // delays (possibly violating greediness), skipping some jobs.
            let mut clock = [0u64; 2];
            let mut entries = Vec::new();
            for (i, j) in trace.jobs().iter().enumerate() {
                if i < skip {
                    continue;
                }
                let m = i % 2;
                let start = clock[m].max(j.release) + delays[i % delays.len()];
                clock[m] = start + j.proc_time;
                entries.push(ScheduledJob {
                    job: j.id,
                    org: j.org,
                    machine: MachineId(m as u32),
                    start,
                    proc_time: j.proc_time,
                });
            }
            let s: Schedule = entries.into_iter().collect();
            let info = trace.cluster_info();
            let fast = s.check_greedy(&trace, &info, horizon);
            let naive = check_greedy_naive(&s, &trace, info.n_machines(), horizon);
            prop_assert_eq!(fast, naive);
        }
    }

    #[test]
    fn entries_of_org() {
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        let c = b.org("b", 1);
        b.job(a, 0, 1).job(c, 0, 1);
        let _t = b.build().unwrap();
        let s: Schedule = [sj(0, 0, 0, 0, 1), sj(1, 1, 1, 0, 1)].into_iter().collect();
        assert_eq!(s.entries_of(OrgId(0)).count(), 1);
        assert_eq!(s.entry(JobId(1)).unwrap().org, OrgId(1));
    }
}

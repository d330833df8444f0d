//! Traces: the full input to a simulation — organizations, their machines,
//! and the job stream.
//!
//! # Storage layout
//!
//! Jobs are stored column-wise (struct of arrays): flat `release`,
//! `proc_time`, `org`, `id`, and `deadline` vectors indexed by position,
//! plus a per-organization CSR index (offsets + positions grouped by
//! organization). The engine's release loop and the fairness sweeps scan
//! the release/processing-time columns cache-hot, and `jobs_of` is an O(1)
//! index lookup instead of a full-trace filter. The [`Job`] struct remains
//! the logical record: [`Trace::job`] and the [`Jobs`] view assemble it on
//! the fly (it is `Copy`), so call sites keep iterating jobs as before.

use super::{Job, JobId, MachineId, OrgId, Time};
use crate::checked_time;
use std::fmt;

/// An organization's static description: a name and the number of machines
/// it contributes to the common pool.
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct OrgSpec {
    /// Human-readable name (used in reports).
    pub name: String,
    /// Number of identical machines contributed.
    pub n_machines: usize,
}

impl OrgSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, n_machines: usize) -> Self {
        OrgSpec { name: name.into(), n_machines }
    }
}

/// Static cluster facts derived from a trace: machine ownership and counts.
///
/// Machines are laid out organization by organization: organization 0 owns
/// machines `0..m_0`, organization 1 owns `m_0..m_0+m_1`, and so on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterInfo {
    machine_owner: Vec<OrgId>,
    org_machines: Vec<usize>,
}

impl ClusterInfo {
    /// Builds cluster info from per-organization machine counts.
    pub fn new(org_machines: Vec<usize>) -> Self {
        let mut machine_owner = Vec::with_capacity(org_machines.iter().sum());
        for (org, &m) in org_machines.iter().enumerate() {
            machine_owner.extend(std::iter::repeat_n(OrgId(org as u32), m));
        }
        ClusterInfo { machine_owner, org_machines }
    }

    /// Number of organizations.
    #[inline]
    pub fn n_orgs(&self) -> usize {
        self.org_machines.len()
    }

    /// Total number of machines in the pool.
    #[inline]
    pub fn n_machines(&self) -> usize {
        self.machine_owner.len()
    }

    /// The organization owning a machine.
    #[inline]
    pub fn owner(&self, machine: MachineId) -> OrgId {
        self.machine_owner[machine.index()]
    }

    /// Number of machines contributed by an organization.
    #[inline]
    pub fn machines_of(&self, org: OrgId) -> usize {
        self.org_machines[org.index()]
    }

    /// Per-organization machine counts.
    #[inline]
    pub fn org_machines(&self) -> &[usize] {
        &self.org_machines
    }

    /// The fair-share target of an organization: the fraction of the pool it
    /// contributes (the share used by the fair-share baselines, Section 7.1).
    #[inline]
    pub fn share(&self, org: OrgId) -> f64 {
        self.machines_of(org) as f64 / self.n_machines() as f64
    }
}

/// Errors detected by [`Trace::validate`] / [`TraceBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// A job references an organization index that does not exist.
    UnknownOrg {
        /// The offending job.
        job: JobId,
        /// The referenced organization.
        org: OrgId,
    },
    /// A job has zero processing time.
    ZeroProcTime {
        /// The offending job.
        job: JobId,
    },
    /// The trace has no machines at all.
    NoMachines,
    /// Job ids are not the contiguous sequence `0..n`.
    NonContiguousIds {
        /// Position in the job list where the mismatch was found.
        position: usize,
    },
    /// Jobs are not sorted by release time.
    UnsortedJobs {
        /// Position of the first out-of-order job.
        position: usize,
    },
    /// A time aggregate of the trace overflows the `Time` (u64) range —
    /// e.g. an adversarial SWF log whose total work or completion horizon
    /// cannot be represented. Detected by [`Trace::validate`] via
    /// [`crate::checked_time`] so downstream arithmetic never wraps or
    /// panics under `overflow-checks`.
    TimeOverflow {
        /// Which aggregate overflowed (`"total_work"` or
        /// `"completion_horizon"`).
        what: &'static str,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::UnknownOrg { job, org } => {
                write!(f, "job {job} references unknown organization {org}")
            }
            TraceError::ZeroProcTime { job } => {
                write!(f, "job {job} has zero processing time")
            }
            TraceError::NoMachines => write!(f, "trace has no machines"),
            TraceError::NonContiguousIds { position } => {
                write!(f, "job ids are not contiguous at position {position}")
            }
            TraceError::UnsortedJobs { position } => {
                write!(f, "jobs not sorted by release time at position {position}")
            }
            TraceError::TimeOverflow { what } => {
                write!(f, "trace {what} overflows the Time (u64) range")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The per-organization CSR job index: `positions[offsets[u]..offsets[u+1]]`
/// are the job *positions* of organization `u`, in order of appearance in
/// the release-sorted job list (= the documented per-org FIFO order).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
struct OrgIndex {
    offsets: Vec<u32>,
    positions: Vec<u32>,
}

impl OrgIndex {
    /// Builds the index by counting sort over the org column — O(n + k).
    /// Buckets cover `max(n_orgs, 1 + max job org)` so even a not-yet
    /// validated trace (jobs referencing unknown organizations) indexes
    /// every job.
    fn build(n_orgs: usize, orgs: &[OrgId]) -> OrgIndex {
        let buckets = orgs.iter().map(|o| o.index() + 1).max().unwrap_or(0).max(n_orgs);
        let mut counts = vec![0u32; buckets];
        for o in orgs {
            counts[o.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(buckets + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut next = offsets[..buckets].to_vec();
        let mut positions = vec![0u32; orgs.len()];
        for (pos, o) in orgs.iter().enumerate() {
            let slot = &mut next[o.index()];
            positions[*slot as usize] = pos as u32;
            *slot += 1;
        }
        OrgIndex { offsets, positions }
    }

    /// The job positions of one organization (empty for unknown orgs).
    #[inline]
    fn of(&self, org: OrgId) -> &[u32] {
        let u = org.index();
        if u + 1 >= self.offsets.len() {
            return &[];
        }
        &self.positions[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }
}

/// A complete simulation input: organizations (with machine counts) and the
/// job stream, sorted by release time.
///
/// Per-organization FIFO order is the order of appearance in the sorted job
/// list (ties in release time keep insertion order — a stable sort), which
/// matches the paper's "jobs of each individual organization should be
/// started in the order in which they are presented".
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    orgs: Vec<OrgSpec>,
    // Job columns, indexed by position in the release-sorted job list.
    ids: Vec<JobId>,
    job_orgs: Vec<OrgId>,
    releases: Vec<Time>,
    proc_times: Vec<Time>,
    deadlines: Vec<Option<Time>>,
    org_index: OrgIndex,
}

impl Trace {
    /// Starts building a trace.
    pub fn builder() -> TraceBuilder {
        TraceBuilder::default()
    }

    /// Assembles a trace from organizations and a job list (any job list —
    /// validity is checked separately by [`Trace::validate`], exactly as
    /// with the old row-wise representation).
    pub fn from_parts(orgs: Vec<OrgSpec>, jobs: Vec<Job>) -> Trace {
        let n = jobs.len();
        let mut ids = Vec::with_capacity(n);
        let mut job_orgs = Vec::with_capacity(n);
        let mut releases = Vec::with_capacity(n);
        let mut proc_times = Vec::with_capacity(n);
        let mut deadlines = Vec::with_capacity(n);
        for j in &jobs {
            ids.push(j.id);
            job_orgs.push(j.org);
            releases.push(j.release);
            proc_times.push(j.proc_time);
            deadlines.push(j.deadline);
        }
        let org_index = OrgIndex::build(orgs.len(), &job_orgs);
        Trace { orgs, ids, job_orgs, releases, proc_times, deadlines, org_index }
    }

    /// Number of organizations.
    #[inline]
    pub fn n_orgs(&self) -> usize {
        self.orgs.len()
    }

    /// Number of jobs.
    #[inline]
    pub fn n_jobs(&self) -> usize {
        self.releases.len()
    }

    /// All organizations.
    #[inline]
    pub fn orgs(&self) -> &[OrgSpec] {
        &self.orgs
    }

    /// All jobs as an iterable view, sorted by release time; the job at
    /// position `i` has `id == JobId(i)` (on a valid trace). Jobs are
    /// assembled from the columns on the fly — iterate the raw columns
    /// ([`Trace::releases`], [`Trace::proc_times`], [`Trace::job_orgs`])
    /// directly on hot paths that touch a single field.
    #[inline]
    pub fn jobs(&self) -> Jobs<'_> {
        Jobs { trace: self }
    }

    /// A single job by id (position in the sorted job list).
    #[inline]
    pub fn job(&self, id: JobId) -> Job {
        self.assemble(id.index())
    }

    /// The release-time column (position-indexed, sorted ascending on a
    /// valid trace).
    #[inline]
    pub fn releases(&self) -> &[Time] {
        &self.releases
    }

    /// The processing-time column (position-indexed).
    #[inline]
    pub fn proc_times(&self) -> &[Time] {
        &self.proc_times
    }

    /// The owning-organization column (position-indexed).
    #[inline]
    pub fn job_orgs(&self) -> &[OrgId] {
        &self.job_orgs
    }

    /// The deadline column (position-indexed; `None` for jobs without one).
    #[inline]
    pub fn deadlines(&self) -> &[Option<Time>] {
        &self.deadlines
    }

    #[inline]
    fn assemble(&self, i: usize) -> Job {
        Job {
            id: self.ids[i],
            org: self.job_orgs[i],
            release: self.releases[i],
            proc_time: self.proc_times[i],
            deadline: self.deadlines[i],
        }
    }

    /// Jobs of one organization, in FIFO order (order of appearance in the
    /// release-sorted job list). Backed by the per-organization index:
    /// O(jobs of `org`), not O(total jobs).
    pub fn jobs_of(&self, org: OrgId) -> impl Iterator<Item = Job> + '_ {
        self.org_index.of(org).iter().map(move |&p| self.assemble(p as usize))
    }

    /// Number of jobs of one organization — O(1) via the index.
    #[inline]
    pub fn n_jobs_of(&self, org: OrgId) -> usize {
        self.org_index.of(org).len()
    }

    /// Derives the cluster layout (machine ownership).
    pub fn cluster_info(&self) -> ClusterInfo {
        ClusterInfo::new(self.orgs.iter().map(|o| o.n_machines).collect())
    }

    /// Total processing time over all jobs, saturating at `Time::MAX`.
    /// [`Trace::validate`] (and therefore [`TraceBuilder::build`]) rejects
    /// traces where the exact sum overflows, so on a validated trace this
    /// is exact; see [`Trace::try_total_work`] for the checked form.
    pub fn total_work(&self) -> Time {
        self.proc_times.iter().fold(0, |acc, &p| checked_time::completion(acc, p))
    }

    /// Total processing time over all jobs, or
    /// [`TraceError::TimeOverflow`] if the sum exceeds the `Time` range.
    pub fn try_total_work(&self) -> Result<Time, TraceError> {
        self.proc_times
            .iter()
            .try_fold(0, |acc, &p| checked_time::checked_add(acc, p))
            .ok_or(TraceError::TimeOverflow { what: "total_work" })
    }

    /// The largest release time (0 for an empty trace). No arithmetic —
    /// a pure maximum, so it cannot overflow.
    pub fn max_release(&self) -> Time {
        self.releases.iter().copied().max().unwrap_or(0)
    }

    /// An upper bound on the time by which every job has completed under any
    /// greedy schedule: `max_release + total_work`, saturating at
    /// `Time::MAX` (exact on a validated trace; see
    /// [`Trace::try_completion_horizon`] for the checked form).
    pub fn completion_horizon(&self) -> Time {
        checked_time::completion(self.max_release(), self.total_work())
    }

    /// The completion horizon, or [`TraceError::TimeOverflow`] if
    /// `max_release + total_work` exceeds the `Time` range.
    pub fn try_completion_horizon(&self) -> Result<Time, TraceError> {
        let total = self.try_total_work()?;
        checked_time::checked_add(self.max_release(), total)
            .ok_or(TraceError::TimeOverflow { what: "completion_horizon" })
    }

    /// Restricts the trace to the organizations in `keep` (a set of org
    /// indices), renumbering nothing: jobs of other organizations are
    /// dropped, organizations keep their ids but lose their machines if not
    /// kept. Used to build subcoalition inputs for testing.
    ///
    /// Gathers through the per-organization index — O(orgs + kept jobs),
    /// no per-job set membership tests.
    pub fn restrict_to(&self, keep: &[OrgId]) -> Trace {
        let mut kept = vec![false; self.orgs.len()];
        for o in keep {
            if o.index() < kept.len() {
                kept[o.index()] = true;
            }
        }
        let orgs = self
            .orgs
            .iter()
            .zip(&kept)
            .map(|(o, &k)| if k { o.clone() } else { OrgSpec::new(o.name.clone(), 0) })
            .collect();
        let mut positions: Vec<u32> = kept
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k)
            .flat_map(|(u, _)| self.org_index.of(OrgId(u as u32)).iter().copied())
            .collect();
        // Merging per-org runs back into release-sorted position order.
        positions.sort_unstable();
        let jobs: Vec<Job> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| Job { id: JobId(i as u32), ..self.assemble(p as usize) })
            .collect();
        Trace::from_parts(orgs, jobs)
    }

    /// Admits one new job into the trace mid-run (online serving): the
    /// job is inserted at its release-sorted position — after any
    /// existing job with the same release time, so admission order
    /// defines FIFO among ties, exactly like [`TraceBuilder::build`]'s
    /// stable sort — and job ids are renumbered to stay the contiguous
    /// position sequence. Returns the admitted job's assigned id.
    ///
    /// Ids of jobs releasing *later* than the new job shift by one; the
    /// resumable engine only admits jobs releasing strictly after the
    /// time it has stepped to, so every shifted id belongs to a job no
    /// component has observed yet.
    ///
    /// # Errors
    /// [`TraceError::UnknownOrg`] for an out-of-range organization,
    /// [`TraceError::ZeroProcTime`] for an empty job, and
    /// [`TraceError::TimeOverflow`] when the admitted work would push
    /// the trace's total work or completion horizon past the `Time`
    /// range (checked *before* mutating, so a rejected admit leaves the
    /// trace untouched).
    pub fn admit_job(
        &mut self,
        org: OrgId,
        release: Time,
        proc_time: Time,
        deadline: Option<Time>,
    ) -> Result<JobId, TraceError> {
        let pos = self.releases.partition_point(|&r| r <= release);
        if org.index() >= self.orgs.len() {
            return Err(TraceError::UnknownOrg { job: JobId(pos as u32), org });
        }
        if proc_time == 0 {
            return Err(TraceError::ZeroProcTime { job: JobId(pos as u32) });
        }
        let total = checked_time::checked_add(self.try_total_work()?, proc_time)
            .ok_or(TraceError::TimeOverflow { what: "total_work" })?;
        checked_time::checked_add(self.max_release().max(release), total)
            .ok_or(TraceError::TimeOverflow { what: "completion_horizon" })?;
        self.job_orgs.insert(pos, org);
        self.releases.insert(pos, release);
        self.proc_times.insert(pos, proc_time);
        self.deadlines.insert(pos, deadline);
        // Ids are positions; restore contiguity from the insertion point.
        self.ids.insert(pos, JobId(pos as u32));
        for i in pos + 1..self.ids.len() {
            self.ids[i] = JobId(i as u32);
        }
        self.org_index = OrgIndex::build(self.orgs.len(), &self.job_orgs);
        Ok(JobId(pos as u32))
    }

    /// Validates every model invariant; [`TraceBuilder::build`] guarantees
    /// these, so this is mainly useful for externally constructed traces.
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.orgs.iter().all(|o| o.n_machines == 0) {
            return Err(TraceError::NoMachines);
        }
        for i in 0..self.n_jobs() {
            if self.ids[i].index() != i {
                return Err(TraceError::NonContiguousIds { position: i });
            }
            if self.job_orgs[i].index() >= self.orgs.len() {
                return Err(TraceError::UnknownOrg {
                    job: self.ids[i],
                    org: self.job_orgs[i],
                });
            }
            if self.proc_times[i] == 0 {
                return Err(TraceError::ZeroProcTime { job: self.ids[i] });
            }
            if i > 0 && self.releases[i - 1] > self.releases[i] {
                return Err(TraceError::UnsortedJobs { position: i });
            }
        }
        self.try_completion_horizon()?;
        Ok(())
    }
}

/// A cheap iterable view over a trace's jobs (assembled from the columns).
#[derive(Copy, Clone, Debug)]
pub struct Jobs<'a> {
    trace: &'a Trace,
}

impl<'a> Jobs<'a> {
    /// Number of jobs.
    #[inline]
    pub fn len(&self) -> usize {
        self.trace.n_jobs()
    }

    /// Whether the trace has no jobs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.trace.n_jobs() == 0
    }

    /// The job at a position, if in range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Job> {
        (i < self.len()).then(|| self.trace.assemble(i))
    }

    /// Iterates all jobs in release-sorted order.
    #[inline]
    pub fn iter(&self) -> JobsIter<'a> {
        JobsIter { trace: self.trace, range: 0..self.trace.n_jobs() }
    }
}

impl<'a> IntoIterator for Jobs<'a> {
    type Item = Job;
    type IntoIter = JobsIter<'a>;

    fn into_iter(self) -> JobsIter<'a> {
        self.iter()
    }
}

/// Iterator over a trace's jobs, assembling each [`Job`] from the columns.
#[derive(Clone, Debug)]
pub struct JobsIter<'a> {
    trace: &'a Trace,
    range: std::ops::Range<usize>,
}

impl Iterator for JobsIter<'_> {
    type Item = Job;

    #[inline]
    fn next(&mut self) -> Option<Job> {
        self.range.next().map(|i| self.trace.assemble(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for JobsIter<'_> {}

impl DoubleEndedIterator for JobsIter<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Job> {
        self.range.next_back().map(|i| self.trace.assemble(i))
    }
}

// Hand-written serde impls preserving the historical row-wise shape
// `{"orgs": [...], "jobs": [{id, org, release, proc_time, deadline}, ...]}`
// byte for byte (the `trace:` workload family and the committed goldens pin
// it), while the in-memory representation stays columnar.
#[cfg(feature = "serde")]
impl serde::Serialize for Trace {
    fn to_value(&self) -> serde::Value {
        let jobs: Vec<Job> = self.jobs().iter().collect();
        serde::Value::Object(vec![
            ("orgs".to_string(), serde::Serialize::to_value(&self.orgs)),
            ("jobs".to_string(), serde::Serialize::to_value(&jobs)),
        ])
    }
}

#[cfg(feature = "serde")]
impl serde::Deserialize for Trace {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let orgs: Vec<OrgSpec> = serde::field(v, "orgs", "Trace")?;
        let jobs: Vec<Job> = serde::field(v, "jobs", "Trace")?;
        Ok(Trace::from_parts(orgs, jobs))
    }
}

/// Builder for [`Trace`]; sorts jobs stably by release time and assigns
/// contiguous ids on [`TraceBuilder::build`].
#[derive(Default, Clone, Debug)]
pub struct TraceBuilder {
    orgs: Vec<OrgSpec>,
    jobs: Vec<(OrgId, Time, Time, Option<Time>)>,
}

impl TraceBuilder {
    /// Adds an organization and returns its id.
    pub fn org(&mut self, name: impl Into<String>, n_machines: usize) -> OrgId {
        self.orgs.push(OrgSpec::new(name, n_machines));
        OrgId((self.orgs.len() - 1) as u32)
    }

    /// Adds a job for `org` released at `release` with processing time
    /// `proc_time`.
    pub fn job(&mut self, org: OrgId, release: Time, proc_time: Time) -> &mut Self {
        self.jobs.push((org, release, proc_time, None));
        self
    }

    /// Adds a job with a deadline (for the tardiness utility).
    pub fn job_with_deadline(
        &mut self,
        org: OrgId,
        release: Time,
        proc_time: Time,
        deadline: Time,
    ) -> &mut Self {
        self.jobs.push((org, release, proc_time, Some(deadline)));
        self
    }

    /// Adds `count` identical jobs.
    pub fn jobs(
        &mut self,
        org: OrgId,
        release: Time,
        proc_time: Time,
        count: usize,
    ) -> &mut Self {
        for _ in 0..count {
            self.job(org, release, proc_time);
        }
        self
    }

    /// Jobs added so far (streaming ingestion uses this to bound batches).
    pub fn n_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Rewrites every job's organization `o` to `map[o]`, for ingestion
    /// that files jobs under provisional ids (one per user, say) before the
    /// final organizations are known. Job order is unchanged.
    ///
    /// # Panics
    /// Panics if a job's organization is not an index into `map`.
    pub fn remap_orgs(&mut self, map: &[OrgId]) -> &mut Self {
        for job in &mut self.jobs {
            job.0 = map[job.0.index()];
        }
        self
    }

    /// Finalizes the trace: stable-sorts by release time, assigns ids and
    /// validates.
    pub fn build(mut self) -> Result<Trace, TraceError> {
        self.jobs.sort_by_key(|&(_, release, _, _)| release);
        let jobs = self
            .jobs
            .into_iter()
            .enumerate()
            .map(|(i, (org, release, proc_time, deadline))| Job {
                id: JobId(i as u32),
                org,
                release,
                proc_time,
                deadline,
            })
            .collect();
        let trace = Trace::from_parts(self.orgs, jobs);
        trace.validate()?;
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn two_org_trace() -> Trace {
        let mut b = Trace::builder();
        let a = b.org("alpha", 2);
        let c = b.org("beta", 1);
        b.job(a, 0, 5).job(c, 3, 2).job(a, 1, 1);
        b.build().unwrap()
    }

    #[test]
    fn builder_sorts_and_ids() {
        let t = two_org_trace();
        assert_eq!(t.n_jobs(), 3);
        let releases: Vec<Time> = t.jobs().iter().map(|j| j.release).collect();
        assert_eq!(releases, vec![0, 1, 3]);
        assert_eq!(t.releases(), &[0, 1, 3]);
        for (i, j) in t.jobs().iter().enumerate() {
            assert_eq!(j.id.index(), i);
        }
    }

    #[test]
    fn stable_sort_preserves_fifo() {
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        // Two jobs released simultaneously: insertion order defines FIFO.
        b.job(a, 5, 10).job(a, 5, 20);
        let t = b.build().unwrap();
        assert_eq!(t.proc_times(), &[10, 20]);
        assert_eq!(t.jobs().get(0).unwrap().proc_time, 10);
        assert_eq!(t.jobs().get(1).unwrap().proc_time, 20);
        assert!(t.jobs().get(2).is_none());
    }

    #[test]
    fn remap_orgs_rewrites_provisional_ids_in_place() {
        let mut b = Trace::builder();
        let a = b.org("alpha", 1);
        let c = b.org("beta", 1);
        // Provisional ids 0..3 (say, users) fold onto the two real orgs.
        b.job(OrgId(2), 4, 1).job(OrgId(0), 1, 2).job(OrgId(1), 4, 3);
        b.remap_orgs(&[c, a, c]);
        let t = b.build().unwrap();
        assert_eq!(t.job_orgs(), &[c, c, a]);
        assert_eq!(t.proc_times(), &[2, 1, 3], "stable order by release kept");
    }

    #[test]
    fn columns_match_assembled_jobs() {
        let t = two_org_trace();
        for (i, j) in t.jobs().iter().enumerate() {
            assert_eq!(j, t.job(JobId(i as u32)));
            assert_eq!(j.release, t.releases()[i]);
            assert_eq!(j.proc_time, t.proc_times()[i]);
            assert_eq!(j.org, t.job_orgs()[i]);
            assert_eq!(j.deadline, t.deadlines()[i]);
        }
        let back: Vec<Time> = t.jobs().iter().rev().map(|j| j.release).collect();
        assert_eq!(back, vec![3, 1, 0]);
        assert_eq!(t.jobs().iter().len(), 3);
    }

    #[test]
    fn cluster_info_layout() {
        let t = two_org_trace();
        let info = t.cluster_info();
        assert_eq!(info.n_machines(), 3);
        assert_eq!(info.owner(MachineId(0)), OrgId(0));
        assert_eq!(info.owner(MachineId(1)), OrgId(0));
        assert_eq!(info.owner(MachineId(2)), OrgId(1));
        assert_eq!(info.machines_of(OrgId(0)), 2);
        assert!((info.share(OrgId(1)) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn totals() {
        let t = two_org_trace();
        assert_eq!(t.total_work(), 8);
        assert_eq!(t.max_release(), 3);
        assert_eq!(t.completion_horizon(), 11);
        assert_eq!(t.try_total_work(), Ok(8));
        assert_eq!(t.try_completion_horizon(), Ok(11));
    }

    #[test]
    fn overflowing_totals_error_not_panic() {
        // Total work alone overflows u64: build() must surface the typed
        // error (previously a raw `sum()` panicked under overflow-checks).
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        b.job(a, 0, Time::MAX - 1).job(a, 1, Time::MAX - 1);
        let err = b.build().unwrap_err();
        assert_eq!(err, TraceError::TimeOverflow { what: "total_work" });
        assert!(err.to_string().contains("total_work"));

        // Work fits, but max_release + total_work does not.
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        b.job(a, Time::MAX - 1, 5);
        let err = b.build().unwrap_err();
        assert_eq!(err, TraceError::TimeOverflow { what: "completion_horizon" });

        // The infallible accessors saturate instead of wrapping on such a
        // trace (constructed without validation via from_parts).
        let t = Trace::from_parts(
            vec![OrgSpec::new("a", 1)],
            vec![
                Job {
                    id: JobId(0),
                    org: OrgId(0),
                    release: 0,
                    proc_time: Time::MAX - 1,
                    deadline: None,
                },
                Job {
                    id: JobId(1),
                    org: OrgId(0),
                    release: 1,
                    proc_time: Time::MAX - 1,
                    deadline: None,
                },
            ],
        );
        assert_eq!(t.total_work(), Time::MAX);
        assert_eq!(t.completion_horizon(), Time::MAX);
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_no_machines() {
        let mut b = Trace::builder();
        let a = b.org("a", 0);
        b.job(a, 0, 1);
        assert_eq!(b.build().unwrap_err(), TraceError::NoMachines);
    }

    #[test]
    fn validate_rejects_zero_proc() {
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        b.job(a, 0, 0);
        assert!(matches!(b.build(), Err(TraceError::ZeroProcTime { .. })));
    }

    #[test]
    fn validate_rejects_unknown_org() {
        let mut b = Trace::builder();
        let _ = b.org("a", 1);
        b.job(OrgId(5), 0, 1);
        assert!(matches!(b.build(), Err(TraceError::UnknownOrg { .. })));
    }

    #[test]
    fn restrict_drops_other_jobs() {
        let t = two_org_trace();
        let r = t.restrict_to(&[OrgId(0)]);
        assert_eq!(r.n_orgs(), 2);
        assert_eq!(r.orgs()[1].n_machines, 0);
        assert!(r.jobs().iter().all(|j| j.org == OrgId(0)));
        assert_eq!(r.n_jobs(), 2);
        r.validate().unwrap();
    }

    #[test]
    fn jobs_of_filters() {
        let t = two_org_trace();
        assert_eq!(t.jobs_of(OrgId(0)).count(), 2);
        assert_eq!(t.jobs_of(OrgId(1)).count(), 1);
        assert_eq!(t.n_jobs_of(OrgId(0)), 2);
        assert_eq!(t.n_jobs_of(OrgId(1)), 1);
        // Unknown organizations have no jobs (and no index entry).
        assert_eq!(t.jobs_of(OrgId(7)).count(), 0);
        assert_eq!(t.n_jobs_of(OrgId(7)), 0);
    }

    #[test]
    fn admit_job_inserts_sorted_and_renumbers() {
        let mut t = two_org_trace(); // releases [0, 1, 3]
        let id = t.admit_job(OrgId(1), 2, 7, None).unwrap();
        assert_eq!(id, JobId(2));
        assert_eq!(t.releases(), &[0, 1, 2, 3]);
        assert_eq!(t.proc_times()[2], 7);
        assert_eq!(t.job_orgs()[2], OrgId(1));
        t.validate().unwrap();
        // FIFO among equal releases: a second admit at the same release
        // lands after the first (admission order is FIFO order).
        let id2 = t.admit_job(OrgId(0), 2, 9, None).unwrap();
        assert_eq!(id2, JobId(3));
        assert_eq!(t.proc_times()[2..4], [7, 9]);
        t.validate().unwrap();
        // The per-org index was rebuilt.
        assert_eq!(t.n_jobs_of(OrgId(1)), 2);
        assert_eq!(t.n_jobs_of(OrgId(0)), 3);
    }

    #[test]
    fn admit_job_matches_builder_with_job_added() {
        // Admitting into a built trace equals building with the job in
        // the insertion list — the batch-equivalence anchor the serving
        // determinism contract rests on.
        let mut live = two_org_trace();
        live.admit_job(OrgId(0), 1, 4, None).unwrap();
        let mut b = Trace::builder();
        let a = b.org("alpha", 2);
        let c = b.org("beta", 1);
        b.job(a, 0, 5).job(c, 3, 2).job(a, 1, 1).job(a, 1, 4);
        assert_eq!(live, b.build().unwrap());
    }

    #[test]
    fn admit_job_rejects_bad_inputs_without_mutating() {
        let mut t = two_org_trace();
        let before = t.clone();
        assert!(matches!(
            t.admit_job(OrgId(9), 5, 1, None),
            Err(TraceError::UnknownOrg { .. })
        ));
        assert!(matches!(
            t.admit_job(OrgId(0), 5, 0, None),
            Err(TraceError::ZeroProcTime { .. })
        ));
        assert_eq!(
            t.admit_job(OrgId(0), 5, Time::MAX - 1, None),
            Err(TraceError::TimeOverflow { what: "total_work" })
        );
        assert_eq!(t, before, "rejected admits must leave the trace untouched");
    }

    /// A builder over arbitrary (org, release, proc) triples shared by the
    /// oracle proptests below.
    fn trace_of(specs: &[(u32, Time, Time)], n_orgs: u32) -> Trace {
        let mut b = Trace::builder();
        for u in 0..n_orgs {
            b.org(format!("org{u}"), if u == 0 { 2 } else { 1 });
        }
        for &(u, r, p) in specs {
            b.job(OrgId(u % n_orgs), r, p);
        }
        b.build().unwrap()
    }

    proptest! {
        #[test]
        fn prop_build_always_valid(
            specs in proptest::collection::vec((0u64..100, 1u64..50), 1..40)
        ) {
            let mut b = Trace::builder();
            let o1 = b.org("x", 2);
            let o2 = b.org("y", 1);
            for (i, (r, p)) in specs.iter().enumerate() {
                b.job(if i % 2 == 0 { o1 } else { o2 }, *r, *p);
            }
            let t = b.build().unwrap();
            prop_assert!(t.validate().is_ok());
            // Sorted by release.
            for w in t.releases().windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }

        /// The index-backed `jobs_of` must yield exactly what the naive
        /// full-trace filter yields, in the same (FIFO-of-appearance)
        /// order — the documented contract the CSR index must preserve.
        #[test]
        fn prop_jobs_of_matches_naive_filter(
            specs in proptest::collection::vec(
                (0u32..6, 0u64..50, 1u64..20), 1..60),
            n_orgs in 1u32..6,
        ) {
            let t = trace_of(&specs, n_orgs);
            for u in 0..n_orgs {
                let org = OrgId(u);
                let indexed: Vec<Job> = t.jobs_of(org).collect();
                let naive: Vec<Job> =
                    t.jobs().iter().filter(|j| j.org == org).collect();
                prop_assert_eq!(indexed, naive);
                prop_assert_eq!(t.n_jobs_of(org),
                    t.jobs().iter().filter(|j| j.org == org).count());
            }
        }

        /// Admitting a stream of jobs one by one must equal building the
        /// whole job list at once with [`TraceBuilder`] — the stable-sort
        /// tie order *is* the admission order, the batch-equivalence
        /// anchor the serving determinism contract rests on.
        #[test]
        fn prop_admit_stream_matches_batch_build(
            base in proptest::collection::vec(
                (0u32..4, 0u64..30, 1u64..10), 1..25),
            admits in proptest::collection::vec(
                (0u32..4, 0u64..30, 1u64..10), 1..15),
        ) {
            let n_orgs = 4u32;
            let mut live = trace_of(&base, n_orgs);
            for &(u, r, p) in &admits {
                live.admit_job(OrgId(u % n_orgs), r, p, None).unwrap();
            }
            let mut b = Trace::builder();
            for u in 0..n_orgs {
                b.org(format!("org{u}"), if u == 0 { 2 } else { 1 });
            }
            for &(u, r, p) in base.iter().chain(&admits) {
                b.job(OrgId(u % n_orgs), r, p);
            }
            prop_assert_eq!(live, b.build().unwrap());
        }

        /// `restrict_to` through the index must equal the retained naive
        /// oracle: filter the job list by membership, renumber ids.
        #[test]
        fn prop_restrict_matches_naive_oracle(
            specs in proptest::collection::vec(
                (0u32..5, 0u64..50, 1u64..20), 1..50),
            n_orgs in 1u32..5,
            keep_mask in 1u32..31,
        ) {
            let t = trace_of(&specs, n_orgs);
            let keep: Vec<OrgId> = (0..n_orgs)
                .filter(|u| keep_mask & (1 << u) != 0)
                .map(OrgId)
                .collect();
            let fast = t.restrict_to(&keep);

            // The naive oracle (the pre-index implementation).
            let keep_set: std::collections::HashSet<OrgId> =
                keep.iter().copied().collect();
            let naive_orgs: Vec<OrgSpec> = t
                .orgs()
                .iter()
                .enumerate()
                .map(|(i, o)| {
                    if keep_set.contains(&OrgId(i as u32)) {
                        o.clone()
                    } else {
                        OrgSpec::new(o.name.clone(), 0)
                    }
                })
                .collect();
            let mut naive_jobs: Vec<Job> = t
                .jobs()
                .iter()
                .filter(|j| keep_set.contains(&j.org))
                .collect();
            for (i, j) in naive_jobs.iter_mut().enumerate() {
                j.id = JobId(i as u32);
            }
            prop_assert_eq!(fast, Trace::from_parts(naive_orgs, naive_jobs));
        }
    }
}

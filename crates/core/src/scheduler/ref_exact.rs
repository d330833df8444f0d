//! REF (Figures 1 & 3): the exact exponential fair algorithm.
//!
//! REF maintains a hypothetical fair schedule for **every** subcoalition
//! (the [`CoalitionLattice`]), computes each organization's exact Shapley
//! contribution `φ(u)` from the subcoalition values, and always starts a
//! job of the organization with the largest contribution surplus
//! `φ(u) − ψ(u)` — the `ψ_sp` specialization of Definition 3.1's
//! distance-minimizing rule (Figure 3).
//!
//! Complexity per decision is `O(k·2^k)` plus the lattice bookkeeping —
//! exponential in the number of organizations but independent of job and
//! machine counts beyond the lattice's own simulation work, matching
//! Proposition 3.4 and making REF the fixed-parameter-tractable fairness
//! *benchmark* of the paper (Corollary 3.5).
//!
//! REF needs job durations to run its hypothetical sub-schedules — the
//! execution-oracle boundary documented in DESIGN.md. Construct it with
//! [`RefScheduler::new`] from the trace the engine will replay.

use super::lattice::{CoalitionLattice, TooManyOrgs};
use super::{OrgPicker, Scheduler, SelectContext, StepBumps};
use crate::model::{ClusterInfo, JobMeta, MachineId, OrgId, Time, Trace};
use crate::utility::{SpTracker, Util};
use coopgame::{factorial, Coalition};

/// The exact Shapley-fair scheduler (the paper's fairness reference).
#[derive(Clone, Debug)]
pub struct RefScheduler {
    durations: Vec<Time>,
    lattice: CoalitionLattice,
    grand: Coalition,
    scale: i128,
    trackers: Vec<SpTracker>,
    bumps: StepBumps,
    picker: OrgPicker,
}

impl RefScheduler {
    /// Builds REF for a trace (machine layout and the duration oracle are
    /// read from it); more organizations than the full lattice holds
    /// sub-schedules for ([`MAX_FULL_ORGS`](super::lattice::MAX_FULL_ORGS))
    /// is a typed error. The registry's `ref` factory builds through
    /// this, so a workload spec cannot panic a sweep.
    pub fn try_new(trace: &Trace) -> Result<Self, TooManyOrgs> {
        let machines: Vec<usize> = trace.orgs().iter().map(|o| o.n_machines).collect();
        let k = machines.len();
        Ok(RefScheduler {
            durations: trace.jobs().iter().map(|j| j.proc_time).collect(),
            lattice: CoalitionLattice::full_proper(&machines)?,
            grand: Coalition::grand(k),
            scale: factorial(k) as i128,
            trackers: vec![SpTracker::new(); k],
            bumps: StepBumps::new(k),
            picker: OrgPicker::new(k),
        })
    }

    /// [`try_new`](Self::try_new) for a trace the caller built and knows
    /// to be small enough.
    ///
    /// # Panics
    /// Panics where [`try_new`](Self::try_new) returns an error.
    #[expect(
        clippy::panic,
        reason = "documented panic; callers with outside input (the registry) use try_new"
    )]
    pub fn new(trace: &Trace) -> Self {
        Self::try_new(trace).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The realized `ψ_sp` vector of the real schedule at `t` (as tracked
    /// from engine events).
    pub fn psi(&self, t: Time) -> Vec<Util> {
        self.trackers.iter().map(|tr| tr.value_at(t)).collect()
    }

    /// Exact scaled contributions `φ(u)·k!` at `t`. The lattice is settled
    /// as a side effect.
    pub fn contributions_scaled(&mut self, t: Time) -> Vec<i128> {
        self.lattice.settle(t);
        let grand_value: Util = self.trackers.iter().map(|tr| tr.value_at(t)).sum();
        self.lattice.shapley_for(self.grand, t, Some(grand_value))
    }

    /// Exact contributions `φ(u)` at `t` as `f64` (scaled back by `k!`).
    pub fn contributions(&mut self, t: Time) -> Vec<f64> {
        let scale = self.scale as f64;
        self.contributions_scaled(t).into_iter().map(|phi| phi as f64 / scale).collect()
    }

    /// Read-only access to the subcoalition lattice (for analysis tools).
    pub fn lattice(&self) -> &CoalitionLattice {
        &self.lattice
    }
}

impl Scheduler for RefScheduler {
    fn name(&self) -> String {
        "Ref".into()
    }

    fn init(&mut self, info: &ClusterInfo) {
        assert_eq!(
            info.n_orgs(),
            self.trackers.len(),
            "REF was built for a different trace"
        );
    }

    fn on_admit(&mut self, job: &crate::model::Job) {
        // Splice the new duration into the oracle at the id the trace
        // assigned; later (unreleased) jobs shift by one in lockstep with
        // the trace's renumbering. The lattice and its φ rows are untouched:
        // they only learn of the job at its `on_release`, exactly as they
        // would have in a batch run over the grown trace.
        self.durations.insert(job.id.index(), job.proc_time);
    }

    fn on_release(&mut self, t: Time, job: &JobMeta) {
        let proc = self.durations[job.id.index()];
        self.lattice.release(t, job.org, proc);
    }

    fn on_start(&mut self, t: Time, job: &JobMeta, _machine: MachineId) {
        self.trackers[job.org.index()].on_start(t);
        self.bumps.add(t, job.org, 1);
    }

    fn on_complete(&mut self, t: Time, job: &JobMeta, _machine: MachineId, start: Time) {
        self.trackers[job.org.index()].on_complete(start, t);
    }

    fn select(&mut self, ctx: &SelectContext<'_>) -> OrgId {
        let t = ctx.t;
        let phi = self.contributions_scaled(t);
        let trackers = &self.trackers;
        let bumps = &self.bumps;
        let scale = self.scale;
        self.picker.pick_max(ctx, |u| {
            phi[u.index()] - scale * (trackers[u.index()].value_at(t) + bumps.get(t, u))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::JobId;

    fn meta(id: u32, org: u32, release: Time) -> JobMeta {
        JobMeta { id: JobId(id), org: OrgId(org), release }
    }

    /// Two orgs, one machine each, one unit job each at t=0: perfectly
    /// symmetric, so REF must serve both in the same time moment (two free
    /// machines) — and its selections must alternate.
    #[test]
    fn symmetric_orgs_alternate() {
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        let c = b.org("b", 1);
        b.job(a, 0, 1).job(c, 0, 1);
        let trace = b.build().unwrap();
        let mut s = RefScheduler::new(&trace);
        s.init(&trace.cluster_info());
        s.on_release(0, &meta(0, 0, 0));
        s.on_release(0, &meta(1, 1, 0));
        let w = [1usize, 1];
        let ctx = SelectContext { t: 0, waiting: &w, free_machines: &[] };
        let first = s.select(&ctx);
        s.on_start(0, &meta(first.0, first.0, 0), MachineId(first.0));
        let w2: [usize; 2] = if first.0 == 0 { [0, 1] } else { [1, 0] };
        let ctx2 = SelectContext { t: 0, waiting: &w2, free_machines: &[] };
        let second = s.select(&ctx2);
        assert_ne!(first, second);
    }

    /// An org with a machine but no jobs accumulates contribution; when it
    /// finally releases a job, REF prioritizes it over the org that has
    /// been consuming the pool.
    #[test]
    fn contributor_is_prioritized() {
        let mut b = Trace::builder();
        let a = b.org("busy", 1);
        let c = b.org("donor", 1);
        // Org a: four 2-unit jobs at t=0 (keeps both machines busy).
        b.jobs(a, 0, 2, 4);
        // Org c: one job at t=4.
        b.job(c, 4, 2);
        let trace = b.build().unwrap();
        let mut s = RefScheduler::new(&trace);
        s.init(&trace.cluster_info());
        // Replay: t=0 release a's jobs; both machines take a's jobs.
        for i in 0..4 {
            s.on_release(0, &meta(i, 0, 0));
        }
        s.on_start(0, &meta(0, 0, 0), MachineId(0));
        s.on_start(0, &meta(1, 0, 0), MachineId(1));
        s.on_complete(2, &meta(0, 0, 0), MachineId(0), 0);
        s.on_complete(2, &meta(1, 0, 0), MachineId(1), 0);
        s.on_start(2, &meta(2, 0, 0), MachineId(0));
        s.on_start(2, &meta(3, 0, 0), MachineId(1));
        s.on_complete(4, &meta(2, 0, 0), MachineId(0), 2);
        s.on_complete(4, &meta(3, 0, 0), MachineId(1), 2);
        // t=4: c's job arrives; both orgs have waiting? a exhausted (4 jobs
        // started). Only c waits: trivially selected. Instead check the
        // contribution numbers directly: c's phi must exceed its psi.
        s.on_release(4, &meta(4, 1, 4));
        let phi = s.contributions(4);
        let psi = s.psi(4);
        assert!(psi[1] == 0);
        assert!(
            phi[1] > 0.0,
            "the donor's machine worked for org a; its contribution must be positive, got {phi:?}"
        );
        assert!(
            (phi[0] + phi[1] - (psi[0] + psi[1]) as f64).abs() < 1e-9,
            "efficiency: contributions must sum to the grand value"
        );
        // And the surplus ranking favors the donor.
        assert!(phi[1] - psi[1] as f64 > phi[0] - psi[0] as f64);
    }

    #[test]
    fn single_org_contribution_equals_value() {
        let mut b = Trace::builder();
        let a = b.org("solo", 2);
        b.job(a, 0, 3).job(a, 1, 2);
        let trace = b.build().unwrap();
        let mut s = RefScheduler::new(&trace);
        s.init(&trace.cluster_info());
        s.on_release(0, &meta(0, 0, 0));
        s.on_start(0, &meta(0, 0, 0), MachineId(0));
        s.on_release(1, &meta(1, 0, 1));
        s.on_start(1, &meta(1, 0, 1), MachineId(1));
        s.on_complete(3, &meta(0, 0, 0), MachineId(0), 0);
        s.on_complete(3, &meta(1, 0, 1), MachineId(1), 1);
        let phi = s.contributions(10);
        let psi = s.psi(10);
        assert!((phi[0] - psi[0] as f64).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "different trace")]
    fn init_rejects_mismatched_cluster() {
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        b.job(a, 0, 1);
        let trace = b.build().unwrap();
        let mut s = RefScheduler::new(&trace);
        s.init(&ClusterInfo::new(vec![1, 1]));
    }
}

//! DIRECTCONTR (Figure 9): the paper's practical polynomial heuristic.
//!
//! The contribution of an organization is estimated *directly* — without
//! enumerating subcoalitions — as the `ψ_sp`-value of the job parts
//! computed **on its machines** (for anyone's jobs), while its utility is
//! the `ψ_sp`-value of **its jobs'** parts (on anyone's machines). Jobs are
//! assigned to free machines in random order, and the organization with the
//! largest contribution-minus-utility surplus goes first — the same
//! `argmax (φ − ψ)` selection rule as REF, with the heuristic `φ`.
//!
//! Deviation note (documented in DESIGN.md): the published pseudo-code
//! swaps `φ[own(J)]`/`ψ[own(m)]` relative to the prose; we follow the prose
//! ("the job that is started on processor m increases the contribution of
//! the owner of m by the utility of this job"). Instead of the incremental
//! drift updates of Figure 9 (which are an event-driven computation of
//! `ψ_sp` closed forms), we track the closed forms exactly with
//! [`SpTracker`]s — same quantities, no accumulation drift.

use super::{OrgPicker, Scheduler, SelectContext, StepBumps};
use crate::model::{ClusterInfo, JobMeta, MachineId, OrgId, Time};
use crate::utility::SpTracker;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The DIRECTCONTR heuristic scheduler. Non-clairvoyant and polynomial:
/// per decision it only compares `k` surplus values.
#[derive(Clone, Debug)]
pub struct DirectContrScheduler {
    /// ψ per job-owning organization.
    utility: Vec<SpTracker>,
    /// φ per machine-owning organization.
    contribution: Vec<SpTracker>,
    /// Within-step bumps on ψ (job owner).
    psi_bumps: StepBumps,
    /// Within-step bumps on φ (machine owner).
    phi_bumps: StepBumps,
    picker: OrgPicker,
    owners: Vec<OrgId>,
    rng: StdRng,
}

impl DirectContrScheduler {
    /// A DIRECTCONTR scheduler; `seed` drives the random machine
    /// permutation of Figure 9.
    pub fn new(seed: u64) -> Self {
        DirectContrScheduler {
            utility: Vec::new(),
            contribution: Vec::new(),
            psi_bumps: StepBumps::new(0),
            phi_bumps: StepBumps::new(0),
            picker: OrgPicker::new(0),
            owners: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for DirectContrScheduler {
    fn name(&self) -> String {
        "DirectContr".into()
    }

    fn init(&mut self, info: &ClusterInfo) {
        let n = info.n_orgs();
        self.utility = vec![SpTracker::new(); n];
        self.contribution = vec![SpTracker::new(); n];
        self.psi_bumps = StepBumps::new(n);
        self.phi_bumps = StepBumps::new(n);
        self.picker = OrgPicker::new(n);
        self.owners =
            (0..info.n_machines()).map(|m| info.owner(MachineId(m as u32))).collect();
    }

    fn on_start(&mut self, t: Time, job: &JobMeta, machine: MachineId) {
        let owner = self.owners[machine.index()];
        self.utility[job.org.index()].on_start(t);
        self.contribution[owner.index()].on_start(t);
        // Figure 9's `finUt[org] += 1; finCon[own(m)] += 1` on start: the
        // one-step-ahead worth of the unit just placed.
        self.psi_bumps.add(t, job.org, 1);
        self.phi_bumps.add(t, owner, 1);
    }

    fn on_complete(&mut self, t: Time, job: &JobMeta, machine: MachineId, start: Time) {
        let owner = self.owners[machine.index()];
        self.utility[job.org.index()].on_complete(start, t);
        self.contribution[owner.index()].on_complete(start, t);
    }

    fn select(&mut self, ctx: &SelectContext<'_>) -> OrgId {
        let t = ctx.t;
        let utility = &self.utility;
        let contribution = &self.contribution;
        let psi_bumps = &self.psi_bumps;
        let phi_bumps = &self.phi_bumps;
        self.picker.pick_max(ctx, |u| {
            let phi = contribution[u.index()].value_at(t) + phi_bumps.get(t, u);
            let psi = utility[u.index()].value_at(t) + psi_bumps.get(t, u);
            phi - psi
        })
    }

    fn pick_machine(&mut self, ctx: &SelectContext<'_>, _job: &JobMeta) -> Option<usize> {
        // Figure 9 iterates processors in a random permutation; for the
        // single machine being filled this is a uniform pick among the free
        // ones.
        if ctx.free_machines.is_empty() {
            None
        } else {
            Some(self.rng.random_range(0..ctx.free_machines.len()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::JobId;

    fn meta(id: u32, org: u32) -> JobMeta {
        JobMeta { id: JobId(id), org: OrgId(org), release: 0 }
    }

    fn ctx<'a>(
        t: Time,
        waiting: &'a [usize],
        free: &'a [MachineId],
    ) -> SelectContext<'a> {
        SelectContext { t, waiting, free_machines: free }
    }

    #[test]
    fn surplus_prefers_contributing_org() {
        // Two orgs, one machine each. Org 1's machine computed org 0's job
        // for 10 units: org 1 has contribution 10-ish, utility 0.
        let mut s = DirectContrScheduler::new(1);
        s.init(&ClusterInfo::new(vec![1, 1]));
        // Org 0's job runs on machine 1 (owned by org 1).
        s.on_start(0, &meta(0, 0), MachineId(1));
        s.on_complete(10, &meta(0, 0), MachineId(1), 0);
        let w = [1usize, 1];
        // phi(org1) - psi(org1) = 55 - 0 > phi(org0) - psi(org0) = 0 - 55.
        assert_eq!(s.select(&ctx(10, &w, &[])), OrgId(1));
    }

    #[test]
    fn own_machine_own_job_is_neutral() {
        // A job of org 0 on org 0's machine adds equally to phi and psi:
        // surplus stays 0, so ties rotate.
        let mut s = DirectContrScheduler::new(2);
        s.init(&ClusterInfo::new(vec![1, 1]));
        s.on_start(0, &meta(0, 0), MachineId(0));
        s.on_complete(5, &meta(0, 0), MachineId(0), 0);
        let w = [1usize, 1];
        let a = s.select(&ctx(5, &w, &[]));
        let b = s.select(&ctx(5, &w, &[]));
        assert_ne!(a, b, "neutral history must leave orgs tied");
    }

    #[test]
    fn bumps_rotate_within_step() {
        let mut s = DirectContrScheduler::new(3);
        s.init(&ClusterInfo::new(vec![1, 1]));
        let w = [2usize, 2];
        let first = s.select(&ctx(0, &w, &[]));
        // Starting first's job on ITS OWN machine bumps psi and phi equally;
        // start it on the other org's machine: phi goes to the other org.
        let other = OrgId(1 - first.0);
        let machine = MachineId(other.0); // other org's machine
        s.on_start(0, &meta(0, first.0), machine);
        // Now other org has phi-bump 1, first has psi-bump 1: other wins.
        assert_eq!(s.select(&ctx(0, &w, &[])), other);
    }

    #[test]
    fn machine_pick_is_among_free() {
        let mut s = DirectContrScheduler::new(4);
        s.init(&ClusterInfo::new(vec![2, 2]));
        let free = [MachineId(1), MachineId(3)];
        let w = [1usize, 0];
        for _ in 0..10 {
            let idx = s.pick_machine(&ctx(0, &w, &free), &meta(0, 0)).unwrap();
            assert!(idx < free.len());
        }
        assert_eq!(s.pick_machine(&ctx(0, &w, &[]), &meta(0, 0)), None);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut s = DirectContrScheduler::new(seed);
            s.init(&ClusterInfo::new(vec![1, 1, 1]));
            let w = [1usize, 1, 1];
            let free = [MachineId(0), MachineId(1), MachineId(2)];
            (0..10)
                .map(|_| s.pick_machine(&ctx(0, &w, &free), &meta(0, 0)).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }
}

//! FIFO and uniformly-random baselines (not in the paper's evaluation, but
//! useful greedy reference points).

use super::{OrgPicker, Scheduler, SelectContext};
use crate::model::{ClusterInfo, JobMeta, MachineId, OrgId, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Global first-in-first-out: the organization whose oldest waiting job was
/// released earliest goes next (ties by arrival order). This is the classic
/// single-queue cluster policy, oblivious to both fairness and ownership.
///
/// The key of an organization is its queue head's `(release, arrival
/// sequence)`, unique per job, so [`OrgPicker::pick_min_key`]'s tie-break
/// never decides.
#[derive(Clone, Debug, Default)]
pub struct FifoScheduler {
    /// Per-org queue of (release, arrival sequence) of waiting jobs.
    queues: Vec<VecDeque<(Time, u64)>>,
    seq: u64,
    picker: OrgPicker<(Time, u64)>,
}

impl FifoScheduler {
    /// A fresh FIFO scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for FifoScheduler {
    fn name(&self) -> String {
        "Fifo".into()
    }

    fn init(&mut self, info: &ClusterInfo) {
        self.queues = vec![VecDeque::new(); info.n_orgs()];
        self.seq = 0;
        self.picker = OrgPicker::new(info.n_orgs());
    }

    fn on_release(&mut self, _t: Time, job: &JobMeta) {
        self.seq += 1;
        self.queues[job.org.index()].push_back((job.release, self.seq));
        self.picker.invalidate();
    }

    fn on_start(&mut self, t: Time, job: &JobMeta, _machine: MachineId) {
        let queue = &mut self.queues[job.org.index()];
        #[expect(
            clippy::expect_used,
            reason = "the engine starts only released jobs, and each release pushed an entry"
        )]
        queue.pop_front().expect("start without matching release");
        if let Some(&head) = queue.front() {
            self.picker.patch(t, job.org, head);
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "`select` is called only with a waiting job, and each waiting job has a queue entry"
    )]
    fn select(&mut self, ctx: &SelectContext<'_>) -> OrgId {
        let queues = &self.queues;
        self.picker.pick_min_key(ctx, |u| {
            queues[u.index()]
                .front()
                .copied()
                .expect("waiting count disagrees with queue")
        })
    }
}

/// Starts the job of a uniformly random organization among those waiting.
/// A stochastic baseline for fairness comparisons.
#[derive(Clone, Debug)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// A random scheduler with the given seed (deterministic per seed).
    pub fn new(seed: u64) -> Self {
        RandomScheduler { rng: StdRng::seed_from_u64(seed) }
    }
}

impl Scheduler for RandomScheduler {
    fn name(&self) -> String {
        "Random".into()
    }

    fn select(&mut self, ctx: &SelectContext<'_>) -> OrgId {
        let candidates: Vec<OrgId> = ctx.waiting_orgs().collect();
        assert!(!candidates.is_empty(), "select called with no waiting jobs");
        candidates[self.rng.random_range(0..candidates.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::JobId;
    use crate::scheduler::testkit::assert_matches_oracle;

    fn meta(id: u32, org: u32, release: Time) -> JobMeta {
        JobMeta { id: JobId(id), org: OrgId(org), release }
    }

    #[test]
    fn fifo_prefers_earliest_release() {
        let mut s = FifoScheduler::new();
        s.init(&ClusterInfo::new(vec![1, 1]));
        s.on_release(5, &meta(0, 1, 5));
        s.on_release(7, &meta(1, 0, 7));
        let w = [1usize, 1];
        let ctx = SelectContext { t: 7, waiting: &w, free_machines: &[] };
        assert_eq!(s.select(&ctx), OrgId(1));
    }

    #[test]
    fn fifo_ties_broken_by_arrival() {
        let mut s = FifoScheduler::new();
        s.init(&ClusterInfo::new(vec![1, 1]));
        s.on_release(5, &meta(0, 1, 5));
        s.on_release(5, &meta(1, 0, 5));
        let w = [1usize, 1];
        let ctx = SelectContext { t: 5, waiting: &w, free_machines: &[] };
        assert_eq!(s.select(&ctx), OrgId(1)); // arrived first
    }

    #[test]
    fn fifo_pops_on_start() {
        let mut s = FifoScheduler::new();
        s.init(&ClusterInfo::new(vec![1, 1]));
        s.on_release(0, &meta(0, 0, 0));
        s.on_release(1, &meta(1, 1, 1));
        s.on_start(1, &meta(0, 0, 0), crate::model::MachineId(0));
        let w = [0usize, 1];
        let ctx = SelectContext { t: 1, waiting: &w, free_machines: &[] };
        assert_eq!(s.select(&ctx), OrgId(1));
    }

    #[test]
    fn release_within_a_round_joins_the_candidates() {
        let mut s = FifoScheduler::new();
        s.init(&ClusterInfo::new(vec![1, 1]));
        s.on_release(5, &meta(0, 0, 5));
        let ctx = |waiting| SelectContext { t: 5, waiting, free_machines: &[] };
        assert_eq!(s.select(&ctx(&[1, 0])), OrgId(0));
        s.on_start(5, &meta(0, 0, 5), crate::model::MachineId(0));
        s.on_release(5, &meta(1, 1, 5));
        assert_eq!(s.select(&ctx(&[0, 1])), OrgId(1));
    }

    #[test]
    fn cached_picks_match_the_per_call_scan() {
        assert_matches_oracle(FifoScheduler::new, |s, ctx| {
            let queues = &s.queues;
            s.picker
                .pick_min_key_scan(ctx, |u| queues[u.index()].front().copied().unwrap())
        });
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let w = [1usize, 1, 1, 1];
        let picks = |seed| {
            let mut s = RandomScheduler::new(seed);
            let ctx = SelectContext { t: 0, waiting: &w, free_machines: &[] };
            (0..20).map(|_| s.select(&ctx).0).collect::<Vec<_>>()
        };
        assert_eq!(picks(1), picks(1));
    }

    #[test]
    fn random_only_picks_waiting() {
        let mut s = RandomScheduler::new(3);
        let w = [0usize, 1, 0];
        let ctx = SelectContext { t: 0, waiting: &w, free_machines: &[] };
        for _ in 0..10 {
            assert_eq!(s.select(&ctx), OrgId(1));
        }
    }
}

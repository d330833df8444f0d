//! REF for **arbitrary** utility functions (Figure 1, literally).
//!
//! [`RefScheduler`](super::RefScheduler) specializes Figure 1 to `ψ_sp`
//! (Figure 3) with exact integer arithmetic. This module implements the
//! general algorithm: it works with any [`Utility`] — flow time, resource
//! share, tardiness, makespan — by maintaining a *materialized schedule*
//! per subcoalition and selecting by the Manhattan-distance rule of
//! Definition 3.1:
//!
//! ```text
//! Distance(C, u, t) = |φ(u) + Δψ/‖C‖ − ψ(u) − Δψ|
//!                   + Σ_{u'≠u} |φ(u') + Δψ/‖C‖ − ψ(u')|
//! ```
//!
//! where `Δψ` is the utility gain of tentatively starting `u`'s head job
//! now. Two conventions, both documented in DESIGN.md §2:
//!
//! * `Δψ` is evaluated **one step ahead** (`t+1`) with one observed unit of
//!   the tentative job — at `t` itself a just-started job has executed
//!   nothing and the literal formula ties across organizations;
//! * running jobs are evaluated by their executed part (the non-clairvoyant
//!   reading: a utility may only depend on work completed by `t`).
//!
//! Minimization objectives (`Utility::maximizing() == false`) are negated
//! internally so that "more is better" uniformly.
//!
//! This implementation favours clarity over speed (it re-evaluates the
//! utility over materialized schedules at every decision); use it as a
//! small-instance reference, exactly how the paper positions REF.

use super::{Scheduler, SelectContext};
use crate::model::{ClusterInfo, JobId, JobMeta, MachineId, OrgId, Time, Trace};
use crate::schedule::{Schedule, ScheduledJob};
use crate::utility::Utility;
use coopgame::{factorial, Coalition, Player};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::Arc;

/// A partially materialized hypothetical schedule for one coalition.
#[derive(Clone, Debug)]
struct GenSim {
    coalition: Coalition,
    n_machines: usize,
    busy: usize,
    /// Per-org FIFO queues of (job, release, proc).
    waiting: Vec<VecDeque<(JobId, Time, Time)>>,
    /// Started jobs: (job, org, start, completion).
    started: Vec<(JobId, OrgId, Time, Time)>,
    /// Pending completions (time, index into `started`).
    completions: BinaryHeap<Reverse<(Time, usize)>>,
    /// Recency stamps for tie-breaking.
    stamps: Vec<u64>,
    counter: u64,
}

impl GenSim {
    fn new(coalition: Coalition, n_orgs: usize, n_machines: usize) -> Self {
        GenSim {
            coalition,
            n_machines,
            busy: 0,
            waiting: vec![VecDeque::new(); n_orgs],
            started: Vec::new(),
            completions: BinaryHeap::new(),
            stamps: vec![0; n_orgs],
            counter: 0,
        }
    }

    fn release(&mut self, job: JobId, t: Time, proc: Time, org: OrgId) {
        self.waiting[org.index()].push_back((job, t, proc));
    }

    fn pop_completions_up_to(&mut self, t: Time) {
        while let Some(&Reverse((ct, _))) = self.completions.peek() {
            if ct > t {
                break;
            }
            self.completions.pop();
            self.busy -= 1;
        }
    }

    fn eligible(&self, org: OrgId, t: Time) -> bool {
        self.waiting[org.index()].front().is_some_and(|&(_, r, _)| r <= t)
    }

    fn can_schedule(&self, t: Time) -> bool {
        self.busy < self.n_machines
            && self.coalition.members().any(|p| self.eligible(OrgId(p.0 as u32), t))
    }

    fn start_head(&mut self, org: OrgId, t: Time) {
        #[expect(
            clippy::expect_used,
            reason = "callers pass an org that `eligible` accepted, which has a head job"
        )]
        let (job, _, proc) = self.waiting[org.index()].pop_front().expect("no head");
        self.busy += 1;
        let idx = self.started.len();
        self.started.push((job, org, t, t + proc));
        self.completions.push(Reverse((t + proc, idx)));
        self.counter += 1;
        self.stamps[org.index()] = self.counter;
    }

    /// Materializes the schedule visible at time `t`: completed jobs keep
    /// their true processing time; running jobs are clipped to their
    /// executed part (non-clairvoyant evaluation). Machine ids are
    /// synthetic (identical machines; utilities may not depend on them).
    fn schedule_at(&self, t: Time) -> Schedule {
        self.started
            .iter()
            .filter(|&&(_, _, s, _)| s <= t)
            .map(|&(job, org, s, c)| ScheduledJob {
                job,
                org,
                machine: MachineId(0),
                start: s,
                proc_time: (c.min(t.max(s + 1)) - s).max(1).min(c - s),
            })
            .collect()
    }

    /// As [`GenSim::schedule_at`] plus a tentative head job of `org`
    /// started at `t` with one observed unit.
    fn schedule_with_tentative(&self, org: OrgId, t: Time) -> Schedule {
        let mut entries: Vec<ScheduledJob> = self.schedule_at(t).entries().to_vec();
        #[expect(
            clippy::expect_used,
            reason = "callers pass an org that `eligible` accepted, which has a head job"
        )]
        let &(job, _, _) = self.waiting[org.index()].front().expect("no head");
        entries.push(ScheduledJob {
            job,
            org,
            machine: MachineId(0),
            start: t,
            proc_time: 1,
        });
        entries.into_iter().collect()
    }
}

/// REF for an arbitrary utility function (Figure 1).
pub struct GeneralRefScheduler {
    utility: Arc<dyn Utility + Send + Sync>,
    trace: Arc<Trace>,
    sims: Vec<GenSim>,
    index: BTreeMap<u64, usize>,
    events: BinaryHeap<Reverse<(Time, usize)>>,
    grand: Coalition,
    /// The real schedule, mirrored from engine events (completion times
    /// filled in as they are revealed).
    real: GenSim,
    real_pos: BTreeMap<JobId, usize>,
    sign: f64,
}

impl GeneralRefScheduler {
    /// The most organizations the general REF runs (each decision
    /// re-evaluates `2^k` materialized schedules).
    pub const MAX_ORGS: usize = 12;

    /// Builds the general REF for `trace` under `utility`.
    ///
    /// # Panics
    /// Panics if the trace has more than [`MAX_ORGS`](Self::MAX_ORGS)
    /// organizations (the registry's `general-ref` factory checks first
    /// and returns a typed error).
    pub fn new(trace: &Trace, utility: impl Utility + Send + Sync + 'static) -> Self {
        let k = trace.n_orgs();
        assert!(
            k <= Self::MAX_ORGS,
            "general REF supports at most {} organizations",
            Self::MAX_ORGS
        );
        let machines: Vec<usize> = trace.orgs().iter().map(|o| o.n_machines).collect();
        let grand = Coalition::grand(k);
        let mut sims = Vec::new();
        let mut index = BTreeMap::new();
        for c in grand.proper_subsets() {
            if c.is_empty() {
                continue;
            }
            let m = c.members().map(|p| machines[p.0]).sum();
            index.insert(c.bits(), sims.len());
            sims.push(GenSim::new(c, k, m));
        }
        let sign = if utility.maximizing() { 1.0 } else { -1.0 };
        GeneralRefScheduler {
            utility: Arc::new(utility),
            trace: Arc::new(trace.clone()),
            sims,
            index,
            events: BinaryHeap::new(),
            grand,
            real: GenSim::new(grand, k, machines.iter().sum()),
            real_pos: BTreeMap::new(),
            sign,
        }
    }

    /// Signed utility of `org` in a schedule (negated for minimization
    /// objectives so larger is uniformly better).
    fn psi(&self, schedule: &Schedule, org: OrgId, t: Time) -> f64 {
        self.sign * self.utility.value(&self.trace, schedule, org, t)
    }

    fn coalition_value(&self, c: Coalition, schedule: &Schedule, t: Time) -> f64 {
        c.members().map(|p| self.psi(schedule, OrgId(p.0 as u32), t)).sum()
    }

    /// Processes all hypothetical-schedule events up to and including `t`,
    /// running the fair scheduling round at each event time.
    fn settle(&mut self, t: Time) {
        while let Some(&Reverse((et, _))) = self.events.peek() {
            if et > t {
                break;
            }
            let mut wake = Vec::new();
            while let Some(&Reverse((e2, i))) = self.events.peek() {
                if e2 > et {
                    break;
                }
                self.events.pop();
                wake.push(i);
            }
            wake.sort_unstable();
            wake.dedup();
            for &i in &wake {
                self.sims[i].pop_completions_up_to(et);
            }
            self.schedule_round(et);
        }
        self.schedule_round(t);
    }

    fn schedule_round(&mut self, t: Time) {
        for i in 0..self.sims.len() {
            while self.sims[i].can_schedule(t) {
                let org = self.pick_for(self.sims[i].coalition, t, None);
                self.sims[i].start_head(org, t);
                #[expect(
                    clippy::unwrap_used,
                    reason = "`start_head` pushed a started entry on the line above"
                )]
                let &(_, _, _, completion) = self.sims[i].started.last().unwrap();
                self.events.push(Reverse((completion, i)));
            }
        }
    }

    /// The Figure 1 selection for coalition `c` at `t`. For proper
    /// subcoalitions, `real_override` is `None` and the sim's own state is
    /// used; for the grand coalition the caller passes the engine-mirrored
    /// real schedule sim.
    fn pick_for(&self, c: Coalition, t: Time, real_override: Option<&GenSim>) -> OrgId {
        let sim = match real_override {
            Some(r) => r,
            None => &self.sims[self.index[&c.bits()]],
        };
        let size = c.len();
        // Subcoalition value table (signed), v(∅) = 0.
        let mut values: BTreeMap<u64, f64> = BTreeMap::new();
        values.insert(0, 0.0);
        for s in c.subsets() {
            if s.is_empty() {
                continue;
            }
            let v = if s == c {
                self.coalition_value(c, &sim.schedule_at(t), t)
            } else {
                let sub = &self.sims[self.index[&s.bits()]];
                self.coalition_value(s, &sub.schedule_at(t), t)
            };
            values.insert(s.bits(), v);
        }
        // Shapley contributions of the members.
        let n_fact = factorial(size) as f64;
        let mut phi: BTreeMap<usize, f64> = BTreeMap::new();
        for p in c.members() {
            let others = c.remove(p);
            let mut acc = 0.0;
            for s in others.subsets() {
                let w =
                    (factorial(s.len()) * factorial(size - s.len() - 1)) as f64 / n_fact;
                acc += w * (values[&s.insert(p).bits()] - values[&s.bits()]);
            }
            phi.insert(p.0, acc);
        }
        let base_psi: BTreeMap<usize, f64> = c
            .members()
            .map(|p| (p.0, self.psi(&sim.schedule_at(t), OrgId(p.0 as u32), t)))
            .collect();

        // Distance(C, u, t) per Figure 1, with the one-step-ahead marginal.
        let mut best: Option<(f64, u64, u32)> = None; // (distance, stamp, org)
        for p in c.members() {
            let u = OrgId(p.0 as u32);
            if !sim.eligible(u, t) {
                continue;
            }
            let tentative = sim.schedule_with_tentative(u, t);
            let delta =
                self.psi(&tentative, u, t + 1) - self.psi(&sim.schedule_at(t), u, t + 1);
            let share = delta / size as f64;
            let mut dist = (phi[&p.0] + share - base_psi[&p.0] - delta).abs();
            for q in c.members() {
                if q != p {
                    dist += (phi[&q.0] + share - base_psi[&q.0]).abs();
                }
            }
            let key = (dist, sim.stamps[p.0], u.0);
            let better = match &best {
                None => true,
                Some((bd, bs, bo)) => {
                    dist < *bd - 1e-12
                        || ((dist - *bd).abs() <= 1e-12
                            && (sim.stamps[p.0], u.0) < (*bs, *bo))
                }
            };
            if better {
                best = Some(key);
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "callers pick only where `can_schedule` found an eligible member"
        )]
        let (_, _, org) = best.expect("pick_for with nothing eligible");
        OrgId(org)
    }
}

impl Scheduler for GeneralRefScheduler {
    fn name(&self) -> String {
        format!("GeneralRef({})", self.utility.name())
    }

    fn init(&mut self, info: &ClusterInfo) {
        assert_eq!(
            info.n_orgs(),
            self.trace.n_orgs(),
            "general REF was built for a different trace"
        );
    }

    fn admits_jobs(&self) -> bool {
        // The general REF holds an `Arc` of the trace it was built from
        // and re-reads it on every release; splicing a shared snapshot is
        // not possible, and the 2^k materialized sub-schedules make it a
        // benchmark tool, not a serving scheduler. Decline, so sessions
        // surface a typed error instead of desynchronizing.
        false
    }

    fn on_release(&mut self, t: Time, job: &JobMeta) {
        let proc = self.trace.job(job.id).proc_time;
        self.settle(t);
        let player = Player(job.org.index());
        for i in 0..self.sims.len() {
            if self.sims[i].coalition.contains(player) {
                self.sims[i].release(job.id, t, proc, job.org);
                self.events.push(Reverse((t, i)));
            }
        }
        // Mirror into the real-coalition queue.
        self.real.release(job.id, t, proc, job.org);
    }

    fn on_start(&mut self, t: Time, job: &JobMeta, _machine: MachineId) {
        // The engine starts the FIFO head; mirror it. Completion time is a
        // placeholder until revealed (treated as running).
        #[expect(
            clippy::expect_used,
            reason = "the engine starts only released jobs, and each release pushed an entry"
        )]
        let (jid, _, _) = self.real.waiting[job.org.index()]
            .pop_front()
            .expect("start without release");
        debug_assert_eq!(jid, job.id);
        let idx = self.real.started.len();
        self.real.started.push((job.id, job.org, t, Time::MAX));
        self.real_pos.insert(job.id, idx);
        self.real.counter += 1;
        self.real.stamps[job.org.index()] = self.real.counter;
    }

    fn on_complete(&mut self, t: Time, job: &JobMeta, _machine: MachineId, _start: Time) {
        let idx = self.real_pos[&job.id];
        self.real.started[idx].3 = t;
    }

    fn select(&mut self, ctx: &SelectContext<'_>) -> OrgId {
        self.settle(ctx.t);
        // Clip the real sim's running jobs at ctx.t for evaluation: done
        // inside schedule_at via the completion min.
        let real = clip_real(&self.real, ctx.t);
        self.pick_for(self.grand, ctx.t, Some(&real))
    }
}

/// A copy of the real sim whose unrevealed completions are clipped at `t`
/// (running jobs count only their executed part).
fn clip_real(real: &GenSim, t: Time) -> GenSim {
    let mut r = real.clone();
    for entry in &mut r.started {
        if entry.3 == Time::MAX {
            entry.3 = t.max(entry.2 + 1);
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::{FlowTime, SpUtility};

    fn two_org_trace() -> Trace {
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        let c = b.org("b", 1);
        b.job(a, 0, 2).job(c, 0, 2).job(a, 1, 3).job(c, 2, 1);
        b.build().unwrap()
    }

    fn meta(trace: &Trace, id: u32) -> JobMeta {
        trace.job(JobId(id)).meta()
    }

    #[test]
    fn general_ref_with_sp_selects_like_specialized_on_symmetric_case() {
        let trace = two_org_trace();
        let mut g = GeneralRefScheduler::new(&trace, SpUtility);
        g.init(&trace.cluster_info());
        g.on_release(0, &meta(&trace, 0));
        g.on_release(0, &meta(&trace, 1));
        let w = [1usize, 1];
        let ctx = SelectContext { t: 0, waiting: &w, free_machines: &[] };
        let first = g.select(&ctx);
        g.on_start(0, &meta(&trace, first.0), MachineId(0));
        let w2: [usize; 2] = if first.0 == 0 { [0, 1] } else { [1, 0] };
        let ctx2 = SelectContext { t: 0, waiting: &w2, free_machines: &[] };
        let second = g.select(&ctx2);
        assert_ne!(first, second, "symmetric orgs must alternate");
    }

    #[test]
    fn general_ref_runs_under_engine_with_flow_time() {
        // Driven through a manual event replay to avoid a sim dependency:
        // just verify select() returns waiting orgs and never panics while
        // we feed a plausible event stream.
        let trace = two_org_trace();
        let mut g = GeneralRefScheduler::new(&trace, FlowTime);
        g.init(&trace.cluster_info());
        g.on_release(0, &meta(&trace, 0));
        g.on_release(0, &meta(&trace, 1));
        let w = [1usize, 1];
        let ctx = SelectContext { t: 0, waiting: &w, free_machines: &[] };
        let pick = g.select(&ctx);
        assert!(pick.0 < 2);
        g.on_start(0, &meta(&trace, pick.0), MachineId(0));
        let other = OrgId(1 - pick.0);
        let w2: [usize; 2] = if pick.0 == 0 { [0, 1] } else { [1, 0] };
        let ctx2 = SelectContext { t: 0, waiting: &w2, free_machines: &[] };
        assert_eq!(g.select(&ctx2), other);
    }

    #[test]
    fn name_reports_utility() {
        let trace = two_org_trace();
        let g = GeneralRefScheduler::new(&trace, FlowTime);
        assert_eq!(g.name(), "GeneralRef(flow_time)");
    }

    #[test]
    #[should_panic(expected = "at most 12")]
    fn rejects_too_many_orgs() {
        let mut b = Trace::builder();
        for i in 0..13 {
            let o = b.org(format!("o{i}"), 1);
            b.job(o, 0, 1);
        }
        let trace = b.build().unwrap();
        let _ = GeneralRefScheduler::new(&trace, SpUtility);
    }
}

//! The strategy-proof utility `ψ_sp` (Theorem 4.1, Equation 3) and an
//! incremental tracker for online schedulers.
//!
//! `ψ_sp(σ, t) = Σ_{(s,p)∈σ, s≤t} min(p, t−s) · (t − (s + min(s+p−1, t−1))/2)`
//!
//! Interpretation: a job of length `p` started at `s` is `p` unit-size
//! parts occupying time slots `s, s+1, …, s+p−1`; a part executed in slot
//! `i < t` is worth `t − i`. The value is therefore a throughput measure
//! that rewards early execution, is indifferent to how work is packaged
//! into jobs (strategy resistance), and strictly rewards completing more
//! work (task-count anonymity).

use super::{sp_vector, Util, Utility};
use crate::model::{OrgId, Time, Trace};
use crate::schedule::Schedule;

/// Exact `ψ_sp` contribution of one scheduled job `(start, proc_time)` at
/// time `t`:
///
/// `cnt·(2t − 2s − cnt + 1)/2` with `cnt = min(p, t − s)` (0 if `s ≥ t`).
///
/// The product is always even, so the division is exact.
#[inline]
pub fn sp_value(start: Time, proc_time: Time, t: Time) -> Util {
    let cnt = proc_time.min(t.saturating_sub(start)) as Util;
    if cnt == 0 {
        return 0;
    }
    let (t, s) = (t as Util, start as Util);
    cnt * (2 * t - 2 * s - cnt + 1) / 2
}

/// `ψ_sp` of a bag of job parts given as `(start, proc_time)` pairs — the
/// single-organization form `ψ(σ_t)` used throughout Section 4.
pub fn sp_value_of_parts(parts: &[(Time, Time)], t: Time) -> Util {
    parts.iter().map(|&(s, p)| sp_value(s, p, t)).sum()
}

/// The strategy-proof utility as a [`Utility`] implementation (for generic
/// code and reports; exact integer code paths use [`sp_value`] directly).
#[derive(Copy, Clone, Debug, Default)]
pub struct SpUtility;

impl Utility for SpUtility {
    fn name(&self) -> &'static str {
        "psi_sp"
    }

    fn value(&self, _trace: &Trace, schedule: &Schedule, org: OrgId, t: Time) -> f64 {
        schedule.entries_of(org).map(|e| sp_value(e.start, e.proc_time, t)).sum::<Util>()
            as f64
    }

    fn org_values(&self, trace: &Trace, schedule: &Schedule, t: Time) -> Vec<f64> {
        // One pass (the `sp_vector` sweep) instead of a per-org filter.
        sp_vector(trace, schedule, t).into_iter().map(|v| v as f64).collect()
    }
}

/// Incremental, exact `ψ_sp` tracker for online schedulers.
///
/// Feed it starts and completions as they are observed; query
/// [`SpTracker::value_at`] at any `t` not earlier than the last observed
/// event. Completed jobs contribute `n·t − Σ slots` (linear in `t`);
/// running jobs contribute `Δ(Δ+1)/2` with `Δ = t − start` — the same
/// closed forms the paper's Figure 9 computes incrementally.
///
/// The tracker never needs processing times, so it is available to
/// non-clairvoyant schedulers.
#[derive(Clone, Debug, Default)]
pub struct SpTracker {
    /// Σ p over completed jobs.
    completed_units: Util,
    /// Σ of the executed slot indices of completed jobs.
    completed_slot_sum: Util,
    /// Start times of currently running jobs (for completion matching).
    running: Vec<Time>,
    /// Moments of the running starts, so `value_at` is O(1):
    /// Σ_running Δ(Δ+1)/2 with Δ = t−s expands to
    /// ½·(R·(t²+t) − (2t+1)·Σs + Σs²).
    run_s_sum: Util,
    run_s2_sum: Util,
}

impl SpTracker {
    /// A fresh tracker with nothing observed.
    pub fn new() -> Self {
        SpTracker::default()
    }

    /// Records a job start at `t`.
    pub fn on_start(&mut self, t: Time) {
        self.running.push(t);
        let s = t as Util;
        self.run_s_sum += s;
        self.run_s2_sum += s * s;
    }

    /// Records the completion at `t` of the job started at `start`.
    ///
    /// # Panics
    /// Panics if no running job with that start time is tracked, or if
    /// `t <= start`.
    pub fn on_complete(&mut self, start: Time, t: Time) {
        assert!(t > start, "completion must follow start");
        #[expect(
            clippy::expect_used,
            reason = "documented panic: every completion follows a tracked start"
        )]
        let pos = self
            .running
            .iter()
            .position(|&s| s == start)
            .expect("completion for an untracked start");
        self.running.swap_remove(pos);
        let p = (t - start) as Util;
        let (s, c) = (start as Util, t as Util);
        self.completed_units += p;
        // Σ_{i=s}^{c-1} i = p (s + c - 1) / 2, always an integer.
        self.completed_slot_sum += p * (s + c - 1) / 2;
        self.run_s_sum -= s;
        self.run_s2_sum -= s * s;
    }

    /// `ψ_sp` at time `t` (≥ every observed event time): completed parts
    /// plus the elapsed parts of running jobs. O(1).
    pub fn value_at(&self, t: Time) -> Util {
        let t = t as Util;
        let completed = self.completed_units * t - self.completed_slot_sum;
        let r = self.running.len() as Util;
        // Σ Δ(Δ+1)/2 over running jobs, Δ = t − s (all starts are ≤ t by
        // the tracker's contract, so no clamping is needed).
        let running =
            (r * (t * t + t) - (2 * t + 1) * self.run_s_sum + self.run_s2_sum) / 2;
        completed + running
    }

    /// Total CPU time consumed by observed jobs up to `t`: completed work
    /// plus elapsed time of running jobs. This is the "resource already
    /// assigned" quantity the fair-share baseline balances. O(1).
    pub fn cpu_time_at(&self, t: Time) -> Util {
        self.completed_units + self.running.len() as Util * t as Util - self.run_s_sum
    }

    /// Number of currently running jobs.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{JobId, MachineId};
    use crate::schedule::ScheduledJob;
    use proptest::prelude::*;

    /// Naive per-unit reference implementation: Σ over executed slots i<t of (t-i).
    fn sp_naive(start: Time, p: Time, t: Time) -> Util {
        (start..start + p).filter(|&i| i < t).map(|i| (t - i) as Util).sum()
    }

    #[test]
    fn closed_form_examples() {
        // Job (s=0, p=3) at t=13: 13+12+11 = 36.
        assert_eq!(sp_value(0, 3, 13), 36);
        // Not yet started.
        assert_eq!(sp_value(10, 5, 10), 0);
        assert_eq!(sp_value(10, 5, 3), 0);
        // Exactly one unit done.
        assert_eq!(sp_value(10, 5, 11), 1);
    }

    #[test]
    fn figure2_worked_example() {
        // The paper's Figure 2: 9 jobs of O(1) on 3 machines plus one job of
        // O(2); starts reconstructed from the figure. O(1)'s utility is 262
        // at t=13 and 297 at t=14; flow time at 14 is 70.
        // O(1) jobs (start, p): J1(0,3) J2(0,4) J3(0,3) J4(3,6) J5(3,3)
        // J6(4,6) J7(6,3) J8(9,3) J9(10,4). (J9 delayed by O(2)'s job.)
        let o1: Vec<(Time, Time)> =
            vec![(0, 3), (0, 4), (0, 3), (3, 6), (3, 3), (4, 6), (6, 3), (9, 3), (10, 4)];
        assert_eq!(sp_value_of_parts(&o1, 13), 262);
        assert_eq!(sp_value_of_parts(&o1, 14), 297);
        let flow_time: Time = o1.iter().map(|&(s, p)| s + p).sum(); // releases all 0
        assert_eq!(flow_time, 70);

        // "If there was no job J(2)1, J9 would start at 9 instead of 10 and
        // ψ_sp at 14 would increase by 4."
        let mut early = o1.clone();
        *early.last_mut().unwrap() = (9, 4);
        assert_eq!(sp_value_of_parts(&early, 14) - sp_value_of_parts(&o1, 14), 4);

        // "If J6 was started one time unit later, the utility would
        // decrease by 6."
        let mut late6 = o1.clone();
        late6[5] = (5, 6);
        assert_eq!(sp_value_of_parts(&o1, 14) - sp_value_of_parts(&late6, 14), 6);

        // "If J9 was not scheduled at all, ψ_sp would decrease by 10."
        let without9 = &o1[..8];
        assert_eq!(sp_value_of_parts(&o1, 14) - sp_value_of_parts(without9, 14), 10);
    }

    #[test]
    fn tracker_matches_closed_form() {
        let mut tr = SpTracker::new();
        tr.on_start(2);
        assert_eq!(tr.value_at(2), 0);
        assert_eq!(tr.value_at(5), sp_naive(2, 3, 5)); // 3 elapsed units
        tr.on_complete(2, 6); // p = 4
        assert_eq!(tr.value_at(6), sp_value(2, 4, 6));
        assert_eq!(tr.value_at(10), sp_value(2, 4, 10));
        tr.on_start(8);
        assert_eq!(tr.value_at(10), sp_value(2, 4, 10) + sp_naive(8, 2, 10));
    }

    #[test]
    fn tracker_cpu_time() {
        let mut tr = SpTracker::new();
        tr.on_start(0);
        tr.on_complete(0, 4);
        tr.on_start(4);
        assert_eq!(tr.cpu_time_at(7), 4 + 3);
        assert_eq!(tr.running_count(), 1);
    }

    #[test]
    #[should_panic]
    fn tracker_unknown_completion_panics() {
        let mut tr = SpTracker::new();
        tr.on_complete(0, 1);
    }

    #[test]
    fn utility_trait_matches_exact() {
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        b.job(a, 0, 3);
        let t = b.build().unwrap();
        let s: Schedule = [ScheduledJob {
            job: JobId(0),
            org: a,
            machine: MachineId(0),
            start: 0,
            proc_time: 3,
        }]
        .into_iter()
        .collect();
        let u = SpUtility;
        assert_eq!(u.value(&t, &s, a, 10) as Util, sp_value(0, 3, 10));
        assert!(u.maximizing());
    }

    proptest! {
        #[test]
        fn prop_closed_form_equals_naive(s in 0u64..200, p in 1u64..100, t in 0u64..400) {
            prop_assert_eq!(sp_value(s, p, t), sp_naive(s, p, t));
        }

        // Axiom 1 (start-time anonymity): delaying any job by one unit
        // decreases the utility by exactly the number of its units executed
        // before t (constant across schedules once fully executed).
        #[test]
        fn prop_delay_decreases(s in 0u64..50, p in 1u64..20, t in 100u64..200) {
            let early = sp_value(s, p, t);
            let late = sp_value(s + 1, p, t);
            // Fully completed in both cases (t >= 100 > s+p+1): difference p.
            prop_assert_eq!(early - late, p as Util);
        }

        // Axiom 3 (strategy resistance): splitting a job changes nothing.
        #[test]
        fn prop_split_invariance(
            s in 0u64..100, p1 in 1u64..30, p2 in 1u64..30, t in 0u64..300
        ) {
            let merged = sp_value(s, p1 + p2, t);
            let split = sp_value(s, p1, t) + sp_value(s + p1, p2, t);
            prop_assert_eq!(merged, split);
        }

        // Monotone in t, and zero before the start.
        #[test]
        fn prop_monotone_in_t(s in 0u64..50, p in 1u64..30, t in 0u64..200) {
            prop_assert!(sp_value(s, p, t + 1) >= sp_value(s, p, t));
            prop_assert_eq!(sp_value(s, p, s), 0);
        }

        // Tracker agrees with the closed form over random job sets.
        #[test]
        fn prop_tracker_agrees(
            jobs in proptest::collection::vec((0u64..50, 1u64..20), 0..20),
            extra in 0u64..30,
        ) {
            // Sequentialize jobs on one machine so they never overlap; the
            // tracker doesn't care, but this keeps starts/completions causal.
            let mut tr = SpTracker::new();
            let mut clock = 0u64;
            let mut parts = Vec::new();
            for (gap, p) in jobs {
                let s = clock + gap;
                tr.on_start(s);
                tr.on_complete(s, s + p);
                parts.push((s, p));
                clock = s + p;
            }
            let t = clock + extra;
            prop_assert_eq!(tr.value_at(t), sp_value_of_parts(&parts, t));
            prop_assert_eq!(tr.cpu_time_at(t), parts.iter().map(|&(_, p)| p as Util).sum::<Util>());
        }
    }
}

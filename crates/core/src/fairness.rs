//! The fairness evaluation metric of Section 7.2: `Δψ / p_tot`.
//!
//! A scheduler's fairness is measured against the reference fair schedule
//! (produced by the exact REF algorithm): `Δψ = ‖ψ − ψ*‖_M` is the Manhattan
//! distance between the realized and ideal utility vectors, and `p_tot` is
//! the number of unit-size job parts completed in the reference schedule.
//! Since delaying one unit part by one time moment costs exactly one unit of
//! `ψ_sp`, the ratio is *the average unjustified delay (or speed-up) of a
//! job unit caused by the scheduler's unfairness* — the quantity reported in
//! Tables 1–2 and Figure 10.
//!
//! [`FairnessReport`] compares two schedules at one horizon. The
//! per-moment trajectory Definition 3.1 asks for is the `timeline` metric
//! of the simulator's metric registry, built on the sample grid
//! ([`timeline_sample_times`]) and the single-pass sweep
//! ([`schedule_series`]) defined here.

use crate::model::{OrgId, Time, Trace};
use crate::schedule::{Schedule, ScheduledJob};
use crate::utility::{sp_vector, Util};
use std::fmt;

/// Per-organization fairness comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrgFairness {
    /// The organization.
    pub org: OrgId,
    /// Its name (from the trace).
    pub name: String,
    /// Realized utility `ψ(u)` under the evaluated scheduler.
    pub utility: Util,
    /// Ideal utility `ψ*(u)` under the reference fair scheduler.
    pub reference: Util,
}

impl OrgFairness {
    /// Signed deviation `ψ(u) − ψ*(u)` (positive = favored).
    pub fn deviation(&self) -> Util {
        self.utility - self.reference
    }
}

/// A fairness report: utilities vs the fair reference, `Δψ` and `Δψ/p_tot`
/// at one horizon.
///
/// It recomputes `ψ_sp` per entry with [`sp_vector`], independently of the
/// streaming metrics, so it serves as their oracle: the `delay` metric and
/// the CLI's `unfairness_vs_ref` are checked against
/// [`unfairness`](FairnessReport::unfairness) bit for bit. Its `Display`
/// renders the per-organization comparison the CLI prints.
#[derive(Clone, Debug, PartialEq)]
pub struct FairnessReport {
    /// Per-organization rows.
    pub per_org: Vec<OrgFairness>,
    /// Manhattan distance `Σ_u |ψ(u) − ψ*(u)|`.
    pub delta_psi: Util,
    /// Unit parts completed in the reference schedule by the horizon.
    pub p_tot: Time,
    /// Evaluation horizon.
    pub horizon: Time,
}

impl FairnessReport {
    /// Builds a report by evaluating `ψ_sp` on two schedules at `horizon`.
    pub fn from_schedules(
        trace: &Trace,
        schedule: &Schedule,
        reference: &Schedule,
        horizon: Time,
    ) -> Self {
        let psi = sp_vector(trace, schedule, horizon);
        let psi_ref = sp_vector(trace, reference, horizon);
        let per_org: Vec<OrgFairness> = trace
            .orgs()
            .iter()
            .enumerate()
            .map(|(u, org)| OrgFairness {
                org: OrgId(u as u32),
                name: org.name.clone(),
                utility: psi[u],
                reference: psi_ref[u],
            })
            .collect();
        let delta_psi = per_org.iter().map(|o| o.deviation().abs()).sum();
        let p_tot = reference.completed_units(horizon);
        FairnessReport { per_org, delta_psi, p_tot, horizon }
    }

    /// The headline metric `Δψ / p_tot` (0 when nothing completed).
    pub fn unfairness(&self) -> f64 {
        if self.p_tot == 0 {
            0.0
        } else {
            self.delta_psi as f64 / self.p_tot as f64
        }
    }
}

/// The dedup'd, strictly increasing sample grid behind every timeline:
/// up to `samples` times in `(0, horizon]`, the `i`-th at
/// `⌊horizon·i/samples⌋`.
///
/// The multiplication is widened to `u128`, so `horizon · i` cannot
/// overflow [`Time`] even for horizons near `Time::MAX`. Grid points that
/// collapse to `0` or repeat an earlier time (which happens whenever
/// `samples > horizon`) are skipped, so every emitted time is strictly
/// positive and strictly greater than its predecessor; the last emitted
/// time is exactly `horizon` (for `horizon > 0` — a zero horizon yields an
/// empty grid, there being no moments in `(0, 0]`).
///
/// # Panics
/// Panics if `samples == 0` (spec-addressed consumers validate first and
/// surface a typed error instead; see the `timeline` metric family).
pub fn timeline_sample_times(horizon: Time, samples: usize) -> Vec<Time> {
    assert!(samples > 0, "need at least one sample");
    // With samples ≥ horizon, ⌊horizon·i/samples⌋ steps by at most 1 and
    // reaches horizon, so the dedup'd grid is exactly every moment in
    // (0, horizon] — emit it directly instead of spinning O(samples)
    // iterations for the same result (an absurd requested count must not
    // hang the process).
    if samples as u128 >= horizon as u128 {
        return (1..=horizon).collect();
    }
    let mut times = Vec::with_capacity(samples);
    let mut last: Time = 0;
    for i in 1..=samples {
        let t = crate::checked_time::scale_floor(horizon, i as u64, samples as u64);
        if t > last {
            times.push(t);
            last = t;
        }
    }
    times
}

/// Work counters of one [`schedule_series`] sweep, pinning its complexity
/// claims in tests and benches: `events_applied` is bounded by twice the
/// number of schedule entries *independently of the sample count* (each
/// entry is applied once as a start and once as a completion), and
/// `org_evals` is exactly `samples × orgs`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Start/completion events applied (≤ 2 × schedule entries, total over
    /// the whole sweep — the single-pass guarantee).
    pub events_applied: usize,
    /// O(1) closed-form evaluations performed (= samples × orgs).
    pub org_evals: usize,
}

/// Per-organization running aggregates of one schedule, advanced through
/// event and sample times in non-decreasing order; `ψ_sp` and completed
/// units are O(1) closed forms at the advanced-to time.
///
/// Running entries are tracked in **elapsed-time (Δ) space** — the moment
/// sums `Σ Δ` and `Σ Δ²` with `Δ = now − s` are pushed forward
/// incrementally as time advances — rather than anchored at absolute
/// starts (`Σ s`, `Σ s²`). That keeps every intermediate on the order of
/// the *true* contribution `Σ Δ(Δ+1)/2`, so the overflow domain matches
/// summing [`crate::utility::sp_value`] per entry: values fit whenever
/// the naive recompute's do, including entries starting or sampled near
/// `Time::MAX`.
#[derive(Clone, Copy, Debug, Default)]
struct OrgAcc {
    /// Σ p over completed entries.
    completed_units: Util,
    /// Σ of executed slot indices of completed entries: Σ p(2s+p−1)/2.
    completed_slot_sum: Util,
    /// Currently running entries.
    running: Util,
    /// Σ (now − s) over running entries, current at `now`.
    run_delta_sum: Util,
    /// Σ (now − s)² over running entries, current at `now`.
    run_delta2_sum: Util,
    /// The time the running moment sums are current at.
    now: Time,
}

impl OrgAcc {
    /// Pushes the running moment sums forward to `t ≥ now`:
    /// `Σ(Δ+d)² = ΣΔ² + 2d·ΣΔ + r·d²`, `Σ(Δ+d) = ΣΔ + r·d`.
    fn advance(&mut self, t: Time) {
        debug_assert!(t >= self.now, "accumulator advanced backwards");
        if self.running > 0 {
            let d = (t - self.now) as Util;
            if d > 0 {
                self.run_delta2_sum += 2 * d * self.run_delta_sum + self.running * d * d;
                self.run_delta_sum += self.running * d;
            }
        }
        self.now = t;
    }

    fn start(&mut self, s: Time) {
        self.advance(s);
        // The new entry joins with Δ = 0: no moment-sum change.
        self.running += 1;
    }

    fn complete(&mut self, s: Time, p: Time, c: Time) {
        self.advance(c);
        let p = p as Util;
        // The entry leaves the running set with Δ = c − s = p.
        self.running -= 1;
        self.run_delta_sum -= p;
        // lint:allow(time-arith) p is shadowed to Util (i128) above: wide.
        self.run_delta2_sum -= p * p;
        self.completed_units += p;
        // Σ_{i=s}^{s+p−1} i = p(2s+p−1)/2, always an integer.
        self.completed_slot_sum += p * (2 * (s as Util) + p - 1) / 2;
    }

    /// `ψ_sp` at `t ≥ now`: completed entries via the linear closed form,
    /// running entries via `Σ Δ(Δ+1)/2 = (ΣΔ² + ΣΔ)/2` — identical
    /// integer arithmetic to summing [`crate::utility::sp_value`] per
    /// entry, so series values are bit-identical to the naive recompute.
    fn psi_at(&mut self, t: Time) -> Util {
        self.advance(t);
        let completed = self.completed_units * t as Util - self.completed_slot_sum;
        completed + (self.run_delta2_sum + self.run_delta_sum) / 2
    }

    /// Unit parts executed strictly before `t ≥ now` (`Σ min(p, t−s)`) —
    /// [`Schedule::completed_units`] restricted to this organization.
    fn units_at(&mut self, t: Time) -> Util {
        self.advance(t);
        self.completed_units + self.run_delta_sum
    }
}

/// Per-organization time series of one schedule at the given strictly
/// increasing sample times, computed by [`schedule_series`]: `psi[i][u]`
/// and `units[i][u]` are organization `u`'s exact `ψ_sp` and completed
/// unit parts at `times[i]`.
#[derive(Clone, Debug)]
pub struct ScheduleSeries {
    /// The sample times the series was evaluated at.
    pub times: Vec<Time>,
    /// `psi[i][u]` = `ψ_sp` of organization `u` at `times[i]` —
    /// bit-identical to `sp_vector(trace, schedule, times[i])`.
    pub psi: Vec<Vec<Util>>,
    /// `units[i][u]` = unit parts of organization `u` executed strictly
    /// before `times[i]`; row sums equal
    /// [`Schedule::completed_units`]`(times[i])`.
    pub units: Vec<Vec<Time>>,
    /// Work counters pinning the single-pass complexity claim.
    pub stats: SweepStats,
}

/// One streaming sweep over a schedule: per-organization `ψ_sp` and
/// completed-unit series at every sample time in a **single pass** over
/// the schedule entries — `O(E log E + samples·orgs)` total (the `log`
/// for sorting completions; starts are already ordered), against
/// `O(samples·E)` for recomputing `sp_vector` per sample.
///
/// `times` must be strictly increasing (as produced by
/// [`timeline_sample_times`]); values are exact and bit-identical to the
/// naive per-sample recompute.
pub fn schedule_series(
    trace: &Trace,
    schedule: &Schedule,
    times: &[Time],
) -> ScheduleSeries {
    debug_assert!(times.windows(2).all(|w| w[0] < w[1]), "times must be increasing");
    let n = trace.n_orgs();
    let entries = schedule.entries();
    // Completion as u128: `s + p` may exceed `Time::MAX` (a job that
    // never finishes within representable time), which the naive path
    // never computes — widen instead of overflowing.
    let completion_of =
        |e: &ScheduledJob| crate::checked_time::wide_completion(e.start, e.proc_time);
    // Entries are kept in start order by `Schedule`; completions need
    // their own order (one sort, done once per sweep).
    let mut by_completion: Vec<usize> = (0..entries.len()).collect();
    by_completion.sort_by_key(|&i| completion_of(&entries[i]));

    let mut acc = vec![OrgAcc::default(); n];
    let mut stats = SweepStats::default();
    let (mut si, mut ci) = (0usize, 0usize);
    let mut psi = Vec::with_capacity(times.len());
    let mut units = Vec::with_capacity(times.len());
    for &t in times {
        // Merge starts and completions in global time order: the Δ-space
        // accumulators advance monotonically, so each organization must
        // see its events in non-decreasing time. Ties prefer the start
        // (an entry's own completion is always strictly later: p ≥ 1).
        loop {
            let next_start = entries.get(si).map(|e| e.start);
            let next_comp = by_completion
                .get(ci)
                .map(|&i| completion_of(&entries[i]))
                .filter(|&c| c <= t as u128);
            match (next_start, next_comp) {
                (Some(s), c) if s <= t && c.is_none_or(|c| s as u128 <= c) => {
                    acc[entries[si].org.index()].start(s);
                    si += 1;
                }
                (_, Some(c)) => {
                    let e = &entries[by_completion[ci]];
                    // c ≤ t ≤ Time::MAX, so the cast is exact.
                    acc[e.org.index()].complete(e.start, e.proc_time, c as Time);
                    ci += 1;
                }
                _ => break,
            }
            stats.events_applied += 1;
        }
        psi.push(acc.iter_mut().map(|a| a.psi_at(t)).collect());
        units.push(acc.iter_mut().map(|a| a.units_at(t) as Time).collect());
        stats.org_evals += n;
    }
    ScheduleSeries { times: times.to_vec(), psi, units, stats }
}

impl fmt::Display for FairnessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fairness @ t={} (Δψ = {}, p_tot = {}, Δψ/p_tot = {:.4})",
            self.horizon,
            self.delta_psi,
            self.p_tot,
            self.unfairness()
        )?;
        writeln!(f, "{:<16} {:>16} {:>16} {:>12}", "org", "ψ", "ψ*", "ψ−ψ*")?;
        for o in &self.per_org {
            writeln!(
                f,
                "{:<16} {:>16} {:>16} {:>12}",
                o.name,
                o.utility,
                o.reference,
                o.deviation()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{JobId, MachineId};
    use crate::schedule::ScheduledJob;
    use proptest::prelude::*;

    fn trace2() -> Trace {
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        let c = b.org("b", 1);
        b.job(a, 0, 2).job(c, 0, 2);
        b.build().unwrap()
    }

    fn sched(entries: &[(u32, u32, u32, Time, Time)]) -> Schedule {
        entries
            .iter()
            .map(|&(j, o, m, s, p)| ScheduledJob {
                job: JobId(j),
                org: OrgId(o),
                machine: MachineId(m),
                start: s,
                proc_time: p,
            })
            .collect()
    }

    /// `(t, Δψ(t), p_tot(t))` on the sample grid, from one streaming
    /// sweep per schedule.
    fn streamed(
        trace: &Trace,
        eval: &Schedule,
        reference: &Schedule,
        horizon: Time,
        samples: usize,
    ) -> Vec<(Time, Util, Time)> {
        let times = timeline_sample_times(horizon, samples);
        let e = schedule_series(trace, eval, &times);
        let r = schedule_series(trace, reference, &times);
        (0..times.len())
            .map(|i| {
                let delta = e.psi[i].iter().zip(&r.psi[i]).map(|(a, b)| (a - b).abs());
                (times[i], delta.sum(), r.units[i].iter().sum())
            })
            .collect()
    }

    /// The same triples recomputed per sample time with [`sp_vector`] and
    /// [`Schedule::completed_units`].
    fn recomputed(
        trace: &Trace,
        eval: &Schedule,
        reference: &Schedule,
        horizon: Time,
        samples: usize,
    ) -> Vec<(Time, Util, Time)> {
        timeline_sample_times(horizon, samples)
            .into_iter()
            .map(|t| {
                let (e, r) = (sp_vector(trace, eval, t), sp_vector(trace, reference, t));
                let delta = e.iter().zip(&r).map(|(a, b)| (a - b).abs()).sum();
                (t, delta, reference.completed_units(t))
            })
            .collect()
    }

    #[test]
    fn identical_schedules_are_perfectly_fair() {
        let t = trace2();
        let s = sched(&[(0, 0, 0, 0, 2), (1, 1, 1, 0, 2)]);
        let r = FairnessReport::from_schedules(&t, &s, &s, 10);
        assert_eq!(r.delta_psi, 0);
        assert_eq!(r.unfairness(), 0.0);
        assert_eq!(r.p_tot, 4);
    }

    #[test]
    fn deviation_counts_both_directions() {
        let t = trace2();
        // Reference: both in parallel. Evaluated: serial on one machine
        // (org b delayed by 2).
        let reference = sched(&[(0, 0, 0, 0, 2), (1, 1, 1, 0, 2)]);
        let eval = sched(&[(0, 0, 0, 0, 2), (1, 1, 0, 2, 2)]);
        let r = FairnessReport::from_schedules(&t, &eval, &reference, 10);
        // Org b's two units each delayed 2 -> psi drops by 4.
        assert_eq!(r.per_org[1].deviation(), -4);
        assert_eq!(r.per_org[0].deviation(), 0);
        assert_eq!(r.delta_psi, 4);
        assert!((r.unfairness() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_reference_yields_zero_ratio() {
        let t = trace2();
        let empty = Schedule::new();
        let r = FairnessReport::from_schedules(&t, &empty, &empty, 0);
        assert_eq!(r.unfairness(), 0.0);
    }

    #[test]
    fn timeline_monotone_sampling() {
        let t = trace2();
        let reference = sched(&[(0, 0, 0, 0, 2), (1, 1, 1, 0, 2)]);
        let eval = sched(&[(0, 0, 0, 0, 2), (1, 1, 0, 2, 2)]);
        let series = streamed(&t, &eval, &reference, 8, 4);
        assert_eq!(series.len(), 4);
        assert_eq!(series[0].0, 2);
        assert_eq!(series[3].0, 8);
        // Unfairness accumulates while org b's units are delayed.
        assert!(series[3].1 >= series[0].1);
        // At the end: 4 (two units delayed 2 each), over 4 reference units.
        assert_eq!((series[3].1, series[3].2), (4, 4));
    }

    #[test]
    #[should_panic]
    fn sample_grid_rejects_zero_samples() {
        let _ = timeline_sample_times(10, 0);
    }

    /// Regression: the old grid emitted `⌊horizon·i/samples⌋` verbatim, so
    /// `samples > horizon` produced duplicate points (including `t = 0`).
    /// The dedup'd grid is strictly increasing, strictly positive, and ends
    /// exactly at the horizon.
    #[test]
    fn sample_grid_dedups_when_samples_exceed_horizon() {
        assert_eq!(timeline_sample_times(5, 12), [1, 2, 3, 4, 5]);
        // An absurd requested count returns instantly with the same grid
        // (the fast path), rather than iterating per requested sample.
        assert_eq!(timeline_sample_times(5, usize::MAX), [1, 2, 3, 4, 5]);
        assert_eq!(timeline_sample_times(1, 100), [1]);
        assert_eq!(timeline_sample_times(3, 3), [1, 2, 3]);
        assert_eq!(timeline_sample_times(8, 4), [2, 4, 6, 8]);
        // A zero horizon has no moments in (0, 0].
        assert_eq!(timeline_sample_times(0, 7), [] as [Time; 0]);
        for (horizon, samples) in [(5u64, 12usize), (7, 3), (100, 64), (2, 2)] {
            let times = timeline_sample_times(horizon, samples);
            assert!(times.windows(2).all(|w| w[0] < w[1]), "not increasing");
            assert!(times.iter().all(|&t| t > 0 && t <= horizon));
            assert_eq!(*times.last().unwrap(), horizon);
            assert!(times.len() <= samples);
        }
    }

    /// Regression: the old grid computed `horizon * i` in `Time`, which
    /// overflows for horizons past `Time::MAX / samples`. The widened
    /// multiply keeps the grid exact all the way to `Time::MAX`, and the
    /// streaming sweep evaluates there without touching `t²` once every
    /// entry has completed.
    #[test]
    fn timeline_survives_near_max_horizons() {
        let horizon = Time::MAX;
        let times = timeline_sample_times(horizon, 4);
        assert_eq!(times.len(), 4);
        assert_eq!(*times.last().unwrap(), horizon);
        assert!(times.windows(2).all(|w| w[0] < w[1]));

        let t = trace2();
        let reference = sched(&[(0, 0, 0, 0, 2), (1, 1, 1, 0, 2)]);
        let eval = sched(&[(0, 0, 0, 0, 2), (1, 1, 0, 2, 2)]);
        let series = streamed(&t, &eval, &reference, horizon, 4);
        assert_eq!(series.len(), 4);
        // Everything completed long ago: Δψ is the terminal 4, p_tot the
        // full 4 units, at every huge sample time.
        for &(_, delta_psi, p_tot) in &series {
            assert_eq!((delta_psi, p_tot), (4, 4));
        }
        let report = FairnessReport::from_schedules(&t, &eval, &reference, horizon);
        assert_eq!(series.last(), Some(&(horizon, report.delta_psi, report.p_tot)));
    }

    /// Regression: the Δ-space accumulators must handle entries that
    /// start near `Time::MAX` and are still *running* at the sampled
    /// times (an absolute-time formulation would square `s` or `t` and
    /// overflow `Util` even though the true values are tiny). The honest
    /// pin is bit-identity with the per-sample recompute, which never
    /// leaves the per-entry closed form.
    #[test]
    fn timeline_handles_running_entries_near_max_times() {
        let t = trace2();
        let horizon = Time::MAX;
        // Org a finished eons ago; org b starts 100 moments before the
        // end of time and runs past it (completion overflows Time).
        let eval = sched(&[(0, 0, 0, 0, 2), (1, 1, 1, Time::MAX - 100, 200)]);
        let reference = sched(&[(0, 0, 0, 0, 2), (1, 1, 1, Time::MAX - 150, 200)]);
        let fast = streamed(&t, &eval, &reference, horizon, 4);
        let naive = recomputed(&t, &eval, &reference, horizon, 4);
        assert_eq!(fast, naive);
        // At t = MAX, org b has executed 100 units (delayed 50 vs the
        // reference's 150): ψ gaps of a delayed part are per-slot exact.
        let &(last_t, last_delta, _) = fast.last().unwrap();
        assert_eq!(last_t, horizon);
        assert!(last_delta > 0);
    }

    #[test]
    fn timeline_final_point_equals_fairness_report() {
        let t = trace2();
        let reference = sched(&[(0, 0, 0, 0, 2), (1, 1, 1, 0, 2)]);
        let eval = sched(&[(0, 0, 0, 0, 2), (1, 1, 0, 2, 2)]);
        for (horizon, samples) in [(10u64, 5usize), (3, 17), (7, 1), (100, 64)] {
            let series = streamed(&t, &eval, &reference, horizon, samples);
            let report = FairnessReport::from_schedules(&t, &eval, &reference, horizon);
            assert_eq!(series.last(), Some(&(horizon, report.delta_psi, report.p_tot)));
        }
    }

    /// The single-pass guarantee, pinned by counters rather than timing:
    /// raising the sample count must not revisit schedule entries.
    #[test]
    fn sweep_is_single_pass_over_entries() {
        let t = trace2();
        let s = sched(&[(0, 0, 0, 0, 2), (1, 1, 0, 2, 2)]);
        for samples in [1usize, 4, 64, 1024] {
            let times = timeline_sample_times(1000, samples);
            let series = schedule_series(&t, &s, &times);
            assert!(
                series.stats.events_applied <= 2 * s.len(),
                "entries revisited at samples={samples}: {:?}",
                series.stats
            );
            assert_eq!(series.stats.org_evals, times.len() * t.n_orgs());
        }
    }

    proptest! {
        /// The streaming sweep is bit-identical to the per-sample
        /// `sp_vector` / `completed_units` recompute on random traces and (possibly partial, overlapping)
        /// schedules, for any horizon/sample-count combination.
        #[test]
        fn prop_streaming_timeline_matches_oracle(
            jobs in proptest::collection::vec((0u64..40, 1u64..12), 1..14),
            orgs in 1usize..4,
            delays in proptest::collection::vec(0u64..9, 14),
            skip in 0usize..3,
            horizon in 1u64..120,
            samples in 1usize..40,
        ) {
            let mut b = Trace::builder();
            let ids: Vec<OrgId> =
                (0..orgs).map(|u| b.org(format!("o{u}"), 1)).collect();
            for (i, &(r, p)) in jobs.iter().enumerate() {
                b.job(ids[i % orgs], r, p);
            }
            let trace = b.build().unwrap();
            // Two schedules over the same jobs with different arbitrary
            // delays; entries may be partial (skipped jobs) and need not
            // be valid — the timeline is defined on any entry set.
            let build = |extra: u64, skip: usize| -> Schedule {
                let mut clock = [0u64; 2];
                trace
                    .jobs()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i >= skip)
                    .map(|(i, j)| {
                        let m = i % 2;
                        let start = clock[m].max(j.release)
                            + delays[i % delays.len()]
                            + extra * (i as u64 % 3);
                        clock[m] = start + j.proc_time;
                        ScheduledJob {
                            job: j.id,
                            org: j.org,
                            machine: MachineId(m as u32),
                            start,
                            proc_time: j.proc_time,
                        }
                    })
                    .collect()
            };
            let eval = build(1, skip);
            let reference = build(0, 0);
            let fast = streamed(&trace, &eval, &reference, horizon, samples);
            let naive = recomputed(&trace, &eval, &reference, horizon, samples);
            prop_assert_eq!(&fast, &naive);
            // And the per-org series agree with sp_vector at every time.
            let times = timeline_sample_times(horizon, samples);
            let series = schedule_series(&trace, &eval, &times);
            for (i, &t) in times.iter().enumerate() {
                prop_assert_eq!(&series.psi[i], &sp_vector(&trace, &eval, t));
                prop_assert_eq!(
                    series.units[i].iter().sum::<Time>(),
                    eval.completed_units(t)
                );
            }
        }
    }

    #[test]
    fn display_contains_orgs() {
        let t = trace2();
        let s = sched(&[(0, 0, 0, 0, 2), (1, 1, 1, 0, 2)]);
        let r = FairnessReport::from_schedules(&t, &s, &s, 10);
        let text = format!("{r}");
        assert!(text.contains("a"));
        assert!(text.contains("p_tot = 4"));
    }
}

//! RAND (Figure 6): randomized Shapley estimation by permutation sampling.
//!
//! Instead of all `2^k` subcoalitions, RAND keeps simplified greedy
//! schedules only for the coalitions appearing as prefixes of `N` sampled
//! join orders, and estimates each organization's contribution as the
//! average sampled marginal `v(pred ∪ {u}) − v(pred)`. For unit-size jobs
//! the value of a coalition is independent of the greedy policy used
//! (Proposition 5.4), so the sampled values are exact per coalition and
//! the estimator is the FPRAS of Theorems 5.6–5.7: with
//! `N = ⌈k²/ε² ln(k/(1−λ))⌉` permutations, the realized utility vector is
//! within `ε·‖ψ*‖` of the fair one with probability `λ`.
//!
//! For general job sizes RAND is a heuristic (the paper evaluates it with
//! `N = 15` and `N = 75`): sampled coalitions are scheduled greedy-FIFO,
//! a fixed documented choice (DESIGN.md).

use super::lattice::{CoalitionLattice, Policy, MAX_FULL_ORGS};
use super::{OrgPicker, Scheduler, SelectContext, StepBumps};
use crate::model::{ClusterInfo, JobMeta, MachineId, OrgId, Time, Trace};
use crate::utility::{SpTracker, Util};
use coopgame::sampling::SampledPrefixes;
use coopgame::{Coalition, Player};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The most sampled permutations a `rand` spec may ask for, given or
/// Hoeffding-derived: the FPRAS sizing at k = 10, ε = 0.1, λ = 0.9 needs
/// ~46 k, and a budget beyond this would only fail to allocate.
pub const MAX_PERMUTATIONS: usize = 1 << 20;

/// The most coalition × organization slots a `rand` spec may make the
/// sampled lattice allocate. Each simulated coalition keeps one slot per
/// organization of the trace, about 144 bytes, so this is the footprint
/// of the full lattice at [`MAX_FULL_ORGS`] organizations: 16 · 2^16
/// slots, ~150 MB. At 64 organizations 15 permutations need 60 k slots,
/// while the Hoeffding budget of ε = λ = 0.5 (~80 k permutations) would
/// need ~320 M.
pub const MAX_SAMPLED_SLOTS: usize = MAX_FULL_ORGS << MAX_FULL_ORGS;

/// An upper bound, known before anything is drawn, on the coalition ×
/// organization slots of RAND's lattice for `n_permutations` sampled
/// orders of `k` organizations. Each order contributes at most its
/// `k − 1` proper non-empty prefixes besides the grand coalition all
/// orders share, and there are `2^k − 1` non-empty coalitions.
pub(crate) fn sampled_slots(k: usize, n_permutations: usize) -> usize {
    let drawn = n_permutations.saturating_mul(k.saturating_sub(1)).saturating_add(1);
    let all = u32::try_from(k)
        .ok()
        .and_then(|k| 1usize.checked_shl(k))
        .map_or(usize::MAX, |n| n - 1);
    drawn.min(all).saturating_mul(k)
}

/// The randomized approximate fair scheduler.
#[derive(Clone, Debug)]
pub struct RandScheduler {
    durations: Vec<Time>,
    lattice: CoalitionLattice,
    n_permutations: usize,
    /// Per organization `u`, each distinct sampled predecessor set with
    /// the number of permutations that drew it: at small `k` many
    /// permutations share a prefix, and each is looked up once.
    prefixes: Vec<Vec<(Coalition, Util)>>,
    trackers: Vec<SpTracker>,
    bumps: StepBumps,
    picker: OrgPicker,
    label: String,
}

impl RandScheduler {
    /// RAND with an explicit number of sampled permutations (the paper's
    /// experiments use 15 and 75).
    pub fn new(trace: &Trace, n_permutations: usize, seed: u64) -> Self {
        assert!(n_permutations > 0, "need at least one sampled permutation");
        let machines: Vec<usize> = trace.orgs().iter().map(|o| o.n_machines).collect();
        let k = machines.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let prefixes = SampledPrefixes::draw(k, n_permutations, &mut rng);
        let coalitions = prefixes.required_coalitions();
        let lattice =
            CoalitionLattice::with_coalitions(&machines, &coalitions, Policy::Fifo);
        let distinct = |u: usize| {
            let mut preds = prefixes.prefixes_of(Player(u)).to_vec();
            preds.sort_unstable();
            preds.chunk_by(|a, b| a == b).map(|run| (run[0], run.len() as Util)).collect()
        };
        RandScheduler {
            durations: trace.jobs().iter().map(|j| j.proc_time).collect(),
            lattice,
            n_permutations,
            prefixes: (0..k).map(distinct).collect(),
            trackers: vec![SpTracker::new(); k],
            bumps: StepBumps::new(k),
            picker: OrgPicker::new(k),
            label: format!("Rand(N={n_permutations})"),
        }
    }

    /// Number of sampled permutations.
    pub fn n_permutations(&self) -> usize {
        self.n_permutations
    }

    /// Number of distinct sampled coalitions being simulated.
    pub fn n_coalitions(&self) -> usize {
        self.lattice.n_coalitions()
    }

    /// Read-only access to the sampled-coalition lattice (for analysis
    /// tools and the bench baseline's work counters).
    pub fn lattice(&self) -> &CoalitionLattice {
        &self.lattice
    }

    /// The estimated contributions `φ̂(u)` at `t` (settles the sampled
    /// schedules as a side effect).
    pub fn contributions(&mut self, t: Time) -> Vec<f64> {
        self.lattice.settle(t);
        let n = self.n_permutations as f64;
        (0..self.trackers.len())
            .map(|u| self.marginal_sum(OrgId(u as u32), t) as f64 / n)
            .collect()
    }

    /// Realized `ψ_sp` vector at `t`.
    pub fn psi(&self, t: Time) -> Vec<Util> {
        self.trackers.iter().map(|tr| tr.value_at(t)).collect()
    }

    /// `Σ_samples v(pred∪u) − v(pred)` — `N · φ̂(u)`, exact integer,
    /// summed as `m · (v(pred∪u) − v(pred))` over distinct prefixes.
    fn marginal_sum(&self, u: OrgId, t: Time) -> Util {
        let player = Player(u.index());
        self.prefixes[u.index()]
            .iter()
            .map(|&(pred, m)| {
                m * (self.lattice.value_of(pred.insert(player), t)
                    - self.lattice.value_of(pred, t))
            })
            .sum()
    }
}

impl Scheduler for RandScheduler {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn init(&mut self, info: &ClusterInfo) {
        assert_eq!(
            info.n_orgs(),
            self.trackers.len(),
            "RAND was built for a different trace"
        );
    }

    fn on_admit(&mut self, job: &crate::model::Job) {
        // Same duration-oracle splice as REF: insert at the assigned id,
        // shifting only unreleased jobs; the sampled lattice stays live
        // and learns of the job at its `on_release`.
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
        self.lattice.settle(t);
        let n = self.n_permutations as Util;
        // key(u) = N·φ̂(u) − N·(ψ(u)+bump) — both sides scaled by N so the
        // comparison stays in exact integers.
        let marginals: Vec<Util> = (0..self.trackers.len())
            .map(|u| self.marginal_sum(OrgId(u as u32), t))
            .collect();
        let trackers = &self.trackers;
        let bumps = &self.bumps;
        self.picker.pick_max(ctx, |u| {
            marginals[u.index()] - n * (trackers[u.index()].value_at(t) + bumps.get(t, u))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::JobId;

    fn unit_trace(k: usize, jobs_per_org: usize) -> Trace {
        let mut b = Trace::builder();
        let orgs: Vec<OrgId> = (0..k).map(|i| b.org(format!("o{i}"), 1)).collect();
        for &o in &orgs {
            b.jobs(o, 0, 1, jobs_per_org);
        }
        b.build().unwrap()
    }

    fn meta(id: u32, org: u32, release: Time) -> JobMeta {
        JobMeta { id: JobId(id), org: OrgId(org), release }
    }

    #[test]
    fn deterministic_per_seed() {
        let t = unit_trace(3, 2);
        let a = RandScheduler::new(&t, 10, 42);
        let b = RandScheduler::new(&t, 10, 42);
        assert_eq!(a.n_coalitions(), b.n_coalitions());
    }

    #[test]
    fn coalition_count_bounded() {
        let t = unit_trace(4, 1);
        let s = RandScheduler::new(&t, 5, 1);
        // At most N·k distinct prefixes plus their extensions; with k=4,
        // N=5 this is well under 2^4 · something small.
        assert!(s.n_coalitions() <= 2 * 5 * 4);
        assert_eq!(s.n_permutations(), 5);
    }

    #[test]
    fn estimated_contributions_sum_close_to_value() {
        // Per-permutation marginals telescope to v(grand), so the estimate
        // sums to the grand value exactly when grand is sampled... in
        // general Σφ̂ = average over permutations of v(grand) = v(grand).
        let trace = unit_trace(3, 2);
        let mut s = RandScheduler::new(&trace, 20, 3);
        for (i, j) in trace.jobs().iter().enumerate() {
            s.on_release(j.release, &meta(i as u32, j.org.0, j.release));
        }
        let t = 10;
        let phi = s.contributions(t);
        let total: f64 = phi.iter().sum();
        // v(grand) under FIFO at t=10: 6 unit jobs, 3 machines: starts
        // 0,0,0,1,1,1 -> psi = 3*10 + 3*9 = 57.
        assert!((total - 57.0).abs() < 1e-9, "got {total}");
    }

    #[test]
    fn symmetric_unit_orgs_get_equal_estimates() {
        let trace = unit_trace(3, 2);
        let mut s = RandScheduler::new(&trace, 50, 9);
        for (i, j) in trace.jobs().iter().enumerate() {
            s.on_release(j.release, &meta(i as u32, j.org.0, j.release));
        }
        let phi = s.contributions(5);
        // Exact symmetry: every sampled permutation treats the identical
        // orgs identically in aggregate only in expectation — but unit
        // traces make all marginals depend only on the prefix SIZE, so the
        // estimates must be exactly equal here.
        assert!((phi[0] - phi[1]).abs() < 1e-9, "{phi:?}");
        assert!((phi[1] - phi[2]).abs() < 1e-9, "{phi:?}");
    }

    #[test]
    fn select_returns_waiting_org() {
        let trace = unit_trace(2, 1);
        let mut s = RandScheduler::new(&trace, 5, 11);
        s.init(&trace.cluster_info());
        s.on_release(0, &meta(0, 0, 0));
        s.on_release(0, &meta(1, 1, 0));
        let w = [0usize, 1];
        let ctx = SelectContext { t: 0, waiting: &w, free_machines: &[] };
        assert_eq!(s.select(&ctx), OrgId(1));
    }
}

//! Online, non-clairvoyant schedulers.
//!
//! Every scheduler implements [`Scheduler`] and is driven by an engine
//! (`fairsched-sim`): the engine delivers release/start/completion events
//! and, whenever a machine is free and jobs wait, asks the scheduler to
//! *select the organization whose FIFO-head job starts next* — the exact
//! decision interface of the paper's online scheduling algorithm
//! `A : J × T → O` (Section 2). The greedy requirement is enforced by the
//! engine: `select` **must** return an organization with waiting jobs.
//!
//! Implemented algorithms (Section 7.1), with the [`registry`] spec string
//! that constructs each (see [`registry::Registry`]):
//!
//! | spec | scheduler | paper name | complexity |
//! |---|---|---|---|
//! | `ref` | [`RefScheduler`] | REF (Figures 1 & 3) | exponential in `k` (FPT) |
//! | `general-ref:util=…` | [`GeneralRefScheduler`] | REF for any utility | exponential in `k` |
//! | `rand:perms=N` | [`RandScheduler`] | RAND (Figure 6) | polynomial, FPRAS for unit jobs |
//! | `directcontr` | [`DirectContrScheduler`] | DIRECTCONTR (Figure 9) | polynomial |
//! | `fairshare` | [`FairShareScheduler`] | FAIRSHARE | polynomial |
//! | `utfairshare` | [`UtFairShareScheduler`] | UTFAIRSHARE | polynomial |
//! | `currfairshare` | [`CurrFairShareScheduler`] | CURRFAIRSHARE | polynomial |
//! | `roundrobin` | [`RoundRobinScheduler`] | ROUNDROBIN | polynomial |
//! | `fifo`, `random` | [`FifoScheduler`], [`RandomScheduler`] | extra baselines | polynomial |
//!
//! Construction goes through the registry rather than the concrete
//! constructors: `Registry::default().build_str("rand:perms=15", &ctx)`
//! yields a boxed scheduler for any spec, and downstream crates can
//! [`registry::Registry::register`] their own policies so the CLI, bench
//! tables, and `Simulation` sessions pick them up with zero changes here.

mod direct_contr;
mod fair_share;
mod fifo;
mod general_ref;
pub mod lattice;
mod rand_shapley;
mod ref_exact;
pub mod registry;
mod round_robin;

pub use direct_contr::DirectContrScheduler;
pub use fair_share::{CurrFairShareScheduler, FairShareScheduler, UtFairShareScheduler};
pub use fifo::{FifoScheduler, RandomScheduler};
pub use general_ref::GeneralRefScheduler;
pub use rand_shapley::{RandScheduler, MAX_PERMUTATIONS};
pub use ref_exact::RefScheduler;
pub use registry::{
    BuildContext, Registry, SchedulerFactory, SchedulerKind, SchedulerSpec, SpecError,
};
pub use round_robin::RoundRobinScheduler;

use crate::model::{ClusterInfo, JobMeta, MachineId, OrgId, Time};
use crate::utility::Util;

/// The information available at a scheduling decision point: the time, the
/// per-organization counts of released-but-unstarted jobs, and the free
/// machines.
#[derive(Debug)]
pub struct SelectContext<'a> {
    /// Current time.
    pub t: Time,
    /// `waiting[u]` = number of released, unstarted jobs of organization `u`.
    pub waiting: &'a [usize],
    /// Machines currently idle.
    pub free_machines: &'a [MachineId],
}

impl SelectContext<'_> {
    /// Organizations with at least one waiting job.
    pub fn waiting_orgs(&self) -> impl Iterator<Item = OrgId> + '_ {
        self.waiting
            .iter()
            .enumerate()
            .filter(|(_, &w)| w > 0)
            .map(|(u, _)| OrgId(u as u32))
    }
}

/// An online, non-clairvoyant scheduler.
///
/// The engine calls the event hooks in causal order and never exposes a
/// job's processing time before its completion (`on_complete` implies
/// `proc_time = t − start`). All schedulers must be **greedy**: `select`
/// must return an organization with `waiting > 0` whenever asked.
pub trait Scheduler {
    /// Display name (used in experiment tables).
    fn name(&self) -> String;

    /// Called once before the simulation starts.
    fn init(&mut self, _info: &ClusterInfo) {}

    /// A job has been released.
    fn on_release(&mut self, _t: Time, _job: &JobMeta) {}

    /// A job has been started on `machine`.
    fn on_start(&mut self, _t: Time, _job: &JobMeta, _machine: MachineId) {}

    /// A job that started at `start` on `machine` has completed at `t`
    /// (its processing time, now revealed, is `t − start`).
    fn on_complete(
        &mut self,
        _t: Time,
        _job: &JobMeta,
        _machine: MachineId,
        _start: Time,
    ) {
    }

    /// Whether this scheduler supports mid-run job admission (online
    /// serving). Schedulers that keep no per-job trace state (the
    /// fair-share family, round robin, FIFO, DIRECTCONTR) admit for
    /// free; duration-oracle schedulers splice their oracle in
    /// [`Scheduler::on_admit`]. Return `false` (as the general REF
    /// does) to make sessions reject admission with a typed error
    /// *before* anything mutates.
    fn admits_jobs(&self) -> bool {
        true
    }

    /// A job not in the trace the scheduler was built from has been
    /// admitted mid-run. Only called when [`Scheduler::admits_jobs`] is
    /// true and the trace accepted the job.
    ///
    /// `job` is the full record *including* `proc_time`: schedulers
    /// built with the duration oracle (the REF family reads every
    /// processing time from the trace at construction) splice the new
    /// duration into their oracle here. `job.id` is the id the trace
    /// assigned — ids of jobs releasing later shift by one, but the
    /// engine guarantees those are all unreleased, so no scheduler has
    /// observed them.
    fn on_admit(&mut self, _job: &crate::model::Job) {}

    /// Chooses the organization whose FIFO-head job is started next.
    /// Must return an organization with a waiting job.
    fn select(&mut self, ctx: &SelectContext<'_>) -> OrgId;

    /// Optionally chooses which free machine receives the job (an index
    /// into `ctx.free_machines`); `None` lets the engine pick the first.
    /// Machine choice matters only for ownership-based accounting
    /// (DIRECTCONTR randomizes it, per Figure 9).
    fn pick_machine(
        &mut self,
        _ctx: &SelectContext<'_>,
        _job: &JobMeta,
    ) -> Option<usize> {
        None
    }
}

/// Deterministic argmax tie-breaking shared by the contribution-based
/// schedulers: prefer the largest key; break ties by the least recently
/// selected organization, then by index. This prevents a persistent bias
/// toward low-index organizations when keys tie (common at the start of a
/// trace when all utilities are 0).
#[derive(Clone, Debug, Default)]
pub struct OrgPicker {
    stamps: Vec<u64>,
    counter: u64,
}

impl OrgPicker {
    /// A picker for `n` organizations.
    pub fn new(n: usize) -> Self {
        OrgPicker { stamps: vec![0; n], counter: 0 }
    }

    /// Picks the organization with the maximal key among those with waiting
    /// jobs and records the pick. `key` is evaluated once per candidate.
    ///
    /// # Panics
    /// Panics if no organization has waiting jobs.
    pub fn pick_max(
        &mut self,
        ctx: &SelectContext<'_>,
        mut key: impl FnMut(OrgId) -> Util,
    ) -> OrgId {
        let best = ctx
            .waiting_orgs()
            .map(|u| {
                let k = key(u);
                // Max key, then min stamp, then min index.
                (u, k)
            })
            .max_by(|(a, ka), (b, kb)| {
                ka.cmp(kb)
                    .then_with(|| self.stamps[b.index()].cmp(&self.stamps[a.index()]))
                    .then_with(|| b.0.cmp(&a.0))
            })
            .map(|(u, _)| u)
            .expect("select called with no waiting jobs");
        self.note(best);
        best
    }

    /// Picks the organization with the **minimal** key (generic ordered
    /// key, e.g. a fair-share ratio) among those with waiting jobs, with the
    /// same recency/index tie-breaking as [`OrgPicker::pick_max`].
    pub fn pick_min_key<K: Ord>(
        &mut self,
        ctx: &SelectContext<'_>,
        mut key: impl FnMut(OrgId) -> K,
    ) -> OrgId {
        let best = ctx
            .waiting_orgs()
            .map(|u| (u, key(u)))
            .min_by(|(a, ka), (b, kb)| {
                ka.cmp(kb)
                    .then_with(|| self.stamps[a.index()].cmp(&self.stamps[b.index()]))
                    .then_with(|| a.0.cmp(&b.0))
            })
            .map(|(u, _)| u)
            .expect("select called with no waiting jobs");
        self.note(best);
        best
    }

    /// Records that `org` was selected (for recency tie-breaking).
    pub fn note(&mut self, org: OrgId) {
        self.counter += 1;
        self.stamps[org.index()] = self.counter;
    }
}

/// An exact non-negative ratio `num / den` with total ordering by
/// cross-multiplication; `den = 0` represents `+∞` (an organization with no
/// machines has an infinite usage-to-share ratio and is served last),
/// infinities ordered among themselves by numerator.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Frac {
    /// Numerator (usage-like quantity).
    pub num: Util,
    /// Denominator (share-like quantity); 0 encodes infinity.
    pub den: Util,
}

impl Frac {
    /// Builds a ratio.
    pub fn new(num: Util, den: Util) -> Self {
        debug_assert!(num >= 0 && den >= 0);
        Frac { num, den }
    }
}

impl Ord for Frac {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self.den, other.den) {
            (0, 0) => self.num.cmp(&other.num),
            (0, _) => std::cmp::Ordering::Greater,
            (_, 0) => std::cmp::Ordering::Less,
            // Cross-multiplication can overflow i128 for near-max
            // utilities; fall back to an exact 256-bit comparison.
            _ => match (self.num.checked_mul(other.den), other.num.checked_mul(self.den))
            {
                (Some(a), Some(b)) => a.cmp(&b),
                _ => wide_product_cmp(
                    self.num.unsigned_abs(),
                    other.den.unsigned_abs(),
                    other.num.unsigned_abs(),
                    self.den.unsigned_abs(),
                ),
            },
        }
    }
}

/// Compares `a·b` against `c·d` exactly via 128×128 → 256-bit products
/// (all operands non-negative, the [`Frac`] invariant).
fn wide_product_cmp(a: u128, b: u128, c: u128, d: u128) -> std::cmp::Ordering {
    mul_wide(a, b).cmp(&mul_wide(c, d))
}

/// Full 128×128 → 256-bit product as `(hi, lo)` limbs.
fn mul_wide(x: u128, y: u128) -> (u128, u128) {
    const MASK: u128 = (1 << 64) - 1;
    let (x_hi, x_lo) = (x >> 64, x & MASK);
    let (y_hi, y_lo) = (y >> 64, y & MASK);
    let ll = x_lo * y_lo;
    let lh = x_lo * y_hi;
    let hl = x_hi * y_lo;
    let hh = x_hi * y_hi;
    let (mid, mid_carry) = lh.overflowing_add(hl);
    let (lo, lo_carry) = ll.overflowing_add(mid << 64);
    let hi = hh + (mid >> 64) + ((mid_carry as u128) << 64) + lo_carry as u128;
    (hi, lo)
}

impl PartialOrd for Frac {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Tracks, per organization, a utility "bump": the one-step-ahead worth of
/// job units started at the current time moment.
///
/// `ψ_sp` of a job started at `t` is still 0 *at* `t`, so within a single
/// time moment the raw utilities cannot distinguish an organization that
/// just received a machine from one that did not. The paper's pseudo-code
/// handles this by incrementing the running counters on every start
/// (`finUt[org] += 1` in Figure 9; the analogous update in Figure 6); the
/// bump is that increment. It resets automatically when time advances,
/// because from then on the closed-form tracker values include the started
/// units.
#[derive(Clone, Debug, Default)]
pub struct StepBumps {
    bumps: Vec<Util>,
    at: Time,
}

impl StepBumps {
    /// Bumps for `n` organizations.
    pub fn new(n: usize) -> Self {
        StepBumps { bumps: vec![0; n], at: 0 }
    }

    /// The bump of `org` at time `t` (0 if time has advanced past the bumps).
    pub fn get(&self, t: Time, org: OrgId) -> Util {
        if t == self.at {
            self.bumps[org.index()]
        } else {
            0
        }
    }

    /// Adds `amount` to `org`'s bump at time `t`, clearing stale bumps.
    pub fn add(&mut self, t: Time, org: OrgId, amount: Util) {
        if t != self.at {
            self.bumps.fill(0);
            self.at = t;
        }
        self.bumps[org.index()] += amount;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_prefers_max_key() {
        let mut p = OrgPicker::new(3);
        let waiting = [1usize, 1, 1];
        let ctx = SelectContext { t: 0, waiting: &waiting, free_machines: &[] };
        let picked = p.pick_max(&ctx, |u| u.index() as Util);
        assert_eq!(picked, OrgId(2));
    }

    #[test]
    fn picker_skips_orgs_without_jobs() {
        let mut p = OrgPicker::new(3);
        let waiting = [0usize, 1, 0];
        let ctx = SelectContext { t: 0, waiting: &waiting, free_machines: &[] };
        assert_eq!(p.pick_max(&ctx, |_| 100), OrgId(1));
    }

    #[test]
    fn picker_rotates_on_ties() {
        let mut p = OrgPicker::new(2);
        let waiting = [1usize, 1];
        let ctx = SelectContext { t: 0, waiting: &waiting, free_machines: &[] };
        let first = p.pick_max(&ctx, |_| 0);
        let second = p.pick_max(&ctx, |_| 0);
        assert_ne!(first, second, "ties must rotate across organizations");
    }

    #[test]
    #[should_panic]
    fn picker_panics_without_waiting() {
        let mut p = OrgPicker::new(1);
        let waiting = [0usize];
        let ctx = SelectContext { t: 0, waiting: &waiting, free_machines: &[] };
        let _ = p.pick_max(&ctx, |_| 0);
    }

    #[test]
    fn bumps_reset_on_time_advance() {
        let mut b = StepBumps::new(2);
        b.add(5, OrgId(0), 1);
        b.add(5, OrgId(0), 1);
        assert_eq!(b.get(5, OrgId(0)), 2);
        assert_eq!(b.get(6, OrgId(0)), 0);
        b.add(6, OrgId(1), 3);
        assert_eq!(b.get(6, OrgId(0)), 0);
        assert_eq!(b.get(6, OrgId(1)), 3);
    }

    #[test]
    fn frac_ordering() {
        assert!(Frac::new(1, 2) < Frac::new(2, 3)); // 0.5 < 0.667
        assert!(Frac::new(2, 4) == Frac::new(2, 4));
        assert_eq!(Frac::new(1, 2).cmp(&Frac::new(2, 4)), std::cmp::Ordering::Equal);
        // Infinities: den = 0 beats everything finite.
        assert!(Frac::new(0, 0) > Frac::new(1_000_000, 1));
        assert!(Frac::new(1, 0) > Frac::new(0, 0));
    }

    #[test]
    fn frac_ordering_survives_i128_overflow() {
        // Regression: near-max utilities overflow the naive i128
        // cross-multiplication (a debug-build panic before the widening
        // fallback). 2^100/2^101 = 1/2 < 2^102/2^101 = 2.
        let huge = 1i128 << 100;
        let a = Frac::new(huge, 2 * huge);
        let b = Frac::new(4 * huge, 2 * huge);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
        // Equal ratios with non-identical huge parts: x/x == y/y.
        assert_eq!(
            Frac::new(huge, huge).cmp(&Frac::new(3 * huge, 3 * huge)),
            std::cmp::Ordering::Equal
        );
        // Max-value corner: MAX/1 vs (MAX−1)/1 must not wrap.
        assert!(Frac::new(Util::MAX, 1) > Frac::new(Util::MAX - 1, 1));
        // And the wide path agrees with the narrow one where both work.
        assert_eq!(wide_product_cmp(3, 5, 4, 4), (3i128 * 5).cmp(&(4 * 4)));
    }

    #[test]
    fn mul_wide_matches_known_products() {
        assert_eq!(mul_wide(0, u128::MAX), (0, 0));
        assert_eq!(mul_wide(1, u128::MAX), (0, u128::MAX));
        assert_eq!(mul_wide(2, u128::MAX), (1, u128::MAX - 1));
        assert_eq!(mul_wide(1 << 64, 1 << 64), (1, 0));
        assert_eq!(mul_wide(u128::MAX, u128::MAX), (u128::MAX - 1, 1));
    }

    #[test]
    fn pick_min_key_prefers_smallest() {
        let mut p = OrgPicker::new(3);
        let waiting = [1usize, 1, 1];
        let ctx = SelectContext { t: 0, waiting: &waiting, free_machines: &[] };
        let keys = [5i128, 2, 9];
        assert_eq!(p.pick_min_key(&ctx, |u| keys[u.index()]), OrgId(1));
    }

    #[test]
    fn pick_min_rotates_on_ties() {
        let mut p = OrgPicker::new(2);
        let waiting = [1usize, 1];
        let ctx = SelectContext { t: 0, waiting: &waiting, free_machines: &[] };
        let a = p.pick_min_key(&ctx, |_| 0i128);
        let b = p.pick_min_key(&ctx, |_| 0i128);
        assert_ne!(a, b);
    }

    #[test]
    fn waiting_orgs_iterator() {
        let waiting = [0usize, 2, 1];
        let ctx = SelectContext { t: 0, waiting: &waiting, free_machines: &[] };
        let orgs: Vec<_> = ctx.waiting_orgs().collect();
        assert_eq!(orgs, vec![OrgId(1), OrgId(2)]);
    }
}

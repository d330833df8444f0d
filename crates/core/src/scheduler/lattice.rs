//! The coalition lattice: hypothetical sub-schedules for subcoalitions.
//!
//! The fair algorithm of Definition 3.1 is doubly recursive: the schedule
//! for a coalition `C` at time `t` depends on the *values* `v(C', t)` of all
//! subcoalitions `C' ⊂ C`, each produced by a fair algorithm for `C'`. The
//! paper's Figure 1 realizes this by keeping one schedule per subcoalition
//! and complementing them in size order at every time moment.
//!
//! [`CoalitionLattice`] is the event-driven equivalent: one lightweight
//! simulation ([`CoalitionSim`]) per tracked coalition, advanced lazily to
//! the decision time. Two policies are supported:
//!
//! * [`Policy::Fair`] — each coalition schedules by the Shapley rule
//!   `argmax(φ − ψ)` computed from **its own** subcoalitions (requires the
//!   tracked set to be subset-closed; used by REF),
//! * [`Policy::Fifo`] — each coalition schedules greedily in release order
//!   (any greedy policy yields the same coalition values for unit jobs,
//!   Proposition 5.4; used by RAND's sampled coalitions).
//!
//! Processing coalitions in size order at equal times is not load-bearing
//! here: `ψ_sp` of a job started at `t` is 0 *at* `t`, so subset values at
//! `t` are unaffected by the scheduling round at `t` itself — the lattice
//! exploits this to settle coalitions independently.
//!
//! # The fast path
//!
//! The lattice is the hottest loop in the codebase (REF touches `2^k`
//! sub-simulations per event time and `Σ_C 2^|C| = 3^k` subset values per
//! fully-busy scheduling round), so it is built around four invariants:
//!
//! 1. **Dense rank indexing.** Coalition bitmasks map to sim ranks through
//!    a flat `Vec<u32>` of length `2^k` (`u32::MAX` = untracked) whenever
//!    `k ≤ 20`; `value_of`/`shapley_for` lookups are array reads, not
//!    `HashMap` probes. Larger player counts (sparse RAND lattices) fall
//!    back to a `HashMap`.
//! 2. **Closed-form value polynomials.** Between its own start/completion
//!    events, a sim's coalition value is a quadratic in `t`:
//!    `2·v(t) = R·t² + (2·cu + R − 2·Σs)·t + (Σs² − Σs − 2·css)` with `R`
//!    running jobs, starts `s`, `cu` completed units and `css` the
//!    completed slot sum (the same closed forms [`SpTracker`] uses, summed
//!    over the members). `value_of` is therefore O(1) — no per-member
//!    tracker walk — and evaluating at a *later* `t` costs nothing.
//! 3. **Incremental Shapley.** `shapley_for(C)` is served from a cached
//!    per-coalition φ *polynomial* (the weighted sum of the subset value
//!    polynomials, stored doubled so all arithmetic stays in exact
//!    integers). Caches are maintained **incrementally** and never
//!    evicted: whenever a sim starts or completes a job, its
//!    value-polynomial delta `(Δa, Δb, Δc)` is pushed — with the correct
//!    subset weights — into every existing superset cache
//!    ([`Coalition::supersets_within`]), so a cached φ read is a pure
//!    `O(|C|)` evaluation. The `O(|C|·2^|C|)` from-scratch build happens
//!    exactly once per coalition, on its first contested read, so a
//!    lattice performs at most `2^k − 1` builds; after that, cost is
//!    proportional to how much of the lattice *actually changes*. Each
//!    cache is split into per-member rows `H_u` and one shared row `G`
//!    (`φ_u = H_u − G`), so a push from `S` adds precomputed per-size
//!    deltas to `G` and to the `|S|` rows of `S` only — no
//!    multiplication per superset, and no touch of `C ∖ S`. All caches
//!    live in one grow-only arena. Settled sims — empty queues, no
//!    pending completions — emit no deltas and therefore cost nothing, at
//!    any lattice size, and sims whose pick is forced (a single eligible
//!    organization — every singleton, in particular) never materialize a
//!    cache at all. Deltas are exact integers and addition commutes, so
//!    cached φ is bit-for-bit the from-scratch value; a start/completion
//!    delta also evaluates to 0 at its own event time, which keeps φ
//!    vectors read earlier in the same round exact. Only `Policy::Fair`
//!    lattices pay for (or benefit from) this machinery.
//! 4. **Batched wake-ups.** The event heap stores bare *times*, not
//!    `(time, sim)` pairs: a release wakes the lattice once per time
//!    moment instead of pushing one heap entry per tracked coalition per
//!    job (`2^(k−1)` pushes for a single release under the old scheme).
//!    Each processed time runs completions and one scheduling round over
//!    all sims.
//!
//! All four are pure strength reductions: schedules, tie-breaks, and φ/ψ
//! values are bit-for-bit identical to the from-scratch implementation
//! (`tests/golden_refrand.rs` pins this against pre-fast-path fixtures,
//! and the property tests below check φ against a from-scratch oracle).
//! [`CoalitionLattice::stats`] exposes counters (settles, rounds, φ cache
//! hits/rebuilds, …) that the `bench_baseline` harness records into
//! `BENCH_lattice.json`.
//!
//! Sub-simulations require job durations (to know when hypothetical copies
//! of a job complete). This is the execution-oracle boundary discussed in
//! DESIGN.md: REF/RAND are offline fairness benchmarks; information is used
//! causally (a duration is consumed only when the hypothetical job
//! completes, at a time ≤ the current decision time).

use crate::model::{OrgId, Time};
use crate::utility::{SpTracker, Util};
use coopgame::{factorial, Coalition, Player};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Scheduling policy inside each tracked coalition.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Shapley-fair selection (REF rule) — requires subset-closed tracking.
    Fair,
    /// Release-order greedy (FIFO) selection.
    Fifo,
}

/// A waiting hypothetical job inside a coalition simulation.
#[derive(Copy, Clone, Debug)]
struct WaitingJob {
    release: Time,
    proc: Time,
    seq: u64,
}

/// One coalition's hypothetical schedule state: machine occupancy, per-org
/// FIFO queues, exact `ψ_sp` trackers, and the aggregate value polynomial.
#[derive(Clone, Debug)]
pub struct CoalitionSim {
    coalition: Coalition,
    n_machines: usize,
    busy: usize,
    /// Per-organization queues (indexed by global org id; only members used).
    waiting: Vec<VecDeque<WaitingJob>>,
    /// Orgs with a non-empty queue (bitmask over global org ids) — the
    /// fast-reject for `can_schedule` scans.
    queued_mask: u64,
    /// Per-organization ψ trackers (for `org_value_at` / the fair rule).
    trackers: Vec<SpTracker>,
    /// Completion events local to this sim: (time, org, start).
    completions: BinaryHeap<Reverse<(Time, u32, Time)>>,
    /// Earliest pending completion (`Time::MAX` when none) — lets the
    /// per-round scan skip the heap peek for idle sims.
    next_completion: Time,
    /// Aggregate doubled-value polynomial over all members (see module
    /// docs): `2·v(t) = run_count·t² + (2·completed_units + run_count −
    /// 2·run_s_sum)·t + (run_s2_sum − run_s_sum − 2·completed_slot_sum)`.
    completed_units: Util,
    completed_slot_sum: Util,
    run_count: Util,
    run_s_sum: Util,
    run_s2_sum: Util,
    /// Within-step ψ bumps (org -> bump), valid at `bump_t`.
    bumps: Vec<Util>,
    bump_t: Time,
    /// Tie-break stamps for the fair rule.
    stamps: Vec<u64>,
    stamp_counter: u64,
    seq: u64,
}

impl CoalitionSim {
    fn new(coalition: Coalition, n_orgs: usize, n_machines: usize) -> Self {
        CoalitionSim {
            coalition,
            n_machines,
            busy: 0,
            waiting: vec![VecDeque::new(); n_orgs],
            queued_mask: 0,
            trackers: vec![SpTracker::new(); n_orgs],
            completions: BinaryHeap::new(),
            next_completion: Time::MAX,
            completed_units: 0,
            completed_slot_sum: 0,
            run_count: 0,
            run_s_sum: 0,
            run_s2_sum: 0,
            bumps: vec![0; n_orgs],
            bump_t: 0,
            stamps: vec![0; n_orgs],
            stamp_counter: 0,
            seq: 0,
        }
    }

    /// The coalition this sim schedules for.
    pub fn coalition(&self) -> Coalition {
        self.coalition
    }

    /// Machines available to this coalition.
    pub fn n_machines(&self) -> usize {
        self.n_machines
    }

    fn release(&mut self, t: Time, org: OrgId, proc: Time) {
        debug_assert!(self.coalition.contains(Player(org.index())));
        self.seq += 1;
        self.queued_mask |= 1u64 << org.index();
        self.waiting[org.index()].push_back(WaitingJob {
            release: t,
            proc,
            seq: self.seq,
        });
    }

    /// Applies all completions at times ≤ `t`. Returns the number applied
    /// and the *net* doubled-value-polynomial delta `(Δa, Δb, Δc)` — each
    /// completion swaps its running-job term for a completed-job term:
    /// `2·Δv = −t² + (2p − 1 + 2s)·t + (s − s² − p·(s + ct − 1))`, which
    /// evaluates to 0 at `t = ct` (value continuity), so φ vectors read
    /// earlier in the same round stay exact.
    fn pop_completions_up_to(&mut self, t: Time) -> (u64, (Util, Util, Util)) {
        let mut applied = 0;
        let (mut da, mut db, mut dc) = (0, 0, 0);
        while let Some(Reverse((ct, org, start))) = self.completions.peek().copied() {
            if ct > t {
                break;
            }
            self.completions.pop();
            self.busy -= 1;
            self.trackers[org as usize].on_complete(start, ct);
            let p = (ct - start) as Util;
            let (s, c) = (start as Util, ct as Util);
            self.completed_units += p;
            self.completed_slot_sum += p * (s + c - 1) / 2;
            self.run_count -= 1;
            self.run_s_sum -= s;
            self.run_s2_sum -= s * s;
            da -= 1;
            db += 2 * p - 1 + 2 * s;
            dc += s - s * s - p * (s + c - 1);
            applied += 1;
        }
        if applied > 0 {
            self.next_completion =
                self.completions.peek().map_or(Time::MAX, |Reverse((ct, ..))| *ct);
        }
        (applied, (da, db, dc))
    }

    /// Whether a machine is free and some member has an eligible job at `t`.
    fn can_schedule(&self, t: Time) -> bool {
        self.busy < self.n_machines && self.queued_mask != 0 && self.has_eligible(t)
    }

    fn has_eligible(&self, t: Time) -> bool {
        let mut bits = self.queued_mask;
        while bits != 0 {
            let u = bits.trailing_zeros() as usize;
            if self.waiting[u].front().is_some_and(|j| j.release <= t) {
                return true;
            }
            bits &= bits - 1;
        }
        false
    }

    fn eligible(&self, org: OrgId, t: Time) -> bool {
        self.waiting[org.index()].front().is_some_and(|j| j.release <= t)
    }

    /// `Some(org)` iff exactly one member has an eligible job at `t`.
    fn sole_eligible(&self, t: Time) -> Option<OrgId> {
        let mut found = None;
        let mut bits = self.queued_mask;
        while bits != 0 {
            let u = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if self.waiting[u].front().is_some_and(|j| j.release <= t) {
                if found.is_some() {
                    return None;
                }
                found = Some(OrgId(u as u32));
            }
        }
        found
    }

    /// Starts the FIFO-head job of `org` at `t`; returns the completion time.
    fn start(&mut self, t: Time, org: OrgId) -> Time {
        let job = self.waiting[org.index()].pop_front().expect("no waiting job");
        if self.waiting[org.index()].is_empty() {
            self.queued_mask &= !(1u64 << org.index());
        }
        debug_assert!(job.release <= t);
        self.busy += 1;
        self.trackers[org.index()].on_start(t);
        let s = t as Util;
        self.run_count += 1;
        self.run_s_sum += s;
        self.run_s2_sum += s * s;
        if self.bump_t != t {
            self.bumps.fill(0);
            self.bump_t = t;
        }
        self.bumps[org.index()] += 1;
        self.stamp_counter += 1;
        self.stamps[org.index()] = self.stamp_counter;
        let completion = t + job.proc;
        self.completions.push(Reverse((completion, org.0, t)));
        self.next_completion = self.next_completion.min(completion);
        completion
    }

    /// The release-order pick: the member with the earliest-released
    /// eligible head job (ties by arrival order).
    fn fifo_pick(&self, t: Time) -> OrgId {
        let mut bits = self.queued_mask;
        let mut best: Option<(Time, u64, OrgId)> = None;
        while bits != 0 {
            let u = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if let Some(j) = self.waiting[u].front() {
                if j.release <= t {
                    let key = (j.release, j.seq, OrgId(u as u32));
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
        }
        best.expect("fifo_pick with nothing eligible").2
    }

    /// The doubled-value polynomial coefficients `(a, b, c)` with
    /// `2·v(t) = a·t² + b·t + c` (see module docs). Valid for any `t` not
    /// earlier than the sim's last applied event.
    fn doubled_poly(&self) -> (Util, Util, Util) {
        (
            self.run_count,
            2 * self.completed_units + self.run_count - 2 * self.run_s_sum,
            self.run_s2_sum - self.run_s_sum - 2 * self.completed_slot_sum,
        )
    }

    /// Coalition value `v(C, t) = Σ_{u∈C} ψ_sp(σ_C, u, t)` (bumps excluded).
    /// O(1) via the aggregate polynomial.
    pub fn value_at(&self, t: Time) -> Util {
        let (a, b, c) = self.doubled_poly();
        let t = t as Util;
        (a * t * t + b * t + c) / 2
    }

    /// One organization's utility in this coalition's schedule.
    pub fn org_value_at(&self, org: OrgId, t: Time) -> Util {
        self.trackers[org.index()].value_at(t)
    }

    fn bump(&self, org: OrgId, t: Time) -> Util {
        if self.bump_t == t {
            self.bumps[org.index()]
        } else {
            0
        }
    }
}

/// Coalition bits → sim rank. Dense (flat array) for small player counts,
/// `HashMap` fallback for sparse lattices over many players.
#[derive(Clone, Debug)]
enum CoalitionIndex {
    Dense(Vec<u32>),
    Sparse(HashMap<u64, u32>),
}

/// Sentinel for "not tracked" in the dense table.
const UNTRACKED: u32 = u32::MAX;

/// Player counts up to this use the dense table (`2^20` entries = 4 MiB).
const DENSE_INDEX_MAX_ORGS: usize = 20;

impl CoalitionIndex {
    fn build(n_orgs: usize, sims: &[CoalitionSim]) -> Self {
        if n_orgs <= DENSE_INDEX_MAX_ORGS {
            let mut table = vec![UNTRACKED; 1usize << n_orgs];
            for (rank, sim) in sims.iter().enumerate() {
                table[sim.coalition.bits() as usize] = rank as u32;
            }
            CoalitionIndex::Dense(table)
        } else {
            CoalitionIndex::Sparse(
                sims.iter()
                    .enumerate()
                    .map(|(rank, sim)| (sim.coalition.bits(), rank as u32))
                    .collect(),
            )
        }
    }

    #[inline]
    fn get(&self, bits: u64) -> Option<usize> {
        match self {
            CoalitionIndex::Dense(table) => {
                let rank = table[bits as usize];
                (rank != UNTRACKED).then_some(rank as usize)
            }
            CoalitionIndex::Sparse(map) => map.get(&bits).map(|&r| r as usize),
        }
    }
}

/// Sentinel for "no φ cache yet" in [`CoalitionLattice::phi_row`].
const NO_PHI_ROW: u32 = u32::MAX;

/// Adds a weighted `[quad, lin, cons]` delta to one φ cache row.
#[inline]
fn add_row(row: &mut [i128; 3], delta: [i128; 3]) {
    row[0] += delta[0];
    row[1] += delta[1];
    row[2] += delta[2];
}

/// `[quad, lin, cons]` scaled by an integer weight.
#[inline]
fn scaled(w: i128, (a, b, d): (Util, Util, Util)) -> [i128; 3] {
    [w * a, w * b, w * d]
}

/// Evaluates a doubled `[quad, lin, cons]` row at `tt`.
#[inline]
fn eval_row([a, b, d]: [i128; 3], tt: i128) -> i128 {
    a * tt * tt + b * tt + d
}

/// Counters describing the work a lattice performed — the raw material of
/// the `BENCH_lattice.json` baseline (see `fairsched-bench`'s
/// `bench_baseline`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LatticeStats {
    /// `settle` calls (one per value read / decision point).
    pub settles: u64,
    /// Distinct event times processed (completions + one scheduling round).
    pub rounds: u64,
    /// Job releases delivered to sims (fan-out, one per containing sim).
    pub releases: u64,
    /// Hypothetical job starts across all sims.
    pub sim_starts: u64,
    /// Hypothetical job completions applied across all sims.
    pub sim_completions: u64,
    /// φ served from a cached polynomial (pure evaluation).
    pub phi_cache_hits: u64,
    /// φ polynomial full builds (the `O(2^|C|)` from-scratch path).
    pub phi_recomputes: u64,
    /// Weighted sim deltas pushed into live φ caches.
    pub phi_deltas_applied: u64,
    /// φ caches evicted: always 0, since caches live as long as the
    /// lattice; kept for the benchmark harness until a `[benchmark]` PR
    /// retires it.
    pub phi_evictions: u64,
}

/// A lazily-advanced collection of coalition simulations sharing one event
/// clock.
#[derive(Clone, Debug)]
pub struct CoalitionLattice {
    n_orgs: usize,
    policy: Policy,
    /// Bits of the all-orgs coalition (the invalidation universe).
    universe: u64,
    /// Sims sorted by coalition size (ascending), then bits.
    sims: Vec<CoalitionSim>,
    /// Coalition bits → rank into `sims`.
    index: CoalitionIndex,
    /// Per-org list of sim ranks containing that org (release fan-out).
    org_sims: Vec<Vec<u32>>,
    /// Pending wake-up times (deduplicated on pop; one entry per time, not
    /// one per sim).
    wake: BinaryHeap<Reverse<Time>>,
    /// All events strictly before `advanced_to` have been fully processed
    /// (completions applied *and* scheduling rounds run).
    advanced_to: Time,
    /// Precomputed factorials `0..=n_orgs`.
    fact: Vec<i128>,
    /// The φ cache arena (Fair policy only), grow-only: a coalition gets
    /// a block of `n_orgs + 1` doubled `[quad, lin, cons]` rows on its
    /// first contested read — `H_u` at each member's global org id, the
    /// shared `G` last — and its φ polynomial for member `u` is
    /// `H_u − G` over its non-empty **proper** subsets. The coalition's
    /// own value term is added at evaluation time (so REF's `grand_value`
    /// override needs no separate cache). Kept current by eager delta
    /// pushes for the lattice's lifetime; empty until the first φ read,
    /// which lets the push skip the superset walk entirely.
    phi_rows: Vec<[i128; 3]>,
    /// Per-rank block index into `phi_rows` ([`NO_PHI_ROW`] = not read
    /// yet); the extra last slot is the universe when it is untracked.
    phi_row: Vec<u32>,
    /// Per superset size, the `[G, H]` weighted deltas of the push in
    /// progress (scratch for [`Self::push_delta`]).
    push_rows: Vec<[[i128; 3]; 2]>,
    /// Sims with a not-yet-pushed net value delta this round (ranks), the
    /// per-sim accumulated deltas, and the membership marks. Deltas within
    /// one time moment are additive and all evaluate to 0 at that moment,
    /// so one merged superset walk per changed sim per round suffices;
    /// flushed at the end of each processed time (and before any φ cache
    /// build, which snapshots live sim state).
    pending: Vec<u32>,
    pending_delta: Vec<(Util, Util, Util)>,
    pending_mark: Vec<bool>,
    stats: LatticeStats,
}

/// The most organizations [`CoalitionLattice::full_proper`] tracks: the
/// full lattice holds `2^k − 2` sub-schedules.
pub const MAX_FULL_ORGS: usize = 16;

/// A full lattice was requested for more than [`MAX_FULL_ORGS`]
/// organizations.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TooManyOrgs {
    /// The organization count that was asked for.
    pub n_orgs: usize,
}

impl std::fmt::Display for TooManyOrgs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "the full coalition lattice supports at most {MAX_FULL_ORGS} organizations, \
             got {}",
            self.n_orgs
        )
    }
}

impl std::error::Error for TooManyOrgs {}

impl CoalitionLattice {
    /// A lattice tracking **every non-empty proper subcoalition** of the
    /// grand coalition, scheduling each with the fair (Shapley) rule — the
    /// configuration REF needs. `machines[u]` is organization `u`'s machine
    /// count.
    ///
    /// More than [`MAX_FULL_ORGS`] organizations is a typed
    /// [`TooManyOrgs`] error (`2^k` sims; REF is an FPT benchmark): the
    /// organization count comes from the workload, i.e. from outside.
    pub fn full_proper(machines: &[usize]) -> Result<Self, TooManyOrgs> {
        let n_orgs = machines.len();
        if n_orgs > MAX_FULL_ORGS {
            return Err(TooManyOrgs { n_orgs });
        }
        let grand = Coalition::grand(n_orgs);
        let coalitions: Vec<Coalition> =
            grand.proper_subsets().filter(|c| !c.is_empty()).collect();
        Ok(Self::with_coalitions(machines, &coalitions, Policy::Fair))
    }

    /// A lattice tracking an explicit set of coalitions with the given
    /// policy. For [`Policy::Fair`] the set must be subset-closed (checked).
    pub fn with_coalitions(
        machines: &[usize],
        coalitions: &[Coalition],
        policy: Policy,
    ) -> Self {
        let n_orgs = machines.len();
        let mut sims: Vec<CoalitionSim> = coalitions
            .iter()
            .filter(|c| !c.is_empty())
            .map(|&c| {
                let m = c.members().map(|p| machines[p.0]).sum();
                CoalitionSim::new(c, n_orgs, m)
            })
            .collect();
        sims.sort_by_key(|s| (s.coalition.len(), s.coalition.bits()));
        sims.dedup_by_key(|s| s.coalition.bits());
        let index = CoalitionIndex::build(n_orgs, &sims);
        if policy == Policy::Fair {
            for s in &sims {
                for sub in s.coalition.proper_subsets() {
                    if !sub.is_empty() {
                        assert!(
                            index.get(sub.bits()).is_some(),
                            "fair policy requires a subset-closed coalition set"
                        );
                    }
                }
            }
        }
        let mut org_sims: Vec<Vec<u32>> = vec![Vec::new(); n_orgs];
        for (rank, s) in sims.iter().enumerate() {
            for p in s.coalition.members() {
                org_sims[p.0].push(rank as u32);
            }
        }
        let fact = (0..=n_orgs).map(|i| factorial(i) as i128).collect();
        let n_sims = sims.len();
        CoalitionLattice {
            n_orgs,
            policy,
            universe: Coalition::grand(n_orgs).bits(),
            sims,
            index,
            org_sims,
            wake: BinaryHeap::new(),
            advanced_to: 0,
            fact,
            phi_rows: Vec::new(),
            phi_row: vec![NO_PHI_ROW; n_sims + 1],
            push_rows: vec![[[0; 3]; 2]; n_orgs + 1],
            pending: Vec::new(),
            pending_delta: vec![(0, 0, 0); n_sims],
            pending_mark: vec![false; n_sims],
            stats: LatticeStats::default(),
        }
    }

    /// Number of tracked coalitions.
    pub fn n_coalitions(&self) -> usize {
        self.sims.len()
    }

    /// Work counters accumulated since construction.
    pub fn stats(&self) -> LatticeStats {
        self.stats
    }

    /// Delivers a job release to every tracked coalition containing `org`.
    /// Releases must arrive in non-decreasing time order.
    pub fn release(&mut self, t: Time, org: OrgId, proc: Time) {
        self.advance_before(t);
        for &rank in &self.org_sims[org.index()] {
            self.sims[rank as usize].release(t, org, proc);
        }
        self.stats.releases += self.org_sims[org.index()].len() as u64;
        self.push_wake(t);
    }

    /// Fully settles every tracked coalition at time `t`: all events up to
    /// and including `t` are processed and every scheduling opportunity at
    /// `t` is taken. Must be called before reading values at `t`.
    pub fn settle(&mut self, t: Time) {
        self.stats.settles += 1;
        self.advance_before(t);
        self.pop_wakes_at(t);
        self.process_time(t);
        self.advanced_to = t;
    }

    /// One wake per time: duplicates are mostly avoided at push (cheap
    /// min-peek) and fully collapsed on pop.
    fn push_wake(&mut self, t: Time) {
        if self.wake.peek() != Some(&Reverse(t)) {
            self.wake.push(Reverse(t));
        }
    }

    fn pop_wakes_at(&mut self, t: Time) {
        while self.wake.peek() == Some(&Reverse(t)) {
            self.wake.pop();
        }
    }

    /// Processes all events strictly before `t`, running full scheduling
    /// rounds at each distinct event time.
    fn advance_before(&mut self, t: Time) {
        while let Some(&Reverse(et)) = self.wake.peek() {
            if et >= t {
                break;
            }
            self.pop_wakes_at(et);
            self.process_time(et);
            self.advanced_to = et;
        }
    }

    /// Applies completions at `t` in every sim, runs the scheduling round
    /// at `t`, then flushes the accumulated per-sim deltas into the live φ
    /// caches (one merged superset walk per changed sim).
    fn process_time(&mut self, t: Time) {
        self.stats.rounds += 1;
        let fair = self.policy == Policy::Fair;
        let mut completed = 0;
        for i in 0..self.sims.len() {
            if self.sims[i].next_completion > t {
                continue;
            }
            let (n, delta) = self.sims[i].pop_completions_up_to(t);
            completed += n;
            if fair && n > 0 {
                self.add_pending(i, delta);
            }
        }
        self.stats.sim_completions += completed;
        self.schedule_round(t);
        self.flush_pending();
    }

    /// Accumulates a sim's value delta for the current time moment.
    fn add_pending(&mut self, rank: usize, (da, db, dc): (Util, Util, Util)) {
        if !self.pending_mark[rank] {
            self.pending_mark[rank] = true;
            self.pending.push(rank as u32);
        }
        let acc = &mut self.pending_delta[rank];
        acc.0 += da;
        acc.1 += db;
        acc.2 += dc;
    }

    /// Pushes every accumulated delta into the live φ caches and clears
    /// the pending set. Must run before any φ cache *build* (the build
    /// snapshots live sim state, so a later push would double-count) and
    /// at the end of every processed time.
    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        for &rank in &pending {
            let rank = rank as usize;
            self.pending_mark[rank] = false;
            let delta = std::mem::take(&mut self.pending_delta[rank]);
            if delta != (0, 0, 0) {
                self.push_delta(self.sims[rank].coalition.bits(), delta);
            }
        }
        let mut pending = pending;
        pending.clear();
        self.pending = pending;
    }

    /// Pushes one sim's doubled-value-polynomial delta into every live
    /// superset φ cache, weighted exactly as a full build would weight that
    /// subset: `(|S|−1)!(|C|−|S|)!` for members of `S`,
    /// `−|S|!(|C|−|S|−1)!` for the rest of `C`. In the `H/G` split that is
    /// `+w_out·Δ` on `G` and `+(w_in + w_out)·Δ` on `H_u` for `u ∈ S`,
    /// where `w_in + w_out = |C|·(|S|−1)!(|C|−|S|−1)!`; both depend only on
    /// `|C|`, so they are computed once per superset size and each
    /// superset costs `|S| + 1` row additions. With no live caches (before
    /// the first φ read, and always under `Policy::Fifo`) this is free.
    fn push_delta(&mut self, bits: u64, delta: (Util, Util, Util)) {
        if self.phi_rows.is_empty() {
            return;
        }
        let s = Coalition::from_bits(bits);
        let s_len = s.len();
        for size in s_len + 1..=self.n_orgs {
            let (g, h) = self.hg_weights(s_len, size);
            self.push_rows[size] = [scaled(g, delta), scaled(h, delta)];
        }
        let stride = self.n_orgs + 1;
        let mut applied = 0u64;
        for sup in s.supersets_within(Coalition::from_bits(self.universe)) {
            if sup.bits() == bits {
                continue; // a coalition's own value is added at eval time
            }
            let Some(slot) = self.phi_slot(sup.bits()) else { continue };
            let row = self.phi_row[slot];
            if row == NO_PHI_ROW {
                continue;
            }
            let [g, h] = self.push_rows[sup.len()];
            let block = &mut self.phi_rows[row as usize * stride..][..stride];
            add_row(&mut block[self.n_orgs], g);
            for p in s.members() {
                add_row(&mut block[p.0], h);
            }
            applied += 1;
        }
        self.stats.phi_deltas_applied += applied;
    }

    /// The `(G, H)` weights of a proper subset of size `s` in a coalition
    /// of size `c`: `w_out = s!(c−s−1)!` and `w_in + w_out =
    /// c·(s−1)!(c−s−1)!`, both `(s−1)!(c−s−1)!` times a size.
    #[inline]
    fn hg_weights(&self, s: usize, c: usize) -> (i128, i128) {
        let w = self.fact[s - 1] * self.fact[c - s - 1];
        (s as i128 * w, c as i128 * w)
    }

    /// The `phi_row` slot of a cacheable coalition: its rank, or the extra
    /// last slot for the untracked universe.
    #[inline]
    fn phi_slot(&self, bits: u64) -> Option<usize> {
        match self.index.get(bits) {
            Some(rank) => Some(rank),
            None if bits == self.universe => Some(self.sims.len()),
            None => None,
        }
    }

    /// Runs the scheduling round at `t` over all sims (size order). Each
    /// sim's start deltas are pushed to the φ caches once per round (they
    /// are additive, and a start delta is 0 at `t` itself, so batching
    /// does not change any value read this round).
    fn schedule_round(&mut self, t: Time) {
        for i in 0..self.sims.len() {
            if !self.sims[i].can_schedule(t) {
                continue;
            }
            let mut started = 0u64;
            match self.policy {
                Policy::Fifo => {
                    while self.sims[i].can_schedule(t) {
                        let org = self.sims[i].fifo_pick(t);
                        started += 1;
                        let completion = self.sims[i].start(t, org);
                        self.push_wake(completion);
                    }
                }
                Policy::Fair => {
                    // Forced pick: with a single eligible organization the
                    // argmax is determined without φ (singleton sims — the
                    // busiest ones — always take this path).
                    if let Some(org) = self.sims[i].sole_eligible(t) {
                        // Starting `org`'s jobs cannot make another org
                        // eligible, so the pick stays forced all round.
                        while self.sims[i].can_schedule(t) {
                            started += 1;
                            let completion = self.sims[i].start(t, org);
                            self.push_wake(completion);
                        }
                    } else {
                        // φ is constant within the round (values at t don't
                        // see starts at t); only the started org's ψ bump
                        // and tie-break stamp change between starts, so the
                        // selection keys are computed once and patched.
                        let phi = self.shapley_for(self.sims[i].coalition, t, None);
                        let c_size = self.sims[i].coalition.len();
                        let scale = self.fact[c_size];
                        let sim = &self.sims[i];
                        // (key, stamp, org) per eligible member; argmax by
                        // key, ties to the smaller stamp, then smaller id —
                        // exactly the old comparator.
                        let mut cand: Vec<(i128, u64, OrgId)> = sim
                            .coalition
                            .members()
                            .map(|p| OrgId(p.0 as u32))
                            .filter(|&u| sim.eligible(u, t))
                            .map(|u| {
                                let key = phi[u.index()]
                                    - scale * (sim.org_value_at(u, t) + sim.bump(u, t));
                                (key, sim.stamps[u.index()], u)
                            })
                            .collect();
                        while self.sims[i].can_schedule(t) {
                            let best = cand
                                .iter()
                                .enumerate()
                                .max_by(|(_, a), (_, b)| {
                                    a.0.cmp(&b.0)
                                        .then_with(|| b.1.cmp(&a.1))
                                        .then_with(|| b.2 .0.cmp(&a.2 .0))
                                })
                                .map(|(idx, _)| idx)
                                .expect("can_schedule implies an eligible org");
                            let org = cand[best].2;
                            started += 1;
                            let completion = self.sims[i].start(t, org);
                            self.push_wake(completion);
                            let sim = &self.sims[i];
                            if sim.eligible(org, t) {
                                // ψ at t is untouched by a start at t; only
                                // the bump (+1 ⇒ key − scale) and the fresh
                                // stamp move.
                                cand[best].0 -= scale;
                                cand[best].1 = sim.stamps[org.index()];
                            } else {
                                cand.swap_remove(best);
                            }
                        }
                    }
                }
            }
            self.stats.sim_starts += started;
            if started > 0 && self.policy == Policy::Fair {
                // `n` jobs starting at s add running terms with the net
                // delta n·(t², (1−2s)·t, s² − s) — zero at t = s, so φ
                // vectors already read this round stay exact.
                let n = started as Util;
                let s = t as Util;
                self.add_pending(i, (n, n * (1 - 2 * s), n * (s * s - s)));
            }
        }
    }

    /// The value `v(C, t)` of a tracked coalition (or 0 for the empty
    /// coalition). The lattice must be settled at `t`.
    ///
    /// # Panics
    /// Panics if `c` is non-empty and untracked.
    pub fn value_of(&self, c: Coalition, t: Time) -> Util {
        if c.is_empty() {
            return 0;
        }
        let i = self.index.get(c.bits()).expect("coalition not tracked by this lattice");
        self.sims[i].value_at(t)
    }

    /// Exact Shapley contributions `φ_u · |C|!` for the members of `c` at
    /// time `t`, computed from the tracked subcoalition values. If
    /// `grand_value` is `Some(v)`, the value of `c` itself is taken to be
    /// `v` (REF passes the real schedule's value here); otherwise `c` must
    /// be tracked.
    ///
    /// Served from the per-coalition φ polynomial cache (Fair policy):
    /// caches are kept current by eager delta pushes, so a cached read is
    /// a pure O(|C|) evaluation; the `O(|C|·2^|C|)` from-scratch build
    /// happens only on a coalition's first read.
    ///
    /// Returns a dense vector indexed by global org id (non-members 0).
    pub fn shapley_for(
        &mut self,
        c: Coalition,
        t: Time,
        grand_value: Option<Util>,
    ) -> Vec<i128> {
        if c.is_empty() {
            return vec![0; self.n_orgs];
        }
        let stride = self.n_orgs + 1;
        let slot = match self.policy {
            Policy::Fair => self.phi_slot(c.bits()),
            Policy::Fifo => None,
        };
        let Some(slot) = slot else {
            let mut block = vec![[0; 3]; stride];
            self.build_phi_rows(c, &mut block);
            return self.eval_phi(&block, c, t, grand_value);
        };
        if self.phi_row[slot] == NO_PHI_ROW {
            self.stats.phi_recomputes += 1;
            // The build snapshots live sim state; flush first so the
            // pending deltas are not applied to it again later.
            self.flush_pending();
            let start = self.phi_rows.len();
            self.phi_row[slot] = (start / stride) as u32;
            let mut rows = std::mem::take(&mut self.phi_rows);
            rows.resize(start + stride, [0; 3]);
            self.build_phi_rows(c, &mut rows[start..]);
            self.phi_rows = rows;
        } else {
            self.stats.phi_cache_hits += 1;
        }
        let start = self.phi_row[slot] as usize * stride;
        self.eval_phi(&self.phi_rows[start..start + stride], c, t, grand_value)
    }

    /// Builds the doubled φ polynomial of `c` over its non-empty proper
    /// tracked subsets into a zeroed `H/G` block:
    ///
    /// For every proper subset `S ⊂ C` and every member `u`:
    ///   `u ∈ S: φ_u += (|S|−1)! (|C|−|S|)! v(S)`  (the `+v(S'∪u)` term)
    ///   `u ∉ S: φ_u −= |S|! (|C|−|S|−1)! v(S)`    (the `−v(S)` term)
    ///
    /// stored as `G += |S|!(|C|−|S|−1)! v(S)` and, for `u ∈ S`,
    /// `H_u += |C|·(|S|−1)!(|C|−|S|−1)! v(S)` (see [`Self::push_delta`]),
    /// applied to the subset *value polynomials*, so one build serves every
    /// later `t` until a subset changes.
    fn build_phi_rows(&self, c: Coalition, block: &mut [[i128; 3]]) {
        let size = c.len();
        for s in c.subsets() {
            if s.is_empty() || s == c {
                continue; // v(∅) = 0; the S = C term is added at eval time.
            }
            let rank =
                self.index.get(s.bits()).expect("coalition not tracked by this lattice");
            let poly = self.sims[rank].doubled_poly();
            if poly == (0, 0, 0) {
                continue;
            }
            let (g, h) = self.hg_weights(s.len(), size);
            add_row(&mut block[self.n_orgs], scaled(g, poly));
            let h = scaled(h, poly);
            for p in s.members() {
                add_row(&mut block[p.0], h);
            }
        }
    }

    /// Evaluates an `H/G` φ block at `t` and adds the `S = C` self term:
    /// `(|C|−1)! · v(C, t)` for every member, with `v(C, t)` taken from
    /// `grand_value` or from `c`'s own sim. All sums are doubled integers;
    /// the final halving is exact.
    fn eval_phi(
        &self,
        block: &[[i128; 3]],
        c: Coalition,
        t: Time,
        grand_value: Option<Util>,
    ) -> Vec<i128> {
        let size = c.len();
        let tt = t as i128;
        let own_doubled = match grand_value {
            Some(g) => 2 * g,
            None => {
                let rank = self
                    .index
                    .get(c.bits())
                    .expect("coalition not tracked by this lattice");
                let (a, b, d) = self.sims[rank].doubled_poly();
                eval_row([a, b, d], tt)
            }
        };
        let w_self = self.fact[size - 1] * own_doubled;
        let shared = eval_row(block[self.n_orgs], tt);
        let mut phi = vec![0i128; self.n_orgs];
        for p in c.members() {
            phi[p.0] = (eval_row(block[p.0], tt) - shared + w_self) / 2;
        }
        phi
    }

    /// The per-organization utilities inside a tracked coalition's
    /// hypothetical schedule at `t` (dense, non-members 0).
    pub fn org_values_of(&self, c: Coalition, t: Time) -> Vec<Util> {
        let i = self.index.get(c.bits()).expect("coalition not tracked by this lattice");
        (0..self.n_orgs).map(|u| self.sims[i].org_value_at(OrgId(u as u32), t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::sp_value;

    fn players(ids: &[usize]) -> Coalition {
        ids.iter().map(|&i| Player(i)).collect()
    }

    /// The pre-fast-path from-scratch Shapley sum, as an oracle: iterates
    /// every subset and weights the *values at `t`* directly.
    fn shapley_oracle(
        l: &CoalitionLattice,
        c: Coalition,
        t: Time,
        grand_value: Option<Util>,
    ) -> Vec<i128> {
        let n_orgs = l.n_orgs;
        let size = c.len();
        let fact: Vec<i128> = (0..=n_orgs).map(|i| factorial(i) as i128).collect();
        let mut phi = vec![0i128; n_orgs];
        for s in c.subsets() {
            if s.is_empty() {
                continue;
            }
            let v = if s == c {
                match grand_value {
                    Some(g) => g,
                    None => l.value_of(s, t),
                }
            } else {
                l.value_of(s, t)
            };
            if v == 0 {
                continue;
            }
            let s_len = s.len();
            let w_in = fact[s_len - 1] * fact[size - s_len];
            for p in s.members() {
                phi[p.0] += w_in * v;
            }
            if s_len < size {
                let w_out = fact[s_len] * fact[size - s_len - 1];
                for p in c.difference(s).members() {
                    phi[p.0] -= w_out * v;
                }
            }
        }
        phi
    }

    #[test]
    fn full_proper_counts() {
        let l = CoalitionLattice::full_proper(&[1, 1, 1]).unwrap();
        // Non-empty proper subsets of a 3-set: 2^3 - 2 = 6.
        assert_eq!(l.n_coalitions(), 6);
    }

    #[test]
    fn singleton_schedules_fifo() {
        let mut l = CoalitionLattice::full_proper(&[1, 2]).unwrap();
        // Org 0 releases two unit jobs at t=0.
        l.release(0, OrgId(0), 1);
        l.release(0, OrgId(0), 1);
        l.settle(0);
        let c0 = players(&[0]);
        assert_eq!(l.value_of(c0, 0), 0);
        // At t=2: first job (started 0, p=1) worth 2; second (started 1) worth 1.
        l.settle(2);
        assert_eq!(l.value_of(c0, 2), sp_value(0, 1, 2) + sp_value(1, 1, 2));
        assert_eq!(l.value_of(c0, 2), 3);
    }

    #[test]
    fn coalition_pools_machines() {
        // Org 0: 1 machine, 2 simultaneous unit jobs; org 1: 1 machine, no
        // jobs. In {0}: serial. In {0,1}: parallel... but {0,1} is the grand
        // coalition, not tracked by full_proper. Use an explicit lattice.
        let both = players(&[0, 1]);
        let mut l = CoalitionLattice::with_coalitions(
            &[1, 1],
            &[players(&[0]), players(&[1]), both],
            Policy::Fair,
        );
        l.release(0, OrgId(0), 1);
        l.release(0, OrgId(0), 1);
        l.settle(2);
        assert_eq!(l.value_of(players(&[0]), 2), 3); // serial: 2 + 1
        assert_eq!(l.value_of(both, 2), 4); // parallel: 2 + 2
        assert_eq!(l.value_of(players(&[1]), 2), 0);
    }

    #[test]
    fn proposition_5_5_values() {
        // The supermodularity counterexample: orgs a, b with 2 unit jobs
        // each at t=0, org c jobless; 1 machine each. Values at t=2.
        let mut l = CoalitionLattice::full_proper(&[1, 1, 1]).unwrap();
        for _ in 0..2 {
            l.release(0, OrgId(0), 1);
            l.release(0, OrgId(1), 1);
        }
        l.settle(2);
        assert_eq!(l.value_of(players(&[0, 2]), 2), 4);
        assert_eq!(l.value_of(players(&[1, 2]), 2), 4);
        assert_eq!(l.value_of(players(&[2]), 2), 0);
        assert_eq!(l.value_of(players(&[0, 1]), 2), 6);
    }

    #[test]
    fn shapley_of_symmetric_coalition_splits_evenly() {
        // Two identical orgs: each 1 machine, one unit job at t=0.
        let both = players(&[0, 1]);
        let mut l = CoalitionLattice::with_coalitions(
            &[1, 1],
            &[players(&[0]), players(&[1]), both],
            Policy::Fair,
        );
        l.release(0, OrgId(0), 1);
        l.release(0, OrgId(1), 1);
        l.settle(5);
        let phi = l.shapley_for(both, 5, None);
        assert_eq!(phi[0], phi[1]);
        // Efficiency: Σ φ_scaled = v(C) · |C|!.
        let v = l.value_of(both, 5);
        assert_eq!(phi[0] + phi[1], v * 2);
    }

    #[test]
    fn shapley_dummy_org_gets_zero_when_it_adds_nothing() {
        // Org 1 has no machines and no jobs: v(S∪{1}) = v(S) for all S.
        let both = players(&[0, 1]);
        let mut l = CoalitionLattice::with_coalitions(
            &[1, 0],
            &[players(&[0]), players(&[1]), both],
            Policy::Fair,
        );
        l.release(0, OrgId(0), 2);
        l.settle(4);
        let phi = l.shapley_for(both, 4, None);
        assert_eq!(phi[1], 0);
        assert_eq!(phi[0], l.value_of(both, 4) * 2);
    }

    #[test]
    fn jobless_machine_owner_earns_contribution() {
        // Org 1 contributes a machine but no jobs; org 0 has two unit jobs.
        // v({0}) = 3 (serial), v({1}) = 0, v({0,1}) = 4 (parallel) at t=2.
        // φ_scaled(1) = Σ orderings marginal: orderings (0,1): v({0,1})−v({0}) = 1;
        // (1,0): v({1}) − 0 = 0 → φ(1) = (1+0) = 1 (scaled by 2!: 1·1! + ... )
        let both = players(&[0, 1]);
        let mut l = CoalitionLattice::with_coalitions(
            &[1, 1],
            &[players(&[0]), players(&[1]), both],
            Policy::Fair,
        );
        l.release(0, OrgId(0), 1);
        l.release(0, OrgId(0), 1);
        l.settle(2);
        let phi = l.shapley_for(both, 2, None);
        // φ(1)·2! = 1!(v({0,1})−v({0})) + 1!(v({1})−v(∅)) = (4−3) + 0 = 1.
        assert_eq!(phi[1], 1);
        assert_eq!(phi[0], 3 + 4); // 1!(v({0})−0) + 1!(v({0,1})−v({1})) = 3 + 4
    }

    #[test]
    fn fifo_policy_orders_by_release() {
        let c = players(&[0, 1]);
        let mut l = CoalitionLattice::with_coalitions(&[1, 0], &[c], Policy::Fifo);
        // One machine total. Org 1 releases earlier.
        l.release(0, OrgId(1), 3);
        l.release(1, OrgId(0), 3);
        l.settle(10);
        // Org 1's job runs 0..3, org 0's 3..6.
        assert_eq!(l.org_values_of(c, 10)[1], sp_value(0, 3, 10));
        assert_eq!(l.org_values_of(c, 10)[0], sp_value(3, 3, 10));
    }

    #[test]
    fn lazy_advance_processes_intermediate_events() {
        let c = players(&[0]);
        let mut l = CoalitionLattice::with_coalitions(&[1], &[c], Policy::Fifo);
        // Three sequential jobs released at 0; settle only at the end.
        for _ in 0..3 {
            l.release(0, OrgId(0), 2);
        }
        l.settle(100);
        // They must have run back-to-back: starts 0, 2, 4.
        let expected = sp_value(0, 2, 100) + sp_value(2, 2, 100) + sp_value(4, 2, 100);
        assert_eq!(l.value_of(c, 100), expected);
    }

    #[test]
    fn release_after_idle_starts_immediately() {
        let c = players(&[0]);
        let mut l = CoalitionLattice::with_coalitions(&[1], &[c], Policy::Fifo);
        l.release(5, OrgId(0), 1);
        l.settle(10);
        assert_eq!(l.value_of(c, 10), sp_value(5, 1, 10));
    }

    #[test]
    #[should_panic(expected = "subset-closed")]
    fn fair_policy_requires_subset_closure() {
        let _ =
            CoalitionLattice::with_coalitions(&[1, 1], &[players(&[0, 1])], Policy::Fair);
    }

    #[test]
    fn shapley_efficiency_on_lattice() {
        // Random-ish 3-org setup; check Σφ = v(C)·|C|! for the tracked
        // 2-coalitions.
        let mut l = CoalitionLattice::full_proper(&[2, 1, 1]).unwrap();
        l.release(0, OrgId(0), 3);
        l.release(1, OrgId(1), 2);
        l.release(1, OrgId(2), 4);
        l.release(2, OrgId(0), 1);
        l.settle(20);
        for ids in [[0usize, 1], [0, 2], [1, 2]] {
            let c = players(&ids);
            let phi = l.shapley_for(c, 20, None);
            let total: i128 = phi.iter().sum();
            assert_eq!(total, l.value_of(c, 20) * 2, "efficiency failed for {c:?}");
        }
    }

    #[test]
    fn cached_phi_matches_oracle_across_event_interleavings() {
        // Drive a full 4-org lattice through an irregular event sequence,
        // querying φ at every step; the cached polynomial must equal the
        // from-scratch oracle every time (including pure time passage with
        // no new events, where the cache is served verbatim).
        let mut l = CoalitionLattice::full_proper(&[1, 2, 1, 1]).unwrap();
        let grand = Coalition::grand(4);
        let script: &[(Time, u32, Time)] = &[
            (0, 0, 3),
            (0, 1, 1),
            (1, 2, 5),
            (1, 0, 2),
            (4, 3, 1),
            (4, 1, 4),
            (9, 0, 1),
            (15, 2, 2),
        ];
        let check_at = |l: &mut CoalitionLattice, t: Time| {
            l.settle(t);
            for c in grand.proper_subsets() {
                if c.is_empty() {
                    continue;
                }
                let fast = l.shapley_for(c, t, None);
                let oracle = shapley_oracle(l, c, t, None);
                assert_eq!(fast, oracle, "φ mismatch for {c:?} at t={t}");
            }
            // The grand coalition with an external value (REF's usage).
            let fast = l.shapley_for(grand, t, Some(1234));
            let oracle = shapley_oracle(l, grand, t, Some(1234));
            assert_eq!(fast, oracle, "grand φ mismatch at t={t}");
        };
        for &(t, org, proc) in script {
            l.release(t, OrgId(org), proc);
            check_at(&mut l, t);
            check_at(&mut l, t + 1); // time passes, no new events
        }
        check_at(&mut l, 40);
        check_at(&mut l, 41);
        let stats = l.stats();
        assert!(stats.phi_cache_hits > 0, "no cache hits: {stats:?}");
        assert!(stats.phi_recomputes > 0, "no recomputes: {stats:?}");
    }

    proptest::proptest! {
        /// Incremental φ (polynomial caches built once, then kept exact by
        /// delta pushes) equals a from-scratch recomputation over *random*
        /// traces and event orders, at release times, at completion-driven
        /// in-between times, and after long idle gaps.
        #[test]
        fn prop_incremental_phi_matches_oracle(
            events in proptest::collection::vec((0u64..15, 0u32..4, 1u64..7), 1..20),
            probe_orgs in proptest::collection::vec(0u32..4, 3),
            extra in 1u64..25,
        ) {
            let mut l = CoalitionLattice::full_proper(&[1, 2, 1, 1]).unwrap();
            let grand = Coalition::grand(4);
            let mut t = 0;
            for (i, &(dt, org, proc)) in events.iter().enumerate() {
                t += dt; // releases arrive in non-decreasing time order
                l.release(t, OrgId(org), proc);
                l.settle(t);
                // Probe a rotating subset of coalitions (so some caches sit
                // unread while many pushes land between probes).
                let probe = Coalition::singleton(Player(
                    probe_orgs[i % probe_orgs.len()] as usize,
                ))
                .insert(Player((org as usize + 1) % 4))
                .insert(Player(org as usize));
                let fast = l.shapley_for(probe, t, None);
                let oracle = shapley_oracle(&l, probe, t, None);
                proptest::prop_assert_eq!(fast, oracle);
            }
            // Drain everything, then check every proper coalition and the
            // grand coalition (REF's external-value form).
            let end = t + extra;
            l.settle(end);
            for c in grand.proper_subsets() {
                if c.is_empty() {
                    continue;
                }
                let fast = l.shapley_for(c, end, None);
                let oracle = shapley_oracle(&l, c, end, None);
                proptest::prop_assert_eq!(fast, oracle);
            }
            let fast = l.shapley_for(grand, end, Some(777));
            let oracle = shapley_oracle(&l, grand, end, Some(777));
            proptest::prop_assert_eq!(fast, oracle);
        }

        /// The cache invariant on a full k = 5 lattice under long event
        /// scripts: every cache is built at most once (at most `2^k − 1`
        /// builds: the proper coalitions and the universe), none is ever
        /// evicted, and every cached φ equals the oracle at every probe —
        /// including caches that absorbed many pushes since their last
        /// read.
        #[test]
        fn prop_phi_caches_are_built_once_and_stay_exact(
            events in proptest::collection::vec((0u64..6, 0u32..5, 1u64..9), 20..60),
            probes in proptest::collection::vec(1u64..31, 1..6),
            extra in 1u64..40,
        ) {
            let mut l = CoalitionLattice::full_proper(&[1, 2, 1, 1, 2]).unwrap();
            let grand = Coalition::grand(5);
            let mut t = 0;
            for (i, &(dt, org, proc)) in events.iter().enumerate() {
                t += dt;
                l.release(t, OrgId(org), proc);
                l.settle(t);
                let probe = Coalition::from_bits(probes[i % probes.len()])
                    .insert(Player(org as usize));
                let probe = if probe == grand { probe.remove(Player(0)) } else { probe };
                let fast = l.shapley_for(probe, t, None);
                proptest::prop_assert_eq!(fast, shapley_oracle(&l, probe, t, None));
                let value = t as Util * 3;
                let fast = l.shapley_for(grand, t, Some(value));
                proptest::prop_assert_eq!(fast, shapley_oracle(&l, grand, t, Some(value)));
            }
            let end = t + extra;
            l.settle(end);
            for c in grand.proper_subsets() {
                if c.is_empty() {
                    continue;
                }
                let fast = l.shapley_for(c, end, None);
                proptest::prop_assert_eq!(fast, shapley_oracle(&l, c, end, None));
            }
            let fast = l.shapley_for(grand, end, Some(4321));
            proptest::prop_assert_eq!(fast, shapley_oracle(&l, grand, end, Some(4321)));
            let stats = l.stats();
            // At most 2^k − 1 builds: one per proper coalition plus the universe.
            proptest::prop_assert!(stats.phi_recomputes < 1 << 5, "{:?}", stats);
            proptest::prop_assert_eq!(stats.phi_evictions, 0);
        }
    }

    #[test]
    fn settled_lattice_serves_phi_from_cache() {
        let mut l = CoalitionLattice::full_proper(&[1, 1, 1]).unwrap();
        l.release(0, OrgId(0), 2);
        l.release(0, OrgId(1), 1);
        l.settle(10); // everything completed well before 10
        let c = players(&[0, 1]);
        let first = l.shapley_for(c, 10, None);
        let before = l.stats();
        // Pure time passage: the queue is empty and no completions are
        // pending, so later reads must be pure cache hits.
        for t in 11..20 {
            l.settle(t);
            let phi = l.shapley_for(c, t, None);
            assert_eq!(phi, shapley_oracle(&l, c, t, None));
        }
        let after = l.stats();
        assert_eq!(
            after.phi_recomputes, before.phi_recomputes,
            "settled sims must not trigger φ rebuilds"
        );
        assert!(after.phi_cache_hits >= before.phi_cache_hits + 9);
        assert!(!first.is_empty());
    }

    #[test]
    fn sparse_index_fallback_beyond_dense_limit() {
        // 24 orgs forces the HashMap index; track a tiny Fifo lattice.
        let machines = vec![1usize; 24];
        let c = players(&[0, 23]);
        let mut l = CoalitionLattice::with_coalitions(
            &machines,
            &[c, players(&[0]), players(&[23])],
            Policy::Fifo,
        );
        assert!(matches!(l.index, CoalitionIndex::Sparse(_)));
        l.release(0, OrgId(23), 2);
        l.settle(5);
        assert_eq!(l.value_of(c, 5), sp_value(0, 2, 5));
        assert_eq!(l.value_of(players(&[23]), 5), sp_value(0, 2, 5));
        assert_eq!(l.value_of(players(&[0]), 5), 0);
    }

    #[test]
    fn stats_track_release_fanout_and_rounds() {
        let mut l = CoalitionLattice::full_proper(&[1, 1, 1]).unwrap();
        l.release(0, OrgId(0), 1);
        // Org 0 appears in 3 of the 6 proper subcoalitions: {0}, {0,1}, {0,2}.
        assert_eq!(l.stats().releases, 3);
        l.settle(0);
        assert!(l.stats().sim_starts >= 3);
        assert!(l.stats().rounds >= 1);
        assert_eq!(l.stats().settles, 1);
    }
}

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
//! 3. **Shapley through the potential.** `shapley_for(C)` reads one
//!    row per coalition, via the Hart–Mas-Colell potential `P`
//!    (`φ_u(C) = P(C) − P(C ∖ u)`). Every `Policy::Fair` coalition `X`
//!    (and the universe, tracked or not) owns one doubled
//!    `[quad, lin, cons]` row
//!    `D_X = Σ_{∅≠S⊊X} (|S|−1)!(|X|−|S|)!·2v(S)` over its proper
//!    subsets' value polynomials, so all arithmetic stays in exact
//!    integers. With `A_X = D_X + (|X|−1)!·2v(X)` (and `A_∅ = 0`), a
//!    read is `2·|C|!·φ_u = A_C − |C|·A_{C∖u}`: `|C| + 1` row
//!    evaluations and `|C|` value polynomials, since subset closure
//!    tracks every `C ∖ u`. Every sim starts with a zero polynomial, so
//!    all-zero rows are exact at construction: there is no build step.
//!    Whenever a sim `S` starts or completes a job, its value-polynomial
//!    delta `Δ` is pushed into every superset row
//!    ([`Coalition::supersets_within`]) as `(|S|−1)!(|X|−|S|)!·Δ` — one
//!    row addition per superset, with the weight computed once per
//!    superset size. Settled sims — empty queues, no pending
//!    completions — emit no deltas and therefore cost nothing, at any
//!    lattice size. Deltas are exact integers and addition commutes, so
//!    φ is bit-for-bit the from-scratch value; a start/completion delta
//!    also evaluates to 0 at its own event time, which keeps φ vectors
//!    read earlier in the same round exact. Only `Policy::Fair`
//!    lattices allocate rows (`n_sims + 1` of them) and push deltas.
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
//! [`CoalitionLattice::stats`] exposes counters (settles, rounds, φ reads,
//! row updates, …) that the `bench_baseline` harness records into
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
use std::collections::{BinaryHeap, VecDeque};

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
        #[expect(
            clippy::expect_used,
            reason = "callers start an org that the pick found with a head job"
        )]
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
    #[expect(
        clippy::expect_used,
        reason = "called only where `can_schedule` found an eligible member"
    )]
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
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookup only: the index is never iterated"
    )]
    Sparse(std::collections::HashMap<u64, u32>),
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

/// Adds a weighted `[quad, lin, cons]` delta to one potential row.
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
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
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
    /// φ reads served from the potential rows: every `Policy::Fair` read
    /// of a tracked coalition or of the universe.
    pub phi_cache_hits: u64,
    /// φ reads evaluated from scratch over `value_of` (`O(|C|·2^|C|)`):
    /// `Policy::Fifo` lattices and coalitions without a row. Always 0 on
    /// REF's lattice.
    pub phi_recomputes: u64,
    /// Potential rows updated by delta pushes: one per tracked superset
    /// of each changed sim.
    pub phi_deltas_applied: u64,
    /// Always 0: potential rows live as long as the lattice; kept for
    /// the benchmark harness until a `[benchmark]` PR retires it.
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
    /// Factorials `0..=n_orgs` (`Policy::Fair` only; empty otherwise).
    fact: Vec<i128>,
    /// The potential rows (`Policy::Fair` only; empty otherwise): per
    /// rank, the doubled `[quad, lin, cons]` row `D_X` over the non-empty
    /// **proper** subsets of the sim's coalition (see module docs), plus
    /// one last row for the universe when it is untracked. A coalition's
    /// own value term is added at read time, so REF's `grand_value`
    /// override needs no separate row. Exact from construction on.
    rows: Vec<[i128; 3]>,
    /// Per superset size, the weighted delta of the push in progress
    /// (scratch for [`Self::push_delta`]).
    push_rows: Vec<[i128; 3]>,
    /// Sims with a not-yet-pushed net value delta this round (ranks), the
    /// per-sim accumulated deltas, and the membership marks. Deltas within
    /// one time moment are additive and all evaluate to 0 at that moment,
    /// so one merged superset walk per changed sim per round suffices;
    /// flushed at the end of each processed time.
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
    /// policy. For [`Policy::Fair`] the set must be subset-closed (checked)
    /// and span at most 34 organizations (the exact factorial range).
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
        let fair = policy == Policy::Fair;
        let fact = if fair {
            (0..=n_orgs).map(|i| factorial(i) as i128).collect()
        } else {
            Vec::new()
        };
        let n_rows = if fair { sims.len() + 1 } else { 0 };
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
            rows: vec![[0; 3]; n_rows],
            push_rows: vec![[0; 3]; n_orgs + 1],
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
    /// at `t`, then flushes the accumulated per-sim deltas into the
    /// potential rows (one merged superset walk per changed sim).
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

    /// Pushes every accumulated delta into the potential rows and clears
    /// the pending set; runs at the end of every processed time.
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

    /// Pushes one sim's doubled-value-polynomial delta into the potential
    /// row of every strict superset `X`, weighted `(|S|−1)!(|X|−|S|)!` as
    /// in `D_X`. The weight depends only on `|X|`, so it is applied once
    /// per superset size and each superset costs one row addition.
    fn push_delta(&mut self, bits: u64, delta: (Util, Util, Util)) {
        let sub = Coalition::from_bits(bits);
        let len = sub.len();
        for size in len + 1..=self.n_orgs {
            self.push_rows[size] =
                scaled(self.fact[len - 1] * self.fact[size - len], delta);
        }
        let mut applied = 0u64;
        for sup in sub.supersets_within(Coalition::from_bits(self.universe)) {
            if sup.bits() == bits {
                continue; // a coalition's own value is added at read time
            }
            let Some(slot) = self.row_slot(sup.bits()) else { continue };
            add_row(&mut self.rows[slot], self.push_rows[sup.len()]);
            applied += 1;
        }
        self.stats.phi_deltas_applied += applied;
    }

    /// The potential row of a coalition: its rank, or the extra last row
    /// for the untracked universe.
    #[inline]
    fn row_slot(&self, bits: u64) -> Option<usize> {
        match self.index.get(bits) {
            Some(rank) => Some(rank),
            None if bits == self.universe => Some(self.sims.len()),
            None => None,
        }
    }

    /// Runs the scheduling round at `t` over all sims (size order). Each
    /// sim's start deltas are pushed to the potential rows once per round (they
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
                            #[expect(
                                clippy::expect_used,
                                reason = "`can_schedule` holds, so some candidate is eligible"
                            )]
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

    /// The rank of a tracked coalition.
    ///
    /// # Panics
    /// Panics if `c` is untracked.
    #[expect(
        clippy::expect_used,
        reason = "documented panic: every caller passes a coalition of this lattice"
    )]
    fn rank(&self, c: Coalition) -> usize {
        self.index.get(c.bits()).expect("coalition not tracked by this lattice")
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
        self.sims[self.rank(c)].value_at(t)
    }

    /// Exact Shapley contributions `φ_u · |C|!` for the members of `c` at
    /// time `t`, computed from the tracked subcoalition values. If
    /// `grand_value` is `Some(v)`, the value of `c` itself is taken to be
    /// `v` (REF passes the real schedule's value here); otherwise `c` must
    /// be tracked.
    ///
    /// On a `Policy::Fair` lattice, a tracked `c` or the universe is read
    /// from the potential rows in `O(|C|)`; anything else is evaluated
    /// from scratch over `value_of` in `O(|C|·2^|C|)`.
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
        let own = 2 * grand_value.unwrap_or_else(|| self.value_of(c, t));
        let slot = match self.policy {
            Policy::Fair => self.row_slot(c.bits()),
            Policy::Fifo => None,
        };
        let Some(slot) = slot else {
            self.stats.phi_recomputes += 1;
            let fact: Vec<i128> = (0..=c.len()).map(|i| factorial(i) as i128).collect();
            let potential = |x: Coalition, own: i128| -> i128 {
                let proper: i128 = x
                    .subsets()
                    .filter(|&sub| !sub.is_empty() && sub != x)
                    .map(|sub| {
                        fact[sub.len() - 1]
                            * fact[x.len() - sub.len()]
                            * 2
                            * self.value_of(sub, t)
                    })
                    .sum();
                proper + fact[x.len() - 1] * own
            };
            return self.phi_from_potentials(c, potential(c, own), |x| {
                potential(x, 2 * self.value_of(x, t))
            });
        };
        self.stats.phi_cache_hits += 1;
        let tt = t as i128;
        let a_c = eval_row(self.rows[slot], tt) + self.fact[c.len() - 1] * own;
        self.phi_from_potentials(c, a_c, |x| {
            // Subset closure (asserted at construction) tracks every
            // C ∖ u of a tracked C, and of the universe on REF's lattice.
            let rank = self.rank(x);
            eval_row(self.rows[rank], tt)
                + self.fact[x.len() - 1] * 2 * self.sims[rank].value_at(t)
        })
    }

    /// `φ_u·|C|! = (A_C − |C|·A_{C∖u}) / 2` for every member `u`, given
    /// `A_C` and the doubled potential `A_X` of a non-empty proper subset
    /// (`A_∅ = 0`). All potentials are even, so the halving is exact.
    fn phi_from_potentials(
        &self,
        c: Coalition,
        a_c: i128,
        potential: impl Fn(Coalition) -> i128,
    ) -> Vec<i128> {
        let size = c.len() as i128;
        let mut phi = vec![0i128; self.n_orgs];
        for u in c.members() {
            let rest = c.remove(u);
            let a_rest = if rest.is_empty() { 0 } else { potential(rest) };
            phi[u.0] = (a_c - size * a_rest) / 2;
        }
        phi
    }

    /// The per-organization utilities inside a tracked coalition's
    /// hypothetical schedule at `t` (dense, non-members 0).
    pub fn org_values_of(&self, c: Coalition, t: Time) -> Vec<Util> {
        let i = self.rank(c);
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
        // querying φ at every step; the potential rows must give the
        // from-scratch oracle every time (including pure time passage with
        // no new events, where the rows are read verbatim).
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
        assert_eq!(stats.phi_recomputes, 0, "a Fair read built φ: {stats:?}");
    }

    proptest::proptest! {
        /// Incremental φ (potential rows kept exact by delta pushes from
        /// t = 0) equals a from-scratch recomputation over *random*
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

        /// The row invariant on a full k = 5 lattice under long event
        /// scripts: no φ is ever built or evicted, and every φ equals the
        /// oracle at every probe — including rows that absorbed many
        /// pushes since their last read.
        #[test]
        fn prop_potential_rows_need_no_builds_and_stay_exact(
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
            proptest::prop_assert_eq!(stats.phi_recomputes, 0, "{:?}", stats);
            proptest::prop_assert_eq!(stats.phi_evictions, 0);
        }

        /// The subset-SUM reduction's configuration: every non-empty
        /// coalition is tracked, so the universe is a rank of its own.
        /// Its φ, with and without an external value, and every other
        /// coalition's φ equal the oracle.
        #[test]
        fn prop_every_coalition_lattice_matches_oracle(
            events in proptest::collection::vec((0u64..5, 0u32..4, 1u64..6), 1..25),
            extra in 0u64..20,
            external in 0i64..500,
        ) {
            let machines = [1, 1, 2, 1];
            let all: Vec<Coalition> = (1u64..16).map(Coalition::from_bits).collect();
            let mut l = CoalitionLattice::with_coalitions(&machines, &all, Policy::Fair);
            let grand = Coalition::grand(4);
            let mut t = 0;
            for &(dt, org, proc) in &events {
                t += dt;
                l.release(t, OrgId(org), proc);
                l.settle(t);
                let fast = l.shapley_for(grand, t, None);
                proptest::prop_assert_eq!(fast, shapley_oracle(&l, grand, t, None));
            }
            let end = t + extra;
            l.settle(end);
            for &c in &all {
                let fast = l.shapley_for(c, end, None);
                proptest::prop_assert_eq!(fast, shapley_oracle(&l, c, end, None));
            }
            let external = Some(Util::from(external));
            let fast = l.shapley_for(grand, end, external);
            proptest::prop_assert_eq!(fast, shapley_oracle(&l, grand, end, external));
            proptest::prop_assert_eq!(l.stats().phi_recomputes, 0);
        }
    }

    #[test]
    fn push_adds_one_row_per_tracked_superset() {
        // One job of org 0 starts in each of the 7 proper coalitions
        // containing 0; each pushes into its strict supersets, all of
        // which have a row (the universe's is the extra one):
        // 1·7 (size 1) + 3·3 (size 2) + 3·1 (size 3) = 19.
        let mut l = CoalitionLattice::full_proper(&[1, 1, 1, 1]).unwrap();
        l.release(0, OrgId(0), 1);
        l.settle(0);
        assert_eq!(l.stats().phi_deltas_applied, 19);
        l.settle(1); // the 7 completions push the same 19 rows again
        assert_eq!(l.stats().phi_deltas_applied, 38);
    }

    #[test]
    fn fifo_lattice_evaluates_phi_from_scratch() {
        let all: Vec<Coalition> = (1u64..8).map(Coalition::from_bits).collect();
        let mut l = CoalitionLattice::with_coalitions(&[1, 2, 1], &all, Policy::Fifo);
        l.release(0, OrgId(0), 3);
        l.release(0, OrgId(0), 1);
        l.release(1, OrgId(2), 2);
        l.settle(6);
        for &c in &all {
            assert_eq!(l.shapley_for(c, 6, None), shapley_oracle(&l, c, 6, None));
        }
        let grand = Coalition::grand(3);
        assert_eq!(
            l.shapley_for(grand, 6, Some(99)),
            shapley_oracle(&l, grand, 6, Some(99))
        );
        assert_eq!(l.stats().phi_recomputes, 8);
        assert_eq!(l.stats().phi_cache_hits, 0);
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
        assert_eq!(after.phi_recomputes, 0, "a Fair read built φ");
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

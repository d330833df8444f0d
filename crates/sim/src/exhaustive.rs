//! Exhaustive search over greedy schedules for tiny instances.
//!
//! Theorem 6.2 states every greedy algorithm is 3/4-competitive for
//! resource utilization. To validate the bound experimentally we need the
//! best achievable utilization; this module enumerates **all** greedy
//! schedules of a small instance (branching over which organization's
//! FIFO-head job each freed machine takes) and reports the maximum and
//! minimum completed units by a horizon. Any greedy schedule is feasible,
//! so `max` lower-bounds the true optimum, while Theorem 6.2 promises every
//! individual greedy schedule — including the minimum — stays within the
//! 3/4 factor of the optimum. The Figure 7 family, where the optimum is
//! known analytically, shows the bound is tight.

use fairsched_core::model::{Time, Trace};
use fairsched_core::OrgId;

/// Result of exhaustive greedy enumeration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GreedyEnvelope {
    /// Maximum completed units by the horizon over all greedy schedules.
    pub max_units: Time,
    /// Minimum completed units by the horizon over all greedy schedules.
    pub min_units: Time,
    /// Number of terminal decision paths explored.
    pub paths: u64,
}

struct Dfs {
    /// Per-org FIFO job lists: (release, proc).
    queues: Vec<Vec<(Time, Time)>>,
    horizon: Time,
    m: usize,
    max_units: Time,
    min_units: Time,
    paths: u64,
}

impl Dfs {
    fn go(&mut self, next: &mut [usize], busy: &[Time], t: Time, units: Time) {
        assert!(
            self.paths < 20_000_000,
            "instance too large for exhaustive greedy search"
        );
        if t > self.horizon {
            self.finish(units);
            return;
        }
        // Organizations whose FIFO-head job is released by t.
        let eligible: Vec<usize> = (0..self.queues.len())
            .filter(|&u| next[u] < self.queues[u].len() && self.queues[u][next[u]].0 <= t)
            .collect();
        if busy.len() < self.m && !eligible.is_empty() {
            // Greedy: something must start *now*; branch over organizations
            // (machines are identical, so which machine is irrelevant).
            for &u in &eligible {
                let (_, p) = self.queues[u][next[u]];
                next[u] += 1;
                let mut busy2 = busy.to_vec();
                busy2.push(t + p);
                let gained = p.min(self.horizon - t);
                self.go(next, &busy2, t, units + gained);
                next[u] -= 1;
            }
            return;
        }
        // Advance to the next event: earliest completion or future release.
        let next_completion = busy.iter().copied().min();
        let next_release = (0..self.queues.len())
            .filter_map(|u| self.queues[u].get(next[u]).map(|&(r, _)| r))
            .filter(|&r| r > t)
            .min();
        let t2 = match (next_completion, next_release) {
            (None, None) => {
                self.finish(units);
                return;
            }
            (Some(c), None) => c,
            (None, Some(r)) => r,
            (Some(c), Some(r)) => c.min(r),
        };
        if t2 > self.horizon {
            self.finish(units);
            return;
        }
        let busy2: Vec<Time> = busy.iter().copied().filter(|&c| c > t2).collect();
        self.go(next, &busy2, t2, units);
    }

    fn finish(&mut self, units: Time) {
        self.paths += 1;
        self.max_units = self.max_units.max(units);
        self.min_units = self.min_units.min(units);
    }
}

/// Enumerates every greedy schedule of `trace` and returns the
/// completed-units envelope at `horizon`.
///
/// Exponential in the number of scheduling decisions — intended for
/// instances with at most ~12 jobs.
///
/// # Panics
/// Panics if the exploration exceeds 20 million paths (guard against
/// accidentally huge inputs).
pub fn greedy_envelope(trace: &Trace, horizon: Time) -> GreedyEnvelope {
    let info = trace.cluster_info();
    let queues: Vec<Vec<(Time, Time)>> = (0..trace.n_orgs())
        .map(|u| {
            trace.jobs_of(OrgId(u as u32)).map(|j| (j.release, j.proc_time)).collect()
        })
        .collect();
    let mut dfs = Dfs {
        queues,
        horizon,
        m: info.n_machines(),
        max_units: 0,
        min_units: Time::MAX,
        paths: 0,
    };
    let mut next = vec![0usize; trace.n_orgs()];
    dfs.go(&mut next, &[], 0, 0);
    GreedyEnvelope {
        max_units: dfs.max_units,
        min_units: if dfs.min_units == Time::MAX { 0 } else { dfs.min_units },
        paths: dfs.paths,
    }
}

/// The Figure 7 adversarial family, scaled by `p`: `2·m_half` short jobs of
/// size `p` and `m_half` long jobs of size `2p` on `2·m_half` machines,
/// all released at 0, evaluated at horizon `T = 2p`.
///
/// Starting the long jobs first keeps every machine busy through `[0, 2p)`
/// (100% utilization); starting all the short jobs first leaves `m_half`
/// machines idle during `[p, 2p)` after the longs take the other half —
/// exactly 75%, the tight bound of Theorem 6.2.
#[expect(
    clippy::expect_used,
    reason = "two declared organizations with positive-size jobs always build"
)]
pub fn figure7_family(m_half: usize, p: Time) -> (Trace, Time) {
    let mut b = Trace::builder();
    let o1 = b.org("short-org", m_half);
    let o2 = b.org("long-org", m_half);
    b.jobs(o1, 0, p, 2 * m_half);
    b.jobs(o2, 0, 2 * p, m_half);
    (b.build().expect("valid figure-7 instance"), 2 * p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_envelope_is_exactly_100_vs_75() {
        for (m_half, p) in [(2, 3), (2, 10), (3, 4)] {
            let (trace, t) = figure7_family(m_half, p);
            let env = greedy_envelope(&trace, t);
            let capacity = 2 * m_half as Time * t;
            assert_eq!(env.max_units, capacity, "best greedy achieves 100%");
            assert_eq!(
                env.min_units * 4,
                capacity * 3,
                "worst greedy achieves exactly 75%"
            );
            assert!(env.paths > 1);
        }
    }

    #[test]
    fn figure7_scales_with_p() {
        for p in [1, 2, 5] {
            let (trace, t) = figure7_family(1, p); // 2 machines
            let env = greedy_envelope(&trace, t);
            assert_eq!(env.max_units, 2 * t);
            assert_eq!(env.min_units * 4, 2 * t * 3);
        }
    }

    #[test]
    fn single_org_has_single_path_outcome() {
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        b.job(a, 0, 2).job(a, 0, 2);
        let trace = b.build().unwrap();
        let env = greedy_envelope(&trace, 10);
        assert_eq!(env.max_units, 4);
        assert_eq!(env.min_units, 4);
    }

    #[test]
    fn envelope_on_empty_trace() {
        let mut b = Trace::builder();
        b.org("a", 1);
        let trace = b.build().unwrap();
        let env = greedy_envelope(&trace, 10);
        assert_eq!(env.max_units, 0);
        assert_eq!(env.min_units, 0);
    }

    #[test]
    fn respects_release_times() {
        // One machine; job released at 5, nothing before: units = horizon-5.
        let mut b = Trace::builder();
        let a = b.org("a", 1);
        b.job(a, 5, 100);
        let trace = b.build().unwrap();
        let env = greedy_envelope(&trace, 8);
        assert_eq!(env.max_units, 3);
        assert_eq!(env.min_units, 3);
    }

    #[test]
    fn theorem_6_2_on_random_small_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for round in 0..40 {
            let mut b = Trace::builder();
            let o1 = b.org("a", rng.random_range(1..3));
            let o2 = b.org("b", 1);
            for _ in 0..rng.random_range(2..6) {
                b.job(o1, rng.random_range(0..4), rng.random_range(1..5));
            }
            for _ in 0..rng.random_range(1..4) {
                b.job(o2, rng.random_range(0..4), rng.random_range(1..7));
            }
            let trace = b.build().unwrap();
            let horizon = rng.random_range(4..15);
            let env = greedy_envelope(&trace, horizon);
            assert!(
                env.min_units * 4 >= env.max_units * 3,
                "Theorem 6.2 violated in round {round}: min {} < 3/4·max {}",
                env.min_units,
                env.max_units
            );
        }
    }
}

//! Turning per-user job streams into multi-organization traces.
//!
//! The paper: "To distribute the jobs between the organizations we
//! uniformly distributed the user identifiers between the organizations"
//! and "processors were assigned to organizations so that the counts
//! follow Zipf and (in different runs) uniform distributions".

use fairsched_core::model::{Time, Trace, TraceError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A job attributed to a user (before organization assignment).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct UserJob {
    /// User identifier (from the log or generator).
    pub user: u32,
    /// Release time.
    pub release: Time,
    /// Processing time.
    pub proc_time: Time,
}

/// How the machine pool is split between organizations.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum MachineSplit {
    /// Counts proportional to a Zipf law with the given exponent over the
    /// organization rank (org 1 largest). The paper's default setting.
    Zipf(f64),
    /// Counts drawn uniformly at random (normalized to the total).
    Uniform,
    /// As equal as possible.
    Equal,
}

/// Splits `total` machines among `k` organizations; every organization gets
/// at least one machine (required for shares to be meaningful) and the
/// counts sum to `total`.
///
/// # Panics
/// Panics if `total < k` or `k == 0`.
pub fn split_machines(
    total: usize,
    k: usize,
    split: MachineSplit,
    seed: u64,
) -> Vec<usize> {
    assert!(k > 0, "need at least one organization");
    assert!(total >= k, "need at least one machine per organization");
    let weights: Vec<f64> = match split {
        MachineSplit::Zipf(s) => (1..=k).map(|r| 1.0 / (r as f64).powf(s)).collect(),
        MachineSplit::Uniform => {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..k).map(|_| rng.random_range(0.2..1.0)).collect()
        }
        MachineSplit::Equal => vec![1.0; k],
    };
    largest_remainder(total, &weights, k)
}

/// Largest-remainder apportionment with a floor of 1 machine per org.
fn largest_remainder(total: usize, weights: &[f64], k: usize) -> Vec<usize> {
    let spare = total - k; // each org gets 1 up front
    let sum: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| w / sum * spare as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    let mut order: Vec<usize> = (0..k).collect();
    #[expect(
        clippy::unwrap_used,
        reason = "the splits in this module produce finite weights, whose remainders compare"
    )]
    order.sort_by(|&a, &b| {
        let ra = quotas[a] - quotas[a].floor();
        let rb = quotas[b] - quotas[b].floor();
        rb.partial_cmp(&ra).unwrap().then(a.cmp(&b))
    });
    for &i in order.iter().take(spare - assigned) {
        counts[i] += 1;
    }
    for c in &mut counts {
        *c += 1;
    }
    counts
}

/// The deterministic user → organization assignment used by [`to_trace`]:
/// distinct users are sorted, shuffled by `seed + 1`, and dealt round-robin
/// to the `k` organizations. Depends only on the user *set* (not job order
/// or multiplicity), which lets streaming ingestion reproduce the exact
/// mapping from a first pass over the log.
pub struct UserAssignment {
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookup only: the map is never iterated"
    )]
    user_org: std::collections::HashMap<u32, usize>,
}

impl UserAssignment {
    /// Builds the assignment from any collection of user ids (duplicates
    /// and ordering are irrelevant).
    pub fn new(mut users: Vec<u32>, k: usize, seed: u64) -> Self {
        assert!(k > 0, "need at least one organization");
        users.sort_unstable();
        users.dedup();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        users.shuffle(&mut rng);
        let user_org = users.iter().enumerate().map(|(i, &u)| (u, i % k)).collect();
        Self { user_org }
    }

    /// The organization index for `user`, or `None` if the user was not in
    /// the set the assignment was built from.
    pub fn org_of(&self, user: u32) -> Option<usize> {
        self.user_org.get(&user).copied()
    }
}

/// Builds a `k`-organization trace: users are shuffled (by `seed`) and
/// dealt round-robin to organizations; machines are split per `split`.
///
/// # Errors
/// Propagates trace validation errors (e.g. all machine counts zero).
pub fn to_trace(
    jobs: &[UserJob],
    k: usize,
    total_machines: usize,
    split: MachineSplit,
    seed: u64,
) -> Result<Trace, TraceError> {
    let machines = split_machines(total_machines, k, split, seed);
    let assignment = UserAssignment::new(jobs.iter().map(|j| j.user).collect(), k, seed);

    let mut b = Trace::builder();
    let orgs: Vec<_> =
        machines.iter().enumerate().map(|(i, &m)| b.org(format!("org{i}"), m)).collect();
    for j in jobs {
        #[expect(
            clippy::expect_used,
            reason = "the assignment was built from these jobs' users"
        )]
        let org = assignment.org_of(j.user).expect("user collected above");
        b.job(orgs[org], j.release, j.proc_time);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn equal_split_is_balanced() {
        assert_eq!(split_machines(10, 5, MachineSplit::Equal, 0), vec![2; 5]);
        let c = split_machines(11, 5, MachineSplit::Equal, 0);
        assert_eq!(c.iter().sum::<usize>(), 11);
        assert!(c.iter().all(|&x| x == 2 || x == 3));
    }

    #[test]
    fn zipf_split_is_skewed_and_exact() {
        let c = split_machines(70, 5, MachineSplit::Zipf(1.0), 0);
        assert_eq!(c.iter().sum::<usize>(), 70);
        assert!(c[0] > c[4], "Zipf must favor the first organization: {c:?}");
        assert!(c.iter().all(|&x| x >= 1));
    }

    #[test]
    fn uniform_split_deterministic_per_seed() {
        let a = split_machines(32, 4, MachineSplit::Uniform, 7);
        let b = split_machines(32, 4, MachineSplit::Uniform, 7);
        assert_eq!(a, b);
        assert_eq!(a.iter().sum::<usize>(), 32);
    }

    #[test]
    #[should_panic]
    fn split_rejects_too_few_machines() {
        let _ = split_machines(3, 5, MachineSplit::Equal, 0);
    }

    #[test]
    fn to_trace_assigns_all_jobs() {
        let jobs: Vec<UserJob> = (0..20)
            .map(|i| UserJob {
                user: i % 7,
                release: i as Time,
                proc_time: 1 + i as Time % 5,
            })
            .collect();
        let t = to_trace(&jobs, 3, 6, MachineSplit::Equal, 42).unwrap();
        assert_eq!(t.n_jobs(), 20);
        assert_eq!(t.n_orgs(), 3);
        assert_eq!(t.cluster_info().n_machines(), 6);
        t.validate().unwrap();
    }

    #[test]
    fn same_user_same_org() {
        let jobs: Vec<UserJob> = (0..30)
            .map(|i| UserJob { user: i % 3, release: i as Time, proc_time: 2 })
            .collect();
        let t = to_trace(&jobs, 2, 4, MachineSplit::Equal, 1).unwrap();
        // Jobs of the same user must land in one organization: at most 3
        // distinct (user -> org) pairs, so each org's job count is a
        // multiple of 10.
        for u in 0..2 {
            let n = t.jobs_of(fairsched_core::OrgId(u)).count();
            assert_eq!(n % 10, 0, "org {u} has {n} jobs");
        }
    }

    proptest! {
        #[test]
        fn prop_split_sums_and_floors(
            total in 5usize..200, k in 1usize..5, seed in 0u64..50
        ) {
            prop_assume!(total >= k);
            for split in [MachineSplit::Zipf(1.2), MachineSplit::Uniform, MachineSplit::Equal] {
                let c = split_machines(total, k, split, seed);
                prop_assert_eq!(c.iter().sum::<usize>(), total);
                prop_assert!(c.iter().all(|&x| x >= 1));
            }
        }
    }
}

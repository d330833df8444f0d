//! Seeded synthetic workload generation.
//!
//! The generator reproduces the statistical properties of HPC archive logs
//! that the paper's conclusions depend on:
//!
//! * **Zipf user activity** — a few heavy users dominate the log,
//! * **bursty sessions** — users submit jobs in consecutive blocks ("the
//!   users usually send their jobs in consecutive blocks", Section 7.2),
//! * **heavy-tailed durations** — lognormal processing times,
//! * **tunable load** — total submitted work is a target fraction of the
//!   machine-pool capacity over the horizon, which controls queueing and
//!   therefore how much a scheduler's fairness matters.

use crate::assign::UserJob;
use fairsched_core::model::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp, LogNormal};

/// Synthetic workload parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct SynthConfig {
    /// Number of distinct users.
    pub n_users: usize,
    /// Submit-time horizon; jobs are released in `[0, horizon)`.
    pub horizon: Time,
    /// Machines in the pool (only used to size the work budget).
    pub n_machines: usize,
    /// Target offered load: total work ≈ `load · n_machines · horizon`.
    pub load: f64,
    /// Median job duration (lognormal scale, in time units).
    pub duration_median: f64,
    /// Lognormal shape (σ of ln-duration); ≥ 1.0 gives heavy tails.
    pub duration_sigma: f64,
    /// Durations are clipped to `[1, max_duration]`.
    pub max_duration: Time,
    /// Zipf exponent of user activity weights.
    pub user_zipf: f64,
    /// Mean number of jobs per submission session.
    pub session_jobs: f64,
    /// Mean gap between consecutive submissions inside a session.
    pub intra_session_gap: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            n_users: 32,
            horizon: 50_000,
            n_machines: 16,
            load: 0.7,
            duration_median: 300.0,
            duration_sigma: 1.4,
            max_duration: 20_000,
            user_zipf: 1.2,
            session_jobs: 5.0,
            intra_session_gap: 30.0,
        }
    }
}

impl SynthConfig {
    /// A unit-size-job variant (for the FPRAS experiments of Section 5.1):
    /// every duration is exactly 1.
    pub fn unit_jobs(mut self) -> Self {
        self.duration_median = 1.0;
        self.duration_sigma = 0.0;
        self.max_duration = 1;
        self
    }
}

/// Generates a seeded synthetic per-user job stream.
///
/// Users receive Zipf activity weights; each user's work budget is its
/// share of `load · n_machines · horizon`. Jobs are emitted in sessions:
/// session start times are uniform over the horizon, within a session jobs
/// arrive with exponential gaps, and durations are lognormal (clipped).
/// Generation stops per user when its budget is exhausted.
pub fn generate(config: &SynthConfig, seed: u64) -> Vec<UserJob> {
    assert!(config.n_users > 0, "need at least one user");
    assert!(config.load > 0.0, "load must be positive");
    assert!(config.horizon > 0, "horizon must be positive");
    let mut rng = StdRng::seed_from_u64(seed);

    let total_budget = config.load * config.n_machines as f64 * config.horizon as f64;
    let weight_sum: f64 =
        (1..=config.n_users).map(|r| 1.0 / (r as f64).powf(config.user_zipf)).sum();

    #[expect(
        clippy::unwrap_used,
        reason = "presets and the fpt spec give a median >= 1 and a finite sigma; other configs are the caller's contract"
    )]
    let duration_dist = if config.duration_sigma > 0.0 {
        Some(LogNormal::new(config.duration_median.ln(), config.duration_sigma).unwrap())
    } else {
        None
    };
    #[expect(
        clippy::unwrap_used,
        reason = "presets carry a finite gap, and the clamp keeps the rate finite"
    )]
    let gap_dist = Exp::new(1.0 / config.intra_session_gap.max(1e-9)).unwrap();

    let mut jobs = Vec::new();
    for user in 0..config.n_users {
        let weight = 1.0 / ((user + 1) as f64).powf(config.user_zipf) / weight_sum;
        let mut budget = total_budget * weight;
        while budget > 0.0 {
            // A new session starting uniformly in the horizon.
            let mut t = rng.random_range(0..config.horizon) as f64;
            // Geometric-ish session length with the configured mean.
            let session_len =
                1 + rng.random_range(0.0..2.0 * config.session_jobs) as usize;
            for _ in 0..session_len {
                if budget <= 0.0 || (t as Time) >= config.horizon {
                    break;
                }
                let dur = match &duration_dist {
                    Some(d) => d.sample(&mut rng).round().max(1.0),
                    None => 1.0,
                };
                let dur = (dur as Time).clamp(1, config.max_duration);
                jobs.push(UserJob {
                    user: user as u32,
                    release: t as Time,
                    proc_time: dur,
                });
                budget -= dur as f64;
                t += gap_dist.sample(&mut rng).max(0.0) + 1.0;
            }
        }
    }
    jobs.sort_by_key(|j| (j.release, j.user));
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SynthConfig {
        SynthConfig {
            n_users: 8,
            horizon: 5_000,
            n_machines: 4,
            load: 0.6,
            duration_median: 50.0,
            duration_sigma: 1.0,
            max_duration: 1_000,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let c = small();
        assert_eq!(generate(&c, 3), generate(&c, 3));
        assert_ne!(generate(&c, 3), generate(&c, 4));
    }

    #[test]
    fn respects_horizon_and_positive_durations() {
        let c = small();
        for j in generate(&c, 1) {
            assert!(j.release < c.horizon);
            assert!(j.proc_time >= 1);
            assert!(j.proc_time <= c.max_duration);
        }
    }

    #[test]
    fn total_work_tracks_load_target() {
        let c = small();
        let jobs = generate(&c, 7);
        let work: Time = jobs.iter().map(|j| j.proc_time).sum();
        let target = c.load * c.n_machines as f64 * c.horizon as f64;
        // Budgets overshoot by at most one job per user; allow wide-ish band.
        let ratio = work as f64 / target;
        assert!(ratio > 0.8 && ratio < 1.5, "work/target = {ratio}");
    }

    #[test]
    fn zipf_concentrates_activity() {
        let mut c = small();
        c.n_users = 10;
        c.user_zipf = 1.5;
        let jobs = generate(&c, 5);
        let work_of = |u: u32| -> Time {
            jobs.iter().filter(|j| j.user == u).map(|j| j.proc_time).sum()
        };
        // The heaviest user must out-work the lightest by a wide margin.
        assert!(work_of(0) > 3 * work_of(9).max(1));
    }

    #[test]
    fn unit_jobs_are_unit() {
        let c = small().unit_jobs();
        let jobs = generate(&c, 2);
        assert!(!jobs.is_empty());
        assert!(jobs.iter().all(|j| j.proc_time == 1));
    }

    #[test]
    fn sorted_by_release() {
        let jobs = generate(&small(), 9);
        for w in jobs.windows(2) {
            assert!(w[0].release <= w[1].release);
        }
    }

    #[test]
    fn users_all_present() {
        // Every user has a positive budget, so every user appears.
        let c = small();
        let jobs = generate(&c, 11);
        for u in 0..c.n_users as u32 {
            assert!(jobs.iter().any(|j| j.user == u), "user {u} missing");
        }
    }
}

//! Theorem 5.6 as an integration test: for unit-size jobs, RAND's realized
//! utility vector stays within the Hoeffding ε·‖ψ*‖ bound of the exact
//! fair schedule, and the error shrinks as the sample count grows.

use fairsched::coopgame::sampling::{hoeffding_epsilon, hoeffding_permutations};
use fairsched::core::scheduler::{RandScheduler, RefScheduler};
use fairsched::core::utility::Util;
use fairsched::core::Trace;
use fairsched::sim::{run_scheduler, SimOptions};
use fairsched::workloads::{generate, to_trace, MachineSplit, SynthConfig};

/// A unit-job instance and the utility vector of its exact fair schedule.
fn instance(k: usize, seed: u64, horizon: u64) -> (Trace, Vec<Util>) {
    let config = SynthConfig {
        n_users: k * 3,
        horizon,
        n_machines: k * 2,
        load: 1.0,
        ..SynthConfig::default()
    }
    .unit_jobs();
    let jobs = generate(&config, seed);
    let trace = to_trace(&jobs, k, k * 2, MachineSplit::Equal, seed).unwrap();
    let mut reference = RefScheduler::new(&trace);
    let fair =
        run_scheduler(&trace, &mut reference, SimOptions { horizon, validate: false })
            .expect("valid run");
    (trace, fair.psi)
}

/// RAND's relative distance `‖ψ − ψ*‖ / ‖ψ*‖` from the fair vector `fair`.
fn relative_error(
    (trace, fair): &(Trace, Vec<Util>),
    n_perms: usize,
    seed: u64,
    horizon: u64,
) -> f64 {
    let mut rand = RandScheduler::new(trace, n_perms, seed ^ 0xf00d);
    let result = run_scheduler(trace, &mut rand, SimOptions { horizon, validate: false })
        .expect("valid run");
    let norm: i128 = fair.iter().sum();
    if norm == 0 {
        return 0.0;
    }
    let delta: i128 = result.psi.iter().zip(fair).map(|(a, b)| (a - b).abs()).sum();
    delta as f64 / norm as f64
}

#[test]
fn rand_error_is_within_the_hoeffding_guarantee() {
    let k = 4;
    let lambda = 0.9;
    for seed in 0..6 {
        let instance = instance(k, seed, 600);
        for n_perms in [1usize, 3, 5, 15, 75, 300] {
            let eps = hoeffding_epsilon(k, n_perms, lambda);
            let err = relative_error(&instance, n_perms, seed, 600);
            assert!(
                err <= eps,
                "seed {seed}, N={n_perms}: error {err:.4} above guarantee {eps:.4}"
            );
        }
    }
}

#[test]
fn rand_error_shrinks_with_more_permutations() {
    let k = 4;
    let instances: Vec<_> = (0..8).map(|s| instance(k, s, 500)).collect();
    let mean = |n_perms: usize| -> f64 {
        instances
            .iter()
            .zip(0..)
            .map(|(i, s)| relative_error(i, n_perms, s, 500))
            .sum::<f64>()
            / 8.0
    };
    let coarse = mean(1);
    let fine = mean(75);
    eprintln!("mean relative error: N=1 → {coarse:.5}, N=75 → {fine:.5}");
    assert!(
        fine <= coarse + 1e-9,
        "error must not grow with sample count ({coarse:.5} → {fine:.5})"
    );
}

#[test]
fn hoeffding_sizes_match_the_theorem() {
    // N = ceil(k²/ε² ln(k/(1−λ))).
    let n = hoeffding_permutations(5, 0.5, 0.9);
    let expected = ((25.0 / 0.25) * (5.0f64 / 0.1).ln()).ceil() as usize;
    assert_eq!(n, expected);
    // And the paper's N=15/75 heuristic settings correspond to loose ε for
    // k=5 — document the actual guarantee they carry.
    let eps15 = hoeffding_epsilon(5, 15, 0.9);
    let eps75 = hoeffding_epsilon(5, 75, 0.9);
    assert!(eps75 < eps15);
}

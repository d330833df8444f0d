//! Integration tests for the analysis API and the general-utility REF.

use fairsched::core::analysis::{
    induced_game, induced_values, order_reverse_gap, shapley_contributions,
};
use fairsched::core::fairness::FairnessReport;
use fairsched::core::scheduler::{GeneralRefScheduler, RefScheduler};
use fairsched::core::utility::SpUtility;
use fairsched::core::Trace;
use fairsched::sim::{run_scheduler, SimOptions};
use fairsched::workloads::{generate, to_trace, MachineSplit, SynthConfig};

fn small_trace(seed: u64) -> Trace {
    let config = SynthConfig {
        n_users: 6,
        horizon: 100,
        n_machines: 3,
        load: 1.0,
        duration_median: 5.0,
        duration_sigma: 0.8,
        max_duration: 30,
        ..SynthConfig::default()
    };
    let jobs = generate(&config, seed);
    to_trace(&jobs, 3, 3, MachineSplit::Equal, seed).unwrap()
}

#[test]
fn induced_game_shapley_is_efficient_on_random_traces() {
    for seed in 0..6 {
        let trace = small_trace(seed);
        let t = 120;
        let values = induced_values(&trace, t);
        let phi = shapley_contributions(&trace, t);
        let grand = *values.last().unwrap() as f64;
        let total: f64 = phi.iter().sum();
        assert!(
            (total - grand).abs() < 1e-6,
            "seed {seed}: Σφ = {total} but v(grand) = {grand}"
        );
    }
}

#[test]
fn induced_game_values_monotone_in_time() {
    let trace = small_trace(9);
    let early = induced_values(&trace, 40);
    let late = induced_values(&trace, 120);
    for (e, l) in early.iter().zip(&late) {
        assert!(l >= e, "coalition values must grow with time");
    }
}

#[test]
fn induced_game_monotone_in_coalitions_for_unit_jobs() {
    // For unit jobs, adding an organization (its machine and its jobs)
    // never decreases the value at any t: more capacity and more unit
    // work both help.
    let config = SynthConfig {
        n_users: 6,
        horizon: 60,
        n_machines: 3,
        load: 1.2,
        ..SynthConfig::default()
    }
    .unit_jobs();
    let jobs = generate(&config, 4);
    let trace = to_trace(&jobs, 3, 3, MachineSplit::Equal, 4).unwrap();
    let game = induced_game(&trace, 80);
    assert!(fairsched::coopgame::properties::is_monotone(&game));
}

#[test]
fn theorem_5_3_gap_series() {
    // The σ_ord / σ_rev relative gap approaches 1 — the quantity behind
    // the (1/2 − ε)-inapproximability argument.
    let mut prev = 0.0;
    for m in [2usize, 5, 10, 20, 50] {
        let gap = order_reverse_gap(m, 3);
        assert!(gap > prev, "gap must increase with m");
        prev = gap;
    }
    assert!(prev > 0.8, "gap at m=50 should be close to 1, got {prev}");
}

#[test]
fn general_ref_with_sp_is_close_to_exact_ref() {
    // The general-utility REF instantiated with ψ_sp follows the same
    // fairness gradient as the specialized integer REF; their schedules
    // may differ in tie resolution, but the resulting unfairness against
    // the exact reference must stay small on loaded workloads.
    for seed in [1u64, 5, 11] {
        let trace = small_trace(seed);
        let horizon = 120;
        let mut exact = RefScheduler::new(&trace);
        let fair =
            run_scheduler(&trace, &mut exact, SimOptions { horizon, validate: true })
                .expect("valid run");
        let mut general = GeneralRefScheduler::new(&trace, SpUtility);
        let run =
            run_scheduler(&trace, &mut general, SimOptions { horizon, validate: true })
                .expect("valid run");
        let report = FairnessReport::from_schedules(
            &trace,
            &run.schedule,
            &fair.schedule,
            horizon,
        );
        // Bound: far tighter than RoundRobin-level unfairness on the same
        // workloads (tens); tie-resolution noise only. Sized for the
        // vendored offline RNG's workload stream (crates/compat/rand).
        assert!(
            report.unfairness() < 4.0,
            "seed {seed}: GeneralRef(ψ_sp) unfairness {} too large",
            report.unfairness()
        );
    }
}

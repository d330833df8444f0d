//! The paper's headline experimental claim (Section 7.3), as a statistical
//! integration test: Shapley-aware schedulers are fairer than distributive
//! fair share, which is fairer than round robin.

use fairsched::core::fairness::FairnessReport;
use fairsched::core::scheduler::{
    CurrFairShareScheduler, DirectContrScheduler, FairShareScheduler, RandScheduler,
    RefScheduler, RoundRobinScheduler, Scheduler,
};
use fairsched::sim::{run_scheduler, SimOptions};
use fairsched::workloads::{generate, preset, to_trace, MachineSplit, PresetName};

fn mean_unfairness(
    build: impl Fn(&fairsched::core::Trace, u64) -> Box<dyn Scheduler>,
) -> f64 {
    // The paper's Table 1 configuration: full LPC-EGEE scale, 5 orgs,
    // horizon 5·10⁴ (DirectContr vs FairShare ordering is sensitive to
    // this regime; see Section 7.3).
    let horizon = 50_000;
    let n = 12;
    let mut total = 0.0;
    for seed in 0..n {
        let p = preset(PresetName::LpcEgee, 1.0, horizon);
        let jobs = generate(&p.synth, seed);
        let trace = to_trace(&jobs, 5, p.synth.n_machines, MachineSplit::Zipf(1.0), seed)
            .unwrap();
        let mut reference = RefScheduler::new(&trace);
        let fair = run_scheduler(
            &trace,
            &mut reference,
            SimOptions { horizon, validate: false },
        )
        .expect("valid run");
        let mut s = build(&trace, seed);
        let r =
            run_scheduler(&trace, s.as_mut(), SimOptions { horizon, validate: false })
                .expect("valid run");
        let report =
            FairnessReport::from_schedules(&trace, &r.schedule, &fair.schedule, horizon);
        total += report.unfairness();
    }
    total / n as f64
}

#[test]
fn shapley_heuristics_beat_fair_share_beats_round_robin() {
    let round_robin = mean_unfairness(|_, _| Box::new(RoundRobinScheduler::new()));
    let curr_fs = mean_unfairness(|_, _| Box::new(CurrFairShareScheduler::new()));
    let fair_share = mean_unfairness(|_, _| Box::new(FairShareScheduler::new()));
    let direct = mean_unfairness(|_, s| Box::new(DirectContrScheduler::new(s)));
    let rand15 = mean_unfairness(|t, s| Box::new(RandScheduler::new(t, 15, s)));

    eprintln!(
        "mean Δψ/p_tot — RR: {round_robin:.3}, CurrFS: {curr_fs:.3}, FS: {fair_share:.3}, \
         DirectContr: {direct:.3}, Rand15: {rand15:.3}"
    );

    // The paper's ordering, with slack for sampling noise: round robin is
    // materially worse than fair share; the Shapley-based schedulers are
    // no worse than fair share (and usually better).
    assert!(
        round_robin > fair_share * 1.5,
        "round robin ({round_robin:.3}) should be clearly less fair than fair share ({fair_share:.3})"
    );
    assert!(
        direct <= fair_share * 1.5 + 0.05,
        "DirectContr ({direct:.3}) should not be materially less fair than FairShare ({fair_share:.3})"
    );
    assert!(
        rand15 <= fair_share * 1.5 + 0.05,
        "Rand ({rand15:.3}) should not be materially less fair than FairShare ({fair_share:.3})"
    );
    assert!(
        round_robin > direct,
        "round robin must be less fair than the Shapley heuristic"
    );
}

#[test]
fn unfairness_grows_with_horizon() {
    // The Table 1 → Table 2 effect: longer traces accumulate more
    // unfairness for non-exact schedulers.
    let run = |horizon: u64| -> f64 {
        let mut total = 0.0;
        let n = 8;
        for seed in 100..100 + n {
            let p = preset(PresetName::LpcEgee, 0.25, horizon);
            let jobs = generate(&p.synth, seed);
            let trace =
                to_trace(&jobs, 4, p.synth.n_machines, MachineSplit::Zipf(1.0), seed)
                    .unwrap();
            let mut reference = RefScheduler::new(&trace);
            let fair = run_scheduler(
                &trace,
                &mut reference,
                SimOptions { horizon, validate: false },
            )
            .expect("valid run");
            let mut s = RoundRobinScheduler::new();
            let r =
                run_scheduler(&trace, &mut s, SimOptions { horizon, validate: false })
                    .expect("valid run");
            total += FairnessReport::from_schedules(
                &trace,
                &r.schedule,
                &fair.schedule,
                horizon,
            )
            .unfairness();
        }
        total / n as f64
    };
    let short = run(2_000);
    let long = run(16_000);
    eprintln!("round-robin unfairness: horizon 2k → {short:.3}, 16k → {long:.3}");
    assert!(
        long > short,
        "unfairness should accumulate with horizon ({short:.3} vs {long:.3})"
    );
}

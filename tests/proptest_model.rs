//! Property-based integration tests: random traces through every
//! scheduler, checking the model invariants end to end.

use fairsched::core::scheduler::{
    CurrFairShareScheduler, DirectContrScheduler, FairShareScheduler, FifoScheduler,
    RandScheduler, RandomScheduler, RefScheduler, RoundRobinScheduler, Scheduler,
    UtFairShareScheduler,
};
use fairsched::core::{OrgId, Trace};
use fairsched::sim::{run_scheduler, SimOptions};
use proptest::prelude::*;

/// Random small trace: 2–4 orgs, 1–3 machines each, up to 14 jobs.
fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        proptest::collection::vec(1usize..4, 2..5),
        proptest::collection::vec((0u64..20, 1u64..10, 0u32..4), 1..15),
    )
        .prop_map(|(machines, jobs)| {
            let mut b = Trace::builder();
            let orgs: Vec<OrgId> = machines
                .iter()
                .enumerate()
                .map(|(i, &m)| b.org(format!("o{i}"), m))
                .collect();
            for (release, proc, org_pick) in jobs {
                let org = orgs[org_pick as usize % orgs.len()];
                b.job(org, release, proc);
            }
            b.build().unwrap()
        })
}

fn zoo(trace: &Trace) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(FifoScheduler::new()),
        Box::new(RoundRobinScheduler::new()),
        Box::new(RandomScheduler::new(1)),
        Box::new(FairShareScheduler::new()),
        Box::new(UtFairShareScheduler::new()),
        Box::new(CurrFairShareScheduler::new()),
        Box::new(DirectContrScheduler::new(2)),
        Box::new(RefScheduler::new(trace)),
        Box::new(RandScheduler::new(trace, 8, 3)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every scheduler yields a schedule satisfying every invariant
    /// (release respect, FIFO, no overlap, greediness) on random traces.
    #[test]
    fn prop_all_schedulers_valid_on_random_traces(trace in arb_trace()) {
        let horizon = trace.completion_horizon();
        for mut s in zoo(&trace) {
            let r = run_scheduler(
                &trace,
                s.as_mut(),
                SimOptions { horizon, validate: true },
            ).expect("valid run");
            // With the horizon covering everything, all jobs run.
            prop_assert_eq!(r.started_jobs, trace.n_jobs());
            prop_assert_eq!(r.completed_jobs, trace.n_jobs());
            prop_assert_eq!(r.busy_time, trace.total_work());
        }
    }

    /// Schedules are reproducible: same trace, same seed, same schedule.
    #[test]
    fn prop_determinism(trace in arb_trace()) {
        let horizon = trace.completion_horizon();
        let run = || {
            let mut s = RefScheduler::new(&trace);
            run_scheduler(&trace, &mut s, SimOptions { horizon, validate: false }).expect("valid run")
                .schedule
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.entries(), b.entries());
    }

    /// Total utility is monotone in the horizon for any scheduler.
    #[test]
    fn prop_value_monotone_in_horizon(trace in arb_trace()) {
        let full = trace.completion_horizon();
        let mut s = FairShareScheduler::new();
        let r = run_scheduler(&trace, &mut s, SimOptions { horizon: full, validate: false }).expect("valid run");
        let mut last = -1i128;
        for t in [0, full / 4, full / 2, full] {
            let v: i128 = fairsched::core::utility::sp_vector(&trace, &r.schedule, t)
                .iter()
                .sum();
            prop_assert!(v >= last);
            last = v;
        }
    }

    /// REF's internal utility trackers agree with the engine's closed-form
    /// evaluation at the horizon — the two independent ψ_sp implementations
    /// cross-check each other.
    #[test]
    fn prop_ref_trackers_match_engine(trace in arb_trace()) {
        let horizon = trace.completion_horizon().min(200);
        let mut s = RefScheduler::new(&trace);
        let r = run_scheduler(&trace, &mut s, SimOptions { horizon, validate: false }).expect("valid run");
        prop_assert_eq!(s.psi(horizon), r.psi);
    }

    /// Exact Shapley contributions from REF satisfy efficiency against the
    /// realized grand-coalition value at any evaluation time.
    #[test]
    fn prop_ref_contributions_efficient(trace in arb_trace()) {
        let horizon = trace.completion_horizon().min(150);
        let mut s = RefScheduler::new(&trace);
        let r = run_scheduler(&trace, &mut s, SimOptions { horizon, validate: false }).expect("valid run");
        let phi = s.contributions(horizon);
        let total_phi: f64 = phi.iter().sum();
        let v: i128 = r.psi.iter().sum();
        prop_assert!((total_phi - v as f64).abs() < 1e-6,
            "Σφ = {total_phi} but v = {v}");
    }
}

//! End-to-end integration: synthetic workload → trace → engine → every
//! scheduler → validated schedule → fairness report.

use fairsched::core::fairness::FairnessReport;
use fairsched::core::scheduler::{
    CurrFairShareScheduler, DirectContrScheduler, FairShareScheduler, FifoScheduler,
    GeneralRefScheduler, RandScheduler, RandomScheduler, RefScheduler,
    RoundRobinScheduler, Scheduler, UtFairShareScheduler,
};
use fairsched::core::utility::SpUtility;
use fairsched::core::Trace;
use fairsched::sim::{run_scheduler, SimOptions};
use fairsched::workloads::{
    generate, preset, to_trace, MachineSplit, PresetName, SynthConfig,
};

fn scheduler_zoo(trace: &Trace) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(FifoScheduler::new()),
        Box::new(RoundRobinScheduler::new()),
        Box::new(RandomScheduler::new(5)),
        Box::new(FairShareScheduler::new()),
        Box::new(UtFairShareScheduler::new()),
        Box::new(CurrFairShareScheduler::new()),
        Box::new(DirectContrScheduler::new(6)),
        Box::new(RefScheduler::new(trace)),
        Box::new(RandScheduler::new(trace, 15, 7)),
        Box::new(GeneralRefScheduler::new(trace, SpUtility)),
    ]
}

fn preset_trace(seed: u64, horizon: u64, orgs: usize) -> Trace {
    let p = preset(PresetName::LpcEgee, 0.2, horizon);
    let jobs = generate(&p.synth, seed);
    to_trace(&jobs, orgs, p.synth.n_machines, MachineSplit::Zipf(1.0), seed).unwrap()
}

#[test]
fn every_scheduler_produces_a_valid_schedule_on_a_preset_workload() {
    let horizon = 5_000;
    let trace = preset_trace(11, horizon, 4);
    for mut s in scheduler_zoo(&trace) {
        let r = run_scheduler(&trace, s.as_mut(), SimOptions { horizon, validate: true })
            .expect("valid run");
        assert!(r.started_jobs > 0, "{} started nothing", r.scheduler);
        assert!(r.utilization > 0.0 && r.utilization <= 1.0 + 1e-12);
        // psi must be consistent with the schedule's own closed form.
        let psi2 = fairsched::core::utility::sp_vector(&trace, &r.schedule, horizon);
        assert_eq!(r.psi, psi2, "{} psi mismatch", r.scheduler);
    }
}

#[test]
fn ref_is_perfectly_fair_against_itself_and_others_are_not_generally() {
    let horizon = 4_000;
    let trace = preset_trace(23, horizon, 3);
    let mut reference = RefScheduler::new(&trace);
    let fair =
        run_scheduler(&trace, &mut reference, SimOptions { horizon, validate: true })
            .expect("valid run");
    let self_report =
        FairnessReport::from_schedules(&trace, &fair.schedule, &fair.schedule, horizon);
    assert_eq!(self_report.delta_psi, 0);
    assert_eq!(self_report.unfairness(), 0.0);

    // Round robin should show measurable unfairness on a loaded workload.
    let mut rr = RoundRobinScheduler::new();
    let rr_result =
        run_scheduler(&trace, &mut rr, SimOptions { horizon, validate: true })
            .expect("valid run");
    let rr_report = FairnessReport::from_schedules(
        &trace,
        &rr_result.schedule,
        &fair.schedule,
        horizon,
    );
    assert!(rr_report.p_tot > 0);
    // (Not asserting > 0 strictly — tiny instances can tie — but the
    // deviation vector must be internally consistent.)
    let recomputed: i128 = rr_report.per_org.iter().map(|o| o.deviation().abs()).sum();
    assert_eq!(recomputed, rr_report.delta_psi);
}

#[test]
fn all_greedy_schedulers_complete_the_same_units_on_unit_jobs() {
    // Proposition 5.4: for unit jobs the coalition value is independent of
    // the greedy policy. Check v = Σψ matches across the whole zoo at
    // several horizons.
    let config = SynthConfig {
        n_users: 10,
        horizon: 400,
        n_machines: 3,
        load: 1.2,
        ..SynthConfig::default()
    }
    .unit_jobs();
    let jobs = generate(&config, 3);
    let trace = to_trace(&jobs, 3, 3, MachineSplit::Equal, 3).unwrap();
    for horizon in [50u64, 200, 400] {
        let values: Vec<i128> = scheduler_zoo(&trace)
            .into_iter()
            .map(|mut s| {
                run_scheduler(&trace, s.as_mut(), SimOptions { horizon, validate: true })
                    .expect("valid run")
                    .coalition_value()
            })
            .collect();
        for v in &values {
            assert_eq!(
                *v, values[0],
                "coalition value differs across greedy policies at t={horizon}: {values:?}"
            );
        }
    }
}

#[test]
fn horizon_zero_and_tiny_traces_are_handled() {
    let mut b = Trace::builder();
    let a = b.org("a", 1);
    b.job(a, 0, 1);
    let trace = b.build().unwrap();
    for mut s in scheduler_zoo(&trace) {
        let r =
            run_scheduler(&trace, s.as_mut(), SimOptions { horizon: 0, validate: true })
                .expect("valid run");
        assert_eq!(r.busy_time, 0, "{}", r.scheduler);
    }
}

#[test]
fn machine_heavy_and_machine_less_orgs_coexist() {
    // One org contributes all machines, the other only jobs: the jobless
    // org's work still runs (greediness) and the donor org accrues all the
    // fair-share priority.
    let mut b = Trace::builder();
    let donor = b.org("donor", 3);
    let guest = b.org("guest", 0);
    b.jobs(guest, 0, 5, 4);
    b.jobs(donor, 10, 5, 2);
    let trace = b.build().unwrap();
    let horizon = 40;
    for mut s in scheduler_zoo(&trace) {
        let r = run_scheduler(&trace, s.as_mut(), SimOptions { horizon, validate: true })
            .expect("valid run");
        assert_eq!(r.started_jobs, 6, "{} must run the guest's jobs", r.scheduler);
    }
}

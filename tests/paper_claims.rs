//! Executable versions of the paper's propositions and worked examples,
//! checked across crates (the single-module versions live in unit tests;
//! these go through the full trace → engine pipeline).

use fairsched::coopgame::{Coalition, Player, TabularGame};
use fairsched::core::scheduler::{
    FairShareScheduler, FifoScheduler, RandomScheduler, RefScheduler,
    RoundRobinScheduler, Scheduler,
};
use fairsched::core::utility::{sp_vector, FlowTime, Utility};
use fairsched::core::{OrgId, Trace};
use fairsched::sim::exhaustive::{figure7_family, greedy_envelope};
use fairsched::sim::{run_scheduler, SimOptions};
use fairsched::workloads::{generate, to_trace, MachineSplit, SynthConfig};

/// Proposition 4.2: for equal-size jobs all completed before `t`,
/// maximizing `ψ_sp` is equivalent to minimizing flow time — so across
/// different schedules of the same trace, the two metrics rank schedules
/// in exactly opposite order.
#[test]
fn proposition_4_2_flow_time_equivalence() {
    let mut b = Trace::builder();
    let o1 = b.org("a", 1);
    let o2 = b.org("b", 1);
    // Equal processing times, staggered releases; 2 machines, 8 jobs.
    for i in 0..4 {
        b.job(o1, i, 4);
        b.job(o2, i + 1, 4);
    }
    let trace = b.build().unwrap();
    let horizon = 200; // everything completes well before this

    let mut outcomes: Vec<(i128, f64)> = Vec::new();
    for seed in 0..6 {
        let mut s = RandomScheduler::new(seed);
        let r = run_scheduler(&trace, &mut s, SimOptions { horizon, validate: false })
            .expect("valid run");
        assert_eq!(r.completed_jobs, 8);
        let psi_total: i128 = r.psi.iter().sum();
        let flow: f64 = (0..trace.n_orgs())
            .map(|u| FlowTime.value(&trace, &r.schedule, OrgId(u as u32), horizon))
            .sum();
        outcomes.push((psi_total, flow));
    }
    // p = 4: psi = const − 4·flow exactly (from the proof), for every pair.
    let (psi0, flow0) = outcomes[0];
    for &(psi, flow) in &outcomes[1..] {
        assert_eq!(
            psi - psi0,
            (-4.0 * (flow - flow0)) as i128,
            "ψ_sp and flow time must be affinely related with slope −p"
        );
    }
}

/// Proposition 5.5 through the full machinery: build the 3-org game from
/// simulated coalition values and verify non-supermodularity.
#[test]
fn proposition_5_5_game_is_not_supermodular() {
    // Orgs a, b: one machine + two unit jobs each; org c: one machine only.
    let game = TabularGame::from_fn(3, |coal| {
        if coal.is_empty() {
            return 0.0;
        }
        let mut b = Trace::builder();
        let mut org_ids = Vec::new();
        for i in 0..3 {
            let has_machine = coal.contains(Player(i));
            org_ids.push(b.org(format!("o{i}"), if has_machine { 1 } else { 0 }));
        }
        for (i, &org) in org_ids.iter().enumerate().take(2) {
            if coal.contains(Player(i)) {
                b.jobs(org, 0, 1, 2);
            }
        }
        match b.build() {
            Ok(trace) => {
                let r = run_scheduler(
                    &trace,
                    &mut FifoScheduler::new(),
                    SimOptions { horizon: 2, validate: false },
                )
                .expect("valid run");
                r.coalition_value() as f64
            }
            Err(_) => 0.0, // no machines in this coalition
        }
    });
    assert_eq!(
        game.value([Player(0), Player(2)].into_iter().collect::<Coalition>()),
        4.0
    );
    assert_eq!(game.value(Coalition::grand(3)), 7.0);
    assert!(!fairsched::coopgame::properties::is_supermodular(&game));
    assert!(fairsched::coopgame::properties::supermodularity_violation(&game).is_some());
}

/// Theorem 6.2 via the pipeline: real schedulers on the Figure 7 family
/// and random instances never fall below 3/4 of the best greedy schedule.
#[test]
fn theorem_6_2_real_schedulers_within_bound() {
    for (m_half, p) in [(2, 4), (2, 10)] {
        let (trace, t) = figure7_family(m_half, p);
        let env = greedy_envelope(&trace, t);
        assert_eq!(env.min_units * 4, env.max_units * 3); // tight family

        let schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(FifoScheduler::new()),
            Box::new(RoundRobinScheduler::new()),
            Box::new(RandomScheduler::new(3)),
            Box::new(RefScheduler::new(&trace)),
            Box::new(FairShareScheduler::new()),
        ];
        for mut s in schedulers {
            let r = run_scheduler(
                &trace,
                s.as_mut(),
                SimOptions { horizon: t, validate: false },
            )
            .expect("valid run");
            assert!(
                r.busy_time * 4 >= env.max_units * 3,
                "{} below the greedy bound on (m, p) = ({m_half}, {p})",
                r.scheduler
            );
        }
    }
}

/// Figure 2 through the engine: reconstruct the example's schedule with an
/// actual trace (3 machines, FIFO produces exactly the figure's layout)
/// and check the utilities.
#[test]
fn figure_2_schedule_through_the_engine() {
    let mut b = Trace::builder();
    let o1 = b.org("O1", 3);
    let o2 = b.org("O2", 0);
    // Release in the figure's machine layout order. FIFO on 3 machines
    // reproduces the starts: machines free at (0,0,0) -> J1,J2,J3;
    // J4 at 3, J5 at 3, J6 at 4, J7 at 6, o2's job at 9, J8 at 9, J9 at 10.
    b.job(o1, 0, 3) // J1
        .job(o1, 0, 4) // J2
        .job(o1, 0, 3) // J3
        .job(o1, 0, 6) // J4
        .job(o1, 0, 3) // J5
        .job(o1, 0, 6) // J6
        .job(o1, 0, 3) // J7
        .job(o2, 9, 5) // J(2)1 — released so it grabs the machine at 9
        .job(o1, 9, 3) // J8
        .job(o1, 9, 4); // J9
    let trace = b.build().unwrap();
    let r = run_scheduler(
        &trace,
        &mut FifoScheduler::new(),
        SimOptions { horizon: 14, validate: false },
    )
    .expect("valid run");
    let psi13 = sp_vector(&trace, &r.schedule, 13);
    let psi14 = sp_vector(&trace, &r.schedule, 14);
    assert_eq!(psi13[0], 262, "O1 utility at t=13 (paper: 262)");
    assert_eq!(psi14[0], 297, "O1 utility at t=14 (paper: 297)");
    // The figure releases every job at 0, so its flow time is the sum of
    // O1's completion times.
    let completions: u64 = r.schedule.entries_of(o1).map(|e| e.completion()).sum();
    assert_eq!(completions, 70, "O1 flow time at t=14 (paper: 70)");
}

/// Unit jobs: any two greedy policies give the same number of completed
/// units at every time (the stronger statement inside Prop 5.4's proof).
#[test]
fn unit_jobs_completed_counts_policy_independent() {
    let config = SynthConfig {
        n_users: 6,
        horizon: 200,
        n_machines: 2,
        load: 1.5,
        ..SynthConfig::default()
    }
    .unit_jobs();
    let jobs = generate(&config, 9);
    let trace = to_trace(&jobs, 2, 2, MachineSplit::Equal, 9).unwrap();
    for t in [10u64, 50, 100, 200] {
        let a = run_scheduler(
            &trace,
            &mut FifoScheduler::new(),
            SimOptions { horizon: t, validate: false },
        )
        .expect("valid run")
        .busy_time;
        let b = run_scheduler(
            &trace,
            &mut RandomScheduler::new(4),
            SimOptions { horizon: t, validate: false },
        )
        .expect("valid run")
        .busy_time;
        let c = run_scheduler(
            &trace,
            &mut RoundRobinScheduler::new(),
            SimOptions { horizon: t, validate: false },
        )
        .expect("valid run")
        .busy_time;
        assert!(a == b && b == c, "completed units diverged at t={t}: {a} {b} {c}");
    }
}

//! End-to-end equivalence of the typed `Report` pipeline with the
//! pre-refactor measurement paths, pinned on the `fpt:k=8` bench family
//! (the workload behind `BENCH_lattice.json`, which must stay
//! comparable).
//!
//! The historical paths being matched bit for bit:
//!
//! * the paper tables' per-instance `Δψ/p_tot`, now one experiment cell
//!   (previously `FairnessReport::from_schedules(..).unfairness()`
//!   inlined in the bench crate's delay runner);
//! * the CLI's per-organization numbers (previously ad-hoc
//!   `OrgMetrics` fields, recomputed here from the schedule entries).

use fairsched::core::fairness::FairnessReport;
use fairsched::core::scheduler::registry::SchedulerSpec;
use fairsched::core::Trace;
use fairsched::experiment::{
    aggregate, compute_cell, decode_cell, encode_cell, CellKey, ExperimentSpec, SeedPlan,
};
use fairsched::sim::report::{MetricRegistry, MetricValue, Report};
use fairsched::sim::Simulation;
use fairsched::workloads::spec::{WorkloadContext, WorkloadRegistry};

const HORIZON: u64 = 2_000;
const SEED: u64 = 42;

fn bench_family_trace(seed: u64) -> Trace {
    WorkloadRegistry::shared().build_str("fpt:k=8", &WorkloadContext { seed }).unwrap()
}

/// The pre-refactor bench computation: REF and every algorithm run on
/// their own, then `FairnessReport` per algorithm.
fn old_style_unfairness(trace: &Trace, specs: &[SchedulerSpec], seed: u64) -> Vec<f64> {
    let run = |spec: &SchedulerSpec| {
        Simulation::new(trace)
            .scheduler_spec(spec.clone())
            .horizon(HORIZON)
            .seed(seed)
            .run()
            .unwrap()
    };
    let ref_result = run(&SchedulerSpec::bare("ref"));
    specs
        .iter()
        .map(run)
        .map(|result| {
            FairnessReport::from_schedules(
                trace,
                &result.schedule,
                &ref_result.schedule,
                HORIZON,
            )
            .unfairness()
        })
        .collect()
}

/// The one-cell experiment key of `scheduler` on `workload` at [`SEED`]
/// (both seed axes) and [`HORIZON`], measuring `delay`.
fn delay_cell(workload: &str, scheduler: &str) -> CellKey {
    CellKey {
        workload: workload.parse().unwrap(),
        scheduler: scheduler.parse().unwrap(),
        metrics: vec!["delay".parse().unwrap()],
        horizon: Some(HORIZON),
        validate: false,
        instance: 0,
        workload_seed: SEED,
        scheduler_seed: SEED,
    }
}

/// The acceptance gate: the paper tables' delay values — experiment cells
/// measured through the metric registry — are bit-identical to the
/// pre-refactor `FairnessReport` path for the `fpt:k=8` bench family.
#[test]
fn experiment_cell_delay_is_bit_identical_to_the_old_path() {
    let specs: Vec<SchedulerSpec> = ["roundrobin", "fairshare", "rand:perms=5", "fifo"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let old = old_style_unfairness(&bench_family_trace(SEED), &specs, SEED);
    assert_eq!(specs.len(), old.len());
    for (spec, old_value) in specs.iter().zip(&old) {
        let report = compute_cell(&delay_cell("fpt:k=8", &spec.to_string())).unwrap();
        let new_value = report.column("delay").unwrap().aggregate.as_f64();
        assert_eq!(
            new_value.to_bits(),
            old_value.to_bits(),
            "delay for {spec} drifted: new {new_value} vs old {old_value}"
        );
    }
}

/// Session reports carry the same per-organization numbers the CLI's
/// bespoke `OrgMetrics`-based JSON used to: completed / flow / waiting /
/// stretch (recomputed here from the schedule entries) and ψ, bit for
/// bit, plus the `Δψ/p_tot` aggregate.
#[test]
fn grid_and_session_reports_match_org_metrics_bit_for_bit() {
    let trace = bench_family_trace(SEED);
    let report = Simulation::new(&trace)
        .scheduler("fairshare")
        .unwrap()
        .horizon(HORIZON)
        .seed(SEED)
        .metrics(&["completed", "flow", "waiting", "psi", "delay", "stretch"])
        .unwrap()
        .run_report()
        .unwrap();

    let result = Simulation::new(&trace)
        .scheduler("fairshare")
        .unwrap()
        .horizon(HORIZON)
        .seed(SEED)
        .run()
        .unwrap();
    let fair = Simulation::new(&trace)
        .scheduler("ref")
        .unwrap()
        .horizon(HORIZON)
        .seed(SEED)
        .run()
        .unwrap();
    let old_fairness =
        FairnessReport::from_schedules(&trace, &result.schedule, &fair.schedule, HORIZON);

    // Completed jobs, flow, waiting and stretch sums per organization.
    let n = trace.n_orgs();
    let (mut completed, mut flow, mut waiting) =
        (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
    let mut stretch = vec![0.0f64; n];
    for e in result.schedule.entries() {
        let (u, release) = (e.org.index(), trace.job(e.job).release);
        if e.start <= HORIZON {
            waiting[u] += e.start - release;
        }
        if e.completion() <= HORIZON {
            completed[u] += 1;
            flow[u] += e.completion() - release;
            stretch[u] += (e.completion() - release) as f64 / e.proc_time as f64;
        }
    }

    for u in 0..n {
        let int = |v: u64| MetricValue::Int(v as i128);
        assert_eq!(report.column("completed").unwrap().per_org[u], int(completed[u]));
        assert_eq!(report.column("flow").unwrap().per_org[u], int(flow[u]));
        assert_eq!(report.column("waiting").unwrap().per_org[u], int(waiting[u]));
        assert_eq!(
            report.column("psi").unwrap().per_org[u],
            MetricValue::Int(result.psi[u])
        );
        let mean_stretch =
            if completed[u] > 0 { stretch[u] / completed[u] as f64 } else { 0.0 };
        match report.column("stretch").unwrap().per_org[u] {
            MetricValue::Float(v) => assert_eq!(v.to_bits(), mean_stretch.to_bits()),
            ref other => panic!("stretch must be a float, got {other:?}"),
        }
    }
    match report.column("delay").unwrap().aggregate {
        MetricValue::Float(v) => {
            assert_eq!(v.to_bits(), old_fairness.unfairness().to_bits())
        }
        ref other => panic!("delay aggregate must be a float, got {other:?}"),
    }

    // The grid pipeline reports the same cells.
    let cells = Simulation::session()
        .horizon(HORIZON)
        .seed(SEED)
        .metrics(&["psi", "delay"])
        .unwrap()
        .run_grid_reports(&["fpt:k=8".parse().unwrap()], &["fairshare".parse().unwrap()]);
    assert_eq!(cells.len(), 1);
    let grid_report = cells[0].report.as_ref().unwrap();
    assert_eq!(
        grid_report.column("psi").unwrap().per_org,
        report.column("psi").unwrap().per_org
    );
    assert_eq!(
        grid_report.column("delay").unwrap().aggregate,
        report.column("delay").unwrap().aggregate
    );
}

/// The timeline metric through the full session pipeline is bit-identical
/// to evaluating `FairnessReport::from_schedules` at every sample time —
/// the streamed time axis reports exactly the per-moment numbers the
/// historical endpoint path would, on the `fpt:k=8` bench family.
#[test]
fn timeline_metric_matches_per_sample_fairness_reports() {
    let trace = bench_family_trace(SEED);
    let report = Simulation::new(&trace)
        .scheduler("fifo")
        .unwrap()
        .horizon(HORIZON)
        .seed(SEED)
        .metrics(&["timeline:samples=10", "timeline:samples=10,stat=delta_psi"])
        .unwrap()
        .run_report()
        .unwrap();
    let unfairness = report.time_series("timeline:samples=10").unwrap();
    let delta = report.time_series("timeline:samples=10,stat=delta_psi").unwrap();
    assert_eq!(*unfairness.times.last().unwrap(), HORIZON);
    assert_eq!(unfairness.times, delta.times);

    let result = Simulation::new(&trace)
        .scheduler("fifo")
        .unwrap()
        .horizon(HORIZON)
        .run()
        .unwrap();
    let fair =
        Simulation::new(&trace).scheduler("ref").unwrap().horizon(HORIZON).run().unwrap();
    let mut nonzero = false;
    for (i, &t) in unfairness.times.iter().enumerate() {
        let old =
            FairnessReport::from_schedules(&trace, &result.schedule, &fair.schedule, t);
        match unfairness.aggregate[i] {
            MetricValue::Float(v) => {
                assert_eq!(
                    v.to_bits(),
                    old.unfairness().to_bits(),
                    "unfairness drifted at t={t}"
                );
                nonzero |= v != 0.0;
            }
            ref other => panic!("unfairness must be a float, got {other:?}"),
        }
        assert_eq!(
            delta.aggregate[i],
            MetricValue::Int(old.delta_psi),
            "delta_psi drifted at t={t}"
        );
    }
    assert!(nonzero, "the pinned trajectory should not be all zeros");
}

/// The same report drives every sink without re-running anything, and all
/// three sinks agree on the canonical metric specs.
#[test]
fn report_sinks_agree_on_provenance() {
    let report = Simulation::session()
        .workload("fpt:k=3")
        .unwrap()
        .scheduler("roundrobin")
        .unwrap()
        .horizon(HORIZON)
        .seed(SEED)
        .metrics(&["delay", "delay:norm=ideal", "ranking", "utilization"])
        .unwrap()
        .run_report()
        .unwrap();
    let specs = report.metric_specs();
    assert_eq!(specs, ["delay", "delay:norm=ideal", "ranking", "utilization"]);

    let json = report.to_json();
    let csv = report.to_csv();
    let table = report.render_table();
    for spec in &specs {
        assert!(json.contains(spec), "JSON sink is missing {spec}");
        assert!(csv.contains(spec), "CSV sink is missing {spec}");
        assert!(table.contains(spec), "table sink is missing {spec}");
    }
    // The experiment summary and the session report agree: the mean of
    // a single instance is the instance value itself, bit for bit.
    let key = delay_cell("fpt:k=3", "roundrobin");
    let stored = decode_cell(&encode_cell(&key, &compute_cell(&key))).unwrap();
    let mut spec = ExperimentSpec::new(
        "one-cell",
        vec![key.workload.clone()],
        vec![key.scheduler.clone()],
    );
    spec.metrics = key.metrics.clone();
    spec.horizon = key.horizon;
    spec.seeds = SeedPlan { base: SEED, ..SeedPlan::default() };
    let summary = aggregate(&spec, &[(key, stored)]).summary_csv;
    let delay = report.column("delay").unwrap().aggregate.as_f64();
    assert!(summary.ends_with(&format!("\nroundrobin,{delay:?},0.0\n")), "{summary}");
    assert!(MetricRegistry::shared().names().count() >= 10);
    let _: &Report = &report;
}

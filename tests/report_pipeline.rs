//! End-to-end equivalence of the typed `Report` pipeline with the
//! pre-refactor measurement paths, pinned on the `fpt:k=8` bench family
//! (the workload behind `BENCH_lattice.json`, which must stay
//! comparable).
//!
//! The historical paths being matched bit for bit:
//!
//! * the bench runner's per-instance `Δψ/p_tot` (previously
//!   `FairnessReport::from_schedules(..).unfairness()` inlined in
//!   `runner.rs`);
//! * the CLI's per-organization numbers (previously ad-hoc
//!   `OrgMetrics` fields, recomputed here from the schedule entries).

use fairsched::core::fairness::FairnessReport;
use fairsched::core::scheduler::registry::{Registry, SchedulerSpec};
use fairsched::core::Trace;
use fairsched::sim::report::{MetricRegistry, MetricValue, Report};
use fairsched::sim::Simulation;
use fairsched::workloads::spec::{WorkloadContext, WorkloadRegistry};
use fairsched_bench::runner::{run_instance, Algo, DelayExperiment};

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
            .seed(seed ^ 0x5eed)
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

/// The acceptance gate: bench-runner delay values through the metric
/// registry are bit-identical to the pre-refactor `FairnessReport` path
/// for the `fpt:k=8` bench family.
#[test]
fn bench_runner_delay_is_bit_identical_to_the_old_path() {
    let exp = DelayExperiment {
        workload: "fpt:k=8".parse().unwrap(),
        horizon: HORIZON,
        n_instances: 1,
        base_seed: SEED,
        algos: vec![Algo::RoundRobin, Algo::FairShare, Algo::Rand(5), Algo::Fifo],
        metric: DelayExperiment::delay_metric(),
    };
    let new = run_instance(&exp, SEED, Registry::shared()).unwrap();

    let trace = bench_family_trace(SEED);
    let specs: Vec<SchedulerSpec> = exp.algos.iter().map(Algo::spec).collect();
    let old = old_style_unfairness(&trace, &specs, SEED);

    assert_eq!(new.len(), old.len());
    for ((label, new_value), old_value) in new.iter().zip(&old) {
        assert_eq!(
            new_value.to_bits(),
            old_value.to_bits(),
            "delay for {label} drifted: new {new_value} vs old {old_value}"
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
    // Bench's SummaryTable aggregation and the registry agree: the mean
    // of a single instance is the instance value itself.
    let exp = DelayExperiment {
        workload: "fpt:k=3".parse().unwrap(),
        horizon: HORIZON,
        n_instances: 1,
        base_seed: SEED,
        algos: vec![Algo::RoundRobin],
        metric: DelayExperiment::delay_metric(),
    };
    let stats = fairsched_bench::run_delay_experiment(&exp);
    assert_eq!(stats.len(), 1);
    assert_eq!(stats[0].values.len(), 1);
    assert!(stats[0].values[0] >= 0.0);
    assert!(MetricRegistry::shared().names().count() >= 10);
    let _: &Report = &report;
}

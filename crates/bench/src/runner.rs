//! The delay-table experiment runner (Tables 1–2, Figure 10).

use crate::parallel::parallel_map;
use fairsched_core::model::{Time, Trace};
use fairsched_core::scheduler::registry::{
    BuildContext, Registry, SchedulerSpec, SpecError,
};
use fairsched_core::scheduler::Scheduler;
use fairsched_sim::report::{LabeledStat, MetricSpec};
use fairsched_sim::{SimError, Simulation};
use fairsched_workloads::spec::{WorkloadContext, WorkloadRegistry, WorkloadSpec};
use fairsched_workloads::PresetName;
use std::fmt;

/// An evaluated algorithm: a thin wrapper over a scheduler-registry
/// [`SchedulerSpec`].
///
/// The classic variants keep the paper tables' row identities (and
/// labels); [`Algo::Spec`] admits *any* registry spec string, so growing
/// an experiment matrix no longer touches this enum. All construction
/// knowledge lives in the registry: [`Algo::build`] is
/// `registry.build(self.spec(), ..)` against [`Registry::shared`].
/// Downstream policies added via `Registry::register` run through
/// [`try_run_delay_experiment`] / [`run_instance`] with the extended
/// registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Algo {
    /// ROUNDROBIN baseline.
    RoundRobin,
    /// RAND with the given number of sampled permutations.
    Rand(usize),
    /// DIRECTCONTR heuristic.
    DirectContr,
    /// FAIRSHARE (usage/share balancing).
    FairShare,
    /// UTFAIRSHARE (utility/share balancing).
    UtFairShare,
    /// CURRFAIRSHARE (running-jobs/share balancing).
    CurrFairShare,
    /// Global FIFO (extra baseline).
    Fifo,
    /// Uniform random (extra baseline).
    Random,
    /// Any registered scheduler spec (labelled by its canonical string).
    Spec(SchedulerSpec),
}

impl Algo {
    /// The paper's Table 1/2 row set, in row order.
    pub const TABLE_SET: [Algo; 6] = [
        Algo::RoundRobin,
        Algo::Rand(15),
        Algo::DirectContr,
        Algo::FairShare,
        Algo::UtFairShare,
        Algo::CurrFairShare,
    ];

    /// Parses a registry spec string into an [`Algo::Spec`] row.
    pub fn parse(spec: &str) -> Result<Algo, SpecError> {
        Ok(Algo::Spec(spec.parse()?))
    }

    /// The registry spec this algorithm resolves to.
    pub fn spec(&self) -> SchedulerSpec {
        match self {
            Algo::RoundRobin => SchedulerSpec::bare("roundrobin"),
            Algo::Rand(n) => SchedulerSpec::bare("rand").with("perms", n),
            Algo::DirectContr => SchedulerSpec::bare("directcontr"),
            Algo::FairShare => SchedulerSpec::bare("fairshare"),
            Algo::UtFairShare => SchedulerSpec::bare("utfairshare"),
            Algo::CurrFairShare => SchedulerSpec::bare("currfairshare"),
            Algo::Fifo => SchedulerSpec::bare("fifo"),
            Algo::Random => SchedulerSpec::bare("random"),
            Algo::Spec(spec) => spec.clone(),
        }
    }

    /// Display label (table row identity; the classic variants keep the
    /// paper's labels).
    pub fn label(&self) -> String {
        match self {
            Algo::RoundRobin => "RoundRobin".into(),
            Algo::Rand(n) => format!("Rand (N={n})"),
            Algo::DirectContr => "DirectContr".into(),
            Algo::FairShare => "FairShare".into(),
            Algo::UtFairShare => "UtFairShare".into(),
            Algo::CurrFairShare => "CurrFairShare".into(),
            Algo::Fifo => "Fifo".into(),
            Algo::Random => "Random".into(),
            Algo::Spec(spec) => spec.to_string(),
        }
    }

    /// Instantiates the scheduler for a trace via the registry (seed
    /// drives any internal randomness deterministically).
    ///
    /// # Panics
    /// Panics if the spec is not buildable — impossible for the classic
    /// variants, and a configuration error worth failing loudly for in an
    /// experiment run for [`Algo::Spec`].
    pub fn build(&self, trace: &Trace, seed: u64) -> Box<dyn Scheduler> {
        Registry::shared()
            .build(&self.spec(), &BuildContext { trace, seed })
            .unwrap_or_else(|e| panic!("algo {:?} is not buildable: {e}", self.label()))
    }
}

/// Configuration of a delay-table experiment (one workload cell of
/// Table 1/2, or one x-axis point of Figure 10).
///
/// The workload axis is pure data: any [`WorkloadSpec`] resolvable through
/// the workload registry — `synth:preset=lpc,scale=0.1,orgs=5,...` for the
/// paper's presets ([`fairsched_workloads::synth_spec`] builds these from
/// the classic knobs), `swf:path=...` for archive logs, `fpt:k=8` for the
/// lattice-bench family, or any downstream-registered family.
#[derive(Clone, Debug)]
pub struct DelayExperiment {
    /// The workload spec; instance `i` builds it with seed `base_seed + i`.
    pub workload: WorkloadSpec,
    /// Evaluation horizon (5·10⁴ for Table 1, 5·10⁵ for Table 2).
    ///
    /// Distinct from the workload spec's own `horizon` param (the submit
    /// window): the paper evaluates at the same point generation stops, so
    /// pass one value to both — as [`fairsched_workloads::synth_spec`] and
    /// `resolve_workloads` do — unless a shorter/longer evaluation window
    /// is the deliberate point of the experiment.
    pub horizon: Time,
    /// Instances to average over (the paper uses 100).
    pub n_instances: usize,
    /// Base RNG seed; instance `i` uses `base_seed + i`, wrapping (seeds
    /// live on the `u64` ring).
    pub base_seed: u64,
    /// Algorithms to evaluate.
    pub algos: Vec<Algo>,
    /// The metric whose aggregate each cell reports — resolved through
    /// the shared [`fairsched_sim::report::MetricRegistry`]. The paper's
    /// tables use [`DelayExperiment::delay_metric`] (`Δψ/p_tot` vs REF);
    /// any registered metric spec works (`stretch`,
    /// `delay:norm=ideal`, …).
    pub metric: MetricSpec,
}

impl DelayExperiment {
    /// The paper's table metric: `delay` (aggregate `Δψ/p_tot` vs REF).
    pub fn delay_metric() -> MetricSpec {
        MetricSpec::bare("delay")
    }
}

/// Per-algorithm mean/sd of the experiment metric — the aggregation is
/// [`fairsched_sim::report::LabeledStat`], shared with every report sink.
pub type AlgoStats = LabeledStat;

/// One failed experiment instance: which seed, and the typed reason
/// (malformed spec, trace validation, scheduler contract violation, …).
#[derive(Debug)]
pub struct InstanceFailure {
    /// The instance's workload seed.
    pub seed: u64,
    /// The typed simulation error.
    pub error: SimError,
}

impl fmt::Display for InstanceFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "instance seed {}: {}", self.seed, self.error)
    }
}

/// The outcome of a delay experiment: aggregate stats over the instances
/// that ran, plus the per-instance failures (empty on a clean run).
#[derive(Debug)]
pub struct ExperimentOutcome {
    /// Per-algorithm stats over the *successful* instances.
    pub stats: Vec<AlgoStats>,
    /// Instances that could not be evaluated, with their typed errors.
    pub failures: Vec<InstanceFailure>,
}

/// Runs one seeded instance: builds the workload through the shared
/// [`WorkloadRegistry`] at `seed`, then evaluates every algorithm's
/// experiment metric as one [`Simulation::run_matrix_reports`] row
/// (scheduler specs resolved through `registry`, session seed
/// `seed ^ 0x5eed`; the REF reference runs once when the metric compares
/// against it). Failures surface as typed [`SimError`]s instead of
/// panics.
pub fn run_instance(
    exp: &DelayExperiment,
    seed: u64,
    registry: &Registry,
) -> Result<Vec<(String, f64)>, SimError> {
    let trace =
        WorkloadRegistry::shared().build(&exp.workload, &WorkloadContext { seed })?;
    let specs: Vec<SchedulerSpec> = exp.algos.iter().map(Algo::spec).collect();
    let reports = Simulation::new(&trace)
        .registry(registry)
        .horizon(exp.horizon)
        .seed(seed ^ 0x5eed)
        .metric_specs(vec![exp.metric.clone()])
        .run_matrix_reports(&specs)?;
    Ok(exp
        .algos
        .iter()
        .zip(reports)
        .map(|(algo, report)| {
            // A scalar metric contributes its aggregate; a time-series
            // metric (the `timeline` family) projects to its final
            // sample — which for `stat=unfairness` equals `delay`'s
            // `Δψ/p_tot` at the horizon bit for bit, so timeline cells
            // aggregate exactly like the paper's tables.
            let value = report
                .columns
                .first()
                .map(|c| c.aggregate.as_f64())
                .or_else(|| {
                    report
                        .series
                        .first()
                        .and_then(|s| s.final_aggregate())
                        .map(|v| v.as_f64())
                })
                .unwrap_or_default();
            (algo.label(), value)
        })
        .collect())
}

/// Runs the full experiment (instances in parallel) through
/// [`Registry::shared`] and aggregates, reporting any per-instance
/// failures to stderr. See [`try_run_delay_experiment`] for the
/// non-printing, failure-returning form.
pub fn run_delay_experiment(exp: &DelayExperiment) -> Vec<AlgoStats> {
    let outcome = try_run_delay_experiment(exp, Registry::shared());
    for failure in &outcome.failures {
        eprintln!("warning: skipped {failure}");
    }
    outcome.stats
}

/// Runs the full experiment (instances in parallel, scheduler specs
/// resolved through `registry`), aggregating over the instances that
/// succeed and collecting every failure with its seed — one bad instance
/// does not bring down a 100-instance matrix.
pub fn try_run_delay_experiment(
    exp: &DelayExperiment,
    registry: &Registry,
) -> ExperimentOutcome {
    let seeds: Vec<u64> =
        (0..exp.n_instances as u64).map(|i| exp.base_seed.wrapping_add(i)).collect();
    let per_instance =
        parallel_map(seeds, |seed| (seed, run_instance(exp, seed, registry)));
    let mut successes: Vec<Vec<(String, f64)>> = Vec::new();
    let mut failures = Vec::new();
    for (seed, result) in per_instance {
        match result {
            Ok(values) => successes.push(values),
            Err(error) => failures.push(InstanceFailure { seed, error }),
        }
    }
    let stats = exp
        .algos
        .iter()
        .enumerate()
        .map(|(ai, algo)| {
            let values: Vec<f64> = successes.iter().map(|inst| inst[ai].1).collect();
            AlgoStats::from_values(algo.label(), values)
        })
        .collect();
    ExperimentOutcome { stats, failures }
}

/// The default scale for a preset: full size for the small LPC-EGEE
/// cluster, scaled-down pools (~120 machines) for the three big systems so
/// the exponential REF reference stays laptop-friendly. `--paper-scale`
/// overrides to 1.0 everywhere.
pub fn default_scale(name: PresetName) -> f64 {
    match name {
        PresetName::LpcEgee => 1.0,
        PresetName::PikIplex => 0.05,
        PresetName::SharcnetWhale => 0.04,
        PresetName::Ricc => 0.015,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use fairsched_workloads::{synth_spec, MachineSplit};

    fn tiny_exp() -> DelayExperiment {
        DelayExperiment {
            workload: synth_spec(
                PresetName::LpcEgee,
                0.1,
                3,
                MachineSplit::Zipf(1.0),
                2_000,
            ),
            horizon: 2_000,
            n_instances: 2,
            base_seed: 7,
            algos: vec![Algo::RoundRobin, Algo::FairShare, Algo::Rand(5)],
            metric: DelayExperiment::delay_metric(),
        }
    }

    #[test]
    fn experiment_produces_stats_per_algo() {
        let stats = run_delay_experiment(&tiny_exp());
        assert_eq!(stats.len(), 3);
        for s in &stats {
            assert_eq!(s.values.len(), 2);
            assert!(s.mean >= 0.0);
            assert!(s.sd >= 0.0);
        }
    }

    #[test]
    fn instance_is_deterministic() {
        let exp = tiny_exp();
        assert_eq!(
            run_instance(&exp, 3, Registry::shared()).unwrap(),
            run_instance(&exp, 3, Registry::shared()).unwrap()
        );
    }

    /// A scheduler that violates the greedy contract must surface as a
    /// per-instance failure (with its seed), not a panic, and must not
    /// take the healthy instances down with it.
    #[test]
    fn bad_scheduler_is_reported_per_instance_not_panicked() {
        use fairsched_core::model::{ClusterInfo, OrgId};
        use fairsched_core::scheduler::registry::{
            SchedulerFactory, SchedulerKind, SpecError,
        };
        use fairsched_core::scheduler::SelectContext;
        use fairsched_core::spec::Factory;

        struct Broken;
        impl fairsched_core::scheduler::Scheduler for Broken {
            fn name(&self) -> String {
                "Broken".into()
            }
            fn init(&mut self, _info: &ClusterInfo) {}
            fn select(&mut self, ctx: &SelectContext<'_>) -> OrgId {
                // Deliberately select an org with no waiting jobs.
                OrgId(ctx.waiting.len() as u32 + 1)
            }
        }
        struct BrokenFactory;
        impl Factory<SchedulerKind> for BrokenFactory {
            fn name(&self) -> &str {
                "broken"
            }
            fn summary(&self) -> &str {
                "test-only contract violator"
            }
            fn conformance_specs(&self) -> Vec<SchedulerSpec> {
                vec![SchedulerSpec::bare("broken")]
            }
        }
        impl SchedulerFactory for BrokenFactory {
            fn build(
                &self,
                _spec: &SchedulerSpec,
                _ctx: &BuildContext<'_>,
            ) -> Result<Box<dyn Scheduler>, SpecError> {
                Ok(Box::new(Broken))
            }
        }

        let mut registry = Registry::default();
        registry.register(Box::new(BrokenFactory));
        let mut exp = tiny_exp();
        exp.algos = vec![Algo::parse("broken").unwrap()];
        exp.n_instances = 2;
        let outcome = try_run_delay_experiment(&exp, &registry);
        assert_eq!(outcome.failures.len(), 2, "both instances must fail");
        assert_eq!(outcome.stats.len(), 1);
        assert!(outcome.stats[0].values.is_empty());
        for f in &outcome.failures {
            assert!(
                matches!(f.error, SimError::BadSelection { .. }),
                "unexpected error: {}",
                f.error
            );
            assert!(f.seed == exp.base_seed || f.seed == exp.base_seed + 1);
        }
    }

    /// Healthy algorithms still aggregate when some instances fail for an
    /// unrelated reason (here: none fail — the outcome form is just empty).
    #[test]
    fn outcome_has_no_failures_on_clean_run() {
        let outcome = try_run_delay_experiment(&tiny_exp(), Registry::shared());
        assert!(outcome.failures.is_empty());
        assert_eq!(outcome.stats.len(), 3);
    }

    /// An invalid workload spec in the experiment matrix is collected as a
    /// typed per-instance failure (seed + `SimError::Workload`), never a
    /// panic, and the outcome structure still comes back well-formed so a
    /// surrounding multi-workload sweep continues.
    #[test]
    fn invalid_workload_spec_is_collected_not_panicked() {
        use fairsched_workloads::WorkloadError;
        let mut exp = tiny_exp();
        // scale=0 violates the synth factory's (0, 1] constraint.
        exp.workload = "synth:preset=lpc,scale=0".parse().unwrap();
        let outcome = try_run_delay_experiment(&exp, Registry::shared());
        assert_eq!(outcome.failures.len(), exp.n_instances, "every instance must fail");
        for f in &outcome.failures {
            assert!(
                matches!(
                    &f.error,
                    SimError::Workload(WorkloadError::BadParam { workload, param, .. })
                        if workload == "synth" && param == "scale"
                ),
                "unexpected error: {}",
                f.error
            );
        }
        assert_eq!(outcome.stats.len(), exp.algos.len());
        assert!(outcome.stats.iter().all(|s| s.values.is_empty()));
        // An unknown workload *name* is equally typed.
        // lint:allow(spec-literal) deliberately unregistered family.
        exp.workload = "quantumfoam:qubits=8".parse().unwrap();
        let outcome = try_run_delay_experiment(&exp, Registry::shared());
        assert!(outcome.failures.iter().all(|f| matches!(
            f.error,
            SimError::Workload(WorkloadError::UnknownWorkload { .. })
        )));
    }

    /// Instance seeds live on the `u64` ring: a base seed at the top wraps
    /// to 0 instead of overflowing.
    #[test]
    fn instance_seeds_wrap_around_the_u64_ring() {
        let mut exp = tiny_exp();
        // A workload that fails to build reports every instance's seed.
        exp.workload = "synth:preset=lpc,scale=0".parse().unwrap();
        exp.base_seed = u64::MAX;
        exp.n_instances = 2;
        let outcome = try_run_delay_experiment(&exp, Registry::shared());
        let seeds: Vec<u64> = outcome.failures.iter().map(|f| f.seed).collect();
        assert_eq!(seeds, [u64::MAX, 0]);
    }

    /// The spec-grid workload axis reaches experiments end to end: an fpt
    /// family cell runs through the same runner as the synth presets.
    #[test]
    fn fpt_workload_specs_run_in_experiments() {
        let exp = DelayExperiment {
            workload: "fpt:horizon=600,k=3".parse().unwrap(),
            horizon: 600,
            n_instances: 1,
            base_seed: 3,
            algos: vec![Algo::Fifo, Algo::RoundRobin],
            metric: DelayExperiment::delay_metric(),
        };
        let stats = run_delay_experiment(&exp);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].values.len(), 1);
    }

    /// A timeline metric in a table cell projects to its final sample,
    /// which (at `stat=unfairness`) is bit-identical to the `delay` cell —
    /// so trajectory tables stay comparable with the paper's.
    #[test]
    fn timeline_metric_cells_project_to_the_final_point() {
        let mut exp = tiny_exp();
        exp.n_instances = 1;
        let delay_vals = run_instance(&exp, 3, Registry::shared()).unwrap();
        exp.metric = "timeline:samples=16".parse().unwrap();
        let timeline_vals = run_instance(&exp, 3, Registry::shared()).unwrap();
        assert_eq!(timeline_vals.len(), delay_vals.len());
        for ((l1, v1), (l2, v2)) in timeline_vals.iter().zip(&delay_vals) {
            assert_eq!(l1, l2);
            assert_eq!(
                v1.to_bits(),
                v2.to_bits(),
                "timeline cell must equal delay for {l1}"
            );
        }
    }

    #[test]
    fn labels_match_table_set() {
        let labels: Vec<String> = Algo::TABLE_SET.iter().map(|a| a.label()).collect();
        assert_eq!(labels[0], "RoundRobin");
        assert_eq!(labels[1], "Rand (N=15)");
        assert_eq!(labels[5], "CurrFairShare");
    }

    #[test]
    fn stats_math() {
        let s = AlgoStats::from_values("x".into(), vec![1.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.sd - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn algos_resolve_through_registry_specs() {
        assert_eq!(Algo::RoundRobin.spec().to_string(), "roundrobin");
        assert_eq!(Algo::Rand(75).spec().to_string(), "rand:perms=75");
        assert_eq!(
            Algo::Spec("general-ref:util=flowtime".parse().unwrap()).label(),
            "general-ref:util=flowtime"
        );
        assert!(Algo::parse("rand perm").is_err());
    }

    #[test]
    fn spec_rows_run_in_experiments() {
        let mut exp = tiny_exp();
        exp.algos = vec![Algo::parse("fifo").unwrap(), Algo::FairShare];
        exp.n_instances = 1;
        let stats = run_delay_experiment(&exp);
        assert_eq!(stats[0].label, "fifo");
        assert_eq!(stats.len(), 2);
    }

    #[test]
    fn downstream_policies_reach_experiments_via_custom_registry() {
        use fairsched_core::scheduler::registry::{
            SchedulerFactory, SchedulerKind, SpecError,
        };
        use fairsched_core::scheduler::RoundRobinScheduler;
        use fairsched_core::spec::Factory;

        struct Custom;
        impl Factory<SchedulerKind> for Custom {
            fn name(&self) -> &str {
                "house-policy"
            }
            fn summary(&self) -> &str {
                "test-only downstream policy"
            }
            fn conformance_specs(&self) -> Vec<SchedulerSpec> {
                vec![SchedulerSpec::bare("house-policy")]
            }
        }
        impl SchedulerFactory for Custom {
            fn build(
                &self,
                _spec: &SchedulerSpec,
                _ctx: &BuildContext<'_>,
            ) -> Result<Box<dyn Scheduler>, SpecError> {
                Ok(Box::new(RoundRobinScheduler::new()))
            }
        }

        let mut extended = Registry::default();
        extended.register(Box::new(Custom));
        let mut exp = tiny_exp();
        exp.algos = vec![Algo::parse("house-policy").unwrap(), Algo::FairShare];
        exp.n_instances = 1;
        let stats = try_run_delay_experiment(&exp, &extended).stats;
        assert_eq!(stats[0].label, "house-policy");
        assert_eq!(stats.len(), 2);
    }
}

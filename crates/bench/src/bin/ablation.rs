//! Ablation of the **within-time-step utility bump** — the one documented
//! deviation our implementation makes from the published pseudo-code
//! (DESIGN.md §2): when several machines free in the same discrete time
//! moment, `ψ_sp` cannot see jobs started *in* that moment, so without a
//! one-unit bump the top-surplus organization monopolizes the whole batch
//! of machines.
//!
//! This binary measures Δψ/p_tot with bumps on and off, for REF-as-policy
//! and DIRECTCONTR, against the (bumped) REF reference. The expected shape:
//! disabling bumps hurts fairness, most visibly on bursty workloads where
//! many machines free simultaneously.
//!
//! `cargo run -p fairsched-bench --release --bin ablation`
//! Flags: --instances N --orgs K --scale F --horizon T --seed S

use fairsched_bench::cli::Cli;
use fairsched_bench::parallel::parallel_map;
use fairsched_core::model::TraceError;
use fairsched_core::scheduler::{DirectContrScheduler, RefScheduler, Scheduler};
use fairsched_core::Trace;
use fairsched_sim::{SimError, Simulation};
use fairsched_workloads::{
    generate, preset, to_trace, MachineSplit, PresetName, SynthConfig,
};
use std::process::exit;

type Variant = (&'static str, fn(&Trace, u64) -> Box<dyn Scheduler>);

fn variants() -> Vec<Variant> {
    vec![
        ("Ref (bumps on, self)", |t, _| Box::new(RefScheduler::new(t))),
        ("Ref (bumps off)", |t, _| Box::new(RefScheduler::new(t).without_step_bumps())),
        ("DirectContr (bumps on)", |_, s| Box::new(DirectContrScheduler::new(s))),
        ("DirectContr (bumps off)", |_, s| {
            Box::new(DirectContrScheduler::new(s).without_step_bumps())
        }),
    ]
}

fn run_block(
    label: &str,
    instances: usize,
    base_seed: u64,
    horizon: u64,
    make_trace: impl Fn(u64) -> Result<Trace, TraceError> + Sync,
) {
    println!("\n{label}");
    println!("{:<26}{:>14}{:>14}", "variant", "mean Δψ/p_tot", "max Δψ/p_tot");
    for (name, build) in &variants() {
        let values = parallel_map((0..instances as u64).collect(), |i| {
            let seed = base_seed.wrapping_add(i);
            let trace = make_trace(seed).map_err(SimError::InvalidTrace)?;
            // The bump-off variants are deliberately not registry specs —
            // they exist only for this ablation — so they go through the
            // session's instance escape hatch; `delay` runs the (bumped)
            // REF reference itself.
            let report = Simulation::new(&trace)
                .scheduler_instance(build(&trace, seed))
                .horizon(horizon)
                .metrics(&["delay"])?
                .run_report()?;
            // The one column is `delay`: Δψ/p_tot against REF.
            Ok(report.columns[0].aggregate.as_f64())
        });
        let values: Vec<f64> =
            values.into_iter().collect::<Result<_, SimError>>().unwrap_or_else(|e| {
                eprintln!("{name}: {e}");
                exit(1)
            });
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let max = values.iter().cloned().fold(0.0, f64::max);
        println!("{name:<26}{mean:>14.4}{max:>14.4}");
    }
}

fn main() {
    let cli = Cli::parse();
    let instances = cli.get_or("instances", 20usize);
    let orgs = cli.get_or("orgs", 5usize);
    let scale = cli.get_or("scale", 1.0f64);
    let horizon = cli.get_or("horizon", 50_000u64);
    let base_seed = cli.get_or("seed", 77u64);

    println!(
        "within-time-step bump ablation ({orgs} orgs, {instances} instances; reference = bumped REF)"
    );

    // Regime 1: heavy-tailed durations — machines almost never free
    // simultaneously, so the bump should be nearly irrelevant.
    run_block(
        &format!("heavy-tailed (LPC-EGEE scale {scale}, horizon {horizon}):"),
        instances,
        base_seed,
        horizon,
        |seed| {
            let p = preset(PresetName::LpcEgee, scale, horizon);
            let jobs = generate(&p.synth, seed);
            to_trace(&jobs, orgs, p.synth.n_machines, MachineSplit::Zipf(1.0), seed)
        },
    );

    // Regime 2: unit jobs at high load — every machine frees at every time
    // step, so without the bump one organization monopolizes each step's
    // whole batch of machines and fairness degrades.
    let unit_horizon = 2_000u64;
    let machines = 2 * orgs;
    run_block(
        &format!("unit jobs ({machines} machines, horizon {unit_horizon}, load 1.0):"),
        instances,
        base_seed ^ 0x1111,
        unit_horizon,
        |seed| {
            let config = SynthConfig {
                n_users: orgs * 4,
                horizon: unit_horizon,
                n_machines: machines,
                load: 1.0,
                ..SynthConfig::default()
            }
            .unit_jobs();
            let jobs = generate(&config, seed);
            to_trace(&jobs, orgs, machines, MachineSplit::Equal, seed)
        },
    );

    println!(
        "\n(measured conclusion, recorded in EXPERIMENTS.md: the bump is essentially"
    );
    println!(" inert. Under heavy-tailed durations simultaneous machine frees are rare;");
    println!(" on unit-job workloads, where every step frees all machines, the recency");
    println!(" tie-break already rotates organizations whenever surpluses tie, leaving");
    println!(" only sub-1e-3 differences. The bump is kept because Figures 6 and 9");
    println!(" specify the +1-on-start updates, but it is not load-bearing.)");
}

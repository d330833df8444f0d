//! Quickstart: build a two-organization consortium, schedule it fairly,
//! and read the fairness report — all through the `Simulation` session
//! API and the scheduler registry.
//!
//! `cargo run --example quickstart`

use fairsched::core::fairness::FairnessReport;
use fairsched::core::scheduler::SchedulerSpec;
use fairsched::core::Trace;
use fairsched::sim::{SimError, Simulation};
use fairsched::workloads::WorkloadSpec;

fn main() -> Result<(), SimError> {
    // alpha brings 1 machine and a burst of work; beta brings 2 machines
    // and arrives later. A fair scheduler should remember that beta's
    // machines carried alpha's burst.
    let mut b = Trace::builder();
    let alpha = b.org("alpha", 1);
    let beta = b.org("beta", 2);
    b.jobs(alpha, 0, 4, 6); // six 4-unit jobs at t=0
    b.jobs(beta, 8, 3, 4); // four 3-unit jobs at t=8
    let trace = b.build().expect("valid trace");
    let horizon = 30;

    // The exact Shapley-fair schedule — the reference.
    let fair = Simulation::new(&trace).scheduler("ref")?.horizon(horizon).run()?;
    println!("reference (REF) utilities: {:?}\n", fair.psi);

    // Two practical schedulers compared against it; any registry spec
    // string works here (`fairsched --help` lists them all).
    let specs: [SchedulerSpec; 2] = ["directcontr".parse()?, "fairshare".parse()?];
    for spec in specs {
        let result = Simulation::new(&trace)
            .scheduler_spec(spec)
            .horizon(horizon)
            .seed(7)
            .run()?;
        let report = FairnessReport::from_schedules(
            &trace,
            &result.schedule,
            &fair.schedule,
            horizon,
        );
        println!("--- {} ---", result.scheduler);
        println!("{report}");
    }

    // Metrics are registry specs too: ask for the fairness indices you
    // want by string and get a typed Report with JSON/CSV/table sinks.
    // `delay` compares against REF, which runs automatically.
    let report = Simulation::new(&trace)
        .scheduler("fairshare")?
        .horizon(horizon)
        .seed(7)
        .metrics(&["delay", "psi", "stretch"])?
        .run_report()?;
    println!("spec-addressed measurement ({}):", report.metric_specs().join(", "));
    print!("{}", report.render_table());
    println!();

    // Workloads are registry specs too, so a whole experiment matrix —
    // (workload × scheduler × metrics) — is pure data: no construction
    // or measurement code at all.
    let workloads: [WorkloadSpec; 2] = [
        "fpt:k=2".parse().map_err(SimError::Workload)?,
        "synth:horizon=800,orgs=3,preset=lpc,scale=0.05"
            .parse()
            .map_err(SimError::Workload)?,
    ];
    let schedulers: [SchedulerSpec; 2] = ["fairshare".parse()?, "roundrobin".parse()?];
    println!("pure-data experiment grid (Δψ/p_tot per cell):");
    let session = Simulation::session().horizon(800).seed(7).metrics(&["delay"])?;
    for cell in session.run_grid_reports(&workloads, &schedulers) {
        let delay = cell
            .report
            .map(|r| r.column("delay").expect("requested").aggregate.to_string())
            .unwrap_or_else(|e| e.to_string());
        println!(
            "  {:<48} × {:<12} -> {delay}",
            cell.workload.to_string(),
            cell.scheduler.to_string()
        );
    }
    Ok(())
}

//! A realistic consortium scenario — the paper's motivating setting.
//!
//! Five organizations of very different sizes (a Zipf machine split, as in
//! the paper's experiments) pool their clusters. Workloads are bursty and
//! heavy-tailed (the LPC-EGEE-like synthetic preset). We replay the same
//! trace under every scheduler and rank them by the paper's unfairness
//! metric Δψ/p_tot, and also show the per-organization breakdown for fair
//! share vs the Shapley-based heuristic — making visible *who* static
//! shares shortchange.
//!
//! `cargo run --release --example multi_org_consortium`

use fairsched::core::fairness::FairnessReport;
use fairsched::sim::{MetricRegistry, Report, SimError, Simulation};
use fairsched::workloads::{WorkloadContext, WorkloadRegistry};

fn main() -> Result<(), SimError> {
    let horizon = 20_000;
    let seed = 2024;
    // The whole scenario is one workload registry spec: LPC-EGEE shape at
    // half scale, five organizations, the paper's Zipf machine split.
    let trace = WorkloadRegistry::shared().build_str(
        "synth:horizon=20000,orgs=5,preset=lpc,scale=0.5",
        &WorkloadContext { seed },
    )?;

    println!(
        "consortium: 5 organizations, {} machines, {} jobs",
        trace.cluster_info().n_machines(),
        trace.n_jobs()
    );
    for (i, o) in trace.orgs().iter().enumerate() {
        let work: u64 =
            trace.jobs_of(fairsched::core::OrgId(i as u32)).map(|j| j.proc_time).sum();
        println!(
            "  {:<6} {:>3} machines, {:>8} units of work submitted",
            o.name, o.n_machines, work
        );
    }

    // Every run shares the same settings; every scheduler is named by its
    // registry spec string.
    let run = |spec: &str| {
        Simulation::new(&trace).scheduler(spec)?.horizon(horizon).seed(seed).run()
    };
    let fair = run("ref")?;

    println!("\nΔψ/p_tot per scheduler (lower = more fair):");
    let specs = [
        "rand:perms=15",
        "directcontr",
        "fairshare",
        "utfairshare",
        "currfairshare",
        "roundrobin",
    ];
    let mut results = Vec::new();
    for spec in specs {
        let r = run(spec)?;
        let report =
            FairnessReport::from_schedules(&trace, &r.schedule, &fair.schedule, horizon);
        println!(
            "  {:<16} {:>10.3}   (utilization {:>5.1}%)",
            r.scheduler,
            report.unfairness(),
            100.0 * r.utilization
        );
        results.push((r.scheduler.clone(), r, report));
    }

    // Per-organization breakdown for the two philosophies.
    for want in ["FairShare", "DirectContr"] {
        if let Some((name, _, report)) = results.iter().find(|(n, _, _)| n == want) {
            println!("\nper-organization deviation from the fair utilities — {name}:");
            println!("{report}");
        }
    }
    // Responsiveness: Definition 3.1 demands fairness at *every* moment.
    // The `timeline` metric shows how unfairness accumulates under each
    // philosophy.
    let timeline = ["timeline:samples=8".parse()?];
    println!("\nunfairness over time (Δψ(t)/p_tot(t), sampled at 8 points):");
    print!("{:<16}", "t =");
    for i in 1..=8u64 {
        print!("{:>9}", horizon * i / 8);
    }
    println!();
    for (name, r, _) in &results {
        if name == "RoundRobin" || name == "FairShare" || name == "DirectContr" {
            let report = Report::evaluate(
                MetricRegistry::shared(),
                &timeline,
                &trace,
                r,
                Some(&fair),
            )?;
            print!("{name:<16}");
            for point in &report.series[0].aggregate {
                print!("{:>9.2}", point.as_f64());
            }
            println!();
        }
    }

    println!(
        "\nstatic shares ignore *when* an organization contributed; the Shapley-based"
    );
    println!("heuristic tracks contributions over time, which is why its deviations are smaller.");
    Ok(())
}

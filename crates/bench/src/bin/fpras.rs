//! Validates **Theorem 5.6 (FPRAS)**: for unit-size jobs, RAND with
//! `N = ⌈k²/ε² ln(k/(1−λ))⌉` sampled permutations produces a schedule whose
//! utility vector is within `ε·‖ψ*‖` of the exact fair schedule's with
//! probability ≥ λ.
//!
//! The binary sweeps N (including the paper's heuristic settings 15 and
//! 75), measures the realized relative error `‖ψ−ψ*‖ / ‖ψ*‖` over many
//! seeded instances, and reports it against the ε guaranteed by the
//! Hoeffding bound at that N — the measured error should sit far below the
//! (loose) guarantee and shrink as N grows.
//!
//! `cargo run -p fairsched-bench --release --bin fpras`
//! Flags: --orgs K --instances N --machines M --horizon T --seed S

use fairsched_bench::cli::Cli;
use fairsched_bench::parallel::parallel_map;
use fairsched_core::scheduler::SchedulerSpec;
use fairsched_sim::Simulation;
use fairsched_workloads::{to_trace, MachineSplit, SynthConfig};

fn main() {
    let cli = Cli::parse();
    let k = cli.get_or("orgs", 5usize);
    let instances = cli.get_or("instances", 30usize);
    let machines = cli.get_or("machines", 10usize);
    let horizon = cli.get_or("horizon", 2_000u64);
    let seed = cli.get_or("seed", 17u64);
    let lambda = 0.9;

    let config = SynthConfig {
        n_users: k * 4,
        horizon,
        n_machines: machines,
        load: 0.9,
        ..SynthConfig::default()
    }
    .unit_jobs();

    println!(
        "FPRAS validation: unit jobs, k={k} orgs, {machines} machines, horizon {horizon}, {instances} instances"
    );
    println!(
        "{:>6}{:>16}{:>16}{:>18}",
        "N", "mean ‖ψ−ψ*‖/‖ψ*‖", "max ‖ψ−ψ*‖/‖ψ*‖", "Hoeffding ε (λ=0.9)"
    );

    let mut last_mean = f64::INFINITY;
    for n_perms in [1usize, 3, 15, 75, 300] {
        let errors: Vec<f64> = parallel_map((0..instances as u64).collect(), |i| {
            let inst_seed = seed.wrapping_add(i);
            let jobs = fairsched_workloads::generate(&config, inst_seed);
            let trace =
                to_trace(&jobs, k, machines, MachineSplit::Equal, inst_seed).unwrap();
            let run = |spec| {
                Simulation::new(&trace)
                    .scheduler_spec(spec)
                    .horizon(horizon)
                    .seed(inst_seed ^ 0xabcd)
                    .run()
                    .expect("FPRAS instance runs")
            };
            let ref_result = run(SchedulerSpec::bare("ref"));
            let result = run(SchedulerSpec::bare("rand").with("perms", n_perms));
            let norm: i128 = ref_result.psi.iter().map(|v| v.abs()).sum();
            if norm == 0 {
                return 0.0;
            }
            let delta: i128 =
                result.psi.iter().zip(&ref_result.psi).map(|(a, b)| (a - b).abs()).sum();
            delta as f64 / norm as f64
        });
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        let max = errors.iter().cloned().fold(0.0, f64::max);
        let eps_bound = coopgame::sampling::hoeffding_epsilon(k, n_perms, lambda);
        println!("{n_perms:>6}{mean:>16.5}{max:>16.5}{eps_bound:>18.3}");
        assert!(
            max <= eps_bound + 1e-9,
            "measured error {max} exceeded the Hoeffding guarantee {eps_bound}"
        );
        // Errors should not grow as N does (monotone in expectation; allow
        // sampling noise with a generous factor).
        assert!(mean <= last_mean * 2.0 + 1e-6, "error grew with N");
        last_mean = mean.max(1e-9);
    }
    println!("\nmeasured errors sit below the Theorem 5.6 guarantee at every N ✓");
}

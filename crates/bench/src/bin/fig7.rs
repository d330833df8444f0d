//! Regenerates **Figure 7 / Theorem 6.2**: resource utilization of greedy
//! algorithms.
//!
//! Three parts:
//! 1. the Figure 7 adversarial family, where the best greedy schedule
//!    achieves 100% utilization and the worst exactly 75% — the theorem's
//!    bound is tight;
//! 2. random small instances, exhaustively enumerating every greedy
//!    schedule: the worst/best ratio never drops below 3/4;
//! 3. the actual schedulers (REF, fair-share family, round robin) on the
//!    adversarial family — all greedy, hence all within the bound.
//!
//! `cargo run -p fairsched-bench --release --bin fig7`
//! Flags: --random N (random instances, default 50) --seed S

use fairsched_bench::cli::Cli;
use fairsched_core::scheduler::SchedulerSpec;
use fairsched_sim::exhaustive::{figure7_family, greedy_envelope};
use fairsched_sim::Simulation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let cli = Cli::parse();
    let n_random = cli.get_or("random", 50usize);
    let seed = cli.get_or("seed", 7u64);

    println!("Part 1 — the Figure 7 family (2m machines, 2m jobs of size p, m jobs of 2p, T = 2p)");
    println!(
        "{:>4}{:>6}{:>10}{:>12}{:>12}{:>10}",
        "m", "p", "capacity", "best", "worst", "ratio"
    );
    for (m_half, p) in [(1u64, 2u64), (2, 3), (2, 10), (3, 4)] {
        let (trace, t) = figure7_family(m_half as usize, p);
        let env = greedy_envelope(&trace, t);
        let capacity = 2 * m_half * t;
        println!(
            "{:>4}{:>6}{:>10}{:>12}{:>12}{:>10.4}",
            m_half,
            p,
            capacity,
            env.max_units,
            env.min_units,
            env.min_units as f64 / env.max_units as f64
        );
        assert_eq!(env.max_units, capacity);
        assert_eq!(env.min_units * 4, capacity * 3, "the 3/4 bound is tight");
    }

    println!("\nPart 2 — {n_random} random small instances, exhaustive greedy envelope");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut worst_ratio = 1.0f64;
    for _ in 0..n_random {
        let mut b = fairsched_core::Trace::builder();
        let o1 = b.org("a", rng.random_range(1..3));
        let o2 = b.org("b", rng.random_range(1..3));
        for _ in 0..rng.random_range(2..6) {
            b.job(o1, rng.random_range(0..5), rng.random_range(1..6));
        }
        for _ in 0..rng.random_range(1..5) {
            b.job(o2, rng.random_range(0..5), rng.random_range(1..8));
        }
        let trace = b.build().unwrap();
        let horizon = rng.random_range(5..16);
        let env = greedy_envelope(&trace, horizon);
        if env.max_units > 0 {
            let r = env.min_units as f64 / env.max_units as f64;
            worst_ratio = worst_ratio.min(r);
            assert!(
                env.min_units * 4 >= env.max_units * 3,
                "Theorem 6.2 violated: {env:?}"
            );
        }
    }
    println!("worst observed worst/best greedy ratio: {worst_ratio:.4} (bound: 0.7500)");

    println!("\nPart 3 — real schedulers on the family (m=2, p=10): utilization at T");
    let (trace, t) = figure7_family(2, 10);
    let specs: [SchedulerSpec; 3] = [
        SchedulerSpec::bare("ref"),
        SchedulerSpec::bare("fairshare"),
        SchedulerSpec::bare("roundrobin"),
    ];
    for spec in specs {
        let r = Simulation::new(&trace)
            .scheduler_spec(spec)
            .horizon(t)
            .run()
            .expect("figure 7 runs");
        println!("{:<14}{:>8.4}", r.scheduler, r.utilization);
        assert!(
            r.utilization >= 0.75 - 1e-9,
            "{} fell below the greedy bound",
            r.scheduler
        );
    }
    println!("\nall greedy schedules stay within the 3/4-competitive bound ✓");
}

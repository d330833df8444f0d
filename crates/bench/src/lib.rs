//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 7), plus ablations.
//!
//! Each binary regenerates one artifact:
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table 1 — Δψ/p_tot per algorithm × workload, horizon 5·10⁴ |
//! | `table2` | Table 2 — same at horizon 5·10⁵ |
//! | `fig10` | Figure 10 — Δψ/p_tot vs number of organizations |
//! | `fig2` | Figure 2 — the worked `ψ_sp` example |
//! | `fig7` | Figure 7 / Theorem 6.2 — greedy utilization envelope |
//! | `fpras` | Theorem 5.6 — RAND's ε-approximation vs sample count |
//! | `trajectory` | the unfairness trajectory `Δψ(t)/p_tot(t)` per sample time (see [`trajectory`]) |
//! | `bench_baseline` | `BENCH_lattice.json` — the tracked lattice perf baseline (see [`baseline`]) |
//!
//! Run e.g. `cargo run -p fairsched-bench --release --bin table1 -- --help`.
//!
//! The delay tables go through [`runner`]: an experiment's seeded
//! instances fan out over [`parallel::parallel_map`], the workspace's one
//! thread pool, and each instance is one serial
//! [`Simulation::run_matrix_reports`](fairsched_sim::Simulation::run_matrix_reports)
//! row (the REF reference runs once per instance).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cli;
pub mod experiments;
pub mod parallel;
pub mod runner;
pub mod trajectory;

pub use fairsched_sim::report::{format_sig, LabeledStat, SummaryTable};
pub use runner::{
    run_delay_experiment, Algo, AlgoStats, DelayExperiment, ExperimentOutcome,
    InstanceFailure,
};

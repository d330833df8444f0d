//! Experiment harness for the paper's evaluation (Section 7) that is not
//! a (workload × scheduler) grid, plus ablations and the perf baseline.
//!
//! The delay tables, Figure 10 and the unfairness trajectory are grids:
//! they are committed experiment specs under `paper/`, run by
//! `fairsched experiment run paper/<artifact>.experiment.json` (see
//! `docs/EXPERIMENTS.md`). The binaries here regenerate the rest:
//!
//! | binary | artifact |
//! |---|---|
//! | `fig2` | Figure 2 — the worked `ψ_sp` example |
//! | `fig7` | Figure 7 / Theorem 6.2 — greedy utilization envelope |
//! | `fpras` | Theorem 5.6 — RAND's ε-approximation vs sample count |
//! | `ablation` | Δψ/p_tot with the within-time-step utility bump on and off |
//! | `bench_baseline` | `BENCH_lattice.json` — the tracked lattice perf baseline (see [`baseline`]) |
//!
//! Run e.g. `cargo run -p fairsched-bench --release --bin fpras`.
//! Seeded instances fan out over [`parallel::parallel_map`], the
//! workspace's one thread pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cli;
pub mod parallel;

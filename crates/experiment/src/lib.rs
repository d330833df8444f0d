//! Durable experiment orchestration for fairsched.
//!
//! The paper's results are `(workload × scheduler × metric)` grids —
//! Table 1, Table 2, Figure 2 are all sweeps — and at paper scale a sweep
//! is hours of compute. [`Simulation::run_grid_reports`] is all-or-nothing:
//! a crash at cell 900/1000 loses everything. This crate makes a sweep a
//! durable, resumable artifact:
//!
//! * an [`ExperimentSpec`](spec::ExperimentSpec) names the grid as pure
//!   data (spec strings + seeds + limits), loaded from JSON;
//! * the [`Runner`](runner::Runner) executes cells serially, committing
//!   each one to a content-addressed file (`cells/<fnv128(key)>.json`)
//!   with an atomic write-then-rename, and journaling state transitions
//!   to an append-only `journal.jsonl`; the cells of one grid row share
//!   one trace build and one REF reference run;
//! * re-running with *resume* skips every committed cell (zero recompute
//!   on a finished run), recomputes corrupt or missing ones, and degrades
//!   failed cells into typed entries of the final report instead of
//!   aborting the sweep;
//! * the final `report.json` / `report.csv` / `report.txt` are always
//!   rebuilt from the committed cells, so an interrupted-and-resumed run
//!   emits byte-identical artifacts to an uninterrupted one — a property
//!   proven by a kill-point sweep over every
//!   [`failpoint::SITES`] entry, driven by the std-only deterministic
//!   fault-injection layer in [`failpoint`].
//!
//! [`Simulation::run_grid_reports`]: fairsched_sim::Simulation::run_grid_reports

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// clippy.toml exempts test code from `unwrap_used`, `expect_used` and
// `panic`; the other three panic-site lints and the crate's clippy.toml
// bans (`disallowed_*`) have no such setting.
#![cfg_attr(test, allow(clippy::todo, clippy::unimplemented, clippy::unreachable))]
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod cell;
pub mod failpoint;
pub mod journal;
pub mod runner;
pub mod spec;

pub use cell::{cell_keys, decode_cell, encode_cell, CellKey, StoredCell, CELL_SCHEMA};
pub use failpoint::{Fault, FaultMode, FaultPlan, PlanParseError, SITES};
pub use journal::{Journal, JournalEntry};
pub use runner::{
    aggregate, compute_cell, FinalReport, RunSummary, Runner, RunnerError, RunnerOptions,
    StatusSummary, REPORT_SCHEMA,
};
pub use spec::{ExperimentSpec, RetryPolicy, SeedPlan, SpecLoadError, SPEC_SCHEMA};

/// A fresh, empty directory for one test under the system temp dir. Its
/// name carries the process id and a per-process counter, so neither two
/// test runs nor two tests of one run ever share it.
#[cfg(test)]
pub(crate) fn scratch_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("fairsched-experiment-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

//! Core model and algorithms for **non-monetary fair scheduling** in
//! multi-organizational systems, reproducing Skowron & Rzadca,
//! *"Non-monetary fair scheduling — a cooperative game theory approach"*
//! (SPAA 2013, arXiv:1302.0948).
//!
//! # The model
//!
//! `k` independent organizations pool their clusters. Each organization
//! contributes machines and a FIFO stream of sequential, non-preemptible
//! jobs; scheduling is **online** (jobs unknown before release) and
//! **non-clairvoyant** (processing times unknown until completion). All
//! schedulers are *greedy*: a free machine is never left idle while a job
//! waits.
//!
//! # Fairness
//!
//! Fairness is game-theoretic: the coalition's value is the sum of
//! per-organization utilities under the strategy-proof utility
//! [`utility::SpUtility`] (the unique utility satisfying the paper's three
//! axioms, Theorem 4.1), and each organization's ideal payoff is its
//! **Shapley value** in that game. A fair scheduler keeps realized utilities
//! as close as possible (Manhattan metric) to the Shapley contributions at
//! every time step, recursively for all subcoalitions (Definitions 3.1–3.2).
//!
//! # What's here
//!
//! * [`model`] — organizations, machines, jobs, traces.
//! * [`schedule`] — schedules, validation of the model invariants
//!   (no machine overlap, per-organization FIFO, greediness).
//! * [`utility`] — the strategy-proof utility `ψ_sp` (exact integer
//!   arithmetic), classic alternatives (flow time, resource utilization,
//!   makespan, tardiness) and axiom checkers.
//! * [`scheduler`] — the paper's algorithms: exact exponential [`scheduler::RefScheduler`]
//!   (Figure 1/3), randomized [`scheduler::RandScheduler`] (Figure 6, the
//!   FPRAS of Theorem 5.6), heuristic [`scheduler::DirectContrScheduler`]
//!   (Figure 9), and the baselines (round robin and the fair-share family) —
//!   all constructible from spec strings (`"rand:perms=15"`) through the
//!   [`scheduler::registry`], which downstream crates extend with their
//!   own policies via [`scheduler::registry::Registry::register`].
//! * [`fairness`] — the evaluation metric `Δψ/p_tot` of Section 7.2 and
//!   the sample grid and single-pass sweep behind the per-moment
//!   `timeline` metric of the simulator's metric registry.
//! * [`checked_time`] — widening/saturating arithmetic on [`Time`]
//!   values, the vocabulary the `time-arith-widening` lint rule approves.
//! * [`journal`] — the crash-safe filesystem primitives (atomic
//!   write-then-rename, torn-tail-tolerant line journals) shared by the
//!   durable experiment runner and the online serving daemon.
//! * [`analysis`] — materialize the cooperative game a trace induces
//!   (supermodularity/core checks, Shapley shares, the Theorem 5.3 gap).
//! * [`reduction`] — the executable SUBSETSUM reduction of Theorem 5.1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// clippy.toml exempts test code from `unwrap_used`, `expect_used` and
// `panic`; the other three panic-site lints and the crate's clippy.toml
// bans (`disallowed_*`) have no such setting.
#![cfg_attr(test, allow(clippy::todo, clippy::unimplemented, clippy::unreachable))]
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod analysis;
pub mod checked_time;
pub mod fairness;
pub mod journal;
pub mod model;
pub mod reduction;
pub mod schedule;
pub mod scheduler;
pub mod spec;
pub mod utility;

pub use model::{Job, JobId, JobMeta, MachineId, OrgId, OrgSpec, Time, Trace};
pub use schedule::{Schedule, ScheduledJob};
pub use utility::Util;

/// A fresh, empty directory for one test under the system temp dir. Its
/// name carries the process id and a per-process counter, so neither two
/// test runs nor two tests of one run ever share it.
#[cfg(test)]
pub(crate) fn scratch_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("fairsched-core-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

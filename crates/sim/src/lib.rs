//! Discrete-event simulator for multi-organizational cluster scheduling.
//!
//! This crate is the *substrate* the paper's evaluation runs on: it replays
//! a [`fairsched_core::Trace`] against any online scheduler implementing
//! [`fairsched_core::scheduler::Scheduler`], enforcing the model invariants
//! (greediness, per-organization FIFO, non-preemption, non-clairvoyance)
//! and collecting the schedule, exact `ψ_sp` utilities and resource
//! utilization.
//!
//! # Quick start
//!
//! Scheduler selection goes through the [`Simulation`] session builder:
//! name any algorithm in the [`fairsched_core::scheduler::registry`] by
//! its spec string and run.
//!
//! ```
//! use fairsched_core::Trace;
//! use fairsched_sim::Simulation;
//!
//! let mut b = Trace::builder();
//! let alpha = b.org("alpha", 1);
//! let beta = b.org("beta", 1);
//! b.job(alpha, 0, 3).job(beta, 0, 3).job(alpha, 1, 2);
//! let trace = b.build().unwrap();
//!
//! let result = Simulation::new(&trace)
//!     .scheduler("roundrobin")?
//!     .horizon(100)
//!     .run()?;
//! assert_eq!(result.schedule.len(), 3);
//! assert!(result.utilization > 0.0);
//! # Ok::<(), fairsched_sim::SimError>(())
//! ```
//!
//! Code that already holds a `&mut dyn Scheduler` runs it with
//! [`run_scheduler`], the one engine entry point, which reports
//! engine-contract violations as the same typed [`SimError`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// clippy.toml exempts test code from `unwrap_used`, `expect_used` and
// `panic`; the other three panic-site lints and the crate's clippy.toml
// bans (`disallowed_*`) have no such setting.
#![cfg_attr(test, allow(clippy::todo, clippy::unimplemented, clippy::unreachable))]
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

mod cluster;
mod engine;
pub mod exhaustive;
pub mod gantt;
mod metrics;
pub mod report;
pub mod session;
pub mod stepper;

pub use cluster::Cluster;
pub use engine::{run_scheduler, SimOptions, SimResult};
pub use report::{
    MetricColumn, MetricContext, MetricError, MetricFactory, MetricKind, MetricOutput,
    MetricRegistry, MetricSpec, MetricValue, Report, TimeSeriesColumn,
};
pub use session::{ReportCell, ReportRow, SimError, Simulation, DEFAULT_REPORT_METRICS};
pub use stepper::{Admission, SimSession, SNAPSHOT_SCHEMA};

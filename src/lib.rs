//! # fairsched — non-monetary fair scheduling for multi-organizational systems
//!
//! A Rust implementation of Skowron & Rzadca, *"Non-monetary fair
//! scheduling — a cooperative game theory approach"* (SPAA 2013): fair
//! online scheduling of sequential, non-clairvoyant jobs across
//! organizations that pool their clusters, with fairness defined by the
//! Shapley value of the induced cooperative game instead of money or
//! static shares.
//!
//! This crate re-exports the workspace members:
//!
//! * [`core`] (`fairsched-core`) — the model, the strategy-proof utility
//!   `ψ_sp`, and the schedulers (exact REF, randomized RAND, heuristic
//!   DIRECTCONTR, fair-share family, round robin);
//! * [`sim`] (`fairsched-sim`) — the discrete-event engine that replays
//!   traces against any scheduler;
//! * [`workloads`] (`fairsched-workloads`) — SWF parsing and synthetic
//!   multi-organization workload generation;
//! * [`coopgame`] — coalition/Shapley machinery.
//!
//! ## Quick start
//!
//! Every scheduler is reachable through the
//! [`core::scheduler::registry`]: name it by a spec string — `"ref"`,
//! `"directcontr"`, `"rand:perms=15"`, `"general-ref:util=flowtime"` — and
//! run it with the [`sim::Simulation`] session builder. Workloads are spec
//! strings too, through [`workloads::spec`] — `"synth:preset=ricc,scale=0.5"`,
//! `"swf:path=/logs/lpc.swf"`, `"fpt:k=8"` — so a whole experiment matrix
//! is pure data. Failures (unknown specs, bad parameters, invalid traces,
//! scheduler contract violations) come back as a typed [`sim::SimError`].
//!
//! ```
//! use fairsched::core::fairness::FairnessReport;
//! use fairsched::core::Trace;
//! use fairsched::sim::Simulation;
//!
//! // Two organizations pool 3 machines; beta contributes more capacity.
//! let mut b = Trace::builder();
//! let alpha = b.org("alpha", 1);
//! let beta = b.org("beta", 2);
//! b.jobs(alpha, 0, 4, 3); // alpha floods the pool at t=0
//! b.job(beta, 6, 2);      // beta shows up later
//! let trace = b.build().unwrap();
//!
//! // The exact fair schedule (Shapley reference)...
//! let fair = Simulation::new(&trace).scheduler("ref")?.horizon(20).run()?;
//!
//! // ...and a practical polynomial heuristic.
//! let result = Simulation::new(&trace)
//!     .scheduler("directcontr")?
//!     .horizon(20)
//!     .seed(7)
//!     .run()?;
//!
//! let report = FairnessReport::from_schedules(&trace, &result.schedule, &fair.schedule, 20);
//! println!("{report}");
//! assert!(report.unfairness() < 1.0);
//! # Ok::<(), fairsched::sim::SimError>(())
//! ```
//!
//! To compare several schedulers with identical settings, use
//! [`sim::Simulation::run_matrix_reports`]: one typed [`sim::Report`] per
//! scheduler spec, measured against one shared REF run when a metric
//! needs it. For a full **pure-data experiment matrix** — workloads ×
//! schedulers × metrics, no construction code — use
//! [`sim::Simulation::run_grid_reports`]:
//!
//! ```
//! use fairsched::sim::Simulation;
//!
//! let grid = Simulation::session()
//!     .horizon(500)
//!     .seed(7)
//!     .metrics(&["delay"])?
//!     .run_grid_reports(
//!         &["fpt:k=2".parse()?, "fpt:k=3".parse()?],
//!         &["fairshare".parse()?, "roundrobin".parse()?],
//!     );
//! assert_eq!(grid.len(), 4); // row-major: every workload × every scheduler
//! for cell in &grid {
//!     let report = cell.report.as_ref().map_err(|e| e.to_string())?;
//!     let delay = &report.column("delay").ok_or("delay column")?.aggregate;
//!     println!("{} × {} -> Δψ/p_tot {delay}", cell.workload, cell.scheduler);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! To add your own policy, workload family or fairness index, implement
//! [`core::spec::Factory`] (name, summary, parameters and the
//! `conformance_specs` the workspace conformance suite exercises
//! automatically) plus the axis's build trait —
//! [`core::scheduler::SchedulerFactory`], [`workloads::WorkloadFactory`]
//! or [`sim::MetricFactory`] — and [`core::spec::Registry::register`] it
//! in a registry of your own. Sessions resolve workloads and metrics
//! through the shared built-in registries; your registry is used through
//! [`sim::Report::evaluate`] for metrics, [`sim::Simulation::registry`]
//! for schedulers, and its own `build` for workloads (hand the trace to
//! [`sim::Simulation::new`]).

pub use coopgame;
pub use fairsched_core as core;
pub use fairsched_experiment as experiment;
pub use fairsched_serve as serve;
pub use fairsched_sim as sim;
pub use fairsched_workloads as workloads;

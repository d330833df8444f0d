//! Workload substrate for the fair-scheduling experiments.
//!
//! The paper's evaluation (Section 7.2) replays four logs from the Parallel
//! Workload Archive — LPC-EGEE, PIK-IPLEX, RICC and SHARCNET-Whale — with
//! parallel jobs expanded into sequential copies, user identifiers
//! distributed uniformly over organizations, and machines split between
//! organizations by Zipf or uniform counts.
//!
//! The archive logs themselves are external data; this crate supplies both
//! halves of the substitution documented in DESIGN.md:
//!
//! * [`swf`] — a full parser/writer for the Standard Workload Format, so
//!   real archive logs can be dropped in unchanged, and
//! * [`synth`] — seeded synthetic generators reproducing the statistical
//!   shape the experiments depend on (bursty per-user sessions, Zipf user
//!   activity, heavy-tailed durations, tunable load), with per-log
//!   [`presets`] matching the four systems' published scale (processors,
//!   users) and load regime.
//!
//! [`assign`] converts either source into a multi-organization
//! [`fairsched_core::Trace`]: users → organizations uniformly, machines →
//! organizations by Zipf/uniform/equal splits.
//!
//! # Spec-addressable workloads
//!
//! Every workload is reachable by a **spec string** through
//! [`spec::WorkloadRegistry`], the workload instance of the generic
//! `fairsched_core::spec` registry — so an experiment matrix (workloads ×
//! schedulers) is pure data:
//!
//! | spec | meaning |
//! |---|---|
//! | `synth:preset=ricc,scale=0.5,orgs=8` | synthetic RICC-shaped workload at half scale, 8 organizations |
//! | `synth:preset=lpc,scale=0.1,split=uniform` | LPC-EGEE shape, machines split uniformly instead of Zipf |
//! | `swf:path=/logs/lpc.swf,start=0,end=86400` | replay the first day of a real archive log |
//! | `fpt:k=8` | the lattice-bench FPT growth family at 8 organizations |
//! | `trace:path=/scenarios/burst.json` | replay a serialized trace verbatim ([`spec::write_trace_json`] exports one) |
//!
//! ```
//! use fairsched_workloads::spec::{WorkloadContext, WorkloadRegistry};
//!
//! let trace = WorkloadRegistry::shared()
//!     .build_str("synth:horizon=1500,orgs=3,preset=lpc,scale=0.08",
//!                &WorkloadContext { seed: 7 })
//!     .unwrap();
//! assert_eq!(trace.n_orgs(), 3);
//! ```
//!
//! The grammar (`name[:key=value,...]`, sorted canonical parameters,
//! `Display`/`FromStr` round-tripping exactly) is shared with scheduler
//! specs via [`fairsched_core::spec`]. See [`spec`] for the full parameter
//! tables and the [`spec::WorkloadFactory`] registration surface; every
//! registered factory — built-in or downstream — is exercised by the
//! workspace conformance suite (`tests/spec_conformance.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// clippy.toml exempts test code from `unwrap_used`, `expect_used` and
// `panic`; the other three panic-site lints and the crate's clippy.toml
// bans (`disallowed_*`) have no such setting.
#![cfg_attr(test, allow(clippy::todo, clippy::unimplemented, clippy::unreachable))]
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod assign;
pub mod presets;
pub mod spec;
pub mod swf;
pub mod synth;

pub use assign::{to_trace, MachineSplit, UserJob};
pub use presets::{preset, Preset, PresetName};
pub use spec::{
    synth_spec, trace_to_json, write_trace_json, WorkloadContext, WorkloadError,
    WorkloadFactory, WorkloadKind, WorkloadRegistry, WorkloadSpec,
};
pub use synth::{generate, SynthConfig};

/// A fresh, empty directory for one test under the system temp dir. Its
/// name carries the process id and a per-process counter, so neither two
/// test runs nor two tests of one run ever share it.
#[cfg(test)]
pub(crate) fn scratch_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("fairsched-workloads-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

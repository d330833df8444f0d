//! # fairsched-serve — the online scheduling daemon
//!
//! The batch engine answers "what would the fair schedule have been";
//! this crate answers "what is it *now*": a daemon that owns a resumable
//! [`fairsched_sim::SimSession`], accepts jobs while the clock runs, and
//! survives `kill -9` without changing a byte of the schedule it builds.
//!
//! Three pieces, each std-only (no async runtime, no network deps):
//!
//! * [`SubmissionQueue`] — a journaled file queue under
//!   `dir/queue/{inbox,accepted,results}/`. Producers commit messages
//!   into the inbox with the shared write-then-rename idiom
//!   ([`fairsched_core::journal`]); the daemon renames them into the
//!   `accepted/` journal, which assigns the total order everything else
//!   replays.
//! * [`Daemon`] — the control loop: drain inbox → apply to session →
//!   write result, with a snapshot every 64 applied messages and on
//!   `stop`. Recovery is *journal ∘ snapshot = state*: restore the
//!   snapshot, replay the accepted tail (at most 64 files), continue.
//! * [`HttpServer`] — a minimal `std::net` listener serving the cached
//!   [`Endpoints`] documents (`GET /status`, `/report`, `/series`).
//!
//! Driven by `fairsched serve --dir D` and `fairsched submit --dir D …`;
//! see `docs/SERVE.md` for the protocol and an end-to-end walkthrough.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// clippy.toml exempts test code from `unwrap_used`, `expect_used` and
// `panic`; the other three panic-site lints and the crate's clippy.toml
// bans (`disallowed_*`) have no such setting.
#![cfg_attr(test, allow(clippy::todo, clippy::unimplemented, clippy::unreachable))]
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod daemon;
pub mod http;
pub mod message;
pub mod queue;

pub use daemon::{Daemon, ServeConfig, ServeError, CONFIG_SCHEMA, SNAPSHOT_SCHEMA};
pub use http::{Endpoints, HttpServer};
pub use message::Message;
pub use queue::SubmissionQueue;

/// A fresh, empty directory for one test under the system temp dir. Its
/// name carries the process id and a per-process counter, so neither two
/// test runs nor two tests of one run ever share it.
#[cfg(test)]
pub(crate) fn scratch_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("fairsched-serve-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

//! The tracked lattice perf baseline.
//!
//! The paper's evaluation grids (delay tables, Figure 10, the unfairness
//! trajectory) are committed experiment specs under `paper/`, run by
//! `fairsched experiment run paper/<artifact>.experiment.json`; its
//! worked examples and theorems are asserted by tests (see
//! `docs/EXPERIMENTS.md`). This crate holds the one binary that is
//! neither:
//!
//! | binary | artifact |
//! |---|---|
//! | `bench_baseline` | `BENCH_lattice.json` — the tracked lattice perf baseline and its regression gate (see [`baseline`]) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// clippy.toml exempts test code from `unwrap_used`, `expect_used` and
// `panic`; the other three panic-site lints and the crate's clippy.toml
// bans (`disallowed_*`) have no such setting.
#![cfg_attr(test, allow(clippy::todo, clippy::unimplemented, clippy::unreachable))]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod baseline;

//! The four lint rule families.
//!
//! Every rule produces [`crate::Finding`]s with a stable rule id — the id
//! is what `lint_allow.toml`, `lint_ratchet.toml`, and inline
//! `lint:allow(...)` comments key on:
//!
//! | id               | family                                              |
//! |------------------|-----------------------------------------------------|
//! | `time-arith`     | raw `*`/`+` on `Time`/`Frac`-typed values           |
//! | `spec-literal`   | spec-string literals vs the live registries         |
//! | `hygiene`        | golden / bench JSON schema, orphan goldens, and the |
//! |                  | per-lint ceiling on `#[expect(clippy::…)]` sites    |
//! | `schema-version` | `fairsched-*/vN` literals vs `schema_registry.toml` |
//!
//! Each checks what no compiler sees: data files, string literals, and
//! the `Time` alias. Panic sites, clock reads, entropy, hash-ordered
//! collections and raw file writes are clippy's (see
//! `docs/STATIC_ANALYSIS.md`).

pub mod hygiene;
pub mod schema_version;
pub mod spec_literals;
pub mod time_arith;

/// Rule id for the `Time` arithmetic widening family.
pub const TIME_ARITH: &str = "time-arith";
/// Rule id for the spec-literal validity family.
pub const SPEC_LITERAL: &str = "spec-literal";
/// Rule id for golden/bench hygiene.
pub const HYGIENE: &str = "hygiene";
/// Rule id for the schema-version registry family.
pub const SCHEMA_VERSION: &str = "schema-version";

/// All rule ids, in reporting order.
pub const ALL_RULES: [&str; 4] = [TIME_ARITH, SPEC_LITERAL, HYGIENE, SCHEMA_VERSION];

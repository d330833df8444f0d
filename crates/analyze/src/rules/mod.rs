//! The six lint rule families.
//!
//! Every rule produces [`crate::Finding`]s with a stable rule id — the id
//! is what `lint_allow.toml`, `lint_ratchet.toml`, and inline
//! `lint:allow(...)` comments key on:
//!
//! | id               | family                                              |
//! |------------------|-----------------------------------------------------|
//! | `time-arith`     | raw `*`/`+` on `Time`/`Frac`-typed values           |
//! | `spec-literal`   | spec-string literals vs the live registries         |
//! | `hygiene`        | golden / bench JSON schema and orphan goldens       |
//! | `determinism`    | clock/entropy reads and hash iteration in replay-   |
//! |                  | critical code (semantic, symbol-graph-backed)       |
//! | `durability`     | raw fs writes that bypass `fairsched_core::journal` |
//! | `schema-version` | `fairsched-*/vN` literals vs `schema_registry.toml` |
//!
//! The last three are the *semantic* passes: they consult the
//! [workspace symbol graph](crate::symbols) (imports, item tables,
//! test classification) rather than raw token shapes alone.

pub mod determinism;
pub mod durability;
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
/// Rule id for the replay-determinism family.
pub const DETERMINISM: &str = "determinism";
/// Rule id for the journaled-write durability family.
pub const DURABILITY: &str = "durability";
/// Rule id for the schema-version registry family.
pub const SCHEMA_VERSION: &str = "schema-version";

/// All rule ids, in reporting order.
pub const ALL_RULES: [&str; 6] =
    [TIME_ARITH, SPEC_LITERAL, HYGIENE, DETERMINISM, DURABILITY, SCHEMA_VERSION];

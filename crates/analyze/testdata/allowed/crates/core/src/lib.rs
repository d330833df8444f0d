//! Allowlist fixture: two seeded `time-arith` sites, fully covered by
//! the fixture's `lint_allow.toml`.

pub fn covered_one(horizon: Time, i: u64) -> Time {
    horizon * i
}

pub fn covered_two(start: Time, proc_time: Time) -> Time {
    start + proc_time
}

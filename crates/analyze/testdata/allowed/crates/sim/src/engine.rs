//! Clean fixture for the semantic rules: a schema literal registered
//! with a live decode test, and one deliberate clippy exception at its
//! `[expect]` ceiling.

pub const ENGINE_SCHEMA: &str = "fairsched-engine-state/v1";

#[expect(clippy::unwrap_used, reason = "at the fixture's ceiling of 1")]
pub fn at_the_ceiling() -> u64 {
    parse().unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn state_round_trips() {
        assert!(decode(super::ENGINE_SCHEMA).is_ok());
    }
}

//! Seeded `schema-version` and `hygiene` violations: an unregistered
//! schema literal and a deliberate clippy exception over its ceiling.
//! The fixture is lexed, never compiled — undefined names are fine.

pub const ENGINE_SCHEMA: &str = "fairsched-engine-state/v1";

#[expect(clippy::unwrap_used, reason = "over the fixture's ceiling of 0")]
pub fn over_the_ceiling() -> u64 {
    parse().unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn journal_round_trips() {
        // Keeps the registered fairsched-engine-journal/v1 id alive and
        // is the decode test the fixture registry points at.
        assert!(decode("fairsched-engine-journal/v1").is_ok());
    }

    #[expect(clippy::unwrap_used, reason = "test code is not counted")]
    fn test_scope_is_exempt() {}
}

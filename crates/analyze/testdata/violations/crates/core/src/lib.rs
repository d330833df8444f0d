//! Seeded-violation fixture: every library-code rule must fire on this
//! file.

pub fn bad_time_product(horizon: Time, i: u64) -> Time {
    horizon * i
}

pub fn bad_time_sum(start: Time, proc_time: Time) -> Time {
    start + proc_time
}

pub fn allowed_time_product(horizon: Time, i: u64) -> Time {
    // lint:allow(time-arith) seeded inline-allow coverage
    horizon * i
}

pub fn bad_spec() -> &'static str {
    "nosuchfamily:k=1"
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_scope_is_exempt() {
        let h: Time = 10;
        assert_eq!(h * 2, 20);
    }
}

//! Order statistics over timing samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); 0 for no
/// samples, so an unmeasured per-layer metric reads 0.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail latency to report beside a median: the largest sample that
/// still has `beyond` samples above it. With ten beyond, that is p99 of
/// 1 000 samples and p97.5 of 400.
pub fn tail(values: &[f64], beyond: usize) -> f64 {
    let v = sorted(values);
    match v.len().checked_sub(beyond + 1) {
        Some(at) => v[at],
        None => v.first().copied().unwrap_or(0.0),
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), which is what the acceptance rule for
/// this benchmark is stated in. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance rule compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_of_a_thousand_keeps_ten_beyond() {
        let values: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let p99 = tail(&values, 10);
        assert_eq!(p99, 989.0);
        assert_eq!(values.iter().filter(|&&v| v > p99).count(), 10);
        let four_hundred: Vec<f64> = (0..400).map(f64::from).collect();
        assert_eq!(tail(&four_hundred, 10), 389.0);
        assert_eq!(tail(&[7.0, 3.0], 10), 3.0);
        assert_eq!(tail(&[], 10), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert_eq!(spread(&values), 1.0);
    }
}

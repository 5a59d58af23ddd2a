//! Exact-sample statistics. Every sample is kept; quantiles come from the
//! sorted samples (no histogram buckets, no min-of-rounds), and every
//! reported number carries the count of samples behind it.

/// One reported number: name, value, unit and how many samples it
/// summarizes.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

/// A sorted copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` ∈ [0, 1] of already-sorted samples, interpolating
/// linearly between the two closest ranks (position `q·(n−1)`); `NaN`
/// when there are none.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median (the mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// The highest quantile of sorted samples that still has at least ten
/// samples beyond it — p99 from 1000 samples, p90 from 100 — else the
/// third quartile, which a single slow sample cannot move far; returned
/// with its label.
pub fn tail(sorted: &[f64]) -> (&'static str, f64) {
    match sorted.len() {
        n if n >= 1000 => ("p99", quantile_sorted(sorted, 0.99)),
        n if n >= 100 => ("p90", quantile_sorted(sorted, 0.90)),
        _ => ("p75", quantile_sorted(sorted, 0.75)),
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(samples, n=4)` computes them (its default
/// "exclusive" method); `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let d = sorted(samples);
    let ld = d.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: how far a figure
/// moves from run to run, which a regression bound must exceed.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    Some((q3 - q1) / median(samples))
}

/// Tracing overhead: the traced samples' median over the untraced
/// samples' median, minus one; 0 when either side is empty.
pub fn overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    if traced.is_empty() || untraced.is_empty() {
        return 0.0;
    }
    median(traced) / median(untraced) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert!((quantile_sorted(&s, 0.99) - 3.97).abs() < 1e-12);
        assert!(quantile_sorted(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let small: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(tail(&small), ("p75", 7.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let (label, v) = tail(&hundred);
        assert_eq!(label, "p90");
        assert!((v - 90.1).abs() < 1e-9);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (label, v) = tail(&thousand);
        assert_eq!(label, "p99");
        assert!((v - 990.01).abs() < 1e-9);
    }

    #[test]
    fn quartiles_and_spread_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 10.5, 11, 9.5, 10], n=4) == [9.75, 10.0, 10.75]
        let w = [10.0, 10.5, 11.0, 9.5, 10.0];
        assert_eq!(quartiles(&w), Some((9.75, 10.75)));
        assert_eq!(spread(&w), Some(0.1));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn overhead_compares_medians() {
        assert!((overhead(&[11.0, 11.0], &[10.0, 10.0, 10.0]) - 0.1).abs() < 1e-12);
        assert_eq!(overhead(&[], &[1.0]), 0.0);
    }
}

//! Experiment metrics: streaming summary statistics and time series.
//!
//! [`TimeSeries`] carries the network simulator's uptime and rate series
//! (`mmtag::network`); [`Summary`] is a Welford mean/standard-deviation
//! accumulator.

use crate::time::Instant;

/// Streaming summary statistics (Welford's algorithm): mean and variance
/// without storing samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }
    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }
    /// Sample standard deviation (0 for fewer than two samples).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }
    /// Minimum sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }
    /// Maximum sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// A time series of (instant, value) points for rate/uptime plots.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(Instant, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point. Timestamps must be non-decreasing.
    ///
    /// # Panics
    /// Panics on out-of-order timestamps — simulations produce ordered data
    /// by construction, so disorder is a bug.
    pub fn push(&mut self, t: Instant, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "time series must be ordered");
        }
        self.points.push((t, value));
    }

    /// The points.
    pub fn points(&self) -> &[(Instant, f64)] {
        &self.points
    }

    /// Time-weighted average over the series span (each value holds until
    /// the next timestamp). `None` with fewer than two points.
    pub fn time_weighted_mean(&self) -> Option<f64> {
        if self.points.len() < 2 {
            return None;
        }
        let mut acc = 0.0;
        let mut dur = 0.0;
        for w in self.points.windows(2) {
            let dt = w[1].0.duration_since(w[0].0).as_secs_f64();
            acc += w[0].1 * dt;
            dur += dt;
        }
        (dur > 0.0).then(|| acc / dur)
    }

    /// Fraction of time the value was strictly positive (link-uptime metric).
    pub fn fraction_positive(&self) -> Option<f64> {
        if self.points.len() < 2 {
            return None;
        }
        let mut up = 0.0;
        let mut dur = 0.0;
        for w in self.points.windows(2) {
            let dt = w[1].0.duration_since(w[0].0).as_secs_f64();
            if w[0].1 > 0.0 {
                up += dt;
            }
            dur += dt;
        }
        (dur > 0.0).then(|| up / dur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn summary_matches_closed_form() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample std dev of this classic dataset is √(32/7).
        assert!((s.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn time_series_weighted_mean() {
        let mut ts = TimeSeries::new();
        ts.push(Instant::ZERO, 10.0);
        ts.push(Instant::ZERO + Duration::from_secs(1), 0.0);
        ts.push(Instant::ZERO + Duration::from_secs(3), 0.0);
        // 10 for 1 s, then 0 for 2 s ⇒ mean 10/3.
        assert!((ts.time_weighted_mean().unwrap() - 10.0 / 3.0).abs() < 1e-12);
        // Positive for 1 of 3 seconds.
        assert!((ts.fraction_positive().unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_point_series_has_no_mean() {
        let mut ts = TimeSeries::new();
        ts.push(Instant::ZERO, 5.0);
        assert!(ts.time_weighted_mean().is_none());
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn out_of_order_series_is_a_bug() {
        let mut ts = TimeSeries::new();
        ts.push(Instant::from_nanos(10), 1.0);
        ts.push(Instant::from_nanos(5), 2.0);
    }
}

//! Experiment metrics: time series.
//!
//! [`TimeSeries`] carries the network simulator's uptime and rate series
//! (`mmtag::network`).

use crate::time::Instant;

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
    fn time_series_fraction_positive() {
        let mut ts = TimeSeries::new();
        ts.push(Instant::ZERO, 10.0);
        ts.push(Instant::ZERO + Duration::from_secs(1), 0.0);
        ts.push(Instant::ZERO + Duration::from_secs(3), 0.0);
        // Positive for 1 of 3 seconds.
        assert!((ts.fraction_positive().unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_point_series_has_no_mean() {
        let mut ts = TimeSeries::new();
        ts.push(Instant::ZERO, 5.0);
        assert!(ts.fraction_positive().is_none());
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn out_of_order_series_is_a_bug() {
        let mut ts = TimeSeries::new();
        ts.push(Instant::from_nanos(10), 1.0);
        ts.push(Instant::from_nanos(5), 2.0);
    }
}

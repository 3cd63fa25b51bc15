//! Exact percentiles over every sample, at nanosecond resolution.
//!
//! Every sample is kept, so a percentile is exact (nearest rank), and a
//! percentile is only published when at least [`MIN_BEYOND`] samples lie
//! beyond it: with fewer, one outlier more or less moves it arbitrarily.

use std::time::Duration;

/// Samples that must lie beyond a percentile before it is published.
pub const MIN_BEYOND: usize = 10;

/// Durations in nanoseconds, all kept.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// Records one duration.
    pub fn record(&mut self, d: Duration) {
        self.ns
            .push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Appends every sample of `other`.
    pub fn merge(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    /// The `p`-quantile (`0 < p < 1`) by nearest rank, in nanoseconds, or
    /// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
    pub fn quantile_ns(&mut self, p: f64) -> Option<u64> {
        let n = self.ns.len();
        // 1-based nearest rank: the smallest sample with at least p·n
        // samples at or below it.
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
        if n == 0 || n - rank < MIN_BEYOND {
            return None;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        Some(self.ns[rank - 1])
    }

    /// [`quantile_ns`](Samples::quantile_ns) in milliseconds.
    pub fn quantile_ms(&mut self, p: f64) -> Option<f64> {
        self.quantile_ns(p).map(|ns| ns as f64 / 1e6)
    }

    /// [`quantile_ns`](Samples::quantile_ns) in microseconds.
    pub fn quantile_us(&mut self, p: f64) -> Option<f64> {
        self.quantile_ns(p).map(|ns| ns as f64 / 1e3)
    }

    /// Sum of all samples.
    #[cfg(test)]
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.ns.iter().sum())
    }
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: u64) -> Samples {
        let mut s = Samples::default();
        // Recorded in reverse so the quantile has to sort.
        for i in (1..=n).rev() {
            s.record(Duration::from_nanos(i));
        }
        s
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        assert_eq!(samples(1000).quantile_ns(0.99), Some(990));
        // One sample fewer leaves nine beyond rank 990.
        assert_eq!(samples(999).quantile_ns(0.99), None);
        // The median needs twenty samples; p90 needs a hundred.
        assert_eq!(samples(20).quantile_ns(0.5), Some(10));
        assert_eq!(samples(19).quantile_ns(0.5), None);
        assert_eq!(samples(100).quantile_ns(0.9), Some(90));
        assert_eq!(samples(99).quantile_ns(0.9), None);
        assert_eq!(Samples::default().quantile_ns(0.5), None);
    }

    #[test]
    fn quantiles_are_exact_at_nanosecond_resolution() {
        let mut s = Samples::default();
        for ns in [1_001, 1_003, 1_002, 1_000].repeat(10) {
            s.record(Duration::from_nanos(ns));
        }
        assert_eq!(s.quantile_ns(0.5), Some(1_001));
        assert_eq!(s.quantile_us(0.5), Some(1.001));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }
}

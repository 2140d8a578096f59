//! Streaming measurement primitives.
//!
//! Experiments run for (simulated) hours at tens of requests per second, so
//! per-sample storage is wasteful. This module provides [`Welford`] for
//! mean/variance and [`Summary`], which pairs it with the recorder's
//! exactly-mergeable [`LogHistogram`] for a response-time series'
//! percentiles.

use crate::recorder::LogHistogram;
use crate::time::SimDuration;

/// The 1-based nearest rank for quantile `q` over `total` samples:
/// `⌈q·total⌉` clamped into `[1, total]`, or 0 when the series is empty.
///
/// This is *the* quantile-rank rule of the workspace: [`LogHistogram`]
/// resolves ranks through it, and every [`Summary`] percentile and
/// report/bench percentile table reads a `LogHistogram`, so "p95" means the
/// same sample everywhere.
pub fn nearest_rank(total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total)
}

/// Count-weighted mean over `(mean, count)` parts; `None` when every part
/// is empty. Pools per-group response-time means into a population mean
/// without re-walking samples.
pub fn weighted_mean(parts: impl IntoIterator<Item = (f64, u64)>) -> Option<f64> {
    let mut total = 0.0;
    let mut n = 0u64;
    for (mean, count) in parts {
        total += mean * count as f64;
        n += count;
    }
    if n == 0 {
        None
    } else {
        Some(total / n as f64)
    }
}

/// Welford's online algorithm for mean and variance.
///
/// ```
/// use mutsvc_desim::metrics::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 6.0] {
///     w.record(x);
/// }
/// assert_eq!(w.mean(), 4.0);
/// assert_eq!(w.variance(), 4.0); // sample variance
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample. Non-finite samples are ignored (and debug-asserted).
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite sample {x}");
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A bundle of estimators for one measured series (e.g. one page's response
/// time for one client group): [`Welford`] moments plus a [`LogHistogram`]
/// for the median, p95 and p99.
///
/// Both halves merge exactly — moments by the parallel Welford formula,
/// buckets by integer addition — so a summary folded from shards reports
/// the single stream's count, min, max and percentiles, and its mean and
/// standard deviation up to float rounding. Percentiles are the histogram's
/// nearest-rank bucket upper bounds clamped to the exact `[min, max]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    welford: Welford,
    hist: LogHistogram,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            welford: Welford::new(),
            hist: LogHistogram::new(),
        }
    }

    /// Records one non-negative sample (typically milliseconds). A
    /// non-finite sample is dropped before either half sees it (and
    /// debug-asserted), so the moments and the histogram count the same
    /// samples.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite sample {x}");
        if !x.is_finite() {
            return;
        }
        self.welford.record(x);
        self.hist.record(x);
    }

    /// Records a duration sample in milliseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_millis_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.welford.count()
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.welford.mean()
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.welford.std_dev()
    }

    /// The nearest-rank quantile `q` (0 if empty).
    fn quantile(&self, q: f64) -> f64 {
        self.hist
            .quantile(q)
            .clamp(self.welford.min(), self.welford.max())
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.welford.min()
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.welford.max()
    }

    /// Merges another summary into this one (see the type docs for what
    /// stays exact).
    pub fn merge(&mut self, other: &Summary) {
        self.welford.merge(&other.welford);
        self.hist.merge(&other.hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_clamped_and_ceiled() {
        assert_eq!(nearest_rank(0, 0.5), 0);
        assert_eq!(nearest_rank(10, 0.0), 1);
        assert_eq!(nearest_rank(10, 1.0), 10);
        assert_eq!(nearest_rank(10, 0.95), 10);
        assert_eq!(nearest_rank(100, 0.95), 95);
        assert_eq!(nearest_rank(3, 0.5), 2);
        // Out-of-range quantiles clamp instead of indexing out of bounds.
        assert_eq!(nearest_rank(10, -1.0), 1);
        assert_eq!(nearest_rank(10, 2.0), 10);
    }

    #[test]
    fn weighted_mean_pools_by_count() {
        assert_eq!(weighted_mean([]), None);
        assert_eq!(weighted_mean([(5.0, 0)]), None);
        assert_eq!(weighted_mean([(10.0, 1), (20.0, 3)]), Some(17.5));
        assert_eq!(weighted_mean([(4.0, 2), (0.0, 0)]), Some(4.0));
    }

    #[test]
    fn welford_matches_two_pass() {
        let data: Vec<f64> = (1..=100).map(|i| (i as f64).sin() * 10.0 + 50.0).collect();
        let mut w = Welford::new();
        for &x in &data {
            w.record(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-9);
        assert!((w.variance() - var).abs() < 1e-9);
        assert_eq!(w.count(), 100);
    }

    #[test]
    fn welford_merge_equals_single_stream() {
        let data: Vec<f64> = (0..500).map(|i| (i as f64 * 0.37).cos() * 3.0).collect();
        let mut all = Welford::new();
        let mut a = Welford::new();
        let mut b = Welford::new();
        for (i, &x) in data.iter().enumerate() {
            all.record(x);
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn empty_accumulators_report_zero() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), 0.0);
        assert_eq!(w.max(), 0.0);
        assert_eq!(Summary::new().p95(), 0.0);
    }

    #[test]
    fn summary_quantiles_are_bucket_bounds_clamped_to_the_range() {
        // One sample: every percentile is the sample itself, not its
        // bucket's upper bound (44).
        let mut one = Summary::new();
        one.record(42.0);
        assert_eq!((one.p50(), one.p95(), one.p99()), (42.0, 42.0, 42.0));
        // 1..=100: p50 is the upper bound of 50's bucket [48, 52); p99's
        // bucket [96, 104) is clamped to the largest sample.
        let mut s = Summary::new();
        for x in 1..=100 {
            s.record(f64::from(x));
        }
        assert_eq!(s.p50(), 52.0);
        assert_eq!(s.p99(), 100.0);
    }

    #[test]
    fn summary_tracks_duration_samples() {
        let mut s = Summary::new();
        for ms in 1..=99u64 {
            s.record_duration(SimDuration::from_millis(ms));
        }
        assert_eq!(s.count(), 99);
        assert!((s.mean() - 50.0).abs() < 1e-9);
        assert!((s.p50() - 50.0).abs() < 5.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 99.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn welford_mean_within_bounds(xs in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
                let mut w = Welford::new();
                for &x in &xs {
                    w.record(x);
                }
                let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(w.mean() >= lo - 1e-6 && w.mean() <= hi + 1e-6);
                prop_assert!(w.variance() >= -1e-9);
            }

            #[test]
            fn summary_merge_approximates_single_stream(xs in proptest::collection::vec(0f64..1e4, 1..400)) {
                let mut single = Summary::new();
                for &x in &xs {
                    single.record(x);
                }
                let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
                // Round-robin shards merged in part order, as the parallel
                // engine folds shard reports at 1/2/4/8 threads.
                for parts in [1usize, 2, 4, 8] {
                    let mut shards = vec![Summary::new(); parts];
                    for (i, &x) in xs.iter().enumerate() {
                        shards[i % parts].record(x);
                    }
                    let mut merged = Summary::new();
                    for s in &shards {
                        merged.merge(s);
                    }
                    prop_assert_eq!(merged.count(), single.count());
                    prop_assert_eq!(merged.min(), single.min());
                    prop_assert_eq!(merged.max(), single.max());
                    prop_assert_eq!(merged.p50(), single.p50());
                    prop_assert_eq!(merged.p95(), single.p95());
                    prop_assert_eq!(merged.p99(), single.p99());
                    prop_assert!(close(merged.mean(), single.mean()), "{} parts: mean {} vs {}", parts, merged.mean(), single.mean());
                    prop_assert!(close(merged.std_dev(), single.std_dev()), "{} parts: std dev {} vs {}", parts, merged.std_dev(), single.std_dev());
                    for e in [merged.p50(), merged.p95(), merged.p99()] {
                        prop_assert!(e >= lo && e <= hi, "merged quantile {} outside [{}, {}]", e, lo, hi);
                    }
                }
            }
        }
    }
}

//! Windowed time-series recording on exactly-mergeable log-bucketed
//! histograms.
//!
//! [`crate::metrics::Summary`] answers "what was the distribution over the
//! whole run"; the adaptive-placement roadmap needs "what was it in *this
//! 30-second window*", per page and per WAN link, as the feedback signal a
//! controller would consume. Both read the same [`LogHistogram`], the
//! workspace's one distribution type. Two requirements shape this module:
//!
//! 1. **Exact shard-merge.** The conservative-parallel engine runs one
//!    recorder per shard and folds them in ascending shard order; the merged
//!    series must be byte-identical at any thread count. [`LogHistogram`]
//!    therefore fixes its bucket boundaries once, globally, derives the
//!    bucket index from the IEEE-754 bit pattern of the sample (exponent
//!    plus the top three mantissa bits — eight sub-buckets per octave), and
//!    stores nothing but integer bucket counts. Merge is per-bucket `u64`
//!    addition: associative, commutative, and exactly equal to single-stream
//!    recording, with no float summation order to drift.
//!
//! 2. **Fixed windows.** [`Recorder`] registers counter / gauge / histogram
//!    series up front and rolls them at a fixed sim-time cadence: window `k`
//!    covers `[k·w, (k+1)·w)` and is closed by [`Recorder::roll`], driven
//!    from a typed simulation event at that cadence. Counters and histograms
//!    reset each window (rows carry per-window deltas); gauges persist and
//!    each row carries the value sampled at the roll. Only complete windows
//!    are reported — a trailing partial window is discarded.
//!
//! Merging sums counters, histogram buckets *and gauges* across shard
//! replicas (a gauge like queue depth is per-shard state, and the sum over
//! shards is the fleet-wide value).
//! See DESIGN.md §6.7 for the bucket scheme and the merge proof sketch.

use crate::metrics::nearest_rank;
use crate::time::SimDuration;

/// Sub-bucket resolution: 2³ = 8 sub-buckets per octave (≤ 12.5% relative
/// bucket width).
const SUB_BITS: u32 = 3;
const SUBS: i32 = 1 << SUB_BITS;
/// Smallest bucketed magnitude: 2⁻¹⁰ ≈ 0.001 (about a microsecond when
/// samples are milliseconds). Anything smaller lands in the underflow
/// bucket.
const MIN_EXP: i32 = -10;
/// Largest bucketed octave: values in `[2³⁰, 2³¹)` (~12–25 days in
/// milliseconds). Anything at or above `2³¹` lands in the overflow bucket.
const MAX_EXP: i32 = 30;
/// 2^MIN_EXP, the underflow boundary.
const MIN_VALUE: f64 = 0.0009765625;
/// 2^(MAX_EXP + 1), the overflow boundary.
const MAX_VALUE: f64 = 2147483648.0;
/// Total bucket count: 41 octaves × 8 sub-buckets, plus underflow and
/// overflow.
const BUCKET_COUNT: usize = ((MAX_EXP - MIN_EXP + 1) * SUBS) as usize + 2;

/// 2^e for exponents within the bucketed range (exact, via the bit pattern).
fn exp2(e: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&e));
    f64::from_bits(((1023 + e) as u64) << 52)
}

/// A histogram over fixed, process-global logarithmic buckets.
///
/// Every `LogHistogram` in the workspace shares one geometry, so any two can
/// merge exactly — there is no bucket-boundary negotiation and no stored
/// float state. The bucket for a sample is computed from its IEEE-754 bits:
/// the unbiased exponent selects the octave and the top three mantissa bits
/// the sub-bucket, giving bucket edges at `2ᵉ·(1 + s/8)`.
///
/// ```
/// use mutsvc_desim::recorder::LogHistogram;
///
/// let mut a = LogHistogram::new();
/// let mut b = LogHistogram::new();
/// a.record(120.0);
/// b.record(450.0);
/// a.merge(&b);
/// assert_eq!(a.total(), 2);
/// assert!(a.quantile(1.0) >= 450.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    /// Dense bucket counts. Empty until the first sample lands — the
    /// recorder re-creates every histogram at each window roll, and most
    /// of those never see the allocation. The invariant `counts` is dense
    /// iff `total > 0` is maintained by [`LogHistogram::record`] and
    /// [`LogHistogram::merge`], which keeps the derived `PartialEq`
    /// representation-independent.
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram. Allocation-free: the bucket array is
    /// only materialized when the first sample lands.
    pub fn new() -> Self {
        LogHistogram {
            counts: Vec::new(),
            total: 0,
        }
    }

    /// Materializes the dense bucket array before the first write.
    fn ensure_buckets(&mut self) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKET_COUNT];
        }
    }

    /// The bucket index a sample falls into. Non-finite, negative, and
    /// sub-`MIN_VALUE` samples share the underflow bucket 0; samples at or
    /// above `2³¹` share the overflow bucket.
    pub fn bucket_index(x: f64) -> usize {
        if x.is_nan() || x < MIN_VALUE {
            return 0;
        }
        if x >= MAX_VALUE {
            return BUCKET_COUNT - 1;
        }
        let bits = x.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
        let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as i32;
        (1 + (exp - MIN_EXP) * SUBS + sub) as usize
    }

    /// `[lower, upper)` bounds of bucket `idx`. The underflow bucket is
    /// `[0, 2⁻¹⁰)`; the overflow bucket's upper bound is `+∞`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn bucket_bounds(idx: usize) -> (f64, f64) {
        assert!(idx < BUCKET_COUNT, "bucket index {idx} out of range");
        if idx == 0 {
            return (0.0, MIN_VALUE);
        }
        if idx == BUCKET_COUNT - 1 {
            return (MAX_VALUE, f64::INFINITY);
        }
        let i = (idx - 1) as i32;
        let base = exp2(MIN_EXP + i / SUBS);
        let sub = (i % SUBS) as f64;
        let width = SUBS as f64;
        (
            base * (1.0 + sub / width),
            base * (1.0 + (sub + 1.0) / width),
        )
    }

    /// Records one sample (typically milliseconds). Negative or non-finite
    /// samples are debug-asserted and counted in the underflow bucket so
    /// totals stay conserved.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite() && x >= 0.0, "bad histogram sample {x}");
        self.ensure_buckets();
        self.counts[Self::bucket_index(x)] += 1;
        self.total += 1;
    }

    /// Records a duration sample in milliseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_millis_f64());
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Iterates `(bucket_index, count)` for non-empty buckets only — the
    /// sparse form exporters serialize.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Nearest-rank quantile resolved to the bucket's upper bound (the
    /// tightest value the histogram can certify the rank is below). Ranks
    /// landing in the overflow bucket report its finite lower bound. 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let target = nearest_rank(self.total, q);
        if target == 0 {
            return 0.0;
        }
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                let (lo, hi) = Self::bucket_bounds(i);
                return if hi.is_finite() { hi } else { lo };
            }
        }
        unreachable!("total is the sum of bucket counts");
    }

    /// Samples the histogram can certify are `>= threshold`: the counts of
    /// every bucket whose lower bound is at or above it. Samples sharing the
    /// threshold's own bucket are conservatively counted as under the
    /// threshold, so SLO burn never over-reports from bucket granularity.
    pub fn count_over(&self, threshold: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let idx = Self::bucket_index(threshold);
        let from = if Self::bucket_bounds(idx).0 >= threshold {
            idx
        } else {
            idx + 1
        };
        self.counts[from.min(BUCKET_COUNT)..].iter().sum()
    }

    /// Merges another histogram into this one by per-bucket addition —
    /// exact, associative, and commutative, because the geometry is global
    /// and no float state is kept.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.total == 0 {
            return;
        }
        self.ensure_buckets();
        for (c, &o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.total += other.total;
    }
}

/// Handle for a registered counter series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle for a registered gauge series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Handle for a registered histogram series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(u32);

/// One closed window of every registered series: counter deltas, gauge
/// values sampled at the roll, and per-window histograms, each indexed in
/// registration order. Window `index` covers sim-time
/// `[index·w, (index+1)·w)`.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRow {
    /// Zero-based window number.
    pub index: u64,
    /// Per-window counter deltas, in counter registration order.
    pub counters: Vec<u64>,
    /// Gauge values at the window's closing roll, in registration order.
    pub gauges: Vec<f64>,
    /// Per-window histograms, in registration order.
    pub hists: Vec<LogHistogram>,
}

/// A registry of named counter / gauge / histogram series rolled into
/// fixed-width sim-time windows.
///
/// Registration happens once, before the run; recording is by dense id on
/// the hot path. [`Recorder::roll`] closes the current window. Shard
/// recorders built from the same registration sequence merge exactly with
/// [`Recorder::merge`].
#[derive(Debug, Clone, PartialEq)]
pub struct Recorder {
    window: SimDuration,
    counter_names: Vec<String>,
    gauge_names: Vec<String>,
    hist_names: Vec<String>,
    counters: Vec<u64>,
    gauges: Vec<f64>,
    hists: Vec<LogHistogram>,
    rows: Vec<WindowRow>,
}

impl Recorder {
    /// Creates an empty recorder rolling at `window` cadence.
    ///
    /// # Panics
    ///
    /// Panics on a zero window — every row would alias the same instant.
    pub fn new(window: SimDuration) -> Self {
        assert!(window > SimDuration::ZERO, "window must be positive");
        Recorder {
            window,
            counter_names: Vec::new(),
            gauge_names: Vec::new(),
            hist_names: Vec::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// The window width series roll at.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    fn assert_fresh(&self, name: &str) {
        assert!(
            !self.counter_names.iter().any(|n| n == name)
                && !self.gauge_names.iter().any(|n| n == name)
                && !self.hist_names.iter().any(|n| n == name),
            "series {name:?} already registered"
        );
        assert!(
            self.rows.is_empty(),
            "cannot register {name:?} after the first roll"
        );
    }

    /// Registers a counter series.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name (any kind) or registration after a roll.
    pub fn counter(&mut self, name: &str) -> CounterId {
        self.assert_fresh(name);
        self.counter_names.push(name.to_string());
        self.counters.push(0);
        CounterId(self.counters.len() as u32 - 1)
    }

    /// Registers a gauge series (initial value 0).
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name (any kind) or registration after a roll.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        self.assert_fresh(name);
        self.gauge_names.push(name.to_string());
        self.gauges.push(0.0);
        GaugeId(self.gauges.len() as u32 - 1)
    }

    /// Registers a histogram series.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name (any kind) or registration after a roll.
    pub fn histogram(&mut self, name: &str) -> HistId {
        self.assert_fresh(name);
        self.hist_names.push(name.to_string());
        self.hists.push(LogHistogram::new());
        HistId(self.hists.len() as u32 - 1)
    }

    /// Adds to a counter in the current window.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0 as usize] += n;
    }

    /// Sets a gauge; the value persists across rolls until set again.
    pub fn set(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0 as usize] = v;
    }

    /// Records a sample into a histogram in the current window.
    pub fn observe(&mut self, id: HistId, x: f64) {
        self.hists[id.0 as usize].record(x);
    }

    /// The current value of a gauge — the last value [`set`](Recorder::set),
    /// which is exactly what the next [`roll`](Recorder::roll) will sample
    /// (and, right after a roll, what the freshest row holds).
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0 as usize]
    }

    /// The row-array slot a counter handle indexes — for reading one
    /// counter's series out of [`WindowRow::counters`] without a name
    /// lookup.
    pub fn counter_slot(&self, id: CounterId) -> usize {
        id.0 as usize
    }

    /// Closes the current window: counter deltas and histograms move into a
    /// new [`WindowRow`] and reset; gauges are sampled and persist.
    pub fn roll(&mut self) {
        let index = self.rows.len() as u64;
        let counters = std::mem::replace(&mut self.counters, vec![0; self.counter_names.len()]);
        let hists = std::mem::replace(
            &mut self.hists,
            vec![LogHistogram::new(); self.hist_names.len()],
        );
        self.rows.push(WindowRow {
            index,
            counters,
            gauges: self.gauges.clone(),
            hists,
        });
    }

    /// The closed windows, oldest first.
    pub fn rows(&self) -> &[WindowRow] {
        &self.rows
    }

    /// Registered counter names, in registration order.
    pub fn counter_names(&self) -> &[String] {
        &self.counter_names
    }

    /// Registered gauge names, in registration order.
    pub fn gauge_names(&self) -> &[String] {
        &self.gauge_names
    }

    /// Registered histogram names, in registration order.
    pub fn hist_names(&self) -> &[String] {
        &self.hist_names
    }

    /// Dense index of a counter series by name.
    pub fn counter_index(&self, name: &str) -> Option<usize> {
        self.counter_names.iter().position(|n| n == name)
    }

    /// Dense index of a gauge series by name.
    pub fn gauge_index(&self, name: &str) -> Option<usize> {
        self.gauge_names.iter().position(|n| n == name)
    }

    /// Dense index of a histogram series by name.
    pub fn hist_index(&self, name: &str) -> Option<usize> {
        self.hist_names.iter().position(|n| n == name)
    }

    /// Merges a shard replica into this recorder: counters and histogram
    /// buckets add per window; gauges sum across replicas (per-shard state
    /// pooled to the fleet-wide value).
    ///
    /// Window counts may differ — a shard that went idle (or finished its
    /// horizon early) rolls fewer windows. Merging is *row-aligned by window
    /// index*: shared indices sum, and rows beyond the shorter recorder's
    /// last roll are carried over as-is, holding only the contributions of
    /// the replicas that actually rolled them.
    ///
    /// # Panics
    ///
    /// Panics when the registration sequences or window widths differ —
    /// those merges would silently misalign series.
    pub fn merge(&mut self, other: &Recorder) {
        assert_eq!(self.window, other.window, "recorder windows must align");
        assert_eq!(self.counter_names, other.counter_names, "counter series");
        assert_eq!(self.gauge_names, other.gauge_names, "gauge series");
        assert_eq!(self.hist_names, other.hist_names, "histogram series");
        for (a, b) in self.rows.iter_mut().zip(other.rows.iter()) {
            assert_eq!(a.index, b.index, "window indices align");
            for (x, y) in a.counters.iter_mut().zip(b.counters.iter()) {
                *x += y;
            }
            for (x, y) in a.gauges.iter_mut().zip(b.gauges.iter()) {
                *x += y;
            }
            for (x, y) in a.hists.iter_mut().zip(b.hists.iter()) {
                x.merge(y);
            }
        }
        if other.rows.len() > self.rows.len() {
            let from = self.rows.len();
            self.rows.extend(other.rows[from..].iter().cloned());
        }
        for (x, y) in self.counters.iter_mut().zip(other.counters.iter()) {
            *x += y;
        }
        for (x, y) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            *x += y;
        }
        for (x, y) in self.hists.iter_mut().zip(other.hists.iter()) {
            x.merge(y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_contain_their_samples() {
        for &x in &[
            0.0011, 0.5, 1.0, 1.5, 7.99, 8.0, 99.9, 100.0, 123.456, 1e4, 1e6, 2.0e9,
        ] {
            let idx = LogHistogram::bucket_index(x);
            let (lo, hi) = LogHistogram::bucket_bounds(idx);
            assert!(lo <= x && x < hi, "{x} outside bucket {idx} [{lo}, {hi})");
        }
    }

    #[test]
    fn bucket_width_is_at_most_one_eighth() {
        // Relative resolution: every finite bucket spans ≤ 12.5% of its
        // lower bound.
        for idx in 1..BUCKET_COUNT - 1 {
            let (lo, hi) = LogHistogram::bucket_bounds(idx);
            assert!(hi - lo <= lo / 8.0 + 1e-12, "bucket {idx} too wide");
        }
    }

    #[test]
    fn degenerate_samples_share_the_underflow_bucket() {
        assert_eq!(LogHistogram::bucket_index(0.0), 0);
        assert_eq!(LogHistogram::bucket_index(-3.0), 0);
        assert_eq!(LogHistogram::bucket_index(f64::NAN), 0);
        assert_eq!(LogHistogram::bucket_index(1e-9), 0);
        assert_eq!(LogHistogram::bucket_index(1e12), BUCKET_COUNT - 1);
        assert_eq!(LogHistogram::bucket_index(f64::INFINITY), BUCKET_COUNT - 1);
    }

    #[test]
    fn quantile_reports_bucket_upper_bounds() {
        let mut h = LogHistogram::new();
        for _ in 0..99 {
            h.record(10.0);
        }
        h.record(1000.0);
        let p50 = h.quantile(0.5);
        assert!((10.0..=11.25).contains(&p50), "p50 {p50}");
        let p100 = h.quantile(1.0);
        assert!((1000.0..=1125.0).contains(&p100), "p100 {p100}");
        assert_eq!(LogHistogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_in_overflow_stays_finite() {
        let mut h = LogHistogram::new();
        h.record(1e12);
        let q = h.quantile(0.5);
        assert!(q.is_finite());
        assert_eq!(q, MAX_VALUE);
    }

    #[test]
    fn count_over_is_conservative_at_bucket_granularity() {
        let mut h = LogHistogram::new();
        h.record(50.0); // below
        h.record(300.0); // same bucket as the 300 ms threshold — counted under
        h.record(400.0); // certainly over
        h.record(1e12); // overflow — certainly over
        assert_eq!(h.count_over(300.0), 2);
        assert_eq!(h.count_over(0.0), 4);
        assert_eq!(h.count_over(1e13), 0);
        // A threshold exactly on a bucket edge includes that bucket.
        let (lo, _) = LogHistogram::bucket_bounds(LogHistogram::bucket_index(400.0));
        assert_eq!(h.count_over(lo), 2);
    }

    #[test]
    fn recorder_rolls_windows_and_resets_deltas() {
        let mut r = Recorder::new(SimDuration::from_secs(30));
        let c = r.counter("requests.ok");
        let g = r.gauge("queue.depth");
        let h = r.histogram("page.home.response_ms");
        r.add(c, 3);
        r.set(g, 5.0);
        r.observe(h, 120.0);
        r.roll();
        r.add(c, 2);
        r.roll();
        let rows = r.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].index, 0);
        assert_eq!(rows[0].counters, vec![3]);
        assert_eq!(rows[0].gauges, vec![5.0]);
        assert_eq!(rows[0].hists[0].total(), 1);
        // Counters and histograms reset; gauges persist.
        assert_eq!(rows[1].counters, vec![2]);
        assert_eq!(rows[1].gauges, vec![5.0]);
        assert_eq!(rows[1].hists[0].total(), 0);
        assert_eq!(r.counter_index("requests.ok"), Some(0));
        assert_eq!(r.hist_index("page.home.response_ms"), Some(0));
        assert_eq!(r.gauge_index("nope"), None);
    }

    #[test]
    fn recorder_merge_sums_aligned_windows() {
        let build = || {
            let mut r = Recorder::new(SimDuration::from_secs(10));
            let c = r.counter("c");
            let g = r.gauge("g");
            let h = r.histogram("h");
            (r, c, g, h)
        };
        let (mut a, ca, ga, ha) = build();
        let (mut b, cb, gb, hb) = build();
        a.add(ca, 1);
        a.set(ga, 2.0);
        a.observe(ha, 10.0);
        a.roll();
        b.add(cb, 4);
        b.set(gb, 3.0);
        b.observe(hb, 10.0);
        b.roll();
        a.merge(&b);
        assert_eq!(a.rows()[0].counters, vec![5]);
        assert_eq!(a.rows()[0].gauges, vec![5.0]);
        assert_eq!(a.rows()[0].hists[0].total(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_names_are_rejected_across_kinds() {
        let mut r = Recorder::new(SimDuration::from_secs(1));
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn merge_row_aligns_unequal_window_counts() {
        let build = |rolls: &[u64]| {
            let mut r = Recorder::new(SimDuration::from_secs(1));
            let c = r.counter("c");
            let g = r.gauge("g");
            let h = r.histogram("h");
            for &v in rolls {
                r.add(c, v);
                r.set(g, v as f64);
                r.observe(h, v as f64);
                r.roll();
            }
            r
        };
        // The longer recorder merges in a shorter (idle-shard) replica: the
        // shared prefix sums, the tail survives untouched.
        let mut a = build(&[1, 2, 3]);
        a.merge(&build(&[10]));
        assert_eq!(a.rows().len(), 3);
        assert_eq!(a.rows()[0].counters, vec![11]);
        assert_eq!(a.rows()[1].counters, vec![2]);
        assert_eq!(a.rows()[2].counters, vec![3]);
        assert_eq!(a.rows()[0].hists[0].total(), 2);
        // The shorter recorder absorbs a longer one: the extra rows carry
        // over with the longer replica's contribution only.
        let mut b = build(&[10]);
        b.merge(&build(&[1, 2, 3]));
        assert_eq!(b.rows().len(), 3);
        assert_eq!(b.rows()[0].counters, vec![11]);
        assert_eq!(b.rows()[1].counters, vec![2]);
        assert_eq!(b.rows()[2].counters, vec![3]);
        assert_eq!(b.rows()[2].index, 2);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn log_histogram_conserves_samples(xs in proptest::collection::vec(0f64..1e10, 0..300)) {
                let mut h = LogHistogram::new();
                for &x in &xs {
                    h.record(x);
                }
                let bucketed: u64 = h.nonzero().map(|(_, c)| c).sum();
                prop_assert_eq!(bucketed, xs.len() as u64);
                prop_assert_eq!(h.total(), xs.len() as u64);
            }

            #[test]
            fn log_histogram_merge_equals_single_stream(xs in proptest::collection::vec(0f64..1e8, 0..400)) {
                let mut all = LogHistogram::new();
                let mut shards = [LogHistogram::new(), LogHistogram::new(), LogHistogram::new()];
                for (i, &x) in xs.iter().enumerate() {
                    all.record(x);
                    shards[i % 3].record(x);
                }
                let mut merged = LogHistogram::new();
                for s in &shards {
                    merged.merge(s);
                }
                prop_assert_eq!(merged, all);
            }

            #[test]
            fn log_histogram_merge_is_commutative_and_associative(
                xs in proptest::collection::vec(0f64..1e8, 0..200),
                ys in proptest::collection::vec(0f64..1e8, 0..200),
                zs in proptest::collection::vec(0f64..1e8, 0..200),
            ) {
                let build = |vals: &[f64]| {
                    let mut h = LogHistogram::new();
                    for &x in vals {
                        h.record(x);
                    }
                    h
                };
                let (a, b, c) = (build(&xs), build(&ys), build(&zs));
                // Commutative: a ⊕ b == b ⊕ a.
                let mut ab = a.clone();
                ab.merge(&b);
                let mut ba = b.clone();
                ba.merge(&a);
                prop_assert_eq!(&ab, &ba);
                // Associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
                let mut ab_c = ab.clone();
                ab_c.merge(&c);
                let mut bc = b.clone();
                bc.merge(&c);
                let mut a_bc = a.clone();
                a_bc.merge(&bc);
                prop_assert_eq!(ab_c, a_bc);
            }

            #[test]
            fn recorder_merge_row_aligns_any_window_counts(
                xs in proptest::collection::vec(0u64..100, 0..6),
                ys in proptest::collection::vec(0u64..100, 0..6),
                live_a in 0u64..50,
                live_b in 0u64..50,
            ) {
                // A shard that went idle rolls fewer windows; the merge must
                // align rows by window index, summing the shared prefix and
                // carrying the longer tail through, for *any* length pair —
                // including zero rolls on either side.
                let build = |vals: &[u64], live: u64| {
                    let mut r = Recorder::new(SimDuration::from_secs(1));
                    let c = r.counter("c");
                    let g = r.gauge("g");
                    for &v in vals {
                        r.add(c, v);
                        r.set(g, 1.0);
                        r.roll();
                    }
                    r.add(c, live);
                    r
                };
                let mut a = build(&xs, live_a);
                a.merge(&build(&ys, live_b));
                prop_assert_eq!(a.rows().len(), xs.len().max(ys.len()));
                for (i, row) in a.rows().iter().enumerate() {
                    prop_assert_eq!(row.index, i as u64);
                    let want = xs.get(i).copied().unwrap_or(0)
                        + ys.get(i).copied().unwrap_or(0);
                    prop_assert_eq!(row.counters[0], want);
                    // Gauges pool across exactly the replicas that rolled
                    // this window.
                    let rollers = u64::from(i < xs.len()) + u64::from(i < ys.len());
                    prop_assert_eq!(row.gauges[0], rollers as f64);
                }
                // Live (unrolled) deltas still sum regardless of row counts.
                prop_assert_eq!(a.counters[0], live_a + live_b);
            }

            #[test]
            fn log_histogram_quantile_is_a_valid_upper_bound(
                xs in proptest::collection::vec(0.01f64..1e6, 1..300),
                q in 0f64..1.0,
            ) {
                let mut h = LogHistogram::new();
                for &x in &xs {
                    h.record(x);
                }
                let v = h.quantile(q);
                prop_assert!(v.is_finite());
                // The reported bound dominates the true nearest-rank sample.
                let mut sorted = xs.clone();
                sorted.sort_by(f64::total_cmp);
                let rank = nearest_rank(sorted.len() as u64, q) as usize;
                prop_assert!(v >= sorted[rank - 1], "bound {} below sample {}", v, sorted[rank - 1]);
                // And is within one bucket (≤ 12.5% + underflow floor) of it.
                let (lo, hi) = LogHistogram::bucket_bounds(LogHistogram::bucket_index(sorted[rank - 1]));
                prop_assert!(v <= hi.max(lo * 1.126) + MIN_VALUE);
            }

            #[test]
            fn count_over_never_overcounts(
                xs in proptest::collection::vec(0f64..1e6, 0..300),
                threshold in 0f64..1e6,
            ) {
                let mut h = LogHistogram::new();
                for &x in &xs {
                    h.record(x);
                }
                let exact = xs.iter().filter(|&&x| x >= threshold).count() as u64;
                prop_assert!(h.count_over(threshold) <= exact);
            }
        }
    }
}

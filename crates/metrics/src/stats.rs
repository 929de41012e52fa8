//! Latency statistics: summaries, percentiles, CDFs, SLO accounting.

use chiron_model::SimDuration;
use serde::{Deserialize, Serialize};

/// A batch of latency observations (e.g. one per request, or one per
/// function as in Fig. 15's CDF).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySamples {
    samples: Vec<SimDuration>,
}

impl LatencySamples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn from_vec(samples: Vec<SimDuration>) -> Self {
        LatencySamples { samples }
    }

    pub fn push(&mut self, sample: SimDuration) {
        self.samples.push(sample);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = SimDuration> + '_ {
        self.samples.iter().copied()
    }

    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u128 = self.samples.iter().map(|d| d.as_nanos() as u128).sum();
        SimDuration::from_nanos((total / self.samples.len() as u128) as u64)
    }

    pub fn min(&self) -> SimDuration {
        self.samples
            .iter()
            .copied()
            .min()
            .unwrap_or(SimDuration::ZERO)
    }

    pub fn max(&self) -> SimDuration {
        self.samples
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Sample standard deviation in milliseconds.
    pub fn std_ms(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean().as_millis_f64();
        let var: f64 = self
            .samples
            .iter()
            .map(|d| {
                let x = d.as_millis_f64() - mean;
                x * x
            })
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt()
    }

    /// Linear-interpolated percentile, `q` in `[0, 1]`.
    pub fn percentile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            return sorted[lo];
        }
        let frac = pos - lo as f64;
        let lo_ns = sorted[lo].as_nanos() as f64;
        let hi_ns = sorted[hi].as_nanos() as f64;
        SimDuration::from_nanos((lo_ns + (hi_ns - lo_ns) * frac).round() as u64)
    }

    /// Empirical CDF as `(latency, cumulative fraction)` points, sorted by
    /// latency — the exact series Fig. 15 plots.
    pub fn cdf(&self) -> Vec<(SimDuration, f64)> {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        sorted
            .into_iter()
            .enumerate()
            .map(|(i, d)| (d, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// Fraction of samples strictly above the SLO (Fig. 14's metric).
    pub fn violation_rate(&self, slo: SimDuration) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let violations = self.samples.iter().filter(|&&d| d > slo).count();
        violations as f64 / self.samples.len() as f64
    }
}

impl FromIterator<SimDuration> for LatencySamples {
    fn from_iter<I: IntoIterator<Item = SimDuration>>(iter: I) -> Self {
        LatencySamples {
            samples: iter.into_iter().collect(),
        }
    }
}

/// Streaming latency percentiles in O(1) memory: an HDR-style
/// log-bucketed histogram over nanoseconds.
///
/// Values below 2¹² ns land in exact unit buckets; above that, each
/// power-of-two decade is split into 2¹¹ sub-buckets, bounding relative
/// quantile error at ~0.05%. This is what the serving simulation uses to
/// track millions of sojourn times without keeping every sample
/// ([`LatencySamples`] stays the exact, batch-oriented alternative).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamingHistogram {
    /// `counts[bucket]`; lazily grown, index derived from the value.
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

/// Sub-bucket resolution: 2^SUB_BITS buckets per power-of-two decade.
const SUB_BITS: u32 = 11;

impl Default for StreamingHistogram {
    fn default() -> Self {
        StreamingHistogram {
            counts: Vec::new(),
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl StreamingHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(ns: u64) -> usize {
        if ns < (1 << (SUB_BITS + 1)) {
            return ns as usize;
        }
        // For ns with highest set bit b > SUB_BITS, use the top SUB_BITS+1
        // bits: decade (b - SUB_BITS) at sub-position of the next SUB_BITS
        // bits. Buckets stay monotone in ns.
        let b = 63 - ns.leading_zeros();
        let decade = (b - SUB_BITS) as usize;
        let sub = ((ns >> (b - SUB_BITS)) - (1 << SUB_BITS)) as usize;
        (1 << (SUB_BITS + 1)) + decade * (1 << SUB_BITS) + sub
    }

    /// Upper edge (inclusive) of a bucket — the value reported for
    /// quantiles landing in it.
    fn bucket_upper(bucket: usize) -> u64 {
        if bucket < (1 << (SUB_BITS + 1)) {
            return bucket as u64;
        }
        let rest = (bucket - (1 << (SUB_BITS + 1))) as u64;
        let decade = (rest >> SUB_BITS) as u32; // the value's top bit − SUB_BITS
        let sub = rest & ((1 << SUB_BITS) - 1);
        (((1u64 << SUB_BITS) + sub + 1) << decade) - 1
    }

    pub fn record(&mut self, sample: SimDuration) {
        let ns = sample.as_nanos();
        let bucket = Self::bucket_of(ns);
        if bucket >= self.counts.len() {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.total += 1;
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_ns / u128::from(self.total)) as u64)
    }

    pub fn min(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos(self.min_ns)
    }

    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// Quantile `q` in `[0, 1]`: the smallest bucket upper edge whose
    /// cumulative count reaches `q × total` (clamped to the observed max).
    pub fn percentile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        let first = self.first_bucket();
        for (bucket, &count) in self.counts.iter().enumerate().skip(first) {
            seen += count;
            if seen >= rank {
                return SimDuration::from_nanos(Self::bucket_upper(bucket).min(self.max_ns));
            }
        }
        self.max()
    }

    /// The largest nanosecond value whose bucket's (inclusive) upper edge
    /// is still ≤ `target` — i.e. samples ≤ the returned cut share no
    /// bucket with any sample > `target`.
    ///
    /// This reduces threshold questions on a *future* histogram to two
    /// counters kept online: for samples `v₁..vₙ`,
    /// `hist.percentile(q) > target` ⟺
    /// `#{v ≤ cut} < ceil(q·n) && any(v > target)` — the left clause
    /// finds the quantile's bucket past the cut, the right one accounts
    /// for the `max_ns` clamp `percentile` applies. Hot per-sample paths
    /// (the autoscaler's tick window) use this instead of maintaining a
    /// full histogram they would reset every tick.
    pub fn threshold_cut(target_ns: u64) -> u64 {
        let bucket = Self::bucket_of(target_ns);
        let upper = Self::bucket_upper(bucket);
        if upper == target_ns {
            // Exact edge (always the case in the fine sub-2^12 region).
            target_ns
        } else {
            // `bucket` straddles the target; the previous bucket's edge
            // is the last value entirely at or below it.
            Self::bucket_upper(bucket - 1)
        }
    }

    /// The lowest bucket that can hold a sample: every bucket below the
    /// smallest recorded value is empty, and latency histograms leave
    /// most of their low buckets so. Folds and scans start here.
    fn first_bucket(&self) -> usize {
        Self::bucket_of(self.min_ns).min(self.counts.len())
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &StreamingHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        let first = other.first_bucket();
        let theirs = &other.counts[first..];
        for (slot, &count) in self.counts[first..].iter_mut().zip(theirs) {
            *slot += count;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Relative prediction error `(P̂ − P) / P` (§6.1).
pub fn prediction_error(predicted: SimDuration, actual: SimDuration) -> f64 {
    let actual_ms = actual.as_millis_f64();
    assert!(actual_ms > 0.0, "actual latency must be positive");
    (predicted.as_millis_f64() - actual_ms) / actual_ms
}

/// Mean absolute prediction error over paired samples.
pub fn mean_abs_error(pairs: &[(SimDuration, SimDuration)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    pairs
        .iter()
        .map(|&(p, a)| prediction_error(p, a).abs())
        .sum::<f64>()
        / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn samples(vals: &[u64]) -> LatencySamples {
        vals.iter().map(|&v| ms(v)).collect()
    }

    #[test]
    fn mean_min_max() {
        let s = samples(&[10, 20, 30]);
        assert_eq!(s.mean(), ms(20));
        assert_eq!(s.min(), ms(10));
        assert_eq!(s.max(), ms(30));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_is_safe() {
        let s = LatencySamples::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), SimDuration::ZERO);
        assert_eq!(s.percentile(0.5), SimDuration::ZERO);
        assert_eq!(s.violation_rate(ms(1)), 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let s = samples(&[10, 20, 30, 40]);
        assert_eq!(s.percentile(0.0), ms(10));
        assert_eq!(s.percentile(1.0), ms(40));
        // median of 4 values: halfway between 20 and 30.
        assert_eq!(s.percentile(0.5), ms(25));
    }

    #[test]
    fn cdf_monotone() {
        let s = samples(&[30, 10, 20]);
        let cdf = s.cdf();
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf[0].0, ms(10));
        assert!((cdf[2].1 - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn violations_counted_strictly() {
        let s = samples(&[10, 20, 30, 40]);
        assert_eq!(s.violation_rate(ms(40)), 0.0);
        assert_eq!(s.violation_rate(ms(25)), 0.5);
        assert_eq!(s.violation_rate(ms(5)), 1.0);
    }

    #[test]
    fn std_dev() {
        let s = samples(&[10, 20]);
        assert!((s.std_ms() - 7.0710678).abs() < 1e-5);
        assert_eq!(samples(&[10]).std_ms(), 0.0);
    }

    #[test]
    fn streaming_histogram_tracks_exact_small_values() {
        let mut h = StreamingHistogram::new();
        for ns in [10u64, 20, 30, 40] {
            h.record(SimDuration::from_nanos(ns));
        }
        assert_eq!(h.len(), 4);
        assert_eq!(h.min(), SimDuration::from_nanos(10));
        assert_eq!(h.max(), SimDuration::from_nanos(40));
        assert_eq!(h.mean(), SimDuration::from_nanos(25));
        assert_eq!(h.percentile(0.0), SimDuration::from_nanos(10));
        assert_eq!(h.percentile(1.0), SimDuration::from_nanos(40));
    }

    #[test]
    fn streaming_histogram_matches_batch_percentiles() {
        // Deterministic pseudo-random latencies spanning µs to seconds.
        let mut h = StreamingHistogram::new();
        let mut batch = LatencySamples::new();
        let mut x: u64 = 0x243f_6a88_85a3_08d3;
        for _ in 0..50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let ns = 1_000 + x % 2_000_000_000; // up to 2s
            h.record(SimDuration::from_nanos(ns));
            batch.push(SimDuration::from_nanos(ns));
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let approx = h.percentile(q).as_nanos() as f64;
            let exact = batch.percentile(q).as_nanos() as f64;
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel < 0.002,
                "q={q}: approx {approx} vs exact {exact} ({rel})"
            );
        }
    }

    #[test]
    fn streaming_histogram_merge_and_empty() {
        let empty = StreamingHistogram::new();
        assert!(empty.is_empty());
        assert_eq!(empty.percentile(0.99), SimDuration::ZERO);
        assert_eq!(empty.mean(), SimDuration::ZERO);
        let mut a = StreamingHistogram::new();
        let mut b = StreamingHistogram::new();
        let mut whole = StreamingHistogram::new();
        for v in 1..=1000u64 {
            let d = SimDuration::from_micros(v);
            if v % 2 == 0 {
                a.record(d)
            } else {
                b.record(d)
            }
            whole.record(d);
        }
        a.merge(&b);
        assert_eq!(a.len(), whole.len());
        assert_eq!(a.percentile(0.5), whole.percentile(0.5));
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a, whole);

        // Folds start at the other side's lowest sample: disjoint ranges
        // and empty sides merge exactly in either order.
        let (mut low, mut high) = (StreamingHistogram::new(), StreamingHistogram::new());
        for v in 1..=300u64 {
            low.record(SimDuration::from_nanos(v * 7));
            high.record(SimDuration::from_millis(v));
        }
        let mut up = low.clone();
        up.merge(&high);
        let mut down = high.clone();
        down.merge(&low);
        assert_eq!(up, down);
        assert_eq!(up.len(), 600);
        assert_eq!(up.percentile(0.5), low.max());
        down.merge(&empty);
        assert_eq!(up, down);
        let mut from_empty = StreamingHistogram::new();
        from_empty.merge(&up);
        assert_eq!(from_empty, up);
    }

    #[test]
    fn threshold_cut_counters_match_percentile_breach() {
        // The counter reduction must agree with the full histogram for
        // every (sample set, target) pair: breach ⟺ le_cut < rank ∧ over.
        let targets: Vec<u64> = vec![500, 4_095, 4_096, 5_000, 1_000_000, 500_000_000];
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for round in 0..200 {
            let mut h = StreamingHistogram::new();
            let mut vals = Vec::new();
            let n = 1 + round % 37;
            for _ in 0..n {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let ns = x % 1_500_000_000;
                h.record(SimDuration::from_nanos(ns));
                vals.push(ns);
            }
            for &target in &targets {
                let cut = StreamingHistogram::threshold_cut(target);
                assert!(cut <= target);
                let le_cut = vals.iter().filter(|&&v| v <= cut).count() as u64;
                let over = vals.iter().any(|&v| v > target);
                let rank = (0.99 * vals.len() as f64).ceil().max(1.0) as u64;
                let counters = le_cut < rank && over;
                let full = h.percentile(0.99) > SimDuration::from_nanos(target);
                assert_eq!(
                    counters, full,
                    "round {round} target {target}: counters {counters} vs full {full}"
                );
            }
        }
    }

    #[test]
    fn prediction_errors() {
        assert!((prediction_error(ms(110), ms(100)) - 0.1).abs() < 1e-12);
        assert!((prediction_error(ms(90), ms(100)) + 0.1).abs() < 1e-12);
        let pairs = vec![(ms(110), ms(100)), (ms(80), ms(100))];
        assert!((mean_abs_error(&pairs) - 0.15).abs() < 1e-12);
        assert_eq!(mean_abs_error(&[]), 0.0);
    }
}

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

/// Streaming latency percentiles: an HDR-style log-bucketed histogram
/// over nanoseconds.
///
/// Values below 2¹² ns land in exact unit buckets; above that, each
/// power-of-two decade is split into 2¹¹ sub-buckets, bounding relative
/// quantile error at ~0.05%. This is what the serving simulation uses to
/// track millions of sojourn times without keeping every sample
/// ([`LatencySamples`] stays the exact, batch-oriented alternative).
///
/// Buckets are stored in pages of `PAGE` consecutive counts, and a page
/// is stored only once a sample lands in it: a fleet cluster's sojourns
/// span 12–23 thousand buckets, of which ~5% hold one, so memory follows
/// the occupied buckets, not the spread or magnitude of the samples. A
/// `u32` index over a window of page numbers, grown at either end as
/// samples and merges arrive, locates each page; equality compares
/// logical contents, whatever window each side happened to grow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamingHistogram {
    /// `index[i]` is the slot in `pages` of page `lo + i`, or `NO_PAGE`;
    /// every page outside the window is absent.
    index: Vec<u32>,
    lo: usize,
    /// Slot `s` holds `pages[s·PAGE..(s + 1)·PAGE]`: the counts of
    /// buckets `p·PAGE..(p + 1)·PAGE` for the page `p` indexed at `s`.
    pages: Vec<u64>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

/// Sub-bucket resolution: 2^SUB_BITS buckets per power-of-two decade.
const SUB_BITS: u32 = 11;

/// Buckets per stored page: eight counts fill one 64-byte cache line.
/// Larger pages store more empty buckets beside the occupied ones;
/// smaller ones grow the index, 4 bytes per page of the window.
const PAGE: usize = 8;

/// The index entry of a page that holds no sample.
const NO_PAGE: u32 = u32::MAX;

impl Default for StreamingHistogram {
    fn default() -> Self {
        StreamingHistogram {
            index: Vec::new(),
            lo: 0,
            pages: Vec::new(),
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

    /// Widens the index window to hold pages `first..end`. Growth at the
    /// front adds at least the current width, so a run of ever-smaller
    /// samples moves each index entry O(1) times overall.
    fn cover(&mut self, first: usize, end: usize) {
        if self.index.is_empty() {
            self.lo = first;
            self.index.resize(end - first, NO_PAGE);
            return;
        }
        if first < self.lo {
            let grow = (self.lo - first).max(self.index.len()).min(self.lo);
            self.index.splice(0..0, std::iter::repeat_n(NO_PAGE, grow));
            self.lo -= grow;
        }
        if end > self.lo + self.index.len() {
            self.index.resize(end - self.lo, NO_PAGE);
        }
    }

    /// The slot of page `page`, created empty if it has none yet.
    #[inline]
    fn slot(&mut self, page: usize) -> usize {
        // One compare covers both ends: below `lo` wraps to a huge index.
        match self.index.get(page.wrapping_sub(self.lo)) {
            Some(&slot) if slot != NO_PAGE => slot as usize,
            _ => self.add_page(page),
        }
    }

    #[cold]
    #[inline(never)]
    fn add_page(&mut self, page: usize) -> usize {
        self.cover(page, page + 1);
        let slot = self.pages.len() / PAGE;
        self.pages.resize(self.pages.len() + PAGE, 0);
        self.index[page - self.lo] = u32::try_from(slot).expect("fewer than 2^32 pages");
        slot
    }

    // Without the hint, the release build calls `record` out of line
    // from the serve loop's event handler instead of inlining it.
    #[inline]
    pub fn record(&mut self, sample: SimDuration) {
        let ns = sample.as_nanos();
        let bucket = Self::bucket_of(ns);
        let slot = self.slot(bucket / PAGE);
        self.pages[slot * PAGE + bucket % PAGE] += 1;
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
        for (page, counts) in self.occupied() {
            for (bucket, &count) in (page * PAGE..).zip(counts) {
                seen += count;
                if seen >= rank {
                    return SimDuration::from_nanos(Self::bucket_upper(bucket).min(self.max_ns));
                }
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

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &StreamingHistogram) {
        for (page, counts) in other.occupied() {
            let at = self.slot(page) * PAGE;
            for (slot, &count) in self.pages[at..at + PAGE].iter_mut().zip(counts) {
                *slot += count;
            }
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Every stored page in bucket order, as its page number and its
    /// counts. Only pages holding a sample are stored, so two histograms
    /// with the same bucket counts yield the same pages.
    fn occupied(&self) -> impl Iterator<Item = (usize, &[u64])> {
        (self.lo..)
            .zip(&self.index)
            .filter(|&(_, &slot)| slot != NO_PAGE)
            .map(|(page, &slot)| (page, &self.pages[slot as usize * PAGE..][..PAGE]))
    }
}

impl PartialEq for StreamingHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total
            && self.sum_ns == other.sum_ns
            && self.min_ns == other.min_ns
            && self.max_ns == other.max_ns
            && self.occupied().eq(other.occupied())
    }
}

impl Eq for StreamingHistogram {}

/// Relative prediction error `(P̂ − P) / P` (§6.1).
pub fn prediction_error(predicted: SimDuration, actual: SimDuration) -> f64 {
    let actual_ms = actual.as_millis_f64();
    assert!(actual_ms > 0.0, "actual latency must be positive");
    (predicted.as_millis_f64() - actual_ms) / actual_ms
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
    fn violations_counted_strictly() {
        let s = samples(&[10, 20, 30, 40]);
        assert_eq!(s.violation_rate(ms(40)), 0.0);
        assert_eq!(s.violation_rate(ms(25)), 0.5);
        assert_eq!(s.violation_rate(ms(5)), 1.0);
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

    /// The dense layout: one slot per bucket from bucket 0 up, every scan
    /// starting at bucket 0. The paged histogram must store every bucket
    /// and answer every query exactly as this does.
    #[derive(Default)]
    struct Dense {
        counts: Vec<u64>,
        total: u64,
        sum_ns: u128,
        min_ns: Option<u64>,
        max_ns: u64,
    }

    impl Dense {
        fn record(&mut self, ns: u64) {
            let bucket = StreamingHistogram::bucket_of(ns);
            if bucket >= self.counts.len() {
                self.counts.resize(bucket + 1, 0);
            }
            self.counts[bucket] += 1;
            self.total += 1;
            self.sum_ns += u128::from(ns);
            self.min_ns = Some(self.min_ns.map_or(ns, |m| m.min(ns)));
            self.max_ns = self.max_ns.max(ns);
        }

        fn merge(&mut self, other: &Dense) {
            if other.counts.len() > self.counts.len() {
                self.counts.resize(other.counts.len(), 0);
            }
            for (slot, &count) in self.counts.iter_mut().zip(&other.counts) {
                *slot += count;
            }
            self.total += other.total;
            self.sum_ns += other.sum_ns;
            self.min_ns = match (self.min_ns, other.min_ns) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            self.max_ns = self.max_ns.max(other.max_ns);
        }

        fn percentile(&self, q: f64) -> u64 {
            if self.total == 0 {
                return 0;
            }
            let rank = (q * self.total as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (bucket, &count) in self.counts.iter().enumerate() {
                seen += count;
                if seen >= rank {
                    return StreamingHistogram::bucket_upper(bucket).min(self.max_ns);
                }
            }
            self.max_ns
        }

        /// Largest upper edge at or below `target`, found by walking the
        /// buckets from 0.
        fn threshold_cut(target_ns: u64) -> u64 {
            (0..)
                .map(StreamingHistogram::bucket_upper)
                .take_while(|&upper| upper <= target_ns)
                .last()
                .expect("bucket 0 has upper edge 0")
        }
    }

    /// Checks `h` against the dense reference: stored buckets, every
    /// query, and the memory contract — `h` stores exactly the pages that
    /// hold a sample, each once, behind an index window no wider than
    /// twice the span of those pages.
    fn assert_matches(h: &StreamingHistogram, dense: &Dense, what: &str) {
        let sampled: Vec<usize> = (0..)
            .zip(dense.counts.chunks(PAGE))
            .filter(|(_, counts)| counts.iter().any(|&c| c != 0))
            .map(|(page, _)| page)
            .collect();
        let stored: Vec<usize> = h.occupied().map(|(page, _)| page).collect();
        assert_eq!(stored, sampled, "{what}: stored pages");
        assert_eq!(h.pages.len(), PAGE * sampled.len(), "{what}: page slots");
        for (page, counts) in h.occupied() {
            for (bucket, &count) in (page * PAGE..).zip(counts) {
                let want = dense.counts.get(bucket).copied().unwrap_or(0);
                assert_eq!(count, want, "{what}: bucket {bucket}");
            }
        }
        let span = match (sampled.first(), sampled.last()) {
            (Some(first), Some(last)) => last + 1 - first,
            _ => 0,
        };
        assert!(h.index.len() <= 2 * span, "{what}: index window");
        assert_eq!(h.len(), dense.total, "{what}");
        let mean = (dense.total > 0).then(|| dense.sum_ns / u128::from(dense.total));
        assert_eq!(h.mean().as_nanos(), mean.unwrap_or(0) as u64, "{what}");
        assert_eq!(h.min().as_nanos(), dense.min_ns.unwrap_or(0), "{what}");
        assert_eq!(h.max().as_nanos(), dense.max_ns, "{what}");
        for q in [0.0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(
                h.percentile(q).as_nanos(),
                dense.percentile(q),
                "{what}: q={q}"
            );
        }
    }

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    fn both(values: impl IntoIterator<Item = u64>) -> (StreamingHistogram, Dense) {
        let (mut h, mut dense) = (StreamingHistogram::new(), Dense::default());
        for ns in values {
            h.record(SimDuration::from_nanos(ns));
            dense.record(ns);
        }
        (h, dense)
    }

    #[test]
    fn window_matches_dense_layout_in_any_sample_order() {
        let mut x = 0x2545_f491_4f6c_dd1d;
        let random: Vec<u64> = (0..5_000)
            .map(|_| 20_000_000 + xorshift(&mut x) % 400_000_000)
            .collect();
        let mut rising = random.clone();
        rising.sort_unstable();
        let falling: Vec<u64> = rising.iter().rev().copied().collect();
        // Exact unit buckets below 2^12 and the first log decades above.
        let small: Vec<u64> = (0..3_000).map(|i| (i * 7919) % 9_000).collect();
        let small_falling: Vec<u64> = (0..9_000u64).rev().step_by(3).collect();
        for (what, values) in [
            ("random", random),
            ("rising", rising),
            ("falling", falling),
            ("small", small),
            ("small falling", small_falling),
            ("zero", vec![0, 0, 0]),
        ] {
            let (mut h, mut dense) = (StreamingHistogram::new(), Dense::default());
            for (i, &ns) in values.iter().enumerate() {
                h.record(SimDuration::from_nanos(ns));
                dense.record(ns);
                if i % 499 == 0 {
                    assert_matches(&h, &dense, what);
                }
            }
            assert_matches(&h, &dense, what);
        }
        assert_matches(&StreamingHistogram::new(), &Dense::default(), "empty");
    }

    #[test]
    fn window_merges_match_dense_layout() {
        let mut x = 0x9e37_79b9_7f4a_7c15;
        let mut draw = |lo: u64, span: u64, n: usize| -> Vec<u64> {
            (0..n).map(|_| lo + xorshift(&mut x) % span).collect()
        };
        let low = draw(100, 3_000, 400);
        let mid = draw(1_000_000, 50_000, 400);
        let high = draw(800_000_000, 600_000_000, 400);
        let overlap = draw(1_020_000, 3_000_000, 400);
        let parts = [&low, &mid, &high, &overlap, &Vec::new()];
        for a in parts {
            for b in parts {
                let (mut ha, mut da) = both(a.iter().copied());
                let (hb, db) = both(b.iter().copied());
                ha.merge(&hb);
                da.merge(&db);
                let what = format!("{} into {}", b.len(), a.len());
                assert_matches(&ha, &da, &what);
                // Merging equals recording the union directly.
                let (direct, _) = both(a.iter().chain(b).copied());
                assert_eq!(ha, direct, "{what}");
            }
        }
    }

    #[test]
    fn equality_ignores_growth_history() {
        let values: Vec<u64> = (1..=2_000u64).map(|i| i * i * 97).collect();
        let (rising, _) = both(values.iter().copied());
        let (falling, _) = both(values.iter().rev().copied());
        assert_ne!(
            rising.pages, falling.pages,
            "pages were stored in opposite orders"
        );
        assert_eq!(rising, falling);
        // Assembled by merges from the top down, through an empty start.
        let mut merged = StreamingHistogram::new();
        for chunk in values.chunks(300).rev() {
            merged.merge(&both(chunk.iter().copied()).0);
        }
        assert_eq!(merged, rising);
        assert_eq!(StreamingHistogram::new(), both([]).0);
        // One more sample anywhere breaks equality, and so do the same
        // count, sum, min and max spread over different buckets.
        let mut extra = falling.clone();
        extra.record(SimDuration::from_nanos(5));
        assert_ne!(extra, rising);
        let (a, _) = both([4_000, 6_000, 6_004, 8_000]);
        let (b, _) = both([4_000, 6_002, 6_002, 8_000]);
        assert_eq!((a.mean(), a.min(), a.max()), (b.mean(), b.min(), b.max()));
        assert_ne!(a, b);
    }

    #[test]
    fn threshold_cut_matches_dense_bucket_walk() {
        let mut x = 0x0123_4567_89ab_cdef;
        let mut targets: Vec<u64> = vec![0, 1, 4_095, 4_096, 4_097, 8_191, 8_192, 1_200_000_000];
        targets.extend((0..300).map(|_| xorshift(&mut x) % 2_000_000_000));
        for target in targets {
            assert_eq!(
                StreamingHistogram::threshold_cut(target),
                Dense::threshold_cut(target),
                "target {target}"
            );
        }
    }

    #[test]
    fn prediction_errors() {
        assert!((prediction_error(ms(110), ms(100)) - 0.1).abs() < 1e-12);
        assert!((prediction_error(ms(90), ms(100)) + 0.1).abs() < 1e-12);
    }
}

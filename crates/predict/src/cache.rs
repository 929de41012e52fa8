//! Content-addressed memoisation of Algorithm 1 simulations.
//!
//! The PGP scheduler evaluates the same process contents over and over:
//! every KL candidate swap re-proposes sets that earlier swaps (or earlier
//! values of `n`, or the CPU-trim loop) already simulated (KL scores its
//! CPU-only sets by a closed form instead). Because
//! [`predict_threads_src`] is a pure function of the thread *contents*
//! (creation times + segment lists + switch interval), its outcome can be
//! keyed by a content hash and shared across KL rounds, candidate swaps,
//! process counts, and successive schedules.
//!
//! Keys hash actual content, not function ids: two functions with identical
//! profiles (e.g. FINRA's repeated rule checks) collapse to one entry. The
//! key is *order-sensitive* — Algorithm 1 is not invariant under thread
//! permutation because creation times stagger by position — so identical
//! ordered contents are required for a hit, which is exactly the guarantee
//! needed for byte-identical plans.
//!
//! The cache also holds the PGP scheduler's partition memo: per stage and
//! process count, the Kernighan–Lin swaps the search applied and its
//! effort counters ([`PartitionMemo`]), keyed by the stage's ordered
//! function contents ([`partition_key`]). A warm re-plan replays those
//! swaps instead of re-running the search.
//!
//! A cache has one owner and is used from one thread, so its maps sit in
//! `RefCell`s and its counters in `Cell`s.

use crate::threadsim::{predict_threads_src, SimArena, SimOutcome, ThreadSource};
use chiron_model::{FunctionId, Segment, SimDuration};
use chiron_obs::StaticCounter;
use chiron_profiler::WorkflowProfile;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Process-wide mirrors of the per-cache counters, aggregated across
/// every [`PredictionCache`] instance for the `figures -- obs` snapshot.
static CACHE_HITS: StaticCounter = StaticCounter::new("predict.cache.hits");
static CACHE_MISSES: StaticCounter = StaticCounter::new("predict.cache.misses");
static CACHE_INSERTS: StaticCounter = StaticCounter::new("predict.cache.inserts");

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Domain separation between the two key schemes below, so a staggered-set
/// key can never collide with a flat-content key by construction.
const SALT_STAGGERED: u64 = 0x5347_5354_4147_4745; // "SGSTAGGE"
const SALT_FLAT: u64 = 0x5347_464c_4154_5448; // "SGFLATTH"
const SALT_PARTITION: u64 = 0x5347_5041_5254_4954; // "SGPARTIT"

/// Incremental FNV-1a.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    pub fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }

    pub fn write_u64(&mut self, v: u64) {
        self.0 = fnv_u64(self.0, v);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// [`Fnv1a::write_u64`] from state `h`: one FNV-1a step per byte of `v`,
/// little-endian.
const fn fnv_u64(mut h: u64, v: u64) -> u64 {
    let mut byte = 0;
    while byte < 8 {
        h = (h ^ ((v >> (8 * byte)) & 0xff)).wrapping_mul(FNV_PRIME);
        byte += 1;
    }
    h
}

/// The FNV-1a state after `SALT_STAGGERED`, folded at compile time.
const STAGGERED_STATE: u64 = fnv_u64(FNV_OFFSET, SALT_STAGGERED);

/// Finaliser used to mix per-position element hashes into a set key.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn hash_segment(h: &mut Fnv1a, seg: &Segment) {
    match seg {
        Segment::Cpu(d) => {
            h.write_u8(0);
            h.write_u64(d.as_nanos());
        }
        Segment::Block { kind, dur } => {
            h.write_u8(1 + *kind as u8);
            h.write_u64(dur.as_nanos());
        }
    }
}

/// Flattened, pre-hashed segment lists for every function in a workflow.
/// Built once per schedule from the [`WorkflowProfile`]; replaces the
/// per-call `FunctionProfile::segments()` `Vec` reconstruction with a
/// borrow, and precomputes each function's content hash for fast set keys.
#[derive(Debug, Clone, Default)]
pub struct SegmentCatalog {
    flat: Vec<Segment>,
    ranges: Vec<(u32, u32)>,
    hashes: Vec<u64>,
    /// Per function: (total CPU time, total segment span). Feed the KL
    /// bound prune — see [`StaggeredSet::makespan_lower_bound`].
    totals: Vec<(SimDuration, SimDuration)>,
    /// Per function: no segment is a block, not even a zero-length one.
    cpu_only: Vec<bool>,
}

impl SegmentCatalog {
    pub fn new(profile: &WorkflowProfile) -> Self {
        SegmentCatalog::from_segments(profile.functions.iter().map(|f| f.segments()))
    }

    /// A catalog over explicit segment lists, one per function in id order.
    pub fn from_segments(functions: impl IntoIterator<Item = Vec<Segment>>) -> Self {
        let mut catalog = SegmentCatalog::default();
        for segments in functions {
            let start = catalog.flat.len() as u32;
            catalog.flat.extend(segments);
            catalog.ranges.push((start, catalog.flat.len() as u32));
            let mut h = Fnv1a::new();
            let mut cpu = SimDuration::ZERO;
            let mut span = SimDuration::ZERO;
            let segments = &catalog.flat[start as usize..];
            for seg in segments {
                hash_segment(&mut h, seg);
                match seg {
                    Segment::Cpu(d) => {
                        cpu += *d;
                        span += *d;
                    }
                    Segment::Block { dur, .. } => span += *dur,
                }
            }
            catalog.hashes.push(h.finish());
            catalog.totals.push((cpu, span));
            catalog.cpu_only.push(segments.iter().all(|s| s.is_cpu()));
        }
        catalog
    }

    /// The function's profiled segment list, borrowed.
    pub fn segments(&self, f: FunctionId) -> &[Segment] {
        let (s, e) = self.ranges[f.index()];
        &self.flat[s as usize..e as usize]
    }

    /// FNV-1a over the function's segment contents.
    pub fn content_hash(&self, f: FunctionId) -> u64 {
        self.hashes[f.index()]
    }

    /// Total CPU time of the function's profiled segments.
    pub fn cpu_total(&self, f: FunctionId) -> SimDuration {
        self.totals[f.index()].0
    }

    /// Total duration (CPU + blocks) of the function's profiled segments.
    pub fn span(&self, f: FunctionId) -> SimDuration {
        self.totals[f.index()].1
    }

    /// Whether the function's profiled segments are all CPU bursts.
    pub fn is_cpu_only(&self, f: FunctionId) -> bool {
        self.cpu_only[f.index()]
    }
}

/// [`ThreadSource`] for the scheduler's canonical process shape: the set's
/// functions started `spacing` apart (thread clone cost), all offset by
/// `base` (isolation startup + input read, zero in the KL objective), with
/// *unstretched* profiled segments borrowed from the catalog.
#[derive(Debug, Clone, Copy)]
pub struct StaggeredSet<'a> {
    pub set: &'a [FunctionId],
    pub catalog: &'a SegmentCatalog,
    pub spacing: SimDuration,
    pub base: SimDuration,
}

impl ThreadSource for StaggeredSet<'_> {
    fn count(&self) -> usize {
        self.set.len()
    }
    fn created_at(&self, i: usize) -> SimDuration {
        self.base + self.spacing * i as u64
    }
    fn segments(&self, i: usize) -> &[Segment] {
        self.catalog.segments(self.set[i])
    }
}

impl StaggeredSet<'_> {
    /// Content key: a salt over the scalar parameters mixed with each
    /// position's function-content hash. Shared between the KL objective
    /// and the pack/trim plan evaluator, so a set first simulated during
    /// partitioning is a cache hit when the packed plan is priced.
    pub fn key(&self, interval: SimDuration) -> u64 {
        let mut key = fnv_u64(STAGGERED_STATE, interval.as_nanos());
        key = fnv_u64(key, self.spacing.as_nanos());
        key = fnv_u64(key, self.base.as_nanos());
        key = fnv_u64(key, self.set.len() as u64);
        for (i, &f) in self.set.iter().enumerate() {
            let pos = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            key ^= splitmix64(self.catalog.content_hash(f).wrapping_add(pos));
        }
        key
    }

    /// A cheap, exact lower bound on the simulated makespan, from the
    /// catalog's per-function totals (no simulation, no allocation):
    ///
    /// * the GIL serialises CPU, so the set cannot finish before
    ///   `base + Σ cpu_total`;
    /// * thread `i` runs its segments sequentially even alone, so it cannot
    ///   finish before `created_at(i) + span(i)`.
    ///
    /// Both are true of every Algorithm 1 run, so a candidate whose bound
    /// already meets the incumbent score is provably not an improvement —
    /// the KL search uses this to skip whole simulations.
    pub fn makespan_lower_bound(&self) -> SimDuration {
        let mut cpu_sum = SimDuration::ZERO;
        let mut tail = SimDuration::ZERO;
        for (i, &f) in self.set.iter().enumerate() {
            cpu_sum += self.catalog.cpu_total(f);
            let end = self.spacing * i as u64 + self.catalog.span(f);
            tail = tail.max(end);
        }
        self.base + cpu_sum.max(tail)
    }

    /// Algorithm 1's makespan of the set by the closed form (see
    /// [`crate::threadsim`]) over the catalog's CPU totals, or `None` when
    /// some function has a block segment. The same integer sums as
    /// [`predict_threads_src`], so the result is bit-identical.
    pub fn cpu_only_makespan(&self) -> Option<SimDuration> {
        let mut suffix_cpu = SimDuration::ZERO;
        let mut makespan = SimDuration::ZERO;
        for (i, &f) in self.set.iter().enumerate().rev() {
            if !self.catalog.is_cpu_only(f) {
                return None;
            }
            suffix_cpu += self.catalog.cpu_total(f);
            makespan = makespan.max(self.created_at(i) + suffix_cpu);
        }
        Some(makespan)
    }
}

/// A [`StaggeredSet`] summarised so that the makespan lower bound and,
/// for a CPU-only set, the makespan itself of any one-position
/// replacement cost O(1) instead of O(set): the CPU sum, and per position
/// the CPU total, the largest `spacing·j + span` over the *other*
/// positions (the max of a prefix and a suffix maximum), and prefix and
/// suffix maxima of the closed form's
/// `reach(i) = base + spacing·i + Σ_{j≥i} cpu_j`.
///
/// The Kernighan–Lin pass rebuilds one summary per side for each round
/// with a block (a round over two CPU-only sets is a [`SwapScan`]
/// instead) and then scores every candidate swap against it; the buffers
/// are reused across rebuilds. A CPU-only candidate is scored by
/// [`makespan_with`](StaggeredSummary::makespan_with); any other is
/// keyed by [`StaggeredSet::key`] and looked up in the cache.
#[derive(Debug, Clone, Default)]
pub struct StaggeredSummary {
    base: SimDuration,
    spacing: SimDuration,
    cpu_sum: SimDuration,
    cpus: Vec<SimDuration>,
    /// `others_tail[i]` = max over `j != i` of `spacing·j + span(set[j])`.
    others_tail: Vec<SimDuration>,
    /// Every function of the set is CPU-only: only then do `reach_*` count.
    cpu_only: bool,
    /// `reach_pre[i]` = max over `j <= i` of `reach(j)`.
    reach_pre: Vec<SimDuration>,
    /// `reach_suf[i]` = max over `j >= i` of `reach(j)`; zero at `n`.
    reach_suf: Vec<SimDuration>,
}

impl StaggeredSummary {
    /// Re-summarises the buffers for `src`.
    pub fn rebuild(&mut self, src: &StaggeredSet<'_>) {
        let n = src.set.len();
        self.base = src.base;
        self.spacing = src.spacing;
        self.cpu_sum = SimDuration::ZERO;
        self.cpu_only = true;
        self.cpus.clear();
        self.others_tail.clear();
        self.reach_pre.clear();
        self.reach_suf.clear();
        // Prefix pass: the max over the positions before each one.
        let mut prefix = SimDuration::ZERO;
        for (i, &f) in src.set.iter().enumerate() {
            let cpu = src.catalog.cpu_total(f);
            self.cpu_sum += cpu;
            self.cpus.push(cpu);
            self.cpu_only &= src.catalog.is_cpu_only(f);
            self.others_tail.push(prefix);
            prefix = prefix.max(src.spacing * i as u64 + src.catalog.span(f));
        }
        // Suffix pass folds in the max over the positions after each one,
        // and takes each `reach(i)` and its suffix maximum.
        let mut suffix = SimDuration::ZERO;
        let mut suffix_cpu = SimDuration::ZERO;
        self.reach_pre.resize(n, SimDuration::ZERO);
        self.reach_suf.resize(n + 1, SimDuration::ZERO);
        for i in (0..n).rev() {
            self.others_tail[i] = self.others_tail[i].max(suffix);
            suffix = suffix.max(src.spacing * i as u64 + src.catalog.span(src.set[i]));
            suffix_cpu += self.cpus[i];
            self.reach_pre[i] = src.created_at(i) + suffix_cpu;
            self.reach_suf[i] = self.reach_suf[i + 1].max(self.reach_pre[i]);
        }
        for i in 1..n {
            self.reach_pre[i] = self.reach_pre[i].max(self.reach_pre[i - 1]);
        }
    }

    /// [`StaggeredSet::makespan_lower_bound`] of the summarised set with
    /// position `pos` holding `incoming` instead.
    pub fn lower_bound_with(
        &self,
        catalog: &SegmentCatalog,
        pos: usize,
        incoming: FunctionId,
    ) -> SimDuration {
        let cpu_sum = self.cpu_sum - self.cpus[pos] + catalog.cpu_total(incoming);
        let tail = self.others_tail[pos].max(self.spacing * pos as u64 + catalog.span(incoming));
        self.base + cpu_sum.max(tail)
    }

    /// Algorithm 1's makespan of the summarised set with position `pos`
    /// holding `incoming` instead, or `None` unless both are CPU-only. The
    /// swap shifts `reach(i)` by the same CPU delta for every `i <= pos`
    /// and for no later `i`, so this is [`StaggeredSet::cpu_only_makespan`]
    /// of the swapped set, bit for bit, in O(1).
    pub fn makespan_with(
        &self,
        catalog: &SegmentCatalog,
        pos: usize,
        incoming: FunctionId,
    ) -> Option<SimDuration> {
        if !(self.cpu_only && catalog.is_cpu_only(incoming)) {
            return None;
        }
        let head = self.reach_pre[pos] - self.cpus[pos] + catalog.cpu_total(incoming);
        Some(head.max(self.reach_suf[pos + 1]))
    }
}

/// Scores below this many nanoseconds convert to distinct, equally
/// ordered milliseconds: `x as f64 / 1e6` is correctly rounded, so it is
/// monotone, and below 2^51 two integers' quotients lie more than two
/// ulps apart, so it is injective.
const EXACT_MS_BELOW_NS: u64 = 1 << 51;

/// One position `i` of a CPU-only side of a [`SwapScan`], in integer
/// nanoseconds. With `c` the incoming function's CPU total, the swapped
/// set's closed-form makespan is `max(head + c, suf)` (as
/// [`StaggeredSummary::makespan_with`]), and its lower bound is
/// `max(low + c, tail)` (as [`StaggeredSummary::lower_bound_with`]: a
/// CPU-only function's span is its CPU total, so the bound's two `+ c`
/// terms share one maximum).
#[derive(Debug, Clone, Copy, Default)]
struct SwapTerms {
    /// `reach_pre[i] − cpu[i]`.
    head: u64,
    /// `reach_suf[i + 1]`.
    suf: u64,
    /// `base + max(cpu_sum − cpu[i], spacing·i)`.
    low: u64,
    /// `base + others_tail[i]`.
    tail: u64,
    /// `cpu[i]`, what the position brings to the other side.
    cpu: u64,
}

/// A Kernighan–Lin round over two CPU-only sets, tabulated so that its
/// winning swap is one scan of integer maxima and compares.
///
/// [`begin`](SwapScan::begin) builds one [`SwapTerms`] table per side in
/// two passes over the set (no [`StaggeredSummary`] rebuild), and
/// [`best_swap`](SwapScan::best_swap) walks the round's candidates in the
/// pass's order. Every score stays below 2^51 ns, where integer order is
/// the order of the milliseconds the candidate loop compares, so the scan
/// picks the loop's swap and prunes the loop's candidates.
#[derive(Debug, Clone, Default)]
pub struct SwapScan {
    sides: [Vec<SwapTerms>; 2],
    /// Side B's terms at the free positions, in `free_b` order.
    row: Vec<SwapTerms>,
    ready: bool,
}

impl SwapScan {
    /// Tabulates the round whose working sets are `a` and `b`. Returns
    /// whether [`best_swap`](SwapScan::best_swap) will answer it: every
    /// function of both sets is CPU-only and no score can reach 2^51 ns.
    pub fn begin(&mut self, a: &StaggeredSet<'_>, b: &StaggeredSet<'_>) -> bool {
        let [ta, tb] = &mut self.sides;
        self.ready = match (tabulate(ta, a), tabulate(tb, b)) {
            (Some(reach_a), Some(reach_b)) => reach_a.saturating_add(reach_b) < EXACT_MS_BELOW_NS,
            _ => false,
        };
        self.ready
    }

    /// The round's winning swap `(position in a, position in b, pair
    /// score)`: the first candidate of `free_a × free_b`, in that nesting
    /// order, whose score is strictly below every earlier one's. Advances
    /// `stats.candidates` and `stats.pruned` exactly as the pruning
    /// candidate loop does. `None` unless the last
    /// [`begin`](SwapScan::begin) returned true.
    ///
    /// With incumbent `s`, the loop prunes a candidate once side A's
    /// bound, side A's score or side B's bound reaches `s`. A side's bound
    /// never exceeds its CPU-only score, so that is `max(ev_a, lb_b) ≥ s`,
    /// and a pruned candidate's score `max(ev_a, ev_b)` is at least `s`:
    /// the winner is the first strict minimum of the scores alone.
    pub fn best_swap(
        &mut self,
        free_a: &[usize],
        free_b: &[usize],
        stats: &mut KlStats,
    ) -> Option<(usize, usize, SimDuration)> {
        if !self.ready || free_a.is_empty() || free_b.is_empty() {
            return None;
        }
        let [a, b] = &self.sides;
        self.row.clear();
        self.row.extend(free_b.iter().map(|&ib| b[ib]));
        let (mut s, mut best, mut pruned) = (u64::MAX, (0, 0), 0u64);
        for &ia in free_a {
            let ta = a[ia];
            for (j, tb) in self.row.iter().enumerate() {
                let ev_a = (ta.head + tb.cpu).max(ta.suf);
                let ev_b = (tb.head + ta.cpu).max(tb.suf);
                let lb_b = (tb.low + ta.cpu).max(tb.tail);
                pruned += u64::from(ev_a.max(lb_b) >= s);
                let score = ev_a.max(ev_b);
                if score < s {
                    (s, best) = (score, (ia, j));
                }
            }
        }
        stats.candidates += (free_a.len() * free_b.len()) as u64;
        stats.pruned += pruned;
        Some((best.0, free_b[best.1], SimDuration::from_nanos(s)))
    }
}

/// Fills `terms` for `src`, or returns `None` when a function of the set
/// has a block segment. Otherwise returns `base + spacing·n + cpu_sum`:
/// the two sides' sum bounds every score and bound of the round.
fn tabulate(terms: &mut Vec<SwapTerms>, src: &StaggeredSet<'_>) -> Option<u64> {
    let (base, spacing) = (src.base.as_nanos(), src.spacing.as_nanos());
    terms.resize(src.set.len(), SwapTerms::default());
    // Forward: the CPU totals, their sum, the tail maximum over the
    // earlier positions, and the running maximum of `spacing·j − Σ_{k<j}
    // cpu_k`, which is `reach(j)` less `base + cpu_sum` (known only at the
    // end), held in `head` as a two's-complement i64.
    let (mut cpu_sum, mut tail, mut lead, mut step) = (0u64, 0u64, i64::MIN, 0u64);
    for (t, &f) in terms.iter_mut().zip(src.set) {
        if !src.catalog.is_cpu_only(f) {
            return None;
        }
        let cpu = src.catalog.cpu_total(f).as_nanos();
        lead = lead.max(step as i64 - cpu_sum as i64);
        *t = SwapTerms {
            head: lead as u64,
            suf: 0,
            low: step,
            tail,
            cpu,
        };
        tail = tail.max(step + cpu);
        cpu_sum += cpu;
        step += spacing;
    }
    // Backward: the tail maximum over the later positions, the suffix
    // maximum of `reach`, and every term in its final form.
    let (mut tail, mut suffix_cpu, mut reach_suf) = (0u64, 0u64, 0u64);
    for t in terms.iter_mut().rev() {
        let step = t.low;
        t.suf = reach_suf;
        suffix_cpu += t.cpu;
        reach_suf = reach_suf.max(base + step + suffix_cpu);
        t.head = (base + cpu_sum).wrapping_add(t.head) - t.cpu;
        t.low = base + (cpu_sum - t.cpu).max(step);
        t.tail = base + t.tail.max(tail);
        tail = tail.max(step + t.cpu);
    }
    Some(base.saturating_add(step).saturating_add(cpu_sum))
}

/// [`ThreadSource`] over caller-owned flat buffers; used for isolated
/// (segment-stretched) processes that must be materialised before
/// simulation, without allocating per call.
#[derive(Debug, Clone, Copy)]
pub struct FlatThreads<'a> {
    pub created: &'a [SimDuration],
    pub ranges: &'a [(u32, u32)],
    pub segments: &'a [Segment],
}

impl ThreadSource for FlatThreads<'_> {
    fn count(&self) -> usize {
        self.created.len()
    }
    fn created_at(&self, i: usize) -> SimDuration {
        self.created[i]
    }
    fn segments(&self, i: usize) -> &[Segment] {
        let (s, e) = self.ranges[i];
        &self.segments[s as usize..e as usize]
    }
}

/// Full-content key for an arbitrary thread source (order-sensitive FNV
/// over creation times and every segment).
pub fn content_key(src: &impl ThreadSource, interval: SimDuration) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(SALT_FLAT);
    h.write_u64(interval.as_nanos());
    let n = src.count();
    h.write_u64(n as u64);
    for i in 0..n {
        h.write_u64(src.created_at(i).as_nanos());
        for seg in src.segments(i) {
            hash_segment(&mut h, seg);
        }
    }
    h.finish()
}

/// Key of a stage's memoised partition into `n` processes: the stage's
/// ordered function content hashes, `n`, and the switch interval and
/// thread spacing of the [`StaggeredSet`]s its KL search scores. Those are
/// all the search reads, so equal keys mean equal swaps and counters.
pub fn partition_key(
    catalog: &SegmentCatalog,
    stage: &[FunctionId],
    n: usize,
    interval: SimDuration,
    spacing: SimDuration,
) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(SALT_PARTITION);
    h.write_u64(interval.as_nanos());
    h.write_u64(spacing.as_nanos());
    h.write_u64(n as u64);
    h.write_u64(stage.len() as u64);
    for &f in stage {
        h.write_u64(catalog.content_hash(f));
    }
    h.finish()
}

/// Search-effort counters of one or more Kernighan–Lin passes, summed
/// into the PGP decision audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KlStats {
    /// Non-trivial passes run (both sets non-empty).
    pub passes: u64,
    /// Swap-selection rounds (Algorithm 2 line 20 iterations).
    pub rounds: u64,
    /// Candidate `(ia, ib)` swaps examined.
    pub candidates: u64,
    /// Candidates discharged by the exact prunes without full evaluation.
    pub pruned: u64,
    /// Swaps actually applied (the chosen prefix length, summed).
    pub applied: u64,
}

impl std::ops::AddAssign for KlStats {
    fn add_assign(&mut self, other: KlStats) {
        self.passes += other.passes;
        self.rounds += other.rounds;
        self.candidates += other.candidates;
        self.pruned += other.pruned;
        self.applied += other.applied;
    }
}

/// One stage's Kernighan–Lin partition into `n` processes, as the PGP
/// scheduler memoises it under [`partition_key`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionMemo {
    /// The swaps the search applied, in order, as `[set i, set j,
    /// position in i, position in j]` over the stage's round-robin split.
    pub swaps: Vec<[u32; 4]>,
    /// What the search cost, added to the audit again on every replay.
    pub stats: KlStats,
}

/// Keys are already uniformly mixed hashes; storing them under a second
/// hash would be wasted work, so the map hasher is the identity.
#[derive(Debug, Default, Clone)]
pub struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type KeyMap<V> = HashMap<u64, V, BuildHasherDefault<IdentityHasher>>;

/// Hit/miss counters snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
}

impl CacheStats {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Content-addressed store of Algorithm 1 outcomes, plus the PGP
/// partition memo. One instance serves a whole schedule (or the manager's
/// lifetime — keys are pure content, so entries never go stale).
pub struct PredictionCache {
    outcomes: RefCell<KeyMap<SimOutcome>>,
    partitions: RefCell<KeyMap<PartitionMemo>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl PredictionCache {
    pub fn new() -> Self {
        PredictionCache {
            outcomes: RefCell::default(),
            partitions: RefCell::default(),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    pub fn get(&self, key: u64) -> Option<SimOutcome> {
        let out = self.outcomes.borrow().get(&key).copied();
        match out {
            Some(_) => {
                self.hits.set(self.hits.get() + 1);
                CACHE_HITS.incr();
            }
            None => {
                self.misses.set(self.misses.get() + 1);
                CACHE_MISSES.incr();
            }
        };
        out
    }

    pub fn put(&self, key: u64, outcome: SimOutcome) {
        CACHE_INSERTS.incr();
        self.outcomes.borrow_mut().insert(key, outcome);
    }

    /// Memoised Algorithm 1: look up `key`, else simulate `src` and store
    /// the result.
    pub fn get_or_simulate(
        &self,
        key: u64,
        src: &impl ThreadSource,
        interval: SimDuration,
        arena: &mut SimArena,
    ) -> SimOutcome {
        if let Some(out) = self.get(key) {
            return out;
        }
        let out = predict_threads_src(src, interval, arena);
        self.put(key, out);
        out
    }

    /// The partition memoised under `key`, if any. Not counted in
    /// [`CacheStats`], which counts Algorithm 1 lookups only.
    pub fn partition(&self, key: u64) -> Option<PartitionMemo> {
        self.partitions.borrow().get(&key).cloned()
    }

    pub fn put_partition(&self, key: u64, memo: PartitionMemo) {
        self.partitions.borrow_mut().insert(key, memo);
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries: self.outcomes.borrow().len(),
        }
    }

    /// Drops all entries and resets the counters.
    pub fn clear(&self) {
        self.outcomes.borrow_mut().clear();
        self.partitions.borrow_mut().clear();
        self.hits.set(0);
        self.misses.set(0);
    }
}

impl Default for PredictionCache {
    fn default() -> Self {
        PredictionCache::new()
    }
}

impl std::fmt::Debug for PredictionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictionCache")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threadsim::predict_threads;
    use crate::SimThread;
    use chiron_model::{apps, SyscallKind};
    use chiron_profiler::Profiler;

    fn catalog_for(n: usize) -> (SegmentCatalog, usize) {
        let wf = apps::finra(n);
        let profile = Profiler::default().profile_workflow(&wf);
        (SegmentCatalog::new(&profile), profile.functions.len())
    }

    #[test]
    fn catalog_matches_profile_segments() {
        let wf = apps::finra(5);
        let profile = Profiler::default().profile_workflow(&wf);
        let catalog = SegmentCatalog::new(&profile);
        for f in &profile.functions {
            assert_eq!(catalog.segments(f.function), f.segments().as_slice());
        }
    }

    #[test]
    fn identical_profiles_share_content_hash() {
        // FINRA's rule durations cycle with period 5, so rule_000 (id 1)
        // and rule_005 (id 6) have identical profile content.
        let (catalog, n) = catalog_for(8);
        assert!(n > 6);
        assert_eq!(
            catalog.content_hash(FunctionId(1)),
            catalog.content_hash(FunctionId(6))
        );
        assert_ne!(
            catalog.content_hash(FunctionId(1)),
            catalog.content_hash(FunctionId(2))
        );
    }

    #[test]
    fn staggered_key_is_order_sensitive() {
        let (catalog, _) = catalog_for(5);
        // fetch_market_data (0) and validate_rule_000 (1) differ in content.
        assert_ne!(
            catalog.content_hash(FunctionId(0)),
            catalog.content_hash(FunctionId(1))
        );
        let i = SimDuration::from_millis(5);
        let ab = StaggeredSet {
            set: &[FunctionId(0), FunctionId(1)],
            catalog: &catalog,
            spacing: SimDuration::from_micros(100),
            base: SimDuration::ZERO,
        };
        let ba = StaggeredSet {
            set: &[FunctionId(1), FunctionId(0)],
            catalog: &catalog,
            spacing: SimDuration::from_micros(100),
            base: SimDuration::ZERO,
        };
        assert_ne!(ab.key(i), ba.key(i));
    }

    #[test]
    fn staggered_key_matches_flat_content_semantics() {
        // Same ordered contents under different fids hash equal; any
        // parameter change hashes different. In FINRA-12, rules repeat
        // every 5 ids: [1, 2] and [6, 7] carry identical contents.
        let (catalog, _) = catalog_for(12);
        let i = SimDuration::from_millis(5);
        let spacing = SimDuration::from_micros(100);
        let a = StaggeredSet {
            set: &[FunctionId(1), FunctionId(2)],
            catalog: &catalog,
            spacing,
            base: SimDuration::ZERO,
        };
        let b = StaggeredSet {
            set: &[FunctionId(6), FunctionId(7)],
            catalog: &catalog,
            spacing,
            base: SimDuration::ZERO,
        };
        assert_eq!(a.key(i), b.key(i));
        let wider = StaggeredSet {
            spacing: spacing * 2,
            ..a
        };
        assert_ne!(a.key(i), wider.key(i));
        assert_ne!(a.key(i), a.key(SimDuration::from_millis(6)));
    }

    #[test]
    fn staggered_key_matches_bytewise_fold() {
        let (catalog, _) = catalog_for(12);
        let mut state = 0;
        let mut next = || {
            state = splitmix64(state);
            state
        };
        // Each scalar is a typical value or any 64 bits.
        let mut either = |typical: u64| [typical, next()][next() as usize % 2];
        for _ in 0..512 {
            let len = either(3) % 8;
            let set: Vec<FunctionId> = (0..len)
                .map(|i| FunctionId(either(i) as u32 % 13))
                .collect();
            let interval = SimDuration::from_nanos(either(5_000_000));
            let src = StaggeredSet {
                set: &set,
                catalog: &catalog,
                spacing: SimDuration::from_nanos(either(100_000)),
                base: SimDuration::from_nanos(either(0)),
            };
            // The salt as first written: each scalar folded byte by byte.
            let mut salt = Fnv1a::new();
            let (spacing, base) = (src.spacing.as_nanos(), src.base.as_nanos());
            for v in [SALT_STAGGERED, interval.as_nanos(), spacing, base, len] {
                v.to_le_bytes().into_iter().for_each(|b| salt.write_u8(b));
            }
            let mut want = salt.finish();
            for (i, &f) in set.iter().enumerate() {
                let pos = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                want ^= splitmix64(catalog.content_hash(f).wrapping_add(pos));
            }
            assert_eq!(src.key(interval), want);
        }
    }

    #[test]
    fn cached_simulation_matches_uncached() {
        let (catalog, _) = catalog_for(5);
        let i = SimDuration::from_millis(5);
        let spacing = SimDuration::from_micros(100);
        let set = [FunctionId(0), FunctionId(2), FunctionId(4)];
        let src = StaggeredSet {
            set: &set,
            catalog: &catalog,
            spacing,
            base: SimDuration::ZERO,
        };
        let threads: Vec<SimThread> = set
            .iter()
            .enumerate()
            .map(|(ti, &f)| SimThread {
                created_at: spacing * ti as u64,
                segments: catalog.segments(f).to_vec(),
            })
            .collect();
        let expected = predict_threads(&threads, i);

        let cache = PredictionCache::new();
        let mut arena = SimArena::new();
        let first = cache.get_or_simulate(src.key(i), &src, i, &mut arena);
        let second = cache.get_or_simulate(src.key(i), &src, i, &mut arena);
        assert_eq!(first, expected);
        assert_eq!(second, expected);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(stats.hit_rate() > 0.49);
    }

    #[test]
    fn makespan_lower_bound_never_exceeds_simulation() {
        // The KL prune is only exact if the bound is a true lower bound of
        // every simulated makespan; sweep contiguous FINRA sets of several
        // sizes (mixed CPU-only rules and the blocking fetch function).
        let (catalog, n) = catalog_for(12);
        let interval = SimDuration::from_millis(5);
        let spacing = SimDuration::from_micros(100);
        let mut arena = SimArena::new();
        let all: Vec<FunctionId> = (0..n as u32).map(FunctionId).collect();
        for window in [1usize, 2, 3, 5, 8] {
            for start in 0..=(n - window) {
                let src = StaggeredSet {
                    set: &all[start..start + window],
                    catalog: &catalog,
                    spacing,
                    base: SimDuration::from_micros(250 * (start % 2) as u64),
                };
                let out = predict_threads_src(&src, interval, &mut arena);
                assert!(
                    src.makespan_lower_bound() <= out.makespan,
                    "bound exceeds makespan for window {window} at {start}"
                );
            }
        }
    }

    #[test]
    fn content_key_covers_every_field() {
        let seg = |ms| Segment::cpu_ms(ms);
        let block = Segment::Block {
            kind: SyscallKind::DiskIo,
            dur: SimDuration::from_millis(3),
        };
        let created = [SimDuration::ZERO, SimDuration::from_millis(1)];
        let segments = [seg(2), block, seg(4)];
        let ranges = [(0u32, 2u32), (2, 3)];
        let src = FlatThreads {
            created: &created,
            ranges: &ranges,
            segments: &segments,
        };
        let i = SimDuration::from_millis(5);
        let base = content_key(&src, i);
        let shifted = [SimDuration::ZERO, SimDuration::from_millis(2)];
        assert_ne!(
            base,
            content_key(
                &FlatThreads {
                    created: &shifted,
                    ..src
                },
                i
            )
        );
        let resized = [(0u32, 1u32), (1, 3)];
        assert_ne!(
            base,
            content_key(
                &FlatThreads {
                    ranges: &resized,
                    ..src
                },
                i
            )
        );
        assert_ne!(base, content_key(&src, SimDuration::from_millis(6)));
    }
}

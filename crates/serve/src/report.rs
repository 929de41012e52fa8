//! Per-request outcome records and the run-level serving report.

use chiron_metrics::StreamingHistogram;
use chiron_model::SimDuration;
use chiron_obs::SloSummary;

/// One completed (or still-unfinished) request's life cycle, in
/// simulation nanoseconds, in 40 bytes.
///
/// A standalone run keeps one record per request, so the log is most of
/// what a long run holds, and the layout is kept lean: three plain `u64`
/// times (arrival, last dispatch, completion), the `u32` replica, the
/// `u16` phase and requeue count, the `u8` tier and one `u8` of flags,
/// 8-byte aligned. The dispatch and completion times are plain words
/// with a presence flag each, where two `Option<u64>`s would take 16
/// bytes apiece: a time not set yet is stored as 0, and a set time is
/// never cleared, so the derived `PartialEq` compares records exactly as
/// the `Option`s would. The flags say whether each of the two times is
/// set, whether the request paid a cold start, and whether it was
/// forwarded. The simulation writes a record through
/// [`RequestRecord::new`] and the setters; readers use the accessors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    pub arrival_ns: u64,
    /// See [`RequestRecord::dispatched_ns`]; 0 while unset.
    dispatched_ns: u64,
    /// See [`RequestRecord::completed_ns`]; 0 while unset.
    completed_ns: u64,
    /// Replica that served (or was serving) it.
    pub replica: u32,
    /// Workload phase the arrival fell in.
    pub phase: u16,
    /// Times the request went back to a queue after its replica died.
    pub requeues: u16,
    /// `StartTier` code of the serving replica (0 warm, 1 snapshot,
    /// 2 zygote, 3 cold boot). Legacy runs only ever record 0 and 3.
    pub tier: u8,
    /// `DISPATCHED | COMPLETED | COLD_START | FORWARDED` bits.
    flags: u8,
}

const DISPATCHED: u8 = 1;
const COMPLETED: u8 = 1 << 1;
const COLD_START: u8 = 1 << 2;
const FORWARDED: u8 = 1 << 3;

impl RequestRecord {
    /// A request that arrived at `arrival_ns` in workload phase `phase`,
    /// not yet dispatched.
    pub fn new(arrival_ns: u64, phase: u16) -> Self {
        RequestRecord {
            arrival_ns,
            dispatched_ns: 0,
            completed_ns: 0,
            replica: 0,
            phase,
            requeues: 0,
            tier: 0,
            flags: 0,
        }
    }

    /// Last dispatch time (re-dispatches overwrite); `None` before the
    /// first dispatch.
    pub fn dispatched_ns(&self) -> Option<u64> {
        (self.flags & DISPATCHED != 0).then_some(self.dispatched_ns)
    }

    /// Completion time; `None` while in flight. A request completing at
    /// exactly t = 0 in a synthetic workload reads `Some(0)`, not
    /// unfinished.
    pub fn completed_ns(&self) -> Option<u64> {
        self.is_completed().then_some(self.completed_ns)
    }

    /// Served by a replica whose on-path start window this request's
    /// burst triggered (first request of a replica that paid a startup
    /// latency — a full cold boot, a snapshot restore, or a zygote fork).
    pub fn cold_start(&self) -> bool {
        self.flags & COLD_START != 0
    }

    /// Spilled to another cluster by the federation router while still
    /// queued: the request leaves this cluster's accounting (it is not
    /// lost) and completes — with a fresh record — at the receiver.
    pub fn forwarded(&self) -> bool {
        self.flags & FORWARDED != 0
    }

    /// Records a dispatch (or re-dispatch) at `ns`.
    pub fn set_dispatched_ns(&mut self, ns: u64) {
        self.dispatched_ns = ns;
        self.flags |= DISPATCHED;
    }

    /// Records the completion at `ns`.
    pub fn set_completed_ns(&mut self, ns: u64) {
        self.completed_ns = ns;
        self.flags |= COMPLETED;
    }

    pub fn set_cold_start(&mut self, cold: bool) {
        self.set_flag(COLD_START, cold);
    }

    pub fn set_forwarded(&mut self, forwarded: bool) {
        self.set_flag(FORWARDED, forwarded);
    }

    fn set_flag(&mut self, flag: u8, on: bool) {
        if on {
            self.flags |= flag;
        } else {
            self.flags &= !flag;
        }
    }

    /// Arrival-to-completion latency; zero while still in flight.
    pub fn sojourn(&self) -> SimDuration {
        match self.completed_ns() {
            Some(done) => SimDuration::from_nanos(done.saturating_sub(self.arrival_ns)),
            None => SimDuration::ZERO,
        }
    }

    pub fn is_completed(&self) -> bool {
        self.flags & COMPLETED != 0
    }
}

/// Latency/volume summary of one workload phase.
///
/// Carries the phase's full streaming histogram next to the derived
/// scalars, so per-cluster phase summaries merge *exactly* (bucket counts
/// add) instead of approximating percentiles from pre-reduced numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSummary {
    pub offered_rps: f64,
    pub completed: u64,
    pub mean_sojourn: SimDuration,
    pub p50_sojourn: SimDuration,
    pub p99_sojourn: SimDuration,
    pub max_sojourn: SimDuration,
    pub cold_starts: u64,
    /// Completed sojourns of this phase (the source of the scalars above).
    pub sojourns: StreamingHistogram,
}

impl PhaseSummary {
    /// Builds the summary from a phase's sojourn histogram.
    pub fn from_histogram(
        offered_rps: f64,
        completed: u64,
        cold_starts: u64,
        sojourns: StreamingHistogram,
    ) -> Self {
        PhaseSummary {
            offered_rps,
            completed,
            mean_sojourn: sojourns.mean(),
            p50_sojourn: sojourns.percentile(0.50),
            p99_sojourn: sojourns.percentile(0.99),
            max_sojourn: sojourns.max(),
            cold_starts,
            sojourns,
        }
    }

    /// Folds another cluster's view of the same phase into this one.
    /// Histogram buckets add, so the merged percentiles equal those of
    /// the union of the underlying samples; offered rates add because
    /// each cluster served a disjoint slice of the fleet stream.
    pub fn absorb(&mut self, other: &PhaseSummary) {
        self.add(other);
        self.refresh();
    }

    /// [`PhaseSummary::absorb`] without re-deriving the scalars.
    fn add(&mut self, other: &PhaseSummary) {
        self.offered_rps += other.offered_rps;
        self.completed += other.completed;
        self.cold_starts += other.cold_starts;
        self.sojourns.merge(&other.sojourns);
    }

    /// Re-derives the scalars from the histogram.
    fn refresh(&mut self) {
        self.mean_sojourn = self.sojourns.mean();
        self.p50_sojourn = self.sojourns.percentile(0.50);
        self.p99_sojourn = self.sojourns.percentile(0.99);
        self.max_sojourn = self.sojourns.max();
    }
}

/// Everything a serving run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests admitted (open loop: every arrival is admitted).
    pub accepted: u64,
    pub completed: u64,
    /// `accepted - completed - forwarded_out` — zero unless the cluster
    /// deadlocked.
    pub lost: u64,
    /// Requests this cluster admitted but spilled to a peer through the
    /// federation router; they complete (and are counted) at the
    /// receiver. Always zero for standalone (non-federated) runs.
    pub forwarded_out: u64,
    /// Requests that were re-queued at least once by failure recovery.
    pub requeued_requests: u64,
    /// Requests that paid an on-path sandbox cold start.
    pub cold_starts: u64,
    /// Time of the last completion.
    pub makespan: SimDuration,
    /// All completed sojourns (streaming, ~0.05% quantile error).
    pub sojourns: StreamingHistogram,
    pub phases: Vec<PhaseSummary>,
    pub peak_replicas: u32,
    pub scale_ups: u32,
    pub scale_downs: u32,
    pub replicas_failed: u32,
    /// Replica starts by `StartTier` code (warm handover, snapshot
    /// restore, zygote fork, cold boot) — every `ReplicaSpawn`, baseline
    /// included.
    pub starts_by_tier: [u32; 4],
    /// Replica-seconds of reserved capacity, and its dollar value under
    /// the paper's GB-s / GHz-s billing model. Includes the keepalive
    /// drain tail: an autoscaled replica idle at the last completion
    /// still occupies its nodes until its keepalive expires, and those
    /// memory-seconds are billed like any others.
    pub replica_seconds: f64,
    pub gb_seconds: f64,
    pub ghz_seconds: f64,
    pub cost_usd: f64,
    /// The busy/idle split of `replica_seconds`: time actually serving
    /// requests vs held reserved (startup, keepalive, queue droughts).
    pub busy_replica_seconds: f64,
    pub idle_replica_seconds: f64,
    /// The portion of `replica_seconds` charged after the last
    /// completion, while keepalives drained.
    pub keepalive_tail_seconds: f64,
    /// Standing rent of the prewarm pools (held snapshot slots, zygote
    /// fork slots and the shared zygote image), exact to the event
    /// granularity. Zero for legacy (non-lifecycle) runs.
    pub pool_gb_seconds: f64,
    pub pool_rent_usd: f64,
    /// `(time ns, usable replicas)` after every scaling/failure change.
    pub replica_timeline: Vec<(u64, u32)>,
    /// SLO compliance and burn-rate alert timeline; `None` when the run
    /// was configured without an SLO.
    pub slo: Option<SloSummary>,
    /// Regime changes the online sensor fired (zero when the run was
    /// configured without a `RegimeConfig`).
    pub regime_changes: u32,
    /// Per-request outcomes, indexed by request id (arrival order), at
    /// 40 bytes a request (see [`RequestRecord`]). Empty for a fleet
    /// cluster: it streams each record into its digest once the record
    /// is final and returns no log.
    pub records: Vec<RequestRecord>,
}

/// The order-sensitive digest of a request log, fed one record at a
/// time in id order: the same value whether the records sit in one
/// finished log ([`ServeReport::digest`]) or stream past as they become
/// final (a fleet cluster, which keeps only its log's unfinished tail).
/// [`FleetReport::digest`] folds the cluster digests with the same step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordDigest {
    hash: u64,
}

impl RecordDigest {
    pub(crate) fn new() -> Self {
        RecordDigest {
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// One FxHash step per 64-bit word. For a fixed word it is a
    /// bijection of the state, so changing one word always changes the
    /// digest, and the rotate carries high input bits into low ones.
    fn eat(&mut self, w: u64) {
        self.hash = (self.hash.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    /// Feeds the next record in id order: the five words
    /// [`ServeReport::digest`] documents. An unset time is stored as 0,
    /// and its presence bit in `flags` tells it from a time of 0.
    pub(crate) fn eat_record(&mut self, r: &RequestRecord) {
        self.eat(r.arrival_ns);
        self.eat(r.dispatched_ns);
        self.eat(r.completed_ns);
        self.eat(u64::from(r.replica));
        self.eat(
            u64::from(r.phase) << 32
                | u64::from(r.tier) << 24
                | u64::from(r.flags) << 16
                | u64::from(r.requeues),
        );
    }

    /// Closes the digest with the run's totals.
    pub(crate) fn finish(mut self, accepted: u64, completed: u64) -> u64 {
        self.eat(accepted);
        self.eat(completed);
        self.hash
    }
}

impl ServeReport {
    /// Order-sensitive digest over every per-request outcome — the
    /// reproducibility check for seeded runs.
    ///
    /// Starting from `0xcbf2_9ce4_8422_2325`, it takes the step
    /// `h = (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)`
    /// for each word `w` of the sequence: per record in id order,
    /// `arrival_ns`, the dispatch time and the completion time (0 when
    /// unset), `replica`, and `phase << 32 | tier << 24 | flags << 16 |
    /// requeues`, where `flags` is `dispatched | completed << 1 |
    /// cold_start << 2 | forwarded << 3`; then `accepted` and `completed`.
    pub fn digest(&self) -> u64 {
        let mut digest = RecordDigest::new();
        for r in &self.records {
            digest.eat_record(r);
        }
        digest.finish(self.accepted, self.completed)
    }

    /// Fraction of completed requests that paid an on-path cold start.
    pub fn cold_start_fraction(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.cold_starts as f64 / self.completed as f64
    }

    /// Replica-start fractions per tier, in `StartTier` code order
    /// (all-zero when the run never started a replica).
    pub fn tier_start_fractions(&self) -> [f64; 4] {
        let total: u32 = self.starts_by_tier.iter().sum();
        if total == 0 {
            return [0.0; 4];
        }
        self.starts_by_tier.map(|n| f64::from(n) / f64::from(total))
    }

    /// Full serving bill: reserved replica capacity plus the prewarm
    /// pools' standing rent. This is the cost axis the lifecycle figure
    /// compares tier mixes on.
    pub fn total_cost_usd(&self) -> f64 {
        self.cost_usd + self.pool_rent_usd
    }

    /// p99 sojourn over the tail of one phase: completed requests of the
    /// phase, in arrival order, after skipping the first `skip_fraction`
    /// (the scale-up transient). This is the steady-state view the
    /// autoscaler's latency target is judged against.
    pub fn tail_p99_of_phase(&self, phase: usize, skip_fraction: f64) -> SimDuration {
        assert!((0.0..1.0).contains(&skip_fraction));
        let phase = phase as u16;
        let in_phase: Vec<&RequestRecord> = self
            .records
            .iter()
            .filter(|r| r.phase == phase && r.is_completed())
            .collect();
        let skip = (in_phase.len() as f64 * skip_fraction).floor() as usize;
        let mut hist = StreamingHistogram::new();
        for r in &in_phase[skip.min(in_phase.len())..] {
            hist.record(r.sojourn());
        }
        hist.percentile(0.99)
    }
}

/// The federation's merged view of one fleet run: per-cluster
/// [`ServeReport`]s folded *exactly* — streaming histograms merge bucket
/// by bucket (so fleet p50/p99 equal the percentiles of the union of all
/// sojourns), counters and billing sum in cluster order, makespan takes
/// the max, and reproducibility is pinned by a digest-of-digests.
///
/// The fleet view keeps only each cluster's record digest, and a fleet
/// cluster computes that digest as its records become final instead of
/// keeping a request log, so a ten-million-request run holds only the
/// records from each cluster's oldest unfinished request onward, and
/// merging costs histogram-merge time.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    pub clusters: u32,
    /// Locally-admitted arrivals summed over clusters, spillover
    /// re-admissions included.
    pub accepted: u64,
    pub completed: u64,
    /// Requests admitted somewhere but finished nowhere. Zero unless a
    /// cluster deadlocked: spillover moves work, it never drops it.
    pub lost: u64,
    /// Cross-cluster spillover volume (each forwarded request is counted
    /// once, at the cluster that shed it).
    pub forwarded: u64,
    pub requeued_requests: u64,
    pub cold_starts: u64,
    pub makespan: SimDuration,
    pub sojourns: StreamingHistogram,
    pub phases: Vec<PhaseSummary>,
    /// Sum of per-cluster peaks — fleet capacity actually stood up.
    pub peak_replicas: u32,
    pub scale_ups: u32,
    pub scale_downs: u32,
    pub replicas_failed: u32,
    pub starts_by_tier: [u32; 4],
    pub replica_seconds: f64,
    pub gb_seconds: f64,
    pub ghz_seconds: f64,
    pub cost_usd: f64,
    pub busy_replica_seconds: f64,
    pub idle_replica_seconds: f64,
    pub keepalive_tail_seconds: f64,
    pub pool_gb_seconds: f64,
    pub pool_rent_usd: f64,
    pub slo_alerts_fired: u32,
    /// Fleet-merged SLO view: per-cluster summaries folded exactly in
    /// cluster order ([`SloSummary::absorb`] — counts and alert time add,
    /// transitions interleave by event time, compliance is recomputed
    /// from merged totals). `None` when no cluster ran with an SLO.
    pub slo: Option<SloSummary>,
    /// Regime changes fired across the fleet (sum of cluster counts).
    pub regime_changes: u32,
    /// Per-cluster report digests, in cluster order.
    pub cluster_digests: Vec<u64>,
}

impl FleetReport {
    /// Folds per-cluster reports (in cluster order) into the fleet view.
    pub fn merge(reports: &[ServeReport]) -> FleetReport {
        Self::merge_digested(reports, reports.iter().map(ServeReport::digest).collect())
    }

    /// [`FleetReport::merge`] given each report's [`ServeReport::digest`]
    /// (the fleet driver computes them on its workers).
    pub(crate) fn merge_digested(
        reports: &[ServeReport],
        cluster_digests: Vec<u64>,
    ) -> FleetReport {
        assert!(!reports.is_empty(), "a fleet has at least one cluster");
        assert_eq!(
            reports.len(),
            cluster_digests.len(),
            "one digest per report"
        );
        let mut sojourns = StreamingHistogram::new();
        let mut phases: Vec<PhaseSummary> = Vec::new();
        let mut out = FleetReport {
            clusters: reports.len() as u32,
            accepted: 0,
            completed: 0,
            lost: 0,
            forwarded: 0,
            requeued_requests: 0,
            cold_starts: 0,
            makespan: SimDuration::ZERO,
            sojourns: StreamingHistogram::new(),
            phases: Vec::new(),
            peak_replicas: 0,
            scale_ups: 0,
            scale_downs: 0,
            replicas_failed: 0,
            starts_by_tier: [0; 4],
            replica_seconds: 0.0,
            gb_seconds: 0.0,
            ghz_seconds: 0.0,
            cost_usd: 0.0,
            busy_replica_seconds: 0.0,
            idle_replica_seconds: 0.0,
            keepalive_tail_seconds: 0.0,
            pool_gb_seconds: 0.0,
            pool_rent_usd: 0.0,
            slo_alerts_fired: 0,
            slo: None,
            regime_changes: 0,
            cluster_digests,
        };
        for r in reports {
            out.accepted += r.accepted;
            out.completed += r.completed;
            out.lost += r.lost;
            out.forwarded += r.forwarded_out;
            out.requeued_requests += r.requeued_requests;
            out.cold_starts += r.cold_starts;
            out.makespan = out.makespan.max(r.makespan);
            sojourns.merge(&r.sojourns);
            if phases.is_empty() {
                phases = r.phases.clone();
            } else {
                assert_eq!(
                    phases.len(),
                    r.phases.len(),
                    "clusters of one fleet run share the workload's phases"
                );
                for (merged, p) in phases.iter_mut().zip(&r.phases) {
                    merged.add(p);
                }
            }
            out.peak_replicas += r.peak_replicas;
            out.scale_ups += r.scale_ups;
            out.scale_downs += r.scale_downs;
            out.replicas_failed += r.replicas_failed;
            for (total, &tier) in out.starts_by_tier.iter_mut().zip(&r.starts_by_tier) {
                *total += tier;
            }
            out.replica_seconds += r.replica_seconds;
            out.gb_seconds += r.gb_seconds;
            out.ghz_seconds += r.ghz_seconds;
            out.cost_usd += r.cost_usd;
            out.busy_replica_seconds += r.busy_replica_seconds;
            out.idle_replica_seconds += r.idle_replica_seconds;
            out.keepalive_tail_seconds += r.keepalive_tail_seconds;
            out.pool_gb_seconds += r.pool_gb_seconds;
            out.pool_rent_usd += r.pool_rent_usd;
            if let Some(slo) = &r.slo {
                out.slo_alerts_fired += slo.alerts_fired;
                out.slo.get_or_insert_with(SloSummary::empty).absorb(slo);
            }
            out.regime_changes += r.regime_changes;
        }
        // The scalars depend only on the final histograms.
        for phase in &mut phases {
            phase.refresh();
        }
        out.sojourns = sojourns;
        out.phases = phases;
        out
    }

    /// Digest-of-digests: [`ServeReport::digest`]'s step over every
    /// `(cluster, digest)` pair, then `accepted`, `completed`,
    /// `forwarded` and `lost`. Byte-identical cluster outcomes — for any
    /// shard grouping or worker count — yield the same fleet digest.
    pub fn digest(&self) -> u64 {
        let mut digest = RecordDigest::new();
        for (cluster, &cluster_digest) in self.cluster_digests.iter().enumerate() {
            digest.eat(cluster as u64);
            digest.eat(cluster_digest);
        }
        digest.eat(self.accepted);
        digest.eat(self.completed);
        digest.eat(self.forwarded);
        digest.eat(self.lost);
        digest.hash
    }

    pub fn total_cost_usd(&self) -> f64 {
        self.cost_usd + self.pool_rent_usd
    }

    pub fn cold_start_fraction(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.cold_starts as f64 / self.completed as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(arrival: u64, completed: u64, phase: u16) -> RequestRecord {
        let mut r = RequestRecord::new(arrival, phase);
        r.set_dispatched_ns(arrival);
        r.set_completed_ns(completed);
        r
    }

    fn report(records: Vec<RequestRecord>) -> ServeReport {
        let mut sojourns = StreamingHistogram::new();
        for r in &records {
            sojourns.record(r.sojourn());
        }
        ServeReport {
            accepted: records.len() as u64,
            completed: records.len() as u64,
            lost: 0,
            forwarded_out: 0,
            requeued_requests: 0,
            cold_starts: 0,
            makespan: SimDuration::from_nanos(
                records
                    .iter()
                    .filter_map(|r| r.completed_ns())
                    .max()
                    .unwrap_or(0),
            ),
            sojourns,
            phases: Vec::new(),
            peak_replicas: 1,
            scale_ups: 0,
            scale_downs: 0,
            replicas_failed: 0,
            starts_by_tier: [0; 4],
            replica_seconds: 0.0,
            gb_seconds: 0.0,
            ghz_seconds: 0.0,
            cost_usd: 0.0,
            busy_replica_seconds: 0.0,
            idle_replica_seconds: 0.0,
            keepalive_tail_seconds: 0.0,
            pool_gb_seconds: 0.0,
            pool_rent_usd: 0.0,
            replica_timeline: Vec::new(),
            slo: None,
            regime_changes: 0,
            records,
        }
    }

    #[test]
    fn fleet_merge_is_exact_and_order_pinned() {
        let a = report(vec![record(1, 11, 0), record(2, 30, 0)]);
        let b = report(vec![record(3, 40, 0)]);
        let fleet = FleetReport::merge(&[a.clone(), b.clone()]);
        assert_eq!(fleet.clusters, 2);
        assert_eq!(fleet.accepted, 3);
        assert_eq!(fleet.completed, 3);
        assert_eq!(fleet.lost, 0);
        assert_eq!(fleet.makespan, SimDuration::from_nanos(40));
        // Merged percentiles equal those of the union of all sojourns.
        let mut union = StreamingHistogram::new();
        union.merge(&a.sojourns);
        union.merge(&b.sojourns);
        assert_eq!(fleet.sojourns.percentile(0.99), union.percentile(0.99));
        assert_eq!(fleet.sojourns.mean(), union.mean());
        assert_eq!(fleet.cluster_digests, vec![a.digest(), b.digest()]);
        // The digest-of-digests pins cluster order.
        let swapped = FleetReport::merge(&[b, a]);
        assert_ne!(fleet.digest(), swapped.digest());
    }

    #[test]
    fn fleet_merge_folds_slo_and_regime() {
        let mut a = report(vec![record(1, 10, 0)]);
        a.regime_changes = 2;
        let mut sa = SloSummary::empty();
        sa.total = 10;
        sa.bad = 1;
        sa.alerts_fired = 1;
        sa.first_alert_ns = Some(5_000);
        a.slo = Some(sa);
        let mut b = report(vec![record(2, 20, 0)]);
        b.regime_changes = 1;
        let mut sb = SloSummary::empty();
        sb.total = 30;
        sb.bad = 3;
        sb.first_alert_ns = Some(2_000);
        b.slo = Some(sb);
        let fleet = FleetReport::merge(&[a, b]);
        assert_eq!(fleet.regime_changes, 3);
        assert_eq!(fleet.slo_alerts_fired, 1);
        let slo = fleet.slo.expect("clusters carried SLO summaries");
        assert_eq!(slo.total, 40);
        assert_eq!(slo.bad, 4);
        assert_eq!(slo.alerts_fired, 1);
        assert_eq!(slo.first_alert_ns, Some(2_000));
        assert!((slo.compliance - 0.9).abs() < 1e-12);
        // No SLO anywhere → the merged view stays None.
        let plain = FleetReport::merge(&[report(vec![record(1, 10, 0)])]);
        assert!(plain.slo.is_none());
    }

    #[test]
    fn phase_summaries_absorb_exactly() {
        let mut h1 = StreamingHistogram::new();
        let mut h2 = StreamingHistogram::new();
        let mut union = StreamingHistogram::new();
        for ns in [10_000u64, 20_000, 30_000] {
            h1.record(SimDuration::from_nanos(ns));
            union.record(SimDuration::from_nanos(ns));
        }
        for ns in [1_000_000u64, 2_000_000] {
            h2.record(SimDuration::from_nanos(ns));
            union.record(SimDuration::from_nanos(ns));
        }
        let mut merged = PhaseSummary::from_histogram(10.0, 3, 1, h1);
        merged.absorb(&PhaseSummary::from_histogram(5.0, 2, 0, h2));
        assert_eq!(merged.completed, 5);
        assert_eq!(merged.cold_starts, 1);
        assert!((merged.offered_rps - 15.0).abs() < 1e-12);
        assert_eq!(merged.p99_sojourn, union.percentile(0.99));
        assert_eq!(merged.mean_sojourn, union.mean());
        assert_eq!(merged.max_sojourn, union.max());
    }

    #[test]
    fn tail_p99_skips_transient() {
        // Phase 1: 10 slow requests (transient) then 90 fast ones.
        let mut records = Vec::new();
        for i in 0..10u64 {
            records.push(record(i, i + 1_000_000_000, 1)); // 1s sojourn
        }
        for i in 10..100u64 {
            records.push(record(i, i + 1_000_000, 1)); // 1ms sojourn
        }
        let rep = report(records);
        let with_transient = rep.tail_p99_of_phase(1, 0.0);
        let steady = rep.tail_p99_of_phase(1, 0.2);
        assert!(with_transient > SimDuration::from_millis(500));
        assert!(steady < SimDuration::from_millis(2));
    }
}

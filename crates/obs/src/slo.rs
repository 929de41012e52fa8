//! Online SLO burn-rate monitoring (multi-window, multi-burn-rate).
//!
//! The serving control plane evaluates each completed request against the
//! deployed plan's latency SLO and feeds the verdict into a
//! [`BurnRateMonitor`]. The monitor keeps two sliding windows — a short
//! one that reacts fast and a long one that filters blips (the classic
//! SRE pairing, e.g. 5 s/60 s) — and computes each window's *burn rate*:
//! the window's bad-request fraction divided by the SLO's error budget
//! (`1 − objective`). A burn of 1 means the budget is being consumed
//! exactly as fast as the objective allows; an alert **fires** when
//! *both* windows burn at or above the threshold (short = it is happening
//! now, long = it is not a blip) and **clears** when either drops back
//! below.
//!
//! Everything is driven by simulated event time — the monitor never reads
//! a clock — so a serving run produces the same alert transitions, at the
//! same nanosecond stamps, for any `--workers N`. Transitions are emitted
//! as [`TraceEventKind::SloAlert`](crate::trace::TraceEventKind) events
//! by the serving simulator and summarised in its report.

use chiron_model::SimDuration;

/// The SLO and the burn-rate alerting policy guarding it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// A request is *bad* when its sojourn exceeds this target.
    pub target: SimDuration,
    /// Fraction of requests that must meet the target (e.g. `0.99`).
    pub objective: f64,
    /// Fast window (reacts to an incident).
    pub short_window: SimDuration,
    /// Slow window (filters blips).
    pub long_window: SimDuration,
    /// Fire when both windows burn at ≥ this multiple of budget rate.
    pub burn_threshold: f64,
    /// Windows with fewer samples than this never fire (startup guard).
    pub min_samples: usize,
}

impl SloPolicy {
    /// The SRE-style 5 s/60 s pairing against a given target: objective
    /// 99%, fire at 2× budget burn, after at least 20 samples.
    pub fn multi_window(target: SimDuration) -> Self {
        SloPolicy {
            target,
            objective: 0.99,
            short_window: SimDuration::from_secs(5),
            long_window: SimDuration::from_secs(60),
            burn_threshold: 2.0,
            min_samples: 20,
        }
    }

    /// The error budget: the tolerated bad-request fraction.
    pub fn error_budget(&self) -> f64 {
        (1.0 - self.objective).max(1e-9)
    }
}

/// One alert transition, at event time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloTransition {
    pub at_ns: u64,
    /// `true` = fired, `false` = cleared.
    pub fired: bool,
    pub short_burn: f64,
    pub long_burn: f64,
}

impl SloTransition {
    /// Burn rates as saturating ×100 integers — the trace-event payload
    /// form (events must stay small and `Copy`).
    pub fn burns_centi(&self) -> (u32, u32) {
        let centi = |b: f64| (b * 100.0).round().min(f64::from(u32::MAX)).max(0.0) as u32;
        (centi(self.short_burn), centi(self.long_burn))
    }
}

/// One sliding window over the monitor's shared log: the entries from
/// `start` on, of which `bad` are bad.
#[derive(Debug, Clone, Copy)]
struct Window {
    span_ns: u64,
    start: usize,
    bad: u64,
}

impl Window {
    /// Drops the entries older than `span_ns` before `at_ns`.
    fn evict(&mut self, log: &[u64], at_ns: u64) {
        let cutoff = at_ns.saturating_sub(self.span_ns);
        // The newest entry is stamped `at_ns >= cutoff`, so the scan stops
        // inside the log.
        while log[self.start] >> 1 < cutoff {
            self.bad -= log[self.start] & 1;
            self.start += 1;
        }
    }

    /// Bad fraction of the `len`-entry log's window, over the error
    /// budget. A caught-up window is never empty: it holds the newest
    /// entry.
    fn burn(&self, len: usize, budget: f64) -> f64 {
        self.bad as f64 / (len - self.start) as f64 / budget
    }
}

/// The online monitor: feed it every completion in event-time order.
///
/// Both windows are cursors into one log of `at_ns << 1 | bad` entries.
/// While neither window holds a bad sample (so no alert is firing), both
/// burns are zero and, for a positive threshold, nothing can fire, so an
/// observation only appends: the cursors and bad counts go stale, but a
/// stale window holds a superset of the true one, so zero stale bad
/// samples still proves zero true ones. The cursors catch up when a bad
/// sample arrives, on every observation while one is in a window, and
/// when the log's middle entry leaves the larger window; the last case
/// also drops the log's expired prefix, which keeps the log within twice
/// the larger window's sample count.
#[derive(Debug, Clone)]
pub struct BurnRateMonitor {
    policy: SloPolicy,
    log: Vec<u64>,
    short: Window,
    long: Window,
    /// The first `at_ns` at which the log's middle entry (as of the last
    /// compaction) has left the larger window.
    compact_at_ns: u64,
    fired: bool,
    total: u64,
    bad_total: u64,
    transitions: Vec<SloTransition>,
    time_in_alert_ns: u64,
    fired_at_ns: u64,
    last_ns: u64,
}

impl BurnRateMonitor {
    pub fn new(policy: SloPolicy) -> Self {
        let window = |span: SimDuration| Window {
            span_ns: span.as_nanos(),
            start: 0,
            bad: 0,
        };
        BurnRateMonitor {
            policy,
            log: Vec::new(),
            short: window(policy.short_window),
            long: window(policy.long_window),
            compact_at_ns: 0,
            fired: false,
            total: 0,
            bad_total: 0,
            transitions: Vec::new(),
            time_in_alert_ns: 0,
            fired_at_ns: 0,
            last_ns: 0,
        }
    }

    pub fn policy(&self) -> &SloPolicy {
        &self.policy
    }

    /// Records one completion; returns the transition if the alert state
    /// flipped at this event. `at_ns` must not decrease from one call to
    /// the next — the serve loop observes completions in event order —
    /// and must stay below 2^63 (the log keeps the bad bit beside it).
    pub fn observe(&mut self, at_ns: u64, sojourn: SimDuration) -> Option<SloTransition> {
        debug_assert!(
            at_ns >= self.last_ns,
            "SLO observations out of time order: {at_ns} after {}",
            self.last_ns
        );
        debug_assert!(at_ns >> 63 == 0, "event time {at_ns} out of range");
        let bad = sojourn > self.policy.target;
        self.total += 1;
        self.bad_total += u64::from(bad);
        self.last_ns = at_ns;
        self.log.push(at_ns << 1 | u64::from(bad));
        self.short.bad += u64::from(bad);
        self.long.bad += u64::from(bad);
        // Zero burns rule out a fire only under a positive threshold. And
        // clean windows cannot leave an alert firing: the observation that
        // evicted their last bad sample saw zero burns and cleared it.
        let quiet = self.policy.burn_threshold > 0.0 && self.short.bad == 0 && self.long.bad == 0;
        debug_assert!(!(quiet && self.fired), "alert firing over clean windows");
        if quiet && at_ns < self.compact_at_ns {
            return None;
        }
        self.short.evict(&self.log, at_ns);
        self.long.evict(&self.log, at_ns);
        if at_ns >= self.compact_at_ns {
            self.compact();
        }
        if quiet {
            return None;
        }

        let budget = self.policy.error_budget();
        let short_burn = self.short.burn(self.log.len(), budget);
        let long_burn = self.long.burn(self.log.len(), budget);
        let warmed = self.log.len() - self.short.start >= self.policy.min_samples;
        let should_fire = warmed
            && short_burn >= self.policy.burn_threshold
            && long_burn >= self.policy.burn_threshold;
        if should_fire == self.fired {
            return None;
        }
        self.fired = should_fire;
        if should_fire {
            self.fired_at_ns = at_ns;
        } else {
            self.time_in_alert_ns += at_ns - self.fired_at_ns;
        }
        let transition = SloTransition {
            at_ns,
            fired: should_fire,
            short_burn,
            long_burn,
        };
        self.transitions.push(transition);
        Some(transition)
    }

    /// Drops the log prefix both (caught-up) windows have left, and
    /// schedules the next compaction for when the middle of what is left
    /// leaves the larger window. Until then at least half the retained
    /// entries, and every later one, are inside that window.
    fn compact(&mut self) {
        let drop = self.short.start.min(self.long.start);
        self.log.drain(..drop);
        self.short.start -= drop;
        self.long.start -= drop;
        let span = self.short.span_ns.max(self.long.span_ns);
        let middle = self.log[self.log.len() / 2] >> 1;
        self.compact_at_ns = middle.saturating_add(span).saturating_add(1);
    }

    /// Entries in the shared log (bounded by twice the larger window).
    #[cfg(test)]
    fn log_len(&self) -> usize {
        self.log.len()
    }

    pub fn is_firing(&self) -> bool {
        self.fired
    }

    /// Closes the run and produces the report summary. An alert still
    /// firing accrues alert time up to the last observation.
    pub fn into_summary(mut self) -> SloSummary {
        if self.fired {
            self.time_in_alert_ns += self.last_ns - self.fired_at_ns;
        }
        let alerts_fired = self.transitions.iter().filter(|t| t.fired).count() as u32;
        SloSummary {
            target: self.policy.target,
            objective: self.policy.objective,
            total: self.total,
            bad: self.bad_total,
            compliance: if self.total == 0 {
                1.0
            } else {
                1.0 - self.bad_total as f64 / self.total as f64
            },
            alerts_fired,
            alerts_cleared: self.transitions.len() as u32 - alerts_fired,
            first_alert_ns: self.transitions.iter().find(|t| t.fired).map(|t| t.at_ns),
            time_in_alert_ns: self.time_in_alert_ns,
            transitions: self.transitions,
        }
    }
}

/// The per-run SLO outcome carried in `ServeReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSummary {
    pub target: SimDuration,
    pub objective: f64,
    pub total: u64,
    pub bad: u64,
    /// Achieved good fraction (1.0 for an empty run).
    pub compliance: f64,
    pub alerts_fired: u32,
    pub alerts_cleared: u32,
    pub first_alert_ns: Option<u64>,
    pub time_in_alert_ns: u64,
    /// Every fire/clear transition, in event-time order.
    pub transitions: Vec<SloTransition>,
}

impl SloSummary {
    /// Folds another cluster's summary into this one — the fleet merge.
    /// Counts and alert time add exactly; transitions from both sides are
    /// re-sorted by event time (stable, so same-instant transitions keep
    /// fold order — callers fold in cluster-index order) and compliance is
    /// recomputed from the merged totals. Target/objective are taken from
    /// the first non-empty side; fleets share one policy.
    pub fn absorb(&mut self, other: &SloSummary) {
        if self.total == 0 && other.total > 0 {
            self.target = other.target;
            self.objective = other.objective;
        }
        self.total += other.total;
        self.bad += other.bad;
        self.compliance = if self.total == 0 {
            1.0
        } else {
            1.0 - self.bad as f64 / self.total as f64
        };
        self.alerts_fired += other.alerts_fired;
        self.alerts_cleared += other.alerts_cleared;
        self.first_alert_ns = match (self.first_alert_ns, other.first_alert_ns) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.time_in_alert_ns += other.time_in_alert_ns;
        self.transitions.extend_from_slice(&other.transitions);
        self.transitions.sort_by_key(|t| t.at_ns); // stable
    }

    /// The identity element for [`SloSummary::absorb`].
    pub fn empty() -> Self {
        SloSummary {
            target: SimDuration::from_nanos(0),
            objective: 0.0,
            total: 0,
            bad: 0,
            compliance: 1.0,
            alerts_fired: 0,
            alerts_cleared: 0,
            first_alert_ns: None,
            time_in_alert_ns: 0,
            transitions: Vec::new(),
        }
    }

    /// Deterministic one-line-per-transition timeline (the byte string
    /// the `--workers` invariance gate compares).
    pub fn render_timeline(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "slo target_ms={:.3} objective={:.4} total={} bad={} compliance={:.6} \
             fired={} cleared={} in_alert_ms={:.3}",
            self.target.as_millis_f64(),
            self.objective,
            self.total,
            self.bad,
            self.compliance,
            self.alerts_fired,
            self.alerts_cleared,
            self.time_in_alert_ns as f64 / 1e6,
        );
        for t in &self.transitions {
            let (s, l) = t.burns_centi();
            let _ = writeln!(
                out,
                "  {:>15} {} short_burn={:.2} long_burn={:.2}",
                t.at_ns,
                if t.fired { "FIRE " } else { "CLEAR" },
                f64::from(s) / 100.0,
                f64::from(l) / 100.0,
            );
        }
        out
    }
}

/// The two-deque monitor the shared log replaced, kept as the oracle the
/// property test compares against: each window holds its own copy of
/// every sample in it and is evicted and divided on every observation.
#[cfg(test)]
mod reference {
    use super::{SloPolicy, SloSummary, SloTransition};
    use chiron_model::SimDuration;
    use std::collections::VecDeque;

    #[derive(Debug, Clone, Default)]
    struct Window {
        span_ns: u64,
        samples: VecDeque<(u64, bool)>,
        bad: u64,
    }

    impl Window {
        fn observe(&mut self, at_ns: u64, bad: bool) {
            self.samples.push_back((at_ns, bad));
            if bad {
                self.bad += 1;
            }
            let cutoff = at_ns.saturating_sub(self.span_ns);
            while let Some(&(t, b)) = self.samples.front() {
                if t >= cutoff {
                    break;
                }
                self.samples.pop_front();
                if b {
                    self.bad -= 1;
                }
            }
        }

        fn bad_fraction(&self) -> f64 {
            if self.samples.is_empty() {
                0.0
            } else {
                self.bad as f64 / self.samples.len() as f64
            }
        }
    }

    pub struct TwoDequeMonitor {
        policy: SloPolicy,
        short: Window,
        long: Window,
        fired: bool,
        total: u64,
        bad_total: u64,
        transitions: Vec<SloTransition>,
        time_in_alert_ns: u64,
        fired_at_ns: u64,
        last_ns: u64,
    }

    impl TwoDequeMonitor {
        pub fn new(policy: SloPolicy) -> Self {
            TwoDequeMonitor {
                policy,
                short: Window {
                    span_ns: policy.short_window.as_nanos(),
                    ..Window::default()
                },
                long: Window {
                    span_ns: policy.long_window.as_nanos(),
                    ..Window::default()
                },
                fired: false,
                total: 0,
                bad_total: 0,
                transitions: Vec::new(),
                time_in_alert_ns: 0,
                fired_at_ns: 0,
                last_ns: 0,
            }
        }

        /// Sample count of the fuller window.
        pub fn larger_window(&self) -> usize {
            self.short.samples.len().max(self.long.samples.len())
        }

        pub fn observe(&mut self, at_ns: u64, sojourn: SimDuration) -> Option<SloTransition> {
            let bad = sojourn > self.policy.target;
            self.total += 1;
            if bad {
                self.bad_total += 1;
            }
            self.last_ns = self.last_ns.max(at_ns);
            self.short.observe(at_ns, bad);
            self.long.observe(at_ns, bad);

            let budget = self.policy.error_budget();
            let short_burn = self.short.bad_fraction() / budget;
            let long_burn = self.long.bad_fraction() / budget;
            let warmed = self.short.samples.len() >= self.policy.min_samples;
            let should_fire = warmed
                && short_burn >= self.policy.burn_threshold
                && long_burn >= self.policy.burn_threshold;
            if should_fire == self.fired {
                return None;
            }
            self.fired = should_fire;
            if should_fire {
                self.fired_at_ns = at_ns;
            } else {
                self.time_in_alert_ns += at_ns - self.fired_at_ns;
            }
            let transition = SloTransition {
                at_ns,
                fired: should_fire,
                short_burn,
                long_burn,
            };
            self.transitions.push(transition);
            Some(transition)
        }

        pub fn is_firing(&self) -> bool {
            self.fired
        }

        pub fn into_summary(mut self) -> SloSummary {
            if self.fired {
                self.time_in_alert_ns += self.last_ns - self.fired_at_ns;
            }
            let alerts_fired = self.transitions.iter().filter(|t| t.fired).count() as u32;
            SloSummary {
                target: self.policy.target,
                objective: self.policy.objective,
                total: self.total,
                bad: self.bad_total,
                compliance: if self.total == 0 {
                    1.0
                } else {
                    1.0 - self.bad_total as f64 / self.total as f64
                },
                alerts_fired,
                alerts_cleared: self.transitions.len() as u32 - alerts_fired,
                first_alert_ns: self.transitions.iter().find(|t| t.fired).map(|t| t.at_ns),
                time_in_alert_ns: self.time_in_alert_ns,
                transitions: self.transitions,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_metrics::FastRng;
    use proptest::prelude::*;

    fn policy() -> SloPolicy {
        SloPolicy {
            target: SimDuration::from_millis(100),
            objective: 0.9, // budget 0.1
            short_window: SimDuration::from_millis(50),
            long_window: SimDuration::from_millis(200),
            burn_threshold: 2.0,
            min_samples: 4,
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn fires_when_both_windows_burn_and_clears_on_recovery() {
        let mut m = BurnRateMonitor::new(policy());
        // Healthy traffic: nothing fires.
        for i in 0..10u64 {
            assert_eq!(m.observe(i * MS, SimDuration::from_millis(10)), None);
        }
        // Incident: every request blows the target. Burn needs ≥ 0.2 bad
        // fraction in both windows.
        let mut fired_at = None;
        for i in 10..20u64 {
            if let Some(t) = m.observe(i * MS, SimDuration::from_millis(500)) {
                assert!(t.fired);
                assert!(t.short_burn >= 2.0 && t.long_burn >= 2.0);
                fired_at = Some(t.at_ns);
                break;
            }
        }
        let fired_at = fired_at.expect("incident must fire");
        assert!(m.is_firing());
        // Recovery: good requests wash the short window first.
        let mut cleared_at = None;
        for i in 20..120u64 {
            if let Some(t) = m.observe(i * MS, SimDuration::from_millis(10)) {
                assert!(!t.fired);
                cleared_at = Some(t.at_ns);
                break;
            }
        }
        let cleared_at = cleared_at.expect("recovery must clear");
        assert!(cleared_at > fired_at);
        let summary = m.into_summary();
        assert_eq!(summary.alerts_fired, 1);
        assert_eq!(summary.alerts_cleared, 1);
        assert_eq!(summary.first_alert_ns, Some(fired_at));
        assert_eq!(summary.time_in_alert_ns, cleared_at - fired_at);
        assert!(summary.compliance < 1.0);
        let timeline = summary.render_timeline();
        assert!(timeline.contains("FIRE"), "{timeline}");
        assert!(timeline.contains("CLEAR"), "{timeline}");
    }

    #[test]
    fn min_samples_guards_startup() {
        let mut m = BurnRateMonitor::new(policy());
        // Three straight bad requests: under min_samples, never fires.
        for i in 0..3u64 {
            assert_eq!(m.observe(i * MS, SimDuration::from_millis(500)), None);
        }
        assert!(!m.is_firing());
    }

    #[test]
    fn short_blip_does_not_fire_the_long_window() {
        let mut p = policy();
        p.min_samples = 2;
        let mut m = BurnRateMonitor::new(p);
        // A long healthy history dilutes the long window below threshold.
        for i in 0..100u64 {
            m.observe(i * MS, SimDuration::from_millis(10));
        }
        // 4 bad requests in 4 ms: a blip — the healthy history dilutes
        // both windows below the 2× burn threshold.
        let mut transitions = 0;
        for i in 0..4u64 {
            if m.observe(100 * MS + i * MS, SimDuration::from_millis(500))
                .is_some()
            {
                transitions += 1;
            }
        }
        assert_eq!(transitions, 0, "blip must be filtered by the long window");
    }

    #[test]
    fn still_firing_alert_accrues_time_to_last_observation() {
        let mut p = policy();
        p.min_samples = 2;
        let mut m = BurnRateMonitor::new(p);
        for i in 0..10u64 {
            m.observe(i * MS, SimDuration::from_millis(500));
        }
        assert!(m.is_firing());
        let summary = m.into_summary();
        assert_eq!(summary.alerts_fired, 1);
        assert_eq!(summary.alerts_cleared, 0);
        let fired = summary.first_alert_ns.unwrap();
        assert_eq!(summary.time_in_alert_ns, 9 * MS - fired);
    }

    #[test]
    fn empty_run_is_fully_compliant() {
        let summary = BurnRateMonitor::new(policy()).into_summary();
        assert_eq!(summary.total, 0);
        assert_eq!(summary.compliance, 1.0);
        assert!(summary.transitions.is_empty());
    }

    #[test]
    fn absorb_merges_counts_and_interleaves_transitions() {
        let mut p = policy();
        p.min_samples = 2;
        let mut a = BurnRateMonitor::new(p);
        for i in 0..6u64 {
            a.observe(i * MS, SimDuration::from_millis(500));
        }
        let mut b = BurnRateMonitor::new(p);
        for i in 0..8u64 {
            // Fires later than cluster a's alert.
            let lat = if i < 4 { 10 } else { 500 };
            b.observe((i + 3) * MS, SimDuration::from_millis(lat));
        }
        let sa = a.into_summary();
        let sb = b.into_summary();
        let mut fleet = SloSummary::empty();
        fleet.absorb(&sa);
        fleet.absorb(&sb);
        assert_eq!(fleet.total, sa.total + sb.total);
        assert_eq!(fleet.bad, sa.bad + sb.bad);
        assert_eq!(fleet.alerts_fired, sa.alerts_fired + sb.alerts_fired);
        assert_eq!(
            fleet.time_in_alert_ns,
            sa.time_in_alert_ns + sb.time_in_alert_ns
        );
        assert_eq!(
            fleet.first_alert_ns,
            sa.first_alert_ns
                .min(sb.first_alert_ns.or(sa.first_alert_ns))
        );
        assert!((fleet.compliance - (1.0 - fleet.bad as f64 / fleet.total as f64)).abs() < 1e-12);
        // Transitions come out in event-time order across the clusters.
        assert!(fleet
            .transitions
            .windows(2)
            .all(|w| w[0].at_ns <= w[1].at_ns));
        assert_eq!(
            fleet.transitions.len(),
            sa.transitions.len() + sb.transitions.len()
        );
        assert_eq!(fleet.target, sa.target);
    }

    /// A random policy, edge cases included: non-positive thresholds,
    /// `min_samples` beyond any window, zero-length windows and a short
    /// window longer than the long one.
    fn random_policy(rng: &mut FastRng) -> SloPolicy {
        let pick = |rng: &mut FastRng, n: u64| rng.next_u64() % n;
        let window = |rng: &mut FastRng| SimDuration::from_micros(pick(rng, 400) * 500);
        SloPolicy {
            target: SimDuration::from_millis(1 + pick(rng, 100)),
            objective: [0.5, 0.9, 0.99, 1.0][pick(rng, 4) as usize],
            short_window: window(rng),
            long_window: window(rng),
            burn_threshold: [-1.0, 0.0, 0.5, 1.0, 2.0, 10.0][pick(rng, 6) as usize],
            min_samples: [0, 1, 20, 500, 100_000][pick(rng, 5) as usize],
        }
    }

    /// Runs one random stream through the shared-log monitor and the
    /// two-deque oracle: `n` completions at non-decreasing times (ties
    /// and long gaps included), in good stretches broken by bad bursts
    /// that end and recur.
    fn check_against_reference(seed: u64, n: usize) {
        let mut rng = FastRng::seed_from_u64(seed);
        let policy = random_policy(&mut rng);
        let mut fast = BurnRateMonitor::new(policy);
        let mut oracle = reference::TwoDequeMonitor::new(policy);
        let target = policy.target.as_nanos();
        let mut at_ns = rng.next_u64() % 1_000_000;
        let mut burst = false;
        for i in 0..n {
            at_ns += match rng.next_u64() % 8 {
                0 => 0,
                1 => rng.next_u64() % 300_000_000,
                _ => rng.next_u64() % 2_000_000,
            };
            if rng.next_u64() & 63 == 0 {
                burst = !burst;
            }
            let bad = rng.next_f64() < if burst { 0.8 } else { 0.01 };
            let sojourn = SimDuration::from_nanos(if bad { target + 1 } else { target / 2 });
            let got = fast.observe(at_ns, sojourn);
            let want = oracle.observe(at_ns, sojourn);
            assert_eq!(got, want, "seed {seed}, observation {i}: {policy:?}");
            assert_eq!(fast.is_firing(), oracle.is_firing(), "seed {seed}, {i}");
            assert!(
                fast.log_len() <= 2 * oracle.larger_window(),
                "seed {seed}, observation {i}: log of {} entries for a window of {}",
                fast.log_len(),
                oracle.larger_window()
            );
        }
        assert_eq!(fast.into_summary(), oracle.into_summary(), "seed {seed}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn shared_log_matches_two_deque_monitor(seed in any::<u64>(), n in 1usize..3_000) {
            check_against_reference(seed, n);
        }
    }
}

//! Online regime-change detection over latency residuals, plus the
//! incident snapshot that freezes the trace around the moment something
//! fires.
//!
//! The predictor-drift monitor ([`crate::drift`]) answers "was the
//! prediction right on average?" after the fact; serving needs the
//! *online* complement — "did the latency process itself just shift?" —
//! because that is the trigger the closed-loop re-deployment machinery
//! (ROADMAP item 1) acts on. [`RegimeDetector`] is a two-sided
//! Page–Hinkley/CUSUM test with a **relative** tolerance: after a warmup
//! window freezes a baseline mean `μ`, each observation `x` feeds
//!
//! ```text
//!   m↑ ← max(0, m↑ + (x − μ) − δ·μ)        fire up   when m↑ > λ·μ
//!   m↓ ← max(0, m↓ + (μ − x) − δ·μ)        fire down when m↓ > λ·μ
//! ```
//!
//! so the slack (`δ`) and the decision threshold (`λ`) both scale with
//! the series' own level — one config covers microsecond stages and
//! second-scale sojourns. After a firing the series re-baselines from
//! scratch (the detector tracks the *new* regime, and repeated alerts
//! need a fresh shift each).
//!
//! Determinism: a detector is plain owned state fed in event order by
//! exactly one simulator loop — never process-global — so its firing
//! times are byte-identical for any `(shards, workers)`, which is what
//! lets `RegimeChange` trace events sit inside the gated fleet trace.
//!
//! [`incident_from_trace`] finds the first sensor fire in a finished
//! (merged) fleet trace and freezes the events leading up to it next to
//! the metrics-registry snapshot, so the incident can be read without
//! re-running anything.

use crate::metrics::{snapshot, MetricsSnapshot};
use crate::trace::{Trace, TraceEventKind};
use std::fmt::Write as _;

/// Stage code for the end-to-end (whole-request) series.
pub const E2E_STAGE: u16 = u16::MAX;

/// Detector tuning. Both knobs are *relative to the baseline mean*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegimeConfig {
    /// Per-sample slack as a fraction of the baseline mean: deviations
    /// below `delta·μ` never accumulate (absorbs jitter).
    pub delta: f64,
    /// Firing threshold as a multiple of the baseline mean: the CUSUM
    /// must accumulate `lambda·μ` of excess deviation to fire.
    pub lambda: f64,
}

/// Samples frozen into a series' baseline mean before the test arms.
const WARMUP: u32 = 200;

impl Default for RegimeConfig {
    /// δ = 10 % absorbs the serving plane's ±5 % service jitter plus
    /// routine queueing noise; λ = 8 means a sustained +60 % shift fires
    /// in ~16 samples (sub-second at serving rates) while isolated
    /// spikes decay back through the `max(0, ·)` clamp.
    fn default() -> Self {
        RegimeConfig {
            delta: 0.10,
            lambda: 8.0,
        }
    }
}

/// One fired change, in report-friendly units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegimeChangeInfo {
    /// Event time the triggering observation completed at.
    pub at_ns: u64,
    /// `true` = the level shifted up (slower), `false` = down.
    pub up: bool,
    /// Series stage, [`E2E_STAGE`] for end-to-end.
    pub stage: u16,
    /// Frozen baseline mean of the regime that just ended.
    pub baseline_ns: u64,
    /// The observation that tipped the test.
    pub observed_ns: u64,
    /// Samples the series had consumed since its last (re)baseline.
    pub samples: u32,
}

impl RegimeChangeInfo {
    /// The trace payload (saturating microseconds keep it in 32 bytes).
    pub fn to_event_kind(self) -> TraceEventKind {
        TraceEventKind::RegimeChange {
            up: self.up,
            stage: self.stage,
            baseline_us: u32::try_from(self.baseline_ns / 1_000).unwrap_or(u32::MAX),
            observed_us: u32::try_from(self.observed_ns / 1_000).unwrap_or(u32::MAX),
            samples: self.samples,
        }
    }
}

/// Per-stage test state. `baseline = None` means the series is (re)warming.
#[derive(Debug, Clone)]
struct Series {
    stage: u16,
    warm_sum: f64,
    warm_count: u32,
    baseline: Option<f64>,
    m_up: f64,
    m_down: f64,
    samples: u32,
}

impl Series {
    fn new(stage: u16) -> Self {
        Series {
            stage,
            warm_sum: 0.0,
            warm_count: 0,
            baseline: None,
            m_up: 0.0,
            m_down: 0.0,
            samples: 0,
        }
    }

    fn rebaseline(&mut self) {
        self.warm_sum = 0.0;
        self.warm_count = 0;
        self.baseline = None;
        self.m_up = 0.0;
        self.m_down = 0.0;
        self.samples = 0;
    }
}

/// The online detector: one independent two-sided test per stage series.
/// Owned state — feed it from exactly one deterministic loop.
#[derive(Debug, Clone)]
pub struct RegimeDetector {
    config: RegimeConfig,
    series: Vec<Series>,
    fired: u32,
}

impl RegimeDetector {
    pub fn new(config: RegimeConfig) -> Self {
        RegimeDetector {
            config,
            series: Vec::new(),
            fired: 0,
        }
    }

    /// Total changes fired across every series.
    pub fn changes_fired(&self) -> u32 {
        self.fired
    }

    /// Feeds one latency observation for `stage` (use [`E2E_STAGE`] for
    /// whole-request sojourns) completing at event time `at_ns`. Returns
    /// the change if this observation tipped the test.
    pub fn observe(&mut self, at_ns: u64, stage: u16, latency_ns: u64) -> Option<RegimeChangeInfo> {
        let idx = match self.series.iter().position(|s| s.stage == stage) {
            Some(i) => i,
            None => {
                self.series.push(Series::new(stage));
                self.series.len() - 1
            }
        };
        let fired = Self::feed(&self.config, &mut self.series[idx], at_ns, latency_ns);
        self.fired += u32::from(fired.is_some());
        fired
    }

    fn feed(
        config: &RegimeConfig,
        s: &mut Series,
        at_ns: u64,
        latency_ns: u64,
    ) -> Option<RegimeChangeInfo> {
        let x = latency_ns as f64;
        match s.baseline {
            None => {
                s.warm_sum += x;
                s.warm_count += 1;
                if s.warm_count >= WARMUP {
                    s.baseline = Some(s.warm_sum / f64::from(s.warm_count));
                }
                None
            }
            Some(mu) => {
                s.samples += 1;
                let slack = config.delta * mu;
                s.m_up = (s.m_up + (x - mu) - slack).max(0.0);
                s.m_down = (s.m_down + (mu - x) - slack).max(0.0);
                let threshold = config.lambda * mu;
                let up = s.m_up > threshold;
                let down = s.m_down > threshold;
                if up || down {
                    let info = RegimeChangeInfo {
                        at_ns,
                        up,
                        stage: s.stage,
                        baseline_ns: mu as u64,
                        observed_ns: latency_ns,
                        samples: s.samples,
                    };
                    s.rebaseline();
                    Some(info)
                } else {
                    None
                }
            }
        }
    }
}

/// Everything a responder needs about one incident: when, why, the last
/// trace window leading up to it, and the registry state at snapshot
/// time.
#[derive(Debug, Clone)]
pub struct IncidentSnapshot {
    pub at_ns: u64,
    pub reason: String,
    /// The trace window leading up to the incident, oldest first.
    pub window: Trace,
    pub metrics: MetricsSnapshot,
}

impl IncidentSnapshot {
    /// Human-readable dump (the `fleet_incident.txt` artifact).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "incident at {:.3} s: {}",
            self.at_ns as f64 / 1e9,
            self.reason
        );
        let _ = writeln!(out, "--- trace window ({} events) ---", self.window.len());
        out.push_str(&self.window.render());
        let _ = writeln!(out, "--- metrics snapshot ---");
        out.push_str(&self.metrics.render_table());
        out
    }
}

/// Builds an incident snapshot from a finished (merged) trace: finds the
/// first `RegimeChange` or fired `SloAlert`, and windows the `cap` events
/// preceding it. Pure in the trace (modulo the live metrics attachment),
/// so the window bytes inherit the trace's `(shards, workers)`
/// invariance.
pub fn incident_from_trace(trace: &Trace, cap: usize) -> Option<IncidentSnapshot> {
    let (idx, reason) = trace
        .events
        .iter()
        .enumerate()
        .find_map(|(i, e)| match e.kind {
            TraceEventKind::RegimeChange {
                up,
                stage,
                baseline_us,
                observed_us,
                ..
            } => Some((
                i,
                format!(
                    "regime change {} (stage {}): baseline {} us -> observed {} us",
                    if up { "up" } else { "down" },
                    if stage == E2E_STAGE {
                        "e2e".to_string()
                    } else {
                        stage.to_string()
                    },
                    baseline_us,
                    observed_us,
                ),
            )),
            TraceEventKind::SloAlert {
                fired: true,
                short_burn_centi,
                long_burn_centi,
            } => Some((
                i,
                format!(
                    "slo burn-rate alert fired (burn {:.2}/{:.2})",
                    f64::from(short_burn_centi) / 100.0,
                    f64::from(long_burn_centi) / 100.0,
                ),
            )),
            _ => None,
        })?;
    let start = idx.saturating_sub(cap);
    Some(IncidentSnapshot {
        at_ns: trace.events[idx].time_ns,
        reason,
        window: Trace {
            events: trace.events[start..=idx].to_vec(),
        },
        metrics: snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    const W: u64 = WARMUP as u64;

    #[test]
    fn upward_shift_fires_and_rebaselines() {
        let mut d = RegimeDetector::new(RegimeConfig::default());
        let mut fired = Vec::new();
        // Warmup samples at ~100 µs, then a sustained +60 % shift.
        for i in 0..W {
            assert!(d.observe(i * 1_000, E2E_STAGE, 100_000).is_none());
        }
        for i in W..W + 50 {
            if let Some(info) = d.observe(i * 1_000, E2E_STAGE, 160_000) {
                fired.push(info);
            }
        }
        assert_eq!(fired.len(), 1, "one sustained shift, one alert");
        let info = fired[0];
        assert!(info.up);
        assert_eq!(info.stage, E2E_STAGE);
        assert_eq!(info.baseline_ns, 100_000);
        assert_eq!(info.observed_ns, 160_000);
        // λ=8, per-sample gain = 0.6µ − 0.1µ = 0.5µ → fires on sample 17.
        assert_eq!(info.samples, 17);
        assert_eq!(info.at_ns, (W + 16) * 1_000);
        assert_eq!(d.changes_fired(), 1);
        // After the firing the series re-baselines onto the new level:
        // staying there must not re-fire.
        for i in W + 50..2 * W + 100 {
            assert!(d.observe(i * 1_000, E2E_STAGE, 160_000).is_none());
        }
    }

    #[test]
    fn downward_shift_fires_down() {
        let mut d = RegimeDetector::new(RegimeConfig::default());
        for i in 0..W {
            d.observe(i, 0, 200_000);
        }
        let mut fired = None;
        for i in W..W + 75 {
            if let Some(info) = d.observe(i, 0, 100_000) {
                fired = Some(info);
                break;
            }
        }
        let info = fired.expect("a −50 % shift must fire");
        assert!(!info.up);
        assert_eq!(info.stage, 0);
    }

    #[test]
    fn jitter_within_slack_never_fires() {
        let mut d = RegimeDetector::new(RegimeConfig::default());
        // ±5 % alternation sits inside the 10 % slack forever.
        for i in 0..W {
            d.observe(i, E2E_STAGE, 100_000);
        }
        for i in W..5_000 {
            let x = if i % 2 == 0 { 95_000 } else { 105_000 };
            assert!(d.observe(i, E2E_STAGE, x).is_none(), "sample {i}");
        }
        assert_eq!(d.changes_fired(), 0);
    }

    #[test]
    fn stages_are_independent_series() {
        let mut d = RegimeDetector::new(RegimeConfig::default());
        for i in 0..W {
            d.observe(i, 0, 50_000);
            d.observe(i, 1, 500_000);
        }
        // Stage 0 shifts, stage 1 stays: only stage 0 fires.
        let mut stage0 = 0;
        for i in W..W + 56 {
            if let Some(info) = d.observe(i, 0, 100_000) {
                assert_eq!(info.stage, 0);
                stage0 += 1;
            }
            assert!(d.observe(i, 1, 500_000).is_none());
        }
        assert!(stage0 >= 1);
    }

    #[test]
    fn event_kind_saturates_to_micros() {
        let info = RegimeChangeInfo {
            at_ns: 1,
            up: true,
            stage: 3,
            baseline_ns: 2_500,
            observed_ns: u64::MAX,
            samples: 9,
        };
        match info.to_event_kind() {
            TraceEventKind::RegimeChange {
                baseline_us,
                observed_us,
                stage,
                ..
            } => {
                assert_eq!(baseline_us, 2);
                assert_eq!(observed_us, u32::MAX);
                assert_eq!(stage, 3);
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn incident_from_trace_finds_first_sensor_fire() {
        let mk = |t: u64, kind| TraceEvent { time_ns: t, kind };
        let trace = Trace {
            events: vec![
                mk(1, TraceEventKind::ReplicaReady { replica: 0 }),
                mk(2, TraceEventKind::ReplicaReady { replica: 1 }),
                mk(
                    3,
                    TraceEventKind::SloAlert {
                        fired: false,
                        short_burn_centi: 10,
                        long_burn_centi: 5,
                    },
                ),
                mk(
                    4,
                    TraceEventKind::RegimeChange {
                        up: true,
                        stage: E2E_STAGE,
                        baseline_us: 100,
                        observed_us: 170,
                        samples: 12,
                    },
                ),
                mk(5, TraceEventKind::ReplicaRetired { replica: 0 }),
            ],
        };
        let snap = incident_from_trace(&trace, 2).expect("a sensor fired");
        assert_eq!(snap.at_ns, 4);
        assert!(snap.reason.contains("regime change up"), "{}", snap.reason);
        // Window = the 2 preceding events + the trigger (cleared alerts
        // are context, not triggers).
        assert_eq!(snap.window.len(), 3);
        assert_eq!(snap.window.events[2].time_ns, 4);
        let text = snap.render();
        assert!(text.contains("regime change up (stage e2e)"), "{text}");
        assert!(text.contains("trace window (3 events)"), "{text}");

        let quiet = Trace {
            events: vec![mk(1, TraceEventKind::ReplicaReady { replica: 0 })],
        };
        assert!(incident_from_trace(&quiet, 8).is_none());
    }
}

//! The predictor-drift monitor: predicted vs. DES-observed latency per
//! `(workflow, plan, stage)`.
//!
//! The white-box predictor (Algorithm 1 and its cached/parallel
//! descendants) is only trustworthy while its residuals stay small, so a
//! caller that wants to check it creates a [`DriftMonitor`], records every
//! prediction it commits to ([`DriftMonitor::record_prediction`]) and
//! every latency the DES subsequently observes
//! ([`DriftMonitor::record_observation`]), and reads per-key residual
//! distributions off [`DriftMonitor::report`]: bias (mean signed error —
//! positive means the predictor was optimistic), its standard error and
//! the mean absolute error, next to the observed percentiles. A bias
//! within about two standard errors of zero is indistinguishable from
//! jitter noise at the series' sample count.
//!
//! The monitor is plain owned state, so nothing is recorded unless a
//! caller holds one. Series are keyed by a structural [`plan_key`] so two
//! identical plans for the same workflow share a series.

use chiron_metrics::StreamingHistogram;
use chiron_model::{DeploymentPlan, SimDuration};

/// One `(workflow, plan, stage)` series; `stage: None` is end-to-end.
#[derive(Debug)]
struct DriftSeries {
    workflow: String,
    plan: u64,
    stage: Option<u32>,
    predicted: Option<SimDuration>,
    observed: StreamingHistogram,
    signed_error_ms: f64,
    abs_error_ms: f64,
    /// Sum of squared residuals, for their standard deviation.
    sq_error_ms: f64,
    /// Observations that produced a residual (a prediction was on file).
    residuals: u64,
}

impl DriftSeries {
    /// The residuals' sample standard deviation over √(their count); 0
    /// with fewer than two residuals.
    fn bias_standard_error_ms(&self) -> f64 {
        if self.residuals < 2 {
            return 0.0;
        }
        let m = self.residuals as f64;
        let mean = self.signed_error_ms / m;
        let variance = ((self.sq_error_ms - mean * self.signed_error_ms) / (m - 1.0)).max(0.0);
        (variance / m).sqrt()
    }
}

/// Structural FNV-1a key of a deployment plan (its `Debug` rendering
/// covers system/runtime/isolation/transfer and the whole stage tree).
pub fn plan_key(plan: &DeploymentPlan) -> u64 {
    crate::fnv1a(format!("{plan:?}").as_bytes())
}

/// Residual series per `(workflow, plan, stage)`, owned by the caller
/// that records into it.
#[derive(Debug, Default)]
pub struct DriftMonitor {
    series: Vec<DriftSeries>,
}

impl DriftMonitor {
    pub fn new() -> Self {
        DriftMonitor::default()
    }

    fn series(&mut self, workflow: &str, plan: u64, stage: Option<u32>) -> &mut DriftSeries {
        let slot = self
            .series
            .iter()
            .position(|s| s.plan == plan && s.stage == stage && s.workflow == workflow);
        let slot = slot.unwrap_or_else(|| {
            self.series.push(DriftSeries {
                workflow: workflow.to_string(),
                plan,
                stage,
                predicted: None,
                observed: StreamingHistogram::new(),
                signed_error_ms: 0.0,
                abs_error_ms: 0.0,
                sq_error_ms: 0.0,
                residuals: 0,
            });
            self.series.len() - 1
        });
        &mut self.series[slot]
    }

    /// Records the predictor's committed latency for a key. A later
    /// prediction for the same key overwrites.
    pub fn record_prediction(
        &mut self,
        workflow: &str,
        plan: u64,
        stage: Option<u32>,
        predicted: SimDuration,
    ) {
        self.series(workflow, plan, stage).predicted = Some(predicted);
    }

    /// Records one DES-observed latency for a key. Residuals accrue only
    /// once a prediction is on file.
    pub fn record_observation(
        &mut self,
        workflow: &str,
        plan: u64,
        stage: Option<u32>,
        observed: SimDuration,
    ) {
        let s = self.series(workflow, plan, stage);
        s.observed.record(observed);
        if let Some(predicted) = s.predicted {
            let err = observed.as_millis_f64() - predicted.as_millis_f64();
            s.signed_error_ms += err;
            s.abs_error_ms += err.abs();
            s.sq_error_ms += err * err;
            s.residuals += 1;
        }
    }

    /// Snapshot of every series, sorted by `(workflow, plan, stage)`.
    pub fn report(&self) -> Vec<DriftEntry> {
        let mut out: Vec<DriftEntry> = self
            .series
            .iter()
            .map(|s| {
                let n = s.observed.len();
                let denom = if n == 0 { 1.0 } else { n as f64 };
                DriftEntry {
                    workflow: s.workflow.clone(),
                    plan: s.plan,
                    stage: s.stage,
                    predicted_ms: s.predicted.map(|p| p.as_millis_f64()),
                    samples: n,
                    observed_mean_ms: s.observed.mean().as_millis_f64(),
                    observed_p50_ms: s.observed.percentile(0.50).as_millis_f64(),
                    observed_p99_ms: s.observed.percentile(0.99).as_millis_f64(),
                    bias_ms: s.signed_error_ms / denom,
                    bias_se_ms: s.bias_standard_error_ms(),
                    mae_ms: s.abs_error_ms / denom,
                }
            })
            .collect();
        out.sort_by(|a, b| {
            (a.workflow.as_str(), a.plan, a.stage).cmp(&(b.workflow.as_str(), b.plan, b.stage))
        });
        out
    }
}

/// One row of the drift report.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftEntry {
    pub workflow: String,
    pub plan: u64,
    /// `None` = end-to-end, `Some(s)` = stage `s`.
    pub stage: Option<u32>,
    pub predicted_ms: Option<f64>,
    pub samples: u64,
    pub observed_mean_ms: f64,
    pub observed_p50_ms: f64,
    pub observed_p99_ms: f64,
    /// Mean signed residual (observed − predicted); positive = the
    /// predictor under-estimated.
    pub bias_ms: f64,
    /// Standard error of `bias_ms`: the residuals' sample standard
    /// deviation over the square root of their count, which is `samples`
    /// when the prediction came first (0 with fewer than two residuals).
    /// A bias within about two of these of zero is noise, not a predictor
    /// error.
    pub bias_se_ms: f64,
    /// Mean absolute residual.
    pub mae_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residuals_accumulate_per_key() {
        let mut m = DriftMonitor::new();
        m.record_prediction("wf", 1, None, SimDuration::from_millis(100));
        m.record_observation("wf", 1, None, SimDuration::from_millis(110));
        m.record_observation("wf", 1, None, SimDuration::from_millis(90));
        m.record_prediction("wf", 1, Some(0), SimDuration::from_millis(40));
        m.record_observation("wf", 1, Some(0), SimDuration::from_millis(44));
        let report = m.report();
        assert_eq!(report.len(), 2);
        // End-to-end sorts before stage 0 (None < Some).
        let e2e = &report[0];
        assert_eq!(e2e.stage, None);
        assert_eq!(e2e.samples, 2);
        assert!(e2e.bias_ms.abs() < 1.0, "symmetric errors cancel");
        assert!((e2e.mae_ms - 10.0).abs() < 1.0);
        // Residuals +10 and −10: sample SD √200, over √2 ⇒ 10.
        assert!((e2e.bias_se_ms - 10.0).abs() < 1e-9, "{}", e2e.bias_se_ms);
        let s0 = &report[1];
        assert_eq!(s0.stage, Some(0));
        assert!((s0.bias_ms - 4.0).abs() < 0.5);
        assert_eq!(s0.bias_se_ms, 0.0, "one residual has no spread estimate");
    }

    #[test]
    fn report_is_sorted_by_key_regardless_of_insertion_order() {
        let mut m = DriftMonitor::new();
        // Touch keys in deliberately scrambled order.
        m.record_observation("wf-b", 9, Some(1), SimDuration::from_millis(1));
        m.record_observation("wf-a", 7, Some(2), SimDuration::from_millis(1));
        m.record_observation("wf-a", 7, None, SimDuration::from_millis(1));
        m.record_observation("wf-a", 3, Some(0), SimDuration::from_millis(1));
        m.record_observation("wf-b", 9, None, SimDuration::from_millis(1));
        m.record_observation("wf-a", 7, Some(0), SimDuration::from_millis(1));
        let keys: Vec<_> = m
            .report()
            .iter()
            .map(|e| (e.workflow.clone(), e.plan, e.stage))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "report must sort by (workflow, plan, stage)");
        assert_eq!(keys.len(), 6);
        assert_eq!(keys[0], ("wf-a".to_string(), 3, Some(0)));
        assert_eq!(keys[1], ("wf-a".to_string(), 7, None));
        assert_eq!(keys[5], ("wf-b".to_string(), 9, Some(1)));
    }

    #[test]
    fn observations_without_prediction_carry_no_residuals() {
        let mut m = DriftMonitor::new();
        m.record_observation("wf", 3, None, SimDuration::from_millis(8));
        let report = m.report();
        assert_eq!(report[0].predicted_ms, None);
        assert_eq!(report[0].samples, 1);
        assert_eq!(report[0].mae_ms, 0.0);
        assert_eq!(report[0].bias_se_ms, 0.0);
    }
}

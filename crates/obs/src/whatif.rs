//! Coz-style what-if profiling: virtual speedups over the DES.
//!
//! Attribution ([`crate::attrib`]) says which component *carries* the
//! latency; it does not say what fixing it would *buy* — queueing can
//! collapse when execution shrinks, or stay put because the bottleneck
//! was elsewhere. Causal profiling answers that by actually making the
//! component faster and measuring. A real system can only approximate
//! this (Coz slows everything else down); a simulator can do it exactly:
//! re-run the DES with the component's calibrated constant scaled by
//! {0.75, 0.5, 0.25} and read the new tail off the report.
//!
//! This module is deliberately mechanism-free: it sits below the serving
//! stack in the crate graph, so the *caller* (`chiron::Chiron::whatif_report`)
//! supplies a runner closure that knows how to rebuild a serving run with
//! one component scaled. Components without a backing constant — queueing
//! and retry are emergent, not calibrated — are reported as unsupported
//! rather than silently guessed.

use crate::attrib::Component;
use std::fmt::Write as _;

/// The virtual speedup factors applied to a component's constant, in
/// percent (75 = keep 75% of the cost).
pub const SPEEDUP_SCALES: [u32; 3] = [75, 50, 25];

/// One re-run: `component` scaled to `scale_pct`% of its calibrated cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIfExperiment {
    pub component: Component,
    pub scale_pct: u32,
    pub p99_ms: f64,
    /// `baseline p99 − this p99` (negative = the change hurt).
    pub improvement_ms: f64,
}

/// A component's best case across its experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIfRanking {
    pub component: Component,
    pub blame_ns: u64,
    pub best_scale_pct: u32,
    pub best_improvement_ms: f64,
}

/// The full what-if report.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfReport {
    pub baseline_p99_ms: f64,
    /// Every experiment, in (candidate, scale) order.
    pub experiments: Vec<WhatIfExperiment>,
    /// Candidates by predicted p99 improvement, best first (ties broken
    /// by canonical component order). Only supported components appear.
    pub ranking: Vec<WhatIfRanking>,
    /// Candidates the runner declined (no calibrated constant to scale).
    pub unsupported: Vec<Component>,
}

/// Runs the experiment matrix. `candidates` come from
/// [`AttributionReport::blame_ranking`](crate::attrib::AttributionReport::blame_ranking)
/// (component, total blame ns). `runner(component, scale)` re-runs the
/// serving DES with that component's constant multiplied by `scale` and
/// returns the new p99 in milliseconds — or `None` when the component has
/// no constant to scale.
pub fn run(
    candidates: &[(Component, u64)],
    baseline_p99_ms: f64,
    mut runner: impl FnMut(Component, f64) -> Option<f64>,
) -> WhatIfReport {
    let mut experiments = Vec::with_capacity(candidates.len() * SPEEDUP_SCALES.len());
    let mut ranking: Vec<WhatIfRanking> = Vec::new();
    let mut unsupported = Vec::new();
    for &(component, blame_ns) in candidates {
        let mut best: Option<(u32, f64)> = None;
        let mut supported = true;
        for scale_pct in SPEEDUP_SCALES {
            match runner(component, f64::from(scale_pct) / 100.0) {
                Some(p99_ms) => {
                    let improvement_ms = baseline_p99_ms - p99_ms;
                    experiments.push(WhatIfExperiment {
                        component,
                        scale_pct,
                        p99_ms,
                        improvement_ms,
                    });
                    if best.is_none_or(|(_, b)| improvement_ms > b) {
                        best = Some((scale_pct, improvement_ms));
                    }
                }
                None => {
                    supported = false;
                    break;
                }
            }
        }
        match (supported, best) {
            (true, Some((best_scale_pct, best_improvement_ms))) => ranking.push(WhatIfRanking {
                component,
                blame_ns,
                best_scale_pct,
                best_improvement_ms,
            }),
            _ => unsupported.push(component),
        }
    }
    ranking.sort_by(|a, b| {
        b.best_improvement_ms
            .total_cmp(&a.best_improvement_ms)
            .then(a.component.index().cmp(&b.component.index()))
    });
    WhatIfReport {
        baseline_p99_ms,
        experiments,
        ranking,
        unsupported,
    }
}

impl WhatIfReport {
    /// Deterministic text form (the `--workers` invariance gate compares
    /// these bytes).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "whatif baseline_p99_ms={:.3}", self.baseline_p99_ms);
        for e in &self.experiments {
            let _ = writeln!(
                out,
                "  {:<11} x{:.2} p99_ms={:.3} improvement_ms={:+.3}",
                e.component.name(),
                f64::from(e.scale_pct) / 100.0,
                e.p99_ms,
                e.improvement_ms,
            );
        }
        for (i, r) in self.ranking.iter().enumerate() {
            let _ = writeln!(
                out,
                "rank {} {:<11} blame_ns={} best_scale=x{:.2} best_improvement_ms={:+.3}",
                i + 1,
                r.component.name(),
                r.blame_ns,
                f64::from(r.best_scale_pct) / 100.0,
                r.best_improvement_ms,
            );
        }
        for c in &self.unsupported {
            let _ = writeln!(
                out,
                "unsupported {} (emergent: no constant to scale)",
                c.name()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_by_best_improvement_and_tracks_unsupported() {
        let candidates = [
            (Component::Queueing, 900),
            (Component::Execution, 800),
            (Component::ColdStart, 700),
        ];
        // Execution speedups help linearly; cold start barely matters;
        // queueing has no constant.
        let report = run(&candidates, 100.0, |c, scale| match c {
            Component::Execution => Some(40.0 + 60.0 * scale),
            Component::ColdStart => Some(99.0 - (1.0 - scale)),
            _ => None,
        });
        assert_eq!(report.experiments.len(), 6);
        assert_eq!(report.ranking.len(), 2);
        assert_eq!(report.ranking[0].component, Component::Execution);
        assert_eq!(report.ranking[0].best_scale_pct, 25);
        assert!((report.ranking[0].best_improvement_ms - 45.0).abs() < 1e-9);
        assert_eq!(report.ranking[1].component, Component::ColdStart);
        assert_eq!(report.unsupported, vec![Component::Queueing]);
        let render = report.render();
        assert!(render.contains("rank 1 execution"), "{render}");
        assert!(render.contains("unsupported queueing"), "{render}");
    }

    #[test]
    fn improvement_ties_break_by_component_order() {
        let candidates = [(Component::Interaction, 10), (Component::GilBlock, 10)];
        let report = run(&candidates, 50.0, |_, _| Some(45.0));
        assert_eq!(report.ranking[0].component, Component::GilBlock);
        assert_eq!(report.ranking[1].component, Component::Interaction);
    }

    #[test]
    fn a_regression_is_reported_not_hidden() {
        let report = run(&[(Component::Execution, 5)], 20.0, |_, _| Some(25.0));
        assert!((report.ranking[0].best_improvement_ms + 5.0).abs() < 1e-9);
        assert!(report.render().contains("improvement_ms=-5.000"));
    }
}

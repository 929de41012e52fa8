//! Deterministic observability for the Chiron reproduction: structured
//! event tracing, a static metrics registry, and a predictor-drift
//! monitor — all zero-cost when disabled and byte-for-byte reproducible
//! when enabled.
//!
//! The crate sits below `serve`, `runtime`, `pgp` and `predict` (it
//! depends only on `chiron-model` and `chiron-metrics`) so every layer of
//! the stack can record into the same sinks:
//!
//! * [`trace`] — a global on/off switch with per-thread capture buffers
//!   (a standalone serving run takes its caller's buffer and banks into
//!   it; fleet clusters bank into buffers of their own). Events carry their
//!   sim time, and traces are normalised by a stable sort on it, so any
//!   worker count reproduces identical bytes. Disabled, every hook is a
//!   single relaxed atomic load or a plain bool.
//! * [`metrics`] — process-wide counters/gauges/histograms keyed by
//!   static names, self-registering on first touch, with one snapshot
//!   surface (JSON + human table) absorbing the stack's ad-hoc counters.
//! * [`drift`] — an owned [`DriftMonitor`] of predicted-vs-observed
//!   latency residuals per `(workflow, plan, stage)`, feeding the
//!   `figures -- obs` report.
//! * [`perfetto`] — the workspace's one Chrome Trace Event Format
//!   writer, and the export of a captured serving [`Trace`] as one
//!   document (one track per replica, grouped by node) for
//!   <https://ui.perfetto.dev>.
//!
//! On top of the recording plane sits the analysis plane:
//!
//! * [`attrib`] — per-request critical-path reconstruction and an exact
//!   decomposition of sojourn into `{queueing, cold_start, gil_block,
//!   interaction, execution, retry}`, with folded-flame and counter-track
//!   exports.
//! * [`slo`] — an online multi-window burn-rate monitor the serving
//!   simulator evaluates at event time, so alerts are byte-identical for
//!   any worker count; both windows are cursors over one completion log.
//! * [`regime`] — an online Page–Hinkley/CUSUM regime-change detector
//!   over latency residuals, plus the incident snapshot that windows a
//!   finished trace around the first sensor fire next to the metrics.
//! * [`whatif`] — Coz-style virtual-speedup experiments over the DES,
//!   ranking top-blamed components by predicted p99 improvement.
//! * [`intern`](mod@intern) — the string interner keeping trace events small.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod attrib;
pub mod drift;
pub mod intern;
pub mod metrics;
pub mod perfetto;
pub mod regime;
pub mod slo;
pub mod trace;
pub mod whatif;

pub use attrib::{
    attribute, AttributionReport, Component, ComponentProfile, RequestAttribution, COLD_TIER_SLOTS,
};
pub use drift::{DriftEntry, DriftMonitor};
pub use intern::{intern, resolve, StrId};
pub use metrics::{
    reset_metrics, snapshot, HistogramSummary, MetricsSnapshot, StaticCounter, StaticGauge,
    StaticHistogram,
};
pub use perfetto::serve_trace;
pub use regime::{
    incident_from_trace, IncidentSnapshot, RegimeChangeInfo, RegimeConfig, RegimeDetector,
    E2E_STAGE,
};
pub use slo::{BurnRateMonitor, SloPolicy, SloSummary, SloTransition};
pub use trace::{
    begin_capture, begin_capture_sized, end_capture, recycle, reset_trace_stats, restore_capture,
    set_tracing, take_buffer, take_capture, trace_stats, tracing_enabled, Trace, TraceEvent,
    TraceEventKind, TraceStats,
};
pub use whatif::{WhatIfExperiment, WhatIfRanking, WhatIfReport};

/// Scoped reset for every process-global observability sink — the
/// metrics registry and the trace-stats counters — mirroring
/// [`reset_trace_stats`] but covering the whole crate. Figure harnesses
/// call this between cells so back-to-back runs in one process never
/// bleed counters into each other's reports. (Drift monitors, regime
/// detectors and fleet trace buffers are owned by their runs, so there is
/// nothing global to reset there.)
pub fn reset_observability() {
    reset_metrics();
    reset_trace_stats();
}

/// 64-bit FNV-1a over `bytes`: the plan key and the trace and
/// attribution digests.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_model::SimDuration;

    static BLEED_A: StaticCounter = StaticCounter::new("obs.test.bleed.a");
    static BLEED_H: StaticHistogram = StaticHistogram::new("obs.test.bleed.h");

    /// The isolation contract: a figure cell that resets between runs
    /// starts from a provably clean slate — no counter, histogram, or
    /// trace-stat state survives from the cell before it.
    #[test]
    fn reset_observability_isolates_back_to_back_runs() {
        let _m = metrics::TEST_GATE.lock();
        // "Run 1" dirties every global sink.
        BLEED_A.add(41);
        BLEED_H.record(SimDuration::from_millis(7));

        reset_observability();

        // "Run 2" sees zeros everywhere.
        assert_eq!(BLEED_A.get(), 0);
        assert_eq!(BLEED_H.summary().samples, 0);
        let snap = snapshot();
        let ours = snap
            .counters
            .iter()
            .find(|(n, _)| *n == "obs.test.bleed.a")
            .expect("registration survives reset");
        assert_eq!(ours.1, 0);
    }
}

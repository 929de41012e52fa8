//! The two renderings of a finished [`RequestOutcome`]: its Chrome trace,
//! and its per-function DES events in the observability trace.
//!
//! [`to_chrome_trace`] writes the Trace Event Format consumed by
//! `chrome://tracing` / Perfetto, through `chiron-obs`'s single writer
//! ([`TraceWriter`]), so the Fig. 5-style execution timelines can be
//! inspected interactively: one trace row per function, one complete
//! event per span, colour-coded by span kind — GIL waits and fork ladders
//! included, which the observability trace's per-function windows do not
//! show.
//!
//! `emit_des_windows` reports each function's window and its §2.2
//! breakdown to the observability sink, once the outcome is complete.

use crate::span::{RequestOutcome, SpanKind};
use chiron_model::{FunctionId, SimTime, Workflow};
use chiron_obs::perfetto::{Escaped, TraceWriter};
use chiron_obs::TraceEventKind;

/// The row the stage markers are drawn on.
const STAGE_PID: u32 = 9999;

/// A span kind's event name and trace-viewer colour (`cname`).
fn style(kind: SpanKind) -> (&'static str, &'static str) {
    match kind {
        SpanKind::Scheduled => ("scheduled", "grey"),
        SpanKind::TransferIn => ("transfer-in", "thread_state_iowait"),
        SpanKind::TransferOut => ("transfer-out", "thread_state_iowait"),
        SpanKind::BlockWait => ("fork-block", "terrible"),
        SpanKind::Startup => ("startup", "bad"),
        SpanKind::Exec => ("exec", "good"),
        SpanKind::Io => ("io", "thread_state_sleeping"),
        SpanKind::GilWait => ("gil-wait", "generic_work"),
        SpanKind::Ipc => ("ipc", "grey"),
    }
}

/// The §2.2 term a span kind adds to: startup, block, interaction or
/// execution, as a [`TraceEventKind::DesBreakdown`] slot.
fn term(kind: SpanKind) -> usize {
    match kind {
        SpanKind::Startup => 0,
        SpanKind::BlockWait | SpanKind::GilWait | SpanKind::Scheduled => 1,
        SpanKind::TransferIn | SpanKind::TransferOut | SpanKind::Ipc => 2,
        SpanKind::Exec | SpanKind::Io => 3,
    }
}

/// Renders the outcome as a Trace Event Format JSON document.
///
/// Load the result in `chrome://tracing` or <https://ui.perfetto.dev>:
/// process = sandbox, thread = function, events = spans (µs timestamps).
pub fn to_chrome_trace(workflow: &Workflow, outcome: &RequestOutcome) -> String {
    let mut w = TraceWriter::default();
    for timeline in &outcome.timelines {
        let track = (timeline.sandbox.0, timeline.function.0);
        // Thread-name metadata so rows are labelled by function.
        w.thread_name(track, &workflow.function(timeline.function).name);
        for span in timeline.spans(&outcome.spans) {
            let dur = span.duration().as_nanos();
            if dur > 0 {
                let (label, color) = style(span.kind);
                w.complete(track, span.start.as_nanos(), dur, label)
                    .cname(color)
                    .arg("stage", timeline.stage);
            }
        }
    }
    // Stage markers on a dedicated row.
    for (si, &(start, end)) in outcome.stage_windows.iter().enumerate() {
        let dur = end.since(start).as_nanos();
        w.complete(
            (STAGE_PID, 0),
            start.as_nanos(),
            dur,
            format_args!("stage {si}"),
        );
    }
    w.finish(format_args!(
        "\"workflow\":\"{}\",\"e2e_ms\":{:.3}",
        Escaped(&workflow.name),
        outcome.e2e.as_millis_f64()
    ))
}

/// Emits a [`TraceEventKind::DesSpan`] and a
/// [`TraceEventKind::DesBreakdown`] for each function of a finished
/// outcome, in `order`: its window, and its spans summed into §2.2's
/// startup / block / interaction / execution terms for latency
/// attribution. The reference engine stays uninstrumented.
pub(crate) fn emit_des_windows(outcome: &RequestOutcome, order: impl Iterator<Item = FunctionId>) {
    for function in order {
        let timeline = &outcome.timelines[function.index()];
        let spans = timeline.spans(&outcome.spans);
        let dispatched_ns = timeline.dispatched.as_nanos();
        let rel = |t: SimTime| {
            u32::try_from(t.as_nanos().saturating_sub(dispatched_ns)).unwrap_or(u32::MAX)
        };
        chiron_obs::emit(
            dispatched_ns,
            TraceEventKind::DesSpan {
                function: function.0 as u16,
                sandbox: timeline.sandbox.0 as u16,
                stage: timeline.stage as u16,
                spans: spans.len().min(u16::MAX as usize) as u16,
                exec_rel_ns: rel(timeline.exec_start),
                complete_rel_ns: rel(timeline.completed),
            },
        );
        let mut parts = [0u64; 4];
        for span in spans {
            parts[term(span.kind)] += span.duration().as_nanos();
        }
        let sat = |ns: u64| u32::try_from(ns).unwrap_or(u32::MAX);
        chiron_obs::emit(
            dispatched_ns,
            TraceEventKind::DesBreakdown {
                function: function.0 as u16,
                stage: timeline.stage as u16,
                startup_ns: sat(parts[0]),
                blocked_ns: sat(parts[1]),
                interaction_ns: sat(parts[2]),
                exec_ns: sat(parts[3]),
            },
        );
    }
}

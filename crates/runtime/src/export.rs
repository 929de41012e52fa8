//! Chrome-trace export of request timelines.
//!
//! Serialises a [`RequestOutcome`](crate::span::RequestOutcome) into the
//! Trace Event Format consumed by `chrome://tracing` / Perfetto, so the
//! Fig. 5-style execution timelines can be inspected interactively: one
//! trace row per function, one complete event per span, colour-coded by
//! span kind. The JSON is emitted by hand — it is a write-only format
//! here, so no JSON dependency is needed.

use crate::span::{RequestOutcome, SpanKind};
use chiron_model::Workflow;
use std::fmt::Write as _;

/// Maps span kinds to trace-viewer colour names (`cname`).
fn color(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Scheduled => "grey",
        SpanKind::TransferIn | SpanKind::TransferOut => "thread_state_iowait",
        SpanKind::BlockWait => "terrible",
        SpanKind::Startup => "bad",
        SpanKind::Exec => "good",
        SpanKind::Io => "thread_state_sleeping",
        SpanKind::GilWait => "generic_work",
        SpanKind::Ipc => "grey",
    }
}

fn label(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Scheduled => "scheduled",
        SpanKind::TransferIn => "transfer-in",
        SpanKind::TransferOut => "transfer-out",
        SpanKind::BlockWait => "fork-block",
        SpanKind::Startup => "startup",
        SpanKind::Exec => "exec",
        SpanKind::Io => "io",
        SpanKind::GilWait => "gil-wait",
        SpanKind::Ipc => "ipc",
    }
}

/// Minimal JSON string escaping (names are ASCII identifiers in practice).
fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Renders the outcome as a Trace Event Format JSON document.
///
/// Load the result in `chrome://tracing` or <https://ui.perfetto.dev>:
/// process = sandbox, thread = function, events = spans (µs timestamps).
pub fn to_chrome_trace(workflow: &Workflow, outcome: &RequestOutcome) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let push = |line: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };

    for timeline in &outcome.timelines {
        let pid = timeline.sandbox.0;
        let tid = timeline.function.0;
        let name = escape(&workflow.function(timeline.function).name);
        // Thread-name metadata so rows are labelled by function.
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
            &mut out,
            &mut first,
        );
        for span in timeline.spans(&outcome.spans) {
            let ts_us = span.start.as_nanos() as f64 / 1e3;
            let dur_us = span.duration().as_nanos() as f64 / 1e3;
            if dur_us <= 0.0 {
                continue;
            }
            push(
                format!(
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us:.3},\
                     \"dur\":{dur_us:.3},\"name\":\"{}\",\"cname\":\"{}\",\
                     \"args\":{{\"stage\":{}}}}}",
                    label(span.kind),
                    color(span.kind),
                    timeline.stage
                ),
                &mut out,
                &mut first,
            );
        }
    }
    // Stage markers on a dedicated row.
    for (si, &(start, end)) in outcome.stage_windows.iter().enumerate() {
        let ts_us = start.as_nanos() as f64 / 1e3;
        let dur_us = end.since(start).as_nanos() as f64 / 1e3;
        push(
            format!(
                "{{\"ph\":\"X\",\"pid\":9999,\"tid\":0,\"ts\":{ts_us:.3},\
                 \"dur\":{dur_us:.3},\"name\":\"stage {si}\"}}"
            ),
            &mut out,
            &mut first,
        );
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"workflow\":\"{}\",\
         \"e2e_ms\":{:.3}}}}}",
        escape(&workflow.name),
        outcome.e2e.as_millis_f64()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::VirtualPlatform;
    use chiron_model::plan::*;
    use chiron_model::{
        apps, FunctionId, IsolationKind, PlatformConfig, RuntimeKind, SandboxId, SandboxPlan,
    };

    fn outcome() -> (Workflow, RequestOutcome) {
        let wf = apps::finra(5);
        let plan = DeploymentPlan {
            system: SystemKind::Faastlane,
            workflow: wf.name.clone(),
            runtime: RuntimeKind::PseudoParallel,
            isolation: IsolationKind::None,
            transfer: TransferKind::RpcPayload,
            scheduling: SchedulingKind::PreDeployed,
            sandboxes: vec![SandboxPlan {
                id: SandboxId(0),
                cpus: 5,
                pool_size: 0,
            }],
            stages: vec![
                StagePlan {
                    wraps: vec![WrapPlan {
                        sandbox: SandboxId(0),
                        processes: vec![ProcessPlan::main_reuse(vec![FunctionId(0)])],
                    }],
                },
                StagePlan {
                    wraps: vec![WrapPlan {
                        sandbox: SandboxId(0),
                        processes: (1..=5)
                            .map(|i| ProcessPlan::forked(vec![FunctionId(i)]))
                            .collect(),
                    }],
                },
            ],
        };
        let out = VirtualPlatform::new(PlatformConfig::paper_calibrated())
            .execute(&wf, &plan, 0)
            .unwrap();
        (wf, out)
    }

    #[test]
    fn emits_wellformed_trace_structure() {
        let (wf, out) = outcome();
        let trace = to_chrome_trace(&wf, &out);
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.ends_with('}'));
        // Balanced braces (no quoting subtleties in our identifiers).
        let opens = trace.matches('{').count();
        let closes = trace.matches('}').count();
        assert_eq!(opens, closes);
        // One thread-name metadata record per function.
        assert_eq!(trace.matches("thread_name").count(), wf.function_count());
        // Startup, exec and fork-block spans all appear.
        for needle in [
            "\"startup\"",
            "\"exec\"",
            "\"fork-block\"",
            "\"io\"",
            "stage 1",
        ] {
            assert!(trace.contains(needle), "missing {needle}");
        }
        assert!(trace.contains("\"workflow\":\"FINRA-5\""));
    }

    #[test]
    fn timestamps_are_microseconds() {
        let (wf, out) = outcome();
        let trace = to_chrome_trace(&wf, &out);
        // The fetch function's 40ms net I/O appears as a 40000µs span.
        assert!(trace.contains("\"dur\":40000.000"), "{trace}");
    }

    #[test]
    fn escaping_handles_quotes() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("tab\tchar"), "tab\\u0009char");
    }
}

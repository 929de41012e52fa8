//! Execution timelines: what happened to every function of a request and
//! when. These records are the raw material for Fig. 5 (process vs. thread
//! timelines), Fig. 15 (per-function latency CDFs), and the Profiler's
//! strace-style traces.
//!
//! A request's spans live in one buffer, [`RequestOutcome::spans`]; each
//! [`FunctionTimeline`] holds the index range of its own spans there, so
//! an outcome costs three allocations however many functions it has.
//! The accessors that read spans take that buffer. Within it, the spans
//! are grouped by wrap in execution order, and within a wrap by thread,
//! each thread's run ending with its IPC and store-write spans.

use chiron_model::{FunctionId, SandboxId, SimDuration, SimTime};
use std::ops::Range;

/// The kind of activity a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Waiting in the platform gateway's scheduling queue (Fig. 3).
    Scheduled,
    /// Reading stage input from the object store (one-to-one model).
    TransferIn,
    /// Writing output to the object store (one-to-one model).
    TransferOut,
    /// Waiting for earlier forks of the same wrap to finish (`T_Block`).
    BlockWait,
    /// Fork / clone / pool-dispatch / isolation-domain entry (`T_Startup`).
    Startup,
    /// Executing bytecode on a CPU.
    Exec,
    /// Blocked in a syscall (GIL released).
    Io,
    /// Runnable but waiting for the GIL or for a CPU share.
    GilWait,
    /// Returning the result to the orchestrator over a pipe (`T_IPC`).
    Ipc,
}

/// A half-open interval `[start, end)` of one activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: SpanKind,
    pub start: SimTime,
    pub end: SimTime,
}

impl Span {
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// Everything that happened to one function during one request.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionTimeline {
    pub function: FunctionId,
    pub sandbox: SandboxId,
    /// Stage the function belongs to.
    pub stage: usize,
    /// When the platform began materialising this function (fork initiated,
    /// gateway dispatch, ...).
    pub dispatched: SimTime,
    /// When the function's own code started executing.
    pub exec_start: SimTime,
    /// When the function finished (result available in its process).
    pub completed: SimTime,
    /// This function's spans: an index range into its outcome's
    /// [`RequestOutcome::spans`].
    pub spans: Range<u32>,
}

impl FunctionTimeline {
    /// This function's spans, sliced from `buffer`, its outcome's span
    /// buffer.
    pub fn spans<'a>(&self, buffer: &'a [Span]) -> &'a [Span] {
        &buffer[self.spans.start as usize..self.spans.end as usize]
    }

    /// Total time attributed to one span kind; `buffer` is the outcome's
    /// span buffer.
    pub fn total(&self, buffer: &[Span], kind: SpanKind) -> SimDuration {
        self.spans(buffer)
            .iter()
            .filter(|s| s.kind == kind)
            .map(Span::duration)
            .sum()
    }

    /// Function latency as Fig. 15 plots it: dispatch to completion.
    pub fn latency(&self) -> SimDuration {
        self.completed.since(self.dispatched)
    }

    /// Startup overhead: everything before the first executed instruction.
    pub fn startup_overhead(&self) -> SimDuration {
        self.exec_start.since(self.dispatched)
    }

    /// Checks internal invariants: spans ordered, non-overlapping, within
    /// the dispatch/completion window. `buffer` is the outcome's span
    /// buffer.
    pub fn check_invariants(&self, buffer: &[Span]) -> Result<(), String> {
        if self.spans.start > self.spans.end || self.spans.end as usize > buffer.len() {
            return Err("span range outside the outcome's buffer".into());
        }
        let mut cursor = self.dispatched;
        for (i, s) in self.spans(buffer).iter().enumerate() {
            if s.end < s.start {
                return Err(format!("span {i} ends before it starts"));
            }
            if s.start < cursor {
                return Err(format!("span {i} overlaps its predecessor"));
            }
            cursor = s.end;
        }
        if self.exec_start < self.dispatched {
            return Err("exec_start precedes dispatch".into());
        }
        if self.completed < self.exec_start {
            return Err("completion precedes exec_start".into());
        }
        Ok(())
    }
}

/// Outcome of executing one workflow request on the virtual platform.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// End-to-end latency of the request.
    pub e2e: SimDuration,
    /// Per-function timelines, in `FunctionId` order.
    pub timelines: Vec<FunctionTimeline>,
    /// Every function's spans; each timeline's `spans` range indexes it.
    pub spans: Vec<Span>,
    /// `[start, end)` of every stage.
    pub stage_windows: Vec<(SimTime, SimTime)>,
}

impl RequestOutcome {
    pub fn timeline(&self, id: FunctionId) -> &FunctionTimeline {
        self.timelines
            .iter()
            .find(|t| t.function == id)
            .expect("timeline for every function")
    }

    /// Aggregate time spent in one span kind across all functions.
    pub fn total(&self, kind: SpanKind) -> SimDuration {
        self.timelines
            .iter()
            .map(|t| t.total(&self.spans, kind))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_nanos(v * 1_000_000)
    }

    fn span(kind: SpanKind, s: u64, e: u64) -> Span {
        Span {
            kind,
            start: ms(s),
            end: ms(e),
        }
    }

    /// One timeline whose spans sit after another function's span in the
    /// buffer.
    fn timeline() -> (FunctionTimeline, Vec<Span>) {
        let buffer = vec![
            span(SpanKind::Exec, 0, 1),
            span(SpanKind::BlockWait, 0, 3),
            span(SpanKind::Startup, 3, 8),
            span(SpanKind::Exec, 8, 14),
            span(SpanKind::Io, 14, 18),
            span(SpanKind::Exec, 18, 20),
        ];
        let t = FunctionTimeline {
            function: FunctionId(1),
            sandbox: SandboxId(0),
            stage: 0,
            dispatched: ms(0),
            exec_start: ms(8),
            completed: ms(20),
            spans: 1..6,
        };
        (t, buffer)
    }

    #[test]
    fn totals_by_kind() {
        let (t, buffer) = timeline();
        assert_eq!(t.spans(&buffer).len(), 5);
        assert_eq!(t.total(&buffer, SpanKind::Exec).as_millis_f64(), 8.0);
        assert_eq!(t.total(&buffer, SpanKind::Io).as_millis_f64(), 4.0);
        assert_eq!(t.total(&buffer, SpanKind::Ipc), SimDuration::ZERO);
        assert_eq!(t.latency().as_millis_f64(), 20.0);
        assert_eq!(t.startup_overhead().as_millis_f64(), 8.0);
    }

    #[test]
    fn invariants_hold() {
        let (t, buffer) = timeline();
        t.check_invariants(&buffer).unwrap();
    }

    #[test]
    fn invariants_catch_overlap() {
        let (t, mut buffer) = timeline();
        buffer[2].start = ms(2);
        assert!(t.check_invariants(&buffer).is_err());
    }

    #[test]
    fn invariants_catch_backwards_span() {
        let (t, mut buffer) = timeline();
        buffer[1].end = SimTime::ZERO;
        buffer[1].start = ms(1);
        assert!(t.check_invariants(&buffer).is_err());
    }

    #[test]
    fn invariants_catch_a_range_past_the_buffer() {
        let (mut t, buffer) = timeline();
        t.spans = 1..7;
        assert!(t.check_invariants(&buffer).is_err());
    }

    #[test]
    fn outcome_lookup() {
        let (t, spans) = timeline();
        let outcome = RequestOutcome {
            e2e: SimDuration::from_millis(20),
            timelines: vec![t],
            spans,
            stage_windows: vec![(ms(0), ms(20))],
        };
        assert_eq!(outcome.timeline(FunctionId(1)).stage, 0);
        assert_eq!(outcome.total(SpanKind::Exec).as_millis_f64(), 8.0);
    }
}

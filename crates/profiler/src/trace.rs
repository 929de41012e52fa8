//! strace-style solo-run tracing (Fig. 10).
//!
//! Attaching a tracer to a function records, for every blocking syscall,
//! its start timestamp (relative to function start), its name, and its
//! duration — and nothing about CPU periods, which must be deduced as the
//! gaps between syscalls. Tracing also inflates the observed syscall
//! durations (ptrace stops are not free); the Profiler corrects for this
//! downstream.

use chiron_model::{FunctionSpec, Segment, SimDuration};

/// One line of the strace log: `<ts> <syscall>() = ... <<dur>>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StraceRecord {
    /// Offset from function start at which the syscall was entered.
    pub start: SimDuration,
    /// Representative syscall name (`read`, `sendto`, `select`, ...).
    pub syscall: &'static str,
    /// Observed (tracer-inflated) duration of the syscall.
    pub duration: SimDuration,
}

/// Relative inflation strace imposes on blocking syscalls (ptrace stops on
/// entry and exit). 8 % is representative of strace on short syscalls.
pub const STRACE_OVERHEAD: f64 = 0.08;

/// Traces one solo run of `spec` and returns the strace log plus the total
/// (traced) run latency.
///
/// CPU periods are invisible to the tracer; only blocking syscalls appear,
/// with durations inflated by [`STRACE_OVERHEAD`].
pub fn strace_solo(spec: &FunctionSpec) -> (Vec<StraceRecord>, SimDuration) {
    let mut records = Vec::new();
    let mut clock = SimDuration::ZERO;
    for &seg in &spec.segments {
        match seg {
            Segment::Cpu(d) => clock += d,
            Segment::Block { kind, dur } => {
                let observed = dur.mul_f64(1.0 + STRACE_OVERHEAD);
                records.push(StraceRecord {
                    start: clock,
                    syscall: kind.syscall_name(),
                    duration: observed,
                });
                clock += observed;
            }
        }
    }
    (records, clock)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_model::SyscallKind;

    /// Mirrors Fig. 10: sleep(1s), then a file write and read.
    fn figure_10_function() -> FunctionSpec {
        FunctionSpec::new(
            "handle",
            vec![
                Segment::cpu_ms(48),
                Segment::block_ms(SyscallKind::Sleep, 1001.0),
                Segment::cpu_ms(21),
                Segment::block_ms(SyscallKind::DiskIo, 0.042),
                Segment::cpu_ms(11),
                Segment::block_ms(SyscallKind::DiskIo, 0.025),
            ],
        )
    }

    #[test]
    fn records_each_blocking_syscall() {
        let (log, _) = strace_solo(&figure_10_function());
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].syscall, "select");
        assert_eq!(log[0].start.as_millis_f64(), 48.0);
        assert_eq!(log[1].syscall, "read");
        assert_eq!(log[2].syscall, "read");
    }

    #[test]
    fn durations_are_inflated() {
        let (log, total) = strace_solo(&figure_10_function());
        let sleep = log[0].duration.as_millis_f64();
        assert!(sleep > 1001.0, "tracing overhead missing: {sleep}");
        assert!((sleep - 1001.0 * 1.08).abs() < 0.5);
        // The traced run is longer than the clean solo latency.
        let clean = figure_10_function().solo_latency();
        assert!(total > clean);
    }

    #[test]
    fn cpu_only_function_produces_empty_log() {
        let f = FunctionSpec::new("cpu", vec![Segment::cpu_ms(10)]);
        let (log, total) = strace_solo(&f);
        assert!(log.is_empty());
        assert_eq!(total.as_millis_f64(), 10.0);
    }

    #[test]
    fn starts_are_monotone() {
        let (log, _) = strace_solo(&figure_10_function());
        for w in log.windows(2) {
            assert!(w[0].start < w[1].start);
        }
    }
}

//! Serverless function specifications.
//!
//! A function's runtime behaviour is a sequence of [`Segment`]s: CPU bursts
//! interleaved with blocking syscalls. This mirrors exactly what the paper's
//! Profiler extracts with `strace` (§3.2, Fig. 10): timestamps and durations
//! of blocking syscalls, with everything in between treated as CPU time.

use crate::time::SimDuration;
use std::fmt;

/// Index of a function within its workflow's function table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FunctionId(pub u32);

impl FunctionId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// The class of blocking syscall a block segment models.
///
/// The distinction matters to the Profiler (different syscalls appear in the
/// strace log) and to workload typing (disk-I/O vs network-I/O intensive
/// functions in SLApp), not to the GIL simulation itself: all of them drop
/// the GIL for their duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyscallKind {
    /// `read`/`write` on a regular file (disk I/O).
    DiskIo,
    /// `poll`/`select`/`sendto`/`recvfrom` (network I/O).
    NetIo,
    /// `select`-based sleeping (`time.sleep` in CPython).
    Sleep,
}

impl SyscallKind {
    /// The representative syscall name that would appear in an strace log.
    pub fn syscall_name(self) -> &'static str {
        match self {
            SyscallKind::DiskIo => "read",
            SyscallKind::NetIo => "sendto",
            SyscallKind::Sleep => "select",
        }
    }
}

/// One phase of a function's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// Executes bytecode while holding the interpreter lock (if any).
    Cpu(SimDuration),
    /// A blocking operation; the thread drops the GIL for its duration.
    Block { kind: SyscallKind, dur: SimDuration },
}

impl Segment {
    pub const fn cpu_ms(ms: u64) -> Segment {
        Segment::Cpu(SimDuration::from_millis(ms))
    }

    pub fn cpu_ms_f64(ms: f64) -> Segment {
        Segment::Cpu(SimDuration::from_millis_f64(ms))
    }

    pub fn block_ms(kind: SyscallKind, ms: f64) -> Segment {
        Segment::Block {
            kind,
            dur: SimDuration::from_millis_f64(ms),
        }
    }

    pub fn duration(self) -> SimDuration {
        match self {
            Segment::Cpu(d) => d,
            Segment::Block { dur, .. } => dur,
        }
    }

    pub fn is_cpu(self) -> bool {
        matches!(self, Segment::Cpu(_))
    }
}

/// Coarse workload class, used by SLApp and for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    CpuIntensive,
    DiskIoIntensive,
    NetIoIntensive,
    Mixed,
}

/// The language runtime a function's code requires.
///
/// Functions with conflicting runtimes can never share a sandbox (§3.4), so
/// PGP must pin them into singleton wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LanguageRuntime {
    Python3,
    Python2,
    NodeJs,
    Java,
}

impl LanguageRuntime {
    /// Whether two runtimes can coexist inside one sandbox image.
    pub fn compatible(self, other: LanguageRuntime) -> bool {
        self == other
    }

    /// Whether threads of this runtime achieve true parallelism.
    pub fn true_parallel(self) -> bool {
        matches!(self, LanguageRuntime::Java)
    }
}

/// Static specification of one serverless function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSpec {
    pub name: String,
    /// Ground-truth execution behaviour (what strace would observe).
    pub segments: Vec<Segment>,
    /// Bytes of intermediate output shipped to every downstream consumer.
    pub output_bytes: u64,
    /// Private working-set memory beyond the shared runtime image, in bytes.
    pub workingset_bytes: u64,
    pub class: WorkloadClass,
    pub runtime: LanguageRuntime,
    /// Files the function opens for writing. Two functions that write the
    /// same file must not share a sandbox (§3.4).
    pub writes_files: Vec<String>,
}

impl FunctionSpec {
    pub fn new(name: impl Into<String>, segments: Vec<Segment>) -> Self {
        FunctionSpec {
            name: name.into(),
            segments,
            output_bytes: 1 << 10,
            workingset_bytes: 512 << 10,
            class: WorkloadClass::Mixed,
            runtime: LanguageRuntime::Python3,
            writes_files: Vec::new(),
        }
    }

    pub fn with_output_bytes(mut self, bytes: u64) -> Self {
        self.output_bytes = bytes;
        self
    }

    pub fn with_workingset_bytes(mut self, bytes: u64) -> Self {
        self.workingset_bytes = bytes;
        self
    }

    pub fn with_class(mut self, class: WorkloadClass) -> Self {
        self.class = class;
        self
    }

    /// Total CPU demand across all segments.
    pub fn cpu_time(&self) -> SimDuration {
        self.segments
            .iter()
            .filter(|s| s.is_cpu())
            .map(|s| s.duration())
            .sum()
    }

    /// Total blocking time across all segments.
    pub fn block_time(&self) -> SimDuration {
        self.segments
            .iter()
            .filter(|s| !s.is_cpu())
            .map(|s| s.duration())
            .sum()
    }

    /// Solo-run latency on a dedicated CPU: the sum of all segments.
    pub fn solo_latency(&self) -> SimDuration {
        self.segments.iter().map(|s| s.duration()).sum()
    }

    /// True when this function conflicts with `other` on a shared file.
    pub fn file_conflict(&self, other: &FunctionSpec) -> bool {
        self.writes_files
            .iter()
            .any(|f| other.writes_files.contains(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FunctionSpec {
        FunctionSpec::new(
            "f",
            vec![
                Segment::cpu_ms(3),
                Segment::block_ms(SyscallKind::DiskIo, 2.0),
                Segment::cpu_ms(1),
            ],
        )
    }

    #[test]
    fn cpu_block_split() {
        let f = spec();
        assert_eq!(f.cpu_time().as_millis_f64(), 4.0);
        assert_eq!(f.block_time().as_millis_f64(), 2.0);
        assert_eq!(f.solo_latency().as_millis_f64(), 6.0);
    }

    #[test]
    fn file_conflicts() {
        let writer = |name: &str, file: &str| FunctionSpec {
            writes_files: vec![file.into()],
            ..FunctionSpec::new(name, vec![Segment::cpu_ms(1)])
        };
        let (a, b, c) = (
            writer("a", "/tmp/x"),
            writer("b", "/tmp/x"),
            writer("c", "/tmp/y"),
        );
        assert!(a.file_conflict(&b));
        assert!(!a.file_conflict(&c));
    }

    #[test]
    fn runtime_compat() {
        assert!(LanguageRuntime::Python3.compatible(LanguageRuntime::Python3));
        assert!(!LanguageRuntime::Python3.compatible(LanguageRuntime::Python2));
        assert!(LanguageRuntime::Java.true_parallel());
        assert!(!LanguageRuntime::Python3.true_parallel());
    }

    #[test]
    fn segment_helpers() {
        let s = Segment::block_ms(SyscallKind::Sleep, 1.5);
        assert!(!s.is_cpu());
        assert_eq!(s.duration().as_millis_f64(), 1.5);
        assert_eq!(SyscallKind::Sleep.syscall_name(), "select");
    }
}

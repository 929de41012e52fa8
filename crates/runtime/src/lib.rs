//! # chiron-runtime
//!
//! The virtual serverless platform of the Chiron reproduction: a
//! deterministic event-driven simulation of sandboxes, processes, threads,
//! the CPython GIL, fork block/startup semantics, RPC/IPC plumbing and
//! object-store transfers — plus a real-OS-thread executor (`rt`) that runs
//! wraps as actual threads with an emulated GIL to cross-check the model.

#![warn(missing_debug_implementations)]
// `deny` rather than `forbid`: the lock-free SPSC ring (`rt::ring`) is the
// one module allowed to drop to unsafe for its wrap-aware zero-copy
// slices; everything else stays checked.
#![deny(unsafe_code)]

mod compiled;
pub mod export;
pub mod fluid;
pub mod jitter;
pub mod platform;
pub mod rt;
pub mod scratch;
pub mod span;

pub use export::{des_windows, to_chrome_trace};
pub use fluid::{
    execute_sandbox, execute_sandbox_reference, SandboxError, ThreadResult, ThreadTask,
};
pub use platform::VirtualPlatform;
pub use rt::ring::{crc32, measure_fit, ring, Consumer, Producer, RingError, RingFit};
pub use rt::{run_realtime, Backoff, RtEdge, RtResult, RtTask};
pub use scratch::{alloc_stats, reset_alloc_stats, AllocStats, SimScratch};
pub use span::{FunctionTimeline, RequestOutcome, Span, SpanKind};

//! The structured event-tracing sink.
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero cost when disabled.** Every instrumentation hook in the
//!    stack compiles to `TraceEventKind` construction (trivially cheap —
//!    a few register moves) plus one relaxed atomic load that bails out.
//!    No thread-local is touched, no buffer exists, nothing allocates.
//!    [`trace_stats`] proves it: a disabled run records zero events and
//!    allocates zero capture buffers.
//! 2. **Determinism.** Events are stamped with simulated time; a finished
//!    [`Trace`] is normalised by a *stable* sort on that stamp, so ties
//!    keep their emit order within one capture buffer and their
//!    buffer-concatenation order across buffers. One serving run is
//!    single-threaded, so its capture is naturally ordered; a multi-cell
//!    figure assembles per-cell traces in cell-index order. Either way
//!    `--workers N` yields byte-identical [`Trace::render`] output for
//!    every `N` — the same contract the sweep engine keeps.
//! 3. **Cheap when enabled.** A [`TraceEvent`] is at most 32 bytes (compile-time
//!    asserted): no strings — workflow/plan names are interned to `u32`
//!    ids ([`crate::intern`](mod@crate::intern)) — and the DES span payload carries
//!    window-relative `u32` durations. Capture buffers can be pre-sized
//!    ([`begin_capture_sized`]) so a serving run's ~8 events/request
//!    never trigger a growth memcpy, and normalisation skips the sort
//!    entirely when events arrived in time order.
//! 4. **No sink plumbing.** Capture buffers are thread-local and scoped
//!    by the *caller* ([`begin_capture`]/[`end_capture`]), so emitters
//!    never thread a sink handle through their state. The serving
//!    simulator banks instead of emitting per event: a standalone run
//!    takes the caller's open buffer for its lifetime ([`take_capture`],
//!    handed back by [`restore_capture`]) and a fleet cluster banks into
//!    a buffer of its own ([`take_buffer`]), so its stream survives
//!    work-stealing across worker threads.

use crate::intern::{resolve, StrId};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Global switch. Off by default; [`emit`] is a no-op while it is off.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Events banked by [`end_capture`] since the last [`reset_trace_stats`].
static EVENTS_RECORDED: AtomicU64 = AtomicU64::new(0);

/// Capture buffers opened by [`begin_capture`] since the last reset.
static CAPTURE_BUFFERS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The current capture buffer, if this thread is inside a
    /// `begin_capture`/`end_capture` window.
    static CAPTURE: RefCell<Option<Vec<TraceEvent>>> = const { RefCell::new(None) };
    /// Buffers handed back by [`recycle`], reused by this thread's next
    /// [`begin_capture`] or [`take_buffer`] so repeated captures pay the
    /// page-fault cost of a multi-megabyte event buffer once, not per
    /// capture. A pool rather than a single slot because a traced fleet
    /// run banks into one buffer *per cluster* concurrently; the pool
    /// lets a whole fleet's buffers circulate warm between runs.
    static SPARE: RefCell<Vec<Vec<TraceEvent>>> = const { RefCell::new(Vec::new()) };
}

/// Spare buffers kept per thread; beyond this, recycled buffers are
/// simply dropped. Sized for a large traced fleet (one buffer per
/// cluster, and the merged trace).
const SPARE_POOL_CAP: usize = 64;

/// Turns tracing on or off process-wide.
pub fn set_tracing(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether tracing is enabled (one relaxed load — the hot-path guard).
#[inline]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// What happened. Payloads are plain integers so events are `Copy` and
/// the emit path never allocates; strings are interned ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Identifies the run a capture belongs to: the interned workflow
    /// name and the structural plan digest. Emitted once, at capture
    /// start, by the serving simulator.
    RunContext { workflow: StrId, plan: u64 },
    /// Tags every following event of a federated serving capture with the
    /// cluster (shard) that emitted it. Fleet runs give each cluster
    /// disjoint request/replica/node id bases, so one capture can hold a
    /// whole fleet's causally-correct traces; this marker maps an id
    /// range back to its cluster.
    ClusterContext {
        cluster: u32,
        request_base: u64,
        replica_base: u32,
        node_base: u32,
    },
    /// A serving request entered the system.
    Arrival { request: u64, phase: u16 },
    /// The request was put on a queue shard: `-1` the global FIFO, `-2`
    /// the partitioned router's overflow queue, `>= 0` a node queue.
    Enqueue { request: u64, shard: i64 },
    /// The request left a queue for a replica.
    Dispatch {
        request: u64,
        replica: u32,
        node: u32,
        cold: bool,
    },
    /// The replica's completion reached the router.
    Complete { request: u64, replica: u32 },
    /// Failure recovery put an in-flight request back on a queue.
    Requeue { request: u64, replica: u32 },
    /// A replica began placing/starting. `cold` = the start pays an
    /// on-path startup window before the replica is schedulable
    /// (prewarmed and baseline replicas do not); `tier` is the
    /// `StartTier` code that served the start (0 warm handover,
    /// 1 snapshot restore, 2 zygote fork, 3 full cold boot).
    ReplicaSpawn {
        replica: u32,
        node: u32,
        cold: bool,
        tier: u8,
    },
    /// The replica became schedulable.
    ReplicaReady { replica: u32 },
    /// The autoscaler retired an idle replica.
    ReplicaRetired { replica: u32 },
    /// A node crash-stopped (fault injection).
    NodeKill { node: u32 },
    /// Heartbeat monitoring detected the crash and wrote the node off.
    NodeDeath { node: u32 },
    /// One function's DES execution window, emitted by
    /// `CompiledPlan::replay` from the finished outcome (the reference
    /// engine emits none). The event is stamped at the function's
    /// dispatch; `exec_rel_ns`/`complete_rel_ns` are relative to that
    /// stamp (saturating u32 — DES windows are millisecond-scale).
    DesSpan {
        function: u16,
        sandbox: u16,
        stage: u16,
        spans: u16,
        exec_rel_ns: u32,
        complete_rel_ns: u32,
    },
    /// Companion to [`TraceEventKind::DesSpan`]: the window's additive
    /// component breakdown (§2.2's model), in saturating u32 nanoseconds.
    /// `startup` = fork/clone/pool/isolation entry, `blocked` = GIL +
    /// fork-barrier + scheduler waits, `interaction` = transfers + IPC,
    /// `exec` = bytecode + the function's own syscalls.
    DesBreakdown {
        function: u16,
        stage: u16,
        startup_ns: u32,
        blocked_ns: u32,
        interaction_ns: u32,
        exec_ns: u32,
    },
    /// The SLO burn-rate monitor changed state at event time: `fired` =
    /// entered alert, otherwise cleared. Burn rates are ×100 (centi).
    SloAlert {
        fired: bool,
        short_burn_centi: u32,
        long_burn_centi: u32,
    },
    /// A queued request left its origin cluster for a less-loaded one
    /// (fleet spillover). Emitted by the origin at the epoch barrier;
    /// `hop` is a fleet-unique forwarding id that pairs this event with
    /// the destination's [`TraceEventKind::RemoteAdmit`] (Perfetto draws
    /// the pair as a flow arrow).
    Forward {
        request: u64,
        hop: u32,
        from_cluster: u16,
        to_cluster: u16,
    },
    /// The destination cluster admitted a forwarded request after
    /// `hop_ns` of cross-cluster transfer. `request` is the id the
    /// request takes on in the destination's id space; `hop` pairs it
    /// with the origin's [`TraceEventKind::Forward`].
    RemoteAdmit {
        request: u64,
        hop: u32,
        from_cluster: u16,
        hop_ns: u32,
    },
    /// The online regime-change sensor (Page–Hinkley/CUSUM over latency
    /// residuals) fired at event time: the observed level shifted `up`
    /// (or down) versus the tracked baseline. `stage` is the per-stage
    /// series index, `u16::MAX` for the end-to-end series; latencies are
    /// saturating microseconds.
    RegimeChange {
        up: bool,
        stage: u16,
        baseline_us: u32,
        observed_us: u32,
        samples: u32,
    },
}

/// One traced event. Events with equal stamps keep their emit order (the
/// normalising sort is stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub time_ns: u64,
    pub kind: TraceEventKind,
}

// The whole point of the compact payloads: a traced fleet run writes
// hundreds of thousands of events, and their cost is the bytes written.
// Growing an event past 32 bytes is a hot-path regression, caught at
// compile time.
const _: () = assert!(std::mem::size_of::<TraceEvent>() <= 32);

/// A finished capture, normalised to time order (stable, so simultaneous
/// events keep their emit/concatenation order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    pub events: Vec<TraceEvent>,
}

impl Trace {
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Merges traces captured on separate cells/threads into one global
    /// timeline. The caller must pass them in a deterministic order
    /// (e.g. cell index); the stable sort keeps that order for
    /// simultaneous events, so the merged trace has the same normal form
    /// regardless of worker count.
    pub fn concat(parts: Vec<Trace>) -> Trace {
        let events: Vec<TraceEvent> = parts.into_iter().flat_map(|t| t.events).collect();
        let mut trace = Trace { events };
        trace.normalize();
        trace
    }

    /// Stitches per-cluster captures in caller order *without* re-sorting
    /// across parts. This is the fleet's normal form: each part is
    /// internally time-ordered and deterministic per cluster, so the
    /// merged bytes are still identical for every execution policy, and
    /// the stitch is a flat copy instead of an O(n log n) interleaving
    /// merge on the timed serving path. Per-request analyses (attribution,
    /// the incident snapshot's look-behind window) read each cluster's
    /// stream contiguously; anything needing one global timeline can
    /// [`Trace::concat`] instead.
    pub fn chain(parts: Vec<Trace>) -> Trace {
        let total: usize = parts.iter().map(Trace::len).sum();
        let mut parts = parts.into_iter();
        let Some(mut merged) = parts.next() else {
            return Trace::default();
        };
        merged.events.reserve(total - merged.events.len());
        for part in parts {
            merged.events.extend_from_slice(&part.events);
            // Hand each consumed part's allocation back to the spare
            // pool: the next traced run's clusters bank into these warm
            // buffers instead of faulting in fresh pages.
            recycle(part);
        }
        merged
    }

    fn normalize(&mut self) {
        // Simulators emit in event order, so captures are usually already
        // sorted — skip the O(n log n) pass when a linear scan proves it.
        if !self.events.is_sorted_by_key(|e| e.time_ns) {
            self.events.sort_by_key(|e| e.time_ns); // stable
        }
    }

    /// Deterministic line-per-event text form — the byte string the
    /// worker-count-invariance gates compare. Interned ids are resolved
    /// to their strings, so the bytes never depend on interning order.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 48);
        for e in &self.events {
            match e.kind {
                TraceEventKind::RunContext { workflow, plan } => {
                    let _ = writeln!(
                        out,
                        "{:>15} RunContext {{ workflow: {:?}, plan: {:016x} }}",
                        e.time_ns,
                        resolve(workflow),
                        plan,
                    );
                }
                // The span's dispatch instant is the event's stamp; it is
                // rendered as the field it once was, so trace bytes (and
                // digests) stay comparable across versions.
                TraceEventKind::DesSpan {
                    function,
                    sandbox,
                    stage,
                    spans,
                    exec_rel_ns,
                    complete_rel_ns,
                } => {
                    let _ = writeln!(
                        out,
                        "{:>15} DesSpan {{ function: {function}, sandbox: {sandbox}, \
                         stage: {stage}, spans: {spans}, dispatched_ns: {}, \
                         exec_rel_ns: {exec_rel_ns}, complete_rel_ns: {complete_rel_ns} }}",
                        e.time_ns, e.time_ns,
                    );
                }
                kind => {
                    let _ = writeln!(out, "{:>15} {:?}", e.time_ns, kind);
                }
            }
        }
        out
    }

    /// FNV-1a over [`Trace::render`] bytes.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.render().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

/// Opens a capture buffer on this thread. No-op while tracing is
/// disabled (so a disabled run provably allocates nothing). A second
/// call discards the first buffer.
pub fn begin_capture() {
    begin_capture_sized(0);
}

/// [`begin_capture`] with a pre-sized buffer, for callers that know the
/// event volume (a serving run emits ~8 events per request) — the
/// capture then never pays a growth memcpy.
pub fn begin_capture_sized(capacity: usize) {
    if !tracing_enabled() {
        return;
    }
    CAPTURE_BUFFERS.fetch_add(1, Ordering::Relaxed);
    // Smallest spare buffer that already fits, so a small capture never
    // consumes an allocation a fleet cluster's banked event stream
    // wants.
    let mut buf = SPARE
        .with(|s| {
            let mut pool = s.borrow_mut();
            let fit = pool
                .iter()
                .enumerate()
                .filter(|(_, b)| b.capacity() >= capacity)
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i);
            fit.map(|i| pool.swap_remove(i))
        })
        .unwrap_or_default();
    if buf.capacity() < capacity {
        buf.reserve_exact(capacity);
    }
    CAPTURE.with(|c| *c.borrow_mut() = Some(buf));
}

/// Pops the *largest* recycled event buffer from this thread's spare
/// pool (empty, warm pages) or allocates a fresh empty one. Traced fleet
/// runs pull one per cluster, in descending cluster-load order no caller
/// has to compute: the hottest cluster asks first and gets the biggest
/// warm allocation, so banked buffers reuse the previous run's pages
/// instead of faulting in fresh ones.
pub fn take_buffer() -> Vec<TraceEvent> {
    SPARE
        .with(|s| {
            let mut pool = s.borrow_mut();
            let max = pool
                .iter()
                .enumerate()
                .max_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i);
            max.map(|i| pool.swap_remove(i))
        })
        .unwrap_or_default()
}

/// Returns a finished trace's event buffer to this thread's spare pool,
/// so the next [`begin_capture`] or [`take_buffer`] reuses the warm
/// allocation instead of faulting in fresh pages. Purely an
/// allocation-reuse hint for callers that capture in a loop — dropping
/// the trace instead is always correct.
pub fn recycle(trace: Trace) {
    let mut events = trace.events;
    if events.capacity() == 0 {
        return;
    }
    events.clear();
    SPARE.with(|s| {
        let mut pool = s.borrow_mut();
        if pool.len() < SPARE_POOL_CAP {
            pool.push(events);
        }
    });
}

/// Takes this thread's open capture buffer, leaving the thread without
/// one, so a single-threaded producer (a standalone serving run) can push
/// its events straight into the caller's buffer rather than through a
/// thread-local lookup per event. `None` when no capture is open. The
/// producer must hand the buffer back with [`restore_capture`] on every
/// exit path, or the caller's capture ends empty.
pub fn take_capture() -> Option<Vec<TraceEvent>> {
    CAPTURE.with(|c| c.borrow_mut().take())
}

/// Reopens this thread's capture with `events` — a buffer from
/// [`take_capture`] with the producer's events appended — replacing
/// whatever capture is open. Never panics, so a `Drop` can call it: on a
/// thread already tearing down its locals the buffer is dropped.
pub fn restore_capture(events: Vec<TraceEvent>) {
    let _ = CAPTURE.try_with(|c| *c.borrow_mut() = Some(events));
}

/// Closes this thread's capture buffer and returns the normalised
/// trace. Empty if no capture was open (e.g. tracing was disabled).
pub fn end_capture() -> Trace {
    let events = CAPTURE.with(|c| c.borrow_mut().take()).unwrap_or_default();
    EVENTS_RECORDED.fetch_add(events.len() as u64, Ordering::Relaxed);
    let mut trace = Trace { events };
    trace.normalize();
    trace
}

/// Records one event at simulation time `time_ns`. No-op unless tracing
/// is enabled *and* this thread has an open capture buffer — threads
/// without one (e.g. PGP search workers during a serve figure) emit into
/// the void at the cost of the enabled check.
#[inline]
pub fn emit(time_ns: u64, kind: TraceEventKind) {
    if !tracing_enabled() {
        return;
    }
    CAPTURE.with(|c| {
        if let Some(buf) = c.borrow_mut().as_mut() {
            buf.push(TraceEvent { time_ns, kind });
        }
    });
}

/// Sink-side counters proving the zero-cost-when-disabled contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Events banked by [`end_capture`].
    pub events: u64,
    /// Capture buffers opened by [`begin_capture`].
    pub capture_buffers: u64,
}

pub fn trace_stats() -> TraceStats {
    TraceStats {
        events: EVENTS_RECORDED.load(Ordering::Relaxed),
        capture_buffers: CAPTURE_BUFFERS.load(Ordering::Relaxed),
    }
}

pub fn reset_trace_stats() {
    EVENTS_RECORDED.store(0, Ordering::Relaxed);
    CAPTURE_BUFFERS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracing switch is process-global, so every test that flips it
    /// runs under this lock.
    static GATE: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    #[test]
    fn disabled_emit_is_a_no_op() {
        let _g = GATE.lock();
        set_tracing(false);
        reset_trace_stats();
        begin_capture(); // no-op: disabled
        emit(5, TraceEventKind::ReplicaReady { replica: 1 });
        let trace = end_capture();
        assert!(trace.is_empty());
        assert_eq!(trace_stats(), TraceStats::default());
    }

    #[test]
    fn capture_orders_by_time_stably() {
        let _g = GATE.lock();
        set_tracing(true);
        begin_capture_sized(4);
        emit(20, TraceEventKind::ReplicaReady { replica: 0 });
        emit(10, TraceEventKind::NodeKill { node: 3 });
        emit(10, TraceEventKind::NodeDeath { node: 3 });
        let trace = end_capture();
        set_tracing(false);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.events[0].kind, TraceEventKind::NodeKill { node: 3 });
        assert_eq!(trace.events[1].kind, TraceEventKind::NodeDeath { node: 3 });
        assert_eq!(
            trace.events[2].kind,
            TraceEventKind::ReplicaReady { replica: 0 }
        );
        assert!(trace.render().lines().count() == 3);
        assert_ne!(trace.digest(), Trace::default().digest());
    }

    #[test]
    fn recycled_buffers_are_reused_without_leaking_events() {
        let _g = GATE.lock();
        set_tracing(true);
        begin_capture_sized(1024);
        emit(1, TraceEventKind::ReplicaReady { replica: 1 });
        emit(2, TraceEventKind::ReplicaRetired { replica: 1 });
        let first = end_capture();
        assert_eq!(first.len(), 2);
        recycle(first);
        // The next capture rides the recycled allocation; old events must
        // be gone and the capture behaves exactly like a fresh buffer.
        begin_capture();
        emit(3, TraceEventKind::NodeKill { node: 0 });
        let second = end_capture();
        set_tracing(false);
        assert_eq!(second.len(), 1);
        assert_eq!(second.events[0].kind, TraceEventKind::NodeKill { node: 0 });
        assert!(second.events.capacity() >= 1024, "spare buffer not reused");
    }

    #[test]
    fn emit_without_capture_goes_nowhere() {
        let _g = GATE.lock();
        set_tracing(true);
        emit(1, TraceEventKind::ReplicaReady { replica: 9 });
        begin_capture();
        let trace = end_capture();
        set_tracing(false);
        assert!(trace.is_empty());
    }

    #[test]
    fn concat_renormalises_parts() {
        let a = Trace {
            events: vec![
                TraceEvent {
                    time_ns: 50,
                    kind: TraceEventKind::ReplicaReady { replica: 0 },
                },
                TraceEvent {
                    time_ns: 50,
                    kind: TraceEventKind::ReplicaRetired { replica: 0 },
                },
            ],
        };
        let b = Trace {
            events: vec![
                TraceEvent {
                    time_ns: 10,
                    kind: TraceEventKind::ReplicaReady { replica: 1 },
                },
                TraceEvent {
                    time_ns: 50,
                    kind: TraceEventKind::ReplicaReady { replica: 2 },
                },
            ],
        };
        let merged = Trace::concat(vec![a, b]);
        assert_eq!(merged.events[0].time_ns, 10);
        // Simultaneous events keep concatenation (part) order: part a's
        // two t=50 events precede part b's.
        assert_eq!(
            merged.events[1].kind,
            TraceEventKind::ReplicaReady { replica: 0 }
        );
        assert_eq!(
            merged.events[2].kind,
            TraceEventKind::ReplicaRetired { replica: 0 }
        );
        assert_eq!(
            merged.events[3].kind,
            TraceEventKind::ReplicaReady { replica: 2 }
        );
    }

    #[test]
    fn render_resolves_interned_run_context() {
        let id = crate::intern::intern("obs-render-test-wf");
        let trace = Trace {
            events: vec![TraceEvent {
                time_ns: 0,
                kind: TraceEventKind::RunContext {
                    workflow: id,
                    plan: 0xabcd,
                },
            }],
        };
        let render = trace.render();
        assert!(render.contains("\"obs-render-test-wf\""), "{render}");
        assert!(render.contains("000000000000abcd"), "{render}");
        assert!(!render.contains(&format!("workflow: {id},")), "{render}");
    }
}

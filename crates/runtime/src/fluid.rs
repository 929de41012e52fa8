//! The sandbox execution engine: a deterministic event-driven simulation of
//! threads executing CPU and blocking segments inside one sandbox.
//!
//! Three mechanisms interact here, and each maps to a first-class rule:
//!
//! 1. **The GIL** (`RuntimeKind::PseudoParallel`): at most one thread per
//!    process executes CPU work at a time. The holder is asked to drop the
//!    GIL after the switch interval when other threads are waiting, and the
//!    next holder is the runnable thread with the least accumulated CPU
//!    time (the CFS-style rule Algorithm 1 uses). Blocking segments release
//!    the GIL immediately (Fig. 2).
//! 2. **CPU capacity** (cgroups): if more threads hold a CPU-executing slot
//!    than the sandbox's CPU allocation, they progress at the fluid rate
//!    `cpus / runnable` — the generalised-processor-sharing approximation
//!    of the kernel scheduler.
//! 3. **True parallelism** (`RuntimeKind::TrueParallel`, Java / process
//!    pool): every runnable thread executes concurrently, subject only to
//!    rule 2.
//!
//! The engine is exact for piecewise-constant rates: it advances from event
//! to event (thread starts, segment completions, GIL switch expiries) and
//! never time-steps. It has two regimes.
//!
//! **A CPU per process: each process replayed alone.** Under the GIL a
//! process runs at most one thread at a time, and separate processes run
//! in parallel; so when every process that hosts a thread can hold a CPU of
//! its own (processes ≤ CPUs under the GIL, threads ≤ CPUs under true
//! parallelism, where each thread is its own domain), the running set
//! never exceeds the CPUs and the fluid rate is exactly 1.0. No process
//! can then affect another: a process's grants, preemptions and quantum
//! ends depend only on its own threads. The engine replays such a sandbox
//! one process at a time, in integer nanoseconds: the process's own
//! arrival order, a ready set that yields the CFS `(cpu_used, index)`
//! minimum, one GIL holder with its quantum end, and its own I/O wakes. A
//! process with one thread never meets a waiter, so that thread runs its
//! segments back to back from its start: a nonzero CPU segment is one
//! `Exec` span, a nonzero block one `Io` span, and a zero-length segment is
//! skipped (a zero-length block still marks the thread's first progress).
//! The result is bit-identical to the shared loop, not approximate:
//! durations are integer nanoseconds below 2⁵³, so at rate 1.0 every
//! remaining-work and CPU-time float the loop would compute is an exact
//! integer, each CPU burst ends exactly its remaining work after its grant,
//! and within one instant the loop's steps touch each process's state
//! alone, in the order the replay applies them. The event count is the
//! number of instants each replayed domain visits (arrivals, I/O wakes,
//! burst ends, and quantum ends while a sibling waits), summed over the
//! domains; one domain's instants strictly increase, so a plain counter
//! counts them. Every Faastlane and OpenFaaS wrap of the suite takes this
//! regime, and so does nearly every Chiron wrap.
//!
//! **Contended sandboxes: one shared event loop.** When processes
//! outnumber CPUs (threads, without the GIL), the fluid rate can drop
//! below 1.0 and the processes interact through it, so every thread of the
//! sandbox advances in one loop.

// Index loops are deliberate here: the engine mutates `threads[i]` while
// consulting `holder`/`quantum_end`, which iterator forms cannot express.
#![allow(clippy::needless_range_loop)]

use crate::scratch::SimStats;
use crate::span::{Span, SpanKind};
use chiron_model::{RuntimeKind, Segment, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// One thread to execute: absolute start time plus its segment list
/// (already stretched by isolation overheads and jittered by the caller).
#[derive(Debug, Clone)]
pub struct ThreadTask {
    /// Process the thread belongs to (GIL domain).
    pub process: usize,
    /// When the thread exists and begins its first segment.
    pub start: SimTime,
    pub segments: Vec<Segment>,
}

/// Why [`execute_sandbox`] or [`execute_sandbox_reference`] refused its
/// input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SandboxError {
    /// The sandbox has no CPU, so no CPU work could ever finish.
    ZeroCpus,
    /// A zero GIL switch interval under `RuntimeKind::PseudoParallel`:
    /// the GIL holder's quantum would never expire.
    ZeroGilInterval,
}

impl std::fmt::Display for SandboxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SandboxError::ZeroCpus => write!(f, "sandbox needs at least one CPU"),
            SandboxError::ZeroGilInterval => {
                write!(f, "GIL switch interval must be positive under the GIL")
            }
        }
    }
}

impl std::error::Error for SandboxError {}

/// Checks the sandbox parameters both engines require.
fn check_sandbox(
    cpus: u32,
    runtime: RuntimeKind,
    gil_interval: SimDuration,
) -> Result<(), SandboxError> {
    if cpus == 0 {
        Err(SandboxError::ZeroCpus)
    } else if runtime == RuntimeKind::PseudoParallel && gil_interval.is_zero() {
        Err(SandboxError::ZeroGilInterval)
    } else {
        Ok(())
    }
}

/// Result of executing one thread.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadResult {
    /// First instant the thread made progress (CPU granted or I/O issued).
    pub exec_start: SimTime,
    /// Instant the last segment finished.
    pub end: SimTime,
    /// Exec / Io / GilWait spans, ordered and non-overlapping.
    pub spans: Vec<Span>,
    /// Total CPU time consumed.
    pub cpu_time: SimDuration,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    NotStarted,
    /// Wants a CPU (and the GIL) but does not have it.
    Ready,
    /// Holds the GIL (pseudo) or a run slot (true) and burns CPU.
    Running,
    Io {
        until: SimTime,
    },
    Done,
}

/// One thread of a simulation as the engine consumes it: its GIL domain,
/// its arrival time and its segments as a range into one flat slice
/// shared by every lane of the call.
#[derive(Debug, Clone)]
pub(crate) struct Lane {
    pub(crate) process: usize,
    pub(crate) start: SimTime,
    pub(crate) segments: Range<usize>,
}

#[derive(Debug)]
struct ThreadState {
    process: usize,
    /// Index of the current segment in the flat segment slice.
    seg: usize,
    seg_end: usize,
    /// Remaining nanoseconds of work in the current segment. While the
    /// thread is running, the live value is in `FluidScratch::run_rem`.
    remaining: f64,
    phase: Phase,
    /// CPU time consumed; live in `FluidScratch::run_cpu` while running.
    cpu_used: f64,
    exec_start: Option<SimTime>,
    end: SimTime,
    /// The span being recorded; it lands in the lane's span vector.
    open: Option<(SpanKind, SimTime)>,
}

/// The engine's per-call state, kept between calls so a hot loop of
/// simulations reuses every buffer. At the end of a call every queue is
/// empty again, so the next call resets only the slots its own processes
/// and threads use. All scheduling structures are incremental
/// replacements for what used to be full per-event scans:
///
/// * `ready` — one min-heap per process ordered by `(cpu_used, index)`.
///   A `Ready` thread's `cpu_used` is frozen (it only accumulates while
///   `Running`, and the only exit from `Ready` is being granted, which
///   pops its entry), so entries can never go stale and the heap's
///   minimum is exactly the CFS `min_by(cpu_used).then(index)` victim —
///   no re-sorting. IEEE-754 bits of a non-negative f64 order like the
///   float itself, so the key is the bit pattern.
/// * `arrivals` — every thread's `(start, index)`, sorted once per call
///   and consumed in order; `wake` — min-heap of I/O completions, each
///   fixed once pushed. Step 1 merges the two in `(time, index)` order.
/// * `running` + `run_pos` — the running set as a swap-remove list, so
///   the fluid rate is `cpus / running.len()` with no O(threads) count.
///   `run_rem`/`run_cpu` mirror it with the running threads' remaining
///   work and CPU time, so steps 5–7 sweep two dense float arrays.
/// * `waiting` — the processes whose ready heap is non-empty, ascending.
///   The preemption, grant and quantum-expiry steps visit only these, in
///   the order a `0..n_procs` scan would, so a plan of 200 single-thread
///   processes with a few waiters pays for the waiters, not for 200
///   processes. A process joins when its heap goes from empty to
///   non-empty and leaves after the grant step empties it.
/// * `ready_fifo` — run-slot requests when no process hosts two threads
///   (or under true parallelism): every request is granted at once.
///
/// The per-process replay reuses `threads` and `wake`, and keeps
/// `arrivals` grouped by process (`proc_end[p]` is where process `p`'s
/// run ends). Its ready set, `proc_ready`, is the replayed process's
/// `(cpu_used bits, index)` pairs, unordered: a grant takes the least by a
/// scan, which for the few threads a process hosts costs less than a heap.
#[derive(Debug, Default)]
pub(crate) struct FluidScratch {
    threads: Vec<ThreadState>,
    holder: Vec<Option<usize>>,
    quantum_end: Vec<SimTime>,
    ready: Vec<BinaryHeap<Reverse<(u64, usize)>>>,
    ready_fifo: Vec<usize>,
    waiting: Vec<usize>,
    arrivals: Vec<(SimTime, usize)>,
    proc_end: Vec<usize>,
    proc_ready: Vec<(u64, usize)>,
    wake: BinaryHeap<Reverse<(SimTime, usize)>>,
    running: Vec<usize>,
    run_rem: Vec<f64>,
    run_cpu: Vec<f64>,
    run_pos: Vec<usize>,
    ends: Vec<LaneEnd>,
    /// Counter increments not yet added to the global counters.
    pub(crate) stats: SimStats,
}

const NOT_RUNNING: usize = usize::MAX;

impl ThreadState {
    fn open_span(&mut self, kind: SpanKind, now: SimTime) {
        debug_assert!(self.open.is_none(), "span already open");
        self.open = Some((kind, now));
    }

    fn close_span(&mut self, spans: &mut Vec<Span>, now: SimTime) {
        if let Some((kind, start)) = self.open.take() {
            if now > start {
                spans.push(Span {
                    kind,
                    start,
                    end: now,
                });
            }
        }
    }
}

/// Executes `tasks` inside one sandbox with `cpus` CPUs.
///
/// `gil_interval` is the CPython switch interval; it is ignored under
/// `RuntimeKind::TrueParallel`. Zero CPUs, or a zero interval under
/// `RuntimeKind::PseudoParallel`, is a [`SandboxError`].
pub fn execute_sandbox(
    tasks: &[ThreadTask],
    cpus: u32,
    runtime: RuntimeKind,
    gil_interval: SimDuration,
) -> Result<Vec<ThreadResult>, SandboxError> {
    check_sandbox(cpus, runtime, gil_interval)?;
    let mut segments = Vec::new();
    let lanes: Vec<Lane> = tasks
        .iter()
        .map(|t| {
            let from = segments.len();
            segments.extend_from_slice(&t.segments);
            Lane {
                process: t.process,
                start: t.start,
                segments: from..segments.len(),
            }
        })
        .collect();
    let n_procs = tasks.iter().map(|t| t.process + 1).max().unwrap_or(0);
    let mut fluid = FluidScratch::default();
    let sandbox = Sandbox {
        cpus,
        runtime,
        gil_interval,
    };
    let mut spans = vec![Vec::new(); lanes.len()];
    let ends = simulate(&lanes, &segments, n_procs, sandbox, &mut fluid, &mut spans);
    let results = ends
        .iter()
        .zip(spans)
        .map(|(e, spans)| ThreadResult {
            exec_start: e.exec_start,
            end: e.end,
            spans,
            cpu_time: SimDuration::from_nanos(e.cpu_used.round() as u64),
        })
        .collect();
    fluid.stats.flush();
    Ok(results)
}

/// How one lane's simulation ended.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaneEnd {
    /// First instant the thread made progress (CPU granted or I/O issued).
    pub(crate) exec_start: SimTime,
    /// Instant the last segment finished.
    pub(crate) end: SimTime,
    /// CPU time consumed, in nanoseconds.
    pub(crate) cpu_used: f64,
}

/// The sandbox a simulation runs in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sandbox {
    pub(crate) cpus: u32,
    pub(crate) runtime: RuntimeKind,
    /// Ignored under `RuntimeKind::TrueParallel`.
    pub(crate) gil_interval: SimDuration,
}

/// The engine behind [`execute_sandbox`] and the platform: simulates
/// `lanes` (processes `0..n_procs`, segments in `segments`) inside one
/// sandbox, appending each lane's Exec / Io / GilWait spans to `spans[i]`.
/// The caller guarantees `cpus > 0` and, under
/// `RuntimeKind::PseudoParallel`, a positive GIL interval. The returned
/// slice (one end per lane) lives until the next call on the same
/// scratch; the event and buffer counts wait in `scratch.stats` until the
/// caller flushes them.
pub(crate) fn simulate<'a>(
    lanes: &[Lane],
    segments: &[Segment],
    n_procs: usize,
    sandbox: Sandbox,
    scratch: &'a mut FluidScratch,
    spans: &mut [Vec<Span>],
) -> &'a [LaneEnd] {
    let Sandbox {
        cpus,
        runtime,
        gil_interval,
    } = sandbox;
    debug_assert!(cpus > 0 && (runtime == RuntimeKind::TrueParallel || !gil_interval.is_zero()));
    debug_assert_eq!(spans.len(), lanes.len());
    let FluidScratch {
        threads,
        proc_end,
        ends,
        stats,
        ..
    } = scratch;

    // Per-thread state lives in slots kept from earlier calls; a call
    // with more threads than any before grows them.
    let n = lanes.len();
    let reused = threads.capacity().min(n);
    stats.buffer_reuses += reused as u64;
    stats.buffer_allocs += (n - reused) as u64;
    ends.clear();
    threads.clear();
    // Pushed one by one, not extended: the slots' growth, and so the
    // reuse counts, follow the push loop's doubling.
    for lane in lanes {
        threads.push(ThreadState {
            process: lane.process,
            seg: lane.segments.start,
            seg_end: lane.segments.end,
            remaining: 0.0,
            phase: Phase::NotStarted,
            cpu_used: 0.0,
            exec_start: None,
            end: lane.start,
            open: None,
        });
    }

    // Count the processes that host a lane under the GIL; without it each
    // thread is its own domain. `gil` is set when some process hosts two
    // or more threads: a thread alone in its process never meets a GIL
    // waiter, so it runs exactly as under true parallelism.
    let mut gil = false;
    let domains = if runtime == RuntimeKind::PseudoParallel && n > 1 {
        proc_end.clear();
        proc_end.resize(n_procs, 0);
        let mut domains = 0;
        for lane in lanes {
            let count = &mut proc_end[lane.process];
            domains += usize::from(*count == 0);
            gil |= *count > 0;
            *count += 1;
        }
        domains
    } else {
        n
    };
    if domains <= cpus as usize {
        replay_each_domain(lanes, segments, gil_interval, gil, scratch, spans);
    } else {
        shared_loop(lanes, segments, n_procs, sandbox, gil, scratch, spans);
    }
    &scratch.ends
}

/// The first regime (see the module doc): every domain can hold a CPU of
/// its own, so each is replayed alone. With `gil`, `scratch.proc_end`
/// holds each process's lane count.
fn replay_each_domain(
    lanes: &[Lane],
    segments: &[Segment],
    gil_interval: SimDuration,
    gil: bool,
    scratch: &mut FluidScratch,
    spans: &mut [Vec<Span>],
) {
    let FluidScratch {
        threads,
        arrivals,
        proc_end,
        proc_ready,
        wake,
        ends,
        stats,
        ..
    } = scratch;
    let n = lanes.len();
    let mut events = 0;
    if gil {
        // Group the lanes by process with a counting sort: after it,
        // `proc_end[p]` is where process `p`'s run of `arrivals` ends.
        let mut at = 0;
        for slot in proc_end.iter_mut() {
            (*slot, at) = (at, at + *slot);
        }
        arrivals.clear();
        arrivals.resize(n, (SimTime::ZERO, 0));
        for (i, lane) in lanes.iter().enumerate() {
            let slot = &mut proc_end[lane.process];
            arrivals[*slot] = (lane.start, i);
            *slot += 1;
        }
        ends.resize(n, LaneEnd::default());
        // Empty after any completed call, like the loop's queues.
        proc_ready.clear();
        wake.clear();
        let mut from = 0;
        for &to in proc_end.iter() {
            let run = &mut arrivals[from..to];
            from = to;
            match run {
                [] => {}
                &mut [(_, i)] => {
                    ends[i] = run_alone(&lanes[i], segments, &mut spans[i], &mut events);
                }
                _ => {
                    run.sort_unstable();
                    events += replay_process(
                        run,
                        segments,
                        gil_interval,
                        threads,
                        proc_ready,
                        wake,
                        spans,
                        ends,
                    );
                }
            }
        }
    } else {
        ends.extend(
            lanes
                .iter()
                .zip(spans.iter_mut())
                .map(|(lane, spans)| run_alone(lane, segments, spans, &mut events)),
        );
    }
    stats.events += events;
}

/// The second regime (see the module doc): processes outnumber CPUs, so
/// every thread of the sandbox advances in one event loop.
fn shared_loop(
    lanes: &[Lane],
    segments: &[Segment],
    n_procs: usize,
    sandbox: Sandbox,
    gil: bool,
    scratch: &mut FluidScratch,
    spans: &mut [Vec<Span>],
) {
    let Sandbox {
        cpus, gil_interval, ..
    } = sandbox;
    let FluidScratch {
        threads,
        holder,
        quantum_end,
        ready,
        ready_fifo,
        waiting,
        arrivals,
        wake,
        running,
        run_rem,
        run_cpu,
        run_pos,
        ends,
        stats,
        ..
    } = scratch;
    arrivals.clear();
    arrivals.extend(lanes.iter().enumerate().map(|(i, lane)| (lane.start, i)));
    arrivals.sort_unstable();
    let Some(&(mut now, _)) = arrivals.first() else {
        return;
    };

    // A completed call leaves every queue empty, so these clears cost
    // nothing; they matter only after a call that unwound. Per-process
    // state is reset for this call's processes alone.
    waiting.clear();
    wake.clear();
    running.clear();
    run_rem.clear();
    run_cpu.clear();
    if gil {
        holder.clear();
        holder.resize(n_procs, None);
        quantum_end.clear();
        quantum_end.resize(n_procs, SimTime::FAR_FUTURE);
        if ready.len() < n_procs {
            ready.resize_with(n_procs, BinaryHeap::new);
        }
        for heap in &mut ready[..n_procs] {
            heap.clear();
        }
    }
    ready_fifo.clear();
    run_pos.clear();
    run_pos.resize(lanes.len(), NOT_RUNNING);
    let mut next_arrival = 0;
    let mut events: u64 = 0;

    loop {
        events += 1;
        // -- 1. Activate arrivals and I/O completions at `now`. -----------
        // Both sources are fixed once known (thread starts, an Io `until`),
        // so each entry matches exactly one pending arrival or I/O episode
        // of its thread; they are taken in `(time, index)` order.
        loop {
            let arrival = arrivals
                .get(next_arrival)
                .copied()
                .filter(|&(due, _)| due <= now);
            let io = wake
                .peek()
                .map(|&Reverse(e)| e)
                .filter(|&(due, _)| due <= now);
            let i = match (arrival, io) {
                (None, None) => break,
                (Some(a), Some(w)) if w < a => {
                    wake.pop();
                    w.1
                }
                (Some(a), _) => {
                    next_arrival += 1;
                    a.1
                }
                (None, Some(w)) => {
                    wake.pop();
                    w.1
                }
            };
            match threads[i].phase {
                Phase::NotStarted => {}
                Phase::Io { until } => {
                    debug_assert!(until <= now);
                    threads[i].close_span(&mut spans[i], now);
                    threads[i].seg += 1;
                }
                _ => unreachable!("stale wake entry"),
            }
            enter_segment(
                &mut threads[i],
                i,
                segments,
                now,
                gil,
                ready,
                ready_fifo,
                waiting,
                wake,
            );
        }

        // -- 2. Preempt expired GIL quanta (pseudo-parallel only). --------
        // Only processes with a waiter can be preempted, granted or timed
        // out; with none waiting (e.g. every process single-threaded, or
        // true parallelism) steps 2, 3 and 5 visit nothing.
        for &p in waiting.iter() {
            if let Some(h) = holder[p] {
                if quantum_end[p] <= now {
                    // The holder is asked to drop the GIL (Fig. 2) and
                    // re-queues behind the CFS rule.
                    let t = &mut threads[h];
                    (t.remaining, t.cpu_used) =
                        remove_running(running, run_rem, run_cpu, run_pos, h);
                    t.close_span(&mut spans[h], now);
                    t.phase = Phase::Ready;
                    t.open_span(SpanKind::GilWait, now);
                    ready[p].push(Reverse((t.cpu_used.to_bits(), h)));
                    holder[p] = None;
                }
            }
        }

        // -- 3. Grant the GIL / run slots. ---------------------------------
        if gil {
            for &p in waiting.iter() {
                if holder[p].is_none() {
                    // CFS rule: the heap minimum is the ready thread
                    // with the least CPU time (ties to lowest index).
                    if let Some(Reverse((_, i))) = ready[p].pop() {
                        let t = &mut threads[i];
                        t.close_span(&mut spans[i], now);
                        t.phase = Phase::Running;
                        t.exec_start.get_or_insert(now);
                        t.open_span(SpanKind::Exec, now);
                        holder[p] = Some(i);
                        quantum_end[p] = now + gil_interval;
                        run_pos[i] = running.len();
                        running.push(i);
                        run_rem.push(t.remaining);
                        run_cpu.push(t.cpu_used);
                    }
                }
            }
            waiting.retain(|&p| !ready[p].is_empty());
        } else {
            for &i in ready_fifo.iter() {
                let t = &mut threads[i];
                t.close_span(&mut spans[i], now);
                t.phase = Phase::Running;
                t.exec_start.get_or_insert(now);
                t.open_span(SpanKind::Exec, now);
                run_pos[i] = running.len();
                running.push(i);
                run_rem.push(t.remaining);
                run_cpu.push(t.cpu_used);
            }
            ready_fifo.clear();
        }

        // -- 4. Fluid rate for the running set. ----------------------------
        // `cpus / n` is at least 1.0 whenever `n <= cpus`, so the capped
        // rate is exactly 1.0 there.
        let rate = if running.is_empty() {
            0.0
        } else if running.len() <= cpus as usize {
            1.0
        } else {
            f64::from(cpus) / running.len() as f64
        };

        // -- 5. Find the next event. ---------------------------------------
        let mut next = SimTime::FAR_FUTURE;
        if let Some(&(due, _)) = arrivals.get(next_arrival) {
            next = next.min(due);
        }
        if let Some(&Reverse((due, _))) = wake.peek() {
            next = next.min(due);
        }
        // `ceil(remaining / rate)` is monotone in `remaining`, so the
        // earliest completion is the least-remaining thread's.
        if let Some(least) = run_rem.iter().copied().reduce(f64::min) {
            // Dividing by a rate of exactly 1.0 is the identity.
            let ns = ceil_ns(if rate == 1.0 { least } else { least / rate });
            next = next.min(now + SimDuration::from_nanos(ns));
        }
        for &p in waiting.iter() {
            if holder[p].is_some() {
                next = next.min(quantum_end[p]);
            }
        }
        if next == SimTime::FAR_FUTURE {
            break; // every thread is Done
        }
        debug_assert!(next >= now, "time must advance monotonically");

        // -- 6. Advance running threads by `dt`. ----------------------------
        let dt = next.since(now).as_nanos() as f64;
        if dt > 0.0 && rate > 0.0 {
            let step = dt * rate;
            for (rem, cpu) in run_rem.iter_mut().zip(run_cpu.iter_mut()) {
                let progress = step.min(*rem);
                *rem -= progress;
                *cpu += progress;
            }
        }
        now = next;

        // -- 7. Complete finished CPU segments. -----------------------------
        let mut k = 0;
        while k < running.len() {
            if run_rem[k] > 0.5 {
                k += 1;
                continue;
            }
            let i = running[k];
            let t = &mut threads[i];
            (t.remaining, t.cpu_used) = remove_running(running, run_rem, run_cpu, run_pos, i);
            t.close_span(&mut spans[i], now);
            let p = t.process;
            if gil && holder[p] == Some(i) {
                holder[p] = None;
            }
            t.seg += 1;
            // A CPU segment followed directly by another CPU segment
            // keeps the GIL: re-grant immediately in the next loop
            // iteration (the thread is Ready with min cpu time unless a
            // starved sibling takes over — which is exactly CFS).
            enter_segment(t, i, segments, now, gil, ready, ready_fifo, waiting, wake);
        }
    }

    stats.events += events;
    ends.extend(threads.iter().map(|t| {
        debug_assert_eq!(t.phase, Phase::Done);
        LaneEnd {
            exec_start: t.exec_start.unwrap_or(t.end),
            end: t.end,
            cpu_used: t.cpu_used,
        }
    }));
}

/// Runs a thread that never meets a waiter (see the module doc): its
/// segments back to back from its start, adding its visited instants (its
/// start and each nonzero segment's end) to `events`.
/// Inlined into its callers (here and the compiled replay's alone wraps):
/// as a call it cost one-thread-per-process sandboxes ~9% (2-vCPU host).
#[inline(always)]
pub(crate) fn run_alone(
    lane: &Lane,
    segments: &[Segment],
    spans: &mut Vec<Span>,
    events: &mut u64,
) -> LaneEnd {
    let mut now = lane.start;
    let mut exec_start = None;
    let mut cpu_used = 0.0;
    *events += 1;
    for &seg in &segments[lane.segments.clone()] {
        let (kind, d) = match seg {
            Segment::Cpu(d) => (SpanKind::Exec, d),
            Segment::Block { dur, .. } => {
                exec_start.get_or_insert(now);
                (SpanKind::Io, dur)
            }
        };
        if d.is_zero() {
            continue;
        }
        exec_start.get_or_insert(now);
        if kind == SpanKind::Exec {
            cpu_used += d.as_nanos() as f64;
        }
        let end = now + d;
        spans.push(Span {
            kind,
            start: now,
            end,
        });
        now = end;
        *events += 1;
    }
    LaneEnd {
        exec_start: exec_start.unwrap_or(now),
        end: now,
        cpu_used,
    }
}

/// Replays one process of two or more threads under the GIL at rate 1.0
/// (see the module doc). `arrivals` holds its threads' `(start, index)` in
/// ascending order; `ready` (unordered `(cpu_used bits, index)` pairs) and
/// `wake` are empty and are left empty. The steps are the shared loop's,
/// restricted to this process: wakes, an expired quantum's preemption, the
/// CFS grant, then the next instant and the holder's burst end. A running
/// thread's progress is the time since its grant, so its remaining work
/// and CPU time change only at a grant, a preemption or a burst end.
/// Returns the number of instants visited.
#[allow(clippy::too_many_arguments)]
fn replay_process(
    arrivals: &[(SimTime, usize)],
    segments: &[Segment],
    gil_interval: SimDuration,
    threads: &mut [ThreadState],
    ready: &mut Vec<(u64, usize)>,
    wake: &mut BinaryHeap<Reverse<(SimTime, usize)>>,
    spans: &mut [Vec<Span>],
    ends: &mut [LaneEnd],
) -> u64 {
    let enter =
        |t: &mut ThreadState, i: usize, now, ready: &mut Vec<_>, wake: &mut BinaryHeap<_>| {
            start_segment(t, segments, now);
            match t.phase {
                Phase::Ready => ready.push((t.cpu_used.to_bits(), i)),
                Phase::Io { until } => wake.push(Reverse((until, i))),
                _ => {}
            }
        };
    let mut now = arrivals[0].0;
    let mut next_arrival = 0;
    // The GIL holder, with its grant, its burst end and its quantum end.
    let mut holder: Option<usize> = None;
    let mut granted = now;
    let mut burst_end = SimTime::FAR_FUTURE;
    let mut quantum_end = SimTime::FAR_FUTURE;
    let mut events = 0;
    loop {
        events += 1;
        while let Some(&(due, i)) = arrivals.get(next_arrival) {
            if due > now {
                break;
            }
            next_arrival += 1;
            enter(&mut threads[i], i, now, ready, wake);
        }
        while let Some(&Reverse((due, i))) = wake.peek() {
            if due > now {
                break;
            }
            wake.pop();
            let t = &mut threads[i];
            t.close_span(&mut spans[i], now);
            t.seg += 1;
            enter(t, i, now, ready, wake);
        }

        // An expired quantum with a sibling waiting: the holder drops the
        // GIL (Fig. 2) and re-queues behind the CFS rule.
        if let Some(h) = holder {
            if quantum_end <= now && !ready.is_empty() {
                let t = &mut threads[h];
                t.remaining = burst_end.since(now).as_nanos() as f64;
                t.cpu_used += now.since(granted).as_nanos() as f64;
                t.close_span(&mut spans[h], now);
                t.phase = Phase::Ready;
                t.open_span(SpanKind::GilWait, now);
                ready.push((t.cpu_used.to_bits(), h));
                holder = None;
            }
        }
        if holder.is_none() && !ready.is_empty() {
            // CFS rule: the ready thread with the least CPU time (ties to
            // lowest index).
            let mut least = 0;
            for k in 1..ready.len() {
                if ready[k] < ready[least] {
                    least = k;
                }
            }
            let (_, i) = ready.swap_remove(least);
            let t = &mut threads[i];
            t.close_span(&mut spans[i], now);
            t.phase = Phase::Running;
            t.exec_start.get_or_insert(now);
            t.open_span(SpanKind::Exec, now);
            holder = Some(i);
            granted = now;
            burst_end = now + SimDuration::from_nanos(t.remaining as u64);
            quantum_end = now + gil_interval;
        }

        let mut next = arrivals
            .get(next_arrival)
            .map_or(SimTime::FAR_FUTURE, |&(due, _)| due);
        if let Some(&Reverse((due, _))) = wake.peek() {
            next = next.min(due);
        }
        if holder.is_some() {
            next = next.min(burst_end);
            if !ready.is_empty() {
                next = next.min(quantum_end);
            }
        }
        if next == SimTime::FAR_FUTURE {
            break; // every thread is Done
        }
        now = next;

        if let Some(h) = holder.filter(|_| burst_end == now) {
            let t = &mut threads[h];
            t.cpu_used += now.since(granted).as_nanos() as f64;
            t.remaining = 0.0;
            t.close_span(&mut spans[h], now);
            t.seg += 1;
            holder = None;
            // A CPU segment followed by another re-queues; the grant
            // step re-grants it unless a starved sibling takes over.
            enter(t, h, now, ready, wake);
        }
    }
    for &(_, i) in arrivals {
        let t = &threads[i];
        debug_assert_eq!(t.phase, Phase::Done);
        ends[i] = LaneEnd {
            exec_start: t.exec_start.unwrap_or(t.end),
            end: t.end,
            cpu_used: t.cpu_used,
        };
    }
    events
}

/// `x.ceil() as u64`, through a truncating integer conversion for the
/// values the engine sees: without SSE4.1 `f64::ceil` is a software
/// routine, and this runs once per event.
fn ceil_ns(x: f64) -> u64 {
    // Every float in [0, 2^63) truncates exactly to an i64.
    if (0.0..(1u64 << 63) as f64).contains(&x) {
        let t = x as i64;
        t as u64 + u64::from((t as f64) < x)
    } else {
        x.ceil() as u64
    }
}

/// Unlinks thread `i` from the running list in O(1) and returns its
/// remaining work and CPU time.
fn remove_running(
    running: &mut Vec<usize>,
    run_rem: &mut Vec<f64>,
    run_cpu: &mut Vec<f64>,
    run_pos: &mut [usize],
    i: usize,
) -> (f64, f64) {
    let pos = run_pos[i];
    debug_assert_ne!(pos, NOT_RUNNING);
    running.swap_remove(pos);
    let state = (run_rem.swap_remove(pos), run_cpu.swap_remove(pos));
    run_pos[i] = NOT_RUNNING;
    if let Some(&j) = running.get(pos) {
        run_pos[j] = pos;
    }
    state
}

/// Starts the thread's current segment at `now` (or finishes the thread),
/// skipping zero-length segments: a CPU segment leaves it `Ready` with a
/// `GilWait` span open, a block leaves it in `Io`.
fn start_segment(t: &mut ThreadState, segments: &[Segment], now: SimTime) {
    loop {
        if t.seg == t.seg_end {
            t.phase = Phase::Done;
            t.end = now;
            return;
        }
        match segments[t.seg] {
            Segment::Cpu(d) => {
                if d.is_zero() {
                    t.seg += 1;
                    continue;
                }
                t.remaining = d.as_nanos() as f64;
                t.phase = Phase::Ready;
                t.open_span(SpanKind::GilWait, now);
                return;
            }
            Segment::Block { dur, .. } => {
                t.exec_start.get_or_insert(now);
                if dur.is_zero() {
                    t.seg += 1;
                    continue;
                }
                t.phase = Phase::Io { until: now + dur };
                t.open_span(SpanKind::Io, now);
                return;
            }
        }
    }
}

/// Starts the thread's current segment (see [`start_segment`]) and
/// registers the thread with the shared loop's structure its new phase
/// belongs to: its process's ready heap under the GIL, the FIFO of
/// run-slot requests otherwise, or the wake heap.
#[allow(clippy::too_many_arguments)]
fn enter_segment(
    t: &mut ThreadState,
    i: usize,
    segments: &[Segment],
    now: SimTime,
    gil: bool,
    ready: &mut [BinaryHeap<Reverse<(u64, usize)>>],
    ready_fifo: &mut Vec<usize>,
    waiting: &mut Vec<usize>,
    wake: &mut BinaryHeap<Reverse<(SimTime, usize)>>,
) {
    start_segment(t, segments, now);
    match t.phase {
        Phase::Ready if gil => {
            let p = t.process;
            if ready[p].is_empty() {
                // Joins the waiting list, kept ascending.
                let at = waiting.partition_point(|&q| q < p);
                waiting.insert(at, p);
            }
            ready[p].push(Reverse((t.cpu_used.to_bits(), i)));
        }
        Phase::Ready => ready_fifo.push(i),
        Phase::Io { until } => wake.push(Reverse((until, i))),
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Reference engine
// ---------------------------------------------------------------------------

/// Thread state of the reference engine, which re-scans every thread per
/// event and allocates all buffers per call.
#[derive(Debug)]
struct RefThreadState {
    process: usize,
    start: SimTime,
    segments: Vec<Segment>,
    seg_idx: usize,
    remaining: f64,
    phase: Phase,
    cpu_used: f64,
    exec_start: Option<SimTime>,
    end: SimTime,
    spans: Vec<Span>,
    open: Option<(SpanKind, SimTime)>,
}

impl RefThreadState {
    fn open_span(&mut self, kind: SpanKind, now: SimTime) {
        debug_assert!(self.open.is_none(), "span already open");
        self.open = Some((kind, now));
    }

    fn close_span(&mut self, now: SimTime) {
        if let Some((kind, start)) = self.open.take() {
            if now > start {
                self.spans.push(Span {
                    kind,
                    start,
                    end: now,
                });
            }
        }
    }
}

/// The pre-optimisation fluid engine, retained verbatim as a reference:
/// it backs [`VirtualPlatform::execute_reference`], and tier-1
/// `tests/des_identity.rs` asserts both engines produce byte-identical
/// outcomes (`tests/properties.rs` compares the two sandbox engines
/// directly). Unlike [`execute_sandbox`] it re-scans all threads at every
/// event and runs every sandbox in one loop. Refuses the same inputs with the same
/// [`SandboxError`].
///
/// [`VirtualPlatform::execute_reference`]: crate::VirtualPlatform::execute_reference
pub fn execute_sandbox_reference(
    tasks: &[ThreadTask],
    cpus: u32,
    runtime: RuntimeKind,
    gil_interval: SimDuration,
) -> Result<Vec<ThreadResult>, SandboxError> {
    check_sandbox(cpus, runtime, gil_interval)?;
    let mut threads: Vec<RefThreadState> = tasks
        .iter()
        .map(|t| RefThreadState {
            process: t.process,
            start: t.start,
            segments: t.segments.clone(),
            seg_idx: 0,
            remaining: 0.0,
            phase: Phase::NotStarted,
            cpu_used: 0.0,
            exec_start: None,
            end: t.start,
            spans: Vec::new(),
            open: None,
        })
        .collect();
    if threads.is_empty() {
        return Ok(Vec::new());
    }

    let n_procs = tasks.iter().map(|t| t.process).max().unwrap_or(0) + 1;
    // Per process: the current GIL holder and when its quantum expires.
    let mut holder: Vec<Option<usize>> = vec![None; n_procs];
    let mut quantum_end: Vec<SimTime> = vec![SimTime::FAR_FUTURE; n_procs];

    let mut now = threads.iter().map(|t| t.start).min().expect("non-empty");

    loop {
        // -- 1. Activate arrivals and I/O completions at `now`. -----------
        for i in 0..threads.len() {
            if threads[i].phase == Phase::NotStarted && threads[i].start <= now {
                ref_enter_segment(&mut threads[i], now);
            }
            if let Phase::Io { until } = threads[i].phase {
                if until <= now {
                    threads[i].close_span(now);
                    ref_advance_segment(&mut threads[i], now);
                }
            }
        }

        // -- 2. Preempt expired GIL quanta (pseudo-parallel only). --------
        if runtime == RuntimeKind::PseudoParallel {
            for p in 0..n_procs {
                if let Some(h) = holder[p] {
                    let waiter_exists = threads
                        .iter()
                        .enumerate()
                        .any(|(i, t)| i != h && t.process == p && t.phase == Phase::Ready);
                    if quantum_end[p] <= now && waiter_exists {
                        // The holder is asked to drop the GIL (Fig. 2).
                        threads[h].close_span(now);
                        threads[h].phase = Phase::Ready;
                        threads[h].open_span(SpanKind::GilWait, now);
                        holder[p] = None;
                    }
                }
            }
        }

        // -- 3. Grant the GIL / run slots. ---------------------------------
        match runtime {
            RuntimeKind::PseudoParallel => {
                for p in 0..n_procs {
                    let holder_running = holder[p]
                        .map(|h| threads[h].phase == Phase::Running)
                        .unwrap_or(false);
                    if !holder_running {
                        holder[p] = None;
                        // CFS rule: the ready thread with minimum CPU time.
                        let next = threads
                            .iter()
                            .enumerate()
                            .filter(|(_, t)| t.process == p && t.phase == Phase::Ready)
                            .min_by(|(i, a), (j, b)| {
                                a.cpu_used
                                    .partial_cmp(&b.cpu_used)
                                    .expect("cpu time is finite")
                                    .then(i.cmp(j))
                            })
                            .map(|(i, _)| i);
                        if let Some(i) = next {
                            threads[i].close_span(now);
                            threads[i].phase = Phase::Running;
                            threads[i].exec_start.get_or_insert(now);
                            threads[i].open_span(SpanKind::Exec, now);
                            holder[p] = Some(i);
                            quantum_end[p] = now + gil_interval;
                        }
                    }
                }
            }
            RuntimeKind::TrueParallel => {
                for t in threads.iter_mut() {
                    if t.phase == Phase::Ready {
                        t.close_span(now);
                        t.phase = Phase::Running;
                        t.exec_start.get_or_insert(now);
                        t.open_span(SpanKind::Exec, now);
                    }
                }
            }
        }

        // -- 4. Fluid rate for the running set. ----------------------------
        let running = threads.iter().filter(|t| t.phase == Phase::Running).count();
        let rate = if running == 0 {
            0.0
        } else {
            (f64::from(cpus) / running as f64).min(1.0)
        };

        // -- 5. Find the next event. ---------------------------------------
        let mut next = SimTime::FAR_FUTURE;
        for t in &threads {
            match t.phase {
                Phase::NotStarted => next = next.min(t.start),
                Phase::Io { until } => next = next.min(until),
                Phase::Running => {
                    let ns = (t.remaining / rate).ceil() as u64;
                    next = next.min(now + SimDuration::from_nanos(ns));
                }
                _ => {}
            }
        }
        if runtime == RuntimeKind::PseudoParallel {
            for p in 0..n_procs {
                if let Some(h) = holder[p] {
                    let waiter_exists = threads
                        .iter()
                        .enumerate()
                        .any(|(i, t)| i != h && t.process == p && t.phase == Phase::Ready);
                    if waiter_exists {
                        next = next.min(quantum_end[p]);
                    }
                }
            }
        }
        if next == SimTime::FAR_FUTURE {
            break; // every thread is Done
        }
        debug_assert!(next >= now, "time must advance monotonically");

        // -- 6. Advance running threads by `dt`. ----------------------------
        let dt = next.since(now).as_nanos() as f64;
        if dt > 0.0 && rate > 0.0 {
            for t in threads.iter_mut() {
                if t.phase == Phase::Running {
                    let progress = (dt * rate).min(t.remaining);
                    t.remaining -= progress;
                    t.cpu_used += progress;
                }
            }
        }
        now = next;

        // -- 7. Complete finished CPU segments. -----------------------------
        for i in 0..threads.len() {
            if threads[i].phase == Phase::Running && threads[i].remaining <= 0.5 {
                threads[i].close_span(now);
                if let Some(h) = holder.get_mut(threads[i].process) {
                    if *h == Some(i) {
                        *h = None;
                    }
                }
                ref_advance_segment(&mut threads[i], now);
            }
        }
    }

    Ok(threads
        .into_iter()
        .map(|t| {
            debug_assert_eq!(t.phase, Phase::Done);
            ThreadResult {
                exec_start: t.exec_start.unwrap_or(t.end),
                end: t.end,
                spans: t.spans,
                cpu_time: SimDuration::from_nanos(t.cpu_used.round() as u64),
            }
        })
        .collect())
}

/// Starts the thread's current segment at `now` (or finishes the thread).
fn ref_enter_segment(t: &mut RefThreadState, now: SimTime) {
    match t.segments.get(t.seg_idx) {
        None => {
            t.phase = Phase::Done;
            t.end = now;
        }
        Some(&Segment::Cpu(d)) => {
            if d.is_zero() {
                t.seg_idx += 1;
                ref_enter_segment(t, now);
                return;
            }
            t.remaining = d.as_nanos() as f64;
            t.phase = Phase::Ready;
            t.open_span(SpanKind::GilWait, now);
        }
        Some(&Segment::Block { dur, .. }) => {
            t.exec_start.get_or_insert(now);
            if dur.is_zero() {
                t.seg_idx += 1;
                ref_enter_segment(t, now);
                return;
            }
            t.phase = Phase::Io { until: now + dur };
            t.open_span(SpanKind::Io, now);
        }
    }
}

/// Moves to the next segment after the current one completed at `now`.
fn ref_advance_segment(t: &mut RefThreadState, now: SimTime) {
    t.seg_idx += 1;
    ref_enter_segment(t, now);
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_model::SyscallKind;

    const GIL: SimDuration = SimDuration::from_millis(5);

    fn cpu(ms: u64) -> Segment {
        Segment::cpu_ms(ms)
    }

    fn io(ms: u64) -> Segment {
        Segment::Block {
            kind: SyscallKind::NetIo,
            dur: SimDuration::from_millis(ms),
        }
    }

    fn task(process: usize, start_ms: u64, segments: Vec<Segment>) -> ThreadTask {
        ThreadTask {
            process,
            start: SimTime::from_nanos(start_ms * 1_000_000),
            segments,
        }
    }

    fn end_ms(r: &ThreadResult) -> f64 {
        r.end.as_millis_f64()
    }

    #[test]
    fn io_overlaps_with_gil_holder() {
        // Fig. 2's key property: a blocked thread does not hold the GIL, so
        // CPU work and I/O overlap fully.
        let res = execute_sandbox(
            &[task(0, 0, vec![io(20)]), task(0, 0, vec![cpu(20)])],
            1,
            RuntimeKind::PseudoParallel,
            GIL,
        )
        .unwrap();
        assert_eq!(end_ms(&res[0]), 20.0);
        assert_eq!(end_ms(&res[1]), 20.0);
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(execute_sandbox(&[], 1, RuntimeKind::PseudoParallel, GIL)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn ceil_ns_matches_float_ceil() {
        let two53 = (1u64 << 53) as f64;
        let mut xs = vec![
            0.0,
            -0.0,
            0.25,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            2.0 / 3.0,
            1e6 / 3.0,
            two53 - 0.5,
            two53,
            two53 + 2.0,
            ((1u64 << 63) - 1024) as f64,
            (1u64 << 63) as f64,
            1e19,
            18_446_744_073_709_551_616.0,
            1e30,
            f64::INFINITY,
        ];
        xs.extend((1..2_000u32).map(|i| f64::from(i) * 7_919.123 / 3.0));
        for x in xs {
            assert_eq!(ceil_ns(x), x.ceil() as u64, "ceil of {x}");
        }
    }
}

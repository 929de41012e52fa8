//! Algorithm 1: Multi-Threads Latency Prediction.
//!
//! Predicts the overall latency of multiple function threads inside one
//! GIL-guarded process by simulating GIL switching over the profiled
//! CPU/block periods: the running thread executes until the switch interval
//! expires or a block operation occurs; blocked threads rejoin when their
//! I/O completes; the next holder is the non-blocked thread with minimum
//! accumulated CPU time (the CFS rule, Algorithm 1 line 17).
//!
//! This is the *model*, deliberately simpler than the ground-truth fluid
//! simulation in `chiron-runtime`: it assumes a dedicated CPU for the
//! process and constant-cost thread creation. The residual between the two
//! (plus platform jitter) is Chiron's prediction error (Fig. 12).
//!
//! The simulator itself is allocation-free on the hot path: thread inputs
//! are described by a [`ThreadSource`] (segments borrowed as `&[Segment]`,
//! not owned), and per-thread bookkeeping lives in a reusable [`SimArena`]
//! so the PGP scheduler's millions of objective evaluations allocate
//! nothing after warm-up.
//!
//! ## Closed form for CPU-only sets
//!
//! When every segment of every thread is a CPU burst and creation times
//! never decrease, nothing ever blocks: the GIL is a work-conserving single
//! server whose jobs arrive in index order, so for any switch interval
//!
//! * `makespan = max_i(created_at(i) + Σ_{j≥i} cpu_j)` — the last busy
//!   period starts at some arrival and never idles until the end;
//! * `cpu_time = Σ_i cpu_i`.
//!
//! [`predict_threads_src`] returns that directly (one reverse pass, no
//! quanta). Any set with a block segment, or with a later thread created
//! before an earlier one, runs the quantum loop; it is the one general
//! engine, and the unit tests check the closed form against it on random
//! CPU-only sets.

use chiron_model::{Segment, SimDuration};

/// One thread's input to the simulation: when it is created (relative to
/// process start) and the profiled segment list it executes.
#[derive(Debug, Clone)]
pub struct SimThread {
    pub created_at: SimDuration,
    pub segments: Vec<Segment>,
}

/// Borrowed description of the thread set fed to Algorithm 1. Implementors
/// hand out segment slices without cloning, which keeps the simulation
/// allocation-free regardless of where the segments actually live.
pub trait ThreadSource {
    fn count(&self) -> usize;
    fn created_at(&self, i: usize) -> SimDuration;
    fn segments(&self, i: usize) -> &[Segment];
}

impl ThreadSource for [SimThread] {
    fn count(&self) -> usize {
        self.len()
    }
    fn created_at(&self, i: usize) -> SimDuration {
        self[i].created_at
    }
    fn segments(&self, i: usize) -> &[Segment] {
        &self[i].segments
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum SimPhase {
    Waiting,
    Ready,
    Blocked { until: SimDuration },
    Done { at: SimDuration },
}

#[derive(Debug, Clone, Copy)]
struct SimState {
    created_at: SimDuration,
    seg_idx: usize,
    offset: SimDuration,
    phase: SimPhase,
    cpu_used: SimDuration,
}

/// Reusable per-thread state buffer for [`predict_threads_src`]. One arena
/// per caller (or per worker thread) amortises the `Vec<SimState>` across
/// every simulation it runs.
#[derive(Debug, Default)]
pub struct SimArena {
    states: Vec<SimState>,
}

impl SimArena {
    pub fn new() -> Self {
        SimArena::default()
    }

    /// Convenience: run Algorithm 1 over `src` reusing this arena.
    pub fn predict(
        &mut self,
        src: &(impl ThreadSource + ?Sized),
        interval: SimDuration,
    ) -> SimOutcome {
        predict_threads_src(src, interval, self)
    }
}

/// Output of the Algorithm 1 simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// `T_exec`: when the last thread finished.
    pub makespan: SimDuration,
    /// Total CPU time consumed by all threads.
    pub cpu_time: SimDuration,
}

/// Runs Algorithm 1 over `threads` with GIL switch interval `interval`.
pub fn predict_threads(threads: &[SimThread], interval: SimDuration) -> SimOutcome {
    predict_threads_src(threads, interval, &mut SimArena::new())
}

/// Runs Algorithm 1 over the borrowed thread set `src`, reusing `arena`
/// for per-thread state so the call allocates nothing once the arena has
/// grown to the largest set it has seen. CPU-only sets take the exact
/// closed form (see the module docs) instead of the quantum loop.
pub fn predict_threads_src(
    src: &(impl ThreadSource + ?Sized),
    interval: SimDuration,
    arena: &mut SimArena,
) -> SimOutcome {
    assert!(!interval.is_zero(), "switch interval must be positive");
    cpu_only(src).unwrap_or_else(|| simulate(src, interval, arena))
}

/// The closed form of Algorithm 1 for a set that never blocks, or `None`
/// when some segment is a block or a thread is created before its
/// predecessor.
fn cpu_only(src: &(impl ThreadSource + ?Sized)) -> Option<SimOutcome> {
    let mut suffix_cpu = SimDuration::ZERO;
    let mut makespan = SimDuration::ZERO;
    let mut next_created: Option<SimDuration> = None;
    for i in (0..src.count()).rev() {
        let created = src.created_at(i);
        if next_created.is_some_and(|next| created > next) {
            return None;
        }
        next_created = Some(created);
        for seg in src.segments(i) {
            match seg {
                Segment::Cpu(d) => suffix_cpu += *d,
                Segment::Block { .. } => return None,
            }
        }
        makespan = makespan.max(created + suffix_cpu);
    }
    Some(SimOutcome {
        makespan,
        cpu_time: suffix_cpu,
    })
}

/// The quantum loop: Algorithm 1 stepped switch interval by switch
/// interval.
fn simulate(
    src: &(impl ThreadSource + ?Sized),
    interval: SimDuration,
    arena: &mut SimArena,
) -> SimOutcome {
    let n = src.count();
    let states = &mut arena.states;
    states.clear();
    states.reserve(n);
    for i in 0..n {
        states.push(SimState {
            created_at: src.created_at(i),
            seg_idx: 0,
            offset: SimDuration::ZERO,
            phase: SimPhase::Waiting,
            cpu_used: SimDuration::ZERO,
        });
    }

    let mut clock = SimDuration::ZERO;
    let mut total_cpu = SimDuration::ZERO;
    loop {
        // Wake arrivals and completed I/O.
        for (i, s) in states.iter_mut().enumerate() {
            match s.phase {
                SimPhase::Waiting if s.created_at <= clock => enter(s, src.segments(i), clock),
                SimPhase::Blocked { until } if until <= clock => {
                    s.seg_idx += 1;
                    enter(s, src.segments(i), clock);
                }
                _ => {}
            }
        }
        if states
            .iter()
            .all(|s| matches!(s.phase, SimPhase::Done { .. }))
        {
            break;
        }

        // Line 17: minimum-CPU-time non-blocked thread holds the GIL.
        let runnable = states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.phase == SimPhase::Ready)
            .min_by_key(|(i, s)| (s.cpu_used, *i))
            .map(|(i, _)| i);

        let Some(i) = runnable else {
            // Everyone is blocked or not yet created: advance to the next
            // wake-up point.
            let next = states
                .iter()
                .filter_map(|s| match s.phase {
                    SimPhase::Waiting => Some(s.created_at),
                    SimPhase::Blocked { until } => Some(until),
                    _ => None,
                })
                .min()
                .expect("not all done");
            clock = clock.max(next);
            continue;
        };

        let s = &mut states[i];
        let segs = src.segments(i);
        let Segment::Cpu(seg_dur) = segs[s.seg_idx] else {
            unreachable!("ready thread always sits on a CPU segment")
        };
        let remaining = seg_dur - s.offset;
        // Lines 8–16: run until the switch timeout or the next block op /
        // completion, whichever comes first.
        let slice = remaining.min(interval);
        clock += slice;
        s.offset += slice;
        s.cpu_used += slice;
        total_cpu += slice;
        if s.offset >= seg_dur {
            s.seg_idx += 1;
            s.offset = SimDuration::ZERO;
            enter(s, segs, clock);
        }
        // Otherwise the quantum expired mid-segment; the thread returns to
        // the ready set and line 17 picks the next holder.
    }

    let makespan = states
        .iter()
        .map(|s| match s.phase {
            SimPhase::Done { at } => at,
            _ => unreachable!("loop exits only when all threads are done"),
        })
        .max()
        .unwrap_or(SimDuration::ZERO);
    SimOutcome {
        makespan,
        cpu_time: total_cpu,
    }
}

/// Positions a thread on its current segment at `clock`.
fn enter(s: &mut SimState, segs: &[Segment], clock: SimDuration) {
    match segs.get(s.seg_idx) {
        None => s.phase = SimPhase::Done { at: clock },
        Some(Segment::Cpu(d)) if d.is_zero() => {
            s.seg_idx += 1;
            enter(s, segs, clock);
        }
        Some(Segment::Cpu(_)) => {
            s.offset = SimDuration::ZERO;
            s.phase = SimPhase::Ready;
        }
        Some(Segment::Block { dur, .. }) => {
            s.phase = SimPhase::Blocked {
                until: clock + *dur,
            };
        }
    }
}

/// White-box latency model for truly parallel execution (process pool,
/// Java threads, nogil) of tasks on `cpus` CPUs: the makespan is bounded
/// below by the longest task and by the aggregate CPU demand divided by
/// the CPU count; the model takes the larger bound.
pub fn predict_true_parallel(tasks: &[Vec<Segment>], cpus: u32) -> SimOutcome {
    assert!(cpus > 0);
    let mut longest = SimDuration::ZERO;
    let mut total_cpu = SimDuration::ZERO;
    let mut longest_io = SimDuration::ZERO;
    for segs in tasks {
        let solo: SimDuration = segs.iter().map(|s| s.duration()).sum();
        let cpu: SimDuration = segs
            .iter()
            .filter(|s| s.is_cpu())
            .map(|s| s.duration())
            .sum();
        longest = longest.max(solo);
        longest_io = longest_io.max(solo - cpu);
        total_cpu += cpu;
    }
    // Work-conserving bound: all CPU demand squeezed onto `cpus` cores,
    // overlapped with the longest blocking chain.
    let packed =
        SimDuration::from_nanos((total_cpu.as_nanos() as f64 / f64::from(cpus)).ceil() as u64)
            .max(longest_io);
    SimOutcome {
        makespan: longest.max(packed),
        cpu_time: total_cpu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_model::SyscallKind;
    use proptest::prelude::*;

    const I: SimDuration = SimDuration::from_millis(5);

    fn cpu(ms: u64) -> Segment {
        Segment::cpu_ms(ms)
    }

    fn io(ms: u64) -> Segment {
        Segment::Block {
            kind: SyscallKind::NetIo,
            dur: SimDuration::from_millis(ms),
        }
    }

    fn at(ms: u64, segments: Vec<Segment>) -> SimThread {
        SimThread {
            created_at: SimDuration::from_millis(ms),
            segments,
        }
    }

    #[test]
    fn single_thread_is_solo_latency() {
        let out = predict_threads(&[at(0, vec![cpu(10), io(5), cpu(3)])], I);
        assert_eq!(out.makespan.as_millis_f64(), 18.0);
        assert_eq!(out.cpu_time.as_millis_f64(), 13.0);
    }

    #[test]
    fn gil_serialises_cpu() {
        let out = predict_threads(&[at(0, vec![cpu(10)]), at(0, vec![cpu(10)])], I);
        assert_eq!(out.makespan.as_millis_f64(), 20.0);
    }

    #[test]
    fn io_overlaps_with_cpu() {
        let out = predict_threads(&[at(0, vec![io(20)]), at(0, vec![cpu(20)])], I);
        assert_eq!(out.makespan.as_millis_f64(), 20.0);
    }

    #[test]
    fn min_cpu_time_selection() {
        // Thread A blocks early; when it wakes it has less CPU time than B
        // and must preempt at the next switch point.
        let out = predict_threads(
            &[at(0, vec![cpu(2), io(4), cpu(2)]), at(0, vec![cpu(20)])],
            I,
        );
        assert_eq!(out.makespan.as_millis_f64(), 24.0);
        assert_eq!(out.cpu_time.as_millis_f64(), 24.0);
    }

    #[test]
    fn staggered_creation_delays_start() {
        let out = predict_threads(&[at(10, vec![cpu(5)])], I);
        assert_eq!(out.makespan.as_millis_f64(), 15.0);
    }

    #[test]
    fn empty_input() {
        let out = predict_threads(&[], I);
        assert_eq!(out.makespan, SimDuration::ZERO);
    }

    #[test]
    fn arena_reuse_is_equivalent() {
        // Reusing one arena across differently sized simulations yields the
        // same outcomes as fresh allocations per call.
        let sets: Vec<Vec<SimThread>> = vec![
            vec![at(0, vec![cpu(10), io(5), cpu(3)])],
            vec![at(0, vec![cpu(2), io(4), cpu(2)]), at(0, vec![cpu(20)])],
            vec![
                at(0, vec![io(20)]),
                at(0, vec![cpu(20)]),
                at(3, vec![cpu(1)]),
            ],
            vec![at(10, vec![cpu(5)])],
        ];
        let mut arena = SimArena::new();
        for set in &sets {
            let fresh = predict_threads(set, I);
            let reused = arena.predict(set.as_slice(), I);
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn matches_runtime_fluid_on_cpu_workload() {
        // Cross-check: the Algorithm 1 model and the ground-truth fluid
        // engine agree exactly for a dedicated-CPU process.
        use chiron_model::{RuntimeKind, SimTime};
        use chiron_runtime::fluid::{execute_sandbox, ThreadTask};
        let segs: Vec<Vec<Segment>> = vec![
            vec![cpu(7), io(3), cpu(2)],
            vec![cpu(4)],
            vec![io(6), cpu(5)],
        ];
        let predicted = predict_threads(
            &segs.iter().map(|s| at(0, s.clone())).collect::<Vec<_>>(),
            I,
        );
        let truth = execute_sandbox(
            &segs
                .iter()
                .map(|s| ThreadTask {
                    process: 0,
                    start: SimTime::ZERO,
                    segments: s.clone(),
                })
                .collect::<Vec<_>>(),
            1,
            RuntimeKind::PseudoParallel,
            I,
        )
        .unwrap();
        let truth_end = truth
            .iter()
            .map(|r| r.end.as_millis_f64())
            .fold(0.0, f64::max);
        let diff = (predicted.makespan.as_millis_f64() - truth_end).abs();
        assert!(
            diff < 0.5,
            "model {} vs truth {}",
            predicted.makespan,
            truth_end
        );
    }

    /// Random CPU-only thread sets: 1–16 threads with 0–4 bursts each (a
    /// quarter of them zero-length), created at equal or gapped
    /// non-decreasing times.
    fn arb_cpu_only() -> impl Strategy<Value = Vec<SimThread>> {
        let burst = (0u8..4, 0u64..12_000_000);
        let thread = (0u8..3, 0u64..20_000_000, prop::collection::vec(burst, 0..5));
        prop::collection::vec(thread, 1..=16).prop_map(|threads| {
            let mut created = SimDuration::ZERO;
            threads
                .into_iter()
                .map(|(gapped, gap_ns, bursts)| {
                    if gapped > 0 {
                        created += SimDuration::from_nanos(gap_ns);
                    }
                    let segments = bursts
                        .into_iter()
                        .map(|(zero, ns)| {
                            Segment::Cpu(SimDuration::from_nanos(ns * u64::from(zero > 0)))
                        })
                        .collect();
                    SimThread {
                        created_at: created,
                        segments,
                    }
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The closed form is exact: on every CPU-only set it equals the
        /// quantum loop, whatever the switch interval.
        #[test]
        fn closed_form_matches_quantum_loop(
            threads in arb_cpu_only(),
            interval_ns in 100_000u64..20_000_000,
        ) {
            let interval = SimDuration::from_nanos(interval_ns);
            let closed = cpu_only(threads.as_slice());
            let looped = simulate(threads.as_slice(), interval, &mut SimArena::new());
            prop_assert_eq!(closed, Some(looped), "{:?} at {}", threads, interval);
        }
    }

    #[test]
    fn blocks_and_out_of_order_creation_take_the_loop() {
        assert_eq!(cpu_only([at(0, vec![cpu(1), io(2)])].as_slice()), None);
        assert_eq!(
            cpu_only([at(3, vec![cpu(1)]), at(1, vec![cpu(1)])].as_slice()),
            None
        );
        // Out of order, the loop still serves the earlier arrival first.
        let out = predict_threads(&[at(3, vec![cpu(1)]), at(1, vec![cpu(1)])], I);
        assert_eq!(out.makespan.as_millis_f64(), 4.0);
    }

    #[test]
    fn true_parallel_longest_task_bound() {
        let out = predict_true_parallel(&[vec![cpu(30)], vec![cpu(10)]], 4);
        assert_eq!(out.makespan.as_millis_f64(), 30.0);
        assert_eq!(out.cpu_time.as_millis_f64(), 40.0);
    }

    #[test]
    fn true_parallel_capacity_bound() {
        // 4 × 10ms CPU on 2 CPUs: 20ms of packed work.
        let tasks: Vec<Vec<Segment>> = (0..4).map(|_| vec![cpu(10)]).collect();
        let out = predict_true_parallel(&tasks, 2);
        assert_eq!(out.makespan.as_millis_f64(), 20.0);
    }

    #[test]
    fn true_parallel_io_does_not_consume_cpu() {
        let tasks = vec![vec![io(30), cpu(2)], vec![cpu(10)]];
        let out = predict_true_parallel(&tasks, 1);
        assert_eq!(out.makespan.as_millis_f64(), 32.0);
        assert_eq!(out.cpu_time.as_millis_f64(), 12.0);
    }
}

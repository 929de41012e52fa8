//! Real-OS-thread execution of wrap workloads with an emulated GIL.
//!
//! The fluid simulator (`crate::fluid`) *models* GIL scheduling; this module
//! *performs* it: each function runs on a real thread, CPU segments spin on
//! the core while holding a per-process interpreter lock, blocking segments
//! sleep with the lock released (exactly CPython's behaviour in Fig. 2),
//! and the holder yields the lock at the switch interval. It exists to
//! cross-check the simulator's pseudo-parallelism model against actual OS
//! scheduling, and to give the examples something that really executes.

use chiron_model::{RuntimeKind, Segment, SimDuration};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[allow(unsafe_code)]
pub mod ring;

/// Spin briefly, then yield: on a multi-core host the partner usually
/// lands within the spin budget; on a single-core host (or under heavy
/// oversubscription) pure spinning would burn the waiter's entire
/// scheduler timeslice (~milliseconds) before the partner could run at
/// all, turning a sub-microsecond handoff into a multi-millisecond one.
/// Shared by the shm ring's blocking push/pop and the fleet's barrier
/// workers.
#[derive(Debug, Default)]
pub struct Backoff(u32);

impl Backoff {
    const SPIN_BUDGET: u32 = 64;

    pub fn new() -> Self {
        Backoff(0)
    }

    /// Waits a little; returns whether this step yielded to the scheduler
    /// (every step past the spin budget does).
    pub fn snooze(&mut self) -> bool {
        let spinning = self.0 < Self::SPIN_BUDGET;
        if spinning {
            self.0 += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
        !spinning
    }
}

/// One function to execute on a real thread.
#[derive(Debug, Clone)]
pub struct RtTask {
    /// GIL domain: tasks sharing a `process` contend for one lock.
    pub process: usize,
    pub segments: Vec<Segment>,
}

/// A wrap-to-wrap payload handoff between two tasks of a wired batch:
/// `from` pushes `bytes` through a dedicated SPSC ring after its segments
/// finish, and `to` pops (and CRC-validates) them before its segments run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtEdge {
    /// Index of the producing task in the batch.
    pub from: usize,
    /// Index of the consuming task in the batch.
    pub to: usize,
    /// Payload size pushed through the ring.
    pub bytes: usize,
}

/// Wall-clock outcome of one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtResult {
    /// Start offset relative to the batch start.
    pub started: Duration,
    /// Completion offset relative to the batch start.
    pub finished: Duration,
}

impl RtResult {
    pub fn latency(&self) -> Duration {
        self.finished - self.started
    }
}

/// An emulated global interpreter lock with cooperative switch points.
#[derive(Debug, Default)]
struct Gil {
    state: Mutex<bool>,
    cv: Condvar,
}

impl Gil {
    fn acquire(&self) {
        let mut held = self.state.lock();
        while *held {
            self.cv.wait(&mut held);
        }
        *held = true;
    }

    fn release(&self) {
        *self.state.lock() = false;
        self.cv.notify_one();
    }
}

fn spin_for(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

fn to_std(d: SimDuration) -> Duration {
    Duration::from_nanos(d.as_nanos())
}

/// Runs one task's segments: CPU bursts spin (GIL-gated under
/// pseudo-parallelism, yielding every `quantum`), blocking segments sleep
/// with the lock released.
fn run_segments(segments: &[Segment], gil: &Gil, runtime: RuntimeKind, quantum: Duration) {
    for seg in segments {
        match seg {
            Segment::Cpu(d) => {
                let mut remaining = to_std(*d);
                while remaining > Duration::ZERO {
                    let slice = remaining.min(quantum);
                    if runtime == RuntimeKind::PseudoParallel {
                        gil.acquire();
                        spin_for(slice);
                        gil.release();
                    } else {
                        spin_for(slice);
                    }
                    remaining -= slice;
                }
            }
            Segment::Block { dur, .. } => {
                // The GIL is dropped during blocking ops.
                std::thread::sleep(to_std(*dur));
            }
        }
    }
}

/// Deterministic payload byte `j` of edge `ei` — lets the consumer verify
/// content end to end on top of the ring's own CRC.
fn edge_byte(ei: usize, j: usize) -> u8 {
    (ei as u8).wrapping_mul(31).wrapping_add(j as u8)
}

/// Executes `tasks` on real OS threads.
///
/// Under [`RuntimeKind::PseudoParallel`], tasks of the same `process` share
/// an emulated GIL: CPU bursts run with the lock held and yield it every
/// `switch_interval`; blocking segments sleep with the lock released. Under
/// [`RuntimeKind::TrueParallel`] every thread runs freely.
///
/// Each of `edges` is real wrap-to-wrap data-plane wiring: its own
/// lock-free SPSC ring ([`ring`]), sized to hold its frame with room to
/// spare. A task first drains each inbound ring (spinning until the
/// producer's frame lands, CRC- and content-validated), then runs its
/// segments, then pushes its outbound payloads — so downstream tasks
/// genuinely wait on the shared-memory handoff, the behaviour the
/// simulator's `shm_ring` tier models.
///
/// Panics if an edge names an out-of-range task, is a self-loop, or if a
/// ring delivers corrupt or mismatched bytes.
pub fn run_realtime(
    tasks: &[RtTask],
    edges: &[RtEdge],
    runtime: RuntimeKind,
    switch_interval: SimDuration,
) -> Vec<RtResult> {
    if tasks.is_empty() {
        assert!(edges.is_empty(), "edges without tasks");
        return Vec::new();
    }
    let mut inboxes: Vec<Vec<(usize, ring::Consumer)>> =
        (0..tasks.len()).map(|_| Vec::new()).collect();
    let mut outboxes: Vec<Vec<(usize, ring::Producer)>> =
        (0..tasks.len()).map(|_| Vec::new()).collect();
    for (ei, edge) in edges.iter().enumerate() {
        assert!(
            edge.from < tasks.len() && edge.to < tasks.len(),
            "edge {ei} references a task outside the batch"
        );
        assert_ne!(edge.from, edge.to, "edge {ei} is a self-loop");
        let cap = (edge.bytes + ring::FRAME_HEADER_BYTES)
            .saturating_mul(2)
            .next_power_of_two()
            .max(1024);
        let (tx, rx) = ring::ring(cap);
        outboxes[edge.from].push((ei, tx));
        inboxes[edge.to].push((ei, rx));
    }

    let n_procs = tasks.iter().map(|t| t.process).max().unwrap_or(0) + 1;
    let gils: Vec<Arc<Gil>> = (0..n_procs).map(|_| Arc::new(Gil::default())).collect();
    let quantum = to_std(switch_interval);
    let batch_start = Instant::now();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(tasks.len());
        let mut inboxes = inboxes.into_iter();
        let mut outboxes = outboxes.into_iter();
        for task in tasks {
            let gil = gils[task.process].clone();
            let segments = task.segments.clone();
            let mut my_in = inboxes.next().expect("one inbox per task");
            let my_out = outboxes.next().expect("one outbox per task");
            handles.push(scope.spawn(move || {
                let started = batch_start.elapsed();
                for (ei, rx) in &mut my_in {
                    let want = edges[*ei].bytes;
                    rx.pop_with_blocking(|a, b| {
                        assert_eq!(a.len() + b.len(), want, "edge {ei} payload length");
                        for (j, &byte) in a.iter().chain(b).enumerate() {
                            assert_eq!(byte, edge_byte(*ei, j), "edge {ei} byte {j}");
                        }
                    })
                    .expect("inbound frame validated");
                }
                run_segments(&segments, &gil, runtime, quantum);
                for (ei, mut tx) in my_out {
                    let payload: Vec<u8> = (0..edges[ei].bytes).map(|j| edge_byte(ei, j)).collect();
                    tx.push_blocking(&payload).expect("outbound frame fits");
                }
                RtResult {
                    started,
                    finished: batch_start.elapsed(),
                }
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("rt worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_model::SyscallKind;

    const SWITCH: SimDuration = SimDuration::from_millis(5);

    fn cpu(ms: u64) -> Segment {
        Segment::cpu_ms(ms)
    }

    fn io(ms: u64) -> Segment {
        Segment::Block {
            kind: SyscallKind::Sleep,
            dur: SimDuration::from_millis(ms),
        }
    }

    fn makespan(results: &[RtResult]) -> Duration {
        results.iter().map(|r| r.finished).max().unwrap()
    }

    /// Makespan under which two 40 ms tasks must have overlapped: run
    /// one after the other, they take at least 80 ms.
    const OVERLAP_BOUND: Duration = Duration::from_millis(70);

    /// The fastest makespan of up to three runs of `tasks`, stopping at
    /// the first under [`OVERLAP_BOUND`]. One wall-clock sample on a
    /// shared host can be stretched by a descheduled thread; serial
    /// execution cannot get faster than 80 ms however often it is run.
    fn overlapped_makespan(tasks: &[RtTask], runtime: RuntimeKind) -> Duration {
        let mut best = Duration::MAX;
        for _ in 0..3 {
            best = best.min(makespan(&run_realtime(tasks, &[], runtime, SWITCH)));
            if best < OVERLAP_BOUND {
                break;
            }
        }
        best
    }

    fn cores() -> usize {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    }

    #[test]
    fn gil_serialises_cpu_threads() {
        let tasks = vec![
            RtTask {
                process: 0,
                segments: vec![cpu(30)],
            },
            RtTask {
                process: 0,
                segments: vec![cpu(30)],
            },
        ];
        let results = run_realtime(&tasks, &[], RuntimeKind::PseudoParallel, SWITCH);
        let total = makespan(&results);
        // 60ms of CPU serialised by the GIL: demand clearly more wall time
        // than parallel execution would take.
        assert!(total >= Duration::from_millis(55), "makespan {total:?}");
    }

    #[test]
    fn true_parallelism_overlaps_cpu() {
        if cores() < 2 {
            return; // cannot demonstrate parallelism on one core
        }
        let tasks = vec![
            RtTask {
                process: 0,
                segments: vec![cpu(40)],
            },
            RtTask {
                process: 0,
                segments: vec![cpu(40)],
            },
        ];
        let total = overlapped_makespan(&tasks, RuntimeKind::TrueParallel);
        assert!(total < OVERLAP_BOUND, "makespan {total:?}");
    }

    #[test]
    fn io_releases_the_gil() {
        // One thread sleeps 40ms, the other burns 40ms CPU: with the GIL
        // dropped during blocking ops they overlap.
        let tasks = vec![
            RtTask {
                process: 0,
                segments: vec![io(40)],
            },
            RtTask {
                process: 0,
                segments: vec![cpu(40)],
            },
        ];
        let total = overlapped_makespan(&tasks, RuntimeKind::PseudoParallel);
        assert!(total < OVERLAP_BOUND, "makespan {total:?}");
    }

    #[test]
    fn separate_processes_do_not_share_a_gil() {
        if cores() < 2 {
            return;
        }
        let tasks = vec![
            RtTask {
                process: 0,
                segments: vec![cpu(40)],
            },
            RtTask {
                process: 1,
                segments: vec![cpu(40)],
            },
        ];
        let total = overlapped_makespan(&tasks, RuntimeKind::PseudoParallel);
        assert!(total < OVERLAP_BOUND, "makespan {total:?}");
    }

    #[test]
    fn empty_input() {
        assert!(run_realtime(&[], &[], RuntimeKind::PseudoParallel, SWITCH).is_empty());
    }

    #[test]
    fn wired_chain_serialises_across_the_ring() {
        // Three separate processes that would overlap freely — but wired
        // 0→1→2, each must wait for the upstream frame, so the chain
        // serialises: the real data dependency the shm_ring tier models.
        let tasks: Vec<RtTask> = (0..3)
            .map(|p| RtTask {
                process: p,
                segments: vec![cpu(10)],
            })
            .collect();
        let edges = [
            RtEdge {
                from: 0,
                to: 1,
                bytes: 4096,
            },
            RtEdge {
                from: 1,
                to: 2,
                bytes: 64 << 10,
            },
        ];
        let results = run_realtime(&tasks, &edges, RuntimeKind::TrueParallel, SWITCH);
        let total = makespan(&results);
        assert!(total >= Duration::from_millis(28), "makespan {total:?}");
        // Each hop's consumer cannot finish before its producer.
        assert!(results[1].finished > results[0].finished - Duration::from_millis(1));
        assert!(results[2].finished > results[1].finished - Duration::from_millis(1));
    }

    #[test]
    fn wired_fan_out_delivers_every_payload() {
        // One producer, two consumers on distinct rings with distinct
        // sizes; the in-thread validators assert length, content and CRC.
        let tasks: Vec<RtTask> = (0..3)
            .map(|p| RtTask {
                process: p,
                segments: vec![cpu(2)],
            })
            .collect();
        let edges = [
            RtEdge {
                from: 0,
                to: 1,
                bytes: 0,
            },
            RtEdge {
                from: 0,
                to: 2,
                bytes: 100 << 10,
            },
        ];
        let results = run_realtime(&tasks, &edges, RuntimeKind::PseudoParallel, SWITCH);
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn latency_accessor() {
        let r = RtResult {
            started: Duration::from_millis(2),
            finished: Duration::from_millis(12),
        };
        assert_eq!(r.latency(), Duration::from_millis(10));
    }
}

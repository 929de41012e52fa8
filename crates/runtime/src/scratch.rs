//! Reusable per-worker simulation state.
//!
//! [`SimScratch`] holds everything a request's execution can carry over
//! to the next one: the compiled plan of the last (platform, workflow,
//! plan) it ran, the fluid engine's per-thread state and queues, and the
//! replay's segment buffer and per-lane span buffers. The span buffers
//! are cleared, never freed, so they keep their capacity from one replay
//! to the next; an outcome gets a copy of their spans in its own single
//! buffer. One scratch per sweep worker (or the thread-local default),
//! never shared, so reuse is free of synchronisation.
//!
//! The compiled plan is keyed by value: a call reuses it only when the
//! platform and the plan compare equal to the ones it was compiled from
//! and the workflow agrees on every field compiling reads (each stage's
//! function ids, each function's segments and output bytes), and compiles
//! anew otherwise, so a stale plan can never reach a result. A change to
//! a name, `writes_files`, `workingset_bytes`, `class` or the language
//! runtime reuses it: the outputs are the same either way. Buffers are
//! always cleared before reuse. Together these make a scratch-backed run
//! byte-identical to a fresh-scratch run (tier-1 `tests/des_identity.rs`
//! checks exactly that, after a change to each field the key reads).
//! With the structure compiled away, a replay costs its jitter draws plus
//! its threads' runs: one pass for a wrap whose threads each run alone,
//! and otherwise the fluid engine, one process at a time for a sandbox
//! with a CPU per process and the shared event loop for a contended one.
//! The engine's buffers (its per-thread slots, queues and instant set)
//! live in the scratch too.
//!
//! The module also counts buffer reuse and fluid events globally — as
//! [`chiron_obs`]-registered counters, so `figures -- obs` sees them in
//! the metrics snapshot and `figures -- perf-eval` can report first-run
//! vs steady-state allocation counts for the DES hot loop. A scratch
//! gathers its counts and adds them once per request. All accesses are
//! `Relaxed`: these are statistics, not synchronisation. Only the
//! `runtime.fluid.sim_events` total is the same whatever the interleaving;
//! `buffer_allocs`/`buffer_reuses` depend on which worker's thread-local
//! scratch first meets the largest wraps, and vary from run to run. They
//! count the lanes that enter the fluid engine; an alone wrap's threads
//! never do, so they count in neither. Reuse fractions derived from them
//! (`BENCH_EVAL.json`'s `des_hot_loop.reuse_fraction`, the traced
//! `runtime.scratch_reuse_frac`) are therefore not comparable with
//! figures recorded before alone wraps bypassed the engine.

use crate::compiled::{CompiledPlan, ReplayScratch};
use crate::fluid::FluidScratch;
use chiron_obs::StaticCounter;

static BUFFER_ALLOCS: StaticCounter = StaticCounter::new("runtime.scratch.buffer_allocs");
static BUFFER_REUSES: StaticCounter = StaticCounter::new("runtime.scratch.buffer_reuses");
static SIM_EVENTS: StaticCounter = StaticCounter::new("runtime.fluid.sim_events");

/// Global buffer-reuse counters for the DES hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Per-thread engine slots newly allocated because the scratch had
    /// none (lanes that enter the fluid engine only).
    pub buffer_allocs: u64,
    /// Per-thread engine slots served from a scratch.
    pub buffer_reuses: u64,
    /// Fluid-simulator event-loop iterations (for a sandbox replayed one
    /// process at a time, the iterations the shared loop would have made).
    pub events: u64,
}

pub fn reset_alloc_stats() {
    BUFFER_ALLOCS.reset();
    BUFFER_REUSES.reset();
    SIM_EVENTS.reset();
}

pub fn alloc_stats() -> AllocStats {
    AllocStats {
        buffer_allocs: BUFFER_ALLOCS.get(),
        buffer_reuses: BUFFER_REUSES.get(),
        events: SIM_EVENTS.get(),
    }
}

/// Counter increments gathered by one scratch and added to the global
/// counters in one go, so the hot loop pays no atomic per simulation.
#[derive(Debug, Default)]
pub(crate) struct SimStats {
    /// Per-thread engine slots the fluid engine had to grow its scratch
    /// for (a simulation with more threads than any before it).
    pub(crate) buffer_allocs: u64,
    /// Per-thread engine slots served from an earlier call's scratch.
    pub(crate) buffer_reuses: u64,
    pub(crate) events: u64,
}

impl SimStats {
    pub(crate) fn flush(&mut self) {
        let SimStats {
            buffer_allocs,
            buffer_reuses,
            events,
        } = std::mem::take(self);
        BUFFER_ALLOCS.add(buffer_allocs);
        BUFFER_REUSES.add(buffer_reuses);
        SIM_EVENTS.add(events);
    }
}

/// Reusable state for one simulation worker. Not shared between
/// workers: each sweep worker (or the thread-local default) owns its own,
/// mirroring `chiron-predict`'s `PredictScratch`.
#[derive(Debug, Default)]
pub struct SimScratch {
    pub(crate) fluid: FluidScratch,
    pub(crate) replay: ReplayScratch,
    /// The plan of the last call, with the inputs it was compiled from.
    pub(crate) compiled: Option<CompiledPlan>,
}

impl SimScratch {
    pub fn new() -> Self {
        SimScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::{execute_sandbox, ThreadTask};
    use chiron_model::{RuntimeKind, Segment, SimDuration, SimTime};

    #[test]
    fn stats_track_allocs_reuses_and_events() {
        let tasks = [ThreadTask {
            process: 0,
            start: SimTime::ZERO,
            segments: vec![Segment::cpu_ms(1)],
        }];
        let before = alloc_stats();
        execute_sandbox(
            &tasks,
            1,
            RuntimeKind::PseudoParallel,
            SimDuration::from_millis(5),
        )
        .unwrap();
        let after = alloc_stats();
        assert!(after.buffer_allocs > before.buffer_allocs);
        assert!(after.events > before.events);

        let mut stats = SimStats {
            buffer_reuses: 3,
            ..SimStats::default()
        };
        stats.flush();
        assert!(alloc_stats().buffer_reuses >= before.buffer_reuses + 3);
        assert_eq!(stats.buffer_reuses, 0, "a flush empties the pending counts");
    }
}

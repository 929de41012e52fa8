//! Compile once, replay per seed.
//!
//! Everything about a request's execution except its jitter draws is fixed
//! by three inputs: the platform (`PlatformConfig`, `TransferModel`, the
//! cold-start flag), the `Workflow` and the `DeploymentPlan`. A
//! [`CompiledPlan`] validates those inputs once and lays the paper's
//! stage → wrap → process → thread structure (Eq. 1–4) out as flat index
//! ranges, with every seed-independent quantity resolved in advance:
//! sandbox CPUs, isolation flags and stretched base segments, the base
//! transfer, IPC and dispatch costs, each process's output bytes, the shm
//! placement, and which wraps are a sandbox's first use (its cold start).
//!
//! A replay then only draws jitter — in exactly the order the
//! interpretive executor drew it — runs the fluid engine over the flat
//! thread ranges and writes the [`RequestOutcome`]. Each draw is one
//! `next_u64` and one interpolated lookup in the platform's
//! [`JitterTables`].
//!
//! Spans are built in [`ReplayScratch`]'s per-lane buffers, which are
//! cleared and never freed, so they keep their capacity from one replay
//! to the next: a thread's buffer gets its pre-execution spans, then the
//! engine appends its Exec / Io / GilWait spans. At each wrap's end the
//! lanes are copied, in thread order, into the outcome's one span buffer,
//! each followed by its IPC and store-write spans, and each timeline
//! records its range there. A replay allocates three vectors: the
//! timelines, the spans and the stage windows.

use crate::fluid::{simulate, FluidScratch, Lane, Sandbox};
use crate::jitter::{Jitter, JitterTables};
use crate::platform::REQUEST_PAYLOAD_BYTES;
use crate::span::{FunctionTimeline, RequestOutcome, Span, SpanKind};
use chiron_isolation::IsolationCosts;
use chiron_model::plan::ProcessSpawn;
use chiron_model::{
    DeploymentPlan, FunctionId, NodePlacement, PlanError, PlatformConfig, RuntimeKind, SandboxId,
    SchedulingKind, Segment, SimDuration, SimTime, TransferKind, Workflow,
};
use chiron_store::TransferModel;
use std::ops::Range;

/// A plan compiled against one platform and workflow. The inputs are kept
/// by value: [`compiled_for`](Self::compiled_for) is the cache key.
#[derive(Debug)]
pub(crate) struct CompiledPlan {
    config: PlatformConfig,
    transfer: TransferModel,
    cold_starts: bool,
    workflow: Workflow,
    plan: DeploymentPlan,
    stages: Vec<StageCode>,
    wraps: Vec<WrapCode>,
    procs: Vec<ProcCode>,
    threads: Vec<ThreadCode>,
    /// Every thread's base segments, isolation stretch applied, in thread
    /// order; a replay jitters them into a buffer with the same indices.
    segments: Vec<Segment>,
}

/// Up to three base costs, each jittered as one communication draw, in
/// order, and summed.
#[derive(Debug, Clone, Copy)]
struct CommDraws {
    len: usize,
    base: [SimDuration; 3],
}

impl CommDraws {
    const NONE: CommDraws = CommDraws {
        len: 0,
        base: [SimDuration::ZERO; 3],
    };

    fn of(base: &[SimDuration]) -> CommDraws {
        let mut draws = CommDraws::NONE;
        draws.base[..base.len()].copy_from_slice(base);
        draws.len = base.len();
        draws
    }

    fn draw(&self, jit: &mut Jitter) -> SimDuration {
        self.base[..self.len].iter().map(|&d| jit.comm(d)).sum()
    }
}

#[derive(Debug)]
struct StageCode {
    wraps: Range<usize>,
    /// Control handoff from the previous stage's primary wrap in another
    /// pre-deployed sandbox (empty otherwise).
    handoff: CommDraws,
    /// Every function's store read of the stage input (store-based
    /// transfer, stages after the first).
    read: Option<SimDuration>,
}

#[derive(Debug)]
struct WrapCode {
    sandbox: SandboxId,
    cpus: u32,
    procs: Range<usize>,
    threads: Range<usize>,
    /// Invocation delay after the stage start (Eq. 2 / the gateway).
    invoke: CommDraws,
    /// First use of the sandbox in a request, on a cold-start platform.
    cold_start: bool,
    /// Result return to the stage's primary wrap; `None` for the primary
    /// of a pre-deployed stage.
    ret: Option<SimDuration>,
}

#[derive(Debug)]
enum Spawn {
    Fork,
    /// A pool dispatch and its payload transfer.
    Pool {
        payload: SimDuration,
    },
    MainReuse,
}

#[derive(Debug)]
struct ProcCode {
    spawn: Spawn,
    threads: Range<usize>,
    /// MPK/SFI domain entry, for threads sharing an address space.
    iso_startup: Option<SimDuration>,
    /// Draining the process's results to the orchestrator (Eq. 3).
    drain: SimDuration,
}

#[derive(Debug)]
struct ThreadCode {
    function: FunctionId,
    /// Index of the thread's process within its wrap (its GIL domain).
    process: usize,
    /// Whether the process's IPC span is recorded on this thread.
    first_in_process: bool,
    segments: Range<usize>,
    /// The store write of the function's output (store-based transfer,
    /// stages before the last).
    write: Option<SimDuration>,
}

/// Reusable per-replay buffers.
#[derive(Debug, Default)]
pub(crate) struct ReplayScratch {
    /// The request's jittered segments, indexed like
    /// `CompiledPlan::segments`.
    segments: Vec<Segment>,
    lanes: Vec<Lane>,
    /// The pre-execution spans every thread of the current process starts
    /// with.
    prefix: Vec<Span>,
    /// One span buffer per lane of the current wrap (the first
    /// `lanes.len()` are in use). Cleared, never freed.
    spans: Vec<Vec<Span>>,
    /// Each process's completion and index, sorted into drain order.
    proc_end: Vec<(SimTime, usize)>,
    ipc: Vec<Option<Span>>,
    wrap_ends: Vec<SimTime>,
    /// The previous outcome's span count: the next outcome's capacity.
    last_spans: usize,
}

impl CompiledPlan {
    /// Validates the inputs and resolves every seed-independent quantity.
    pub(crate) fn compile(
        config: &PlatformConfig,
        transfer: &TransferModel,
        cold_starts: bool,
        workflow: &Workflow,
        plan: &DeploymentPlan,
    ) -> Result<CompiledPlan, PlanError> {
        workflow.validate().map_err(PlanError::InvalidWorkflow)?;
        let stage_sets: Vec<Vec<FunctionId>> = workflow
            .stages
            .iter()
            .map(|s| s.functions.clone())
            .collect();
        plan.validate(&stage_sets)?;
        let costs = &config.costs;
        if plan.runtime == RuntimeKind::PseudoParallel && costs.gil_switch_interval.is_zero() {
            return Err(PlanError::ZeroGilInterval);
        }

        let mut code = CompiledPlan {
            config: config.clone(),
            transfer: *transfer,
            cold_starts,
            workflow: workflow.clone(),
            plan: plan.clone(),
            stages: Vec::with_capacity(plan.stages.len()),
            wraps: Vec::new(),
            procs: Vec::new(),
            threads: Vec::with_capacity(workflow.function_count()),
            segments: Vec::new(),
        };
        let iso = IsolationCosts::for_kind(plan.isolation);
        let shm = plan.transfer == TransferKind::ShmRing;
        let store_based = !matches!(
            plan.transfer,
            TransferKind::RpcPayload | TransferKind::ShmRing
        );
        let predeployed = plan.scheduling == SchedulingKind::PreDeployed;
        // Locality only matters to the shm-ring tier; every other kind
        // prices independently of placement.
        let placement = shm.then(|| NodePlacement::first_fit(plan, costs.node_cpus));
        let colocated =
            |a: SandboxId, b: SandboxId| placement.as_ref().is_some_and(|p| p.colocated(a, b));
        let last_stage = plan.stages.len() - 1;
        let mut used: Vec<SandboxId> = Vec::new();
        let mut prev_primary = None;

        for (si, stage) in plan.stages.iter().enumerate() {
            let input = if si == 0 {
                REQUEST_PAYLOAD_BYTES
            } else {
                workflow.stage_output_bytes(si - 1)
            };
            let ring = transfer.shm_ring.latency(input);
            let rpc_payload = transfer.cross_sandbox(TransferKind::RpcPayload, input);
            let primary = stage.wraps[0].sandbox;
            let handoff = match prev_primary {
                // A co-located pair rides the ring: the doorbell floor
                // replaces the RPC round trip entirely.
                Some(prev) if predeployed && prev != primary && colocated(prev, primary) => {
                    CommDraws::of(&[ring])
                }
                Some(prev) if predeployed && prev != primary => {
                    CommDraws::of(&[costs.rpc, rpc_payload])
                }
                _ => CommDraws::NONE,
            };
            prev_primary = Some(primary);
            let read =
                (store_based && si > 0).then(|| transfer.cross_sandbox(plan.transfer, input));
            let write_output = store_based && si < last_stage;
            // Under the shm-ring tier a pool dispatch payload rides the
            // ring (orchestrator and worker share the node by
            // construction); otherwise it crosses a pipe.
            let payload = if shm {
                ring
            } else {
                transfer.cross_process(input)
            };

            let first_wrap = code.wraps.len();
            for (k, wrap) in stage.wraps.iter().enumerate() {
                let invoke = match plan.scheduling {
                    SchedulingKind::Asf => {
                        CommDraws::of(&[config.scheduling.asf_schedule_time(k as u32)])
                    }
                    SchedulingKind::OpenFaasGateway => CommDraws::of(&[
                        config.scheduling.openfaas_stage_overhead(k as u32 + 1),
                        costs.rpc,
                    ]),
                    SchedulingKind::PreDeployed if k == 0 => CommDraws::NONE,
                    // Invocation still costs T_INV per Eq. 2, but the
                    // payload rides the ring in place of the RPC round
                    // trip + piggy-backed copy.
                    SchedulingKind::PreDeployed if colocated(primary, wrap.sandbox) => {
                        CommDraws::of(&[costs.inv * k as u64, ring])
                    }
                    SchedulingKind::PreDeployed => {
                        CommDraws::of(&[costs.inv * k as u64, costs.rpc, rpc_payload])
                    }
                };
                let first_use = !used.contains(&wrap.sandbox);
                if first_use {
                    used.push(wrap.sandbox);
                }
                let ret = if !predeployed {
                    Some(costs.rpc)
                } else if k == 0 {
                    None
                } else if colocated(wrap.sandbox, primary) {
                    // Result notification over the ring: doorbell only.
                    Some(transfer.shm_ring.floor)
                } else {
                    Some(costs.rpc)
                };
                let cpus = plan.sandbox(wrap.sandbox).expect("validated plan").cpus;

                let (first_proc, first_thread) = (code.procs.len(), code.threads.len());
                for (pi, proc) in wrap.processes.iter().enumerate() {
                    // MPK/SFI isolation wraps thread execution: it applies
                    // wherever a function shares an address space (the
                    // orchestrator's process, or a multi-function
                    // process). A forked or pooled process hosting a
                    // single function is isolated by the process boundary
                    // itself.
                    let isolated =
                        proc.spawn == ProcessSpawn::MainReuse || proc.functions.len() > 1;
                    let out_bytes: u64 = proc
                        .functions
                        .iter()
                        .map(|&fid| workflow.function(fid).output_bytes)
                        .sum();
                    // Processes of one wrap share a node: under the
                    // shm-ring tier the drain rides the ring (its floor
                    // replaces T_IPC's pipe write).
                    let drain = if shm {
                        transfer.shm_ring.latency(out_bytes)
                    } else {
                        costs.ipc_pipe + transfer.cross_process(out_bytes)
                    };
                    let spawn = match proc.spawn {
                        ProcessSpawn::Fork => Spawn::Fork,
                        ProcessSpawn::Pool => Spawn::Pool { payload },
                        ProcessSpawn::MainReuse => Spawn::MainReuse,
                    };
                    let iso_startup = (isolated && !iso.startup.is_zero()).then_some(iso.startup);
                    let proc_threads = code.threads.len();
                    for (ti, &fid) in proc.functions.iter().enumerate() {
                        let spec = workflow.function(fid);
                        let from = code.segments.len();
                        code.segments.extend(spec.segments.iter().map(|&seg| {
                            let stretched = if isolated {
                                iso.stretch_segment(seg)
                            } else {
                                seg.duration()
                            };
                            match seg {
                                Segment::Cpu(_) => Segment::Cpu(stretched),
                                Segment::Block { kind, .. } => Segment::Block {
                                    kind,
                                    dur: stretched,
                                },
                            }
                        }));
                        code.threads.push(ThreadCode {
                            function: fid,
                            process: pi,
                            first_in_process: ti == 0,
                            segments: from..code.segments.len(),
                            write: write_output
                                .then(|| transfer.cross_sandbox(plan.transfer, spec.output_bytes)),
                        });
                    }
                    code.procs.push(ProcCode {
                        spawn,
                        threads: proc_threads..code.threads.len(),
                        iso_startup,
                        drain,
                    });
                }
                code.wraps.push(WrapCode {
                    sandbox: wrap.sandbox,
                    cpus,
                    procs: first_proc..code.procs.len(),
                    threads: first_thread..code.threads.len(),
                    invoke,
                    cold_start: cold_starts && first_use,
                    ret,
                });
            }
            code.stages.push(StageCode {
                wraps: first_wrap..code.wraps.len(),
                handoff,
                read,
            });
        }
        Ok(code)
    }

    /// Whether this plan was compiled from inputs equal by value to these.
    pub(crate) fn compiled_for(
        &self,
        config: &PlatformConfig,
        transfer: &TransferModel,
        cold_starts: bool,
        workflow: &Workflow,
        plan: &DeploymentPlan,
    ) -> bool {
        self.cold_starts == cold_starts
            && self.config == *config
            && self.transfer == *transfer
            && self.plan == *plan
            && self.workflow == *workflow
    }

    /// Executes one request; `seed` drives the jitter model, whose
    /// sampling tables are `tables`.
    pub(crate) fn replay(
        &self,
        seed: u64,
        tables: &JitterTables,
        replay: &mut ReplayScratch,
        fluid: &mut FluidScratch,
    ) -> RequestOutcome {
        let mut jit = Jitter::new(tables, seed);
        let unset = FunctionTimeline {
            function: FunctionId(0),
            sandbox: SandboxId(0),
            stage: 0,
            dispatched: SimTime::ZERO,
            exec_start: SimTime::ZERO,
            completed: SimTime::ZERO,
            spans: 0..0,
        };
        // A validated workflow runs every function exactly once, so every
        // slot is overwritten.
        let mut timelines = vec![unset; self.workflow.function_count()];
        let mut spans = Vec::with_capacity(replay.last_spans);
        let mut stage_windows = Vec::with_capacity(self.stages.len());
        replay.segments.clear();
        let mut t = SimTime::ZERO;

        for (si, stage) in self.stages.iter().enumerate() {
            t += stage.handoff.draw(&mut jit);
            let stage_start = t;
            let mut wrap_ends = std::mem::take(&mut replay.wrap_ends);
            wrap_ends.clear();
            for wrap in &self.wraps[stage.wraps.clone()] {
                let end = self.replay_wrap(
                    (si, stage),
                    wrap,
                    stage_start,
                    &mut jit,
                    replay,
                    fluid,
                    (&mut timelines, &mut spans),
                );
                wrap_ends.push(end);
            }

            // ---- stage completion (Eq. 2) -------------------------------
            let mut stage_end = SimTime::ZERO;
            for (wrap, &end) in self.wraps[stage.wraps.clone()].iter().zip(&wrap_ends) {
                let e = match wrap.ret {
                    Some(ret) => end + jit.comm(ret),
                    None => end,
                };
                stage_end = stage_end.max(e);
            }
            replay.wrap_ends = wrap_ends;
            t = stage_end;
            stage_windows.push((stage_start, stage_end));
        }

        fluid.stats.flush();
        replay.last_spans = spans.len();
        RequestOutcome {
            e2e: t.since(SimTime::ZERO),
            timelines,
            spans,
            stage_windows,
        }
    }

    /// Executes one wrap, writing its timelines and appending their spans
    /// to the outcome's (`out`), and returns the instant its result set
    /// is complete inside its sandbox.
    #[allow(clippy::too_many_arguments)]
    fn replay_wrap(
        &self,
        (si, stage): (usize, &StageCode),
        wrap: &WrapCode,
        stage_start: SimTime,
        jit: &mut Jitter,
        replay: &mut ReplayScratch,
        fluid: &mut FluidScratch,
        (timelines, out): (&mut [FunctionTimeline], &mut Vec<Span>),
    ) -> SimTime {
        let costs = &self.config.costs;
        let ReplayScratch {
            segments,
            lanes,
            prefix,
            spans,
            proc_end,
            ipc,
            ..
        } = replay;
        lanes.clear();

        // ---- invocation time of this wrap -------------------------------
        let mut avail = stage_start + wrap.invoke.draw(jit);
        if wrap.cold_start {
            avail += jit.startup(costs.sandbox_cold_start);
        }

        // ---- process materialisation (Eq. 4) ----------------------------
        let procs = &self.procs[wrap.procs.clone()];
        let mut cum_block = SimDuration::ZERO;
        let mut forked_before = false;
        for (pi, proc) in procs.iter().enumerate() {
            prefix.clear();
            if avail > stage_start {
                prefix.push(Span {
                    kind: SpanKind::Scheduled,
                    start: stage_start,
                    end: avail,
                });
            }
            let mut cursor = avail;
            match proc.spawn {
                Spawn::Fork => {
                    if forked_before {
                        cum_block += jit.startup(costs.process_block);
                    }
                    forked_before = true;
                    if !cum_block.is_zero() {
                        push_span(prefix, SpanKind::BlockWait, &mut cursor, cum_block);
                    }
                    let startup = jit.startup(costs.process_startup);
                    push_span(prefix, SpanKind::Startup, &mut cursor, startup);
                }
                Spawn::Pool { payload } => {
                    let dispatch = jit.startup(costs.pool_dispatch) + jit.comm(payload);
                    push_span(prefix, SpanKind::Startup, &mut cursor, dispatch);
                }
                Spawn::MainReuse => {}
            }
            let proc_ready = cursor;

            for (ti, thread) in self.threads[proc.threads.clone()].iter().enumerate() {
                // A lane's buffer gets its process's prefix and its own
                // pre-execution spans now, the engine's spans during the
                // simulation.
                if spans.len() == lanes.len() {
                    spans.push(Vec::new());
                }
                let own = &mut spans[lanes.len()];
                own.clear();
                own.extend_from_slice(prefix);
                let mut cursor = proc_ready;
                if ti > 0 {
                    // Threads are cloned serially by the process main.
                    let clone_cost = jit.startup(costs.thread_clone) * ti as u64;
                    push_span(own, SpanKind::Startup, &mut cursor, clone_cost);
                }
                if let Some(iso_startup) = proc.iso_startup {
                    let entry = jit.startup(iso_startup);
                    push_span(own, SpanKind::Startup, &mut cursor, entry);
                }
                if let Some(read) = stage.read {
                    let read = jit.comm(read);
                    push_span(own, SpanKind::TransferIn, &mut cursor, read);
                }
                debug_assert_eq!(segments.len(), thread.segments.start);
                segments.extend(self.segments[thread.segments.clone()].iter().map(
                    |&seg| match seg {
                        Segment::Cpu(d) => Segment::Cpu(jit.cpu(d)),
                        Segment::Block { kind, dur } => Segment::Block {
                            kind,
                            dur: jit.io(dur),
                        },
                    },
                ));
                lanes.push(Lane {
                    process: pi,
                    start: cursor,
                    segments: thread.segments.clone(),
                });
            }
        }

        let sandbox = Sandbox {
            cpus: wrap.cpus,
            runtime: self.plan.runtime,
            gil_interval: costs.gil_switch_interval,
        };
        let spans = &mut spans[..lanes.len()];
        let ends = simulate(lanes, segments, procs.len(), sandbox, fluid, spans);
        let threads = &self.threads[wrap.threads.clone()];

        // ---- per-process completion and IPC drain (Eq. 3) ---------------
        proc_end.clear();
        proc_end.extend((0..procs.len()).map(|p| (SimTime::ZERO, p)));
        for (thread, result) in threads.iter().zip(ends) {
            let end = &mut proc_end[thread.process].0;
            *end = (*end).max(result.end);
        }
        // Ascending completion, ties in process order.
        proc_end.sort_unstable();
        let mut drain = SimTime::ZERO;
        ipc.clear();
        ipc.resize(procs.len(), None);
        for (rank, &(end, p)) in proc_end.iter().enumerate() {
            if rank == 0 {
                drain = end;
                continue;
            }
            let start = drain.max(end);
            drain = start + jit.comm(procs[p].drain);
            ipc[p] = Some(Span {
                kind: SpanKind::Ipc,
                start,
                end: drain,
            });
        }
        let mut wrap_end = drain;

        // ---- assemble timelines -----------------------------------------
        for ((thread, result), own) in threads.iter().zip(ends).zip(spans.iter()) {
            let from = out.len();
            out.extend_from_slice(own);
            let mut completed = result.end;
            // The IPC span attaches to the process's first function.
            if let Some(ipc) = ipc[thread.process].filter(|_| thread.first_in_process) {
                out.push(ipc);
            }
            if let Some(write) = thread.write {
                // The write starts when the function's own result exists.
                let write = jit.comm(write);
                let mut cursor = completed;
                push_span(out, SpanKind::TransferOut, &mut cursor, write);
                completed = cursor;
                wrap_end = wrap_end.max(completed);
            }
            let timeline = FunctionTimeline {
                function: thread.function,
                sandbox: wrap.sandbox,
                stage: si,
                dispatched: stage_start,
                exec_start: result.exec_start,
                completed,
                spans: span_index(from)..span_index(out.len()),
            };
            if chiron_obs::tracing_enabled() {
                emit_des_window(&timeline, &out[from..]);
            }
            timelines[thread.function.index()] = timeline;
        }
        wrap_end
    }
}

/// A position in an outcome's span buffer, as a timeline's range stores it.
pub(crate) fn span_index(len: usize) -> u32 {
    u32::try_from(len).expect("a request records fewer than 2^32 spans")
}

/// Appends a `kind` span of length `d` at `*cursor` and moves the cursor
/// to its end.
fn push_span(spans: &mut Vec<Span>, kind: SpanKind, cursor: &mut SimTime, d: SimDuration) {
    let end = *cursor + d;
    spans.push(Span {
        kind,
        start: *cursor,
        end,
    });
    *cursor = end;
}

/// Tracing hook: reports one function's DES window and its §2.2
/// component breakdown (startup / block / interaction / execution) for
/// latency attribution; `spans` are the function's own. The reference
/// engine stays uninstrumented.
fn emit_des_window(timeline: &FunctionTimeline, spans: &[Span]) {
    let dispatched_ns = timeline.dispatched.as_nanos();
    let rel =
        |t: SimTime| u32::try_from(t.as_nanos().saturating_sub(dispatched_ns)).unwrap_or(u32::MAX);
    chiron_obs::emit(
        dispatched_ns,
        chiron_obs::TraceEventKind::DesSpan {
            function: timeline.function.0 as u16,
            sandbox: timeline.sandbox.0 as u16,
            stage: timeline.stage as u16,
            spans: spans.len().min(u16::MAX as usize) as u16,
            exec_rel_ns: rel(timeline.exec_start),
            complete_rel_ns: rel(timeline.completed),
        },
    );
    let mut parts = [0u64; 4];
    for span in spans {
        let slot = match span.kind {
            SpanKind::Startup => 0,
            SpanKind::BlockWait | SpanKind::GilWait | SpanKind::Scheduled => 1,
            SpanKind::TransferIn | SpanKind::TransferOut | SpanKind::Ipc => 2,
            SpanKind::Exec | SpanKind::Io => 3,
        };
        parts[slot] += span.end.since(span.start).as_nanos();
    }
    let sat = |ns: u64| u32::try_from(ns).unwrap_or(u32::MAX);
    chiron_obs::emit(
        dispatched_ns,
        chiron_obs::TraceEventKind::DesBreakdown {
            function: timeline.function.0 as u16,
            stage: timeline.stage as u16,
            startup_ns: sat(parts[0]),
            blocked_ns: sat(parts[1]),
            interaction_ns: sat(parts[2]),
            exec_ns: sat(parts[3]),
        },
    );
}

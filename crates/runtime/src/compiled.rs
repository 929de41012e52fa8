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
//! interpretive executor drew it — runs each wrap's threads and writes the
//! [`RequestOutcome`]. Each draw is one `next_u64` and one interpolated
//! lookup in the platform's [`JitterTables`].
//!
//! **Alone wraps: one pass.** When no process of a wrap hosts two threads
//! under the GIL and its threads fit its CPUs (or are one), the fluid
//! engine would run each thread alone; `compile` reads that off the plan.
//! Such a wrap is replayed in one pass over its threads: the pre-execution
//! spans are drawn, then the thread's segments' jitter, and the engine's
//! `run_alone` writes its `Exec` / `Io` spans straight into the outcome's
//! span buffer, adding each thread's instants to the event count as the
//! engine adds each domain's. A thread leaves a slot for its IPC span (if
//! first in its process, in a wrap of two or more processes) and one for
//! its store write. Then the processes drain in completion order, the
//! slots are filled (writes drawn after the drains, in thread order), and
//! the first-completing process's empty IPC slot goes with one
//! `Vec::remove`, shifting the later threads' ranges.
//! Draws and spans match the engine path byte for byte.
//!
//! **Other wraps: the engine.** Their spans are built in
//! [`ReplayScratch`]'s per-lane buffers, cleared and never freed: a
//! thread's buffer gets its pre-execution spans, then the engine appends
//! its Exec / Io / GilWait spans over the wrap's jittered segments. At the
//! wrap's end the lanes are copied, in thread order, into the outcome's
//! span buffer, each followed by its IPC and store-write spans.
//!
//! Both paths sort the drain order as packed `end << bits | process` keys.
//! A replay allocates three vectors: the timelines, the spans (sized by the
//! previous replay's count, plus the slot an alone wrap holds until its
//! end) and the stage windows.

use crate::fluid::{run_alone, simulate, FluidScratch, Lane, Sandbox};
use crate::jitter::{Jitter, JitterTables};
use crate::platform::REQUEST_PAYLOAD_BYTES;
use crate::span::{FunctionTimeline, RequestOutcome, Span, SpanKind};
use chiron_isolation::IsolationCosts;
use chiron_model::plan::ProcessSpawn;
use chiron_model::{
    DeploymentPlan, FunctionId, IsolationKind, NodePlacement, PlanError, PlatformConfig,
    RuntimeKind, SandboxId, SandboxPlan, SchedulingKind, Segment, SimDuration, SimTime,
    TransferKind, Workflow,
};
use chiron_store::TransferModel;
use std::ops::Range;

/// A plan compiled against one platform and workflow. The inputs are kept
/// by value, the workflow and the plan as the fields compiling reads:
/// [`compiled_for`](Self::compiled_for) is the cache key.
#[derive(Debug)]
pub(crate) struct CompiledPlan {
    config: PlatformConfig,
    transfer: TransferModel,
    cold_starts: bool,
    workflow: WorkflowKey,
    plan: PlanKey,
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
    /// No process hosts two threads under the GIL, and the threads fit
    /// the CPUs (or are one): the engine would run each thread alone, so
    /// the replay does it in one pass (see the module doc).
    alone: bool,
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
    /// The current engine wrap's jittered segments, which its lanes index.
    segments: Vec<Segment>,
    lanes: Vec<Lane>,
    /// The pre-execution spans every thread of the current process starts
    /// with.
    prefix: Vec<Span>,
    /// One span buffer per lane of the current wrap (the first
    /// `lanes.len()` are in use). Cleared, never freed.
    spans: Vec<Vec<Span>>,
    /// Each process's completion.
    proc_end: Vec<SimTime>,
    /// The processes in drain order (see [`drain_order`]).
    order: Vec<u64>,
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
            workflow: WorkflowKey::of(workflow),
            plan: PlanKey::of(plan),
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
                // The engine runs each thread alone unless a process hosts
                // two threads under the GIL or the threads outnumber the
                // CPUs (`fluid::simulate`'s test, read off the plan).
                let lanes = code.threads.len() - first_thread;
                let gil = plan.runtime == RuntimeKind::PseudoParallel
                    && code.procs[first_proc..].iter().any(|p| p.threads.len() > 1);
                code.wraps.push(WrapCode {
                    sandbox: wrap.sandbox,
                    cpus,
                    alone: !gil && (lanes <= cpus as usize || lanes == 1),
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

    /// Whether this plan was compiled from inputs equal by value to these
    /// (the workflow and the plan in the fields compiling reads).
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
            && self.plan.matches(plan)
            && self.workflow.matches(workflow)
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
        // A validated workflow runs every function exactly once, as one
        // thread, so every slot is overwritten.
        let mut timelines = vec![unset; self.threads.len()];
        // An alone wrap holds one slot more than it keeps until its end.
        let mut spans = Vec::with_capacity(replay.last_spans + 1);
        let mut stage_windows = Vec::with_capacity(self.stages.len());
        let mut t = SimTime::ZERO;

        for (si, stage) in self.stages.iter().enumerate() {
            t += stage.handoff.draw(&mut jit);
            let stage_start = t;
            let mut wrap_ends = std::mem::take(&mut replay.wrap_ends);
            wrap_ends.clear();
            for wrap in &self.wraps[stage.wraps.clone()] {
                let at = (si, stage, stage_start);
                let out = (&mut timelines[..], &mut spans);
                let end = if wrap.alone {
                    self.replay_alone(at, wrap, &mut jit, replay, fluid, out)
                } else {
                    self.replay_wrap(at, wrap, &mut jit, replay, fluid, out)
                };
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

    /// Replays an alone wrap in one pass (see the module doc), writing its
    /// timelines and appending their spans to the outcome's (`out`), and
    /// returns the instant its result set is complete inside its sandbox.
    fn replay_alone(
        &self,
        (si, stage, stage_start): (usize, &StageCode, SimTime),
        wrap: &WrapCode,
        jit: &mut Jitter,
        replay: &mut ReplayScratch,
        fluid: &mut FluidScratch,
        (timelines, out): (&mut [FunctionTimeline], &mut Vec<Span>),
    ) -> SimTime {
        let ReplayScratch {
            segments,
            prefix,
            proc_end,
            order,
            ..
        } = replay;
        let threads = &self.threads[wrap.threads.clone()];
        let mut events = 0;

        let avail = self.invoke(wrap, stage_start, jit);
        let procs = &self.procs[wrap.procs.clone()];
        proc_end.clear();
        proc_end.resize(procs.len(), SimTime::ZERO);
        // A lone process completes first and pipes nothing: no IPC slots.
        let piped = procs.len() > 1;
        let mut forks = (SimDuration::ZERO, false);
        for (proc, proc_end) in procs.iter().zip(proc_end.iter_mut()) {
            let ready = self.materialise(proc, stage_start, avail, &mut forks, jit, prefix);
            for (ti, thread) in self.threads[proc.threads.clone()].iter().enumerate() {
                let from = out.len();
                push_prefix(out, prefix);
                let start = self.thread_start(stage, proc, ti, ready, jit, out);
                segments.clear();
                self.jitter(thread, jit, segments);
                let lane = Lane {
                    process: 0,
                    start,
                    segments: 0..segments.len(),
                };
                let end = run_alone(&lane, segments, out, &mut events);
                *proc_end = (*proc_end).max(end.end);
                // Slots for the IPC and store-write spans, filled below.
                let slots = usize::from(piped && thread.first_in_process)
                    + usize::from(thread.write.is_some());
                out.resize(out.len() + slots, SLOT);
                timelines[thread.function.index()] = FunctionTimeline {
                    function: thread.function,
                    sandbox: wrap.sandbox,
                    stage: si,
                    dispatched: stage_start,
                    exec_start: end.exec_start,
                    completed: end.end,
                    spans: span_index(from)..span_index(out.len()),
                };
            }
        }
        fluid.stats.events += events;

        // A validated plan has no empty process, so each has a first thread.
        let mut wrap_end = drain(procs, proc_end, order, jit, |p, ipc| {
            let first = &self.threads[procs[p].threads.start];
            out[ipc_slot(&timelines[first.function.index()], first)] = ipc;
        });
        for thread in threads {
            if let Some(write) = thread.write {
                // The write starts when the function's own result exists.
                let timeline = &mut timelines[thread.function.index()];
                let mut cursor = timeline.completed;
                let write = jit.comm(write);
                let slot = timeline.spans.end as usize - 1;
                out[slot] = Span {
                    kind: SpanKind::TransferOut,
                    start: cursor,
                    end: cursor + write,
                };
                cursor += write;
                timeline.completed = cursor;
                wrap_end = wrap_end.max(cursor);
            }
        }
        // The first process to complete pipes nothing: drop its IPC slot.
        if let Some(&p) = order.first().filter(|_| piped) {
            let first = procs[p as usize].threads.start;
            let thread = &self.threads[first];
            let timeline = &mut timelines[thread.function.index()];
            out.remove(ipc_slot(timeline, thread));
            timeline.spans.end -= 1;
            for later in &self.threads[first + 1..wrap.threads.end] {
                let spans = &mut timelines[later.function.index()].spans;
                *spans = spans.start - 1..spans.end - 1;
            }
        }
        wrap_end
    }

    /// Executes a wrap the engine must simulate (a process hosts two
    /// threads under the GIL, or the threads outnumber the CPUs), writing
    /// its timelines and appending their spans to the outcome's (`out`),
    /// and returns the instant its result set is complete inside its
    /// sandbox.
    fn replay_wrap(
        &self,
        (si, stage, stage_start): (usize, &StageCode, SimTime),
        wrap: &WrapCode,
        jit: &mut Jitter,
        replay: &mut ReplayScratch,
        fluid: &mut FluidScratch,
        (timelines, out): (&mut [FunctionTimeline], &mut Vec<Span>),
    ) -> SimTime {
        let ReplayScratch {
            segments,
            lanes,
            prefix,
            spans,
            proc_end,
            order,
            ipc,
            ..
        } = replay;
        lanes.clear();
        segments.clear();

        let avail = self.invoke(wrap, stage_start, jit);
        let procs = &self.procs[wrap.procs.clone()];
        let mut forks = (SimDuration::ZERO, false);
        for (pi, proc) in procs.iter().enumerate() {
            let ready = self.materialise(proc, stage_start, avail, &mut forks, jit, prefix);
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
                let start = self.thread_start(stage, proc, ti, ready, jit, own);
                let from = segments.len();
                self.jitter(thread, jit, segments);
                lanes.push(Lane {
                    process: pi,
                    start,
                    segments: from..segments.len(),
                });
            }
        }

        let sandbox = Sandbox {
            cpus: wrap.cpus,
            runtime: self.plan.runtime,
            gil_interval: self.config.costs.gil_switch_interval,
        };
        let spans = &mut spans[..lanes.len()];
        let ends = simulate(lanes, segments, procs.len(), sandbox, fluid, spans);
        let threads = &self.threads[wrap.threads.clone()];

        proc_end.clear();
        proc_end.resize(procs.len(), SimTime::ZERO);
        for (thread, result) in threads.iter().zip(ends) {
            let end = &mut proc_end[thread.process];
            *end = (*end).max(result.end);
        }
        ipc.clear();
        ipc.resize(procs.len(), None);
        let mut wrap_end = drain(procs, proc_end, order, jit, |p, span| ipc[p] = Some(span));

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
            timelines[thread.function.index()] = FunctionTimeline {
                function: thread.function,
                sandbox: wrap.sandbox,
                stage: si,
                dispatched: stage_start,
                exec_start: result.exec_start,
                completed,
                spans: span_index(from)..span_index(out.len()),
            };
        }
        wrap_end
    }

    // The helpers below serve both replay paths and are inlined into each:
    // as calls they cost the suite's replays ~7% (in-process A/B).

    /// Draws the wrap's invocation after the stage start (and its cold
    /// start), and returns when its sandbox begins materialising processes.
    #[inline(always)]
    fn invoke(&self, wrap: &WrapCode, stage_start: SimTime, jit: &mut Jitter) -> SimTime {
        let mut avail = stage_start + wrap.invoke.draw(jit);
        if wrap.cold_start {
            avail += jit.startup(self.config.costs.sandbox_cold_start);
        }
        avail
    }

    /// Draws `proc`'s materialisation (Eq. 4) into `prefix`, the spans
    /// every thread of the process starts with, and returns when the
    /// process is ready. `forks` carries the wrap's summed block wait and
    /// whether a fork came before.
    #[inline(always)]
    fn materialise(
        &self,
        proc: &ProcCode,
        stage_start: SimTime,
        avail: SimTime,
        (cum_block, forked_before): &mut (SimDuration, bool),
        jit: &mut Jitter,
        prefix: &mut Vec<Span>,
    ) -> SimTime {
        let costs = &self.config.costs;
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
                if *forked_before {
                    *cum_block += jit.startup(costs.process_block);
                }
                *forked_before = true;
                if !cum_block.is_zero() {
                    push_span(prefix, SpanKind::BlockWait, &mut cursor, *cum_block);
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
        cursor
    }

    /// Appends `thread`'s segments to `segments`, drawing each one's
    /// jitter in order.
    #[inline(always)]
    fn jitter(&self, thread: &ThreadCode, jit: &mut Jitter, segments: &mut Vec<Segment>) {
        let base = &self.segments[thread.segments.clone()];
        segments.extend(base.iter().map(|&seg| match seg {
            Segment::Cpu(d) => Segment::Cpu(jit.cpu(d)),
            Segment::Block { kind, dur } => Segment::Block {
                kind,
                dur: jit.io(dur),
            },
        }));
    }

    /// Draws the pre-execution spans of thread `ti` of `proc` onto `spans`
    /// from its process's `ready` instant, and returns when the thread
    /// begins its first segment.
    #[inline(always)]
    fn thread_start(
        &self,
        stage: &StageCode,
        proc: &ProcCode,
        ti: usize,
        ready: SimTime,
        jit: &mut Jitter,
        spans: &mut Vec<Span>,
    ) -> SimTime {
        let costs = &self.config.costs;
        let mut cursor = ready;
        if ti > 0 {
            // Threads are cloned serially by the process main.
            let clone_cost = jit.startup(costs.thread_clone) * ti as u64;
            push_span(spans, SpanKind::Startup, &mut cursor, clone_cost);
        }
        if let Some(iso_startup) = proc.iso_startup {
            let entry = jit.startup(iso_startup);
            push_span(spans, SpanKind::Startup, &mut cursor, entry);
        }
        if let Some(read) = stage.read {
            let read = jit.comm(read);
            push_span(spans, SpanKind::TransferIn, &mut cursor, read);
        }
        cursor
    }
}

/// The workflow fields [`CompiledPlan::compile`] and `Workflow::validate`
/// read, flattened: each stage's function ids, and each function's
/// segments and output bytes. A name, written files, working set, class or
/// language runtime changes no output of a replay, so it is not compared.
#[derive(Debug, Default)]
struct WorkflowKey {
    stages: Vec<Range<usize>>,
    stage_functions: Vec<FunctionId>,
    /// Per function: its range in `segments`, and its output bytes.
    functions: Vec<(Range<usize>, u64)>,
    segments: Vec<Segment>,
}

impl WorkflowKey {
    fn of(workflow: &Workflow) -> WorkflowKey {
        let mut key = WorkflowKey::default();
        for stage in &workflow.stages {
            let from = key.stage_functions.len();
            key.stage_functions.extend_from_slice(&stage.functions);
            key.stages.push(from..key.stage_functions.len());
        }
        for function in &workflow.functions {
            let from = key.segments.len();
            key.segments.extend_from_slice(&function.segments);
            let segments = from..key.segments.len();
            key.functions.push((segments, function.output_bytes));
        }
        key
    }

    fn matches(&self, workflow: &Workflow) -> bool {
        let mut stages = workflow.stages.iter().zip(&self.stages);
        let mut functions = workflow.functions.iter().zip(&self.functions);
        workflow.stages.len() == self.stages.len()
            && workflow.functions.len() == self.functions.len()
            && stages.all(|(stage, ids)| stage.functions[..] == self.stage_functions[ids.clone()])
            && functions.all(|(function, (segments, output_bytes))| {
                function.output_bytes == *output_bytes
                    && function.segments[..] == self.segments[segments.clone()]
            })
    }
}

/// The plan fields [`CompiledPlan::compile`] and `DeploymentPlan::validate`
/// read, flattened: the runtime, isolation, transfer and scheduling kinds,
/// each sandbox's id, CPUs and pool size, each wrap's sandbox, and each
/// process's spawn and function ids. The system and the workflow name
/// change no output of a replay, so they are not compared.
#[derive(Debug)]
struct PlanKey {
    runtime: RuntimeKind,
    isolation: IsolationKind,
    transfer: TransferKind,
    scheduling: SchedulingKind,
    sandboxes: Vec<SandboxPlan>,
    /// Per stage: its range in `wraps`.
    stages: Vec<Range<usize>>,
    /// Per wrap: its sandbox, and its range in `processes`.
    wraps: Vec<(SandboxId, Range<usize>)>,
    /// Per process: its spawn, and its range in `functions`.
    processes: Vec<(ProcessSpawn, Range<usize>)>,
    functions: Vec<FunctionId>,
}

impl PlanKey {
    fn of(plan: &DeploymentPlan) -> PlanKey {
        let mut key = PlanKey {
            runtime: plan.runtime,
            isolation: plan.isolation,
            transfer: plan.transfer,
            scheduling: plan.scheduling,
            sandboxes: plan.sandboxes.clone(),
            stages: Vec::with_capacity(plan.stages.len()),
            wraps: Vec::new(),
            processes: Vec::new(),
            functions: Vec::new(),
        };
        for stage in &plan.stages {
            let wraps = key.wraps.len();
            for wrap in &stage.wraps {
                let processes = key.processes.len();
                for proc in &wrap.processes {
                    let functions = key.functions.len();
                    key.functions.extend_from_slice(&proc.functions);
                    key.processes
                        .push((proc.spawn, functions..key.functions.len()));
                }
                key.wraps
                    .push((wrap.sandbox, processes..key.processes.len()));
            }
            key.stages.push(wraps..key.wraps.len());
        }
        key
    }

    fn matches(&self, plan: &DeploymentPlan) -> bool {
        if (self.runtime, self.isolation, self.transfer, self.scheduling)
            != (plan.runtime, plan.isolation, plan.transfer, plan.scheduling)
            || self.sandboxes[..] != plan.sandboxes[..]
            || self.stages.len() != plan.stages.len()
        {
            return false;
        }
        for (stage, wraps) in plan.stages.iter().zip(&self.stages) {
            let wraps = &self.wraps[wraps.clone()];
            if stage.wraps.len() != wraps.len() {
                return false;
            }
            for (wrap, (sandbox, procs)) in stage.wraps.iter().zip(wraps) {
                let procs = &self.processes[procs.clone()];
                if wrap.sandbox != *sandbox || wrap.processes.len() != procs.len() {
                    return false;
                }
                for (proc, (spawn, functions)) in wrap.processes.iter().zip(procs) {
                    if proc.spawn != *spawn
                        || proc.functions[..] != self.functions[functions.clone()]
                    {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// What an alone wrap's IPC and store-write slots hold until filled.
const SLOT: Span = Span {
    kind: SpanKind::Ipc,
    start: SimTime::ZERO,
    end: SimTime::ZERO,
};

/// Where `thread`'s IPC slot is in an alone wrap's spans: after its own
/// spans, before its store-write slot.
fn ipc_slot(timeline: &FunctionTimeline, thread: &ThreadCode) -> usize {
    timeline.spans.end as usize - 1 - usize::from(thread.write.is_some())
}

/// Drains the results of a wrap's processes (Eq. 3) in completion order
/// (`proc_end`; `order` is scratch): the first to complete pipes nothing,
/// each later one pipes after the previous drain. Calls `ipc` with each
/// piping process and its span, and returns when the last result is in.
#[inline(always)]
fn drain(
    procs: &[ProcCode],
    proc_end: &[SimTime],
    order: &mut Vec<u64>,
    jit: &mut Jitter,
    mut ipc: impl FnMut(usize, Span),
) -> SimTime {
    drain_order(proc_end, order);
    let mut ranked = order.iter().map(|&p| p as usize);
    let Some(first) = ranked.next() else {
        return SimTime::ZERO;
    };
    let mut drain = proc_end[first];
    for p in ranked {
        let start = drain.max(proc_end[p]);
        drain = start + jit.comm(procs[p].drain);
        ipc(
            p,
            Span {
                kind: SpanKind::Ipc,
                start,
                end: drain,
            },
        );
    }
    drain
}

/// Sorts the processes into drain order, ascending completion with ties
/// in process order, as `order`'s indices. Sorts packed `end << bits | p`
/// keys, or, if some end needs more than `64 − bits` bits, the pairs. The
/// packed keys took Faastlane FINRA-100/200 (100/200 processes in one
/// wrap) ~10% faster than the pair sort of indices (2-vCPU host).
fn drain_order(ends: &[SimTime], order: &mut Vec<u64>) {
    order.clear();
    let Some(last) = ends.len().checked_sub(1) else {
        return;
    };
    let bits = usize::BITS - last.leading_zeros();
    let all = ends.iter().fold(0, |all, e| all | e.as_nanos());
    if all.leading_zeros() >= bits {
        order.extend(
            ends.iter()
                .enumerate()
                .map(|(p, e)| e.as_nanos() << bits | p as u64),
        );
        order.sort_unstable();
        let mask = (1 << bits) - 1;
        order.iter_mut().for_each(|key| *key &= mask);
    } else {
        order.extend(0..ends.len() as u64);
        order.sort_unstable_by_key(|&p| (ends[p as usize], p));
    }
}

/// Appends a process's prefix (at most its Scheduled, BlockWait and
/// Startup spans, as [`CompiledPlan::materialise`] draws them) to `out`
/// span by span: an `extend_from_slice` of these few spans is a `memcpy`
/// call per thread.
#[inline(always)]
fn push_prefix(out: &mut Vec<Span>, prefix: &[Span]) {
    match *prefix {
        [] => {}
        [a] => out.push(a),
        [a, b] => out.extend([a, b]),
        [a, b, c] => out.extend([a, b, c]),
        _ => unreachable!("a process prefix holds at most three spans"),
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

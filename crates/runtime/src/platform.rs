//! The virtual serverless platform: executes one workflow request under an
//! arbitrary [`DeploymentPlan`] and produces ground-truth latencies and
//! per-function timelines.
//!
//! The execution semantics follow the paper's system model:
//!
//! * Stages run in sequence; stage `i+1` starts when stage `i`'s primary
//!   wrap has collected every result (Eq. 1).
//! * Within a stage, wrap 1 receives the stage input and invokes wraps
//!   `k ≥ 2` over the network, paying `(k−1)·T_INV + T_RPC` (Eq. 2); every
//!   remote wrap pays a `T_RPC` on the return path.
//! * Within a wrap, forked processes queue behind each other: process `j`
//!   begins executing after `(j−1)·T_Block + T_Startup` (Eq. 4, the block
//!   overhead of Observation 2). Threads are cloned serially at thread-clone
//!   cost; pool workers only pay a dispatch cost.
//! * Results of a wrap's processes drain serially over a pipe at `T_IPC`
//!   each, except the first (Eq. 3's `(|P|−1)·T_IPC`).
//! * One-to-one systems pass intermediate data through an object store
//!   (read before execution, write after — Fig. 4's costs); wraps pass data
//!   by RPC payload, pipe, or shared memory depending on locality.
//! * CPU contention, the GIL, and true parallelism are simulated by the
//!   [`fluid`](crate::fluid) engine.
//!
//! **Compile once, replay per seed.** Only the jitter draws change from
//! one seed to the next, so [`VirtualPlatform::execute_with_scratch`]
//! compiles the plan once (validation, flat stage/wrap/process/thread
//! ranges, every base cost and the shm placement resolved) and keeps the
//! compiled plan in the caller's [`SimScratch`]. A later call reuses it
//! when the platform compares equal by value to the one it was compiled
//! for, and the workflow and the plan agree on every field compiling
//! reads — each stage's function ids, and each function's segments and
//! output bytes; the plan's runtime, isolation, transfer and scheduling
//! kinds, each sandbox's id, CPUs and pool size, each wrap's sandbox, and
//! each process's spawn and function ids — never by address, so an input
//! mutated in place recompiles and an equal copy does not; otherwise it
//! compiles anew. A workflow that differs only in a name, `writes_files`,
//! `workingset_bytes`, `class` or language runtime, or a plan that
//! differs only in its `system` or `workflow` name, reuses the compiled
//! plan: no output of a replay reads them. A reuse only draws jitter, in
//! the order the paper's semantics above consume it, and runs each wrap's
//! threads (alone in one pass, or through the fluid engine). Each draw is
//! one lookup in the jitter model's lognormal tables, which the platform
//! builds on its first execution and both engines share. The interpretive
//! path survives only as the [`execute_reference`] oracle.
//!
//! [`execute_reference`]: VirtualPlatform::execute_reference

use crate::compiled::{span_index, CompiledPlan};
use crate::fluid::ThreadTask;
use crate::jitter::{Jitter, JitterTables};
use crate::scratch::SimScratch;
use crate::span::{FunctionTimeline, RequestOutcome, Span, SpanKind};
use chiron_isolation::IsolationCosts;
use chiron_model::plan::ProcessSpawn;
use chiron_model::{
    DeploymentPlan, FunctionId, NodePlacement, PlanError, PlatformConfig, RuntimeKind, SandboxId,
    SchedulingKind, Segment, SimDuration, SimTime, TransferKind, Workflow, WrapPlan,
};
use chiron_store::TransferModel;
use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::OnceLock;

/// Size of the initial request payload entering stage 1.
pub(crate) const REQUEST_PAYLOAD_BYTES: u64 = 1 << 10;

thread_local! {
    /// Default scratch for callers that don't manage their own (one per OS
    /// thread, so sweep workers never contend).
    static SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::new());
}

/// The virtual platform.
#[derive(Debug, Clone)]
pub struct VirtualPlatform {
    config: PlatformConfig,
    transfer: TransferModel,
    include_cold_start: bool,
    /// The jitter model's sampling tables, built by the first execution
    /// (not here: a platform that never executes pays nothing for them).
    jitter_tables: OnceLock<JitterTables>,
}

impl VirtualPlatform {
    pub fn new(config: PlatformConfig) -> Self {
        VirtualPlatform {
            config,
            transfer: TransferModel::paper_calibrated(),
            include_cold_start: false,
            jitter_tables: OnceLock::new(),
        }
    }

    /// Also charge the sandbox cold start on first use (off by default: the
    /// paper measures "without cold start", §6.2).
    pub fn with_cold_starts(mut self, enabled: bool) -> Self {
        self.include_cold_start = enabled;
        self
    }

    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    fn jitter_tables(&self) -> &JitterTables {
        self.jitter_tables
            .get_or_init(|| JitterTables::new(&self.config.jitter))
    }

    /// Executes one request; `seed` drives the jitter model (ignored when
    /// jitter is off). Uses a thread-local [`SimScratch`]; callers that want
    /// explicit control over buffer reuse use
    /// [`execute_with_scratch`](Self::execute_with_scratch).
    pub fn execute(
        &self,
        workflow: &Workflow,
        plan: &DeploymentPlan,
        seed: u64,
    ) -> Result<RequestOutcome, PlanError> {
        SCRATCH.with(|s| self.execute_with_scratch(workflow, plan, seed, &mut s.borrow_mut()))
    }

    /// Like [`execute`](Self::execute), but drawing every internal buffer
    /// from `scratch`, including its compiled plan. The plan is compiled
    /// (and the inputs validated) when this platform, `workflow` and `plan`
    /// differ by value from the ones the scratch's plan was compiled from
    /// (the workflow and the plan only in the fields compiling reads; see
    /// the module doc); otherwise the call only replays it with `seed`'s
    /// jitter.
    /// Byte-identical to a fresh-scratch run: buffers are cleared before
    /// reuse and carry no state between requests.
    pub fn execute_with_scratch(
        &self,
        workflow: &Workflow,
        plan: &DeploymentPlan,
        seed: u64,
        scratch: &mut SimScratch,
    ) -> Result<RequestOutcome, PlanError> {
        let SimScratch {
            fluid,
            replay,
            compiled,
        } = scratch;
        let cached = compiled.as_ref().is_some_and(|c| {
            c.compiled_for(
                &self.config,
                &self.transfer,
                self.include_cold_start,
                workflow,
                plan,
            )
        });
        if !cached {
            *compiled = Some(CompiledPlan::compile(
                &self.config,
                &self.transfer,
                self.include_cold_start,
                workflow,
                plan,
            )?);
        }
        let compiled = compiled.as_ref().expect("compiled above");
        Ok(compiled.replay(seed, self.jitter_tables(), replay, fluid))
    }

    // -----------------------------------------------------------------------
    // Reference engine
    // -----------------------------------------------------------------------

    /// The pre-optimisation execution path, retained as the oracle:
    /// interprets the plan on every call, allocates every buffer per
    /// request and simulates sandboxes with
    /// [`execute_sandbox_reference`](crate::fluid::execute_sandbox_reference),
    /// which runs every sandbox in one loop. It writes the outcome's span buffer in
    /// the same order as [`execute`](Self::execute), and refuses the same
    /// inputs. Byte-identical to `execute` for every plan `execute`
    /// accepts; tier-1 `tests/des_identity.rs` asserts the equality.
    pub fn execute_reference(
        &self,
        workflow: &Workflow,
        plan: &DeploymentPlan,
        seed: u64,
    ) -> Result<RequestOutcome, PlanError> {
        let stage_sets: Vec<Vec<FunctionId>> = workflow
            .stages
            .iter()
            .map(|s| s.functions.clone())
            .collect();
        plan.validate(&stage_sets)?;

        let costs = &self.config.costs;
        if plan.runtime == RuntimeKind::PseudoParallel && costs.gil_switch_interval.is_zero() {
            return Err(PlanError::ZeroGilInterval);
        }
        let mut jit = Jitter::new(self.jitter_tables(), seed);
        let iso = IsolationCosts::for_kind(plan.isolation);
        let store_based = !matches!(
            plan.transfer,
            TransferKind::RpcPayload | TransferKind::ShmRing
        );
        let placement = (plan.transfer == TransferKind::ShmRing)
            .then(|| NodePlacement::first_fit(plan, costs.node_cpus));
        let colocated =
            |a: SandboxId, b: SandboxId| placement.as_ref().is_some_and(|p| p.colocated(a, b));
        let last_stage = plan.stages.len() - 1;

        let mut timelines: Vec<Option<FunctionTimeline>> = vec![None; workflow.function_count()];
        let mut spans: Vec<Span> = Vec::new();
        let mut warm: HashSet<chiron_model::SandboxId> = HashSet::new();
        let mut stage_windows = Vec::with_capacity(plan.stages.len());
        let mut t = SimTime::ZERO;
        let mut prev_primary = None;

        for (si, stage_plan) in plan.stages.iter().enumerate() {
            let stage_input_bytes = if si == 0 {
                REQUEST_PAYLOAD_BYTES
            } else {
                workflow.stage_output_bytes(si - 1)
            };

            // Cross-stage control handoff between pre-deployed wraps in
            // different sandboxes.
            let primary = stage_plan.wraps[0].sandbox;
            if plan.scheduling == SchedulingKind::PreDeployed {
                if let Some(prev) = prev_primary {
                    if prev != primary {
                        // A co-located pair rides the ring: the doorbell
                        // floor replaces the RPC round trip entirely.
                        t += if colocated(prev, primary) {
                            jit.comm(self.transfer.shm_ring.latency(stage_input_bytes))
                        } else {
                            jit.comm(costs.rpc)
                                + jit.comm(
                                    self.transfer
                                        .cross_sandbox(TransferKind::RpcPayload, stage_input_bytes),
                                )
                        };
                    }
                }
            }
            prev_primary = Some(primary);

            let stage_start = t;
            let mut wrap_ends: Vec<SimTime> = Vec::with_capacity(stage_plan.wraps.len());

            for (k, wrap) in stage_plan.wraps.iter().enumerate() {
                // ---- invocation time of this wrap -----------------------
                let mut avail = match plan.scheduling {
                    SchedulingKind::Asf => {
                        stage_start + jit.comm(self.config.scheduling.asf_schedule_time(k as u32))
                    }
                    SchedulingKind::OpenFaasGateway => {
                        stage_start
                            + jit.comm(self.config.scheduling.openfaas_stage_overhead(k as u32 + 1))
                            + jit.comm(costs.rpc)
                    }
                    SchedulingKind::PreDeployed => {
                        if k == 0 {
                            stage_start
                        } else if colocated(primary, wrap.sandbox) {
                            // Invocation still costs T_INV per Eq. 2, but
                            // the payload rides the ring in place of the
                            // RPC round trip + piggy-backed copy.
                            stage_start
                                + jit.comm(costs.inv * k as u64)
                                + jit.comm(self.transfer.shm_ring.latency(stage_input_bytes))
                        } else {
                            stage_start
                                + jit.comm(costs.inv * k as u64)
                                + jit.comm(costs.rpc)
                                + jit.comm(
                                    self.transfer
                                        .cross_sandbox(TransferKind::RpcPayload, stage_input_bytes),
                                )
                        }
                    }
                };
                if self.include_cold_start && !warm.contains(&wrap.sandbox) {
                    avail += jit.startup(costs.sandbox_cold_start);
                }
                warm.insert(wrap.sandbox);

                let read_input = store_based && si > 0;
                let write_output = store_based && si < last_stage;
                let end = self.run_wrap_reference(WrapRun {
                    workflow,
                    plan,
                    wrap,
                    stage: si,
                    stage_start,
                    avail,
                    stage_input_bytes,
                    read_input,
                    write_output,
                    iso: &iso,
                    jit: &mut jit,
                    timelines: &mut timelines,
                    spans: &mut spans,
                });
                wrap_ends.push(end);
            }

            // ---- stage completion (Eq. 2) -------------------------------
            let remote_return = plan.scheduling != SchedulingKind::PreDeployed;
            let mut stage_end = SimTime::ZERO;
            for (k, &end) in wrap_ends.iter().enumerate() {
                let e = if k == 0 && !remote_return {
                    end
                } else if !remote_return && colocated(stage_plan.wraps[k].sandbox, primary) {
                    // Result notification over the ring: doorbell only.
                    end + jit.comm(self.transfer.shm_ring.floor)
                } else {
                    end + jit.comm(costs.rpc)
                };
                stage_end = stage_end.max(e);
            }
            t = stage_end;
            stage_windows.push((stage_start, stage_end));
        }

        let timelines: Vec<FunctionTimeline> = timelines
            .into_iter()
            .map(|t| t.expect("every function executed"))
            .collect();
        Ok(RequestOutcome {
            e2e: t.since(SimTime::ZERO),
            timelines,
            spans,
            stage_windows,
        })
    }

    /// One wrap as the seed executor ran it: per-call vectors, cloned
    /// pre-span lists and the re-scanning fluid engine.
    fn run_wrap_reference(&self, run: WrapRun<'_, '_>) -> SimTime {
        let WrapRun {
            workflow,
            plan,
            wrap,
            stage,
            stage_start,
            avail,
            stage_input_bytes,
            read_input,
            write_output,
            iso,
            jit,
            timelines,
            spans: out,
        } = run;
        let costs = &self.config.costs;
        let sb = plan.sandbox(wrap.sandbox).expect("validated plan");

        struct RefMeta {
            function: FunctionId,
            process: usize,
            pre_spans: Vec<Span>,
            dispatched: SimTime,
        }
        let mut tasks: Vec<ThreadTask> = Vec::with_capacity(wrap.function_count());
        let mut metas: Vec<RefMeta> = Vec::with_capacity(wrap.function_count());

        let mut cum_block = SimDuration::ZERO;
        let mut forked_before = false;
        for (pi, proc) in wrap.processes.iter().enumerate() {
            // ---- process materialisation --------------------------------
            let mut pre: Vec<Span> = Vec::new();
            if avail > stage_start {
                pre.push(Span {
                    kind: SpanKind::Scheduled,
                    start: stage_start,
                    end: avail,
                });
            }
            let mut cursor = avail;
            match proc.spawn {
                ProcessSpawn::Fork => {
                    if forked_before {
                        cum_block += jit.startup(costs.process_block);
                    }
                    forked_before = true;
                    if !cum_block.is_zero() {
                        let end = cursor + cum_block;
                        pre.push(Span {
                            kind: SpanKind::BlockWait,
                            start: cursor,
                            end,
                        });
                        cursor = end;
                    }
                    let startup = jit.startup(costs.process_startup);
                    let end = cursor + startup;
                    pre.push(Span {
                        kind: SpanKind::Startup,
                        start: cursor,
                        end,
                    });
                    cursor = end;
                }
                ProcessSpawn::Pool => {
                    // Under the shm-ring tier the dispatch payload rides the
                    // ring (orchestrator and worker share the node by
                    // construction); otherwise it crosses a pipe.
                    let payload = if plan.transfer == TransferKind::ShmRing {
                        self.transfer.shm_ring.latency(stage_input_bytes)
                    } else {
                        self.transfer.cross_process(stage_input_bytes)
                    };
                    let dispatch = jit.startup(costs.pool_dispatch) + jit.comm(payload);
                    let end = cursor + dispatch;
                    pre.push(Span {
                        kind: SpanKind::Startup,
                        start: cursor,
                        end,
                    });
                    cursor = end;
                }
                ProcessSpawn::MainReuse => {}
            }
            let proc_ready = cursor;

            let isolated = proc.spawn == ProcessSpawn::MainReuse || proc.functions.len() > 1;

            for (ti, &fid) in proc.functions.iter().enumerate() {
                let mut spans = pre.clone();
                let mut cursor = proc_ready;
                if ti > 0 {
                    // Threads are cloned serially by the process main.
                    let clone_cost = jit.startup(costs.thread_clone) * ti as u64;
                    let end = cursor + clone_cost;
                    spans.push(Span {
                        kind: SpanKind::Startup,
                        start: cursor,
                        end,
                    });
                    cursor = end;
                }
                if isolated && !iso.startup.is_zero() {
                    let end = cursor + jit.startup(iso.startup);
                    spans.push(Span {
                        kind: SpanKind::Startup,
                        start: cursor,
                        end,
                    });
                    cursor = end;
                }
                if read_input {
                    let read = jit.comm(
                        self.transfer
                            .cross_sandbox(plan.transfer, stage_input_bytes),
                    );
                    let end = cursor + read;
                    spans.push(Span {
                        kind: SpanKind::TransferIn,
                        start: cursor,
                        end,
                    });
                    cursor = end;
                }
                let spec = workflow.function(fid);
                let segments: Vec<Segment> = spec
                    .segments
                    .iter()
                    .map(|&seg| {
                        let stretched = if isolated {
                            iso.stretch_segment(seg)
                        } else {
                            seg.duration()
                        };
                        match seg {
                            Segment::Cpu(_) => Segment::Cpu(jit.cpu(stretched)),
                            Segment::Block { kind, .. } => Segment::Block {
                                kind,
                                dur: jit.io(stretched),
                            },
                        }
                    })
                    .collect();
                tasks.push(ThreadTask {
                    process: pi,
                    start: cursor,
                    segments,
                });
                metas.push(RefMeta {
                    function: fid,
                    process: pi,
                    pre_spans: spans,
                    dispatched: stage_start,
                });
            }
        }

        let results = crate::fluid::execute_sandbox_reference(
            &tasks,
            sb.cpus,
            plan.runtime,
            costs.gil_switch_interval,
        )
        .expect("validated plan: positive CPUs and GIL interval");

        // ---- per-process completion and IPC drain (Eq. 3) ---------------
        let n_procs = wrap.processes.len();
        let mut proc_end = vec![SimTime::ZERO; n_procs];
        for (meta, result) in metas.iter().zip(&results) {
            proc_end[meta.process] = proc_end[meta.process].max(result.end);
        }
        let mut order: Vec<usize> = (0..n_procs).collect();
        order.sort_by_key(|&p| proc_end[p]);
        let mut drain = SimTime::ZERO;
        let mut ipc_span: Vec<Option<Span>> = vec![None; n_procs];
        for (rank, &p) in order.iter().enumerate() {
            if rank == 0 {
                drain = proc_end[p];
                continue;
            }
            let start = drain.max(proc_end[p]);
            let out_bytes: u64 = wrap.processes[p]
                .functions
                .iter()
                .map(|&fid| workflow.function(fid).output_bytes)
                .sum();
            // Processes of one wrap share a node: under the shm-ring tier
            // the drain rides the ring (floor replaces T_IPC's pipe write).
            let cost = if plan.transfer == TransferKind::ShmRing {
                jit.comm(self.transfer.shm_ring.latency(out_bytes))
            } else {
                jit.comm(costs.ipc_pipe + self.transfer.cross_process(out_bytes))
            };
            drain = start + cost;
            ipc_span[p] = Some(Span {
                kind: SpanKind::Ipc,
                start,
                end: drain,
            });
        }
        let mut wrap_end = drain;

        // ---- assemble timelines ------------------------------------------
        for (meta, result) in metas.iter().zip(&results) {
            let from = out.len();
            let mut spans = meta.pre_spans.clone();
            spans.extend(result.spans.iter().copied());
            let mut completed = result.end;
            // IPC span attaches to the process's functions (recorded once,
            // on the process's first function).
            if let Some(ipc) = ipc_span[meta.process] {
                let first_of_proc = metas
                    .iter()
                    .position(|m| m.process == meta.process)
                    .expect("process has functions");
                if metas[first_of_proc].function == meta.function {
                    spans.push(ipc);
                }
            }
            if write_output {
                let write =
                    jit.comm(self.transfer.cross_sandbox(
                        plan.transfer,
                        workflow.function(meta.function).output_bytes,
                    ));
                // The write starts when the function's own result exists.
                let start = completed;
                completed = start + write;
                spans.push(Span {
                    kind: SpanKind::TransferOut,
                    start,
                    end: completed,
                });
                wrap_end = wrap_end.max(completed);
            }
            timelines[meta.function.index()] = Some(FunctionTimeline {
                function: meta.function,
                sandbox: wrap.sandbox,
                stage,
                dispatched: meta.dispatched,
                exec_start: result.exec_start,
                completed,
                spans: span_index(from)..span_index(from + spans.len()),
            });
            out.extend(spans);
        }
        wrap_end
    }
}

/// Parameters for executing one wrap on the reference path.
struct WrapRun<'a, 't> {
    workflow: &'a Workflow,
    plan: &'a DeploymentPlan,
    wrap: &'a WrapPlan,
    stage: usize,
    stage_start: SimTime,
    avail: SimTime,
    stage_input_bytes: u64,
    read_input: bool,
    write_output: bool,
    iso: &'a IsolationCosts,
    jit: &'a mut Jitter<'t>,
    timelines: &'a mut Vec<Option<FunctionTimeline>>,
    /// The outcome's span buffer; each function's spans are appended.
    spans: &'a mut Vec<Span>,
}

//! The end-to-end latency Predictor (§3.3): Eq. 1–4 composed over profiled
//! function behaviour.
//!
//! * Eq. 1: `T_workflow = Σ_i T_stage_i`
//! * Eq. 2: `T_stage = max(T_wrap1, max_{k>1}(T_wrap_k + (k−1)·T_INV) + T_RPC)`
//! * Eq. 3: `T_wrap = max_j T_P_j + T_IPC · (|P|−1)`
//! * Eq. 4: `T_P_j = (j−1)·T_Block + T_Startup + T_exec_j`
//!
//! `T_exec` comes from the Algorithm 1 GIL simulation
//! ([`crate::threadsim::predict_threads`]) for
//! pseudo-parallel runtimes, or from the work-conserving parallel bound for
//! pools / Java threads. The Predictor deliberately uses constant platform
//! parameters — the gap to the jittered, contention-accurate virtual
//! platform is Chiron's prediction error (Fig. 12).

use crate::cache::{content_key, FlatThreads, PredictionCache, SegmentCatalog, StaggeredSet};
use crate::threadsim::{predict_threads, predict_true_parallel, SimArena, SimOutcome, SimThread};
use chiron_isolation::IsolationCosts;
use chiron_model::plan::ProcessSpawn;
use chiron_model::{
    CostModel, DeploymentPlan, FunctionId, NodePlacement, PlatformConfig, RuntimeKind,
    SchedulingKind, SchedulingModel, Segment, SimDuration, TransferKind, Workflow, WrapPlan,
};
use chiron_profiler::WorkflowProfile;
use chiron_store::TransferModel;

/// Size of the initial request payload entering stage 1 (matches the
/// virtual platform's constant).
const REQUEST_PAYLOAD_BYTES: u64 = 1 << 10;

/// Eq. 4's `T_exec` of one process: its functions run as threads created
/// `thread_clone` apart from `offset` (isolation startup + input read),
/// their segments stretched by the isolation overheads when the process
/// is `isolated`, in a sandbox of `cpus` CPUs.
type ProcessEval<'a> = dyn FnMut(&[FunctionId], SimDuration, bool, u32) -> SimOutcome + 'a;

/// `seg` with its duration stretched by the isolation overheads.
fn stretch(iso: &IsolationCosts, seg: Segment) -> Segment {
    match seg {
        Segment::Cpu(_) => Segment::Cpu(iso.stretch_segment(seg)),
        Segment::Block { kind, .. } => Segment::Block {
            kind,
            dur: iso.stretch_segment(seg),
        },
    }
}

/// The white-box latency predictor.
#[derive(Debug, Clone)]
pub struct Predictor {
    pub costs: CostModel,
    pub scheduling: SchedulingModel,
    pub transfer: TransferModel,
}

impl Predictor {
    pub fn paper_calibrated() -> Self {
        Predictor {
            costs: CostModel::paper_calibrated(),
            scheduling: SchedulingModel::paper_calibrated(),
            transfer: TransferModel::paper_calibrated(),
        }
    }

    pub fn from_config(config: &PlatformConfig) -> Self {
        Predictor {
            costs: config.costs.clone(),
            scheduling: config.scheduling.clone(),
            transfer: TransferModel::paper_calibrated(),
        }
    }

    /// A predictor with overhead parameters inflated by `margin` (§6.2:
    /// "Chiron adopts larger parameters to estimate the latency, avoiding
    /// performance violation resulting from mispredictions").
    pub fn conservative(&self, margin: f64) -> Self {
        Predictor {
            costs: self.costs.conservative(margin),
            scheduling: self.scheduling.clone(),
            transfer: self.transfer,
        }
    }

    /// Predicts the end-to-end latency of `plan` for one request (Eq. 1),
    /// materialising and simulating each process's threads afresh.
    pub fn predict(
        &self,
        workflow: &Workflow,
        profile: &WorkflowProfile,
        plan: &DeploymentPlan,
    ) -> SimDuration {
        let iso = IsolationCosts::for_kind(plan.isolation);
        self.compose(workflow, plan, &iso, &mut |set, offset, isolated, cpus| {
            let threads: Vec<SimThread> = set
                .iter()
                .enumerate()
                .map(|(ti, &fid)| SimThread {
                    created_at: self.costs.thread_clone * ti as u64 + offset,
                    segments: profile
                        .function(fid)
                        .segments()
                        .into_iter()
                        .map(|seg| if isolated { stretch(&iso, seg) } else { seg })
                        .collect(),
                })
                .collect();
            match plan.runtime {
                RuntimeKind::PseudoParallel => {
                    predict_threads(&threads, self.costs.gil_switch_interval)
                }
                RuntimeKind::TrueParallel => {
                    let tasks: Vec<Vec<Segment>> =
                        threads.into_iter().map(|t| t.segments).collect();
                    self.true_parallel(&tasks, offset, cpus)
                }
            }
        })
    }

    /// [`Predictor::predict`] with per-process Algorithm 1 results memoised
    /// in `cache` (keyed by thread content) and all per-call allocations
    /// replaced by `catalog` borrows and `scratch` reuse. Returns exactly
    /// the same latency as `predict` for the same inputs.
    pub fn predict_cached(
        &self,
        workflow: &Workflow,
        plan: &DeploymentPlan,
        catalog: &SegmentCatalog,
        cache: &PredictionCache,
        scratch: &mut PredictScratch,
    ) -> SimDuration {
        let iso = IsolationCosts::for_kind(plan.isolation);
        let interval = self.costs.gil_switch_interval;
        let spacing = self.costs.thread_clone;
        self.compose(workflow, plan, &iso, &mut |set, offset, isolated, cpus| {
            // Identity stretches (IsolationKind::None has zero overheads)
            // leave segments bit-identical, so the catalog's unstretched
            // slices can be simulated directly.
            let stretched = isolated && (iso.cpu_overhead != 0.0 || iso.io_overhead != 0.0);
            let scaled = |&seg: &Segment| if stretched { stretch(&iso, seg) } else { seg };
            match plan.runtime {
                RuntimeKind::PseudoParallel if !stretched => {
                    let src = StaggeredSet {
                        set,
                        catalog,
                        spacing,
                        base: offset,
                    };
                    cache.get_or_simulate(src.key(interval), &src, interval, &mut scratch.arena)
                }
                RuntimeKind::PseudoParallel => {
                    let PredictScratch {
                        arena,
                        created,
                        ranges,
                        segments,
                    } = &mut *scratch;
                    created.clear();
                    ranges.clear();
                    segments.clear();
                    for (ti, &fid) in set.iter().enumerate() {
                        created.push(spacing * ti as u64 + offset);
                        let from = segments.len() as u32;
                        segments.extend(catalog.segments(fid).iter().map(scaled));
                        ranges.push((from, segments.len() as u32));
                    }
                    let src = FlatThreads {
                        created,
                        ranges,
                        segments,
                    };
                    cache.get_or_simulate(content_key(&src, interval), &src, interval, arena)
                }
                RuntimeKind::TrueParallel => {
                    // Cold path: PGP never emits truly parallel plans, so
                    // this materialises the tasks without memoisation.
                    let tasks: Vec<Vec<Segment>> = set
                        .iter()
                        .map(|&fid| catalog.segments(fid).iter().map(scaled).collect())
                        .collect();
                    self.true_parallel(&tasks, offset, cpus)
                }
            }
        })
    }

    /// Eq. 1 + Eq. 2: stage composition over Eq. 3/4's per-wrap latency,
    /// with each process's execution from `process` (`predict` and
    /// `predict_cached` differ only in that evaluator).
    fn compose(
        &self,
        workflow: &Workflow,
        plan: &DeploymentPlan,
        iso: &IsolationCosts,
        process: &mut ProcessEval<'_>,
    ) -> SimDuration {
        let store_based = !matches!(
            plan.transfer,
            TransferKind::RpcPayload | TransferKind::ShmRing
        );
        // Mirrors the virtual platform exactly: locality only matters to
        // the shm-ring tier, decided by the same first-fit packing.
        let placement = (plan.transfer == TransferKind::ShmRing)
            .then(|| NodePlacement::first_fit(plan, self.costs.node_cpus));
        let colocated = |a: chiron_model::SandboxId, b: chiron_model::SandboxId| {
            placement.as_ref().is_some_and(|p| p.colocated(a, b))
        };
        let last_stage = plan.stages.len() - 1;
        let mut total = SimDuration::ZERO;
        let mut prev_primary = None;

        for (si, stage_plan) in plan.stages.iter().enumerate() {
            let stage_input_bytes = if si == 0 {
                REQUEST_PAYLOAD_BYTES
            } else {
                workflow.stage_output_bytes(si - 1)
            };

            let primary = stage_plan.wraps[0].sandbox;
            if plan.scheduling == SchedulingKind::PreDeployed {
                if let Some(prev) = prev_primary {
                    if prev != primary {
                        total += if colocated(prev, primary) {
                            self.transfer.shm_ring.latency(stage_input_bytes)
                        } else {
                            self.costs.rpc
                                + self
                                    .transfer
                                    .cross_sandbox(TransferKind::RpcPayload, stage_input_bytes)
                        };
                    }
                }
            }
            prev_primary = Some(primary);

            let mut stage_dur = SimDuration::ZERO;
            for (k, wrap) in stage_plan.wraps.iter().enumerate() {
                let ring_local = k > 0
                    && plan.scheduling == SchedulingKind::PreDeployed
                    && colocated(primary, wrap.sandbox);
                let invoke = match plan.scheduling {
                    SchedulingKind::Asf => self.scheduling.asf_schedule_time(k as u32),
                    SchedulingKind::OpenFaasGateway => {
                        self.scheduling.openfaas_stage_overhead(k as u32 + 1) + self.costs.rpc
                    }
                    SchedulingKind::PreDeployed => {
                        if k == 0 {
                            SimDuration::ZERO
                        } else if ring_local {
                            // T_INV stays; the ring replaces the RPC round
                            // trip + piggy-backed payload copy.
                            self.costs.inv * k as u64
                                + self.transfer.shm_ring.latency(stage_input_bytes)
                        } else {
                            self.costs.inv * k as u64
                                + self.costs.rpc
                                + self
                                    .transfer
                                    .cross_sandbox(TransferKind::RpcPayload, stage_input_bytes)
                        }
                    }
                };
                let read_input = store_based && si > 0;
                let write_output = store_based && si < last_stage;
                let wrap_dur = self.wrap_latency(
                    workflow,
                    plan,
                    wrap,
                    stage_input_bytes,
                    read_input,
                    write_output,
                    iso,
                    process,
                );
                let remote_return = plan.scheduling != SchedulingKind::PreDeployed || k > 0;
                let mut end = invoke + wrap_dur;
                if remote_return {
                    // A co-located wrap posts its result over the ring:
                    // doorbell floor in place of the return RPC.
                    end += if ring_local {
                        self.transfer.shm_ring.floor
                    } else {
                        self.costs.rpc
                    };
                }
                stage_dur = stage_dur.max(end);
            }
            total += stage_dur;
        }
        total
    }

    /// Eq. 3 + Eq. 4: latency of one wrap from its invocation.
    #[allow(clippy::too_many_arguments)]
    fn wrap_latency(
        &self,
        workflow: &Workflow,
        plan: &DeploymentPlan,
        wrap: &WrapPlan,
        stage_input_bytes: u64,
        read_input: bool,
        write_output: bool,
        iso: &IsolationCosts,
        process: &mut ProcessEval<'_>,
    ) -> SimDuration {
        let cpus = plan.sandbox(wrap.sandbox).expect("validated plan").cpus;
        let mut fork_idx: u64 = 0;
        let mut max_end = SimDuration::ZERO;
        let mut total_cpu = SimDuration::ZERO;
        let mut max_write = SimDuration::ZERO;

        for proc in &wrap.processes {
            let start = match proc.spawn {
                ProcessSpawn::Fork => {
                    let s = self.costs.process_block * fork_idx + self.costs.process_startup;
                    fork_idx += 1;
                    s
                }
                ProcessSpawn::Pool => {
                    // Mirrors the DES: under the shm-ring tier the pool
                    // dispatch payload rides the ring instead of a pipe.
                    self.costs.pool_dispatch
                        + if plan.transfer == TransferKind::ShmRing {
                            self.transfer.shm_ring.latency(stage_input_bytes)
                        } else {
                            self.transfer.cross_process(stage_input_bytes)
                        }
                }
                ProcessSpawn::MainReuse => SimDuration::ZERO,
            };
            let isolated = proc.spawn == ProcessSpawn::MainReuse || proc.functions.len() > 1;
            // Every thread starts after the isolation startup and the
            // input read.
            let mut offset = SimDuration::ZERO;
            if isolated {
                offset += iso.startup;
            }
            if read_input {
                offset += self
                    .transfer
                    .cross_sandbox(plan.transfer, stage_input_bytes);
            }

            let exec = process(&proc.functions, offset, isolated, cpus);
            max_end = max_end.max(start + exec.makespan);
            total_cpu += exec.cpu_time;

            if write_output {
                for &fid in &proc.functions {
                    let bytes = workflow.function(fid).output_bytes;
                    max_write = max_write.max(self.transfer.cross_sandbox(plan.transfer, bytes));
                }
            }
        }

        // CPU-capacity correction: a wrap cannot finish before its total
        // CPU demand has been served by its allocated CPUs.
        let packed =
            SimDuration::from_nanos((total_cpu.as_nanos() as f64 / f64::from(cpus)).ceil() as u64);
        let exec_end = max_end.max(packed);

        // Eq. 3's serial result drain over the pipe — or the ring floor
        // per process when the wrap's plan rides the shm-ring tier.
        let ipc = self.drain_cost(plan) * (wrap.processes.len() as u64 - 1);
        exec_end + ipc + max_write
    }

    /// The work-conserving parallel bound of a truly parallel process's
    /// `tasks` on `cpus`, from the creation of its last thread.
    fn true_parallel(&self, tasks: &[Vec<Segment>], offset: SimDuration, cpus: u32) -> SimOutcome {
        let mut out = predict_true_parallel(tasks, cpus);
        if let Some(last) = tasks.len().checked_sub(1) {
            out.makespan += self.costs.thread_clone * last as u64 + offset;
        }
        out
    }

    /// Per-process serial drain cost (Eq. 3's `T_IPC` term): a pipe write
    /// by default, the ring's doorbell floor under the shm-ring tier (the
    /// wrap's processes share a node by construction).
    fn drain_cost(&self, plan: &DeploymentPlan) -> SimDuration {
        if plan.transfer == TransferKind::ShmRing {
            self.transfer.shm_ring.floor
        } else {
            self.costs.ipc_pipe
        }
    }
}

/// Reusable buffers for [`Predictor::predict_cached`]: the Algorithm 1
/// state arena plus flat thread-materialisation buffers for isolated
/// (segment-stretched) processes. One per caller or worker thread.
#[derive(Debug, Default)]
pub struct PredictScratch {
    pub arena: SimArena,
    created: Vec<SimDuration>,
    ranges: Vec<(u32, u32)>,
    segments: Vec<Segment>,
}

impl PredictScratch {
    pub fn new() -> Self {
        PredictScratch::default()
    }
}

impl Default for Predictor {
    fn default() -> Self {
        Predictor::paper_calibrated()
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_model::plan::*;
    use chiron_model::{apps, IsolationKind, RuntimeKind, SandboxId, SandboxPlan};
    use chiron_profiler::Profiler;
    use chiron_runtime::VirtualPlatform;

    fn faastlane_plan(wf: &Workflow, cpus: u32) -> DeploymentPlan {
        // Sequential stages as orchestrator threads, parallel stages as
        // forked processes, one sandbox.
        let stages = wf
            .stages
            .iter()
            .map(|s| StagePlan {
                wraps: vec![WrapPlan {
                    sandbox: SandboxId(0),
                    processes: if s.functions.len() == 1 {
                        vec![ProcessPlan::main_reuse(s.functions.clone())]
                    } else {
                        s.functions
                            .iter()
                            .map(|&f| ProcessPlan::forked(vec![f]))
                            .collect()
                    },
                }],
            })
            .collect();
        DeploymentPlan {
            system: SystemKind::Faastlane,
            workflow: wf.name.clone(),
            runtime: RuntimeKind::PseudoParallel,
            isolation: IsolationKind::None,
            transfer: TransferKind::RpcPayload,
            scheduling: SchedulingKind::PreDeployed,
            sandboxes: vec![SandboxPlan {
                id: SandboxId(0),
                cpus,
                pool_size: 0,
            }],
            stages,
        }
    }

    fn thread_plan(wf: &Workflow, cpus: u32) -> DeploymentPlan {
        let mut plan = faastlane_plan(wf, cpus);
        plan.system = SystemKind::FaastlaneT;
        for (si, s) in wf.stages.iter().enumerate() {
            plan.stages[si].wraps[0].processes = vec![ProcessPlan::main_reuse(s.functions.clone())];
        }
        plan
    }

    /// Prediction error against the noiseless ground-truth platform must be
    /// small for the deployment shapes PGP explores.
    #[test]
    fn tracks_ground_truth_for_process_plans() {
        let wf = apps::finra(5);
        let profile = Profiler::default().profile_workflow(&wf);
        let plan = faastlane_plan(&wf, 5);
        let predicted = Predictor::paper_calibrated().predict(&wf, &profile, &plan);
        let truth = VirtualPlatform::new(PlatformConfig::paper_calibrated())
            .execute(&wf, &plan, 0)
            .unwrap()
            .e2e;
        let err = (predicted.as_millis_f64() - truth.as_millis_f64()).abs() / truth.as_millis_f64();
        assert!(err < 0.10, "pred {predicted} truth {truth} err {err}");
    }

    #[test]
    fn tracks_ground_truth_for_thread_plans() {
        for wf in [apps::finra(5), apps::slapp(), apps::social_network()] {
            let profile = Profiler::default().profile_workflow(&wf);
            let plan = thread_plan(&wf, 2);
            let predicted = Predictor::paper_calibrated().predict(&wf, &profile, &plan);
            let truth = VirtualPlatform::new(PlatformConfig::paper_calibrated())
                .execute(&wf, &plan, 0)
                .unwrap()
                .e2e;
            let err =
                (predicted.as_millis_f64() - truth.as_millis_f64()).abs() / truth.as_millis_f64();
            assert!(err < 0.15, "{}: pred {predicted} truth {truth}", wf.name);
        }
    }

    /// FINRA split across two wraps (two 2-cpu sandboxes, first-fit packs
    /// both onto one node) so the shm-ring tier's co-location pricing is
    /// actually exercised.
    fn two_wrap_plan(wf: &Workflow, transfer: TransferKind) -> DeploymentPlan {
        let mut plan = faastlane_plan(wf, 2);
        plan.transfer = transfer;
        plan.sandboxes.push(SandboxPlan {
            id: SandboxId(1),
            cpus: 2,
            pool_size: 0,
        });
        for stage in &mut plan.stages {
            let procs = std::mem::take(&mut stage.wraps[0].processes);
            if procs.len() < 2 {
                stage.wraps[0].processes = procs;
                continue;
            }
            let mid = procs.len() / 2;
            let (a, b) = procs.split_at(mid);
            stage.wraps[0].processes = a.to_vec();
            stage.wraps.push(WrapPlan {
                sandbox: SandboxId(1),
                processes: b.to_vec(),
            });
        }
        plan
    }

    #[test]
    fn tracks_ground_truth_for_shm_ring_plans() {
        let wf = apps::finra(5);
        let profile = Profiler::default().profile_workflow(&wf);
        let pred = Predictor::paper_calibrated();
        let platform = VirtualPlatform::new(PlatformConfig::paper_calibrated());
        for transfer in [TransferKind::RpcPayload, TransferKind::ShmRing] {
            let plan = two_wrap_plan(&wf, transfer);
            let predicted = pred.predict(&wf, &profile, &plan);
            let truth = platform.execute(&wf, &plan, 0).unwrap().e2e;
            let err =
                (predicted.as_millis_f64() - truth.as_millis_f64()).abs() / truth.as_millis_f64();
            assert!(
                err < 0.15,
                "{transfer:?}: pred {predicted} truth {truth} err {err}"
            );
        }
        // And the predictor agrees with the DES on the direction: the ring
        // plan is strictly faster than its RPC twin.
        let ring = pred.predict(&wf, &profile, &two_wrap_plan(&wf, TransferKind::ShmRing));
        let rpc = pred.predict(&wf, &profile, &two_wrap_plan(&wf, TransferKind::RpcPayload));
        assert!(ring < rpc, "ring {ring} vs rpc {rpc}");
    }

    #[test]
    fn conservative_predicts_higher() {
        let wf = apps::finra(50);
        let profile = Profiler::default().profile_workflow(&wf);
        let plan = faastlane_plan(&wf, 8);
        let base = Predictor::paper_calibrated();
        let p = base.predict(&wf, &profile, &plan);
        let c = base.conservative(1.25).predict(&wf, &profile, &plan);
        assert!(c > p, "conservative {c} vs {p}");
    }

    #[test]
    fn thread_wrap_beats_process_wrap_for_short_functions() {
        // Observation 3 at FINRA-5: thread execution wins for
        // sub-millisecond functions despite the GIL.
        let wf = apps::finra(5);
        let profile = Profiler::default().profile_workflow(&wf);
        let pred = Predictor::paper_calibrated();
        let t = pred.predict(&wf, &profile, &thread_plan(&wf, 5));
        let p = pred.predict(&wf, &profile, &faastlane_plan(&wf, 5));
        assert!(t < p, "threads {t} vs processes {p}");
    }

    #[test]
    fn process_wrap_wins_for_cpu_heavy_parallelism() {
        // SLApp's stages are ~36ms CPU-heavy: pseudo-parallel threads
        // serialise them, so processes win despite fork overhead.
        let wf = apps::slapp();
        let profile = Profiler::default().profile_workflow(&wf);
        let pred = Predictor::paper_calibrated();
        let t = pred.predict(&wf, &profile, &thread_plan(&wf, 4));
        let p = pred.predict(&wf, &profile, &faastlane_plan(&wf, 4));
        assert!(p < t, "processes {p} vs threads {t}");
    }

    #[test]
    fn fewer_cpus_predictably_slower_for_processes() {
        let wf = apps::slapp();
        let profile = Profiler::default().profile_workflow(&wf);
        let pred = Predictor::paper_calibrated();
        let wide = pred.predict(&wf, &profile, &faastlane_plan(&wf, 4));
        let narrow = pred.predict(&wf, &profile, &faastlane_plan(&wf, 1));
        assert!(narrow > wide);
    }

    #[test]
    fn mpk_plan_predicts_slower_than_bare_threads() {
        let wf = apps::slapp();
        let profile = Profiler::default().profile_workflow(&wf);
        let pred = Predictor::paper_calibrated();
        let mut plan = thread_plan(&wf, 4);
        let bare = pred.predict(&wf, &profile, &plan);
        plan.isolation = IsolationKind::Mpk;
        let mpk = pred.predict(&wf, &profile, &plan);
        assert!(mpk > bare);
    }
}

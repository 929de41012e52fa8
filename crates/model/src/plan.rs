//! The **wrap** abstraction and deployment plans.
//!
//! A wrap (§3.1) is a subset of a workflow's functions that shares one
//! sandbox and is the fundamental unit of sandbox allocation. Inside a wrap,
//! each *process* hosts one or more functions; a function that shares a
//! process with others executes as a *thread* of that process, so the
//! process/thread execution-mode choice of the paper falls out of the
//! grouping itself.
//!
//! A [`DeploymentPlan`] fixes, for one workflow, everything the virtual
//! platform needs to execute a request: which sandboxes exist, how many
//! CPUs each one gets, how every stage's functions are split into wraps and
//! processes, which runtime semantics apply (GIL vs. true parallelism vs.
//! process pool), which isolation mechanism wraps thread execution, and how
//! intermediate data travels.

use crate::function::FunctionId;
use crate::workflow::WorkflowError;
use std::fmt;

/// Identifier of a sandbox within a plan. Multiple stage-level wraps may
/// map onto the same sandbox (the sandbox is reused across stages, as in
/// every many-to-one system).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SandboxId(pub u32);

impl SandboxId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SandboxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sb{}", self.0)
    }
}

/// How a process obtains its execution context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessSpawn {
    /// `fork()` a fresh process per request: pays `T_Startup` plus the
    /// cumulative `T_Block` of the forks queued before it (Eq. 4).
    Fork,
    /// Dispatch onto a pre-forked `ProcessPoolExecutor` worker: negligible
    /// startup, true parallelism, but permanently resident memory (§4).
    Pool,
    /// Run inside the wrap's already-running orchestrator process (the
    /// of-watchdog model): no startup at all. Functions placed here execute
    /// as threads of the orchestrator.
    MainReuse,
}

/// One process of a wrap and the functions it hosts.
///
/// `functions[0]` runs on the process's main thread; any further functions
/// are cloned as additional threads (Fig. 9's `Thread(f1, req)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessPlan {
    pub functions: Vec<FunctionId>,
    pub spawn: ProcessSpawn,
}

impl ProcessPlan {
    pub fn forked(functions: Vec<FunctionId>) -> Self {
        ProcessPlan {
            functions,
            spawn: ProcessSpawn::Fork,
        }
    }

    pub fn pooled(functions: Vec<FunctionId>) -> Self {
        ProcessPlan {
            functions,
            spawn: ProcessSpawn::Pool,
        }
    }

    pub fn main_reuse(functions: Vec<FunctionId>) -> Self {
        ProcessPlan {
            functions,
            spawn: ProcessSpawn::MainReuse,
        }
    }
}

/// A wrap instantiated for one stage: the processes it runs and the sandbox
/// it occupies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrapPlan {
    pub sandbox: SandboxId,
    pub processes: Vec<ProcessPlan>,
}

impl WrapPlan {
    pub fn function_count(&self) -> usize {
        self.processes.iter().map(|p| p.functions.len()).sum()
    }

    pub fn functions(&self) -> impl Iterator<Item = FunctionId> + '_ {
        self.processes
            .iter()
            .flat_map(|p| p.functions.iter().copied())
    }
}

/// One stage's partition into wraps. `wraps[0]` is the stage's primary wrap:
/// it receives the stage input and invokes the others over the network
/// (Eq. 2's `wrap_1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePlan {
    pub wraps: Vec<WrapPlan>,
}

impl StagePlan {
    pub fn function_count(&self) -> usize {
        self.wraps.iter().map(WrapPlan::function_count).sum()
    }
}

/// Thread-parallelism semantics of the language runtime inside sandboxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeKind {
    /// CPython/Node.js-style: a GIL permits one running thread per process.
    PseudoParallel,
    /// Java-style (or nogil): threads of one process run truly in parallel.
    TrueParallel,
}

/// Memory-isolation mechanism applied to thread execution (§4, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsolationKind {
    /// Bare threads; no intra-process isolation.
    None,
    /// Intel MPK protection keys: tiny startup cost, zero interaction cost,
    /// moderate execution slowdown.
    Mpk,
    /// WebAssembly-based software fault isolation: large startup and
    /// interaction costs, larger execution slowdown.
    Sfi,
}

/// How intermediate data crosses a sandbox boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// Third-party object storage as in AWS (write + read per edge).
    RemoteS3,
    /// Cluster-local MinIO object storage.
    LocalMinio,
    /// Payload piggy-backed on the RPC invocation (wrap-to-wrap transfer).
    RpcPayload,
    /// Zero-copy shared-memory SPSC ring between wraps co-located on one
    /// node (the sub-microsecond regime of Fig. 4's left edge). Pairs of
    /// sandboxes on different nodes fall back to [`TransferKind::RpcPayload`]
    /// — locality is decided by [`NodePlacement`].
    ShmRing,
}

/// Deterministic sandbox→node assignment derived from a plan.
///
/// The plan itself carries no node field (its digests and every committed
/// report stay unperturbed); instead, any component that needs
/// locality — the DES, the predictor, the PGP objective — recomputes the
/// same first-fit packing from the same inputs, so fast/reference/parallel
/// paths agree byte for byte.
///
/// Packing rule: sandboxes in declaration order, each onto the first node
/// with enough spare CPU capacity (`node_cpus` per node); a sandbox wider
/// than a whole node gets a node of its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodePlacement {
    /// `nodes[sandbox.index()]` = node index. Indexed by declaration order
    /// position, not raw id (ids may be sparse).
    nodes: Vec<(SandboxId, u32)>,
}

impl NodePlacement {
    /// First-fit packing of `plan.sandboxes` onto nodes of `node_cpus`
    /// CPUs each. Deterministic: depends only on the plan's sandbox list.
    pub fn first_fit(plan: &DeploymentPlan, node_cpus: u32) -> NodePlacement {
        let mut free: Vec<u32> = Vec::new();
        let mut nodes = Vec::with_capacity(plan.sandboxes.len());
        for sb in &plan.sandboxes {
            let slot = free.iter().position(|&f| f >= sb.cpus);
            let node = match slot {
                Some(i) => {
                    free[i] -= sb.cpus.min(free[i]);
                    i as u32
                }
                None => {
                    // Fresh node; an oversize sandbox saturates it outright.
                    free.push(node_cpus.saturating_sub(sb.cpus));
                    (free.len() - 1) as u32
                }
            };
            nodes.push((sb.id, node));
        }
        NodePlacement { nodes }
    }

    /// The node a sandbox landed on (`None` for ids not in the plan).
    pub fn node_of(&self, id: SandboxId) -> Option<u32> {
        self.nodes.iter().find(|(sb, _)| *sb == id).map(|&(_, n)| n)
    }

    /// Whether two sandboxes share a node — the co-location predicate the
    /// shm-ring tier keys on. A sandbox is trivially co-located with
    /// itself; unknown ids are never co-located.
    pub fn colocated(&self, a: SandboxId, b: SandboxId) -> bool {
        if a == b {
            return true;
        }
        match (self.node_of(a), self.node_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }
}

/// How the platform's gateway schedules function starts for one-to-one
/// systems (Fig. 3). Pre-deployed wraps skip the gateway entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingKind {
    /// AWS Step Functions: a fixed per-function scheduling delay with a cap
    /// on how many functions can be launched concurrently.
    Asf,
    /// OpenFaaS local gateway: cheap but superlinear in the number of
    /// concurrent starts.
    OpenFaasGateway,
    /// Wraps are deployed ahead of time; requests go straight to wrap 1
    /// (§3.4: "subsequent requests ... reuse these wraps to avoid the
    /// scheduling overhead").
    PreDeployed,
}

/// The serverless systems evaluated in the paper (§6, Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// AWS Step Functions: one-to-one, S3 transfer, heavy scheduling.
    Asf,
    /// OpenFaaS: one-to-one, MinIO transfer, local gateway.
    OpenFaas,
    /// SAND: many-to-one, every function its own forked process.
    Sand,
    /// Faastlane: many-to-one, threads for sequential stages, forked
    /// processes for parallel stages.
    Faastlane,
    /// Faastlane-T: threads only (§2.2 comparison configuration).
    FaastlaneT,
    /// Faastlane+: fixed five processes per sandbox (m-to-n, process-only).
    FaastlanePlus,
    /// Chiron: PGP-scheduled m-to-n with combined processes and threads.
    Chiron,
    /// Faastlane with Intel MPK thread isolation.
    FaastlaneM,
    /// Chiron with Intel MPK thread isolation.
    ChironM,
    /// Faastlane with a process pool.
    FaastlaneP,
    /// Chiron with a process pool (single wrap, shared-CPU affinity).
    ChironP,
}

impl SystemKind {
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Asf => "ASF",
            SystemKind::OpenFaas => "OpenFaaS",
            SystemKind::Sand => "SAND",
            SystemKind::Faastlane => "Faastlane",
            SystemKind::FaastlaneT => "Faastlane-T",
            SystemKind::FaastlanePlus => "Faastlane+",
            SystemKind::Chiron => "Chiron",
            SystemKind::FaastlaneM => "Faastlane-M",
            SystemKind::ChironM => "Chiron-M",
            SystemKind::ChironP => "Chiron-P",
            SystemKind::FaastlaneP => "Faastlane-P",
        }
    }
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Static description of one sandbox in a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SandboxPlan {
    pub id: SandboxId,
    /// Whole CPUs allocated via cgroups (the paper's allocation unit, §6).
    pub cpus: u32,
    /// Pre-forked pool workers resident in this sandbox (`-P` variants).
    pub pool_size: u32,
}

/// A complete deployment of one workflow onto the platform.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentPlan {
    pub system: SystemKind,
    pub workflow: String,
    pub runtime: RuntimeKind,
    pub isolation: IsolationKind,
    pub transfer: TransferKind,
    pub scheduling: SchedulingKind,
    pub sandboxes: Vec<SandboxPlan>,
    pub stages: Vec<StagePlan>,
}

/// Plan-validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A wrap references a sandbox id not declared in `sandboxes`.
    UnknownSandbox(SandboxId),
    /// A process plan hosts no functions.
    EmptyProcess { stage: usize, wrap: usize },
    /// A stage has no wraps.
    EmptyStage(usize),
    /// A sandbox was allocated zero CPUs.
    ZeroCpus(SandboxId),
    /// The set of functions in some stage's wraps does not equal the
    /// workflow stage's function set.
    StageMismatch { stage: usize },
    /// A pooled process was placed in a sandbox with no pool workers.
    PoolMissing { stage: usize, wrap: usize },
    /// Two entries of `sandboxes` share one id.
    DuplicateSandbox(SandboxId),
    /// The workflow the plan is executed against fails
    /// [`Workflow::validate`](crate::Workflow::validate).
    InvalidWorkflow(WorkflowError),
    /// A pseudo-parallel plan on a platform whose GIL switch interval is
    /// zero: the GIL holder's quantum would never expire.
    ZeroGilInterval,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownSandbox(id) => write!(f, "plan references undeclared {id}"),
            PlanError::EmptyProcess { stage, wrap } => {
                write!(f, "stage {stage} wrap {wrap} contains an empty process")
            }
            PlanError::EmptyStage(s) => write!(f, "stage {s} has no wraps"),
            PlanError::ZeroCpus(id) => write!(f, "{id} allocated zero CPUs"),
            PlanError::StageMismatch { stage } => {
                write!(f, "stage {stage} plan does not cover the stage's functions")
            }
            PlanError::PoolMissing { stage, wrap } => {
                write!(
                    f,
                    "stage {stage} wrap {wrap} uses Pool spawn in a pool-less sandbox"
                )
            }
            PlanError::DuplicateSandbox(id) => write!(f, "{id} is declared twice"),
            PlanError::InvalidWorkflow(e) => write!(f, "invalid workflow: {e}"),
            PlanError::ZeroGilInterval => {
                write!(f, "pseudo-parallel plan on a zero GIL switch interval")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl DeploymentPlan {
    /// Total CPUs allocated across all sandboxes (Fig. 17's metric).
    pub fn total_cpus(&self) -> u32 {
        self.sandboxes.iter().map(|s| s.cpus).sum()
    }

    pub fn sandbox_count(&self) -> usize {
        self.sandboxes.len()
    }

    /// The sandbox declared under `id`. The planners number sandboxes
    /// densely (`sandboxes[i].id == i`), so the slot `id` names is tried
    /// first and the list is searched only when that slot holds another
    /// id. Ids are unique in every plan that passes
    /// [`validate`](Self::validate), so either way this is the one
    /// declaration of `id`.
    pub fn sandbox(&self, id: SandboxId) -> Option<&SandboxPlan> {
        match self.sandboxes.get(id.index()) {
            Some(sb) if sb.id == id => Some(sb),
            _ => self.sandboxes.iter().find(|s| s.id == id),
        }
    }

    /// Validates internal consistency against the workflow's stage sets.
    ///
    /// `stage_functions[i]` must list exactly the functions of workflow
    /// stage `i` (any order).
    pub fn validate(&self, stage_functions: &[Vec<FunctionId>]) -> Result<(), PlanError> {
        // Strictly ascending ids (dense ones included) cannot repeat; any
        // other order is checked pairwise.
        let ascending = self.sandboxes.windows(2).all(|w| w[0].id < w[1].id);
        if !ascending {
            for (i, sb) in self.sandboxes.iter().enumerate() {
                if self.sandboxes[..i].iter().any(|s| s.id == sb.id) {
                    return Err(PlanError::DuplicateSandbox(sb.id));
                }
            }
        }
        for (si, stage) in self.stages.iter().enumerate() {
            if stage.wraps.is_empty() {
                return Err(PlanError::EmptyStage(si));
            }
            let mut got: Vec<FunctionId> = Vec::with_capacity(stage.function_count());
            for (wi, wrap) in stage.wraps.iter().enumerate() {
                let sb = self
                    .sandbox(wrap.sandbox)
                    .ok_or(PlanError::UnknownSandbox(wrap.sandbox))?;
                for proc in &wrap.processes {
                    if proc.functions.is_empty() {
                        return Err(PlanError::EmptyProcess {
                            stage: si,
                            wrap: wi,
                        });
                    }
                    if proc.spawn == ProcessSpawn::Pool && sb.pool_size == 0 {
                        return Err(PlanError::PoolMissing {
                            stage: si,
                            wrap: wi,
                        });
                    }
                    got.extend(proc.functions.iter().copied());
                }
            }
            let mut want = stage_functions
                .get(si)
                .cloned()
                .ok_or(PlanError::StageMismatch { stage: si })?;
            got.sort_unstable();
            want.sort_unstable();
            if got != want {
                return Err(PlanError::StageMismatch { stage: si });
            }
        }
        if self.stages.len() != stage_functions.len() {
            return Err(PlanError::StageMismatch {
                stage: self.stages.len().min(stage_functions.len()),
            });
        }
        for sb in &self.sandboxes {
            if sb.cpus == 0 {
                return Err(PlanError::ZeroCpus(sb.id));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_one_stage(wraps: Vec<WrapPlan>, sandboxes: Vec<SandboxPlan>) -> DeploymentPlan {
        DeploymentPlan {
            system: SystemKind::Chiron,
            workflow: "t".into(),
            runtime: RuntimeKind::PseudoParallel,
            isolation: IsolationKind::None,
            transfer: TransferKind::RpcPayload,
            scheduling: SchedulingKind::PreDeployed,
            sandboxes,
            stages: vec![StagePlan { wraps }],
        }
    }

    fn fid(v: u32) -> FunctionId {
        FunctionId(v)
    }

    #[test]
    fn validate_ok() {
        let plan = plan_one_stage(
            vec![WrapPlan {
                sandbox: SandboxId(0),
                processes: vec![
                    ProcessPlan::forked(vec![fid(0), fid(1)]),
                    ProcessPlan::forked(vec![fid(2)]),
                ],
            }],
            vec![SandboxPlan {
                id: SandboxId(0),
                cpus: 2,
                pool_size: 0,
            }],
        );
        plan.validate(&[vec![fid(0), fid(1), fid(2)]]).unwrap();
        assert_eq!(plan.total_cpus(), 2);
    }

    #[test]
    fn detects_stage_mismatch() {
        let plan = plan_one_stage(
            vec![WrapPlan {
                sandbox: SandboxId(0),
                processes: vec![ProcessPlan::forked(vec![fid(0)])],
            }],
            vec![SandboxPlan {
                id: SandboxId(0),
                cpus: 1,
                pool_size: 0,
            }],
        );
        let err = plan.validate(&[vec![fid(0), fid(1)]]).unwrap_err();
        assert_eq!(err, PlanError::StageMismatch { stage: 0 });
    }

    #[test]
    fn detects_unknown_sandbox() {
        let plan = plan_one_stage(
            vec![WrapPlan {
                sandbox: SandboxId(7),
                processes: vec![ProcessPlan::forked(vec![fid(0)])],
            }],
            vec![SandboxPlan {
                id: SandboxId(0),
                cpus: 1,
                pool_size: 0,
            }],
        );
        assert_eq!(
            plan.validate(&[vec![fid(0)]]).unwrap_err(),
            PlanError::UnknownSandbox(SandboxId(7))
        );
    }

    #[test]
    fn detects_pool_missing() {
        let plan = plan_one_stage(
            vec![WrapPlan {
                sandbox: SandboxId(0),
                processes: vec![ProcessPlan::pooled(vec![fid(0)])],
            }],
            vec![SandboxPlan {
                id: SandboxId(0),
                cpus: 1,
                pool_size: 0,
            }],
        );
        assert_eq!(
            plan.validate(&[vec![fid(0)]]).unwrap_err(),
            PlanError::PoolMissing { stage: 0, wrap: 0 }
        );
    }

    #[test]
    fn detects_zero_cpus() {
        let plan = plan_one_stage(
            vec![WrapPlan {
                sandbox: SandboxId(0),
                processes: vec![ProcessPlan::forked(vec![fid(0)])],
            }],
            vec![SandboxPlan {
                id: SandboxId(0),
                cpus: 0,
                pool_size: 0,
            }],
        );
        assert_eq!(
            plan.validate(&[vec![fid(0)]]).unwrap_err(),
            PlanError::ZeroCpus(SandboxId(0))
        );
    }

    #[test]
    fn detects_duplicate_sandbox() {
        let sb = |id, cpus| SandboxPlan {
            id: SandboxId(id),
            cpus,
            pool_size: 0,
        };
        let plan = plan_one_stage(
            vec![WrapPlan {
                sandbox: SandboxId(1),
                processes: vec![ProcessPlan::forked(vec![fid(0)])],
            }],
            vec![sb(1, 2), sb(0, 1), sb(1, 1)],
        );
        assert_eq!(
            plan.validate(&[vec![fid(0)]]).unwrap_err(),
            PlanError::DuplicateSandbox(SandboxId(1))
        );
    }

    #[test]
    fn sandbox_lookup_matches_a_linear_search() {
        let sb = |id| SandboxPlan {
            id: SandboxId(id),
            cpus: id + 1,
            pool_size: 0,
        };
        // Dense, sparse, permuted and partly dense declarations.
        for ids in [
            vec![0, 1, 2, 3],
            vec![0, 2, 5, 9],
            vec![3, 1, 0, 2],
            vec![0, 1, 7, 3],
            vec![4],
            vec![],
        ] {
            let plan = plan_one_stage(Vec::new(), ids.iter().map(|&i| sb(i)).collect());
            for id in 0..12 {
                let id = SandboxId(id);
                assert_eq!(
                    plan.sandbox(id),
                    plan.sandboxes.iter().find(|s| s.id == id),
                    "{ids:?} {id}"
                );
            }
        }
    }

    #[test]
    fn first_fit_packs_in_declaration_order() {
        let plan = plan_one_stage(
            vec![WrapPlan {
                sandbox: SandboxId(0),
                processes: vec![ProcessPlan::forked(vec![fid(0)])],
            }],
            vec![
                SandboxPlan {
                    id: SandboxId(0),
                    cpus: 30,
                    pool_size: 0,
                },
                SandboxPlan {
                    id: SandboxId(1),
                    cpus: 20,
                    pool_size: 0,
                },
                SandboxPlan {
                    id: SandboxId(2),
                    cpus: 10,
                    pool_size: 0,
                },
            ],
        );
        let p = NodePlacement::first_fit(&plan, 40);
        // 30 fills node 0 to 10 spare; 20 opens node 1; 10 back-fills node 0.
        assert_eq!(p.node_of(SandboxId(0)), Some(0));
        assert_eq!(p.node_of(SandboxId(1)), Some(1));
        assert_eq!(p.node_of(SandboxId(2)), Some(0));
        assert!(p.colocated(SandboxId(0), SandboxId(2)));
        assert!(!p.colocated(SandboxId(0), SandboxId(1)));
        assert!(p.colocated(SandboxId(1), SandboxId(1)));
        assert!(!p.colocated(SandboxId(0), SandboxId(9)));
    }

    #[test]
    fn first_fit_gives_oversize_sandboxes_their_own_node() {
        let plan = plan_one_stage(
            vec![WrapPlan {
                sandbox: SandboxId(0),
                processes: vec![ProcessPlan::forked(vec![fid(0)])],
            }],
            vec![
                SandboxPlan {
                    id: SandboxId(0),
                    cpus: 64,
                    pool_size: 0,
                },
                SandboxPlan {
                    id: SandboxId(1),
                    cpus: 1,
                    pool_size: 0,
                },
            ],
        );
        let p = NodePlacement::first_fit(&plan, 40);
        assert_eq!(p.node_of(SandboxId(0)), Some(0));
        assert_eq!(p.node_of(SandboxId(1)), Some(1));
    }

    #[test]
    fn system_labels() {
        assert_eq!(SystemKind::FaastlaneT.label(), "Faastlane-T");
    }
}

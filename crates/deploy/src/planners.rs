//! Deployment planners for every system of the evaluation (§6, "Metrics
//! and comparison algorithms"):
//!
//! * **ASF** and **OpenFaaS** — the one-to-one model: one sandbox per
//!   function, object-store data passing, gateway scheduling.
//! * **SAND** — many-to-one with one forked process per function.
//! * **Faastlane** — many-to-one with threads for sequential stages and
//!   forked processes for parallel stages.
//! * **Faastlane-T** — threads only; **Faastlane+** — fixed five processes
//!   per sandbox (a static m-to-n); **Faastlane-M** — Faastlane with Intel
//!   MPK; **Faastlane-P** — Faastlane with a process pool.
//! * **Chiron / Chiron-M / Chiron-P** — PGP-scheduled plans (delegated to
//!   `chiron-pgp`).
//!
//! Uniform resource allocation (Observation 4) is baked into the
//! baselines: one CPU per function for one-to-one systems, max-parallelism
//! CPUs for the many-to-one systems.

use chiron_model::plan::{
    DeploymentPlan, IsolationKind, ProcessPlan, RuntimeKind, SandboxId, SandboxPlan,
    SchedulingKind, StagePlan, SystemKind, TransferKind, WrapPlan,
};
use chiron_model::{SimDuration, Workflow};
use chiron_pgp::{PgpConfig, PgpMode, PgpScheduler, PrewarmBudget, ScheduleOutcome};
use chiron_profiler::WorkflowProfile;

/// Number of processes Faastlane+ fixes per sandbox (§2.2).
const FAASTLANE_PLUS_PROCS_PER_SANDBOX: usize = 5;

fn single_sandbox(cpus: u32, pool_size: u32) -> Vec<SandboxPlan> {
    vec![SandboxPlan {
        id: SandboxId(0),
        cpus,
        pool_size,
    }]
}

/// One-to-one plan: every function in its own single-CPU sandbox.
fn one_to_one(
    workflow: &Workflow,
    system: SystemKind,
    transfer: TransferKind,
    scheduling: SchedulingKind,
) -> DeploymentPlan {
    let mut sandboxes = Vec::with_capacity(workflow.function_count());
    let mut stages = Vec::with_capacity(workflow.stage_count());
    let mut next = 0u32;
    for stage in &workflow.stages {
        let wraps = stage
            .functions
            .iter()
            .map(|&f| {
                let id = SandboxId(next);
                next += 1;
                sandboxes.push(SandboxPlan {
                    id,
                    cpus: 1,
                    pool_size: 0,
                });
                WrapPlan {
                    sandbox: id,
                    processes: vec![ProcessPlan::main_reuse(vec![f])],
                }
            })
            .collect();
        stages.push(StagePlan { wraps });
    }
    DeploymentPlan {
        system,
        workflow: workflow.name.clone(),
        runtime: RuntimeKind::PseudoParallel,
        isolation: IsolationKind::None,
        transfer,
        scheduling,
        sandboxes,
        stages,
    }
}

/// AWS Step Functions: one-to-one, S3 data passing, wave scheduling.
pub fn asf(workflow: &Workflow) -> DeploymentPlan {
    one_to_one(
        workflow,
        SystemKind::Asf,
        TransferKind::RemoteS3,
        SchedulingKind::Asf,
    )
}

/// OpenFaaS: one-to-one, MinIO data passing, local gateway.
pub fn openfaas(workflow: &Workflow) -> DeploymentPlan {
    one_to_one(
        workflow,
        SystemKind::OpenFaas,
        TransferKind::LocalMinio,
        SchedulingKind::OpenFaasGateway,
    )
}

/// SAND: application-level sandboxing — one shared sandbox, every function
/// executed in a separate forked process.
pub fn sand(workflow: &Workflow) -> DeploymentPlan {
    let cpus = workflow.max_parallelism() as u32;
    let stages = workflow
        .stages
        .iter()
        .map(|stage| StagePlan {
            wraps: vec![WrapPlan {
                sandbox: SandboxId(0),
                processes: stage
                    .functions
                    .iter()
                    .map(|&f| ProcessPlan::forked(vec![f]))
                    .collect(),
            }],
        })
        .collect();
    DeploymentPlan {
        system: SystemKind::Sand,
        workflow: workflow.name.clone(),
        runtime: RuntimeKind::PseudoParallel,
        isolation: IsolationKind::None,
        transfer: TransferKind::RpcPayload,
        scheduling: SchedulingKind::PreDeployed,
        sandboxes: single_sandbox(cpus, 0),
        stages,
    }
}

/// Faastlane: threads for sequential stages (zero interaction cost),
/// forked processes for parallel stages (true parallelism).
pub fn faastlane(workflow: &Workflow) -> DeploymentPlan {
    let cpus = workflow.max_parallelism() as u32;
    let stages = workflow
        .stages
        .iter()
        .map(|stage| StagePlan {
            wraps: vec![WrapPlan {
                sandbox: SandboxId(0),
                processes: if stage.parallelism() == 1 {
                    vec![ProcessPlan::main_reuse(stage.functions.clone())]
                } else {
                    stage
                        .functions
                        .iter()
                        .map(|&f| ProcessPlan::forked(vec![f]))
                        .collect()
                },
            }],
        })
        .collect();
    DeploymentPlan {
        system: SystemKind::Faastlane,
        workflow: workflow.name.clone(),
        runtime: RuntimeKind::PseudoParallel,
        isolation: IsolationKind::None,
        transfer: TransferKind::RpcPayload,
        scheduling: SchedulingKind::PreDeployed,
        sandboxes: single_sandbox(cpus, 0),
        stages,
    }
}

/// Faastlane-T: every function of every stage as a thread of the
/// orchestrator process (§2.2's thread-only configuration).
pub fn faastlane_t(workflow: &Workflow) -> DeploymentPlan {
    let mut plan = faastlane(workflow);
    plan.system = SystemKind::FaastlaneT;
    for (si, stage) in workflow.stages.iter().enumerate() {
        plan.stages[si].wraps[0].processes = vec![ProcessPlan::main_reuse(stage.functions.clone())];
    }
    // The GIL admits one running thread; blocking ops overlap for free.
    plan.sandboxes = single_sandbox(1, 0);
    plan
}

/// Faastlane+: a fixed five processes per sandbox (§2.2's static m-to-n
/// configuration).
pub fn faastlane_plus(workflow: &Workflow) -> DeploymentPlan {
    let per = FAASTLANE_PLUS_PROCS_PER_SANDBOX;
    let mut n_sandboxes = 1usize;
    let mut stages = Vec::with_capacity(workflow.stage_count());
    for stage in &workflow.stages {
        if stage.parallelism() == 1 {
            stages.push(StagePlan {
                wraps: vec![WrapPlan {
                    sandbox: SandboxId(0),
                    processes: vec![ProcessPlan::main_reuse(stage.functions.clone())],
                }],
            });
            continue;
        }
        let mut wraps: Vec<WrapPlan> = Vec::new();
        for (i, chunk) in stage.functions.chunks(per).enumerate() {
            wraps.push(WrapPlan {
                sandbox: SandboxId(i as u32),
                processes: chunk
                    .iter()
                    .map(|&f| ProcessPlan::forked(vec![f]))
                    .collect(),
            });
        }
        n_sandboxes = n_sandboxes.max(wraps.len());
        stages.push(StagePlan { wraps });
    }
    let sandboxes = (0..n_sandboxes as u32)
        .map(|i| SandboxPlan {
            id: SandboxId(i),
            cpus: per as u32,
            pool_size: 0,
        })
        .collect();
    DeploymentPlan {
        system: SystemKind::FaastlanePlus,
        workflow: workflow.name.clone(),
        runtime: RuntimeKind::PseudoParallel,
        isolation: IsolationKind::None,
        transfer: TransferKind::RpcPayload,
        scheduling: SchedulingKind::PreDeployed,
        sandboxes,
        stages,
    }
}

/// Faastlane-M: Faastlane with Intel MPK protecting thread execution.
pub fn faastlane_m(workflow: &Workflow) -> DeploymentPlan {
    let mut plan = faastlane(workflow);
    plan.system = SystemKind::FaastlaneM;
    plan.isolation = IsolationKind::Mpk;
    plan
}

/// Faastlane-P: parallel stages dispatched onto a pre-forked process pool
/// sized to the maximum parallelism (uniform allocation).
pub fn faastlane_p(workflow: &Workflow) -> DeploymentPlan {
    let par = workflow.max_parallelism() as u32;
    let mut plan = faastlane(workflow);
    plan.system = SystemKind::FaastlaneP;
    plan.sandboxes = single_sandbox(par, par);
    for (si, stage) in workflow.stages.iter().enumerate() {
        if stage.parallelism() > 1 {
            plan.stages[si].wraps[0].processes = stage
                .functions
                .iter()
                .map(|&f| ProcessPlan::pooled(vec![f]))
                .collect();
        }
    }
    plan
}

/// Chiron: the PGP-scheduled m-to-n plan with combined processes/threads.
pub fn chiron(
    workflow: &Workflow,
    profile: &WorkflowProfile,
    slo: Option<SimDuration>,
) -> ScheduleOutcome {
    chiron_with_mode(workflow, profile, slo, PgpMode::NativeThread)
}

/// Chiron-M: PGP with Intel MPK thread isolation (§4).
pub fn chiron_m(
    workflow: &Workflow,
    profile: &WorkflowProfile,
    slo: Option<SimDuration>,
) -> ScheduleOutcome {
    chiron_with_mode(workflow, profile, slo, PgpMode::Mpk)
}

/// Chiron-P: PGP with a single pool-based wrap (§4).
pub fn chiron_p(
    workflow: &Workflow,
    profile: &WorkflowProfile,
    slo: Option<SimDuration>,
) -> ScheduleOutcome {
    chiron_with_mode(workflow, profile, slo, PgpMode::Pool)
}

fn chiron_with_mode(
    workflow: &Workflow,
    profile: &WorkflowProfile,
    slo: Option<SimDuration>,
    mode: PgpMode,
) -> ScheduleOutcome {
    let config = match slo {
        Some(slo) => PgpConfig::with_slo(slo).with_mode(mode),
        None => PgpConfig::performance_first().with_mode(mode),
    };
    PgpScheduler::paper_calibrated().schedule(workflow, profile, &config)
}

/// Chiron co-optimised against a prewarm budget: PGP's objective adds the
/// amortised startup exposure each candidate plan's footprint leaves
/// uncovered under `budget` (see [`chiron_pgp::PrewarmBudget`]), biasing
/// the search toward plans whose tier pools are cheap to keep warm.
pub fn chiron_prewarmed(
    workflow: &Workflow,
    profile: &WorkflowProfile,
    slo: Option<SimDuration>,
    budget: PrewarmBudget,
) -> ScheduleOutcome {
    let config = match slo {
        Some(slo) => PgpConfig::with_slo(slo),
        None => PgpConfig::performance_first(),
    }
    .with_prewarm(budget);
    PgpScheduler::paper_calibrated().schedule(workflow, profile, &config)
}

/// Converts any plan to the Java / no-GIL runtime (Fig. 18): threads gain
/// true parallelism; everything else is unchanged.
pub fn to_java(mut plan: DeploymentPlan) -> DeploymentPlan {
    plan.runtime = RuntimeKind::TrueParallel;
    plan
}

/// Builds the plan for any baseline system (the `SystemKind`s that do not
/// need a profile or SLO).
pub fn baseline(system: SystemKind, workflow: &Workflow) -> Option<DeploymentPlan> {
    Some(match system {
        SystemKind::Asf => asf(workflow),
        SystemKind::OpenFaas => openfaas(workflow),
        SystemKind::Sand => sand(workflow),
        SystemKind::Faastlane => faastlane(workflow),
        SystemKind::FaastlaneT => faastlane_t(workflow),
        SystemKind::FaastlanePlus => faastlane_plus(workflow),
        SystemKind::FaastlaneM => faastlane_m(workflow),
        SystemKind::FaastlaneP => faastlane_p(workflow),
        SystemKind::Chiron | SystemKind::ChironM | SystemKind::ChironP => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_model::{apps, FunctionId};
    use chiron_profiler::Profiler;

    fn stage_sets(wf: &Workflow) -> Vec<Vec<FunctionId>> {
        wf.stages.iter().map(|s| s.functions.clone()).collect()
    }

    #[test]
    fn all_baselines_validate_on_all_benchmarks() {
        let systems = [
            SystemKind::Asf,
            SystemKind::OpenFaas,
            SystemKind::Sand,
            SystemKind::Faastlane,
            SystemKind::FaastlaneT,
            SystemKind::FaastlanePlus,
            SystemKind::FaastlaneM,
            SystemKind::FaastlaneP,
        ];
        for wf in apps::evaluation_suite() {
            for sys in systems {
                let plan = baseline(sys, &wf).expect("baseline plan");
                plan.validate(&stage_sets(&wf))
                    .unwrap_or_else(|e| panic!("{sys} on {}: {e}", wf.name));
                assert_eq!(plan.system, sys);
            }
        }
    }

    #[test]
    fn one_to_one_has_one_sandbox_per_function() {
        let wf = apps::social_network();
        let plan = openfaas(&wf);
        assert_eq!(plan.sandbox_count(), 10);
        assert_eq!(plan.total_cpus(), 10);
        assert_eq!(plan.transfer, TransferKind::LocalMinio);
    }

    #[test]
    fn asf_uses_s3_and_wave_scheduling() {
        let wf = apps::finra(5);
        let plan = asf(&wf);
        assert_eq!(plan.transfer, TransferKind::RemoteS3);
        assert_eq!(plan.scheduling, SchedulingKind::Asf);
    }

    #[test]
    fn faastlane_mixes_threads_and_processes() {
        let wf = apps::finra(5);
        let plan = faastlane(&wf);
        // Stage 1 (sequential): orchestrator thread.
        assert_eq!(plan.stages[0].wraps[0].processes.len(), 1);
        assert_eq!(
            plan.stages[0].wraps[0].processes[0].spawn,
            chiron_model::ProcessSpawn::MainReuse
        );
        // Stage 2 (parallel): five forked processes.
        assert_eq!(plan.stages[1].wraps[0].processes.len(), 5);
        assert_eq!(plan.total_cpus(), 5);
    }

    #[test]
    fn faastlane_plus_packs_five_per_sandbox() {
        let wf = apps::finra(12);
        let plan = faastlane_plus(&wf);
        assert_eq!(plan.stages[1].wraps.len(), 3); // 5 + 5 + 2
        assert_eq!(plan.stages[1].wraps[0].processes.len(), 5);
        assert_eq!(plan.stages[1].wraps[2].processes.len(), 2);
        assert_eq!(plan.sandbox_count(), 3);
    }

    #[test]
    fn pool_variant_uses_pool_spawn() {
        let wf = apps::finra(5);
        let plan = faastlane_p(&wf);
        assert_eq!(plan.sandboxes[0].pool_size, 5);
        for proc in &plan.stages[1].wraps[0].processes {
            assert_eq!(proc.spawn, chiron_model::ProcessSpawn::Pool);
        }
    }

    #[test]
    fn chiron_plans_validate() {
        for wf in [apps::finra(5), apps::slapp()] {
            let profile = Profiler::default().profile_workflow(&wf);
            for out in [
                chiron(&wf, &profile, None),
                chiron_m(&wf, &profile, None),
                chiron_p(&wf, &profile, None),
            ] {
                out.plan.validate(&stage_sets(&wf)).unwrap();
            }
        }
    }

    #[test]
    fn java_mode_switches_runtime() {
        let wf = apps::slapp();
        let plan = to_java(faastlane_t(&wf));
        assert_eq!(plan.runtime, RuntimeKind::TrueParallel);
    }
}

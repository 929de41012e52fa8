//! The compiled executor and the retained reference executor are two
//! implementations of one simulation. For every branch the plan compiler
//! resolves ahead of time — the paper's eight workflows under Chiron,
//! Faastlane and OpenFaaS, ASF's gateway waves and store transfers, MPK
//! segment stretch, pool dispatch, shm-ring placement, cold starts, and a
//! Chiron plan squeezed onto too few CPUs — they return identical
//! [`RequestOutcome`]s, with one scratch reused across every case. The
//! scratch's compiled plan is keyed by value, so alternating inputs can
//! never replay a stale plan, and malformed inputs are typed errors.

use chiron::model::plan::{
    DeploymentPlan, IsolationKind, ProcessPlan, RuntimeKind, SandboxPlan, SchedulingKind,
    StagePlan, SystemKind, TransferKind, WrapPlan,
};
use chiron::model::{
    apps, FunctionId, FunctionSpec, JitterModel, PlanError, PlatformConfig, SandboxId, Segment,
    SimDuration, Stage, Workflow, WorkflowError,
};
use chiron::{Chiron, PgpConfig, PgpMode, PgpScheduler};
use chiron_deploy::planners;
use chiron_profiler::Profiler;
use chiron_runtime::{RequestOutcome, SimScratch, SpanKind, VirtualPlatform};

const SEEDS: [u64; 3] = [0, 1, 2023];

fn jittered() -> VirtualPlatform {
    VirtualPlatform::new(PlatformConfig::paper_calibrated().with_jitter(JitterModel::cluster()))
}

fn chiron_plan(wf: &Workflow) -> DeploymentPlan {
    Chiron::default()
        .deploy(wf, None, PgpMode::NativeThread)
        .plan()
        .clone()
}

/// A Chiron plan packing FINRA's ten KL-refined rule processes into one
/// forked wrap, with its sandbox cut from ten CPUs to one: the fluid rate
/// drops to a tenth, so CPU segments outlast their GIL quanta and the
/// quanta expire.
fn squeezed(wf: &Workflow) -> DeploymentPlan {
    let sched = PgpScheduler::paper_calibrated();
    let partitions = sched.partitions(wf, &Profiler::default().profile_workflow(wf), 10);
    let mut plan = sched.materialize(wf, &partitions, 1, IsolationKind::None, 0);
    for sandbox in &mut plan.sandboxes {
        sandbox.cpus = 1;
    }
    plan
}

/// Whether some thread's CPU work was preempted: split over more `Exec`
/// spans than its function has CPU segments.
fn preempted(wf: &Workflow, outcome: &RequestOutcome) -> bool {
    outcome.timelines.iter().any(|t| {
        let spans = t.spans(&outcome.spans);
        let execs = spans.iter().filter(|s| s.kind == SpanKind::Exec).count();
        let cpu_segments = wf
            .function(t.function)
            .segments
            .iter()
            .filter(|s| matches!(s, Segment::Cpu(_)))
            .count();
        execs > cpu_segments
    })
}

fn assert_engines_agree(
    platform: &VirtualPlatform,
    wf: &Workflow,
    plan: &DeploymentPlan,
    scratch: &mut SimScratch,
) -> Vec<RequestOutcome> {
    SEEDS
        .into_iter()
        .map(|seed| {
            let fast = platform
                .execute_with_scratch(wf, plan, seed, scratch)
                .expect("plan executes");
            let reference = platform
                .execute_reference(wf, plan, seed)
                .expect("plan executes");
            assert_eq!(fast, reference, "{} {:?} seed {seed}", wf.name, plan.system);
            fast
        })
        .collect()
}

#[test]
fn fluid_engine_matches_reference_engine() {
    let wf = apps::finra(50);
    let platform = jittered();
    let squeezed = squeezed(&wf);
    assert!(squeezed.stages[1].wraps[0].processes.len() > squeezed.sandboxes[0].cpus as usize);

    let mut scratch = SimScratch::new();
    let outcomes = assert_engines_agree(&platform, &wf, &squeezed, &mut scratch);
    assert!(
        outcomes.iter().all(|o| preempted(&wf, o)),
        "the squeezed plan must expire GIL quanta"
    );
}

#[test]
fn evaluation_suite_plans_match_reference() {
    let platform = jittered();
    let mut scratch = SimScratch::new();
    for wf in &apps::evaluation_suite() {
        for plan in [
            chiron_plan(wf),
            planners::faastlane(wf),
            planners::openfaas(wf),
        ] {
            assert_engines_agree(&platform, wf, &plan, &mut scratch);
        }
    }
}

#[test]
fn every_compiled_branch_matches_reference() {
    let platform = jittered();
    let mut scratch = SimScratch::new();

    // ASF: more functions than one scheduling wave, S3 reads and writes.
    let wf = apps::finra(12);
    let asf = planners::asf(&wf);
    let outcome = &assert_engines_agree(&platform, &wf, &asf, &mut scratch)[0];
    assert!(outcome.total(SpanKind::TransferIn) > SimDuration::ZERO);
    assert!(outcome.total(SpanKind::TransferOut) > SimDuration::ZERO);

    // MPK: threads share an address space, so their segments stretch.
    let wf = apps::slapp();
    let mpk = planners::faastlane_m(&wf);
    assert_eq!(mpk.isolation, IsolationKind::Mpk);
    assert_engines_agree(&platform, &wf, &mpk, &mut scratch);
    let chiron_m = Chiron::default()
        .deploy(&wf, None, PgpMode::Mpk)
        .plan()
        .clone();
    assert_engines_agree(&platform, &wf, &chiron_m, &mut scratch);

    // Pool dispatch.
    let wf = apps::finra(20);
    let pool = planners::faastlane_p(&wf);
    assert!(pool.sandboxes.iter().any(|s| s.pool_size > 0));
    assert_engines_agree(&platform, &wf, &pool, &mut scratch);

    // Shm-ring placement: a multi-wrap Chiron plan whose wraps share a node.
    let wf = apps::finra(50);
    let ring = Chiron::default()
        .deploy_with_config(
            &wf,
            &PgpConfig::performance_first().with_transfer(TransferKind::ShmRing),
        )
        .plan()
        .clone();
    assert_eq!(ring.transfer, TransferKind::ShmRing);
    assert!(ring.max_wraps_per_stage() > 1);
    assert_engines_agree(&platform, &wf, &ring, &mut scratch);

    // Cold starts: charged on each sandbox's first use only.
    let cold = jittered().with_cold_starts(true);
    let chiron = chiron_plan(&wf);
    assert_engines_agree(&cold, &wf, &chiron, &mut scratch);
    assert_engines_agree(&cold, &wf, &planners::openfaas(&wf), &mut scratch);
}

/// A plan whose second stage names a function the workflow lacks.
fn bad_plan(wf: &Workflow) -> DeploymentPlan {
    let mut plan = planners::faastlane(wf);
    plan.stages[1].wraps[0].processes[0].functions[0] = FunctionId(9_999);
    plan
}

#[test]
fn compiled_plan_cache_never_leaks_between_inputs() {
    let platforms = [
        jittered(),
        VirtualPlatform::new(PlatformConfig::paper_calibrated()),
    ];
    let finra = apps::finra(20);
    let slapp = apps::slapp();
    let cases: Vec<(&Workflow, DeploymentPlan)> = vec![
        (&finra, planners::faastlane(&finra)),
        (&finra, planners::openfaas(&finra)),
        (&slapp, planners::faastlane(&slapp)),
        (&slapp, planners::openfaas(&slapp)),
        (&finra, bad_plan(&finra)),
    ];
    let mut reused = SimScratch::new();
    for round in 0..3u64 {
        for platform in &platforms {
            for (wf, plan) in &cases {
                let seed = 7 + round;
                let got = platform.execute_with_scratch(wf, plan, seed, &mut reused);
                let fresh = platform.execute_with_scratch(wf, plan, seed, &mut SimScratch::new());
                assert_eq!(got, fresh, "{} {:?} round {round}", wf.name, plan.system);
            }
        }
    }
    assert_eq!(
        platforms[0].execute(&finra, &bad_plan(&finra), 0),
        Err(PlanError::StageMismatch { stage: 1 })
    );
}

/// A struct-literal workflow bypasses `Workflow::new`'s validation.
fn literal(functions: Vec<FunctionSpec>, stages: Vec<Vec<u32>>) -> Workflow {
    Workflow {
        name: "literal".into(),
        functions,
        stages: stages
            .into_iter()
            .map(|fns| Stage {
                functions: fns.into_iter().map(FunctionId).collect(),
            })
            .collect(),
    }
}

fn one_wrap_plan(stages: Vec<Vec<u32>>, runtime: RuntimeKind) -> DeploymentPlan {
    DeploymentPlan {
        system: SystemKind::Chiron,
        workflow: "literal".into(),
        runtime,
        isolation: IsolationKind::None,
        transfer: TransferKind::RpcPayload,
        scheduling: SchedulingKind::PreDeployed,
        sandboxes: vec![SandboxPlan {
            id: SandboxId(0),
            cpus: 1,
            pool_size: 0,
        }],
        stages: stages
            .into_iter()
            .map(|fns| StagePlan {
                wraps: vec![WrapPlan {
                    sandbox: SandboxId(0),
                    processes: vec![ProcessPlan::main_reuse(
                        fns.into_iter().map(FunctionId).collect(),
                    )],
                }],
            })
            .collect(),
    }
}

#[test]
fn empty_workflow_is_a_typed_error() {
    let wf = literal(Vec::new(), Vec::new());
    let mut plan = one_wrap_plan(Vec::new(), RuntimeKind::PseudoParallel);
    plan.sandboxes.clear();
    assert_eq!(
        jittered().execute(&wf, &plan, 0),
        Err(PlanError::InvalidWorkflow(WorkflowError::Empty))
    );
}

#[test]
fn out_of_range_function_is_a_typed_error() {
    let wf = literal(
        vec![FunctionSpec::new("f", vec![Segment::cpu_ms(1)])],
        vec![vec![0, 3]],
    );
    let plan = one_wrap_plan(vec![vec![0, 3]], RuntimeKind::PseudoParallel);
    assert_eq!(
        jittered().execute(&wf, &plan, 0),
        Err(PlanError::InvalidWorkflow(WorkflowError::UnknownFunction {
            stage: 0,
            id: FunctionId(3),
        }))
    );
}

#[test]
fn zero_gil_interval_is_a_typed_error_under_the_gil_only() {
    let wf = apps::finra(5);
    let mut config = PlatformConfig::paper_calibrated();
    config.costs.gil_switch_interval = SimDuration::ZERO;
    let platform = VirtualPlatform::new(config);
    let plan = planners::faastlane(&wf);
    assert_eq!(plan.runtime, RuntimeKind::PseudoParallel);
    assert_eq!(
        platform.execute(&wf, &plan, 0),
        Err(PlanError::ZeroGilInterval)
    );
    // Without a GIL the interval is never read.
    assert!(platform.execute(&wf, &planners::to_java(plan), 0).is_ok());
}

//! The compiled executor and the retained reference executor are two
//! implementations of one simulation. For every branch the plan compiler
//! resolves ahead of time — the paper's eight workflows under Chiron,
//! Faastlane and OpenFaaS, ASF's gateway waves and store transfers, MPK
//! segment stretch, pool dispatch, shm-ring placement and hand-off, cold
//! starts, and a Chiron plan squeezed onto too few CPUs — they return
//! identical [`RequestOutcome`]s, with one scratch reused across every
//! case. The scratch's compiled plan is keyed by value, so alternating
//! inputs can never replay a stale plan, and malformed inputs are typed
//! errors.
//! Random workflows under every planner, with sandbox CPUs drawn on both
//! sides of the alone-wrap boundary, agree as well.

use chiron::model::plan::{
    DeploymentPlan, IsolationKind, ProcessPlan, ProcessSpawn, RuntimeKind, SandboxPlan,
    SchedulingKind, StagePlan, SystemKind, TransferKind, WrapPlan,
};
use chiron::model::{
    apps, synthetic, FunctionId, FunctionSpec, JitterModel, NodePlacement, PlanError,
    PlatformConfig, SandboxId, Segment, SimDuration, Stage, SyntheticSpec, SyscallKind, Workflow,
    WorkflowError,
};
use chiron::{Chiron, PgpConfig, PgpMode, PgpScheduler};
use chiron_deploy::planners;
use chiron_profiler::Profiler;
use chiron_runtime::{RequestOutcome, SimScratch, SpanKind, VirtualPlatform};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

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
    assert!(ring.stages.iter().any(|s| s.wraps.len() > 1));
    assert_engines_agree(&platform, &wf, &ring, &mut scratch);

    // Shm-ring stage hand-off: consecutive stages whose primaries are
    // different sandboxes on one node ride the ring, not an RPC.
    let wf = apps::finra(5);
    let mut handoff = planners::faastlane(&wf);
    handoff.transfer = TransferKind::ShmRing;
    let second = SandboxPlan {
        id: SandboxId(1),
        ..handoff.sandboxes[0]
    };
    handoff.sandboxes.push(second);
    handoff.stages[1].wraps[0].sandbox = SandboxId(1);
    let node_cpus = PlatformConfig::paper_calibrated().costs.node_cpus;
    assert!(NodePlacement::first_fit(&handoff, node_cpus).colocated(SandboxId(0), SandboxId(1)));
    assert_engines_agree(&platform, &wf, &handoff, &mut scratch);

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

/// Plans `wf` with planner `index` of `chiron_deploy::planners`.
fn planned(wf: &Workflow, index: usize) -> DeploymentPlan {
    let baselines = [
        planners::asf,
        planners::openfaas,
        planners::sand,
        planners::faastlane,
        planners::faastlane_t,
        planners::faastlane_plus,
        planners::faastlane_m,
        planners::faastlane_p,
    ];
    let chiron = [planners::chiron, planners::chiron_m, planners::chiron_p];
    match baselines.get(index) {
        Some(planner) => planner(wf),
        None => {
            chiron[index - baselines.len()](wf, &Profiler::default().profile_workflow(wf), None)
                .plan
        }
    }
}

thread_local! {
    /// One scratch reused by every case of the property.
    static REUSED: RefCell<SimScratch> = RefCell::new(SimScratch::new());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A synthetic workflow of `(seed, stages, width, I/O quarters)`, one
    /// planner's plan (`java` lifts the GIL; `transfer` below 4 overrides
    /// the data path), each sandbox given 1 to `lanes + 1` CPUs where
    /// `lanes` is its widest wrap, so wraps fall on both sides of the
    /// alone boundary; cold starts and jitter on or off.
    #[test]
    fn compiled_replay_matches_reference_on_random_plans(
        shape in (any::<u64>(), 1usize..5, 1usize..9, 0u8..5),
        planner in (0usize..11, any::<bool>(), 0u8..8),
        cpu_seed in any::<u64>(),
        platform in (any::<bool>(), any::<bool>(), any::<u64>()),
    ) {
        let ((wf_seed, stages, width, io), (index, java, transfer)) = (shape, planner);
        let (cold, jitter, seed) = platform;
        let wf = synthetic(SyntheticSpec {
            seed: wf_seed,
            stages,
            max_parallelism: width,
            io_fraction: f64::from(io) / 4.0,
            ..SyntheticSpec::default()
        });
        let mut plan = planned(&wf, index);
        if java {
            plan = planners::to_java(plan);
        }
        let kinds = [TransferKind::RemoteS3, TransferKind::LocalMinio, TransferKind::RpcPayload, TransferKind::ShmRing];
        plan.transfer = kinds.get(usize::from(transfer)).copied().unwrap_or(plan.transfer);
        let mut rng = StdRng::seed_from_u64(cpu_seed);
        for i in 0..plan.sandboxes.len() {
            let id = plan.sandboxes[i].id;
            let wraps = plan.stages.iter().flat_map(|s| &s.wraps).filter(|w| w.sandbox == id);
            let lanes = wraps.map(|w| w.processes.iter().map(|p| p.functions.len()).sum::<usize>()).max();
            plan.sandboxes[i].cpus = rng.random_range(1..=lanes.unwrap_or(1) as u32 + 1);
        }
        let config = PlatformConfig::paper_calibrated();
        let config = if jitter { config.with_jitter(JitterModel::cluster()) } else { config };
        let platform = VirtualPlatform::new(config).with_cold_starts(cold);
        let reused = REUSED.with(|s| platform.execute_with_scratch(&wf, &plan, seed, &mut s.borrow_mut()));
        let fresh = platform.execute_with_scratch(&wf, &plan, seed, &mut SimScratch::new());
        let reference = platform.execute_reference(&wf, &plan, seed);
        prop_assert!(reference.is_ok(), "{:?}: {reference:?}", plan.system);
        prop_assert_eq!(&reused, &fresh, "{} {:?}", wf.name, plan.system);
        prop_assert_eq!(fresh, reference, "{} {:?}", wf.name, plan.system);
    }
}

/// A platform, a workflow and a plan: what a replay is keyed on.
type Inputs = (VirtualPlatform, Workflow, DeploymentPlan);
/// What changes, the base plan's planner, whether the outcome moves, and
/// the change.
type Edit = (
    &'static str,
    fn(&Workflow) -> DeploymentPlan,
    bool,
    fn(&mut Inputs),
);

/// Changes each input field the compiled-plan key reads, and each field it
/// does not: a reused plan must give the fresh-scratch outcome either way,
/// and only a read field may move it.
#[test]
fn reuse_key_recompiles_on_every_read_field() {
    let finra = apps::finra(10);
    // FINRA's function 5 is a 12 ms rule that completes after others, so
    // its result pipes.
    let edits: [Edit; 20] = [
        (
            "segment duration",
            planners::faastlane,
            true,
            |(_, wf, _)| wf.functions[1].segments[0] = Segment::cpu_ms(3),
        ),
        ("segment kind", planners::faastlane, true, |(_, wf, _)| {
            let dur = wf.functions[1].segments[0].duration();
            let kind = SyscallKind::NetIo;
            wf.functions[1].segments[0] = Segment::Block { kind, dur };
        }),
        ("output bytes", planners::faastlane, true, |(_, wf, _)| {
            wf.functions[5].output_bytes = 64 << 20
        }),
        (
            "stage functions",
            planners::faastlane,
            true,
            |(_, wf, _)| {
                let moved = wf.stages[1].functions.pop().expect("FINRA has rules");
                wf.stages[0].functions.push(moved);
            },
        ),
        ("sandbox cpus", planners::faastlane, true, |(_, _, plan)| {
            plan.sandboxes[0].cpus = 1
        }),
        ("pool size", planners::faastlane_p, true, |(_, _, plan)| {
            plan.sandboxes[0].pool_size = 0
        }),
        ("sandbox id", planners::openfaas, true, |(_, _, plan)| {
            plan.sandboxes[0].id = SandboxId(999)
        }),
        ("wrap sandbox", planners::openfaas, true, |(_, _, plan)| {
            plan.stages[1].wraps[0].sandbox = plan.stages[1].wraps[1].sandbox
        }),
        (
            "process functions",
            planners::faastlane,
            true,
            |(_, _, plan)| plan.stages[1].wraps[0].processes.swap(0, 1),
        ),
        (
            "process spawn",
            planners::faastlane,
            true,
            |(_, _, plan)| plan.stages[1].wraps[0].processes[0].spawn = ProcessSpawn::MainReuse,
        ),
        ("runtime", planners::faastlane_t, true, |(_, _, plan)| {
            plan.runtime = RuntimeKind::TrueParallel
        }),
        ("transfer", planners::faastlane, true, |(_, _, plan)| {
            plan.transfer = TransferKind::LocalMinio
        }),
        ("isolation", planners::faastlane_t, true, |(_, _, plan)| {
            plan.isolation = IsolationKind::Mpk
        }),
        ("scheduling", planners::faastlane, true, |(_, _, plan)| {
            plan.scheduling = SchedulingKind::OpenFaasGateway
        }),
        ("jitter", planners::faastlane, true, |(platform, _, _)| {
            *platform = VirtualPlatform::new(PlatformConfig::paper_calibrated())
        }),
        (
            "cold starts",
            planners::faastlane,
            true,
            |(platform, _, _)| *platform = jittered().with_cold_starts(true),
        ),
        (
            "names and unread fields",
            planners::faastlane,
            false,
            |(_, wf, _)| {
                wf.name = "renamed".into();
                let f = &mut wf.functions[1];
                f.name = "renamed_rule".into();
                f.workingset_bytes *= 2;
                f.writes_files.push("/tmp/out".into());
            },
        ),
        ("plan system", planners::faastlane, false, |(_, _, plan)| {
            plan.system = SystemKind::Chiron
        }),
        (
            "plan workflow name",
            planners::faastlane,
            false,
            |(_, _, plan)| plan.workflow = "renamed".into(),
        ),
        (
            "plan names on a one-to-one plan",
            planners::openfaas,
            false,
            |(_, _, plan)| {
                (plan.system, plan.workflow) = (SystemKind::Asf, "renamed".into());
            },
        ),
    ];
    let mut scratch = SimScratch::new();
    for (what, planner, moves, edit) in edits {
        let mut inputs = (jittered(), finra.clone(), planner(&finra));
        let (platform, wf, plan) = &inputs;
        let before = platform.execute_with_scratch(wf, plan, 11, &mut scratch);
        assert!(before.is_ok(), "{what}: the base plan executes");
        edit(&mut inputs);
        let (platform, wf, plan) = &inputs;
        let got = platform.execute_with_scratch(wf, plan, 11, &mut scratch);
        let fresh = platform.execute_with_scratch(wf, plan, 11, &mut SimScratch::new());
        assert_eq!(got, fresh, "{what}");
        assert_eq!(got != before, moves, "{what}");
    }
}

//! The incremental fluid engine and the retained reference engine are two
//! implementations of one simulation: for every plan shape the deploy
//! path executes — Chiron's threaded wraps, Faastlane's one sandbox of
//! forked processes, OpenFaaS's sandbox per function — and for a Chiron
//! plan squeezed onto too few CPUs, they return identical
//! [`RequestOutcome`]s, with one scratch reused across every case.

use chiron::model::plan::{DeploymentPlan, IsolationKind};
use chiron::model::{apps, JitterModel, PlatformConfig, Segment, Workflow};
use chiron::{Chiron, PgpMode, PgpScheduler};
use chiron_deploy::planners;
use chiron_profiler::Profiler;
use chiron_runtime::{RequestOutcome, SimScratch, SpanKind, VirtualPlatform};

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
        let execs = t.spans.iter().filter(|s| s.kind == SpanKind::Exec).count();
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
    [0u64, 1, 2023]
        .into_iter()
        .map(|seed| {
            let fast = platform
                .execute_with_scratch(wf, plan, seed, scratch)
                .expect("plan executes");
            let reference = platform
                .execute_reference(wf, plan, seed)
                .expect("plan executes");
            assert_eq!(fast, reference, "{:?} seed {seed}", plan.system);
            fast
        })
        .collect()
}

#[test]
fn fluid_engine_matches_reference_engine() {
    let wf = apps::finra(50);
    let platform = VirtualPlatform::new(
        PlatformConfig::paper_calibrated().with_jitter(JitterModel::cluster()),
    );
    let chiron = Chiron::default()
        .deploy(&wf, None, PgpMode::NativeThread)
        .plan()
        .clone();
    let squeezed = squeezed(&wf);
    assert!(squeezed.stages[1].wraps[0].processes.len() > squeezed.sandboxes[0].cpus as usize);

    let mut scratch = SimScratch::new();
    for plan in [chiron, planners::faastlane(&wf), planners::openfaas(&wf)] {
        assert_engines_agree(&platform, &wf, &plan, &mut scratch);
    }
    let outcomes = assert_engines_agree(&platform, &wf, &squeezed, &mut scratch);
    assert!(
        outcomes.iter().all(|o| preempted(&wf, o)),
        "the squeezed plan must expire GIL quanta"
    );
}

//! The latency-attribution contracts, on random planned workflows.
//!
//! For any workflow the scheduler can plan and any seed, a traced serving
//! run must attribute every completed request such that the six
//! components — queueing, cold start, GIL block, interaction, execution,
//! retry — sum to the request's sojourn *exactly*, in integer
//! nanoseconds. And because attribution is a pure function of the trace,
//! and the trace is worker-count invariant, the full attribution render
//! must be byte-identical whether the serving cells ran on 1 worker or 4.
//!
//! This test binary owns the process-global tracing flag: no other test
//! in it flips `obs::set_tracing`, so the proptest cases can keep
//! it enabled throughout.

use chiron::obs::{self, Trace};
use chiron::serving::{FaultPlan, RouterPolicy, ServeConfig, ServeSimulation, Workload};
use chiron_bench::sweep::par_map_workers;
use chiron_deploy::NodeId;
use chiron_model::{FunctionSpec, Segment, SimDuration, SimTime, SyscallKind, Workflow};
use chiron_pgp::{PgpConfig, PgpMode, PgpScheduler};
use chiron_profiler::Profiler;
use proptest::prelude::*;

/// Same shapes as `trace_determinism.rs`: an entry function then a
/// parallel stage mixing CPU-bound and IO-punctuated functions.
fn arb_workflow() -> impl Strategy<Value = Workflow> {
    prop::collection::vec((0u8..2, 1u64..20, 1u64..4), 2..8).prop_map(|parts| {
        let fns: Vec<FunctionSpec> = parts
            .iter()
            .enumerate()
            .map(|(i, &(kind, ms, lead))| {
                let segments = if kind == 0 {
                    vec![Segment::cpu_ms(ms)]
                } else {
                    vec![
                        Segment::cpu_ms(lead),
                        Segment::Block {
                            kind: SyscallKind::NetIo,
                            dur: SimDuration::from_millis(ms),
                        },
                        Segment::cpu_ms(1),
                    ]
                };
                FunctionSpec::new(format!("f{i:02}"), segments)
            })
            .collect();
        let parallel: Vec<u32> = (1..fns.len() as u32).collect();
        Workflow::new("synthetic", fns, vec![vec![0], parallel]).unwrap()
    })
}

fn plan_for(wf: &Workflow) -> chiron_model::DeploymentPlan {
    let prof = Profiler::default().profile_workflow(wf);
    let sched = PgpScheduler::paper_calibrated();
    let config = PgpConfig::performance_first().with_mode(PgpMode::NativeThread);
    sched.schedule(wf, &prof, &config).plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Components sum exactly to the sojourn for every completed request,
    /// and the attribution render is byte-identical across worker counts.
    #[test]
    fn attribution_is_exact_and_worker_count_invariant(
        wf in arb_workflow(),
        seed in 0u64..1000,
    ) {
        const REQUESTS: u64 = 150;
        let plan = plan_for(&wf);
        let workload = Workload::steady(40.0, REQUESTS);
        // A mid-run node kill so requeue/retry paths are exercised too.
        let faults =
            FaultPlan::none().kill_at(SimTime::from_millis_f64(1_500.0), NodeId(0));
        let cells = RouterPolicy::ALL;
        let cell = |_: usize, &router: &RouterPolicy| {
            obs::begin_capture_sized(REQUESTS as usize * 10);
            let config = ServeConfig::paper_testbed().with_router(router);
            let report = ServeSimulation::new(wf.clone(), plan.clone(), config)
                .with_faults(faults.clone())
                .run(&workload, seed)
                .expect("serving run");
            (obs::end_capture(), report.completed)
        };

        obs::set_tracing(true);
        let solo: Vec<(Trace, u64)> = par_map_workers(&cells, 1, cell);
        for (trace, completed) in &solo {
            let attrib = obs::attribute(trace);
            prop_assert!(
                attrib.sums_exact(),
                "components must sum exactly to the sojourn:\n{}",
                attrib.render()
            );
            prop_assert_eq!(attrib.requests.len() as u64, *completed);
            prop_assert_eq!(attrib.incomplete, 0);
        }

        let render_of = |results: &[(Trace, u64)]| -> String {
            results
                .iter()
                .map(|(t, _)| obs::attribute(t).render())
                .collect()
        };
        let solo_render = render_of(&solo);
        prop_assert!(!solo_render.is_empty());
        let multi = par_map_workers(&cells, 4, cell);
        obs::set_tracing(false);
        prop_assert_eq!(
            render_of(&multi),
            solo_render,
            "attribution must be byte-identical for workers 1 vs 4"
        );
    }
}

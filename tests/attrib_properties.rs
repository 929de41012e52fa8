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
use chiron_model::SimTime;
use chiron_pgp::PgpMode;
use proptest::prelude::*;

mod common;
use common::{arb_workflow, plan_for};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Components sum exactly to the sojourn for every completed request,
    /// and the attribution render is byte-identical across worker counts.
    #[test]
    fn attribution_is_exact_and_worker_count_invariant(
        wf in arb_workflow(2..8),
        seed in 0u64..1000,
    ) {
        const REQUESTS: u64 = 150;
        let plan = plan_for(&wf, PgpMode::NativeThread);
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

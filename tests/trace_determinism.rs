//! The trace layer's worker-count-invariance contract, on random planned
//! workflows.
//!
//! A traced sweep captures one [`chiron::obs::Trace`] per cell (the capture
//! buffer is thread-local, opened and drained inside the cell closure) and
//! assembles them with [`Trace::concat`] in cell-index order. Because every
//! event is stamped with simulated time — never wall clock, never a thread
//! id — and normalisation is a stable sort that preserves emit order on
//! ties, the assembled bytes must be identical for every worker count,
//! exactly like the figure rows the sweep engine already pins.
//!
//! This test binary owns the process-global tracing flag: no other test in
//! it flips `obs::set_tracing`, so the proptest cases can keep it
//! enabled throughout.

use chiron::obs::{self, Trace};
use chiron_bench::sweep::par_map_workers;
use chiron_model::{
    FunctionSpec, JitterModel, PlatformConfig, Segment, SimDuration, SyscallKind, Workflow,
};
use chiron_pgp::{PgpConfig, PgpMode, PgpScheduler};
use chiron_profiler::Profiler;
use chiron_runtime::VirtualPlatform;
use proptest::prelude::*;

/// Same shapes as `crates/bench/tests/parallel_eval.rs`: an entry function then a parallel
/// stage mixing CPU-bound and IO-punctuated functions.
fn arb_workflow() -> impl Strategy<Value = Workflow> {
    prop::collection::vec((0u8..2, 1u64..20, 1u64..4), 2..10).prop_map(|parts| {
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

/// Plans the workflow the way the harness does: profile, then PGP.
fn plan_for(wf: &Workflow, mode: PgpMode) -> chiron_model::DeploymentPlan {
    let prof = Profiler::default().profile_workflow(wf);
    let sched = PgpScheduler::paper_calibrated();
    let config = PgpConfig::performance_first().with_mode(mode);
    sched.schedule(wf, &prof, &config).plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The assembled trace of a jittered request sweep is byte-identical
    /// for every worker count.
    #[test]
    fn traces_are_worker_count_invariant(wf in arb_workflow(), base in 0u64..1000) {
        for mode in [PgpMode::NativeThread, PgpMode::Mpk] {
            let plan = plan_for(&wf, mode);
            let platform = VirtualPlatform::new(
                PlatformConfig::paper_calibrated().with_jitter(JitterModel::cluster()),
            );
            obs::set_tracing(true);
            let cells: Vec<u64> = (0..13).collect();
            let cell = |i: usize, _: &u64| {
                obs::begin_capture();
                let seed = base.wrapping_add(i as u64);
                platform.execute(&wf, &plan, seed).expect("valid plan");
                obs::end_capture()
            };
            let render = |traces: Vec<Trace>| Trace::concat(traces).render();
            let solo = render(par_map_workers(&cells, 1, cell));
            prop_assert!(!solo.is_empty(), "DES spans must be captured");
            for workers in [2usize, 4, 7] {
                prop_assert_eq!(
                    &render(par_map_workers(&cells, workers, cell)),
                    &solo,
                    "workers={} mode={:?}", workers, mode
                );
            }
            obs::set_tracing(false);
        }
    }
}

//! The DES trace's worker-count-invariance contract, on random planned
//! workflows.
//!
//! A sweep renders one [`chiron::obs::Trace`] per cell from the cell's
//! outcome (`des_windows`) and assembles them with [`Trace::concat`] in
//! cell-index order. Because every event is stamped with simulated time —
//! never wall clock, never a thread id — and normalisation is a stable
//! sort that preserves push order on ties, the assembled bytes must be
//! identical for every worker count, exactly like the figure rows the
//! sweep engine already pins.

use chiron::obs::Trace;
use chiron_bench::sweep::par_map_workers;
use chiron_model::{JitterModel, PlatformConfig};
use chiron_pgp::PgpMode;
use chiron_runtime::{des_windows, VirtualPlatform};
use proptest::prelude::*;

mod common;
use common::{arb_workflow, plan_for};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The assembled DES trace of a jittered request sweep is
    /// byte-identical for every worker count.
    #[test]
    fn traces_are_worker_count_invariant(wf in arb_workflow(2..10), base in 0u64..1000) {
        for mode in [PgpMode::NativeThread, PgpMode::Mpk] {
            let plan = plan_for(&wf, mode);
            let platform = VirtualPlatform::new(
                PlatformConfig::paper_calibrated().with_jitter(JitterModel::cluster()),
            );
            let cells: Vec<u64> = (0..13).collect();
            let cell = |i: usize, _: &u64| {
                let seed = base.wrapping_add(i as u64);
                let outcome = platform.execute(&wf, &plan, seed).expect("valid plan");
                let mut trace = Trace::default();
                des_windows(&outcome, &plan, &mut trace.events);
                trace
            };
            let render = |traces: Vec<Trace>| Trace::concat(traces).render();
            let solo = render(par_map_workers(&cells, 1, cell));
            prop_assert!(!solo.is_empty(), "DES windows must be rendered");
            for workers in [2usize, 4, 7] {
                prop_assert_eq!(
                    &render(par_map_workers(&cells, workers, cell)),
                    &solo,
                    "workers={} mode={:?}", workers, mode
                );
            }
        }
    }
}

//! Cross-crate determinism guarantees of the parallel evaluation engine.
//!
//! The sweep engine (`chiron_bench::sweep`), the scratch-reusing simulator
//! hot path (`chiron_runtime`) and the PGP planner compose into the figure
//! harness; these properties pin the contract the composition rests on:
//!
//! * a sweep over jittered request cells is byte-identical for every
//!   worker count — seeds derive from the cell index, never the worker;
//! * a reused [`SimScratch`] produces outcomes equal to fresh-allocation
//!   runs, which in turn equal the retained pre-optimisation reference
//!   engine.
//! * figures share no worker state: two figures sweeping at different
//!   widths at the same time emit the same bytes.
//!
//! Workflows and plans are random: the planner turns each generated
//! workflow into a real deployment plan before it reaches the simulator,
//! so the properties cover plan shapes no hand-written fixture pins down.

use chiron_bench::sweep::par_map_workers;
use chiron_model::{JitterModel, PlatformConfig};
use chiron_pgp::PgpMode;
use chiron_runtime::{SimScratch, VirtualPlatform};
use proptest::prelude::*;

mod common;
use common::{arb_workflow, plan_for};

/// `fig13` at one worker and at four, run at once on two threads: each
/// figure owns its worker count, so neither can change the other's bytes.
#[test]
fn concurrent_figures_share_no_worker_state() {
    let (solo, wide) = std::thread::scope(|scope| {
        let solo = scope.spawn(|| chiron_bench::fig13(1));
        let wide = scope.spawn(|| chiron_bench::fig13(4));
        (solo.join().unwrap(), wide.join().unwrap())
    });
    assert_eq!(solo, wide);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sweeping jittered request cells is worker-count invariant: rows are
    /// formatted inside the cells, and every worker count must reproduce
    /// the single-threaded bytes exactly.
    #[test]
    fn sweep_rows_are_worker_count_invariant(wf in arb_workflow(2..10), base in 0u64..1000) {
        let plan = plan_for(&wf, PgpMode::NativeThread);
        let platform = VirtualPlatform::new(
            PlatformConfig::paper_calibrated().with_jitter(JitterModel::cluster()),
        );
        let cells: Vec<u64> = (0..13).collect();
        let row = |i: usize, _: &u64| {
            // Seed from the cell index alone — the determinism contract.
            let seed = base.wrapping_add(i as u64);
            let out = platform.execute(&wf, &plan, seed).expect("valid plan");
            format!("{} {:?} {:?}", i, out.e2e, out.stage_windows)
        };
        let solo = par_map_workers(&cells, 1, row);
        for workers in [2usize, 4, 7] {
            prop_assert_eq!(
                &par_map_workers(&cells, workers, row),
                &solo,
                "workers={}", workers
            );
        }
    }

    /// One scratch arena reused across requests, fresh scratch per
    /// request, and the retained reference engine all agree exactly.
    #[test]
    fn scratch_reuse_matches_fresh_and_reference(wf in arb_workflow(2..10)) {
        for mode in [PgpMode::NativeThread, PgpMode::Mpk] {
            let plan = plan_for(&wf, mode);
            let platform = VirtualPlatform::new(
                PlatformConfig::paper_calibrated().with_jitter(JitterModel::cluster()),
            );
            let mut reused = SimScratch::new();
            for seed in [0u64, 1, 7, 2023] {
                let warm = platform
                    .execute_with_scratch(&wf, &plan, seed, &mut reused)
                    .expect("valid plan");
                let fresh = platform
                    .execute_with_scratch(&wf, &plan, seed, &mut SimScratch::new())
                    .expect("valid plan");
                let reference = platform
                    .execute_reference(&wf, &plan, seed)
                    .expect("valid plan");
                prop_assert_eq!(&warm, &fresh, "seed={} mode={:?}", seed, mode);
                prop_assert_eq!(&warm, &reference, "seed={} mode={:?}", seed, mode);
            }
        }
    }
}

//! The identical-output guarantee of the scheduler fast paths.
//!
//! The memoised evaluator ([`PgpScheduler::schedule`]) is a pure
//! optimisation: for every workflow, execution mode and SLO setting it
//! must emit plans byte-identical to the pre-optimisation reference
//! ([`PgpScheduler::schedule_reference`]), while actually exercising the
//! memo cache.

use chiron_model::{SimDuration, TransferKind};
use chiron_pgp::{PgpConfig, PgpMode, PgpScheduler};
use chiron_predict::PredictionCache;
use chiron_profiler::Profiler;
use proptest::prelude::*;

mod common;
use common::arb_workflow;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn optimised_schedulers_match_reference(wf in arb_workflow(2..14), slo_ms in 5u64..250) {
        let prof = Profiler::default().profile_workflow(&wf);
        let sched = PgpScheduler::paper_calibrated();
        let mut total_hits = 0u64;
        for mode in [PgpMode::NativeThread, PgpMode::Mpk, PgpMode::Pool] {
            for config in [
                PgpConfig::performance_first().with_mode(mode),
                PgpConfig::with_slo(SimDuration::from_millis(slo_ms)).with_mode(mode),
            ] {
                let cache = PredictionCache::new();
                let fast = sched.schedule_with_cache(&wf, &prof, &config, &cache);
                let slow = sched.schedule_reference(&wf, &prof, &config);
                prop_assert_eq!(&fast.plan, &slow.plan);
                prop_assert_eq!(fast.predicted, slow.predicted);
                prop_assert_eq!(fast.processes, slow.processes);
                prop_assert_eq!(fast.met_slo, slow.met_slo);
                total_hits += cache.stats().hits;
            }
        }
        // The fast paths must actually run memoised: identical process
        // contents recur across the n-search, KL rounds and CPU trimming.
        prop_assert!(total_hits > 0, "prediction cache was never hit");
    }

    /// The shm-ring tier changes the objective (co-located wraps price
    /// their handoffs at the ring), so the search may pick different
    /// packings — but the fast and reference searches must still
    /// agree byte for byte, and every emitted plan must carry the tier.
    #[test]
    fn shm_tier_searches_stay_identical(wf in arb_workflow(2..14), slo_ms in 5u64..250) {
        let prof = Profiler::default().profile_workflow(&wf);
        let sched = PgpScheduler::paper_calibrated();
        for config in [
            PgpConfig::performance_first().with_transfer(TransferKind::ShmRing),
            PgpConfig::with_slo(SimDuration::from_millis(slo_ms))
                .with_transfer(TransferKind::ShmRing),
        ] {
            let cache = PredictionCache::new();
            let fast = sched.schedule_with_cache(&wf, &prof, &config, &cache);
            let slow = sched.schedule_reference(&wf, &prof, &config);
            prop_assert_eq!(&fast.plan, &slow.plan);
            prop_assert_eq!(fast.predicted, slow.predicted);
            prop_assert_eq!(fast.processes, slow.processes);
            prop_assert_eq!(fast.met_slo, slow.met_slo);
            prop_assert_eq!(fast.plan.transfer, TransferKind::ShmRing);
        }
    }
}

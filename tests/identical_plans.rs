//! The identical-output guarantee of the scheduler fast paths.
//!
//! The memoised evaluator ([`PgpScheduler::schedule`]) is a pure
//! optimisation: for every workflow, execution mode and SLO setting it
//! must emit plans byte-identical to the pre-optimisation reference
//! ([`PgpScheduler::schedule_reference`]), while actually exercising the
//! memo cache. Two plain tests cover inputs the random workflows never
//! draw: a prewarm budget (its penalty, and the two searches agreeing
//! under it) and a function whose language runtime conflicts with its
//! stage's (§3.4 pins it into a wrap of its own).

use chiron_model::{
    apps, FunctionId, FunctionSpec, LanguageRuntime, Segment, SimDuration, TransferKind, Workflow,
};
use chiron_pgp::{PgpConfig, PgpMode, PgpScheduler, PrewarmBudget};
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

/// A prewarm budget prices the residual cold starts into the objective:
/// without one the penalty is zero, a thin one leaves a positive penalty
/// on a valid plan, and the memoised search and the reference agree on
/// plan, prediction and penalty.
#[test]
fn prewarm_budget_penalises_and_stays_identical() {
    let wf = apps::finra(50);
    let prof = Profiler::default().profile_workflow(&wf);
    let sched = PgpScheduler::paper_calibrated();
    let base = sched.schedule(&wf, &prof, &PgpConfig::performance_first());
    assert_eq!(base.startup_penalty, SimDuration::ZERO);

    let cfg = PgpConfig::performance_first().with_prewarm(PrewarmBudget::new(1e-4, 50.0));
    let tiered = sched.schedule(&wf, &prof, &cfg);
    assert!(tiered.startup_penalty > SimDuration::ZERO);
    tiered.plan.validate(&stage_sets(&wf)).unwrap();
    let reference = sched.schedule_reference(&wf, &prof, &cfg);
    assert_eq!(tiered.plan, reference.plan);
    assert_eq!(tiered.predicted, reference.predicted);
    assert_eq!(tiered.startup_penalty, reference.startup_penalty);
}

/// §3.4: a function whose language runtime conflicts with its stage's
/// sits alone in its own wrap, in a sandbox no other wrap of the stage
/// uses, even when the stage holds two such functions.
#[test]
fn conflicting_runtimes_are_pinned() {
    let py2 = |name| FunctionSpec {
        runtime: LanguageRuntime::Python2,
        ..FunctionSpec::new(name, vec![Segment::cpu_ms(5)])
    };
    let fns = vec![
        FunctionSpec::new("py3", vec![Segment::cpu_ms(5)]),
        py2("py2"),
        FunctionSpec::new("py3b", vec![Segment::cpu_ms(5)]),
        py2("py2b"),
    ];
    let wf = Workflow::new("mixed", fns, vec![vec![0, 1, 2, 3]]).unwrap();
    let prof = Profiler::default().profile_workflow(&wf);
    let out =
        PgpScheduler::paper_calibrated().schedule(&wf, &prof, &PgpConfig::performance_first());
    let wraps = &out.plan.stages[0].wraps;
    for pinned in [FunctionId(1), FunctionId(3)] {
        let wrap = wraps
            .iter()
            .find(|w| w.functions().any(|f| f == pinned))
            .unwrap();
        assert_eq!(wrap.function_count(), 1);
        let sharing = wraps.iter().filter(|w| w.sandbox == wrap.sandbox).count();
        assert_eq!(sharing, 1, "{pinned:?} shares its sandbox: {wraps:?}");
    }
    out.plan.validate(&stage_sets(&wf)).unwrap();
}

fn stage_sets(wf: &Workflow) -> Vec<Vec<FunctionId>> {
    wf.stages.iter().map(|s| s.functions.clone()).collect()
}

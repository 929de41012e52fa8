//! The scheduler's fast path is a pure optimisation: the memoised,
//! pruning search returns the same decision as the pre-optimisation
//! reference search, and its own search effort is pinned, so a change
//! that prunes or simulates different candidates shows up here even when
//! the plans happen to agree.

use chiron::model::{apps, PlatformConfig, SimDuration, Workflow};
use chiron_pgp::{KlStats, PgpConfig, PgpMode, PgpScheduler};
use chiron_predict::{PredictionCache, Predictor};
use chiron_profiler::Profiler;

fn scheduler() -> PgpScheduler {
    PgpScheduler::new(Predictor::from_config(&PlatformConfig::paper_calibrated()))
}

#[test]
fn fast_and_reference_searches_decide_identically() {
    let sched = scheduler();
    let workflows: [Workflow; 6] = [
        apps::social_network(),
        apps::movie_reviewing(),
        apps::slapp(),
        apps::slapp_v(),
        apps::finra(5),
        apps::finra(20),
    ];
    for wf in &workflows {
        let profile = Profiler::default().profile_workflow(wf);
        for mode in [PgpMode::NativeThread, PgpMode::Mpk, PgpMode::Pool] {
            for config in [
                PgpConfig::performance_first().with_mode(mode),
                PgpConfig::with_slo(SimDuration::from_millis(200)).with_mode(mode),
            ] {
                let fast = sched.schedule(wf, &profile, &config);
                let reference = sched.schedule_reference(wf, &profile, &config);
                let at = format!("{} {mode:?} slo={:?}", wf.name, config.slo);
                assert_eq!(fast.plan, reference.plan, "{at}");
                assert_eq!(fast.predicted, reference.predicted, "{at}");
                assert_eq!(fast.processes, reference.processes, "{at}");
                assert_eq!(fast.met_slo, reference.met_slo, "{at}");
            }
        }
    }
}

/// The cached search's effort on a fresh cache: every KL candidate
/// counted, pruned and applied, and every cache lookup.
fn cached_audit(functions: usize) -> (KlStats, u64, u64) {
    let wf = apps::finra(functions);
    let profile = Profiler::default().profile_workflow(&wf);
    let cache = PredictionCache::new();
    let out =
        scheduler().schedule_with_cache(&wf, &profile, &PgpConfig::performance_first(), &cache);
    (out.audit.kl, out.audit.cache_hits, out.audit.cache_misses)
}

#[test]
fn cached_search_effort_is_pinned() {
    assert_eq!(
        cached_audit(50),
        (
            KlStats {
                passes: 360,
                rounds: 1814,
                candidates: 29366,
                pruned: 25872,
                applied: 290,
            },
            16210,
            4522,
        )
    );
    assert_eq!(
        cached_audit(20),
        (
            KlStats {
                passes: 286,
                rounds: 612,
                candidates: 3036,
                pruned: 2136,
                applied: 97,
            },
            3793,
            488,
        )
    );
}

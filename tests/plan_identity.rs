//! The scheduler's fast path is a pure optimisation: the memoised,
//! pruning search returns the same decision as the pre-optimisation
//! reference search, and its own search effort is pinned, so a change
//! that prunes or simulates different candidates shows up here even when
//! the plans happen to agree. A re-plan on a warm cache replays memoised
//! partitions; it must decide and audit exactly as a fresh search would.
//! Likewise the search's memoised plan prediction equals the Predictor's
//! own, on every system's plan.

use chiron::model::plan::{RuntimeKind, SystemKind, TransferKind};
use chiron::model::{
    apps, DeploymentPlan, FunctionSpec, PlatformConfig, Segment, SimDuration, SyscallKind, Workflow,
};
use chiron::{profile_for, system_plan};
use chiron_pgp::{KlStats, PgpConfig, PgpMode, PgpScheduler, ScheduleOutcome};
use chiron_predict::{PredictScratch, PredictionCache, Predictor, SegmentCatalog};
use chiron_profiler::{Profiler, WorkflowProfile};

fn scheduler() -> PgpScheduler {
    PgpScheduler::new(Predictor::from_config(&PlatformConfig::paper_calibrated()))
}

/// Everything a schedule decides, plus its KL effort.
fn decision(out: &ScheduleOutcome) -> (DeploymentPlan, SimDuration, usize, bool, KlStats) {
    (
        out.plan.clone(),
        out.predicted,
        out.processes,
        out.met_slo,
        out.audit.kl,
    )
}

/// `sched`'s schedule of `wf` on a fresh cache.
fn fresh(sched: &PgpScheduler, wf: &Workflow, profile: &WorkflowProfile) -> ScheduleOutcome {
    sched.schedule(wf, profile, &PgpConfig::performance_first())
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

#[test]
fn cached_and_owned_predictions_agree_on_every_system_plan() {
    let predictor = Predictor::from_config(&PlatformConfig::paper_calibrated());
    let systems = [
        SystemKind::Asf,
        SystemKind::OpenFaas,
        SystemKind::Sand,
        SystemKind::Faastlane,
        SystemKind::FaastlaneT,
        SystemKind::FaastlanePlus,
        SystemKind::Chiron,
        SystemKind::FaastlaneM,
        SystemKind::ChironM,
        SystemKind::FaastlaneP,
        SystemKind::ChironP,
    ];
    let cache = PredictionCache::new();
    let mut scratch = PredictScratch::new();
    let mut cases = 0;
    for wf in &apps::evaluation_suite() {
        let profile = profile_for(wf);
        let catalog = SegmentCatalog::new(&profile);
        for system in systems {
            let plan = system_plan(system, wf, None);
            let parallel = DeploymentPlan {
                runtime: RuntimeKind::TrueParallel,
                ..plan.clone()
            };
            let ring = DeploymentPlan {
                transfer: TransferKind::ShmRing,
                ..plan.clone()
            };
            for (variant, plan) in [("as built", plan), ("parallel", parallel), ("ring", ring)] {
                assert_eq!(
                    predictor.predict_cached(wf, &plan, &catalog, &cache, &mut scratch),
                    predictor.predict(wf, &profile, &plan),
                    "{} {system:?} {variant}",
                    wf.name
                );
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 264);
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
            1183,
            92,
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
            961,
            51,
        )
    );
}

#[test]
fn warm_replans_decide_and_audit_like_fresh_searches() {
    let sched = scheduler();
    let config = PgpConfig::performance_first();
    // The suite already holds FINRA-50; FINRA-20 is the other pinned size.
    let mut workflows = apps::evaluation_suite();
    workflows.push(apps::finra(20));
    for wf in &workflows {
        let profile = Profiler::default().profile_workflow(wf);
        let seeded = Profiler::default().with_seed(7).profile_workflow(wf);
        let cache = PredictionCache::new();
        let cold = sched.schedule_with_cache(wf, &profile, &config, &cache);
        let warm = sched.schedule_with_cache(wf, &profile, &config, &cache);
        assert_eq!(decision(&warm), decision(&cold), "{}", wf.name);
        assert_eq!(warm.audit.cache_misses, 0, "{}", wf.name);
        let reprofiled = sched.schedule_with_cache(wf, &seeded, &config, &cache);
        assert_eq!(
            decision(&reprofiled),
            decision(&fresh(&sched, wf, &seeded)),
            "{} re-profiled",
            wf.name
        );
    }
}

#[test]
fn partition_memo_never_leaks_across_content_or_costs() {
    let sched = scheduler();
    let config = PgpConfig::performance_first();
    let wf = apps::finra(20);
    let profile = Profiler::default().profile_workflow(&wf);
    // rule_002 (6 ms of CPU) becomes 54 ms: one rule's profile differs.
    let mut heavier = profile.clone();
    heavier.functions[3].solo_latency = heavier.functions[3].solo_latency * 9;
    let before = fresh(&sched, &wf, &profile);
    let after = fresh(&sched, &wf, &heavier);
    assert_ne!(
        before.audit.kl, after.audit.kl,
        "the edit must move the search"
    );
    let cache = PredictionCache::new();
    for (p, expected) in [(&profile, &before), (&heavier, &after)] {
        let shared = sched.schedule_with_cache(&wf, p, &config, &cache);
        assert_eq!(decision(&shared), decision(expected));
    }

    // The same stages under other thread costs: a memo filled by the
    // paper-calibrated scheduler must not answer for them.
    let social = apps::social_network();
    let social_profile = Profiler::default().profile_workflow(&social);
    let base = Predictor::from_config(&PlatformConfig::paper_calibrated());
    let mut slower_clone = base.clone();
    slower_clone.costs.thread_clone = slower_clone.costs.thread_clone * 20;
    let mut shorter_switch = base.clone();
    shorter_switch.costs.gil_switch_interval = SimDuration::from_micros(500);
    for (wf, profile) in [(&wf, &profile), (&social, &social_profile)] {
        let cache = PredictionCache::new();
        sched.schedule_with_cache(wf, profile, &config, &cache);
        for predictor in [&slower_clone, &shorter_switch] {
            let other = PgpScheduler::new(predictor.clone());
            let shared = other.schedule_with_cache(wf, profile, &config, &cache);
            assert_eq!(decision(&shared), decision(&fresh(&other, wf, profile)));
        }
    }
}

#[test]
fn a_cold_schedule_never_replays_its_own_searches() {
    // Two parallel stages with equal ordered contents: the memo may only
    // serve the second stage from an earlier schedule, so a cold
    // schedule searches both and its cache lookups are those of a
    // search without the memo. Each rule blocks after its burst, so KL
    // scores its candidates through keyed cache lookups rather than the
    // CPU-only closed form, and a replayed search would show here.
    let rule_ms = [0.5, 0.7, 6.0, 1.0, 12.0, 0.5, 0.7, 6.0, 1.0, 12.0, 3.0, 2.0];
    let mut functions = vec![FunctionSpec::new("fetch", vec![Segment::cpu_ms(1)])];
    for stage in ["a", "b"] {
        for (i, ms) in rule_ms.iter().enumerate() {
            functions.push(FunctionSpec::new(
                format!("rule_{stage}{i}"),
                vec![
                    Segment::cpu_ms_f64(*ms),
                    Segment::block_ms(SyscallKind::DiskIo, 1.0),
                ],
            ));
        }
    }
    let twin = |first: u32| (first..first + rule_ms.len() as u32).collect::<Vec<_>>();
    let wf = Workflow::new("twin", functions, vec![vec![0], twin(1), twin(13)]).unwrap();
    let profile = Profiler::default().profile_workflow(&wf);
    let cache = PredictionCache::new();
    let sched = scheduler();
    let config = PgpConfig::performance_first();
    let cold = sched.schedule_with_cache(&wf, &profile, &config, &cache);
    assert_eq!(
        (
            cold.audit.kl,
            cold.audit.cache_hits,
            cold.audit.cache_misses
        ),
        (
            KlStats {
                passes: 112,
                rounds: 236,
                candidates: 976,
                pruned: 532,
                applied: 60,
            },
            1667,
            272,
        )
    );
    let warm = sched.schedule_with_cache(&wf, &profile, &config, &cache);
    assert_eq!(decision(&warm), decision(&cold));
}

//! Machine-readable performance summary of the optimised hot paths, for
//! regression tracking (`figures -- perf` writes it to `BENCH_PGP.json`).
//!
//! Two measurements, both wall-clock on the current machine:
//!
//! * PGP scheduling time — pre-optimisation reference vs the memoised
//!   evaluator, with the cache hit rate and an identical-plan cross-check;
//! * warm-cache re-schedule time (the online re-planning case).
//!
//! The serve loop is timed by the benchmark's `serve` workload
//! (`perfbench/`), not here.
//!
//! The output is a [`Report`] whose `plans_identical` gate ANDs the
//! per-workflow cross-checks.

use crate::report::{Json, Obj, Report};
use chiron::model::synthetic::{synthetic, SyntheticSpec};
use chiron::model::{apps, Workflow};
use chiron::{PgpConfig, PgpScheduler};
use chiron_predict::{CacheStats, PredictionCache};
use chiron_profiler::Profiler;
use std::time::Instant;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// One workflow's performance-first PGP scheduling wall times: the
/// reference search, then the memoised search on a fresh cache (cold)
/// and again on that cache (warm).
#[derive(Debug)]
pub struct ScheduleTimes {
    pub reference_ms: f64,
    pub cold_ms: f64,
    pub warm_ms: f64,
    /// The cache as the cold schedule left it.
    pub cold_cache: CacheStats,
    /// The cold and the warm plan both equal the reference plan.
    pub same_plan: bool,
}

/// Times the three schedules of [`ScheduleTimes`] for `wf`.
pub fn schedule_times(wf: &Workflow) -> ScheduleTimes {
    let profile = Profiler::default().profile_workflow(wf);
    let sched = PgpScheduler::paper_calibrated();
    let config = PgpConfig::performance_first();
    let (reference, reference_ms) = timed(|| sched.schedule_reference(wf, &profile, &config));
    let cache = PredictionCache::new();
    let (cold, cold_ms) = timed(|| sched.schedule_with_cache(wf, &profile, &config, &cache));
    let cold_cache = cache.stats();
    // The steady state of a control plane that re-plans on profile or SLO
    // updates.
    let (warm, warm_ms) = timed(|| sched.schedule_with_cache(wf, &profile, &config, &cache));
    ScheduleTimes {
        reference_ms,
        cold_ms,
        warm_ms,
        cold_cache,
        same_plan: cold.plan == reference.plan && warm.plan == reference.plan,
    }
}

fn scheduler_entry(label: &str, wf: &Workflow) -> Obj {
    let times = schedule_times(wf);
    Obj::new()
        .field("workflow", label)
        .field("functions", wf.function_count())
        .field("reference_ms", times.reference_ms)
        .field("memoised_ms", times.cold_ms)
        .field("memoised_warm_ms", times.warm_ms)
        .field("speedup_memoised", times.reference_ms / times.cold_ms)
        .field("cache_hit_rate", times.cold_cache.hit_rate())
        .field("cache_entries", times.cold_cache.entries)
        .field("plans_identical", times.same_plan)
}

/// The summary: the three scheduler workloads and their gate.
pub fn perf() -> Report {
    let synthetic_wf = synthetic(SyntheticSpec {
        seed: 42,
        stages: 6,
        max_parallelism: 32,
        ..SyntheticSpec::default()
    });
    // Same shape but with five behaviour profiles cycling through the
    // stage positions, the content sharing real fleets exhibit (FINRA's
    // rule checks repeat with period 5).
    let classes_wf = synthetic(SyntheticSpec {
        seed: 42,
        stages: 6,
        max_parallelism: 32,
        profile_classes: 5,
        ..SyntheticSpec::default()
    });
    let schedulers = vec![
        scheduler_entry("finra-200", &apps::finra(200)),
        scheduler_entry("synthetic-32", &synthetic_wf),
        scheduler_entry("synthetic-32-c5", &classes_wf),
    ];
    let mut report = Report::new("BENCH_PGP.json");
    report.gate(
        "plans_identical",
        schedulers
            .iter()
            .all(|s| s.get("plans_identical") == Some(&Json::Bool(true))),
    );
    report.json = Obj::new().field("schedulers", schedulers);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_report_plans_match() {
        crate::report::assert_gates(&perf(), 1, &[]);
    }
}

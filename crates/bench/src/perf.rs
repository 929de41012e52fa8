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
use chiron_predict::PredictionCache;
use chiron_profiler::Profiler;
use std::time::Instant;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

fn scheduler_entry(label: &str, wf: &Workflow) -> Obj {
    let profile = Profiler::default().profile_workflow(wf);
    let sched = PgpScheduler::paper_calibrated();
    let config = PgpConfig::performance_first();

    let (reference, reference_ms) = timed(|| sched.schedule_reference(wf, &profile, &config));
    let cache = PredictionCache::new();
    let (memoised, memoised_ms) =
        timed(|| sched.schedule_with_cache(wf, &profile, &config, &cache));
    let stats = cache.stats();
    let (_, warm_ms) = timed(|| sched.schedule_with_cache(wf, &profile, &config, &cache));

    Obj::new()
        .field("workflow", label)
        .field("functions", wf.function_count())
        .field("reference_ms", reference_ms)
        .field("memoised_ms", memoised_ms)
        .field("memoised_warm_ms", warm_ms)
        .field("speedup_memoised", reference_ms / memoised_ms)
        .field("cache_hit_rate", stats.hit_rate())
        .field("cache_entries", stats.entries)
        .field("plans_identical", memoised.plan == reference.plan)
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

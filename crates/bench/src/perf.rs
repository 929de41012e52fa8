//! Machine-readable performance summary of the optimised hot paths, for
//! regression tracking (`figures -- perf` writes it to `BENCH_PGP.json`).
//!
//! Three measurements, all wall-clock on the current machine:
//!
//! * PGP scheduling time — pre-optimisation reference vs the memoised
//!   evaluator, with the cache hit rate and an identical-plan cross-check;
//! * warm-cache re-schedule time (the online re-planning case);
//! * the serving-simulator macrobench: a large steady open-loop run,
//!   reported as simulated requests per wall-clock second.
//!
//! The output is JSON (hand-rolled — the report is flat) so CI and
//! notebooks can diff runs without parsing the human tables.

use chiron::model::synthetic::{synthetic, SyntheticSpec};
use chiron::model::{apps, Workflow};
use chiron::serving::{ServeConfig, ServeSimulation, Workload};
use chiron::{Chiron, PgpConfig, PgpMode, PgpScheduler};
use chiron_predict::PredictionCache;
use chiron_profiler::Profiler;
use std::time::Instant;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".into()
    }
}

fn scheduler_entry(label: &str, wf: &Workflow) -> String {
    let profile = Profiler::default().profile_workflow(wf);
    let sched = PgpScheduler::paper_calibrated();
    let config = PgpConfig::performance_first();

    let (reference, reference_ms) = timed(|| sched.schedule_reference(wf, &profile, &config));
    let cache = PredictionCache::new();
    let (memoised, memoised_ms) =
        timed(|| sched.schedule_with_cache(wf, &profile, &config, &cache));
    let stats = cache.stats();
    let (_, warm_ms) = timed(|| sched.schedule_with_cache(wf, &profile, &config, &cache));

    format!(
        concat!(
            "{{\"workflow\": \"{}\", \"functions\": {}, ",
            "\"reference_ms\": {}, \"memoised_ms\": {}, ",
            "\"memoised_warm_ms\": {}, \"speedup_memoised\": {}, ",
            "\"cache_hit_rate\": {}, \"cache_entries\": {}, ",
            "\"plans_identical\": {}}}"
        ),
        label,
        wf.function_count(),
        num(reference_ms),
        num(memoised_ms),
        num(warm_ms),
        num(reference_ms / memoised_ms),
        num(stats.hit_rate()),
        stats.entries,
        memoised.plan == reference.plan,
    )
}

fn serve_entry(requests: u64) -> String {
    let chiron = Chiron::default();
    let wf = apps::finra(12);
    let deployment = chiron.deploy(&wf, None, PgpMode::NativeThread);
    let sim = ServeSimulation::new(
        wf.clone(),
        deployment.plan().clone(),
        ServeConfig::paper_testbed(),
    );
    let workload = Workload::steady(500.0, requests);
    let (report, wall_ms) = timed(|| sim.run(&workload, 2023).expect("serving run"));
    format!(
        concat!(
            "{{\"workflow\": \"{}\", \"requests\": {}, \"completed\": {}, ",
            "\"lost\": {}, \"wall_ms\": {}, \"throughput_per_sec\": {}}}"
        ),
        wf.name,
        requests,
        report.completed,
        report.lost,
        num(wall_ms),
        num(report.completed as f64 / (wall_ms / 1e3)),
    )
}

/// The summary with a custom macrobench size (tests use a small one).
pub fn perf_report(macro_requests: u64) -> String {
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
    format!(
        "{{\n  \"schedulers\": [\n    {},\n    {},\n    {}\n  ],\n  \"serve_macrobench\": {}\n}}",
        scheduler_entry("finra-200", &apps::finra(200)),
        scheduler_entry("synthetic-32", &synthetic_wf),
        scheduler_entry("synthetic-32-c5", &classes_wf),
        serve_entry(macro_requests)
    )
}

/// The full summary: both scheduler workloads plus a 1M-request serving
/// macrobench.
pub fn perf() -> String {
    perf_report(1_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_report_is_wellformed_and_plans_match() {
        let report = perf_report(2_000);
        assert!(report.contains("\"plans_identical\": true"));
        assert!(report.contains("\"serve_macrobench\""));
        assert!(!report.contains("plans_identical\": false"));
        // Crude JSON sanity: balanced braces, no trailing commas.
        let opens = report.matches('{').count();
        let closes = report.matches('}').count();
        assert_eq!(opens, closes);
        assert!(!report.contains(",}"));
        assert!(!report.contains(",\n}"));
    }
}

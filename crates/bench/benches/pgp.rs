//! Before/after microbenchmarks of PGP scheduling: the pre-optimisation
//! reference path vs the memoised evaluator, on a large real benchmark
//! (FINRA-200) and a large
//! synthetic workflow. A warm-cache variant shows the re-schedule cost
//! once the content-addressed memo is populated (the online re-planning
//! case).

use chiron::model::apps;
use chiron::model::synthetic::{synthetic, SyntheticSpec};
use chiron::{PgpConfig, PgpScheduler};
use chiron_predict::PredictionCache;
use chiron_profiler::Profiler;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_pgp_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("pgp_scheduling");
    group.sample_size(10);
    let workflows = [
        ("finra200", apps::finra(200)),
        (
            "synthetic32",
            synthetic(SyntheticSpec {
                seed: 42,
                stages: 6,
                max_parallelism: 32,
                ..SyntheticSpec::default()
            }),
        ),
    ];
    for (label, wf) in workflows {
        let profile = Profiler::default().profile_workflow(&wf);
        let sched = PgpScheduler::paper_calibrated();
        let config = PgpConfig::performance_first();
        group.bench_function(format!("{label}/reference"), |b| {
            b.iter(|| black_box(sched.schedule_reference(&wf, &profile, &config)))
        });
        group.bench_function(format!("{label}/memoised"), |b| {
            b.iter(|| black_box(sched.schedule(&wf, &profile, &config)))
        });
        let warm = PredictionCache::new();
        sched.schedule_with_cache(&wf, &profile, &config, &warm);
        group.bench_function(format!("{label}/memoised_warm"), |b| {
            b.iter(|| black_box(sched.schedule_with_cache(&wf, &profile, &config, &warm)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pgp_paths);
criterion_main!(benches);

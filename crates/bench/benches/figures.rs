//! One Criterion bench per paper table/figure: each bench times the kernel
//! computation that regenerates the corresponding result (the printable
//! reports themselves come from `cargo run -p chiron-bench --bin figures`).

use chiron::model::{apps, SystemKind, TransferKind};
use chiron::{evaluate_system, paper_slo, EvalConfig};
use chiron_bench::fig12::{build_samples, Fig12Mode};
use chiron_isolation::IsolationCosts;
use chiron_store::TransferModel;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn cfg1() -> EvalConfig {
    EvalConfig {
        requests: 1,
        ..EvalConfig::default()
    }
}

/// Fig. 3 kernel: one-to-one scheduling + execution of FINRA-50.
fn fig03_scheduling(c: &mut Criterion) {
    let wf = apps::finra(50);
    c.bench_function("fig03_scheduling", |b| {
        b.iter(|| black_box(evaluate_system(SystemKind::OpenFaas, &wf, None, &cfg1())))
    });
}

/// Fig. 4 kernel: transfer-model evaluation across sizes.
fn fig04_transfer(c: &mut Criterion) {
    let model = TransferModel::paper_calibrated();
    c.bench_function("fig04_transfer", |b| {
        b.iter(|| {
            for pow in [0u32, 10, 20, 30] {
                black_box(model.cross_sandbox(TransferKind::RemoteS3, 1 << pow));
                black_box(model.cross_sandbox(TransferKind::LocalMinio, 1 << pow));
            }
        })
    });
}

/// Fig. 5/6 kernel: process- vs thread-mode execution of FINRA-5.
fn fig05_06_timelines(c: &mut Criterion) {
    let wf = apps::finra(5);
    c.bench_function("fig05_06_timelines", |b| {
        b.iter(|| {
            black_box(evaluate_system(SystemKind::Faastlane, &wf, None, &cfg1()));
            black_box(evaluate_system(SystemKind::FaastlaneT, &wf, None, &cfg1()));
        })
    });
}

/// Fig. 7 kernel: true-parallel execution under shrinking CPU counts.
fn fig07_cpu_sweep(c: &mut Criterion) {
    let wf = apps::slapp();
    c.bench_function("fig07_cpu_sweep", |b| {
        b.iter(|| black_box(evaluate_system(SystemKind::FaastlaneP, &wf, None, &cfg1())))
    });
}

/// Fig. 8 / 16 / 17 kernel: resource accounting + throughput for Chiron.
fn fig08_16_17_resources(c: &mut Criterion) {
    let wf = apps::finra(50);
    let slo = Some(paper_slo(&wf));
    c.bench_function("fig08_16_17_resources", |b| {
        b.iter(|| black_box(evaluate_system(SystemKind::Chiron, &wf, slo, &cfg1())))
    });
}

/// Table 1 kernel: isolation-overhead computation.
fn table1_isolation(c: &mut Criterion) {
    let fns = apps::slapp_reference_functions();
    c.bench_function("table1_isolation", |b| {
        b.iter(|| {
            for costs in [IsolationCosts::mpk(), IsolationCosts::sfi()] {
                for f in &fns {
                    black_box(costs.execution_overhead(f));
                }
            }
        })
    });
}

/// Fig. 12 kernel: enumerated-plan ground-truth measurement + white-box
/// prediction (without the learned-model training).
fn fig12_predict(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig12_predict");
    group.sample_size(10);
    group.bench_function("native_thread_samples", |b| {
        b.iter(|| black_box(build_samples(Fig12Mode::NativeThread, 1, 1)))
    });
    group.finish();
}

/// Fig. 13 kernel: the nine-system latency comparison on one workflow.
fn fig13_latency(c: &mut Criterion) {
    let wf = apps::finra(5);
    let systems = [
        SystemKind::Asf,
        SystemKind::OpenFaas,
        SystemKind::Sand,
        SystemKind::Faastlane,
        SystemKind::Chiron,
    ];
    let mut group = c.benchmark_group("fig13_latency");
    group.sample_size(10);
    group.bench_function("finra5_all_systems", |b| {
        b.iter(|| {
            for sys in systems {
                let slo = (sys == SystemKind::Chiron).then(|| paper_slo(&wf));
                black_box(evaluate_system(sys, &wf, slo, &cfg1()));
            }
        })
    });
    group.finish();
}

/// Fig. 14 kernel: jittered SLO-violation measurement.
fn fig14_violations(c: &mut Criterion) {
    let wf = apps::finra(5);
    let slo = paper_slo(&wf);
    let cfg = EvalConfig::jittered(20);
    let mut group = c.benchmark_group("fig14_violations");
    group.sample_size(10);
    group.bench_function("finra5", |b| {
        b.iter(|| {
            let eval = evaluate_system(SystemKind::Chiron, &wf, Some(slo), &cfg);
            black_box(eval.latencies.violation_rate(slo))
        })
    });
    group.finish();
}

/// Fig. 15 kernel: per-function CDF extraction for FINRA-50.
fn fig15_cdf(c: &mut Criterion) {
    let wf = apps::finra(50);
    c.bench_function("fig15_cdf", |b| {
        b.iter(|| {
            let eval = evaluate_system(SystemKind::Faastlane, &wf, None, &cfg1());
            let lats: chiron::metrics::LatencySamples = eval
                .sample_outcome
                .timelines
                .iter()
                .map(|t| t.latency())
                .collect();
            black_box(lats.cdf())
        })
    });
}

/// Fig. 18 kernel: Java / true-parallel evaluation.
fn fig18_java(c: &mut Criterion) {
    let wf = apps::slapp();
    let plan = chiron_deploy::to_java(chiron_deploy::faastlane_t(&wf));
    c.bench_function("fig18_java", |b| {
        b.iter(|| black_box(chiron::evaluate_plan(&wf, plan.clone(), &cfg1())))
    });
}

/// Fig. 19 kernel: cost computation across systems.
fn fig19_cost(c: &mut Criterion) {
    let wf = apps::movie_reviewing();
    c.bench_function("fig19_cost", |b| {
        b.iter(|| {
            for sys in [SystemKind::Asf, SystemKind::OpenFaas, SystemKind::Faastlane] {
                black_box(evaluate_system(sys, &wf, None, &cfg1()).cost);
            }
        })
    });
}

criterion_group!(
    figures,
    fig03_scheduling,
    fig04_transfer,
    fig05_06_timelines,
    fig07_cpu_sweep,
    fig08_16_17_resources,
    table1_isolation,
    fig12_predict,
    fig13_latency,
    fig14_violations,
    fig15_cdf,
    fig18_java,
    fig19_cost
);
criterion_main!(figures);

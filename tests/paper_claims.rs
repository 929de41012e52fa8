//! The paper's headline claims, asserted as integration tests against the
//! virtual platform. Exact magnitudes belong to the authors' testbed; the
//! *shape* — who wins, roughly by how much, and where the crossovers sit —
//! must hold here (see EXPERIMENTS.md).

use chiron::model::{apps, SystemKind};
use chiron::{evaluate_system, paper_slo, EvalConfig};

fn cfg() -> EvalConfig {
    EvalConfig {
        requests: 2,
        ..EvalConfig::default()
    }
}

/// Abstract: "Chiron outperforms state-of-the-art systems by 1.3×–21.8× on
/// system throughput."
#[test]
fn abstract_throughput_multiples() {
    let mut ratios = Vec::new();
    for wf in [
        apps::finra(5),
        apps::finra(50),
        apps::slapp(),
        apps::social_network(),
    ] {
        let slo = Some(paper_slo(&wf));
        let chiron = evaluate_system(SystemKind::Chiron, &wf, slo, &cfg());
        for sys in [
            SystemKind::OpenFaas,
            SystemKind::Sand,
            SystemKind::Faastlane,
        ] {
            let base = evaluate_system(sys, &wf, None, &cfg());
            ratios.push(chiron.throughput.rps / base.throughput.rps);
        }
    }
    let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
    let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
    assert!(
        min >= 1.2,
        "Chiron must win throughput everywhere: min {min:.2}x"
    );
    assert!(max >= 5.0, "and by a large factor somewhere: max {max:.2}x");
}

/// Observation 1: the one-to-one model's scheduling overhead dominates at
/// high parallelism.
#[test]
fn observation1_scheduling_dominates() {
    let wf = apps::finra(50);
    let asf = evaluate_system(SystemKind::Asf, &wf, None, &cfg());
    let sched = chiron::model::SchedulingModel::paper_calibrated()
        .asf_schedule_time(49)
        .as_millis_f64();
    let fraction = sched / asf.mean_latency.as_millis_f64();
    assert!(fraction > 0.6, "ASF scheduling fraction {fraction}");
}

/// Observation 2: fork block time is 1–2.1× the startup time, and at 50
/// parallel functions the cumulative block rivals a cold start (~167 ms).
#[test]
fn observation2_block_overhead() {
    use chiron::runtime::SpanKind;
    let wf = apps::finra(50);
    let eval = evaluate_system(SystemKind::Faastlane, &wf, None, &cfg());
    let outcome = &eval.sample_outcome;
    let max_block = outcome
        .timelines
        .iter()
        .map(|t| t.total(&outcome.spans, SpanKind::BlockWait).as_millis_f64())
        .fold(0.0, f64::max);
    assert!(
        (140.0..210.0).contains(&max_block),
        "last fork should wait ~169ms: {max_block}"
    );
}

/// Observation 3: neither pure threads nor pure processes win everywhere.
#[test]
fn observation3_no_universal_winner() {
    let t5 = evaluate_system(SystemKind::FaastlaneT, &apps::finra(5), None, &cfg());
    let p5 = evaluate_system(SystemKind::Faastlane, &apps::finra(5), None, &cfg());
    assert!(
        t5.mean_latency < p5.mean_latency,
        "threads win small fan-out"
    );

    let t50 = evaluate_system(SystemKind::FaastlaneT, &apps::finra(50), None, &cfg());
    let p50 = evaluate_system(SystemKind::Faastlane, &apps::finra(50), None, &cfg());
    assert!(
        t50.mean_latency > p50.mean_latency,
        "processes win large fan-out"
    );

    // And Chiron beats both at both scales.
    for wf in [apps::finra(5), apps::finra(50)] {
        let c = evaluate_system(SystemKind::Chiron, &wf, None, &cfg());
        let t = evaluate_system(SystemKind::FaastlaneT, &wf, None, &cfg());
        let p = evaluate_system(SystemKind::Faastlane, &wf, None, &cfg());
        assert!(c.mean_latency <= t.mean_latency && c.mean_latency <= p.mean_latency);
    }
}

/// Observation 4 / Fig. 8: many-to-one slashes memory vs one-to-one;
/// Chiron additionally slashes CPUs vs Faastlane.
#[test]
fn observation4_resource_efficiency() {
    let wf = apps::finra(50);
    let slo = Some(paper_slo(&wf));
    let of = evaluate_system(SystemKind::OpenFaas, &wf, None, &cfg());
    let fl = evaluate_system(SystemKind::Faastlane, &wf, None, &cfg());
    let ch = evaluate_system(SystemKind::Chiron, &wf, slo, &cfg());
    let mem_saving = 1.0 - fl.usage.memory_mb() / of.usage.memory_mb();
    assert!(mem_saving > 0.7, "Faastlane memory saving {mem_saving}");
    let cpu_saving = 1.0 - f64::from(ch.usage.cpus) / f64::from(fl.usage.cpus);
    assert!(cpu_saving > 0.5, "Chiron CPU saving {cpu_saving}");
}

/// §6.2: Chiron reduces latency vs OpenFaaS by up to ~54% and vs Faastlane
/// by up to ~43% — demand substantial reductions at the workloads where the
/// paper sees them (high fan-out).
#[test]
fn latency_reductions_at_high_fanout() {
    let wf = apps::finra(100);
    let slo = Some(paper_slo(&wf));
    let chiron = evaluate_system(SystemKind::Chiron, &wf, slo, &cfg());
    let of = evaluate_system(SystemKind::OpenFaas, &wf, None, &cfg());
    let fl = evaluate_system(SystemKind::Faastlane, &wf, None, &cfg());
    let vs_of = 1.0 - chiron.mean_latency.as_millis_f64() / of.mean_latency.as_millis_f64();
    let vs_fl = 1.0 - chiron.mean_latency.as_millis_f64() / fl.mean_latency.as_millis_f64();
    assert!(vs_of > 0.3, "vs OpenFaaS: {vs_of}");
    assert!(vs_fl > 0.3, "vs Faastlane: {vs_fl}");
}

/// Fig. 18: even without the GIL, Chiron's resource efficiency buys
/// throughput.
#[test]
fn no_gil_throughput_advantage() {
    use chiron::deploy;
    use chiron::evaluate_plan;
    let wf = apps::slapp();
    let slo = paper_slo(&wf);
    let par = wf.max_parallelism() as u32;
    let one = deploy::to_java(deploy::openfaas(&wf));
    let mut many = deploy::to_java(deploy::faastlane_t(&wf));
    many.sandboxes[0].cpus = par;
    let mut lean = deploy::to_java(deploy::faastlane_t(&wf));
    lean.system = SystemKind::Chiron;
    for cpus in 1..=par {
        lean.sandboxes[0].cpus = cpus;
        if evaluate_plan(&wf, lean.clone(), &cfg()).mean_latency <= slo {
            break;
        }
    }
    let one = evaluate_plan(&wf, one, &cfg());
    let many = evaluate_plan(&wf, many, &cfg());
    let lean = evaluate_plan(&wf, lean, &cfg());
    assert!(lean.throughput.rps > many.throughput.rps);
    assert!(lean.throughput.rps > 2.0 * one.throughput.rps);
}

/// §6.3: the m-to-n model is the cheapest of all deployment models.
#[test]
fn cost_efficiency_ordering() {
    for wf in [apps::movie_reviewing(), apps::finra(50)] {
        let slo = Some(paper_slo(&wf));
        let chiron = evaluate_system(SystemKind::Chiron, &wf, slo, &cfg());
        for sys in [
            SystemKind::Asf,
            SystemKind::OpenFaas,
            SystemKind::Sand,
            SystemKind::Faastlane,
        ] {
            let base = evaluate_system(sys, &wf, None, &cfg());
            assert!(
                chiron.cost.usd_per_million < base.cost.usd_per_million,
                "{}: Chiron ${} vs {sys} ${}",
                wf.name,
                chiron.cost.usd_per_million,
                base.cost.usd_per_million
            );
        }
    }
}

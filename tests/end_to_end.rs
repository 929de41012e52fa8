//! Cross-crate integration: the full profile → schedule → generate →
//! execute pipeline for every benchmark workflow and every evaluated
//! system, with structural invariants checked on the outcomes.

use chiron::model::{apps, FunctionId, PlatformConfig, SystemKind};
use chiron::{evaluate_system, paper_slo, Chiron, EvalConfig, PgpMode};

const ALL_SYSTEMS: [SystemKind; 11] = [
    SystemKind::Asf,
    SystemKind::OpenFaas,
    SystemKind::Sand,
    SystemKind::Faastlane,
    SystemKind::FaastlaneT,
    SystemKind::FaastlanePlus,
    SystemKind::FaastlaneM,
    SystemKind::FaastlaneP,
    SystemKind::Chiron,
    SystemKind::ChironM,
    SystemKind::ChironP,
];

#[test]
fn every_system_runs_every_benchmark() {
    let cfg = EvalConfig {
        requests: 1,
        ..EvalConfig::default()
    };
    for wf in apps::evaluation_suite() {
        // FINRA-100/200 × 11 systems is slow in debug; sample the suite.
        if wf.function_count() > 101 {
            continue;
        }
        for sys in ALL_SYSTEMS {
            let slo = matches!(
                sys,
                SystemKind::Chiron | SystemKind::ChironM | SystemKind::ChironP
            )
            .then(|| paper_slo(&wf));
            let eval = evaluate_system(sys, &wf, slo, &cfg);
            assert!(!eval.mean_latency.is_zero(), "{sys} on {}", wf.name);
            assert_eq!(eval.sample_outcome.timelines.len(), wf.function_count());
            for t in &eval.sample_outcome.timelines {
                t.check_invariants(&eval.sample_outcome.spans)
                    .unwrap_or_else(|e| panic!("{sys} on {}: {e}", wf.name));
            }
            // Stage windows are ordered and cover every function.
            let windows = &eval.sample_outcome.stage_windows;
            assert_eq!(windows.len(), wf.stage_count());
            for w in windows.windows(2) {
                assert!(w[0].1 <= w[1].0, "stages must not overlap");
            }
        }
    }
}

#[test]
fn chiron_pipeline_end_to_end_on_finra200() {
    let manager = Chiron::new(PlatformConfig::paper_calibrated());
    let wf = apps::finra(200);
    let deployment = manager.deploy(&wf, None, PgpMode::NativeThread);
    let outcome = manager.invoke(&wf, &deployment, 0).unwrap();
    assert_eq!(outcome.timelines.len(), 201);
    // All 200 validators executed after the fetch completed.
    let fetch_done = outcome.timeline(FunctionId(0)).completed;
    for i in 1..=200u32 {
        assert!(outcome.timeline(FunctionId(i)).exec_start >= fetch_done);
    }
}

#[test]
fn timelines_cover_end_to_end_latency() {
    let cfg = EvalConfig {
        requests: 1,
        ..EvalConfig::default()
    };
    for sys in [
        SystemKind::OpenFaas,
        SystemKind::Faastlane,
        SystemKind::Chiron,
    ] {
        let wf = apps::social_network();
        let eval = evaluate_system(sys, &wf, None, &cfg);
        let last_completion = eval
            .sample_outcome
            .timelines
            .iter()
            .map(|t| t.completed)
            .max()
            .unwrap();
        let e2e_ms = eval.sample_outcome.e2e.as_millis_f64();
        assert!(
            last_completion.as_millis_f64() <= e2e_ms + 1e-6,
            "{sys}: completion after e2e"
        );
        // The e2e exceeds completion only by return-path RPC costs.
        assert!(
            e2e_ms - last_completion.as_millis_f64() < 30.0,
            "{sys}: unexplained gap"
        );
    }
}

#[test]
fn generated_code_exists_for_all_chiron_sandboxes() {
    let manager = Chiron::default();
    for wf in [apps::slapp(), apps::movie_reviewing()] {
        for mode in [PgpMode::NativeThread, PgpMode::Mpk, PgpMode::Pool] {
            let d = manager.deploy(&wf, None, mode);
            assert_eq!(d.wraps.len(), d.plan().sandbox_count());
            for wrap in &d.wraps {
                assert!(wrap.handler_py.contains("def "));
            }
        }
    }
}

//! End-to-end acceptance tests of the serving control plane, driven
//! through the `Chiron` facade (deploy → serve).

use chiron::serving::{FaultPlan, RouterPolicy, ServeConfig, Workload};
use chiron::{Chiron, PgpMode};
use chiron_deploy::NodeId;
use chiron_metrics::ArrivalProcess;
use chiron_model::{apps, SimTime};

fn deployed() -> (Chiron, chiron_model::Workflow, chiron::Deployment) {
    let chiron = Chiron::default();
    let wf = apps::finra(12);
    let deployment = chiron.deploy(&wf, None, PgpMode::NativeThread);
    (chiron, wf, deployment)
}

/// Two seeded runs produce byte-for-byte identical outcome records.
#[test]
fn seeded_serving_runs_are_reproducible() {
    let (chiron, wf, deployment) = deployed();
    let workload = Workload::step(20.0, 10.0, 2_000, 10_000)
        .with_arrivals(ArrivalProcess::Poisson { seed: 5 });
    let a = chiron
        .serve(
            &wf,
            &deployment,
            ServeConfig::paper_testbed(),
            &workload,
            99,
        )
        .unwrap();
    let b = chiron
        .serve(
            &wf,
            &deployment,
            ServeConfig::paper_testbed(),
            &workload,
            99,
        )
        .unwrap();
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.records, b.records);
    assert_eq!(a.replica_timeline, b.replica_timeline);
}

/// After a 10× traffic step the autoscaler returns tail latency to its
/// target: the cold-start transient is confined to the first part of the
/// step phase, and the steady-state p99 meets `AutoscalerConfig::p99_target`.
#[test]
fn p99_recovers_after_ten_x_traffic_step() {
    let (chiron, wf, deployment) = deployed();
    let config = ServeConfig::paper_testbed();
    let target = config.autoscaler.p99_target;
    let workload = Workload::step(10.0, 10.0, 1_000, 20_000);
    let report = chiron
        .serve(&wf, &deployment, config, &workload, 17)
        .unwrap();
    assert_eq!(report.lost, 0);
    assert!(report.scale_ups > 0, "the step must trigger scale-up");
    // The transient (queue built while replicas cold-start for 167 ms)
    // is visible at the head of the step phase...
    let whole_phase = report.tail_p99_of_phase(1, 0.0);
    // ...but the tail 70% of the phase meets the autoscaler's target.
    let steady = report.tail_p99_of_phase(1, 0.3);
    assert!(
        steady <= target,
        "steady-state p99 {steady} exceeds the {target} target (whole phase: {whole_phase})"
    );
}

/// Killing a node mid-run completes every accepted request: in-flight work
/// is re-queued by failure detection, never dropped. Without a fault, a
/// steady 500 rps run completes every request too.
#[test]
fn node_kill_mid_run_loses_nothing() {
    let (chiron, wf, deployment) = deployed();
    for router in RouterPolicy::ALL {
        let config = ServeConfig::paper_testbed().with_router(router);
        let busy =
            Workload::steady(500.0, 20_000).with_arrivals(ArrivalProcess::Poisson { seed: 9 });
        let report = chiron
            .serve(&wf, &deployment, config.clone(), &busy, 1)
            .unwrap();
        let counts = (report.accepted, report.completed, report.lost);
        assert_eq!(counts, (20_000, 20_000, 0), "{} at 500 rps", router.name());
        let faults = FaultPlan::none().kill_at(SimTime::from_millis_f64(30_000.0), NodeId(0));
        let workload =
            Workload::steady(40.0, 4_000).with_arrivals(ArrivalProcess::Poisson { seed: 2 });
        let report = chiron
            .serve_with_faults(&wf, &deployment, config, faults, &workload, 23)
            .unwrap();
        assert_eq!(report.accepted, 4_000, "{}", router.name());
        assert_eq!(
            report.completed,
            4_000,
            "{}: all accepted requests finish",
            router.name()
        );
        assert_eq!(report.lost, 0, "{}", router.name());
        assert!(
            report.replicas_failed > 0,
            "{}: the kill must hit replicas",
            router.name()
        );
        assert!(
            report.requeued_requests > 0,
            "{}: recovery re-queues, not drops",
            router.name()
        );
    }
}

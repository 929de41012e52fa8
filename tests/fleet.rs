//! Fleet federation contracts, driven through the public `chiron` API:
//! any `(shards, workers)` choice reproduces the single-threaded bytes,
//! spillover and node kills lose nothing, and bad input comes back as a
//! typed error.

use chiron::model::{apps, SimDuration, SimTime};
use chiron::serving::ServeError;
use chiron::{
    Chiron, FaultPlan, FleetConfig, FleetPhase, FleetSimulation, FleetWorkload, PgpMode,
    ServeConfig,
};
use chiron_deploy::NodeId;
use chiron_metrics::ArrivalProcess;

/// Eight clusters, cluster 0 carrying five times the demand and spilling
/// at a depth of 16, node 0 of cluster 1 killed mid-run, and a 1.6x
/// service shift in the second phase.
fn churning_fleet() -> (FleetSimulation, FleetWorkload) {
    let wf = apps::finra(12);
    let plan = Chiron::default()
        .deploy(&wf, None, PgpMode::NativeThread)
        .plan()
        .clone();
    let mut locality = vec![1.0; 8];
    locality[0] = 5.0;
    let config = FleetConfig::paper_fleet(8)
        .with_cluster(ServeConfig::paper_testbed())
        .with_locality(locality)
        .with_spill(16, SimDuration::from_millis(2));
    let sim = FleetSimulation::new(wf, plan, config)
        .expect("the fleet's plan executes")
        .with_cluster_faults(
            1,
            FaultPlan::none().kill_at(SimTime::from_millis_f64(2_500.0), NodeId(0)),
        );
    let phase = |millis: u64, service_multiplier: f64| FleetPhase {
        rps: 900.0,
        duration: SimDuration::from_millis(millis),
        service_multiplier,
    };
    let workload = FleetWorkload {
        phases: vec![phase(4_000, 1.0), phase(2_250, 1.6)],
        arrivals: ArrivalProcess::Poisson { seed: 17 },
    };
    (sim, workload)
}

/// Every execution policy — fewer workers than shards, more workers than
/// shards or CPUs, more shards than clusters, and the degenerate zeros —
/// replays the single-shard single-worker reference byte for byte.
#[test]
fn shard_workers_reproduce_the_single_thread_bytes() {
    let (sim, workload) = churning_fleet();
    let reference = sim.run(&workload, 3).unwrap();
    // Pinned: a change to the federation driver that reorders any
    // cross-cluster action changes these bytes, whatever the policy.
    assert_eq!(reference.digest(), 11_729_388_581_768_178_323);
    assert!(reference.forwarded > 0, "the hot cluster must spill");
    // Now a counter rather than a scan of the request log, and outside
    // the digest, so pinned on its own.
    assert_eq!(reference.requeued_requests, 8, "the kill must requeue");
    assert_eq!(reference.lost, 0, "spillover and kills lose nothing");
    assert_eq!(
        reference.completed,
        reference.accepted - reference.forwarded
    );
    for (shards, workers) in [(8, 2), (3, 3), (8, 8), (1, 4), (0, 0), (16, 5)] {
        let sharded = sim.run_sharded(&workload, 3, shards, workers).unwrap();
        assert_eq!(reference, sharded, "shards={shards} workers={workers}");
    }
}

#[test]
fn bad_fleet_input_is_a_typed_error() {
    let wf = apps::finra(12);
    let plan = chiron_deploy::planners::faastlane_plus(&wf);
    let fleet = |config: FleetConfig| FleetSimulation::new(wf.clone(), plan.clone(), config);

    let mut no_epoch = FleetConfig::paper_fleet(2);
    no_epoch.epoch = SimDuration::ZERO;
    let mut short_locality = FleetConfig::paper_fleet(2);
    short_locality.locality.pop();
    let mut negative_locality = FleetConfig::paper_fleet(2);
    negative_locality.locality[1] = -1.0;
    for config in [
        FleetConfig::paper_fleet(0),
        FleetConfig::paper_fleet(1025),
        no_epoch,
        short_locality,
        negative_locality,
    ] {
        assert!(matches!(fleet(config), Err(ServeError::Fleet(_))));
    }

    let sim = fleet(FleetConfig::paper_fleet(2)).unwrap();
    let no_phases = FleetWorkload {
        phases: Vec::new(),
        arrivals: ArrivalProcess::Poisson { seed: 0 },
    };
    let idle = FleetWorkload::steady(0.0, SimDuration::from_millis(1_000));
    for workload in [no_phases, idle] {
        assert!(matches!(
            sim.run_sharded(&workload, 1, 2, 2),
            Err(ServeError::Fleet(_))
        ));
    }
}

/// A traced fleet run banks its clusters' events into buffers of their
/// own, so a capture the caller already has open on the same thread
/// keeps every event it was sent and receives none of the fleet's.
#[test]
fn traced_fleet_run_leaves_the_callers_capture_intact() {
    use chiron::obs::{self, TraceEvent, TraceEventKind::*};

    let wf = apps::finra(5);
    let plan = chiron_deploy::planners::faastlane_plus(&wf);
    let sim = FleetSimulation::new(wf, plan, FleetConfig::paper_fleet(2)).unwrap();
    let workload = FleetWorkload::steady(200.0, SimDuration::from_millis(1_000));

    let sent = [
        (1, ReplicaReady { replica: 7 }),
        (2, ReplicaRetired { replica: 7 }),
    ];
    obs::set_tracing(true);
    obs::begin_capture();
    // The caller's own events, pushed into its open capture the way a
    // producer holding the buffer does.
    let mut buf = obs::take_capture().expect("an open capture");
    buf.extend(sent.map(|(time_ns, kind)| TraceEvent { time_ns, kind }));
    obs::restore_capture(buf);
    let (report, fleet_trace) = sim.run_sharded_traced(&workload, 1, 1, 1).unwrap();
    let caller = obs::end_capture();
    obs::set_tracing(false);

    assert!(report.completed > 0);
    assert!(!fleet_trace.is_empty(), "the fleet trace banks its events");
    let events: Vec<_> = caller.events.iter().map(|e| (e.time_ns, e.kind)).collect();
    assert_eq!(events, sent);
}

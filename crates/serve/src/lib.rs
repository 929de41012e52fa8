//! chiron-serve: an online serving control plane over the virtual cluster.
//!
//! The rest of the repo answers "what is the best deployment of one
//! workflow?"; this crate answers "how does that deployment behave under
//! sustained traffic?". It drives an open-loop request stream through a
//! deterministic discrete-event simulation of:
//!
//! * a **router** with pluggable architectures — one central FIFO gateway
//!   vs Archipelago-style per-node partitioned schedulers (the §7
//!   centralised-vs-decentralised trade-off, operationalised);
//! * an **autoscaler** reacting to queue depth and windowed p99 latency,
//!   paying the paper's 167 ms sandbox cold start on every scale-up unless
//!   a lifecycle pool has stock, and retiring replicas on keepalive expiry;
//! * **failure recovery** — crash-stop node kills detected by missed
//!   heartbeats, with replica write-off, in-flight re-queueing and
//!   replacement placement, losing no accepted request;
//! * **metering** — streaming sojourn percentiles, cold-start fraction and
//!   GB-s / GHz-s dollar cost per run;
//! * a **federation** layer ([`fleet`]) — many clusters under one
//!   epoch-barrier driver, with gossiped admission rates, cross-cluster
//!   spillover, and exactly-merged fleet reports, byte-identical for any
//!   shard grouping or worker count.
//!
//! Everything is deterministic in the `(workload, seed)` pair, so serving
//! experiments are reproducible byte for byte.

pub mod autoscaler;
mod barrier;
pub mod config;
pub mod events;
pub mod faults;
pub mod fleet;
pub mod report;
pub mod router;
pub mod sim;

pub use autoscaler::{Autoscaler, AutoscalerConfig};
pub use config::{RouterPolicy, ServeConfig, TrafficPhase, Workload};
pub use events::{Event, EventKind, EventQueue};
pub use faults::FaultPlan;
pub use fleet::{FleetConfig, FleetPhase, FleetSimulation, FleetWorkload};
pub use report::{FleetReport, PhaseSummary, RequestRecord, ServeReport};
pub use router::{Router, Shard};
pub use sim::{ServeError, ServeSimulation};

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_deploy::{planners, NodeId};
    use chiron_model::{apps, SimDuration, SimTime};

    fn simulation(config: ServeConfig) -> ServeSimulation {
        let wf = apps::finra(12);
        let plan = planners::faastlane_plus(&wf);
        ServeSimulation::new(wf, plan, config)
    }

    #[test]
    fn steady_load_completes_everything() {
        let sim = simulation(ServeConfig::paper_testbed());
        let report = sim.run(&Workload::steady(20.0, 2_000), 7).unwrap();
        assert_eq!(report.accepted, 2_000);
        assert_eq!(report.completed, 2_000);
        assert_eq!(report.lost, 0);
        assert!(report.sojourns.percentile(0.5) > SimDuration::ZERO);
        assert!(report.cost_usd > 0.0);
    }

    #[test]
    fn seeded_runs_are_byte_identical() {
        let sim = simulation(ServeConfig::paper_testbed());
        let workload = Workload::step(20.0, 10.0, 500, 2_000);
        let a = sim.run(&workload, 42).unwrap();
        let b = sim.run(&workload, 42).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.records, b.records);
        let c = sim.run(&workload, 43).unwrap();
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn traffic_step_triggers_scale_up() {
        let sim = simulation(ServeConfig::paper_testbed());
        let report = sim.run(&Workload::step(10.0, 10.0, 300, 3_000), 1).unwrap();
        assert_eq!(report.lost, 0);
        assert!(report.scale_ups > 0, "10× step must add replicas");
        assert!(report.peak_replicas > 1);
        assert!(report.cold_starts > 0, "scale-up pays cold starts");
    }

    #[test]
    fn tiered_pools_replace_cold_boots_and_bill_rent() {
        use chiron_lifecycle::LifecycleConfig;
        let workload = Workload::step(10.0, 10.0, 300, 3_000);

        let legacy = simulation(ServeConfig::paper_testbed())
            .run(&workload, 1)
            .unwrap();
        let tiered = simulation(
            ServeConfig::paper_testbed().with_lifecycle(LifecycleConfig::paper_calibrated()),
        )
        .run(&workload, 1)
        .unwrap();

        assert_eq!(tiered.lost, 0);
        assert!(tiered.scale_ups > 0);
        // The step's scale-up is absorbed by the pools: some starts come
        // from the snapshot or zygote tiers, and full cold boots shrink.
        let tier_starts = tiered.starts_by_tier[1] + tiered.starts_by_tier[2];
        assert!(
            tier_starts > 0,
            "starts_by_tier={:?}",
            tiered.starts_by_tier
        );
        assert!(
            tiered.starts_by_tier[3] < legacy.starts_by_tier[3],
            "tiered {:?} vs legacy {:?}",
            tiered.starts_by_tier,
            legacy.starts_by_tier
        );
        // Legacy runs only ever record warm handovers and cold boots.
        assert_eq!(legacy.starts_by_tier[1], 0);
        assert_eq!(legacy.starts_by_tier[2], 0);
        // Held pool slots pay standing rent, surfaced separately from
        // replica capacity and folded into the total bill.
        assert!(tiered.pool_gb_seconds > 0.0);
        assert!(tiered.pool_rent_usd > 0.0);
        assert!(tiered.total_cost_usd() > tiered.cost_usd);
        assert_eq!(legacy.pool_gb_seconds, 0.0);
        // Start fractions are a distribution over the four tiers.
        let fractions = tiered.tier_start_fractions();
        assert!((fractions.iter().sum::<f64>() - 1.0).abs() < 1e-9);

        // Tiered runs stay deterministic: same seed, same bytes.
        let again = simulation(
            ServeConfig::paper_testbed().with_lifecycle(LifecycleConfig::paper_calibrated()),
        )
        .run(&workload, 1)
        .unwrap();
        assert_eq!(tiered.digest(), again.digest());
        assert_eq!(tiered.records, again.records);
        assert_eq!(tiered.pool_gb_seconds, again.pool_gb_seconds);
    }

    #[test]
    fn replica_seconds_split_busy_idle_and_keepalive_tail() {
        let report = simulation(ServeConfig::paper_testbed())
            .run(&Workload::step(10.0, 10.0, 300, 3_000), 1)
            .unwrap();
        // The busy/idle split partitions total reserved capacity.
        assert!(report.busy_replica_seconds > 0.0);
        assert!(report.idle_replica_seconds > 0.0);
        let split = report.busy_replica_seconds + report.idle_replica_seconds;
        assert!(
            (split - report.replica_seconds).abs() < 1e-6 * report.replica_seconds,
            "busy {} + idle {} != total {}",
            report.busy_replica_seconds,
            report.idle_replica_seconds,
            report.replica_seconds
        );
        // Scaled-up replicas alive at the last completion drain their
        // keepalive before releasing capacity — billed, not free.
        assert!(report.scale_ups > 0);
        assert!(report.keepalive_tail_seconds > 0.0);
        assert!(report.replica_seconds > report.busy_replica_seconds);
    }

    #[test]
    fn node_kill_loses_no_accepted_request() {
        for router in RouterPolicy::ALL {
            let config = ServeConfig::paper_testbed().with_router(router);
            let sim = simulation(config).with_faults(
                FaultPlan::none().kill_at(SimTime::from_millis_f64(5_000.0), NodeId(0)),
            );
            let report = sim.run(&Workload::steady(25.0, 2_000), 3).unwrap();
            assert_eq!(
                report.lost,
                0,
                "{}: accepted requests must all finish",
                router.name()
            );
            assert_eq!(report.completed, 2_000);
            assert!(
                report.replicas_failed > 0,
                "{}: the kill must hit replicas",
                router.name()
            );
            assert!(
                report.requeued_requests > 0,
                "{}: in-flight work must be re-queued, not dropped",
                router.name()
            );
        }
    }

    /// One test fn for both tracing contracts — the process-global
    /// tracing flag must not be flipped from concurrent tests.
    ///
    /// Disabled (the default), the sink must be free: a full serve run
    /// records zero events and allocates zero capture buffers, and the
    /// report is bit-identical to an instrumented-later run. Enabled, a
    /// capture holds the whole causal request life and two captures of
    /// the same `(workload, seed)` are byte-identical.
    #[test]
    fn tracing_is_free_when_disabled_and_deterministic_when_on() {
        let sim = simulation(ServeConfig::paper_testbed())
            .with_faults(FaultPlan::none().kill_at(SimTime::from_millis_f64(5_000.0), NodeId(0)));
        let workload = Workload::steady(25.0, 600);

        // Phase 1: disabled — zero events, zero capture buffers.
        chiron_obs::reset_trace_stats();
        chiron_obs::set_tracing(false);
        let base = sim.run(&workload, 9).unwrap();
        assert_eq!(
            chiron_obs::trace_stats(),
            chiron_obs::TraceStats::default(),
            "a disabled sink must not record or allocate anything"
        );

        // Phase 2: enabled — full life cycle captured, deterministically,
        // without perturbing the simulation itself.
        chiron_obs::set_tracing(true);
        chiron_obs::begin_capture();
        let a = sim.run(&workload, 9).unwrap();
        let ta = chiron_obs::end_capture();
        chiron_obs::begin_capture();
        let b = sim.run(&workload, 9).unwrap();
        let tb = chiron_obs::end_capture();
        chiron_obs::set_tracing(false);

        assert_eq!(base.digest(), a.digest(), "tracing must not change the sim");
        assert_eq!(a.digest(), b.digest());
        assert_eq!(ta.render(), tb.render(), "captures must be byte-identical");
        let render = ta.render();
        for needle in [
            "RunContext",
            "Arrival",
            "Enqueue",
            "Dispatch",
            "Complete",
            "Requeue",
            "ReplicaSpawn",
            "ReplicaReady",
            "NodeKill",
            "NodeDeath",
            "DesSpan",
            "DesBreakdown",
        ] {
            assert!(render.contains(needle), "{needle} missing from the trace");
        }

        // Phase 3: the captured trace supports exact latency attribution.
        let attrib = chiron_obs::attribute(&ta);
        assert_eq!(attrib.workflow, "FINRA-12");
        assert!(attrib.sums_exact(), "components must sum to sojourn");
        assert_eq!(attrib.requests.len() as u64, a.completed);
        assert_eq!(attrib.incomplete, 0);
        assert!(
            attrib.profiles.len() > 1,
            "DES breakdowns must yield stage profiles"
        );
        assert!(
            attrib.requests.iter().any(|r| r.components[5] > 0),
            "the node kill must leave retry time on some request"
        );
        assert_eq!(
            attrib.render(),
            chiron_obs::attribute(&tb).render(),
            "attribution must be byte-identical across captures"
        );
    }

    #[test]
    fn slo_burn_rate_alerts_fire_on_incident_and_stay_quiet_otherwise() {
        let workload = Workload::steady(25.0, 2_000);
        let healthy = simulation(ServeConfig::paper_testbed())
            .run(&workload, 3)
            .unwrap();
        // SLO target: 20% above the worst healthy sojourn (which includes
        // the scale-up transient), so only an incident can breach it.
        let policy = chiron_obs::SloPolicy::multi_window(healthy.sojourns.max().mul_f64(1.2));

        let quiet = simulation(ServeConfig::paper_testbed().with_slo(policy))
            .run(&workload, 3)
            .unwrap();
        let quiet_slo = quiet.slo.as_ref().expect("slo configured");
        assert_eq!(quiet_slo.alerts_fired, 0, "{}", quiet_slo.render_timeline());
        assert_eq!(
            quiet.digest(),
            healthy.digest(),
            "monitoring must not perturb the sim"
        );

        // A single-node kill only strands ~3 in-flight requests (replicas
        // are spread thin); take out half the cluster so the incident is
        // unambiguous rather than threshold-marginal.
        let mut faults = FaultPlan::none();
        for node in 0..4 {
            faults = faults.kill_at(SimTime::from_millis_f64(5_000.0), NodeId(node));
        }
        let faulted = simulation(ServeConfig::paper_testbed().with_slo(policy))
            .with_faults(faults)
            .run(&workload, 3)
            .unwrap();
        let slo = faulted.slo.expect("slo configured");
        assert!(slo.alerts_fired >= 1, "{}", slo.render_timeline());
        let first = slo.first_alert_ns.expect("fired");
        assert!(
            first > 5_000_000_000,
            "alert must follow the kill, got {first}"
        );
        assert!(slo.time_in_alert_ns > 0);
        assert!(slo.compliance < quiet_slo.compliance);
        // The timeline renders deterministically.
        assert_eq!(slo.render_timeline(), slo.clone().render_timeline());
    }

    #[test]
    fn partitioned_router_beats_central_overhead() {
        // With multi-wrap stages the partitioned architecture skips the
        // per-invocation gateway detour, so its service time is lower.
        let wl = Workload::steady(10.0, 500);
        let central = simulation(ServeConfig::paper_testbed())
            .run(&wl, 5)
            .unwrap();
        let partitioned =
            simulation(ServeConfig::paper_testbed().with_router(RouterPolicy::PartitionedByNode))
                .run(&wl, 5)
                .unwrap();
        assert!(
            partitioned.sojourns.percentile(0.5) <= central.sojourns.percentile(0.5),
            "partitioned {} vs central {}",
            partitioned.sojourns.percentile(0.5),
            central.sojourns.percentile(0.5)
        );
    }
}

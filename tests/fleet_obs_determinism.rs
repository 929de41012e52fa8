//! Cross-crate determinism of fleet-wide observability.
//!
//! The `figures -- fleet-obs` report rests on the tentpole contract: a
//! traced federated run produces byte-identical merged *traces* — not
//! just reports — for every shard count and every worker count, because
//! each cluster banks its events in its own cluster-owned buffer and
//! the merged trace stitches those buffers in cluster order. These
//! properties pin that contract across shards {1, 4, 16} × workers
//! {1, 2, 4, 7} on a skewed, regime-shifted fleet, and check the
//! analysis plane on the captured bytes: the seven-component attribution
//! (cross-cluster forwarding included) sums exactly to every sojourn,
//! and the regime sensor's change events land at identical times no
//! matter how the fleet was executed.

use chiron::model::apps;
use chiron::obs::{self, Component, RegimeConfig, SloPolicy, Trace, TraceEventKind};
use chiron::serving::ServeConfig;
use chiron::{Chiron, FleetConfig, FleetPhase, FleetSimulation, FleetWorkload, PgpMode};
use chiron_metrics::ArrivalProcess;
use chiron_model::{DeploymentPlan, SimDuration, Workflow};
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};

const SHARD_COUNTS: [usize; 3] = [1, 4, 16];
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 7];
const CLUSTERS: u32 = 4;

/// Tracing is a process-global switch; anything that enables it
/// serialises here so concurrent tests can never observe a half-toggled
/// capture.
fn tracing_gate() -> &'static Mutex<()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
}

/// FINRA-12 planned once per process; the scheduler is deterministic
/// (pinned elsewhere), so re-planning per case would only cost time.
fn planned() -> &'static (Workflow, DeploymentPlan) {
    static PLAN: OnceLock<(Workflow, DeploymentPlan)> = OnceLock::new();
    PLAN.get_or_init(|| {
        let wf = apps::finra(12);
        let plan = Chiron::default()
            .deploy(&wf, None, PgpMode::NativeThread)
            .plan()
            .clone();
        (wf, plan)
    })
}

/// The skewed observed fleet: cluster 0 carries 6× the demand (so the
/// spillover path runs hot), every cluster runs the SLO monitor and the
/// regime sensor.
fn fleet() -> FleetSimulation {
    let (wf, plan) = planned();
    let mut locality = vec![1.0; CLUSTERS as usize];
    locality[0] = 6.0;
    FleetSimulation::new(
        wf.clone(),
        plan.clone(),
        FleetConfig::paper_fleet(CLUSTERS)
            .with_cluster(
                ServeConfig::paper_testbed()
                    .with_slo(SloPolicy::multi_window(SimDuration::from_millis(1_200)))
                    .with_regime(RegimeConfig::default()),
            )
            .with_locality(locality)
            .with_spill(16, SimDuration::from_millis(2)),
    )
    .expect("fleet construction")
}

/// Two phases at the drawn rate; the ×1.6 step is the regime shift.
fn workload(rps: f64) -> FleetWorkload {
    FleetWorkload {
        phases: vec![
            FleetPhase {
                rps,
                duration: SimDuration::from_millis(6_000),
                service_multiplier: 1.0,
            },
            FleetPhase {
                rps,
                duration: SimDuration::from_millis(3_000),
                service_multiplier: 1.6,
            },
        ],
        arrivals: ArrivalProcess::Poisson { seed: 11 },
    }
}

fn regime_times(trace: &Trace) -> Vec<u64> {
    trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::RegimeChange { .. }))
        .map(|e| e.time_ns)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Shard count and worker count are pure execution policy for the
    /// *observability plane* too: any combination reproduces the
    /// single-shard single-worker trace bytes, the exact forwarding
    /// attribution, and the regime-change event times.
    #[test]
    fn fleet_traces_and_analyses_are_identical_across_shards_and_workers(
        run_seed in any::<u64>(),
        rps in 360.0f64..480.0,
    ) {
        let _guard = tracing_gate().lock().unwrap_or_else(|e| e.into_inner());
        let sim = fleet();
        let workload = workload(rps);

        obs::set_tracing(true);
        let (reference, ref_trace) = sim
            .run_sharded_traced(&workload, run_seed, 1, 1)
            .expect("reference run");
        let ref_render = ref_trace.render();
        let ref_regimes = regime_times(&ref_trace);
        let mut outcome = Ok(());
        'combos: for shards in SHARD_COUNTS {
            for workers in WORKER_COUNTS {
                let (report, trace) = sim
                    .run_sharded_traced(&workload, run_seed, shards, workers)
                    .expect("sharded run");
                if report.digest() != reference.digest() {
                    outcome = Err(format!("report diverged at shards={shards} workers={workers}"));
                    break 'combos;
                }
                if trace.render() != ref_render {
                    outcome = Err(format!("trace bytes diverged at shards={shards} workers={workers}"));
                    break 'combos;
                }
                if regime_times(&trace) != ref_regimes {
                    outcome = Err(format!("regime times diverged at shards={shards} workers={workers}"));
                    break 'combos;
                }
                obs::recycle(trace);
            }
        }
        obs::set_tracing(false);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());

        // The scenario exercises what it claims to: spillover moved work
        // and the sensor caught the injected shift.
        prop_assert!(reference.forwarded > 0, "expected spillover traffic");
        prop_assert!(reference.lost == 0, "spillover must not lose requests");
        prop_assert!(!ref_regimes.is_empty(), "regime sensor never fired");
        prop_assert!(reference.regime_changes as usize == ref_regimes.len(),
            "report count {} != {} trace events",
            reference.regime_changes, ref_regimes.len());

        // Attribution over the merged fleet trace: all seven components
        // (cross-cluster forwarding included) sum exactly to each
        // sojourn, and every shed request's hop carries blame.
        let attrib = obs::attribute(&ref_trace);
        prop_assert!(attrib.sums_exact(), "attribution must sum exactly");
        prop_assert!(attrib.forwarded_out == reference.forwarded,
            "attribution saw {} forwards, report {}",
            attrib.forwarded_out, reference.forwarded);
        let forwarding_ns = attrib
            .blame_ranking()
            .into_iter()
            .find(|(c, _)| *c == Component::Forwarding)
            .map_or(0, |(_, ns)| ns);
        prop_assert!(forwarding_ns > 0, "forwarding blame missing");
    }
}

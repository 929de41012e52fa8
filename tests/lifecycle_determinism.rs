//! Cross-crate determinism of the tiered-lifecycle serving figure.
//!
//! The `figures -- lifecycle` report rests on one contract: a sweep of
//! serving cells — legacy cold-boot-only, tiered pools, tiered pools
//! under diurnal arrivals — renders byte-identical reports and digests
//! for *every* worker count, because cell seeds derive from the cell
//! index and the pool state machine is driven solely by the simulation's
//! deterministic event order. These properties pin that contract across
//! `--workers {1, 2, 4, 7}` with randomised run seeds and diurnal
//! amplitudes, on the real FINRA plan the figure deploys.

use chiron::serving::{FaultPlan, ServeConfig, ServeReport, ServeSimulation, Workload};
use chiron::LifecycleConfig;
use chiron::{Chiron, PgpMode};
use chiron_bench::sweep::par_map_workers;
use chiron_deploy::NodeId;
use chiron_metrics::ArrivalProcess;
use chiron_model::{apps, DeploymentPlan, ReplicaConfig, SimDuration, SimTime, Workflow};
use proptest::prelude::*;
use std::sync::OnceLock;

const REQUESTS: u64 = 2_000;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// The figure's deployment, planned once per process: PGP is itself
/// deterministic (pinned elsewhere), so re-planning per case only costs
/// time.
fn deployment() -> &'static (Workflow, DeploymentPlan) {
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

/// One cell: (tiered pools?, diurnal arrivals?).
const CELLS: [(bool, bool); 3] = [(false, false), (true, false), (true, true)];

fn cell_workload(diurnal: bool, arrival_seed: u64, amplitude_pct: u8) -> Workload {
    let arrivals = if diurnal {
        ArrivalProcess::Diurnal {
            period_ms: 20_000,
            amplitude_pct,
            seed: arrival_seed,
        }
    } else {
        ArrivalProcess::Poisson { seed: arrival_seed }
    };
    Workload::steady(50.0, REQUESTS).with_arrivals(arrivals)
}

/// Runs the three cells through the sweep engine at `workers`.
fn run_cells(seed: u64, arrival_seed: u64, amplitude_pct: u8, workers: usize) -> Vec<ServeReport> {
    let (wf, plan) = deployment();
    let faults = FaultPlan::none().kill_at(SimTime::from_millis_f64(10_000.0), NodeId(0));
    par_map_workers(&CELLS, workers, |_, &(tiered, diurnal)| {
        let mut config = ServeConfig::paper_testbed()
            .with_replicas(ReplicaConfig::default().with_keepalive(SimDuration::from_secs(15)));
        if tiered {
            config = config.with_lifecycle(LifecycleConfig::paper_calibrated());
        }
        ServeSimulation::new(wf.clone(), plan.clone(), config)
            .with_faults(faults.clone())
            .run(&cell_workload(diurnal, arrival_seed, amplitude_pct), seed)
            .expect("serving run")
    })
}

/// Everything BENCH_LIFECYCLE.json reports per cell, as one byte string.
fn render(reports: &[ServeReport]) -> String {
    reports
        .iter()
        .map(|r| {
            format!(
                "{:016x} completed={} lost={} cold={} tiers={:?} fractions={:?} \
                 p99={} replica_s={:.9} pool_gbs={:.9} rent={:.9} total={:.9}\n",
                r.digest(),
                r.completed,
                r.lost,
                r.cold_starts,
                r.starts_by_tier,
                r.tier_start_fractions(),
                r.sojourns.percentile(0.99).as_nanos(),
                r.replica_seconds,
                r.pool_gb_seconds,
                r.pool_rent_usd,
                r.total_cost_usd(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The rendered lifecycle report and every serve digest are
    /// byte-identical across workers 1, 2, 4 and 7.
    #[test]
    fn lifecycle_reports_are_worker_count_invariant(
        seed in 0u64..1_000,
        arrival_seed in 1u64..1_000,
        amplitude_pct in 10u8..95,
    ) {
        let baseline = run_cells(seed, arrival_seed, amplitude_pct, 1);
        let baseline_render = render(&baseline);
        let baseline_digests: Vec<u64> =
            baseline.iter().map(ServeReport::digest).collect();
        for r in &baseline {
            prop_assert_eq!((r.accepted, r.completed, r.lost), (REQUESTS, REQUESTS, 0));
        }
        // The tiered cell must actually exercise the pools for the
        // property to mean anything.
        prop_assert!(
            baseline[1].starts_by_tier[1] + baseline[1].starts_by_tier[2] > 0,
            "tiered cell never hit a pool: {:?}",
            baseline[1].starts_by_tier
        );
        for &workers in &WORKER_COUNTS[1..] {
            let run = run_cells(seed, arrival_seed, amplitude_pct, workers);
            let digests: Vec<u64> = run.iter().map(ServeReport::digest).collect();
            prop_assert_eq!(&digests, &baseline_digests, "workers {}", workers);
            prop_assert_eq!(&render(&run), &baseline_render, "workers {}", workers);
        }
    }
}

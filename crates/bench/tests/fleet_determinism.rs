//! Cross-crate determinism of fleet-scale federated serving.
//!
//! The `figures -- fleet` report rests on one contract: a federated run
//! produces byte-identical merged reports for *every* shard count and
//! *every* worker count, because cluster seeds split from the cluster
//! index, arrival substreams split from the parent process, and all
//! cross-shard traffic (spillover, load gossip) crosses the epoch
//! barrier deterministically. These properties pin that contract across
//! shards {1, 4, 16} × workers {1, 2, 4, 7} on randomly drawn planned
//! workflows, and check the spillover path end-to-end through the public
//! facade: a saturated cluster sheds to its peers with zero request
//! loss.

use chiron::model::synthetic::{synthetic, SyntheticSpec};
use chiron::model::{apps, DeploymentPlan, Workflow};
use chiron::{Chiron, FleetConfig, FleetSimulation, FleetWorkload, PgpMode};
use chiron_model::SimDuration;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

const SHARD_COUNTS: [usize; 3] = [1, 4, 16];
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 7];
const CLUSTERS: u32 = 16;

/// PGP-planned workflows, keyed by generator seed and planned once per
/// process — the scheduler is deterministic (pinned elsewhere), so
/// re-planning per proptest case would only cost time.
type PlanCache = Mutex<HashMap<u64, Arc<(Workflow, DeploymentPlan)>>>;

fn planned(wf_seed: u64) -> Arc<(Workflow, DeploymentPlan)> {
    static PLANS: OnceLock<PlanCache> = OnceLock::new();
    let plans = PLANS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut plans = plans.lock().expect("plan cache lock");
    plans
        .entry(wf_seed)
        .or_insert_with(|| {
            let wf = synthetic(SyntheticSpec {
                seed: wf_seed,
                stages: 3,
                max_parallelism: 4,
                ..SyntheticSpec::default()
            });
            let plan = Chiron::default()
                .deploy(&wf, None, PgpMode::NativeThread)
                .plan()
                .clone();
            (wf, plan).into()
        })
        .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Shard count and worker count are pure execution policy: any
    /// combination reproduces the single-shard single-worker bytes.
    #[test]
    fn federated_reports_are_identical_across_shards_and_workers(
        wf_seed in 0u64..3,
        run_seed in any::<u64>(),
        rps in 120.0f64..360.0,
    ) {
        let deployment = planned(wf_seed);
        let (wf, plan) = (&deployment.0, &deployment.1);
        let sim = FleetSimulation::new(
            wf.clone(),
            plan.clone(),
            FleetConfig::paper_fleet(CLUSTERS),
        ).expect("fleet construction");
        let workload = FleetWorkload::steady(rps, SimDuration::from_millis(3_000));
        let reference = sim.run(&workload, run_seed).expect("reference run");
        prop_assert!(reference.completed > 0, "degenerate case: nothing completed");
        prop_assert_eq!(reference.lost, 0, "the fleet must not lose requests");
        for shards in SHARD_COUNTS {
            for workers in WORKER_COUNTS {
                let sharded = sim
                    .run_sharded(&workload, run_seed, shards, workers)
                    .expect("sharded run");
                prop_assert_eq!(
                    reference.digest(),
                    sharded.digest(),
                    "digest diverged at shards={} workers={}",
                    shards,
                    workers
                );
                prop_assert_eq!(
                    &reference,
                    &sharded,
                    "report diverged at shards={} workers={}",
                    shards,
                    workers
                );
            }
        }
    }
}

/// Spillover through the public facade: a cluster offered more than its
/// capacity sheds the excess to its peers, and every admitted request
/// still completes — federation moves work, it never drops it.
#[test]
fn saturated_cluster_spills_with_zero_loss() {
    let wf = apps::finra(12);
    let plan = Chiron::default()
        .deploy(&wf, None, PgpMode::NativeThread)
        .plan()
        .clone();
    // Cluster 0 takes ~15/16 of a rate well beyond one cluster's
    // capacity; its backlog must cross to cluster 1 instead of piling up.
    let sim = FleetSimulation::new(
        wf,
        plan,
        FleetConfig::paper_fleet(2).with_locality(vec![15.0, 1.0]),
    )
    .expect("fleet construction");
    let workload = FleetWorkload::steady(300.0, SimDuration::from_millis(6_000));
    let report = sim.run(&workload, 7).expect("fleet run");
    assert!(report.forwarded > 0, "expected spillover traffic");
    assert_eq!(report.lost, 0, "spillover must not lose requests");
    // `accepted` counts spillover re-admissions, so each forwarded
    // request appears twice on the admission side and once completed.
    assert_eq!(report.completed, report.accepted - report.forwarded);
}

//! Capacity validation: the analytic node-throughput figure behind Fig. 16
//! must agree with an actual queueing simulation of the node, and cluster
//! placement must scale it across the 8-node testbed.

use chiron::deploy::{ClusterConfig, ClusterState, Placement, PlacementPolicy};
use chiron::metrics::{drive_load, saturation_rps};
use chiron::model::{apps, SystemKind};
use chiron::{evaluate_system, paper_slo, EvalConfig};

/// The analytic `concurrency / latency` throughput must match the rate a
/// FIFO multi-server queue actually sustains with those parameters.
#[test]
fn analytic_throughput_matches_queueing_simulation() {
    let cfg = EvalConfig {
        requests: 4,
        ..EvalConfig::default()
    };
    for (sys, wf) in [
        (SystemKind::Faastlane, apps::finra(5)),
        (SystemKind::Chiron, apps::finra(50)),
        (SystemKind::OpenFaas, apps::slapp()),
    ] {
        let slo = (sys == SystemKind::Chiron).then(|| paper_slo(&wf));
        let eval = evaluate_system(sys, &wf, slo, &cfg);
        let servers = eval.throughput.concurrency;
        if servers < 1.0 {
            continue; // oversubscribed single instance: no whole server
        }
        let service: Vec<chiron::model::SimDuration> = eval.latencies.iter().collect();
        let measured = saturation_rps(servers as u32, &service, 2.0, 3000);
        let analytic = eval.throughput.rps;
        let rel = (measured - analytic).abs() / analytic;
        assert!(
            rel < 0.15,
            "{sys} on {}: queueing {measured:.1} vs analytic {analytic:.1} rps",
            wf.name
        );
    }
}

/// Below saturation the queue adds no latency; above it, sojourn explodes.
#[test]
fn load_sweep_brackets_the_knee() {
    let cfg = EvalConfig {
        requests: 2,
        ..EvalConfig::default()
    };
    let wf = apps::finra(5);
    let eval = evaluate_system(SystemKind::Chiron, &wf, Some(paper_slo(&wf)), &cfg);
    let servers = eval.throughput.concurrency as u32;
    assert!(servers >= 1);
    let service: Vec<chiron::model::SimDuration> = eval.latencies.iter().collect();
    let cap = eval.throughput.rps;
    let under = drive_load(servers, &service, cap * 0.5, 2000);
    let over = drive_load(servers, &service, cap * 1.5, 2000);
    assert!(under.p99_sojourn.as_millis_f64() < eval.mean_latency.as_millis_f64() * 1.5);
    assert!(over.p99_sojourn > under.p99_sojourn * 5);
}

/// Every evaluated system's plan must be placeable on the paper's 8-node
/// testbed, except deployments whose single instance outgrows the cluster.
#[test]
fn suite_plans_fit_the_paper_testbed() {
    let cluster = ClusterConfig::paper_testbed();
    let cfg = EvalConfig {
        requests: 1,
        ..EvalConfig::default()
    };
    for wf in [
        apps::finra(5),
        apps::finra(50),
        apps::social_network(),
        apps::slapp_v(),
    ] {
        for sys in [
            SystemKind::OpenFaas,
            SystemKind::Faastlane,
            SystemKind::Chiron,
        ] {
            let slo = (sys == SystemKind::Chiron).then(|| paper_slo(&wf));
            let eval = evaluate_system(sys, &wf, slo, &cfg);
            // Uniform-allocation baselines can demand more CPUs than one
            // node owns (Faastlane wants max-parallelism CPUs in a single
            // sandbox); those legitimately oversubscribe rather than place.
            if eval
                .plan
                .sandboxes
                .iter()
                .any(|s| s.cpus > cluster.node.node_cpus)
            {
                continue;
            }
            for policy in [PlacementPolicy::Pack, PlacementPolicy::Spread] {
                let placement = ClusterState::new(cluster.clone())
                    .place_replica(&eval.plan, &wf, policy)
                    .unwrap_or_else(|e| panic!("{sys} on {}: {e}", wf.name));
                assert_eq!(placement.assignments.len(), eval.plan.sandbox_count());
            }
        }
    }
}

/// Chiron's frugal plans pack onto a single node; OpenFaaS's one-to-one
/// FINRA-50 plan spreads across several under the Spread policy.
#[test]
fn chiron_packs_tighter_than_one_to_one() {
    let cluster = ClusterConfig::paper_testbed();
    let cfg = EvalConfig {
        requests: 1,
        ..EvalConfig::default()
    };
    let wf = apps::finra(50);
    let chiron = evaluate_system(SystemKind::Chiron, &wf, Some(paper_slo(&wf)), &cfg);
    let nodes_used = |placed: Placement| {
        let mut nodes: Vec<_> = placed.assignments.iter().map(|&(_, n)| n).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    };
    let place = |plan, policy| ClusterState::new(cluster.clone()).place_replica(plan, &wf, policy);
    let chiron_placed = place(&chiron.plan, PlacementPolicy::Pack).unwrap();
    assert_eq!(nodes_used(chiron_placed), 1);

    let of = evaluate_system(SystemKind::OpenFaas, &wf, None, &cfg);
    let of_placed = place(&of.plan, PlacementPolicy::Spread).unwrap();
    assert!(nodes_used(of_placed) >= 4, "51 sandboxes should spread");
}

//! The FINRA-12 serving scenario the serving-side figures share: Chiron's
//! NativeThread deployment of FINRA-12, seed 2023, steady 50 rps Poisson
//! (seed 7) traffic, nodes crash-stopped at t = 60 s, and the 1.2 s
//! latency SLO. `figures obs`, `lifecycle`, `transfer`, `serve`, `fleet`
//! and `fleet-obs` each take what they need from here; what differs
//! between them (request count, killed nodes, SLO objective) is an
//! argument.

use chiron::serving::{FaultPlan, Workload};
use chiron::{Chiron, Deployment, PgpMode};
use chiron_deploy::NodeId;
use chiron_metrics::ArrivalProcess;
use chiron_model::{apps, SimDuration, SimTime, Workflow};
use chiron_obs::SloPolicy;

/// The seed of every serving and fleet run.
pub const SEED: u64 = 2023;
/// Offered load of the steady traffic, requests per second.
pub const RPS: f64 = 50.0;
/// The arrival process of the steady traffic.
pub const ARRIVALS: ArrivalProcess = ArrivalProcess::Poisson { seed: 7 };
/// Requests of the faulted serving run (≥ 10k, so an exported trace
/// covers a full-scale faulted run).
pub const REQUESTS: u64 = 12_000;
/// Nodes killed in the faulted serving run. One kill only strands ~3
/// in-flight requests (replicas are spread thin across 8 nodes); three
/// make an incident the burn-rate monitor cannot mistake for noise.
pub const KILLED_NODES: u32 = 3;
/// The SLO objective of the faulted serving run.
pub const SLO_OBJECTIVE: f64 = 0.999;
/// When the killed nodes crash-stop.
pub const KILL_AT: SimTime = SimTime::from_nanos(60_000_000_000);

/// The served workflow, FINRA-12, Chiron's performance-first
/// NativeThread deployment of it, and the manager that deployed it.
pub fn deployed() -> (Chiron, Workflow, Deployment) {
    let chiron = Chiron::default();
    let wf = apps::finra(12);
    let deployment = chiron.deploy(&wf, None, PgpMode::NativeThread);
    (chiron, wf, deployment)
}

/// `requests` requests of steady [`RPS`] traffic from [`ARRIVALS`].
pub fn steady(requests: u64) -> Workload {
    Workload::steady(RPS, requests).with_arrivals(ARRIVALS)
}

/// Nodes `0..killed` crash-stopped at t = 60 s.
pub fn node_kills(killed: u32) -> FaultPlan {
    (0..killed).fold(FaultPlan::none(), |plan, node| {
        plan.kill_at(KILL_AT, NodeId(node))
    })
}

/// Requests over 1.2 s are bad (comfortably above the healthy tail,
/// including the Poisson bursts), at `objective` with the classic
/// 5 s / 60 s burn-rate window pair.
pub fn slo_policy(objective: f64) -> SloPolicy {
    SloPolicy {
        objective,
        ..SloPolicy::multi_window(SimDuration::from_millis(1_200))
    }
}

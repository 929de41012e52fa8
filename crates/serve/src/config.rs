//! Serving-plane configuration: routing architecture, traffic shape, and
//! the knobs shared by the router, autoscaler, and failure detector.

use chiron_deploy::{ClusterConfig, PlacementPolicy};
use chiron_lifecycle::LifecycleConfig;
use chiron_metrics::ArrivalProcess;
use chiron_model::{PlatformConfig, ReplicaConfig, SimDuration};
use chiron_obs::{RegimeConfig, SloPolicy};

use crate::autoscaler::AutoscalerConfig;

/// Request-scheduling architecture (§7's centralised-vs-decentralised
/// discussion, made operational).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// One cluster-wide FIFO behind a central gateway: every remote-wrap
    /// invocation detours through the scheduler (pays the centralised
    /// overhead of [`chiron_deploy::scheduling_architectures`]).
    CentralFifo,
    /// Archipelago-style partitioning: each node runs its own scheduler
    /// and queue; arrivals are sharded round-robin across nodes that host
    /// replicas, and wraps invoke each other directly (decentralised
    /// overhead).
    PartitionedByNode,
}

impl RouterPolicy {
    pub const ALL: [RouterPolicy; 2] = [RouterPolicy::CentralFifo, RouterPolicy::PartitionedByNode];

    pub fn name(self) -> &'static str {
        match self {
            RouterPolicy::CentralFifo => "central-fifo",
            RouterPolicy::PartitionedByNode => "partitioned",
        }
    }
}

/// One constant-rate segment of the offered load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficPhase {
    /// Mean arrival rate during this phase.
    pub rps: f64,
    /// Number of requests this phase contributes.
    pub requests: u64,
}

/// The open-loop request stream: phases played back to back, with gaps
/// drawn from the arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub phases: Vec<TrafficPhase>,
    pub arrivals: ArrivalProcess,
}

impl Workload {
    /// Constant-rate workload.
    pub fn steady(rps: f64, requests: u64) -> Self {
        Workload {
            phases: vec![TrafficPhase { rps, requests }],
            arrivals: ArrivalProcess::Uniform,
        }
    }

    /// A low-rate phase followed by a `factor`× step (the autoscaler
    /// stress scenario).
    pub fn step(base_rps: f64, factor: f64, base_requests: u64, step_requests: u64) -> Self {
        Workload {
            phases: vec![
                TrafficPhase {
                    rps: base_rps,
                    requests: base_requests,
                },
                TrafficPhase {
                    rps: base_rps * factor,
                    requests: step_requests,
                },
            ],
            arrivals: ArrivalProcess::Uniform,
        }
    }

    pub fn with_arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    pub fn total_requests(&self) -> u64 {
        self.phases.iter().map(|p| p.requests).sum()
    }
}

/// Full serving-plane configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Node count, per-node capacity, cross-node hop cost.
    pub cluster: ClusterConfig,
    /// Calibrated platform constants (cold start, RPC, billing, …).
    pub platform: PlatformConfig,
    /// How replicas' sandboxes are packed onto nodes.
    pub placement: PlacementPolicy,
    /// Request-scheduling architecture.
    pub router: RouterPolicy,
    /// Replica bounds and keepalive.
    pub replicas: ReplicaConfig,
    /// Scale-up/-down policy.
    pub autoscaler: AutoscalerConfig,
    /// Node-liveness probe period.
    pub heartbeat_interval: SimDuration,
    /// Consecutive missed heartbeats before a node is declared dead.
    pub heartbeat_miss_limit: u32,
    /// Relative half-width of the per-request service-time jitter
    /// (e.g. 0.05 → ±5%), drawn deterministically from the run seed.
    pub service_jitter: f64,
    /// Latency SLO and burn-rate alerting policy; `None` disables the
    /// monitor (and costs nothing on the completion path).
    pub slo: Option<SloPolicy>,
    /// Tiered sandbox-start pools (snapshot/restore, zygote fork).
    /// `None` cold-boots every scale-up.
    pub lifecycle: Option<LifecycleConfig>,
    /// Online regime-change sensor (Page–Hinkley/CUSUM over sojourn
    /// residuals), evaluated at event time on the completion path.
    /// `None` disables it (and costs nothing per completion).
    pub regime: Option<RegimeConfig>,
}

impl ServeConfig {
    /// Paper-testbed defaults: 8 × (40 CPU / 128 GB) nodes, calibrated
    /// costs, packed placement, central FIFO routing.
    pub fn paper_testbed() -> Self {
        ServeConfig {
            cluster: ClusterConfig::paper_testbed(),
            platform: PlatformConfig::paper_calibrated(),
            placement: PlacementPolicy::Pack,
            router: RouterPolicy::CentralFifo,
            replicas: ReplicaConfig::default(),
            autoscaler: AutoscalerConfig::default(),
            heartbeat_interval: SimDuration::from_millis(500),
            heartbeat_miss_limit: 3,
            service_jitter: 0.05,
            slo: None,
            lifecycle: None,
            regime: None,
        }
    }

    pub fn with_router(mut self, router: RouterPolicy) -> Self {
        self.router = router;
        self
    }

    pub fn with_replicas(mut self, replicas: ReplicaConfig) -> Self {
        self.replicas = replicas;
        self
    }

    pub fn with_slo(mut self, slo: SloPolicy) -> Self {
        self.slo = Some(slo);
        self
    }

    pub fn with_lifecycle(mut self, lifecycle: LifecycleConfig) -> Self {
        self.lifecycle = Some(lifecycle);
        self
    }

    pub fn with_regime(mut self, regime: RegimeConfig) -> Self {
        self.regime = Some(regime);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builders() {
        let w = Workload::steady(100.0, 1000);
        assert_eq!(w.total_requests(), 1000);
        let s = Workload::step(10.0, 10.0, 200, 800);
        assert_eq!(s.total_requests(), 1000);
        assert!((s.phases[1].rps - 100.0).abs() < 1e-9);
    }

    #[test]
    fn testbed_defaults() {
        let c = ServeConfig::paper_testbed();
        assert_eq!(c.cluster.nodes, 8);
        assert_eq!(c.heartbeat_miss_limit, 3);
        assert!(c.service_jitter < 0.5);
    }
}

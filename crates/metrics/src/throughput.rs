//! Maximum sustainable throughput on one worker node (Fig. 16).
//!
//! Given limited node resources, the number of concurrently resident
//! deployments is bounded by memory and by allocated CPUs; with a per-
//! request latency `L`, each resident deployment serves `1/L` requests per
//! second. This is the capacity analysis the paper's "maximum throughput
//! (req/s) in a worker node" reports.
//!
//! Concurrency is fractional: a deployment demanding more CPUs than the
//! node owns (Faastlane on FINRA-200 wants 200 of 40 cores) still runs,
//! time-sharing the cores, at proportionally reduced service rate.

use crate::resources::ResourceUsage;
use chiron_model::{CostModel, SimDuration};

/// Throughput analysis of one deployment on one worker node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputReport {
    /// Concurrent deployment instances the node can host (fractional when
    /// one instance already oversubscribes a resource).
    pub concurrency: f64,
    /// Which resource runs out first.
    pub bottleneck: Bottleneck,
    /// Sustainable requests per second.
    pub rps: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    Memory,
    Cpu,
}

/// Computes the node-level saturation throughput for a deployment with the
/// given per-request resource footprint and latency.
pub fn node_throughput(
    usage: ResourceUsage,
    latency: SimDuration,
    costs: &CostModel,
) -> ThroughputReport {
    assert!(usage.cpus > 0, "deployment must allocate at least one CPU");
    assert!(!latency.is_zero(), "latency must be positive");
    let by_memory = costs.node_memory_bytes as f64 / usage.memory_bytes.max(1) as f64;
    let by_cpu = f64::from(costs.node_cpus) / f64::from(usage.cpus);
    let (raw, bottleneck) = if by_memory <= by_cpu {
        (by_memory, Bottleneck::Memory)
    } else {
        (by_cpu, Bottleneck::Cpu)
    };
    // Whole instances when more than one fits; fractional (time-shared)
    // capacity when even a single instance oversubscribes the node.
    let concurrency = if raw >= 1.0 { raw.floor() } else { raw };
    let rps = concurrency / latency.as_secs_f64();
    ThroughputReport {
        concurrency,
        bottleneck,
        rps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_bound_deployment() {
        let costs = CostModel::paper_calibrated(); // 40 CPUs, 128 GB
        let usage = ResourceUsage {
            memory_bytes: 100 << 20,
            cpus: 10,
        };
        let report = node_throughput(usage, SimDuration::from_millis(100), &costs);
        assert_eq!(report.bottleneck, Bottleneck::Cpu);
        assert_eq!(report.concurrency, 4.0);
        assert!((report.rps - 40.0).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_deployment() {
        let costs = CostModel::paper_calibrated();
        let usage = ResourceUsage {
            memory_bytes: 64 << 30,
            cpus: 1,
        };
        let report = node_throughput(usage, SimDuration::from_millis(100), &costs);
        assert_eq!(report.bottleneck, Bottleneck::Memory);
        assert_eq!(report.concurrency, 2.0);
    }

    #[test]
    fn oversubscribed_deployment_time_shares() {
        // 200 CPUs demanded on a 40-core node: 0.2 of an instance.
        let costs = CostModel::paper_calibrated();
        let usage = ResourceUsage {
            memory_bytes: 100 << 20,
            cpus: 200,
        };
        let report = node_throughput(usage, SimDuration::from_millis(500), &costs);
        assert!((report.concurrency - 0.2).abs() < 1e-9);
        assert!(
            report.rps > 0.0,
            "oversubscription must not zero throughput"
        );
        assert!((report.rps - 0.4).abs() < 1e-9);
    }

    #[test]
    fn lower_latency_raises_throughput() {
        let costs = CostModel::paper_calibrated();
        let usage = ResourceUsage {
            memory_bytes: 100 << 20,
            cpus: 2,
        };
        let slow = node_throughput(usage, SimDuration::from_millis(200), &costs);
        let fast = node_throughput(usage, SimDuration::from_millis(50), &costs);
        assert!(fast.rps > slow.rps * 3.9);
    }

    #[test]
    #[should_panic(expected = "latency must be positive")]
    fn zero_latency_rejected() {
        let costs = CostModel::paper_calibrated();
        let usage = ResourceUsage {
            memory_bytes: 1 << 20,
            cpus: 1,
        };
        node_throughput(usage, SimDuration::ZERO, &costs);
    }
}

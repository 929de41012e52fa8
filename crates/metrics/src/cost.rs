//! Dollar-cost accounting (§6.3, Fig. 19).
//!
//! Cost per request = allocated-memory GB-seconds + allocated-CPU
//! GHz-seconds over the request's lifetime, plus — for ASF only — a fee per
//! workflow state transition. The paper reports cost per one million
//! requests, normalised by Chiron.

use crate::resources::ResourceUsage;
use chiron_model::{BillingModel, SimDuration, SystemKind};

/// Dollar cost of serving requests with one deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostReport {
    pub usd_per_request: f64,
    pub usd_per_million: f64,
}

/// Computes the per-request and per-million-request dollar cost.
///
/// `state_transitions` is the number of billed workflow state transitions
/// per request (the function count for one-to-one orchestration services;
/// zero elsewhere).
pub fn request_cost(
    system: SystemKind,
    usage: ResourceUsage,
    latency: SimDuration,
    cpu_ghz: f64,
    billing: &BillingModel,
    state_transitions: u32,
) -> CostReport {
    let secs = latency.as_secs_f64();
    let gb = usage.memory_bytes as f64 / (1024.0 * 1024.0 * 1024.0);
    let mut usd = gb * secs * billing.usd_per_gb_second
        + f64::from(usage.cpus) * cpu_ghz * secs * billing.usd_per_ghz_second;
    if system == SystemKind::Asf {
        usd += f64::from(state_transitions) * billing.usd_per_state_transition;
    }
    CostReport {
        usd_per_request: usd,
        usd_per_million: usd * 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage() -> ResourceUsage {
        ResourceUsage {
            memory_bytes: 1 << 30,
            cpus: 2,
        }
    }

    #[test]
    fn compute_cost_without_transitions() {
        let billing = BillingModel::paper_calibrated();
        let report = request_cost(
            SystemKind::Chiron,
            usage(),
            SimDuration::from_secs(1),
            2.0,
            &billing,
            10,
        );
        // 1 GB-s × 2.5e-6 + 2 CPUs × 2 GHz × 1 s × 1e-5 = 2.5e-6 + 4e-5.
        let expected = 2.5e-6 + 4.0e-5;
        assert!((report.usd_per_request - expected).abs() < 1e-12);
        assert!((report.usd_per_million - expected * 1e6).abs() < 1e-3);
    }

    #[test]
    fn asf_pays_state_transitions() {
        let billing = BillingModel::paper_calibrated();
        let base = request_cost(
            SystemKind::Chiron,
            usage(),
            SimDuration::from_millis(100),
            2.1,
            &billing,
            10,
        );
        let asf = request_cost(
            SystemKind::Asf,
            usage(),
            SimDuration::from_millis(100),
            2.1,
            &billing,
            10,
        );
        let delta = asf.usd_per_request - base.usd_per_request;
        assert!((delta - 10.0 * billing.usd_per_state_transition).abs() < 1e-12);
        // State transitions dominate for short requests — the source of the
        // paper's up-to-272× one-to-one cost blowup.
        assert!(asf.usd_per_request > 5.0 * base.usd_per_request);
    }

    #[test]
    fn zero_latency_zero_resource_cost() {
        let billing = BillingModel::paper_calibrated();
        let report = request_cost(
            SystemKind::Faastlane,
            usage(),
            SimDuration::ZERO,
            2.1,
            &billing,
            0,
        );
        assert_eq!(report.usd_per_request, 0.0);
    }
}

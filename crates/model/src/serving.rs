//! Replica and keepalive configuration for online serving.
//!
//! A *replica* is one placed copy of a deployment's full wrap set; the
//! serving control plane (`chiron-serve`) scales the replica count with
//! load. These types live in the shared model so planners, the cluster
//! substrate, and the serving simulator agree on the vocabulary.

use crate::time::SimDuration;

/// Identifier of one replica of a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId(pub u32);

impl std::fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replica{}", self.0)
    }
}

/// Replica-count bounds and warm-capacity policy for one deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaConfig {
    /// Floor the autoscaler never goes below.
    pub min_replicas: u32,
    /// Ceiling the autoscaler never exceeds (cluster capacity may bind
    /// earlier).
    pub max_replicas: u32,
    /// How long an idle replica is kept warm before it is retired and its
    /// resources returned to the cluster. While kept alive, a replica
    /// serves new requests with zero start-up cost.
    pub keepalive: SimDuration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            min_replicas: 1,
            max_replicas: 64,
            // FaaS platforms commonly keep sandboxes warm for minutes;
            // 10 min matches the keepalive the paper's testbed platforms
            // (OpenFaaS-class) default to.
            keepalive: SimDuration::from_secs(600),
        }
    }
}

impl ReplicaConfig {
    pub fn with_keepalive(mut self, keepalive: SimDuration) -> Self {
        self.keepalive = keepalive;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ReplicaConfig::default();
        assert!(c.min_replicas >= 1);
        assert!(c.max_replicas >= c.min_replicas);
        assert!(!c.keepalive.is_zero());
    }

    #[test]
    fn builders_compose() {
        let c = ReplicaConfig::default().with_keepalive(SimDuration::from_secs(30));
        assert_eq!(c.keepalive, SimDuration::from_secs(30));
    }
}

//! Fault injection: crash-stop node kills detected via missed heartbeats.

use chiron_deploy::NodeId;
use chiron_model::SimTime;

/// Scripted failures for one serving run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(time, node)` crash-stop kills; each node dies at most once.
    pub node_kills: Vec<(SimTime, NodeId)>,
}

impl FaultPlan {
    pub fn none() -> Self {
        Self::default()
    }

    pub fn kill_at(mut self, at: SimTime, node: NodeId) -> Self {
        assert!(
            self.node_kills.iter().all(|&(_, n)| n != node),
            "{node:?} already scheduled to die"
        );
        self.node_kills.push((at, node));
        self
    }

    pub fn is_empty(&self) -> bool {
        self.node_kills.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_kills() {
        let plan = FaultPlan::none()
            .kill_at(SimTime::from_nanos(5), NodeId(2))
            .kill_at(SimTime::from_nanos(9), NodeId(0));
        assert_eq!(plan.node_kills.len(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    #[should_panic(expected = "already scheduled")]
    fn double_kill_rejected() {
        let _ = FaultPlan::none()
            .kill_at(SimTime::from_nanos(1), NodeId(1))
            .kill_at(SimTime::from_nanos(2), NodeId(1));
    }
}

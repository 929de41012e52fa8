//! Multi-node placement of wraps — the cluster dimension of §7.
//!
//! The paper evaluates on an 8-node cluster (Table 2) but schedules wraps
//! centrally; §7 notes that with many wraps "the current centralized
//! scheduling architecture of Chiron can lead to high real-time request
//! scheduling overhead" and that decentralised scheduling is the remedy.
//! This module supplies the placement substrate: bin-packing a plan's
//! sandboxes onto worker nodes under CPU/memory capacity, pack-vs-spread
//! policies, per-node utilisation, cluster-level throughput, and the
//! centralised-vs-decentralised invocation-overhead comparison.

use chiron_metrics::plan_resources;
use chiron_model::{CostModel, DeploymentPlan, SandboxId, SimDuration, Workflow};

/// Identifier of a worker node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// A homogeneous cluster of worker nodes (Table 2's testbed shape).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    pub nodes: u32,
    /// Per-node capacity (CPU count / DRAM come from the cost model).
    pub node: CostModel,
    /// Extra latency of a wrap-to-wrap invocation that crosses nodes,
    /// beyond the intra-node `T_RPC`.
    pub cross_node_extra: SimDuration,
}

impl ClusterConfig {
    /// The paper's testbed: 8 nodes, 40 CPUs / 128 GB each, 10 Gbps
    /// full-bisection Ethernet (≈0.5 ms extra per cross-node hop).
    pub fn paper_testbed() -> Self {
        ClusterConfig {
            nodes: 8,
            node: CostModel::paper_calibrated(),
            cross_node_extra: SimDuration::from_millis_f64(0.5),
        }
    }
}

/// How sandboxes are assigned to nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// First-fit onto the fewest nodes (locality: cheap wrap-to-wrap RPC).
    Pack,
    /// Round-robin across all nodes (balance: headroom per node).
    Spread,
}

/// A placement of one deployment's sandboxes.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    pub assignments: Vec<(SandboxId, NodeId)>,
}

/// Placement failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// A single sandbox exceeds a node's CPU or memory capacity.
    SandboxTooLarge(SandboxId),
    /// The cluster cannot hold all sandboxes.
    ClusterFull,
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::SandboxTooLarge(id) => {
                write!(f, "{id} exceeds single-node capacity")
            }
            PlacementError::ClusterFull => write!(f, "cluster capacity exhausted"),
        }
    }
}

impl std::error::Error for PlacementError {}

impl Placement {
    pub fn node_of(&self, sandbox: SandboxId) -> Option<NodeId> {
        self.assignments
            .iter()
            .find(|(s, _)| *s == sandbox)
            .map(|&(_, n)| n)
    }
}

/// Resource demand of one sandbox (its share of the plan's footprint).
fn sandbox_demand(
    plan: &DeploymentPlan,
    workflow: &Workflow,
    costs: &CostModel,
    sandbox: SandboxId,
) -> (u32, u64) {
    // Build a single-sandbox sub-plan view: cpus from the sandbox plan,
    // memory via the per-sandbox accounting of `plan_resources` applied to
    // a filtered plan.
    let sb = plan.sandbox(sandbox).expect("sandbox exists");
    let filtered = DeploymentPlan {
        sandboxes: vec![*sb],
        stages: plan
            .stages
            .iter()
            .map(|s| chiron_model::StagePlan {
                wraps: s
                    .wraps
                    .iter()
                    .filter(|w| w.sandbox == sandbox)
                    .cloned()
                    .collect(),
            })
            .filter(|s| !s.wraps.is_empty())
            .collect(),
        ..plan.clone()
    };
    if filtered.stages.is_empty() {
        return (sb.cpus, costs.sandbox_base_bytes);
    }
    let usage = plan_resources(&filtered, workflow, costs);
    (sb.cpus, usage.memory_bytes)
}

/// Live cluster bookkeeping for replica placement. The serving control
/// plane adds and retires whole replicas (full copies of a plan's sandbox
/// set) over time and marks nodes failed; capacity accounting here is the
/// single source of truth. A one-shot placement is the first replica on a
/// fresh state.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterState {
    config: ClusterConfig,
    free_cpu: Vec<u32>,
    free_mem: Vec<u64>,
    failed: Vec<bool>,
    rr_cursor: usize,
}

impl ClusterState {
    pub fn new(config: ClusterConfig) -> Self {
        let n = config.nodes as usize;
        ClusterState {
            free_cpu: vec![config.node.node_cpus; n],
            free_mem: vec![config.node.node_memory_bytes; n],
            failed: vec![false; n],
            rr_cursor: 0,
            config,
        }
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    pub fn is_failed(&self, node: NodeId) -> bool {
        self.failed[node.0 as usize]
    }

    /// Places one replica — a full copy of the plan's sandbox set — onto
    /// live nodes with capacity, honouring the policy (Pack: first fit on
    /// the fewest nodes; Spread: round-robin continuing from the previous
    /// placement). Capacity is debited on success and untouched on error.
    pub fn place_replica(
        &mut self,
        plan: &DeploymentPlan,
        workflow: &Workflow,
        policy: PlacementPolicy,
    ) -> Result<Placement, PlacementError> {
        let n = self.config.nodes as usize;
        let mut free_cpu = self.free_cpu.clone();
        let mut free_mem = self.free_mem.clone();
        let mut rr_cursor = self.rr_cursor;
        let mut assignments = Vec::with_capacity(plan.sandbox_count());
        for sb in &plan.sandboxes {
            let (cpus, mem) = sandbox_demand(plan, workflow, &self.config.node, sb.id);
            if cpus > self.config.node.node_cpus || mem > self.config.node.node_memory_bytes {
                return Err(PlacementError::SandboxTooLarge(sb.id));
            }
            let order: Vec<usize> = match policy {
                PlacementPolicy::Pack => (0..n).collect(),
                PlacementPolicy::Spread => (0..n).map(|i| (rr_cursor + i) % n).collect(),
            };
            let slot = order
                .into_iter()
                .find(|&i| !self.failed[i] && free_cpu[i] >= cpus && free_mem[i] >= mem)
                .ok_or(PlacementError::ClusterFull)?;
            free_cpu[slot] -= cpus;
            free_mem[slot] -= mem;
            assignments.push((sb.id, NodeId(slot as u32)));
            rr_cursor = (slot + 1) % n;
        }
        self.free_cpu = free_cpu;
        self.free_mem = free_mem;
        self.rr_cursor = rr_cursor;
        Ok(Placement { assignments })
    }

    /// Returns a replica's resources to the cluster. Capacity on failed
    /// nodes is not refunded (the node is gone with everything on it).
    pub fn remove_replica(
        &mut self,
        plan: &DeploymentPlan,
        workflow: &Workflow,
        placement: &Placement,
    ) {
        for &(sandbox, node) in &placement.assignments {
            let i = node.0 as usize;
            if self.failed[i] {
                continue;
            }
            let (cpus, mem) = sandbox_demand(plan, workflow, &self.config.node, sandbox);
            self.free_cpu[i] = (self.free_cpu[i] + cpus).min(self.config.node.node_cpus);
            self.free_mem[i] = (self.free_mem[i] + mem).min(self.config.node.node_memory_bytes);
        }
    }

    /// Marks a node failed: it stops accepting placements and its capacity
    /// is written off. Idempotent; node ids outside the cluster are ignored
    /// (there is nothing there to kill).
    pub fn fail_node(&mut self, node: NodeId) {
        let i = node.0 as usize;
        if i >= self.failed.len() {
            return;
        }
        self.failed[i] = true;
        self.free_cpu[i] = 0;
        self.free_mem[i] = 0;
    }
}

/// Extra per-request invocation latency this placement adds: each stage's
/// remote wraps that land on a different node than the stage's primary
/// wrap pay `cross_node_extra` on invocation and return.
pub fn placement_overhead(
    plan: &DeploymentPlan,
    placement: &Placement,
    cluster: &ClusterConfig,
) -> SimDuration {
    let mut extra = SimDuration::ZERO;
    for stage in &plan.stages {
        let primary = placement
            .node_of(stage.wraps[0].sandbox)
            .expect("placed plan");
        let mut worst = SimDuration::ZERO;
        for wrap in stage.wraps.iter().skip(1) {
            if placement.node_of(wrap.sandbox) != Some(primary) {
                worst = cluster.cross_node_extra * 2; // invoke + return
            }
        }
        extra += worst;
    }
    extra
}

/// Centralised vs decentralised request scheduling (§7): a centralised
/// scheduler interposes one extra gateway round trip per stage handled by
/// a remote wrap; decentralised scheduling lets wraps invoke each other
/// directly. Returns `(centralised, decentralised)` per-request overheads.
pub fn scheduling_architectures(
    plan: &DeploymentPlan,
    costs: &CostModel,
) -> (SimDuration, SimDuration) {
    let mut central = SimDuration::ZERO;
    let mut decentral = SimDuration::ZERO;
    for stage in &plan.stages {
        let remote_wraps = stage.wraps.len().saturating_sub(1) as u64;
        if remote_wraps > 0 {
            // Central: every remote invocation detours through the
            // scheduler (one extra T_RPC each, serialised issuance).
            central += (costs.rpc + costs.inv) * remote_wraps;
            // Decentralised: wrap 1 invokes peers directly.
            decentral += costs.inv * remote_wraps;
        }
    }
    (central, decentral)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planners;
    use chiron_model::apps;

    fn place(
        plan: &DeploymentPlan,
        workflow: &Workflow,
        cluster: &ClusterConfig,
        policy: PlacementPolicy,
    ) -> Result<Placement, PlacementError> {
        ClusterState::new(cluster.clone()).place_replica(plan, workflow, policy)
    }

    fn nodes_used(placement: &Placement) -> usize {
        let mut nodes: Vec<NodeId> = placement.assignments.iter().map(|&(_, n)| n).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }

    #[test]
    fn pack_uses_fewest_nodes() {
        let wf = apps::finra(12);
        let plan = planners::faastlane_plus(&wf); // 3 sandboxes × 5 CPUs
        let cluster = ClusterConfig::paper_testbed();
        let packed = place(&plan, &wf, &cluster, PlacementPolicy::Pack).unwrap();
        assert_eq!(nodes_used(&packed), 1, "15 CPUs fit one 40-CPU node");
        let spread = place(&plan, &wf, &cluster, PlacementPolicy::Spread).unwrap();
        assert_eq!(nodes_used(&spread), 3);
    }

    #[test]
    fn capacity_is_respected() {
        let wf = apps::finra(200);
        let plan = planners::faastlane_plus(&wf); // 40 sandboxes × 5 CPUs
        let cluster = ClusterConfig::paper_testbed();
        let placed = place(&plan, &wf, &cluster, PlacementPolicy::Pack).unwrap();
        // 200 CPUs over 40-CPU nodes: at least 5 nodes.
        assert!(nodes_used(&placed) >= 5);
        // No node oversubscribed: recompute usage.
        let mut used = std::collections::HashMap::new();
        for (sb, node) in &placed.assignments {
            *used.entry(*node).or_insert(0u32) += plan.sandbox(*sb).unwrap().cpus;
        }
        for (&node, &cpus) in &used {
            assert!(cpus <= 40, "{node:?} has {cpus} CPUs");
        }
    }

    #[test]
    fn oversized_sandbox_rejected() {
        let wf = apps::finra(50);
        let mut plan = planners::faastlane(&wf);
        plan.sandboxes[0].cpus = 64; // exceeds a 40-CPU node
        let cluster = ClusterConfig::paper_testbed();
        assert_eq!(
            place(&plan, &wf, &cluster, PlacementPolicy::Pack).unwrap_err(),
            PlacementError::SandboxTooLarge(plan.sandboxes[0].id)
        );
    }

    #[test]
    fn cluster_full_detected() {
        let wf = apps::finra(200);
        let plan = planners::faastlane_plus(&wf); // 200 CPUs demanded
        let tiny = ClusterConfig {
            nodes: 2,
            ..ClusterConfig::paper_testbed()
        };
        assert_eq!(
            place(&plan, &wf, &tiny, PlacementPolicy::Pack).unwrap_err(),
            PlacementError::ClusterFull
        );
    }

    #[test]
    fn packed_placement_avoids_cross_node_overhead() {
        let wf = apps::finra(12);
        let plan = planners::faastlane_plus(&wf);
        let cluster = ClusterConfig::paper_testbed();
        let packed = place(&plan, &wf, &cluster, PlacementPolicy::Pack).unwrap();
        let spread = place(&plan, &wf, &cluster, PlacementPolicy::Spread).unwrap();
        let packed_extra = placement_overhead(&plan, &packed, &cluster);
        let spread_extra = placement_overhead(&plan, &spread, &cluster);
        assert_eq!(packed_extra, SimDuration::ZERO);
        assert!(spread_extra > SimDuration::ZERO);
    }

    #[test]
    fn decentralised_scheduling_is_cheaper() {
        let wf = apps::finra(50);
        let profile = chiron_profiler::Profiler::default().profile_workflow(&wf);
        let out = planners::chiron_m(&wf, &profile, None);
        let costs = CostModel::paper_calibrated();
        let (central, decentral) = scheduling_architectures(&out.plan, &costs);
        if out.plan.stages.iter().any(|s| s.wraps.len() > 1) {
            assert!(decentral < central);
        } else {
            assert_eq!(central, decentral);
        }
    }

    #[test]
    fn cluster_state_add_remove_roundtrip() {
        let wf = apps::finra(12);
        let plan = planners::faastlane_plus(&wf); // 3 sandboxes × 5 CPUs
        let mut state = ClusterState::new(ClusterConfig::paper_testbed());
        let p1 = state
            .place_replica(&plan, &wf, PlacementPolicy::Pack)
            .unwrap();
        let p2 = state
            .place_replica(&plan, &wf, PlacementPolicy::Pack)
            .unwrap();
        assert_eq!(state.free_cpu.iter().sum::<u32>(), 8 * 40 - 2 * 15);
        state.remove_replica(&plan, &wf, &p2);
        state.remove_replica(&plan, &wf, &p1);
        // Full removal restores capacity exactly.
        assert_eq!(state.free_cpu, vec![40; 8]);
        assert_eq!(
            state.free_mem,
            vec![
                128 << 30,
                128 << 30,
                128 << 30,
                128 << 30,
                128 << 30,
                128 << 30,
                128 << 30,
                128 << 30
            ]
        );
    }

    #[test]
    fn failed_nodes_are_avoided_and_capacity_written_off() {
        let wf = apps::finra(12);
        let plan = planners::faastlane_plus(&wf);
        let mut state = ClusterState::new(ClusterConfig::paper_testbed());
        state.fail_node(NodeId(0));
        assert!(state.is_failed(NodeId(0)));
        let placed = state
            .place_replica(&plan, &wf, PlacementPolicy::Pack)
            .unwrap();
        assert!(placed.assignments.iter().all(|&(_, n)| n != NodeId(0)));
        // Removing a replica that straddled a failed node must not refund
        // the dead node's share.
        state.remove_replica(&plan, &wf, &placed);
        assert_eq!(state.free_cpu[0], 0);
    }

    #[test]
    fn exhaustion_reports_cluster_full() {
        let wf = apps::finra(12);
        let plan = planners::faastlane_plus(&wf); // 15 CPUs per replica
        let mut state = ClusterState::new(ClusterConfig {
            nodes: 1,
            ..ClusterConfig::paper_testbed()
        });
        // One 40-CPU node holds two 15-CPU replicas, not three.
        assert!(state
            .place_replica(&plan, &wf, PlacementPolicy::Pack)
            .is_ok());
        assert!(state
            .place_replica(&plan, &wf, PlacementPolicy::Pack)
            .is_ok());
        assert_eq!(
            state
                .place_replica(&plan, &wf, PlacementPolicy::Pack)
                .unwrap_err(),
            PlacementError::ClusterFull
        );
    }

    #[test]
    fn single_sandbox_plan_places_trivially() {
        let wf = apps::finra(5);
        let plan = planners::faastlane(&wf);
        let cluster = ClusterConfig::paper_testbed();
        let placed = place(&plan, &wf, &cluster, PlacementPolicy::Spread).unwrap();
        assert_eq!(placed.assignments.len(), 1);
        assert_eq!(
            placement_overhead(&plan, &placed, &cluster),
            SimDuration::ZERO
        );
    }
}

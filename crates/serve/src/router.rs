//! Run-queue state for both routing architectures.
//!
//! The router owns only queues and the shard cursor; replica state lives
//! in the simulator. `CentralFifo` keeps one cluster-wide queue;
//! `PartitionedByNode` keeps one queue per node plus an overflow queue for
//! the (transient) case where no node hosts a replica.

use crate::config::RouterPolicy;
use chiron_obs::StaticCounter;
use std::collections::VecDeque;

/// Requests a partitioned replica drained from another node's orphaned
/// queue (a shard whose last replica died).
static STEALS: StaticCounter = StaticCounter::new("serve.router.steals");

#[derive(Debug, Clone)]
pub struct Router {
    policy: RouterPolicy,
    global: VecDeque<u64>,
    per_node: Vec<VecDeque<u64>>,
    overflow: VecDeque<u64>,
    rr: usize,
    /// Total queued requests across every shard, maintained on each
    /// push/pop so the hot path (`kick` early-exit, autoscaler ticks)
    /// never sums the per-node queues.
    len: usize,
}

/// Where a queued request was put (so re-queues can go back to the same
/// place's front).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shard {
    Global,
    Node(usize),
    Overflow,
}

impl Router {
    pub fn new(policy: RouterPolicy, nodes: usize) -> Self {
        Router {
            policy,
            global: VecDeque::new(),
            per_node: (0..nodes).map(|_| VecDeque::new()).collect(),
            overflow: VecDeque::new(),
            rr: 0,
            len: 0,
        }
    }

    pub fn policy(&self) -> RouterPolicy {
        self.policy
    }

    /// Picks the shard an arriving request belongs to. `hosts` is the
    /// ascending list of node indices currently hosting at least one
    /// usable replica (ignored by the central router).
    pub fn choose_shard(&mut self, hosts: &[usize]) -> Shard {
        match self.policy {
            RouterPolicy::CentralFifo => Shard::Global,
            RouterPolicy::PartitionedByNode => {
                if hosts.is_empty() {
                    return Shard::Overflow;
                }
                let pick = hosts[self.rr % hosts.len()];
                self.rr += 1;
                Shard::Node(pick)
            }
        }
    }

    pub fn push_back(&mut self, shard: Shard, request: u64) {
        self.len += 1;
        self.queue_mut(shard).push_back(request);
    }

    /// Re-queues a request at the front (failure recovery keeps FIFO order
    /// for work that was already dispatched once).
    pub fn push_front(&mut self, shard: Shard, request: u64) {
        self.len += 1;
        self.queue_mut(shard).push_front(request);
    }

    fn queue_mut(&mut self, shard: Shard) -> &mut VecDeque<u64> {
        match shard {
            Shard::Global => &mut self.global,
            Shard::Node(i) => &mut self.per_node[i],
            Shard::Overflow => &mut self.overflow,
        }
    }

    /// Next request for a replica living on `node`. Partitioned replicas
    /// drain their own node's queue, then the overflow queue, then —
    /// so no shard starves after its last replica dies — the lowest-index
    /// *orphan* queue (a node with work but no usable replica, per
    /// `node_has_replica`).
    pub fn next_for(&mut self, node: usize, node_has_replica: &[bool]) -> Option<u64> {
        let picked = match self.policy {
            RouterPolicy::CentralFifo => self.global.pop_front(),
            RouterPolicy::PartitionedByNode => 'pick: {
                if let Some(req) = self.per_node[node].pop_front() {
                    break 'pick Some(req);
                }
                if let Some(req) = self.overflow.pop_front() {
                    break 'pick Some(req);
                }
                let mut stolen = None;
                for (i, queue) in self.per_node.iter_mut().enumerate() {
                    if !node_has_replica[i] {
                        if let Some(req) = queue.pop_front() {
                            STEALS.incr();
                            stolen = Some(req);
                            break;
                        }
                    }
                }
                stolen
            }
        };
        if picked.is_some() {
            self.len -= 1;
        }
        picked
    }

    /// Removes and returns the most recently queued request — the one
    /// spillover sheds first, since it has waited the least and loses the
    /// least already-paid queueing time by moving clusters. Partitioned
    /// routers shed from their deepest queue (ties: overflow first, then
    /// the lowest node index), which is both deterministic and the shard
    /// the backlog actually sits on.
    pub fn pop_newest(&mut self) -> Option<u64> {
        let popped = match self.policy {
            RouterPolicy::CentralFifo => self.global.pop_back(),
            RouterPolicy::PartitionedByNode => {
                let mut deepest: Option<&mut VecDeque<u64>> = None;
                for q in std::iter::once(&mut self.overflow).chain(self.per_node.iter_mut()) {
                    let depth = q.len();
                    if depth > 0 && deepest.as_ref().map_or(0, |d| d.len()) < depth {
                        deepest = Some(q);
                    }
                }
                deepest.and_then(VecDeque::pop_back)
            }
        };
        if popped.is_some() {
            self.len -= 1;
        }
        popped
    }

    /// Empties a dead node's queue (its requests get re-sharded), appending
    /// into a caller-owned buffer so the failure-recovery path can reuse
    /// its scratch allocation.
    pub fn drain_node_into(&mut self, node: usize, out: &mut Vec<u64>) {
        self.len -= self.per_node[node].len();
        out.extend(self.per_node[node].drain(..));
    }

    pub fn queued(&self) -> usize {
        self.len
    }

    pub fn queued_on(&self, node: usize) -> usize {
        self.per_node[node].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn central_is_one_fifo() {
        let mut r = Router::new(RouterPolicy::CentralFifo, 4);
        let s = r.choose_shard(&[]);
        assert_eq!(s, Shard::Global);
        r.push_back(s, 1);
        r.push_back(s, 2);
        r.push_front(s, 0);
        assert_eq!(r.queued(), 3);
        assert_eq!(r.next_for(3, &[true; 4]), Some(0));
        assert_eq!(r.next_for(0, &[true; 4]), Some(1));
        assert_eq!(r.next_for(1, &[true; 4]), Some(2));
        assert_eq!(r.next_for(1, &[true; 4]), None);
    }

    #[test]
    fn partitioned_rotates_over_hosts() {
        let mut r = Router::new(RouterPolicy::PartitionedByNode, 4);
        let hosts = [1usize, 3];
        for req in 0..4u64 {
            let s = r.choose_shard(&hosts);
            r.push_back(s, req);
        }
        assert_eq!(r.queued_on(1), 2);
        assert_eq!(r.queued_on(3), 2);
        assert_eq!(r.queued_on(0), 0);
        // A replica on node 1 drains its own queue first.
        let has = [false, true, false, true];
        assert_eq!(r.next_for(1, &has), Some(0));
        assert_eq!(r.next_for(1, &has), Some(2));
    }

    #[test]
    fn orphan_queues_are_stolen() {
        let mut r = Router::new(RouterPolicy::PartitionedByNode, 3);
        r.push_back(Shard::Node(2), 9);
        // Node 2 lost its replicas; a node-0 replica steals the work.
        let has = [true, false, false];
        assert_eq!(r.next_for(0, &has), Some(9));
    }

    #[test]
    fn overflow_when_no_hosts() {
        let mut r = Router::new(RouterPolicy::PartitionedByNode, 2);
        let s = r.choose_shard(&[]);
        assert_eq!(s, Shard::Overflow);
        r.push_back(s, 7);
        assert_eq!(r.next_for(1, &[false, false]), Some(7));
    }

    #[test]
    fn drain_dead_node() {
        let mut r = Router::new(RouterPolicy::PartitionedByNode, 2);
        r.push_back(Shard::Node(0), 1);
        r.push_back(Shard::Node(0), 2);
        let mut out = vec![9];
        r.drain_node_into(0, &mut out);
        assert_eq!(out, vec![9, 1, 2]);
        assert_eq!(r.queued(), 0);
    }
}

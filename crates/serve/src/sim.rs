//! The event-driven serving simulator: open-loop arrivals → router →
//! replicas, with reactive autoscaling and heartbeat-based failure
//! recovery. Deterministic for a given (workload, seed) pair.
//!
//! ## Model
//!
//! A *replica* is one placed copy of the deployment plan (every sandbox,
//! on concrete nodes) serving one request at a time. Its service time is
//! the warm single-request latency of the plan under the virtual platform,
//! plus the placement's cross-node overhead and the routing architecture's
//! scheduling overhead ([`chiron_deploy::scheduling_architectures`]),
//! jittered per request by `ServeConfig::service_jitter`.
//!
//! Replicas spawned by the autoscaler pay the 167 ms sandbox cold start;
//! the `min_replicas` baseline is provisioned at deployment time, off the
//! serving path. With `ServeConfig::lifecycle` set, scale-ups climb the
//! tiered start ladder of `chiron-lifecycle` instead: they acquire from
//! the cheapest pooled tier (snapshot restore, zygote fork) and fall
//! through to the cold boot, pool slot builds ride the autoscaler tick,
//! and the pools' standing rent lands on the bill next to replica
//! capacity.
//!
//! Node kills are crash-stop: completions from a failed node are lost,
//! and the control plane only learns of the failure after
//! `heartbeat_miss_limit` missed heartbeats — then it writes off the
//! node's replicas, re-queues their in-flight requests (at the queue
//! front, preserving arrival order), re-shards the dead node's queue, and
//! spawns replacements. Accepted requests are therefore never dropped,
//! only delayed, unless the whole cluster is gone.
//!
//! ## Hot path
//!
//! The per-event cost is what bounds fleet-scale throughput, so the loop
//! keeps all the state it consults per event incremental: usable-replica
//! and idle-replica counts, the per-node usable map, and the router's
//! total queue depth are maintained at each (rare) state transition
//! instead of being rescanned per arrival/completion, and the global
//! sojourn metric is batched locally and folded into the registry once
//! per run. The per-request work around that state is kept just as
//! cheap:
//!
//! - the event queue is a sorted ring filled from the back
//!   ([`EventQueue`]), since a completion almost always lands at or near
//!   the latest pending event;
//! - arrival gaps come from unit exponentials drawn 64 at a time
//!   ([`ArrivalGen`]) and scaled by the rate when used;
//! - the SLO monitor's two windows are cursors over one completion log
//!   ([`BurnRateMonitor`]), left stale while neither holds a bad sample;
//! - a traced run pushes each event straight into a buffer it holds for
//!   its lifetime: the caller's capture for a standalone run, its own
//!   for a fleet cluster.
//!
//! Memory is the other bound. A standalone run returns its full request
//! log, but a fleet cluster serves millions of requests whose records
//! only its digest reads, so it streams them: after each epoch it feeds
//! the log's final prefix into its `RecordDigest` (one multiply per
//! record word, the value a full log's `ServeReport::digest` gives) and
//! drops it, and re-queue counts are kept as a counter rather than
//! scanned from the log. Sojourn histograms store only the bucket pages
//! that hold a sample.
//!
//! ## Fleet mode
//!
//! [`crate::fleet`] runs many of these simulations — one per cluster —
//! under an epoch-barrier federation driver. In fleet mode a `Run` is
//! advanced epoch by epoch (`Run::advance_until`), draws arrivals at a
//! per-epoch rate the federation router gossips to it, can shed its
//! newest queued requests to peers (`Run::spill_excess`) and absorb
//! theirs (`Run::inject_forwarded`). Trace ids get per-cluster bases so
//! one capture holds a fleet's worth of causally-correct traces.

use crate::autoscaler::Autoscaler;
use crate::config::{RouterPolicy, ServeConfig, Workload};
use crate::events::{Event, EventKind, EventQueue};
use crate::faults::FaultPlan;
use crate::report::{PhaseSummary, RecordDigest, RequestRecord, ServeReport};
use crate::router::{Router, Shard};
use chiron_deploy::{
    placement_overhead, scheduling_architectures, ClusterState, NodeId, Placement, PlacementError,
};
use chiron_lifecycle::{PoolAction, PrewarmPools, StartTier, TierTable};
use chiron_metrics::{plan_resources, ArrivalGen, FastRng, StreamingHistogram};
use chiron_model::{DeploymentPlan, PlanError, SimDuration, SimTime, Workflow};
use chiron_obs::{
    BurnRateMonitor, RegimeDetector, StaticCounter, StaticGauge, StaticHistogram, Trace,
    TraceEvent, TraceEventKind,
};
use chiron_runtime::{des_windows, VirtualPlatform};
use std::collections::VecDeque;

/// Highest queue depth any autoscaler tick observed.
static QUEUE_DEPTH_PEAK: StaticGauge = StaticGauge::new("serve.autoscaler.queue_depth_peak");
/// Sum of per-tick queue depths (mean = sum / ticks).
static QUEUE_DEPTH_SUM: StaticCounter = StaticCounter::new("serve.autoscaler.queue_depth_sum");
static AUTOSCALER_TICKS: StaticCounter = StaticCounter::new("serve.autoscaler.ticks");
/// In-flight requests re-queued by failure recovery.
static REQUEUES: StaticCounter = StaticCounter::new("serve.failures.requeues");
/// Completed-request sojourn distribution, across every run this process
/// executed since the last `chiron_obs::reset_metrics()`. Batched: each
/// run folds its local histogram in once at report time.
static SOJOURNS: StaticHistogram = StaticHistogram::new("serve.sojourn");

/// Trace encoding of a queue shard (see [`TraceEventKind::Enqueue`]).
fn shard_code(shard: Shard) -> i64 {
    match shard {
        Shard::Global => -1,
        Shard::Overflow => -2,
        Shard::Node(i) => i as i64,
    }
}

/// Why a serving run could not start.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The deployment plan is invalid for the workflow.
    Plan(PlanError),
    /// The baseline `min_replicas` do not fit the cluster.
    Placement(PlacementError),
    /// The fleet configuration or workload is unusable.
    Fleet(&'static str),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Plan(e) => write!(f, "invalid plan: {e}"),
            ServeError::Placement(e) => write!(f, "baseline placement failed: {e}"),
            ServeError::Fleet(why) => write!(f, "invalid fleet: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<PlanError> for ServeError {
    fn from(e: PlanError) -> Self {
        ServeError::Plan(e)
    }
}

impl From<PlacementError> for ServeError {
    fn from(e: PlacementError) -> Self {
        ServeError::Placement(e)
    }
}

/// A configured serving simulation, reusable across runs.
#[derive(Debug, Clone)]
pub struct ServeSimulation {
    workflow: Workflow,
    plan: DeploymentPlan,
    config: ServeConfig,
    faults: FaultPlan,
    /// Replaces the DES-measured warm service base (what-if experiments
    /// and fleet runs use this to skip the per-cluster profiling execute).
    service_base_override: Option<SimDuration>,
}

impl ServeSimulation {
    pub fn new(workflow: Workflow, plan: DeploymentPlan, config: ServeConfig) -> Self {
        ServeSimulation {
            workflow,
            plan,
            config,
            faults: FaultPlan::none(),
            service_base_override: None,
        }
    }

    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Forces the warm per-request service base instead of measuring it
    /// on the virtual platform. The DES profiling execute (and its trace
    /// spans) is skipped, so this is for what-if re-runs on plans the
    /// baseline already validated.
    pub fn with_service_base_override(mut self, base: SimDuration) -> Self {
        self.service_base_override = Some(base);
        self
    }

    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Drives `workload` through the cluster. Deterministic in
    /// `(workload, seed)`: two runs yield byte-identical reports.
    pub fn run(&self, workload: &Workload, seed: u64) -> Result<ServeReport, ServeError> {
        Run::new(self, workload, seed, None)?.run()
    }

    /// Starts one federated cluster's event loop (fleet mode): arrivals
    /// are drawn at `initial_rate` until the federation driver gossips a
    /// new one, and trace ids carry cluster-derived bases.
    pub(crate) fn fleet_cluster<'a>(
        &'a self,
        workload: &'a Workload,
        seed: u64,
        cluster: u32,
        initial_rate: f64,
    ) -> Result<Run<'a>, ServeError> {
        Run::new(self, workload, seed, Some((cluster, initial_rate)))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplicaState {
    /// Cold-starting (or prewarm-activating); schedulable once ready.
    Starting,
    Idle {
        since: SimTime,
    },
    Busy {
        request: u64,
        dispatch_seq: u64,
    },
    /// Written off by failure detection.
    Dead,
    /// Scaled down after its keepalive expired.
    Retired,
}

#[derive(Debug, Clone)]
struct Replica {
    placement: Placement,
    /// Node of stage 1's primary wrap — the shard this replica drains.
    node: usize,
    /// Warm per-request service time including placement + routing
    /// overheads (before jitter).
    service: SimDuration,
    state: ReplicaState,
    /// How this replica's sandboxes came up.
    start_tier: StartTier,
    /// On-path startup latency the start paid (zero for warm handovers).
    start_latency: SimDuration,
    /// Deployment-time baseline (`min_replicas`): held for the whole
    /// run, so no keepalive drain tail applies.
    baseline: bool,
    /// Nanoseconds spent serving requests (for the busy/idle split).
    busy_ns: u64,
    served: u64,
    started_at: SimTime,
    ended_at: Option<SimTime>,
}

impl Replica {
    fn usable(&self) -> bool {
        matches!(
            self.state,
            ReplicaState::Starting | ReplicaState::Idle { .. } | ReplicaState::Busy { .. }
        )
    }
}

/// Per-cluster federation state (fleet mode only).
#[derive(Debug, Clone)]
struct FleetMode {
    /// Arrival rate for the current epoch, set by the federation router's
    /// gossiped admission weights.
    rate: f64,
    /// Cleared when the fleet workload ends; stray pre-drawn arrivals are
    /// then dropped deterministically while the backlog drains.
    accepting: bool,
    /// Whether a next-arrival event is pending (the arrival train
    /// disarms itself when admission stops or the rate hits zero).
    arrival_armed: bool,
    /// Fleet workload phase arrivals are currently stamped with.
    phase: u16,
    /// Service-time multiplier of the current fleet phase (regime shifts
    /// are injected by stepping this between phases).
    service_mult: f64,
    /// Forwarding hops awaiting admission: `(hop id, origin cluster,
    /// hop ns)` in injection order, popped by the `Forwarded` handler to
    /// emit the causally-paired `RemoteAdmit` event. Only populated while
    /// tracing.
    pending_remote: VecDeque<(u32, u16, u32)>,
}

pub(crate) struct Run<'a> {
    sim: &'a ServeSimulation,
    workload: &'a Workload,
    /// Warm single-request e2e latency of the plan (no placement/routing).
    service_base: SimDuration,
    /// Routing-architecture overhead added to every request.
    policy_overhead: SimDuration,
    cluster: ClusterState,
    router: Router,
    autoscaler: Autoscaler,
    events: EventQueue,
    rng: FastRng,
    gaps: ArrivalGen,
    replicas: Vec<Replica>,
    /// The request log: `records[i]` is request `base + i`. Standalone
    /// runs keep it whole (`base` stays 0); a fleet cluster feeds its
    /// final prefix to `digest` and drops it ([`Run::digest_final`]), so
    /// requests below `base` are digested and nothing writes them again.
    records: VecDeque<RequestRecord>,
    base: u64,
    digest: RecordDigest,
    /// Requests re-queued at least once by failure recovery.
    requeued: u64,
    /// Usable replicas per node, maintained at every replica state
    /// transition — the dispatch path never rescans the replica table.
    node_replicas: Vec<u32>,
    /// Whether each node hosts a usable replica (mirror of
    /// `node_replicas`, the shape `Router::next_for` consumes).
    node_usable: Vec<bool>,
    /// Ascending node indices with a usable replica; rebuilt lazily when
    /// `hosts_dirty` (host-set changes only on spawn/retire/death).
    hosts_scratch: Vec<usize>,
    hosts_dirty: bool,
    /// Usable replicas (live + starting), maintained incrementally.
    usable: u32,
    /// Idle replicas, maintained incrementally — `kick` exits in O(1)
    /// when there is nobody to hand work to.
    idle: u32,
    /// Bitmask of idle replica indices (word `i >> 6`, bit `i & 63`),
    /// maintained at every Idle transition. `kick` hands work out by bit
    /// scan — the exact lowest-index-first order of a linear replica
    /// sweep, without touching the replica table per arrival.
    idle_bits: Vec<u64>,
    /// Set by the first `NodeKill`; while false, the completion path
    /// skips the per-assignment failed-node scan entirely.
    has_failed_nodes: bool,
    /// Scratch: node deaths detected in one heartbeat sweep.
    detected_scratch: Vec<NodeId>,
    /// Scratch: in-flight requests to re-queue after a node death.
    requeue_scratch: Vec<u64>,
    /// Scratch: a dead node's stranded queue entries awaiting re-shard.
    stranded_scratch: Vec<u64>,
    /// Cumulative request count at the end of each phase.
    phase_ends: Vec<u64>,
    total: u64,
    arrived: u64,
    completed: u64,
    /// Requests spilled to peer clusters (fleet mode; zero otherwise).
    forwarded_out: u64,
    dispatch_seq: u64,
    /// Tiered start pools; `None` cold-boots every scale-up.
    pools: Option<PrewarmPools>,
    /// Scratch: slot builds scheduled by one pool tick.
    pool_actions_scratch: Vec<PoolAction>,
    starts_by_tier: [u32; 4],
    /// Kills whose detection is still pending.
    undetected: Vec<(SimTime, NodeId)>,
    deadlocked: bool,
    last_completion: SimTime,
    cold_starts: u64,
    scale_ups: u32,
    scale_downs: u32,
    replicas_failed: u32,
    peak_replicas: u32,
    timeline: Vec<(u64, u32)>,
    /// Online SLO burn-rate monitor, fed at each completion (event time,
    /// so alerts are identical for any worker count).
    slo: Option<BurnRateMonitor>,
    /// Online regime-change sensor, fed each completion's sojourn at
    /// event time (so detections are identical for any worker count).
    regime: Option<RegimeDetector>,
    /// Per-phase sojourn histograms; the report-level `sojourns` histogram
    /// is their exact merge (bucket counts, min/max and sums all add), so
    /// the hot path records each completion once, not twice.
    phase_hists: Vec<StreamingHistogram>,
    phase_completed: Vec<u64>,
    phase_cold: Vec<u64>,
    /// Whether an `AutoscaleTick` is pending (the train parks itself
    /// when the run goes quiet; fleet injections re-arm it).
    tick_armed: bool,
    /// Federation state; `None` for standalone runs.
    fleet: Option<FleetMode>,
    /// Trace id bases (zero outside fleet mode): emitted ids are
    /// `base + local id`, so one fleet capture stays collision-free.
    req_base: u64,
    rep_base: u32,
    node_base: u32,
    /// The run's trace buffer: every event from construction on is
    /// pushed here directly. A fleet cluster owns it, so its events
    /// survive work-stealing across worker threads; a standalone run
    /// holds the caller's capture buffer for its lifetime and hands it
    /// back when dropped.
    trace_events: Vec<TraceEvent>,
    /// Whether this run records: tracing was enabled at construction
    /// and the run has a buffer to bank into (a standalone run needs the
    /// caller's open capture). Captures are opened before a run starts
    /// and closed after it ends, so the per-request record sites branch
    /// on a plain bool instead of paying an atomic load (and eager
    /// event-payload packing) each.
    trace: bool,
}

impl Drop for Run<'_> {
    /// A standalone traced run hands the caller's capture buffer back,
    /// with the run's events appended, on every exit path: a finished
    /// report, a start-up error, or an unwind.
    fn drop(&mut self) {
        if self.trace && self.fleet.is_none() {
            chiron_obs::restore_capture(std::mem::take(&mut self.trace_events));
        }
    }
}

impl<'a> Run<'a> {
    fn new(
        sim: &'a ServeSimulation,
        workload: &'a Workload,
        seed: u64,
        fleet: Option<(u32, f64)>,
    ) -> Result<Self, ServeError> {
        // Warm service time: one request on the virtual platform, cold
        // starts excluded (they are modelled at replica granularity here).
        // It runs before the caller's capture is taken, so a probe error
        // leaves that capture untouched. Fleet clusters always carry the
        // override, so no fleet run probes.
        let (service_base, probe) = match sim.service_base_override {
            Some(base) => (base, None),
            None => {
                let platform =
                    VirtualPlatform::new(sim.config.platform.clone()).with_cold_starts(false);
                let outcome = platform.execute(&sim.workflow, &sim.plan, 0)?;
                (outcome.e2e, Some(outcome))
            }
        };
        // A traced run banks every event it records, construction
        // included, into one buffer. A fleet cluster's comes from the
        // spare pool, so successive traced runs hand the largest recycled
        // allocation (last run's merged trace) to the event stream,
        // keeping its pages warm, and the caller's thread-local capture
        // is never touched. A standalone run takes the caller's open
        // capture, and records nothing when there is none.
        let (mut banked, trace) = if !chiron_obs::tracing_enabled() {
            (Vec::new(), false)
        } else if fleet.is_some() {
            (chiron_obs::take_buffer(), true)
        } else {
            match chiron_obs::take_capture() {
                Some(buffer) => (buffer, true),
                None => (Vec::new(), false),
            }
        };
        if trace {
            // Names the capture before any other event so attribution
            // knows which (workflow, plan) this trace belongs to.
            banked.push(TraceEvent {
                time_ns: 0,
                kind: TraceEventKind::RunContext {
                    workflow: chiron_obs::intern(&sim.workflow.name),
                    plan: chiron_obs::drift::plan_key(&sim.plan),
                },
            });
            // The probe's DES windows give attribution the service
            // window's component profile.
            if let Some(outcome) = &probe {
                des_windows(outcome, &sim.plan, &mut banked);
            }
        }
        let (central, decentral) = scheduling_architectures(&sim.plan, &sim.config.platform.costs);
        let policy_overhead = match sim.config.router {
            RouterPolicy::CentralFifo => central,
            RouterPolicy::PartitionedByNode => decentral,
        };

        // The tier pools price slots off the plan's resident footprint;
        // derived once, the table is shared by billing and the planner.
        let pools = sim.config.lifecycle.as_ref().map(|cfg| {
            let usage = plan_resources(&sim.plan, &sim.workflow, &sim.config.platform.costs);
            let table = TierTable::derive(
                &sim.config.platform.costs,
                &cfg.costs,
                usage.memory_bytes,
                sim.plan.sandbox_count() as u32,
                cfg.snapshot_capacity,
                cfg.zygote_capacity,
            );
            PrewarmPools::new(cfg.clone(), table, SimTime::ZERO)
        });

        let nodes = sim.config.cluster.nodes as usize;
        let mut phase_ends = Vec::with_capacity(workload.phases.len());
        let mut cum = 0u64;
        for p in &workload.phases {
            cum += p.requests;
            phase_ends.push(cum);
        }

        let (req_base, rep_base, node_base, fleet_mode) = match fleet {
            Some((cluster, rate)) => {
                let bases = (u64::from(cluster) << 40, cluster << 22, cluster << 16);
                if trace {
                    banked.push(TraceEvent {
                        time_ns: 0,
                        kind: TraceEventKind::ClusterContext {
                            cluster,
                            request_base: bases.0,
                            replica_base: bases.1,
                            node_base: bases.2,
                        },
                    });
                }
                let mode = FleetMode {
                    rate,
                    accepting: true,
                    arrival_armed: rate > 0.0,
                    phase: 0,
                    service_mult: 1.0,
                    pending_remote: VecDeque::new(),
                };
                (bases.0, bases.1, bases.2, Some(mode))
            }
            None => (0, 0, 0, None),
        };

        let mut run = Run {
            sim,
            workload,
            service_base,
            policy_overhead,
            cluster: ClusterState::new(sim.config.cluster.clone()),
            router: Router::new(sim.config.router, nodes),
            autoscaler: Autoscaler::new(sim.config.autoscaler),
            events: EventQueue::with_capacity(
                sim.config.replicas.max_replicas as usize + sim.faults.node_kills.len() + 8,
            ),
            rng: FastRng::seed_from_u64(seed ^ 0x5e2e_5e2e_5e2e_5e2e),
            gaps: workload.arrivals.gaps(),
            replicas: Vec::new(),
            records: VecDeque::with_capacity(cum as usize),
            base: 0,
            digest: RecordDigest::new(),
            requeued: 0,
            node_replicas: vec![0; nodes],
            node_usable: vec![false; nodes],
            hosts_scratch: Vec::with_capacity(nodes),
            hosts_dirty: true,
            usable: 0,
            idle: 0,
            idle_bits: Vec::new(),
            has_failed_nodes: false,
            detected_scratch: Vec::new(),
            requeue_scratch: Vec::new(),
            stranded_scratch: Vec::new(),
            phase_ends,
            total: cum,
            arrived: 0,
            completed: 0,
            forwarded_out: 0,
            dispatch_seq: 0,
            pools,
            pool_actions_scratch: Vec::new(),
            starts_by_tier: [0; 4],
            // Kills aimed at node ids outside the cluster have nothing to
            // hit; drop them rather than index past the node tables.
            undetected: sim
                .faults
                .node_kills
                .iter()
                .copied()
                .filter(|&(_, node)| node.0 < sim.config.cluster.nodes)
                .collect(),
            deadlocked: false,
            last_completion: SimTime::ZERO,
            cold_starts: 0,
            scale_ups: 0,
            scale_downs: 0,
            replicas_failed: 0,
            peak_replicas: 0,
            timeline: Vec::new(),
            slo: sim.config.slo.map(BurnRateMonitor::new),
            regime: sim.config.regime.map(RegimeDetector::new),
            phase_hists: workload
                .phases
                .iter()
                .map(|_| StreamingHistogram::new())
                .collect(),
            phase_completed: vec![0; workload.phases.len()],
            phase_cold: vec![0; workload.phases.len()],
            tick_armed: false,
            fleet: fleet_mode,
            req_base,
            rep_base,
            node_base,
            trace_events: banked,
            trace,
        };

        // Deployment-time baseline: min_replicas warm at t=0 (their cold
        // starts happened before serving began, off the measured path).
        for _ in 0..sim.config.replicas.min_replicas {
            let placement =
                run.cluster
                    .place_replica(&sim.plan, &sim.workflow, sim.config.placement)?;
            run.push_replica(placement, SimTime::ZERO, StartTier::Warm, SimDuration::ZERO);
            let id = run.replicas.len() - 1;
            run.replicas[id].state = ReplicaState::Idle {
                since: SimTime::ZERO,
            };
            run.replicas[id].baseline = true;
            run.idle += 1;
            run.idle_bits[id >> 6] |= 1 << (id & 63);
            run.starts_by_tier[StartTier::Warm.code() as usize] += 1;
            run.record(
                0,
                TraceEventKind::ReplicaSpawn {
                    replica: run.rep_base + id as u32,
                    node: run.node_base + run.replicas[id].node as u32,
                    cold: false,
                    tier: StartTier::Warm.code(),
                },
            );
            run.record(
                0,
                TraceEventKind::ReplicaReady {
                    replica: run.rep_base + id as u32,
                },
            );
        }
        run.push_timeline(SimTime::ZERO);

        let arm_arrival = match &run.fleet {
            Some(f) => f.arrival_armed,
            None => run.total > 0,
        };
        if arm_arrival {
            run.events.push(SimTime::ZERO, EventKind::Arrival);
        }
        run.events.push(
            SimTime::ZERO + sim.config.autoscaler.tick,
            EventKind::AutoscaleTick,
        );
        run.tick_armed = true;
        if !sim.faults.is_empty() {
            for &(at, node) in &sim.faults.node_kills {
                run.events.push(at, EventKind::NodeKill { node });
            }
            run.events.push(
                SimTime::ZERO + sim.config.heartbeat_interval,
                EventKind::Heartbeat,
            );
        }
        Ok(run)
    }

    fn run(mut self) -> Result<ServeReport, ServeError> {
        while let Some(event) = self.events.pop() {
            self.handle(event);
        }
        Ok(self.into_report())
    }

    fn handle(&mut self, event: Event) {
        let now = event.at;
        match event.kind {
            EventKind::Arrival => self.on_arrival(now),
            EventKind::Forwarded => {
                let phase = self.fleet.as_ref().map_or(0, |f| f.phase);
                // The paired RemoteAdmit precedes the same-stamp Arrival
                // (recorded in emit order), carrying the hop id and
                // latency attribution needs; `self.arrived` is the id
                // `admit` is about to assign.
                if self.trace {
                    if let Some((hop, from_cluster, hop_ns)) = self
                        .fleet
                        .as_mut()
                        .and_then(|f| f.pending_remote.pop_front())
                    {
                        self.record(
                            now.as_nanos(),
                            TraceEventKind::RemoteAdmit {
                                request: self.req_base + self.arrived,
                                hop,
                                from_cluster,
                                hop_ns,
                            },
                        );
                    }
                }
                self.admit(now, phase);
            }
            EventKind::Completion {
                replica,
                request,
                dispatch_seq,
            } => self.on_completion(now, replica, request, dispatch_seq),
            EventKind::ReplicaReady { replica } => {
                if self.replicas[replica as usize].state == ReplicaState::Starting {
                    self.replicas[replica as usize].state = ReplicaState::Idle { since: now };
                    self.idle += 1;
                    self.idle_bits[replica as usize >> 6] |= 1 << (replica as usize & 63);
                    self.record(
                        now.as_nanos(),
                        TraceEventKind::ReplicaReady {
                            replica: self.rep_base + replica,
                        },
                    );
                    self.kick(now);
                }
            }
            EventKind::AutoscaleTick => self.on_tick(now),
            EventKind::PoolSlotReady { tier } => {
                if let Some(pools) = &mut self.pools {
                    pools.slot_ready(StartTier::from_code(tier), now);
                }
            }
            EventKind::Heartbeat => self.on_heartbeat(now),
            EventKind::NodeKill { node } => {
                self.record(
                    now.as_nanos(),
                    TraceEventKind::NodeKill {
                        node: self.node_base + node.0,
                    },
                );
                self.has_failed_nodes = true;
                self.cluster.fail_node(node)
            }
        }
    }

    // ---- fleet-mode driver interface ------------------------------------

    /// Records one trace event into the run's banked buffer. Handlers
    /// run in event-time order, so `trace_events` stays internally
    /// sorted and the final [`Trace::chain`] stitch needs no per-cluster
    /// re-sort.
    #[inline]
    fn record(&mut self, time_ns: u64, kind: TraceEventKind) {
        if self.trace {
            self.trace_events.push(TraceEvent { time_ns, kind });
        }
    }

    /// Processes every event strictly before `until` (the epoch barrier),
    /// then digests the log's new final prefix.
    pub(crate) fn advance_until(&mut self, until: SimTime) {
        while let Some(event) = self.events.pop_before(until) {
            self.handle(event);
        }
        self.digest_final();
    }

    /// The log entry of request `id`, for writing. Only records not yet
    /// digested are ever written: a record is digested once final, and
    /// requeue and re-dispatch only touch records still in flight.
    #[inline]
    fn entry(&mut self, id: u64) -> &mut RequestRecord {
        debug_assert!(
            id >= self.base,
            "request {id} written after its record was digested"
        );
        &mut self.records[(id - self.base) as usize]
    }

    /// Feeds the log's final prefix — completed records and records
    /// forwarded to a peer — to the digest in id order and drops it, so
    /// a fleet cluster holds the records from its oldest unfinished
    /// request onward rather than its whole history.
    fn digest_final(&mut self) {
        while let Some(r) = self.records.front() {
            if !r.is_completed() && !r.forwarded() {
                break;
            }
            self.digest.eat_record(r);
            self.records.pop_front();
            self.base += 1;
        }
    }

    /// Drains every remaining event and produces the cluster's report
    /// (without a request log), its record digest and its trace (empty
    /// unless this is a traced fleet run).
    pub(crate) fn finish(mut self) -> (ServeReport, u64, Trace) {
        while let Some(event) = self.events.pop() {
            self.handle(event);
        }
        // Whatever is still open (a deadlocked cluster's stranded work)
        // closes the digest in id order.
        for r in std::mem::take(&mut self.records) {
            self.digest.eat_record(&r);
        }
        let digest = self.digest.finish(self.arrived, self.completed);
        let events = std::mem::take(&mut self.trace_events);
        // Handlers run in event-time order and coordinator records land
        // at the barrier they were computed for, so the banked stream is
        // already sorted — no normalisation pass on the timed path.
        debug_assert!(
            events.is_sorted_by_key(|e| e.time_ns),
            "banked cluster trace out of time order"
        );
        (self.into_report(), digest, Trace { events })
    }

    /// Gossips the next epoch's admission rate to this cluster, re-arming
    /// the arrival train if it had parked on a zero rate.
    pub(crate) fn set_rate(&mut self, rate: f64, now: SimTime) {
        let rearm = {
            let f = self.fleet.as_mut().expect("fleet mode");
            f.rate = rate;
            f.accepting && rate > 0.0 && !f.arrival_armed
        };
        if rearm {
            self.fleet.as_mut().expect("fleet mode").arrival_armed = true;
            let gap = self.gaps.next_gap(rate);
            self.events.push(now + gap, EventKind::Arrival);
        }
    }

    /// Stamps subsequent arrivals with the fleet workload phase and
    /// applies its service-time multiplier (regime-shift injection).
    pub(crate) fn set_phase(&mut self, phase: u16, service_mult: f64) {
        let f = self.fleet.as_mut().expect("fleet mode");
        f.phase = phase;
        f.service_mult = service_mult;
    }

    /// The fleet workload ended: stop admitting; pre-drawn arrivals are
    /// dropped when they fire, and the backlog drains.
    pub(crate) fn stop_accepting(&mut self) {
        self.fleet.as_mut().expect("fleet mode").accepting = false;
    }

    pub(crate) fn queued(&self) -> usize {
        self.router.queued()
    }

    pub(crate) fn usable_replicas(&self) -> u32 {
        self.usable
    }

    /// Sheds the newest queued requests down to `threshold`, handing them
    /// to the federation router. Shed records are marked `forwarded` and
    /// leave this cluster's loss accounting; their local ids are appended
    /// to `shed_ids` so the coordinator can pair each with a forwarding
    /// hop for the causal trace.
    pub(crate) fn spill_excess(&mut self, threshold: usize, shed_ids: &mut Vec<u64>) -> u64 {
        let mut shed = 0u64;
        while self.router.queued() > threshold {
            let Some(req) = self.router.pop_newest() else {
                break;
            };
            self.entry(req).set_forwarded(true);
            self.forwarded_out += 1;
            shed_ids.push(req);
            shed += 1;
        }
        shed
    }

    /// Records the origin half of one spilled request's forwarding hop.
    /// The coordinator calls this between capture windows, so the event
    /// goes straight into the banked per-cluster trace; `hop` pairs it
    /// with the destination's `RemoteAdmit`.
    pub(crate) fn note_forward(&mut self, at: SimTime, request: u64, hop: u32, to_cluster: u16) {
        if !self.trace {
            return;
        }
        self.trace_events.push(TraceEvent {
            time_ns: at.as_nanos(),
            kind: TraceEventKind::Forward {
                request: self.req_base + request,
                hop,
                from_cluster: (self.req_base >> 40) as u16,
                to_cluster,
            },
        });
    }

    /// Delivers requests spilled by peer clusters at `at` (barrier +
    /// forwarding latency), one per `(hop id, origin cluster)` pair.
    /// Re-arms the autoscaler tick train if the cluster had gone quiet.
    pub(crate) fn inject_forwarded(&mut self, at: SimTime, hops: &[(u32, u16)], hop_ns: u32) {
        for _ in hops {
            self.events.push(at, EventKind::Forwarded);
        }
        if self.trace {
            let f = self.fleet.as_mut().expect("fleet mode");
            for &(hop, from_cluster) in hops {
                f.pending_remote.push_back((hop, from_cluster, hop_ns));
            }
        }
        if !hops.is_empty() && !self.tick_armed {
            self.tick_armed = true;
            self.events.push(
                at + self.sim.config.autoscaler.tick,
                EventKind::AutoscaleTick,
            );
        }
    }

    // ---- event handlers -------------------------------------------------

    fn on_arrival(&mut self, now: SimTime) {
        if let Some(f) = &self.fleet {
            let (accepting, rate, phase) = (f.accepting, f.rate, f.phase);
            if !accepting || rate <= 0.0 {
                self.fleet.as_mut().expect("fleet mode").arrival_armed = false;
                return;
            }
            self.admit(now, phase);
            let gap = self.gaps.next_gap(rate);
            self.events.push(now + gap, EventKind::Arrival);
            return;
        }
        let phase = self.phase_of(self.arrived) as u16;
        self.admit(now, phase);
        if self.arrived < self.total {
            let rps = self.workload.phases[self.phase_of(self.arrived)].rps;
            let gap = self.gaps.next_gap(rps);
            self.events.push(now + gap, EventKind::Arrival);
        }
    }

    /// Admits one request: record it, queue it, hand it out if anyone is
    /// idle. Shared by open-loop arrivals and federation injections.
    fn admit(&mut self, now: SimTime, phase: u16) {
        let id = self.arrived;
        self.arrived += 1;
        if let Some(pools) = &mut self.pools {
            pools.observe_arrival();
        }
        debug_assert_eq!(self.base + self.records.len() as u64, id);
        self.records
            .push_back(RequestRecord::new(now.as_nanos(), phase));
        if self.trace {
            self.record(
                now.as_nanos(),
                TraceEventKind::Arrival {
                    request: self.req_base + id,
                    phase,
                },
            );
        }
        if self.sim.config.router == RouterPolicy::PartitionedByNode {
            self.refresh_hosts();
        }
        let shard = self.router.choose_shard(&self.hosts_scratch);
        self.router.push_back(shard, id);
        if self.trace {
            self.record(
                now.as_nanos(),
                TraceEventKind::Enqueue {
                    request: self.req_base + id,
                    shard: shard_code(shard),
                },
            );
        }
        self.kick(now);
    }

    fn on_completion(&mut self, now: SimTime, replica: u32, request: u64, dispatch_seq: u64) {
        let rep = &self.replicas[replica as usize];
        let current = matches!(
            rep.state,
            ReplicaState::Busy { request: r, dispatch_seq: s }
                if r == request && s == dispatch_seq
        );
        // A completion from a crashed node never reaches the router; the
        // request stays Busy until heartbeat detection re-queues it. The
        // per-assignment scan only runs once a node has actually failed.
        let broken = self.has_failed_nodes
            && rep
                .placement
                .assignments
                .iter()
                .any(|&(_, n)| self.cluster.is_failed(n));
        if !current || broken {
            return; // stale (re-queued / replica dead) or physically lost
        }

        let rec = self.entry(request);
        rec.set_completed_ns(now.as_nanos());
        let sojourn = SimDuration::from_nanos(now.as_nanos() - rec.arrival_ns);
        let dispatched_ns = rec.dispatched_ns();
        let phase = rec.phase as usize;
        let cold = rec.cold_start();
        if self.trace {
            self.record(
                now.as_nanos(),
                TraceEventKind::Complete {
                    request: self.req_base + request,
                    replica: self.rep_base + replica,
                },
            );
        }
        self.phase_hists[phase].record(sojourn);
        self.phase_completed[phase] += 1;
        if cold {
            self.cold_starts += 1;
            self.phase_cold[phase] += 1;
        }
        self.autoscaler.observe(sojourn);
        if let Some(monitor) = &mut self.slo {
            if let Some(t) = monitor.observe(now.as_nanos(), sojourn) {
                let (short_burn_centi, long_burn_centi) = t.burns_centi();
                self.record(
                    now.as_nanos(),
                    TraceEventKind::SloAlert {
                        fired: t.fired,
                        short_burn_centi,
                        long_burn_centi,
                    },
                );
            }
        }
        if let Some(detector) = &mut self.regime {
            if let Some(change) =
                detector.observe(now.as_nanos(), chiron_obs::E2E_STAGE, sojourn.as_nanos())
            {
                self.record(now.as_nanos(), change.to_event_kind());
            }
        }
        self.completed += 1;
        self.last_completion = now;

        let rep = &mut self.replicas[replica as usize];
        rep.served += 1;
        if let Some(d) = dispatched_ns {
            rep.busy_ns += now.as_nanos().saturating_sub(d);
        }
        rep.state = ReplicaState::Idle { since: now };
        let node = rep.node;
        self.idle += 1;
        self.idle_bits[replica as usize >> 6] |= 1 << (replica as usize & 63);
        if let Some(next) = self.router.next_for(node, &self.node_usable) {
            self.dispatch(replica, next, now);
        }
    }

    fn on_tick(&mut self, now: SimTime) {
        if !self.work_remains() || self.deadlocked {
            self.tick_armed = false;
            return; // stop the tick train once the run is over (or wedged)
        }
        let queued = self.router.queued();
        QUEUE_DEPTH_PEAK.set_max(queued as u64);
        QUEUE_DEPTH_SUM.add(queued as u64);
        AUTOSCALER_TICKS.incr();
        let usable = self.usable;
        let want = self.autoscaler.replicas_to_add(queued, usable);
        for _ in 0..want {
            if self.usable >= self.sim.config.replicas.max_replicas {
                break;
            }
            if !self.try_spawn(now) {
                break;
            }
        }
        self.retire_idle(now);
        self.kick(now);
        // The pool policy rides the same tick: re-forecast, restock
        // toward target (slot builds become future PoolSlotReady
        // events), evict surplus rent.
        if let Some(pools) = &mut self.pools {
            let mut actions = std::mem::take(&mut self.pool_actions_scratch);
            actions.clear();
            pools.on_tick(now, self.sim.config.autoscaler.tick, &mut actions);
            for a in &actions {
                self.events.push(
                    now + a.ready_in,
                    EventKind::PoolSlotReady {
                        tier: a.tier.code(),
                    },
                );
            }
            self.pool_actions_scratch = actions;
        }
        self.events.push(
            now + self.sim.config.autoscaler.tick,
            EventKind::AutoscaleTick,
        );
    }

    fn on_heartbeat(&mut self, now: SimTime) {
        let threshold =
            self.sim.config.heartbeat_interval * u64::from(self.sim.config.heartbeat_miss_limit);
        // Taken (not borrowed) so `handle_node_death` can take `&mut self`
        // inside the loop; restored afterwards so the buffer is reused.
        let mut detected = std::mem::take(&mut self.detected_scratch);
        detected.clear();
        self.undetected.retain(|&(at, node)| {
            if now.as_nanos() >= (at + threshold).as_nanos() {
                detected.push(node);
                false
            } else {
                true
            }
        });
        for &node in &detected {
            self.handle_node_death(node, now);
        }
        self.detected_scratch = detected;
        if !self.undetected.is_empty() {
            self.events.push(
                now + self.sim.config.heartbeat_interval,
                EventKind::Heartbeat,
            );
        }
    }

    fn handle_node_death(&mut self, node: NodeId, now: SimTime) {
        self.record(
            now.as_nanos(),
            TraceEventKind::NodeDeath {
                node: self.node_base + node.0,
            },
        );
        let mut requeue = std::mem::take(&mut self.requeue_scratch);
        requeue.clear();
        let mut dead = 0u32;
        // Disjoint field borrows: the cluster refund reads the replica's
        // placement in place instead of cloning it per failure.
        let Run {
            replicas,
            cluster,
            sim,
            replicas_failed,
            usable,
            idle,
            idle_bits,
            node_replicas,
            node_usable,
            hosts_dirty,
            ..
        } = self;
        for (id, rep) in replicas.iter_mut().enumerate() {
            let touches = rep.placement.assignments.iter().any(|&(_, n)| n == node);
            if !touches || !rep.usable() {
                continue;
            }
            if let ReplicaState::Busy { request, .. } = rep.state {
                requeue.push(request);
            }
            if matches!(rep.state, ReplicaState::Idle { .. }) {
                *idle -= 1;
                idle_bits[id >> 6] &= !(1 << (id & 63));
            }
            rep.state = ReplicaState::Dead;
            rep.ended_at = Some(now);
            // Refunds only the replica's live-node share; the dead node's
            // capacity was written off by fail_node.
            cluster.remove_replica(&sim.plan, &sim.workflow, &rep.placement);
            *usable -= 1;
            node_replicas[rep.node] -= 1;
            if node_replicas[rep.node] == 0 {
                node_usable[rep.node] = false;
                *hosts_dirty = true;
            }
            *replicas_failed += 1;
            dead += 1;
        }
        self.push_timeline(now);

        // The host set is stable for the rest of this handler (only the
        // router changes below), so one refresh serves every re-shard.
        self.refresh_hosts();

        // The dead node's own queue never dispatched: re-shard in order.
        if self.sim.config.router == RouterPolicy::PartitionedByNode {
            let mut stranded = std::mem::take(&mut self.stranded_scratch);
            stranded.clear();
            self.router.drain_node_into(node.0 as usize, &mut stranded);
            for &req in &stranded {
                let shard = self.router.choose_shard(&self.hosts_scratch);
                self.router.push_back(shard, req);
            }
            self.stranded_scratch = stranded;
        }

        // In-flight work goes back to the front, oldest request foremost.
        requeue.sort_unstable();
        for &req in requeue.iter().rev() {
            let rec = self.entry(req);
            rec.requeues += 1;
            let replica = rec.replica;
            if rec.requeues == 1 {
                self.requeued += 1;
            }
            self.record(
                now.as_nanos(),
                TraceEventKind::Requeue {
                    request: self.req_base + req,
                    replica: self.rep_base + replica,
                },
            );
            let shard = self.router.choose_shard(&self.hosts_scratch);
            self.router.push_front(shard, req);
        }
        REQUEUES.add(requeue.len() as u64);
        self.requeue_scratch = requeue;

        // Replace the lost capacity immediately (cold starts apply).
        for _ in 0..dead {
            if self.usable >= self.sim.config.replicas.max_replicas {
                break;
            }
            if !self.try_spawn(now) {
                break;
            }
        }
        self.kick(now);
    }

    // ---- mechanics ------------------------------------------------------

    /// Spawns one replica; returns false (and flags deadlock when fatal)
    /// if the cluster is full.
    fn try_spawn(&mut self, now: SimTime) -> bool {
        match self.cluster.place_replica(
            &self.sim.plan,
            &self.sim.workflow,
            self.sim.config.placement,
        ) {
            Ok(placement) => {
                // Tiered pools pick the cheapest start with stock; without
                // them every scale-up is a cold boot.
                let (tier, latency) = match &mut self.pools {
                    Some(pools) => {
                        let tier = pools.acquire(now);
                        (tier, pools.table().startup_of(tier))
                    }
                    None => (
                        StartTier::ColdBoot,
                        self.sim.config.platform.costs.sandbox_cold_start,
                    ),
                };
                self.push_replica(placement, now, tier, latency);
                let id = (self.replicas.len() - 1) as u32;
                self.starts_by_tier[tier.code() as usize] += 1;
                self.record(
                    now.as_nanos(),
                    TraceEventKind::ReplicaSpawn {
                        replica: self.rep_base + id,
                        node: self.node_base + self.replicas[id as usize].node as u32,
                        cold: latency > SimDuration::ZERO,
                        tier: tier.code(),
                    },
                );
                self.events
                    .push(now + latency, EventKind::ReplicaReady { replica: id });
                self.scale_ups += 1;
                self.push_timeline(now);
                true
            }
            Err(_) => {
                if self.usable == 0 && self.router.queued() > 0 {
                    // Nothing can ever progress again: no replicas, no room.
                    self.deadlocked = true;
                }
                false
            }
        }
    }

    fn push_replica(
        &mut self,
        placement: Placement,
        now: SimTime,
        tier: StartTier,
        latency: SimDuration,
    ) {
        let primary = self.sim.plan.stages[0].wraps[0].sandbox;
        let node = placement.node_of(primary).expect("placed plan").0 as usize;
        let service = self.service_base
            + placement_overhead(&self.sim.plan, &placement, self.cluster.config())
            + self.policy_overhead;
        if self.replicas.len() >= self.idle_bits.len() * 64 {
            self.idle_bits.push(0);
        }
        self.replicas.push(Replica {
            placement,
            node,
            service,
            state: ReplicaState::Starting,
            start_tier: tier,
            start_latency: latency,
            baseline: false,
            busy_ns: 0,
            served: 0,
            started_at: now,
            ended_at: None,
        });
        self.usable += 1;
        self.node_replicas[node] += 1;
        if self.node_replicas[node] == 1 {
            self.node_usable[node] = true;
            self.hosts_dirty = true;
        }
    }

    fn dispatch(&mut self, replica: u32, request: u64, now: SimTime) {
        self.dispatch_seq += 1;
        let seq = self.dispatch_seq;
        let u = self.rng.next_f64();
        let mut mult = 1.0 + self.sim.config.service_jitter * (2.0 * u - 1.0);
        if let Some(f) = &self.fleet {
            mult *= f.service_mult;
        }
        let rep = &mut self.replicas[replica as usize];
        let cold = rep.start_latency > SimDuration::ZERO && rep.served == 0;
        rep.state = ReplicaState::Busy {
            request,
            dispatch_seq: seq,
        };
        self.idle -= 1;
        self.idle_bits[replica as usize >> 6] &= !(1 << (replica as usize & 63));
        let service = rep.service.mul_f64(mult);
        let node = rep.node as u32;
        let tier = rep.start_tier;
        let rec = self.entry(request);
        rec.set_dispatched_ns(now.as_nanos());
        rec.replica = replica;
        rec.set_cold_start(cold);
        rec.tier = tier.code();
        if self.trace {
            self.record(
                now.as_nanos(),
                TraceEventKind::Dispatch {
                    request: self.req_base + request,
                    replica: self.rep_base + replica,
                    node: self.node_base + node,
                    cold,
                },
            );
        }
        self.events.push(
            now + service,
            EventKind::Completion {
                replica,
                request,
                dispatch_seq: seq,
            },
        );
    }

    /// Hands queued work to every idle replica that can take some, in
    /// ascending replica-index order. O(1) when there is nothing to do —
    /// and near O(idle) otherwise: candidates come off the idle bitmask
    /// by bit scan, so an arrival never sweeps the replica table.
    fn kick(&mut self, now: SimTime) {
        if self.idle == 0 || self.router.queued() == 0 {
            return;
        }
        for w in 0..self.idle_bits.len() {
            // Snapshot of the word: `dispatch` clears exactly the bit we
            // just consumed and sets none, so the snapshot stays accurate
            // for the remaining candidates.
            let mut word = self.idle_bits[w];
            while word != 0 {
                if self.idle == 0 || self.router.queued() == 0 {
                    return;
                }
                let i = (w << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                if let Some(req) = self
                    .router
                    .next_for(self.replicas[i].node, &self.node_usable)
                {
                    self.dispatch(i as u32, req, now);
                }
            }
        }
    }

    fn retire_idle(&mut self, now: SimTime) {
        let keepalive = self.sim.config.replicas.keepalive;
        let min = self.sim.config.replicas.min_replicas;
        let rep_base = self.rep_base;
        // Each retirement removes exactly one usable replica; the disjoint
        // field borrows avoid cloning each placement.
        let Run {
            replicas,
            cluster,
            router,
            sim,
            scale_downs,
            peak_replicas,
            timeline,
            usable,
            idle,
            idle_bits,
            node_replicas,
            node_usable,
            hosts_dirty,
            trace,
            trace_events,
            ..
        } = self;
        for (id, rep) in replicas.iter_mut().enumerate() {
            if *usable <= min {
                break;
            }
            let ReplicaState::Idle { since } = rep.state else {
                continue;
            };
            if now.since(since) < keepalive {
                continue;
            }
            // A partitioned replica with work sharded to its node stays.
            if sim.config.router == RouterPolicy::PartitionedByNode
                && router.queued_on(rep.node) > 0
            {
                continue;
            }
            rep.state = ReplicaState::Retired;
            rep.ended_at = Some(now);
            if *trace {
                trace_events.push(TraceEvent {
                    time_ns: now.as_nanos(),
                    kind: TraceEventKind::ReplicaRetired {
                        replica: rep_base + id as u32,
                    },
                });
            }
            cluster.remove_replica(&sim.plan, &sim.workflow, &rep.placement);
            *scale_downs += 1;
            *usable -= 1;
            *idle -= 1;
            idle_bits[id >> 6] &= !(1 << (id & 63));
            node_replicas[rep.node] -= 1;
            if node_replicas[rep.node] == 0 {
                node_usable[rep.node] = false;
                *hosts_dirty = true;
            }
            *peak_replicas = (*peak_replicas).max(*usable);
            timeline.push((now.as_nanos(), *usable));
        }
    }

    // ---- bookkeeping ----------------------------------------------------

    fn phase_of(&self, request: u64) -> usize {
        self.phase_ends
            .iter()
            .position(|&end| request < end)
            .unwrap_or(self.phase_ends.len() - 1)
    }

    /// Rebuilds the ascending usable-host list if it went stale.
    fn refresh_hosts(&mut self) {
        if !self.hosts_dirty {
            return;
        }
        self.hosts_dirty = false;
        self.hosts_scratch.clear();
        self.hosts_scratch.extend(
            self.node_usable
                .iter()
                .enumerate()
                .filter_map(|(i, &h)| h.then_some(i)),
        );
    }

    fn work_remains(&self) -> bool {
        match &self.fleet {
            Some(f) => f.accepting || self.completed + self.forwarded_out < self.arrived,
            None => self.arrived < self.total || self.completed < self.arrived,
        }
    }

    fn push_timeline(&mut self, now: SimTime) {
        self.peak_replicas = self.peak_replicas.max(self.usable);
        self.timeline.push((now.as_nanos(), self.usable));
    }

    fn into_report(mut self) -> ServeReport {
        let end = self.last_completion;
        let keepalive = self.sim.config.replicas.keepalive;
        let usage = plan_resources(
            &self.sim.plan,
            &self.sim.workflow,
            &self.sim.config.platform.costs,
        );
        let mut replica_seconds = 0.0f64;
        let mut busy_replica_seconds = 0.0f64;
        let mut keepalive_tail_seconds = 0.0f64;
        for r in &self.replicas {
            let until = r
                .ended_at
                .unwrap_or(end)
                .as_nanos()
                .max(r.started_at.as_nanos());
            // Keepalive drain tail: an autoscaled replica still alive at
            // the last completion keeps occupying its nodes until its
            // keepalive expires — capacity that used to go unbilled. The
            // deployment-time baseline is excluded: it is held
            // indefinitely by configuration, not by keepalive.
            let tail = if r.ended_at.is_none() && !r.baseline {
                match r.state {
                    ReplicaState::Idle { since } => {
                        let expiry = (since + keepalive).as_nanos();
                        SimDuration::from_nanos(expiry.saturating_sub(until)).as_secs_f64()
                    }
                    ReplicaState::Starting | ReplicaState::Busy { .. } => keepalive.as_secs_f64(),
                    ReplicaState::Dead | ReplicaState::Retired => 0.0,
                }
            } else {
                0.0
            };
            keepalive_tail_seconds += tail;
            replica_seconds +=
                SimDuration::from_nanos(until - r.started_at.as_nanos()).as_secs_f64() + tail;
            busy_replica_seconds += r.busy_ns as f64 / 1e9;
        }
        let idle_replica_seconds = (replica_seconds - busy_replica_seconds).max(0.0);
        let gb = usage.memory_bytes as f64 / (1024.0 * 1024.0 * 1024.0);
        let gb_seconds = replica_seconds * gb;
        let ghz_seconds =
            replica_seconds * f64::from(usage.cpus) * self.sim.config.platform.costs.cpu_ghz;
        let billing = &self.sim.config.platform.billing;
        let cost_usd =
            gb_seconds * billing.usd_per_gb_second + ghz_seconds * billing.usd_per_ghz_second;
        let (pool_gb_seconds, pool_rent_usd) = match &mut self.pools {
            Some(pools) => {
                pools.finish(end);
                let gbs = pools.rent_gb_seconds();
                (gbs, gbs * billing.usd_per_gb_second)
            }
            None => (0.0, 0.0),
        };

        let phase_hists = std::mem::take(&mut self.phase_hists);
        // Exact reconstruction: a StreamingHistogram merge adds bucket
        // counts and combines min/max/sum losslessly, so merging the phase
        // histograms equals having recorded every sojourn directly.
        let mut sojourns = StreamingHistogram::new();
        for hist in &phase_hists {
            sojourns.merge(hist);
        }
        let phases = self
            .workload
            .phases
            .iter()
            .zip(phase_hists)
            .zip(self.phase_completed.iter().zip(self.phase_cold.iter()))
            .map(|((p, hist), (&completed, &cold))| {
                PhaseSummary::from_histogram(p.rps, completed, cold, hist)
            })
            .collect();

        // One registry-lock acquisition instead of one per completion.
        SOJOURNS.merge(&sojourns);

        ServeReport {
            accepted: self.arrived,
            completed: self.completed,
            lost: self.arrived - self.completed - self.forwarded_out,
            forwarded_out: self.forwarded_out,
            requeued_requests: self.requeued,
            cold_starts: self.cold_starts,
            makespan: SimDuration::from_nanos(end.as_nanos()),
            sojourns,
            phases,
            peak_replicas: self.peak_replicas,
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            replicas_failed: self.replicas_failed,
            starts_by_tier: self.starts_by_tier,
            replica_seconds,
            gb_seconds,
            ghz_seconds,
            cost_usd,
            busy_replica_seconds,
            idle_replica_seconds,
            keepalive_tail_seconds,
            pool_gb_seconds,
            pool_rent_usd,
            replica_timeline: std::mem::take(&mut self.timeline),
            slo: self.slo.take().map(BurnRateMonitor::into_summary),
            regime_changes: self
                .regime
                .as_ref()
                .map_or(0, RegimeDetector::changes_fired),
            records: std::mem::take(&mut self.records).into(),
        }
    }
}

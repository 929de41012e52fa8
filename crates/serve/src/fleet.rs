//! Sharded multi-cluster serving: a federation of per-cluster event
//! loops under one deterministic epoch-barrier driver.
//!
//! ## Architecture
//!
//! A fleet is `clusters` independent copies of the single-cluster
//! simulation ([`crate::sim`]), each with its own router, autoscaler and
//! failure detector. Above them sits the **federation router**: it admits
//! the fleet-wide request stream by splitting it into per-cluster Poisson
//! substreams ([`chiron_metrics::ArrivalProcess::substream`]), sets each
//! cluster's admission rate from gossiped load, and moves queued work
//! from saturated clusters to drained peers (spillover).
//!
//! ## Determinism
//!
//! Time advances in fixed *epochs*. Within an epoch every cluster runs
//! its own event loop independently — clusters exchange nothing — so any
//! grouping of clusters into shards, executed by any number of worker
//! threads, replays the exact same per-cluster event sequences. At each
//! barrier a single-threaded coordinator walks the clusters **in cluster
//! order** and performs every cross-cluster action: it inspects queue
//! depths, sheds overload through `Run::spill_excess`, schedules the
//! shed requests into receivers at `barrier + forward_latency`
//! (`Run::inject_forwarded`), and gossips next-epoch admission rates
//! (`Run::set_rate`). Because all cross-shard communication happens in
//! this deterministic sequential step, the fleet report is byte-identical
//! for every `(shards, workers)` choice — the proptest in
//! tier-1 `tests/fleet_determinism.rs` pins this.
//!
//! The worker threads are spawned once per run, not per barrier (the
//! crate's `barrier` module): a long run crosses thousands of barriers, each
//! with only tens of requests per cluster, and spawning threads at every
//! barrier would cost more than the work each one hands out. After the
//! last barrier the workers also drain their clusters and build the
//! per-cluster reports and digests.
//!
//! A cluster keeps no full request log: at the end of each epoch it feeds
//! the log's final prefix (completed or forwarded records, which nothing
//! writes again) into its record digest, five word steps a record, and
//! drops it, so it holds the records from its oldest unfinished request
//! onward, not the run's history. A request stranded on a dead node, or a
//! deadlocked cluster's lost work, pins the records after it until the
//! run ends.
//!
//! Spillover moves *counts*, not identities: every request of a workflow
//! is identical, so a saturated cluster pops its newest queued requests
//! (LIFO — the oldest keep their position and their latency), marks them
//! `forwarded`, and the receiver admits the same number as fresh
//! arrivals after the forwarding latency. No accepted request is ever
//! dropped: `fleet.lost == 0` unless a cluster deadlocks.

use crate::barrier;
use crate::config::{ServeConfig, TrafficPhase, Workload};
use crate::faults::FaultPlan;
use crate::report::{FleetReport, ServeReport};
use crate::sim::{Run, ServeError, ServeSimulation};
use chiron_metrics::ArrivalProcess;
use chiron_model::{DeploymentPlan, SimDuration, SimTime, Workflow};
use chiron_obs::Trace;
use chiron_runtime::VirtualPlatform;

/// Largest fleet: replica trace ids carry the cluster in their top 10
/// bits (`cluster << 22`).
const MAX_CLUSTERS: u32 = 1 << 10;

/// SplitMix64 finaliser: decorrelated per-cluster seeds from the fleet
/// seed (the same construction the arrival substreams use).
fn split_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fleet topology and federation policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of clusters; each is one full [`ServeConfig`] worth of
    /// nodes, router, autoscaler and failure detection.
    pub clusters: u32,
    /// Per-cluster configuration (all clusters are identical; locality
    /// weights express heterogeneous demand instead).
    pub cluster: ServeConfig,
    /// Barrier period of the federation driver. Within an epoch clusters
    /// run independently; spillover and rate gossip happen only at
    /// barriers, so this bounds the staleness of federation decisions.
    pub epoch: SimDuration,
    /// Cross-cluster forwarding latency: a spilled request re-enters a
    /// peer this long after the barrier that shed it.
    pub forward_latency: SimDuration,
    /// Queue depth above which a cluster sheds work at a barrier (and at
    /// or below which it accepts spillover).
    pub spill_threshold: u32,
    /// Relative admission weight of each cluster (geographic/demand
    /// locality). Length must equal `clusters`; uniform = balanced fleet.
    pub locality: Vec<f64>,
}

impl FleetConfig {
    /// A fleet of `clusters` paper-testbed clusters (8 nodes each) with
    /// uniform locality, half-second epochs and a 2 ms forwarding hop.
    pub fn paper_fleet(clusters: u32) -> Self {
        FleetConfig {
            clusters,
            cluster: ServeConfig::paper_testbed(),
            epoch: SimDuration::from_millis(500),
            forward_latency: SimDuration::from_millis(2),
            spill_threshold: 64,
            locality: vec![1.0; clusters as usize],
        }
    }

    pub fn with_cluster(mut self, cluster: ServeConfig) -> Self {
        self.cluster = cluster;
        self
    }

    pub fn with_spill(mut self, threshold: u32, forward_latency: SimDuration) -> Self {
        self.spill_threshold = threshold;
        self.forward_latency = forward_latency;
        self
    }

    /// Sets each cluster's locality weight. [`FleetSimulation::new`]
    /// refuses a vector whose length is not `clusters`, or a weight that
    /// is not finite and positive.
    pub fn with_locality(mut self, locality: Vec<f64>) -> Self {
        self.locality = locality;
        self
    }
}

/// One constant-rate segment of the fleet-wide offered load. Fleet
/// phases are time-bounded (not request-bounded): the open-loop rate is
/// split across clusters by gossiped weights, so no single cluster owns
/// a fixed request quota.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPhase {
    /// Fleet-wide mean arrival rate.
    pub rps: f64,
    pub duration: SimDuration,
    /// Service-time multiplier every cluster applies while this phase is
    /// active (1.0 = calibrated service times). Stepping it between
    /// phases injects a fleet-wide latency regime shift — the scenario
    /// the online regime-change sensor is gated on detecting.
    pub service_multiplier: f64,
}

/// The fleet-wide open-loop request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetWorkload {
    pub phases: Vec<FleetPhase>,
    /// Parent arrival process; cluster `c` draws from `substream(c)`.
    pub arrivals: ArrivalProcess,
}

impl FleetWorkload {
    pub fn steady(rps: f64, duration: SimDuration) -> Self {
        FleetWorkload {
            phases: vec![FleetPhase {
                rps,
                duration,
                service_multiplier: 1.0,
            }],
            arrivals: ArrivalProcess::Poisson { seed: 0 },
        }
    }

    pub fn with_arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    pub fn total_duration(&self) -> SimDuration {
        self.phases
            .iter()
            .fold(SimDuration::ZERO, |acc, p| acc + p.duration)
    }
}

/// A configured fleet, reusable across runs. The warm service base is
/// profiled once on the virtual platform and shared by every cluster —
/// the per-run cost is pure event-loop work.
#[derive(Debug, Clone)]
pub struct FleetSimulation {
    config: FleetConfig,
    sims: Vec<ServeSimulation>,
}

impl FleetSimulation {
    pub fn new(
        workflow: Workflow,
        plan: DeploymentPlan,
        config: FleetConfig,
    ) -> Result<Self, ServeError> {
        if config.clusters == 0 || config.clusters > MAX_CLUSTERS {
            return Err(ServeError::Fleet("a fleet needs 1 to 1024 clusters"));
        }
        if config.epoch == SimDuration::ZERO {
            return Err(ServeError::Fleet("the epoch must be positive"));
        }
        if config.locality.len() != config.clusters as usize {
            return Err(ServeError::Fleet("one locality weight per cluster"));
        }
        if !config.locality.iter().all(|w| w.is_finite() && *w > 0.0) {
            return Err(ServeError::Fleet("locality weights must be positive"));
        }
        // Profile the plan once; all clusters serve the same deployment.
        let platform =
            VirtualPlatform::new(config.cluster.platform.clone()).with_cold_starts(false);
        let base = platform.execute(&workflow, &plan, 0)?.e2e;
        let sims = (0..config.clusters)
            .map(|_| {
                ServeSimulation::new(workflow.clone(), plan.clone(), config.cluster.clone())
                    .with_service_base_override(base)
            })
            .collect();
        Ok(FleetSimulation { config, sims })
    }

    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Applies a fault plan to one cluster's simulation: fleet faults
    /// are cluster-local (node ids in the plan index into that cluster's
    /// own nodes).
    pub fn with_cluster_faults(mut self, cluster: u32, faults: FaultPlan) -> Self {
        let slot = &mut self.sims[cluster as usize];
        *slot = slot.clone().with_faults(faults);
        self
    }

    /// Single-shard, single-worker run — the reference executions that
    /// every sharded run must reproduce byte for byte.
    pub fn run(&self, workload: &FleetWorkload, seed: u64) -> Result<FleetReport, ServeError> {
        self.run_sharded(workload, seed, 1, 1)
    }

    /// Runs the fleet with clusters grouped into `shards` contiguous
    /// blocks, advanced by up to `workers` threads between barriers.
    /// Sharding and worker count are pure execution policy: the returned
    /// report is byte-identical for every choice.
    pub fn run_sharded(
        &self,
        workload: &FleetWorkload,
        seed: u64,
        shards: usize,
        workers: usize,
    ) -> Result<FleetReport, ServeError> {
        self.run_sharded_traced(workload, seed, shards, workers)
            .map(|(report, _)| report)
    }

    /// [`Self::run_sharded`] plus the fleet-merged trace: each cluster
    /// records its events into its own banked buffer (so work-stealing
    /// never mixes clusters), and the parts are stitched in cluster
    /// order ([`Trace::chain`]) — the trace is byte-identical for every
    /// `(shards, workers)` too. Empty unless tracing is enabled.
    pub fn run_sharded_traced(
        &self,
        workload: &FleetWorkload,
        seed: u64,
        shards: usize,
        workers: usize,
    ) -> Result<(FleetReport, Trace), ServeError> {
        self.run_sharded_parts(workload, seed, shards, workers)
            .map(|(report, parts)| (report, Trace::chain(parts)))
    }

    /// [`Self::run_sharded_traced`] without the final stitch: the
    /// per-cluster trace parts come back in cluster order, still
    /// cluster-owned. This is the serving path's boundary — banking
    /// events is the run-time cost of tracing; stitching the parts into
    /// one fleet trace is analysis-plane work ([`Trace::chain`] is a
    /// flat copy the overhead figure excludes from its timed region, as
    /// it excludes attribution and the incident snapshot).
    pub fn run_sharded_parts(
        &self,
        workload: &FleetWorkload,
        seed: u64,
        shards: usize,
        workers: usize,
    ) -> Result<(FleetReport, Vec<Trace>), ServeError> {
        if workload.phases.is_empty() {
            return Err(ServeError::Fleet("the fleet workload has no phases"));
        }
        if !workload
            .phases
            .iter()
            .all(|p| p.rps.is_finite() && p.rps > 0.0)
        {
            return Err(ServeError::Fleet("fleet phase rates must be positive"));
        }
        let clusters = self.config.clusters as usize;
        let locality_sum: f64 = self.config.locality.iter().sum();
        let shares: Vec<f64> = self
            .config
            .locality
            .iter()
            .map(|l| l / locality_sum)
            .collect();

        // Per-cluster view of the workload: the phase table carries each
        // cluster's locality share of the offered rate (so merged
        // per-phase `offered_rps` sums back to the fleet rate) and zero
        // request quota — fleet phases are time-bounded, and the actual
        // admission rate is re-gossiped every epoch.
        let cluster_workloads: Vec<Workload> = (0..clusters)
            .map(|c| Workload {
                phases: workload
                    .phases
                    .iter()
                    .map(|p| TrafficPhase {
                        rps: p.rps * shares[c],
                        requests: 0,
                    })
                    .collect(),
                arrivals: workload.arrivals.substream(c as u32),
            })
            .collect();

        let mut runs: Vec<Run<'_>> = Vec::with_capacity(clusters);
        for c in 0..clusters {
            let mut run = self.sims[c].fleet_cluster(
                &cluster_workloads[c],
                split_seed(seed, c as u64),
                c as u32,
                workload.phases[0].rps * shares[c],
            )?;
            run.set_phase(0, workload.phases[0].service_multiplier);
            runs.push(run);
        }

        let mut phase_ends = Vec::with_capacity(workload.phases.len());
        let mut end = SimTime::ZERO;
        for p in &workload.phases {
            end += p.duration;
            phase_ends.push(end);
        }
        let total_end = end;
        let epoch = self.config.epoch;
        let next_barrier = |now: SimTime, phase: usize| {
            (now.as_nanos() < total_end.as_nanos()).then(|| (now + epoch).min(phase_ends[phase]))
        };

        // Each shard is a contiguous block of clusters; the persistent
        // workers advance the blocks between barriers.
        let mut until = next_barrier(SimTime::ZERO, 0);
        if until.is_none() {
            for run in runs.iter_mut() {
                run.stop_accepting();
            }
        }
        let group = clusters.div_ceil(shards.clamp(1, clusters));
        let mut runs = runs.into_iter();
        let mut blocks: Vec<Block<'_>> = (0..clusters.div_ceil(group))
            .map(|_| Block {
                runs: runs.by_ref().take(group).collect(),
                until,
                finished: Vec::new(),
            })
            .collect();

        let threshold = self.config.spill_threshold as usize;
        let hop_ns = u32::try_from(self.config.forward_latency.as_nanos()).unwrap_or(u32::MAX);
        let mut receivers: Vec<usize> = Vec::with_capacity(clusters);
        let mut queued: Vec<usize> = vec![0; clusters];
        let mut weights: Vec<f64> = vec![0.0; clusters];
        // Forwarding hops get fleet-unique ids in shed order; `pending`
        // holds one barrier's `(origin, local request id)` sheds and
        // `hop_batch` one receiver's `(hop, origin)` slice of them.
        let mut next_hop = 0u32;
        let mut shed_scratch: Vec<u64> = Vec::new();
        let mut pending: Vec<(usize, u64)> = Vec::new();
        let mut hop_batch: Vec<(u32, u16)> = Vec::new();
        let mut phase = 0usize;
        barrier::drive(&mut blocks, workers, Block::step, |blocks| {
            // The step after the last barrier drained and reported.
            let Some(barrier) = until else {
                return false;
            };
            let mut runs: Vec<&mut Run<'_>> =
                blocks.iter_mut().flat_map(|b| b.runs.iter_mut()).collect();

            // ---- coordinator: the only cross-cluster code, sequential
            // and in cluster order, so it is oblivious to sharding.
            for (c, run) in runs.iter().enumerate() {
                queued[c] = run.queued();
            }

            // Spillover: saturated clusters shed their newest queued
            // requests; receivers (drained-most first) absorb them after
            // the forwarding hop. Skipped when the whole fleet is hot —
            // moving work between saturated clusters only adds latency.
            receivers.clear();
            receivers.extend((0..clusters).filter(|&c| queued[c] <= threshold));
            if receivers.len() < clusters && !receivers.is_empty() {
                let mut shed_total = 0u64;
                pending.clear();
                for c in 0..clusters {
                    if queued[c] > threshold {
                        shed_scratch.clear();
                        shed_total += runs[c].spill_excess(threshold, &mut shed_scratch);
                        pending.extend(shed_scratch.iter().map(|&req| (c, req)));
                        queued[c] = threshold;
                    }
                }
                if shed_total > 0 {
                    receivers.sort_by_key(|&c| (queued[c], c));
                    let at = barrier + self.config.forward_latency;
                    let base = shed_total / receivers.len() as u64;
                    let rem = (shed_total % receivers.len() as u64) as usize;
                    // Receivers take consecutive slices of the shed list;
                    // each hop is noted at its origin (Forward) and
                    // announced to its receiver (→ RemoteAdmit).
                    let mut cursor = 0usize;
                    for (k, &c) in receivers.iter().enumerate() {
                        let take = (base + u64::from(k < rem)) as usize;
                        hop_batch.clear();
                        for &(origin, req) in &pending[cursor..cursor + take] {
                            let hop = next_hop;
                            next_hop += 1;
                            runs[origin].note_forward(barrier, req, hop, c as u16);
                            hop_batch.push((hop, origin as u16));
                        }
                        cursor += take;
                        runs[c].inject_forwarded(at, &hop_batch, hop_ns);
                    }
                }
            }

            let now = barrier;
            if now.as_nanos() >= phase_ends[phase].as_nanos() {
                phase += 1;
                if phase < workload.phases.len() {
                    for run in runs.iter_mut() {
                        run.set_phase(phase as u16, workload.phases[phase].service_multiplier);
                    }
                }
            }

            // Rate gossip for the next epoch: each cluster's locality
            // weight, discounted by its backlog per usable replica.
            if phase < workload.phases.len() {
                let mut sum = 0.0;
                for c in 0..clusters {
                    let usable = runs[c].usable_replicas().max(1);
                    let backlog = queued[c] as f64 / f64::from(usable);
                    weights[c] = shares[c] / (1.0 + backlog);
                    sum += weights[c];
                }
                let rps = workload.phases[phase].rps;
                for c in 0..clusters {
                    runs[c].set_rate(rps * weights[c] / sum, now);
                }
            }

            // Workload over: stop admitting; the next step drains every
            // backlog (spilled requests still in flight land during the
            // drain) and reports.
            until = next_barrier(now, phase);
            if until.is_none() {
                for run in runs.iter_mut() {
                    run.stop_accepting();
                }
            }
            for block in blocks.iter_mut() {
                block.until = until;
            }
            true
        });

        let mut reports: Vec<ServeReport> = Vec::with_capacity(clusters);
        let mut digests: Vec<u64> = Vec::with_capacity(clusters);
        let mut parts: Vec<Trace> = Vec::with_capacity(clusters);
        for (report, digest, trace) in blocks.into_iter().flat_map(|b| b.finished) {
            reports.push(report);
            digests.push(digest);
            parts.push(trace);
        }
        Ok((FleetReport::merge_digested(&reports, digests), parts))
    }
}

/// A shard: a contiguous block of clusters.
struct Block<'a> {
    runs: Vec<Run<'a>>,
    /// The barrier to advance to; `None` once the workload is over.
    until: Option<SimTime>,
    /// Each cluster's report, its digest and its trace, once drained.
    finished: Vec<(ServeReport, u64, Trace)>,
}

impl Block<'_> {
    fn step(&mut self) {
        match self.until {
            Some(until) => {
                for run in &mut self.runs {
                    run.advance_until(until);
                }
            }
            // Drain and report here, so the per-cluster report work
            // (billing, histogram folds, closing the record digest) runs
            // on the workers too.
            None => self
                .finished
                .extend(self.runs.drain(..).map(|run| run.finish())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_deploy::planners;
    use chiron_model::apps;

    fn fleet(clusters: u32) -> FleetSimulation {
        let wf = apps::finra(12);
        let plan = planners::faastlane_plus(&wf);
        FleetSimulation::new(wf, plan, FleetConfig::paper_fleet(clusters)).unwrap()
    }

    #[test]
    fn fleet_seeds_differ_across_clusters_and_runs() {
        let sim = fleet(3);
        let workload = FleetWorkload::steady(150.0, SimDuration::from_millis(4_000));
        let a = sim.run(&workload, 1).unwrap();
        let b = sim.run(&workload, 1).unwrap();
        assert_eq!(a.digest(), b.digest());
        let c = sim.run(&workload, 2).unwrap();
        assert_ne!(a.digest(), c.digest());
        // Substreams decorrelate the clusters: identical configs must not
        // produce identical per-cluster outcomes.
        assert!(
            a.cluster_digests.windows(2).any(|w| w[0] != w[1]),
            "clusters replayed the same stream"
        );
    }

    #[test]
    fn regime_sensor_detects_injected_service_shift() {
        let wf = apps::finra(12);
        let plan = planners::faastlane_plus(&wf);
        let config = FleetConfig::paper_fleet(2).with_cluster(
            ServeConfig::paper_testbed().with_regime(chiron_obs::RegimeConfig::default()),
        );
        let sim = FleetSimulation::new(wf, plan, config).unwrap();
        let workload = FleetWorkload {
            phases: vec![
                FleetPhase {
                    rps: 400.0,
                    duration: SimDuration::from_millis(6_000),
                    service_multiplier: 1.0,
                },
                FleetPhase {
                    rps: 400.0,
                    duration: SimDuration::from_millis(4_000),
                    service_multiplier: 1.8,
                },
            ],
            arrivals: ArrivalProcess::Poisson { seed: 0 },
        };
        let report = sim.run(&workload, 3).unwrap();
        assert!(
            report.regime_changes > 0,
            "sensor must fire on the injected service-time shift"
        );
    }

    #[test]
    fn locality_weights_steer_admission() {
        let wf = apps::finra(12);
        let plan = planners::faastlane_plus(&wf);
        let config = FleetConfig::paper_fleet(2).with_locality(vec![3.0, 1.0]);
        let sim = FleetSimulation::new(wf, plan, config).unwrap();
        let workload = FleetWorkload::steady(200.0, SimDuration::from_millis(5_000));
        let report = sim.run(&workload, 7).unwrap();
        // The merged phase summary carries each cluster's offered share.
        assert_eq!(report.clusters, 2);
        assert!((report.phases[0].offered_rps - 200.0).abs() < 1e-6);
        assert!(report.lost == 0);
    }
}

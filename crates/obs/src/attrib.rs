//! Latency attribution: per-request critical-path reconstruction and an
//! exact decomposition of sojourn time into the paper's additive
//! components, extended to the serving plane.
//!
//! [`attribute`] consumes one serving run's [`Trace`] and, for every
//! request, replays the causal chain
//! Arrival→Enqueue→Dispatch→(Requeue…)→Complete. The chain tiles the
//! sojourn with no gaps — every nanosecond between arrival and completion
//! is inside exactly one wait, lost-dispatch or service interval — so the
//! decomposition into six components is *exact by construction*, not a
//! model fit:
//!
//! * **queueing** — time on a router queue shard, minus any part of the
//!   final wait spent behind the serving replica's cold start;
//! * **cold_start** — the overlap of a wait with the serving replica's
//!   `[spawn, ready)` window when the dispatch paid a cold start, plus
//!   the per-request in-DES startup share of the service window (the
//!   paper's *startup* component);
//! * **gil_block** — the service window's share of GIL/fork-barrier/
//!   scheduler waits (the paper's *block* component);
//! * **interaction** — the service window's share of transfers + IPC;
//! * **execution** — the service window's share of bytecode + syscalls;
//! * **retry** — dispatch windows destroyed by node crashes (work done,
//!   then lost, before heartbeat detection re-queued the request).
//!
//! The serving simulator treats a replica's service time as one scalar,
//! so the split of the service window among the last four components
//! comes from the DES itself: `CompiledPlan::replay` emits a
//! [`TraceEventKind::DesBreakdown`] per function window (§2.2's additive
//! model) during the run's warm profiling execute, and the aggregate
//! shares are apportioned over each request's service window by
//! largest-remainder rounding — integer maths, so per-request components
//! still sum exactly to the sojourn.
//!
//! Everything here is deterministic: reports carry no wall-clock, no
//! hashes of pointer identity, and iterate in sorted key order, so two
//! runs of the same workload produce byte-identical [`AttributionReport::render`]
//! output regardless of `--workers`.

use crate::intern::resolve;
use crate::perfetto::TraceWriter;
use crate::trace::{Trace, TraceEventKind};
use std::collections::HashMap;
use std::fmt::Write as _;

/// The seven serving latency components, in canonical (render and
/// tie-break) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    Queueing,
    ColdStart,
    GilBlock,
    Interaction,
    Execution,
    Retry,
    /// Cross-cluster hop latency of a spilled (forwarded) request — the
    /// fleet's federation tax, carried by `Forward`/`RemoteAdmit` events.
    Forwarding,
}

impl Component {
    pub const ALL: [Component; 7] = [
        Component::Queueing,
        Component::ColdStart,
        Component::GilBlock,
        Component::Interaction,
        Component::Execution,
        Component::Retry,
        Component::Forwarding,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Component::Queueing => "queueing",
            Component::ColdStart => "cold_start",
            Component::GilBlock => "gil_block",
            Component::Interaction => "interaction",
            Component::Execution => "execution",
            Component::Retry => "retry",
            Component::Forwarding => "forwarding",
        }
    }

    pub fn index(self) -> usize {
        Component::ALL
            .iter()
            .position(|&c| c == self)
            .expect("in ALL")
    }
}

/// One request's exact decomposition: `components` (indexed by
/// [`Component::index`]) sum to `sojourn_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestAttribution {
    pub request: u64,
    pub phase: u16,
    pub sojourn_ns: u64,
    pub components: [u64; 7],
}

impl RequestAttribution {
    pub fn sums_exact(&self) -> bool {
        self.components.iter().sum::<u64>() == self.sojourn_ns
    }
}

/// Distribution summary of one component within a profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComponentStats {
    pub total_ns: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// Per-`(workflow, plan, stage)` component profile. `stage: None` is the
/// end-to-end serving profile (samples = requests, all seven components);
/// `Some(s)` is the DES profile of stage `s` (samples = function
/// windows, the four in-service components — queueing/retry/forwarding
/// are serving phenomena and stay zero).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentProfile {
    pub stage: Option<u16>,
    pub samples: u64,
    pub components: [ComponentStats; 7],
}

/// The attribution of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionReport {
    /// Workflow name from the trace's `RunContext` (placeholder when the
    /// trace carries none).
    pub workflow: String,
    /// Structural plan digest from `RunContext`.
    pub plan: u64,
    /// Per-request decompositions, in request-id order. Only completed
    /// requests appear.
    pub requests: Vec<RequestAttribution>,
    /// End-to-end (stage `None`) first, then DES stage profiles in stage
    /// order.
    pub profiles: Vec<ComponentProfile>,
    /// Accepted requests that never completed (trace truncated or lost).
    pub incomplete: u64,
    /// Requests that left this trace's clusters via spillover (their
    /// sojourn completes under the destination cluster's id, where the
    /// hop latency shows up as `forwarding` blame).
    pub forwarded_out: u64,
    /// The DES service-window weights used for apportionment, in
    /// `[startup, blocked, interaction, exec]` order (all zero when the
    /// trace carried no `DesBreakdown` events — the whole service window
    /// then counts as execution).
    pub service_weights: [u64; 4],
    /// The cold-start blame total split by start tier, in
    /// [`COLD_TIER_SLOTS`] order. Sums *exactly* to the end-to-end
    /// `cold_start` component total: the first three slots are the
    /// pre-dispatch startup-wait overlaps bucketed by the serving
    /// replica's tier, the fourth the in-sandbox DES startup share.
    pub cold_start_by_tier: [u64; 4],
}

/// Splits `total` into integer parts proportional to `weights`, exactly:
/// the parts always sum to `total` (largest-remainder rounding, ties
/// broken by position). All-zero weights put everything in the last part.
fn apportion(total: u64, weights: [u64; 4]) -> [u64; 4] {
    let sum: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    if sum == 0 {
        return [0, 0, 0, total];
    }
    let mut parts = [0u64; 4];
    let mut rems = [0u128; 4];
    let mut assigned: u64 = 0;
    for i in 0..4 {
        let num = u128::from(total) * u128::from(weights[i]);
        parts[i] = (num / sum) as u64;
        rems[i] = num % sum;
        assigned += parts[i];
    }
    let mut leftover = total - assigned; // < 4
    while leftover > 0 {
        // Largest remainder wins; ties go to the earliest component.
        let mut best = 0;
        for i in 1..4 {
            if rems[i] > rems[best] {
                best = i;
            }
        }
        parts[best] += 1;
        rems[best] = 0;
        leftover -= 1;
    }
    parts
}

/// Nearest-rank percentile (`num/den`, e.g. 99/100) of a sorted slice.
fn percentile_ns(sorted: &[u64], num: u64, den: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (num * n).div_ceil(den).max(1);
    sorted[(rank - 1) as usize]
}

fn overlap(a_start: u64, a_end: u64, b_start: u64, b_end: u64) -> u64 {
    let lo = a_start.max(b_start);
    let hi = a_end.min(b_end);
    hi.saturating_sub(lo)
}

/// Names of [`AttributionReport::cold_start_by_tier`] slots, in order:
/// the three start tiers with a nonzero on-path window, then the DES
/// in-sandbox startup share of the service window.
pub const COLD_TIER_SLOTS: [&str; 4] = ["snapshot", "zygote", "coldboot", "in_sandbox"];

/// Maps a `ReplicaSpawn` tier code onto a [`COLD_TIER_SLOTS`] bucket.
/// Warm handovers (code 0) have no startup window; any blame that still
/// lands there (a malformed trace) is read conservatively as cold boot.
fn tier_bucket(tier: u8) -> usize {
    match tier {
        1 => 0,
        2 => 1,
        _ => 2,
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ReplicaWindow {
    spawn_ns: u64,
    ready_ns: Option<u64>,
    cold: bool,
    tier: u8,
}

#[derive(Debug, Clone, Copy)]
struct RequestState {
    arrival_ns: u64,
    phase: u16,
    wait_start_ns: u64,
    open_dispatch: Option<(u64, u32)>,
    components: [u64; 7],
    /// Startup-wait overlap per serving tier, `[snapshot, zygote,
    /// coldboot]` — the tier split of the request's pre-dispatch
    /// cold-start blame.
    cold_by_tier: [u64; 3],
}

/// Reconstructs the critical path of every request in `trace` and
/// decomposes each sojourn exactly (see module docs). Deterministic:
/// byte-identical [`AttributionReport::render`] output for byte-identical
/// traces.
pub fn attribute(trace: &Trace) -> AttributionReport {
    // Pass 1: run identity, replica cold windows and the DES component
    // profile. DES events carry the profiling execute's own clock, so
    // they interleave arbitrarily with serving times — a separate pass
    // keeps the profile independent of that interleaving.
    let mut workflow: Option<(u32, u64)> = None;
    let mut replicas: HashMap<u32, ReplicaWindow> = HashMap::new();
    let mut service_weights = [0u64; 4];
    // Per-stage DES samples: [startup, blocked, interaction, exec] per
    // function window.
    let mut stage_samples: HashMap<u16, [Vec<u64>; 4]> = HashMap::new();
    for e in &trace.events {
        match e.kind {
            TraceEventKind::RunContext { workflow: w, plan } => workflow = Some((w, plan)),
            TraceEventKind::ReplicaSpawn {
                replica,
                cold,
                tier,
                ..
            } => {
                replicas.insert(
                    replica,
                    ReplicaWindow {
                        spawn_ns: e.time_ns,
                        ready_ns: None,
                        cold,
                        tier,
                    },
                );
            }
            TraceEventKind::ReplicaReady { replica } => {
                if let Some(w) = replicas.get_mut(&replica) {
                    w.ready_ns.get_or_insert(e.time_ns);
                }
            }
            TraceEventKind::DesBreakdown {
                stage,
                startup_ns,
                blocked_ns,
                interaction_ns,
                exec_ns,
                ..
            } => {
                let parts = [
                    u64::from(startup_ns),
                    u64::from(blocked_ns),
                    u64::from(interaction_ns),
                    u64::from(exec_ns),
                ];
                for (w, p) in service_weights.iter_mut().zip(parts) {
                    *w += p;
                }
                let samples = stage_samples.entry(stage).or_default();
                for (vec, p) in samples.iter_mut().zip(parts) {
                    vec.push(p);
                }
            }
            _ => {}
        }
    }

    // Pass 2: request lifecycles in event order.
    let mut states: HashMap<u64, RequestState> = HashMap::new();
    let mut done: Vec<RequestAttribution> = Vec::new();
    let mut cold_start_by_tier = [0u64; 4];
    let mut forwarded_out: u64 = 0;
    for e in &trace.events {
        match e.kind {
            TraceEventKind::Arrival { request, phase } => {
                // A forwarded request's state was already opened by its
                // `RemoteAdmit` (same stamp, emitted first) — the local
                // Arrival only contributes the phase tag then.
                if let Some(s) = states.get_mut(&request) {
                    s.phase = phase;
                } else {
                    states.insert(
                        request,
                        RequestState {
                            arrival_ns: e.time_ns,
                            phase,
                            wait_start_ns: e.time_ns,
                            open_dispatch: None,
                            components: [0; 7],
                            cold_by_tier: [0; 3],
                        },
                    );
                }
            }
            TraceEventKind::RemoteAdmit {
                request, hop_ns, ..
            } => {
                // The request's life started on the wire `hop_ns` ago:
                // its sojourn covers the hop, attributed exactly to the
                // `forwarding` component, and local waiting starts now.
                let mut s = RequestState {
                    arrival_ns: e.time_ns.saturating_sub(u64::from(hop_ns)),
                    phase: 0,
                    wait_start_ns: e.time_ns,
                    open_dispatch: None,
                    components: [0; 7],
                    cold_by_tier: [0; 3],
                };
                s.components[Component::Forwarding.index()] = u64::from(hop_ns);
                states.insert(request, s);
            }
            TraceEventKind::Forward { request, .. } => {
                // The origin-side id dies here; the sojourn continues
                // (and completes) under the destination cluster's id.
                forwarded_out += u64::from(states.remove(&request).is_some());
            }
            TraceEventKind::Enqueue { request, .. } => {
                if let Some(s) = states.get_mut(&request) {
                    if s.open_dispatch.is_none() {
                        s.wait_start_ns = s.wait_start_ns.min(e.time_ns).max(s.arrival_ns);
                    }
                }
            }
            TraceEventKind::Dispatch {
                request,
                replica,
                cold,
                ..
            } => {
                let Some(s) = states.get_mut(&request) else {
                    continue;
                };
                let wait = e.time_ns.saturating_sub(s.wait_start_ns);
                let (cold_part, tier) = if cold {
                    replicas
                        .get(&replica)
                        .filter(|w| w.cold)
                        .and_then(|w| {
                            w.ready_ns.map(|r| {
                                (overlap(s.wait_start_ns, e.time_ns, w.spawn_ns, r), w.tier)
                            })
                        })
                        .unwrap_or((0, 3))
                } else {
                    (0, 3)
                };
                s.components[Component::ColdStart.index()] += cold_part;
                s.cold_by_tier[tier_bucket(tier)] += cold_part;
                s.components[Component::Queueing.index()] += wait - cold_part;
                s.open_dispatch = Some((e.time_ns, replica));
            }
            TraceEventKind::Requeue { request, .. } => {
                let Some(s) = states.get_mut(&request) else {
                    continue;
                };
                if let Some((d, _)) = s.open_dispatch.take() {
                    s.components[Component::Retry.index()] += e.time_ns.saturating_sub(d);
                }
                s.wait_start_ns = e.time_ns;
            }
            TraceEventKind::Complete { request, .. } => {
                let Some(mut s) = states.remove(&request) else {
                    continue;
                };
                let Some((d, _)) = s.open_dispatch else {
                    continue;
                };
                let service = e.time_ns.saturating_sub(d);
                let parts = apportion(service, service_weights);
                s.components[Component::ColdStart.index()] += parts[0];
                s.components[Component::GilBlock.index()] += parts[1];
                s.components[Component::Interaction.index()] += parts[2];
                s.components[Component::Execution.index()] += parts[3];
                // Commit the completed request's cold-start blame to the
                // per-tier split: pre-dispatch startup waits by serving
                // tier, then the DES in-sandbox startup share.
                for (total, part) in cold_start_by_tier.iter_mut().zip(s.cold_by_tier) {
                    *total += part;
                }
                cold_start_by_tier[3] += parts[0];
                done.push(RequestAttribution {
                    request,
                    phase: s.phase,
                    sojourn_ns: e.time_ns - s.arrival_ns,
                    components: s.components,
                });
            }
            _ => {}
        }
    }
    let incomplete = states.len() as u64;
    done.sort_by_key(|r| r.request);

    // End-to-end profile over requests.
    let mut profiles = Vec::with_capacity(1 + stage_samples.len());
    let mut e2e = ComponentProfile {
        stage: None,
        samples: done.len() as u64,
        components: [ComponentStats::default(); 7],
    };
    let mut sorted: Vec<u64> = Vec::with_capacity(done.len());
    for c in Component::ALL {
        let i = c.index();
        sorted.clear();
        sorted.extend(done.iter().map(|r| r.components[i]));
        sorted.sort_unstable();
        e2e.components[i] = ComponentStats {
            total_ns: sorted.iter().sum(),
            p50_ns: percentile_ns(&sorted, 50, 100),
            p99_ns: percentile_ns(&sorted, 99, 100),
        };
    }
    profiles.push(e2e);

    // DES stage profiles, in stage order. The DES components map onto
    // {cold_start, gil_block, interaction, execution}.
    let mut stages: Vec<u16> = stage_samples.keys().copied().collect();
    stages.sort_unstable();
    const DES_SLOTS: [Component; 4] = [
        Component::ColdStart,
        Component::GilBlock,
        Component::Interaction,
        Component::Execution,
    ];
    for stage in stages {
        let samples = &stage_samples[&stage];
        let mut profile = ComponentProfile {
            stage: Some(stage),
            samples: samples[0].len() as u64,
            components: [ComponentStats::default(); 7],
        };
        for (slot, values) in DES_SLOTS.iter().zip(samples.iter()) {
            let mut v = values.clone();
            v.sort_unstable();
            profile.components[slot.index()] = ComponentStats {
                total_ns: v.iter().sum(),
                p50_ns: percentile_ns(&v, 50, 100),
                p99_ns: percentile_ns(&v, 99, 100),
            };
        }
        profiles.push(profile);
    }

    let (workflow, plan) = match workflow {
        Some((id, plan)) => (resolve(id), plan),
        None => ("<unknown>".to_string(), 0),
    };
    AttributionReport {
        workflow,
        plan,
        requests: done,
        profiles,
        incomplete,
        forwarded_out,
        service_weights,
        cold_start_by_tier,
    }
}

impl AttributionReport {
    /// Whether every request's seven components sum exactly to its
    /// sojourn — the report's defining invariant.
    pub fn sums_exact(&self) -> bool {
        self.requests.iter().all(RequestAttribution::sums_exact)
    }

    /// Total blame per component across all requests, heaviest first
    /// (ties broken by canonical component order).
    pub fn blame_ranking(&self) -> Vec<(Component, u64)> {
        let e2e = &self.profiles[0];
        let mut out: Vec<(Component, u64)> = Component::ALL
            .iter()
            .map(|&c| (c, e2e.components[c.index()].total_ns))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
        out
    }

    /// The full deterministic text form — header, per-request lines and
    /// profiles. This is the byte string the `--workers` invariance gates
    /// compare.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64 + self.requests.len() * 96);
        let _ = writeln!(
            out,
            "attribution workflow={} plan={:016x} requests={} incomplete={} forwarded_out={} weights={:?}",
            self.workflow,
            self.plan,
            self.requests.len(),
            self.incomplete,
            self.forwarded_out,
            self.service_weights,
        );
        for r in &self.requests {
            let _ = writeln!(
                out,
                "req {:>6} phase {} sojourn {:>12} q {:>12} cs {:>12} gb {:>12} ia {:>12} ex {:>12} rt {:>12} fw {:>12}",
                r.request,
                r.phase,
                r.sojourn_ns,
                r.components[0],
                r.components[1],
                r.components[2],
                r.components[3],
                r.components[4],
                r.components[5],
                r.components[6],
            );
        }
        out.push_str(&self.render_profiles());
        out
    }

    /// Just the profile/summary part of [`AttributionReport::render`] —
    /// the human-sized view.
    pub fn render_profiles(&self) -> String {
        let mut out = String::new();
        for p in &self.profiles {
            let scope = match p.stage {
                None => "e2e".to_string(),
                Some(s) => format!("stage {s}"),
            };
            let _ = writeln!(out, "profile {scope} samples={}", p.samples);
            for c in Component::ALL {
                let s = p.components[c.index()];
                if p.stage.is_some()
                    && matches!(
                        c,
                        Component::Queueing | Component::Retry | Component::Forwarding
                    )
                {
                    continue; // serving-only components: always zero in DES profiles
                }
                let _ = writeln!(
                    out,
                    "  {:<11} total {:>15} p50 {:>12} p99 {:>12}",
                    c.name(),
                    s.total_ns,
                    s.p50_ns,
                    s.p99_ns,
                );
            }
        }
        let _ = write!(out, "cold_by_tier");
        for (name, total) in COLD_TIER_SLOTS.iter().zip(self.cold_start_by_tier) {
            let _ = write!(out, " {name}={total}");
        }
        out.push('\n');
        for (c, total) in self.blame_ranking() {
            let _ = writeln!(out, "blame {:<11} {total}", c.name());
        }
        out
    }

    /// FNV-1a over [`AttributionReport::render`] bytes.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.render().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Folded-stack flame output (`stack;frames count`, one line per
    /// leaf), self-contained for `flamegraph.pl`-style tools. Counts are
    /// total nanoseconds.
    pub fn folded_flame(&self) -> String {
        let mut out = String::new();
        for p in &self.profiles {
            for c in Component::ALL {
                let total = p.components[c.index()].total_ns;
                if total == 0 {
                    continue;
                }
                match p.stage {
                    None => {
                        let _ = writeln!(out, "{};serving;{} {total}", self.workflow, c.name());
                    }
                    Some(s) => {
                        let _ =
                            writeln!(out, "{};des;stage{s};{} {total}", self.workflow, c.name());
                    }
                }
            }
        }
        out
    }

    /// A Chrome/Perfetto counter track of cumulative component blame
    /// (milliseconds) sampled at each request completion, importable next
    /// to the `serve_trace` export.
    pub fn counter_track(&self, completions: &[(u64, u64)]) -> String {
        const BLAME: (u32, u32) = (9997, 0);
        let mut w = TraceWriter::default();
        w.process_name(BLAME.0, "component blame");
        let by_request: HashMap<u64, &RequestAttribution> =
            self.requests.iter().map(|r| (r.request, r)).collect();
        let mut cumulative = [0u64; 7];
        for &(time_ns, request) in completions {
            let Some(r) = by_request.get(&request) else {
                continue;
            };
            w.counter(BLAME, time_ns, "blame_ms");
            for ((acc, c), component) in cumulative.iter_mut().zip(r.components).zip(Component::ALL)
            {
                *acc += c;
                w.arg(component.name(), format_args!("{:.3}", *acc as f64 / 1e6));
            }
        }
        w.finish(format_args!("\"samples\":{}", completions.len()))
    }

    /// `(completion time, request)` pairs for [`Self::counter_track`],
    /// extracted from the same trace in event order.
    pub fn completions(trace: &Trace) -> Vec<(u64, u64)> {
        trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Complete { request, .. } => Some((e.time_ns, request)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn ev(time_ns: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { time_ns, kind }
    }

    fn sample_trace() -> Trace {
        let wf = crate::intern::intern("attrib-test-wf");
        Trace {
            events: vec![
                ev(
                    0,
                    TraceEventKind::RunContext {
                        workflow: wf,
                        plan: 0xabc,
                    },
                ),
                ev(
                    0,
                    TraceEventKind::ReplicaSpawn {
                        replica: 0,
                        node: 0,
                        cold: false,
                        tier: 0,
                    },
                ),
                ev(0, TraceEventKind::ReplicaReady { replica: 0 }),
                // DES profile: 0 startup, 250 blocked, 250 interaction,
                // 500 exec per 1000 ns of service.
                ev(
                    10,
                    TraceEventKind::DesBreakdown {
                        function: 0,
                        stage: 0,
                        startup_ns: 0,
                        blocked_ns: 250,
                        interaction_ns: 250,
                        exec_ns: 500,
                    },
                ),
                // Request 0: plain warm path, 500 ns queue + 1000 ns service.
                ev(
                    1000,
                    TraceEventKind::Arrival {
                        request: 0,
                        phase: 0,
                    },
                ),
                ev(
                    1000,
                    TraceEventKind::Enqueue {
                        request: 0,
                        shard: -1,
                    },
                ),
                ev(
                    1500,
                    TraceEventKind::Dispatch {
                        request: 0,
                        replica: 0,
                        node: 0,
                        cold: false,
                    },
                ),
                ev(
                    2500,
                    TraceEventKind::Complete {
                        request: 0,
                        replica: 0,
                    },
                ),
                // Request 1: waits behind replica 1's cold start, loses its
                // first dispatch to a crash, finishes on replica 0.
                ev(
                    2000,
                    TraceEventKind::ReplicaSpawn {
                        replica: 1,
                        node: 1,
                        cold: true,
                        tier: 1,
                    },
                ),
                ev(
                    2100,
                    TraceEventKind::Arrival {
                        request: 1,
                        phase: 0,
                    },
                ),
                ev(
                    2100,
                    TraceEventKind::Enqueue {
                        request: 1,
                        shard: -1,
                    },
                ),
                ev(2167, TraceEventKind::ReplicaReady { replica: 1 }),
                ev(
                    2167,
                    TraceEventKind::Dispatch {
                        request: 1,
                        replica: 1,
                        node: 1,
                        cold: true,
                    },
                ),
                ev(
                    2200,
                    TraceEventKind::Requeue {
                        request: 1,
                        replica: 1,
                    },
                ),
                ev(
                    2300,
                    TraceEventKind::Dispatch {
                        request: 1,
                        replica: 0,
                        node: 0,
                        cold: false,
                    },
                ),
                ev(
                    2800,
                    TraceEventKind::Complete {
                        request: 1,
                        replica: 0,
                    },
                ),
            ],
        }
    }

    #[test]
    fn apportion_is_exact_for_any_weights() {
        for total in [0u64, 1, 7, 999, 1_000_000_007] {
            for weights in [
                [0, 0, 0, 0],
                [1, 1, 1, 1],
                [3, 0, 0, 1],
                [u64::MAX / 8, 1, 2, 3],
            ] {
                let parts = apportion(total, weights);
                assert_eq!(parts.iter().sum::<u64>(), total, "{total} {weights:?}");
            }
        }
        // All-zero weights fall through to execution (last slot).
        assert_eq!(apportion(100, [0, 0, 0, 0]), [0, 0, 0, 100]);
        // Ties break toward the earliest component.
        assert_eq!(apportion(3, [1, 1, 1, 1]).iter().sum::<u64>(), 3);
    }

    #[test]
    fn incomplete_requests_are_counted_not_attributed() {
        let mut trace = sample_trace();
        trace.events.push(ev(
            9000,
            TraceEventKind::Arrival {
                request: 7,
                phase: 0,
            },
        ));
        let report = attribute(&trace);
        assert_eq!(report.incomplete, 1);
        assert_eq!(report.requests.len(), 2);
    }
}

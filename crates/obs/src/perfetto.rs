//! Whole-run Perfetto/Chrome trace export.
//!
//! Renders a captured serving [`Trace`] as one Trace Event Format
//! document: one process per cluster node (`pid = 1000 + node`), one
//! thread per replica (`tid = replica`), and per-request complete events
//! for every life-cycle phase —
//!
//! * `queue` — arrival (or re-queue) until dispatch, drawn on the track
//!   of the replica that eventually served the request;
//! * `exec` — dispatch until completion;
//! * `exec (lost)` — dispatch until failure detection, for work a node
//!   crash destroyed;
//! * `cold-start` — replica spawn until ready, when the spawn paid the
//!   sandbox cold start;
//! * instant markers for node kills/detections on a control-plane track.
//!
//! DES span events (single-request `platform::run_wrap` windows) land in
//! a dedicated `pid = 9998` process, one thread per function. Like
//! `chiron-runtime::export`, the JSON is written by hand — this is a
//! write-only format, timestamps in microseconds.

use crate::intern::resolve;
use crate::trace::{Trace, TraceEventKind};
use std::collections::HashMap;
use std::fmt::Write as _;

const NODE_PID_BASE: u32 = 1000;
const CONTROL_PID: u32 = 1;
const DES_PID: u32 = 9998;

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Renders a captured serving trace (see module docs). Valid JSON for
/// any trace, including an empty one.
pub fn serve_trace(trace: &Trace) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };

    push(
        format!(
            "{{\"ph\":\"M\",\"pid\":{CONTROL_PID},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"control-plane\"}}}}"
        ),
        &mut out,
    );

    // Fleet captures carry ClusterContext markers mapping node-id ranges
    // back to clusters; resolve them first so node tracks group by
    // cluster in the UI. Standalone traces have none and keep plain
    // `node N` names.
    let mut cluster_bases: Vec<(u32, u32)> = Vec::new(); // (node_base, cluster)
    for e in &trace.events {
        if let TraceEventKind::ClusterContext {
            cluster, node_base, ..
        } = e.kind
        {
            cluster_bases.push((node_base, cluster));
        }
    }
    cluster_bases.sort_unstable();
    // → (cluster, cluster-local node id) when the trace is a fleet trace.
    let cluster_of = |node: u32| -> Option<(u32, u32)> {
        let idx = cluster_bases.partition_point(|&(base, _)| base <= node);
        idx.checked_sub(1).map(|i| {
            let (base, cluster) = cluster_bases[i];
            (cluster, node - base)
        })
    };

    // Track metadata and replica→node mapping come from spawn events.
    let mut replica_node: HashMap<u32, u32> = HashMap::new();
    let mut named_nodes: Vec<u32> = Vec::new();
    for e in &trace.events {
        if let TraceEventKind::ReplicaSpawn {
            replica,
            node,
            cold,
            tier,
        } = e.kind
        {
            replica_node.insert(replica, node);
            let pid = NODE_PID_BASE + node;
            if !named_nodes.contains(&node) {
                named_nodes.push(node);
                let name = match cluster_of(node) {
                    Some((cluster, local)) => format!("cluster {cluster} node {local}"),
                    None => format!("node {node}"),
                };
                push(
                    format!(
                        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                         \"args\":{{\"name\":\"{name}\"}}}}"
                    ),
                    &mut out,
                );
            }
            // Tier label first (it subsumes the boolean for tiered
            // runs); legacy traces carry tier 0/3, which map back onto
            // the old warm/cold names.
            let kind = match tier {
                1 => "snapshot",
                2 => "zygote",
                _ if cold => "cold",
                _ => "warm",
            };
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{replica},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"replica {replica} ({kind})\"}}}}"
                ),
                &mut out,
            );
        }
    }
    let track = |replica: u32| {
        let node = replica_node.get(&replica).copied().unwrap_or(0);
        (NODE_PID_BASE + node, replica)
    };

    // Request/replica state machines over the time-ordered scan.
    let mut queued_since: HashMap<u64, u64> = HashMap::new();
    let mut executing: HashMap<u64, (u64, bool)> = HashMap::new();
    let mut starting: HashMap<u32, (u64, bool)> = HashMap::new();
    for e in &trace.events {
        match e.kind {
            TraceEventKind::Arrival { .. }
            | TraceEventKind::NodeKill { .. }
            | TraceEventKind::ClusterContext { .. }
            | TraceEventKind::DesBreakdown { .. } => {}
            TraceEventKind::RunContext { workflow, plan } => {
                push(
                    format!(
                        "{{\"ph\":\"i\",\"pid\":{CONTROL_PID},\"tid\":0,\"ts\":{:.3},\
                         \"s\":\"g\",\"name\":\"run {} plan {plan:016x}\"}}",
                        us(e.time_ns),
                        resolve(workflow),
                    ),
                    &mut out,
                );
            }
            TraceEventKind::SloAlert {
                fired,
                short_burn_centi,
                long_burn_centi,
            } => {
                let state = if fired { "fired" } else { "cleared" };
                push(
                    format!(
                        "{{\"ph\":\"i\",\"pid\":{CONTROL_PID},\"tid\":0,\"ts\":{:.3},\
                         \"s\":\"g\",\"name\":\"slo {state} (burn {:.2}/{:.2})\"}}",
                        us(e.time_ns),
                        f64::from(short_burn_centi) / 100.0,
                        f64::from(long_burn_centi) / 100.0,
                    ),
                    &mut out,
                );
            }
            TraceEventKind::Enqueue { request, .. } => {
                queued_since.insert(request, e.time_ns);
            }
            TraceEventKind::Dispatch {
                request,
                replica,
                cold,
                ..
            } => {
                let (pid, tid) = track(replica);
                if let Some(from) = queued_since.remove(&request) {
                    push(
                        format!(
                            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\
                             \"dur\":{:.3},\"name\":\"queue\",\"cname\":\"grey\",\
                             \"args\":{{\"request\":{request}}}}}",
                            us(from),
                            us(e.time_ns - from),
                        ),
                        &mut out,
                    );
                }
                executing.insert(request, (e.time_ns, cold));
            }
            TraceEventKind::Complete { request, replica } => {
                if let Some((from, cold)) = executing.remove(&request) {
                    let (pid, tid) = track(replica);
                    let name = if cold { "exec (cold)" } else { "exec" };
                    push(
                        format!(
                            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\
                             \"dur\":{:.3},\"name\":\"{name}\",\"cname\":\"good\",\
                             \"args\":{{\"request\":{request}}}}}",
                            us(from),
                            us(e.time_ns - from),
                        ),
                        &mut out,
                    );
                }
            }
            TraceEventKind::Requeue { request, replica } => {
                if let Some((from, _)) = executing.remove(&request) {
                    let (pid, tid) = track(replica);
                    push(
                        format!(
                            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\
                             \"dur\":{:.3},\"name\":\"exec (lost)\",\"cname\":\"terrible\",\
                             \"args\":{{\"request\":{request}}}}}",
                            us(from),
                            us(e.time_ns - from),
                        ),
                        &mut out,
                    );
                }
                queued_since.insert(request, e.time_ns);
            }
            TraceEventKind::ReplicaSpawn { replica, cold, .. } => {
                starting.insert(replica, (e.time_ns, cold));
            }
            TraceEventKind::ReplicaReady { replica } => {
                if let Some((from, cold)) = starting.remove(&replica) {
                    if cold && e.time_ns > from {
                        let (pid, tid) = track(replica);
                        push(
                            format!(
                                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\
                                 \"dur\":{:.3},\"name\":\"cold-start\",\"cname\":\"bad\"}}",
                                us(from),
                                us(e.time_ns - from),
                            ),
                            &mut out,
                        );
                    }
                }
            }
            TraceEventKind::ReplicaRetired { replica } => {
                let (pid, tid) = track(replica);
                push(
                    format!(
                        "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\
                         \"s\":\"t\",\"name\":\"retired\"}}",
                        us(e.time_ns),
                    ),
                    &mut out,
                );
            }
            TraceEventKind::NodeDeath { node } => {
                push(
                    format!(
                        "{{\"ph\":\"i\",\"pid\":{CONTROL_PID},\"tid\":0,\"ts\":{:.3},\
                         \"s\":\"g\",\"name\":\"node {node} dead\"}}",
                        us(e.time_ns),
                    ),
                    &mut out,
                );
            }
            TraceEventKind::Forward {
                request,
                hop,
                from_cluster,
                to_cluster,
            } => {
                // Flow-arrow start: Perfetto joins this to the matching
                // `ph:"f"` at the destination's RemoteAdmit via `id`.
                push(
                    format!(
                        "{{\"ph\":\"i\",\"pid\":{CONTROL_PID},\"tid\":0,\"ts\":{:.3},\
                         \"s\":\"g\",\"name\":\"forward req {request} c{from_cluster}->c{to_cluster}\"}}",
                        us(e.time_ns),
                    ),
                    &mut out,
                );
                push(
                    format!(
                        "{{\"ph\":\"s\",\"cat\":\"forward\",\"id\":{hop},\"pid\":{CONTROL_PID},\
                         \"tid\":0,\"ts\":{:.3},\"name\":\"hop {hop}\"}}",
                        us(e.time_ns),
                    ),
                    &mut out,
                );
            }
            TraceEventKind::RemoteAdmit {
                request,
                hop,
                from_cluster,
                hop_ns,
            } => {
                push(
                    format!(
                        "{{\"ph\":\"i\",\"pid\":{CONTROL_PID},\"tid\":0,\"ts\":{:.3},\
                         \"s\":\"g\",\"name\":\"remote-admit req {request} from c{from_cluster} \
                         (+{:.3}us)\"}}",
                        us(e.time_ns),
                        us(u64::from(hop_ns)),
                    ),
                    &mut out,
                );
                push(
                    format!(
                        "{{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"forward\",\"id\":{hop},\
                         \"pid\":{CONTROL_PID},\"tid\":0,\"ts\":{:.3},\"name\":\"hop {hop}\"}}",
                        us(e.time_ns),
                    ),
                    &mut out,
                );
            }
            TraceEventKind::RegimeChange {
                up,
                stage,
                baseline_us,
                observed_us,
                samples,
            } => {
                let dir = if up { "up" } else { "down" };
                let stage_label = if stage == u16::MAX {
                    "e2e".to_string()
                } else {
                    format!("stage {stage}")
                };
                push(
                    format!(
                        "{{\"ph\":\"i\",\"pid\":{CONTROL_PID},\"tid\":0,\"ts\":{:.3},\
                         \"s\":\"g\",\"name\":\"regime {dir} ({stage_label}: \
                         {baseline_us}us->{observed_us}us, n={samples})\"}}",
                        us(e.time_ns),
                    ),
                    &mut out,
                );
            }
            TraceEventKind::DesSpan {
                function,
                stage,
                complete_rel_ns,
                ..
            } => {
                push(
                    format!(
                        "{{\"ph\":\"X\",\"pid\":{DES_PID},\"tid\":{function},\"ts\":{:.3},\
                         \"dur\":{:.3},\"name\":\"fn{function} stage{stage}\"}}",
                        us(e.time_ns),
                        us(u64::from(complete_rel_ns)),
                    ),
                    &mut out,
                );
            }
        }
    }

    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"events\":{}}}}}",
        trace.events.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn ev(time_ns: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { time_ns, kind }
    }

    fn sample_trace() -> Trace {
        Trace {
            events: vec![
                ev(
                    0,
                    TraceEventKind::RunContext {
                        workflow: crate::intern::intern("perfetto-test-wf"),
                        plan: 0x1234,
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
                ev(
                    100,
                    TraceEventKind::Arrival {
                        request: 0,
                        phase: 0,
                    },
                ),
                ev(
                    100,
                    TraceEventKind::Enqueue {
                        request: 0,
                        shard: -1,
                    },
                ),
                ev(
                    150,
                    TraceEventKind::Dispatch {
                        request: 0,
                        replica: 0,
                        node: 0,
                        cold: false,
                    },
                ),
                ev(
                    200,
                    TraceEventKind::ReplicaSpawn {
                        replica: 1,
                        node: 1,
                        cold: true,
                        tier: 3,
                    },
                ),
                ev(400, TraceEventKind::ReplicaReady { replica: 1 }),
                ev(500, TraceEventKind::NodeKill { node: 0 }),
                ev(600, TraceEventKind::NodeDeath { node: 0 }),
                ev(
                    600,
                    TraceEventKind::Requeue {
                        request: 0,
                        replica: 0,
                    },
                ),
                ev(
                    650,
                    TraceEventKind::Dispatch {
                        request: 0,
                        replica: 1,
                        node: 1,
                        cold: true,
                    },
                ),
                ev(
                    900,
                    TraceEventKind::Complete {
                        request: 0,
                        replica: 1,
                    },
                ),
                ev(
                    910,
                    TraceEventKind::SloAlert {
                        fired: true,
                        short_burn_centi: 250,
                        long_burn_centi: 130,
                    },
                ),
                ev(
                    920,
                    TraceEventKind::Arrival {
                        request: 1,
                        phase: 0,
                    },
                ),
                ev(
                    920,
                    TraceEventKind::Enqueue {
                        request: 1,
                        shard: 1,
                    },
                ),
                ev(
                    925,
                    TraceEventKind::Dispatch {
                        request: 1,
                        replica: 1,
                        node: 1,
                        cold: false,
                    },
                ),
                ev(
                    940,
                    TraceEventKind::Complete {
                        request: 1,
                        replica: 1,
                    },
                ),
                ev(950, TraceEventKind::ReplicaRetired { replica: 1 }),
                ev(
                    0,
                    TraceEventKind::DesSpan {
                        function: 2,
                        sandbox: 0,
                        stage: 1,
                        spans: 4,
                        exec_rel_ns: 10,
                        complete_rel_ns: 80,
                    },
                ),
                ev(
                    0,
                    TraceEventKind::DesBreakdown {
                        function: 2,
                        stage: 1,
                        startup_ns: 0,
                        blocked_ns: 10,
                        interaction_ns: 20,
                        exec_ns: 50,
                    },
                ),
            ],
        }
    }

    #[test]
    fn emits_every_lifecycle_phase() {
        let json = serve_trace(&sample_trace());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for needle in [
            "\"queue\"",
            "\"exec\"",
            "\"exec (lost)\"",
            "\"exec (cold)\"",
            "\"cold-start\"",
            "node 0 dead",
            "\"retired\"",
            "fn2 stage1",
            "\"name\":\"node 1\"",
            "replica 1 (cold)",
            "run perfetto-test-wf plan 0000000000001234",
            "slo fired (burn 2.50/1.30)",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // Request 0 was requeued, so it shows two queue spans; request 1
        // adds a third.
        assert_eq!(json.matches("\"queue\"").count(), 3);
    }

    #[test]
    fn fleet_traces_group_by_cluster_and_draw_flow_arrows() {
        let trace = Trace {
            events: vec![
                ev(
                    0,
                    TraceEventKind::ClusterContext {
                        cluster: 0,
                        request_base: 0,
                        replica_base: 0,
                        node_base: 0,
                    },
                ),
                ev(
                    0,
                    TraceEventKind::ClusterContext {
                        cluster: 1,
                        request_base: 1 << 40,
                        replica_base: 1 << 22,
                        node_base: 1 << 16,
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
                ev(
                    0,
                    TraceEventKind::ReplicaSpawn {
                        replica: 1 << 22,
                        node: (1 << 16) + 2,
                        cold: false,
                        tier: 0,
                    },
                ),
                ev(
                    1_000,
                    TraceEventKind::Forward {
                        request: 7,
                        hop: 4,
                        from_cluster: 0,
                        to_cluster: 1,
                    },
                ),
                ev(
                    3_000,
                    TraceEventKind::RemoteAdmit {
                        request: (1 << 40) + 5,
                        hop: 4,
                        from_cluster: 0,
                        hop_ns: 2_000,
                    },
                ),
                ev(
                    9_000,
                    TraceEventKind::RegimeChange {
                        up: true,
                        stage: u16::MAX,
                        baseline_us: 10,
                        observed_us: 25,
                        samples: 217,
                    },
                ),
            ],
        };
        let json = serve_trace(&trace);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for needle in [
            "\"name\":\"cluster 0 node 0\"",
            "\"name\":\"cluster 1 node 2\"",
            "forward req 7 c0->c1",
            "from c0",
            "\"ph\":\"s\",\"cat\":\"forward\",\"id\":4",
            "\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"forward\",\"id\":4",
            "regime up (e2e: 10us->25us, n=217)",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let json = serve_trace(&Trace::default());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"events\":0"));
    }
}

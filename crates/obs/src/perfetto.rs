//! The workspace's one Trace Event Format writer, [`TraceWriter`], and
//! the whole-run Perfetto/Chrome export of a serving trace.
//!
//! [`serve_trace`], `AttributionReport::counter_track` and
//! `chiron-runtime`'s `to_chrome_trace` all write through the writer.
//! [`serve_trace`] renders a captured serving [`Trace`] as one document:
//! one process per cluster node (`pid = 1000 + node`), one thread per
//! replica (`tid = replica`), and per-request complete events for every
//! life-cycle phase —
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
//! DES span events (the per-function windows `CompiledPlan::replay`
//! emits) land in a dedicated `pid = 9998` process, one thread per
//! function.

use crate::intern::resolve;
use crate::trace::{Trace, TraceEventKind};
use std::collections::HashMap;
use std::fmt::{self, Display, Write as _};

const NODE_PID_BASE: u32 = 1000;
const CONTROL: Track = (1, 0);
const DES_PID: u32 = 9998;
const HEADER: &str = "{\"traceEvents\":[\n";

/// A trace row: `(pid, tid)`.
pub type Track = (u32, u32);

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Writes a Trace Event Format document event by event, in place. An
/// event method writes the event and returns the writer, so its optional
/// fields chain on — [`cname`](Self::cname), then [`arg`](Self::arg)s —
/// until the next event starts. Times are nanoseconds, written as
/// microseconds with three decimals; every name is escaped.
#[derive(Debug, Default)]
pub struct TraceWriter {
    out: String,
    /// What closes the current event: `""` before the first (whose
    /// header is not written yet), `"}"`, or `"}}"` once it has `args`.
    close: &'static str,
}

impl TraceWriter {
    /// `process_name` metadata naming `pid`.
    pub fn process_name(&mut self, pid: u32, name: impl Display) -> &mut Self {
        self.metadata("process_name", (pid, 0), name)
    }

    /// `thread_name` metadata naming a track.
    pub fn thread_name(&mut self, track: Track, name: impl Display) -> &mut Self {
        self.metadata("thread_name", track, name)
    }

    /// A complete (`X`) event over `[ts, ts + dur)`.
    pub fn complete(&mut self, track: Track, ts: u64, dur: u64, name: impl Display) -> &mut Self {
        self.begin("X", track, ts);
        let _ = write!(self.out, ",\"dur\":{:.3}", us(dur));
        self.name(name)
    }

    /// An instant (`i`) event of scope `g` (global) or `t` (thread).
    pub fn instant(&mut self, track: Track, ts: u64, scope: char, name: impl Display) -> &mut Self {
        self.begin("i", track, ts);
        let _ = write!(self.out, ",\"s\":\"{scope}\"");
        self.name(name)
    }

    /// A counter (`C`) event; its [`arg`](Self::arg)s are its series.
    pub fn counter(&mut self, track: Track, ts: u64, name: impl Display) -> &mut Self {
        self.begin("C", track, ts);
        self.name(name)
    }

    /// A flow arrow's start (`ph` `s`) or end (`f`, bound to the
    /// enclosing slice); the two ends share `cat` and `id`.
    pub fn flow(
        &mut self,
        track: Track,
        ts: u64,
        ph: &str,
        cat: &str,
        id: u32,
        name: impl Display,
    ) -> &mut Self {
        self.open();
        let bind = if ph == "f" { ",\"bp\":\"e\"" } else { "" };
        let _ = write!(
            self.out,
            "{{\"ph\":\"{ph}\"{bind},\"cat\":\"{cat}\",\"id\":{id}"
        );
        self.at(track, ts);
        self.name(name)
    }

    /// Colours the current event with a trace-viewer colour name.
    pub fn cname(&mut self, cname: &str) -> &mut Self {
        let _ = write!(self.out, ",\"cname\":\"{cname}\"");
        self
    }

    /// Adds `key` to the current event's `args`; `value` is written as
    /// it displays (a JSON number).
    pub fn arg(&mut self, key: &str, value: impl Display) -> &mut Self {
        let open = if self.close == "}}" {
            ","
        } else {
            ",\"args\":{"
        };
        self.close = "}}";
        let _ = write!(self.out, "{open}\"{key}\":{value}");
        self
    }

    /// Closes the document, its `otherData` object holding `other_data`
    /// (fields written as they display), and returns it.
    pub fn finish(mut self, other_data: fmt::Arguments<'_>) -> String {
        let close = if self.close.is_empty() {
            HEADER
        } else {
            self.close
        };
        let _ = write!(
            self.out,
            "{close}\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{{other_data}}}}}"
        );
        self.out
    }

    fn metadata(&mut self, kind: &str, (pid, tid): Track, name: impl Display) -> &mut Self {
        self.open();
        let _ = write!(
            self.out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{kind}\",\"args\":{{\"name\":\"{}\"}}",
            Escaped(name)
        );
        self
    }

    /// Closes the current event and separates the next, or writes the
    /// header before the first.
    fn open(&mut self) {
        let sep = if self.close.is_empty() { HEADER } else { ",\n" };
        self.out.push_str(self.close);
        self.out.push_str(sep);
        self.close = "}";
    }

    fn begin(&mut self, ph: &str, track: Track, ts: u64) {
        self.open();
        let _ = write!(self.out, "{{\"ph\":\"{ph}\"");
        self.at(track, ts);
    }

    fn at(&mut self, (pid, tid): Track, ts: u64) {
        let _ = write!(
            self.out,
            ",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3}",
            us(ts)
        );
    }

    fn name(&mut self, name: impl Display) -> &mut Self {
        let _ = write!(self.out, ",\"name\":\"{}\"", Escaped(name));
        self
    }
}

/// Displays a value as the contents of a JSON string: `"`, `\\` and
/// control characters escaped.
#[derive(Debug, Clone, Copy)]
pub struct Escaped<T>(pub T);

impl<T: Display> Display for Escaped<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(Escaping(f), "{}", self.0)
    }
}

/// Writes through to the inner writer, escaping as [`Escaped`] does.
struct Escaping<W>(W);

impl<W: fmt::Write> fmt::Write for Escaping<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for c in s.chars() {
            match c {
                '"' => self.0.write_str("\\\"")?,
                '\\' => self.0.write_str("\\\\")?,
                c if c < ' ' => write!(self.0, "\\u{:04x}", u32::from(c))?,
                c => self.0.write_char(c)?,
            }
        }
        Ok(())
    }
}

/// Renders a captured serving trace (see module docs). Valid JSON for
/// any trace, including an empty one.
pub fn serve_trace(trace: &Trace) -> String {
    let mut w = TraceWriter::default();
    w.process_name(CONTROL.0, "control-plane");

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
                match cluster_of(node) {
                    Some((cluster, local)) => {
                        w.process_name(pid, format_args!("cluster {cluster} node {local}"))
                    }
                    None => w.process_name(pid, format_args!("node {node}")),
                };
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
            w.thread_name((pid, replica), format_args!("replica {replica} ({kind})"));
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
        let now = e.time_ns;
        match e.kind {
            TraceEventKind::Arrival { .. }
            | TraceEventKind::NodeKill { .. }
            | TraceEventKind::ClusterContext { .. }
            | TraceEventKind::DesBreakdown { .. } => {}
            TraceEventKind::RunContext { workflow, plan } => {
                let run = resolve(workflow);
                let name = format_args!("run {run} plan {plan:016x}");
                w.instant(CONTROL, now, 'g', name);
            }
            TraceEventKind::SloAlert {
                fired,
                short_burn_centi,
                long_burn_centi,
            } => {
                let state = if fired { "fired" } else { "cleared" };
                let (short, long) = (
                    f64::from(short_burn_centi) / 100.0,
                    f64::from(long_burn_centi) / 100.0,
                );
                let name = format_args!("slo {state} (burn {short:.2}/{long:.2})");
                w.instant(CONTROL, now, 'g', name);
            }
            TraceEventKind::Enqueue { request, .. } => {
                queued_since.insert(request, now);
            }
            TraceEventKind::Dispatch {
                request,
                replica,
                cold,
                ..
            } => {
                if let Some(from) = queued_since.remove(&request) {
                    w.complete(track(replica), from, now - from, "queue")
                        .cname("grey")
                        .arg("request", request);
                }
                executing.insert(request, (now, cold));
            }
            TraceEventKind::Complete { request, replica } => {
                if let Some((from, cold)) = executing.remove(&request) {
                    let name = if cold { "exec (cold)" } else { "exec" };
                    w.complete(track(replica), from, now - from, name)
                        .cname("good")
                        .arg("request", request);
                }
            }
            TraceEventKind::Requeue { request, replica } => {
                if let Some((from, _)) = executing.remove(&request) {
                    w.complete(track(replica), from, now - from, "exec (lost)")
                        .cname("terrible")
                        .arg("request", request);
                }
                queued_since.insert(request, now);
            }
            TraceEventKind::ReplicaSpawn { replica, cold, .. } => {
                starting.insert(replica, (now, cold));
            }
            TraceEventKind::ReplicaReady { replica } => {
                if let Some((from, cold)) = starting.remove(&replica) {
                    if cold && now > from {
                        w.complete(track(replica), from, now - from, "cold-start")
                            .cname("bad");
                    }
                }
            }
            TraceEventKind::ReplicaRetired { replica } => {
                w.instant(track(replica), now, 't', "retired");
            }
            TraceEventKind::NodeDeath { node } => {
                w.instant(CONTROL, now, 'g', format_args!("node {node} dead"));
            }
            TraceEventKind::Forward {
                request,
                hop,
                from_cluster,
                to_cluster,
            } => {
                // Flow-arrow start: Perfetto joins this to the matching
                // end at the destination's RemoteAdmit via `id`.
                let name = format_args!("forward req {request} c{from_cluster}->c{to_cluster}");
                w.instant(CONTROL, now, 'g', name);
                let hop_name = format_args!("hop {hop}");
                w.flow(CONTROL, now, "s", "forward", hop, hop_name);
            }
            TraceEventKind::RemoteAdmit {
                request,
                hop,
                from_cluster,
                hop_ns,
            } => {
                let hop_us = us(u64::from(hop_ns));
                let name = format_args!(
                    "remote-admit req {request} from c{from_cluster} (+{hop_us:.3}us)"
                );
                w.instant(CONTROL, now, 'g', name);
                let hop_name = format_args!("hop {hop}");
                w.flow(CONTROL, now, "f", "forward", hop, hop_name);
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
                let name = format_args!(
                    "regime {dir} ({stage_label}: {baseline_us}us->{observed_us}us, n={samples})"
                );
                w.instant(CONTROL, now, 'g', name);
            }
            TraceEventKind::DesSpan {
                function,
                stage,
                complete_rel_ns,
                ..
            } => {
                let track = (DES_PID, u32::from(function));
                let name = format_args!("fn{function} stage{stage}");
                w.complete(track, now, u64::from(complete_rel_ns), name);
            }
        }
    }
    w.finish(format_args!("\"events\":{}", trace.events.len()))
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

    #[test]
    fn escaping_handles_quotes() {
        assert_eq!(Escaped("a\"b\\c").to_string(), "a\\\"b\\\\c");
        assert_eq!(Escaped("tab\tchar").to_string(), "tab\\u0009char");
        assert_eq!(Escaped(format_args!("n{}", '\n')).to_string(), "n\\u000a");
    }
}

//! End-to-end acceptance tests of the serving control plane, driven
//! through the `Chiron` facade (deploy → serve).

use chiron::obs::{self, AttributionReport, Trace, TraceEvent, TraceEventKind};
use chiron::serving::{
    EventKind, EventQueue, FaultPlan, RequestRecord, RouterPolicy, ServeConfig, ServeError,
    ServeSimulation, Workload,
};
use chiron::{Chiron, PgpMode};
use chiron_deploy::NodeId;
use chiron_metrics::{ArrivalProcess, FastRng};
use chiron_model::{apps, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Mutex;

fn deployed() -> (Chiron, chiron_model::Workflow, chiron::Deployment) {
    let chiron = Chiron::default();
    let wf = apps::finra(12);
    let deployment = chiron.deploy(&wf, None, PgpMode::NativeThread);
    (chiron, wf, deployment)
}

/// Two seeded runs produce byte-for-byte identical outcome records.
#[test]
fn seeded_serving_runs_are_reproducible() {
    let (chiron, wf, deployment) = deployed();
    let workload = Workload::step(20.0, 10.0, 2_000, 10_000)
        .with_arrivals(ArrivalProcess::Poisson { seed: 5 });
    let a = chiron
        .serve(
            &wf,
            &deployment,
            ServeConfig::paper_testbed(),
            &workload,
            99,
        )
        .unwrap();
    let b = chiron
        .serve(
            &wf,
            &deployment,
            ServeConfig::paper_testbed(),
            &workload,
            99,
        )
        .unwrap();
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.records, b.records);
    assert_eq!(a.replica_timeline, b.replica_timeline);
}

/// A request record takes 40 bytes, and its two optional times keep
/// `Option` semantics: `None`, `Some(0)` and `Some(u64::MAX)` each read
/// back as set, records that differ only there compare unequal, and the
/// report digest tells `Some(0)` from `None`. Its two flags clear as well
/// as they set.
#[test]
fn request_record_is_40_bytes_with_optional_times() {
    assert_eq!(std::mem::size_of::<RequestRecord>(), 40);
    let (chiron, wf, deployment) = deployed();
    let config = ServeConfig::paper_testbed();
    let base = chiron
        .serve(&wf, &deployment, config, &Workload::steady(10.0, 20), 3)
        .unwrap();
    let digest = |r: RequestRecord| {
        let mut report = base.clone();
        report.records = vec![r];
        report.digest()
    };
    type Set = fn(&mut RequestRecord, u64);
    type Get = fn(&RequestRecord) -> Option<u64>;
    let times: [(&str, Set, Get, Get); 2] = [
        (
            "dispatched_ns",
            RequestRecord::set_dispatched_ns,
            RequestRecord::dispatched_ns,
            RequestRecord::completed_ns,
        ),
        (
            "completed_ns",
            RequestRecord::set_completed_ns,
            RequestRecord::completed_ns,
            RequestRecord::dispatched_ns,
        ),
    ];
    let values = [None, Some(0), Some(u64::MAX)];
    for (what, set, get, other) in times {
        let records = values.map(|v| {
            let mut r = RequestRecord::new(5, 1);
            if let Some(ns) = v {
                set(&mut r, ns);
            }
            r
        });
        for (r, v) in records.iter().zip(values) {
            assert_eq!(get(r), v, "{what} round trip");
            assert_eq!(other(r), None, "{what} leaves the other time unset");
        }
        for (i, a) in records.iter().enumerate() {
            for b in &records[i + 1..] {
                assert_ne!(a, b, "{what}: {a:?} == {b:?}");
            }
        }
        assert_ne!(
            digest(records[0]),
            digest(records[1]),
            "{what}: None vs Some(0)"
        );
    }

    // A flag set and then cleared leaves no trace in the record or its
    // digest.
    let fresh = RequestRecord::new(5, 1);
    type SetFlag = fn(&mut RequestRecord, bool);
    type GetFlag = fn(&RequestRecord) -> bool;
    let flags: [(&str, SetFlag, GetFlag); 2] = [
        (
            "cold_start",
            RequestRecord::set_cold_start,
            RequestRecord::cold_start,
        ),
        (
            "forwarded",
            RequestRecord::set_forwarded,
            RequestRecord::forwarded,
        ),
    ];
    for (what, set, get) in flags {
        let mut r = fresh;
        set(&mut r, true);
        assert!(get(&r), "{what} reads back as set");
        assert_ne!(digest(r), digest(fresh), "{what} moves the digest");
        set(&mut r, false);
        assert!(!get(&r), "{what} reads back as cleared");
        assert_eq!(r, fresh, "{what} set then cleared");
        assert_eq!(digest(r), digest(fresh), "{what} set then cleared");
    }
}

/// After a 10× traffic step the autoscaler returns tail latency to its
/// target: the cold-start transient is confined to the first part of the
/// step phase, and the steady-state p99 meets `AutoscalerConfig::p99_target`.
#[test]
fn p99_recovers_after_ten_x_traffic_step() {
    let (chiron, wf, deployment) = deployed();
    let config = ServeConfig::paper_testbed();
    let target = config.autoscaler.p99_target;
    let workload = Workload::step(10.0, 10.0, 1_000, 20_000);
    let report = chiron
        .serve(&wf, &deployment, config, &workload, 17)
        .unwrap();
    assert_eq!(report.lost, 0);
    assert!(report.scale_ups > 0, "the step must trigger scale-up");
    // The transient (queue built while replicas cold-start for 167 ms)
    // is visible at the head of the step phase...
    let whole_phase = report.tail_p99_of_phase(1, 0.0);
    // ...but the tail 70% of the phase meets the autoscaler's target.
    let steady = report.tail_p99_of_phase(1, 0.3);
    assert!(
        steady <= target,
        "steady-state p99 {steady} exceeds the {target} target (whole phase: {whole_phase})"
    );
}

/// Killing a node mid-run completes every accepted request: in-flight work
/// is re-queued by failure detection, never dropped. Without a fault, a
/// steady 500 rps run completes every request too.
#[test]
fn node_kill_mid_run_loses_nothing() {
    let (chiron, wf, deployment) = deployed();
    for router in RouterPolicy::ALL {
        let config = ServeConfig::paper_testbed().with_router(router);
        let busy =
            Workload::steady(500.0, 20_000).with_arrivals(ArrivalProcess::Poisson { seed: 9 });
        let report = chiron
            .serve(&wf, &deployment, config.clone(), &busy, 1)
            .unwrap();
        let counts = (report.accepted, report.completed, report.lost);
        assert_eq!(counts, (20_000, 20_000, 0), "{} at 500 rps", router.name());
        let faults = FaultPlan::none().kill_at(SimTime::from_millis_f64(30_000.0), NodeId(0));
        let workload =
            Workload::steady(40.0, 4_000).with_arrivals(ArrivalProcess::Poisson { seed: 2 });
        let report = chiron
            .serve_with_faults(&wf, &deployment, config, faults, &workload, 23)
            .unwrap();
        assert_eq!(report.accepted, 4_000, "{}", router.name());
        assert_eq!(
            report.completed,
            4_000,
            "{}: all accepted requests finish",
            router.name()
        );
        assert_eq!(report.lost, 0, "{}", router.name());
        assert!(
            report.replicas_failed > 0,
            "{}: the kill must hit replicas",
            router.name()
        );
        assert!(
            report.requeued_requests > 0,
            "{}: recovery re-queues, not drops",
            router.name()
        );
    }
}

/// One step of an event-queue workout.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// Push `kind` at `now + delay`.
    Push(EventKind, u64),
    /// Push at an absolute time, earlier than `now` or not.
    PushAt(EventKind, u64),
    /// A fleet barrier's forwarded batch: `count` `Forwarded` events at
    /// `now + delay`, ahead of the in-flight completions.
    Burst(u32, u64),
    Pop,
    /// `pop_before(now + delay)`.
    PopBefore(u64),
}

/// A random op stream shaped like the serve loop's — mostly arrivals one
/// gap ahead and completions one service time ahead, with same-instant
/// ties, second pending arrivals, forwarded bursts and pops — plus
/// arbitrary-time pushes the loop never makes.
fn queue_ops(seed: u64, n: usize) -> Vec<QueueOp> {
    let mut rng = FastRng::seed_from_u64(seed);
    let mut pick = move |n: u64| rng.next_u64() % n;
    (0..n)
        .map(|i| {
            let completion = EventKind::Completion {
                replica: i as u32,
                request: i as u64,
                dispatch_seq: i as u64,
            };
            match pick(16) {
                0..=2 => QueueOp::Push(EventKind::Arrival, pick(3) * 1_000),
                3..=6 => QueueOp::Push(completion, 80_000 + pick(8) * 1_000),
                7 => QueueOp::Push(
                    EventKind::AutoscaleTick,
                    [0, 1_000, 1_000_000][pick(3) as usize],
                ),
                8 => QueueOp::PushAt(EventKind::Heartbeat, pick(200_000)),
                9 => QueueOp::Burst(1 + pick(24) as u32, pick(2) * 500),
                10..=12 => QueueOp::Pop,
                _ => QueueOp::PopBefore(pick(100_000)),
            }
        })
        .collect()
}

/// An [`EventQueue`] beside its reference: a binary heap of `(time, seq)`
/// keys, with each pushed kind indexed by its sequence number.
#[derive(Default)]
struct QueuePair {
    queue: EventQueue,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    kinds: Vec<EventKind>,
}

type Popped = Option<(u64, u64, EventKind)>;

impl QueuePair {
    fn push(&mut self, at: u64, kind: EventKind) {
        self.queue.push(SimTime::from_nanos(at), kind);
        self.heap.push(Reverse((at, self.kinds.len() as u64)));
        self.kinds.push(kind);
    }

    fn reference(&self, key: Option<Reverse<(u64, u64)>>) -> Popped {
        key.map(|Reverse((at, seq))| (at, seq, self.kinds[seq as usize]))
    }

    /// `(got, want)` for one pop, or for one `pop_before(limit)`.
    fn pop(&mut self, limit: Option<u64>) -> (Popped, Popped) {
        let got = match limit {
            None => self.queue.pop(),
            Some(limit) => self.queue.pop_before(SimTime::from_nanos(limit)),
        };
        let due = match (limit, self.heap.peek()) {
            (Some(limit), Some(&Reverse((at, _)))) => at < limit,
            _ => true,
        };
        let want = if due { self.heap.pop() } else { None };
        let got = got.map(|e| (e.at.as_nanos(), e.seq, e.kind));
        (got, self.reference(want))
    }
}

/// Replays `ops` on an [`EventQueue`] and on a binary heap of
/// `(time, seq)` keys, asserting after every op that both hold the same
/// events and pop the same one next.
fn check_queue_against_heap(ops: &[QueueOp]) {
    let mut pair = QueuePair::default();
    let mut now = 0u64;
    for (step, &op) in ops.iter().enumerate() {
        let popped = match op {
            QueueOp::Push(kind, delay) => {
                pair.push(now + delay, kind);
                None
            }
            QueueOp::PushAt(kind, at) => {
                pair.push(at, kind);
                None
            }
            QueueOp::Burst(count, delay) => {
                for _ in 0..count {
                    pair.push(now + delay, EventKind::Forwarded);
                }
                None
            }
            QueueOp::Pop => Some(pair.pop(None)),
            QueueOp::PopBefore(delay) => Some(pair.pop(Some(now + delay))),
        };
        if let Some((got, want)) = popped {
            assert_eq!(got, want, "step {step}: {op:?}");
            if let Some((at, _, _)) = got {
                now = now.max(at);
            }
        }
        assert_eq!(pair.queue.len(), pair.heap.len(), "step {step}");
        let next = pair.queue.peek().map(|e| (e.at.as_nanos(), e.seq, e.kind));
        assert_eq!(
            next,
            pair.reference(pair.heap.peek().copied()),
            "step {step}"
        );
    }
    while !pair.heap.is_empty() {
        let (got, want) = pair.pop(None);
        assert_eq!(got, want, "draining");
    }
    assert!(pair.queue.is_empty() && pair.queue.pop().is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The sorted event ring pops exactly what a binary heap of
    /// `(time, seq)` keys pops, under any interleaving of pushes, pops
    /// and barrier-bounded pops.
    #[test]
    fn event_queue_pops_like_a_binary_heap(seed in any::<u64>(), n in 1usize..2_000) {
        check_queue_against_heap(&queue_ops(seed, n));
    }
}

/// Tracing is process-wide, so the tests that switch it take turns.
static TRACING: Mutex<()> = Mutex::new(());

/// Events emitted before and after a traced standalone run, in the
/// caller's capture.
fn caller_events() -> [(u64, TraceEventKind); 2] {
    [
        (0, TraceEventKind::ReplicaReady { replica: 9_999 }),
        (u64::MAX, TraceEventKind::ReplicaRetired { replica: 9_999 }),
    ]
}

/// Appends one event to this thread's open capture, as a producer that
/// holds the buffer does.
fn push(time_ns: u64, kind: TraceEventKind) {
    let mut buf = obs::take_capture().expect("an open capture");
    buf.push(TraceEvent { time_ns, kind });
    obs::restore_capture(buf);
}

/// Opens a capture, pushes the first caller event, runs `serve`, pushes
/// the second, and returns the closed capture with `serve`'s result.
fn capture_around<T>(serve: impl FnOnce() -> T) -> (T, Trace) {
    let [(t0, before), (t1, after)] = caller_events();
    obs::begin_capture();
    push(t0, before);
    let out = serve();
    push(t1, after);
    (out, obs::end_capture())
}

/// A traced standalone run banks into the capture its caller opened:
/// what the caller emitted first stays first, the run's events follow in
/// the bytes the thread-local emitter used to produce (pinned digest),
/// and the capture is open again for the caller once the run returns.
#[test]
fn traced_standalone_run_banks_into_the_callers_capture() {
    let _lock = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    let (_, wf, deployment) = deployed();
    let sim = ServeSimulation::new(wf, deployment.plan().clone(), ServeConfig::paper_testbed());
    let workload = Workload::steady(60.0, 400).with_arrivals(ArrivalProcess::Poisson { seed: 3 });
    let untraced = sim.run(&workload, 11).unwrap();

    obs::set_tracing(true);
    let (report, trace) = capture_around(|| sim.run(&workload, 11));
    // Tracing on without a capture: nothing is recorded, nothing breaks.
    obs::reset_trace_stats();
    let bare = sim.run(&workload, 11);
    let bare_stats = obs::trace_stats();
    obs::set_tracing(false);

    let report = report.unwrap();
    assert_eq!(report.digest(), untraced.digest());
    assert_eq!(bare.unwrap().digest(), untraced.digest());
    assert_eq!(bare_stats, obs::TraceStats::default());
    let ends = [trace.events[0], trace.events[trace.len() - 1]].map(|e| (e.time_ns, e.kind));
    assert_eq!(ends, caller_events());
    assert!(matches!(
        trace.events[1].kind,
        TraceEventKind::RunContext { .. }
    ));
    assert!(trace.len() > 400 * 4, "{} events", trace.len());
    assert_eq!(trace.digest(), 318521437357800724, "trace bytes moved");
    // The Chrome exports of the same capture, byte for byte.
    let counters = obs::attribute(&trace).counter_track(&AttributionReport::completions(&trace));
    let exports = [fnv(&obs::serve_trace(&trace)), fnv(&counters)];
    assert_eq!(
        exports, SERVE_EXPORT_DIGESTS,
        "serve_trace / counter_track bytes moved (left: now)"
    );
}

/// FNV-1a over `serve_trace` and `counter_track` of the pinned traced
/// run above.
const SERVE_EXPORT_DIGESTS: [u64; 2] = [0xc3c8_f48e_034f_5fd0, 0xc0a3_c062_dccf_d294];

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `serve_trace` escapes the workflow name in its run marker, so a name
/// with a quote or a backslash still yields valid JSON.
#[test]
fn serve_trace_escapes_the_workflow_name() {
    let trace = Trace {
        events: vec![TraceEvent {
            time_ns: 1_500,
            kind: TraceEventKind::RunContext {
                workflow: obs::intern(r#"wf "a" \ b"#),
                plan: 0xab,
            },
        }],
    };
    let expected = concat!(
        "{\"traceEvents\":[\n",
        r#"{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"control-plane"}},"#,
        "\n",
        r#"{"ph":"i","pid":1,"tid":0,"ts":1.500,"s":"g","name":"run wf \"a\" \\ b plan 00000000000000ab"}"#,
        "\n",
        r#"],"displayTimeUnit":"ms","otherData":{"events":1}}"#,
    );
    assert_eq!(obs::serve_trace(&trace), expected);
}

/// A standalone run that fails to start hands the caller's capture back:
/// untouched when the DES probe rejects the plan (the probe runs before
/// the capture is taken), and when the baseline replicas do not fit the
/// cluster.
#[test]
fn failed_standalone_run_hands_the_capture_back() {
    let _lock = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    let wf = apps::finra(12);
    let foreign_plan = chiron_deploy::planners::faastlane_plus(&apps::finra(5));
    let mut crowded = ServeConfig::paper_testbed();
    crowded.replicas.min_replicas = 100_000;
    let own_plan = chiron_deploy::planners::faastlane_plus(&wf);
    let workload = Workload::steady(60.0, 100);

    obs::set_tracing(true);
    let (plan_err, plan_trace) = capture_around(|| {
        ServeSimulation::new(wf.clone(), foreign_plan, ServeConfig::paper_testbed())
            .run(&workload, 1)
    });
    let (placement_err, placement_trace) =
        capture_around(|| ServeSimulation::new(wf.clone(), own_plan, crowded).run(&workload, 1));
    obs::set_tracing(false);

    assert!(matches!(plan_err, Err(ServeError::Plan(_))), "{plan_err:?}");
    assert!(
        matches!(placement_err, Err(ServeError::Placement(_))),
        "{placement_err:?}"
    );
    let untouched: Vec<_> = plan_trace
        .events
        .iter()
        .map(|e| (e.time_ns, e.kind))
        .collect();
    assert_eq!(untouched, caller_events());
    for trace in [plan_trace, placement_trace] {
        let events: Vec<_> = trace.events.iter().map(|e| (e.time_ns, e.kind)).collect();
        assert_eq!(events.first(), Some(&caller_events()[0]));
        assert_eq!(events.last(), Some(&caller_events()[1]));
    }
}

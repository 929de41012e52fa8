//! End-to-end acceptance tests of the serving control plane, driven
//! through the `Chiron` facade (deploy → serve).

use chiron::obs::{self, AttributionReport, Trace, TraceEvent, TraceEventKind};
use chiron::serving::{
    EventKind, EventQueue, FaultPlan, RequestRecord, RouterPolicy, ServeConfig, ServeError,
    ServeSimulation, Workload,
};
use chiron::{Chiron, FleetReport, PgpMode, ServeReport};
use chiron_deploy::NodeId;
use chiron_metrics::{ArrivalProcess, FastRng};
use chiron_model::{apps, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Mutex, OnceLock};

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

/// A report holding `records`, each of them counted as accepted and
/// completed, so only the records tell two such reports apart, on the
/// other fields of one small seeded run.
fn report_of(records: Vec<RequestRecord>) -> ServeReport {
    static BASE: OnceLock<ServeReport> = OnceLock::new();
    let base = BASE.get_or_init(|| {
        let (chiron, wf, deployment) = deployed();
        let config = ServeConfig::paper_testbed();
        chiron
            .serve(&wf, &deployment, config, &Workload::steady(10.0, 20), 3)
            .unwrap()
    });
    let mut report = base.clone();
    report.accepted = records.len() as u64;
    report.completed = records.len() as u64;
    report.records = records;
    report
}

/// A request dispatched on arrival and completed at `completed`.
fn served(arrival: u64, completed: u64, phase: u16) -> RequestRecord {
    let mut r = RequestRecord::new(arrival, phase);
    r.set_dispatched_ns(arrival);
    r.set_completed_ns(completed);
    r
}

/// `ServeReport::digest` as its documentation states it: FxHash's step
/// from the FNV-1a offset basis, one step per word.
fn fx_digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// The five documented words of one record, read through its accessors.
fn record_words(r: &RequestRecord) -> [u64; 5] {
    let flags = u64::from(r.dispatched_ns().is_some())
        | u64::from(r.completed_ns().is_some()) << 1
        | u64::from(r.cold_start()) << 2
        | u64::from(r.forwarded()) << 3;
    [
        r.arrival_ns,
        r.dispatched_ns().unwrap_or(0),
        r.completed_ns().unwrap_or(0),
        u64::from(r.replica),
        u64::from(r.phase) << 32 | u64::from(r.tier) << 24 | flags << 16 | u64::from(r.requeues),
    ]
}

/// The record digest and the fleet's digest-of-digests are the documented
/// word step over the documented words: committed digests pin their exact
/// values. Every field takes values from 0 to its full width.
#[test]
fn digest_is_the_word_step_over_the_documented_words() {
    let mut rng = FastRng::seed_from_u64(9);
    let wide = |rng: &mut FastRng| {
        let shift = (rng.next_u64() % 65) as u32;
        rng.next_u64().checked_shr(shift).unwrap_or(0)
    };
    let mut records = Vec::new();
    for i in 0..200u64 {
        let mut r = RequestRecord::new(wide(&mut rng), wide(&mut rng) as u16);
        if i % 3 != 0 {
            r.set_dispatched_ns(wide(&mut rng));
        }
        if i % 5 != 0 {
            r.set_completed_ns(wide(&mut rng));
        }
        r.replica = wide(&mut rng) as u32;
        r.set_cold_start(i % 7 == 0);
        r.tier = wide(&mut rng) as u8;
        r.requeues = wide(&mut rng) as u16;
        r.set_forwarded(i % 11 == 0);
        records.push(r);
    }
    let split = records.split_off(120);
    let (a, b) = (report_of(records), report_of(split));
    for rep in [&a, &b] {
        let words = rep.records.iter().flat_map(record_words);
        let expected = fx_digest(words.chain([rep.accepted, rep.completed]));
        assert_eq!(rep.digest(), expected);
    }
    let fleet = FleetReport::merge(&[a.clone(), b.clone()]);
    let expected = fx_digest([
        0,
        a.digest(),
        1,
        b.digest(),
        fleet.accepted,
        fleet.completed,
        fleet.forwarded,
        fleet.lost,
    ]);
    assert_eq!(fleet.digest(), expected);
}

#[test]
fn digest_is_order_and_content_sensitive() {
    let a = report_of(vec![served(1, 10, 0), served(2, 20, 0)]);
    let b = report_of(vec![served(1, 10, 0), served(2, 20, 0)]);
    assert_eq!(a.digest(), b.digest());
    let c = report_of(vec![served(2, 20, 0), served(1, 10, 0)]);
    assert_ne!(a.digest(), c.digest());
    let d = report_of(vec![served(1, 10, 0), served(2, 21, 0)]);
    assert_ne!(a.digest(), d.digest());
    // The serving tier is part of the observable outcome.
    let mut tiered = served(1, 10, 0);
    tiered.tier = 2;
    let e = report_of(vec![tiered, served(2, 20, 0)]);
    assert_ne!(a.digest(), e.digest());
}

#[test]
fn completion_at_t0_is_not_misclassified() {
    // A 0 sentinel alone could not tell "completed at t=0" from "in
    // flight"; the presence flag can, and the two digest differently.
    let r = served(0, 0, 0);
    assert!(r.is_completed());
    assert_eq!(r.sojourn(), chiron_model::SimDuration::ZERO);
    let completed = report_of(vec![r]).digest();
    let r = RequestRecord::new(0, 0);
    assert!(!r.is_completed());
    let in_flight = report_of(vec![r]).digest();
    assert_ne!(completed, in_flight);
}

#[test]
fn digest_sees_forwarded_flag() {
    let plain = report_of(vec![served(1, 10, 0)]).digest();
    let mut r = RequestRecord::new(1, 0);
    r.set_forwarded(true);
    let spilled = report_of(vec![r]).digest();
    assert_ne!(plain, spilled);
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

/// FINRA-12 under Faastlane+ on the paper testbed, served directly.
fn simulation(config: ServeConfig) -> ServeSimulation {
    let wf = apps::finra(12);
    let plan = chiron::deploy::planners::faastlane_plus(&wf);
    ServeSimulation::new(wf, plan, config)
}

/// Under a 10× step, tiered prewarm pools start replicas from snapshots
/// and zygotes in place of cold boots and bill the pools' rent, and a
/// run's replica-seconds split exactly into busy and idle time, with a
/// keep-alive tail after the last request.
#[test]
fn tiered_step_bills_rent_and_splits_replica_seconds() {
    let workload = Workload::step(10.0, 10.0, 300, 3_000);
    let legacy = simulation(ServeConfig::paper_testbed())
        .run(&workload, 1)
        .unwrap();
    let tiered_config =
        || ServeConfig::paper_testbed().with_lifecycle(chiron::LifecycleConfig::paper_calibrated());
    let tiered = simulation(tiered_config()).run(&workload, 1).unwrap();

    assert_eq!(tiered.lost, 0);
    assert!(tiered.scale_ups > 0);
    let tier_starts = tiered.starts_by_tier[1] + tiered.starts_by_tier[2];
    assert!(
        tier_starts > 0,
        "starts_by_tier={:?}",
        tiered.starts_by_tier
    );
    assert!(
        tiered.starts_by_tier[3] < legacy.starts_by_tier[3],
        "tiered {:?} vs legacy {:?}",
        tiered.starts_by_tier,
        legacy.starts_by_tier
    );
    assert_eq!(legacy.starts_by_tier[1], 0);
    assert_eq!(legacy.starts_by_tier[2], 0);
    assert!(tiered.pool_gb_seconds > 0.0);
    assert!(tiered.pool_rent_usd > 0.0);
    assert!(tiered.total_cost_usd() > tiered.cost_usd);
    assert_eq!(legacy.pool_gb_seconds, 0.0);
    let fractions = tiered.tier_start_fractions();
    assert!((fractions.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    let again = simulation(tiered_config()).run(&workload, 1).unwrap();
    assert_eq!(tiered.digest(), again.digest());
    assert_eq!(tiered.records, again.records);
    assert_eq!(tiered.pool_gb_seconds, again.pool_gb_seconds);

    let report = legacy;
    assert!(report.scale_ups > 0 && report.cold_starts > 0);
    assert!(report.busy_replica_seconds > 0.0);
    assert!(report.idle_replica_seconds > 0.0);
    let split = report.busy_replica_seconds + report.idle_replica_seconds;
    assert!(
        (split - report.replica_seconds).abs() < 1e-6 * report.replica_seconds,
        "busy {} + idle {} != total {}",
        report.busy_replica_seconds,
        report.idle_replica_seconds,
        report.replica_seconds
    );
    assert!(report.keepalive_tail_seconds > 0.0);
    assert!(report.replica_seconds > report.busy_replica_seconds);
    assert!(report.cost_usd > 0.0);
}

/// Burn-rate alerts stay quiet on a healthy run without perturbing it,
/// and fire after a four-node kill, with less compliance.
#[test]
fn slo_burn_rate_alerts_fire_on_incident_and_stay_quiet_otherwise() {
    let workload = Workload::steady(25.0, 2_000);
    let healthy = simulation(ServeConfig::paper_testbed())
        .run(&workload, 3)
        .unwrap();
    let policy = chiron::SloPolicy::multi_window(healthy.sojourns.max().mul_f64(1.2));

    let quiet = simulation(ServeConfig::paper_testbed().with_slo(policy))
        .run(&workload, 3)
        .unwrap();
    let quiet_slo = quiet.slo.as_ref().expect("slo configured");
    assert_eq!(quiet_slo.alerts_fired, 0, "{}", quiet_slo.render_timeline());
    assert_eq!(
        quiet.digest(),
        healthy.digest(),
        "monitoring must not perturb the sim"
    );

    let mut faults = FaultPlan::none();
    for node in 0..4 {
        faults = faults.kill_at(SimTime::from_millis_f64(5_000.0), NodeId(node));
    }
    let faulted = simulation(ServeConfig::paper_testbed().with_slo(policy))
        .with_faults(faults)
        .run(&workload, 3)
        .unwrap();
    let slo = faulted.slo.expect("slo configured");
    assert!(slo.alerts_fired >= 1, "{}", slo.render_timeline());
    let first = slo.first_alert_ns.expect("fired");
    assert!(
        first > 5_000_000_000,
        "alert must follow the kill, got {first}"
    );
    assert!(slo.time_in_alert_ns > 0);
    assert!(slo.compliance < quiet_slo.compliance);
    assert_eq!(slo.render_timeline(), slo.clone().render_timeline());
}

/// Per-node queues skip the central FIFO's routing overhead: at light
/// load the partitioned router's median sojourn is no worse.
#[test]
fn partitioned_router_beats_central_overhead() {
    let wl = Workload::steady(10.0, 500);
    let central = simulation(ServeConfig::paper_testbed())
        .run(&wl, 5)
        .unwrap();
    let partitioned =
        simulation(ServeConfig::paper_testbed().with_router(RouterPolicy::PartitionedByNode))
            .run(&wl, 5)
            .unwrap();
    assert!(
        partitioned.sojourns.percentile(0.5) <= central.sojourns.percentile(0.5),
        "partitioned {} vs central {}",
        partitioned.sojourns.percentile(0.5),
        central.sojourns.percentile(0.5)
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

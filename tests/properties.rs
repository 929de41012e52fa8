//! Property-based tests (proptest) on the core engines' invariants.

use chiron::model::{RuntimeKind, Segment, SimDuration, SimTime, SyscallKind};
use chiron::predict::{
    predict_threads, predict_threads_src, predict_true_parallel, KlStats, SegmentCatalog, SimArena,
    SimThread, StaggeredSet, StaggeredSummary, SwapScan,
};
use chiron_deploy::{planners, ClusterConfig, ClusterState, PlacementPolicy};
use chiron_metrics::{LatencySamples, StreamingHistogram};
use chiron_model::{apps, FunctionId};
use chiron_pgp::{kernighan_lin_with_stats, KlScratch};
use chiron_runtime::{
    execute_sandbox, execute_sandbox_reference, SandboxError, SpanKind, ThreadResult, ThreadTask,
};
use proptest::prelude::*;

/// Random segment lists: alternating CPU/block with millisecond durations.
fn arb_segments() -> impl Strategy<Value = Vec<Segment>> {
    prop::collection::vec((0u8..2, 1u64..30), 1..6).prop_map(|parts| {
        parts
            .into_iter()
            .map(|(kind, ms)| {
                if kind == 0 {
                    Segment::cpu_ms(ms)
                } else {
                    Segment::Block {
                        kind: SyscallKind::NetIo,
                        dur: SimDuration::from_millis(ms),
                    }
                }
            })
            .collect()
    })
}

/// Segment lists for the engine-vs-oracle property: CPU and block
/// segments of random nanosecond lengths, a third of them zero-length,
/// either kind first, and sometimes none at all.
fn arb_edge_segments() -> impl Strategy<Value = Vec<Segment>> {
    prop::collection::vec((any::<bool>(), 0u8..3, 1u64..20_000_000), 0..6).prop_map(|parts| {
        parts
            .into_iter()
            .map(|(cpu, zero, ns)| {
                let d = if zero == 0 {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_nanos(ns)
                };
                if cpu {
                    Segment::Cpu(d)
                } else {
                    Segment::Block {
                        kind: SyscallKind::NetIo,
                        dur: d,
                    }
                }
            })
            .collect()
    })
}

fn arb_tasks(max_threads: usize, max_procs: usize) -> impl Strategy<Value = Vec<ThreadTask>> {
    prop::collection::vec((arb_segments(), 0..max_procs, 0u64..20), 1..=max_threads).prop_map(
        |ts| {
            ts.into_iter()
                .map(|(segments, process, start_ms)| ThreadTask {
                    process,
                    start: SimTime::from_nanos(start_ms * 1_000_000),
                    segments,
                })
                .collect()
        },
    )
}

fn solo_ms(segments: &[Segment]) -> f64 {
    segments.iter().map(|s| s.duration().as_millis_f64()).sum()
}

fn cpu_ms<'a>(segments: impl IntoIterator<Item = &'a Segment>) -> f64 {
    let cpu = segments.into_iter().filter(|s| s.is_cpu());
    cpu.map(|s| s.duration().as_millis_f64()).sum()
}

fn threads_at_zero(segs: &[Vec<Segment>]) -> Vec<SimThread> {
    let thread = |s: &Vec<Segment>| SimThread {
        created_at: SimDuration::ZERO,
        segments: s.clone(),
    };
    segs.iter().map(thread).collect()
}

fn last_end(results: &[ThreadResult]) -> f64 {
    let end = results.iter().map(|r| r.end).max();
    end.map_or(0.0, SimTime::as_millis_f64)
}

const GIL_INTERVAL: SimDuration = SimDuration::from_millis(5);

fn execute(tasks: &[ThreadTask], cpus: u32, runtime: RuntimeKind) -> Vec<ThreadResult> {
    execute_sandbox(tasks, cpus, runtime, GIL_INTERVAL).expect("valid sandbox")
}

// The property bodies, shared by `proptest!` and the recorded cases below it.

/// The sandbox simulator never finishes a thread before its solo
/// latency, and CPU accounting matches its CPU demand exactly.
fn check_solo_lower_bound(tasks: &[ThreadTask], cpus: u32, runtime: RuntimeKind) {
    let results = execute(tasks, cpus, runtime);
    for (task, r) in tasks.iter().zip(&results) {
        let solo = solo_ms(&task.segments);
        let elapsed = r.end.as_millis_f64() - task.start.as_millis_f64();
        assert!(
            elapsed + 1e-6 >= solo,
            "thread finished in {elapsed}ms, solo needs {solo}ms"
        );
        assert!((r.cpu_time.as_millis_f64() - cpu_ms(&task.segments)).abs() < 0.01);
    }
}

/// Total CPU work delivered can never exceed capacity × makespan.
fn check_cpu_capacity(tasks: &[ThreadTask], cpus: u32) {
    let results = execute(tasks, cpus, RuntimeKind::TrueParallel);
    let start = tasks.iter().map(|t| t.start).min().unwrap().as_millis_f64();
    let delivered: f64 = results.iter().map(|r| r.cpu_time.as_millis_f64()).sum();
    assert!(delivered <= (last_end(&results) - start) * f64::from(cpus) + 0.01);
}

/// Spans are ordered and non-overlapping; Exec wall time can exceed the
/// CPU work delivered (fluid sharing runs threads at reduced rate) but
/// never undercut it.
fn check_spans_well_formed(tasks: &[ThreadTask], cpus: u32) {
    for r in execute(tasks, cpus, RuntimeKind::PseudoParallel) {
        let mut cursor = SimTime::ZERO;
        let mut exec = 0.0;
        for s in &r.spans {
            assert!(s.start >= cursor && s.end >= s.start);
            cursor = s.end;
            if s.kind == SpanKind::Exec {
                exec += s.duration().as_millis_f64();
            }
        }
        let cpu = r.cpu_time;
        assert!(
            exec + 0.01 >= cpu.as_millis_f64(),
            "Exec spans {exec}ms < cpu work {cpu}"
        );
    }
}

/// Algorithm 1's prediction is bounded below by both the longest thread
/// and the total CPU demand (single effective CPU under the GIL).
fn check_algorithm1_lower_bounds(segs: &[Vec<Segment>]) {
    let out = predict_threads(&threads_at_zero(segs), GIL_INTERVAL);
    let longest = segs.iter().map(|s| solo_ms(s)).fold(0.0, f64::max);
    let total_cpu = cpu_ms(segs.iter().flatten());
    assert!(out.makespan.as_millis_f64() + 1e-6 >= longest);
    assert!(out.makespan.as_millis_f64() + 1e-6 >= total_cpu);
    assert!((out.cpu_time.as_millis_f64() - total_cpu).abs() < 0.01);
}

/// Algorithm 1 agrees with the ground-truth fluid engine for a
/// dedicated-CPU process (same scheduling rules ⇒ same makespan).
fn check_algorithm1_matches_fluid(segs: &[Vec<Segment>]) {
    let predicted = predict_threads(&threads_at_zero(segs), GIL_INTERVAL);
    let task = |s: &Vec<Segment>| ThreadTask {
        process: 0,
        start: SimTime::ZERO,
        segments: s.clone(),
    };
    let tasks: Vec<ThreadTask> = segs.iter().map(task).collect();
    let truth = execute(&tasks, 1, RuntimeKind::PseudoParallel);
    let diff = (predicted.makespan.as_millis_f64() - last_end(&truth)).abs();
    // Algorithm 1 only notices I/O completions at quantum boundaries
    // (a designed simplification of the model), so each blocking
    // segment may contribute up to one 5ms switch interval of error.
    let blocks = segs.iter().flatten().filter(|s| !s.is_cpu()).count();
    let bound = 5.0 * (blocks as f64) + 0.5;
    assert!(diff <= bound, "model off by {diff}ms (> {bound}ms bound)");
}

/// The sandbox engine equals its oracle field for field (spans,
/// `exec_start`, `end`, `cpu_time`), on both sides of the per-process
/// replay's boundary: with or without a process hosting two threads, and
/// with fewer, as many or more CPUs than processes or threads.
fn check_engine_matches_oracle(tasks: &[ThreadTask], cpus: u32, runtime: RuntimeKind) {
    let fast = execute(tasks, cpus, runtime);
    let oracle = execute_sandbox_reference(tasks, cpus, runtime, GIL_INTERVAL).expect("valid");
    assert_eq!(fast, oracle, "{runtime:?} on {cpus} CPUs: {tasks:?}");
}

/// The true-parallel bound is monotone in CPU count.
fn check_true_parallel_monotone(segs: &[Vec<Segment>]) {
    let mut prev = f64::MAX;
    for cpus in 1..=4u32 {
        let out = predict_true_parallel(segs, cpus);
        assert!(out.makespan.as_millis_f64() <= prev + 1e-9);
        prev = out.makespan.as_millis_f64();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fluid_respects_solo_lower_bound(
        tasks in arb_tasks(6, 3),
        cpus in 1u32..5,
        pseudo in any::<bool>(),
    ) {
        let runtime = if pseudo { RuntimeKind::PseudoParallel } else { RuntimeKind::TrueParallel };
        check_solo_lower_bound(&tasks, cpus, runtime);
    }

    #[test]
    fn fluid_respects_cpu_capacity(tasks in arb_tasks(6, 3), cpus in 1u32..4) {
        check_cpu_capacity(&tasks, cpus);
    }

    #[test]
    fn fluid_spans_well_formed(tasks in arb_tasks(5, 2), cpus in 1u32..3) {
        check_spans_well_formed(&tasks, cpus);
    }

    #[test]
    fn algorithm1_lower_bounds(segs in prop::collection::vec(arb_segments(), 1..6)) {
        check_algorithm1_lower_bounds(&segs);
    }

    #[test]
    fn algorithm1_matches_fluid_on_one_process(segs in prop::collection::vec(arb_segments(), 1..5)) {
        check_algorithm1_matches_fluid(&segs);
    }

    #[test]
    fn true_parallel_monotone_in_cpus(segs in prop::collection::vec(arb_segments(), 1..6)) {
        check_true_parallel_monotone(&segs);
    }

    /// Kernighan–Lin preserves the multiset, never grows the objective, and
    /// keeps set sizes fixed.
    #[test]
    fn kl_invariants(
        weights in prop::collection::vec(1.0f64..50.0, 4..10),
        split in 1usize..3,
    ) {
        let n = weights.len();
        let split = split.min(n - 1);
        let mut a: Vec<FunctionId> = (0..split as u32).map(FunctionId).collect();
        let mut b: Vec<FunctionId> = (split as u32..n as u32).map(FunctionId).collect();
        let objective =
            |set: &[FunctionId]| set.iter().map(|f| weights[f.index()]).sum::<f64>();
        let pair = |x: &[FunctionId], y: &[FunctionId]| objective(x).max(objective(y));
        let before = pair(&a, &b);
        let (la, lb) = (a.len(), b.len());
        let (mut pass, stats, scratch) = (objective, &mut KlStats::default(), &mut KlScratch::default());
        kernighan_lin_with_stats(&mut a, &mut b, &mut pass, stats, scratch);
        prop_assert_eq!(a.len(), la);
        prop_assert_eq!(b.len(), lb);
        prop_assert!(pair(&a, &b) <= before + 1e-9);
        let mut all: Vec<u32> = a.iter().chain(b.iter()).map(|f| f.0).collect();
        all.sort_unstable();
        let expect: Vec<u32> = (0..n as u32).collect();
        prop_assert_eq!(all, expect);
    }

    /// Latency statistics invariants: percentiles are monotone and bracket
    /// min/max.
    #[test]
    fn stats_invariants(vals in prop::collection::vec(1u64..100_000, 1..60)) {
        let samples: LatencySamples = vals.iter()
            .map(|&v| SimDuration::from_nanos(v))
            .collect();
        let mut prev = SimDuration::ZERO;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let p = samples.percentile(q);
            prop_assert!(p >= prev);
            prev = p;
        }
        prop_assert_eq!(samples.percentile(0.0), samples.min());
        prop_assert_eq!(samples.percentile(1.0), samples.max());
        prop_assert!(samples.mean() >= samples.min());
        prop_assert!(samples.mean() <= samples.max());
    }

    /// Cluster placement invariants under both policies: every sandbox is
    /// assigned exactly once to a real node, no node's CPU capacity is
    /// exceeded, and no node holds more sandboxes than its memory could
    /// possibly fit (each sandbox needs at least the base runtime image).
    #[test]
    fn placement_respects_capacity(
        n in 2usize..60,
        spread in any::<bool>(),
        nodes in 1u32..9,
    ) {
        let wf = apps::finra(n);
        let plan = planners::faastlane_plus(&wf);
        let cluster = ClusterConfig { nodes, ..ClusterConfig::paper_testbed() };
        let policy = if spread { PlacementPolicy::Spread } else { PlacementPolicy::Pack };
        if let Ok(placement) = ClusterState::new(cluster.clone()).place_replica(&plan, &wf, policy) {
            prop_assert_eq!(placement.assignments.len(), plan.sandbox_count());
            let mut seen: Vec<u32> = placement.assignments.iter().map(|&(s, _)| s.0).collect();
            seen.sort_unstable();
            seen.dedup();
            prop_assert_eq!(seen.len(), plan.sandbox_count(), "each sandbox exactly once");
            let mut cpu = vec![0u32; nodes as usize];
            let mut count = vec![0u64; nodes as usize];
            for &(sb, node) in &placement.assignments {
                prop_assert!(node.0 < nodes, "node index out of range");
                cpu[node.0 as usize] += plan.sandbox(sb).unwrap().cpus;
                count[node.0 as usize] += 1;
            }
            let max_by_memory = cluster.node.node_memory_bytes / cluster.node.sandbox_base_bytes;
            for i in 0..nodes as usize {
                prop_assert!(cpu[i] <= cluster.node.node_cpus,
                    "node {i} packs {} CPUs over the {} cap", cpu[i], cluster.node.node_cpus);
                prop_assert!(count[i] <= max_by_memory);
            }
        }
        // ClusterFull / SandboxTooLarge are acceptable outcomes; the
        // invariant is only about what a successful placement commits.
    }

    /// Incremental replica placement preserves the same invariants over an
    /// arbitrary add sequence.
    #[test]
    fn incremental_placement_respects_capacity(
        n in 2usize..30,
        replicas in 1usize..12,
        spread in any::<bool>(),
    ) {
        let wf = apps::finra(n);
        let plan = planners::faastlane_plus(&wf);
        let cluster = ClusterConfig::paper_testbed();
        let policy = if spread { PlacementPolicy::Spread } else { PlacementPolicy::Pack };
        let mut state = ClusterState::new(cluster.clone());
        let mut cpu = vec![0u32; cluster.nodes as usize];
        for _ in 0..replicas {
            let Ok(placement) = state.place_replica(&plan, &wf, policy) else { break };
            prop_assert_eq!(placement.assignments.len(), plan.sandbox_count());
            for &(sb, node) in &placement.assignments {
                cpu[node.0 as usize] += plan.sandbox(sb).unwrap().cpus;
            }
        }
        for (i, &used) in cpu.iter().enumerate() {
            prop_assert!(used <= cluster.node.node_cpus,
                "node {i} accumulated {used} CPUs over the cap");
        }
    }
}

/// Sojourn-like samples for the histogram property: exact unit buckets
/// below 4,096 ns mixed with values of every magnitude up to ~2⁴⁰ ns,
/// each tagged with the part (of up to four) it is recorded into.
fn arb_split_samples() -> impl Strategy<Value = Vec<(u64, usize)>> {
    let sample = (
        any::<bool>(),
        0u64..4096,
        (1u64 << 12)..(1 << 40),
        0usize..4,
    );
    let draw = |(unit, small, wide, part): (bool, u64, u64, usize)| {
        let ns = if unit { small } else { wide >> (wide % 29) };
        (ns, part)
    };
    prop::collection::vec(sample, 0..400).prop_map(move |v| v.into_iter().map(draw).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A streaming histogram split into 1–4 parts (empty parts allowed)
    /// and merged back in any order is the one-pass histogram, and every
    /// percentile brackets the exact rank-⌈q·n⌉ sample: never below it,
    /// less than 2⁻¹¹ relative above it, and equal to it below 4,096 ns.
    #[test]
    fn streaming_histogram_split_merge_is_exact(
        samples in arb_split_samples(),
        parts in 1usize..=4,
        order in prop::collection::vec(any::<u64>(), 4),
    ) {
        let mut whole = StreamingHistogram::new();
        let mut split = vec![StreamingHistogram::new(); parts];
        for &(ns, part) in &samples {
            whole.record(SimDuration::from_nanos(ns));
            split[part % parts].record(SimDuration::from_nanos(ns));
        }
        let mut merge_order: Vec<usize> = (0..parts).collect();
        merge_order.sort_by_key(|&i| order[i]);
        let mut merged = split[merge_order[0]].clone();
        for &i in &merge_order[1..] {
            merged.merge(&split[i]);
        }
        prop_assert_eq!(&merged, &whole);
        prop_assert_eq!(merged.len(), samples.len() as u64);
        prop_assert_eq!(
            (merged.min(), merged.max(), merged.mean()),
            (whole.min(), whole.max(), whole.mean())
        );
        let mut exact: Vec<u64> = samples.iter().map(|&(ns, _)| ns).collect();
        exact.sort_unstable();
        for q in [0.0, 0.001, 0.5, 0.99, 0.999, 1.0] {
            let got = merged.percentile(q);
            prop_assert_eq!(got, whole.percentile(q), "q={}", q);
            if exact.is_empty() {
                prop_assert_eq!(got, SimDuration::ZERO);
                continue;
            }
            let rank = (q * exact.len() as f64).ceil().max(1.0) as usize;
            let (got, want) = (got.as_nanos(), exact[rank - 1]);
            prop_assert!(got >= want, "q={}: {} below the exact {}", q, got, want);
            if want < 4096 {
                prop_assert_eq!(got, want, "q={}: unit bucket", q);
            } else {
                prop_assert!((got - want) << 11 < want, "q={}: {} too far above {}", q, got, want);
            }
        }
    }
}

/// CPU bursts of one function: 0–4 of them, a quarter zero-length.
fn arb_cpu_bursts() -> impl Strategy<Value = Vec<Segment>> {
    let burst = (0u8..4, 1u64..12_000_000);
    prop::collection::vec(burst, 0..5).prop_map(|bursts| {
        let cpu =
            |(zero, ns): (u8, u64)| Segment::Cpu(SimDuration::from_nanos(ns * u64::from(zero > 0)));
        bursts.into_iter().map(cpu).collect()
    })
}

/// CPU bursts of one function drawn so that CPU totals repeat across
/// functions: 0–4 bursts, each a whole 0–3 ms or, for half the functions,
/// a random nanosecond length (a quarter of them zero).
fn arb_tied_bursts() -> impl Strategy<Value = Vec<Segment>> {
    let burst = (0u64..4, 1u64..12_000_000);
    (any::<bool>(), prop::collection::vec(burst, 0..5)).prop_map(|(coarse, bursts)| {
        let ns = |(k, ns): (u64, u64)| {
            if coarse {
                k * 1_000_000
            } else {
                ns * u64::from(k > 0)
            }
        };
        bursts
            .into_iter()
            .map(|b| Segment::Cpu(SimDuration::from_nanos(ns(b))))
            .collect()
    })
}

/// One pruning Kernighan–Lin round run candidate by candidate, as the pass
/// runs it for the scheduler's evaluator when the round has a block: each
/// side scored in milliseconds through its [`StaggeredSummary`], with the
/// pass's three exact prunes in its order.
fn kl_candidate_loop(
    catalog: &SegmentCatalog,
    sides: [&StaggeredSummary; 2],
    [a, b]: [&[FunctionId]; 2],
    [free_a, free_b]: [&[usize]; 2],
    stats: &mut KlStats,
) -> (usize, usize, f64) {
    let lb =
        |side: &StaggeredSummary, pos, f| side.lower_bound_with(catalog, pos, f).as_millis_f64();
    let ev = |side: &StaggeredSummary, pos, f| {
        let makespan = side.makespan_with(catalog, pos, f);
        makespan.expect("a CPU-only round").as_millis_f64()
    };
    let mut best: Option<(usize, usize, f64)> = None;
    for &ia in free_a {
        for &ib in free_b {
            stats.candidates += 1;
            let score = match best {
                Some((_, _, s)) if lb(sides[0], ia, b[ib]) >= s => f64::INFINITY,
                _ => {
                    let score_a = ev(sides[0], ia, b[ib]);
                    match best {
                        Some((_, _, s)) if score_a >= s => f64::INFINITY,
                        Some((_, _, s)) if lb(sides[1], ib, a[ia]) >= s => f64::INFINITY,
                        _ => score_a.max(ev(sides[1], ib, a[ia])),
                    }
                }
            };
            if score.is_infinite() {
                stats.pruned += 1;
            }
            if best.is_none_or(|(_, _, s)| score < s) {
                best = Some((ia, ib, score));
            }
        }
    }
    best.expect("free sets are non-empty")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The KL objective's closed forms are Algorithm 1: on a CPU-only set,
    /// the summary's makespan for every position × incoming function and
    /// the whole-set form equal [`predict_threads_src`] on the materialised
    /// set; neither exists once the set or the incoming function holds a
    /// block segment (a third of them zero-length).
    #[test]
    fn kl_closed_forms_match_algorithm1(
        fns in prop::collection::vec(arb_cpu_bursts(), 1..=20),
        picks in prop::collection::vec(0usize..1000, 1..=16),
        blocky in (arb_cpu_bursts(), 0usize..8, 0u64..3),
        spacing in (any::<bool>(), 1u64..400_000),
        base_ns in 1u64..2_000_000,
        interval_ns in 100_000u64..20_000_000,
    ) {
        let (mut segments, block_at, block_ms) = blocky;
        let block = Segment::block_ms(SyscallKind::NetIo, 1.5 * block_ms as f64);
        segments.insert(block_at % (segments.len() + 1), block);
        let catalog = SegmentCatalog::from_segments(fns.iter().cloned().chain([segments]));
        let spacing = SimDuration::from_nanos(spacing.1 * u64::from(spacing.0));
        let base = SimDuration::from_nanos(base_ns);
        let interval = SimDuration::from_nanos(interval_ns);
        let shape = StaggeredSet { set: &[], catalog: &catalog, spacing, base };
        let whole = |set: &[FunctionId]| StaggeredSet { set, ..shape }.cpu_only_makespan();
        let mut arena = SimArena::new();
        let mut algorithm1 = |set: &[FunctionId]| {
            let thread = |(i, &f): (usize, &FunctionId)| SimThread {
                created_at: base + spacing * i as u64,
                segments: catalog.segments(f).to_vec(),
            };
            let threads: Vec<SimThread> = set.iter().enumerate().map(thread).collect();
            predict_threads_src(threads.as_slice(), interval, &mut arena).makespan
        };
        let ids = || (0..=fns.len() as u32).map(FunctionId);
        let blocked = FunctionId(fns.len() as u32);
        let mut set: Vec<FunctionId> =
            picks.iter().map(|&p| FunctionId((p % fns.len()) as u32)).collect();
        let mut summary = StaggeredSummary::default();
        summary.rebuild(&StaggeredSet { set: &set, ..shape });
        prop_assert_eq!(whole(&set), Some(algorithm1(&set)));
        for pos in 0..set.len() {
            for f in ids() {
                let mut swapped = set.clone();
                swapped[pos] = f;
                let closed = (f != blocked).then(|| algorithm1(&swapped));
                let at = format!("{f:?} at {pos} of {set:?}");
                prop_assert_eq!(summary.makespan_with(&catalog, pos, f), closed, "{}", at);
                prop_assert_eq!(whole(&swapped), closed, "{}", at);
            }
        }
        set[picks[0] % picks.len()] = blocked;
        summary.rebuild(&StaggeredSet { set: &set, ..shape });
        prop_assert_eq!(whole(&set), None);
        for pos in 0..set.len() {
            for f in ids() {
                prop_assert_eq!(summary.makespan_with(&catalog, pos, f), None, "{:?}", set);
            }
        }
    }

    /// A CPU-only Kernighan–Lin round's integer scan is its candidate loop:
    /// on random catalogs with repeated CPU totals (so scores tie), sides
    /// of 1–16 functions, zero or positive thread spacing and random
    /// mid-pass free positions, [`SwapScan::best_swap`] picks the loop's
    /// swap with the loop's score, bit for bit, and counts the same
    /// candidates and prunes. With a block on either side it answers
    /// nothing.
    #[test]
    fn kl_round_scan_matches_candidate_loop(
        fns in prop::collection::vec(arb_tied_bursts(), 1..=20),
        picks in (
            prop::collection::vec((0usize..1000, any::<bool>()), 1..=16),
            prop::collection::vec((0usize..1000, any::<bool>()), 1..=16),
        ),
        spacing in (any::<bool>(), 1u64..400_000),
        base in (any::<bool>(), 1u64..2_000_000),
        blocked_side in 0usize..2,
    ) {
        let block = Segment::block_ms(SyscallKind::NetIo, 1.0);
        let catalog = SegmentCatalog::from_segments(fns.iter().cloned().chain([vec![block]]));
        let shape = StaggeredSet {
            set: &[],
            catalog: &catalog,
            spacing: SimDuration::from_nanos(spacing.1 * u64::from(spacing.0)),
            base: SimDuration::from_nanos(base.1 * u64::from(base.0)),
        };
        // Each side's functions, and its free positions in pass order
        // (the first position is kept free if no other is).
        let side = |picks: &[(usize, bool)]| {
            let set: Vec<FunctionId> =
                picks.iter().map(|&(p, _)| FunctionId((p % fns.len()) as u32)).collect();
            let mut free: Vec<usize> = (0..set.len()).filter(|&i| picks[i].1).collect();
            if free.is_empty() {
                free.push(0);
            }
            (set, free)
        };
        let ((mut a, free_a), (mut b, free_b)) = (side(&picks.0), side(&picks.1));
        let mut summaries = [StaggeredSummary::default(), StaggeredSummary::default()];
        summaries[0].rebuild(&StaggeredSet { set: &a, ..shape });
        summaries[1].rebuild(&StaggeredSet { set: &b, ..shape });
        let mut looped = KlStats::default();
        let expected = kl_candidate_loop(
            &catalog,
            [&summaries[0], &summaries[1]],
            [&a, &b],
            [&free_a, &free_b],
            &mut looped,
        );
        let mut scan = SwapScan::default();
        let mut scanned = KlStats::default();
        prop_assert!(scan.begin(&StaggeredSet { set: &a, ..shape }, &StaggeredSet { set: &b, ..shape }));
        let (ia, ib, score) = scan
            .best_swap(&free_a, &free_b, &mut scanned)
            .expect("a CPU-only round is scanned");
        let at = format!("a {a:?} free {free_a:?}, b {b:?} free {free_b:?}");
        prop_assert_eq!((ia, ib), (expected.0, expected.1), "{}", at);
        prop_assert_eq!(score.as_millis_f64().to_bits(), expected.2.to_bits(), "{}", at);
        prop_assert_eq!(scanned, looped, "{}", at);

        // A block on either side: the round is the loop's, not the scan's.
        let blocked = FunctionId(fns.len() as u32);
        let sides = [&mut a, &mut b];
        let pos = picks.0[0].0 % sides[blocked_side].len();
        sides[blocked_side][pos] = blocked;
        prop_assert!(!scan.begin(&StaggeredSet { set: &a, ..shape }, &StaggeredSet { set: &b, ..shape }));
        prop_assert_eq!(scan.best_swap(&free_a, &free_b, &mut scanned), None);
        prop_assert_eq!(scanned, looped);
    }

    /// Up to 8 threads in each of up to 3 processes (spread over process
    /// indices so some hosts none), or one thread per process, on CPUs
    /// from two below to two above the process count or the thread count:
    /// both sides of the per-process replay's boundary. Half the threads
    /// start at zero or at the first GIL switch point, so arrivals tie
    /// with each other and with quantum ends. Half the sandboxes list
    /// their threads in a random order, so one process's lanes need not
    /// sit at consecutive indices.
    #[test]
    fn sandbox_engine_matches_oracle(
        procs in prop::collection::vec(
            prop::collection::vec(
                (arb_edge_segments(), 0u8..4, 0u64..20_000_000, any::<u64>()),
                1..=8,
            ),
            1..=3,
        ),
        interleave in any::<bool>(),
        spread in 1usize..3,
        one_thread_per_process in any::<bool>(),
        cpus_vs_count in 0usize..5,
        cpus_per_thread in any::<bool>(),
        pseudo in any::<bool>(),
    ) {
        let n_procs = procs.len();
        let mut ranked = Vec::new();
        for (k, threads) in procs.into_iter().enumerate() {
            for (segments, at, ns, rank) in threads {
                let start_ns = match at {
                    0 => 0,
                    1 => GIL_INTERVAL.as_nanos(),
                    _ => ns,
                };
                let task = ThreadTask {
                    process: if one_thread_per_process { ranked.len() } else { k * spread },
                    start: SimTime::from_nanos(start_ns),
                    segments,
                };
                ranked.push((rank, task));
            }
        }
        if interleave {
            ranked.sort_by_key(|&(rank, _)| rank);
        }
        let tasks: Vec<ThreadTask> = ranked.into_iter().map(|(_, task)| task).collect();
        let count = if cpus_per_thread || one_thread_per_process { tasks.len() } else { n_procs };
        let cpus = (count + cpus_vs_count).saturating_sub(2).max(1) as u32;
        let runtime = if pseudo { RuntimeKind::PseudoParallel } else { RuntimeKind::TrueParallel };
        check_engine_matches_oracle(&tasks, cpus, runtime);
    }
}

/// Both sandbox engines refuse a sandbox with no CPU, and a zero GIL
/// interval under the GIL only, with the same typed error.
#[test]
fn bad_sandbox_parameters_are_typed_errors() {
    let tasks = [ThreadTask {
        process: 0,
        start: SimTime::ZERO,
        segments: vec![Segment::cpu_ms(1)],
    }];
    let pseudo = RuntimeKind::PseudoParallel;
    let truep = RuntimeKind::TrueParallel;
    for engine in [execute_sandbox, execute_sandbox_reference] {
        for runtime in [pseudo, truep] {
            assert_eq!(
                engine(&tasks, 0, runtime, GIL_INTERVAL),
                Err(SandboxError::ZeroCpus),
                "{runtime:?}"
            );
        }
        assert_eq!(
            engine(&tasks, 1, pseudo, SimDuration::ZERO),
            Err(SandboxError::ZeroGilInterval)
        );
        // Zero CPUs is reported first.
        assert_eq!(
            engine(&tasks, 0, pseudo, SimDuration::ZERO),
            Err(SandboxError::ZeroCpus)
        );
        // Without a GIL the interval is never read.
        assert!(engine(&tasks, 1, truep, SimDuration::ZERO).is_ok());
    }
}

/// Algorithm 1 on CPU-only thread sets, against makespans worked out by
/// hand: the GIL serves the threads back to back in creation order and
/// idles only while nobody has been created yet.
#[test]
fn algorithm1_cpu_only_edge_cases() {
    let interval = SimDuration::from_millis(5);
    let thread = |created_ms: u64, bursts_ms: &[u64]| SimThread {
        created_at: SimDuration::from_millis(created_ms),
        segments: bursts_ms.iter().map(|&ms| Segment::cpu_ms(ms)).collect(),
    };
    let cases: [(&str, Vec<SimThread>, u64, u64); 4] = [
        // 0–3 ms the first thread, idle until 10 ms, then 10–14 ms.
        (
            "idle gap before a late thread",
            vec![thread(0, &[3]), thread(10, &[4])],
            14,
            7,
        ),
        // Zero-length bursts cost nothing. A thread of only zero-length
        // bursts finishes at the first GIL switch point after its creation:
        // 2 ms for the one created mid-burst at 1 ms, and its creation time
        // for the one created at 9 ms, after the 5 ms of work are done.
        (
            "zero-length bursts",
            vec![
                thread(0, &[0, 2, 0, 3]),
                thread(1, &[0]),
                thread(9, &[0, 0]),
            ],
            9,
            5,
        ),
        // 4 + 7 + 2 ms serialised from 2 ms.
        (
            "equal creation times",
            vec![thread(2, &[4]), thread(2, &[7]), thread(2, &[2])],
            15,
            13,
        ),
        // 3 ms creation, then 2 + 6 ms alone.
        ("single thread", vec![thread(3, &[2, 6])], 11, 8),
    ];
    for (case, threads, makespan_ms, cpu_ms) in cases {
        let out = predict_threads(&threads, interval);
        assert_eq!(
            out.makespan,
            SimDuration::from_millis(makespan_ms),
            "{case}"
        );
        assert_eq!(out.cpu_time, SimDuration::from_millis(cpu_ms), "{case}");
    }
}

/// A shrunk failure recorded from an earlier property run: one CPU-only
/// thread of 9 + 20 ms beside one blocking thread of 10 + 16 ms, run
/// through every property over segment lists.
#[test]
fn recorded_segment_regression() {
    let net = |ms| Segment::block_ms(SyscallKind::NetIo, ms);
    let segs = [
        vec![Segment::cpu_ms(9), Segment::cpu_ms(20)],
        vec![net(10.0), net(16.0)],
    ];
    check_algorithm1_lower_bounds(&segs);
    check_algorithm1_matches_fluid(&segs);
    check_true_parallel_monotone(&segs);
}

/// A shrunk failure recorded from an earlier property run: two 1 ms CPU
/// threads in different processes, both started at 10 ms, on one CPU,
/// run through every property over thread tasks.
#[test]
fn recorded_task_regression() {
    let task = |process| ThreadTask {
        process,
        start: SimTime::from_nanos(10_000_000),
        segments: vec![Segment::cpu_ms(1)],
    };
    let tasks = [task(1), task(0)];
    for runtime in [RuntimeKind::PseudoParallel, RuntimeKind::TrueParallel] {
        check_solo_lower_bound(&tasks, 1, runtime);
    }
    check_cpu_capacity(&tasks, 1);
    check_spans_well_formed(&tasks, 1);
}

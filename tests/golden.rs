//! Committed digests of jittered DES outcomes, of PGP decisions, of
//! served request logs and of traces.
//!
//! The simulator is deterministic, so a digest over its outputs pins its
//! behaviour to the bit: a change to the jitter tables, the order of the
//! draws, or any cost the replay charges moves the digest. One digest
//! covers `e2e` alone; the other covers every field of every outcome, so
//! a span that moves, splits or changes kind fails it even when `e2e`
//! holds. A third pins what PGP decides and how hard it searched, so a
//! change to the search that keeps the suite's plans but moves a
//! prediction, a KL counter or a cache lookup anywhere fails it. The
//! lifecycle cell digests pin the request logs of
//! three faulted serving runs, and their sojourn percentiles pin the
//! histograms those runs report. The trace digests pin the DES trace of
//! the suite, the `figures obs` and `figures fleet-obs` traces at their
//! committed sizes, and the bytes of a Chrome trace export; the transfer
//! digest pins the shm-ring tier's fleet report. A deliberate
//! change updates the constants here by hand, and names the old and new
//! values in CHANGES.md.

use chiron::ml;
use chiron::model::{
    apps, synthetic, DeploymentPlan, JitterModel, PlatformConfig, SimDuration, SyntheticSpec,
    Workflow,
};
use chiron::obs::{self, Trace};
use chiron::{Chiron, PgpMode, ServeReport};
use chiron_deploy::planners;
use chiron_pgp::{PgpConfig, PgpScheduler, ScheduleOutcome};
use chiron_predict::{PredictionCache, Predictor};
use chiron_profiler::Profiler;
use chiron_runtime::{des_windows, to_chrome_trace, RequestOutcome, SimScratch, VirtualPlatform};
use std::sync::{Mutex, OnceLock};

/// FNV-1a over the little-endian bytes of each `e2e` in nanoseconds,
/// in suite × {Chiron, Faastlane, OpenFaaS} × seed order.
const SUITE_E2E_DIGEST: u64 = 0xc458_c662_5560_a201;
/// FNV-1a, in the same order, over every outcome: `e2e`; per timeline
/// (in `FunctionId` order) its function, sandbox, stage, dispatch,
/// exec-start and completion instants, its span count and each span's
/// kind, start and end; then every stage window's start and end.
const SUITE_OUTCOME_DIGEST: u64 = 0x7aa6_ec26_b16f_65ea;
const SEEDS: u64 = 32;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn outcome_digest(mut digest: u64, outcome: &RequestOutcome) -> u64 {
    let mut add = |v: u64| digest = fnv1a(digest, &v.to_le_bytes());
    add(outcome.e2e.as_nanos());
    for t in &outcome.timelines {
        let spans = t.spans(&outcome.spans);
        for v in [
            u64::from(t.function.0),
            u64::from(t.sandbox.0),
            t.stage as u64,
            t.dispatched.as_nanos(),
            t.exec_start.as_nanos(),
            t.completed.as_nanos(),
            spans.len() as u64,
        ] {
            add(v);
        }
        for s in spans.iter() {
            add(s.kind as u64);
            add(s.start.as_nanos());
            add(s.end.as_nanos());
        }
    }
    for &(start, end) in &outcome.stage_windows {
        add(start.as_nanos());
        add(end.as_nanos());
    }
    digest
}

fn chiron_plan(wf: &Workflow) -> DeploymentPlan {
    Chiron::default()
        .deploy(wf, None, PgpMode::NativeThread)
        .plan()
        .clone()
}

/// Runs the suite × {Chiron, Faastlane, OpenFaaS} × `seeds` on the
/// jittered platform and folds each outcome, with its plan, into the
/// digest with `fold`.
fn suite_digest(
    seeds: u64,
    mut fold: impl FnMut(u64, &DeploymentPlan, &RequestOutcome) -> u64,
) -> u64 {
    let platform = VirtualPlatform::new(
        PlatformConfig::paper_calibrated().with_jitter(JitterModel::cluster()),
    );
    let mut scratch = SimScratch::new();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for wf in &apps::evaluation_suite() {
        for plan in [
            chiron_plan(wf),
            planners::faastlane(wf),
            planners::openfaas(wf),
        ] {
            for seed in 0..seeds {
                let outcome = platform
                    .execute_with_scratch(wf, &plan, seed, &mut scratch)
                    .expect("suite plans execute");
                digest = fold(digest, &plan, &outcome);
            }
        }
    }
    digest
}

/// FNV-1a over every PGP decision of [`pgp_schedules`]: per schedule the
/// plan's `Debug` text, `predicted` in nanoseconds, `processes`,
/// `met_slo`, the five `audit.kl` counters and the cache hits and misses.
const PGP_DECISION_DIGEST: u64 = 0xc546_c138_a441_5f6d;
/// Seeded synthetic workflows in the PGP decision digest.
const PGP_SYNTHETICS: u64 = 40;

/// Every schedule the PGP decision digest covers, each on a fresh cache:
/// the suite and FINRA-20 under both profiler seeds, every mode and both
/// configs (FINRA-100/200 only NativeThread performance-first, to bound
/// the debug build's time), then seeded synthetics the same way. Half
/// the synthetics are CPU-only and half mix in I/O, so the KL search
/// runs both its CPU-only and its keyed rounds.
fn pgp_schedules(mut visit: impl FnMut(&ScheduleOutcome)) {
    let scheduler = PgpScheduler::new(Predictor::from_config(&PlatformConfig::paper_calibrated()));
    let mut workflows = apps::evaluation_suite();
    workflows.push(apps::finra(20));
    workflows.extend((0..PGP_SYNTHETICS).map(|seed| {
        synthetic(SyntheticSpec {
            seed,
            io_fraction: if seed % 2 == 0 { 0.0 } else { 0.4 },
            profile_classes: seed as usize % 3,
            ..SyntheticSpec::default()
        })
    }));
    for wf in &workflows {
        let large = wf.function_count() > 60;
        for profiler_seed in [0, 7] {
            let profile = Profiler::default()
                .with_seed(profiler_seed)
                .profile_workflow(wf);
            for mode in [PgpMode::NativeThread, PgpMode::Mpk, PgpMode::Pool] {
                for config in [
                    PgpConfig::performance_first(),
                    PgpConfig::with_slo(SimDuration::from_millis(200)),
                ] {
                    if large && (mode != PgpMode::NativeThread || config.slo.is_some()) {
                        continue;
                    }
                    let config = config.with_mode(mode);
                    let cache = PredictionCache::new();
                    visit(&scheduler.schedule_with_cache(wf, &profile, &config, &cache));
                }
            }
        }
    }
}

#[test]
fn pgp_decision_digest() {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut schedules = 0;
    pgp_schedules(|out| {
        let mut add = |v: u64| digest = fnv1a(digest, &v.to_le_bytes());
        for b in format!("{:?}", out.plan).bytes() {
            add(u64::from(b));
        }
        let kl = &out.audit.kl;
        for v in [
            out.predicted.as_nanos(),
            out.processes as u64,
            u64::from(out.met_slo),
            kl.passes,
            kl.rounds,
            kl.candidates,
            kl.pruned,
            kl.applied,
            out.audit.cache_hits,
            out.audit.cache_misses,
        ] {
            add(v);
        }
        schedules += 1;
    });
    assert_eq!(schedules, 568);
    assert_eq!(
        digest, PGP_DECISION_DIGEST,
        "PGP decision digest moved: committed {PGP_DECISION_DIGEST:#018x}, now {digest:#018x}"
    );
}

#[test]
fn evaluation_suite_e2e_digest() {
    let digest = suite_digest(SEEDS, |h, _, outcome| {
        fnv1a(h, &outcome.e2e.as_nanos().to_le_bytes())
    });
    assert_eq!(
        digest, SUITE_E2E_DIGEST,
        "jittered suite e2e digest moved: committed {SUITE_E2E_DIGEST:#018x}, now {digest:#018x}"
    );
}

#[test]
fn evaluation_suite_outcome_digest() {
    let digest = suite_digest(SEEDS, |h, _, outcome| outcome_digest(h, outcome));
    assert_eq!(
        digest, SUITE_OUTCOME_DIGEST,
        "jittered suite outcome digest moved: committed {SUITE_OUTCOME_DIGEST:#018x}, now {digest:#018x}"
    );
}

/// `ServeReport::digest` of each `figures lifecycle` cell (12,000
/// FINRA-12 requests with three nodes killed at t = 60 s), as
/// `BENCH_LIFECYCLE.json` records them. Between them the cells requeue
/// requests and start replicas from every tier, cold boots included.
const LIFECYCLE_CELL_DIGESTS: [(&str, u64); 3] = [
    ("coldboot-only", 0x2072_63aa_e566_c7c7),
    ("tiered", 0xfa5a_d302_8946_45b3),
    ("tiered-diurnal", 0xec06_62c0_c7da_c0ac),
];

/// The three `figures lifecycle` cells, run once and shared by the
/// tests that read them.
fn lifecycle_cells() -> &'static [(&'static str, ServeReport)] {
    static CELLS: OnceLock<Vec<(&'static str, ServeReport)>> = OnceLock::new();
    CELLS.get_or_init(|| chiron_bench::lifecycle::serve_cells(2))
}

#[test]
fn lifecycle_cell_digests() {
    let hex = |(name, digest): (&str, u64)| format!("{name} {digest:016x}");
    let now: Vec<String> = lifecycle_cells()
        .iter()
        .map(|(name, report)| hex((name, report.digest())))
        .collect();
    let committed: Vec<String> = LIFECYCLE_CELL_DIGESTS.into_iter().map(hex).collect();
    assert_eq!(now, committed, "lifecycle cell digests moved (left: now)");
}

/// The same cells' request logs under the byte-at-a-time FNV-1a record
/// digest that `ServeReport::digest` computed before it took one step per
/// word: per record `arrival_ns`, each optional time as a 0 tag or a 1 tag
/// and the time, `replica`, and `phase << 32 | tier << 24 | forwarded <<
/// 17 | cold_start << 16 | requeues`; then `accepted` and `completed`,
/// each word as its 8 little-endian bytes. These are the cells' digests
/// as pinned before the word digest, so they show its re-baseline moved
/// no record.
const LIFECYCLE_CELL_FNV1A_DIGESTS: [(&str, u64); 3] = [
    ("coldboot-only", 0x40ce_4cea_1d59_8ed2),
    ("tiered", 0xe630_e422_242b_840b),
    ("tiered-diurnal", 0x6d11_1746_3aaf_40c2),
];

fn bytewise_record_digest(report: &ServeReport) -> u64 {
    let mut words = Vec::new();
    for r in &report.records {
        words.push(r.arrival_ns);
        for time in [r.dispatched_ns(), r.completed_ns()] {
            match time {
                Some(ns) => words.extend([1, ns]),
                None => words.push(0),
            }
        }
        words.push(u64::from(r.replica));
        words.push(
            u64::from(r.phase) << 32
                | u64::from(r.tier) << 24
                | u64::from(r.forwarded()) << 17
                | u64::from(r.cold_start()) << 16
                | u64::from(r.requeues),
        );
    }
    words.extend([report.accepted, report.completed]);
    words
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, w| fnv1a(h, &w.to_le_bytes()))
}

#[test]
fn lifecycle_cell_records_hold_their_bytewise_digests() {
    let hex = |(name, digest): (&str, u64)| format!("{name} {digest:016x}");
    let now: Vec<String> = lifecycle_cells()
        .iter()
        .map(|(name, report)| hex((name, bytewise_record_digest(report))))
        .collect();
    let committed: Vec<String> = LIFECYCLE_CELL_FNV1A_DIGESTS.into_iter().map(hex).collect();
    assert_eq!(now, committed, "lifecycle cell records moved (left: now)");
}

/// Each lifecycle cell's sojourn p50, p99 and max in ns, as
/// `BENCH_LIFECYCLE.json` records them in ms. The record digests do not
/// cover the sojourn histogram, so these pin its bucket counts.
const LIFECYCLE_CELL_SOJOURNS: [(&str, [u64; 3]); 3] = [
    ("coldboot-only", [87_130_111, 633_077_759, 1_688_227_897]),
    ("tiered", [87_130_111, 524_419_071, 1_700_001_203]),
    ("tiered-diurnal", [87_916_543, 556_531_711, 1_683_991_014]),
];

#[test]
fn lifecycle_cell_sojourn_percentiles() {
    let now: Vec<(&str, [u64; 3])> = lifecycle_cells()
        .iter()
        .map(|(name, report)| {
            let s = &report.sojourns;
            let ns = |d: SimDuration| d.as_nanos();
            (
                *name,
                [ns(s.percentile(0.5)), ns(s.percentile(0.99)), ns(s.max())],
            )
        })
        .collect();
    assert_eq!(
        now, LIFECYCLE_CELL_SOJOURNS,
        "lifecycle cell sojourns moved (left: now)"
    );
}

/// Tracing is process-wide, so the tests that switch it take turns.
static TRACING: Mutex<()> = Mutex::new(());

/// Runs `run` with tracing on, holding [`TRACING`].
fn traced<T>(run: impl FnOnce() -> T) -> T {
    let _lock = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_tracing(true);
    let out = run();
    obs::set_tracing(false);
    out
}

/// FNV-1a over the [`Trace::render`] bytes of each request's DES trace
/// (`des_windows`, normalised as a capture is) over the suite ×
/// {Chiron, Faastlane, OpenFaaS} × `TRACE_SEEDS`, in the suite digests'
/// order: each function's `DesSpan` and `DesBreakdown`. Faastlane and
/// OpenFaaS replay mostly alone wraps, Chiron's GIL processes go through
/// the engine.
const SUITE_DES_TRACE_DIGEST: u64 = 0x47a1_4657_b6e8_a49d;
const TRACE_SEEDS: u64 = 4;

#[test]
fn evaluation_suite_des_trace_digest() {
    let digest = suite_digest(TRACE_SEEDS, |h, plan, outcome| {
        let mut trace = Trace::default();
        des_windows(outcome, plan, &mut trace.events);
        let trace = Trace::concat(vec![trace]);
        fnv1a(h, trace.render().as_bytes())
    });
    assert_eq!(
        digest, SUITE_DES_TRACE_DIGEST,
        "jittered suite DES trace digest moved: committed {SUITE_DES_TRACE_DIGEST:#018x}, now {digest:#018x}"
    );
}

/// `BENCH_OBS.json`'s `trace_digest`: both router cells of one
/// `figures obs` serving figure at its committed size.
const OBS_TRACE_DIGEST: u64 = 0x7808_38c9_91cf_12b1;

#[test]
fn obs_trace_digest() {
    let (_, wf, deployment) = chiron_bench::scenario::deployed();
    let pass = traced(|| chiron_bench::obs::serve_pass(&wf, deployment.plan(), 2, 1));
    let digest = Trace::concat(pass.traces).digest();
    assert_eq!(
        digest, OBS_TRACE_DIGEST,
        "obs trace digest moved: committed {OBS_TRACE_DIGEST:016x}, now {digest:016x}"
    );
}

/// `BENCH_FLEETOBS.json`'s trace and report digests of the `figures
/// fleet-obs` reference run (one shard, one worker) at its committed
/// size.
const FLEET_OBS_DIGESTS: (u64, u64) = (0x2e03_c7b1_c8d1_c87e, 8_788_462_176_310_849_526);

#[test]
fn fleet_obs_digests() {
    use chiron_bench::fleetobs::{scenario, FIGURE_SIZE};
    use chiron_bench::scenario::SEED;
    let (clusters, rps, phase1_ms, phase2_ms) = FIGURE_SIZE;
    let (sim, workload) = scenario(clusters, rps, phase1_ms, phase2_ms);
    let (report, trace) =
        traced(|| sim.run_sharded_traced(&workload, SEED, 1, 1)).expect("fleet run");
    let now = (trace.digest(), report.digest());
    assert_eq!(
        now, FLEET_OBS_DIGESTS,
        "fleet-obs (trace, report) digests moved: committed {FLEET_OBS_DIGESTS:x?}, now {now:x?}"
    );
}

/// `BENCH_TRANSFER.json`'s `fleet_digests`: the shm-ring tier's
/// two-cluster FINRA-12 fleet at 200 rps for 30 s, seed 2023.
const TRANSFER_FLEET_DIGEST: u64 = 5_868_067_341_350_489_189;

#[test]
fn transfer_fleet_digest() {
    use chiron_bench::scenario::SEED;
    use chiron_bench::transfer::{fleet_scenario, FLEET_MS};
    let (fleet, workload) = fleet_scenario(FLEET_MS);
    let digest = fleet.run(&workload, SEED).expect("fleet run").digest();
    assert_eq!(
        digest, TRANSFER_FLEET_DIGEST,
        "transfer fleet digest moved: committed {TRANSFER_FLEET_DIGEST}, now {digest}"
    );
}

/// FNV-1a over `to_chrome_trace`'s document of one unjittered FINRA-5
/// request under Faastlane's plan: the entry function on the main
/// process, then five forked processes in one wrap.
const FINRA5_CHROME_TRACE_DIGEST: u64 = 0xb281_7071_3ec1_d302;

#[test]
fn finra5_forked_chrome_trace_digest() {
    let wf = apps::finra(5);
    let outcome = VirtualPlatform::new(PlatformConfig::paper_calibrated())
        .execute(&wf, &planners::faastlane(&wf), 0)
        .expect("valid plan");
    let json = to_chrome_trace(&wf, &outcome);
    let digest = fnv1a(0xcbf2_9ce4_8422_2325, json.as_bytes());
    assert_eq!(
        digest, FINRA5_CHROME_TRACE_DIGEST,
        "FINRA-5 chrome trace moved: committed {FINRA5_CHROME_TRACE_DIGEST:#018x}, now {digest:#018x}"
    );
}

/// FNV-1a over `f64::to_bits` of every prediction of the learned Fig. 12
/// baselines on [`learned_samples`]: the LSTM's, then the GCN's, each
/// model fitted at its default hidden size for a few epochs. fig12 prints
/// one decimal of a percentage, so these pin what its text cannot see: a
/// reordered sum or a moved random draw anywhere in training.
const LSTM_PREDICTION_DIGEST: u64 = 0x87c5_941a_760b_90dd;
const GNN_PREDICTION_DIGEST: u64 = 0xb037_8ce2_6def_f44e;

/// The real feature extractors on the Fig. 12 workflows × the planners'
/// baselines, with the white-box predictor's latency in ms as the
/// target.
fn learned_samples() -> (
    Vec<Vec<Vec<f64>>>,
    Vec<chiron_bench::fig12::PlanGraph>,
    Vec<f64>,
) {
    let predictor = Predictor::paper_calibrated();
    let (mut seqs, mut graphs, mut targets) = (Vec::new(), Vec::new(), Vec::new());
    for wf in &chiron_bench::fig12::workflows() {
        let profile = Profiler::default().profile_workflow(wf);
        for plan in [
            planners::asf(wf),
            planners::openfaas(wf),
            planners::sand(wf),
            planners::faastlane(wf),
            planners::faastlane_plus(wf),
            planners::faastlane_p(wf),
        ] {
            seqs.push(ml::stage_sequence(wf, &profile, &plan));
            graphs.push(ml::plan_graph(wf, &profile, &plan));
            targets.push(predictor.predict(wf, &profile, &plan).as_millis_f64());
        }
    }
    (seqs, graphs, targets)
}

fn prediction_digest(predictions: impl Iterator<Item = f64>) -> u64 {
    predictions.fold(0xcbf2_9ce4_8422_2325, |h, p| {
        fnv1a(h, &p.to_bits().to_le_bytes())
    })
}

#[test]
fn learned_baseline_prediction_digests() {
    let (seqs, graphs, targets) = learned_samples();
    let lstm = ml::LstmRegressor::fit(
        &seqs,
        &targets,
        ml::LstmConfig {
            epochs: 4,
            ..Default::default()
        },
    )
    .expect("valid samples");
    let gnn = ml::GnnRegressor::fit(
        &graphs,
        &targets,
        ml::GnnConfig {
            epochs: 4,
            ..Default::default()
        },
    )
    .expect("valid samples");
    let now = (
        prediction_digest(seqs.iter().map(|s| lstm.predict(s).expect("fitted width"))),
        prediction_digest(
            graphs
                .iter()
                .map(|(n, a)| gnn.predict(n, a).expect("fitted width")),
        ),
    );
    assert_eq!(
        now,
        (LSTM_PREDICTION_DIGEST, GNN_PREDICTION_DIGEST),
        "learned baseline (LSTM, GCN) prediction digests moved (left: now)"
    );
}

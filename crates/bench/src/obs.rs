//! `figures -- obs`: the observability evaluation, written to
//! `BENCH_OBS.json` (+ a Perfetto/Chrome trace in `serve_trace.json`, a
//! component-blame counter track in `blame_counters.json`, and a
//! folded-stack flame profile in `attrib_flame.folded`).
//!
//! One faulted serving run — FINRA-12 under Chiron's plan, steady 50 rps
//! Poisson traffic for 12 000 requests with nodes 0–2 killed at t = 60 s,
//! under both routing architectures and a 1.2 s / 99.9 % latency SLO — is
//! executed several ways:
//!
//! * **disabled vs enabled, interleaved** — each timing round runs a
//!   tracing-off pass and a tracing-on pass back to back and the median
//!   wall clock per mode is reported (the `perf_eval` interleaving
//!   cancels machine drift; the median cancels outliers in both
//!   directions, which a minimum does not).
//!   The disabled sink must stay at exactly zero events and buffers
//!   (`disabled_zero_cost`), tracing must leave every cell's report
//!   unchanged (`reports_identical_enabled_disabled`), and the enabled
//!   overhead fraction is gated at ≤ 0.15 (`tracing_overhead_le_15pct`).
//! * **enabled, workers 1 vs 4** — the assembled traces, the per-request
//!   latency attributions derived from them, the SLO burn-rate alert
//!   timelines and the what-if candidates must all be byte-identical
//!   (`trace_identical_w1_w4`, `attrib_identical_w1_w4`,
//!   `slo_alerts_identical_w1_w4`, `whatif_identical_w1_w4`): the same
//!   worker-count-invariance contract the sweep engine keeps.
//!
//! On top of the captured trace the report runs the analysis plane:
//! **latency attribution** (every sojourn decomposed exactly into
//! queueing / cold start / GIL block / interaction / execution / retry —
//! `attrib_sums_exact`), **SLO burn-rate alerting** (the 3-node kill at
//! t = 60 s must light up the multi-window monitor — `slo_alerts_fired_gt_0`
//! — within 20 s — `slo_alert_follows_kill`), and **Coz-style
//! what-if profiling** (the top-blamed components' constants virtually
//! sped up to 75/50/25 %, ranked by predicted p99 improvement).
//!
//! The report also carries the predictor-drift residuals (predicted vs
//! DES-observed latency, end-to-end and per stage; each bias with its
//! standard error, so a sampler bias can be told from noise), the PGP decision
//! audit of the deployment's schedule, and the full metrics-registry
//! snapshot. Every named contract is a gate: `figures` exits non-zero if
//! one fails.

use crate::report::{hex, Json, Obj, Report};
use crate::sweep;
use chiron::serving::{
    FaultPlan, RouterPolicy, ServeConfig, ServeReport, ServeSimulation, Workload,
};
use chiron::{Chiron, Deployment, PgpMode};
use chiron_deploy::NodeId;
use chiron_metrics::ArrivalProcess;
use chiron_model::{
    apps, DeploymentPlan, JitterModel, PlatformConfig, SimDuration, SimTime, Workflow,
};
use chiron_obs::{AttributionReport, DriftEntry, DriftMonitor, SloPolicy, Trace, TraceStats};
use chiron_pgp::ScheduleOutcome;
use chiron_runtime::VirtualPlatform;
use std::time::Instant;

const SEED: u64 = 2023;
/// ≥ 10k requests so the exported trace covers a full-scale faulted run.
const REQUESTS: u64 = 12_000;
/// Jittered requests feeding the drift monitor's residual series.
const DRIFT_SAMPLES: u64 = 200;
/// Nodes killed at t = 60 s. One kill only strands ~3 in-flight requests
/// (replicas are spread thin across 8 nodes); three make an incident the
/// burn-rate monitor cannot mistake for noise.
const KILLED_NODES: u32 = 3;
/// Interleaved timing rounds (per-mode median reported). The serving
/// passes are short (~tens of ms), so single-shot timings are
/// scheduler-noise dominated; the per-mode median over many alternating
/// rounds shrugs off outliers in both directions. Unoptimised builds
/// (the unit test) use fewer rounds — their wall clock is not asserted
/// anywhere.
const TIMING_ROUNDS: usize = if cfg!(debug_assertions) { 2 } else { 24 };
/// Back-to-back serving figures per timed sample. One figure is only
/// ~25 ms optimised — small enough that a couple of milliseconds of
/// scheduler jitter reads as a double-digit overhead percentage; three in
/// a row stretch the timed region past the noise floor so the
/// min-of-rounds ratio converges. Unoptimised builds keep one.
const TIMING_PASSES: usize = if cfg!(debug_assertions) { 1 } else { 3 };
/// Enabled-tracing overhead ceiling (`tracing_overhead_le_15pct`).
const OVERHEAD_CEILING: f64 = 0.15;
/// Components fed to the what-if profiler.
const WHATIF_TOP_N: usize = 5;

/// Median wall clock over the timing rounds. Minima looked attractive
/// but are fragile for a *ratio*: one turbo-burst outlier on the
/// disabled side (observed ~10 % below the usual floor) inflates the
/// overhead fraction past the ceiling even when the typical gap is 8 %.
/// The median ignores lucky and contended outliers on both sides.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mid = xs.len() / 2;
    if xs.len().is_multiple_of(2) {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
}

/// The serving SLO every cell runs under: requests over 1.2 s are bad
/// (comfortably above the healthy tail, including the Poisson bursts), at
/// a 99.9 % objective with the classic 5 s / 60 s burn-rate window pair.
fn slo_policy() -> SloPolicy {
    SloPolicy {
        target: SimDuration::from_millis(1_200),
        objective: 0.999,
        short_window: SimDuration::from_secs(5),
        long_window: SimDuration::from_secs(60),
        burn_threshold: 2.0,
        min_samples: 20,
    }
}

fn faults() -> FaultPlan {
    let kill_at = SimTime::from_millis_f64(60_000.0);
    let mut plan = FaultPlan::none();
    for node in 0..KILLED_NODES {
        plan = plan.kill_at(kill_at, NodeId(node));
    }
    plan
}

fn workload() -> Workload {
    Workload::steady(50.0, REQUESTS).with_arrivals(ArrivalProcess::Poisson { seed: 7 })
}

/// One full serving figure — both router cells from the same seed — with
/// each cell's capture returned in cell-index order.
#[derive(Debug)]
pub struct ServePass {
    /// Byte string compared across worker counts: the concatenated
    /// per-cell traces, normalised.
    render: String,
    /// Per-cell traces, cell-index order (0 = central-fifo); while tracing
    /// is off, empty. `BENCH_OBS.json`'s `trace_digest` is
    /// [`Trace::concat`]'s over them.
    pub traces: Vec<Trace>,
    /// Per-cell [`ServeReport::digest`]s: tracing must never perturb the
    /// simulation itself.
    digests: Vec<u64>,
    /// Per-cell reports (SLO summaries ride inside).
    reports: Vec<ServeReport>,
    ms: f64,
}

/// Runs the serving figure `reps` times back to back and reports the
/// total wall clock; the last rep's traces and reports are returned
/// (every rep is the same deterministic computation, so which one is
/// kept is immaterial — the extra reps only lengthen the timed region).
/// The figure runs at its committed size; tier-1 pins its trace digest.
pub fn serve_pass(wf: &Workflow, plan: &DeploymentPlan, workers: usize, reps: usize) -> ServePass {
    let workload = workload();
    let cells = RouterPolicy::ALL;
    let t0 = Instant::now();
    let results: Vec<(Trace, ServeReport)> =
        sweep::par_map_workers(&cells, workers, |_, &router| {
            // The capture buffer is thread-local and scoped to this cell, so
            // a cell's trace depends only on the cell — never on which worker
            // ran it or what ran before it. Pre-sized: a serving run emits
            // ~8 events per request, so the capture never pays a growth
            // memcpy inside the timed region. Intermediate reps recycle
            // their buffer so only the first faults in fresh pages.
            let mut out: Option<(Trace, ServeReport)> = None;
            for _ in 0..reps {
                if let Some((trace, _)) = out.take() {
                    chiron_obs::recycle(trace);
                }
                chiron_obs::begin_capture_sized(REQUESTS as usize * 10);
                let config = ServeConfig::paper_testbed()
                    .with_router(router)
                    .with_slo(slo_policy());
                let sim =
                    ServeSimulation::new(wf.clone(), plan.clone(), config).with_faults(faults());
                let report = sim.run(&workload, SEED).expect("serving run");
                out = Some((chiron_obs::end_capture(), report));
            }
            out.expect("at least one rep")
        });
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let digests = results.iter().map(|(_, r)| r.digest()).collect();
    let (traces, reports): (Vec<Trace>, Vec<ServeReport>) = results.into_iter().unzip();
    let render = Trace::concat(traces.clone()).render();
    ServePass {
        render,
        traces,
        digests,
        reports,
        ms,
    }
}

/// The served workflow, FINRA-12, and Chiron's deployment of it.
pub fn deployed() -> (Chiron, Workflow, Deployment) {
    let chiron = Chiron::default();
    let wf = apps::finra(12);
    let deployment = chiron.deploy(&wf, None, PgpMode::NativeThread);
    (chiron, wf, deployment)
}

fn audit_json(schedule: &ScheduleOutcome) -> Obj {
    let audit = &schedule.audit;
    let kl = &audit.kl;
    Obj::new()
        .field("processes", schedule.processes)
        .field("predicted_ms", schedule.predicted.as_millis_f64())
        .field("met_slo", schedule.met_slo)
        .field("candidates_examined", audit.candidates_examined)
        .field(
            "kl",
            Obj::new()
                .field("passes", kl.passes)
                .field("rounds", kl.rounds)
                .field("candidates", kl.candidates)
                .field("pruned", kl.pruned)
                .field("applied", kl.applied),
        )
        .field("cache_hits", audit.cache_hits)
        .field("cache_misses", audit.cache_misses)
        .field(
            "function_modes",
            audit
                .function_modes
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>(),
        )
}

fn drift_json(e: &DriftEntry) -> Obj {
    Obj::new()
        .field("workflow", e.workflow.as_str())
        .field("plan", hex(e.plan))
        .field("stage", e.stage)
        .field("predicted_ms", e.predicted_ms)
        .field("samples", e.samples)
        .field("observed_mean_ms", e.observed_mean_ms)
        .field("observed_p50_ms", e.observed_p50_ms)
        .field("observed_p99_ms", e.observed_p99_ms)
        .field("bias_ms", e.bias_ms)
        .field("bias_se_ms", e.bias_se_ms)
        .field("mae_ms", e.mae_ms)
}

fn drift_table(entries: &[DriftEntry]) -> String {
    let mut out = String::from(
        "stage      predicted_ms  samples  mean_ms   p50_ms    p99_ms    bias_ms   bias_se  mae_ms\n",
    );
    for e in entries {
        let stage = e
            .stage
            .map_or_else(|| "e2e".into(), |s| format!("stage {s}"));
        let predicted = e
            .predicted_ms
            .map_or_else(|| "-".into(), |p| format!("{p:.3}"));
        out.push_str(&format!(
            "{stage:<10} {predicted:>12}  {:>7}  {:>8.3}  {:>8.3}  {:>8.3}  {:>8.3}  {:>7.3}  {:>7.3}\n",
            e.samples,
            e.observed_mean_ms,
            e.observed_p50_ms,
            e.observed_p99_ms,
            e.bias_ms,
            e.bias_se_ms,
            e.mae_ms,
        ));
    }
    out
}

/// Concatenated per-cell SLO alert timelines — the byte string the
/// workers-invariance gate compares.
fn slo_timelines(pass: &ServePass) -> String {
    pass.reports
        .iter()
        .map(|r| {
            r.slo
                .as_ref()
                .map(chiron_obs::SloSummary::render_timeline)
                .unwrap_or_default()
        })
        .collect()
}

/// The observability report (see module docs). `workers` drives the drift
/// observation sweep; the timed serving passes run the cells sequentially
/// (one worker — parallel cells share memory bandwidth, which inflates
/// and jitters the measured tracing cost) and the invariance checks are
/// pinned to 1 vs 4, so reports are comparable across machines.
pub fn obs_eval(workers: usize) -> Report {
    // Reports cover this run, not the process's cumulative history.
    chiron_obs::reset_metrics();
    chiron_obs::reset_trace_stats();
    chiron_obs::set_tracing(false);

    let (chiron, wf, deployment) = deployed();
    let plan = deployment.plan().clone();

    // Interleaved timing (the perf_eval idiom): each round runs the
    // disabled and the enabled pass back to back, so slow machine drift
    // hits both modes equally; the per-mode median over the rounds then
    // drops scheduler and allocator noise. The disabled pass must also
    // be provably free — zero events seen, zero capture buffers opened.
    let mut disabled: Option<ServePass> = None;
    let mut enabled: Option<ServePass> = None;
    let mut disabled_times = Vec::with_capacity(TIMING_ROUNDS);
    let mut enabled_times = Vec::with_capacity(TIMING_ROUNDS);
    let mut disabled_zero_cost = true;
    // One discarded warmup pass per mode: the first figures after a cold
    // start (or a CI build) run with cold caches and a ramping frequency
    // governor, which would skew the first rounds of both series.
    serve_pass(&wf, &plan, 1, 1);
    chiron_obs::set_tracing(true);
    serve_pass(&wf, &plan, 1, 1);
    chiron_obs::set_tracing(false);
    for _ in 0..TIMING_ROUNDS {
        chiron_obs::reset_trace_stats();
        chiron_obs::set_tracing(false);
        let d = serve_pass(&wf, &plan, 1, TIMING_PASSES);
        disabled_zero_cost &=
            chiron_obs::trace_stats() == TraceStats::default() && d.render.is_empty();
        disabled_times.push(d.ms);
        disabled = Some(d);
        chiron_obs::set_tracing(true);
        let e = serve_pass(&wf, &plan, 1, TIMING_PASSES);
        chiron_obs::set_tracing(false);
        enabled_times.push(e.ms);
        enabled = Some(e);
    }
    let disabled = disabled.expect("timed rounds ran");
    // The timed enabled pass ran the cells on one worker; it doubles as
    // the workers-1 side of the invariance check.
    let w1 = enabled.expect("timed rounds ran");
    let disabled_ms = median(&mut disabled_times);
    let enabled_ms = median(&mut enabled_times);
    let overhead = (enabled_ms - disabled_ms) / disabled_ms;

    // Workers-4 identity pass (untimed): any worker count must assemble
    // the same bytes, and tracing must leave the simulation untouched.
    chiron_obs::set_tracing(true);
    let w4 = serve_pass(&wf, &plan, 4, 1);
    chiron_obs::set_tracing(false);
    let trace_identical = !w4.render.is_empty() && w1.render == w4.render;
    let reports_identical = w1.digests == w4.digests && w1.digests == disabled.digests;
    let trace_events: usize = w4.traces.iter().map(Trace::len).sum();
    let trace_digest = Trace::concat(w4.traces.clone()).digest();
    let perfetto = chiron_obs::serve_trace(&w4.traces[0]);

    // Latency attribution: every completed request's sojourn decomposed
    // exactly, per cell, from both worker counts.
    let attrib_w4: Vec<AttributionReport> = w4.traces.iter().map(chiron_obs::attribute).collect();
    let attrib_w1: Vec<AttributionReport> = w1.traces.iter().map(chiron_obs::attribute).collect();
    let attrib_sums_exact = attrib_w4
        .iter()
        .chain(attrib_w1.iter())
        .all(AttributionReport::sums_exact);
    let attrib_render_w4: String = attrib_w4.iter().map(AttributionReport::render).collect();
    let attrib_render_w1: String = attrib_w1.iter().map(AttributionReport::render).collect();
    let attrib_identical = !attrib_render_w4.is_empty() && attrib_render_w1 == attrib_render_w4;
    let central = &attrib_w4[0];
    let flame = central.folded_flame();
    let counters = central.counter_track(&AttributionReport::completions(&w4.traces[0]));

    // SLO burn-rate alerting: the 3-node kill at t = 60 s must trip the
    // monitor, identically for any worker count.
    let slo_w4 = slo_timelines(&w4);
    let slo_w1 = slo_timelines(&w1);
    let slo_identical = !slo_w4.is_empty() && slo_w1 == slo_w4;
    let slo_central = w4.reports[0].slo.as_ref().expect("slo configured");
    let slo_alerts_fired: u32 = w4
        .reports
        .iter()
        .filter_map(|r| r.slo.as_ref())
        .map(|s| s.alerts_fired)
        .sum();
    let kill_ns = 60_000_000_000u64;
    let slo_alert_follows_kill = slo_central
        .first_alert_ns
        .is_some_and(|at| (kill_ns..kill_ns + 20_000_000_000).contains(&at));

    // Coz-style what-if: virtually speed the top-blamed components up to
    // 75/50/25 % and rank by predicted p99 improvement. `whatif::run` is
    // a pure function of (candidates, baseline, runner) and the runner is
    // deterministic in (config, plan, workload, seed), so byte-identity
    // across worker counts reduces to candidate-list equality.
    let cand_w4: Vec<_> = central
        .blame_ranking()
        .into_iter()
        .take(WHATIF_TOP_N)
        .collect();
    let cand_w1: Vec<_> = attrib_w1[0]
        .blame_ranking()
        .into_iter()
        .take(WHATIF_TOP_N)
        .collect();
    let whatif_identical = cand_w1 == cand_w4;
    let whatif = chiron.whatif_report(
        &wf,
        &deployment,
        ServeConfig::paper_testbed().with_slo(slo_policy()),
        faults(),
        &workload(),
        SEED,
        &w4.reports[0],
        central,
        WHATIF_TOP_N,
    );

    // Predictor drift: the committed e2e prediction plus an unjittered
    // per-stage baseline, against jittered DES observations. Observations
    // are recorded on this thread in cell-index order, so the residual
    // series are deterministic.
    let mut monitor = DriftMonitor::new();
    let key = chiron_obs::drift::plan_key(&plan);
    monitor.record_prediction(&wf.name, key, None, deployment.schedule.predicted);
    let unjittered = VirtualPlatform::new(PlatformConfig::paper_calibrated());
    let base = unjittered.execute(&wf, &plan, 0).expect("valid plan");
    for (s, &(start, end)) in base.stage_windows.iter().enumerate() {
        monitor.record_prediction(&wf.name, key, Some(s as u32), end.since(start));
    }
    let jittered = VirtualPlatform::new(
        PlatformConfig::paper_calibrated().with_jitter(JitterModel::cluster()),
    );
    let seeds: Vec<u64> = (1..=DRIFT_SAMPLES).collect();
    let outcomes = sweep::par_map_workers(&seeds, workers, |_, &seed| {
        jittered.execute(&wf, &plan, seed).expect("valid plan")
    });
    for outcome in &outcomes {
        monitor.record_observation(&wf.name, key, None, outcome.e2e);
        for (s, &(start, end)) in outcome.stage_windows.iter().enumerate() {
            monitor.record_observation(&wf.name, key, Some(s as u32), end.since(start));
        }
    }
    let drift = monitor.report();

    let snapshot = chiron_obs::snapshot();

    let mut report = Report::new("BENCH_OBS.json");
    report.gate("trace_identical_w1_w4", trace_identical);
    report.gate("disabled_zero_cost", disabled_zero_cost);
    report.gate("attrib_sums_exact", attrib_sums_exact);
    report.gate("attrib_identical_w1_w4", attrib_identical);
    report.gate("slo_alerts_identical_w1_w4", slo_identical);
    report.gate("whatif_identical_w1_w4", whatif_identical);
    report.gate("reports_identical_enabled_disabled", reports_identical);
    report.gate("slo_alerts_fired_gt_0", slo_alerts_fired > 0);
    report.gate("slo_alert_follows_kill", slo_alert_follows_kill);
    report.gate("tracing_overhead_le_15pct", overhead <= OVERHEAD_CEILING);

    report.json = Obj::new()
        .field("workers", workers)
        .field(
            "scenario",
            format!(
                "FINRA-12, steady 50 rps x {REQUESTS} requests, Poisson seed 7, \
                 nodes 0-{} killed at t=60 s, central-fifo + partitioned cells, \
                 SLO 1200 ms @ 99.9%, seed {SEED}",
                KILLED_NODES - 1
            ),
        )
        .field("slo_alerts_fired", slo_alerts_fired)
        .field(
            "slo_first_alert_s",
            slo_central.first_alert_ns.map(|at| at as f64 / 1e9),
        )
        .field("attributed_requests", central.requests.len())
        .field(
            "component_blame",
            cand_w4
                .iter()
                .map(|(c, ns)| {
                    Obj::new()
                        .field("component", c.name())
                        .field("blame_ms", *ns as f64 / 1e6)
                })
                .collect::<Vec<_>>(),
        )
        .field("whatif_baseline_p99_ms", whatif.baseline_p99_ms)
        .field(
            "whatif_ranking",
            whatif
                .ranking
                .iter()
                .map(|r| {
                    Obj::new()
                        .field("component", r.component.name())
                        .field("blame_ms", r.blame_ns as f64 / 1e6)
                        .field("best_scale_pct", r.best_scale_pct)
                        .field("best_improvement_ms", r.best_improvement_ms)
                })
                .collect::<Vec<_>>(),
        )
        .field(
            "whatif_unsupported",
            whatif
                .unsupported
                .iter()
                .map(|c| c.name())
                .collect::<Vec<_>>(),
        )
        .field("trace_events", trace_events)
        .field("trace_digest", hex(trace_digest))
        .field("serve_disabled_ms", disabled_ms)
        .field("serve_enabled_ms", enabled_ms)
        .field("tracing_overhead_fraction", overhead)
        .field("pgp_audit", audit_json(&deployment.schedule))
        .field("drift", drift.iter().map(drift_json).collect::<Vec<_>>())
        .field("metrics", Json::Raw(snapshot.to_json()));

    let text = format!(
        concat!(
            "Observability — FINRA-12 serving run ({} requests, {} nodes killed at t=60 s)\n",
            "trace events: {}   digest: {:016x}\n",
            "serve wall clock: disabled {:.1} ms, enabled {:.1} ms ",
            "(overhead {:+.1}%, median of {} interleaved rounds × {} figures, ceiling {:.0}%)\n\n",
            "Latency attribution (central-fifo cell)\n{}\n",
            "SLO burn-rate alerts (central-fifo cell)\n{}\n",
            "{}\n",
            "Predictor drift (predicted vs DES-observed, {} jittered requests)\n{}\n",
            "PGP decision audit: n={}, KL passes={} rounds={} candidates={} ",
            "pruned={} applied={}, cache {}/{} hit/miss\n\n",
            "Metrics registry\n{}"
        ),
        REQUESTS,
        KILLED_NODES,
        trace_events,
        trace_digest,
        disabled_ms,
        enabled_ms,
        overhead * 100.0,
        TIMING_ROUNDS,
        TIMING_PASSES,
        OVERHEAD_CEILING * 100.0,
        central.render_profiles(),
        slo_central.render_timeline(),
        whatif.render(),
        DRIFT_SAMPLES,
        drift_table(&drift),
        deployment.schedule.processes,
        deployment.schedule.audit.kl.passes,
        deployment.schedule.audit.kl.rounds,
        deployment.schedule.audit.kl.candidates,
        deployment.schedule.audit.kl.pruned,
        deployment.schedule.audit.kl.applied,
        deployment.schedule.audit.cache_hits,
        deployment.schedule.audit.cache_misses,
        snapshot.render_table(),
    );

    report.text = text;
    report.artifacts = vec![
        ("serve_trace.json", perfetto),
        ("blame_counters.json", counters),
        ("attrib_flame.folded", flame),
    ];
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_eval_holds_its_deterministic_contracts() {
        let _lock = crate::TRACING.lock().unwrap_or_else(|e| e.into_inner());
        let report = obs_eval(2);
        // Wall-clock overhead excepted: this test runs unoptimised.
        crate::report::assert_gates(&report, 10, &["tracing_overhead_le_15pct"]);
        let json = report.render();
        // The what-if profiler ranks at least three scalable components.
        assert!(
            json.matches("\"best_scale_pct\"").count() >= 3,
            "what-if must rank at least three components:\n{json}"
        );
        // The audit and drift payloads are present and populated.
        assert!(json.contains("\"pgp_audit\""));
        assert!(json.contains("\"candidates\""));
        assert!(json.contains("\"observed_p99_ms\""));
        assert!(json.contains("\"samples\": 200"));
        // The Perfetto export covers the causal request life.
        let perfetto = report.artifact("serve_trace.json").expect("trace");
        for needle in ["\"queue\"", "\"exec\"", "cold-start", "node 0 dead"] {
            assert!(perfetto.contains(needle), "{needle} missing");
        }
        assert_eq!(perfetto.matches('{').count(), perfetto.matches('}').count());
        // The flame and counter-track artifacts are non-trivial.
        let flame = report.artifact("attrib_flame.folded").expect("flame");
        assert!(flame.contains(";serving;"));
        let counters = report.artifact("blame_counters.json").expect("counters");
        assert!(counters.contains("\"blame_ms\""));
        assert!(report.text.contains("Predictor drift"));
        assert!(report.text.contains("SLO burn-rate alerts"));
    }
}

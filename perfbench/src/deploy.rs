//! `deploy`: the paper's offline path (Fig. 9 steps 2-5 plus ground truth)
//! over the eight evaluation workflows and one seeded synthetic workflow.
//!
//! Each workflow is one pipeline: deployed cold as `Chiron::deploy` does
//! on a fresh manager, re-planned warm as `reprofile` does, its plan and
//! the Faastlane and OpenFaaS baselines predicted, then each of the three
//! plans invoked `INVOCATIONS` times on a jittered ground-truth platform.
//! PGP with the predictor and the DES runtime each carry about half of the
//! work; nothing is served.

use crate::report::Report;
use crate::spans::Spans;
use crate::util::{derive_seed, fastest, geomean, ratio, timed, timed_passes};
use crate::Opts;
use chiron::deploy::{generate, planners};
use chiron::metrics::{plan_resources, request_cost, LatencySamples};
use chiron::model::{
    apps, synthetic, DeploymentPlan, FunctionId, JitterModel, PlatformConfig, SyntheticSpec,
    Workflow,
};
use chiron::predict::{PredictionCache, Predictor};
use chiron::profiler::Profiler;
use chiron::runtime::{SimScratch, VirtualPlatform};
use chiron::{state_transitions, Deployment, PgpConfig, PgpMode, PgpScheduler};

/// Ground-truth invocations per plan: enough that the p99 has ten
/// samples beyond it.
const INVOCATIONS: u64 = 1_000;
/// Set-ups timed before each timed pass: a pass takes over a second, so
/// this gives a few hundred per run.
const SETUPS_PER_PASS: usize = 16;
/// Plan kinds invoked per pipeline, in `Pipeline::p50_ms` order, and the
/// name of the runtime span around each kind's invocations.
const PLAN_KINDS: [&str; 3] = ["chiron", "faastlane", "openfaas"];
const EXECUTE_SPANS: [&str; 3] = [
    "execute_with_scratch(chiron)",
    "execute_with_scratch(faastlane)",
    "execute_with_scratch(openfaas)",
];

struct Inputs {
    /// The evaluation suite, then the synthetic workflow.
    suite: Vec<Workflow>,
    /// How many of `suite` are the paper's evaluation workflows.
    paper_workflows: usize,
    /// `suite[i]`'s stage function sets, for plan validation.
    stages: Vec<Vec<Vec<FunctionId>>>,
    /// `[faastlane, openfaas]` per workflow.
    baselines: Vec<[DeploymentPlan; 2]>,
    profiler_seed: u64,
    invocation_seed: u64,
    truth: VirtualPlatform,
}

fn inputs(seed: u64) -> Inputs {
    let mut suite = apps::evaluation_suite();
    let paper_workflows = suite.len();
    suite.push(synthetic(SyntheticSpec {
        seed: derive_seed(seed, 4),
        stages: 3,
        max_parallelism: 4,
        profile_classes: 5,
        ..SyntheticSpec::default()
    }));
    let stages = suite
        .iter()
        .map(|wf| wf.stages.iter().map(|s| s.functions.clone()).collect())
        .collect();
    let baselines = suite
        .iter()
        .map(|wf| [planners::faastlane(wf), planners::openfaas(wf)])
        .collect();
    Inputs {
        suite,
        paper_workflows,
        stages,
        baselines,
        profiler_seed: derive_seed(seed, 2),
        invocation_seed: derive_seed(seed, 3),
        truth: VirtualPlatform::new(
            PlatformConfig::paper_calibrated().with_jitter(JitterModel::cluster()),
        ),
    }
}

/// What one workflow's pipeline produced.
#[derive(Debug, Clone, PartialEq)]
struct Pipeline {
    /// Every output check held and no call returned `Err`.
    ok: bool,
    /// Ground-truth p50 / p99 per plan kind, in `PLAN_KINDS` order.
    p50_ms: [f64; 3],
    p99_ms: f64,
    /// Billed cost of one request under the Chiron plan.
    cost_usd: f64,
    /// `Predictor::predict` of the Chiron plan.
    predicted_ms: f64,
    sandboxes: usize,
    /// Prediction-cache `(hits, misses)` of the cold and the warm schedule.
    cache_cold: (u64, u64),
    cache_warm: (u64, u64),
    /// Candidates examined and KL `(candidates, pruned, applied)`, summed
    /// over both schedules.
    candidates_examined: u64,
    kl: (u64, u64, u64),
}

/// Cold deploy then warm re-plan: the calls `Chiron::deploy` and then
/// `Chiron::reprofile` make on a fresh manager (one scheduler worker, the
/// drift monitor off), made one by one so each layer gets its span.
fn plan_cold_warm(inputs: &Inputs, wf: &Workflow, spans: &mut Spans, run: u64) -> [Deployment; 2] {
    let scheduler = PgpScheduler::new(Predictor::from_config(&PlatformConfig::paper_calibrated()));
    let cache = PredictionCache::new();
    let config = PgpConfig::performance_first().with_mode(PgpMode::NativeThread);
    let profilers = [
        Profiler::default(),
        Profiler::default().with_seed(inputs.profiler_seed),
    ];
    profilers.map(|profiler| {
        let profile = spans.span("profiler", "profile_workflow", run, |_| {
            profiler.profile_workflow(wf)
        });
        let schedule = spans.span("pgp", "schedule_with_cache", run, |_| {
            scheduler.schedule_with_cache(wf, &profile, &config, &cache)
        });
        let wraps = spans.span("deploy", "generate", run, |_| generate(wf, &schedule.plan));
        Deployment {
            profile,
            schedule,
            wraps,
        }
    })
}

fn pipeline(
    inputs: &Inputs,
    index: usize,
    scratch: &mut SimScratch,
    spans: &mut Spans,
    run: u64,
) -> Pipeline {
    let wf = &inputs.suite[index];
    let stages = &inputs.stages[index];
    let [cold, warm] = plan_cold_warm(inputs, wf, spans, run);
    let [faastlane, openfaas] = &inputs.baselines[index];
    let plans = [cold.plan(), faastlane, openfaas];

    let mut ok = cold.wraps.len() == cold.plan().sandbox_count()
        && warm.plan() == cold.plan()
        && plans.iter().all(|p| p.validate(stages).is_ok());

    let predictor = Predictor::paper_calibrated();
    let mut predicted_ms = 0.0;
    for (kind, plan) in PLAN_KINDS.iter().zip(plans) {
        let predicted = spans.span("predict", "predict", run, |_| {
            predictor.predict(wf, &cold.profile, plan)
        });
        if *kind == "chiron" {
            predicted_ms = predicted.as_millis_f64();
        }
    }

    let mut p50_ms = [0.0; 3];
    let mut p99_ms = 0.0;
    let mut chiron_mean = None;
    for (k, plan) in plans.iter().enumerate() {
        let samples = spans.span("runtime", EXECUTE_SPANS[k], run, |spans| {
            invoke(inputs, wf, plan, scratch, spans.is_on())
        });
        let Some(samples) = samples else {
            ok = false;
            continue;
        };
        p50_ms[k] = samples.percentile(0.50).as_millis_f64();
        if k == 0 {
            p99_ms = samples.percentile(0.99).as_millis_f64();
            chiron_mean = Some(samples.mean());
        }
    }
    // On the paper's workflows Chiron's plan is at least as fast as both
    // baselines. Seeded synthetic shapes are exempt: there the predictor's
    // error can cost a few percent against Faastlane, which is a finding,
    // not a failed operation.
    ok &= p50_ms[0] > 0.0;
    if index < inputs.paper_workflows {
        ok &= p50_ms[0] <= p50_ms[1] && p50_ms[0] <= p50_ms[2];
    }

    let config = inputs.truth.config();
    let cost_usd = chiron_mean.map_or(0.0, |mean| {
        request_cost(
            cold.plan().system,
            plan_resources(cold.plan(), wf, &config.costs),
            mean,
            config.costs.cpu_ghz,
            &config.billing,
            state_transitions(wf),
        )
        .usd_per_request
    });
    let (ca, wa) = (&cold.schedule.audit, &warm.schedule.audit);
    Pipeline {
        ok,
        p50_ms,
        p99_ms,
        cost_usd,
        predicted_ms,
        sandboxes: cold.plan().sandbox_count(),
        cache_cold: (ca.cache_hits, ca.cache_misses),
        cache_warm: (wa.cache_hits, wa.cache_misses),
        candidates_examined: ca.candidates_examined + wa.candidates_examined,
        kl: (
            ca.kl.candidates + wa.kl.candidates,
            ca.kl.pruned + wa.kl.pruned,
            ca.kl.applied + wa.kl.applied,
        ),
    }
}

/// `INVOCATIONS` ground-truth requests of `plan` (the same seeds for
/// every plan); `None` if any returns `Err`. With `capture`, the DES
/// events of the batch are banked, counted by `trace_stats`, and dropped.
fn invoke(
    inputs: &Inputs,
    wf: &Workflow,
    plan: &DeploymentPlan,
    scratch: &mut SimScratch,
    capture: bool,
) -> Option<LatencySamples> {
    if capture {
        chiron::obs::begin_capture();
    }
    let mut samples = LatencySamples::new();
    let mut ok = true;
    for i in 0..INVOCATIONS {
        let seed = inputs.invocation_seed.wrapping_add(i);
        match inputs.truth.execute_with_scratch(wf, plan, seed, scratch) {
            Ok(outcome) => samples.push(outcome.e2e),
            Err(_) => ok = false,
        }
    }
    if capture {
        chiron::obs::recycle(chiron::obs::end_capture());
    }
    ok.then_some(samples)
}

/// Every workflow's pipeline, in suite order.
fn suite_pass(inputs: &Inputs, scratch: &mut SimScratch, spans: &mut Spans) -> Vec<Pipeline> {
    (0..inputs.suite.len())
        .map(|i| {
            spans.span("bench", "pipeline", i as u64, |spans| {
                pipeline(inputs, i, scratch, spans, i as u64)
            })
        })
        .collect()
}

pub fn run(opts: &Opts, report: &mut Report) {
    // Set-up: build the inputs and the baseline plans; then one discarded
    // warm-up pass, which every timed pipeline must reproduce.
    let inputs = inputs(opts.seed);
    let mut scratch = SimScratch::new();
    let mut off = Spans::new(false);
    let reference = suite_pass(&inputs, &mut scratch, &mut off);

    let n = inputs.suite.len();
    let mut pipeline_secs = vec![Vec::new(); n];
    let setup = || self::inputs(opts.seed);
    let passes = timed_passes(opts.seconds, SETUPS_PER_PASS, setup, || {
        for (i, secs) in pipeline_secs.iter_mut().enumerate() {
            let (s, p) = timed(|| pipeline(&inputs, i, &mut scratch, &mut off, i as u64));
            secs.push(s);
            report.book(
                1,
                u64::from(!p.ok),
                p == reference[i],
                "deploy pipeline differs from the warm-up pass",
            );
        }
    });
    crate::check_untraced_zero_cost(report);
    report.note(crate::util::pass_summary(&passes.secs));
    report.e2e("setup_s", passes.setup_s);
    let suite_secs: f64 = pipeline_secs.iter().map(|secs| fastest(secs)).sum();
    report.e2e("ops_per_s", ratio(n as f64, suite_secs));
    report.e2e("peak_rss_mb", passes.peak_rss_mib);

    // The simulated metrics cover the paper's workflows: the synthetic
    // one's shape, and so its latency and cost, change with the seed.
    let paper = &reference[..inputs.paper_workflows];
    let p50: Vec<f64> = paper.iter().map(|p| p.p50_ms[0]).collect();
    let p99: Vec<f64> = paper.iter().map(|p| p.p99_ms).collect();
    let cost: Vec<f64> = paper.iter().map(|p| p.cost_usd * 1e3).collect();
    report.e2e("sim_p50_ms", geomean(&p50));
    report.e2e("sim_p99_ms", geomean(&p99));
    report.e2e("cost_usd_per_1k", geomean(&cost));
    report.layer("sim_samples", (paper.len() as u64 * INVOCATIONS) as f64);
    report.note(format!(
        "deploy: {} pipelines/pass, {INVOCATIONS} invocations per plan; sim p50/p99 and \
         cost are geometric means over the {} paper workflows of {INVOCATIONS} samples each",
        reference.len(),
        paper.len(),
    ));
    for (wf, p) in inputs.suite.iter().zip(&reference) {
        report.note(format!(
            "  {:<16} chiron p50 {:>9.3} ms  p99 {:>9.3} ms  predicted {:>9.3} ms  \
             faastlane p50 {:>9.3} ms  openfaas p50 {:>9.3} ms  sandboxes {}  checks {}",
            wf.name,
            p.p50_ms[0],
            p.p99_ms,
            p.predicted_ms,
            p.p50_ms[1],
            p.p50_ms[2],
            p.sandboxes,
            if p.ok { "ok" } else { "FAILED" },
        ));
    }

    if opts.trace {
        traced_pass(opts, &inputs, &reference, suite_secs, report);
    }
}

/// `untraced_secs` is the untraced suite's wall: the sum of each
/// pipeline's fastest run.
fn traced_pass(
    opts: &Opts,
    inputs: &Inputs,
    reference: &[Pipeline],
    untraced_secs: f64,
    report: &mut Report,
) {
    let mut spans = Spans::new(true);
    let mut scratch = SimScratch::new();
    chiron::runtime::reset_alloc_stats();
    chiron::obs::reset_trace_stats();
    chiron::obs::set_tracing(true);
    let out = spans.span("bench", "timed", 0, |spans| {
        suite_pass(inputs, &mut scratch, spans)
    });
    chiron::obs::set_tracing(false);
    let events = chiron::obs::trace_stats().events;
    let alloc = chiron::runtime::alloc_stats();
    let same = out == reference;
    let failed = out.iter().filter(|p| !p.ok).count() as u64;
    report.book(
        out.len() as u64,
        failed,
        same,
        "traced deploy pass differs from the untraced one",
    );

    let timed_ms = crate::record_self_times(report, &spans);
    report.layer(
        "obs.trace_overhead_frac",
        ratio(timed_ms, untraced_secs * 1e3) - 1.0,
    );
    report.layer("obs.trace_events", events as f64);

    let n = out.len() as f64;
    let per_call = |layer: &str, name: &str| {
        let ms = spans.durations_ms(layer, name);
        ratio(ms.iter().sum(), ms.len() as f64)
    };
    report.layer(
        "profiler.profile_ms",
        per_call("profiler", "profile_workflow"),
    );
    report.layer("deploy.codegen_ms", per_call("deploy", "generate"));
    report.layer("predict.predict_us", per_call("predict", "predict") * 1e3);
    // Each pipeline schedules cold, then warm.
    let schedules = spans.durations_ms("pgp", "schedule_with_cache");
    let parity_ms = |parity| schedules.iter().skip(parity).step_by(2).sum::<f64>() / n;
    report.layer("pgp.schedule_ms.cold", parity_ms(0));
    report.layer("pgp.schedule_ms.warm", parity_ms(1));

    let sum = |f: fn(&Pipeline) -> u64| out.iter().map(f).sum::<u64>() as f64;
    let hit_rate = |hits: f64, misses: f64| ratio(hits, hits + misses);
    report.layer(
        "predict.cache_hit_rate.cold",
        hit_rate(sum(|p| p.cache_cold.0), sum(|p| p.cache_cold.1)),
    );
    report.layer(
        "predict.cache_hit_rate.warm",
        hit_rate(sum(|p| p.cache_warm.0), sum(|p| p.cache_warm.1)),
    );
    report.layer(
        "predict.cache_misses",
        sum(|p| p.cache_cold.1 + p.cache_warm.1),
    );
    let error: f64 = out
        .iter()
        .map(|p| (p.predicted_ms - p.p50_ms[0]).abs() / p.p50_ms[0])
        .sum();
    report.layer("predict.error_frac", error / n);
    report.layer("pgp.candidates_examined", sum(|p| p.candidates_examined));
    report.layer("pgp.kl.candidates", sum(|p| p.kl.0));
    report.layer("pgp.kl.pruned", sum(|p| p.kl.1));
    report.layer("pgp.kl.applied", sum(|p| p.kl.2));
    report.layer(
        "pgp.kl.useful_frac",
        ratio(sum(|p| p.kl.2), sum(|p| p.kl.0)),
    );
    report.layer("deploy.sandboxes", sum(|p| p.sandboxes as u64) / n);

    let mut runtime_ms = 0.0;
    for (kind, name) in PLAN_KINDS.iter().zip(EXECUTE_SPANS) {
        let batches = spans.durations_ms("runtime", name);
        let ms: f64 = batches.iter().sum();
        runtime_ms += ms;
        report.layer(
            format!("runtime.execute_us.{kind}"),
            ratio(ms * 1e3, (batches.len() as u64 * INVOCATIONS) as f64),
        );
    }
    report.layer("runtime.sim_events", alloc.events as f64);
    report.layer(
        "runtime.ns_per_sim_event",
        ratio(runtime_ms * 1e6, alloc.events as f64),
    );
    report.layer(
        "runtime.scratch_reuse_frac",
        ratio(
            alloc.buffer_reuses as f64,
            (alloc.buffer_reuses + alloc.buffer_allocs) as f64,
        ),
    );
    crate::write_trace(opts, &spans);
}

//! `fleet`: 16 federated paper-testbed clusters (128 nodes) serving
//! FINRA-12 at 2400 rps fleet-wide under Poisson arrivals. Cluster 0
//! carries six times the demand and spills at a queue depth of 16; node 0
//! of cluster 1 dies halfway through phase 1; every cluster runs tiered
//! lifecycle pools, the SLO monitor and the regime sensor; phase 2 slows
//! service by 1.6x. The run uses 16 shards on 2 workers.
//!
//! The same serve loop as `serve`, driven through its churn paths:
//! re-queueing, spill and forward, tier acquisition, SLO and regime work
//! on completion, the barrier coordinator and the per-epoch hand-off of
//! shards to worker threads.

use crate::report::Report;
use crate::serving::{self, Totals, SLO_MS};
use crate::spans::Spans;
use crate::util::{derive_seed, fastest, ratio, timed, timed_passes};
use crate::Opts;
use chiron::deploy::NodeId;
use chiron::metrics::ArrivalProcess;
use chiron::model::{apps, SimDuration, SimTime};
use chiron::obs::RegimeConfig;
use chiron::serving::ServeSimulation;
use chiron::{
    Chiron, FaultPlan, FleetConfig, FleetPhase, FleetReport, FleetSimulation, FleetWorkload,
    LifecycleConfig, PgpMode, ServeConfig, SloPolicy, Workload,
};

const CLUSTERS: u32 = 16;
const FLEET_RPS: f64 = 2_400.0;
const PHASE1_S: u64 = 40;
const PHASE2_S: u64 = 20;
/// Service-time multiplier of phase 2: the regime shift.
const SHIFT: f64 = 1.6;
const SHARDS: usize = 16;
pub const WORKERS: usize = 2;
/// Interleaved repeats behind the speed-up and federation-tax ratios.
const POLICY_REPEATS: usize = 5;
/// Set-ups timed before each timed pass: a pass takes tens of
/// milliseconds, so this gives a few hundred set-ups per run.
const SETUPS_PER_PASS: usize = 1;

struct Setup {
    sim: FleetSimulation,
    workload: FleetWorkload,
    run_seed: u64,
    /// The standalone single cluster at 1/16 of the load, for the
    /// federation tax.
    standalone: (ServeSimulation, Workload),
}

fn setup(seed: u64) -> Setup {
    let wf = apps::finra(12);
    let plan = Chiron::default()
        .deploy(&wf, None, PgpMode::NativeThread)
        .plan()
        .clone();
    let cluster = ServeConfig::paper_testbed()
        .with_slo(SloPolicy::multi_window(SimDuration::from_millis(SLO_MS)))
        .with_regime(RegimeConfig::default())
        .with_lifecycle(LifecycleConfig::paper_calibrated());
    let mut locality = vec![1.0; CLUSTERS as usize];
    locality[0] = 6.0;
    let config = FleetConfig::paper_fleet(CLUSTERS)
        .with_cluster(cluster.clone())
        .with_locality(locality)
        .with_spill(16, SimDuration::from_millis(2));
    let kill_at = SimTime::from_millis_f64(PHASE1_S as f64 * 1e3 / 2.0);
    let sim = FleetSimulation::new(wf.clone(), plan.clone(), config)
        .expect("the fleet's plan executes")
        .with_cluster_faults(1, FaultPlan::none().kill_at(kill_at, NodeId(0)));
    let phase = |secs: u64, service_multiplier: f64| FleetPhase {
        rps: FLEET_RPS,
        duration: SimDuration::from_secs(secs),
        service_multiplier,
    };
    let workload = FleetWorkload {
        phases: vec![phase(PHASE1_S, 1.0), phase(PHASE2_S, SHIFT)],
        arrivals: ArrivalProcess::Poisson {
            seed: derive_seed(seed, 20),
        },
    };
    let share = FLEET_RPS / f64::from(CLUSTERS);
    let standalone = Workload::steady(share, (share * (PHASE1_S + PHASE2_S) as f64) as u64)
        .with_arrivals(ArrivalProcess::Poisson {
            seed: derive_seed(seed, 21),
        });
    Setup {
        sim,
        workload,
        run_seed: derive_seed(seed, 1),
        standalone: (ServeSimulation::new(wf, plan, cluster), standalone),
    }
}

pub fn run(opts: &Opts, report: &mut Report) {
    let exceeds = WORKERS > opts.cpus;
    report.layer(
        "host.fleet_workers_exceed_cpus",
        f64::from(u8::from(exceeds)),
    );
    if exceeds {
        report.note(format!(
            "WARNING: fleet runs {WORKERS} workers on a host with {} CPUs",
            opts.cpus
        ));
    }

    // Set-up: plan the served workflow and build the fleet; then one
    // discarded warm-up pass of the measured configuration.
    let s = setup(opts.seed);
    let warm = s.sim.run_sharded(&s.workload, s.run_seed, SHARDS, WORKERS);

    // The single-shard, single-worker run every sharded run must
    // reproduce byte for byte.
    let reference = s.sim.run(&s.workload, s.run_seed);
    let (reference, ok) = match (reference, warm) {
        (Ok(r), Ok(w)) => {
            let ok = Totals::from_fleet(&r).conserved() && r.digest() == w.digest();
            (r, ok)
        }
        (Ok(r), Err(_)) => (r, false),
        (Err(e), _) => panic!("the reference fleet run failed: {e:?}"),
    };
    let ref_totals = Totals::from_fleet(&reference);
    // Requests the generator offered: each completes or is lost exactly
    // once, wherever spillover moved it.
    let requests = reference.completed + reference.lost;
    report.book(
        requests,
        0,
        ok,
        "sharded warm-up differs from the (1, 1) reference run",
    );

    let passes = timed_passes(
        opts.seconds,
        SETUPS_PER_PASS,
        || setup(opts.seed),
        || {
            let out = s.sim.run_sharded(&s.workload, s.run_seed, SHARDS, WORKERS);
            let same = out.as_ref().is_ok_and(|r| r.digest() == reference.digest());
            report.book(
                requests,
                out.as_ref().map_or(requests, |r| r.lost),
                same,
                "fleet pass differs from the (1, 1) reference run",
            );
        },
    );
    crate::check_untraced_zero_cost(report);
    report.note(crate::util::pass_summary(&passes.secs));
    report.e2e("setup_s", passes.setup_s);
    report.e2e(
        "ops_per_s",
        ratio(reference.completed as f64, fastest(&passes.secs)),
    );
    report.e2e("peak_rss_mb", passes.peak_rss_mib);
    let quantile_ms = |q| reference.sojourns.percentile(q).as_millis_f64();
    report.e2e("sim_p50_ms", quantile_ms(0.50));
    report.e2e("sim_p99_ms", quantile_ms(0.99));
    report.e2e("cost_usd_per_1k", ref_totals.cost_usd_per_1k());
    report.layer("sim_samples", reference.sojourns.len() as f64);
    report.note(format!(
        "fleet: {CLUSTERS} clusters, {FLEET_RPS} rps for {PHASE1_S} s + {PHASE2_S} s (x{SHIFT}), \
         shards {SHARDS} workers {WORKERS}, {} timed passes; {} completed, {} forwarded, {} lost; \
         sim p50/p99 over {} samples; slo_miss_frac {:.6}; generator lateness 0 ms \
         (arrivals are scheduled in simulated time)",
        passes.secs.len(),
        reference.completed,
        reference.forwarded,
        reference.lost,
        reference.sojourns.len(),
        ref_totals.slo_miss_frac(),
    ));

    if opts.trace {
        layers(&s, &reference, &passes.secs, report);
        traced_pass(opts, &s, &reference, &passes.secs, report);
    }
}

/// Untraced per-layer timings: the pass time, the parallel speed-up of 2
/// workers over 1, and the federation tax against a standalone cluster.
fn layers(s: &Setup, reference: &FleetReport, passes: &[f64], report: &mut Report) {
    let completed = reference.completed as f64;
    let run_ms = fastest(passes) * 1e3;
    report.layer("serve.fleet.run_ms", run_ms);
    report.layer("serve.fleet.ns_per_request", run_ms * 1e6 / completed);
    let epoch = s.sim.config().epoch;
    let epochs = (s.workload.total_duration().as_nanos() / epoch.as_nanos()) as f64;
    report.layer("serve.fleet.epochs", epochs);
    report.layer(
        "serve.fleet.requests_per_cluster_epoch",
        completed / (f64::from(CLUSTERS) * epochs),
    );
    report.layer(
        "serve.fleet.forwarded_frac",
        ratio(reference.forwarded as f64, completed),
    );

    let (mut one, mut two, mut alone) = (Vec::new(), Vec::new(), Vec::new());
    let (sim, workload) = &s.standalone;
    for _ in 0..POLICY_REPEATS {
        one.push(timed(|| s.sim.run_sharded(&s.workload, s.run_seed, SHARDS, 1)).0);
        two.push(timed(|| s.sim.run_sharded(&s.workload, s.run_seed, SHARDS, WORKERS)).0);
        let (secs, out) = timed(|| sim.run(workload, s.run_seed));
        let requests = out.map_or(0, |r| r.completed);
        alone.push(ratio(secs, requests as f64));
    }
    report.layer(
        "serve.fleet.parallel_speedup",
        ratio(fastest(&one), fastest(&two)),
    );
    report.layer(
        "serve.fleet.federation_tax_frac",
        ratio(fastest(&one) / completed, fastest(&alone)) - 1.0,
    );
}

fn traced_pass(
    opts: &Opts,
    s: &Setup,
    reference: &FleetReport,
    untraced: &[f64],
    report: &mut Report,
) {
    let mut spans = Spans::new(true);
    chiron::obs::reset_metrics();
    chiron::obs::set_tracing(true);
    let out = spans.span("bench", "timed", 0, |spans| {
        spans.span("serve.fleet", "run_sharded_traced", 0, |_| {
            s.sim
                .run_sharded_traced(&s.workload, s.run_seed, SHARDS, WORKERS)
        })
    });
    chiron::obs::set_tracing(false);
    serving::record_registry(report);
    let mut events = 0;
    let (totals, exact, blame) = match out {
        Ok((fleet, trace)) => {
            events = trace.len() as u64;
            let (exact, blame) = spans.span("bench", "analysis", 0, |spans| {
                serving::analyse(&trace, spans, 0)
            });
            let same = fleet.digest() == reference.digest();
            (Totals::from_fleet(&fleet), exact && same, blame)
        }
        Err(_) => (Totals::default(), false, [0; 7]),
    };
    report.book(
        reference.completed + reference.lost,
        totals.lost,
        exact,
        "traced fleet run differs from the reference, or attribution is inexact",
    );
    totals.record_layers(report);
    let timed_ms = crate::record_self_times(report, &spans);
    let untraced_ms = fastest(untraced) * 1e3;
    report.layer(
        "obs.trace_overhead_frac",
        ratio(timed_ms, untraced_ms) - 1.0,
    );
    serving::record_obs(report, &spans, events, totals.completed, blame);
    crate::write_trace(opts, &spans);
}

//! `serve`: single-cluster FINRA-12 on the paper testbed under an open
//! loop of Poisson arrivals, on a ladder of fixed rates with equal request
//! counts per rung and no faults.
//!
//! PGP and the DES run once, in set-up; the timed passes are the event
//! queue, router and autoscaler. Each rung is one run: a warm-up phase in
//! which the autoscaler scales up from an empty cluster, then the measured
//! phase at the same rate. The ladder climbs from light load past the
//! 64-replica cap (about 730 rps), so queueing shows in the tail before
//! throughput stops rising, and the top rung's backlog grows. Arrivals are
//! scheduled in simulated time, so every sojourn is measured from its
//! request's scheduled arrival and the generator is never late.

use crate::report::Report;
use crate::serving::{self, Totals, SLO_MS};
use crate::spans::Spans;
use crate::util::{derive_seed, fastest, fastest_parts_rate, ratio, timed, timed_passes};
use crate::Opts;
use chiron::metrics::{ArrivalProcess, LatencySamples};
use chiron::model::{apps, SimDuration};
use chiron::serving::{ServeError, ServeSimulation, TrafficPhase};
use chiron::{Chiron, PgpMode, ServeConfig, ServeReport, SloPolicy, Workload};

/// Offered rates of the ladder, in requests per second.
const RUNG_RPS: [u32; 5] = [150, 300, 450, 600, 750];
/// The rung whose sojourns are the end-to-end latency.
const REFERENCE_RUNG: usize = 2;
/// Requests of a rung's warm-up phase and of its measured phase.
const WARMUP_REQUESTS: u64 = 20_000;
const MEASURED_REQUESTS: u64 = 100_000;
const REQUESTS_PER_RUNG: u64 = WARMUP_REQUESTS + MEASURED_REQUESTS;
/// Phase index of the measured phase.
const MEASURED: usize = 1;
/// Set-ups timed before each timed pass: a pass takes about a tenth of a
/// second, so this gives a few hundred set-ups per run.
const SETUPS_PER_PASS: usize = 2;

struct Setup {
    sim: ServeSimulation,
    ladder: Vec<Workload>,
    run_seed: u64,
}

fn setup(seed: u64) -> Setup {
    let wf = apps::finra(12);
    let plan = Chiron::default()
        .deploy(&wf, None, PgpMode::NativeThread)
        .plan()
        .clone();
    let config = ServeConfig::paper_testbed()
        .with_slo(SloPolicy::multi_window(SimDuration::from_millis(SLO_MS)));
    let ladder = RUNG_RPS
        .iter()
        .enumerate()
        .map(|(i, &rps)| Workload {
            phases: [WARMUP_REQUESTS, MEASURED_REQUESTS]
                .map(|requests| TrafficPhase {
                    rps: f64::from(rps),
                    requests,
                })
                .to_vec(),
            arrivals: ArrivalProcess::Poisson {
                seed: derive_seed(seed, 10 + i as u64),
            },
        })
        .collect();
    Setup {
        sim: ServeSimulation::new(wf, plan, config),
        ladder,
        run_seed: derive_seed(seed, 1),
    }
}

/// Every request of the rung was admitted, and then completed.
fn rung_ok(report: &Result<ServeReport, ServeError>) -> bool {
    report.as_ref().is_ok_and(|r| {
        let mut totals = Totals::default();
        totals.add_serve(r);
        r.accepted == REQUESTS_PER_RUNG && totals.conserved()
    })
}

/// The highest ladder rate whose measured-phase p99 meets the SLO and
/// whose backlog does not grow: the last tenth of the phase's arrivals
/// meets the SLO at p99 too.
fn max_rps_slo(reports: &[ServeReport]) -> f64 {
    let slo = SimDuration::from_millis(SLO_MS);
    RUNG_RPS
        .iter()
        .zip(reports)
        .filter(|(_, r)| {
            r.phases[MEASURED].p99_sojourn <= slo && r.tail_p99_of_phase(MEASURED, 0.9) <= slo
        })
        .map(|(&rps, _)| f64::from(rps))
        .fold(0.0, f64::max)
}

/// Exact sojourns of the measured phase's completed requests.
fn measured_sojourns(report: &ServeReport) -> LatencySamples {
    let mut samples = LatencySamples::new();
    for r in &report.records {
        if usize::from(r.phase) == MEASURED && r.is_completed() {
            samples.push(r.sojourn());
        }
    }
    samples
}

pub fn run(opts: &Opts, report: &mut Report) {
    // Set-up: plan the served workflow, build the simulation and the
    // ladder; then one discarded warm-up ladder pass, which every timed
    // pass must reproduce.
    let s = setup(opts.seed);
    let warm: Vec<_> = s.ladder.iter().map(|w| s.sim.run(w, s.run_seed)).collect();
    let setup_ok = warm.iter().all(rung_ok);
    let reference: Vec<ServeReport> = warm.into_iter().filter_map(Result::ok).collect();
    report.book(
        REQUESTS_PER_RUNG * RUNG_RPS.len() as u64,
        0,
        setup_ok && reference.len() == RUNG_RPS.len(),
        "warm-up ladder lost or failed requests",
    );
    let digests: Vec<u64> = reference.iter().map(ServeReport::digest).collect();

    let mut rung_secs = vec![Vec::new(); RUNG_RPS.len()];
    let passes = timed_passes(
        opts.seconds,
        SETUPS_PER_PASS,
        || setup(opts.seed),
        || {
            let mut lost = 0;
            let mut same = true;
            for (i, w) in s.ladder.iter().enumerate() {
                let (secs, out) = timed(|| s.sim.run(w, s.run_seed));
                rung_secs[i].push(secs);
                same &= rung_ok(&out) && out.as_ref().is_ok_and(|r| r.digest() == digests[i]);
                lost += out.map_or(REQUESTS_PER_RUNG, |r| r.lost);
            }
            report.book(
                REQUESTS_PER_RUNG * RUNG_RPS.len() as u64,
                lost,
                same,
                "ladder pass differs from the warm-up pass",
            );
        },
    );
    crate::check_untraced_zero_cost(report);
    report.note(crate::util::pass_summary(&passes.secs));
    report.e2e("setup_s", passes.setup_s);
    let per_pass: u64 = reference.iter().map(|r| r.completed).sum();
    report.e2e("ops_per_s", fastest_parts_rate(per_pass, &rung_secs));
    report.e2e("peak_rss_mb", passes.peak_rss_mib);

    let mut totals = Totals::default();
    for r in &reference {
        totals.add_serve(r);
    }
    let rung = measured_sojourns(&reference[REFERENCE_RUNG]);
    report.e2e("sim_p50_ms", rung.percentile(0.50).as_millis_f64());
    report.e2e("sim_p99_ms", rung.percentile(0.99).as_millis_f64());
    report.e2e("cost_usd_per_1k", totals.cost_usd_per_1k());
    report.layer("sim_samples", rung.len() as f64);
    report.layer("sim_max_rps_slo", max_rps_slo(&reference));
    report.note(format!(
        "serve: FINRA-12, ladder {RUNG_RPS:?} rps, each {WARMUP_REQUESTS} warm-up then \
         {MEASURED_REQUESTS} measured Poisson requests, {} timed passes; sim p50/p99 at {} rps \
         over {} samples; generator lateness 0 ms (arrivals are scheduled in simulated time)",
        passes.secs.len(),
        RUNG_RPS[REFERENCE_RUNG],
        rung.len(),
    ));
    for (rps, r) in RUNG_RPS.iter().zip(&reference) {
        let phase = &r.phases[MEASURED];
        report.note(format!(
            "  {rps:>4} rps: p50 {:>9.3} ms  p99 {:>9.3} ms  last-tenth p99 {:>9.3} ms  \
             over {} samples; peak replicas {:>3}  cold starts {}",
            phase.p50_sojourn.as_millis_f64(),
            phase.p99_sojourn.as_millis_f64(),
            r.tail_p99_of_phase(MEASURED, 0.9).as_millis_f64(),
            phase.completed,
            r.peak_replicas,
            r.cold_starts,
        ));
    }
    report.note(format!(
        "  sim_max_rps_slo {} rps, slo_miss_frac {:.6}",
        max_rps_slo(&reference),
        totals.slo_miss_frac()
    ));

    if opts.trace {
        for (i, secs) in rung_secs.iter().enumerate() {
            let ms = fastest(secs) * 1e3;
            let name = RUNG_RPS[i];
            report.layer(format!("serve.run_ms.r{name}"), ms);
            report.layer(
                format!("serve.ns_per_request.r{name}"),
                ms * 1e6 / REQUESTS_PER_RUNG as f64,
            );
        }
        traced_pass(opts, &s, &digests, &passes.secs, report);
    }
}

fn traced_pass(opts: &Opts, s: &Setup, digests: &[u64], untraced: &[f64], report: &mut Report) {
    let mut spans = Spans::new(true);
    let mut totals = Totals::default();
    let mut reference_blame = [0u64; 7];
    let mut same = true;
    let mut events = 0;
    chiron::obs::reset_metrics();
    for (i, w) in s.ladder.iter().enumerate() {
        let run = i as u64;
        chiron::obs::set_tracing(true);
        let (out, trace) = spans.span("bench", "timed", run, |spans| {
            chiron::obs::begin_capture_sized(w.total_requests() as usize * 8);
            let out = spans.span("serve", "run", run, |_| s.sim.run(w, s.run_seed));
            (out, chiron::obs::end_capture())
        });
        chiron::obs::set_tracing(false);
        let (exact, blame) = spans.span("bench", "analysis", run, |spans| {
            serving::analyse(&trace, spans, run)
        });
        events += trace.len() as u64;
        chiron::obs::recycle(trace);
        if i == REFERENCE_RUNG {
            reference_blame = blame;
        }
        same &= exact && rung_ok(&out) && out.as_ref().is_ok_and(|r| r.digest() == digests[i]);
        if let Ok(r) = &out {
            totals.add_serve(r);
        }
    }
    report.book(
        totals.accepted,
        0,
        same,
        "traced ladder differs from the untraced one, or attribution is inexact",
    );
    serving::record_registry(report);
    totals.record_layers(report);
    let timed_ms = crate::record_self_times(report, &spans);
    let untraced_ms = fastest(untraced) * 1e3;
    report.layer(
        "obs.trace_overhead_frac",
        ratio(timed_ms, untraced_ms) - 1.0,
    );
    serving::record_obs(report, &spans, events, totals.accepted, reference_blame);
    crate::write_trace(opts, &spans);
}

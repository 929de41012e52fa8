//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * Kernighan–Lin refinement vs. the raw round-robin initial partition;
//! * conservative (inflated) vs. mean predictor parameters for SLO safety;
//! * the wrap-count sweep (how block amortisation trades against RPC);
//! * GIL switch-interval sensitivity of the thread-latency model.

use crate::common::{ms, pct, ratio, Table};
use crate::sweep::par_map_workers;
use chiron::model::{apps, IsolationKind, SimDuration};
use chiron::{evaluate_plan, paper_slo, profile_for, EvalConfig, PgpConfig, PgpMode, PgpScheduler};
use chiron_model::FunctionId;
use chiron_predict::{predict_threads, SimThread};

/// KL refinement vs. round-robin initial partition: measured latency of
/// the resulting plans on a workflow with heterogeneous parallel functions.
fn ablation_kl(workers: usize) -> String {
    let wf = apps::finra(50);
    let profile = profile_for(&wf);
    let sched = PgpScheduler::paper_calibrated();
    let cfg = EvalConfig::default();
    let mut table = Table::new(vec![
        "processes",
        "round-robin (ms)",
        "with KL (ms)",
        "gain",
    ]);
    // FINRA's rule costs cycle with period 5, so when n is a multiple of 5
    // the round-robin initial partition degenerates into same-cost sets
    // (one process gets every 12 ms rule) — exactly the imbalance KL's
    // swapping repairs.
    let ns = [5usize, 10, 15];
    let rows = par_map_workers(&ns, workers, |_, &n| {
        // Raw round-robin (no KL): rebuild the line-9 initial partition.
        let rr: Vec<Vec<Vec<FunctionId>>> = wf
            .stages
            .iter()
            .map(|stage| {
                let k = n.min(stage.functions.len()).max(1);
                let mut sets = vec![Vec::new(); k];
                for (i, &f) in stage.functions.iter().enumerate() {
                    sets[i % k].push(f);
                }
                sets
            })
            .collect();
        let kl = sched.partitions(&wf, &profile, n);
        let plan_rr = sched.materialize(&wf, &rr, 2, IsolationKind::None, 0);
        let plan_kl = sched.materialize(&wf, &kl, 2, IsolationKind::None, 0);
        let lat_rr = evaluate_plan(&wf, plan_rr, &cfg)
            .mean_latency
            .as_millis_f64();
        let lat_kl = evaluate_plan(&wf, plan_kl, &cfg)
            .mean_latency
            .as_millis_f64();
        vec![
            n.to_string(),
            ms(lat_rr),
            ms(lat_kl),
            pct(1.0 - lat_kl / lat_rr),
        ]
    });
    for row in rows {
        table.row(row);
    }
    format!(
        "Ablation — Kernighan–Lin refinement vs round-robin partition \
         (FINRA-50, 2 wraps)\n{}",
        table.render()
    )
}

/// Conservative vs. mean predictor parameters: SLO violation under jitter.
fn ablation_conservative(workers: usize) -> String {
    let cfg = EvalConfig::jittered(150);
    let mut table = Table::new(vec![
        "workflow",
        "margin 1.0 violations",
        "margin 1.25 violations",
    ]);
    let workflows = [apps::finra(50), apps::slapp(), apps::social_network()];
    let cells: Vec<(usize, f64)> = workflows
        .iter()
        .enumerate()
        .flat_map(|(wi, _)| [1.0, 1.25].into_iter().map(move |margin| (wi, margin)))
        .collect();
    let rates = par_map_workers(&cells, workers, |_, &(wi, margin)| {
        let wf = &workflows[wi];
        let slo = paper_slo(wf);
        let profile = profile_for(wf);
        let sched = PgpScheduler::paper_calibrated();
        let mut config = PgpConfig::with_slo(slo).with_mode(PgpMode::NativeThread);
        config.conservative_margin = margin;
        let out = sched.schedule(wf, &profile, &config);
        let eval = evaluate_plan(wf, out.plan, &cfg);
        eval.latencies.violation_rate(slo)
    });
    for (wi, wf) in workflows.iter().enumerate() {
        table.row(vec![
            wf.name.clone(),
            pct(rates[wi * 2]),
            pct(rates[wi * 2 + 1]),
        ]);
    }
    format!(
        "Ablation — conservative predictor parameters (§6.2: larger \
         parameters avoid violation from misprediction)\n{}",
        table.render()
    )
}

/// Wrap-count sweep: block amortisation vs. RPC overhead (the core m-to-n
/// trade-off of Fig. 11).
fn ablation_wrap_sweep(workers: usize) -> String {
    let wf = apps::finra(50);
    let profile = profile_for(&wf);
    let sched = PgpScheduler::paper_calibrated();
    let cfg = EvalConfig::default();
    let n = 10; // processes in the parallel stage
    let partitions = sched.partitions(&wf, &profile, n);
    let mut table = Table::new(vec!["wraps", "latency (ms)", "sandboxes", "memory (MB)"]);
    let wraps: Vec<usize> = (1..=n).collect();
    let rows = par_map_workers(&wraps, workers, |_, &w| {
        let plan = sched.materialize(&wf, &partitions, w, IsolationKind::None, 0);
        let eval = evaluate_plan(&wf, plan, &cfg);
        vec![
            w.to_string(),
            ms(eval.mean_latency.as_millis_f64()),
            eval.plan.sandbox_count().to_string(),
            ms(eval.usage.memory_mb()),
        ]
    });
    for row in rows {
        table.row(row);
    }
    format!(
        "Ablation — wrap-count sweep, FINRA-50 with 10 processes (more \
         wraps amortise T_Block but add T_RPC/T_INV and duplicate runtime \
         memory)\n{}",
        table.render()
    )
}

/// GIL switch-interval sensitivity of the multi-thread latency model.
fn ablation_gil_interval(workers: usize) -> String {
    let wf = apps::slapp();
    let profile = profile_for(&wf);
    let mut table = Table::new(vec!["interval (ms)", "predicted stage-2 latency (ms)"]);
    let intervals = [1u64, 5, 20, 100];
    let rows = par_map_workers(&intervals, workers, |_, &interval_ms| {
        let threads: Vec<SimThread> = wf.stages[1]
            .functions
            .iter()
            .map(|&f| SimThread {
                created_at: SimDuration::ZERO,
                segments: profile.function(f).segments(),
            })
            .collect();
        let out = predict_threads(&threads, SimDuration::from_millis(interval_ms));
        vec![interval_ms.to_string(), ms(out.makespan.as_millis_f64())]
    });
    for row in rows {
        table.row(row);
    }
    format!(
        "Ablation — GIL switch-interval sensitivity (SLApp stage 2 under \
         Algorithm 1; CPython default is 5 ms)\n{}",
        table.render()
    )
}

/// Cross-check of the fluid simulator against the real-thread executor.
fn ablation_realtime_crosscheck() -> String {
    use chiron::model::RuntimeKind;
    use chiron_model::{Segment, SimTime, SyscallKind};
    use chiron_runtime::{execute_sandbox, run_realtime, RtTask, ThreadTask};

    let segments = [
        vec![
            Segment::cpu_ms(20),
            Segment::block_ms(SyscallKind::NetIo, 10.0),
        ],
        vec![Segment::cpu_ms(15)],
        vec![
            Segment::block_ms(SyscallKind::Sleep, 25.0),
            Segment::cpu_ms(5),
        ],
    ];
    let sim = execute_sandbox(
        &segments
            .iter()
            .map(|s| ThreadTask {
                process: 0,
                start: SimTime::ZERO,
                segments: s.clone(),
            })
            .collect::<Vec<_>>(),
        2,
        RuntimeKind::PseudoParallel,
        SimDuration::from_millis(5),
    )
    .expect("two CPUs and a 5 ms GIL interval are a valid sandbox");
    let rt = run_realtime(
        &segments
            .iter()
            .map(|s| RtTask {
                process: 0,
                segments: s.clone(),
            })
            .collect::<Vec<_>>(),
        RuntimeKind::PseudoParallel,
        SimDuration::from_millis(5),
    );
    let sim_makespan = sim
        .iter()
        .map(|r| r.end.as_millis_f64())
        .fold(0.0, f64::max);
    let rt_makespan = rt
        .iter()
        .map(|r| r.finished.as_secs_f64() * 1000.0)
        .fold(0.0, f64::max);
    format!(
        "Cross-check — fluid simulator vs real-OS-thread GIL executor on a \
         3-thread mixed workload:\n  simulated makespan: {} ms\n  real \
         threads: {:.1} ms (OS scheduling adds noise)\n",
        ms(sim_makespan),
        rt_makespan
    )
}

/// PGP scheduling time vs workflow size: the pre-optimisation reference
/// path vs the memoised evaluator (§7's scalability discussion).
fn ablation_pgp_scalability() -> String {
    use chiron::model::synthetic::{synthetic, SyntheticSpec};
    let mut table = Table::new(vec![
        "functions",
        "max par",
        "classes",
        "reference (ms)",
        "memoised (ms)",
        "warm (ms)",
        "cold speedup",
        "warm speedup",
        "hit rate",
        "same plan",
    ]);
    // `classes` is the number of behaviour profiles the stage positions
    // cycle through (0 = every function unique). Real fleets deploy
    // families of near-identical functions — FINRA's rule checks repeat
    // with period 5 — which is where content-addressed memoisation pays
    // off hardest; the all-unique rows are its worst case.
    for (stages, max_par, classes) in [
        (4usize, 8usize, 0usize),
        (6, 16, 0),
        (6, 32, 0),
        (6, 16, 4),
        (6, 32, 5),
        (8, 48, 5),
    ] {
        let wf = synthetic(SyntheticSpec {
            seed: 42,
            stages,
            max_parallelism: max_par,
            profile_classes: classes,
            ..SyntheticSpec::default()
        });
        let times = crate::perf::schedule_times(&wf);
        table.row(vec![
            wf.function_count().to_string(),
            wf.max_parallelism().to_string(),
            classes.to_string(),
            ms(times.reference_ms),
            ms(times.cold_ms),
            ms(times.warm_ms),
            ratio(times.reference_ms / times.cold_ms),
            ratio(times.reference_ms / times.warm_ms),
            pct(times.cold_cache.hit_rate()),
            times.same_plan.to_string(),
        ]);
    }
    format!(
        "Ablation — PGP scheduling time on synthetic workflows: reference \
         (pre-memoisation) vs memoised (cold and warm cache) (§7: offline; \
         memoisation preserves the plan exactly)\n{}",
        table.render()
    )
}

/// Cold-start impact per deployment model: the one-to-one model pays a
/// cascading cold start per function sandbox (§1, \[8\]/\[38\]'s motivation),
/// while a wrap-based deployment pays one per sandbox — few or one.
fn ablation_cold_start(workers: usize) -> String {
    use chiron::model::{PlatformConfig, SystemKind};
    use chiron::plan_for;
    use chiron_runtime::VirtualPlatform;

    let wf = apps::finra(5);
    let profile = profile_for(&wf);
    let mut table = Table::new(vec![
        "system",
        "sandboxes",
        "warm (ms)",
        "first request (ms)",
        "cold penalty (ms)",
    ]);
    let systems = [
        SystemKind::OpenFaas,
        SystemKind::Faastlane,
        SystemKind::FaastlanePlus,
        SystemKind::Chiron,
    ];
    let rows = par_map_workers(&systems, workers, |_, &sys| {
        let warm_platform = VirtualPlatform::new(PlatformConfig::paper_calibrated());
        let cold_platform =
            VirtualPlatform::new(PlatformConfig::paper_calibrated()).with_cold_starts(true);
        let plan = plan_for(sys, &wf, &profile, None);
        let warm = warm_platform.execute(&wf, &plan, 0).unwrap().e2e;
        let cold = cold_platform.execute(&wf, &plan, 0).unwrap().e2e;
        vec![
            sys.to_string(),
            plan.sandbox_count().to_string(),
            ms(warm.as_millis_f64()),
            ms(cold.as_millis_f64()),
            ms(cold.as_millis_f64() - warm.as_millis_f64()),
        ]
    });
    for row in rows {
        table.row(row);
    }
    format!(
        "Ablation — cold-start exposure by deployment model, FINRA-5 (one \
         167 ms sandbox start per *sandbox*: one-to-one cascades, wraps \
         amortise)\n{}",
        table.render()
    )
}

/// The deterministic ablation tables — everything in [`ablations`] except
/// the two timing/real-thread studies. This is what `perf-eval` compares
/// byte-for-byte across worker counts.
pub fn ablations_deterministic(workers: usize) -> String {
    format!(
        "{}\n{}\n{}\n{}\n{}",
        ablation_kl(workers),
        ablation_conservative(workers),
        ablation_wrap_sweep(workers),
        ablation_gil_interval(workers),
        ablation_cold_start(workers)
    )
}

/// The full ablation report.
pub fn ablations(workers: usize) -> String {
    format!(
        "{}\n{}\n{}\n{}\n{}\n{}\n{}",
        ablation_kl(workers),
        ablation_conservative(workers),
        ablation_wrap_sweep(workers),
        ablation_gil_interval(workers),
        ablation_pgp_scalability(),
        ablation_cold_start(workers),
        ablation_realtime_crosscheck()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_sweep_has_interior_optimum_or_monotone() {
        // The sweep must render and produce positive latencies.
        let report = ablation_wrap_sweep(2);
        assert!(report.contains("wraps"));
    }

    #[test]
    fn gil_interval_report_renders() {
        let report = ablation_gil_interval(2);
        assert!(report.lines().count() >= 6);
    }
}

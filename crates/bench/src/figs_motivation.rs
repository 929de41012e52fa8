//! Regeneration of the motivation-section experiments: Fig. 3–8 and
//! Table 1 (§2.2, §4).

use crate::common::{ms, pct, ratio, Table};
use chiron::deploy;
use chiron::model::plan::*;
use chiron::model::{apps, SchedulingModel, SystemKind};
use chiron::{evaluate_plan, evaluate_system, paper_slo, EvalConfig};
use chiron_isolation::IsolationCosts;
use chiron_model::{FunctionId, SimDuration, Workflow};
use chiron_runtime::SpanKind;
use chiron_store::TransferModel;

/// Fig. 3: scheduling overhead of the one-to-one model on FINRA's parallel
/// stage (ASF vs. the OpenFaaS local gateway).
pub fn fig3() -> String {
    let sched = SchedulingModel::paper_calibrated();
    let cfg = EvalConfig::default();
    let mut table = Table::new(vec![
        "parallel fns",
        "ASF sched (ms)",
        "ASF % of e2e",
        "OpenFaaS sched (ms)",
        "OpenFaaS % of e2e",
    ]);
    for n in [5u32, 25, 50] {
        let wf = apps::finra(n as usize);
        let asf_sched = sched.asf_schedule_time(n - 1).as_millis_f64();
        let of_sched = sched.openfaas_stage_overhead(n).as_millis_f64();
        let asf = evaluate_system(SystemKind::Asf, &wf, None, &cfg);
        let of = evaluate_system(SystemKind::OpenFaas, &wf, None, &cfg);
        table.row(vec![
            n.to_string(),
            ms(asf_sched),
            pct(asf_sched / asf.mean_latency.as_millis_f64()),
            ms(of_sched),
            pct(of_sched / of.mean_latency.as_millis_f64()),
        ]);
    }
    format!(
        "Fig. 3 — scheduling overhead in FINRA (paper: ASF 150/874/1628 ms, \
         up to 95% of e2e; OpenFaaS 2/70/180 ms, 59% at 50)\n{}",
        table.render()
    )
}

/// Fig. 4: intermediate-data transmission overhead across payload sizes —
/// the full five-decade ladder from remote object storage down to the
/// intra-node shm ring.
pub fn fig4() -> String {
    let model = TransferModel::paper_calibrated();
    let mut table = Table::new(vec![
        "size",
        "ASF + S3 (ms)",
        "OpenFaaS + MinIO (ms)",
        "RPC payload (ms)",
        "pipe (ms)",
        "shm ring (ms)",
    ]);
    for (label, bytes) in [
        ("1B", 1u64),
        ("1KB", 1 << 10),
        ("1MB", 1 << 20),
        ("64MB", 64 << 20),
        ("1GB", 1 << 30),
    ] {
        table.row(vec![
            label.to_string(),
            ms(model.s3.latency(bytes).as_millis_f64()),
            ms(model.minio.latency(bytes).as_millis_f64()),
            ms(model.rpc_payload.latency(bytes).as_millis_f64()),
            ms(model.pipe.latency(bytes).as_millis_f64()),
            ms(model.shm_ring.latency(bytes).as_millis_f64()),
        ]);
    }
    format!(
        "Fig. 4 — transmission overhead (paper: S3 ≥52 ms floor, ~25 s at \
         1 GB; local MinIO 10 ms – 10 s; intra-node paths span the \
         remaining decades down to the sub-µs shm ring)\n{}",
        table.render()
    )
}

/// Fig. 5: execution timelines of FINRA-5 under process-based (Faastlane)
/// and thread-based (Faastlane-T) many-to-one deployment.
pub fn fig5() -> String {
    let wf = apps::finra(5);
    let cfg = EvalConfig {
        requests: 1,
        ..EvalConfig::default()
    };
    let mut out = String::new();
    for (label, plan) in [
        ("Function-to-Process (Faastlane)", deploy::faastlane(&wf)),
        ("Function-to-Thread (Faastlane-T)", deploy::faastlane_t(&wf)),
    ] {
        let eval = evaluate_plan(&wf, plan, &cfg);
        let outcome = &eval.sample_outcome;
        let mut table = Table::new(vec![
            "function",
            "dispatch(ms)",
            "block(ms)",
            "startup(ms)",
            "exec(ms)",
            "io(ms)",
            "ipc(ms)",
            "done(ms)",
        ]);
        for t in &outcome.timelines {
            table.row(vec![
                wf.function(t.function).name.clone(),
                ms(t.dispatched.as_millis_f64()),
                ms(t.total(&outcome.spans, SpanKind::BlockWait).as_millis_f64()),
                ms(t.total(&outcome.spans, SpanKind::Startup).as_millis_f64()),
                ms(t.total(&outcome.spans, SpanKind::Exec).as_millis_f64()),
                ms(t.total(&outcome.spans, SpanKind::Io).as_millis_f64()),
                ms(t.total(&outcome.spans, SpanKind::Ipc).as_millis_f64()),
                ms(t.completed.as_millis_f64()),
            ]);
        }
        let startup = outcome.total(SpanKind::Startup).as_millis_f64() / 5.0;
        let block = outcome.total(SpanKind::BlockWait).as_millis_f64();
        let ipc = outcome.total(SpanKind::Ipc).as_millis_f64();
        out.push_str(&format!(
            "{label}: e2e {} | avg startup {} ms | total block {} ms | IPC {} ms\n{}\n",
            eval.mean_latency,
            ms(startup),
            ms(block),
            ms(ipc),
            table.render()
        ));
    }
    format!(
        "Fig. 5 — FINRA-5 timelines (paper: fork startup ≈7.5 ms ≈10× rule \
         exec; block 1–2.1× startup; IPC 4.3 ms; thread startup −96%)\n{out}"
    )
}

/// Fig. 6: end-to-end latency of the deployment models on FINRA.
pub fn fig6() -> String {
    let cfg = EvalConfig::default();
    let mut table = Table::new(vec![
        "parallel fns",
        "OpenFaaS",
        "Faastlane",
        "Faastlane-T",
        "Faastlane+",
        "Chiron",
    ]);
    for n in [5usize, 25, 50] {
        let wf = apps::finra(n);
        let lat = |sys: SystemKind| {
            ms(evaluate_system(sys, &wf, None, &cfg)
                .mean_latency
                .as_millis_f64())
        };
        table.row(vec![
            n.to_string(),
            lat(SystemKind::OpenFaas),
            lat(SystemKind::Faastlane),
            lat(SystemKind::FaastlaneT),
            lat(SystemKind::FaastlanePlus),
            lat(SystemKind::Chiron),
        ]);
    }
    format!(
        "Fig. 6 — overall latency by deployment model, ms (paper: \
         Faastlane-T wins at 5; Chiron best everywhere, 15.9–74.1% below \
         the others)\n{}",
        table.render()
    )
}

/// Fig. 7: latency of four truly parallel functions (pool / Java threads)
/// as the CPU allocation shrinks from 4 to 1.
pub fn fig7() -> String {
    let fns = apps::slapp_reference_functions();
    let wf = Workflow::new("SLApp-ref", fns, vec![vec![0, 1, 2, 3]]).expect("static workflow");
    let cfg = EvalConfig::default();
    let mut table = Table::new(vec!["CPUs", "pool mean (ms)", "java threads mean (ms)"]);
    let mut per_cpu = Vec::new();
    for cpus in (1..=4u32).rev() {
        let pool_plan = DeploymentPlan {
            system: SystemKind::FaastlaneP,
            workflow: wf.name.clone(),
            runtime: RuntimeKind::PseudoParallel,
            isolation: IsolationKind::None,
            transfer: TransferKind::RpcPayload,
            scheduling: SchedulingKind::PreDeployed,
            sandboxes: vec![SandboxPlan {
                id: SandboxId(0),
                cpus,
                pool_size: 4,
            }],
            stages: vec![StagePlan {
                wraps: vec![WrapPlan {
                    sandbox: SandboxId(0),
                    processes: (0..4)
                        .map(|i| ProcessPlan::pooled(vec![FunctionId(i)]))
                        .collect(),
                }],
            }],
        };
        let mut java_plan = pool_plan.clone();
        java_plan.runtime = RuntimeKind::TrueParallel;
        java_plan.sandboxes[0].pool_size = 0;
        java_plan.stages[0].wraps[0].processes =
            vec![ProcessPlan::main_reuse((0..4).map(FunctionId).collect())];
        let pool = evaluate_plan(&wf, pool_plan, &cfg)
            .mean_latency
            .as_millis_f64();
        let java = evaluate_plan(&wf, java_plan, &cfg)
            .mean_latency
            .as_millis_f64();
        per_cpu.push((cpus, pool, java));
        table.row(vec![cpus.to_string(), ms(pool), ms(java)]);
    }
    let at = |c: u32| per_cpu.iter().find(|(cc, _, _)| *cc == c).unwrap();
    let inc = (at(3).1 / at(4).1 - 1.0 + (at(3).2 / at(4).2 - 1.0)) / 2.0;
    format!(
        "Fig. 7 — latency without the GIL vs CPU count (paper: 3 CPUs cost \
         only +11.7% / +4.2 ms over 4)\n{}\nmeasured increase at 3 vs 4 CPUs: {}\n",
        table.render(),
        pct(inc)
    )
}

/// Fig. 8: overall memory and normalised CPU cost of FINRA.
pub fn fig8() -> String {
    let cfg = EvalConfig::default();
    let mut table = Table::new(vec![
        "parallel fns",
        "OpenFaaS MB",
        "Faastlane MB",
        "Chiron MB",
        "OpenFaaS cpus",
        "Faastlane cpus",
        "Chiron cpus",
    ]);
    for n in [5usize, 25, 50] {
        let wf = apps::finra(n);
        let slo = Some(paper_slo(&wf));
        let of = evaluate_system(SystemKind::OpenFaas, &wf, None, &cfg);
        let fl = evaluate_system(SystemKind::Faastlane, &wf, None, &cfg);
        let ch = evaluate_system(SystemKind::Chiron, &wf, slo, &cfg);
        table.row(vec![
            n.to_string(),
            ms(of.usage.memory_mb()),
            ms(fl.usage.memory_mb()),
            ms(ch.usage.memory_mb()),
            of.usage.cpus.to_string(),
            fl.usage.cpus.to_string(),
            ch.usage.cpus.to_string(),
        ]);
    }
    format!(
        "Fig. 8 — FINRA resource consumption (paper: Faastlane −85.5% \
         memory / −7.5% CPU vs OpenFaaS; Chiron −82.7% CPU / −8.3% memory \
         vs Faastlane)\n{}",
        table.render()
    )
}

/// Table 1: SFI vs Intel MPK isolation costs.
pub fn table1() -> String {
    let fns = apps::slapp_reference_functions();
    let fibonacci = &fns[1];
    let disk_io = &fns[2];
    let mut table = Table::new(vec![
        "mechanism",
        "startup (ms)",
        "interaction (ms)",
        "exec overhead (fibonacci)",
        "exec overhead (disk-io)",
    ]);
    for (label, costs) in [
        ("SFI", IsolationCosts::sfi()),
        ("Intel MPK", IsolationCosts::mpk()),
    ] {
        table.row(vec![
            label.to_string(),
            ms(costs.startup.as_millis_f64()),
            ms(costs.interaction.as_millis_f64()),
            pct(costs.execution_overhead(fibonacci)),
            pct(costs.execution_overhead(disk_io)),
        ]);
    }
    format!(
        "Table 1 — SFI vs Intel MPK (paper: SFI 18 ms / 8 ms / 52.9% / \
         29.4%; MPK 0.2 ms / 0 / 35.2% / 7.3%)\n{}",
        table.render()
    )
}

/// Sanity ratio helper shared by tests.
pub fn speedup(base: SimDuration, new: SimDuration) -> String {
    ratio(base.as_millis_f64() / new.as_millis_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_shapes_hold() {
        let report = fig3();
        assert!(report.contains("Fig. 3"));
        // ASF dominates its own e2e at 50 functions.
        let last = report.lines().last().unwrap();
        assert!(last.trim_start().starts_with("50"));
    }

    #[test]
    fn fig6_chiron_wins_at_every_scale() {
        let cfg = EvalConfig::default();
        for n in [5usize, 25, 50] {
            let wf = apps::finra(n);
            let chiron = evaluate_system(SystemKind::Chiron, &wf, None, &cfg).mean_latency;
            for sys in [
                SystemKind::OpenFaas,
                SystemKind::Faastlane,
                SystemKind::FaastlaneT,
                SystemKind::FaastlanePlus,
            ] {
                let other = evaluate_system(sys, &wf, None, &cfg).mean_latency;
                assert!(
                    chiron <= other,
                    "FINRA-{n}: Chiron {chiron} vs {sys} {other}"
                );
            }
        }
    }

    #[test]
    fn fig6_thread_crossover() {
        // Observation 3: threads win at FINRA-5, lose by FINRA-50.
        let cfg = EvalConfig::default();
        let wf5 = apps::finra(5);
        let t5 = evaluate_system(SystemKind::FaastlaneT, &wf5, None, &cfg).mean_latency;
        let p5 = evaluate_system(SystemKind::Faastlane, &wf5, None, &cfg).mean_latency;
        assert!(t5 < p5, "threads should win at n=5: {t5} vs {p5}");
        let wf50 = apps::finra(50);
        let t50 = evaluate_system(SystemKind::FaastlaneT, &wf50, None, &cfg).mean_latency;
        let p50 = evaluate_system(SystemKind::Faastlane, &wf50, None, &cfg).mean_latency;
        assert!(t50 > p50, "threads should lose at n=50: {t50} vs {p50}");
    }

    #[test]
    fn fig7_three_cpus_cost_little() {
        let report = fig7();
        // Extract the measured increase from the report's last line.
        let line = report.lines().last().unwrap();
        let value: f64 = line
            .rsplit(' ')
            .next()
            .unwrap()
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(
            (0.0..=25.0).contains(&value),
            "3-CPU increase should be small: {value}%"
        );
    }

    #[test]
    fn reports_render() {
        for report in [fig4(), fig5(), fig8(), table1()] {
            assert!(report.len() > 100);
        }
    }
}

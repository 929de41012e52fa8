//! Regeneration of the headline evaluation: Fig. 13–19 (§6.2–6.3).

use crate::common::{ms, pct, ratio, suite, Table, FIG13_SYSTEMS, FIG16_SYSTEMS};
use crate::sweep::par_map_workers;
use chiron::deploy;
use chiron::model::SystemKind;
use chiron::{evaluate_plan, evaluate_system, paper_slo, system_plan, EvalConfig, SystemEval};
use chiron_model::{apps, DeploymentPlan, SimDuration, Workflow};

fn eval_with_slo(sys: SystemKind, wf: &Workflow, cfg: &EvalConfig) -> SystemEval {
    let slo = match sys {
        SystemKind::Chiron | SystemKind::ChironM | SystemKind::ChironP => Some(paper_slo(wf)),
        _ => None,
    };
    evaluate_system(sys, wf, slo, cfg)
}

/// Evaluates the full `workflows × systems` grid on the sweep engine, one
/// `(workflow, system)` cell each; results come back in grid order.
fn eval_grid(
    workflows: &[Workflow],
    systems: &[SystemKind],
    cfg: &EvalConfig,
    workers: usize,
) -> Vec<SystemEval> {
    let cells: Vec<(usize, SystemKind)> = workflows
        .iter()
        .enumerate()
        .flat_map(|(wi, _)| systems.iter().map(move |&sys| (wi, sys)))
        .collect();
    par_map_workers(&cells, workers, |_, &(wi, sys)| {
        eval_with_slo(sys, &workflows[wi], cfg)
    })
}

/// Fig. 13: normalised end-to-end latency of nine systems on the suite.
pub fn fig13(workers: usize) -> String {
    let cfg = EvalConfig::default();
    let mut header: Vec<String> = vec!["workflow".into(), "Chiron (ms)".into()];
    header.extend(FIG13_SYSTEMS.iter().map(|s| format!("{s} (norm)")));
    let mut table = Table::new(header);
    let workflows = suite();
    let evals = eval_grid(&workflows, &FIG13_SYSTEMS, &cfg, workers);
    for (wi, wf) in workflows.iter().enumerate() {
        let row_evals = &evals[wi * FIG13_SYSTEMS.len()..(wi + 1) * FIG13_SYSTEMS.len()];
        let chiron = row_evals
            .iter()
            .find(|e| e.system == SystemKind::Chiron)
            .expect("chiron evaluated");
        let base = chiron.mean_latency.as_millis_f64();
        let mut row = vec![wf.name.clone(), ms(base)];
        for eval in row_evals {
            row.push(ratio(eval.mean_latency.as_millis_f64() / base));
        }
        table.row(row);
    }
    format!(
        "Fig. 13 — normalised end-to-end latency (paper: Chiron −89.9% vs \
         ASF, −37.5% vs OpenFaaS, −32.1% vs SAND, −25.1% vs Faastlane on \
         average)\n{}",
        table.render()
    )
}

/// Fig. 14: SLO-violation rate of Faastlane vs Chiron under cluster jitter.
pub fn fig14(workers: usize) -> String {
    let cfg = EvalConfig::jittered(200);
    let mut table = Table::new(vec!["workflow", "SLO (ms)", "Faastlane", "Chiron"]);
    let mut chiron_rates = Vec::new();
    let workflows = suite();
    // Plans and SLOs are hoisted out of the Monte Carlo; each of the 200
    // jittered replays per (workflow, system) is then an independent sweep
    // cell whose jitter seed comes from its request index.
    let plans: Vec<(SimDuration, DeploymentPlan, DeploymentPlan)> = workflows
        .iter()
        .map(|wf| {
            let slo = paper_slo(wf);
            let faastlane = system_plan(SystemKind::Faastlane, wf, None);
            let chiron = system_plan(SystemKind::Chiron, wf, Some(slo));
            (slo, faastlane, chiron)
        })
        .collect();
    let requests = cfg.requests.max(1);
    let cells: Vec<(usize, usize, u32)> = workflows
        .iter()
        .enumerate()
        .flat_map(|(wi, _)| {
            (0..2usize).flat_map(move |which| (0..requests).map(move |r| (wi, which, r)))
        })
        .collect();
    // One platform for every cell, so its jitter tables are built once.
    let platform = cfg.platform();
    let latencies = par_map_workers(&cells, workers, |_, &(wi, which, r)| {
        let plan = if which == 0 {
            &plans[wi].1
        } else {
            &plans[wi].2
        };
        platform
            .execute(&workflows[wi], plan, cfg.request_seed(r))
            .expect("plan validated by the planner")
            .e2e
    });
    for (wi, wf) in workflows.iter().enumerate() {
        let slo = plans[wi].0;
        let base = wi * 2 * requests as usize;
        let samples = |which: usize| -> chiron::metrics::LatencySamples {
            let start = base + which * requests as usize;
            latencies[start..start + requests as usize]
                .iter()
                .copied()
                .collect()
        };
        let fv = samples(0).violation_rate(slo);
        let cv = samples(1).violation_rate(slo);
        chiron_rates.push(cv);
        table.row(vec![
            wf.name.clone(),
            ms(slo.as_millis_f64()),
            pct(fv),
            pct(cv),
        ]);
    }
    let mean = chiron_rates.iter().sum::<f64>() / chiron_rates.len() as f64;
    format!(
        "Fig. 14 — SLO violation rate, SLO = mean Faastlane + 10 ms \
         (paper: Chiron averages 1.3%, far below Faastlane)\n{}\nChiron mean violation: {}\n",
        table.render(),
        pct(mean)
    )
}

/// Fig. 15: per-function latency distribution of FINRA-50's parallel stage.
pub fn fig15() -> String {
    let wf = apps::finra(50);
    let cfg = EvalConfig {
        requests: 1,
        ..EvalConfig::default()
    };
    let systems = [
        SystemKind::OpenFaas,
        SystemKind::Faastlane,
        SystemKind::Chiron,
        SystemKind::FaastlaneM,
        SystemKind::ChironM,
        SystemKind::FaastlaneP,
        SystemKind::ChironP,
    ];
    let mut table = Table::new(vec![
        "system", "p10 (ms)", "p50 (ms)", "p90 (ms)", "max (ms)",
    ]);
    for sys in systems {
        let eval = eval_with_slo(sys, &wf, &cfg);
        let outcome = &eval.sample_outcome;
        // The parallel stage's functions, measured from stage start as the
        // paper's CDF does.
        let stage_start = outcome.stage_windows[1].0;
        let lats: chiron::metrics::LatencySamples = outcome
            .timelines
            .iter()
            .filter(|t| t.stage == 1)
            .map(|t| t.completed.since(stage_start))
            .collect();
        table.row(vec![
            sys.to_string(),
            ms(lats.percentile(0.10).as_millis_f64()),
            ms(lats.percentile(0.50).as_millis_f64()),
            ms(lats.percentile(0.90).as_millis_f64()),
            ms(lats.max().as_millis_f64()),
        ]);
    }
    format!(
        "Fig. 15 — FINRA-50 per-function latency distribution (paper: \
         Chiron variants start and finish earliest; the pool starts fastest \
         but long-running functions tail out)\n{}",
        table.render()
    )
}

/// Fig. 16: normalised memory and maximum node throughput.
pub fn fig16(workers: usize) -> String {
    let cfg = EvalConfig::default();
    let mut mem = Table::new(vec![
        "workflow",
        "Chiron MB",
        "OpenFaaS",
        "SAND",
        "Faastlane",
        "Faastlane-M",
        "Chiron-M",
        "Faastlane-P",
        "Chiron-P",
    ]);
    let mut thpt = Table::new(vec![
        "workflow",
        "Chiron rps",
        "OpenFaaS",
        "SAND",
        "Faastlane",
        "Faastlane-M",
        "Chiron-M",
        "Faastlane-P",
        "Chiron-P",
    ]);
    let workflows = suite();
    let all_evals = eval_grid(&workflows, &FIG16_SYSTEMS, &cfg, workers);
    for (wi, wf) in workflows.iter().enumerate() {
        let evals = &all_evals[wi * FIG16_SYSTEMS.len()..(wi + 1) * FIG16_SYSTEMS.len()];
        let chiron = evals
            .iter()
            .find(|e| e.system == SystemKind::Chiron)
            .expect("chiron evaluated");
        let cmem = chiron.usage.memory_mb();
        let crps = chiron.throughput.rps;
        let norm = |sys: SystemKind, f: &dyn Fn(&SystemEval) -> f64, base: f64| {
            let e = evals.iter().find(|e| e.system == sys).unwrap();
            ratio(f(e) / base)
        };
        let by_mem = |e: &SystemEval| e.usage.memory_mb();
        let by_rps = |e: &SystemEval| e.throughput.rps;
        mem.row(vec![
            wf.name.clone(),
            ms(cmem),
            norm(SystemKind::OpenFaas, &by_mem, cmem),
            norm(SystemKind::Sand, &by_mem, cmem),
            norm(SystemKind::Faastlane, &by_mem, cmem),
            norm(SystemKind::FaastlaneM, &by_mem, cmem),
            norm(SystemKind::ChironM, &by_mem, cmem),
            norm(SystemKind::FaastlaneP, &by_mem, cmem),
            norm(SystemKind::ChironP, &by_mem, cmem),
        ]);
        thpt.row(vec![
            wf.name.clone(),
            format!("{crps:.0}"),
            norm(SystemKind::OpenFaas, &by_rps, crps),
            norm(SystemKind::Sand, &by_rps, crps),
            norm(SystemKind::Faastlane, &by_rps, crps),
            norm(SystemKind::FaastlaneM, &by_rps, crps),
            norm(SystemKind::ChironM, &by_rps, crps),
            norm(SystemKind::FaastlaneP, &by_rps, crps),
            norm(SystemKind::ChironP, &by_rps, crps),
        ]);
    }
    format!(
        "Fig. 16 — memory (normalised to Chiron) and node throughput \
         (paper: Chiron saves up to 97%/22% memory vs OpenFaaS/Faastlane \
         and improves throughput 1.3–39.6×)\n\nMemory:\n{}\nThroughput \
         (Chiron absolute, others normalised to Chiron):\n{}",
        mem.render(),
        thpt.render()
    )
}

/// Fig. 17: normalised allocated CPUs.
pub fn fig17(workers: usize) -> String {
    let cfg = EvalConfig {
        requests: 1,
        ..EvalConfig::default()
    };
    let systems = [
        SystemKind::OpenFaas,
        SystemKind::Faastlane,
        SystemKind::Chiron,
        SystemKind::ChironM,
        SystemKind::ChironP,
    ];
    let mut header: Vec<String> = vec!["workflow".into()];
    header.extend(systems.iter().map(|s| s.to_string()));
    let mut table = Table::new(header);
    let mut savings = Vec::new();
    let workflows = suite();
    let evals = eval_grid(&workflows, &systems, &cfg, workers);
    for (wi, wf) in workflows.iter().enumerate() {
        let mut row = vec![wf.name.clone()];
        let mut cpus = Vec::new();
        for (si, _) in systems.iter().enumerate() {
            let eval = &evals[wi * systems.len() + si];
            cpus.push(eval.usage.cpus);
            row.push(eval.usage.cpus.to_string());
        }
        table.row(row);
        savings.push(1.0 - f64::from(cpus[2]) / f64::from(cpus[1].max(1)));
    }
    let mean = savings.iter().sum::<f64>() / savings.len() as f64;
    format!(
        "Fig. 17 — allocated CPUs (paper: Chiron saves 20–94%, mean 75% vs \
         Faastlane)\n{}\nmean Chiron CPU saving vs Faastlane: {}\n",
        table.render(),
        pct(mean)
    )
}

/// Fig. 18: Java (no-GIL) latency and throughput on SLApp and FINRA-5.
pub fn fig18() -> String {
    let cfg = EvalConfig::default();
    let mut table = Table::new(vec![
        "workflow",
        "system",
        "latency (ms)",
        "throughput (rps)",
    ]);
    for wf in [apps::slapp(), apps::finra(5)] {
        let slo = paper_slo(&wf);
        let par = wf.max_parallelism() as u32;

        // One-to-one in Java.
        let one = deploy::to_java(deploy::openfaas(&wf));
        // Many-to-one in Java: threads with uniform (max-parallelism) CPUs.
        let mut many = deploy::to_java(deploy::faastlane_t(&wf));
        many.sandboxes[0].cpus = par;
        // Chiron in Java: thread execution with the minimum CPUs that keep
        // the simulated latency within the SLO.
        let mut chiron = deploy::to_java(deploy::faastlane_t(&wf));
        chiron.system = SystemKind::Chiron;
        let mut best = None;
        for cpus in 1..=par {
            chiron.sandboxes[0].cpus = cpus;
            let eval = evaluate_plan(&wf, chiron.clone(), &cfg);
            let ok = eval.mean_latency <= slo;
            best = Some(eval);
            if ok {
                break;
            }
        }
        let chiron_eval = best.expect("at least one CPU count evaluated");

        for (label, eval) in [
            ("One-to-One", evaluate_plan(&wf, one, &cfg)),
            ("Many-to-One", evaluate_plan(&wf, many, &cfg)),
            ("Chiron", chiron_eval),
        ] {
            table.row(vec![
                wf.name.clone(),
                label.to_string(),
                ms(eval.mean_latency.as_millis_f64()),
                format!("{:.0}", eval.throughput.rps),
            ]);
        }
    }
    format!(
        "Fig. 18 — Java / true-parallel comparison (paper: Chiron improves \
         throughput up to 4.9× via resource efficiency even without the \
         GIL)\n{}",
        table.render()
    )
}

/// Fig. 19: dollar cost per million requests, normalised by Chiron.
pub fn fig19(workers: usize) -> String {
    let cfg = EvalConfig {
        requests: 3,
        ..EvalConfig::default()
    };
    let systems = [
        SystemKind::Asf,
        SystemKind::OpenFaas,
        SystemKind::Sand,
        SystemKind::Faastlane,
        SystemKind::Chiron,
        SystemKind::FaastlaneM,
        SystemKind::ChironM,
        SystemKind::FaastlaneP,
        SystemKind::ChironP,
    ];
    let workflows = suite();
    let mut header: Vec<String> = vec!["system".into()];
    header.extend(workflows.iter().map(|w| w.name.clone()));
    let mut table = Table::new(header);
    let evals = eval_grid(&workflows, &systems, &cfg, workers);
    let eval_of = |sys_index: usize, wi: usize| &evals[wi * systems.len() + sys_index];
    let chiron_index = systems
        .iter()
        .position(|&s| s == SystemKind::Chiron)
        .expect("chiron in the system list");
    // Chiron's absolute cost row first, then everyone normalised to it.
    let chiron_costs: Vec<f64> = (0..workflows.len())
        .map(|wi| eval_of(chiron_index, wi).cost.usd_per_million)
        .collect();
    for (si, sys) in systems.iter().enumerate() {
        let mut row = vec![sys.to_string()];
        for (wi, &chiron_cost) in chiron_costs.iter().enumerate() {
            if *sys == SystemKind::Chiron {
                row.push(format!("${chiron_cost:.2}"));
            } else {
                let eval = eval_of(si, wi);
                row.push(ratio(eval.cost.usd_per_million / chiron_cost));
            }
        }
        table.row(row);
    }
    format!(
        "Fig. 19 — cost per 1M requests normalised by Chiron (paper: ASF up \
         to 272×; Chiron saves 44.4–95.3% vs Faastlane)\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14_chiron_rarely_violates() {
        let cfg = EvalConfig::jittered(60);
        let wf = apps::finra(5);
        let slo = paper_slo(&wf);
        let chiron = evaluate_system(SystemKind::Chiron, &wf, Some(slo), &cfg);
        let rate = chiron.latencies.violation_rate(slo);
        assert!(rate <= 0.10, "Chiron violation rate {rate}");
    }

    #[test]
    fn fig16_chiron_throughput_beats_faastlane_everywhere() {
        let cfg = EvalConfig {
            requests: 2,
            ..EvalConfig::default()
        };
        for wf in [
            apps::finra(5),
            apps::finra(50),
            apps::slapp(),
            apps::social_network(),
        ] {
            let chiron = eval_with_slo(SystemKind::Chiron, &wf, &cfg);
            let faastlane = eval_with_slo(SystemKind::Faastlane, &wf, &cfg);
            assert!(
                chiron.throughput.rps > faastlane.throughput.rps,
                "{}: {} vs {}",
                wf.name,
                chiron.throughput.rps,
                faastlane.throughput.rps
            );
        }
    }

    #[test]
    fn fig17_chiron_uses_fewest_cpus() {
        let cfg = EvalConfig {
            requests: 1,
            ..EvalConfig::default()
        };
        let wf = apps::finra(50);
        let chiron = eval_with_slo(SystemKind::Chiron, &wf, &cfg);
        let faastlane = eval_with_slo(SystemKind::Faastlane, &wf, &cfg);
        let openfaas = eval_with_slo(SystemKind::OpenFaas, &wf, &cfg);
        assert!(chiron.usage.cpus < faastlane.usage.cpus);
        assert!(chiron.usage.cpus < openfaas.usage.cpus);
    }

    #[test]
    fn fig18_chiron_java_throughput_wins() {
        let report = fig18();
        assert!(report.contains("Chiron"));
    }

    #[test]
    fn fig19_asf_most_expensive() {
        let cfg = EvalConfig {
            requests: 2,
            ..EvalConfig::default()
        };
        let wf = apps::movie_reviewing();
        let asf = eval_with_slo(SystemKind::Asf, &wf, &cfg);
        let chiron = eval_with_slo(SystemKind::Chiron, &wf, &cfg);
        let faastlane = eval_with_slo(SystemKind::Faastlane, &wf, &cfg);
        assert!(asf.cost.usd_per_million > faastlane.cost.usd_per_million);
        assert!(faastlane.cost.usd_per_million > chiron.cost.usd_per_million);
    }
}

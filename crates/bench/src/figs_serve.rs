//! Regeneration of the serving-plane experiments.
//!
//! The paper evaluates single-request latency; §7 raises the online
//! questions — centralised vs decentralised request scheduling, and the
//! real-time scheduling overhead at scale. This target operationalises
//! them: the same Chiron deployment is served under (a) steady Poisson
//! traffic, (b) a 10× traffic step that forces cold-start scale-up, and
//! (c) steady traffic with a node crash mid-run, for both routing
//! architectures.

use crate::common::{ms, pct, Table};
use crate::scenario::{self, ARRIVALS, SEED};
use crate::sweep::par_map_workers;
use chiron::serving::{RouterPolicy, ServeConfig, ServeSimulation, Workload};

fn row_for(
    scenario: &str,
    router: RouterPolicy,
    sim: &ServeSimulation,
    workload: &Workload,
) -> Vec<String> {
    let report = sim.run(workload, SEED).expect("serving run");
    vec![
        scenario.to_string(),
        router.name().to_string(),
        ms(report.sojourns.percentile(0.50).as_millis_f64()),
        ms(report.sojourns.percentile(0.99).as_millis_f64()),
        pct(report.cold_start_fraction()),
        report.peak_replicas.to_string(),
        report.requeued_requests.to_string(),
        report.lost.to_string(),
        format!(
            "{:.2}",
            report.cost_usd / report.completed.max(1) as f64 * 1e6
        ),
    ]
}

/// The serving-plane comparison (no paper figure; §7 made operational).
pub fn serve_figure(workers: usize) -> String {
    let (_, wf, deployment) = scenario::deployed();

    let steady = scenario::steady(20_000);
    let step = Workload::step(10.0, 10.0, 2_000, 18_000).with_arrivals(ARRIVALS);

    let mut table = Table::new(vec![
        "scenario",
        "router",
        "p50 (ms)",
        "p99 (ms)",
        "cold-start %",
        "peak replicas",
        "requeued",
        "lost",
        "$ / 1M req",
    ]);
    // Each (router, scenario) run is an independent simulation from the
    // same seed — one sweep cell each, rows reassembled in sweep order.
    let cells: Vec<(RouterPolicy, usize)> = RouterPolicy::ALL
        .into_iter()
        .flat_map(|router| (0..3usize).map(move |scenario| (router, scenario)))
        .collect();
    let rows = par_map_workers(&cells, workers, |_, &(router, scenario)| {
        let config = ServeConfig::paper_testbed().with_router(router);
        let sim = ServeSimulation::new(wf.clone(), deployment.plan().clone(), config);
        match scenario {
            0 => row_for("steady 50 rps", router, &sim, &steady),
            1 => row_for("step 10 -> 100 rps", router, &sim, &step),
            _ => {
                let faulty = sim.with_faults(scenario::node_kills(1));
                row_for("steady + node kill", router, &faulty, &steady)
            }
        }
    });
    for row in rows {
        table.row(row);
    }
    format!(
        "Serving plane — FINRA-12 under Chiron's plan on the 8-node testbed \
         (open loop, Poisson arrivals, seed {SEED}; node kill at t=60 s)\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_figure_renders_all_scenarios() {
        let report = serve_figure(2);
        assert!(report.contains("steady 50 rps"));
        assert!(report.contains("step 10 -> 100 rps"));
        assert!(report.contains("steady + node kill"));
        assert!(report.contains("central-fifo"));
        assert!(report.contains("partitioned"));
    }
}

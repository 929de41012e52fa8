//! Fleet-scale federation report (`figures -- fleet` writes it to
//! `BENCH_FLEET.json`): the sharded multi-cluster serving plane at the
//! scale the paper's testbed cannot reach — 16 federated clusters
//! (128 nodes) absorbing a ten-million-request steady workload.
//!
//! Four contracts are gates (`figures` exits non-zero if one fails):
//!
//! * `reports_identical_shards` — the merged `FleetReport` is
//!   byte-identical whether the clusters run on 1, 4 or 16 shards;
//! * `reports_identical_w1_w4` — likewise across worker counts;
//! * `zero_loss` — no run (including a deliberately saturated
//!   spillover run) loses an admitted request;
//! * `spill_exercised` — the saturated run really forwards work.
//!
//! Throughput is recorded per run and as a best-of headline, but is
//! informational: wall-clock depends on the host, the contracts do not.

use crate::report::{Obj, Report};
use crate::scenario::{self, SEED};
use chiron::{FleetConfig, FleetSimulation, FleetWorkload};
use chiron_model::SimDuration;
use std::time::Instant;

struct RunRow {
    shards: usize,
    workers: usize,
    digest: u64,
    completed: u64,
    lost: u64,
    wall_ms: f64,
}

impl RunRow {
    fn json(&self) -> Obj {
        Obj::new()
            .field("shards", self.shards)
            .field("workers", self.workers)
            .field("digest", self.digest)
            .field("wall_ms", self.wall_ms)
            .field("throughput_per_sec", self.throughput())
    }

    fn throughput(&self) -> f64 {
        self.completed as f64 / (self.wall_ms / 1e3)
    }
}

/// The report with custom fleet and workload sizes (tests use small
/// ones). `multi_workers` is the worker count compared against 1 for
/// the `reports_identical_w1_w4` gate.
fn fleet_report(clusters: u32, rps: f64, duration_ms: u64, multi_workers: usize) -> Report {
    let (_, wf, deployment) = scenario::deployed();
    let plan = deployment.schedule.plan;
    let config = FleetConfig::paper_fleet(clusters);
    let nodes = clusters * config.cluster.cluster.nodes;
    let sim = FleetSimulation::new(wf.clone(), plan.clone(), config).expect("fleet construction");
    let workload = FleetWorkload::steady(rps, SimDuration::from_millis(duration_ms));

    // The reference bytes come from the single-shard single-worker run;
    // every other (shards, workers) combination must reproduce them.
    let combos = [(1, 1), (4, 1), (16, 1), (16, multi_workers)];
    let mut runs: Vec<RunRow> = Vec::with_capacity(combos.len());
    for (shards, workers) in combos {
        let t0 = Instant::now();
        let report = sim
            .run_sharded(&workload, SEED, shards, workers)
            .expect("fleet run");
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        runs.push(RunRow {
            shards,
            workers,
            digest: report.digest(),
            completed: report.completed,
            lost: report.lost,
            wall_ms,
        });
    }
    let reference = &runs[0];
    let identical_shards = runs[..3].iter().all(|r| r.digest == reference.digest);
    let identical_workers = runs[3].digest == runs[2].digest;

    // Saturate one cluster of a small skewed fleet so the spillover path
    // carries real traffic: zero-loss must hold when federation is
    // actually moving work, not just when every cluster keeps up.
    let spill_sim = FleetSimulation::new(
        wf,
        plan,
        FleetConfig::paper_fleet(2).with_locality(vec![15.0, 1.0]),
    )
    .expect("spill fleet construction");
    let spill_workload = FleetWorkload::steady(300.0, SimDuration::from_millis(10_000));
    let spill = spill_sim.run(&spill_workload, 7).expect("spill run");

    let mut report = Report::new("BENCH_FLEET.json");
    report.gate("reports_identical_shards", identical_shards);
    report.gate("reports_identical_w1_w4", identical_workers);
    report.gate(
        "zero_loss",
        runs.iter().all(|r| r.lost == 0) && spill.lost == 0,
    );
    report.gate("spill_exercised", spill.forwarded > 0);
    let best = runs.iter().map(RunRow::throughput).fold(0.0f64, f64::max);
    report.json = Obj::new()
        .field("clusters", clusters)
        .field("nodes", nodes)
        .field("offered_rps", rps)
        .field("requests", (rps * duration_ms as f64 / 1e3).round() as u64)
        .field("completed", reference.completed)
        .field("runs", runs.iter().map(RunRow::json).collect::<Vec<_>>())
        .field(
            "spillover_run",
            Obj::new()
                .field("clusters", 2u32)
                .field("forwarded", spill.forwarded)
                .field("lost", spill.lost),
        )
        .field("throughput_per_sec", best);
    report
}

/// The full report: 16 clusters / 128 nodes, a 4 200-second fleet-wide
/// 2 400 req/s steady phase (10.08 M requests per run), four
/// (shards, workers) combinations plus the saturated spillover run.
pub fn fleet_figure(workers: usize) -> Report {
    let multi = if workers > 1 { workers } else { 4 };
    fleet_report(16, 2_400.0, 4_200_000, multi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_report_holds_its_gates() {
        let report = fleet_report(4, 200.0, 3_000, 2);
        crate::report::assert_gates(&report, 4, &[]);
    }
}

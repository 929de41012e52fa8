//! `figures -- lifecycle`: the tiered sandbox-start evaluation, written
//! to `BENCH_LIFECYCLE.json`.
//!
//! The same faulted FINRA-12 serving run as `figures -- obs` — steady
//! 50 rps Poisson traffic for 12 000 requests under Chiron's plan, with
//! nodes 0–2 killed at t = 60 s — is served three ways:
//!
//! * **coldboot-only** — the legacy lifecycle: every scale-up pays the
//!   flat 167 ms `T_coldStart`.
//! * **tiered** — the `chiron-lifecycle` pools: scale-ups are satisfied
//!   by the fastest tier with stock (snapshot restore ~12 ms → zygote
//!   fork → cold boot), the pools restock in the background off the
//!   forecast, and billing charges the held slots' rent.
//! * **tiered-diurnal** — the tiered pools again, but under the
//!   non-homogeneous (sinusoidal-rate) arrival process, exercising the
//!   EWMA forecast against load that actually moves.
//!
//! The cold-boot cell runs a 30 s keepalive; the tiered cells run 15 s —
//! when a restart rides a ~12 ms snapshot restore instead of a 167 ms
//! boot, holding idle replicas around "just in case" stops paying, and
//! retiring them sooner is exactly the cost dividend the tier ladder
//! buys (the held slots' rent is repaid several times over by the
//! shorter idle tail). The gated claims: the tiered pools cut the
//! serving p99 versus cold-boot-only at equal or lower total cost
//! (`tiered_p99_le_coldboot_p99`, `tiered_cost_le_coldboot_cost`), the
//! tiered cell really starts replicas from a pool
//! (`tiered_pool_starts_gt_0`), the per-tier start split sums exactly
//! (`tier_splits_exact`), and the whole report is byte-identical for any
//! `--workers N` (`reports_identical_w1_w4` — the same invariance
//! contract the sweep engine keeps everywhere else).
//!
//! On top of the serving cells the report sweeps the **prewarm budget**
//! through the PGP co-optimisation (`PgpConfig::with_prewarm`): for each
//! rent ceiling, the scheduler's chosen plan, its raw predicted latency,
//! the amortised startup penalty the objective carried, and the tier mix
//! that budget affords (snapshot/zygote slots, residual cold-boot
//! exposure, expected start latency) — the ablation axis showing richer
//! budgets buying the expected start latency down.

use crate::report::{hex, usd, Json, Obj, Report};
use crate::scenario::{self, KILLED_NODES, REQUESTS, RPS, SEED, SLO_OBJECTIVE};
use crate::sweep;
use chiron::eval::profile_for;
use chiron::serving::{ServeConfig, ServeReport, ServeSimulation, Workload};
use chiron_deploy::chiron_prewarmed;
use chiron_lifecycle::{
    mix_fractions, plan_tier_mix, LifecycleConfig, LifecycleCosts, PrewarmBudget, StartTier,
    TierTable,
};
use chiron_metrics::{plan_resources, ArrivalProcess};
use chiron_model::{BillingModel, CostModel, DeploymentPlan, ReplicaConfig, SimDuration, Workflow};

/// Cold-boot cell keepalive: short enough that the 240 s run's cost is
/// set by scale-up churn, not by the 600 s default drain tail — but long
/// enough that the autoscaler is not forced to cold-boot replicas back
/// at 167 ms a piece.
const KEEPALIVE_COLD_SECS: u64 = 30;
/// Tiered cells retire idle replicas twice as fast: when a restart rides
/// a ~12 ms snapshot restore instead of a 167 ms boot, holding idle
/// replicas around "just in case" stops paying. This is the cost side of
/// the tier ladder — the rent of the held slots is bought back several
/// times over by the shorter idle tail.
const KEEPALIVE_TIERED_SECS: u64 = 15;
/// Diurnal cell: one 60 s period per killed-node minute, ±60 % swing.
const DIURNAL_PERIOD_MS: u64 = 60_000;
const DIURNAL_AMPLITUDE_PCT: u8 = 60;
/// The prewarm-budget ablation axis, USD/hour of standing rent.
const BUDGETS_USD_PER_HOUR: [f64; 4] = [0.0, 1e-4, 1e-3, 1e-2];

/// One serving cell of the figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    name: &'static str,
    tiered: bool,
    diurnal: bool,
}

const CELLS: [Cell; 3] = [
    Cell {
        name: "coldboot-only",
        tiered: false,
        diurnal: false,
    },
    Cell {
        name: "tiered",
        tiered: true,
        diurnal: false,
    },
    Cell {
        name: "tiered-diurnal",
        tiered: true,
        diurnal: true,
    },
];

fn workload(diurnal: bool) -> Workload {
    let steady = scenario::steady(REQUESTS);
    if diurnal {
        steady.with_arrivals(ArrivalProcess::Diurnal {
            period_ms: DIURNAL_PERIOD_MS,
            amplitude_pct: DIURNAL_AMPLITUDE_PCT,
            seed: 7,
        })
    } else {
        steady
    }
}

fn cell_config(cell: Cell) -> ServeConfig {
    let keepalive = if cell.tiered {
        KEEPALIVE_TIERED_SECS
    } else {
        KEEPALIVE_COLD_SECS
    };
    let config = ServeConfig::paper_testbed()
        .with_slo(scenario::slo_policy(SLO_OBJECTIVE))
        .with_replicas(ReplicaConfig::default().with_keepalive(SimDuration::from_secs(keepalive)));
    if cell.tiered {
        config.with_lifecycle(LifecycleConfig::paper_calibrated())
    } else {
        config
    }
}

/// Serves every cell of the figure at its committed size on `workers`
/// workers: each cell's name and report, in cell order. The reports are
/// the ones `BENCH_LIFECYCLE.json` records, whatever `workers` is.
pub fn serve_cells(workers: usize) -> Vec<(&'static str, ServeReport)> {
    let (wf, plan) = served();
    let reports = run_cells(&wf, &plan, workers);
    CELLS.iter().map(|c| c.name).zip(reports).collect()
}

/// The served workflow, and the plan Chiron deploys it with.
fn served() -> (Workflow, DeploymentPlan) {
    let (_, wf, deployment) = scenario::deployed();
    (wf, deployment.schedule.plan)
}

/// Runs every cell from the same deterministic seed. Cells are seeded by
/// index through the sweep engine, so the reports depend only on the cell
/// — never on the worker count that ran them.
fn run_cells(wf: &Workflow, plan: &DeploymentPlan, workers: usize) -> Vec<ServeReport> {
    sweep::par_map_workers(&CELLS, workers, |_, &cell| {
        let sim = ServeSimulation::new(wf.clone(), plan.clone(), cell_config(cell))
            .with_faults(scenario::node_kills(KILLED_NODES));
        sim.run(&workload(cell.diurnal), SEED).expect("serving run")
    })
}

/// The per-cell JSON rows, in cell-index order; the workers-invariance
/// gate compares their rendered bytes.
fn cell_rows(reports: &[ServeReport]) -> Vec<Obj> {
    reports.iter().zip(CELLS.iter()).map(cell_json).collect()
}

fn cell_json((r, cell): (&ServeReport, &Cell)) -> Obj {
    let ms = |q: f64| r.sojourns.percentile(q).as_millis_f64();
    Obj::new()
        .field("cell", cell.name)
        .field("completed", r.completed)
        .field("lost", r.lost)
        .field("p50_ms", ms(0.50))
        .field("p99_ms", ms(0.99))
        .field("max_ms", r.sojourns.max().as_millis_f64())
        .field("cold_starts", r.cold_starts)
        .field("starts_by_tier", r.starts_by_tier)
        .field("tier_start_fractions", r.tier_start_fractions())
        .field("peak_replicas", r.peak_replicas)
        .field("replica_seconds", r.replica_seconds)
        .field("cost_usd", usd(r.cost_usd))
        .field("pool_gb_seconds", r.pool_gb_seconds)
        .field("pool_rent_usd", usd(r.pool_rent_usd))
        .field("total_cost_usd", usd(r.total_cost_usd()))
        .field("keepalive_tail_seconds", r.keepalive_tail_seconds)
        .field("digest", hex(r.digest()))
}

/// One row of the prewarm-budget ablation: the PGP schedule under that
/// budget plus the tier mix the budget affords for the chosen plan.
#[derive(Debug, Clone, Copy)]
struct SweepRow {
    usd_per_hour: f64,
    processes: usize,
    predicted: SimDuration,
    penalty: SimDuration,
    mix: chiron_lifecycle::TierMix,
}

fn sweep_row(wf: &Workflow, usd_per_hour: f64) -> SweepRow {
    let budget = PrewarmBudget::new(usd_per_hour, RPS);
    let profile = profile_for(wf);
    let out = chiron_prewarmed(wf, &profile, None, budget);
    let costs = CostModel::paper_calibrated();
    let caps = LifecycleConfig::paper_calibrated();
    let usage = plan_resources(&out.plan, wf, &costs);
    let table = TierTable::derive(
        &costs,
        &LifecycleCosts::paper_calibrated(),
        usage.memory_bytes,
        out.plan.sandbox_count() as u32,
        caps.snapshot_capacity,
        caps.zygote_capacity,
    );
    let mix = plan_tier_mix(
        &table,
        &budget,
        BillingModel::paper_calibrated().usd_per_gb_second,
    );
    SweepRow {
        usd_per_hour,
        processes: out.processes,
        predicted: out.predicted,
        penalty: out.startup_penalty,
        mix,
    }
}

fn sweep_row_json(row: &SweepRow) -> Obj {
    Obj::new()
        .field("usd_per_hour", usd(row.usd_per_hour))
        .field("processes", row.processes)
        .field("predicted_ms", row.predicted.as_millis_f64())
        .field("startup_penalty_ms", row.penalty.as_millis_f64())
        .field("snapshot_slots", row.mix.snapshot_slots)
        .field("zygote_slots", row.mix.zygote_slots)
        .field("uncovered", row.mix.uncovered)
        .field("expected_start_ms", row.mix.expected_start.as_millis_f64())
        .field("rent_usd_per_hour", usd(row.mix.rent_usd_per_hour))
        .field("mix_fractions", mix_fractions(&row.mix))
}

/// The tiered sandbox-start figure (see module docs). `workers` runs the
/// reported cells; the invariance gate re-runs them pinned to 1 and 4
/// workers and compares the rendered bytes.
pub fn lifecycle_figure(workers: usize) -> Report {
    let (wf, plan) = served();
    let reports = run_cells(&wf, &plan, workers);
    let w1 = run_cells(&wf, &plan, 1);
    let w4 = run_cells(&wf, &plan, 4);
    let digests: Vec<u64> = reports.iter().map(ServeReport::digest).collect();
    let render = |rows: &[ServeReport]| Json::from(cell_rows(rows)).to_string();
    let reports_identical = render(&w1) == render(&w4)
        && w1.iter().map(ServeReport::digest).collect::<Vec<_>>() == digests
        && w4.iter().map(ServeReport::digest).collect::<Vec<_>>() == digests;

    let coldboot = &reports[0];
    let tiered = &reports[1];
    let mut report = Report::new("BENCH_LIFECYCLE.json");
    report.gate(
        "tiered_p99_le_coldboot_p99",
        tiered.sojourns.percentile(0.99) <= coldboot.sojourns.percentile(0.99),
    );
    report.gate(
        "tiered_cost_le_coldboot_cost",
        tiered.total_cost_usd() <= coldboot.total_cost_usd(),
    );
    report.gate("reports_identical_w1_w4", reports_identical);
    // The blame split must account for every replica start exactly, and
    // the tiered cell must actually exercise the pools.
    report.gate(
        "tier_splits_exact",
        reports.iter().all(|r| {
            let f = r.tier_start_fractions();
            let total: u32 = r.starts_by_tier.iter().sum();
            total == 0 || (f.iter().sum::<f64>() - 1.0).abs() < 1e-9
        }),
    );
    let tier_starts: u32 = tiered.starts_by_tier[1] + tiered.starts_by_tier[2];
    report.gate("tiered_pool_starts_gt_0", tier_starts > 0);

    let sweep_rows: Vec<SweepRow> = BUDGETS_USD_PER_HOUR
        .iter()
        .map(|&b| sweep_row(&wf, b))
        .collect();
    report.json = Obj::new()
        .field("workers", workers)
        .field(
            "scenario",
            format!(
                "FINRA-12, 50 rps x {REQUESTS} requests, nodes 0-{} killed at t=60 s, \
                 keepalive {KEEPALIVE_COLD_SECS} s coldboot / {KEEPALIVE_TIERED_SECS} s tiered, \
                 SLO 1200 ms @ 99.9%, seed {SEED}",
                KILLED_NODES - 1
            ),
        )
        .field("tiered_pool_starts", tier_starts)
        .field("cells", cell_rows(&reports))
        .field(
            "prewarm_sweep",
            sweep_rows.iter().map(sweep_row_json).collect::<Vec<_>>(),
        );

    let mut text = format!(
        concat!(
            "Tiered sandbox start — FINRA-12 serving run ({} requests, {} nodes ",
            "killed at t=60 s, keepalive {} s coldboot / {} s tiered)\n\n",
            "cell             p50_ms   p99_ms  coldboots  snapshot  zygote  ",
            "pool_rent_usd  total_usd\n"
        ),
        REQUESTS, KILLED_NODES, KEEPALIVE_COLD_SECS, KEEPALIVE_TIERED_SECS,
    );
    for (cell, r) in CELLS.iter().zip(reports.iter()) {
        text.push_str(&format!(
            "{:<16} {:>7.1} {:>8.1} {:>10} {:>9} {:>7} {:>14.6} {:>10.6}\n",
            cell.name,
            r.sojourns.percentile(0.50).as_millis_f64(),
            r.sojourns.percentile(0.99).as_millis_f64(),
            r.starts_by_tier[StartTier::ColdBoot.code() as usize],
            r.starts_by_tier[StartTier::SnapshotRestore.code() as usize],
            r.starts_by_tier[StartTier::ZygoteFork.code() as usize],
            r.pool_rent_usd,
            r.total_cost_usd(),
        ));
    }
    text.push_str("\nPrewarm-budget sweep (PGP co-optimisation, FINRA-12 @ 50 rps)\n");
    text.push_str(
        "usd_per_hour  n  predicted_ms  penalty_ms  snapshot  zygote  uncovered  expected_ms\n",
    );
    for row in &sweep_rows {
        text.push_str(&format!(
            "{:>12.4} {:>2} {:>13.3} {:>11.3} {:>9} {:>7} {:>10} {:>12.3}\n",
            row.usd_per_hour,
            row.processes,
            row.predicted.as_millis_f64(),
            row.penalty.as_millis_f64(),
            row.mix.snapshot_slots,
            row.mix.zygote_slots,
            row.mix.uncovered,
            row.mix.expected_start.as_millis_f64(),
        ));
    }

    report.text = text;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_figure_holds_its_gates() {
        let report = lifecycle_figure(2);
        crate::report::assert_gates(&report, 5, &[]);
        // All four budget rows are present.
        assert!(matches!(
            report.json.get("prewarm_sweep"),
            Some(Json::Arr(rows)) if rows.len() == 4
        ));
        assert!(report.text.contains("Prewarm-budget sweep"));
    }
}

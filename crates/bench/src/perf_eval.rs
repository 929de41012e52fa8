//! `figures -- perf-eval`: harness-performance evaluation of the sweep
//! engine, written to `BENCH_EVAL.json`.
//!
//! Every parallelised figure is regenerated under two configurations
//! (each timed twice, interleaved, minimum reported):
//!
//! * **sequential** — one sweep worker;
//! * **parallel** — `N` sweep workers, i.e. what
//!   `figures -- all --workers N` actually runs.
//!
//! The two passes differ only in the worker count handed to the figure,
//! so the speed-up measures the sweep workers alone.
//!
//! Both passes must produce byte-identical figure text
//! (`rows_identical`) — the sweep's determinism contract — and planning
//! every (suite workflow, Fig. 13 system) pair twice must give equal
//! plans (`plans_identical`). Both are gates: `figures` exits non-zero
//! if either is false. The report also carries the DES hot-loop
//! counters: buffer pool traffic and fluid event-loop iterations, reset
//! at the start of each parallel pass and summed over exactly this run's
//! parallel passes.

use crate::common::{suite, FIG13_SYSTEMS};
use crate::report::{Obj, Report};
use chiron::system_plan;
use chiron_runtime::AllocStats;
use std::time::Instant;

/// A sweeping figure generator, called with its worker count.
type FigureFn = fn(usize) -> String;

/// Planning is deterministic: planning every (suite workflow, Fig. 13
/// system) pair twice gives equal plans.
fn plans_identical() -> bool {
    suite().iter().all(|wf| {
        FIG13_SYSTEMS
            .iter()
            .all(|&sys| system_plan(sys, wf, None) == system_plan(sys, wf, None))
    })
}

/// Sequential baseline: one sweep worker.
fn sequential_pass(f: FigureFn) -> (String, f64) {
    let t0 = Instant::now();
    let out = f(1);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (out, ms)
}

/// Parallel engine, as `figures -- all --workers N` runs it. The DES
/// hot-loop counters are reset before and sampled after the timed
/// region, so the returned [`AllocStats`] delta covers exactly this
/// pass — `BENCH_EVAL.json`'s reuse fractions are per-run, not
/// since-process-start.
fn parallel_pass(f: FigureFn, workers: usize) -> (String, f64, AllocStats) {
    chiron_runtime::reset_alloc_stats();
    let t0 = Instant::now();
    let out = f(workers);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (out, ms, chiron_runtime::alloc_stats())
}

fn add_stats(total: &mut AllocStats, pass: AllocStats) {
    total.buffer_allocs += pass.buffer_allocs;
    total.buffer_reuses += pass.buffer_reuses;
    total.events += pass.events;
}

/// One figure's timings, as measured by [`figure_entry`].
#[derive(Debug, Clone)]
struct FigureRow {
    name: &'static str,
    sequential_ms: f64,
    parallel_ms: f64,
    rows_identical: bool,
}

fn figure_entry(name: &'static str, workers: usize, f: FigureFn) -> (FigureRow, AllocStats) {
    // Each configuration is timed twice, interleaved so both see the same
    // heap and scheduler history, and the minimum is reported — the usual
    // guard against one-off interference on a shared box. Every pass must
    // emit the same bytes whatever its worker count.
    let (seq_a, seq_ms_a) = sequential_pass(f);
    let (par_a, par_ms_a, stats_a) = parallel_pass(f, workers);
    let (seq_b, seq_ms_b) = sequential_pass(f);
    let (par_b, par_ms_b, stats_b) = parallel_pass(f, workers);
    let mut stats = stats_a;
    add_stats(&mut stats, stats_b);
    let row = FigureRow {
        name,
        sequential_ms: seq_ms_a.min(seq_ms_b),
        parallel_ms: par_ms_a.min(par_ms_b),
        rows_identical: seq_a == par_a && seq_a == seq_b && seq_a == par_b,
    };
    (row, stats)
}

/// Assembles `BENCH_EVAL.json` from the measured rows.
fn eval_report(workers: usize, rows: &[FigureRow], stats: AllocStats, plans_ok: bool) -> Report {
    let mut report = Report::new("BENCH_EVAL.json");
    report.gate("rows_identical", rows.iter().all(|r| r.rows_identical));
    report.gate("plans_identical", plans_ok);
    let figures: Vec<Obj> = rows
        .iter()
        .map(|r| {
            Obj::new()
                .field("figure", r.name)
                .field("sequential_ms", r.sequential_ms)
                .field("parallel_ms", r.parallel_ms)
                .field("speedup", r.sequential_ms / r.parallel_ms)
                .field("rows_identical", r.rows_identical)
        })
        .collect();
    let total_seq: f64 = rows.iter().map(|r| r.sequential_ms).sum();
    let total_par: f64 = rows.iter().map(|r| r.parallel_ms).sum();
    report.json = Obj::new()
        .field("workers", workers)
        .field("figures", figures)
        .field(
            "figures_all",
            Obj::new()
                .field("sequential_ms", total_seq)
                .field("parallel_ms", total_par)
                .field("speedup", total_seq / total_par),
        )
        .field(
            "des_hot_loop",
            Obj::new()
                .field("buffer_allocs", stats.buffer_allocs)
                .field("buffer_reuses", stats.buffer_reuses)
                .field(
                    "reuse_fraction",
                    stats.buffer_reuses as f64 / (stats.buffer_allocs + stats.buffer_reuses) as f64,
                )
                .field("sim_events", stats.events),
        );
    report
}

/// The harness-performance report (see module docs). `workers` is the
/// sweep width of the parallel pass.
pub fn perf_eval(workers: usize) -> Report {
    let figures: [(&str, FigureFn); 8] = [
        ("fig12", crate::fig12),
        ("fig13", crate::fig13),
        ("fig14", crate::fig14),
        ("fig16", crate::fig16),
        ("fig17", crate::fig17),
        ("fig19", crate::fig19),
        ("serve", crate::serve_figure),
        ("ablations", crate::ablations::ablations_deterministic),
    ];
    // Sum of the parallel passes' per-pass DES hot-loop deltas: exactly
    // this perf-eval run's pool traffic, however often the process has
    // already exercised the DES.
    let mut stats = AllocStats {
        buffer_allocs: 0,
        buffer_reuses: 0,
        events: 0,
    };
    let mut rows = Vec::with_capacity(figures.len());
    for (name, f) in figures {
        let (row, fig_stats) = figure_entry(name, workers, f);
        rows.push(row);
        add_stats(&mut stats, fig_stats);
    }

    let plans_ok = plans_identical();
    eval_report(workers, &rows, stats, plans_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planning_twice_gives_equal_plans() {
        assert!(plans_identical());
    }
}

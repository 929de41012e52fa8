//! `figures -- perf-eval`: harness-performance evaluation of the sweep
//! engine, written to `BENCH_EVAL.json`.
//!
//! Every parallelised figure is regenerated under two configurations
//! (each timed twice, interleaved, minimum reported):
//!
//! * **sequential** — one worker, cross-figure memoisation off and the
//!   cache dropped first, so every plan, profile and SLO is re-derived
//!   from scratch;
//! * **parallel** — `N` sweep workers, memoisation on, i.e. what
//!   `figures -- all --workers N` actually runs.
//!
//! Both passes execute requests on the same engine; the speed-up measures
//! the sweep workers and the cross-figure memo only.
//!
//! Both passes must produce byte-identical figure text
//! (`rows_identical`) — the sweep's determinism contract — and the
//! memoised planner must return plans structurally identical to the
//! uncached ones (`plans_identical`). Both are gates: `figures` exits
//! non-zero if either is false. The report also carries the DES hot-loop
//! counters: buffer pool traffic and fluid event-loop iterations, reset
//! at the start of each parallel pass and summed over exactly this run's
//! parallel passes.

use crate::common::{suite, FIG13_SYSTEMS};
use crate::report::{Obj, Report};
use crate::sweep;
use chiron::{reset_eval_cache, set_eval_caching, system_plan};
use chiron_runtime::AllocStats;
use std::time::Instant;

/// A figure generator, as routed by the `figures` binary.
type FigureFn = fn() -> String;

/// The memoised planner must be invisible in the output: every plan it
/// serves from cache must equal the one a cold planner derives.
fn plans_identical() -> bool {
    let workflows = suite();
    let mut identical = true;
    for wf in &workflows {
        for &sys in FIG13_SYSTEMS.iter() {
            set_eval_caching(false);
            reset_eval_cache();
            let cold = system_plan(sys, wf, None);
            set_eval_caching(true);
            reset_eval_cache();
            let warm_a = system_plan(sys, wf, None);
            let warm_b = system_plan(sys, wf, None);
            identical &= cold == warm_a && warm_a == warm_b;
        }
    }
    identical
}

/// Sequential baseline: one worker, eval memo off.
fn sequential_pass(f: FigureFn) -> (String, f64) {
    sweep::set_workers(1);
    set_eval_caching(false);
    reset_eval_cache();
    let t0 = Instant::now();
    let out = f();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (out, ms)
}

/// Parallel engine, as `figures -- all --workers N` runs it. The DES
/// hot-loop counters are reset before and sampled after the timed
/// region, so the returned [`AllocStats`] delta covers exactly this
/// pass — `BENCH_EVAL.json`'s reuse fractions are per-run, not
/// since-process-start.
fn parallel_pass(f: FigureFn, workers: usize) -> (String, f64, AllocStats) {
    sweep::set_workers(workers);
    set_eval_caching(true);
    reset_eval_cache();
    sweep::reset_cell_count();
    chiron_runtime::reset_alloc_stats();
    let t0 = Instant::now();
    let out = f();
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
pub(crate) struct FigureRow {
    pub(crate) name: &'static str,
    pub(crate) cells: u64,
    pub(crate) sequential_ms: f64,
    pub(crate) parallel_ms: f64,
    pub(crate) rows_identical: bool,
}

fn figure_entry(name: &'static str, workers: usize, f: FigureFn) -> (FigureRow, AllocStats) {
    // Each configuration is timed twice, interleaved so both see the same
    // heap and scheduler history, and the minimum is reported — the usual
    // guard against one-off interference on a shared box. Every pass must
    // emit the same bytes regardless of memoisation or workers.
    let (seq_a, seq_ms_a) = sequential_pass(f);
    let (par_a, par_ms_a, stats_a) = parallel_pass(f, workers);
    let (seq_b, seq_ms_b) = sequential_pass(f);
    let (par_b, par_ms_b, stats_b) = parallel_pass(f, workers);
    let mut stats = stats_a;
    add_stats(&mut stats, stats_b);
    let row = FigureRow {
        name,
        cells: sweep::cell_count(),
        sequential_ms: seq_ms_a.min(seq_ms_b),
        parallel_ms: par_ms_a.min(par_ms_b),
        rows_identical: seq_a == par_a && seq_a == seq_b && seq_a == par_b,
    };
    (row, stats)
}

/// Assembles `BENCH_EVAL.json` from the measured rows.
pub(crate) fn eval_report(
    workers: usize,
    rows: &[FigureRow],
    stats: AllocStats,
    plans_ok: bool,
) -> Report {
    let mut report = Report::new("BENCH_EVAL.json");
    report.gate("rows_identical", rows.iter().all(|r| r.rows_identical));
    report.gate("plans_identical", plans_ok);
    let figures: Vec<Obj> = rows
        .iter()
        .map(|r| {
            Obj::new()
                .field("figure", r.name)
                .field("cells", r.cells)
                .field("sequential_ms", r.sequential_ms)
                .field("parallel_ms", r.parallel_ms)
                .field("speedup", r.sequential_ms / r.parallel_ms)
                .field("cells_per_sec", r.cells as f64 / (r.parallel_ms / 1e3))
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
    let saved_workers = sweep::workers();
    let saved_caching = chiron::eval_caching();

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

    // Leave the globals as the caller set them.
    sweep::set_workers(saved_workers);
    set_eval_caching(saved_caching);
    reset_eval_cache();

    eval_report(workers, &rows, stats, plans_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoised_plans_match_cold_plans() {
        assert!(plans_identical());
        // Leave the cross-figure cache in its default state for other tests.
        set_eval_caching(true);
        reset_eval_cache();
    }
}

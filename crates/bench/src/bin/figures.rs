//! Regenerates the paper's tables and figures on the virtual platform.
//!
//! ```text
//! cargo run -p chiron-bench --release --bin figures -- all
//! cargo run -p chiron-bench --release --bin figures -- --workers 4 fig6 fig13
//! cargo run -p chiron-bench --release --bin figures -- perf-eval --workers 4
//! ```
//!
//! The BENCH targets (`perf`, `perf-eval`, `obs`, `lifecycle`, `fleet`,
//! `fleet-obs`, `transfer`) write their `BENCH_*.json` and artifacts into
//! the working directory. The process exits with status 1 if any of their
//! gates is false or any write failed, each problem printed to stderr;
//! an unknown target exits with status 2.

use chiron_bench as bench;
use std::path::Path;

/// The targets that return a gated [`bench::Report`].
fn bench_report(target: &str, workers: usize) -> Option<bench::Report> {
    Some(match target {
        "perf" => bench::perf(),
        "perf-eval" => bench::perf_eval(workers),
        "obs" => bench::obs_eval(workers),
        "lifecycle" => bench::lifecycle_figure(workers),
        "fleet" => bench::fleet_figure(workers),
        "fleet-obs" => bench::fleet_obs_figure(),
        "transfer" => bench::transfer_figure(workers),
        _ => return None,
    })
}

/// A text figure, called with the `--workers` count; the figures that
/// do not sweep ignore it.
type FigureFn = fn(usize) -> String;

/// The text figures, in `all` order.
const FIGURES: [(&str, FigureFn); 17] = [
    ("fig3", |_| bench::fig3()),
    ("fig4", |_| bench::fig4()),
    ("fig5", |_| bench::fig5()),
    ("fig6", |_| bench::fig6()),
    ("fig7", |_| bench::fig7()),
    ("fig8", |_| bench::fig8()),
    ("table1", |_| bench::table1()),
    ("fig12", bench::fig12),
    ("fig13", bench::fig13),
    ("fig14", bench::fig14),
    ("fig15", |_| bench::fig15()),
    ("fig16", bench::fig16),
    ("fig17", bench::fig17),
    ("fig18", |_| bench::fig18()),
    ("fig19", bench::fig19),
    ("ablations", bench::ablations),
    ("serve", bench::serve_figure),
];

/// The BENCH targets `all` runs after the figures.
const ALL_REPORTS: [&str; 4] = ["lifecycle", "perf", "fleet", "transfer"];

fn parse_workers(value: Option<&str>) -> usize {
    match value.and_then(|v| v.parse().ok()) {
        Some(n) if n >= 1 => n,
        _ => {
            eprintln!("--workers expects a positive integer");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut args: Vec<String> = Vec::new();
    let mut workers: Option<usize> = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        if arg == "--workers" {
            workers = Some(parse_workers(iter.next().as_deref()));
        } else if let Some(v) = arg.strip_prefix("--workers=") {
            workers = Some(parse_workers(Some(v)));
        } else {
            args.push(arg);
        }
    }
    let workers = workers.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let targets: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        FIGURES
            .iter()
            .map(|&(name, _)| name)
            .chain(ALL_REPORTS)
            .collect()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let mut problems: Vec<String> = Vec::new();
    for target in targets {
        let output = if let Some(report) = bench_report(target, workers) {
            problems.extend(report.publish(Path::new(".")));
            report.to_string()
        } else if let Some(&(_, figure)) = FIGURES.iter().find(|&&(name, _)| name == target) {
            figure(workers)
        } else {
            eprintln!("unknown target: {target}");
            std::process::exit(2);
        };
        println!("{output}");
        println!("{}", "=".repeat(78));
    }
    if !problems.is_empty() {
        eprintln!("{} failed gate(s) or write(s):", problems.len());
        for problem in &problems {
            eprintln!("  {problem}");
        }
        std::process::exit(1);
    }
}

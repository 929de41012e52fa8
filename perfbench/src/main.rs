//! The Chiron benchmark: one command, three seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <deploy|serve|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run sets up, warms up with one discarded pass, then repeats the
//! workload's pass for `--seconds` of wall time with tracing off, timing
//! a fresh set-up before each pass and checking every output. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it then
//! runs one extra pass with `chiron_obs` tracing and bench-side spans on,
//! reports the per-layer metrics, and writes the spans as a Chrome trace
//! to `perfbench/out/`. The last line of standard output is the result as
//! one JSON object. See `README.md` for the metrics and workloads.

mod deploy;
mod fleet;
mod report;
mod serve;
mod serving;
mod spans;
mod util;

use report::Report;
use spans::Spans;
use std::process::ExitCode;

/// Layers whose self time is reported, in catalogue order.
const LAYERS: [&str; 8] = [
    "bench",
    "profiler",
    "pgp",
    "predict",
    "deploy",
    "runtime",
    "serve",
    "serve.fleet",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Deploy,
    Serve,
    Fleet,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "deploy" => Some(Workload::Deploy),
            "serve" => Some(Workload::Serve),
            "fleet" => Some(Workload::Fleet),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Deploy => "deploy",
            Workload::Serve => "serve",
            Workload::Fleet => "fleet",
        }
    }
}

/// Checked command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `available_parallelism` of the host.
    pub cpus: usize,
}

const USAGE: &str =
    "usage: perfbench --workload <deploy|serve|fleet> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// Host provenance stamped on every result.
fn provenance(opts: &Opts) -> Vec<(&'static str, String)> {
    vec![
        ("workload", opts.workload.name().to_string()),
        ("seed", opts.seed.to_string()),
        ("available_parallelism", opts.cpus.to_string()),
        ("profile", env!("PERFBENCH_PROFILE").to_string()),
        ("git_rev", env!("PERFBENCH_GIT_REV").to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("fleet_workers", fleet::WORKERS.to_string()),
    ]
}

/// Untraced passes must leave the trace sink untouched: no events banked,
/// no capture buffers opened.
pub fn check_untraced_zero_cost(report: &mut Report) {
    let untouched = chiron::obs::trace_stats() == chiron::obs::TraceStats::default();
    report.book(
        0,
        0,
        untouched,
        "tracing was not zero-cost in untraced passes",
    );
}

/// Self time per layer over the spans under the `timed` roots, as shares
/// of their wall time; returns that wall time in milliseconds.
pub fn record_self_times(report: &mut Report, spans: &Spans) -> f64 {
    let timed_ms = spans.root_ms("timed");
    let by_layer = spans.self_ms_by_layer("timed");
    report.layer("trace.timed_ms", timed_ms);
    report.note(format!(
        "traced pass: {timed_ms:.3} ms of timed wall; self time by layer:"
    ));
    for layer in LAYERS {
        let ms = by_layer.get(layer).copied().unwrap_or(0.0);
        let frac = util::ratio(ms, timed_ms);
        report.layer(format!("self_frac.{layer}"), frac);
        report.note(format!(
            "  {layer:<12} {ms:>12.3} ms  {:>6.2} %",
            frac * 100.0
        ));
    }
    timed_ms
}

/// Writes the traced pass's spans to `perfbench/out/`.
pub fn write_trace(opts: &Opts, spans: &Spans) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "{}-seed{}.trace.json",
        opts.workload.name(),
        opts.seed
    ));
    let doc = spans.chrome_trace(opts.workload.name(), &provenance(opts));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let meta: Vec<String> = provenance(&opts)
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("# perfbench {}", meta.join(" "));

    let mut report = Report::default();
    report.layer("host.cpus", opts.cpus as f64);
    chiron::obs::set_tracing(false);
    chiron::obs::reset_observability();
    match opts.workload {
        Workload::Deploy => deploy::run(&opts, &mut report),
        Workload::Serve => serve::run(&opts, &mut report),
        Workload::Fleet => fleet::run(&opts, &mut report),
    }
    report.layer("failed_frac", report.failed_frac());
    print!("{}", report.render_text(opts.trace));
    println!("{}", report.result_json(opts.trace));
    ExitCode::SUCCESS
}

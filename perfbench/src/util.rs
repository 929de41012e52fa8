//! Small helpers shared by the workloads: seed derivation, robust
//! summaries, the timed-pass loop and the process's peak memory.

use std::time::Instant;

/// SplitMix64 finaliser over `seed ^ tag`: one decorrelated sub-seed per
/// purpose (Poisson arrivals, profiler, invocations, synthetic shape), so
/// the whole input set follows from the single benchmark seed.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// What `timed_passes` measured.
pub struct Passes {
    /// Wall seconds of each timed pass.
    pub secs: Vec<f64>,
    /// Median over passes of the process's peak resident set during a
    /// pass, in MiB.
    pub peak_rss_mib: f64,
    /// Wall seconds of the fastest set-up.
    pub setup_s: f64,
}

/// Runs `pass` back to back until `seconds` of wall time are spent, and at
/// least three times, reading the peak resident set of every pass. Before
/// each pass it builds, times and drops `setups_per_pass` set-ups. A set-up
/// takes well under a millisecond. On a 2-vCPU shared virtual machine the
/// fastest of a few hundred back-to-back set-ups moved by up to a half
/// between runs, as did the median of set-ups spread over the run; the
/// fastest of the spread-out ones moved far less (see `fastest`).
pub fn timed_passes<T>(
    seconds: f64,
    setups_per_pass: usize,
    mut setup: impl FnMut() -> T,
    mut pass: impl FnMut(),
) -> Passes {
    let start = Instant::now();
    let (mut secs, mut peaks, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    while secs.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        for _ in 0..setups_per_pass {
            setups.push(timed(&mut setup).0);
        }
        reset_peak_rss();
        secs.push(timed(&mut pass).0);
        peaks.push(peak_rss_mib());
    }
    Passes {
        secs,
        peak_rss_mib: median(&peaks),
        setup_s: fastest(&setups),
    }
}

/// Pass count and the quartiles of the pass wall times, for the text
/// output.
pub fn pass_summary(passes: &[f64]) -> String {
    let mut ms: Vec<f64> = passes.iter().map(|secs| secs * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let at = |q: f64| ms[((ms.len() - 1) as f64 * q).round() as usize];
    format!(
        "{} timed passes, wall per pass min {:.3} / p10 {:.3} / q1 {:.3} / median {:.3} / q3 {:.3} / max {:.3} ms",
        ms.len(),
        at(0.0),
        at(0.1),
        at(0.25),
        at(0.5),
        at(0.75),
        at(1.0)
    )
}

/// The smallest of `xs`; 0 when empty.
///
/// Timings use the fastest of many repeats. Other tenants of a shared host
/// only ever add time to a pass, and on a 2-vCPU shared virtual machine
/// they did so for whole runs at a time: the median pass of a run moved by
/// a fifth between runs of one input, the fastest pass by a tenth or less.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Operations per wall second of a pass made of the fastest run of each of
/// its parts. A pass runs its parts one after another, and a stretch of
/// contention that slows one part leaves the other parts' fastest runs
/// untouched, so this is steadier than the fastest whole pass.
pub fn fastest_parts_rate(ops: u64, parts: &[Vec<f64>]) -> f64 {
    ratio(ops as f64, parts.iter().map(|secs| fastest(secs)).sum())
}

/// Hands the allocator's free memory back to the kernel, then lowers the
/// process's peak resident set (`VmHWM`) to its current one, so the next
/// `peak_rss_mib` reads the peak since this call. Where the kernel does
/// not allow the reset, `peak_rss_mib` keeps reading the peak since the
/// process started.
///
/// glibc keeps memory freed in a thread's arena resident. The fleet spawns
/// its workers afresh every epoch, each takes whichever arena it finds
/// free, and the free memory left resident, and with it a pass's peak,
/// moved by a fifth from process to process.
fn reset_peak_rss() {
    release_free_memory();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` only returns free pages of every arena to the
    // kernel; it takes the arenas' locks and touches no live allocation.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Wall seconds of `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

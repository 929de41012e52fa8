//! The tracing-overhead estimate both overhead gates use
//! (`tracing_overhead_le_15pct` in `figures obs`,
//! `fleet_tracing_overhead_le_15pct` in `figures fleet-obs`).
//!
//! [`interleave`] runs [`TIMING_ROUNDS`] rounds of one untraced and one
//! traced sample back to back, checking after every untraced sample that
//! the trace sink saw nothing. [`overhead_frac`] is the median over the
//! rounds of `traced / untraced − 1`: a round's two samples run a few
//! milliseconds apart, so a per-round ratio cancels the multi-second shifts
//! of a shared vCPU's speed, and the median ignores a round in which either
//! sample was lucky or contended. A per-mode minimum does neither: one
//! untraced sample that runs 30 % fast moves it by ~40 points.

use chiron_obs::TraceStats;

/// Interleaved untraced/traced rounds. Unoptimised builds (the unit
/// tests) use fewer; their wall clock is not gated.
pub const TIMING_ROUNDS: usize = if cfg!(debug_assertions) { 2 } else { 24 };
/// Ceiling on the traced run's overhead fraction.
pub const OVERHEAD_CEILING: f64 = 0.15;

/// The wall clocks of [`interleave`]'s samples, in round order.
#[derive(Debug)]
pub struct Rounds {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    /// Every untraced sample left the trace sink at zero events and zero
    /// capture buffers (`disabled_zero_cost`).
    pub zero_cost: bool,
}

impl Rounds {
    /// [`overhead_frac`] of the rounds.
    pub fn overhead(&self) -> f64 {
        overhead_frac(&self.untraced_ms, &self.traced_ms)
    }

    /// The per-mode median wall clocks, `(untraced, traced)`, for display.
    pub fn medians(&self) -> (f64, f64) {
        (
            median(&mut self.untraced_ms.clone()),
            median(&mut self.traced_ms.clone()),
        )
    }
}

/// Runs [`TIMING_ROUNDS`] rounds of `sample(false)` with tracing off, then
/// `sample(true)` with tracing on. `sample` returns the milliseconds it
/// put on the clock, so it decides what a sample runs and what it times.
pub fn interleave(mut sample: impl FnMut(bool) -> f64) -> Rounds {
    let mut rounds = Rounds {
        untraced_ms: Vec::with_capacity(TIMING_ROUNDS),
        traced_ms: Vec::with_capacity(TIMING_ROUNDS),
        zero_cost: true,
    };
    for _ in 0..TIMING_ROUNDS {
        chiron_obs::reset_trace_stats();
        chiron_obs::set_tracing(false);
        rounds.untraced_ms.push(sample(false));
        rounds.zero_cost &= chiron_obs::trace_stats() == TraceStats::default();
        chiron_obs::set_tracing(true);
        rounds.traced_ms.push(sample(true));
        chiron_obs::set_tracing(false);
    }
    rounds
}

/// The median over paired samples of `traced[i] / untraced[i] − 1`.
pub fn overhead_frac(untraced: &[f64], traced: &[f64]) -> f64 {
    assert_eq!(untraced.len(), traced.len(), "unpaired samples");
    let mut ratios: Vec<f64> = untraced
        .iter()
        .zip(traced)
        .map(|(u, t)| t / u - 1.0)
        .collect();
    median(&mut ratios)
}

/// The median of `xs` (the mean of the middle two for an even count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mid = xs.len() / 2;
    if xs.len().is_multiple_of(2) {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
}

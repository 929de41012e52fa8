//! Reactive autoscaling from queue depth and tail latency.
//!
//! Every tick the autoscaler compares the backlog per usable replica with
//! its target and the tick-window p99 sojourn with the latency target;
//! either signal over budget asks for more replicas (paying the 167 ms
//! sandbox cold start unless a lifecycle pool has stock). Scale-*down* is
//! keepalive-driven and lives in the simulator: an idle replica is retired
//! only after `ReplicaConfig::keepalive` of idleness.

use chiron_metrics::StreamingHistogram;
use chiron_model::SimDuration;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerConfig {
    /// Evaluation period.
    pub tick: SimDuration,
    /// Queued requests per usable replica the scaler tolerates before
    /// adding capacity.
    pub target_queue_per_replica: f64,
    /// Tail-latency objective: if the tick window's p99 sojourn exceeds
    /// this, scale up even with a shallow queue.
    pub p99_target: SimDuration,
    /// Upper bound on replicas added per tick (cold starts are paid in
    /// parallel, but placement capacity is consumed).
    pub max_step_up: u32,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            tick: SimDuration::from_secs(1),
            target_queue_per_replica: 2.0,
            p99_target: SimDuration::from_millis(500),
            max_step_up: 8,
        }
    }
}

/// Per-run autoscaler state: the sliding (per-tick) latency window.
///
/// The window only ever answers one question — "is the windowed p99 over
/// the target?" — so instead of a full histogram (whose bucket array
/// would be rebuilt every tick on the hot path) it keeps three scalars:
/// the sample count, the count at or below [`StreamingHistogram::threshold_cut`]
/// of the target, and whether any sample strictly exceeded the target.
/// `p99 > target` ⟺ `le_cut < ceil(0.99·n) ∧ over`, exactly matching the
/// histogram's bucketed percentile (see `threshold_cut`'s docs).
#[derive(Debug, Clone)]
pub struct Autoscaler {
    config: AutoscalerConfig,
    /// Largest sojourn (ns) still entirely below the target's bucket edge.
    cut_ns: u64,
    window_total: u64,
    window_le_cut: u64,
    window_over: bool,
}

impl Autoscaler {
    pub fn new(config: AutoscalerConfig) -> Self {
        let cut_ns = StreamingHistogram::threshold_cut(config.p99_target.as_nanos());
        Autoscaler {
            config,
            cut_ns,
            window_total: 0,
            window_le_cut: 0,
            window_over: false,
        }
    }

    pub fn config(&self) -> &AutoscalerConfig {
        &self.config
    }

    /// Feeds one completed request's sojourn into the current window.
    #[inline]
    pub fn observe(&mut self, sojourn: SimDuration) {
        let ns = sojourn.as_nanos();
        self.window_total += 1;
        self.window_le_cut += u64::from(ns <= self.cut_ns);
        self.window_over |= ns > self.config.p99_target.as_nanos();
    }

    /// Tick decision: how many replicas to add given the backlog and the
    /// number of usable replicas (live + still cold-starting). Resets the
    /// latency window.
    pub fn replicas_to_add(&mut self, queued: usize, usable: u32) -> u32 {
        let rank = (0.99 * self.window_total as f64).ceil().max(1.0) as u64;
        let p99_breach = self.window_total > 0 && self.window_le_cut < rank && self.window_over;
        self.window_total = 0;
        self.window_le_cut = 0;
        self.window_over = false;
        let backlog_allowance = self.config.target_queue_per_replica * f64::from(usable.max(1));
        let backlog_breach = queued as f64 > backlog_allowance;
        if !backlog_breach && !p99_breach {
            return 0;
        }
        // Size the step from the backlog: enough replicas that the queue
        // per replica returns to target; a pure-latency breach adds one.
        let desired = (queued as f64 / self.config.target_queue_per_replica).ceil() as u32;
        let add = desired.saturating_sub(usable).max(1);
        add.min(self.config.max_step_up)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_system_does_not_scale() {
        let mut a = Autoscaler::new(AutoscalerConfig::default());
        a.observe(SimDuration::from_millis(50));
        assert_eq!(a.replicas_to_add(1, 2), 0);
    }

    #[test]
    fn deep_backlog_scales_proportionally() {
        let mut a = Autoscaler::new(AutoscalerConfig::default());
        // 40 queued at target 2/replica with 2 usable → wants 20, add 8 (cap).
        assert_eq!(a.replicas_to_add(40, 2), 8);
        // 7 queued with 2 usable → desired ceil(3.5)=4 → add 2.
        assert_eq!(a.replicas_to_add(7, 2), 2);
    }

    #[test]
    fn tail_latency_breach_scales_even_with_shallow_queue() {
        let mut a = Autoscaler::new(AutoscalerConfig::default());
        for _ in 0..100 {
            a.observe(SimDuration::from_secs(2)); // far over the 500ms target
        }
        assert_eq!(a.replicas_to_add(0, 4), 1);
        // The window resets after each decision.
        assert_eq!(a.replicas_to_add(0, 4), 0);
    }

    #[test]
    fn step_is_capped() {
        let mut a = Autoscaler::new(AutoscalerConfig {
            max_step_up: 3,
            ..Default::default()
        });
        assert_eq!(a.replicas_to_add(1000, 1), 3);
    }
}

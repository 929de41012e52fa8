//! The metric catalogue and the result every workload fills in.
//!
//! Every workload prints every metric: end-to-end metrics in untraced runs,
//! per-layer metrics in traced runs. A per-layer metric a workload never
//! touches reads 0 there, which is itself the answer to "does this
//! workload stress that layer?".

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("cost_usd_per_1k", "USD"),
];

/// `(name, unit)` of every per-layer metric, measured in traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.cpus", "count"),
    ("host.fleet_workers_exceed_cpus", "count"),
    ("failed_frac", "ratio"),
    ("sim_samples", "count"),
    ("sim_max_rps_slo", "rps"),
    ("slo_miss_frac", "ratio"),
    ("trace.timed_ms", "ms"),
    ("self_frac.bench", "ratio"),
    ("self_frac.profiler", "ratio"),
    ("self_frac.pgp", "ratio"),
    ("self_frac.predict", "ratio"),
    ("self_frac.deploy", "ratio"),
    ("self_frac.runtime", "ratio"),
    ("self_frac.serve", "ratio"),
    ("self_frac.serve.fleet", "ratio"),
    ("profiler.profile_ms", "ms"),
    ("predict.cache_hit_rate.cold", "ratio"),
    ("predict.cache_hit_rate.warm", "ratio"),
    ("predict.cache_misses", "count"),
    ("predict.predict_us", "us"),
    ("predict.error_frac", "ratio"),
    ("pgp.schedule_ms.cold", "ms"),
    ("pgp.schedule_ms.warm", "ms"),
    ("pgp.candidates_examined", "count"),
    ("pgp.kl.candidates", "count"),
    ("pgp.kl.pruned", "count"),
    ("pgp.kl.applied", "count"),
    ("pgp.kl.useful_frac", "ratio"),
    ("deploy.codegen_ms", "ms"),
    ("deploy.sandboxes", "count"),
    ("runtime.execute_us.chiron", "us"),
    ("runtime.execute_us.faastlane", "us"),
    ("runtime.execute_us.openfaas", "us"),
    ("runtime.sim_events", "count"),
    ("runtime.ns_per_sim_event", "ns"),
    ("runtime.scratch_reuse_frac", "ratio"),
    ("serve.run_ms.r150", "ms"),
    ("serve.run_ms.r300", "ms"),
    ("serve.run_ms.r450", "ms"),
    ("serve.run_ms.r600", "ms"),
    ("serve.run_ms.r750", "ms"),
    ("serve.ns_per_request.r150", "ns"),
    ("serve.ns_per_request.r300", "ns"),
    ("serve.ns_per_request.r450", "ns"),
    ("serve.ns_per_request.r600", "ns"),
    ("serve.ns_per_request.r750", "ns"),
    ("serve.autoscaler.ticks", "count"),
    ("serve.queue_depth.mean", "count"),
    ("serve.queue_depth.peak", "count"),
    ("serve.scale_ups", "count"),
    ("serve.scale_downs", "count"),
    ("serve.peak_replicas", "count"),
    ("serve.cold_start_frac", "ratio"),
    ("serve.busy_frac", "ratio"),
    ("serve.requeue_frac", "ratio"),
    ("serve.fleet.run_ms", "ms"),
    ("serve.fleet.ns_per_request", "ns"),
    ("serve.fleet.epochs", "count"),
    ("serve.fleet.requests_per_cluster_epoch", "count"),
    ("serve.fleet.parallel_speedup", "x"),
    ("serve.fleet.federation_tax_frac", "ratio"),
    ("serve.fleet.forwarded_frac", "ratio"),
    ("lifecycle.start_frac.warm", "ratio"),
    ("lifecycle.start_frac.snapshot", "ratio"),
    ("lifecycle.start_frac.zygote", "ratio"),
    ("lifecycle.start_frac.cold", "ratio"),
    ("lifecycle.pool_rent_usd", "USD"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.trace_events", "count"),
    ("obs.events_per_request", "count"),
    ("obs.attribute_ms", "ms"),
    ("obs.export_ms", "ms"),
    ("obs.blame.queueing_frac", "ratio"),
    ("obs.blame.cold_start_frac", "ratio"),
    ("obs.blame.gil_block_frac", "ratio"),
    ("obs.blame.interaction_frac", "ratio"),
    ("obs.blame.execution_frac", "ratio"),
    ("obs.blame.retry_frac", "ratio"),
    ("obs.blame.forwarding_frac", "ratio"),
    ("obs.slo_alerts", "count"),
    ("obs.regime_changes", "count"),
];

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> Option<&'static str> {
    table.iter().find(|(n, _)| *n == name).map(|&(_, u)| u)
}

/// What one workload run produced: operation counts, metric values and
/// the human-readable lines printed above the result.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<String, f64>,
    lines: Vec<String>,
}

impl Report {
    /// Books `ops` attempted operations of one pass: `failed` of them
    /// failed on their own (an `Err`, a lost request), and all of them
    /// fail if the pass's output checks do not hold.
    pub fn book(&mut self, ops: u64, failed: u64, checks_hold: bool, what: &str) {
        self.attempted += ops;
        if checks_hold {
            self.failed += failed;
        } else {
            self.failed += ops;
            self.note(format!("CHECK FAILED: {what}"));
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(END_TO_END, name).is_some(),
            "{name} is not an end-to-end metric"
        );
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            unit_of(PER_LAYER, &name).is_some(),
            "{name} is not a per-layer metric"
        );
        self.layer.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `(name, unit, value)` of every metric of the run's mode, in
    /// catalogue order; a metric the workload did not set reads 0.
    fn rows(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        if traced {
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, u, self.layer.get(n).copied().unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n, u, self.e2e.get(n).copied().unwrap_or(0.0)))
                .collect()
        }
    }

    /// The human-readable lines, then the metric table of the run's mode.
    pub fn render_text(&self, traced: bool) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        for (name, unit, value) in self.rows(traced) {
            let _ = writeln!(out, "  {name:<42} {value:>16.6} {unit}");
        }
        out
    }

    /// The one-line JSON result; a non-finite value is a benchmark bug and
    /// is printed as 0.
    pub fn result_json(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .rows(traced)
            .into_iter()
            .map(|(name, unit, v)| {
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

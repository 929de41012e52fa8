//! Measurements shared by the `serve` and `fleet` workloads: totals folded
//! from serving reports, output checks on them, and the per-layer metrics
//! read from the reports, the `chiron_obs` registry and a captured trace.

use crate::report::Report;
use crate::spans::Spans;
use crate::util::ratio;
use chiron::obs::{Component, Trace};
use chiron::{FleetReport, ServeReport};

/// Latency SLO of both serving workloads, in milliseconds.
pub const SLO_MS: u64 = 1_200;

/// Counters and bills of one or more serving runs, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub accepted: u64,
    pub completed: u64,
    pub lost: u64,
    pub forwarded: u64,
    requeued: u64,
    cold_starts: u64,
    scale_ups: u64,
    scale_downs: u64,
    peak_replicas: u64,
    starts_by_tier: [u64; 4],
    replica_seconds: f64,
    busy_replica_seconds: f64,
    cost_usd: f64,
    pool_rent_usd: f64,
    slo_total: u64,
    slo_bad: u64,
    slo_alerts: u64,
    regime_changes: u64,
}

impl Totals {
    /// Folds in one standalone run; peak replicas take the maximum.
    pub fn add_serve(&mut self, r: &ServeReport) {
        self.accepted += r.accepted;
        self.completed += r.completed;
        self.lost += r.lost;
        self.forwarded += r.forwarded_out;
        self.requeued += r.requeued_requests;
        self.cold_starts += r.cold_starts;
        self.scale_ups += u64::from(r.scale_ups);
        self.scale_downs += u64::from(r.scale_downs);
        self.peak_replicas = self.peak_replicas.max(u64::from(r.peak_replicas));
        for (total, &n) in self.starts_by_tier.iter_mut().zip(&r.starts_by_tier) {
            *total += u64::from(n);
        }
        self.replica_seconds += r.replica_seconds;
        self.busy_replica_seconds += r.busy_replica_seconds;
        self.cost_usd += r.cost_usd;
        self.pool_rent_usd += r.pool_rent_usd;
        if let Some(slo) = &r.slo {
            self.slo_total += slo.total;
            self.slo_bad += slo.bad;
            self.slo_alerts += u64::from(slo.alerts_fired);
        }
        self.regime_changes += u64::from(r.regime_changes);
    }

    /// A fleet run's merged view; peak replicas are the sum of cluster peaks.
    pub fn from_fleet(r: &FleetReport) -> Self {
        let slo = r.slo.as_ref();
        Totals {
            accepted: r.accepted,
            completed: r.completed,
            lost: r.lost,
            forwarded: r.forwarded,
            requeued: r.requeued_requests,
            cold_starts: r.cold_starts,
            scale_ups: u64::from(r.scale_ups),
            scale_downs: u64::from(r.scale_downs),
            peak_replicas: u64::from(r.peak_replicas),
            starts_by_tier: r.starts_by_tier.map(u64::from),
            replica_seconds: r.replica_seconds,
            busy_replica_seconds: r.busy_replica_seconds,
            cost_usd: r.cost_usd,
            pool_rent_usd: r.pool_rent_usd,
            slo_total: slo.map_or(0, |s| s.total),
            slo_bad: slo.map_or(0, |s| s.bad),
            slo_alerts: u64::from(r.slo_alerts_fired),
            regime_changes: u64::from(r.regime_changes),
        }
    }

    /// Every accepted request completed or was forwarded, and none was lost.
    pub fn conserved(&self) -> bool {
        self.completed + self.forwarded + self.lost == self.accepted && self.lost == 0
    }

    /// Requests that missed the SLO, a lost request counting as a miss.
    pub fn slo_miss_frac(&self) -> f64 {
        ratio(
            (self.slo_bad + self.lost) as f64,
            (self.slo_total + self.lost) as f64,
        )
    }

    /// Replica cost plus pool rent per 1000 completed requests.
    pub fn cost_usd_per_1k(&self) -> f64 {
        ratio(
            (self.cost_usd + self.pool_rent_usd) * 1e3,
            self.completed as f64,
        )
    }

    /// The per-layer metrics read off the reports.
    pub fn record_layers(&self, report: &mut Report) {
        report.layer("serve.scale_ups", self.scale_ups as f64);
        report.layer("serve.scale_downs", self.scale_downs as f64);
        report.layer("serve.peak_replicas", self.peak_replicas as f64);
        report.layer(
            "serve.cold_start_frac",
            ratio(self.cold_starts as f64, self.completed as f64),
        );
        report.layer(
            "serve.busy_frac",
            ratio(self.busy_replica_seconds, self.replica_seconds),
        );
        report.layer(
            "serve.requeue_frac",
            ratio(self.requeued as f64, self.accepted as f64),
        );
        let starts: u64 = self.starts_by_tier.iter().sum();
        for (tier, n) in ["warm", "snapshot", "zygote", "cold"]
            .iter()
            .zip(self.starts_by_tier)
        {
            report.layer(
                format!("lifecycle.start_frac.{tier}"),
                ratio(n as f64, starts as f64),
            );
        }
        report.layer("lifecycle.pool_rent_usd", self.pool_rent_usd);
        report.layer("obs.slo_alerts", self.slo_alerts as f64);
        report.layer("obs.regime_changes", self.regime_changes as f64);
        report.layer("slo_miss_frac", self.slo_miss_frac());
    }
}

/// Autoscaler counters from the `chiron_obs` registry, accumulated since
/// the last `reset_metrics`.
pub fn record_registry(report: &mut Report) {
    let snap = chiron::obs::snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .chain(&snap.gauges)
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    };
    let ticks = counter("serve.autoscaler.ticks");
    report.layer("serve.autoscaler.ticks", ticks as f64);
    report.layer(
        "serve.queue_depth.mean",
        ratio(
            counter("serve.autoscaler.queue_depth_sum") as f64,
            ticks as f64,
        ),
    );
    report.layer(
        "serve.queue_depth.peak",
        counter("serve.autoscaler.queue_depth_peak") as f64,
    );
}

/// Attribution and Perfetto export of one captured trace, each in its own
/// `obs` span. Returns whether the attribution sums exactly, with the
/// per-component blame in nanoseconds, in `Component::ALL` order.
pub fn analyse(trace: &Trace, spans: &mut Spans, run: u64) -> (bool, [u64; 7]) {
    let attrib = spans.span("obs", "attribute", run, |_| chiron::obs::attribute(trace));
    let exported = spans.span("obs", "serve_trace", run, |_| {
        chiron::obs::serve_trace(trace)
    });
    std::hint::black_box(exported);
    let mut blame = [0u64; 7];
    for (component, ns) in attrib.blame_ranking() {
        blame[component.index()] = ns;
    }
    (attrib.sums_exact(), blame)
}

/// The analysis-plane metrics: attribution and export time, trace volume
/// and the blame split of `blame`.
pub fn record_obs(report: &mut Report, spans: &Spans, events: u64, requests: u64, blame: [u64; 7]) {
    report.layer(
        "obs.attribute_ms",
        spans.durations_ms("obs", "attribute").iter().sum::<f64>(),
    );
    report.layer(
        "obs.export_ms",
        spans.durations_ms("obs", "serve_trace").iter().sum::<f64>(),
    );
    report.layer("obs.trace_events", events as f64);
    report.layer(
        "obs.events_per_request",
        ratio(events as f64, requests as f64),
    );
    let total: u64 = blame.iter().sum();
    for (component, ns) in Component::ALL.iter().zip(blame) {
        report.layer(
            format!("obs.blame.{}_frac", component.name()),
            ratio(ns as f64, total as f64),
        );
    }
}

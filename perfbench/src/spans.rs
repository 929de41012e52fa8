//! Bench-side spans around every call into a layer, recorded only in the
//! traced run. Spans stay in memory and are written once, at exit, in the
//! Chrome trace-event JSON that `chiron_obs::serve_trace` also emits, so
//! both open in the same viewer (Perfetto, `chrome://tracing`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    layer: &'static str,
    name: &'static str,
    /// Pipeline, rung or fleet-run id shared by the spans of one unit of work.
    run: u64,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

impl Span {
    fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A span recorder; every method is a no-op when it is off.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span of `layer`; the span's parent is the
    /// innermost span open when it starts. Returns `f`'s result.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        run: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            layer,
            name,
            run,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Total milliseconds of the top-level spans named `root`.
    pub fn root_ms(&self, root: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| s.dur_us() / 1e3)
            .sum()
    }

    /// Durations, in milliseconds and recording order, of the spans named
    /// `name` in `layer`.
    pub fn durations_ms(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.dur_us() / 1e3)
            .collect()
    }

    /// Self time per layer, in milliseconds, over the top-level spans
    /// named `root` and everything under them: each span's duration minus
    /// the time its child spans cover. Children run sequentially inside
    /// their parent, so the covered time is the sum of their durations.
    pub fn self_ms_by_layer(&self, root: &str) -> BTreeMap<&'static str, f64> {
        // A span is pushed when it opens, so its parent has a lower index.
        let mut top = Vec::with_capacity(self.spans.len());
        let mut child_us = vec![0.0; self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            top.push(s.parent.map_or(id, |p| top[p]));
            if let Some(parent) = s.parent {
                child_us[parent] += s.dur_us();
            }
        }
        let mut out = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            if self.spans[top[id]].name == root {
                *out.entry(s.layer).or_insert(0.0) += (s.dur_us() - child_us[id]) / 1e3;
            }
        }
        out
    }

    /// The spans as a Chrome trace-event document: one complete (`X`)
    /// event per span on a single track, with the parent span, workload
    /// and run id in `args`, and `meta` (host provenance) as `otherData`.
    pub fn chrome_trace(&self, workload: &str, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"perfbench {workload}\"}}}}"
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"{}\",\"name\":\"{}::{}\",\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\
                 \"workload\":\"{workload}\",\"run\":{}}}}}",
                s.layer,
                s.layer,
                s.name,
                s.start_us,
                s.dur_us(),
                s.run,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (key, value)) in meta.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{key}\":\"{}\"", value.replace('"', "'"));
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(true);
        spans.span("bench", "root", 0, |s| {
            s.span("pgp", "schedule", 1, |s| {
                s.span("predict", "predict", 1, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                });
            });
        });
        spans.span("bench", "other", 0, |_| ());
        let by_layer = spans.self_ms_by_layer("root");
        let total: f64 = by_layer.values().sum();
        assert!((total - spans.root_ms("root")).abs() < 1e-6);
        assert!(by_layer["predict"] >= 5.0);
        assert!(spans
            .chrome_trace("t", &[])
            .contains("\"name\":\"pgp::schedule\""));
    }

    #[test]
    fn off_records_nothing() {
        let mut spans = Spans::new(false);
        let v = spans.span("bench", "root", 0, |_| 7);
        assert_eq!(v, 7);
        assert_eq!(spans.root_ms("root"), 0.0);
    }
}

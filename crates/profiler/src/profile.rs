//! Function profiles: block periods + solo latency, reconstructed from
//! strace logs with the §3.2 rescaling correction.

use crate::trace::{strace_solo, StraceRecord};
use chiron_model::{FunctionId, FunctionSpec, Segment, SimDuration, SyscallKind, Workflow};
use serde::{Deserialize, Serialize};

/// One extracted block period, relative to function start (Fig. 10's
/// "block period" lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockPeriod {
    pub start: SimDuration,
    pub dur: SimDuration,
    pub kind: SyscallKind,
}

/// What the Profiler learned about one function from its solo runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionProfile {
    pub function: FunctionId,
    pub name: String,
    /// Mean solo-run latency measured *without* strace.
    pub solo_latency: SimDuration,
    /// Block periods rescaled onto the untraced timeline.
    pub blocks: Vec<BlockPeriod>,
}

impl FunctionProfile {
    /// Total blocked time.
    pub fn block_time(&self) -> SimDuration {
        self.blocks.iter().map(|b| b.dur).sum()
    }

    /// Deduced CPU time (everything that is not a block period).
    pub fn cpu_time(&self) -> SimDuration {
        self.solo_latency.saturating_sub(self.block_time())
    }

    /// Reconstructs a segment list (alternating CPU / block) usable by the
    /// Predictor's Algorithm 1 simulation.
    pub fn segments(&self) -> Vec<Segment> {
        let mut segments = Vec::with_capacity(self.blocks.len() * 2 + 1);
        let mut cursor = SimDuration::ZERO;
        for b in &self.blocks {
            if b.start > cursor {
                segments.push(Segment::Cpu(b.start - cursor));
            }
            segments.push(Segment::Block {
                kind: b.kind,
                dur: b.dur,
            });
            cursor = b.start + b.dur;
        }
        if self.solo_latency > cursor {
            segments.push(Segment::Cpu(self.solo_latency - cursor));
        }
        segments
    }
}

/// Profiles of every function in a workflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowProfile {
    pub workflow: String,
    pub functions: Vec<FunctionProfile>,
}

impl WorkflowProfile {
    pub fn function(&self, id: FunctionId) -> &FunctionProfile {
        &self.functions[id.index()]
    }
}

/// The Profiler: runs each function solo (traced and untraced) and
/// applies the strace-overhead rescaling.
#[derive(Debug, Clone)]
pub struct Profiler {
    /// Measurement seed. The solo runs are noiseless, so it does not
    /// change a profile; a seeded re-profile is a content-equal profile.
    pub seed: u64,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler { seed: 0x5eed }
    }
}

impl Profiler {
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Profiles one function (§3.2):
    ///
    /// 1. run untraced → solo latency (noiseless, so every repetition
    ///    reads the same);
    /// 2. run once under strace → block periods (tracer-inflated);
    /// 3. scale all block periods down by `untraced / traced` so they fit
    ///    the untraced timeline.
    fn profile_function(&self, id: FunctionId, spec: &FunctionSpec) -> FunctionProfile {
        let clean_mean = spec.solo_latency();
        let (log, traced_total) = strace_solo(spec);
        let scale = if traced_total.is_zero() {
            1.0
        } else {
            clean_mean.as_millis_f64() / traced_total.as_millis_f64()
        };
        let blocks = log
            .iter()
            .map(|r: &StraceRecord| BlockPeriod {
                start: r.start.mul_f64(scale),
                dur: r.duration.mul_f64(scale),
                kind: syscall_kind(r.syscall),
            })
            .collect();
        FunctionProfile {
            function: id,
            name: spec.name.clone(),
            solo_latency: clean_mean,
            blocks,
        }
    }

    /// Profiles every function of a workflow.
    pub fn profile_workflow(&self, workflow: &Workflow) -> WorkflowProfile {
        WorkflowProfile {
            workflow: workflow.name.clone(),
            functions: workflow
                .functions
                .iter()
                .enumerate()
                .map(|(i, spec)| self.profile_function(FunctionId(i as u32), spec))
                .collect(),
        }
    }
}

fn syscall_kind(name: &str) -> SyscallKind {
    match name {
        "read" | "write" => SyscallKind::DiskIo,
        "select" => SyscallKind::Sleep,
        _ => SyscallKind::NetIo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_model::apps;

    fn spec() -> FunctionSpec {
        FunctionSpec::new(
            "f",
            vec![
                Segment::cpu_ms(10),
                Segment::block_ms(SyscallKind::NetIo, 20.0),
                Segment::cpu_ms(5),
            ],
        )
    }

    #[test]
    fn exact_profile_without_noise() {
        let p = Profiler::default();
        let prof = p.profile_function(FunctionId(0), &spec());
        assert_eq!(prof.solo_latency.as_millis_f64(), 35.0);
        assert_eq!(prof.blocks.len(), 1);
        // Rescaling cancels the strace inflation to within rounding.
        let block_ms = prof.blocks[0].dur.as_millis_f64();
        assert!((block_ms - 20.0).abs() < 1.0, "block {block_ms}");
        let cpu = prof.cpu_time().as_millis_f64();
        assert!((cpu - 15.0).abs() < 1.0, "cpu {cpu}");
    }

    #[test]
    fn segment_reconstruction_roundtrip() {
        let p = Profiler::default();
        let prof = p.profile_function(FunctionId(0), &spec());
        let segs = prof.segments();
        assert_eq!(segs.len(), 3);
        assert!(segs[0].is_cpu());
        assert!(!segs[1].is_cpu());
        assert!(segs[2].is_cpu());
        let total: SimDuration = segs.iter().map(|s| s.duration()).sum();
        assert_eq!(total, prof.solo_latency);
    }

    #[test]
    fn rescaling_beats_raw_traced_blocks() {
        // Without rescaling the block estimate would be 8% high.
        let p = Profiler::default();
        let prof = p.profile_function(FunctionId(0), &spec());
        let err = (prof.blocks[0].dur.as_millis_f64() - 20.0).abs() / 20.0;
        assert!(err < crate::trace::STRACE_OVERHEAD / 2.0, "residual {err}");
    }

    #[test]
    fn workflow_profile_covers_all_functions() {
        let wf = apps::social_network();
        let prof = Profiler::default().profile_workflow(&wf);
        assert_eq!(prof.functions.len(), wf.function_count());
        for (i, fp) in prof.functions.iter().enumerate() {
            assert_eq!(fp.function, FunctionId(i as u32));
            assert!(!fp.solo_latency.is_zero());
        }
        assert_eq!(prof.workflow, "SocialNetwork");
    }

    #[test]
    fn cpu_only_function() {
        let f = FunctionSpec::new("cpu", vec![Segment::cpu_ms(7)]);
        let prof = Profiler::default().profile_function(FunctionId(0), &f);
        assert!(prof.blocks.is_empty());
        assert_eq!(prof.cpu_time().as_millis_f64(), 7.0);
        assert_eq!(prof.segments(), vec![Segment::cpu_ms(7)]);
    }
}

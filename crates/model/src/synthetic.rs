//! Seeded synthetic workflow generation.
//!
//! The paper's benchmarks are five fixed applications; studying PGP's
//! scalability (§7: "PGP can incur minute-level overhead when
//! orchestrating large workflows") and stress-testing the platform needs
//! arbitrarily shaped workflows. This generator produces deterministic,
//! seeded workflows with controlled stage counts, parallelism and workload
//! class mixes.

use crate::function::{FunctionSpec, Segment, SyscallKind, WorkloadClass};
use crate::workflow::Workflow;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape and behaviour parameters of a synthetic workflow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticSpec {
    pub seed: u64,
    pub stages: usize,
    /// Parallelism of each stage is drawn from `1..=max_parallelism`.
    pub max_parallelism: usize,
    /// Mean CPU milliseconds per function (exponential-ish spread).
    pub mean_cpu_ms: f64,
    /// Fraction of functions that are I/O-intensive.
    pub io_fraction: f64,
    /// Number of distinct behaviour profiles the functions cycle through
    /// (position `i` of a stage takes profile `i % profile_classes`, the
    /// way FINRA's rule checks repeat with period 5). Real fleets deploy
    /// families of near-identical functions; `0` disables sharing and
    /// gives every function its own random profile.
    pub profile_classes: usize,
}

impl Default for SyntheticSpec {
    fn default() -> Self {
        SyntheticSpec {
            seed: 7,
            stages: 4,
            max_parallelism: 8,
            mean_cpu_ms: 5.0,
            io_fraction: 0.4,
            profile_classes: 0,
        }
    }
}

/// Generates a deterministic workflow from the spec.
pub fn synthetic(spec: SyntheticSpec) -> Workflow {
    assert!(spec.stages >= 1, "need at least one stage");
    assert!(spec.max_parallelism >= 1, "need parallelism >= 1");
    assert!((0.0..=1.0).contains(&spec.io_fraction));
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut functions: Vec<FunctionSpec> = Vec::new();
    let mut stages: Vec<Vec<u32>> = Vec::new();
    // Lazily drawn behaviour templates when profile sharing is on.
    let mut profiles: Vec<(Vec<Segment>, WorkloadClass)> = Vec::new();
    for si in 0..spec.stages {
        // First and last stages are sequential entry/exit points; middle
        // stages fan out.
        let parallelism = if si == 0 || si + 1 == spec.stages {
            1
        } else {
            rng.random_range(1..=spec.max_parallelism)
        };
        let mut ids = Vec::with_capacity(parallelism);
        for fi in 0..parallelism {
            let reuse = if spec.profile_classes > 0 {
                let ci = fi % spec.profile_classes;
                profiles.get(ci).cloned()
            } else {
                None
            };
            let (segments, class) = if let Some(tpl) = reuse {
                tpl
            } else {
                let io_bound = rng.random::<f64>() < spec.io_fraction;
                // Exponential-ish CPU demand: -ln(U) × mean.
                let cpu_ms =
                    (-(rng.random::<f64>().max(1e-9)).ln() * spec.mean_cpu_ms).clamp(0.2, 200.0);
                let segments = if io_bound {
                    let io_ms = cpu_ms * rng.random_range(1.5..4.0);
                    let kind = if rng.random::<bool>() {
                        SyscallKind::DiskIo
                    } else {
                        SyscallKind::NetIo
                    };
                    vec![
                        Segment::cpu_ms_f64(cpu_ms * 0.4),
                        Segment::block_ms(kind, io_ms),
                        Segment::cpu_ms_f64(cpu_ms * 0.6),
                    ]
                } else {
                    vec![Segment::cpu_ms_f64(cpu_ms)]
                };
                let class = if io_bound {
                    WorkloadClass::NetIoIntensive
                } else {
                    WorkloadClass::CpuIntensive
                };
                if spec.profile_classes > 0 {
                    profiles.push((segments.clone(), class));
                }
                (segments, class)
            };
            ids.push(functions.len() as u32);
            functions.push(
                FunctionSpec::new(format!("s{si}f{fi}"), segments)
                    .with_class(class)
                    .with_output_bytes(rng.random_range(1..64) * 1024),
            );
        }
        stages.push(ids);
    }
    Workflow::new(
        format!(
            "Synthetic-{}x{}-{:x}",
            spec.stages, spec.max_parallelism, spec.seed
        ),
        functions,
        stages,
    )
    .expect("generator emits valid workflows")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stage_workflow() {
        let spec = SyntheticSpec {
            stages: 1,
            ..Default::default()
        };
        let wf = synthetic(spec);
        assert_eq!(wf.stage_count(), 1);
        assert_eq!(wf.function_count(), 1);
    }
}

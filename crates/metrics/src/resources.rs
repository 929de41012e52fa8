//! Static resource accounting for a deployment plan: peak memory and
//! allocated CPUs (Fig. 8, 16, 17).
//!
//! Memory is accounted per sandbox: a shared runtime image (`sandbox_base`),
//! resident pool workers if any, and — at the busiest stage the sandbox
//! serves — private pages per forked process, per thread, and per function
//! working set. The one-to-one model's memory redundancy (≈77 % in FINRA,
//! Observation 4) emerges naturally because every function-sandbox
//! duplicates the runtime image.

use chiron_model::plan::ProcessSpawn;
use chiron_model::{CostModel, DeploymentPlan, Workflow};

/// Resource footprint of one deployed workflow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceUsage {
    /// Peak resident memory across all sandboxes, in bytes.
    pub memory_bytes: u64,
    /// Whole CPUs allocated via cgroups (the paper's allocation unit).
    pub cpus: u32,
}

impl ResourceUsage {
    pub fn memory_mb(&self) -> f64 {
        self.memory_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// Computes the plan's peak resource usage.
pub fn plan_resources(
    plan: &DeploymentPlan,
    workflow: &Workflow,
    costs: &CostModel,
) -> ResourceUsage {
    let mut memory = 0u64;
    for sb in &plan.sandboxes {
        let mut peak_dynamic = 0u64;
        for stage in &plan.stages {
            let mut stage_dynamic = 0u64;
            for wrap in stage.wraps.iter().filter(|w| w.sandbox == sb.id) {
                for proc in &wrap.processes {
                    // Pool workers' resident memory is charged statically
                    // below; forked processes pay private COW pages here.
                    if proc.spawn == ProcessSpawn::Fork {
                        stage_dynamic += costs.process_overhead_bytes;
                    }
                    for &fid in &proc.functions {
                        stage_dynamic += costs.thread_overhead_bytes;
                        stage_dynamic += workflow.function(fid).workingset_bytes;
                    }
                }
            }
            peak_dynamic = peak_dynamic.max(stage_dynamic);
        }
        memory += costs.sandbox_base_bytes
            + u64::from(sb.pool_size) * costs.pool_worker_bytes
            + peak_dynamic;
    }
    ResourceUsage {
        memory_bytes: memory,
        cpus: plan.total_cpus(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_model::plan::*;
    use chiron_model::{FunctionId, FunctionSpec, Segment};

    fn workflow() -> Workflow {
        let fns = (0..3)
            .map(|i| {
                FunctionSpec::new(format!("f{i}"), vec![Segment::cpu_ms(1)])
                    .with_workingset_bytes(1 << 20)
            })
            .collect();
        Workflow::new("w", fns, vec![vec![0], vec![1, 2]]).unwrap()
    }

    fn base_plan(sandboxes: Vec<SandboxPlan>, stages: Vec<StagePlan>) -> DeploymentPlan {
        DeploymentPlan {
            system: SystemKind::Chiron,
            workflow: "w".into(),
            runtime: RuntimeKind::PseudoParallel,
            isolation: IsolationKind::None,
            transfer: TransferKind::RpcPayload,
            scheduling: SchedulingKind::PreDeployed,
            sandboxes,
            stages,
        }
    }

    #[test]
    fn one_sandbox_peaks_at_busiest_stage() {
        let costs = CostModel::paper_calibrated();
        let plan = base_plan(
            vec![SandboxPlan {
                id: SandboxId(0),
                cpus: 2,
                pool_size: 0,
            }],
            vec![
                StagePlan {
                    wraps: vec![WrapPlan {
                        sandbox: SandboxId(0),
                        processes: vec![ProcessPlan::main_reuse(vec![FunctionId(0)])],
                    }],
                },
                StagePlan {
                    wraps: vec![WrapPlan {
                        sandbox: SandboxId(0),
                        processes: vec![
                            ProcessPlan::forked(vec![FunctionId(1)]),
                            ProcessPlan::forked(vec![FunctionId(2)]),
                        ],
                    }],
                },
            ],
        );
        let usage = plan_resources(&plan, &workflow(), &costs);
        // Busiest stage: 2 forks + 2 threads + 2 working sets.
        let expected = costs.sandbox_base_bytes
            + 2 * costs.process_overhead_bytes
            + 2 * costs.thread_overhead_bytes
            + 2 * (1 << 20);
        assert_eq!(usage.memory_bytes, expected);
        assert_eq!(usage.cpus, 2);
    }

    #[test]
    fn one_to_one_duplicates_runtime_image() {
        let costs = CostModel::paper_calibrated();
        // Three function-sandboxes, one per function.
        let sandboxes = (0..3)
            .map(|i| SandboxPlan {
                id: SandboxId(i),
                cpus: 1,
                pool_size: 0,
            })
            .collect();
        let stages = vec![
            StagePlan {
                wraps: vec![WrapPlan {
                    sandbox: SandboxId(0),
                    processes: vec![ProcessPlan::main_reuse(vec![FunctionId(0)])],
                }],
            },
            StagePlan {
                wraps: vec![
                    WrapPlan {
                        sandbox: SandboxId(1),
                        processes: vec![ProcessPlan::main_reuse(vec![FunctionId(1)])],
                    },
                    WrapPlan {
                        sandbox: SandboxId(2),
                        processes: vec![ProcessPlan::main_reuse(vec![FunctionId(2)])],
                    },
                ],
            },
        ];
        let one_to_one = base_plan(sandboxes, stages);
        let usage = plan_resources(&one_to_one, &workflow(), &costs);
        // Three duplicated runtime images dominate.
        assert!(usage.memory_bytes > 3 * costs.sandbox_base_bytes);
        assert_eq!(usage.cpus, 3);
    }

    #[test]
    fn pool_workers_are_resident() {
        let costs = CostModel::paper_calibrated();
        let plan = base_plan(
            vec![SandboxPlan {
                id: SandboxId(0),
                cpus: 2,
                pool_size: 4,
            }],
            vec![
                StagePlan {
                    wraps: vec![WrapPlan {
                        sandbox: SandboxId(0),
                        processes: vec![ProcessPlan::pooled(vec![FunctionId(0)])],
                    }],
                },
                StagePlan {
                    wraps: vec![WrapPlan {
                        sandbox: SandboxId(0),
                        processes: vec![
                            ProcessPlan::pooled(vec![FunctionId(1)]),
                            ProcessPlan::pooled(vec![FunctionId(2)]),
                        ],
                    }],
                },
            ],
        );
        let usage = plan_resources(&plan, &workflow(), &costs);
        assert!(usage.memory_bytes >= 4 * costs.pool_worker_bytes);
    }

    #[test]
    fn memory_mb_conversion() {
        let usage = ResourceUsage {
            memory_bytes: 10 << 20,
            cpus: 1,
        };
        assert!((usage.memory_mb() - 10.0).abs() < 1e-9);
    }
}

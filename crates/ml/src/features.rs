//! Feature extraction for the learned latency-prediction baselines
//! (Fig. 12, §6.1).
//!
//! The paper feeds RFR/LSTM per-function features recommended by Gsight
//! (solo latency, context switches, cache MPKIs, utilisations, ...) and the
//! GNN additionally an adjacency matrix relating threads, processes, stages
//! and workflows within the wrap. Our virtual platform has no hardware
//! counters, so the feature set is the platform-level analogue: behavioural
//! quantities (latencies, CPU/block mixes, switch estimates) plus
//! deployment-structure quantities (process/thread/wrap counts, CPUs,
//! execution mode).

// Index-based loops mirror the matrix equations directly; iterator
// rewrites obscure the math and fight the split mutable borrows.
#![allow(clippy::needless_range_loop)]

use chiron_model::plan::ProcessSpawn;
use chiron_model::{DeploymentPlan, FunctionId, IsolationKind, RuntimeKind, Workflow};
use chiron_profiler::WorkflowProfile;

/// Flat feature vector describing one (workflow, plan) pair — the RFR/LSTM
/// input representation: 16 features.
pub fn plan_features(
    workflow: &Workflow,
    profile: &WorkflowProfile,
    plan: &DeploymentPlan,
) -> Vec<f64> {
    let n_functions = workflow.function_count() as f64;
    let n_stages = workflow.stage_count() as f64;
    let max_par = workflow.max_parallelism() as f64;

    let mut n_processes = 0f64;
    let mut n_forked = 0f64;
    let mut n_threads_in_shared = 0f64;
    let mut n_wraps = 0f64;
    for stage in &plan.stages {
        n_wraps += stage.wraps.len() as f64;
        for wrap in &stage.wraps {
            n_processes += wrap.processes.len() as f64;
            for proc in &wrap.processes {
                if proc.spawn == ProcessSpawn::Fork {
                    n_forked += 1.0;
                }
                if proc.functions.len() > 1 {
                    n_threads_in_shared += proc.functions.len() as f64;
                }
            }
        }
    }

    let mut total_solo = 0.0;
    let mut max_solo: f64 = 0.0;
    let mut total_cpu = 0.0;
    let mut total_block = 0.0;
    let mut switches = 0.0;
    for fp in &profile.functions {
        let solo = fp.solo_latency.as_millis_f64();
        total_solo += solo;
        max_solo = max_solo.max(solo);
        total_cpu += fp.cpu_time().as_millis_f64();
        total_block += fp.block_time().as_millis_f64();
        // A context-switch estimate: one per block period plus one per
        // 5ms GIL quantum of CPU time.
        switches += fp.blocks.len() as f64 + fp.cpu_time().as_millis_f64() / 5.0;
    }
    let cpu_fraction = if total_solo > 0.0 {
        total_cpu / total_solo
    } else {
        0.0
    };

    vec![
        n_functions,
        n_stages,
        max_par,
        n_processes,
        n_forked,
        n_threads_in_shared,
        n_wraps,
        f64::from(plan.total_cpus()),
        total_solo,
        max_solo,
        total_cpu,
        total_block,
        cpu_fraction,
        switches,
        match plan.runtime {
            RuntimeKind::PseudoParallel => 0.0,
            RuntimeKind::TrueParallel => 1.0,
        },
        match plan.isolation {
            IsolationKind::None => 0.0,
            IsolationKind::Mpk => 1.0,
            IsolationKind::Sfi => 2.0,
        },
    ]
}

/// Per-stage feature sequence (the LSTM consumes the workflow as a
/// time-series of stages).
pub fn stage_sequence(
    workflow: &Workflow,
    profile: &WorkflowProfile,
    plan: &DeploymentPlan,
) -> Vec<Vec<f64>> {
    plan.stages
        .iter()
        .enumerate()
        .map(|(si, stage_plan)| {
            let stage = &workflow.stages[si];
            let mut solo = 0.0;
            let mut max_solo: f64 = 0.0;
            let mut cpu = 0.0;
            for &fid in &stage.functions {
                let fp = profile.function(fid);
                solo += fp.solo_latency.as_millis_f64();
                max_solo = max_solo.max(fp.solo_latency.as_millis_f64());
                cpu += fp.cpu_time().as_millis_f64();
            }
            let n_procs: f64 = stage_plan
                .wraps
                .iter()
                .map(|w| w.processes.len() as f64)
                .sum();
            vec![
                stage.functions.len() as f64,
                stage_plan.wraps.len() as f64,
                n_procs,
                solo,
                max_solo,
                cpu,
            ]
        })
        .collect()
}

/// Node features (8 per node) + symmetric adjacency for the GNN: one node
/// per function; edges between functions sharing a process (weight 1.0),
/// sharing a wrap (0.6), sharing a stage (0.3), or adjacent in consecutive
/// stages (0.2).
pub fn plan_graph(
    workflow: &Workflow,
    profile: &WorkflowProfile,
    plan: &DeploymentPlan,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let n = workflow.function_count();
    let mut nodes = Vec::with_capacity(n);
    for fp in &profile.functions {
        nodes.push(vec![
            fp.solo_latency.as_millis_f64(),
            fp.cpu_time().as_millis_f64(),
            fp.block_time().as_millis_f64(),
            fp.blocks.len() as f64,
            0.0, // stage index, filled below
            0.0, // process size, filled below
            0.0, // wrap size, filled below
            0.0, // forked?
        ]);
    }
    let mut adj = vec![vec![0.0; n]; n];
    let link = |adj: &mut Vec<Vec<f64>>, a: FunctionId, b: FunctionId, w: f64| {
        if a != b {
            let (i, j) = (a.index(), b.index());
            adj[i][j] = adj[i][j].max(w);
            adj[j][i] = adj[j][i].max(w);
        }
    };
    for (si, stage_plan) in plan.stages.iter().enumerate() {
        for wrap in &stage_plan.wraps {
            let wrap_fns: Vec<FunctionId> = wrap.functions().collect();
            for proc in &wrap.processes {
                for &f in &proc.functions {
                    let node = &mut nodes[f.index()];
                    node[4] = si as f64;
                    node[5] = proc.functions.len() as f64;
                    node[6] = wrap_fns.len() as f64;
                    node[7] = f64::from(proc.spawn == ProcessSpawn::Fork);
                }
                for &a in &proc.functions {
                    for &b in &proc.functions {
                        link(&mut adj, a, b, 1.0);
                    }
                }
            }
            for &a in &wrap_fns {
                for &b in &wrap_fns {
                    link(&mut adj, a, b, 0.6);
                }
            }
        }
        for &a in &workflow.stages[si].functions {
            for &b in &workflow.stages[si].functions {
                link(&mut adj, a, b, 0.3);
            }
            if si + 1 < workflow.stages.len() {
                for &b in &workflow.stages[si + 1].functions {
                    link(&mut adj, a, b, 0.2);
                }
            }
        }
    }
    // Self-loops, as in standard GCN propagation.
    for (i, row) in adj.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    (nodes, adj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_model::plan::*;
    use chiron_model::{apps, SandboxId, SandboxPlan, SchedulingKind, SystemKind, TransferKind};
    use chiron_profiler::Profiler;

    fn sample() -> (Workflow, WorkflowProfile, DeploymentPlan) {
        let wf = apps::finra(5);
        let profile = Profiler::default().profile_workflow(&wf);
        let plan = DeploymentPlan {
            system: SystemKind::Faastlane,
            workflow: wf.name.clone(),
            runtime: RuntimeKind::PseudoParallel,
            isolation: IsolationKind::None,
            transfer: TransferKind::RpcPayload,
            scheduling: SchedulingKind::PreDeployed,
            sandboxes: vec![SandboxPlan {
                id: SandboxId(0),
                cpus: 5,
                pool_size: 0,
            }],
            stages: vec![
                StagePlan {
                    wraps: vec![WrapPlan {
                        sandbox: SandboxId(0),
                        processes: vec![ProcessPlan::main_reuse(vec![FunctionId(0)])],
                    }],
                },
                StagePlan {
                    wraps: vec![WrapPlan {
                        sandbox: SandboxId(0),
                        processes: (1..=5)
                            .map(|i| ProcessPlan::forked(vec![FunctionId(i)]))
                            .collect(),
                    }],
                },
            ],
        };
        (wf, profile, plan)
    }

    #[test]
    fn flat_features_have_fixed_dim() {
        let (wf, profile, plan) = sample();
        let f = plan_features(&wf, &profile, &plan);
        assert_eq!(f.len(), 16);
        assert_eq!(f[0], 6.0); // functions
        assert_eq!(f[3], 6.0); // processes
        assert_eq!(f[4], 5.0); // forked
        assert!(f[8] > 0.0); // total solo latency
    }

    #[test]
    fn stage_sequence_one_entry_per_stage() {
        let (wf, profile, plan) = sample();
        let seq = stage_sequence(&wf, &profile, &plan);
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[0][0], 1.0);
        assert_eq!(seq[1][0], 5.0);
    }

    #[test]
    fn graph_is_symmetric_with_self_loops() {
        let (wf, profile, plan) = sample();
        let (nodes, adj) = plan_graph(&wf, &profile, &plan);
        assert_eq!(nodes.len(), 6);
        assert_eq!(nodes[0].len(), 8);
        for i in 0..6 {
            assert_eq!(adj[i][i], 1.0);
            for j in 0..6 {
                assert_eq!(adj[i][j], adj[j][i]);
            }
        }
        // Stage-2 rules share a stage (0.3) but not a process.
        assert!(adj[1][2] >= 0.3);
        // Fetch connects to rules across the stage boundary (0.2).
        assert!(adj[0][1] >= 0.2);
    }

    #[test]
    fn thread_plan_links_process_mates_strongly() {
        let (wf, profile, mut plan) = sample();
        plan.stages[1].wraps[0].processes =
            vec![ProcessPlan::main_reuse((1..=5).map(FunctionId).collect())];
        let (_, adj) = plan_graph(&wf, &profile, &plan);
        assert_eq!(adj[1][2], 1.0);
    }
}

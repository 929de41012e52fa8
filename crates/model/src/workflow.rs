//! Serverless workflows as stage-structured DAGs.
//!
//! Following §3.3: "Serverless workflows comprise a sequence of execution
//! stages, wherein each stage includes one or more parallel functions."
//! Every function of stage *i* consumes the outputs of stage *i−1* and all
//! functions within a stage are mutually independent.

use crate::function::{FunctionId, FunctionSpec};
use serde::{Deserialize, Serialize};

/// One execution stage: a set of mutually parallel functions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stage {
    pub functions: Vec<FunctionId>,
}

impl Stage {
    pub fn parallelism(&self) -> usize {
        self.functions.len()
    }
}

/// A complete workflow definition as submitted by the user (step ➊ in
/// Fig. 9), together with the latency SLO used by PGP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workflow {
    pub name: String,
    pub functions: Vec<FunctionSpec>,
    pub stages: Vec<Stage>,
}

/// Errors detected while validating a workflow definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkflowError {
    /// A stage references a function index outside the function table.
    UnknownFunction { stage: usize, id: FunctionId },
    /// A function appears in more than one stage (or twice in one stage).
    DuplicateFunction(FunctionId),
    /// A function is never referenced by any stage.
    OrphanFunction(FunctionId),
    /// The workflow has no stages.
    Empty,
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::UnknownFunction { stage, id } => {
                write!(f, "stage {stage} references unknown function {id}")
            }
            WorkflowError::DuplicateFunction(id) => {
                write!(f, "function {id} appears in more than one stage slot")
            }
            WorkflowError::OrphanFunction(id) => {
                write!(f, "function {id} is not referenced by any stage")
            }
            WorkflowError::Empty => write!(f, "workflow has no stages"),
        }
    }
}

impl std::error::Error for WorkflowError {}

impl Workflow {
    /// Builds and validates a workflow.
    pub fn new(
        name: impl Into<String>,
        functions: Vec<FunctionSpec>,
        stages: Vec<Vec<u32>>,
    ) -> Result<Self, WorkflowError> {
        let wf = Workflow {
            name: name.into(),
            functions,
            stages: stages
                .into_iter()
                .map(|fns| Stage {
                    functions: fns.into_iter().map(FunctionId).collect(),
                })
                .collect(),
        };
        wf.validate()?;
        Ok(wf)
    }

    pub fn validate(&self) -> Result<(), WorkflowError> {
        if self.stages.is_empty() {
            return Err(WorkflowError::Empty);
        }
        let n = self.functions.len();
        let mut seen = vec![false; n];
        for (si, stage) in self.stages.iter().enumerate() {
            for &id in &stage.functions {
                if id.index() >= n {
                    return Err(WorkflowError::UnknownFunction { stage: si, id });
                }
                if seen[id.index()] {
                    return Err(WorkflowError::DuplicateFunction(id));
                }
                seen[id.index()] = true;
            }
        }
        if let Some(idx) = seen.iter().position(|&s| !s) {
            return Err(WorkflowError::OrphanFunction(FunctionId(idx as u32)));
        }
        Ok(())
    }

    pub fn function(&self, id: FunctionId) -> &FunctionSpec {
        &self.functions[id.index()]
    }

    pub fn function_count(&self) -> usize {
        self.functions.len()
    }

    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The maximum parallelism `M` across all stages (Algorithm 2, line 1).
    pub fn max_parallelism(&self) -> usize {
        self.stages
            .iter()
            .map(Stage::parallelism)
            .max()
            .unwrap_or(0)
    }

    /// Total intermediate bytes crossing each stage boundary.
    pub fn stage_output_bytes(&self, stage: usize) -> u64 {
        self.stages[stage]
            .functions
            .iter()
            .map(|&id| self.function(id).output_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Segment;

    fn fns(n: usize) -> Vec<FunctionSpec> {
        (0..n)
            .map(|i| FunctionSpec::new(format!("f{i}"), vec![Segment::cpu_ms(i as u64 + 1)]))
            .collect()
    }

    #[test]
    fn valid_workflow() {
        let wf = Workflow::new("w", fns(4), vec![vec![0], vec![1, 2], vec![3]]).unwrap();
        assert_eq!(wf.stage_count(), 3);
        assert_eq!(wf.max_parallelism(), 2);
    }

    #[test]
    fn rejects_duplicates() {
        let err = Workflow::new("w", fns(2), vec![vec![0], vec![0, 1]]).unwrap_err();
        assert_eq!(err, WorkflowError::DuplicateFunction(FunctionId(0)));
    }

    #[test]
    fn rejects_unknown() {
        let err = Workflow::new("w", fns(1), vec![vec![0, 5]]).unwrap_err();
        assert!(matches!(err, WorkflowError::UnknownFunction { .. }));
    }

    #[test]
    fn rejects_orphan() {
        let err = Workflow::new("w", fns(3), vec![vec![0], vec![2]]).unwrap_err();
        assert_eq!(err, WorkflowError::OrphanFunction(FunctionId(1)));
    }

    #[test]
    fn rejects_empty() {
        let err = Workflow::new("w", vec![], vec![]).unwrap_err();
        assert_eq!(err, WorkflowError::Empty);
    }

    #[test]
    fn stage_bytes() {
        let wf = Workflow::new("w", fns(3), vec![vec![0, 1], vec![2]]).unwrap();
        assert_eq!(wf.stage_output_bytes(0), 2 * (1 << 10));
    }
}

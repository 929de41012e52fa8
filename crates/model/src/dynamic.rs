//! Dynamic DAGs — the §7 "Application scenario (2)" extension.
//!
//! The paper's Chiron requires the function chain to be known a priori and
//! names dynamic workflows (e.g. Video-FFmpeg's *switch* step, which runs
//! either `split` or `simple_process` depending on `upload`'s result) as
//! future work. This module implements the natural completion: a
//! [`DynamicWorkflow`] may contain *switch stages* with alternative
//! branches; every resolvable variant is a static [`Workflow`], so PGP can
//! pre-plan each variant offline and the orchestrator routes per request
//! using a deterministic [`BranchSelector`] over the upstream output.

use crate::function::{FunctionId, FunctionSpec};
use crate::workflow::{Workflow, WorkflowError};

/// Decides which branch of a switch stage a request takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchSelector {
    /// Branch 1 when the upstream stage's total output exceeds the
    /// threshold, else branch 0 (Video-FFmpeg: large uploads are split).
    OutputBytesAbove { threshold: u64 },
    /// Always the given branch (degenerate, useful for testing).
    Fixed(usize),
}

impl BranchSelector {
    /// Resolves the branch index for a request whose upstream stage
    /// produced `upstream_bytes`.
    pub fn select(&self, upstream_bytes: u64, n_branches: usize) -> usize {
        let choice = match *self {
            BranchSelector::OutputBytesAbove { threshold } => {
                usize::from(upstream_bytes > threshold)
            }
            BranchSelector::Fixed(branch) => branch,
        };
        choice.min(n_branches.saturating_sub(1))
    }
}

/// One stage of a dynamic workflow.
#[derive(Debug, Clone, PartialEq)]
pub enum DynStage {
    /// An ordinary stage of parallel functions.
    Static(Vec<FunctionId>),
    /// A data-dependent choice among alternative branches, each a set of
    /// parallel functions.
    Switch {
        selector: BranchSelector,
        branches: Vec<Vec<FunctionId>>,
    },
}

/// A workflow whose shape is only fixed at request time.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicWorkflow {
    pub name: String,
    pub functions: Vec<FunctionSpec>,
    pub stages: Vec<DynStage>,
}

impl DynamicWorkflow {
    /// Number of switch stages.
    pub fn switch_count(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| matches!(s, DynStage::Switch { .. }))
            .count()
    }

    /// Total number of static variants (product of branch counts).
    pub fn variant_count(&self) -> usize {
        self.stages
            .iter()
            .map(|s| match s {
                DynStage::Static(_) => 1,
                DynStage::Switch { branches, .. } => branches.len(),
            })
            .product()
    }

    /// Concretises one variant. `choices` supplies the branch index per
    /// switch stage, in order. Functions on unchosen branches are dropped
    /// from the variant's function table (ids are remapped).
    pub fn resolve(&self, choices: &[usize]) -> Result<Workflow, WorkflowError> {
        let mut choice_iter = choices.iter();
        let chosen_stages: Vec<Vec<FunctionId>> = self
            .stages
            .iter()
            .map(|stage| match stage {
                DynStage::Static(fns) => fns.clone(),
                DynStage::Switch { branches, .. } => {
                    let &c = choice_iter.next().expect("one choice per switch stage");
                    branches[c.min(branches.len() - 1)].clone()
                }
            })
            .collect();
        // Remap to a compact function table containing only used functions.
        let mut remap = vec![None; self.functions.len()];
        let mut functions = Vec::new();
        let mut stages = Vec::new();
        for stage in &chosen_stages {
            let mut ids = Vec::with_capacity(stage.len());
            for &f in stage {
                let new = *remap[f.index()].get_or_insert_with(|| {
                    functions.push(self.functions[f.index()].clone());
                    (functions.len() - 1) as u32
                });
                ids.push(new);
            }
            stages.push(ids);
        }
        let name = format!("{}#{:?}", self.name, choices);
        Workflow::new(name, functions, stages)
    }

    /// Enumerates every static variant together with its choice vector —
    /// the offline pre-planning set for PGP.
    pub fn variants(&self) -> Vec<(Vec<usize>, Workflow)> {
        let switch_sizes: Vec<usize> = self
            .stages
            .iter()
            .filter_map(|s| match s {
                DynStage::Switch { branches, .. } => Some(branches.len()),
                DynStage::Static(_) => None,
            })
            .collect();
        let mut out = Vec::new();
        let total: usize = switch_sizes.iter().product::<usize>().max(1);
        for mut idx in 0..total {
            let mut choices = Vec::with_capacity(switch_sizes.len());
            for &size in &switch_sizes {
                choices.push(idx % size);
                idx /= size;
            }
            let wf = self
                .resolve(&choices)
                .expect("every variant of a valid dynamic workflow is valid");
            out.push((choices, wf));
        }
        out
    }

    /// Routes one request: walks the stages, applying each switch's
    /// selector to the upstream stage's total output bytes, and returns the
    /// chosen variant's choice vector.
    pub fn route(&self, request_bytes: u64) -> Vec<usize> {
        let mut choices = Vec::new();
        let mut upstream_bytes = request_bytes;
        for stage in &self.stages {
            let fns: &[FunctionId] = match stage {
                DynStage::Static(fns) => fns,
                DynStage::Switch { selector, branches } => {
                    let c = selector.select(upstream_bytes, branches.len());
                    choices.push(c);
                    &branches[c]
                }
            };
            upstream_bytes = fns
                .iter()
                .map(|&f| self.functions[f.index()].output_bytes)
                .sum();
        }
        choices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Segment;

    /// Video-FFmpeg (§7): upload → switch(split | simple_process) → merge.
    fn video_ffmpeg() -> DynamicWorkflow {
        let f = |name: &str, ms: u64, out: u64| {
            FunctionSpec::new(name, vec![Segment::cpu_ms(ms)]).with_output_bytes(out)
        };
        DynamicWorkflow {
            name: "VideoFFmpeg".into(),
            functions: vec![
                f("upload", 5, 8 << 20),          // 0: large upload
                f("simple_process", 20, 1 << 20), // 1: small-file path
                f("split_a", 12, 2 << 20),        // 2: parallel split path
                f("split_b", 12, 2 << 20),        // 3
                f("merge", 8, 1 << 20),           // 4
            ],
            stages: vec![
                DynStage::Static(vec![FunctionId(0)]),
                DynStage::Switch {
                    selector: BranchSelector::OutputBytesAbove { threshold: 4 << 20 },
                    branches: vec![vec![FunctionId(1)], vec![FunctionId(2), FunctionId(3)]],
                },
                DynStage::Static(vec![FunctionId(4)]),
            ],
        }
    }

    #[test]
    fn variant_enumeration() {
        let dw = video_ffmpeg();
        assert_eq!(dw.switch_count(), 1);
        assert_eq!(dw.variant_count(), 2);
        let variants = dw.variants();
        assert_eq!(variants.len(), 2);
        assert_eq!(variants[0].1.function_count(), 3); // upload, simple, merge
        assert_eq!(variants[1].1.function_count(), 4); // upload, split×2, merge
        for (_, wf) in &variants {
            wf.validate().unwrap();
        }
    }

    #[test]
    fn resolve_remaps_ids_compactly() {
        let dw = video_ffmpeg();
        let wf = dw.resolve(&[1]).unwrap();
        assert_eq!(wf.stages[1].functions.len(), 2);
        // The split functions must reference valid compact ids.
        assert_eq!(wf.function(wf.stages[1].functions[0]).name, "split_a");
        assert_eq!(wf.function(wf.stages[2].functions[0]).name, "merge");
    }

    #[test]
    fn routing_follows_upstream_output() {
        let dw = video_ffmpeg();
        // upload outputs 8 MB > 4 MB threshold → the split branch.
        assert_eq!(dw.route(1024), vec![1]);
    }

    #[test]
    fn selector_semantics() {
        let s = BranchSelector::OutputBytesAbove { threshold: 100 };
        assert_eq!(s.select(50, 2), 0);
        assert_eq!(s.select(150, 2), 1);
        assert_eq!(BranchSelector::Fixed(7).select(0, 2), 1, "clamped");
    }

    #[test]
    fn fixed_selector_route() {
        let mut dw = video_ffmpeg();
        if let DynStage::Switch { selector, .. } = &mut dw.stages[1] {
            *selector = BranchSelector::Fixed(0);
        }
        assert_eq!(dw.route(0), vec![0]);
    }
}

//! # chiron-ml
//!
//! From-scratch learned baselines for the prediction-error evaluation
//! (Fig. 12, §6.1): a CART-based random-forest regressor (the paper's RFR),
//! an LSTM regressor trained with BPTT (the paper's LSTM, lr = 0.01,
//! batch = 1), and a two-layer GCN regressor over the wrap relationship
//! graph (the paper's GNN). No external ML dependencies.

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod features;
pub mod forest;
pub mod gnn;
pub mod lstm;
pub mod tree;

pub use features::{plan_features, plan_graph, stage_sequence, NODE_FEATURE_DIM, PLAN_FEATURE_DIM};
pub use forest::{ForestConfig, RandomForest};
pub use gnn::{GnnConfig, GnnRegressor};
pub use lstm::{LstmConfig, LstmRegressor};
pub use tree::{RegressionTree, TreeConfig};

/// Why a learned baseline's `fit` refused its training data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitError {
    /// No samples to fit on.
    EmptyDataset,
    /// The inputs and the targets differ in number.
    LengthMismatch { inputs: usize, targets: usize },
    /// The first sample, which fixes the input width, is empty: no
    /// features (tree, forest), no steps (LSTM) or no nodes (GNN).
    EmptyFirstSample,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::EmptyDataset => write!(f, "cannot fit on an empty dataset"),
            FitError::LengthMismatch { inputs, targets } => {
                write!(f, "{inputs} inputs but {targets} targets")
            }
            FitError::EmptyFirstSample => write!(f, "the first sample is empty"),
        }
    }
}

impl std::error::Error for FitError {}

/// Why a fitted learned baseline refused to predict a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictError {
    /// The sample's width is not the width the model was fitted on.
    WidthMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::WidthMismatch { expected, got } => {
                write!(f, "a sample of {got} features, fitted on {expected}")
            }
        }
    }
}

impl std::error::Error for PredictError {}

/// Checks what every `fit` needs of its data: as many targets as inputs,
/// at least one sample, and a non-empty first sample.
fn check_fit<T>(
    inputs: &[T],
    targets: &[f64],
    first_is_empty: impl FnOnce(&T) -> bool,
) -> Result<(), FitError> {
    if inputs.len() != targets.len() {
        return Err(FitError::LengthMismatch {
            inputs: inputs.len(),
            targets: targets.len(),
        });
    }
    match inputs.first() {
        None => Err(FitError::EmptyDataset),
        Some(first) if first_is_empty(first) => Err(FitError::EmptyFirstSample),
        Some(_) => Ok(()),
    }
}

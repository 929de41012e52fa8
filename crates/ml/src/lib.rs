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

pub use features::{plan_features, plan_graph, stage_sequence};
pub use forest::{ForestConfig, RandomForest};
pub use gnn::{GnnConfig, GnnRegressor};
pub use lstm::{LstmConfig, LstmRegressor};
pub use tree::{RegressionTree, TreeConfig};

use rand::rngs::StdRng;
use rand::Rng;

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
    /// A later feature row (a tree or forest sample, an LSTM step, a GCN
    /// node) is not as wide as the first sample's, or a GCN adjacency
    /// matrix is not nodes × nodes.
    WidthMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::EmptyDataset => write!(f, "cannot fit on an empty dataset"),
            FitError::LengthMismatch { inputs, targets } => {
                write!(f, "{inputs} inputs but {targets} targets")
            }
            FitError::EmptyFirstSample => write!(f, "the first sample is empty"),
            FitError::WidthMismatch { expected, got } => {
                write!(f, "a width of {got} where {expected} was expected")
            }
        }
    }
}

impl std::error::Error for FitError {}

/// Why a fitted learned baseline refused to predict a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictError {
    /// A feature row (a tree or forest sample, an LSTM step, a GCN node)
    /// is not the width the model was fitted on, or a GCN adjacency
    /// matrix is not nodes × nodes.
    WidthMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::WidthMismatch { expected, got } => {
                write!(f, "a width of {got} where {expected} was expected")
            }
        }
    }
}

impl std::error::Error for PredictError {}

/// Refuses the first of `widths` that is not `expected`.
fn check_widths(
    expected: usize,
    mut widths: impl Iterator<Item = usize>,
) -> Result<(), PredictError> {
    match widths.find(|&got| got != expected) {
        Some(got) => Err(PredictError::WidthMismatch { expected, got }),
        None => Ok(()),
    }
}

/// [`check_widths`] for a `fit`, refusing with a [`FitError`].
fn check_fit_widths(expected: usize, widths: impl Iterator<Item = usize>) -> Result<(), FitError> {
    check_widths(expected, widths).map_err(|PredictError::WidthMismatch { expected, got }| {
        FitError::WidthMismatch { expected, got }
    })
}

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

/// Per-feature and target standardisation, fitted on a training set.
#[derive(Debug)]
struct Standardiser {
    x_mean: Vec<f64>,
    x_std: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

impl Standardiser {
    /// Fits the mean and population std of each of the `dim` features
    /// over `rows`, and of the targets `y`; a std never falls below 1e-9.
    fn fit<'a>(rows: impl Iterator<Item = &'a [f64]> + Clone, dim: usize, y: &[f64]) -> Self {
        let mut x_mean = vec![0.0; dim];
        let mut x_std = vec![0.0; dim];
        let mut count = 0.0;
        for row in rows.clone() {
            for (m, &v) in x_mean.iter_mut().zip(row) {
                *m += v;
            }
            count += 1.0;
        }
        for m in &mut x_mean {
            *m /= count;
        }
        for row in rows {
            for ((s, &v), m) in x_std.iter_mut().zip(row).zip(&x_mean) {
                *s += (v - m).powi(2);
            }
        }
        for s in &mut x_std {
            *s = (*s / count).sqrt().max(1e-9);
        }
        let y_mean = y.iter().sum::<f64>() / y.len() as f64;
        let y_std = (y.iter().map(|v| (v - y_mean).powi(2)).sum::<f64>() / y.len() as f64)
            .sqrt()
            .max(1e-9);
        Standardiser {
            x_mean,
            x_std,
            y_mean,
            y_std,
        }
    }

    /// Writes the standardised `row` into `out`.
    fn x(&self, row: &[f64], out: &mut [f64]) {
        let stats = self.x_mean.iter().zip(&self.x_std);
        for ((o, &v), (m, s)) in out.iter_mut().zip(row).zip(stats) {
            *o = (v - m) / s;
        }
    }

    /// A target in standard units.
    fn y(&self, target: f64) -> f64 {
        (target - self.y_mean) / self.y_std
    }

    /// A prediction in standard units back in the targets' units.
    fn unscale(&self, pred: f64) -> f64 {
        pred * self.y_std + self.y_mean
    }
}

/// `n` weights drawn uniformly from `[-k, k)`.
fn uniform(n: usize, k: f64, rng: &mut StdRng) -> Vec<f64> {
    (0..n).map(|_| rng.random_range(-k..k)).collect()
}

/// Per-sample SGD: each of `epochs` passes visits the `samples` in a
/// fresh Fisher–Yates order drawn from `rng`.
fn sgd_epochs(samples: usize, epochs: usize, rng: &mut StdRng, mut step: impl FnMut(usize)) {
    let mut order: Vec<usize> = (0..samples).collect();
    for _ in 0..epochs {
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        for &s in &order {
            step(s);
        }
    }
}

/// Resizes `v` to `n` zeros.
fn zeroed(v: &mut Vec<f64>, n: usize) {
    v.clear();
    v.resize(n, 0.0);
}

/// One SGD update with every gradient clipped to ±5.
fn clip_apply(weights: &mut [f64], grads: &[f64], lr: f64) {
    for (w, g) in weights.iter_mut().zip(grads) {
        *w -= lr * g.clamp(-5.0, 5.0);
    }
}

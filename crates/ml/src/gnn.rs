//! A graph-convolutional-network regressor, from scratch (the paper's GNN
//! baseline, hyper-parameters after BRP-NAS/Eagle): two GCN layers over the
//! wrap relationship graph, mean pooling, and a linear head predicting the
//! end-to-end latency.
//!
//! Propagation uses the standard symmetric normalisation
//! `Â = D^{-1/2} (A + I) D^{-1/2}` (self-loops are added by the feature
//! extractor).

// Index-based loops mirror the matrix equations directly; iterator
// rewrites obscure the math and fight the split mutable borrows.
#![allow(clippy::needless_range_loop)]

use crate::{check_fit, FitError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the GCN regressor.
#[derive(Debug, Clone, Copy)]
pub struct GnnConfig {
    pub hidden: usize,
    pub epochs: usize,
    pub lr: f64,
    pub seed: u64,
}

impl Default for GnnConfig {
    fn default() -> Self {
        GnnConfig {
            hidden: 16,
            epochs: 150,
            lr: 0.01,
            seed: 0x6cc,
        }
    }
}

type Matrix = Vec<Vec<f64>>;

fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (n, k) = (a.len(), b.len());
    let m = b[0].len();
    let mut out = vec![vec![0.0; m]; n];
    for i in 0..n {
        for kk in 0..k {
            let av = a[i][kk];
            if av == 0.0 {
                continue;
            }
            for j in 0..m {
                out[i][j] += av * b[kk][j];
            }
        }
    }
    out
}

fn transpose(a: &Matrix) -> Matrix {
    let (n, m) = (a.len(), a[0].len());
    let mut out = vec![vec![0.0; n]; m];
    for (i, row) in a.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            out[j][i] = v;
        }
    }
    out
}

/// Symmetric normalisation of an adjacency matrix that already contains
/// self-loops.
fn normalise_adjacency(adj: &Matrix) -> Matrix {
    let n = adj.len();
    let inv_sqrt_deg: Vec<f64> = adj
        .iter()
        .map(|row| {
            let d: f64 = row.iter().sum();
            if d > 0.0 {
                d.powf(-0.5)
            } else {
                0.0
            }
        })
        .collect();
    let mut out = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            out[i][j] = inv_sqrt_deg[i] * adj[i][j] * inv_sqrt_deg[j];
        }
    }
    out
}

/// A fitted GCN regressor.
#[derive(Debug)]
pub struct GnnRegressor {
    input_dim: usize,
    w1: Matrix,
    w2: Matrix,
    w_out: Vec<f64>,
    b_out: f64,
    x_mean: Vec<f64>,
    x_std: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

impl GnnRegressor {
    /// Trains on graphs `(node features, adjacency)` with scalar targets.
    pub fn fit(
        graphs: &[(Matrix, Matrix)],
        y: &[f64],
        config: GnnConfig,
    ) -> Result<Self, FitError> {
        check_fit(graphs, y, |(nodes, _)| nodes.is_empty())?;
        let input_dim = graphs[0].0[0].len();
        let h = config.hidden;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let k1 = (2.0 / input_dim as f64).sqrt();
        let k2 = (2.0 / h as f64).sqrt();
        let mut init = |rows: usize, cols: usize, k: f64| -> Matrix {
            (0..rows)
                .map(|_| (0..cols).map(|_| rng.random_range(-k..k)).collect())
                .collect()
        };
        let w1 = init(input_dim, h, k1);
        let w2 = init(h, h, k2);
        let w_out: Vec<f64> = (0..h).map(|_| rng.random_range(-k2..k2)).collect();

        // Node-feature normalisation statistics across all graphs.
        let mut x_mean = vec![0.0; input_dim];
        let mut x_std = vec![0.0; input_dim];
        let mut count = 0.0;
        for (nodes, _) in graphs {
            for row in nodes {
                for (d, &v) in row.iter().enumerate() {
                    x_mean[d] += v;
                }
                count += 1.0;
            }
        }
        for m in &mut x_mean {
            *m /= count;
        }
        for (nodes, _) in graphs {
            for row in nodes {
                for (d, &v) in row.iter().enumerate() {
                    x_std[d] += (v - x_mean[d]).powi(2);
                }
            }
        }
        for s in &mut x_std {
            *s = (*s / count).sqrt().max(1e-9);
        }
        let y_mean = y.iter().sum::<f64>() / y.len() as f64;
        let y_std = (y.iter().map(|v| (v - y_mean).powi(2)).sum::<f64>() / y.len() as f64)
            .sqrt()
            .max(1e-9);

        let mut model = GnnRegressor {
            input_dim,
            w1,
            w2,
            w_out,
            b_out: 0.0,
            x_mean,
            x_std,
            y_mean,
            y_std,
        };
        // Pre-normalise adjacencies once.
        let prepared: Vec<(Matrix, Matrix)> = graphs
            .iter()
            .map(|(nodes, adj)| (model.normalise_nodes(nodes), normalise_adjacency(adj)))
            .collect();

        let mut order: Vec<usize> = (0..graphs.len()).collect();
        for _ in 0..config.epochs {
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            for &s in &order {
                let target = (y[s] - model.y_mean) / model.y_std;
                model.sgd_step(&prepared[s].0, &prepared[s].1, target, config.lr);
            }
        }
        Ok(model)
    }

    fn normalise_nodes(&self, nodes: &Matrix) -> Matrix {
        nodes
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(d, &v)| (v - self.x_mean[d]) / self.x_std[d])
                    .collect()
            })
            .collect()
    }

    /// Forward pass on prepared inputs; returns intermediates for backprop.
    fn forward(&self, x: &Matrix, a_hat: &Matrix) -> (Matrix, Matrix, Matrix, Vec<f64>, f64) {
        let ax = matmul(a_hat, x);
        let z1 = matmul(&ax, &self.w1);
        let h1: Matrix = z1
            .iter()
            .map(|row| row.iter().map(|&v| v.max(0.0)).collect())
            .collect();
        let ah1 = matmul(a_hat, &h1);
        let h2 = matmul(&ah1, &self.w2);
        let n = h2.len() as f64;
        let mut pooled = vec![0.0; self.w_out.len()];
        for row in &h2 {
            for (j, &v) in row.iter().enumerate() {
                pooled[j] += v / n;
            }
        }
        let pred = self.b_out
            + pooled
                .iter()
                .zip(&self.w_out)
                .map(|(a, b)| a * b)
                .sum::<f64>();
        (ax, h1, ah1, pooled, pred)
    }

    fn sgd_step(&mut self, x: &Matrix, a_hat: &Matrix, target: f64, lr: f64) {
        let (ax, h1, ah1, pooled, pred) = self.forward(x, a_hat);
        let n = x.len() as f64;
        let h = self.w_out.len();
        let dl = 2.0 * (pred - target);

        // Head gradients.
        let d_wout: Vec<f64> = pooled.iter().map(|&p| dl * p).collect();
        let d_bout = dl;

        // d pooled → d h2 rows (mean pooling spreads gradient evenly).
        let dpool: Vec<f64> = self.w_out.iter().map(|w| dl * w / n).collect();
        // dW2 = (A·H1)^T · dH2, where every row of dH2 equals dpool.
        let ah1_t = transpose(&ah1);
        let mut d_w2 = vec![vec![0.0; h]; h];
        for (r, ah1_col) in ah1_t.iter().enumerate() {
            let col_sum: f64 = ah1_col.iter().sum();
            for (c, dp) in dpool.iter().enumerate() {
                d_w2[r][c] = col_sum * dp;
            }
        }
        // dH1 = A^T · dH2 · W2^T, with uniform dH2 rows; A_hat is symmetric.
        let row_weights: Vec<f64> = a_hat.iter().map(|row| row.iter().sum::<f64>()).collect();
        let w2_dp: Vec<f64> = self
            .w2
            .iter()
            .map(|w2_row| w2_row.iter().zip(&dpool).map(|(a, b)| a * b).sum())
            .collect();
        // ReLU mask and dW1 = (A·X)^T · dZ1.
        let mut d_w1 = vec![vec![0.0; h]; self.input_dim];
        for (i, z_row) in h1.iter().enumerate() {
            for (j, &relu_out) in z_row.iter().enumerate() {
                if relu_out <= 0.0 {
                    continue;
                }
                let dz = row_weights[i] * w2_dp[j];
                for (d, ax_row) in ax[i].iter().enumerate() {
                    d_w1[d][j] += ax_row * dz;
                }
            }
        }

        let clip = |v: f64| v.clamp(-5.0, 5.0);
        for r in 0..self.input_dim {
            for c in 0..h {
                self.w1[r][c] -= lr * clip(d_w1[r][c]);
            }
        }
        for r in 0..h {
            for c in 0..h {
                self.w2[r][c] -= lr * clip(d_w2[r][c]);
            }
        }
        for j in 0..h {
            self.w_out[j] -= lr * clip(d_wout[j]);
        }
        self.b_out -= lr * clip(d_bout);
    }

    /// Predicts the (denormalised) target for one graph.
    pub fn predict(&self, nodes: &Matrix, adj: &Matrix) -> f64 {
        let x = self.normalise_nodes(nodes);
        let a_hat = normalise_adjacency(adj);
        let (_, _, _, _, pred) = self.forward(&x, &a_hat);
        pred * self.y_std + self.y_mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Graphs whose target is the total of the first node feature — a
    /// structure a mean-pooled GCN can capture.
    fn dataset(n: usize) -> (Vec<(Matrix, Matrix)>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(21);
        let mut graphs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let size = rng.random_range(3..7usize);
            let nodes: Matrix = (0..size)
                .map(|_| vec![rng.random_range(0.0..5.0), rng.random_range(0.0..1.0)])
                .collect();
            let mut adj = vec![vec![0.0; size]; size];
            for (i, row) in adj.iter_mut().enumerate() {
                row[i] = 1.0;
                if i + 1 < size {
                    row[i + 1] = 1.0;
                }
            }
            // Symmetrise the chain.
            for i in 0..size {
                for j in 0..size {
                    if adj[i][j] > 0.0 {
                        adj[j][i] = adj[i][j];
                    }
                }
            }
            let y: f64 = nodes.iter().map(|r| r[0]).sum();
            graphs.push((nodes, adj));
            ys.push(y);
        }
        (graphs, ys)
    }

    #[test]
    fn learns_additive_graph_target() {
        let (graphs, y) = dataset(50);
        let model = GnnRegressor::fit(&graphs, &y, GnnConfig::default()).unwrap();
        let mut abs_err = 0.0;
        for ((nodes, adj), &target) in graphs.iter().zip(&y) {
            abs_err += (model.predict(nodes, adj) - target).abs();
        }
        let mean_err = abs_err / y.len() as f64;
        let y_mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!(
            mean_err < 0.40 * y_mean,
            "mean abs error {mean_err} vs target mean {y_mean}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (graphs, y) = dataset(8);
        let cfg = GnnConfig {
            epochs: 10,
            ..GnnConfig::default()
        };
        let a = GnnRegressor::fit(&graphs, &y, cfg)
            .unwrap()
            .predict(&graphs[0].0, &graphs[0].1);
        let b = GnnRegressor::fit(&graphs, &y, cfg)
            .unwrap()
            .predict(&graphs[0].0, &graphs[0].1);
        assert_eq!(a, b);
    }

    #[test]
    fn predictions_finite_on_varied_sizes() {
        let (graphs, y) = dataset(20);
        let model = GnnRegressor::fit(
            &graphs,
            &y,
            GnnConfig {
                epochs: 20,
                ..Default::default()
            },
        )
        .unwrap();
        for (nodes, adj) in &graphs {
            assert!(model.predict(nodes, adj).is_finite());
        }
    }

    #[test]
    fn adjacency_normalisation_is_symmetric() {
        let adj = vec![
            vec![1.0, 1.0, 0.0],
            vec![1.0, 1.0, 1.0],
            vec![0.0, 1.0, 1.0],
        ];
        let a_hat = normalise_adjacency(&adj);
        for i in 0..3 {
            for j in 0..3 {
                assert!((a_hat[i][j] - a_hat[j][i]).abs() < 1e-12);
            }
        }
        // A uniform-degree graph (the 3-cycle plus self-loops) has unit
        // row sums under symmetric normalisation.
        let cycle = vec![
            vec![1.0, 1.0, 1.0],
            vec![1.0, 1.0, 1.0],
            vec![1.0, 1.0, 1.0],
        ];
        for row in &normalise_adjacency(&cycle) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }
}

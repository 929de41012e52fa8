//! A graph-convolutional-network regressor, from scratch (the paper's GNN
//! baseline, hyper-parameters after BRP-NAS/Eagle): two GCN layers over the
//! wrap relationship graph, mean pooling, and a linear head predicting the
//! end-to-end latency.
//!
//! Propagation uses the standard symmetric normalisation
//! `Â = D^{-1/2} (A + I) D^{-1/2}` (self-loops are added by the feature
//! extractor).

use crate::{
    check_fit, check_widths, clip_apply, sgd_epochs, uniform, zeroed, FitError, PredictError,
    Standardiser,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// A matrix as the callers hand it over: one `Vec` per row.
type Rows = Vec<Vec<f64>>;

/// A row-major matrix.
#[derive(Debug, Clone, Default)]
struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    fn new(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        Mat { rows, cols, data }
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// `a · b` into `self`, skipping the zero entries of `a`.
    fn set_product(&mut self, a: &Mat, b: &Mat) {
        (self.rows, self.cols) = (a.rows, b.cols);
        zeroed(&mut self.data, a.rows * b.cols);
        for (i, out) in self.data.chunks_exact_mut(b.cols).enumerate() {
            for (kk, &av) in a.row(i).iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (o, bv) in out.iter_mut().zip(b.row(kk)) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// Symmetric normalisation of an adjacency matrix that already contains
/// self-loops.
fn normalise_adjacency(adj: &[Vec<f64>]) -> Mat {
    let degree = |row: &Vec<f64>| row.iter().sum::<f64>();
    let inv_sqrt: Vec<f64> = adj
        .iter()
        .map(degree)
        .map(|d| if d > 0.0 { d.powf(-0.5) } else { 0.0 })
        .collect();
    let mut data = Vec::with_capacity(adj.len() * adj.len());
    for (row, di) in adj.iter().zip(&inv_sqrt) {
        data.extend(row.iter().zip(&inv_sqrt).map(|(a, dj)| di * a * dj));
    }
    Mat::new(adj.len(), adj.len(), data)
}

/// A fitted GCN regressor.
#[derive(Debug)]
pub struct GnnRegressor {
    w1: Mat,
    w2: Mat,
    w_out: Vec<f64>,
    b_out: f64,
    scale: Standardiser,
}

/// One graph's forward intermediates and gradients, reused across a fit.
#[derive(Default)]
struct Scratch {
    ax: Mat,
    h1: Mat,
    ah1: Mat,
    h2: Mat,
    pooled: Vec<f64>,
    d_w1: Vec<f64>,
    d_w2: Vec<f64>,
    d_wout: Vec<f64>,
    dpool: Vec<f64>,
    w2_dp: Vec<f64>,
}

impl GnnRegressor {
    /// Trains on graphs `(node features, adjacency)` with scalar targets.
    pub fn fit(graphs: &[(Rows, Rows)], y: &[f64], config: GnnConfig) -> Result<Self, FitError> {
        check_fit(graphs, y, |(nodes, _)| nodes.is_empty())?;
        let input_dim = graphs[0].0[0].len();
        let h = config.hidden;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let k1 = (2.0 / input_dim as f64).sqrt();
        let k2 = (2.0 / h as f64).sqrt();
        let mut init = |rows, cols, k| Mat::new(rows, cols, uniform(rows * cols, k, &mut rng));
        let w1 = init(input_dim, h, k1);
        let w2 = init(h, h, k2);
        let w_out = uniform(h, k2, &mut rng);
        let nodes = graphs.iter().flat_map(|(nodes, _)| nodes);
        let scale = Standardiser::fit(nodes.map(Vec::as_slice), input_dim, y);

        let mut model = GnnRegressor {
            w1,
            w2,
            w_out,
            b_out: 0.0,
            scale,
        };
        // Standardise the nodes and normalise the adjacencies once.
        let prepared: Vec<(Mat, Mat)> = graphs
            .iter()
            .map(|(nodes, adj)| (model.normalise_nodes(nodes), normalise_adjacency(adj)))
            .collect();
        let mut scratch = Scratch::default();
        sgd_epochs(graphs.len(), config.epochs, &mut rng, |s| {
            let target = model.scale.y(y[s]);
            let (x, a_hat) = &prepared[s];
            model.sgd_step(x, a_hat, target, config.lr, &mut scratch);
        });
        Ok(model)
    }

    fn normalise_nodes(&self, nodes: &[Vec<f64>]) -> Mat {
        let mut x = Mat::new(
            nodes.len(),
            self.w1.rows,
            vec![0.0; nodes.len() * self.w1.rows],
        );
        for (row, out) in nodes.iter().zip(x.data.chunks_exact_mut(x.cols)) {
            self.scale.x(row, out);
        }
        x
    }

    /// Forward pass on prepared inputs, keeping the intermediates in `s`
    /// for backprop; returns the prediction in standard units.
    fn forward(&self, x: &Mat, a_hat: &Mat, s: &mut Scratch) -> f64 {
        s.ax.set_product(a_hat, x);
        s.h1.set_product(&s.ax, &self.w1);
        for v in &mut s.h1.data {
            *v = v.max(0.0);
        }
        s.ah1.set_product(a_hat, &s.h1);
        s.h2.set_product(&s.ah1, &self.w2);
        let n = s.h2.rows as f64;
        zeroed(&mut s.pooled, self.w_out.len());
        for row in s.h2.data.chunks_exact(s.h2.cols) {
            for (p, &v) in s.pooled.iter_mut().zip(row) {
                *p += v / n;
            }
        }
        let head: f64 = s.pooled.iter().zip(&self.w_out).map(|(a, b)| a * b).sum();
        self.b_out + head
    }

    fn sgd_step(&mut self, x: &Mat, a_hat: &Mat, target: f64, lr: f64, s: &mut Scratch) {
        let pred = self.forward(x, a_hat, s);
        let n = x.rows as f64;
        let h = self.w_out.len();
        let dl = 2.0 * (pred - target);

        // Head gradients.
        s.d_wout.clear();
        s.d_wout.extend(s.pooled.iter().map(|&p| dl * p));
        let d_bout = dl;

        // d pooled → d h2 rows (mean pooling spreads gradient evenly).
        s.dpool.clear();
        s.dpool.extend(self.w_out.iter().map(|w| dl * w / n));
        // dW2 = (A·H1)^T · dH2, where every row of dH2 equals dpool.
        s.d_w2.clear();
        for r in 0..h {
            let col_sum: f64 = s.ah1.data.iter().skip(r).step_by(h).sum();
            s.d_w2.extend(s.dpool.iter().map(|dp| col_sum * dp));
        }
        // dH1 = A^T · dH2 · W2^T, with uniform dH2 rows; A_hat is symmetric.
        s.w2_dp.clear();
        let w2_rows = self.w2.data.chunks_exact(h);
        s.w2_dp.extend(
            w2_rows.map(|w2_row| w2_row.iter().zip(&s.dpool).map(|(a, b)| a * b).sum::<f64>()),
        );
        // ReLU mask and dW1 = (A·X)^T · dZ1.
        zeroed(&mut s.d_w1, self.w1.data.len());
        for i in 0..x.rows {
            let row_weight: f64 = a_hat.row(i).iter().sum();
            for (j, &relu_out) in s.h1.row(i).iter().enumerate() {
                if relu_out <= 0.0 {
                    continue;
                }
                let dz = row_weight * s.w2_dp[j];
                for (d, ax) in s.ax.row(i).iter().enumerate() {
                    s.d_w1[d * h + j] += ax * dz;
                }
            }
        }

        clip_apply(&mut self.w1.data, &s.d_w1, lr);
        clip_apply(&mut self.w2.data, &s.d_w2, lr);
        clip_apply(&mut self.w_out, &s.d_wout, lr);
        clip_apply(std::slice::from_mut(&mut self.b_out), &[d_bout], lr);
    }

    /// Predicts the (denormalised) target for one graph, whose node rows
    /// must have the width the model was fitted on and whose adjacency
    /// must be nodes × nodes.
    pub fn predict(&self, nodes: &Rows, adj: &Rows) -> Result<f64, PredictError> {
        check_widths(self.w1.rows, nodes.iter().map(Vec::len))?;
        let adj_widths = std::iter::once(adj.len()).chain(adj.iter().map(Vec::len));
        check_widths(nodes.len(), adj_widths)?;
        let x = self.normalise_nodes(nodes);
        let pred = self.forward(&x, &normalise_adjacency(adj), &mut Scratch::default());
        Ok(self.scale.unscale(pred))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Graphs whose target is the total of the first node feature — a
    /// structure a mean-pooled GCN can capture.
    fn dataset(n: usize) -> (Vec<(Rows, Rows)>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(21);
        let mut graphs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let size = rng.random_range(3..7usize);
            let nodes: Rows = (0..size)
                .map(|_| vec![rng.random_range(0.0..5.0), rng.random_range(0.0..1.0)])
                .collect();
            // A symmetric chain with self-loops.
            let mut adj = vec![vec![0.0; size]; size];
            for (i, row) in adj.iter_mut().enumerate() {
                row[i] = 1.0;
            }
            for i in 1..size {
                adj[i - 1][i] = 1.0;
                adj[i][i - 1] = 1.0;
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
            abs_err += (model.predict(nodes, adj).unwrap() - target).abs();
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
            assert!(model.predict(nodes, adj).unwrap().is_finite());
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
                assert!((a_hat.row(i)[j] - a_hat.row(j)[i]).abs() < 1e-12);
            }
        }
        // A uniform-degree graph (the 3-cycle plus self-loops) has unit
        // row sums under symmetric normalisation.
        let cycle = vec![
            vec![1.0, 1.0, 1.0],
            vec![1.0, 1.0, 1.0],
            vec![1.0, 1.0, 1.0],
        ];
        for row in normalise_adjacency(&cycle).data.chunks_exact(3) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }
}

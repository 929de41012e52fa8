//! An LSTM regressor, from scratch (the paper's LSTM baseline: PyTorch
//! `nn.LSTM`, learning rate 0.01, batch size 1).
//!
//! One LSTM layer consumes the workflow's per-stage feature sequence; a
//! linear head on the final hidden state predicts the end-to-end latency.
//! Training is full BPTT with per-sample SGD and gradient clipping.

// Index-based loops mirror the matrix equations directly; iterator
// rewrites obscure the math and fight the split mutable borrows.
#![allow(clippy::needless_range_loop)]

use crate::{check_fit, FitError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GATES: usize = 4; // input, forget, cell, output

/// Configuration of the LSTM regressor.
#[derive(Debug, Clone, Copy)]
pub struct LstmConfig {
    pub hidden: usize,
    pub epochs: usize,
    /// Learning rate (0.01 was the paper's best across {0.1..0.0001}).
    pub lr: f64,
    pub seed: u64,
}

impl Default for LstmConfig {
    fn default() -> Self {
        LstmConfig {
            hidden: 16,
            epochs: 120,
            lr: 0.01,
            seed: 0x157a,
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// A fitted LSTM regressor.
#[derive(Debug)]
pub struct LstmRegressor {
    input_dim: usize,
    hidden: usize,
    /// `wx[g][j][k]`: gate g, hidden unit j, input k.
    wx: Vec<Vec<Vec<f64>>>,
    /// `wh[g][j][k]`: gate g, hidden unit j, previous hidden k.
    wh: Vec<Vec<Vec<f64>>>,
    b: Vec<Vec<f64>>,
    w_out: Vec<f64>,
    b_out: f64,
    // Input/target normalisation fitted on the training set.
    x_mean: Vec<f64>,
    x_std: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

struct StepCache {
    x: Vec<f64>,
    h_prev: Vec<f64>,
    c_prev: Vec<f64>,
    gates: [Vec<f64>; GATES], // post-activation i, f, g, o
    c: Vec<f64>,
    h: Vec<f64>,
}

impl LstmRegressor {
    /// Trains on sequences `x` (each a `Vec` of per-step feature vectors)
    /// with scalar targets `y`.
    pub fn fit(x: &[Vec<Vec<f64>>], y: &[f64], config: LstmConfig) -> Result<Self, FitError> {
        check_fit(x, y, Vec::is_empty)?;
        let input_dim = x[0][0].len();
        let h = config.hidden;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let k = 1.0 / (h as f64).sqrt();
        let mut init = |rows: usize, cols: usize| -> Vec<Vec<f64>> {
            (0..rows)
                .map(|_| (0..cols).map(|_| rng.random_range(-k..k)).collect())
                .collect()
        };
        let wx: Vec<_> = (0..GATES).map(|_| init(h, input_dim)).collect();
        let wh: Vec<_> = (0..GATES).map(|_| init(h, h)).collect();
        let b: Vec<Vec<f64>> = (0..GATES).map(|_| vec![0.0; h]).collect();
        let w_out: Vec<f64> = (0..h).map(|_| rng.random_range(-k..k)).collect();

        // Normalisation statistics.
        let mut x_mean = vec![0.0; input_dim];
        let mut x_std = vec![0.0; input_dim];
        let mut count = 0.0;
        for seq in x {
            for step in seq {
                for (d, &v) in step.iter().enumerate() {
                    x_mean[d] += v;
                }
                count += 1.0;
            }
        }
        for m in &mut x_mean {
            *m /= count;
        }
        for seq in x {
            for step in seq {
                for (d, &v) in step.iter().enumerate() {
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

        let mut model = LstmRegressor {
            input_dim,
            hidden: h,
            wx,
            wh,
            b,
            w_out,
            b_out: 0.0,
            x_mean,
            x_std,
            y_mean,
            y_std,
        };

        let mut order: Vec<usize> = (0..x.len()).collect();
        for _ in 0..config.epochs {
            // Deterministic shuffle per epoch.
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            for &s in &order {
                model.sgd_step(&x[s], y[s], config.lr);
            }
        }
        Ok(model)
    }

    fn normalise(&self, step: &[f64]) -> Vec<f64> {
        step.iter()
            .enumerate()
            .map(|(d, &v)| (v - self.x_mean[d]) / self.x_std[d])
            .collect()
    }

    fn forward(&self, seq: &[Vec<f64>]) -> (Vec<StepCache>, f64) {
        let h = self.hidden;
        let mut hidden = vec![0.0; h];
        let mut cell = vec![0.0; h];
        let mut caches = Vec::with_capacity(seq.len());
        for step in seq {
            let x = self.normalise(step);
            let mut gates: [Vec<f64>; GATES] = std::array::from_fn(|_| vec![0.0; h]);
            for g in 0..GATES {
                for j in 0..h {
                    let mut a = self.b[g][j];
                    for (kx, &xv) in x.iter().enumerate() {
                        a += self.wx[g][j][kx] * xv;
                    }
                    for (kh, &hv) in hidden.iter().enumerate() {
                        a += self.wh[g][j][kh] * hv;
                    }
                    gates[g][j] = if g == 2 { a.tanh() } else { sigmoid(a) };
                }
            }
            let mut c = vec![0.0; h];
            let mut hn = vec![0.0; h];
            for j in 0..h {
                c[j] = gates[1][j] * cell[j] + gates[0][j] * gates[2][j];
                hn[j] = gates[3][j] * c[j].tanh();
            }
            caches.push(StepCache {
                x,
                h_prev: hidden.clone(),
                c_prev: cell.clone(),
                gates,
                c: c.clone(),
                h: hn.clone(),
            });
            hidden = hn;
            cell = c;
        }
        let pred: f64 = self.b_out
            + hidden
                .iter()
                .zip(&self.w_out)
                .map(|(a, b)| a * b)
                .sum::<f64>();
        (caches, pred)
    }

    fn sgd_step(&mut self, seq: &[Vec<f64>], target: f64, lr: f64) {
        let h = self.hidden;
        let y = (target - self.y_mean) / self.y_std;
        let (caches, pred) = self.forward(seq);
        let dl = 2.0 * (pred - y);

        let last_h = caches.last().map(|c| c.h.clone()).unwrap_or(vec![0.0; h]);
        let mut d_wx = vec![vec![vec![0.0; self.input_dim]; h]; GATES];
        let mut d_wh = vec![vec![vec![0.0; h]; h]; GATES];
        let mut d_b = vec![vec![0.0; h]; GATES];
        let mut d_wout = vec![0.0; h];
        for j in 0..h {
            d_wout[j] = dl * last_h[j];
        }
        let d_bout = dl;

        let mut dh: Vec<f64> = self.w_out.iter().map(|w| dl * w).collect();
        let mut dc = vec![0.0; h];
        for cache in caches.iter().rev() {
            let (i_g, f_g, g_g, o_g) = (
                &cache.gates[0],
                &cache.gates[1],
                &cache.gates[2],
                &cache.gates[3],
            );
            let mut da: [Vec<f64>; GATES] = std::array::from_fn(|_| vec![0.0; h]);
            for j in 0..h {
                let tanh_c = cache.c[j].tanh();
                let do_ = dh[j] * tanh_c;
                dc[j] += dh[j] * o_g[j] * (1.0 - tanh_c * tanh_c);
                let di = dc[j] * g_g[j];
                let df = dc[j] * cache.c_prev[j];
                let dg = dc[j] * i_g[j];
                da[0][j] = di * i_g[j] * (1.0 - i_g[j]);
                da[1][j] = df * f_g[j] * (1.0 - f_g[j]);
                da[2][j] = dg * (1.0 - g_g[j] * g_g[j]);
                da[3][j] = do_ * o_g[j] * (1.0 - o_g[j]);
            }
            let mut dh_prev = vec![0.0; h];
            let mut dc_prev = vec![0.0; h];
            for g in 0..GATES {
                for j in 0..h {
                    for (kx, &xv) in cache.x.iter().enumerate() {
                        d_wx[g][j][kx] += da[g][j] * xv;
                    }
                    for (kh, &hv) in cache.h_prev.iter().enumerate() {
                        d_wh[g][j][kh] += da[g][j] * hv;
                        dh_prev[kh] += self.wh[g][j][kh] * da[g][j];
                    }
                    d_b[g][j] += da[g][j];
                }
            }
            for j in 0..h {
                dc_prev[j] = dc[j] * f_g[j];
            }
            dh = dh_prev;
            dc = dc_prev;
        }

        // Clip and apply.
        let clip = |v: f64| v.clamp(-5.0, 5.0);
        for g in 0..GATES {
            for j in 0..h {
                for kx in 0..self.input_dim {
                    self.wx[g][j][kx] -= lr * clip(d_wx[g][j][kx]);
                }
                for kh in 0..h {
                    self.wh[g][j][kh] -= lr * clip(d_wh[g][j][kh]);
                }
                self.b[g][j] -= lr * clip(d_b[g][j]);
            }
        }
        for j in 0..h {
            self.w_out[j] -= lr * clip(d_wout[j]);
        }
        self.b_out -= lr * clip(d_bout);
    }

    /// Predicts the (denormalised) target for one sequence.
    pub fn predict(&self, seq: &[Vec<f64>]) -> f64 {
        let (_, pred) = self.forward(seq);
        pred * self.y_std + self.y_mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Target = sum of first feature over the sequence — learnable.
    fn dataset(n: usize) -> (Vec<Vec<Vec<f64>>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(9);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let len = rng.random_range(2..5usize);
            let seq: Vec<Vec<f64>> = (0..len)
                .map(|_| vec![rng.random_range(0.0..4.0), rng.random_range(0.0..1.0)])
                .collect();
            let y: f64 = seq.iter().map(|s| s[0]).sum();
            xs.push(seq);
            ys.push(y);
        }
        (xs, ys)
    }

    #[test]
    fn learns_additive_sequence_target() {
        let (x, y) = dataset(60);
        let model = LstmRegressor::fit(&x, &y, LstmConfig::default()).unwrap();
        let mut abs_err = 0.0;
        for (seq, &target) in x.iter().zip(&y) {
            abs_err += (model.predict(seq) - target).abs();
        }
        let mean_err = abs_err / y.len() as f64;
        let y_mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!(
            mean_err < 0.35 * y_mean,
            "mean abs error {mean_err} vs target mean {y_mean}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = dataset(10);
        let cfg = LstmConfig {
            epochs: 5,
            ..LstmConfig::default()
        };
        let a = LstmRegressor::fit(&x, &y, cfg).unwrap().predict(&x[0]);
        let b = LstmRegressor::fit(&x, &y, cfg).unwrap().predict(&x[0]);
        assert_eq!(a, b);
    }

    #[test]
    fn handles_single_sample() {
        let x = vec![vec![vec![1.0, 2.0], vec![3.0, 4.0]]];
        let y = vec![10.0];
        let cfg = LstmConfig {
            epochs: 50,
            ..LstmConfig::default()
        };
        let model = LstmRegressor::fit(&x, &y, cfg).unwrap();
        let pred = model.predict(&x[0]);
        assert!((pred - 10.0).abs() < 1.0, "pred {pred}");
    }

    #[test]
    fn predictions_are_finite() {
        let (x, y) = dataset(20);
        let model = LstmRegressor::fit(
            &x,
            &y,
            LstmConfig {
                epochs: 30,
                ..Default::default()
            },
        )
        .unwrap();
        for seq in &x {
            assert!(model.predict(seq).is_finite());
        }
    }
}

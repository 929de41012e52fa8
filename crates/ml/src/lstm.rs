//! An LSTM regressor, from scratch (the paper's LSTM baseline: PyTorch
//! `nn.LSTM`, learning rate 0.01, batch size 1).
//!
//! One LSTM layer consumes the workflow's per-stage feature sequence; a
//! linear head on the final hidden state predicts the end-to-end latency.
//! Training is full BPTT with per-sample SGD and gradient clipping.

use crate::{
    check_fit, check_fit_widths, check_widths, clip_apply, sgd_epochs, uniform, zeroed, FitError,
    PredictError, Standardiser,
};
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
    /// `GATES·hidden` rows of `input_dim + hidden`, row-major: row
    /// `g·hidden + j` (gate g, hidden unit j) holds the unit's weights on
    /// the inputs, then on the previous hidden state.
    w: Vec<f64>,
    b: Vec<f64>,
    w_out: Vec<f64>,
    b_out: f64,
    scale: Standardiser,
}

/// One sequence's forward caches and gradients, reused across a fit.
#[derive(Default)]
struct Scratch {
    /// Row t (`input_dim + hidden` wide) is step t's input: its
    /// standardised features, then the previous hidden state. The hidden
    /// part of the row after the last step holds the final hidden state.
    xh: Vec<f64>,
    /// Row t: step t's post-activation gates i, f, g, o, `hidden` each.
    gates: Vec<f64>,
    /// Row t: the cell state before step t (row 0 is zero).
    c: Vec<f64>,
    d_w: Vec<f64>,
    d_b: Vec<f64>,
    d_wout: Vec<f64>,
    /// Pre-activation gate gradients of one step, laid out like `b`.
    da: Vec<f64>,
    dh: Vec<f64>,
    dh_prev: Vec<f64>,
    dc: Vec<f64>,
}

impl LstmRegressor {
    /// Trains on sequences `x` (each a `Vec` of per-step feature vectors)
    /// with scalar targets `y`.
    pub fn fit(x: &[Vec<Vec<f64>>], y: &[f64], config: LstmConfig) -> Result<Self, FitError> {
        check_fit(x, y, Vec::is_empty)?;
        let input_dim = x[0][0].len();
        check_fit_widths(input_dim, x.iter().flatten().map(Vec::len))?;
        let h = config.hidden;
        let cols = input_dim + h;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let k = 1.0 / (h as f64).sqrt();
        // Every input weight in gate → unit → input order, then every
        // recurrent weight the same way, then the head.
        let mut w = vec![0.0; GATES * h * cols];
        for part in [0..input_dim, input_dim..cols] {
            for row in w.chunks_exact_mut(cols) {
                for v in &mut row[part.clone()] {
                    *v = rng.random_range(-k..k);
                }
            }
        }
        let w_out = uniform(h, k, &mut rng);
        let scale = Standardiser::fit(x.iter().flatten().map(Vec::as_slice), input_dim, y);

        let mut model = LstmRegressor {
            input_dim,
            hidden: h,
            w,
            b: vec![0.0; GATES * h],
            w_out,
            b_out: 0.0,
            scale,
        };
        let mut scratch = Scratch::default();
        sgd_epochs(x.len(), config.epochs, &mut rng, |s| {
            model.sgd_step(&x[s], y[s], config.lr, &mut scratch);
        });
        Ok(model)
    }

    /// Runs `seq` forward, filling `s`'s caches; returns the prediction in
    /// standard units.
    fn forward(&self, seq: &[Vec<f64>], s: &mut Scratch) -> f64 {
        let (d, h) = (self.input_dim, self.hidden);
        let cols = d + h;
        zeroed(&mut s.xh, (seq.len() + 1) * cols);
        zeroed(&mut s.c, (seq.len() + 1) * h);
        s.gates.resize(seq.len() * GATES * h, 0.0);
        for (t, step) in seq.iter().enumerate() {
            let (xh, next) = s.xh[t * cols..].split_at_mut(cols);
            self.scale.x(step, &mut xh[..d]);
            let gates = &mut s.gates[t * GATES * h..(t + 1) * GATES * h];
            for (r, (gate, w_row)) in gates.iter_mut().zip(self.w.chunks_exact(cols)).enumerate() {
                let mut a = self.b[r];
                for (w, v) in w_row.iter().zip(&*xh) {
                    a += w * v;
                }
                *gate = if r / h == 2 { a.tanh() } else { sigmoid(a) };
            }
            let [i_g, f_g, g_g, o_g] = split_gates(gates, h);
            let (c_prev, c) = s.c[t * h..].split_at_mut(h);
            let h_next = &mut next[d..];
            for j in 0..h {
                c[j] = f_g[j] * c_prev[j] + i_g[j] * g_g[j];
                h_next[j] = o_g[j] * c[j].tanh();
            }
        }
        let h_last = &s.xh[seq.len() * cols + d..];
        let head: f64 = h_last.iter().zip(&self.w_out).map(|(a, b)| a * b).sum();
        self.b_out + head
    }

    /// One BPTT step on one sequence, then a clipped SGD update.
    fn sgd_step(&mut self, seq: &[Vec<f64>], target: f64, lr: f64, s: &mut Scratch) {
        let (d, h) = (self.input_dim, self.hidden);
        let cols = d + h;
        let y = self.scale.y(target);
        let pred = self.forward(seq, s);
        let dl = 2.0 * (pred - y);

        let h_last = &s.xh[seq.len() * cols + d..];
        s.d_wout.clear();
        s.d_wout.extend(h_last.iter().map(|hv| dl * hv));
        let d_bout = dl;
        s.dh.clear();
        s.dh.extend(self.w_out.iter().map(|w| dl * w));
        zeroed(&mut s.dc, h);
        zeroed(&mut s.da, GATES * h);
        zeroed(&mut s.d_w, self.w.len());
        zeroed(&mut s.d_b, GATES * h);
        for t in (0..seq.len()).rev() {
            let xh = &s.xh[t * cols..(t + 1) * cols];
            let [i_g, f_g, g_g, o_g] = split_gates(&s.gates[t * GATES * h..], h);
            let (c_prev, c) = s.c[t * h..].split_at(h);
            let (dh, dc, da) = (&s.dh, &mut s.dc, &mut s.da);
            for j in 0..h {
                let tanh_c = c[j].tanh();
                let do_ = dh[j] * tanh_c;
                dc[j] += dh[j] * o_g[j] * (1.0 - tanh_c * tanh_c);
                let di = dc[j] * g_g[j];
                let df = dc[j] * c_prev[j];
                let dg = dc[j] * i_g[j];
                da[j] = di * i_g[j] * (1.0 - i_g[j]);
                da[h + j] = df * f_g[j] * (1.0 - f_g[j]);
                da[2 * h + j] = dg * (1.0 - g_g[j] * g_g[j]);
                da[3 * h + j] = do_ * o_g[j] * (1.0 - o_g[j]);
            }
            zeroed(&mut s.dh_prev, h);
            let rows = s.d_w.chunks_exact_mut(cols).zip(self.w.chunks_exact(cols));
            for ((&da, db), (dw_row, w_row)) in s.da.iter().zip(&mut s.d_b).zip(rows) {
                for (dw, v) in dw_row.iter_mut().zip(xh) {
                    *dw += da * v;
                }
                for (dh, w) in s.dh_prev.iter_mut().zip(&w_row[d..]) {
                    *dh += w * da;
                }
                *db += da;
            }
            for (dc, f) in s.dc.iter_mut().zip(f_g) {
                *dc *= f;
            }
            std::mem::swap(&mut s.dh, &mut s.dh_prev);
        }

        clip_apply(&mut self.w, &s.d_w, lr);
        clip_apply(&mut self.b, &s.d_b, lr);
        clip_apply(&mut self.w_out, &s.d_wout, lr);
        clip_apply(std::slice::from_mut(&mut self.b_out), &[d_bout], lr);
    }

    /// Predicts the (denormalised) target for one sequence, whose steps
    /// must have the width the model was fitted on.
    pub fn predict(&self, seq: &[Vec<f64>]) -> Result<f64, PredictError> {
        check_widths(self.input_dim, seq.iter().map(Vec::len))?;
        let pred = self.forward(seq, &mut Scratch::default());
        Ok(self.scale.unscale(pred))
    }
}

/// The input, forget, cell and output gates of one step's row.
fn split_gates(gates: &[f64], h: usize) -> [&[f64]; GATES] {
    std::array::from_fn(|g| &gates[g * h..(g + 1) * h])
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
            abs_err += (model.predict(seq).unwrap() - target).abs();
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
        let pred = model.predict(&x[0]).unwrap();
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
            assert!(model.predict(seq).unwrap().is_finite());
        }
    }
}

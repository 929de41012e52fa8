//! CART regression trees: the building block of the random-forest baseline.
//!
//! Standard variance-reduction splitting with depth and leaf-size limits.
//! Implemented from scratch — the paper uses scikit-learn's
//! `RandomForestRegressor` with default parameters; this mirrors its core
//! algorithm.

use crate::{check_fit, check_fit_widths, check_widths, FitError, PredictError};

/// Configuration of one regression tree.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    pub max_depth: usize,
    pub min_samples_split: usize,
    /// Features considered per split (`None` = all), for forest
    /// decorrelation.
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 12,
            min_samples_split: 2,
            max_features: None,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    root: Node,
    n_features: usize,
}

impl RegressionTree {
    /// Fits a tree on `(x, y)`; `feature_order` supplies the (possibly
    /// subsampled and shuffled) feature indices to consider at every split.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        config: TreeConfig,
        feature_pick: &mut impl FnMut(usize) -> Vec<usize>,
    ) -> Result<Self, FitError> {
        check_fit(x, y, Vec::is_empty)?;
        let n_features = x[0].len();
        check_fit_widths(n_features, x.iter().map(Vec::len))?;
        let idx: Vec<usize> = (0..x.len()).collect();
        let root = build(x, y, &idx, 0, config, n_features, feature_pick);
        Ok(RegressionTree { root, n_features })
    }

    /// The tree's prediction for `sample`, which must have the width the
    /// tree was fitted on.
    pub fn predict(&self, sample: &[f64]) -> Result<f64, PredictError> {
        check_widths(self.n_features, std::iter::once(sample.len()))?;
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { value } => return Ok(*value),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if sample[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }
}

fn mean(y: &[f64], idx: &[usize]) -> f64 {
    idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64
}

fn sse(y: &[f64], idx: &[usize]) -> f64 {
    let m = mean(y, idx);
    idx.iter().map(|&i| (y[i] - m).powi(2)).sum()
}

#[allow(clippy::too_many_arguments)]
fn build(
    x: &[Vec<f64>],
    y: &[f64],
    idx: &[usize],
    depth: usize,
    config: TreeConfig,
    n_features: usize,
    feature_pick: &mut impl FnMut(usize) -> Vec<usize>,
) -> Node {
    if depth >= config.max_depth || idx.len() < config.min_samples_split {
        return Node::Leaf {
            value: mean(y, idx),
        };
    }
    let parent_sse = sse(y, idx);
    if parent_sse <= f64::EPSILON {
        return Node::Leaf {
            value: mean(y, idx),
        };
    }

    let candidates = feature_pick(n_features);
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
    for &f in &candidates {
        // Candidate thresholds: midpoints between consecutive sorted values.
        let mut values: Vec<f64> = idx.iter().map(|&i| x[i][f]).collect();
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
        values.dedup();
        for w in values.windows(2) {
            let threshold = (w[0] + w[1]) / 2.0;
            let (mut l, mut r) = (Vec::new(), Vec::new());
            for &i in idx {
                if x[i][f] <= threshold {
                    l.push(i);
                } else {
                    r.push(i);
                }
            }
            if l.is_empty() || r.is_empty() {
                continue;
            }
            let score = sse(y, &l) + sse(y, &r);
            if best.map(|(_, _, s)| score < s).unwrap_or(true) {
                best = Some((f, threshold, score));
            }
        }
    }

    match best {
        Some((feature, threshold, score)) if score < parent_sse => {
            let (mut l, mut r) = (Vec::new(), Vec::new());
            for &i in idx {
                if x[i][feature] <= threshold {
                    l.push(i);
                } else {
                    r.push(i);
                }
            }
            Node::Split {
                feature,
                threshold,
                left: Box::new(build(x, y, &l, depth + 1, config, n_features, feature_pick)),
                right: Box::new(build(x, y, &r, depth + 1, config, n_features, feature_pick)),
            }
        }
        _ => Node::Leaf {
            value: mean(y, idx),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_features(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn fits_a_step_function() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![f64::from(i)]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
        let tree = RegressionTree::fit(&x, &y, TreeConfig::default(), &mut all_features).unwrap();
        assert_eq!(tree.predict(&[3.0]).unwrap(), 1.0);
        assert_eq!(tree.predict(&[15.0]).unwrap(), 5.0);
    }

    #[test]
    fn constant_target_is_single_leaf() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i)]).collect();
        let y = vec![7.0; 10];
        let tree = RegressionTree::fit(&x, &y, TreeConfig::default(), &mut all_features).unwrap();
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict(&[4.2]).unwrap(), 7.0);
    }

    #[test]
    fn respects_max_depth() {
        let x: Vec<Vec<f64>> = (0..64).map(|i| vec![f64::from(i)]).collect();
        let y: Vec<f64> = (0..64).map(f64::from).collect();
        let cfg = TreeConfig {
            max_depth: 3,
            ..TreeConfig::default()
        };
        let tree = RegressionTree::fit(&x, &y, cfg, &mut all_features).unwrap();
        assert!(tree.depth() <= 3);
    }

    #[test]
    fn interpolates_two_features() {
        // y depends only on feature 1.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                x.push(vec![f64::from(i), f64::from(j)]);
                y.push(f64::from(j) * 2.0);
            }
        }
        let tree = RegressionTree::fit(&x, &y, TreeConfig::default(), &mut all_features).unwrap();
        assert!((tree.predict(&[0.0, 7.0]).unwrap() - 14.0).abs() < 1e-9);
        assert!((tree.predict(&[9.0, 2.0]).unwrap() - 4.0).abs() < 1e-9);
    }
}

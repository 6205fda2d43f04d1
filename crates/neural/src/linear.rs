//! Dense (fully connected) layer: `[B, in] → [B, out]`.
//!
//! In the ResNet-TSC this is the classification head after GAP; its weight
//! matrix is exactly the `w_k^c` of the CAM formula.

use crate::tensor::Matrix;
use crate::VisitParams;
use serde::{Deserialize, Serialize};

/// A trainable linear layer `y = W x + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    /// Input features.
    pub in_features: usize,
    /// Output features (classes).
    pub out_features: usize,
    /// Weights `[out, in]`, row-major.
    pub weight: Vec<f32>,
    /// Per-output bias.
    pub bias: Vec<f32>,
    /// Weight gradients. Not serialized: loaders size them with
    /// [`VisitParams::size_grads`].
    #[serde(skip)]
    pub grad_weight: Vec<f32>,
    /// Bias gradients (not serialized).
    #[serde(skip)]
    pub grad_bias: Vec<f32>,
    #[serde(skip)]
    cached_input: Option<Matrix>,
}

impl Linear {
    /// Create with Xavier-normal weights (seeded).
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Linear {
        let mut weight = vec![0.0; out_features * in_features];
        crate::init::xavier_normal(seed, in_features, out_features, &mut weight);
        Linear {
            in_features,
            out_features,
            grad_weight: vec![0.0; weight.len()],
            grad_bias: vec![0.0; out_features],
            weight,
            bias: vec![0.0; out_features],
            cached_input: None,
        }
    }

    /// Weight row for output `o` (the `w_k^c` vector for class `o`).
    #[inline]
    pub fn weight_row(&self, o: usize) -> &[f32] {
        &self.weight[o * self.in_features..(o + 1) * self.in_features]
    }

    /// Forward pass. In training mode the input is cached for backward,
    /// copied into the previous step's cache when the shape matches.
    pub fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let y = self.infer(x);
        if train {
            let reusable = self.cached_input.as_mut().filter(|c| {
                (c.rows, c.cols) == (x.rows, x.cols) && crate::workspace::buffer_reuse()
            });
            match reusable {
                Some(cached) => cached.data.copy_from_slice(&x.data),
                None => self.cached_input = Some(x.clone()),
            }
        }
        y
    }

    /// Pure inference forward (`&self`).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols, self.in_features, "linear input feature mismatch");
        let mut y = Matrix::zeros(x.rows, self.out_features);
        for r in 0..x.rows {
            let xr = x.row(r);
            for o in 0..self.out_features {
                let w = self.weight_row(o);
                let mut acc = self.bias[o];
                for (wv, xv) in w.iter().zip(xr) {
                    acc += wv * xv;
                }
                y.data[r * self.out_features + o] = acc;
            }
        }
        y
    }

    /// Backward pass: accumulates gradients, returns input gradient.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self
            .cached_input
            .as_ref()
            .expect("Linear::backward requires forward(train=true) first");
        assert_eq!(grad_out.cols, self.out_features);
        assert_eq!(grad_out.rows, x.rows);
        let mut grad_in = Matrix::zeros(x.rows, self.in_features);
        for r in 0..x.rows {
            let xr = x.row(r);
            let gr = grad_out.row(r);
            for (o, &g) in gr.iter().enumerate() {
                self.grad_bias[o] += g;
                let wg = &mut self.grad_weight[o * self.in_features..(o + 1) * self.in_features];
                for (wgi, &xv) in wg.iter_mut().zip(xr) {
                    *wgi += g * xv;
                }
                let w = &self.weight[o * self.in_features..(o + 1) * self.in_features];
                let gi = grad_in.row_mut(r);
                for (giv, &wv) in gi.iter_mut().zip(w) {
                    *giv += g * wv;
                }
            }
        }
        grad_in
    }
}

impl VisitParams for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut Vec<f32>)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual() {
        let mut lin = Linear::new(2, 2, 0);
        lin.weight = vec![1.0, 2.0, 3.0, 4.0]; // rows: [1,2], [3,4]
        lin.bias = vec![0.5, -0.5];
        let x = Matrix::from_data(1, 2, vec![10.0, 20.0]);
        let y = lin.forward(&x, false);
        assert_eq!(y.data, vec![10.0 + 40.0 + 0.5, 30.0 + 80.0 - 0.5]);
    }

    #[test]
    fn gradient_check() {
        let mut lin = Linear::new(3, 2, 5);
        let x = Matrix::from_data(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.3, -0.7]);
        let y = lin.forward(&x, true);
        let gi = lin.backward(&y); // loss = sum(y^2)/2
        let eps = 1e-3f32;
        let loss = |lin: &mut Linear, x: &Matrix| -> f32 {
            lin.forward(x, false).data.iter().map(|v| v * v / 2.0).sum()
        };
        for wi in 0..lin.weight.len() {
            let orig = lin.weight[wi];
            lin.weight[wi] = orig + eps;
            let lp = loss(&mut lin, &x);
            lin.weight[wi] = orig - eps;
            let lm = loss(&mut lin, &x);
            lin.weight[wi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - lin.grad_weight[wi]).abs() < 2e-2 * numeric.abs().max(1.0),
                "w[{wi}]"
            );
        }
        for bi in 0..lin.bias.len() {
            let orig = lin.bias[bi];
            lin.bias[bi] = orig + eps;
            let lp = loss(&mut lin, &x);
            lin.bias[bi] = orig - eps;
            let lm = loss(&mut lin, &x);
            lin.bias[bi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - lin.grad_bias[bi]).abs() < 2e-2 * numeric.abs().max(1.0));
        }
        let mut x2 = x.clone();
        for xi in 0..x.data.len() {
            let orig = x2.data[xi];
            x2.data[xi] = orig + eps;
            let lp = loss(&mut lin, &x2);
            x2.data[xi] = orig - eps;
            let lm = loss(&mut lin, &x2);
            x2.data[xi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - gi.data[xi]).abs() < 2e-2 * numeric.abs().max(1.0),
                "x[{xi}]"
            );
        }
    }

    #[test]
    fn weight_row_is_class_vector() {
        let mut lin = Linear::new(3, 2, 1);
        lin.weight = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(lin.weight_row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(lin.weight_row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "requires forward")]
    fn backward_without_forward_panics() {
        let mut lin = Linear::new(1, 1, 0);
        let _ = lin.backward(&Matrix::zeros(1, 1));
    }
}

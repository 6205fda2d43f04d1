//! Batch normalization over `(batch, length)` for `[B, C, L]` tensors.
//!
//! Training mode normalizes with the current mini-batch statistics and
//! updates exponential running statistics; inference mode uses the running
//! statistics, matching the standard `BatchNorm1d` semantics of the ResNet
//! the paper builds on.

use crate::tensor::Tensor;
use crate::VisitParams;
use serde::{Deserialize, Serialize};

/// A trainable batch-normalization layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchNorm1d {
    /// Channel count.
    pub channels: usize,
    /// Learnable scale γ (one per channel).
    pub gamma: Vec<f32>,
    /// Learnable shift β (one per channel).
    pub beta: Vec<f32>,
    /// Running mean used at inference.
    pub running_mean: Vec<f32>,
    /// Running variance used at inference.
    pub running_var: Vec<f32>,
    /// Momentum of the running statistics update.
    pub momentum: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// γ gradients. Not serialized: loaders size them with
    /// [`VisitParams::size_grads`].
    #[serde(skip)]
    pub grad_gamma: Vec<f32>,
    /// β gradients (not serialized).
    #[serde(skip)]
    pub grad_beta: Vec<f32>,
    #[serde(skip)]
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl BatchNorm1d {
    /// Create a unit-scale, zero-shift layer.
    pub fn new(channels: usize) -> BatchNorm1d {
        BatchNorm1d {
            channels,
            gamma: vec![1.0; channels],
            beta: vec![0.0; channels],
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            grad_gamma: vec![0.0; channels],
            grad_beta: vec![0.0; channels],
            cache: None,
        }
    }

    /// Forward pass; training mode uses and updates batch statistics.
    ///
    /// Training runs in two phases. Phase A computes the per-channel batch
    /// statistics **once over the full batch, sequentially** — the f64
    /// accumulation order is the contract that keeps training bit-identical
    /// at any worker count, so it never splits. Phase B broadcasts those
    /// statistics to fixed-height micro-batches of rows that normalize in
    /// parallel; each output element depends only on its own input and the
    /// phase-A statistics, so the fan-out cannot change a single bit.
    /// The `x_hat` cache tensor is recycled from the previous step when the
    /// shape matches (it is only consumed by `backward`, which returns it
    /// as the input gradient).
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.channels, self.channels, "batchnorm channel mismatch");
        if !train {
            return self.infer(x);
        }
        let (b, c, l) = x.shape();
        let n = (b * l) as f32;
        let mut y = x.zeros_like();
        let reusable = self
            .cache
            .take()
            .filter(|_| crate::workspace::buffer_reuse());
        let (mut x_hat, mut inv_std) = match reusable {
            Some(cache) if cache.x_hat.shape() == x.shape() => (cache.x_hat, cache.inv_std),
            _ => (x.zeros_like(), vec![0.0f32; c]),
        };
        inv_std.resize(c, 0.0);
        let mut means = vec![0.0f32; c];
        // Phase A: full-batch channel statistics + running-stat update.
        #[allow(clippy::needless_range_loop)] // ci also indexes gamma/beta/running stats
        for ci in 0..c {
            let mut sum = 0.0f64;
            for bi in 0..b {
                for &v in x.row(bi, ci) {
                    sum += v as f64;
                }
            }
            let mean = (sum / n as f64) as f32;
            let mut var_acc = 0.0f64;
            for bi in 0..b {
                for &v in x.row(bi, ci) {
                    let d = v - mean;
                    var_acc += (d * d) as f64;
                }
            }
            let var = (var_acc / n as f64) as f32;
            means[ci] = mean;
            inv_std[ci] = 1.0 / (var + self.eps).sqrt();
            self.running_mean[ci] =
                (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean;
            self.running_var[ci] =
                (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var;
        }
        // Phase B: normalize micro-batches of rows on the worker team.
        let micro = crate::workspace::MICRO_ROWS;
        let (gamma, beta) = (&self.gamma, &self.beta);
        let (means, inv_std_ref) = (&means, &inv_std);
        ds_par::par_zip_chunks_mut(
            &mut x_hat.data,
            &mut y.data,
            micro * l,
            |chunk, xh_rows, y_rows| {
                let _span = ds_obs::span!("train.microbatch");
                let row0 = chunk * micro;
                for (j, (xh_row, y_row)) in
                    xh_rows.chunks_mut(l).zip(y_rows.chunks_mut(l)).enumerate()
                {
                    let (bi, ci) = ((row0 + j) / c, (row0 + j) % c);
                    let (mean, istd) = (means[ci], inv_std_ref[ci]);
                    let (g, be) = (gamma[ci], beta[ci]);
                    for ((xh, yv), &v) in xh_row.iter_mut().zip(y_row.iter_mut()).zip(x.row(bi, ci))
                    {
                        let h = (v - mean) * istd;
                        *xh = h;
                        *yv = g * h + be;
                    }
                }
            },
        );
        self.cache = Some(Cache { x_hat, inv_std });
        y
    }

    /// Pure inference forward using running statistics (`&self`).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.channels, self.channels, "batchnorm channel mismatch");
        let (b, c, l) = x.shape();
        let mut y = x.zeros_like();
        for ci in 0..c {
            let mean = self.running_mean[ci];
            let istd = 1.0 / (self.running_var[ci] + self.eps).sqrt();
            let (g, be) = (self.gamma[ci], self.beta[ci]);
            for bi in 0..b {
                let xr = x.row(bi, ci);
                let start = (bi * c + ci) * l;
                for (t, &v) in xr.iter().enumerate() {
                    y.data[start + t] = g * (v - mean) * istd + be;
                }
            }
        }
        y
    }

    /// The inference pass as a per-channel affine: `(scale, shift)` with
    /// `scale[c] = γ[c] / sqrt(running_var[c] + ε)` and
    /// `shift[c] = β[c] − scale[c] · running_mean[c]`, so that
    /// `infer(x)[c] ≈ scale[c] · x + shift[c]`. "≈" because [`infer`]
    /// evaluates `γ·(x−μ)·istd + β` — the same real-number function with a
    /// different association, which is exactly the reassociation the frozen
    /// plan's tolerance contract (`1e-4` max-abs on logits) absorbs.
    ///
    /// [`infer`]: BatchNorm1d::infer
    pub fn inference_affine(&self) -> (Vec<f32>, Vec<f32>) {
        let mut scale = Vec::with_capacity(self.channels);
        let mut shift = Vec::with_capacity(self.channels);
        for ci in 0..self.channels {
            let istd = 1.0 / (self.running_var[ci] + self.eps).sqrt();
            let s = self.gamma[ci] * istd;
            scale.push(s);
            shift.push(self.beta[ci] - s * self.running_mean[ci]);
        }
        (scale, shift)
    }

    /// Backward pass (training statistics), returning the input gradient.
    ///
    /// Mirrors the forward split: phase A reduces the channel sums over the
    /// full batch sequentially (same f64 accumulation order as ever), then
    /// phase B rewrites the cached `x_hat` **in place** into the input
    /// gradient across fixed-height micro-batches — the cache is consumed,
    /// so the backward pass allocates nothing.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let Cache { mut x_hat, inv_std } = self
            .cache
            .take()
            .expect("BatchNorm1d::backward requires forward(train=true) first");
        assert_eq!(grad_out.shape(), x_hat.shape());
        let (b, c, l) = x_hat.shape();
        let n = (b * l) as f32;
        let mut mean_g = vec![0.0f32; c];
        let mut mean_gx = vec![0.0f32; c];
        // Phase A: channel-wise reductions over the full batch.
        for ci in 0..c {
            let mut sum_g = 0.0f64;
            let mut sum_gx = 0.0f64;
            for bi in 0..b {
                let go = grad_out.row(bi, ci);
                let xh = &x_hat.data[(bi * c + ci) * l..(bi * c + ci) * l + l];
                for (gv, xv) in go.iter().zip(xh) {
                    sum_g += *gv as f64;
                    sum_gx += (*gv * *xv) as f64;
                }
            }
            self.grad_beta[ci] += sum_g as f32;
            self.grad_gamma[ci] += sum_gx as f32;
            mean_g[ci] = sum_g as f32 / n;
            mean_gx[ci] = sum_gx as f32 / n;
        }
        // Phase B: turn x_hat into grad_in, micro-batch parallel. Each
        // element reads its own x_hat value before overwriting it, so the
        // in-place rewrite is exact.
        let micro = crate::workspace::MICRO_ROWS;
        let (gamma, inv_std_ref) = (&self.gamma, &inv_std);
        let (mean_g_ref, mean_gx_ref) = (&mean_g, &mean_gx);
        ds_par::par_chunks_mut(&mut x_hat.data, micro * l, |chunk, rows| {
            let _span = ds_obs::span!("train.microbatch");
            let row0 = chunk * micro;
            for (j, row) in rows.chunks_mut(l).enumerate() {
                let (bi, ci) = ((row0 + j) / c, (row0 + j) % c);
                let scale = gamma[ci] * inv_std_ref[ci];
                let (mg, mgx) = (mean_g_ref[ci], mean_gx_ref[ci]);
                let go = grad_out.row(bi, ci);
                for (xh, &gv) in row.iter_mut().zip(go) {
                    *xh = scale * (gv - mg - *xh * mgx);
                }
            }
        });
        x_hat
    }
}

impl VisitParams for BatchNorm1d {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut Vec<f32>)) {
        f(&mut self.gamma, &mut self.grad_gamma);
        f(&mut self.beta, &mut self.grad_beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_input(b: usize, c: usize, l: usize) -> Tensor {
        let data: Vec<f32> = (0..b * c * l)
            .map(|i| ((i * 31 % 17) as f32 - 8.0) / 3.0 + (i / 7) as f32 * 0.1)
            .collect();
        Tensor::from_data(b, c, l, data)
    }

    #[test]
    fn train_output_is_normalized() {
        let mut bn = BatchNorm1d::new(3);
        let x = sample_input(4, 3, 10);
        let y = bn.forward(&x, true);
        for ci in 0..3 {
            let mut vals = Vec::new();
            for bi in 0..4 {
                vals.extend_from_slice(y.row(bi, ci));
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {ci} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ci} var {var}");
        }
    }

    #[test]
    fn gamma_beta_shift_output() {
        let mut bn = BatchNorm1d::new(1);
        bn.gamma[0] = 2.0;
        bn.beta[0] = 5.0;
        let x = sample_input(2, 1, 8);
        let y = bn.forward(&x, true);
        let mean: f32 = y.data.iter().sum::<f32>() / y.data.len() as f32;
        assert!((mean - 5.0).abs() < 1e-3);
    }

    #[test]
    fn inference_uses_running_statistics() {
        let mut bn = BatchNorm1d::new(2);
        let x = sample_input(4, 2, 16);
        // Several training passes move the running stats toward batch stats.
        for _ in 0..50 {
            let _ = bn.forward(&x, true);
        }
        let y_train = bn.forward(&x, true);
        let y_eval = bn.forward(&x, false);
        for (a, b) in y_train.data.iter().zip(y_eval.data.iter()) {
            assert!((a - b).abs() < 0.1, "train {a} vs eval {b}");
        }
    }

    #[test]
    fn gradient_check() {
        let mut bn = BatchNorm1d::new(2);
        bn.gamma = vec![1.3, 0.7];
        bn.beta = vec![0.2, -0.4];
        let x = sample_input(2, 2, 6);
        let y = bn.forward(&x, true);
        let grad_in = bn.backward(&y); // loss = sum(y^2)/2
        let eps = 1e-3f32;
        let loss = |bn: &mut BatchNorm1d, x: &Tensor| -> f32 {
            bn.forward(x, true).data.iter().map(|v| v * v / 2.0).sum()
        };
        // Gamma.
        for ci in 0..2 {
            let orig = bn.gamma[ci];
            bn.gamma[ci] = orig + eps;
            let lp = loss(&mut bn, &x);
            bn.gamma[ci] = orig - eps;
            let lm = loss(&mut bn, &x);
            bn.gamma[ci] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - bn.grad_gamma[ci]).abs() < 2e-2 * numeric.abs().max(1.0),
                "gamma[{ci}] numeric {numeric} vs {}",
                bn.grad_gamma[ci]
            );
        }
        // Beta.
        for ci in 0..2 {
            let orig = bn.beta[ci];
            bn.beta[ci] = orig + eps;
            let lp = loss(&mut bn, &x);
            bn.beta[ci] = orig - eps;
            let lm = loss(&mut bn, &x);
            bn.beta[ci] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - bn.grad_beta[ci]).abs() < 2e-2 * numeric.abs().max(1.0),
                "beta[{ci}]"
            );
        }
        // Input (batch statistics depend on x, so the full Jacobian matters).
        let mut x2 = x.clone();
        for xi in [0usize, 3, 10, x.data.len() - 1] {
            let orig = x2.data[xi];
            x2.data[xi] = orig + eps;
            let lp = loss(&mut bn, &x2);
            x2.data[xi] = orig - eps;
            let lm = loss(&mut bn, &x2);
            x2.data[xi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad_in.data[xi]).abs() < 5e-2 * numeric.abs().max(1.0),
                "x[{xi}] numeric {numeric} vs analytic {}",
                grad_in.data[xi]
            );
        }
    }

    #[test]
    #[should_panic(expected = "requires forward")]
    fn backward_without_forward_panics() {
        let mut bn = BatchNorm1d::new(1);
        let _ = bn.backward(&Tensor::zeros(1, 1, 4));
    }

    #[test]
    fn visit_params_counts() {
        use crate::VisitParams;
        let mut bn = BatchNorm1d::new(5);
        assert_eq!(bn.param_count(), 10);
    }
}

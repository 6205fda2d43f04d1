//! The residual block of the ResNet-TSC architecture (Wang et al. 2016):
//! three `Conv1d → BatchNorm1d → ReLU` stages plus a (possibly projected)
//! shortcut, added before the final ReLU. All convolutions in a block share
//! one kernel size — the knob the paper's ensemble members vary.

use crate::activations::ReLU;
use crate::batchnorm::BatchNorm1d;
use crate::conv::Conv1d;
use crate::tensor::Tensor;
use crate::VisitParams;
use serde::{Deserialize, Serialize};

/// One `Conv → BN` stage (ReLU applied by the block where appropriate).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ConvBn {
    conv: Conv1d,
    bn: BatchNorm1d,
}

impl ConvBn {
    fn new(in_ch: usize, out_ch: usize, kernel: usize, seed: u64) -> ConvBn {
        ConvBn {
            conv: Conv1d::new(in_ch, out_ch, kernel, seed),
            bn: BatchNorm1d::new(out_ch),
        }
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = self.conv.forward(x, train);
        self.bn.forward(&y, train)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let g = self.bn.backward(grad);
        self.conv.backward(&g)
    }
}

/// A full residual block.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResidualBlock {
    stage1: ConvBn,
    stage2: ConvBn,
    stage3: ConvBn,
    shortcut: Option<ConvBn>,
    #[serde(skip)]
    relu1: ReLU,
    #[serde(skip)]
    relu2: ReLU,
    #[serde(skip)]
    relu_out: ReLU,
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
}

impl ResidualBlock {
    /// Create a block; a 1×1 projection shortcut is added when channel
    /// counts differ (as in the reference architecture).
    pub fn new(in_channels: usize, out_channels: usize, kernel: usize, seed: u64) -> ResidualBlock {
        let shortcut = (in_channels != out_channels)
            .then(|| ConvBn::new(in_channels, out_channels, 1, seed.wrapping_add(3)));
        ResidualBlock {
            stage1: ConvBn::new(in_channels, out_channels, kernel, seed),
            stage2: ConvBn::new(out_channels, out_channels, kernel, seed.wrapping_add(1)),
            stage3: ConvBn::new(out_channels, out_channels, kernel, seed.wrapping_add(2)),
            shortcut,
            relu1: ReLU::new(),
            relu2: ReLU::new(),
            relu_out: ReLU::new(),
            in_channels,
            out_channels,
        }
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let h = self.stage1.forward(x, train);
        let h = self.relu1.forward(&h, train);
        let h = self.stage2.forward(&h, train);
        let h = self.relu2.forward(&h, train);
        let mut h = self.stage3.forward(&h, train);
        let residual = match self.shortcut.as_mut() {
            Some(sc) => sc.forward(x, train),
            None => x.clone(),
        };
        h.add_assign(&residual);
        self.relu_out.forward(&h, train)
    }

    /// Pure inference forward (`&self`).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let h = self.stage1.bn.infer(&self.stage1.conv.infer(x));
        let h = crate::activations::relu_infer(&h);
        let h = self.stage2.bn.infer(&self.stage2.conv.infer(&h));
        let h = crate::activations::relu_infer(&h);
        let mut h = self.stage3.bn.infer(&self.stage3.conv.infer(&h));
        let residual = match self.shortcut.as_ref() {
            Some(sc) => sc.bn.infer(&sc.conv.infer(x)),
            None => x.clone(),
        };
        h.add_assign(&residual);
        crate::activations::relu_infer(&h)
    }

    /// The `(conv, bn)` pair of main-branch stage `i ∈ {0, 1, 2}`, for the
    /// frozen-plan builder (which folds each pair into one fused conv).
    pub(crate) fn stage_parts(&self, i: usize) -> (&Conv1d, &BatchNorm1d) {
        let s = match i {
            0 => &self.stage1,
            1 => &self.stage2,
            2 => &self.stage3,
            _ => panic!("residual block has stages 0..3, got {i}"),
        };
        (&s.conv, &s.bn)
    }

    /// The projection shortcut's `(conv, bn)` pair, when present.
    pub(crate) fn shortcut_parts(&self) -> Option<(&Conv1d, &BatchNorm1d)> {
        self.shortcut.as_ref().map(|sc| (&sc.conv, &sc.bn))
    }

    /// Structural validation (see the `check` module): an `in_channels →
    /// out_channels` block whose stages chain, with a projection
    /// shortcut wherever the identity cannot add up.
    pub(crate) fn check(&self, what: &str, in_ch: usize, out_ch: usize) -> Result<(), String> {
        crate::check::dim(what, "input channels", self.in_channels, in_ch)?;
        crate::check::dim(what, "output channels", self.out_channels, out_ch)?;
        let stages = [
            (&self.stage1, in_ch),
            (&self.stage2, out_ch),
            (&self.stage3, out_ch),
        ];
        for (i, (stage, c_in)) in stages.into_iter().enumerate() {
            let what = format!("{what} stage {}", i + 1);
            stage.conv.check(&what, c_in, out_ch)?;
            stage.bn.check(&what, out_ch)?;
        }
        match &self.shortcut {
            Some(sc) => {
                let what = format!("{what} shortcut");
                sc.conv.check(&what, in_ch, out_ch)?;
                sc.bn.check(&what, out_ch)
            }
            None if in_ch == out_ch => Ok(()),
            None => Err(format!("{what}: channels change but there is no shortcut")),
        }
    }

    /// Backward pass, returning the gradient with respect to the input.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g_sum = self.relu_out.backward(grad_out);
        // Main branch.
        let g = self.stage3.backward(&g_sum);
        let g = self.relu2.backward(&g);
        let g = self.stage2.backward(&g);
        let g = self.relu1.backward(&g);
        let mut grad_in = self.stage1.backward(&g);
        // Shortcut branch.
        match self.shortcut.as_mut() {
            Some(sc) => {
                let g_sc = sc.backward(&g_sum);
                grad_in.add_assign(&g_sc);
            }
            None => grad_in.add_assign(&g_sum),
        }
        grad_in
    }
}

impl VisitParams for ResidualBlock {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut Vec<f32>)) {
        self.stage1.conv.visit_params(f);
        self.stage1.bn.visit_params(f);
        self.stage2.conv.visit_params(f);
        self.stage2.bn.visit_params(f);
        self.stage3.conv.visit_params(f);
        self.stage3.bn.visit_params(f);
        if let Some(sc) = self.shortcut.as_mut() {
            sc.conv.visit_params(f);
            sc.bn.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_input(b: usize, c: usize, l: usize) -> Tensor {
        let data: Vec<f32> = (0..b * c * l)
            .map(|i| ((i * 29 % 19) as f32 - 9.0) / 5.0)
            .collect();
        Tensor::from_data(b, c, l, data)
    }

    #[test]
    fn output_shape_and_projection() {
        let mut block = ResidualBlock::new(1, 8, 5, 7);
        assert!(block.shortcut.is_some());
        let x = sample_input(2, 1, 30);
        let y = block.forward(&x, false);
        assert_eq!(y.shape(), (2, 8, 30));
        let mut same = ResidualBlock::new(8, 8, 5, 7);
        assert!(same.shortcut.is_none());
        let y2 = same.forward(&y, false);
        assert_eq!(y2.shape(), (2, 8, 30));
    }

    #[test]
    fn output_is_nonnegative_after_final_relu() {
        let mut block = ResidualBlock::new(2, 4, 3, 5);
        let x = sample_input(1, 2, 16);
        let y = block.forward(&x, false);
        assert!(y.data.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn gradient_check_through_block() {
        let mut block = ResidualBlock::new(2, 3, 3, 11);
        let x = sample_input(2, 2, 8);
        let y = block.forward(&x, true);
        let grad_in = block.backward(&y); // loss = sum(y^2)/2
        let eps = 1.5e-2f32;
        let loss = |block: &mut ResidualBlock, x: &Tensor| -> f32 {
            block
                .forward(x, true)
                .data
                .iter()
                .map(|v| v * v / 2.0)
                .sum()
        };
        for xi in [0usize, 5, 13, x.data.len() - 1] {
            let mut x2 = x.clone();
            x2.data[xi] += eps;
            let lp = loss(&mut block, &x2);
            x2.data[xi] -= 2.0 * eps;
            let lm = loss(&mut block, &x2);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad_in.data[xi];
            // BN batch statistics couple everything; allow a loose but
            // directionally strict tolerance.
            assert!(
                (numeric - analytic).abs() < 0.15 * numeric.abs().max(1.0),
                "x[{xi}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn param_visit_covers_shortcut() {
        use crate::VisitParams;
        let mut with_proj = ResidualBlock::new(1, 4, 3, 0);
        let mut without = ResidualBlock::new(4, 4, 3, 0);
        let a = with_proj.param_count();
        let b = without.param_count();
        // Projection adds a 1x1 conv (4 weights + 4 bias) + BN (8).
        assert_eq!(a, {
            let convs = 4 * 3 + 4 + 4 * 4 * 3 + 4 + 4 * 4 * 3 + 4;
            let bns = 3 * 8;
            let sc = 4 + 4 + 8;
            convs + bns + sc
        });
        assert!(b > 0 && b != a);
    }

    #[test]
    fn training_reduces_toy_loss() {
        use crate::optim::Adam;
        let mut block = ResidualBlock::new(1, 4, 3, 3);
        let x = sample_input(4, 1, 12);
        let initial: f32 = block
            .forward(&x, true)
            .data
            .iter()
            .map(|v| v * v / 2.0)
            .sum();
        let mut opt = Adam::new(0.01);
        let mut last = initial;
        for _ in 0..30 {
            block.zero_grad();
            let y = block.forward(&x, true);
            last = y.data.iter().map(|v| v * v / 2.0).sum();
            let _ = block.backward(&y);
            opt.step(&mut block);
        }
        assert!(last < initial, "loss did not decrease: {initial} -> {last}");
    }
}

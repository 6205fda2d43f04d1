//! The frozen inference plan: a trained [`ResNet`] compiled once into an
//! immutable, allocation-free serving form.
//!
//! Three transformations, applied at freeze time:
//!
//! 1. **BN folding.** Each `Conv → BN` stage collapses into a single
//!    convolution: with the BatchNorm inference affine
//!    `scale[c] = γ[c]/√(running_var[c]+ε)`,
//!    `shift[c] = β[c] − scale[c]·μ[c]`, the folded weights are
//!    `W'[oc,·,·] = W[oc,·,·]·scale[oc]` and the folded bias
//!    `b'[oc] = b[oc]·scale[oc] + shift[oc]`. This deletes one full tensor
//!    pass per stage — 9 stages plus projection shortcuts per ensemble
//!    member.
//! 2. **Fused ReLU epilogue.** Where the reference path materializes a
//!    post-BN tensor and then clamps it, the frozen conv clamps in the
//!    output-write loop of the conv kernels (the `relu` epilogue of
//!    `conv::conv_rows`), deleting the activation passes as well.
//! 3. **Arena execution.** [`FrozenResNet::predict_into`] runs entirely
//!    inside an [`InferenceArena`]: activations ping-pong through three
//!    pre-sized buffers, and GAP/head/softmax/CAM write into reused output
//!    buffers. After the first call per shape, a forward pass performs
//!    zero heap allocations.
//!
//! Folding reassociates floating-point products, so frozen outputs are not
//! bit-identical to the mutable path. The contract — enforced by the
//! `frozen_plan` golden tests and the perf harness — is *tolerance plus
//! decision identity*: logits within `1e-4` max-abs, and exactly the same
//! detections (`prob > 0.5`) and localization masks.

use crate::batchnorm::BatchNorm1d;
use crate::conv::{conv_rows, Conv1d};
use crate::linear::Linear;
use crate::loss::softmax_row;
use crate::plan::InferenceArena;
use crate::resblock::ResidualBlock;
use crate::resnet::ResNet;
use crate::simd::Rounding;
use crate::tensor::Tensor;

/// A convolution with a BatchNorm inference affine folded into its
/// weights and bias. Immutable by construction.
#[derive(Debug, Clone)]
pub struct FrozenConv {
    pub(crate) in_channels: usize,
    pub(crate) out_channels: usize,
    pub(crate) kernel: usize,
    pub(crate) dilation: usize,
    /// Folded weights `[out, in, k]`, row-major.
    pub(crate) weight: Vec<f32>,
    /// Folded per-output-channel bias.
    pub(crate) bias: Vec<f32>,
}

impl FrozenConv {
    /// Fold `bn`'s inference affine into `conv`. Public as the building
    /// block of the frozen plan — benches and tests fold single stages to
    /// measure the kernels in isolation.
    pub fn fold(conv: &Conv1d, bn: &BatchNorm1d) -> FrozenConv {
        assert_eq!(
            conv.out_channels, bn.channels,
            "fold requires conv output channels to match BN channels"
        );
        let (scale, shift) = bn.inference_affine();
        FrozenConv::fold_affine(conv, &scale, &shift)
    }

    /// Fold an explicit per-output-channel affine (`scale`, `shift`) into
    /// `conv` — the general form of [`FrozenConv::fold`] for BatchNorm
    /// layers that normalize a *concatenation* of several convolutions'
    /// outputs (the Inception block): each branch conv folds the slice of
    /// the affine covering its output-channel range.
    pub(crate) fn fold_affine(conv: &Conv1d, scale: &[f32], shift: &[f32]) -> FrozenConv {
        assert_eq!(conv.out_channels, scale.len(), "affine length mismatch");
        assert_eq!(conv.out_channels, shift.len(), "affine length mismatch");
        let per_oc = conv.in_channels * conv.kernel;
        let mut weight = conv.weight.clone();
        for (oc, &s) in scale.iter().enumerate() {
            for w in &mut weight[oc * per_oc..(oc + 1) * per_oc] {
                *w *= s;
            }
        }
        let bias = conv
            .bias
            .iter()
            .zip(scale.iter().zip(shift))
            .map(|(&b, (&s, &sh))| b * s + sh)
            .collect();
        FrozenConv {
            in_channels: conv.in_channels,
            out_channels: conv.out_channels,
            kernel: conv.kernel,
            dilation: conv.dilation,
            weight,
            bias,
        }
    }

    /// Freeze a convolution that has no adjacent BatchNorm (identity
    /// fold): attention projections, FFN convs, Inception bottlenecks.
    pub(crate) fn from_conv(conv: &Conv1d) -> FrozenConv {
        FrozenConv {
            in_channels: conv.in_channels,
            out_channels: conv.out_channels,
            kernel: conv.kernel,
            dilation: conv.dilation,
            weight: conv.weight.clone(),
            bias: conv.bias.clone(),
        }
    }

    /// Forward `batch` rows of `[in_channels, l]` from `x` into `y`
    /// (`[batch, out_channels, l]` region), optionally fusing a ReLU into
    /// the final accumulation pass. Sequential and allocation-free.
    pub fn infer_into(&self, x: &[f32], batch: usize, l: usize, y: &mut [f32], relu: bool) {
        debug_assert!(x.len() >= batch * self.in_channels * l);
        debug_assert!(y.len() >= batch * self.out_channels * l);
        let (in_stride, out_stride) = (self.in_channels * l, self.out_channels * l);
        for bi in 0..batch {
            self.infer_row(
                &x[bi * in_stride..(bi + 1) * in_stride],
                &mut y[bi * out_stride..(bi + 1) * out_stride],
                l,
                relu,
            );
        }
    }

    /// One batch row ([`conv_rows`] with fused rounding). On AVX2+FMA
    /// hosts (unless `DS_SIMD=off`) each block of four output channels
    /// runs the vectorized kernel, sixteen output positions per step with
    /// FMA, logits within `1e-4` of the scalar path. Remainder rows, spans
    /// too wide for the kernel and scalar dispatch run the scalar twin:
    /// the eight-position kernel (`accumulate_conv4t8`), bit-identical to
    /// [`Conv1d::infer`]'s scalar per-element tap order, with the epilogue
    /// fused into the last input-channel pass. The scalar path is the
    /// determinism twin the golden tests gate the SIMD path against.
    fn infer_row(&self, x_rows: &[f32], y_rows: &mut [f32], l: usize, relu: bool) {
        conv_rows(
            Rounding::Fused,
            &self.weight,
            &self.bias,
            self.in_channels,
            self.kernel,
            self.dilation,
            x_rows,
            y_rows,
            l,
            relu,
        );
    }

    pub(crate) fn push_bits(&self, bits: &mut Vec<u32>) {
        bits.extend(self.weight.iter().map(|v| v.to_bits()));
        bits.extend(self.bias.iter().map(|v| v.to_bits()));
    }
}

/// A residual block compiled to three folded convolutions plus an
/// optional folded projection shortcut.
#[derive(Debug, Clone)]
struct FrozenBlock {
    stage1: FrozenConv,
    stage2: FrozenConv,
    stage3: FrozenConv,
    shortcut: Option<FrozenConv>,
    out_channels: usize,
}

impl FrozenBlock {
    fn freeze(block: &ResidualBlock) -> FrozenBlock {
        let fold = |i: usize| {
            let (conv, bn) = block.stage_parts(i);
            FrozenConv::fold(conv, bn)
        };
        FrozenBlock {
            stage1: fold(0),
            stage2: fold(1),
            stage3: fold(2),
            shortcut: block.shortcut_parts().map(|(c, b)| FrozenConv::fold(c, b)),
            out_channels: block.out_channels,
        }
    }

    /// Run the block: read from `x`, leave the result in `out`, clobber
    /// `tmp`. The dataflow mirrors [`ResidualBlock::infer`] with every
    /// BN/ReLU pass fused away: `out ← relu(st1(x))`,
    /// `tmp ← relu(st2(out))`, `out ← st3(tmp)`, then
    /// `out ← relu(out + shortcut(x)|x)`.
    fn infer_into(&self, x: &[f32], out: &mut [f32], tmp: &mut [f32], batch: usize, l: usize) {
        let n_out = batch * self.out_channels * l;
        self.stage1.infer_into(x, batch, l, out, true);
        self.stage2.infer_into(&out[..n_out], batch, l, tmp, true);
        self.stage3.infer_into(&tmp[..n_out], batch, l, out, false);
        match &self.shortcut {
            Some(sc) => {
                sc.infer_into(x, batch, l, tmp, false);
                for (o, &r) in out[..n_out].iter_mut().zip(&tmp[..n_out]) {
                    *o = (*o + r).max(0.0);
                }
            }
            None => {
                for (o, &r) in out[..n_out].iter_mut().zip(&x[..n_out]) {
                    *o = (*o + r).max(0.0);
                }
            }
        }
    }

    fn push_bits(&self, bits: &mut Vec<u32>) {
        self.stage1.push_bits(bits);
        self.stage2.push_bits(bits);
        self.stage3.push_bits(bits);
        if let Some(sc) = &self.shortcut {
            sc.push_bits(bits);
        }
    }
}

/// An immutable, BN-folded, fused, arena-driven compilation of a trained
/// [`ResNet`]. Build one with [`FrozenResNet::freeze`] (or
/// `ResNet`-holding wrappers' `freeze()` methods) after training; it
/// shares no state with the source network.
#[derive(Debug, Clone)]
pub struct FrozenResNet {
    blocks: Vec<FrozenBlock>,
    /// Head weights `[num_classes, features]`, row-major.
    head_weight: Vec<f32>,
    /// Head bias `[num_classes]`.
    head_bias: Vec<f32>,
    in_channels: usize,
    features: usize,
    num_classes: usize,
    kernel: usize,
    max_channels: usize,
}

impl FrozenResNet {
    /// Compile `net` into a frozen f32 plan. `net` is read, not consumed —
    /// training can continue on it and a new plan can be frozen later.
    pub fn freeze(net: &ResNet) -> FrozenResNet {
        let head: &Linear = net.head();
        assert!(
            head.out_features >= 2,
            "frozen plan needs a binary (or wider) head for class-1 CAM"
        );
        let blocks: Vec<FrozenBlock> = net.blocks().iter().map(FrozenBlock::freeze).collect();
        let in_channels = net.config().in_channels;
        let features = blocks.last().expect("at least one block").out_channels;
        let max_channels = blocks
            .iter()
            .map(|b| b.out_channels)
            .max()
            .unwrap()
            .max(in_channels);
        FrozenResNet {
            head_weight: head.weight.clone(),
            head_bias: head.bias.clone(),
            in_channels,
            features,
            num_classes: head.out_features,
            kernel: net.kernel(),
            blocks,
            max_channels,
        }
    }

    /// Kernel size of the source member (the ensemble diversity knob).
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Channel count of the last block's feature maps.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Widest channel count of any activation tensor (arena sizing).
    pub fn max_channels(&self) -> usize {
        self.max_channels
    }

    /// Number of classes of the head.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Full forward pass into `arena`: positive-class probabilities
    /// ([`InferenceArena::probs`]), class-1 CAMs ([`InferenceArena::cam`])
    /// and logits ([`InferenceArena::logits_row`]). Zero heap allocations
    /// once the arena has seen the shape.
    pub fn predict_into(&self, x: &Tensor, arena: &mut InferenceArena) {
        let _span = ds_obs::span!("frozen.forward");
        let (b, c, l) = x.shape();
        assert_eq!(c, self.in_channels, "frozen input channel mismatch");
        assert!(b > 0 && l > 0, "frozen forward needs a non-empty batch");
        arena.ensure(b, l, self.max_channels, self.features, self.num_classes);
        let (buf_a, buf_b, buf_c, _aux, pooled, logits, softmax, probs, cams) = arena.parts();
        buf_a[..b * c * l].copy_from_slice(&x.data[..b * c * l]);
        let mut c_in = self.in_channels;
        for block in &self.blocks {
            block.infer_into(&buf_a[..b * c_in * l], buf_b, buf_c, b, l);
            std::mem::swap(buf_a, buf_b);
            c_in = block.out_channels;
        }
        let feats = &buf_a[..b * self.features * l];
        finish_forward(
            feats,
            &self.head_weight,
            &self.head_bias,
            self.features,
            self.num_classes,
            b,
            l,
            pooled,
            logits,
            softmax,
            probs,
            cams,
        );
    }

    /// Every parameter as raw bits in a fixed traversal order. Two plans
    /// with equal `param_bits` compute bit-identical outputs; the model_io
    /// round-trip test uses this to assert `freeze(load(save(net)))`
    /// equals `freeze(net)` exactly.
    pub fn param_bits(&self) -> Vec<u32> {
        let mut bits = Vec::new();
        for block in &self.blocks {
            block.push_bits(&mut bits);
        }
        bits.extend(self.head_weight.iter().map(|v| v.to_bits()));
        bits.extend(self.head_bias.iter().map(|v| v.to_bits()));
        bits
    }
}

/// The network epilogue shared by every backbone's frozen plan: GAP,
/// head, softmax → positive-class probability, and the class-1 CAM, all
/// reading `feats` (`[b, features, l]`) in place and writing into arena
/// buffers. Accumulation orders match the mutable reference path
/// (`GlobalAvgPool::infer`, `Linear::infer`, `cam_from_features`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_forward(
    feats: &[f32],
    head_weight: &[f32],
    head_bias: &[f32],
    features: usize,
    num_classes: usize,
    b: usize,
    l: usize,
    pooled: &mut [f32],
    logits: &mut [f32],
    softmax: &mut [f32],
    probs: &mut [f32],
    cams: &mut [f32],
) {
    // GAP — same summation order as `GlobalAvgPool::infer`.
    for bi in 0..b {
        for ci in 0..features {
            let row = &feats[(bi * features + ci) * l..][..l];
            pooled[bi * features + ci] = row.iter().sum::<f32>() / l as f32;
        }
    }
    // Head — same accumulation order as `Linear::infer`.
    for bi in 0..b {
        let xr = &pooled[bi * features..(bi + 1) * features];
        for o in 0..num_classes {
            let w = &head_weight[o * features..(o + 1) * features];
            let mut acc = head_bias[o];
            for (wv, xv) in w.iter().zip(xr) {
                acc += wv * xv;
            }
            logits[bi * num_classes + o] = acc;
        }
    }
    // Softmax → positive-class probability.
    for bi in 0..b {
        softmax_row(&logits[bi * num_classes..(bi + 1) * num_classes], softmax);
        probs[bi] = softmax[1];
    }
    // Class-1 CAM — same accumulation order (ascending channel, zero
    // weights skipped) as `cam_from_features`.
    let w1 = &head_weight[features..2 * features];
    for bi in 0..b {
        let cam = &mut cams[bi * l..(bi + 1) * l];
        cam.fill(0.0);
        for (ki, &w) in w1.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let f = &feats[(bi * features + ki) * l..][..l];
            for (cv, &fv) in cam.iter_mut().zip(f) {
                *cv += w * fv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resnet::ResNetConfig;

    fn sample_input(b: usize, c: usize, l: usize) -> Tensor {
        let data: Vec<f32> = (0..b * c * l)
            .map(|i| ((i * 31 % 17) as f32 - 8.0) / 4.0)
            .collect();
        Tensor::from_data(b, c, l, data)
    }

    /// Give a network non-trivial BN running statistics so folding is not
    /// an identity transform.
    fn warm_bn(net: &mut ResNet, l: usize) {
        let x = sample_input(6, net.config().in_channels, l);
        for _ in 0..4 {
            let _ = net.forward(&x, true);
        }
    }

    #[test]
    fn fold_matches_conv_then_bn() {
        let mut conv = Conv1d::new(3, 5, 7, 21);
        let mut bn = BatchNorm1d::new(5);
        // Hand-set, non-trivial inference statistics.
        for c in 0..5 {
            bn.gamma[c] = 0.5 + c as f32 * 0.3;
            bn.beta[c] = -0.2 + c as f32 * 0.1;
            bn.running_mean[c] = 0.05 * c as f32 - 0.1;
            bn.running_var[c] = 0.4 + 0.2 * c as f32;
        }
        conv.bias.iter_mut().enumerate().for_each(|(i, b)| {
            *b = 0.01 * i as f32 - 0.02;
        });
        let x = sample_input(2, 3, 19);
        let reference = bn.infer(&conv.infer(&x));
        let frozen = FrozenConv::fold(&conv, &bn);
        let mut y = vec![0.0f32; 2 * 5 * 19];
        frozen.infer_into(&x.data, 2, 19, &mut y, false);
        for (a, r) in y.iter().zip(&reference.data) {
            assert!((a - r).abs() < 1e-5, "folded {a} vs reference {r}");
        }
    }

    #[test]
    fn fused_relu_matches_separate_clamp() {
        // Odd output-channel count exercises both the 4-row fused epilogue
        // and the remainder-row post-clamp.
        let conv = Conv1d::new(2, 7, 5, 9);
        let bn = BatchNorm1d::new(7);
        let frozen = FrozenConv::fold(&conv, &bn);
        let x = sample_input(3, 2, 23);
        let mut plain = vec![0.0f32; 3 * 7 * 23];
        let mut fused = vec![0.0f32; 3 * 7 * 23];
        frozen.infer_into(&x.data, 3, 23, &mut plain, false);
        frozen.infer_into(&x.data, 3, 23, &mut fused, true);
        for (p, f) in plain.iter().zip(&fused) {
            assert_eq!(p.max(0.0).to_bits(), f.to_bits());
        }
    }

    #[test]
    fn frozen_net_matches_reference_within_tolerance() {
        for kernel in [3usize, 5] {
            let mut net = ResNet::new(ResNetConfig::tiny(kernel, 77));
            warm_bn(&mut net, 40);
            let frozen = FrozenResNet::freeze(&net);
            let x = sample_input(4, 1, 40);
            let (logits, _) = net.infer(&x);
            let (probs, cams) = net.infer_with_cam(&x);
            let mut arena = InferenceArena::new();
            frozen.predict_into(&x, &mut arena);
            for bi in 0..4 {
                for (a, r) in arena.logits_row(bi).iter().zip(logits.row(bi)) {
                    assert!((a - r).abs() < 1e-4, "k={kernel} logit {a} vs {r}");
                }
                assert!((arena.probs()[bi] - probs[bi]).abs() < 1e-4);
                assert_eq!(arena.probs()[bi] > 0.5, probs[bi] > 0.5, "decision flip");
                for (a, r) in arena.cam(bi).iter().zip(&cams[bi]) {
                    assert!((a - r).abs() < 1e-3, "k={kernel} cam {a} vs {r}");
                }
            }
        }
    }

    #[test]
    fn steady_state_predict_allocates_nothing() {
        let mut net = ResNet::new(ResNetConfig::tiny(5, 13));
        warm_bn(&mut net, 32);
        let frozen = FrozenResNet::freeze(&net);
        let x = sample_input(3, 1, 32);
        let mut arena = InferenceArena::new();
        frozen.predict_into(&x, &mut arena); // warmup sizes the arena
        let before = ds_obs::alloc_count();
        for _ in 0..8 {
            frozen.predict_into(&x, &mut arena);
        }
        assert_eq!(
            ds_obs::alloc_count(),
            before,
            "steady-state frozen forward must not allocate"
        );
    }

    #[test]
    fn refreeze_is_bit_identical() {
        let mut net = ResNet::new(ResNetConfig::tiny(7, 5));
        warm_bn(&mut net, 24);
        let a = FrozenResNet::freeze(&net);
        let b = FrozenResNet::freeze(&net);
        assert_eq!(a.param_bits(), b.param_bits());
    }
}

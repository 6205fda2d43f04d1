//! The int8 conv of the frozen plans.
//!
//! Every backbone's `quantize` (e.g. [`crate::FrozenResNet::quantize`])
//! rebuilds each conv of an f32 frozen plan (already BN-folded and fused)
//! as a [`QuantConv`], so the same plan type serves both precisions:
//!
//! - **Weights** are quantized per output channel: each folded `[ic, k]`
//!   slab gets `w_scale[oc] = maxabs(W'[oc])/127`, and
//!   `wq = round(W'/w_scale)` clamped to `[-127, 127]`. Per-channel
//!   scales keep narrow channels (BN folding spreads channel magnitudes
//!   over orders of magnitude) from drowning in a per-tensor scale.
//! - **Activations** are quantized per conv input with a single
//!   per-tensor scale computed by a **calibration pass**: the f32 frozen
//!   plan replays a held-out window set, recording the max-abs of every
//!   conv's input activation; `x_scale = maxabs/127`. Inputs are
//!   re-quantized on the fly each pass (`round(x/x_scale)` clamped),
//!   activations stay f32 between layers.
//! - **Accumulation** is exact i32 over `i8×i8` products; the epilogue
//!   dequantizes with one multiply (`acc · w_scale[oc]·x_scale`), adds
//!   the f32 folded bias, and fuses the ReLU clamp — the same fused
//!   BN+ReLU epilogue shape as the f32 plan.
//!
//! GAP, head, softmax and CAM stay f32 (they are a rounding error of the
//! runtime and the CAM feeds localization thresholds directly). Because
//! integer adds are associative, the SIMD and scalar int8 kernels are
//! **bit-identical** — the quantized plan is deterministic regardless of
//! `DS_SIMD`. Accuracy is gated by the frozen golden series: zero
//! decision flips on the calibration corpus (CI) and on the tri-state
//! golden series.

use crate::frozen::FrozenConv;
use crate::simd;

/// Guard against all-zero slabs: a zero scale would divide by zero; any
/// positive scale maps a zero slab to zero codes, so the value is moot.
const SCALE_FLOOR: f32 = 1e-30;

/// Per-output-channel symmetric quantization of a folded weight slab.
/// Returns `(codes, scales)` with `codes[oc·per_oc + i] =
/// round(w/scales[oc])` clamped to `[-127, 127]`.
pub fn quantize_weights_per_channel(
    weight: &[f32],
    out_channels: usize,
    per_oc: usize,
) -> (Vec<i8>, Vec<f32>) {
    assert_eq!(weight.len(), out_channels * per_oc);
    let mut codes = vec![0i8; weight.len()];
    let mut scales = vec![0.0f32; out_channels];
    for oc in 0..out_channels {
        let slab = &weight[oc * per_oc..(oc + 1) * per_oc];
        let maxabs = slab.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let scale = (maxabs / 127.0).max(SCALE_FLOOR);
        scales[oc] = scale;
        for (c, &v) in codes[oc * per_oc..(oc + 1) * per_oc].iter_mut().zip(slab) {
            *c = (v / scale).round().clamp(-127.0, 127.0) as i8;
        }
    }
    (codes, scales)
}

/// A folded convolution with int8 weights and a per-tensor input
/// activation scale from calibration.
#[derive(Debug, Clone)]
pub struct QuantConv {
    pub(crate) in_channels: usize,
    pub(crate) out_channels: usize,
    pub(crate) kernel: usize,
    pub(crate) dilation: usize,
    /// Quantized weights `[out, in, k]`, row-major.
    pub(crate) wq: Vec<i8>,
    /// Per-output-channel weight scales.
    w_scale: Vec<f32>,
    /// Input activation scale (one quantum in input units).
    x_scale: f32,
    /// `127/maxabs` — multiplier used to quantize inputs on the fly.
    pub(crate) inv_x_scale: f32,
    /// Dequant multiplier per output channel: `w_scale[oc] · x_scale`.
    pub(crate) combined: Vec<f32>,
    /// Folded f32 bias, applied after dequantization.
    pub(crate) bias: Vec<f32>,
}

impl QuantConv {
    /// Quantize a folded conv given the calibration max-abs of its input
    /// activation.
    pub(crate) fn quantize(conv: &FrozenConv, input_maxabs: f32) -> QuantConv {
        let per_oc = conv.in_channels * conv.kernel;
        let (wq, w_scale) = quantize_weights_per_channel(&conv.weight, conv.out_channels, per_oc);
        let x_scale = (input_maxabs / 127.0).max(SCALE_FLOOR);
        let combined = w_scale.iter().map(|&ws| ws * x_scale).collect();
        QuantConv {
            in_channels: conv.in_channels,
            out_channels: conv.out_channels,
            kernel: conv.kernel,
            dilation: conv.dilation,
            wq,
            w_scale,
            x_scale,
            inv_x_scale: 1.0 / x_scale,
            combined,
            bias: conv.bias.clone(),
        }
    }

    #[inline]
    pub(crate) fn pad_left(&self) -> usize {
        (self.kernel - 1) * self.dilation / 2
    }

    /// Forward `batch` rows from f32 `x` into f32 `y`, quantizing the
    /// input into `qbuf` on the fly. Sequential and allocation-free; the
    /// SIMD and scalar paths are bit-identical (i32 accumulation).
    pub(crate) fn infer_into(
        &self,
        x: &[f32],
        batch: usize,
        l: usize,
        y: &mut [f32],
        relu: bool,
        qbuf: &mut [i8],
    ) {
        let n_in = batch * self.in_channels * l;
        debug_assert!(x.len() >= n_in);
        debug_assert!(y.len() >= batch * self.out_channels * l);
        debug_assert!(qbuf.len() >= n_in);
        for (q, &v) in qbuf[..n_in].iter_mut().zip(&x[..n_in]) {
            *q = (v * self.inv_x_scale).round().clamp(-127.0, 127.0) as i8;
        }
        let pad = self.pad_left();
        let (in_stride, out_stride) = (self.in_channels * l, self.out_channels * l);
        for bi in 0..batch {
            let xq_rows = &qbuf[bi * in_stride..(bi + 1) * in_stride];
            let y_rows = &mut y[bi * out_stride..(bi + 1) * out_stride];
            if simd::quant_conv_rows(
                &self.wq,
                &self.combined,
                &self.bias,
                self.in_channels,
                self.out_channels,
                self.kernel,
                pad,
                self.dilation,
                xq_rows,
                y_rows,
                l,
                relu,
            ) {
                continue;
            }
            // Scalar twin — identical i32 accumulation and dequant ops.
            let mut oc = 0;
            while oc < self.out_channels {
                let rows = (self.out_channels - oc).min(4);
                simd::quant_scalar_positions(
                    &self.wq,
                    &self.combined,
                    &self.bias,
                    self.in_channels,
                    self.kernel,
                    pad,
                    self.dilation,
                    xq_rows,
                    &mut y_rows[oc * l..(oc + rows) * l],
                    l,
                    relu,
                    oc,
                    rows,
                    0,
                    l,
                );
                oc += rows;
            }
        }
    }

    pub(crate) fn push_bits(&self, bits: &mut Vec<u32>) {
        bits.extend(self.wq.iter().map(|&c| c as i32 as u32));
        bits.extend(self.w_scale.iter().map(|v| v.to_bits()));
        bits.push(self.x_scale.to_bits());
        bits.extend(self.bias.iter().map(|v| v.to_bits()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::FrozenResNet;
    use crate::plan::InferenceArena;
    use crate::resnet::{ResNet, ResNetConfig};
    use crate::simd::{set_mode, SimdMode};
    use crate::tensor::Tensor;

    fn sample_input(b: usize, c: usize, l: usize, seed: usize) -> Tensor {
        let data: Vec<f32> = (0..b * c * l)
            .map(|i| (((i + seed) * 31 % 17) as f32 - 8.0) / 4.0)
            .collect();
        Tensor::from_data(b, c, l, data)
    }

    fn trained_frozen(kernel: usize) -> FrozenResNet {
        let mut net = ResNet::new(ResNetConfig::tiny(kernel, 77));
        let x = sample_input(6, 1, 40, 3);
        for _ in 0..4 {
            let _ = net.forward(&x, true);
        }
        FrozenResNet::freeze(&net)
    }

    #[test]
    fn per_channel_scales_bound_roundtrip_error() {
        let weight: Vec<f32> = (0..3 * 10)
            .map(|i| ((i * 13 % 29) as f32 - 14.0) / 7.0)
            .collect();
        let (codes, scales) = quantize_weights_per_channel(&weight, 3, 10);
        for oc in 0..3 {
            let s = scales[oc];
            for i in 0..10 {
                let w = weight[oc * 10 + i];
                let back = codes[oc * 10 + i] as f32 * s;
                assert!(
                    (w - back).abs() <= s * 0.5 + 1e-6,
                    "oc={oc} i={i}: {w} vs {back} (scale {s})"
                );
            }
        }
    }

    #[test]
    fn quantized_plan_matches_frozen_decisions() {
        for kernel in [3usize, 5] {
            let frozen = trained_frozen(kernel);
            let calib = sample_input(8, 1, 40, 11);
            let quant = frozen.quantize(&calib);
            let x = sample_input(4, 1, 40, 0);
            let mut fa = InferenceArena::new();
            let mut qa = InferenceArena::new();
            frozen.predict_into(&x, &mut fa);
            quant.predict_into(&x, &mut qa);
            for bi in 0..4 {
                let (fp, qp) = (fa.probs()[bi], qa.probs()[bi]);
                assert!((fp - qp).abs() < 0.05, "k={kernel} prob drift {fp} vs {qp}");
                // A warm-BN-only net can sit arbitrarily close to 0.5;
                // decision identity on *trained* nets is the golden tests'
                // job. Here we require it whenever there is real margin.
                if (fp - 0.5).abs() > 0.05 {
                    assert_eq!(fp > 0.5, qp > 0.5, "k={kernel} decision flip");
                }
            }
        }
    }

    #[test]
    fn simd_and_scalar_int8_paths_bit_identical() {
        let frozen = trained_frozen(5);
        let calib = sample_input(8, 1, 40, 7);
        let quant = frozen.quantize(&calib);
        let x = sample_input(3, 1, 40, 5);
        let mut a = InferenceArena::new();
        let mut b = InferenceArena::new();
        set_mode(Some(SimdMode::Avx2));
        quant.predict_into(&x, &mut a);
        set_mode(Some(SimdMode::Scalar));
        quant.predict_into(&x, &mut b);
        set_mode(None);
        for bi in 0..3 {
            for (p, q) in a.logits_row(bi).iter().zip(b.logits_row(bi)) {
                assert_eq!(p.to_bits(), q.to_bits(), "int8 paths must be bit-identical");
            }
            for (p, q) in a.cam(bi).iter().zip(b.cam(bi)) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        }
    }

    #[test]
    fn steady_state_quantized_predict_allocates_nothing() {
        let frozen = trained_frozen(5);
        let calib = sample_input(4, 1, 32, 1);
        let quant = frozen.quantize(&calib);
        let x = sample_input(3, 1, 32, 2);
        let mut arena = InferenceArena::new();
        quant.predict_into(&x, &mut arena); // warmup sizes the arena
        let before = ds_obs::alloc_count();
        for _ in 0..8 {
            quant.predict_into(&x, &mut arena);
        }
        assert_eq!(
            ds_obs::alloc_count(),
            before,
            "steady-state quantized forward must not allocate"
        );
    }
}

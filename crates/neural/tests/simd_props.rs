//! Property tests for the SIMD dispatch layer: the vectorized frozen
//! conv kernel must agree with its scalar determinism twin everywhere,
//! and the int8 quantization scales must behave like calibrated
//! per-channel ranges.
//!
//! Coverage axes (satellite of the SIMD/quantization change):
//! - kernel widths `{1, 3, 5, 7, 9, 15}` — degenerate, small-odd, and the
//!   paper ensemble's sizes;
//! - window lengths `1..80` against spans up to 15, so all-edge windows
//!   (`l < span`), mixed edge/interior, and interior-dominated windows
//!   all occur;
//! - batch sizes `{1, 4, 17}` — singleton, the 4-row register block, and
//!   a remainder-row count.
//!
//! The f32 comparison is 1e-6-relative (FMA's fused rounding is the only
//! permitted divergence); the int8 path must be **bit-identical** across
//! dispatches because integer accumulation is associative.

use ds_neural::batchnorm::BatchNorm1d;
use ds_neural::conv::Conv1d;
use ds_neural::frozen::FrozenConv;
use ds_neural::quant::quantize_weights_per_channel;
use ds_neural::simd::{self, SimdMode};
use ds_neural::tensor::Tensor;
use ds_neural::{FrozenResNet, InferenceArena, ResNet, ResNetConfig};
use proptest::prelude::*;
use std::sync::Mutex;

/// `simd::set_mode` is process-global; tests that toggle it serialize.
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// A folded conv with BatchNorm statistics moved off their init values,
/// so the folded weights are a non-trivial function of both layers.
fn folded_conv(in_ch: usize, out_ch: usize, kernel: usize, seed: u64) -> FrozenConv {
    let conv = Conv1d::new(in_ch, out_ch, kernel, seed);
    let mut bn = BatchNorm1d::new(out_ch);
    for oc in 0..out_ch {
        bn.running_mean[oc] = (oc as f32 * 0.37).sin() * 0.5;
        bn.running_var[oc] = 1.0 + (oc as f32 * 0.61).cos().abs();
        bn.gamma[oc] = 1.0 + (oc as f32 * 0.23).sin() * 0.3;
        bn.beta[oc] = (oc as f32 * 0.41).cos() * 0.2;
    }
    FrozenConv::fold(&conv, &bn)
}

/// Run `conv` once under each dispatch, returning the two outputs.
fn both_dispatches(
    conv: &FrozenConv,
    x: &[f32],
    batch: usize,
    l: usize,
    out_ch: usize,
    relu: bool,
) -> (Vec<f32>, Vec<f32>) {
    let mut y_scalar = vec![0.0f32; batch * out_ch * l];
    let mut y_simd = vec![0.0f32; batch * out_ch * l];
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    simd::set_mode(Some(SimdMode::Scalar));
    conv.infer_into(x, batch, l, &mut y_scalar, relu);
    // On hosts without AVX2 this falls back to scalar and the comparison
    // is trivially exact — the property is still vacuously safe there.
    simd::set_mode(Some(SimdMode::Avx2));
    conv.infer_into(x, batch, l, &mut y_simd, relu);
    simd::set_mode(None);
    (y_scalar, y_simd)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The vectorized f32 kernel agrees with the scalar twin to
    /// 1e-6-relative at every output position — edges, interior, and
    /// remainder rows alike.
    #[test]
    fn f32_kernel_matches_scalar_twin(
        kernel in prop::sample::select(vec![1usize, 3, 5, 7, 9, 15]),
        batch in prop::sample::select(vec![1usize, 4, 17]),
        in_ch in 1usize..4,
        out_ch in 1usize..6,
        l in 1usize..80,
        relu in prop::sample::select(vec![true, false]),
        seed in 0u64..1_000,
        values in prop::collection::vec(-3.0f32..3.0, 16..64),
    ) {
        let conv = folded_conv(in_ch, out_ch, kernel, seed);
        let x: Vec<f32> = (0..batch * in_ch * l)
            .map(|i| {
                values[i % values.len()]
                    + ((i / values.len()) as f32 * 0.13).sin() * 0.01
            })
            .collect();
        let (y_scalar, y_simd) = both_dispatches(&conv, &x, batch, l, out_ch, relu);
        for (i, (a, b)) in y_scalar.iter().zip(&y_simd).enumerate() {
            let tol = 1e-6 * a.abs().max(b.abs()).max(1.0);
            prop_assert!(
                (a - b).abs() <= tol,
                "position {}: scalar {} vs simd {} (k={}, b={}, l={})",
                i, a, b, kernel, batch, l
            );
        }
    }

    /// Per-output-channel int8 scales: the round-trip error of every
    /// weight is bounded by half a quantization step of its own channel,
    /// and scales are monotone in the channel's max-abs range (a larger
    /// channel never gets a finer step than a smaller one).
    #[test]
    fn per_channel_scales_are_monotone_and_bound_roundtrip(
        out_ch in 1usize..8,
        kernel in 1usize..16,
        in_ch in 1usize..4,
        values in prop::collection::vec(-50.0f32..50.0, 8..64),
    ) {
        let per = in_ch * kernel;
        let weight: Vec<f32> = (0..out_ch * per)
            .map(|i| values[i % values.len()] * (1.0 + i as f32 * 0.01))
            .collect();
        let (wq, scales) = quantize_weights_per_channel(&weight, out_ch, per);
        prop_assert_eq!(wq.len(), weight.len());
        prop_assert_eq!(scales.len(), out_ch);
        for oc in 0..out_ch {
            prop_assert!(scales[oc] > 0.0);
            for j in 0..per {
                let w = weight[oc * per + j];
                let deq = wq[oc * per + j] as f32 * scales[oc];
                prop_assert!(
                    (w - deq).abs() <= scales[oc] * 0.5 + 1e-6,
                    "oc {} j {}: {} round-tripped to {} (scale {})",
                    oc, j, w, deq, scales[oc]
                );
            }
        }
        let maxabs: Vec<f32> = (0..out_ch)
            .map(|oc| {
                weight[oc * per..(oc + 1) * per]
                    .iter()
                    .fold(0.0f32, |m, &v| m.max(v.abs()))
            })
            .collect();
        for a in 0..out_ch {
            for b in 0..out_ch {
                if maxabs[a] < maxabs[b] {
                    prop_assert!(
                        scales[a] <= scales[b],
                        "channel {} (maxabs {}) got scale {} > channel {} (maxabs {}) scale {}",
                        a, maxabs[a], scales[a], b, maxabs[b], scales[b]
                    );
                }
            }
        }
    }
}

proptest! {
    // Each case folds, calibrates, and quantizes a whole network — fewer
    // cases keep the suite fast while still varying seeds and batches.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The int8 serving path is **bit-identical** across dispatches:
    /// integer accumulation is associative, and the dequant epilogues
    /// share one rounding order by construction.
    #[test]
    fn int8_predictions_are_dispatch_invariant(
        seed in 0u64..50,
        batch in prop::sample::select(vec![1usize, 3]),
        kernel in prop::sample::select(vec![5usize, 9]),
    ) {
        const WINDOW: usize = 48;
        let net = ResNet::new(ResNetConfig {
            in_channels: 1,
            channels: vec![4, 8],
            kernel,
            num_classes: 2,
            seed,
        });
        let frozen = FrozenResNet::freeze(&net);
        let calib_data: Vec<f32> = (0..4 * WINDOW)
            .map(|i| ((i as f32 * 0.21).sin() * 1.5) + ((i % 13) as f32 * 0.05))
            .collect();
        let calib = Tensor::from_data(4, 1, WINDOW, calib_data);
        let quant = frozen.quantize(&calib);
        let x_data: Vec<f32> = (0..batch * WINDOW)
            .map(|i| ((i as f32 * 0.17).cos() * 1.2) + ((i % 7) as f32 * 0.1))
            .collect();
        let x = Tensor::from_data(batch, 1, WINDOW, x_data);

        let mut arena = InferenceArena::new();
        let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        simd::set_mode(Some(SimdMode::Scalar));
        quant.predict_into(&x, &mut arena);
        let scalar_probs: Vec<u32> = arena.probs().iter().map(|p| p.to_bits()).collect();
        simd::set_mode(Some(SimdMode::Avx2));
        quant.predict_into(&x, &mut arena);
        let simd_probs: Vec<u32> = arena.probs().iter().map(|p| p.to_bits()).collect();
        simd::set_mode(None);
        prop_assert_eq!(scalar_probs, simd_probs);
    }
}

//! Property tests for the SIMD dispatch layer: the vectorized frozen
//! conv kernel must agree with its scalar determinism twin everywhere.
//!
//! Coverage axes:
//! - kernel widths `{1, 3, 5, 7, 9, 15}` — degenerate, small-odd, and the
//!   paper ensemble's sizes;
//! - window lengths `1..80` against spans up to 15, so all-edge windows
//!   (`l < span`), mixed edge/interior, and interior-dominated windows
//!   all occur;
//! - batch sizes `{1, 4, 17}` — singleton, the 4-row register block, and
//!   a remainder-row count.
//!
//! The comparison is 1e-6-relative (FMA's fused rounding is the only
//! permitted divergence).

use ds_neural::batchnorm::BatchNorm1d;
use ds_neural::conv::Conv1d;
use ds_neural::frozen::FrozenConv;
use ds_neural::simd::{self, SimdMode};
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
}

//! Runtime-dispatched SIMD kernels for the frozen serving path.
//!
//! The scalar kernels in [`crate::conv`] stay the source of truth: they
//! are the bit-identical determinism twins the ds-par contract is built
//! on, and every SIMD path here is gated against them by the frozen
//! golden tests (logits within `1e-4`, zero decision flips) and the
//! `simd_props` property suite (elementwise agreement within `1e-6`
//! relative). The split mirrors ds-par's seq/par twin contract: the
//! optimized path may re-round (FMA contracts mul+add into one rounding)
//! but may never change a decision.
//!
//! Dispatch is resolved once per process: `DS_SIMD=off` (or `scalar`/`0`)
//! forces the scalar twins; anything else probes the host with
//! `is_x86_feature_detected!` and uses the AVX2/FMA f32x8 kernels when
//! available. [`set_mode`] overrides programmatically (the property tests
//! compare both paths in one process). Non-x86_64 builds compile to the
//! scalar path unconditionally.
//!
//! Two kernel families live here:
//!
//! - **f32 conv rows** ([`frozen_conv_rows`]): the frozen `[4 output
//!   rows] × [all input channels]` accumulation, vectorized over eight
//!   adjacent output positions. Each tap broadcast feeds four f32x8 FMA
//!   accumulators, so one weight load performs 32 multiply-accumulates —
//!   against the scalar kernel's two positions per weight load. Per
//!   element, taps still accumulate in ascending `(ic, k)` order, so the
//!   only numeric difference from the scalar twin is FMA's single
//!   rounding.
//! - **int8 conv rows** ([`quant_conv_rows`]): the quantized variant —
//!   i8×i8 products accumulated in i32 lanes. Integer addition is
//!   associative, and the f32 dequantization epilogue performs the same
//!   two-rounding `acc·scale + bias` per element as the scalar twin, so
//!   the SIMD int8 path is **bit-identical** to the scalar int8 path
//!   (asserted by the property tests), not merely within tolerance.
//!
//! Both families compute whole rows only. Streaming reuses work per
//! window (`ds_camal::StreamingCamal`), never per conv position: every
//! window is z-normalized on its own, so no conv output outlives the
//! window it was computed for.

use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable selecting the kernel path (`off`/`scalar`/`0`
/// force the scalar twins; unset or anything else auto-detects).
pub const ENV_VAR: &str = "DS_SIMD";

/// Which kernel family the process dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Scalar determinism twins only.
    Scalar,
    /// AVX2 + FMA f32x8 / i32x8 kernels.
    Avx2,
}

const UNRESOLVED: u8 = 0;
const SCALAR: u8 = 1;
const AVX2: u8 = 2;

/// Cached dispatch decision; `UNRESOLVED` until first use.
static MODE: AtomicU8 = AtomicU8::new(UNRESOLVED);

fn detect() -> SimdMode {
    if let Ok(v) = std::env::var(ENV_VAR) {
        let v = v.trim().to_ascii_lowercase();
        if v == "off" || v == "scalar" || v == "0" {
            return SimdMode::Scalar;
        }
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return SimdMode::Avx2;
        }
    }
    SimdMode::Scalar
}

/// The resolved kernel path (detects and caches on first call).
pub fn mode() -> SimdMode {
    match MODE.load(Ordering::Relaxed) {
        SCALAR => SimdMode::Scalar,
        AVX2 => SimdMode::Avx2,
        _ => {
            let m = detect();
            MODE.store(
                match m {
                    SimdMode::Scalar => SCALAR,
                    SimdMode::Avx2 => AVX2,
                },
                Ordering::Relaxed,
            );
            m
        }
    }
}

/// Overrides the dispatch for the rest of the process (`None` re-resolves
/// `DS_SIMD` + feature detection on next use). Forcing [`SimdMode::Avx2`]
/// on a host without AVX2 is ignored — the scalar twins run instead.
pub fn set_mode(mode: Option<SimdMode>) {
    let value = match mode {
        None => UNRESOLVED,
        Some(SimdMode::Scalar) => SCALAR,
        Some(SimdMode::Avx2) => {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
                {
                    AVX2
                } else {
                    SCALAR
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                SCALAR
            }
        }
    };
    MODE.store(value, Ordering::Relaxed);
}

/// Human-readable dispatch label for reports and CI greps.
pub fn label() -> &'static str {
    match mode() {
        SimdMode::Scalar => "scalar",
        SimdMode::Avx2 => "avx2",
    }
}

/// One scalar output position for up to four rows of a frozen conv block:
/// `bias + Σ_ic Σ_k w·x` with a per-tap range check (zero padding). Used
/// by the SIMD paths for the padded edges and the vector-width remainder,
/// and for output-channel remainder rows. Tap order matches the vector
/// interior (ascending `ic`, then `k`).
#[allow(clippy::too_many_arguments)]
#[inline]
fn scalar_positions(
    weight: &[f32],
    bias: &[f32],
    in_channels: usize,
    kernel: usize,
    pad: usize,
    dilation: usize,
    x_rows: &[f32],
    y_rows: &mut [f32],
    l: usize,
    relu: bool,
    oc0: usize,
    rows: usize,
    t0: usize,
    t1: usize,
) {
    for t in t0..t1 {
        for r in 0..rows {
            let oc = oc0 + r;
            let mut acc = bias[oc];
            for ic in 0..in_channels {
                let x_row = &x_rows[ic * l..(ic + 1) * l];
                let w = &weight[(oc * in_channels + ic) * kernel..][..kernel];
                for (kk, &wv) in w.iter().enumerate() {
                    let s = t as isize + (kk * dilation) as isize - pad as isize;
                    if s >= 0 && (s as usize) < l {
                        acc += wv * x_row[s as usize];
                    }
                }
            }
            y_rows[r * l + t] = if relu { acc.max(0.0) } else { acc };
        }
    }
}

/// Vectorized frozen conv forward over one batch row: fill `y_rows`
/// (`[out_channels, l]`) from `x_rows` (`[in_channels, l]`), bias
/// included and ReLU optionally fused. Returns `false` without touching
/// `y_rows` when the SIMD path is disabled or unavailable — the caller
/// falls back to the scalar twins.
#[allow(clippy::too_many_arguments)]
pub(crate) fn frozen_conv_rows(
    weight: &[f32],
    bias: &[f32],
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    pad: usize,
    dilation: usize,
    x_rows: &[f32],
    y_rows: &mut [f32],
    l: usize,
    relu: bool,
) -> bool {
    if mode() != SimdMode::Avx2 {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `mode()` only reports Avx2 after `is_x86_feature_detected!`
        // confirmed avx2+fma on this host.
        unsafe {
            f32_rows_avx2(
                weight,
                bias,
                in_channels,
                out_channels,
                kernel,
                pad,
                dilation,
                x_rows,
                y_rows,
                l,
                relu,
            );
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// AVX2/FMA interior kernel: four output rows × eight adjacent positions
/// per step. Every broadcast weight feeds four f32x8 FMA chains (32 MACs
/// per weight load); per element the taps accumulate in ascending
/// `(ic, k)` order, exactly like the scalar twin, with FMA's fused
/// rounding as the only numeric difference.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn f32_rows_avx2(
    weight: &[f32],
    bias: &[f32],
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    pad: usize,
    dilation: usize,
    x_rows: &[f32],
    y_rows: &mut [f32],
    l: usize,
    relu: bool,
) {
    use std::arch::x86_64::*;
    let span = (kernel - 1) * dilation;
    let t_lo = pad.min(l);
    let t_hi = (l + pad).saturating_sub(span).clamp(t_lo, l);
    let zero = _mm256_setzero_ps();
    let mut oc = 0;
    while oc < out_channels {
        let rows = (out_channels - oc).min(4);
        let block = &mut y_rows[oc * l..(oc + rows) * l];
        if rows == 4 {
            let (b0, b1, b2, b3) = (bias[oc], bias[oc + 1], bias[oc + 2], bias[oc + 3]);
            let mut t = t_lo;
            while t + 8 <= t_hi {
                let mut a0 = _mm256_set1_ps(b0);
                let mut a1 = _mm256_set1_ps(b1);
                let mut a2 = _mm256_set1_ps(b2);
                let mut a3 = _mm256_set1_ps(b3);
                for ic in 0..in_channels {
                    let x_base = x_rows.as_ptr().add(ic * l + t - pad);
                    let w_base = (oc * in_channels + ic) * kernel;
                    for kk in 0..kernel {
                        let xv = _mm256_loadu_ps(x_base.add(kk * dilation));
                        let w_at = |r: usize| {
                            _mm256_set1_ps(
                                *weight.get_unchecked(w_base + r * in_channels * kernel + kk),
                            )
                        };
                        a0 = _mm256_fmadd_ps(w_at(0), xv, a0);
                        a1 = _mm256_fmadd_ps(w_at(1), xv, a1);
                        a2 = _mm256_fmadd_ps(w_at(2), xv, a2);
                        a3 = _mm256_fmadd_ps(w_at(3), xv, a3);
                    }
                }
                if relu {
                    a0 = _mm256_max_ps(a0, zero);
                    a1 = _mm256_max_ps(a1, zero);
                    a2 = _mm256_max_ps(a2, zero);
                    a3 = _mm256_max_ps(a3, zero);
                }
                let y = block.as_mut_ptr().add(t);
                _mm256_storeu_ps(y, a0);
                _mm256_storeu_ps(y.add(l), a1);
                _mm256_storeu_ps(y.add(2 * l), a2);
                _mm256_storeu_ps(y.add(3 * l), a3);
                t += 8;
            }
            // Padded edges + the sub-vector interior remainder.
            scalar_positions(
                weight,
                bias,
                in_channels,
                kernel,
                pad,
                dilation,
                x_rows,
                block,
                l,
                relu,
                oc,
                4,
                0,
                t_lo,
            );
            scalar_positions(
                weight,
                bias,
                in_channels,
                kernel,
                pad,
                dilation,
                x_rows,
                block,
                l,
                relu,
                oc,
                4,
                t,
                l,
            );
        } else {
            scalar_positions(
                weight,
                bias,
                in_channels,
                kernel,
                pad,
                dilation,
                x_rows,
                block,
                l,
                relu,
                oc,
                rows,
                0,
                l,
            );
        }
        oc += rows;
    }
}

/// One scalar output position for up to four rows of a quantized conv
/// block: i32 accumulation over in-range taps, then the two-rounding
/// dequantization epilogue `acc·combined + bias`. Shared by the scalar
/// twin and the SIMD edge handling, so both paths are bit-identical.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn quant_scalar_positions(
    wq: &[i8],
    combined: &[f32],
    bias: &[f32],
    in_channels: usize,
    kernel: usize,
    pad: usize,
    dilation: usize,
    xq_rows: &[i8],
    y_rows: &mut [f32],
    l: usize,
    relu: bool,
    oc0: usize,
    rows: usize,
    t0: usize,
    t1: usize,
) {
    for t in t0..t1 {
        for r in 0..rows {
            let oc = oc0 + r;
            let mut acc = 0i32;
            for ic in 0..in_channels {
                let x_row = &xq_rows[ic * l..(ic + 1) * l];
                let w = &wq[(oc * in_channels + ic) * kernel..][..kernel];
                for (kk, &wv) in w.iter().enumerate() {
                    let s = t as isize + (kk * dilation) as isize - pad as isize;
                    if s >= 0 && (s as usize) < l {
                        acc += wv as i32 * x_row[s as usize] as i32;
                    }
                }
            }
            let v = acc as f32 * combined[oc] + bias[oc];
            y_rows[r * l + t] = if relu { v.max(0.0) } else { v };
        }
    }
}

/// Vectorized quantized conv forward over one batch row (i32 lanes, f32
/// dequant epilogue). Returns `false` when the SIMD path is disabled —
/// the caller runs the scalar twin, which is bit-identical.
#[allow(clippy::too_many_arguments)]
pub(crate) fn quant_conv_rows(
    wq: &[i8],
    combined: &[f32],
    bias: &[f32],
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    pad: usize,
    dilation: usize,
    xq_rows: &[i8],
    y_rows: &mut [f32],
    l: usize,
    relu: bool,
) -> bool {
    if mode() != SimdMode::Avx2 {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: gated on the cached avx2+fma detection, as above.
        unsafe {
            quant_rows_avx2(
                wq,
                combined,
                bias,
                in_channels,
                out_channels,
                kernel,
                pad,
                dilation,
                xq_rows,
                y_rows,
                l,
                relu,
            );
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// AVX2 int8 interior kernel: four output rows × eight positions, i8
/// taps widened to i32 lanes and multiply-accumulated exactly (integer
/// adds are associative, so lane order cannot change the result).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn quant_rows_avx2(
    wq: &[i8],
    combined: &[f32],
    bias: &[f32],
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    pad: usize,
    dilation: usize,
    xq_rows: &[i8],
    y_rows: &mut [f32],
    l: usize,
    relu: bool,
) {
    use std::arch::x86_64::*;
    let span = (kernel - 1) * dilation;
    let t_lo = pad.min(l);
    let t_hi = (l + pad).saturating_sub(span).clamp(t_lo, l);
    let zero = _mm256_setzero_ps();
    let mut oc = 0;
    while oc < out_channels {
        let rows = (out_channels - oc).min(4);
        let block = &mut y_rows[oc * l..(oc + rows) * l];
        if rows == 4 {
            let mut t = t_lo;
            while t + 8 <= t_hi {
                let mut a0 = _mm256_setzero_si256();
                let mut a1 = _mm256_setzero_si256();
                let mut a2 = _mm256_setzero_si256();
                let mut a3 = _mm256_setzero_si256();
                for ic in 0..in_channels {
                    let x_base = xq_rows.as_ptr().add(ic * l + t - pad);
                    let w_base = (oc * in_channels + ic) * kernel;
                    for kk in 0..kernel {
                        // Widen 8 adjacent i8 inputs to i32 lanes.
                        let raw = _mm_loadl_epi64(x_base.add(kk * dilation) as *const __m128i);
                        let xv = _mm256_cvtepi8_epi32(raw);
                        let w_at = |r: usize| {
                            _mm256_set1_epi32(
                                *wq.get_unchecked(w_base + r * in_channels * kernel + kk) as i32,
                            )
                        };
                        a0 = _mm256_add_epi32(a0, _mm256_mullo_epi32(xv, w_at(0)));
                        a1 = _mm256_add_epi32(a1, _mm256_mullo_epi32(xv, w_at(1)));
                        a2 = _mm256_add_epi32(a2, _mm256_mullo_epi32(xv, w_at(2)));
                        a3 = _mm256_add_epi32(a3, _mm256_mullo_epi32(xv, w_at(3)));
                    }
                }
                // Dequant epilogue: mul then add (two roundings), matching
                // the scalar twin's `acc as f32 * combined + bias`.
                let y = block.as_mut_ptr().add(t);
                let store = |ptr: *mut f32, acc: __m256i, r: usize| {
                    let f = _mm256_cvtepi32_ps(acc);
                    let mut v = _mm256_add_ps(
                        _mm256_mul_ps(f, _mm256_set1_ps(combined[oc + r])),
                        _mm256_set1_ps(bias[oc + r]),
                    );
                    if relu {
                        v = _mm256_max_ps(v, zero);
                    }
                    _mm256_storeu_ps(ptr, v);
                };
                store(y, a0, 0);
                store(y.add(l), a1, 1);
                store(y.add(2 * l), a2, 2);
                store(y.add(3 * l), a3, 3);
                t += 8;
            }
            quant_scalar_positions(
                wq,
                combined,
                bias,
                in_channels,
                kernel,
                pad,
                dilation,
                xq_rows,
                block,
                l,
                relu,
                oc,
                4,
                0,
                t_lo,
            );
            quant_scalar_positions(
                wq,
                combined,
                bias,
                in_channels,
                kernel,
                pad,
                dilation,
                xq_rows,
                block,
                l,
                relu,
                oc,
                4,
                t,
                l,
            );
        } else {
            quant_scalar_positions(
                wq,
                combined,
                bias,
                in_channels,
                kernel,
                pad,
                dilation,
                xq_rows,
                block,
                l,
                relu,
                oc,
                rows,
                0,
                l,
            );
        }
        oc += rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_matches_mode() {
        set_mode(Some(SimdMode::Scalar));
        assert_eq!(label(), "scalar");
        assert_eq!(mode(), SimdMode::Scalar);
        set_mode(None);
        // Whatever the host resolves to, the label agrees with the mode.
        let resolved = mode();
        assert_eq!(
            label(),
            match resolved {
                SimdMode::Scalar => "scalar",
                SimdMode::Avx2 => "avx2",
            }
        );
        set_mode(None);
    }

    #[test]
    fn f32_rows_agree_with_scalar_positions() {
        if !std::arch::is_x86_feature_detected!("avx2")
            || !std::arch::is_x86_feature_detected!("fma")
        {
            return; // nothing to compare on this host
        }
        for kernel in [1usize, 3, 5, 9, 15] {
            for l in [5usize, 24, 40] {
                for (ci, co) in [(1usize, 4usize), (3, 4), (2, 6)] {
                    let pad = (kernel - 1) / 2;
                    let weight: Vec<f32> = (0..co * ci * kernel)
                        .map(|i| ((i * 37 + 11) % 23) as f32 / 46.0 - 0.25)
                        .collect();
                    let bias: Vec<f32> = (0..co).map(|i| i as f32 * 0.05 - 0.1).collect();
                    let x: Vec<f32> = (0..ci * l)
                        .map(|i| ((i * 29 % 17) as f32 - 8.0) / 16.0)
                        .collect();
                    for relu in [false, true] {
                        let mut simd = vec![0.0f32; co * l];
                        let mut scalar = vec![0.0f32; co * l];
                        set_mode(Some(SimdMode::Avx2));
                        assert!(frozen_conv_rows(
                            &weight, &bias, ci, co, kernel, pad, 1, &x, &mut simd, l, relu
                        ));
                        set_mode(None);
                        let mut oc = 0;
                        while oc < co {
                            let rows = (co - oc).min(4);
                            scalar_positions(
                                &weight,
                                &bias,
                                ci,
                                kernel,
                                pad,
                                1,
                                &x,
                                &mut scalar[oc * l..(oc + rows) * l],
                                l,
                                relu,
                                oc,
                                rows,
                                0,
                                l,
                            );
                            oc += rows;
                        }
                        for (a, b) in simd.iter().zip(&scalar) {
                            assert!(
                                (a - b).abs() <= 1e-6 * b.abs().max(1.0),
                                "k={kernel} l={l} ci={ci} co={co}: {a} vs {b}"
                            );
                        }
                    }
                }
            }
        }
    }
}

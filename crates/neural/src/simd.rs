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
//! One kernel family lives here: **f32 conv rows** (`frozen_conv_rows`),
//! the frozen `[4 output rows] × [all input channels]` accumulation,
//! vectorized over sixteen adjacent output positions. Each tap broadcast
//! feeds eight f32x8 FMA accumulators, so one weight load performs 64
//! multiply-accumulates — against the scalar kernel's two positions per
//! weight load. Every position of a row runs the vector kernel: a step
//! whose taps reach into the zero padding reads a zero-filled stack copy
//! of its input span. Per element, taps still accumulate in ascending
//! `(ic, k)` order, so the only numeric difference from the scalar twin
//! is FMA's single rounding.
//!
//! The kernel computes whole rows only. Streaming reuses work per
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
    /// AVX2 + FMA f32x8 kernels.
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
/// by the SIMD path for output-channel remainder rows and for convolutions
/// too wide to stage an edge span ([`EDGE_SEG`]). Tap order matches the
/// vector kernel (ascending `ic`, then `k`).
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
    // The kernel's unchecked loads and stores rely on these lengths.
    assert!(
        weight.len() >= out_channels * in_channels * kernel
            && bias.len() >= out_channels
            && x_rows.len() >= in_channels * l
            && y_rows.len() >= out_channels * l,
        "conv row buffers are smaller than the layer shape"
    );
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `mode()` only reports Avx2 after `is_x86_feature_detected!`
        // confirmed avx2+fma on this host; the buffer lengths are asserted
        // above.
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

/// Output positions one step of the AVX2 kernel computes per row: two
/// f32x8 vectors, so each output row keeps two independent FMA chains.
const STEP: usize = 16;

/// Longest zero-padded input span an edge step of the AVX2 kernel stages
/// on the stack: [`STEP`] positions plus the taps' reach, `(k - 1) · d`.
/// Wider convolutions take the scalar path for every position.
const EDGE_SEG: usize = 144;

/// Fill `seg` with `x_row[t - pad ..]`, reading zeros wherever that index
/// falls outside the row: the input a step starting at output `t` sees
/// through the convolution's zero padding.
#[inline]
fn edge_segment(x_row: &[f32], t: usize, pad: usize, seg: &mut [f32]) {
    let n = seg.len() as isize;
    let s0 = t as isize - pad as isize;
    let lo = (-s0).clamp(0, n) as usize;
    let hi = (x_row.len() as isize - s0).clamp(lo as isize, n) as usize;
    seg.fill(0.0);
    let from = (s0 + lo as isize) as usize;
    seg[lo..hi].copy_from_slice(&x_row[from..from + hi - lo]);
}

/// AVX2/FMA kernel: four output rows × [`STEP`] adjacent positions per
/// step, the padded edges and the row's last partial step included.
/// Every broadcast weight feeds eight f32x8 FMA chains (64 MACs per
/// weight load); per element the taps accumulate in ascending `(ic, k)`
/// order, exactly like the scalar twin (a zero-padded tap adds an exact
/// zero), with FMA's fused rounding as the only numeric difference.
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
        if rows == 4 && STEP + span <= EDGE_SEG {
            // Steps whose taps reach past either end of the row read a
            // zero-padded copy of their input span instead.
            let mut seg = [0.0f32; EDGE_SEG];
            let mut t = 0;
            while t < l {
                let interior = t >= t_lo && t + STEP <= t_hi;
                // acc[r][h]: row `oc + r`, positions `t + 8h .. t + 8h + 8`.
                let mut acc = [[zero; 2]; 4];
                for (r, row) in acc.iter_mut().enumerate() {
                    *row = [_mm256_set1_ps(bias[oc + r]); 2];
                }
                // In bounds: the loads read `x_base[0 .. span + STEP]`. An
                // interior step has `t >= pad` and `t + STEP <= t_hi`, so
                // that is `x_row[t - pad .. t - pad + span + STEP]`, inside
                // the row; an edge step reads `seg[.. STEP + span]`.
                for ic in 0..in_channels {
                    let x_base = if interior {
                        x_rows.as_ptr().add(ic * l + t - pad)
                    } else {
                        let x_row = &x_rows[ic * l..(ic + 1) * l];
                        edge_segment(x_row, t, pad, &mut seg[..STEP + span]);
                        seg.as_ptr()
                    };
                    let w_base = (oc * in_channels + ic) * kernel;
                    for kk in 0..kernel {
                        let x0 = _mm256_loadu_ps(x_base.add(kk * dilation));
                        let x1 = _mm256_loadu_ps(x_base.add(kk * dilation + 8));
                        for (r, row) in acc.iter_mut().enumerate() {
                            let w = _mm256_set1_ps(
                                *weight.get_unchecked(w_base + r * in_channels * kernel + kk),
                            );
                            row[0] = _mm256_fmadd_ps(w, x0, row[0]);
                            row[1] = _mm256_fmadd_ps(w, x1, row[1]);
                        }
                    }
                }
                // A row's last step may be partial: it goes through `lanes`,
                // and only its valid positions are kept.
                let full = t + STEP <= l;
                let mut lanes = [0.0f32; STEP];
                for (r, row) in acc.iter().enumerate() {
                    // A full step's stores end at `r * l + t + STEP <= (r + 1) * l`.
                    let out = if full {
                        block.as_mut_ptr().add(r * l + t)
                    } else {
                        lanes.as_mut_ptr()
                    };
                    for (h, &a) in row.iter().enumerate() {
                        let a = if relu { _mm256_max_ps(a, zero) } else { a };
                        _mm256_storeu_ps(out.add(8 * h), a);
                    }
                    if !full {
                        block[r * l + t..(r + 1) * l].copy_from_slice(&lanes[..l - t]);
                    }
                }
                t += STEP;
            }
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
            for l in [5usize, 16, 24, 40, 73] {
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

//! Runtime-dispatched SIMD kernels for the conv forward (frozen plans,
//! training and the mutable path) and for training's conv backward.
//!
//! The scalar kernels in [`crate::conv`] stay the source of truth: they
//! are the bit-identical determinism twins the ds-par contract is built
//! on. The serving path may re-round (FMA contracts mul+add into one
//! rounding) but may never change a decision: the frozen golden tests
//! hold its logits within `1e-4` with zero decision flips, and the
//! `simd_props` property suite holds each element within `1e-6`
//! relative. The training kernels may not even re-round: a rounding
//! difference would compound through every later weight update, so they
//! are bit-exact twins.
//!
//! Dispatch is resolved once per process: `DS_SIMD=off` (or `scalar`/`0`)
//! forces the scalar twins; anything else probes the host with
//! `is_x86_feature_detected!` and uses the AVX2/FMA f32x8 kernels when
//! available. [`set_mode`] overrides programmatically (the property tests
//! compare both paths in one process). Non-x86_64 builds compile to the
//! scalar path unconditionally.
//!
//! The conv forward is one vector kernel (`conv_block`) over a
//! `[4 output rows] × [all input channels]` block, vectorized over
//! sixteen adjacent output positions. Each tap broadcast feeds eight
//! f32x8 accumulators, so one weight load performs 64 multiply-adds —
//! against the scalar kernels' one to eight positions per weight load. Every
//! position of a row runs the vector kernel: a step whose taps reach into
//! the zero padding reads a zero-filled stack copy of its input span. Per
//! element, taps accumulate in ascending `(ic, k)` order after the bias,
//! as in the scalar twins. The kernel has two instantiations
//! (`Rounding`): FMA for the frozen plans, and a multiply then an add
//! for `Conv1d`, which makes the training forward bit-identical to its
//! scalar twin. Dispatch is per block: a remainder block of fewer than
//! four rows, or a span too wide to stage, runs the caller's scalar twin
//! (`conv::conv_rows`).
//!
//! The kernel computes whole rows only. Streaming reuses work per
//! window (`ds_camal::StreamingCamal`), never per conv position: every
//! window is z-normalized on its own, so no conv output outlives the
//! window it was computed for.
//!
//! The backward pair is **conv backward rows** (`conv_backward_row`):
//! the input gradient, four input rows × sixteen positions per step over
//! a zero-padded copy of the output gradient, and the weight gradient,
//! one lane per tap over a zero-padded copy of the input. Both multiply
//! and add separately, as the scalar twins do, and dispatch through the
//! same [`mode`]; dilated layers keep the scalar twins.

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

fn detected() -> u8 {
    match detect() {
        SimdMode::Scalar => SCALAR,
        SimdMode::Avx2 => AVX2,
    }
}

/// The resolved kernel path (detects and caches on first call).
pub fn mode() -> SimdMode {
    let mut value = MODE.load(Ordering::Relaxed);
    if value == UNRESOLVED {
        let detected = detected();
        // A mode [`set_mode`] stored since the load wins over detection.
        value =
            match MODE.compare_exchange(UNRESOLVED, detected, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => detected,
                Err(current) => current,
            };
    }
    if value == AVX2 {
        SimdMode::Avx2
    } else {
        SimdMode::Scalar
    }
}

/// Overrides the dispatch for the rest of the process (`None` re-resolves
/// `DS_SIMD` + feature detection here, so the next kernel call neither
/// reads the environment nor allocates). Forcing [`SimdMode::Avx2`] on a
/// host without AVX2 is ignored — the scalar twins run instead.
pub fn set_mode(mode: Option<SimdMode>) {
    let value = match mode {
        None => detected(),
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

/// How the vector conv forward rounds each tap's multiply-accumulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rounding {
    /// `_mm256_fmadd_ps`: one rounding per tap. The frozen plans, within
    /// `1e-6` relative of their scalar twin.
    Fused,
    /// `_mm256_mul_ps` then `_mm256_add_ps`: the product and the sum each
    /// round, as the scalar `a += w * x` does (Rust never fuses it).
    /// Training and the mutable path, bit-identical to their scalar twin.
    Separate,
}

/// Vectorized conv forward over one block of four output rows of one
/// batch row: fill `block` (`[4, l]`, output channels `oc .. oc + 4`)
/// from `x_rows` (`[in_channels, l]`), bias included and ReLU optionally
/// fused. Returns `false` without touching `block` when the SIMD path is
/// disabled or unavailable, or when the block is one the kernel does not
/// take: a remainder of fewer than four rows, or taps spanning more than
/// an edge step can stage (`STEP + (k - 1)·d > EDGE_SEG`). The caller
/// then runs its scalar twin on that block.
///
/// Per element the taps add in the scalar twin's order: the bias, then
/// ascending `(ic, k)`. A tap that reaches into the zero padding adds
/// `w · 0 = ±0` to a sum that starts at the bias and so is never `-0`
/// unless the bias is, which changes no bit (for finite weights). Under
/// [`Rounding::Separate`] the block is therefore bit-identical to the
/// scalar twin; under [`Rounding::Fused`] FMA's single rounding is the
/// only difference.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_block(
    rounding: Rounding,
    weight: &[f32],
    bias: &[f32],
    in_channels: usize,
    kernel: usize,
    pad: usize,
    dilation: usize,
    x_rows: &[f32],
    block: &mut [f32],
    l: usize,
    relu: bool,
    oc: usize,
) -> bool {
    if mode() != SimdMode::Avx2 || block.len() != 4 * l || STEP + (kernel - 1) * dilation > EDGE_SEG
    {
        return false;
    }
    // The kernel's unchecked loads and stores rely on these lengths.
    assert!(
        weight.len() >= (oc + 4) * in_channels * kernel
            && bias.len() >= oc + 4
            && x_rows.len() >= in_channels * l,
        "conv row buffers are smaller than the layer shape"
    );
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `mode()` only reports Avx2 after `is_x86_feature_detected!`
        // confirmed avx2+fma on this host; the buffer lengths are checked
        // above.
        unsafe {
            let run = match rounding {
                Rounding::Fused => f32_rows_avx2::<true>,
                Rounding::Separate => f32_rows_avx2::<false>,
            };
            run(
                &weight[oc * in_channels * kernel..],
                &bias[oc..],
                in_channels,
                kernel,
                pad,
                dilation,
                x_rows,
                block,
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
/// f32x8 vectors, so each output row keeps two independent chains.
const STEP: usize = 16;

/// Longest zero-padded input span an edge step of the AVX2 kernel stages
/// on the stack: [`STEP`] positions plus the taps' reach, `(k - 1) · d`.
/// Wider convolutions run the caller's scalar twin.
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

/// The AVX2 conv forward: four output rows (`weight` and `bias` start at
/// the block's first row) × [`STEP`] adjacent positions per step, the
/// padded edges and the row's last partial step included. Every broadcast
/// weight feeds eight f32x8 chains (64 multiply-accumulates per weight
/// load). `FMA` picks the instantiation ([`Rounding`]): fused
/// multiply-add, or a multiply then an add.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn f32_rows_avx2<const FMA: bool>(
    weight: &[f32],
    bias: &[f32],
    in_channels: usize,
    kernel: usize,
    pad: usize,
    dilation: usize,
    x_rows: &[f32],
    block: &mut [f32],
    l: usize,
    relu: bool,
) {
    use std::arch::x86_64::*;
    let span = (kernel - 1) * dilation;
    let t_lo = pad.min(l);
    let t_hi = (l + pad).saturating_sub(span).clamp(t_lo, l);
    let zero = _mm256_setzero_ps();
    // Steps whose taps reach past either end of the row read a
    // zero-padded copy of their input span instead.
    let mut seg = [0.0f32; EDGE_SEG];
    let mut t = 0;
    while t < l {
        let interior = t >= t_lo && t + STEP <= t_hi;
        // acc[r][h]: row `r`, positions `t + 8h .. t + 8h + 8`.
        let mut acc = [[zero; 2]; 4];
        for (r, row) in acc.iter_mut().enumerate() {
            *row = [_mm256_set1_ps(bias[r]); 2];
        }
        // In bounds: the loads read `x_base[0 .. span + STEP]`. An
        // interior step has `t >= pad` and `t + STEP <= t_hi`, so that is
        // `x_row[t - pad .. t - pad + span + STEP]`, inside the row; an
        // edge step reads `seg[.. STEP + span]`.
        for ic in 0..in_channels {
            let x_base = if interior {
                x_rows.as_ptr().add(ic * l + t - pad)
            } else {
                let x_row = &x_rows[ic * l..(ic + 1) * l];
                edge_segment(x_row, t, pad, &mut seg[..STEP + span]);
                seg.as_ptr()
            };
            let w_base = ic * kernel;
            for kk in 0..kernel {
                let x0 = _mm256_loadu_ps(x_base.add(kk * dilation));
                let x1 = _mm256_loadu_ps(x_base.add(kk * dilation + 8));
                for (r, row) in acc.iter_mut().enumerate() {
                    let w = _mm256_set1_ps(
                        *weight.get_unchecked(w_base + r * in_channels * kernel + kk),
                    );
                    if FMA {
                        row[0] = _mm256_fmadd_ps(w, x0, row[0]);
                        row[1] = _mm256_fmadd_ps(w, x1, row[1]);
                    } else {
                        row[0] = _mm256_add_ps(row[0], _mm256_mul_ps(w, x0));
                        row[1] = _mm256_add_ps(row[1], _mm256_mul_ps(w, x1));
                    }
                }
            }
        }
        // A row's last step may be partial: it goes through `lanes`, and
        // only its valid positions are kept.
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
}

/// Vectorized [`crate::conv::Conv1d`] backward over one batch row of a
/// dense (dilation 1) convolution: accumulate the input gradient into
/// `gi_rows` (`[in_channels, l]`) and the weight gradient into `gw`
/// (`[out_channels, in_channels, kernel]`) from the cached input `x_rows`
/// (`[in_channels, l]`) and the output gradient `g_rows`
/// (`[out_channels, l]`). Returns `false` without touching either output
/// when the SIMD path is disabled or unavailable — the caller runs the
/// scalar twins.
///
/// Like the [`Rounding::Separate`] forward, the result is
/// **bit-identical** to the scalar twins, so training reproduces the same
/// weights under either dispatch. Each element takes its products in the scalar order and
/// rounds every product and every sum separately (`_mm256_mul_ps` then
/// `_mm256_add_ps`, never FMA, matching the scalar `a += w * x`, which
/// Rust never fuses). The zero-padded copies make a tap the scalar
/// kernels skip add `w · 0 = ±0` to a sum that started at `+0`, which
/// can never be `-0`, so it changes no bit (for finite gradients). The
/// padded copies come from the [`crate::workspace`] pool.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_backward_row(
    weight: &[f32],
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    pad: usize,
    x_rows: &[f32],
    g_rows: &[f32],
    gi_rows: &mut [f32],
    gw: &mut [f32],
    l: usize,
) -> bool {
    if mode() != SimdMode::Avx2 {
        return false;
    }
    // The kernels' unchecked loads and stores rely on these lengths.
    assert!(
        weight.len() >= out_channels * in_channels * kernel
            && gw.len() >= out_channels * in_channels * kernel
            && x_rows.len() >= in_channels * l
            && gi_rows.len() >= in_channels * l
            && g_rows.len() >= out_channels * l
            && pad < kernel,
        "conv backward buffers are smaller than the layer shape"
    );
    #[cfg(target_arch = "x86_64")]
    {
        let span = kernel - 1;
        // `g` with `span - pad` zeros in front and room behind for the
        // row's last (possibly partial) step: position `s`, tap `kk`
        // reads `g_pad[s + span - kk] = g[s + pad - kk]`.
        let g_stride = l.next_multiple_of(STEP) + span;
        let mut g_pad = crate::workspace::take_buf(out_channels * g_stride);
        for (oc, g_row) in g_rows.chunks_exact(l).take(out_channels).enumerate() {
            g_pad[oc * g_stride + span - pad..][..l].copy_from_slice(g_row);
        }
        // `x` with `pad` zeros in front and room behind for the last tap
        // vector: lane `kk` at position `t` reads `x_pad[t + kk] =
        // x[t + kk - pad]`.
        let tap_vecs = kernel.div_ceil(8);
        let x_stride = l + 8 * tap_vecs - 1;
        let mut x_pad = crate::workspace::take_buf(in_channels * x_stride);
        for (ic, x_row) in x_rows.chunks_exact(l).take(in_channels).enumerate() {
            x_pad[ic * x_stride + pad..][..l].copy_from_slice(x_row);
        }
        // SAFETY: `mode()` only reports Avx2 after `is_x86_feature_detected!`
        // confirmed avx2 on this host; the buffer lengths are asserted
        // above and the padded copies are sized here.
        unsafe {
            grad_input_avx2(
                weight,
                in_channels,
                out_channels,
                kernel,
                &g_pad,
                g_stride,
                gi_rows,
                l,
            );
            grad_weight_avx2(
                in_channels,
                out_channels,
                kernel,
                &x_pad,
                x_stride,
                g_rows,
                gw,
                l,
            );
        }
        crate::workspace::recycle_buf(g_pad);
        crate::workspace::recycle_buf(x_pad);
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Input gradient, `gi[ic][s] += Σ_oc Σ_kk w[oc][ic][kk] ·
/// g[oc][s + pad - kk]`: four input rows × [`STEP`] positions per step,
/// the accumulators held in registers across every output channel. Per
/// element the products add in ascending `(oc, kk)` order, as the
/// scalar `accumulate_corr4`/`accumulate_corr1` passes do one `oc` at a
/// time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn grad_input_avx2(
    weight: &[f32],
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    g_pad: &[f32],
    g_stride: usize,
    gi_rows: &mut [f32],
    l: usize,
) {
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn rows<const R: usize>(
        weight: &[f32],
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        g_pad: &[f32],
        g_stride: usize,
        block: &mut [f32],
        l: usize,
        ic0: usize,
    ) {
        use std::arch::x86_64::*;
        let span = kernel - 1;
        let mut lanes = [[0.0f32; STEP]; R];
        let mut s = 0;
        while s < l {
            // A row's last step may be partial: it goes through `lanes`.
            let full = s + STEP <= l;
            let mut acc = [[_mm256_setzero_ps(); 2]; R];
            for (r, a) in acc.iter_mut().enumerate() {
                let src = if full {
                    block.as_ptr().add(r * l + s)
                } else {
                    lanes[r] = [0.0; STEP];
                    lanes[r][..l - s].copy_from_slice(&block[r * l + s..(r + 1) * l]);
                    lanes[r].as_ptr()
                };
                *a = [_mm256_loadu_ps(src), _mm256_loadu_ps(src.add(8))];
            }
            for oc in 0..out_channels {
                // In bounds: the loads read `g_pad[oc * g_stride + s ..
                // + span + STEP]`, and `s + STEP <= g_stride - span`.
                let g_base = g_pad.as_ptr().add(oc * g_stride + s + span);
                let w_base = (oc * in_channels + ic0) * kernel;
                for kk in 0..kernel {
                    let g0 = _mm256_loadu_ps(g_base.sub(kk));
                    let g1 = _mm256_loadu_ps(g_base.sub(kk).add(8));
                    for (r, a) in acc.iter_mut().enumerate() {
                        let w = _mm256_set1_ps(*weight.get_unchecked(w_base + r * kernel + kk));
                        a[0] = _mm256_add_ps(a[0], _mm256_mul_ps(w, g0));
                        a[1] = _mm256_add_ps(a[1], _mm256_mul_ps(w, g1));
                    }
                }
            }
            for (r, a) in acc.iter().enumerate() {
                // A full step's stores end at `r * l + s + STEP <= (r + 1) * l`.
                let dst = if full {
                    block.as_mut_ptr().add(r * l + s)
                } else {
                    lanes[r].as_mut_ptr()
                };
                _mm256_storeu_ps(dst, a[0]);
                _mm256_storeu_ps(dst.add(8), a[1]);
                if !full {
                    block[r * l + s..(r + 1) * l].copy_from_slice(&lanes[r][..l - s]);
                }
            }
            s += STEP;
        }
    }
    let mut ic = 0;
    while ic < in_channels {
        let n = (in_channels - ic).min(4);
        let block = &mut gi_rows[ic * l..(ic + n) * l];
        macro_rules! go {
            ($r:literal) => {
                rows::<$r>(
                    weight,
                    in_channels,
                    out_channels,
                    kernel,
                    g_pad,
                    g_stride,
                    block,
                    l,
                    ic,
                )
            };
        }
        match n {
            4 => go!(4),
            3 => go!(3),
            2 => go!(2),
            _ => go!(1),
        }
        ic += n;
    }
}

/// Weight gradient, `gw[oc][ic][kk] += Σ_t g[oc][t] ·
/// x[ic][t + kk - pad]`: one lane per tap (⌈k/8⌉ vectors per input
/// row), four output channels per pass over `t`, each loaded input
/// vector feeding all four. Every lane sums `t` in ascending order from
/// `+0`, then adds into `gw` once, as the scalar `grad_weight_taps`
/// does.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn grad_weight_avx2(
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    x_pad: &[f32],
    x_stride: usize,
    g_rows: &[f32],
    gw: &mut [f32],
    l: usize,
) {
    /// `R` output channels from `oc0` × `C` tap vectors (`cols[c] =
    /// (ic, j)`: input row `ic`, taps `8j .. 8j + 8`) in one pass.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn pass<const R: usize, const C: usize>(
        in_channels: usize,
        kernel: usize,
        x_pad: &[f32],
        x_stride: usize,
        g_rows: &[f32],
        gw: &mut [f32],
        l: usize,
        oc0: usize,
        cols: [(usize, usize); C],
    ) {
        use std::arch::x86_64::*;
        let mut acc = [[_mm256_setzero_ps(); C]; R];
        // In bounds: a load reads `x_pad[ic * x_stride + 8j + t ..][..8]`,
        // and `8j + t + 8 <= 8 * tap_vecs + l - 1 = x_stride`.
        let x_base = cols.map(|(ic, j)| x_pad.as_ptr().add(ic * x_stride + 8 * j));
        let g_base = g_rows.as_ptr().add(oc0 * l);
        let mut xv = [_mm256_setzero_ps(); C];
        for t in 0..l {
            for (v, p) in xv.iter_mut().zip(&x_base) {
                *v = _mm256_loadu_ps(p.add(t));
            }
            for (r, a) in acc.iter_mut().enumerate() {
                let g = _mm256_set1_ps(*g_base.add(r * l + t));
                for (c, &x) in xv.iter().enumerate() {
                    a[c] = _mm256_add_ps(a[c], _mm256_mul_ps(g, x));
                }
            }
        }
        for (r, a) in acc.iter().enumerate() {
            for (&v, &(ic, j)) in a.iter().zip(&cols) {
                let mut taps = [0.0f32; 8];
                _mm256_storeu_ps(taps.as_mut_ptr(), v);
                let n = (kernel - 8 * j).min(8);
                let at = ((oc0 + r) * in_channels + ic) * kernel + 8 * j;
                for (dst, &tap) in gw[at..at + n].iter_mut().zip(&taps) {
                    *dst += tap;
                }
            }
        }
    }
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn block<const R: usize>(
        in_channels: usize,
        kernel: usize,
        x_pad: &[f32],
        x_stride: usize,
        g_rows: &[f32],
        gw: &mut [f32],
        l: usize,
        oc0: usize,
    ) {
        // Two tap vectors per pass keep eight independent add chains.
        let tap_vecs = kernel.div_ceil(8);
        let col = |c: usize| (c / tap_vecs, c % tap_vecs);
        let total = in_channels * tap_vecs;
        let mut c = 0;
        while c + 2 <= total {
            let cols = [col(c), col(c + 1)];
            pass::<R, 2>(
                in_channels,
                kernel,
                x_pad,
                x_stride,
                g_rows,
                gw,
                l,
                oc0,
                cols,
            );
            c += 2;
        }
        if c < total {
            let cols = [col(c)];
            pass::<R, 1>(
                in_channels,
                kernel,
                x_pad,
                x_stride,
                g_rows,
                gw,
                l,
                oc0,
                cols,
            );
        }
    }
    let mut oc = 0;
    while oc < out_channels {
        let n = (out_channels - oc).min(4);
        macro_rules! go {
            ($r:literal) => {
                block::<$r>(in_channels, kernel, x_pad, x_stride, g_rows, gw, l, oc)
            };
        }
        match n {
            4 => go!(4),
            3 => go!(3),
            2 => go!(2),
            _ => go!(1),
        }
        oc += n;
    }
}

/// Serializes the crate's unit tests that switch the process-global
/// dispatch, so each runs start to finish under the mode it set.
#[cfg(test)]
pub(crate) fn lock_dispatch() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn label_matches_mode() {
        let _dispatch = lock_dispatch();
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

    /// The FMA instantiation against the frozen plan's scalar twin
    /// (`conv_rows` under scalar dispatch), row by row: four-row blocks
    /// run the vector kernel, remainder rows the scalar twin in both runs.
    #[test]
    fn fused_rows_agree_with_the_scalar_twin() {
        if !std::arch::is_x86_feature_detected!("avx2")
            || !std::arch::is_x86_feature_detected!("fma")
        {
            return; // nothing to compare on this host
        }
        let _dispatch = lock_dispatch();
        for kernel in [1usize, 3, 5, 9, 15] {
            for l in [5usize, 16, 24, 40, 73] {
                for (ci, co) in [(1usize, 4usize), (3, 4), (2, 6)] {
                    let weight: Vec<f32> = (0..co * ci * kernel)
                        .map(|i| ((i * 37 + 11) % 23) as f32 / 46.0 - 0.25)
                        .collect();
                    let bias: Vec<f32> = (0..co).map(|i| i as f32 * 0.05 - 0.1).collect();
                    let x: Vec<f32> = (0..ci * l)
                        .map(|i| ((i * 29 % 17) as f32 - 8.0) / 16.0)
                        .collect();
                    for relu in [false, true] {
                        let run = |mode: SimdMode| {
                            let mut y = vec![0.0f32; co * l];
                            set_mode(Some(mode));
                            crate::conv::conv_rows(
                                Rounding::Fused,
                                &weight,
                                &bias,
                                ci,
                                kernel,
                                1,
                                &x,
                                &mut y,
                                l,
                                relu,
                            );
                            if mode == SimdMode::Avx2 {
                                // The first block really ran the vector kernel.
                                let mut block = vec![0.0f32; 4 * l];
                                assert!(conv_block(
                                    Rounding::Fused,
                                    &weight,
                                    &bias,
                                    ci,
                                    kernel,
                                    (kernel - 1) / 2,
                                    1,
                                    &x,
                                    &mut block,
                                    l,
                                    relu,
                                    0
                                ));
                                assert_eq!(bits(&block), bits(&y[..4 * l]));
                            }
                            set_mode(None);
                            y
                        };
                        let simd = run(SimdMode::Avx2);
                        let scalar = run(SimdMode::Scalar);
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

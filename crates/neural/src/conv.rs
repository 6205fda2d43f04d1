//! Same-padded 1D convolution with full backward pass.
//!
//! This is the hot path of the entire reproduction: every model in the
//! benchmark is convolutional. The forward and backward passes use
//! register-blocked inner kernels — four output rows share every loaded
//! input element, the interior (all taps in range) is split from the
//! padded edges so the hot loop carries no bounds branch, and the kernel
//! width is const-dispatched for the paper's sizes (`k ∈ {5, 7, 9, 15}`
//! plus the 1/3 used by shortcuts and tests) so the tap loop fully
//! unrolls. The batch dimension fans out across cores via `ds-par`; batch
//! rows are independent, so the parallel output is bit-identical to the
//! sequential one, and the backward weight-gradient reduction uses a
//! *fixed* chunk size so its summation tree is also identical under any
//! worker count. Where AVX2 dispatches, the forward (each block of four
//! output channels, `conv_rows`) and the backward of a dense layer run
//! the [`crate::simd`] kernels instead of the scalar ones here; they
//! multiply and add separately, so they are bit-exact twins and trained
//! weights are also identical under either `DS_SIMD` setting. The frozen
//! plans run the same forward with FMA (`Rounding::Fused`).
//!
//! Shape convention: input `[B, C_in, L]` → output `[B, C_out, L]`
//! (stride 1, zero padding `k/2`; for even `k` the output is anchored so
//! position `t` sees `x[t - k/2 .. t + (k - 1)/2]`).

use crate::simd::Rounding;
use crate::tensor::Tensor;
use crate::VisitParams;
use serde::{Deserialize, Serialize};

/// A trainable 1D convolution layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv1d {
    /// Input channel count.
    pub in_channels: usize,
    /// Output channel count.
    pub out_channels: usize,
    /// Kernel width.
    pub kernel: usize,
    /// Dilation factor (1 = dense). The effective receptive span is
    /// `(kernel - 1) * dilation + 1`; padding keeps the output length equal
    /// to the input length. Dilated stacks power the TCN baseline.
    pub dilation: usize,
    /// Weights `[out, in, k]`, row-major.
    pub weight: Vec<f32>,
    /// Per-output-channel bias.
    pub bias: Vec<f32>,
    /// Weight gradients (same layout as `weight`). Not serialized:
    /// loaders size them with [`VisitParams::size_grads`].
    #[serde(skip)]
    pub grad_weight: Vec<f32>,
    /// Bias gradients (not serialized).
    #[serde(skip)]
    pub grad_bias: Vec<f32>,
    /// Cached input from the last forward (needed by backward).
    #[serde(skip)]
    cached_input: Option<Tensor>,
}

impl Conv1d {
    /// Create a layer with He-normal weights (seeded).
    pub fn new(in_channels: usize, out_channels: usize, kernel: usize, seed: u64) -> Conv1d {
        Conv1d::dilated(in_channels, out_channels, kernel, 1, seed)
    }

    /// Create a dilated layer (dilation 1 gives a dense convolution).
    pub fn dilated(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        dilation: usize,
        seed: u64,
    ) -> Conv1d {
        assert!(kernel >= 1, "kernel must be at least 1");
        assert!(dilation >= 1, "dilation must be at least 1");
        let mut weight = vec![0.0; out_channels * in_channels * kernel];
        crate::init::he_normal(seed, in_channels * kernel, &mut weight);
        Conv1d {
            in_channels,
            out_channels,
            kernel,
            dilation,
            grad_weight: vec![0.0; weight.len()],
            grad_bias: vec![0.0; out_channels],
            weight,
            bias: vec![0.0; out_channels],
            cached_input: None,
        }
    }

    /// Left padding implied by "same" output length.
    #[inline]
    fn pad_left(&self) -> usize {
        (self.kernel - 1) * self.dilation / 2
    }

    /// Forward pass. In training mode the input is cached for backward,
    /// copied into the previous step's cache when the shape matches.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = self.infer(x);
        if train {
            let reusable = self
                .cached_input
                .as_mut()
                .filter(|c| c.shape() == x.shape() && crate::workspace::buffer_reuse());
            match reusable {
                Some(cached) => cached.data.copy_from_slice(&x.data),
                None => self.cached_input = Some(x.clone()),
            }
        }
        y
    }

    /// Pure inference forward (no caching, `&self`) — used by ensembles that
    /// must stay shareable at prediction time.
    ///
    /// Batch rows are filled in parallel (each row is an independent
    /// computation, so the result is bit-identical to the sequential
    /// path); within a row, output channels are processed four at a time
    /// by the AVX2 or the register-blocked scalar kernels, bit-identical
    /// to each other.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let (b, _, l) = x.shape();
        let mut y = Tensor::zeros(b, self.out_channels, l);
        self.infer_into(x, &mut y);
        y
    }

    /// [`Conv1d::infer`] into a caller-owned, pre-shaped output tensor —
    /// the allocation-free variant for hot loops that reuse the output
    /// across calls. Below the ds-par fan-out floor
    /// ([`ds_par::should_fanout`]) batch rows run sequentially in place,
    /// skipping even the dispatch bookkeeping; the result is bit-identical
    /// either way.
    pub fn infer_into(&self, x: &Tensor, y: &mut Tensor) {
        assert_eq!(x.channels, self.in_channels, "conv input channel mismatch");
        let _span = ds_obs::span!("conv.infer");
        let (b, _, l) = x.shape();
        assert_eq!(
            y.shape(),
            (b, self.out_channels, l),
            "conv output tensor shape mismatch"
        );
        let row_stride = self.out_channels * l;
        if !ds_par::should_fanout(b) {
            for bi in 0..b {
                self.infer_row(x, bi, &mut y.data[bi * row_stride..][..row_stride], l);
            }
            return;
        }
        let rows_per_task = self.rows_per_task(b, l);
        ds_par::par_chunks_mut(&mut y.data, rows_per_task * row_stride, |ti, chunk| {
            let bi0 = ti * rows_per_task;
            for (j, y_rows) in chunk.chunks_mut(row_stride).enumerate() {
                self.infer_row(x, bi0 + j, y_rows, l);
            }
        });
    }

    /// Batch rows per parallel task: even split across workers, floored so
    /// a task always carries enough multiply-accumulates to amortize the
    /// dispatch. Grouping only sets granularity — row results are
    /// independent — so tracking the worker count here is safe.
    ///
    /// The 2²⁰-MAC floor comes from `par.chunk` span profiles: at the old
    /// 2¹⁸ floor a serving-size chunk retired in tens of µs, the same
    /// order as the dispatch (thread spawn + lane setup) that fed it —
    /// the thread sweeps in `results/BENCH_perf.json` were flat at
    /// 0.97–1.01× for exactly this reason. Four times coarser chunks keep
    /// each task comfortably above the dispatch cost while still
    /// splitting training-scale batches.
    fn rows_per_task(&self, b: usize, l: usize) -> usize {
        const MIN_TASK_MACS: usize = 1 << 20;
        let row_macs = self.out_channels * self.in_channels * l * self.kernel;
        let per_worker = b.div_ceil(ds_par::threads().max(1)).max(1);
        per_worker
            .max(MIN_TASK_MACS.div_ceil(row_macs.max(1)))
            .min(b.max(1))
    }

    /// One batch row of the forward pass ([`conv_rows`] with separate
    /// rounding): the AVX2 kernel where it dispatches, the scalar
    /// [`accumulate_conv4`] twin elsewhere, bit-identical either way.
    fn infer_row(&self, x: &Tensor, bi: usize, y_rows: &mut [f32], l: usize) {
        let x_rows = &x.data[bi * self.in_channels * l..][..self.in_channels * l];
        conv_rows(
            Rounding::Separate,
            &self.weight,
            &self.bias,
            self.in_channels,
            self.kernel,
            self.dilation,
            x_rows,
            y_rows,
            l,
            false,
        );
    }

    /// Backward pass: accumulates weight/bias gradients and returns the
    /// gradient with respect to the input.
    ///
    /// # Panics
    /// Panics if called without a preceding training-mode forward.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("Conv1d::backward requires forward(train=true) first");
        assert_eq!(grad_out.channels, self.out_channels);
        assert_eq!(grad_out.batch, x.batch);
        assert_eq!(grad_out.len, x.len);
        let _span = ds_obs::span!("conv.backward");
        let (_, _, l) = x.shape();
        let mut grad_in = x.zeros_like();
        let gi_stride = self.in_channels * l;
        // Fixed micro-batch of batch rows. Input-gradient rows are disjoint
        // per micro-batch; weight/bias gradients come back as per-slot
        // partials and are reduced below in slot order, so the summation
        // tree — hence the result — is identical for every worker count.
        // The micro-batch height must therefore never track
        // `ds_par::threads()`.
        let micro = crate::workspace::MICRO_ROWS;
        let this = &*self;
        let partials: Vec<(Vec<f32>, Vec<f32>)> =
            ds_par::par_chunks_map_mut(&mut grad_in.data, micro * gi_stride, |ci, gi_chunk| {
                let _span = ds_obs::span!("train.microbatch");
                let mut gw = crate::workspace::take_buf(this.weight.len());
                let mut gb = crate::workspace::take_buf(this.out_channels);
                let bi0 = ci * micro;
                for (j, gi_rows) in gi_chunk.chunks_mut(gi_stride).enumerate() {
                    this.backward_row(x, grad_out, bi0 + j, gi_rows, &mut gw, &mut gb, l);
                }
                (gw, gb)
            });
        // Fold the per-slot partials in slot order (fixed-shape reduction),
        // recycling every consumed scratch buffer back into the pool.
        let _span = ds_obs::span!("train.reduce");
        if let Some((gw, gb)) = ds_par::par_reduce(partials, |acc, p| {
            for (a, v) in acc.0.iter_mut().zip(&p.0) {
                *a += v;
            }
            for (a, v) in acc.1.iter_mut().zip(&p.1) {
                *a += v;
            }
            crate::workspace::recycle_buf(p.0);
            crate::workspace::recycle_buf(p.1);
        }) {
            for (acc, v) in self.grad_weight.iter_mut().zip(&gw) {
                *acc += v;
            }
            for (acc, v) in self.grad_bias.iter_mut().zip(&gb) {
                *acc += v;
            }
            crate::workspace::recycle_buf(gw);
            crate::workspace::recycle_buf(gb);
        }
        grad_in
    }

    /// One batch row of the backward pass: bias sums, then the weight and
    /// input gradients — through the AVX2 kernels
    /// ([`crate::simd::conv_backward_row`], bit-identical to the scalar
    /// twins below) when they dispatch and the layer is dense, otherwise
    /// through single-pass weight taps and the input-gradient gather in
    /// blocks of four input rows.
    #[allow(clippy::too_many_arguments)]
    fn backward_row(
        &self,
        x: &Tensor,
        grad_out: &Tensor,
        bi: usize,
        gi_rows: &mut [f32],
        gw: &mut [f32],
        gb: &mut [f32],
        l: usize,
    ) {
        let pad = self.pad_left();
        let k = self.kernel;
        for (oc, gb_oc) in gb.iter_mut().enumerate().take(self.out_channels) {
            *gb_oc += grad_out.row(bi, oc).iter().sum::<f32>();
        }
        if self.dilation == 1
            && crate::simd::conv_backward_row(
                &self.weight,
                self.in_channels,
                self.out_channels,
                k,
                pad,
                &x.data[bi * self.in_channels * l..][..self.in_channels * l],
                &grad_out.data[bi * self.out_channels * l..][..self.out_channels * l],
                gi_rows,
                gw,
                l,
            )
        {
            return;
        }
        for oc in 0..self.out_channels {
            let g_row = grad_out.row(bi, oc);
            // dL/dw[oc][ic][k] = sum_t g[t] * x[t + k*d - pad]
            for ic in 0..self.in_channels {
                let start = (oc * self.in_channels + ic) * k;
                grad_weight_taps(
                    &mut gw[start..start + k],
                    g_row,
                    x.row(bi, ic),
                    pad,
                    self.dilation,
                );
            }
            // dL/dx[s] = sum_k g[s + pad - k*d] * w[k], gathered (not
            // scattered) so four input rows can share every loaded g[·].
            let mut ic = 0;
            while ic < self.in_channels {
                let rows = (self.in_channels - ic).min(4);
                let block = &mut gi_rows[ic * l..(ic + rows) * l];
                let w_at = |r: usize| {
                    let start = (oc * self.in_channels + ic + r) * k;
                    &self.weight[start..start + k]
                };
                if rows == 4 {
                    let w = [w_at(0), w_at(1), w_at(2), w_at(3)];
                    accumulate_corr4(block, l, g_row, w, k, pad, self.dilation);
                } else {
                    for (r, gi_row) in block.chunks_mut(l).enumerate() {
                        accumulate_corr1(gi_row, g_row, w_at(r), k, pad, self.dilation);
                    }
                }
                ic += rows;
            }
        }
    }
}

/// One batch row of a same-padded convolution: fill `y_rows`
/// (`[bias.len(), l]`) from `x_rows` (`[in_channels, l]`), bias included
/// and ReLU optionally fused, in blocks of four output channels. Each
/// block runs the AVX2 kernel ([`crate::simd::conv_block`]) when it
/// dispatches and takes the block; otherwise the scalar twin runs it:
/// bias fill, then each input row accumulated by the four-row kernel
/// ([`accumulate_conv4`] under [`Rounding::Separate`],
/// [`accumulate_conv4t8`] under [`Rounding::Fused`]) or, for remainder
/// rows, by [`accumulate_conv`]. Both twins add each element's taps in
/// ascending `(ic, k)` order after the bias, so a mix of vector and
/// scalar blocks changes nothing under separate rounding.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_rows(
    rounding: Rounding,
    weight: &[f32],
    bias: &[f32],
    in_channels: usize,
    kernel: usize,
    dilation: usize,
    x_rows: &[f32],
    y_rows: &mut [f32],
    l: usize,
    relu: bool,
) {
    let pad = (kernel - 1) * dilation / 2;
    let out_channels = bias.len();
    let mut oc = 0;
    while oc < out_channels {
        let rows = (out_channels - oc).min(4);
        let block = &mut y_rows[oc * l..(oc + rows) * l];
        if !crate::simd::conv_block(
            rounding,
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
        ) {
            for (r, row) in block.chunks_mut(l).enumerate() {
                row.fill(bias[oc + r]);
            }
            for ic in 0..in_channels {
                let x_row = &x_rows[ic * l..(ic + 1) * l];
                let w_at = |r: usize| &weight[((oc + r) * in_channels + ic) * kernel..][..kernel];
                if rows == 4 {
                    let w = [w_at(0), w_at(1), w_at(2), w_at(3)];
                    // Only the final accumulation pass may clamp: each
                    // output element is written exactly once per pass.
                    let relu = relu && ic + 1 == in_channels;
                    match rounding {
                        Rounding::Separate => {
                            accumulate_conv4(block, l, x_row, w, kernel, pad, dilation, relu)
                        }
                        Rounding::Fused => {
                            accumulate_conv4t8(block, l, x_row, w, kernel, pad, dilation, relu)
                        }
                    }
                } else {
                    for (r, y_row) in block.chunks_mut(l).enumerate() {
                        accumulate_conv(y_row, x_row, w_at(r), pad as isize, dilation as isize);
                    }
                }
            }
            // The single-row fallback has no epilogue; clamp the remainder
            // rows once all input channels are accumulated.
            if relu && rows < 4 {
                for v in block.iter_mut() {
                    *v = v.max(0.0);
                }
            }
        }
        oc += rows;
    }
}

/// Accumulate `y[t] += Σ_k w[k] * x[t + k*d - pad]` with zero padding,
/// keeping the inner loop over a contiguous valid range (no per-element
/// bounds branch). Single-row fallback for output-channel remainders and
/// arbitrary kernel widths.
#[inline]
fn accumulate_conv(y: &mut [f32], x: &[f32], w: &[f32], pad: isize, dilation: isize) {
    let l = y.len();
    for (k, &wk) in w.iter().enumerate() {
        let shift = k as isize * dilation - pad;
        let (t0, t1) = overlap(l, shift);
        if t1 <= t0 {
            continue; // tap never lands inside the row (short series)
        }
        // y[t] += wk * x[t + shift] for t in [t0, t1)
        let x_off = (t0 as isize + shift) as usize;
        let n = t1 - t0;
        let ys = &mut y[t0..t1];
        let xs = &x[x_off..x_off + n];
        for (yv, xv) in ys.iter_mut().zip(xs) {
            *yv += wk * xv;
        }
    }
}

/// Valid `t` range such that `0 <= t + shift < l`.
#[inline]
fn overlap(l: usize, shift: isize) -> (usize, usize) {
    let t0 = (-shift).max(0) as usize;
    let t1 = ((l as isize - shift).min(l as isize)).max(0) as usize;
    (t0.min(t1), t1)
}

/// Dispatches `f::<K>` for the kernel widths the paper's models use, so
/// the tap loops unroll; other widths run the `dyn_k` fallback.
macro_rules! dispatch_kernel {
    ($k:expr, $f:ident ( $($args:expr),* ), $dyn_fallback:expr) => {
        match $k {
            1 => $f::<1>($($args),*),
            3 => $f::<3>($($args),*),
            5 => $f::<5>($($args),*),
            7 => $f::<7>($($args),*),
            9 => $f::<9>($($args),*),
            15 => $f::<15>($($args),*),
            _ => $dyn_fallback,
        }
    };
}

/// Register-blocked forward kernel: accumulate four contiguous output
/// rows (`block`, length `4*l`) against one input row in a single pass —
/// each loaded `x[·]` feeds four accumulators. Per-element tap order
/// (ascending `k`) matches [`accumulate_conv`], so results are
/// bit-identical to the single-row path.
///
/// `relu` is a fused epilogue: when true, each output element is clamped
/// to `max(v, 0)` as it is written back. Only the *final* accumulation
/// pass over a block may fuse (each element is written exactly once per
/// pass, so an earlier clamp would corrupt later accumulation) — the
/// frozen inference plan passes `relu = ic + 1 == in_channels`, the
/// mutable path always passes `false` (bit-identical to the pre-epilogue
/// kernel). The flag is const-dispatched together with the kernel width,
/// so the `false` path compiles to exactly the old loop.
#[allow(clippy::too_many_arguments)]
#[inline]
fn accumulate_conv4(
    block: &mut [f32],
    l: usize,
    x: &[f32],
    w: [&[f32]; 4],
    k: usize,
    pad: usize,
    dilation: usize,
    relu: bool,
) {
    #[inline(always)]
    fn epi<const RELU: bool>(v: f32) -> f32 {
        if RELU {
            v.max(0.0)
        } else {
            v
        }
    }
    #[inline(always)]
    fn body<const RELU: bool>(
        block: &mut [f32],
        l: usize,
        x: &[f32],
        w: [&[f32]; 4],
        k: usize,
        pad: usize,
        dilation: usize,
    ) {
        let span = (k - 1) * dilation;
        let t_lo = pad.min(l);
        let t_hi = (l + pad).saturating_sub(span).clamp(t_lo, l);
        let (y0, rest) = block.split_at_mut(l);
        let (y1, rest) = rest.split_at_mut(l);
        let (y2, y3) = rest.split_at_mut(l);
        let (w0, w1, w2, w3) = (&w[0][..k], &w[1][..k], &w[2][..k], &w[3][..k]);
        // Padded edges: per-tap range check.
        for t in (0..t_lo).chain(t_hi..l) {
            let (mut a0, mut a1, mut a2, mut a3) = (y0[t], y1[t], y2[t], y3[t]);
            for kk in 0..k {
                let s = t as isize + (kk * dilation) as isize - pad as isize;
                if s >= 0 && (s as usize) < l {
                    let xv = x[s as usize];
                    a0 += w0[kk] * xv;
                    a1 += w1[kk] * xv;
                    a2 += w2[kk] * xv;
                    a3 += w3[kk] * xv;
                }
            }
            y0[t] = epi::<RELU>(a0);
            y1[t] = epi::<RELU>(a1);
            y2[t] = epi::<RELU>(a2);
            y3[t] = epi::<RELU>(a3);
        }
        // Interior: every tap in range, no branch in the tap loop.
        for t in t_lo..t_hi {
            let xs = &x[t - pad..t - pad + span + 1];
            let (mut a0, mut a1, mut a2, mut a3) = (y0[t], y1[t], y2[t], y3[t]);
            for kk in 0..k {
                let xv = xs[kk * dilation];
                a0 += w0[kk] * xv;
                a1 += w1[kk] * xv;
                a2 += w2[kk] * xv;
                a3 += w3[kk] * xv;
            }
            y0[t] = epi::<RELU>(a0);
            y1[t] = epi::<RELU>(a1);
            y2[t] = epi::<RELU>(a2);
            y3[t] = epi::<RELU>(a3);
        }
    }
    #[inline]
    fn fixed<const K: usize, const RELU: bool>(
        block: &mut [f32],
        l: usize,
        x: &[f32],
        w: [&[f32]; 4],
        pad: usize,
        dilation: usize,
    ) {
        body::<RELU>(block, l, x, w, K, pad, dilation);
    }
    macro_rules! go {
        ($relu:literal) => {
            match k {
                1 => fixed::<1, $relu>(block, l, x, w, pad, dilation),
                3 => fixed::<3, $relu>(block, l, x, w, pad, dilation),
                5 => fixed::<5, $relu>(block, l, x, w, pad, dilation),
                7 => fixed::<7, $relu>(block, l, x, w, pad, dilation),
                9 => fixed::<9, $relu>(block, l, x, w, pad, dilation),
                15 => fixed::<15, $relu>(block, l, x, w, pad, dilation),
                _ => body::<$relu>(block, l, x, w, k, pad, dilation),
            }
        };
    }
    if relu {
        go!(true)
    } else {
        go!(false)
    }
}

/// Frozen-path forward kernel: accumulate four contiguous output rows at
/// **eight adjacent output positions** per interior step. Each loaded
/// weight `w[kk]` feeds eight positions, cutting the weight traffic that
/// dominates the per-element kernel (`4k` weight loads against `k` input
/// loads), and the 32 accumulators are independent chains. Each element
/// still accumulates its taps in ascending `k` order in its own
/// accumulator (a multiply, then an add), so the result is bit-identical
/// to [`accumulate_conv4`].
#[allow(clippy::too_many_arguments)]
#[inline]
fn accumulate_conv4t8(
    block: &mut [f32],
    l: usize,
    x: &[f32],
    w: [&[f32]; 4],
    k: usize,
    pad: usize,
    dilation: usize,
    relu: bool,
) {
    #[inline(always)]
    fn epi<const RELU: bool>(v: f32) -> f32 {
        if RELU {
            v.max(0.0)
        } else {
            v
        }
    }
    #[inline(always)]
    fn body<const RELU: bool>(
        block: &mut [f32],
        l: usize,
        x: &[f32],
        w: [&[f32]; 4],
        k: usize,
        pad: usize,
        dilation: usize,
    ) {
        let span = (k - 1) * dilation;
        let t_lo = pad.min(l);
        let t_hi = (l + pad).saturating_sub(span).clamp(t_lo, l);
        let (y0, rest) = block.split_at_mut(l);
        let (y1, rest) = rest.split_at_mut(l);
        let (y2, y3) = rest.split_at_mut(l);
        let (w0, w1, w2, w3) = (&w[0][..k], &w[1][..k], &w[2][..k], &w[3][..k]);
        // Padded edges: per-tap range check.
        for t in (0..t_lo).chain(t_hi..l) {
            let (mut a0, mut a1, mut a2, mut a3) = (y0[t], y1[t], y2[t], y3[t]);
            for kk in 0..k {
                let s = t as isize + (kk * dilation) as isize - pad as isize;
                if s >= 0 && (s as usize) < l {
                    let xv = x[s as usize];
                    a0 += w0[kk] * xv;
                    a1 += w1[kk] * xv;
                    a2 += w2[kk] * xv;
                    a3 += w3[kk] * xv;
                }
            }
            y0[t] = epi::<RELU>(a0);
            y1[t] = epi::<RELU>(a1);
            y2[t] = epi::<RELU>(a2);
            y3[t] = epi::<RELU>(a3);
        }
        // Interior, eight positions per step: position `t + p`'s tap `kk`
        // reads `x[t + p - pad + kk*d]`, so all eight share one slice.
        let mut t = t_lo;
        while t + 8 <= t_hi {
            let mut acc = [[0.0f32; 8]; 4];
            for (a, y) in acc.iter_mut().zip([&*y0, &*y1, &*y2, &*y3]) {
                a.copy_from_slice(&y[t..t + 8]);
            }
            for kk in 0..k {
                let xs: &[f32; 8] = x[t - pad + kk * dilation..][..8].try_into().unwrap();
                for (a, wr) in acc.iter_mut().zip([w0, w1, w2, w3]) {
                    let wv = wr[kk];
                    for (av, &xv) in a.iter_mut().zip(xs) {
                        *av += wv * xv;
                    }
                }
            }
            // Indexed stores on purpose: as one slice store, the compiler
            // vectorizes the whole step and this scalar twin becomes an
            // SSE kernel (DESIGN §15).
            for (a, y) in acc.iter().zip([&mut *y0, &mut *y1, &mut *y2, &mut *y3]) {
                for (p, &av) in a.iter().enumerate() {
                    y[t + p] = epi::<RELU>(av);
                }
            }
            t += 8;
        }
        // Interior remainder: one position at a time, same chains.
        for t in t..t_hi {
            let xs = &x[t - pad..t - pad + span + 1];
            let (mut a0, mut a1, mut a2, mut a3) = (y0[t], y1[t], y2[t], y3[t]);
            for kk in 0..k {
                let xv = xs[kk * dilation];
                a0 += w0[kk] * xv;
                a1 += w1[kk] * xv;
                a2 += w2[kk] * xv;
                a3 += w3[kk] * xv;
            }
            y0[t] = epi::<RELU>(a0);
            y1[t] = epi::<RELU>(a1);
            y2[t] = epi::<RELU>(a2);
            y3[t] = epi::<RELU>(a3);
        }
    }
    #[inline]
    fn fixed<const K: usize, const RELU: bool>(
        block: &mut [f32],
        l: usize,
        x: &[f32],
        w: [&[f32]; 4],
        pad: usize,
        dilation: usize,
    ) {
        body::<RELU>(block, l, x, w, K, pad, dilation);
    }
    macro_rules! go {
        ($relu:literal) => {
            match k {
                1 => fixed::<1, $relu>(block, l, x, w, pad, dilation),
                3 => fixed::<3, $relu>(block, l, x, w, pad, dilation),
                5 => fixed::<5, $relu>(block, l, x, w, pad, dilation),
                7 => fixed::<7, $relu>(block, l, x, w, pad, dilation),
                9 => fixed::<9, $relu>(block, l, x, w, pad, dilation),
                15 => fixed::<15, $relu>(block, l, x, w, pad, dilation),
                _ => body::<$relu>(block, l, x, w, k, pad, dilation),
            }
        };
    }
    if relu {
        go!(true)
    } else {
        go!(false)
    }
}

/// Register-blocked input-gradient kernel (the transpose of the forward
/// read): accumulate four contiguous input-gradient rows against one
/// output-gradient row, `gi[s] += Σ_k w[k] * g[s + pad - k*d]`, gathered
/// so every loaded `g[·]` feeds four accumulators.
#[inline]
fn accumulate_corr4(
    block: &mut [f32],
    l: usize,
    g: &[f32],
    w: [&[f32]; 4],
    k: usize,
    pad: usize,
    dilation: usize,
) {
    #[inline(always)]
    fn body(
        block: &mut [f32],
        l: usize,
        g: &[f32],
        w: [&[f32]; 4],
        k: usize,
        pad: usize,
        dilation: usize,
    ) {
        let span = (k - 1) * dilation;
        let s_lo = span.saturating_sub(pad).min(l);
        let s_hi = l.saturating_sub(pad).clamp(s_lo, l);
        let (y0, rest) = block.split_at_mut(l);
        let (y1, rest) = rest.split_at_mut(l);
        let (y2, y3) = rest.split_at_mut(l);
        let (w0, w1, w2, w3) = (&w[0][..k], &w[1][..k], &w[2][..k], &w[3][..k]);
        for s in (0..s_lo).chain(s_hi..l) {
            let (mut a0, mut a1, mut a2, mut a3) = (y0[s], y1[s], y2[s], y3[s]);
            for kk in 0..k {
                let t = s as isize + pad as isize - (kk * dilation) as isize;
                if t >= 0 && (t as usize) < l {
                    let gv = g[t as usize];
                    a0 += w0[kk] * gv;
                    a1 += w1[kk] * gv;
                    a2 += w2[kk] * gv;
                    a3 += w3[kk] * gv;
                }
            }
            y0[s] = a0;
            y1[s] = a1;
            y2[s] = a2;
            y3[s] = a3;
        }
        for s in s_lo..s_hi {
            // Base of the gather window: s + pad - span .. s + pad.
            let gs = &g[s + pad - span..s + pad + 1];
            let (mut a0, mut a1, mut a2, mut a3) = (y0[s], y1[s], y2[s], y3[s]);
            for kk in 0..k {
                let gv = gs[span - kk * dilation];
                a0 += w0[kk] * gv;
                a1 += w1[kk] * gv;
                a2 += w2[kk] * gv;
                a3 += w3[kk] * gv;
            }
            y0[s] = a0;
            y1[s] = a1;
            y2[s] = a2;
            y3[s] = a3;
        }
    }
    #[inline]
    fn fixed<const K: usize>(
        block: &mut [f32],
        l: usize,
        g: &[f32],
        w: [&[f32]; 4],
        pad: usize,
        dilation: usize,
    ) {
        body(block, l, g, w, K, pad, dilation);
    }
    dispatch_kernel!(
        k,
        fixed(block, l, g, w, pad, dilation),
        body(block, l, g, w, k, pad, dilation)
    );
}

/// Single-row input-gradient gather (input-channel remainder fallback):
/// `gi[s] += Σ_k w[k] * g[s + pad - k*d]` with ascending-`k` tap order.
#[inline]
fn accumulate_corr1(gi: &mut [f32], g: &[f32], w: &[f32], k: usize, pad: usize, dilation: usize) {
    let l = gi.len();
    for (kk, &wk) in w.iter().enumerate().take(k) {
        // gi[s] += wk * g[s + shift] with shift = pad - kk*d.
        let shift = pad as isize - (kk * dilation) as isize;
        let (s0, s1) = overlap(l, shift);
        if s1 <= s0 {
            continue; // tap never lands inside the row (short series)
        }
        let g_off = (s0 as isize + shift) as usize;
        let n = s1 - s0;
        let ys = &mut gi[s0..s1];
        let gs = &g[g_off..g_off + n];
        for (yv, gv) in ys.iter_mut().zip(gs) {
            *yv += wk * gv;
        }
    }
}

/// Weight-gradient taps for one `(oc, ic)` pair: `gw[k] += Σ_t g[t] *
/// x[t + k*d - pad]`, all `k` accumulated in a single pass over `t` (each
/// accumulator still sums in ascending `t`, like the per-tap loop).
#[inline]
fn grad_weight_taps(gw: &mut [f32], g: &[f32], x: &[f32], pad: usize, dilation: usize) {
    #[inline(always)]
    fn edge_taps(acc: &mut [f32], t: usize, g: &[f32], x: &[f32], pad: usize, dilation: usize) {
        let l = g.len();
        for (kk, a) in acc.iter_mut().enumerate() {
            let s = t as isize + (kk * dilation) as isize - pad as isize;
            if s >= 0 && (s as usize) < l {
                *a += g[t] * x[s as usize];
            }
        }
    }
    #[inline]
    fn fixed<const K: usize>(gw: &mut [f32], g: &[f32], x: &[f32], pad: usize, dilation: usize) {
        let l = g.len();
        let span = (K - 1) * dilation;
        let t_lo = pad.min(l);
        let t_hi = (l + pad).saturating_sub(span).clamp(t_lo, l);
        let mut acc = [0.0f32; K];
        for t in 0..t_lo {
            edge_taps(&mut acc, t, g, x, pad, dilation);
        }
        for t in t_lo..t_hi {
            let gt = g[t];
            let xs = &x[t - pad..t - pad + span + 1];
            for (kk, a) in acc.iter_mut().enumerate() {
                *a += gt * xs[kk * dilation];
            }
        }
        for t in t_hi..l {
            edge_taps(&mut acc, t, g, x, pad, dilation);
        }
        for (gwk, a) in gw.iter_mut().zip(acc) {
            *gwk += a;
        }
    }
    // Fallback: one shifted-dot pass per tap (identical accumulation
    // order per tap: ascending t).
    fn dyn_k(gw: &mut [f32], g: &[f32], x: &[f32], pad: usize, dilation: usize) {
        let l = g.len();
        for (kk, gwk) in gw.iter_mut().enumerate() {
            let shift = (kk * dilation) as isize - pad as isize;
            let (t0, t1) = overlap(l, shift);
            if t1 <= t0 {
                continue; // tap never lands inside the row (short series)
            }
            let x_off = (t0 as isize + shift) as usize;
            let mut acc = 0.0f32;
            for (gv, xv) in g[t0..t1].iter().zip(&x[x_off..x_off + (t1 - t0)]) {
                acc += gv * xv;
            }
            *gwk += acc;
        }
    }
    let k = gw.len();
    dispatch_kernel!(
        k,
        fixed(gw, g, x, pad, dilation),
        dyn_k(gw, g, x, pad, dilation)
    );
}

impl VisitParams for Conv1d {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut Vec<f32>)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::SimdMode;

    /// Naive reference convolution for cross-checking.
    fn reference_forward(conv: &Conv1d, x: &Tensor) -> Tensor {
        let (b, _, l) = x.shape();
        let pad = ((conv.kernel - 1) * conv.dilation / 2) as isize;
        let mut y = Tensor::zeros(b, conv.out_channels, l);
        for bi in 0..b {
            for oc in 0..conv.out_channels {
                for t in 0..l {
                    let mut acc = conv.bias[oc];
                    for ic in 0..conv.in_channels {
                        for k in 0..conv.kernel {
                            let s = t as isize + (k * conv.dilation) as isize - pad;
                            if s >= 0 && (s as usize) < l {
                                let w = conv.weight[(oc * conv.in_channels + ic) * conv.kernel + k];
                                acc += w * x.get(bi, ic, s as usize);
                            }
                        }
                    }
                    *y.get_mut(bi, oc, t) = acc;
                }
            }
        }
        y
    }

    fn sample_input(b: usize, c: usize, l: usize) -> Tensor {
        let data: Vec<f32> = (0..b * c * l)
            .map(|i| ((i * 37 % 23) as f32 - 11.0) / 7.0)
            .collect();
        Tensor::from_data(b, c, l, data)
    }

    #[test]
    fn forward_matches_reference() {
        for kernel in [1usize, 2, 3, 5, 7, 15] {
            let mut conv = Conv1d::new(3, 4, kernel, 11);
            let x = sample_input(2, 3, 20);
            let fast = conv.forward(&x, false);
            let slow = reference_forward(&conv, &x);
            for (a, b) in fast.data.iter().zip(slow.data.iter()) {
                assert!((a - b).abs() < 1e-4, "kernel {kernel}: {a} vs {b}");
            }
        }
    }

    /// The 4-row blocked kernel plus remainder fallback must agree with
    /// the reference for every block shape: channel counts on, below, and
    /// off the blocking factor, and rows shorter than the kernel span.
    #[test]
    fn blocked_forward_matches_reference_all_shapes() {
        for (ci, co) in [
            (1usize, 1usize),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (4, 8),
            (6, 7),
        ] {
            for kernel in [1usize, 3, 5, 7, 9, 15] {
                for l in [3usize, 8, 17] {
                    let mut conv = Conv1d::new(ci, co, kernel, 29);
                    let x = sample_input(2, ci, l);
                    let fast = conv.forward(&x, false);
                    let slow = reference_forward(&conv, &x);
                    for (a, b) in fast.data.iter().zip(slow.data.iter()) {
                        assert!(
                            (a - b).abs() < 1e-4,
                            "ci={ci} co={co} k={kernel} l={l}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    /// Forward and backward are bit-identical for any worker count: the
    /// batch fan-out writes disjoint rows, and the backward reduction
    /// sums fixed-size chunk partials in chunk order.
    #[test]
    fn parallel_paths_are_bit_identical() {
        let run = |workers: usize| {
            ds_par::set_threads(Some(workers));
            let mut conv = Conv1d::new(3, 8, 5, 17);
            // Large enough rows that `rows_per_task` clears the minimum
            // task size and the forward fan-out really splits the batch.
            let x = sample_input(9, 3, 2400);
            let y = conv.forward(&x, true);
            let gi = conv.backward(&y);
            ds_par::set_threads(None);
            (
                y.data,
                gi.data,
                conv.grad_weight.clone(),
                conv.grad_bias.clone(),
            )
        };
        let base = run(1);
        for workers in [2usize, 3, 8] {
            let par = run(workers);
            assert!(base
                .0
                .iter()
                .zip(&par.0)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert!(base
                .1
                .iter()
                .zip(&par.1)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert!(base
                .2
                .iter()
                .zip(&par.2)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert!(base
                .3
                .iter()
                .zip(&par.3)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    /// The eight-position frozen kernel must be bit-identical to the
    /// one-position kernel, with and without the fused ReLU, across
    /// kernel widths (const-dispatched and fallback), interior lengths on
    /// and off a multiple of eight, rows shorter than the kernel span,
    /// and dilation.
    #[test]
    fn conv4t8_matches_conv4() {
        for kernel in [1usize, 4, 5, 9, 15] {
            for l in [3usize, 17, 40, 73] {
                for dilation in [1usize, 2] {
                    let pad = (kernel - 1) * dilation / 2;
                    let w_flat: Vec<f32> = (0..kernel * 4)
                        .map(|i| ((i * 37 + 13) % 23) as f32 / 7.0 - 1.5)
                        .collect();
                    let w: [&[f32]; 4] = std::array::from_fn(|r| &w_flat[r * kernel..][..kernel]);
                    let x: Vec<f32> = (0..l).map(|i| ((i * 29 % 17) as f32 - 8.0) / 5.0).collect();
                    for relu in [false, true] {
                        let mut single: Vec<f32> =
                            (0..4 * l).map(|i| (i % 5) as f32 * 0.3 - 0.6).collect();
                        let mut wide = single.clone();
                        accumulate_conv4(&mut single, l, &x, w, kernel, pad, dilation, relu);
                        accumulate_conv4t8(&mut wide, l, &x, w, kernel, pad, dilation, relu);
                        for (a, b) in wide.iter().zip(&single) {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "k={kernel} l={l} d={dilation} relu={relu}: {a} vs {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn identity_kernel_passes_through() {
        let mut conv = Conv1d::new(1, 1, 1, 0);
        conv.weight[0] = 1.0;
        conv.bias[0] = 0.0;
        let x = sample_input(1, 1, 10);
        let y = conv.forward(&x, false);
        assert_eq!(y.data, x.data);
    }

    #[test]
    fn output_preserves_length() {
        for kernel in [2usize, 4, 9] {
            let mut conv = Conv1d::new(2, 5, kernel, 3);
            let x = sample_input(3, 2, 17);
            let y = conv.forward(&x, false);
            assert_eq!(y.shape(), (3, 5, 17));
        }
    }

    /// `(grad_in, grad_weight, grad_bias)` bits of one forward/backward
    /// pass of a fresh copy of `conv` under `mode`.
    fn backward_bits(conv: &Conv1d, x: &Tensor, g: &Tensor, mode: SimdMode) -> [Vec<u32>; 3] {
        let mut conv = conv.clone();
        crate::simd::set_mode(Some(mode));
        conv.forward(x, true);
        let grad_in = conv.backward(g);
        crate::simd::set_mode(None);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
        [
            bits(&grad_in.data),
            bits(&conv.grad_weight),
            bits(&conv.grad_bias),
        ]
    }

    /// The AVX2 backward kernels are the bit-exact twins of the scalar
    /// ones: every kernel width (const-dispatched, fallback, even, wider
    /// than a tap vector), rows shorter than the kernel span, channel
    /// counts on and off the four-row blocks, and a batch that splits
    /// into two micro-batches. Dilation 2 takes the scalar path under
    /// both dispatches.
    #[test]
    fn avx2_backward_is_bit_identical_to_the_scalar_twin() {
        if !std::arch::is_x86_feature_detected!("avx2")
            || !std::arch::is_x86_feature_detected!("fma")
        {
            return; // nothing to compare on this host
        }
        let _dispatch = crate::simd::lock_dispatch();
        let shapes = [(1usize, 8usize), (3, 4), (4, 5), (8, 16)];
        let mut cases: Vec<(usize, usize, usize, usize, usize)> = Vec::new();
        for k in [1usize, 2, 3, 4, 5, 7, 9, 15, 17, 63] {
            for l in [3usize, 5, 16, 17, 40, 73] {
                for &(ci, co) in &shapes {
                    cases.push((ci, co, k, 1, l));
                }
            }
        }
        for &(ci, co) in &shapes {
            cases.push((ci, co, 3, 2, 40));
            cases.push((ci, co, 5, 2, 17));
        }
        for (ci, co, k, d, l) in cases {
            let conv = Conv1d::dilated(ci, co, k, d, (ci * 100 + co * 10 + k) as u64);
            let b = 5;
            let x = sample_input(b, ci, l);
            let g = Tensor::from_data(
                b,
                co,
                l,
                (0..b * co * l)
                    .map(|i| ((i * 53 % 31) as f32 - 15.0) / 9.0)
                    .collect(),
            );
            let scalar = backward_bits(&conv, &x, &g, SimdMode::Scalar);
            let simd = backward_bits(&conv, &x, &g, SimdMode::Avx2);
            for (what, (s, v)) in ["grad_in", "grad_weight", "grad_bias"]
                .iter()
                .zip(scalar.iter().zip(&simd))
            {
                assert_eq!(s, v, "{what}: ci={ci} co={co} k={k} d={d} l={l}");
            }
        }
    }

    /// Output bits of `conv.infer(x)` under `mode`.
    fn forward_bits(conv: &Conv1d, x: &Tensor, mode: SimdMode) -> Vec<u32> {
        crate::simd::set_mode(Some(mode));
        let y = conv.infer(x);
        crate::simd::set_mode(None);
        y.data.iter().map(|f| f.to_bits()).collect()
    }

    /// The AVX2 forward (mul then add) is the bit-exact twin of the
    /// scalar one: every kernel width (const-dispatched, fallback, even,
    /// wider than a step), rows shorter than the kernel span, channel
    /// counts on and off the four-row blocks (remainder rows run the
    /// scalar twin in both runs), dilation 2, a span too wide for the
    /// vector kernel's edge staging, and a batch that fans out across
    /// workers.
    #[test]
    fn avx2_forward_is_bit_identical_to_the_scalar_twin() {
        if !std::arch::is_x86_feature_detected!("avx2")
            || !std::arch::is_x86_feature_detected!("fma")
        {
            return; // nothing to compare on this host
        }
        let _dispatch = crate::simd::lock_dispatch();
        let shapes = [(1usize, 8usize), (3, 4), (4, 5), (8, 16), (2, 6)];
        // (ci, co, k, d, l, batch)
        let mut cases: Vec<(usize, usize, usize, usize, usize, usize)> = Vec::new();
        for k in [1usize, 2, 3, 4, 5, 7, 9, 15, 17, 63] {
            for l in [3usize, 5, 16, 17, 40, 73] {
                for &(ci, co) in &shapes {
                    cases.push((ci, co, k, 1, l, 3));
                }
            }
        }
        for &(ci, co) in &shapes {
            cases.push((ci, co, 3, 2, 40, 3));
            cases.push((ci, co, 5, 2, 17, 3));
            cases.push((ci, co, 17, 9, 73, 3)); // span 144: scalar twin only
        }
        cases.push((8, 16, 9, 1, 40, ds_par::batch_floor() + 1));
        ds_par::set_threads(Some(2));
        for (ci, co, k, d, l, b) in cases {
            let mut conv = Conv1d::dilated(ci, co, k, d, (ci * 100 + co * 10 + k) as u64);
            for (i, v) in conv.bias.iter_mut().enumerate() {
                *v = (i as f32 - 2.0) * 0.03;
            }
            let x = sample_input(b, ci, l);
            let scalar = forward_bits(&conv, &x, SimdMode::Scalar);
            let simd = forward_bits(&conv, &x, SimdMode::Avx2);
            assert_eq!(scalar, simd, "ci={ci} co={co} k={k} d={d} l={l} b={b}");
        }
        ds_par::set_threads(None);
    }

    /// Finite-difference gradient check for weights, bias and input,
    /// under both dispatches.
    #[test]
    fn gradient_check() {
        let _dispatch = crate::simd::lock_dispatch();
        for mode in [SimdMode::Scalar, SimdMode::Avx2] {
            crate::simd::set_mode(Some(mode));
            gradient_check_once();
            crate::simd::set_mode(None);
        }
    }

    fn gradient_check_once() {
        let mut conv = Conv1d::new(2, 3, 5, 42);
        let x = sample_input(2, 2, 9);
        // Loss = sum of squares of output / 2 -> dL/dy = y.
        let y = conv.forward(&x, true);
        let grad_in = conv.backward(&y);
        let eps = 1e-3f32;

        // Weight gradients.
        for wi in [0usize, 7, 13, conv.weight.len() - 1] {
            let orig = conv.weight[wi];
            conv.weight[wi] = orig + eps;
            let lp: f32 = conv
                .forward(&x, false)
                .data
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            conv.weight[wi] = orig - eps;
            let lm: f32 = conv
                .forward(&x, false)
                .data
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            conv.weight[wi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = conv.grad_weight[wi];
            assert!(
                (numeric - analytic).abs() < 2e-2 * numeric.abs().max(1.0),
                "w[{wi}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Bias gradients.
        for bi in 0..conv.bias.len() {
            let orig = conv.bias[bi];
            conv.bias[bi] = orig + eps;
            let lp: f32 = conv
                .forward(&x, false)
                .data
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            conv.bias[bi] = orig - eps;
            let lm: f32 = conv
                .forward(&x, false)
                .data
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            conv.bias[bi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = conv.grad_bias[bi];
            assert!(
                (numeric - analytic).abs() < 2e-2 * numeric.abs().max(1.0),
                "b[{bi}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Input gradients.
        let mut x2 = x.clone();
        for xi in [0usize, 5, 11, x.data.len() - 1] {
            let orig = x2.data[xi];
            x2.data[xi] = orig + eps;
            let lp: f32 = conv
                .forward(&x2, false)
                .data
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            x2.data[xi] = orig - eps;
            let lm: f32 = conv
                .forward(&x2, false)
                .data
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            x2.data[xi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad_in.data[xi];
            assert!(
                (numeric - analytic).abs() < 2e-2 * numeric.abs().max(1.0),
                "x[{xi}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn even_kernel_gradient_check() {
        let mut conv = Conv1d::new(1, 2, 4, 9);
        let x = sample_input(1, 1, 8);
        let y = conv.forward(&x, true);
        let _ = conv.backward(&y);
        let eps = 1e-3f32;
        let wi = 3;
        let orig = conv.weight[wi];
        conv.weight[wi] = orig + eps;
        let lp: f32 = conv
            .forward(&x, false)
            .data
            .iter()
            .map(|v| v * v / 2.0)
            .sum();
        conv.weight[wi] = orig - eps;
        let lm: f32 = conv
            .forward(&x, false)
            .data
            .iter()
            .map(|v| v * v / 2.0)
            .sum();
        conv.weight[wi] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!((numeric - conv.grad_weight[wi]).abs() < 2e-2 * numeric.abs().max(1.0));
    }

    #[test]
    fn dilated_forward_matches_reference() {
        for dilation in [2usize, 3, 4] {
            let mut conv = Conv1d::dilated(2, 3, 3, dilation, 13);
            let x = sample_input(2, 2, 24);
            let fast = conv.forward(&x, false);
            let slow = reference_forward(&conv, &x);
            for (a, b) in fast.data.iter().zip(slow.data.iter()) {
                assert!((a - b).abs() < 1e-4, "dilation {dilation}: {a} vs {b}");
            }
            assert_eq!(fast.shape(), (2, 3, 24));
        }
    }

    #[test]
    fn dilated_gradient_check() {
        let mut conv = Conv1d::dilated(1, 2, 3, 4, 21);
        let x = sample_input(1, 1, 20);
        let y = conv.forward(&x, true);
        let grad_in = conv.backward(&y);
        let eps = 1e-3f32;
        for wi in 0..conv.weight.len() {
            let orig = conv.weight[wi];
            conv.weight[wi] = orig + eps;
            let lp: f32 = conv
                .forward(&x, false)
                .data
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            conv.weight[wi] = orig - eps;
            let lm: f32 = conv
                .forward(&x, false)
                .data
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            conv.weight[wi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - conv.grad_weight[wi]).abs() < 2e-2 * numeric.abs().max(1.0),
                "dilated w[{wi}]"
            );
        }
        let mut x2 = x.clone();
        for xi in [0usize, 7, 19] {
            let orig = x2.data[xi];
            x2.data[xi] = orig + eps;
            let lp: f32 = conv
                .forward(&x2, false)
                .data
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            x2.data[xi] = orig - eps;
            let lm: f32 = conv
                .forward(&x2, false)
                .data
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            x2.data[xi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad_in.data[xi]).abs() < 2e-2 * numeric.abs().max(1.0),
                "dilated x[{xi}]"
            );
        }
    }

    #[test]
    #[should_panic(expected = "requires forward")]
    fn backward_without_forward_panics() {
        let mut conv = Conv1d::new(1, 1, 3, 0);
        let g = Tensor::zeros(1, 1, 4);
        let _ = conv.backward(&g);
    }

    #[test]
    fn visit_params_reaches_everything() {
        let mut conv = Conv1d::new(2, 3, 5, 1);
        use crate::VisitParams;
        assert_eq!(conv.param_count(), 2 * 3 * 5 + 3);
        conv.grad_weight.fill(1.0);
        conv.zero_grad();
        assert!(conv.grad_weight.iter().all(|&g| g == 0.0));
    }
}

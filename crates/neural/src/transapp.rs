//! The TransAppS-style detector backbone (ADF & TransApp, arXiv
//! 2401.05381; DeviceScope's `transapps` model): a convolutional
//! embedding followed by small self-attention blocks and the same
//! GAP-classifier head the other backbones use — so the class-activation
//! surface is identical and the CamAL localizer needs no changes.
//!
//! The scaled-down shape here keeps the paper's structure — conv
//! embedding, pre-norm-free residual attention, conv feed-forward,
//! BatchNorm between stages — at ensemble-member size. Every learned
//! projection (Q/K/V/O, both FFN stages) is a **1×1 convolution**, which
//! at inference is exactly a per-position linear map: the frozen form
//! therefore rides the existing SIMD conv kernels and the int8 quantized
//! path without any new kernel code. Only the attention softmax itself is
//! bespoke, and the frozen path calls the very same [`softmax_inplace`]
//! the mutable path uses, so the two associate floating-point operations
//! identically — the parity suite holds them to the frozen-plan contract
//! (probs ≤ 1e-4, CAMs ≤ 1e-3, zero decision flips).
//!
//! Frozen-plan buffer choreography per block (input in `buf_a`): Q, K, V
//! land in three aux regions, attention scores use one `[L, L]` aux
//! region row-by-row, the attended values go to `buf_b`, the output
//! projection to `buf_c`, residual-add back onto `buf_a`, and both
//! BatchNorms apply as folded per-channel affines in place — zero heap
//! allocations at steady state, like every other frozen plan.

use crate::activations::{relu_infer, ReLU};
use crate::batchnorm::BatchNorm1d;
use crate::cam::cam_from_features;
use crate::conv::Conv1d;
use crate::frozen::{finish_forward, maxabs, FrozenConv, PlanConv};
use crate::linear::Linear;
use crate::loss::softmax_row;
use crate::plan::InferenceArena;
use crate::pool::GlobalAvgPool;
use crate::tensor::{Matrix, Tensor};
use crate::VisitParams;
use serde::{Deserialize, Serialize};

/// Architecture hyper-parameters of a [`TransAppNet`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransAppConfig {
    /// Input channels (1 for univariate consumption series).
    pub in_channels: usize,
    /// Embedding width / attention model dimension.
    pub d_model: usize,
    /// Number of attention blocks.
    pub blocks: usize,
    /// Kernel size of the convolutional embedding.
    pub kernel: usize,
    /// Number of classes of the head (2 for appliance detection).
    pub num_classes: usize,
    /// Seed controlling weight initialization.
    pub seed: u64,
}

/// In-place numerically-stable softmax over one score row. Shared by the
/// mutable and frozen attention paths so both associate the exponentials
/// and the normalizing sum identically.
pub(crate) fn softmax_inplace(row: &mut [f32]) {
    let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// One attention block: single-head self-attention (1×1-conv Q/K/V/O) with
/// a residual connection and BatchNorm, then a 1×1-conv feed-forward
/// (d → 2d → d, ReLU) with its own residual and BatchNorm.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TransBlock {
    q: Conv1d,
    k: Conv1d,
    v: Conv1d,
    o: Conv1d,
    bn1: BatchNorm1d,
    ffn1: Conv1d,
    ffn2: Conv1d,
    bn2: BatchNorm1d,
    #[serde(skip)]
    relu_ffn: ReLU,
    /// Attention forward caches for backward: (Q, K, V, attn rows).
    #[serde(skip)]
    cache: Option<AttnCache>,
    d: usize,
}

#[derive(Debug, Clone)]
struct AttnCache {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Row-major `[B, L, L]` attention weights: `attn[b][i*l + j]` is the
    /// weight of source position `j` for output position `i`.
    attn: Vec<Vec<f32>>,
}

/// `out[c, i] = Σ_j attn[i*l + j] · v[c, j]` for one batch row.
fn apply_attention(attn: &[f32], v: &Tensor, bi: usize, out: &mut Tensor) {
    let (_, d, l) = v.shape();
    for c in 0..d {
        let vr = v.row(bi, c);
        let or = out.row_mut(bi, c);
        for i in 0..l {
            let a = &attn[i * l..(i + 1) * l];
            let mut acc = 0.0f32;
            for j in 0..l {
                acc += a[j] * vr[j];
            }
            or[i] = acc;
        }
    }
}

/// Raw attention scores `S[i, j] = (Σ_c q[c, i]·k[c, j]) / √d` for one
/// batch row, one output position `i` at a time, into `row`.
fn score_row(q: &Tensor, k: &Tensor, bi: usize, i: usize, inv_sqrt_d: f32, row: &mut [f32]) {
    let (_, d, l) = q.shape();
    row[..l].fill(0.0);
    for c in 0..d {
        let qv = q.row(bi, c)[i];
        if qv == 0.0 {
            continue;
        }
        let kr = k.row(bi, c);
        for j in 0..l {
            row[j] += qv * kr[j];
        }
    }
    for s in row[..l].iter_mut() {
        *s *= inv_sqrt_d;
    }
}

impl TransBlock {
    fn new(d: usize, seed: u64) -> TransBlock {
        TransBlock {
            q: Conv1d::new(d, d, 1, seed),
            k: Conv1d::new(d, d, 1, seed.wrapping_add(1)),
            v: Conv1d::new(d, d, 1, seed.wrapping_add(2)),
            o: Conv1d::new(d, d, 1, seed.wrapping_add(3)),
            bn1: BatchNorm1d::new(d),
            ffn1: Conv1d::new(d, 2 * d, 1, seed.wrapping_add(4)),
            ffn2: Conv1d::new(2 * d, d, 1, seed.wrapping_add(5)),
            bn2: BatchNorm1d::new(d),
            relu_ffn: ReLU::new(),
            cache: None,
            d,
        }
    }

    /// Self-attention on `[B, d, L]`: returns the attended values (before
    /// the output projection), caching Q/K/V/attn when `train`.
    fn attention(&mut self, x: &Tensor, train: bool) -> Tensor {
        let (b, _, l) = x.shape();
        let q = self.q.forward(x, train);
        let k = self.k.forward(x, train);
        let v = self.v.forward(x, train);
        let inv_sqrt_d = 1.0 / (self.d as f32).sqrt();
        let mut out = x.zeros_like();
        let mut attn: Vec<Vec<f32>> = Vec::with_capacity(if train { b } else { 0 });
        let mut row = vec![0.0f32; l];
        for bi in 0..b {
            let mut rows = vec![0.0f32; l * l];
            for i in 0..l {
                score_row(&q, &k, bi, i, inv_sqrt_d, &mut row);
                softmax_inplace(&mut row[..l]);
                rows[i * l..(i + 1) * l].copy_from_slice(&row[..l]);
            }
            apply_attention(&rows, &v, bi, &mut out);
            if train {
                attn.push(rows);
            }
        }
        if train {
            self.cache = Some(AttnCache { q, k, v, attn });
        }
        out
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let attended = self.attention(x, train);
        let mut h = self.o.forward(&attended, train);
        h.add_assign(x);
        let h = self.bn1.forward(&h, train);
        let f = self.ffn1.forward(&h, train);
        let f = self.relu_ffn.forward(&f, train);
        let mut f = self.ffn2.forward(&f, train);
        f.add_assign(&h);
        self.bn2.forward(&f, train)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let (b, _, l) = x.shape();
        let q = self.q.infer(x);
        let k = self.k.infer(x);
        let v = self.v.infer(x);
        let inv_sqrt_d = 1.0 / (self.d as f32).sqrt();
        let mut attended = x.zeros_like();
        let mut rows = vec![0.0f32; l * l];
        let mut row = vec![0.0f32; l];
        for bi in 0..b {
            for i in 0..l {
                score_row(&q, &k, bi, i, inv_sqrt_d, &mut row);
                softmax_inplace(&mut row[..l]);
                rows[i * l..(i + 1) * l].copy_from_slice(&row[..l]);
            }
            apply_attention(&rows, &v, bi, &mut attended);
        }
        let mut h = self.o.infer(&attended);
        h.add_assign(x);
        let h = self.bn1.infer(&h);
        let f = relu_infer(&self.ffn1.infer(&h));
        let mut f = self.ffn2.infer(&f);
        f.add_assign(&h);
        self.bn2.infer(&f)
    }

    /// Backward through the whole block. Attention backward, per batch row:
    /// `dV[c,j] = Σ_i A[i,j]·dO[c,i]`, `dA[i,j] = Σ_c dO[c,i]·V[c,j]`,
    /// softmax backward `dS = A ⊙ (dA − rowdot(dA, A))`, then
    /// `dQ[c,i] = Σ_j dS[i,j]·K[c,j]·inv√d` and
    /// `dK[c,j] = Σ_i dS[i,j]·Q[c,i]·inv√d`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.bn2.backward(grad_out);
        // FFN residual: g flows both through the FFN and directly to h.
        let gf = self.ffn2.backward(&g);
        let gf = self.relu_ffn.backward(&gf);
        let mut gh = self.ffn1.backward(&gf);
        gh.add_assign(&g);
        let gh = self.bn1.backward(&gh);
        // Attention residual: gh flows through o-projection and directly to x.
        let g_att = self.o.backward(&gh);
        let cache = self
            .cache
            .take()
            .expect("TransBlock::backward requires forward(train=true) first");
        let (b, d, l) = cache.q.shape();
        let inv_sqrt_d = 1.0 / (self.d as f32).sqrt();
        let mut dq = cache.q.zeros_like();
        let mut dk = cache.k.zeros_like();
        let mut dv = cache.v.zeros_like();
        let mut da = vec![0.0f32; l * l];
        let mut ds = vec![0.0f32; l * l];
        for bi in 0..b {
            let attn = &cache.attn[bi];
            // dV and dA.
            da.fill(0.0);
            for c in 0..d {
                let go = g_att.row(bi, c);
                let vr = cache.v.row(bi, c);
                let dvr = dv.row_mut(bi, c);
                for i in 0..l {
                    let g = go[i];
                    if g == 0.0 {
                        continue;
                    }
                    let ar = &attn[i * l..(i + 1) * l];
                    let dar = &mut da[i * l..(i + 1) * l];
                    for j in 0..l {
                        dvr[j] += ar[j] * g;
                        dar[j] += g * vr[j];
                    }
                }
            }
            // Softmax backward per output row.
            for i in 0..l {
                let ar = &attn[i * l..(i + 1) * l];
                let dar = &da[i * l..(i + 1) * l];
                let dot: f32 = ar.iter().zip(dar).map(|(a, g)| a * g).sum();
                let dsr = &mut ds[i * l..(i + 1) * l];
                for j in 0..l {
                    dsr[j] = ar[j] * (dar[j] - dot);
                }
            }
            // dQ and dK through the scaled dot product.
            for c in 0..d {
                let qr = cache.q.row(bi, c);
                let kr = cache.k.row(bi, c);
                let dqr = dq.row_mut(bi, c);
                for i in 0..l {
                    let dsr = &ds[i * l..(i + 1) * l];
                    let mut acc = 0.0f32;
                    for j in 0..l {
                        acc += dsr[j] * kr[j];
                    }
                    dqr[i] = acc * inv_sqrt_d;
                }
                let dkr = dk.row_mut(bi, c);
                for j in 0..l {
                    let mut acc = 0.0f32;
                    for i in 0..l {
                        acc += ds[i * l + j] * qr[i];
                    }
                    dkr[j] = acc * inv_sqrt_d;
                }
            }
        }
        let mut grad_in = self.q.backward(&dq);
        grad_in.add_assign(&self.k.backward(&dk));
        grad_in.add_assign(&self.v.backward(&dv));
        grad_in.add_assign(&gh); // residual branch
        grad_in
    }
}

impl VisitParams for TransBlock {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.q.visit_params(f);
        self.k.visit_params(f);
        self.v.visit_params(f);
        self.o.visit_params(f);
        self.bn1.visit_params(f);
        self.ffn1.visit_params(f);
        self.ffn2.visit_params(f);
        self.bn2.visit_params(f);
    }
}

/// The TransAppS-style detector: conv embedding (conv + BN + ReLU) →
/// attention blocks → GAP → linear head.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransAppNet {
    config: TransAppConfig,
    embed: Conv1d,
    embed_bn: BatchNorm1d,
    #[serde(skip)]
    embed_relu: ReLU,
    blocks: Vec<TransBlock>,
    gap: GlobalAvgPool,
    head: Linear,
    #[serde(skip)]
    last_features: Option<Tensor>,
}

impl TransAppNet {
    /// Build a freshly initialized network.
    pub fn new(config: TransAppConfig) -> TransAppNet {
        assert!(config.blocks > 0, "at least one attention block");
        assert!(config.d_model > 0, "d_model must be positive");
        let embed = Conv1d::new(
            config.in_channels,
            config.d_model,
            config.kernel,
            config.seed,
        );
        let blocks = (0..config.blocks)
            .map(|i| {
                TransBlock::new(
                    config.d_model,
                    config.seed.wrapping_add(1000 * (i as u64 + 1)),
                )
            })
            .collect();
        let head = Linear::new(
            config.d_model,
            config.num_classes,
            config.seed.wrapping_add(9999),
        );
        TransAppNet {
            embed,
            embed_bn: BatchNorm1d::new(config.d_model),
            embed_relu: ReLU::new(),
            blocks,
            gap: GlobalAvgPool::new(),
            head,
            last_features: None,
            config,
        }
    }

    /// The architecture parameters.
    pub fn config(&self) -> &TransAppConfig {
        &self.config
    }

    /// Kernel size of the convolutional embedding.
    pub fn kernel(&self) -> usize {
        self.config.kernel
    }

    /// Forward pass to logits `[B, num_classes]`; caches the last-block
    /// feature maps for CAM extraction.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Matrix {
        let h = self.embed.forward(x, train);
        let h = self.embed_bn.forward(&h, train);
        let mut h = self.embed_relu.forward(&h, train);
        for block in &mut self.blocks {
            h = block.forward(&h, train);
        }
        let pooled = self.gap.forward(&h, train);
        self.last_features = Some(h);
        self.head.forward(&pooled, train)
    }

    /// Pure inference: `(logits, last-block features)`.
    pub fn infer(&self, x: &Tensor) -> (Matrix, Tensor) {
        let mut h = relu_infer(&self.embed_bn.infer(&self.embed.infer(x)));
        for block in &self.blocks {
            h = block.infer(&h);
        }
        let pooled = self.gap.infer(&h);
        let logits = self.head.infer(&pooled);
        (logits, h)
    }

    /// Pure inference: positive-class probability and class-1 CAM per row.
    pub fn infer_with_cam(&self, x: &Tensor) -> (Vec<f32>, Vec<Vec<f32>>) {
        let (logits, features) = self.infer(x);
        let mut probs = Vec::with_capacity(logits.rows);
        let mut row = vec![0.0f32; logits.cols];
        for r in 0..logits.rows {
            softmax_row(logits.row(r), &mut row);
            probs.push(row[1]);
        }
        let cams = cam_from_features(&features, self.head.weight_row(1));
        (probs, cams)
    }

    /// Backward from logit gradients (after a training-mode forward).
    pub fn backward(&mut self, grad_logits: &Matrix) {
        let g = self.head.backward(grad_logits);
        let mut g = self.gap.backward(&g);
        for block in self.blocks.iter_mut().rev() {
            g = block.backward(&g);
        }
        let g = self.embed_relu.backward(&g);
        let g = self.embed_bn.backward(&g);
        let _ = self.embed.backward(&g);
    }
}

impl VisitParams for TransAppNet {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.embed.visit_params(f);
        self.embed_bn.visit_params(f);
        for block in &mut self.blocks {
            block.visit_params(f);
        }
        self.head.visit_params(f);
    }
}

// ---------------------------------------------------------------------------
// Frozen plan
// ---------------------------------------------------------------------------

/// Calibration record of one frozen block's conv inputs.
#[derive(Debug, Clone, Copy, Default)]
struct TransRanges {
    /// Block input (feeds Q/K/V).
    input: f32,
    /// Attended values (feed the output projection).
    attn_out: f32,
    /// Post-BN1 activation (feeds ffn1).
    bn1_out: f32,
    /// FFN hidden activation (feeds ffn2).
    ffn_hidden: f32,
}

#[derive(Debug, Clone)]
struct FrozenTransBlock {
    q: PlanConv,
    k: PlanConv,
    v: PlanConv,
    o: PlanConv,
    bn1_scale: Vec<f32>,
    bn1_shift: Vec<f32>,
    ffn1: PlanConv,
    ffn2: PlanConv,
    bn2_scale: Vec<f32>,
    bn2_shift: Vec<f32>,
    d: usize,
}

impl FrozenTransBlock {
    /// Run the block in place over `buf_a` (input and output), using
    /// `buf_b`/`buf_c` as `[B, 2d, L]`-capable scratch and `aux` for
    /// Q/K/V (`3·B·d·L`) plus one `[L, L]` score matrix.
    #[allow(clippy::too_many_arguments)]
    fn infer_into(
        &self,
        buf_a: &mut [f32],
        buf_b: &mut [f32],
        buf_c: &mut [f32],
        aux: &mut [f32],
        qbuf: &mut [i8],
        batch: usize,
        l: usize,
        mut ranges: Option<&mut TransRanges>,
    ) {
        let d = self.d;
        let n = batch * d * l;
        let x = &buf_a[..n];
        if let Some(r) = ranges.as_deref_mut() {
            r.input = r.input.max(maxabs(x));
        }
        let (q_buf, rest) = aux.split_at_mut(n);
        let (k_buf, rest) = rest.split_at_mut(n);
        let (v_buf, rest) = rest.split_at_mut(n);
        let scores = &mut rest[..l * l];
        self.q.infer_into(x, batch, l, q_buf, false, qbuf);
        self.k.infer_into(x, batch, l, k_buf, false, qbuf);
        self.v.infer_into(x, batch, l, v_buf, false, qbuf);
        // Attention: scores row-by-row, softmax, attended values → buf_b.
        let inv_sqrt_d = 1.0 / (d as f32).sqrt();
        for bi in 0..batch {
            let base = bi * d * l;
            for i in 0..l {
                let row = &mut scores[i * l..(i + 1) * l];
                row.fill(0.0);
                for c in 0..d {
                    let qv = q_buf[base + c * l + i];
                    if qv == 0.0 {
                        continue;
                    }
                    let kr = &k_buf[base + c * l..base + (c + 1) * l];
                    for j in 0..l {
                        row[j] += qv * kr[j];
                    }
                }
                for s in row.iter_mut() {
                    *s *= inv_sqrt_d;
                }
                softmax_inplace(row);
            }
            for c in 0..d {
                let vr = &v_buf[base + c * l..base + (c + 1) * l];
                let or = &mut buf_b[base + c * l..base + (c + 1) * l];
                for i in 0..l {
                    let a = &scores[i * l..(i + 1) * l];
                    let mut acc = 0.0f32;
                    for j in 0..l {
                        acc += a[j] * vr[j];
                    }
                    or[i] = acc;
                }
            }
        }
        if let Some(r) = ranges.as_deref_mut() {
            r.attn_out = r.attn_out.max(maxabs(&buf_b[..n]));
        }
        // Output projection → buf_c, residual add onto x, BN1 affine.
        self.o.infer_into(&buf_b[..n], batch, l, buf_c, false, qbuf);
        for bi in 0..batch {
            for c in 0..d {
                let base = (bi * d + c) * l;
                let (s, t) = (self.bn1_scale[c], self.bn1_shift[c]);
                for i in 0..l {
                    let h = buf_c[base + i] + buf_a[base + i];
                    buf_a[base + i] = h * s + t;
                }
            }
        }
        if let Some(r) = ranges.as_deref_mut() {
            r.bn1_out = r.bn1_out.max(maxabs(&buf_a[..n]));
        }
        // FFN: d → 2d (ReLU) → d, residual, BN2 affine.
        self.ffn1
            .infer_into(&buf_a[..n], batch, l, buf_b, true, qbuf);
        if let Some(r) = ranges {
            r.ffn_hidden = r.ffn_hidden.max(maxabs(&buf_b[..batch * 2 * d * l]));
        }
        self.ffn2
            .infer_into(&buf_b[..batch * 2 * d * l], batch, l, buf_c, false, qbuf);
        for bi in 0..batch {
            for c in 0..d {
                let base = (bi * d + c) * l;
                let (s, t) = (self.bn2_scale[c], self.bn2_shift[c]);
                for i in 0..l {
                    let f = buf_c[base + i] + buf_a[base + i];
                    buf_a[base + i] = f * s + t;
                }
            }
        }
    }

    fn push_bits(&self, bits: &mut Vec<u32>) {
        for conv in [&self.q, &self.k, &self.v, &self.o, &self.ffn1, &self.ffn2] {
            conv.push_bits(bits);
        }
        for affine in [
            &self.bn1_scale,
            &self.bn1_shift,
            &self.bn2_scale,
            &self.bn2_shift,
        ] {
            bits.extend(affine.iter().map(|v| v.to_bits()));
        }
    }
}

/// The frozen serving form of a [`TransAppNet`], at either precision —
/// embedding BN folded into the embedding conv (ReLU fused), block
/// BatchNorms applied as per-channel affines, attention run inside the
/// arena's aux scratch with zero steady-state allocations.
#[derive(Debug, Clone)]
pub struct FrozenTransApp {
    embed: PlanConv,
    blocks: Vec<FrozenTransBlock>,
    head_weight: Vec<f32>,
    head_bias: Vec<f32>,
    in_channels: usize,
    d: usize,
    num_classes: usize,
    kernel: usize,
}

impl FrozenTransApp {
    /// Compile `net` into a frozen f32 plan. `net` is read, not consumed.
    pub fn freeze(net: &TransAppNet) -> FrozenTransApp {
        assert!(
            net.head.out_features >= 2,
            "frozen plan needs a binary (or wider) head for class-1 CAM"
        );
        let blocks = net
            .blocks
            .iter()
            .map(|b| {
                let (bn1_scale, bn1_shift) = b.bn1.inference_affine();
                let (bn2_scale, bn2_shift) = b.bn2.inference_affine();
                FrozenTransBlock {
                    q: PlanConv::F32(FrozenConv::from_conv(&b.q)),
                    k: PlanConv::F32(FrozenConv::from_conv(&b.k)),
                    v: PlanConv::F32(FrozenConv::from_conv(&b.v)),
                    o: PlanConv::F32(FrozenConv::from_conv(&b.o)),
                    bn1_scale,
                    bn1_shift,
                    ffn1: PlanConv::F32(FrozenConv::from_conv(&b.ffn1)),
                    ffn2: PlanConv::F32(FrozenConv::from_conv(&b.ffn2)),
                    bn2_scale,
                    bn2_shift,
                    d: b.d,
                }
            })
            .collect();
        FrozenTransApp {
            embed: PlanConv::F32(FrozenConv::fold(&net.embed, &net.embed_bn)),
            blocks,
            head_weight: net.head.weight.clone(),
            head_bias: net.head.bias.clone(),
            in_channels: net.config.in_channels,
            d: net.config.d_model,
            num_classes: net.head.out_features,
            kernel: net.config.kernel,
        }
    }

    /// Quantize this f32 plan into an int8 plan, calibrating every conv's
    /// input activation scale by replaying `calib` through the f32 path.
    /// Attention math, residual adds and the BN affines stay f32.
    pub fn quantize(&self, calib: &Tensor) -> FrozenTransApp {
        let mut ranges = vec![TransRanges::default(); self.blocks.len()];
        self.forward(calib, &mut InferenceArena::new(), Some(&mut ranges));
        let blocks = self
            .blocks
            .iter()
            .zip(&ranges)
            .map(|(b, r)| FrozenTransBlock {
                q: b.q.quantize(r.input),
                k: b.k.quantize(r.input),
                v: b.v.quantize(r.input),
                o: b.o.quantize(r.attn_out),
                ffn1: b.ffn1.quantize(r.bn1_out),
                ffn2: b.ffn2.quantize(r.ffn_hidden),
                ..b.clone()
            })
            .collect();
        FrozenTransApp {
            embed: self.embed.quantize(calib.max_abs()),
            blocks,
            head_weight: self.head_weight.clone(),
            head_bias: self.head_bias.clone(),
            ..*self
        }
    }

    fn aux_len(&self, batch: usize, l: usize) -> usize {
        3 * batch * self.d * l + l * l
    }

    /// Whether this plan was built by [`FrozenTransApp::quantize`].
    pub fn is_int8(&self) -> bool {
        self.embed.is_int8()
    }

    /// Kernel size of the convolutional embedding.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Channel count of the final feature maps (= `d_model`).
    pub fn features(&self) -> usize {
        self.d
    }

    /// Widest channel count of any activation tensor (the FFN hidden).
    pub fn max_channels(&self) -> usize {
        (2 * self.d).max(self.in_channels)
    }

    /// Number of classes of the head.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Full forward pass into `arena` — same outputs and contract as
    /// [`crate::frozen::FrozenResNet::predict_into`]: zero heap
    /// allocations once the arena has seen the shape.
    pub fn predict_into(&self, x: &Tensor, arena: &mut InferenceArena) {
        let _span = ds_obs::span!(if self.is_int8() {
            "frozen.forward.int8"
        } else {
            "frozen.forward"
        });
        self.forward(x, arena, None);
    }

    /// [`FrozenTransApp::predict_into`] without the span; `ranges` (one
    /// record per block) collects activation max-abs when calibrating.
    fn forward(
        &self,
        x: &Tensor,
        arena: &mut InferenceArena,
        mut ranges: Option<&mut [TransRanges]>,
    ) {
        let (b, c, l) = x.shape();
        assert_eq!(c, self.in_channels, "frozen input channel mismatch");
        assert!(b > 0 && l > 0, "frozen forward needs a non-empty batch");
        let mc = self.max_channels();
        if self.is_int8() {
            arena.ensure_quant(b, l, mc, self.d, self.num_classes);
        } else {
            arena.ensure(b, l, mc, self.d, self.num_classes);
        }
        arena.ensure_aux(self.aux_len(b, l));
        let (buf_a, buf_b, buf_c, qbuf, aux, pooled, logits, softmax, probs, cams) = arena.parts();
        self.embed
            .infer_into(&x.data[..b * c * l], b, l, buf_b, true, qbuf);
        buf_a[..b * self.d * l].copy_from_slice(&buf_b[..b * self.d * l]);
        for (i, block) in self.blocks.iter().enumerate() {
            let r = ranges.as_deref_mut().map(|r| &mut r[i]);
            block.infer_into(buf_a, buf_b, buf_c, aux, qbuf, b, l, r);
        }
        let feats = &buf_a[..b * self.d * l];
        finish_forward(
            feats,
            &self.head_weight,
            &self.head_bias,
            self.d,
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

    /// Raw parameter bits in a fixed traversal order, for persistence
    /// round-trip equality checks.
    pub fn param_bits(&self) -> Vec<u32> {
        let mut bits = Vec::new();
        self.embed.push_bits(&mut bits);
        for block in &self.blocks {
            block.push_bits(&mut bits);
        }
        bits.extend(self.head_weight.iter().map(|v| v.to_bits()));
        bits.extend(self.head_bias.iter().map(|v| v.to_bits()));
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_input(b: usize, c: usize, l: usize, seed: usize) -> Tensor {
        let data: Vec<f32> = (0..b * c * l)
            .map(|i| (((i + seed) * 29 % 13) as f32 - 6.0) / 3.0)
            .collect();
        Tensor::from_data(b, c, l, data)
    }

    fn tiny_config(kernel: usize, seed: u64) -> TransAppConfig {
        TransAppConfig {
            in_channels: 1,
            d_model: 4,
            blocks: 1,
            kernel,
            num_classes: 2,
            seed,
        }
    }

    fn warm_bn(net: &mut TransAppNet, l: usize) {
        let x = sample_input(6, net.config.in_channels, l, 3);
        for _ in 0..4 {
            let _ = net.forward(&x, true);
        }
    }

    #[test]
    fn forward_shapes() {
        let mut net = TransAppNet::new(tiny_config(5, 1));
        let x = sample_input(3, 1, 20, 0);
        let logits = net.forward(&x, false);
        assert_eq!((logits.rows, logits.cols), (3, 2));
        assert_eq!(net.last_features.as_ref().unwrap().shape(), (3, 4, 20));
        assert_eq!(net.kernel(), 5);
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let mut row = vec![0.3f32, -1.0, 2.5, 0.0];
        softmax_inplace(&mut row);
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(row.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn infer_matches_eval_forward() {
        let mut net = TransAppNet::new(tiny_config(5, 8));
        warm_bn(&mut net, 16);
        let x = sample_input(3, 1, 16, 5);
        let logits_mut = net.forward(&x, false);
        let (logits_pure, _) = net.infer(&x);
        for (a, b) in logits_mut.data.iter().zip(&logits_pure.data) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn gradient_check_through_attention() {
        // Finite-difference spot check with loss sum(logits^2)/2 —
        // validates the attention backward (softmax Jacobian, dQ/dK/dV)
        // and the double residual wiring.
        let mut net = TransAppNet::new(tiny_config(3, 11));
        let x = sample_input(2, 1, 8, 1);
        net.zero_grad();
        let logits = net.forward(&x, true);
        net.backward(&logits);
        let mut grads: Vec<f32> = Vec::new();
        net.visit_params(&mut |p, g| {
            for i in [0usize, p.len() / 2, p.len() - 1] {
                let _ = &p[i];
                grads.push(g[i]);
            }
        });
        let loss = |net: &mut TransAppNet, x: &Tensor| -> f32 {
            net.forward(x, true).data.iter().map(|v| v * v / 2.0).sum()
        };
        let eps = 1e-3f32;
        let total = grads.len();
        for (s, &analytic) in grads.iter().enumerate() {
            let mut orig = 0.0f32;
            let probe = |net: &mut TransAppNet, delta: f32, store: &mut f32| {
                let mut vs = 0usize;
                net.visit_params(&mut |p, _| {
                    for ii in [0usize, p.len() / 2, p.len() - 1] {
                        if vs == s {
                            if delta == 0.0 {
                                *store = p[ii];
                            } else {
                                p[ii] += delta;
                            }
                        }
                        vs += 1;
                    }
                });
            };
            probe(&mut net, 0.0, &mut orig);
            probe(&mut net, eps, &mut orig);
            let lp = loss(&mut net, &x);
            probe(&mut net, -2.0 * eps, &mut orig);
            let lm = loss(&mut net, &x);
            probe(&mut net, eps, &mut orig);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic).abs() < 5e-2 * numeric.abs().max(1.0),
                "param sample {s}: numeric {numeric} vs analytic {analytic}"
            );
        }
        assert!(total > 10, "sampled too few parameters");
    }

    #[test]
    fn frozen_matches_reference_within_tolerance() {
        let mut net = TransAppNet::new(tiny_config(5, 77));
        warm_bn(&mut net, 24);
        let frozen = FrozenTransApp::freeze(&net);
        let x = sample_input(4, 1, 24, 0);
        let (probs, cams) = net.infer_with_cam(&x);
        let mut arena = InferenceArena::new();
        frozen.predict_into(&x, &mut arena);
        for bi in 0..4 {
            assert!(
                (arena.probs()[bi] - probs[bi]).abs() < 1e-4,
                "prob {} vs {}",
                arena.probs()[bi],
                probs[bi]
            );
            assert_eq!(arena.probs()[bi] > 0.5, probs[bi] > 0.5, "decision flip");
            for (a, r) in arena.cam(bi).iter().zip(&cams[bi]) {
                assert!((a - r).abs() < 1e-3, "cam {a} vs {r}");
            }
        }
    }

    #[test]
    fn quantized_plan_matches_frozen_decisions() {
        let mut net = TransAppNet::new(tiny_config(5, 9));
        warm_bn(&mut net, 24);
        let frozen = FrozenTransApp::freeze(&net);
        assert!(!frozen.is_int8());
        let quant = frozen.quantize(&sample_input(8, 1, 24, 11));
        assert!(quant.is_int8());
        let x = sample_input(4, 1, 24, 2);
        let mut fa = InferenceArena::new();
        let mut qa = InferenceArena::new();
        frozen.predict_into(&x, &mut fa);
        quant.predict_into(&x, &mut qa);
        for bi in 0..4 {
            let (fp, qp) = (fa.probs()[bi], qa.probs()[bi]);
            assert!((fp - qp).abs() < 0.05, "prob drift {fp} vs {qp}");
            if (fp - 0.5).abs() > 0.05 {
                assert_eq!(fp > 0.5, qp > 0.5, "decision flip");
            }
        }
    }

    #[test]
    fn steady_state_predict_allocates_nothing() {
        let mut net = TransAppNet::new(tiny_config(5, 13));
        warm_bn(&mut net, 20);
        for plan in [
            FrozenTransApp::freeze(&net),
            FrozenTransApp::freeze(&net).quantize(&sample_input(4, 1, 20, 1)),
        ] {
            let x = sample_input(3, 1, 20, 2);
            let mut arena = InferenceArena::new();
            plan.predict_into(&x, &mut arena); // warmup sizes the arena
            let before = ds_obs::alloc_count();
            for _ in 0..8 {
                plan.predict_into(&x, &mut arena);
            }
            assert_eq!(
                ds_obs::alloc_count(),
                before,
                "steady-state frozen transapp forward must not allocate"
            );
        }
    }

    #[test]
    fn refreeze_is_bit_identical() {
        let mut net = TransAppNet::new(tiny_config(3, 5));
        warm_bn(&mut net, 16);
        assert_eq!(
            FrozenTransApp::freeze(&net).param_bits(),
            FrozenTransApp::freeze(&net).param_bits()
        );
    }
}

//! The InceptionTime-style detector backbone (Fawaz et al., DMKD 2020;
//! DeviceScope's `inception` model): residual blocks whose core is a
//! **multi-scale convolution** — a 1×1 bottleneck feeding three parallel
//! convolutions with widening kernels, plus a max-pool → 1×1 branch, all
//! concatenated and batch-normalized. Varying receptive fields live
//! *inside* each block here, where the ResNet ensemble varies them across
//! members.
//!
//! The member's nominal kernel `k` spreads into branch widths
//! `{k, 2k+1, 4k+3}` (for the paper-style `k ∈ {5, 7, 9, 15}` this spans
//! the 10/20/40-tap spread of the original InceptionTime). Kernel widths
//! outside the SIMD kernels' const-dispatched set fall back to the
//! dynamic-width scalar path automatically, so any `k` is correct.
//!
//! The frozen form reuses the whole frozen-plan machinery: the post-concat
//! BatchNorm folds **per branch** into each branch convolution's weights
//! (each branch owns a contiguous slice of the normalized channels), the
//! bottleneck and pool convs freeze as-is, and execution runs inside the
//! shared [`InferenceArena`] (branch staging lives in the arena's aux
//! scratch) with zero steady-state allocations.

use crate::activations::{relu_infer, ReLU};
use crate::batchnorm::BatchNorm1d;
use crate::cam::cam_from_features;
use crate::conv::Conv1d;
use crate::frozen::{finish_forward, FrozenConv};
use crate::linear::Linear;
use crate::loss::softmax_row;
use crate::plan::InferenceArena;
use crate::pool::GlobalAvgPool;
use crate::tensor::{Matrix, Tensor};
use crate::VisitParams;
use serde::{Deserialize, Serialize};

/// Architecture hyper-parameters of an [`InceptionNet`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InceptionConfig {
    /// Input channels (1 for univariate consumption series).
    pub in_channels: usize,
    /// Output channels of each inception block, in order. Every entry must
    /// be divisible by 4 (four equal-width branches are concatenated).
    pub channels: Vec<usize>,
    /// Nominal kernel size; branches use `{k, 2k+1, 4k+3}`.
    pub kernel: usize,
    /// Number of classes of the head (2 for appliance detection).
    pub num_classes: usize,
    /// Seed controlling weight initialization.
    pub seed: u64,
}

/// Width-3, stride-1, same-length max pooling — the Inception block's
/// pool branch. Caches per-element argmax indices for the backward
/// scatter.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MaxPool3 {
    #[serde(skip)]
    cache: Option<(Vec<usize>, (usize, usize, usize))>,
}

/// `y[t] = max(x[t-1], x[t], x[t+1])` with edges clamped; ties resolve to
/// the leftmost position (deterministic scatter targets).
fn maxpool3_row(x: &[f32], y: &mut [f32], argmax: Option<&mut [usize]>) {
    let l = x.len();
    let mut arg_store = argmax;
    for t in 0..l {
        let lo = t.saturating_sub(1);
        let hi = (t + 2).min(l);
        let mut best = lo;
        for j in lo + 1..hi {
            if x[j] > x[best] {
                best = j;
            }
        }
        y[t] = x[best];
        if let Some(arg) = arg_store.as_deref_mut() {
            arg[t] = best;
        }
    }
}

impl MaxPool3 {
    /// Forward pass; `train` caches argmax indices for [`MaxPool3::backward`].
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let (b, c, l) = x.shape();
        let mut y = x.zeros_like();
        if train {
            let mut argmax = vec![0usize; b * c * l];
            for bi in 0..b {
                for ci in 0..c {
                    let base = (bi * c + ci) * l;
                    maxpool3_row(
                        x.row(bi, ci),
                        y.row_mut(bi, ci),
                        Some(&mut argmax[base..base + l]),
                    );
                }
            }
            self.cache = Some((argmax, (b, c, l)));
        } else {
            for bi in 0..b {
                for ci in 0..c {
                    maxpool3_row(x.row(bi, ci), y.row_mut(bi, ci), None);
                }
            }
        }
        y
    }

    /// Pure inference forward (`&self`).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let (b, c, _) = x.shape();
        let mut y = x.zeros_like();
        for bi in 0..b {
            for ci in 0..c {
                maxpool3_row(x.row(bi, ci), y.row_mut(bi, ci), None);
            }
        }
        y
    }

    /// Backward: each output's gradient scatters to the argmax position of
    /// its window.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (argmax, (b, c, l)) = self
            .cache
            .take()
            .expect("MaxPool3::backward requires forward(train=true) first");
        assert_eq!(grad_out.shape(), (b, c, l));
        let mut g = Tensor::zeros(b, c, l);
        for bi in 0..b {
            for ci in 0..c {
                let base = (bi * c + ci) * l;
                let go = grad_out.row(bi, ci);
                let gi = g.row_mut(bi, ci);
                for (t, &gv) in go.iter().enumerate() {
                    gi[argmax[base + t]] += gv;
                }
            }
        }
        g
    }
}

/// Projection shortcut: 1×1 conv + BN (the Inception analogue of the
/// ResNet block's projection path).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ShortcutBn {
    conv: Conv1d,
    bn: BatchNorm1d,
}

impl ShortcutBn {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let h = self.conv.forward(x, train);
        self.bn.forward(&h, train)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.bn.infer(&self.conv.infer(x))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.bn.backward(grad_out);
        self.conv.backward(&g)
    }
}

/// One inception block: bottleneck → {three multi-scale convs} ∥
/// {maxpool3 → 1×1 conv} → concat → BN → +residual → ReLU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InceptionBlock {
    bottleneck: Conv1d,
    branch1: Conv1d,
    branch2: Conv1d,
    branch3: Conv1d,
    pool_conv: Conv1d,
    bn: BatchNorm1d,
    shortcut: Option<ShortcutBn>,
    #[serde(skip)]
    pool: MaxPool3,
    #[serde(skip)]
    relu_out: ReLU,
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (4 × branch width).
    pub out_channels: usize,
}

/// Concatenate four equal-shape `[B, W, L]` tensors along channels.
fn concat4(parts: [&Tensor; 4]) -> Tensor {
    let (b, w, l) = parts[0].shape();
    let mut out = Tensor::zeros(b, 4 * w, l);
    for bi in 0..b {
        for (pi, p) in parts.iter().enumerate() {
            debug_assert_eq!(p.shape(), (b, w, l));
            for ci in 0..w {
                out.row_mut(bi, pi * w + ci).copy_from_slice(p.row(bi, ci));
            }
        }
    }
    out
}

/// Split a `[B, 4W, L]` tensor into four `[B, W, L]` channel groups.
fn split4(x: &Tensor) -> [Tensor; 4] {
    let (b, c, l) = x.shape();
    let w = c / 4;
    let mut out = [
        Tensor::zeros(b, w, l),
        Tensor::zeros(b, w, l),
        Tensor::zeros(b, w, l),
        Tensor::zeros(b, w, l),
    ];
    for bi in 0..b {
        for (pi, p) in out.iter_mut().enumerate() {
            for ci in 0..w {
                p.row_mut(bi, ci).copy_from_slice(x.row(bi, pi * w + ci));
            }
        }
    }
    out
}

impl InceptionBlock {
    /// Branch kernel widths for a nominal kernel `k`.
    pub fn branch_kernels(kernel: usize) -> [usize; 3] {
        [kernel, 2 * kernel + 1, 4 * kernel + 3]
    }

    fn new(in_channels: usize, out_channels: usize, kernel: usize, seed: u64) -> InceptionBlock {
        assert!(
            out_channels.is_multiple_of(4) && out_channels >= 4,
            "inception block output channels must be a positive multiple of 4"
        );
        let w = out_channels / 4;
        let [k1, k2, k3] = InceptionBlock::branch_kernels(kernel);
        let shortcut = (in_channels != out_channels).then(|| ShortcutBn {
            conv: Conv1d::new(in_channels, out_channels, 1, seed.wrapping_add(5)),
            bn: BatchNorm1d::new(out_channels),
        });
        InceptionBlock {
            bottleneck: Conv1d::new(in_channels, w, 1, seed),
            branch1: Conv1d::new(w, w, k1, seed.wrapping_add(1)),
            branch2: Conv1d::new(w, w, k2, seed.wrapping_add(2)),
            branch3: Conv1d::new(w, w, k3, seed.wrapping_add(3)),
            pool_conv: Conv1d::new(in_channels, w, 1, seed.wrapping_add(4)),
            bn: BatchNorm1d::new(out_channels),
            shortcut,
            pool: MaxPool3::default(),
            relu_out: ReLU::new(),
            in_channels,
            out_channels,
        }
    }

    /// Forward pass (training caches every intermediate for backward).
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let bott = self.bottleneck.forward(x, train);
        let c1 = self.branch1.forward(&bott, train);
        let c2 = self.branch2.forward(&bott, train);
        let c3 = self.branch3.forward(&bott, train);
        let pooled = self.pool.forward(x, train);
        let c4 = self.pool_conv.forward(&pooled, train);
        let concat = concat4([&c1, &c2, &c3, &c4]);
        let mut h = self.bn.forward(&concat, train);
        match &mut self.shortcut {
            Some(sc) => h.add_assign(&sc.forward(x, train)),
            None => h.add_assign(x),
        }
        self.relu_out.forward(&h, train)
    }

    /// Pure inference forward (`&self`).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let bott = self.bottleneck.infer(x);
        let c1 = self.branch1.infer(&bott);
        let c2 = self.branch2.infer(&bott);
        let c3 = self.branch3.infer(&bott);
        let c4 = self.pool_conv.infer(&self.pool.infer(x));
        let mut h = self.bn.infer(&concat4([&c1, &c2, &c3, &c4]));
        match &self.shortcut {
            Some(sc) => h.add_assign(&sc.infer(x)),
            None => h.add_assign(x),
        }
        relu_infer(&h)
    }

    /// Backward from the block-output gradient, returning the input
    /// gradient. The channel-concat splits the BN gradient into the four
    /// branch gradients; the three multi-scale branches sum into the
    /// bottleneck's output gradient.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g_sum = self.relu_out.backward(grad_out);
        let mut grad_in = match &mut self.shortcut {
            Some(sc) => sc.backward(&g_sum),
            None => g_sum.clone(),
        };
        let g_bn = self.bn.backward(&g_sum);
        let [g1, g2, g3, g4] = split4(&g_bn);
        let mut g_bott = self.branch1.backward(&g1);
        g_bott.add_assign(&self.branch2.backward(&g2));
        g_bott.add_assign(&self.branch3.backward(&g3));
        grad_in.add_assign(&self.bottleneck.backward(&g_bott));
        let g_pool = self.pool_conv.backward(&g4);
        grad_in.add_assign(&self.pool.backward(&g_pool));
        grad_in
    }
}

impl VisitParams for InceptionBlock {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut Vec<f32>)) {
        self.bottleneck.visit_params(f);
        self.branch1.visit_params(f);
        self.branch2.visit_params(f);
        self.branch3.visit_params(f);
        self.pool_conv.visit_params(f);
        self.bn.visit_params(f);
        if let Some(sc) = &mut self.shortcut {
            sc.conv.visit_params(f);
            sc.bn.visit_params(f);
        }
    }
}

/// The InceptionTime-style detector: stacked inception blocks → GAP →
/// linear head. Same CAM surface as the ResNet (GAP classifier).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InceptionNet {
    config: InceptionConfig,
    blocks: Vec<InceptionBlock>,
    gap: GlobalAvgPool,
    head: Linear,
    #[serde(skip)]
    last_features: Option<Tensor>,
}

impl InceptionNet {
    /// Build a freshly initialized network.
    pub fn new(config: InceptionConfig) -> InceptionNet {
        assert!(!config.channels.is_empty(), "at least one inception block");
        let mut blocks = Vec::with_capacity(config.channels.len());
        let mut in_ch = config.in_channels;
        for (i, &out_ch) in config.channels.iter().enumerate() {
            blocks.push(InceptionBlock::new(
                in_ch,
                out_ch,
                config.kernel,
                config.seed.wrapping_add(1000 * i as u64),
            ));
            in_ch = out_ch;
        }
        let head = Linear::new(in_ch, config.num_classes, config.seed.wrapping_add(9999));
        InceptionNet {
            config,
            blocks,
            gap: GlobalAvgPool::new(),
            head,
            last_features: None,
        }
    }

    /// The architecture parameters.
    pub fn config(&self) -> &InceptionConfig {
        &self.config
    }

    /// Nominal kernel size of this member.
    pub fn kernel(&self) -> usize {
        self.config.kernel
    }

    /// Structural validation of a deserialized network (see the
    /// `check` module): one block per configured channel count, each
    /// splitting its output into four equal branches, chained from the
    /// configured input channels into the head.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let cfg = &self.config;
        if self.blocks.is_empty() {
            return Err("no inception blocks".into());
        }
        crate::check::dim(
            "network",
            "inception blocks",
            self.blocks.len(),
            cfg.channels.len(),
        )?;
        let mut c_in = cfg.in_channels;
        for (i, (b, &c_out)) in self.blocks.iter().zip(&cfg.channels).enumerate() {
            let what = format!("block {i}");
            crate::check::dim(&what, "input channels", b.in_channels, c_in)?;
            crate::check::dim(&what, "output channels", b.out_channels, c_out)?;
            if c_out == 0 || c_out % 4 != 0 {
                return Err(format!(
                    "{what}: {c_out} channels, expected a positive multiple of 4"
                ));
            }
            let w = c_out / 4;
            b.bottleneck.check(&format!("{what} bottleneck"), c_in, w)?;
            for (name, conv) in [
                ("branch1", &b.branch1),
                ("branch2", &b.branch2),
                ("branch3", &b.branch3),
            ] {
                conv.check(&format!("{what} {name}"), w, w)?;
            }
            b.pool_conv.check(&format!("{what} pool conv"), c_in, w)?;
            b.bn.check(&format!("{what} bn"), c_out)?;
            match &b.shortcut {
                Some(sc) => {
                    sc.conv.check(&format!("{what} shortcut"), c_in, c_out)?;
                    sc.bn.check(&format!("{what} shortcut"), c_out)?;
                }
                None if c_in == c_out => {}
                None => return Err(format!("{what}: channels change but there is no shortcut")),
            }
            c_in = c_out;
        }
        crate::check::head(&self.head, c_in, cfg.num_classes)
    }

    /// Forward pass to logits `[B, num_classes]`; caches the last-block
    /// feature maps for CAM extraction.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Matrix {
        let mut h = x.clone();
        for block in &mut self.blocks {
            h = block.forward(&h, train);
        }
        let pooled = self.gap.forward(&h, train);
        self.last_features = Some(h);
        self.head.forward(&pooled, train)
    }

    /// Pure inference: `(logits, last-block features)`.
    pub fn infer(&self, x: &Tensor) -> (Matrix, Tensor) {
        let mut h = x.clone();
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
    }
}

impl VisitParams for InceptionNet {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut Vec<f32>)) {
        for block in &mut self.blocks {
            block.visit_params(f);
        }
        self.head.visit_params(f);
    }
}

// ---------------------------------------------------------------------------
// Frozen plan
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct FrozenIncBlock {
    bottleneck: FrozenConv,
    branch1: FrozenConv,
    branch2: FrozenConv,
    branch3: FrozenConv,
    pool_conv: FrozenConv,
    shortcut: Option<FrozenConv>,
    in_channels: usize,
    /// Branch width (`out_channels / 4`).
    width: usize,
    out_channels: usize,
}

impl FrozenIncBlock {
    /// Aux scratch elements this block needs per `(batch, len)` pass:
    /// bottleneck output + branch staging + pooled input.
    fn aux_channels(&self) -> usize {
        2 * self.width + self.in_channels
    }

    /// Run the block: read `x`, leave the result in `out`, clobber `tmp`
    /// and `aux`.
    fn infer_into(
        &self,
        x: &[f32],
        out: &mut [f32],
        tmp: &mut [f32],
        aux: &mut [f32],
        batch: usize,
        l: usize,
    ) {
        let (w, n_in) = (self.width, batch * self.in_channels * l);
        let n_out = batch * self.out_channels * l;
        let (bott_buf, rest) = aux.split_at_mut(batch * w * l);
        let (branch_buf, rest) = rest.split_at_mut(batch * w * l);
        let pool_buf = &mut rest[..n_in];
        self.bottleneck.infer_into(x, batch, l, bott_buf, false);
        // Pool branch input: width-3 same-length max over each channel row.
        for (y_row, x_row) in pool_buf.chunks_mut(l).zip(x[..n_in].chunks(l)) {
            maxpool3_row(x_row, y_row, None);
        }
        let branches = [&self.branch1, &self.branch2, &self.branch3, &self.pool_conv];
        for (pi, conv) in branches.into_iter().enumerate() {
            let src: &[f32] = if pi == 3 { pool_buf } else { bott_buf };
            conv.infer_into(src, batch, l, branch_buf, false);
            // Scatter the branch's rows into its channel slice of `out`.
            for bi in 0..batch {
                for ci in 0..w {
                    let dst = (bi * self.out_channels + pi * w + ci) * l;
                    let s = (bi * w + ci) * l;
                    out[dst..dst + l].copy_from_slice(&branch_buf[s..s + l]);
                }
            }
        }
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
        self.bottleneck.push_bits(bits);
        self.branch1.push_bits(bits);
        self.branch2.push_bits(bits);
        self.branch3.push_bits(bits);
        self.pool_conv.push_bits(bits);
        if let Some(sc) = &self.shortcut {
            sc.push_bits(bits);
        }
    }
}

/// The frozen serving form of an [`InceptionNet`] —
/// post-concat BN folded per branch, ReLU fused into the residual add,
/// arena-driven with zero steady-state allocations.
#[derive(Debug, Clone)]
pub struct FrozenInception {
    blocks: Vec<FrozenIncBlock>,
    head_weight: Vec<f32>,
    head_bias: Vec<f32>,
    in_channels: usize,
    features: usize,
    num_classes: usize,
    kernel: usize,
    max_channels: usize,
}

impl FrozenInception {
    /// Compile `net` into a frozen f32 plan. `net` is read, not consumed.
    pub fn freeze(net: &InceptionNet) -> FrozenInception {
        assert!(
            net.head.out_features >= 2,
            "frozen plan needs a binary (or wider) head for class-1 CAM"
        );
        let blocks: Vec<FrozenIncBlock> = net
            .blocks
            .iter()
            .map(|b| {
                let w = b.out_channels / 4;
                let (scale, shift) = b.bn.inference_affine();
                let fold = |conv: &Conv1d, pi: usize| {
                    FrozenConv::fold_affine(
                        conv,
                        &scale[pi * w..(pi + 1) * w],
                        &shift[pi * w..(pi + 1) * w],
                    )
                };
                FrozenIncBlock {
                    bottleneck: FrozenConv::from_conv(&b.bottleneck),
                    branch1: fold(&b.branch1, 0),
                    branch2: fold(&b.branch2, 1),
                    branch3: fold(&b.branch3, 2),
                    pool_conv: fold(&b.pool_conv, 3),
                    shortcut: b
                        .shortcut
                        .as_ref()
                        .map(|sc| FrozenConv::fold(&sc.conv, &sc.bn)),
                    in_channels: b.in_channels,
                    width: w,
                    out_channels: b.out_channels,
                }
            })
            .collect();
        let in_channels = net.config.in_channels;
        let features = blocks.last().expect("at least one block").out_channels;
        let max_channels = blocks
            .iter()
            .map(|b| b.out_channels)
            .max()
            .unwrap()
            .max(in_channels);
        FrozenInception {
            head_weight: net.head.weight.clone(),
            head_bias: net.head.bias.clone(),
            in_channels,
            features,
            num_classes: net.head.out_features,
            kernel: net.config.kernel,
            blocks,
            max_channels,
        }
    }

    fn aux_len(&self, batch: usize, l: usize) -> usize {
        self.blocks
            .iter()
            .map(|b| b.aux_channels())
            .max()
            .unwrap_or(0)
            * batch
            * l
    }

    /// Nominal kernel size of the source member.
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

    /// Full forward pass into `arena` — same outputs and contract as
    /// [`crate::frozen::FrozenResNet::predict_into`]: zero heap
    /// allocations once the arena has seen the shape.
    pub fn predict_into(&self, x: &Tensor, arena: &mut InferenceArena) {
        let _span = ds_obs::span!("frozen.forward");
        let (b, c, l) = x.shape();
        assert_eq!(c, self.in_channels, "frozen input channel mismatch");
        assert!(b > 0 && l > 0, "frozen forward needs a non-empty batch");
        arena.ensure(b, l, self.max_channels, self.features, self.num_classes);
        arena.ensure_aux(self.aux_len(b, l));
        let (buf_a, buf_b, buf_c, aux, pooled, logits, softmax, probs, cams) = arena.parts();
        buf_a[..b * c * l].copy_from_slice(&x.data[..b * c * l]);
        let mut c_in = self.in_channels;
        for block in &self.blocks {
            block.infer_into(&buf_a[..b * c_in * l], buf_b, buf_c, aux, b, l);
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

    /// Raw parameter bits in a fixed traversal order, for persistence
    /// round-trip equality checks.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_input(b: usize, c: usize, l: usize, seed: usize) -> Tensor {
        let data: Vec<f32> = (0..b * c * l)
            .map(|i| (((i + seed) * 31 % 17) as f32 - 8.0) / 4.0)
            .collect();
        Tensor::from_data(b, c, l, data)
    }

    fn tiny_config(kernel: usize, seed: u64) -> InceptionConfig {
        InceptionConfig {
            in_channels: 1,
            channels: vec![4, 8],
            kernel,
            num_classes: 2,
            seed,
        }
    }

    fn warm_bn(net: &mut InceptionNet, l: usize) {
        let x = sample_input(6, net.config.in_channels, l, 3);
        for _ in 0..4 {
            let _ = net.forward(&x, true);
        }
    }

    #[test]
    fn forward_shapes_and_branch_kernels() {
        let mut net = InceptionNet::new(tiny_config(3, 1));
        let x = sample_input(5, 1, 32, 0);
        let logits = net.forward(&x, false);
        assert_eq!((logits.rows, logits.cols), (5, 2));
        assert_eq!(net.last_features.as_ref().unwrap().shape(), (5, 8, 32));
        assert_eq!(InceptionBlock::branch_kernels(3), [3, 7, 15]);
        assert_eq!(net.kernel(), 3);
    }

    #[test]
    fn maxpool3_values_and_gradient_scatter() {
        let x = Tensor::from_data(1, 1, 5, vec![1.0, 3.0, 2.0, -1.0, 0.5]);
        let mut pool = MaxPool3::default();
        let y = pool.forward(&x, true);
        assert_eq!(y.data, vec![3.0, 3.0, 3.0, 2.0, 0.5]);
        let g = Tensor::from_data(1, 1, 5, vec![1.0, 1.0, 1.0, 1.0, 1.0]);
        let gi = pool.backward(&g);
        // Positions 0..2 all route to x[1]; position 3 to x[2]; 4 to x[4].
        assert_eq!(gi.data, vec![0.0, 3.0, 1.0, 0.0, 1.0]);
        assert_eq!(pool.infer(&x).data, vec![3.0, 3.0, 3.0, 2.0, 0.5]);
    }

    #[test]
    fn infer_matches_eval_forward() {
        let mut net = InceptionNet::new(tiny_config(3, 8));
        warm_bn(&mut net, 24);
        let x = sample_input(3, 1, 24, 5);
        let logits_mut = net.forward(&x, false);
        let (logits_pure, _) = net.infer(&x);
        assert_eq!(logits_mut.data, logits_pure.data);
    }

    #[test]
    fn gradient_check_through_blocks() {
        // Finite-difference spot check through the whole net with loss
        // sum(logits^2)/2 — validates the concat split, the pool scatter
        // and the bottleneck gradient sum.
        let mut net = InceptionNet::new(InceptionConfig {
            in_channels: 1,
            channels: vec![4],
            kernel: 3,
            num_classes: 2,
            seed: 11,
        });
        let x = sample_input(2, 1, 12, 1);
        net.zero_grad();
        let logits = net.forward(&x, true);
        net.backward(&logits);
        // Collect analytic grads + param locations.
        let mut params: Vec<(usize, f32)> = Vec::new();
        let mut grads: Vec<f32> = Vec::new();
        net.visit_params(&mut |p, g| {
            for i in [0usize, p.len() / 2, p.len() - 1] {
                params.push((i, p[i]));
                grads.push(g[i]);
            }
        });
        let loss = |net: &mut InceptionNet, x: &Tensor| -> f32 {
            net.forward(x, true).data.iter().map(|v| v * v / 2.0).sum()
        };
        let eps = 1e-3f32;
        let mut slot = 0usize;
        let total = params.len();
        for s in 0..total {
            let (i, orig) = params[s];
            // Perturb the s-th sampled parameter via visit_params.
            let set = |net: &mut InceptionNet, v: f32| {
                let mut vs = 0usize;
                net.visit_params(&mut |p, _| {
                    for ii in [0usize, p.len() / 2, p.len() - 1] {
                        if vs == s {
                            p[ii] = v;
                        }
                        vs += 1;
                    }
                });
            };
            set(&mut net, orig + eps);
            let lp = loss(&mut net, &x);
            set(&mut net, orig - eps);
            let lm = loss(&mut net, &x);
            set(&mut net, orig);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grads[s]).abs() < 5e-2 * numeric.abs().max(1.0),
                "param sample {s} (idx {i}): numeric {numeric} vs analytic {}",
                grads[s]
            );
            slot += 1;
        }
        assert!(slot > 10, "sampled too few parameters");
    }

    #[test]
    fn frozen_matches_reference_within_tolerance() {
        let mut net = InceptionNet::new(tiny_config(3, 77));
        warm_bn(&mut net, 40);
        let frozen = FrozenInception::freeze(&net);
        let x = sample_input(4, 1, 40, 0);
        let (probs, cams) = net.infer_with_cam(&x);
        let mut arena = InferenceArena::new();
        frozen.predict_into(&x, &mut arena);
        for bi in 0..4 {
            assert!((arena.probs()[bi] - probs[bi]).abs() < 1e-4);
            assert_eq!(arena.probs()[bi] > 0.5, probs[bi] > 0.5, "decision flip");
            for (a, r) in arena.cam(bi).iter().zip(&cams[bi]) {
                assert!((a - r).abs() < 1e-3, "cam {a} vs {r}");
            }
        }
    }

    #[test]
    fn steady_state_predict_allocates_nothing() {
        let mut net = InceptionNet::new(tiny_config(3, 13));
        warm_bn(&mut net, 32);
        let plan = FrozenInception::freeze(&net);
        let x = sample_input(3, 1, 32, 2);
        let mut arena = InferenceArena::new();
        plan.predict_into(&x, &mut arena); // warmup sizes the arena
        let before = ds_obs::alloc_count();
        for _ in 0..8 {
            plan.predict_into(&x, &mut arena);
        }
        assert_eq!(
            ds_obs::alloc_count(),
            before,
            "steady-state frozen inception forward must not allocate"
        );
    }

    #[test]
    fn refreeze_is_bit_identical() {
        let mut net = InceptionNet::new(tiny_config(5, 5));
        warm_bn(&mut net, 24);
        assert_eq!(
            FrozenInception::freeze(&net).param_bits(),
            FrozenInception::freeze(&net).param_bits()
        );
    }
}

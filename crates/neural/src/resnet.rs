//! The ResNet for time-series classification (Wang et al. 2016) that the
//! paper's ensemble is built from: stacked residual blocks → global average
//! pooling → linear head. The kernel size is uniform across a network and
//! is the ensemble's diversity knob (`k ∈ {5, 7, 9, 15}` in the paper).

use crate::linear::Linear;
use crate::loss::softmax_row;
use crate::pool::GlobalAvgPool;
use crate::resblock::ResidualBlock;
use crate::tensor::{Matrix, Tensor};
use crate::VisitParams;
use serde::{Deserialize, Serialize};

/// Architecture hyper-parameters of a [`ResNet`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResNetConfig {
    /// Input channels (1 for univariate consumption series).
    pub in_channels: usize,
    /// Output channels of each residual block, in order.
    pub channels: Vec<usize>,
    /// Kernel size shared by every convolution in every block.
    pub kernel: usize,
    /// Number of classes of the head (2 for appliance detection).
    pub num_classes: usize,
    /// Seed controlling weight initialization.
    pub seed: u64,
}

impl ResNetConfig {
    /// The configuration used throughout this reproduction: two residual
    /// blocks (16 → 32 channels), binary head. The paper's ensemble members
    /// use this with `kernel ∈ {5, 7, 9, 15}`.
    pub fn detection(kernel: usize, seed: u64) -> ResNetConfig {
        ResNetConfig {
            in_channels: 1,
            channels: vec![16, 32],
            kernel,
            num_classes: 2,
            seed,
        }
    }

    /// A deliberately tiny network for unit tests.
    pub fn tiny(kernel: usize, seed: u64) -> ResNetConfig {
        ResNetConfig {
            in_channels: 1,
            channels: vec![4, 8],
            kernel,
            num_classes: 2,
            seed,
        }
    }
}

/// The ResNet-TSC model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResNet {
    config: ResNetConfig,
    blocks: Vec<ResidualBlock>,
    gap: GlobalAvgPool,
    head: Linear,
    /// Feature maps of the last block from the most recent forward pass —
    /// the `f_k(t)` of the CAM formula.
    #[serde(skip)]
    last_features: Option<Tensor>,
}

impl ResNet {
    /// Build a freshly initialized network.
    pub fn new(config: ResNetConfig) -> ResNet {
        assert!(!config.channels.is_empty(), "at least one residual block");
        let mut blocks = Vec::with_capacity(config.channels.len());
        let mut in_ch = config.in_channels;
        for (i, &out_ch) in config.channels.iter().enumerate() {
            blocks.push(ResidualBlock::new(
                in_ch,
                out_ch,
                config.kernel,
                config.seed.wrapping_add(1000 * i as u64),
            ));
            in_ch = out_ch;
        }
        let head = Linear::new(in_ch, config.num_classes, config.seed.wrapping_add(9999));
        ResNet {
            config,
            blocks,
            gap: GlobalAvgPool::new(),
            head,
            last_features: None,
        }
    }

    /// The architecture parameters.
    pub fn config(&self) -> &ResNetConfig {
        &self.config
    }

    /// Kernel size of this member (the ensemble diversity knob).
    pub fn kernel(&self) -> usize {
        self.config.kernel
    }

    /// Structural validation of a deserialized network (see the
    /// `check` module): one block per configured channel count, chained
    /// from the configured input channels into the head.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let cfg = &self.config;
        if self.blocks.is_empty() {
            return Err("no residual blocks".into());
        }
        crate::check::dim(
            "network",
            "residual blocks",
            self.blocks.len(),
            cfg.channels.len(),
        )?;
        let mut c_in = cfg.in_channels;
        for (i, (block, &c_out)) in self.blocks.iter().zip(&cfg.channels).enumerate() {
            block.check(&format!("block {i}"), c_in, c_out)?;
            c_in = c_out;
        }
        crate::check::head(&self.head, c_in, cfg.num_classes)
    }

    /// Forward pass to logits `[B, num_classes]`. Always caches the
    /// last-block feature maps for subsequent CAM extraction.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Matrix {
        let mut h: Option<Tensor> = None;
        for block in &mut self.blocks {
            h = Some(block.forward(h.as_ref().unwrap_or(x), train));
        }
        let h = h.unwrap_or_else(|| x.clone());
        let pooled = self.gap.forward(&h, train);
        self.last_features = Some(h);
        self.head.forward(&pooled, train)
    }

    /// Pure inference (`&self`): returns `(logits, last-block features)`
    /// without mutating any cache. This is the path ensembles use at
    /// prediction time so a trained model can be shared immutably.
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
        let cams = crate::cam::cam_from_features(&features, self.class_weights(1));
        (probs, cams)
    }

    /// The residual blocks, in order — for the frozen-plan builder.
    pub(crate) fn blocks(&self) -> &[ResidualBlock] {
        &self.blocks
    }

    /// The classifier head — for the frozen-plan builder.
    pub(crate) fn head(&self) -> &Linear {
        &self.head
    }

    /// Backward from logit gradients (after a training-mode forward).
    pub fn backward(&mut self, grad_logits: &Matrix) {
        let g = self.head.backward(grad_logits);
        let mut g = self.gap.backward(&g);
        for block in self.blocks.iter_mut().rev() {
            g = block.backward(&g);
        }
    }

    /// Feature maps `f_k(t)` of the last block from the most recent forward.
    pub fn last_features(&self) -> Option<&Tensor> {
        self.last_features.as_ref()
    }

    /// Classifier-head weight row for `class` (the `w_k^c`).
    pub fn class_weights(&self, class: usize) -> &[f32] {
        self.head.weight_row(class)
    }

    /// Inference: probability of each class per batch row.
    pub fn predict_proba(&mut self, x: &Tensor) -> Matrix {
        let logits = self.forward(x, false);
        let mut probs = Matrix::zeros(logits.rows, logits.cols);
        for r in 0..logits.rows {
            let mut row = vec![0.0; logits.cols];
            softmax_row(logits.row(r), &mut row);
            probs.row_mut(r).copy_from_slice(&row);
        }
        probs
    }

    /// Inference: probability of the positive class (class 1) per row.
    pub fn predict_positive_proba(&mut self, x: &Tensor) -> Vec<f32> {
        let probs = self.predict_proba(x);
        (0..probs.rows).map(|r| probs.get(r, 1)).collect()
    }
}

impl VisitParams for ResNet {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut Vec<f32>)) {
        for block in &mut self.blocks {
            block.visit_params(f);
        }
        self.head.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;
    use crate::optim::Adam;

    fn toy_batch() -> (Tensor, Vec<u8>) {
        // Class 1 windows contain a strong plateau; class 0 are flat noise.
        let mut windows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..8 {
            let mut w = vec![0.1f32; 32];
            if i % 2 == 1 {
                for v in &mut w[10..20] {
                    *v = 1.0;
                }
            }
            // Small deterministic jitter to avoid degenerate BN variance.
            for (j, v) in w.iter_mut().enumerate() {
                *v += ((i * 13 + j * 7) % 5) as f32 * 0.01;
            }
            windows.push(w);
            labels.push((i % 2) as u8);
        }
        (Tensor::from_windows(&windows), labels)
    }

    #[test]
    fn forward_shapes() {
        let mut net = ResNet::new(ResNetConfig::tiny(5, 1));
        let (x, _) = toy_batch();
        let logits = net.forward(&x, false);
        assert_eq!(logits.rows, 8);
        assert_eq!(logits.cols, 2);
        let f = net.last_features().unwrap();
        assert_eq!(f.shape(), (8, 8, 32));
        assert_eq!(net.class_weights(1).len(), 8);
        assert_eq!(net.kernel(), 5);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut net = ResNet::new(ResNetConfig::tiny(7, 2));
        let (x, _) = toy_batch();
        let probs = net.predict_proba(&x);
        for r in 0..probs.rows {
            let s: f32 = probs.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        let pos = net.predict_positive_proba(&x);
        assert_eq!(pos.len(), 8);
        for (r, p) in pos.iter().enumerate() {
            assert!((p - probs.get(r, 1)).abs() < 1e-6);
        }
    }

    #[test]
    fn training_separates_toy_classes() {
        let mut net = ResNet::new(ResNetConfig::tiny(5, 3));
        let (x, labels) = toy_batch();
        let mut opt = Adam::new(0.01);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..60 {
            net.zero_grad();
            let logits = net.forward(&x, true);
            let (loss, grad) = softmax_cross_entropy(&logits, &labels, None);
            first_loss.get_or_insert(loss);
            last_loss = loss;
            net.backward(&grad);
            opt.step(&mut net);
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.5,
            "loss {} -> {last_loss}",
            first_loss.unwrap()
        );
        // Inference should now rank positive windows above negative ones.
        let probs = net.predict_positive_proba(&x);
        let pos_mean: f32 = probs.iter().skip(1).step_by(2).sum::<f32>() / 4.0;
        let neg_mean: f32 = probs.iter().step_by(2).sum::<f32>() / 4.0;
        assert!(
            pos_mean > neg_mean + 0.2,
            "pos {pos_mean} vs neg {neg_mean}"
        );
    }

    #[test]
    fn deterministic_initialization() {
        let mut a = ResNet::new(ResNetConfig::tiny(5, 42));
        let mut b = ResNet::new(ResNetConfig::tiny(5, 42));
        let (x, _) = toy_batch();
        assert_eq!(a.forward(&x, false).data, b.forward(&x, false).data);
        let mut c = ResNet::new(ResNetConfig::tiny(5, 43));
        assert_ne!(a.forward(&x, false).data, c.forward(&x, false).data);
    }

    #[test]
    fn infer_matches_eval_forward() {
        let mut net = ResNet::new(ResNetConfig::tiny(5, 8));
        let (x, _) = toy_batch();
        let logits_mut = net.forward(&x, false);
        let feats_mut = net.last_features().unwrap().clone();
        let (logits_pure, feats_pure) = net.infer(&x);
        assert_eq!(logits_mut.data, logits_pure.data);
        assert_eq!(feats_mut.data, feats_pure.data);
        // And the combined CAM helper agrees with the mutable path.
        let (probs, cams) = net.infer_with_cam(&x);
        assert_eq!(probs, net.predict_positive_proba(&x));
        let cams_mut = crate::cam::class_activation_maps(&net, 1);
        assert_eq!(cams, cams_mut);
    }

    #[test]
    fn param_count_is_stable() {
        let mut net = ResNet::new(ResNetConfig::tiny(3, 0));
        let n1 = net.param_count();
        let (x, _) = toy_batch();
        let _ = net.forward(&x, true);
        assert_eq!(net.param_count(), n1);
        assert!(n1 > 100);
    }
}

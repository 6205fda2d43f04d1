//! Mini-batch training loop for window classifiers.
//!
//! Implements the paper's training phase mechanics: shuffled mini-batches,
//! class-imbalance weighting (positive windows are rare for long-cycle
//! appliances), Adam, and loss-plateau early stopping.

use crate::inception::InceptionNet;
use crate::loss::{softmax_cross_entropy, softmax_row};
use crate::optim::Adam;
use crate::resnet::ResNet;
use crate::tensor::{Matrix, Tensor};
use crate::transapp::TransAppNet;
use crate::workspace::Workspace;
use crate::VisitParams;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::ops::Range;

/// The training surface a window classifier exposes: a cached-state
/// forward, a backward from logit gradients, and parameter access via
/// [`VisitParams`]. [`train_classifier`] drives any implementor, which is
/// how every backbone (and the backbone-tagged [`DetectorNet`]) trains
/// through one loop.
///
/// [`DetectorNet`]: crate::backbone::DetectorNet
pub trait NeuralNet: VisitParams {
    /// Forward pass to logits `[B, num_classes]`; `train` enables
    /// batch-statistics and backward caches.
    fn forward(&mut self, x: &Tensor, train: bool) -> Matrix;

    /// Backward from logit gradients (after a training-mode forward).
    fn backward(&mut self, grad_logits: &Matrix);
}

impl NeuralNet for ResNet {
    fn forward(&mut self, x: &Tensor, train: bool) -> Matrix {
        ResNet::forward(self, x, train)
    }

    fn backward(&mut self, grad_logits: &Matrix) {
        ResNet::backward(self, grad_logits);
    }
}

impl NeuralNet for InceptionNet {
    fn forward(&mut self, x: &Tensor, train: bool) -> Matrix {
        InceptionNet::forward(self, x, train)
    }

    fn backward(&mut self, grad_logits: &Matrix) {
        InceptionNet::backward(self, grad_logits);
    }
}

impl NeuralNet for TransAppNet {
    fn forward(&mut self, x: &Tensor, train: bool) -> Matrix {
        TransAppNet::forward(self, x, train)
    }

    fn backward(&mut self, grad_logits: &Matrix) {
        TransAppNet::backward(self, grad_logits);
    }
}

/// Hyper-parameters of a training run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Weight classes inversely to their frequency.
    pub class_weighting: bool,
    /// Seed of the shuffling RNG.
    pub shuffle_seed: u64,
    /// Stop after this many epochs without a new best loss (None = never).
    pub patience: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 16,
            lr: 1e-3,
            weight_decay: 1e-4,
            class_weighting: true,
            shuffle_seed: 0,
            patience: Some(8),
        }
    }
}

impl TrainConfig {
    /// A fast configuration for unit tests.
    pub fn fast() -> TrainConfig {
        TrainConfig {
            epochs: 5,
            batch_size: 8,
            patience: None,
            ..TrainConfig::default()
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean training loss per epoch actually run.
    pub epoch_losses: Vec<f32>,
    /// Accuracy of the last epoch's training-mode forwards: the share of
    /// the windows that epoch trained on whose logits, softmaxed, give
    /// the positive class a probability `> 0.5` exactly when the label is
    /// positive. Each batch is scored by the forward that computed its
    /// loss — batch-norm batch statistics and the weights before that
    /// batch's step — so it costs no extra pass. 0.0 if no epoch ran.
    pub train_accuracy: f32,
    /// Whether early stopping triggered.
    pub early_stopped: bool,
}

/// Split `0..n` into mini-batch ranges of `batch_size` (floored at 2 —
/// batch norm needs more than one sample of statistics), merging a
/// trailing singleton into the previous batch so every window trains.
/// A corpus of exactly one window yields one singleton batch rather than
/// nothing.
pub fn batch_ranges(n: usize, batch_size: usize) -> Vec<Range<usize>> {
    let bs = batch_size.max(2);
    let mut ranges = Vec::with_capacity(n.div_ceil(bs));
    let mut start = 0usize;
    while start < n {
        let mut end = (start + bs).min(n);
        if n - end == 1 {
            end = n;
        }
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Windows of a batch whose logits decide their label, by the rule
/// [`TrainReport::train_accuracy`] documents. `probs` is scratch.
fn correct_predictions(logits: &Matrix, labels: &[u8], probs: &mut Vec<f32>) -> usize {
    probs.resize(logits.cols, 0.0);
    (0..logits.rows)
        .filter(|&r| {
            softmax_row(logits.row(r), probs);
            u8::from(probs[1] > 0.5) == labels[r]
        })
        .count()
}

/// Inverse-frequency class weights for binary labels, normalized to mean 1.
pub fn inverse_frequency_weights(labels: &[u8]) -> [f32; 2] {
    let n = labels.len().max(1) as f32;
    let pos = labels.iter().filter(|&&l| l == 1).count() as f32;
    let neg = n - pos;
    // Guard single-class corpora: uniform weights.
    if pos == 0.0 || neg == 0.0 {
        return [1.0, 1.0];
    }
    let w0 = n / (2.0 * neg);
    let w1 = n / (2.0 * pos);
    [w0, w1]
}

/// Train a [`NeuralNet`] window classifier on `(windows, labels)`.
///
/// # Panics
/// Panics if `windows` is empty or lengths are inconsistent.
pub fn train_classifier(
    net: &mut impl NeuralNet,
    windows: &[Vec<f32>],
    labels: &[u8],
    cfg: &TrainConfig,
) -> TrainReport {
    assert!(!windows.is_empty(), "training requires at least one window");
    assert_eq!(windows.len(), labels.len(), "window/label count mismatch");
    let _span = ds_obs::span!("neural.train_classifier");
    let class_weights = cfg
        .class_weighting
        .then(|| inverse_frequency_weights(labels));
    let mut opt = Adam::with_weight_decay(cfg.lr, cfg.weight_decay);
    let mut rng = StdRng::seed_from_u64(cfg.shuffle_seed);
    let mut order: Vec<usize> = (0..windows.len()).collect();
    let ranges = batch_ranges(order.len(), cfg.batch_size);
    let mut ws = Workspace::new();
    let mut batch_labels: Vec<u8> = Vec::new();
    let mut probs: Vec<f32> = Vec::new();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut best = f32::INFINITY;
    let mut since_best = 0usize;
    let mut early_stopped = false;
    let mut train_accuracy = 0.0f32;

    for epoch in 0..cfg.epochs {
        let epoch_start = ds_obs::enabled().then(std::time::Instant::now);
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        let mut samples = 0usize;
        let mut correct = 0usize;
        for range in &ranges {
            let chunk = &order[range.clone()];
            // Gather the batch into the reused workspace tensor — no
            // window clones, no fresh input allocation per step.
            let x = ws.gather(windows, chunk);
            batch_labels.clear();
            batch_labels.extend(chunk.iter().map(|&i| labels[i]));
            net.zero_grad();
            let logits = net.forward(x, true);
            let (loss, grad) = softmax_cross_entropy(
                &logits,
                &batch_labels,
                class_weights.as_ref().map(|w| &w[..]),
            );
            correct += correct_predictions(&logits, &batch_labels, &mut probs);
            net.backward(&grad);
            opt.step(net);
            loss_sum += loss as f64;
            batches += 1;
            samples += chunk.len();
        }
        let epoch_loss = (loss_sum / batches.max(1) as f64) as f32;
        epoch_losses.push(epoch_loss);
        train_accuracy = correct as f32 / samples.max(1) as f32;
        if let Some(start) = epoch_start {
            // Gradient L2 norm of the last batch, computed only when
            // observability is on (it walks every parameter tensor).
            let mut grad_sq = 0.0f64;
            net.visit_params(&mut |_, grads| {
                grad_sq += grads.iter().map(|&g| (g as f64) * (g as f64)).sum::<f64>();
            });
            let samples_per_sec = samples as f64 / start.elapsed().as_secs_f64().max(1e-9);
            ds_obs::counter_add("neural.epochs", 1);
            ds_obs::counter_add("neural.samples", samples as u64);
            ds_obs::event!(
                "train_epoch",
                epoch = epoch,
                loss = epoch_loss,
                grad_norm = grad_sq.sqrt(),
                samples_per_sec = samples_per_sec,
            );
        }
        if epoch_loss + 1e-5 < best {
            best = epoch_loss;
            since_best = 0;
        } else {
            since_best += 1;
            if cfg.patience.is_some_and(|p| since_best >= p) {
                early_stopped = true;
                break;
            }
        }
    }

    TrainReport {
        epoch_losses,
        train_accuracy,
        early_stopped,
    }
}

/// The pre-workspace training loop, preserved verbatim as a reference
/// oracle: it clones every window into a fresh batch, re-allocates the
/// input tensor per step, and silently drops a trailing singleton batch
/// (the historical bug [`batch_ranges`] fixes). The perf harness times
/// [`train_classifier`] against it, and the determinism tests assert the
/// two produce bit-identical weights whenever no singleton is dropped.
pub fn train_classifier_reference(
    net: &mut ResNet,
    windows: &[Vec<f32>],
    labels: &[u8],
    cfg: &TrainConfig,
) -> TrainReport {
    use crate::tensor::Tensor;
    assert!(!windows.is_empty(), "training requires at least one window");
    assert_eq!(windows.len(), labels.len(), "window/label count mismatch");
    let class_weights = cfg
        .class_weighting
        .then(|| inverse_frequency_weights(labels));
    let mut opt = Adam::with_weight_decay(cfg.lr, cfg.weight_decay);
    let mut rng = StdRng::seed_from_u64(cfg.shuffle_seed);
    let mut order: Vec<usize> = (0..windows.len()).collect();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut best = f32::INFINITY;
    let mut since_best = 0usize;
    let mut early_stopped = false;
    let mut train_accuracy = 0.0f32;
    for _epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        let mut samples = 0usize;
        let mut correct = 0usize;
        for chunk in order.chunks(cfg.batch_size.max(2)) {
            if chunk.len() < 2 && order.len() >= 2 {
                continue;
            }
            let batch: Vec<Vec<f32>> = chunk.iter().map(|&i| windows[i].clone()).collect();
            let batch_labels: Vec<u8> = chunk.iter().map(|&i| labels[i]).collect();
            let x = Tensor::from_windows(&batch);
            net.zero_grad();
            let logits = net.forward(&x, true);
            let (loss, grad) = softmax_cross_entropy(
                &logits,
                &batch_labels,
                class_weights.as_ref().map(|w| &w[..]),
            );
            correct += correct_predictions(&logits, &batch_labels, &mut Vec::new());
            net.backward(&grad);
            opt.step(net);
            loss_sum += loss as f64;
            batches += 1;
            samples += chunk.len();
        }
        let epoch_loss = (loss_sum / batches.max(1) as f64) as f32;
        epoch_losses.push(epoch_loss);
        train_accuracy = correct as f32 / samples.max(1) as f32;
        if epoch_loss + 1e-5 < best {
            best = epoch_loss;
            since_best = 0;
        } else {
            since_best += 1;
            if cfg.patience.is_some_and(|p| since_best >= p) {
                early_stopped = true;
                break;
            }
        }
    }
    TrainReport {
        epoch_losses,
        train_accuracy,
        early_stopped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resnet::ResNetConfig;

    fn toy_dataset(n: usize, len: usize) -> (Vec<Vec<f32>>, Vec<u8>) {
        let mut windows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let mut w = vec![0.1f32; len];
            if i % 2 == 1 {
                let start = (i * 3) % (len / 2);
                for v in &mut w[start..start + len / 4] {
                    *v = 1.0;
                }
            }
            for (j, v) in w.iter_mut().enumerate() {
                *v += ((i * 7 + j * 11) % 13) as f32 * 0.005;
            }
            windows.push(w);
            labels.push((i % 2) as u8);
        }
        (windows, labels)
    }

    #[test]
    fn training_reaches_high_accuracy_on_separable_toy() {
        let (windows, labels) = toy_dataset(32, 48);
        let mut net = ResNet::new(ResNetConfig::tiny(5, 1));
        let cfg = TrainConfig {
            epochs: 25,
            batch_size: 8,
            lr: 2e-3,
            ..TrainConfig::default()
        };
        let report = train_classifier(&mut net, &windows, &labels, &cfg);
        assert!(
            report.train_accuracy > 0.9,
            "accuracy {}",
            report.train_accuracy
        );
        assert!(report.epoch_losses[0] > *report.epoch_losses.last().unwrap());
    }

    #[test]
    fn early_stopping_triggers_on_plateau() {
        let (windows, labels) = toy_dataset(8, 24);
        let mut net = ResNet::new(ResNetConfig::tiny(3, 2));
        // lr = 0 guarantees a perfect plateau, so patience must fire.
        let cfg = TrainConfig {
            epochs: 200,
            batch_size: 8,
            lr: 0.0,
            patience: Some(3),
            ..TrainConfig::default()
        };
        let report = train_classifier(&mut net, &windows, &labels, &cfg);
        assert!(report.early_stopped);
        assert!(
            report.epoch_losses.len() <= 5,
            "stopped late: {}",
            report.epoch_losses.len()
        );
    }

    #[test]
    fn batch_ranges_merges_trailing_singleton() {
        assert_eq!(batch_ranges(16, 8), vec![0..8, 8..16]);
        // A leftover single sample joins the previous batch instead of
        // being dropped.
        assert_eq!(batch_ranges(17, 8), vec![0..8, 8..17]);
        assert_eq!(batch_ranges(9, 8), vec![0..9]);
        // Degenerate corpora: one window trains alone; zero yields nothing.
        assert_eq!(batch_ranges(1, 8), vec![0..1]);
        assert!(batch_ranges(0, 8).is_empty());
        // Batch size floors at 2 for batch-norm statistics.
        assert_eq!(batch_ranges(5, 0), vec![0..2, 2..5]);
    }

    #[test]
    fn odd_corpus_trains_every_window() {
        // 17 windows with batch 8 used to drop the trailing singleton each
        // epoch; now the last batch absorbs it and training stays finite.
        let (windows, labels) = toy_dataset(17, 24);
        let mut net = ResNet::new(ResNetConfig::tiny(3, 4));
        let report = train_classifier(&mut net, &windows, &labels, &TrainConfig::fast());
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn class_weights_inverse_frequency() {
        let w = inverse_frequency_weights(&[0, 0, 0, 1]);
        assert!((w[0] - 4.0 / 6.0).abs() < 1e-6);
        assert!((w[1] - 2.0).abs() < 1e-6);
        // Single-class corpora degrade to uniform.
        assert_eq!(inverse_frequency_weights(&[0, 0]), [1.0, 1.0]);
        assert_eq!(inverse_frequency_weights(&[]), [1.0, 1.0]);
    }

    #[test]
    fn deterministic_training() {
        let (windows, labels) = toy_dataset(16, 32);
        let run = || {
            let mut net = ResNet::new(ResNetConfig::tiny(5, 7));
            let report = train_classifier(&mut net, &windows, &labels, &TrainConfig::fast());
            report.epoch_losses
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn workspace_trainer_matches_legacy_reference() {
        use crate::VisitParams;
        // On corpora with no trailing singleton batch the fixed loop and
        // the preserved legacy loop are the same algorithm; the rewrite
        // must reproduce it bit for bit.
        let (windows, labels) = toy_dataset(16, 32);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 4,
            patience: None,
            ..TrainConfig::default()
        };
        let run = |reference: bool| {
            let mut net = ResNet::new(ResNetConfig::tiny(5, 7));
            let report = if reference {
                train_classifier_reference(&mut net, &windows, &labels, &cfg)
            } else {
                train_classifier(&mut net, &windows, &labels, &cfg)
            };
            let mut bits: Vec<u32> = Vec::new();
            net.visit_params(&mut |params, _| bits.extend(params.iter().map(|v| v.to_bits())));
            bits.extend(report.epoch_losses.iter().map(|l| l.to_bits()));
            bits.push(report.train_accuracy.to_bits());
            bits
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn empty_training_set_panics() {
        let mut net = ResNet::new(ResNetConfig::tiny(3, 0));
        let _ = train_classifier(&mut net, &[], &[], &TrainConfig::fast());
    }

    #[test]
    fn single_class_corpus_trains_without_nan() {
        let (windows, _) = toy_dataset(8, 24);
        let labels = vec![1u8; 8];
        let mut net = ResNet::new(ResNetConfig::tiny(3, 1));
        let report = train_classifier(&mut net, &windows, &labels, &TrainConfig::fast());
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    }
}

//! A generic sequence-to-sequence network: an ordered stack of layers
//! mapping `[B, 1, L]` → per-timestep logits `[B, 1, L]`, with a parallel
//! multi-branch combinator for multi-scale architectures.

use ds_neural::activations::{relu_infer, ReLU};
use ds_neural::batchnorm::BatchNorm1d;
use ds_neural::conv::Conv1d;
use ds_neural::loss::bce_with_logits_pos_weight;
use ds_neural::optim::Adam;
use ds_neural::sample::{MaxPool1d, Upsample1d};
use ds_neural::tensor::Tensor;
use ds_neural::VisitParams;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One layer of a [`SeqNet`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SeqLayer {
    /// 1D convolution (possibly dilated).
    Conv(Conv1d),
    /// Batch normalization.
    Bn(BatchNorm1d),
    /// ReLU activation.
    Relu(ReLU),
    /// Parallel branches whose outputs are summed element-wise (the
    /// multi-scale combinator). All branches must produce the same shape.
    ParallelSum(Vec<SeqNet>),
    /// Max pooling (encoder downsampling).
    Pool(MaxPool1d),
    /// Nearest-neighbour upsampling (decoder).
    Up(Upsample1d),
}

/// A sequential per-timestep network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeqNet {
    layers: Vec<SeqLayer>,
}

impl SeqNet {
    /// Build from layers.
    pub fn new(layers: Vec<SeqLayer>) -> SeqNet {
        assert!(!layers.is_empty(), "SeqNet needs at least one layer");
        SeqNet { layers }
    }

    /// Number of layers (branches count as one).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Training-mode forward.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = match layer {
                SeqLayer::Conv(c) => c.forward(&h, train),
                SeqLayer::Bn(b) => b.forward(&h, train),
                SeqLayer::Relu(r) => r.forward(&h, train),
                SeqLayer::ParallelSum(branches) => {
                    let mut acc: Option<Tensor> = None;
                    for b in branches.iter_mut() {
                        let y = b.forward(&h, train);
                        match acc.as_mut() {
                            Some(a) => a.add_assign(&y),
                            None => acc = Some(y),
                        }
                    }
                    acc.expect("ParallelSum has at least one branch")
                }
                SeqLayer::Pool(p) => p.forward(&h, train),
                SeqLayer::Up(u) => u.forward(&h),
            };
        }
        h
    }

    /// Pure inference forward (`&self`).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        for layer in &self.layers {
            h = match layer {
                SeqLayer::Conv(c) => c.infer(&h),
                SeqLayer::Bn(b) => b.infer(&h),
                SeqLayer::Relu(_) => relu_infer(&h),
                SeqLayer::ParallelSum(branches) => {
                    let mut acc: Option<Tensor> = None;
                    for b in branches {
                        let y = b.infer(&h);
                        match acc.as_mut() {
                            Some(a) => a.add_assign(&y),
                            None => acc = Some(y),
                        }
                    }
                    acc.expect("ParallelSum has at least one branch")
                }
                SeqLayer::Pool(p) => {
                    // Max pooling is stateless at inference: a throwaway
                    // clone keeps `infer` pure.
                    let mut p = p.clone();
                    p.forward(&h, false)
                }
                SeqLayer::Up(u) => u.forward(&h),
            };
        }
        h
    }

    /// Backward pass from output-logit gradients, returning the input
    /// gradient.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = match layer {
                SeqLayer::Conv(c) => c.backward(&g),
                SeqLayer::Bn(b) => b.backward(&g),
                SeqLayer::Relu(r) => r.backward(&g),
                SeqLayer::ParallelSum(branches) => {
                    let mut acc: Option<Tensor> = None;
                    for b in branches.iter_mut() {
                        let gi = b.backward(&g);
                        match acc.as_mut() {
                            Some(a) => a.add_assign(&gi),
                            None => acc = Some(gi),
                        }
                    }
                    acc.expect("ParallelSum has at least one branch")
                }
                SeqLayer::Pool(p) => p.backward(&g),
                SeqLayer::Up(u) => u.backward(&g),
            };
        }
        g
    }
}

impl VisitParams for SeqNet {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut Vec<f32>)) {
        for layer in &mut self.layers {
            match layer {
                SeqLayer::Conv(c) => c.visit_params(f),
                SeqLayer::Bn(b) => b.visit_params(f),
                SeqLayer::Relu(_) => {}
                SeqLayer::ParallelSum(branches) => {
                    for b in branches {
                        b.visit_params(f);
                    }
                }
                SeqLayer::Pool(_) | SeqLayer::Up(_) => {}
            }
        }
    }
}

/// Hyper-parameters of seq2seq training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeqTrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Positive-class weight; `None` derives it from the target imbalance.
    pub pos_weight: Option<f32>,
    /// Shuffle seed.
    pub shuffle_seed: u64,
}

impl Default for SeqTrainConfig {
    fn default() -> Self {
        SeqTrainConfig {
            epochs: 20,
            batch_size: 16,
            lr: 1e-3,
            pos_weight: None,
            shuffle_seed: 0,
        }
    }
}

impl SeqTrainConfig {
    /// A fast configuration for unit tests.
    pub fn fast() -> SeqTrainConfig {
        SeqTrainConfig {
            epochs: 5,
            batch_size: 8,
            ..SeqTrainConfig::default()
        }
    }
}

/// Train a [`SeqNet`] on `(normalized windows, per-timestep 0/1 targets)`.
/// Returns per-epoch mean losses.
pub fn train_seq2seq(
    net: &mut SeqNet,
    windows: &[Vec<f32>],
    targets: &[Vec<u8>],
    cfg: &SeqTrainConfig,
) -> Vec<f32> {
    assert!(!windows.is_empty(), "seq2seq training requires windows");
    assert_eq!(windows.len(), targets.len(), "window/target count mismatch");
    let pos_weight = cfg.pos_weight.unwrap_or_else(|| {
        let total: usize = targets.iter().map(Vec::len).sum();
        let pos: usize = targets
            .iter()
            .map(|t| t.iter().filter(|&&s| s == 1).count())
            .sum();
        if pos == 0 || pos == total {
            1.0
        } else {
            // Cap the weight: extreme imbalance otherwise destabilizes Adam.
            ((total - pos) as f32 / pos as f32).min(20.0)
        }
    });
    let _span = ds_obs::span!("seqnet.train");
    let mut opt = Adam::with_weight_decay(cfg.lr, 1e-4);
    let mut rng = StdRng::seed_from_u64(cfg.shuffle_seed);
    let mut order: Vec<usize> = (0..windows.len()).collect();
    let mut losses = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let epoch_start = ds_obs::enabled().then(std::time::Instant::now);
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size.max(2)) {
            if chunk.len() < 2 && order.len() >= 2 {
                continue; // batch-norm needs batch statistics
            }
            let batch: Vec<Vec<f32>> = chunk.iter().map(|&i| windows[i].clone()).collect();
            let x = Tensor::from_windows(&batch);
            let mut target = Tensor::zeros(x.batch, 1, x.len);
            for (bi, &i) in chunk.iter().enumerate() {
                for (t, &s) in targets[i].iter().enumerate() {
                    *target.get_mut(bi, 0, t) = s as f32;
                }
            }
            net.zero_grad();
            let logits = net.forward(&x, true);
            let (loss, grad) = bce_with_logits_pos_weight(&logits, &target, pos_weight);
            net.backward(&grad);
            opt.step(net);
            loss_sum += loss as f64;
            batches += 1;
        }
        let epoch_loss = (loss_sum / batches.max(1) as f64) as f32;
        losses.push(epoch_loss);
        if let Some(start) = epoch_start {
            ds_obs::counter_add("seqnet.epochs", 1);
            ds_obs::event!(
                "seqnet_epoch",
                epoch = epoch,
                loss = epoch_loss,
                windows_per_sec = windows.len() as f64 / start.elapsed().as_secs_f64().max(1e-9),
            );
        }
    }
    losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archs;

    fn toy_seq_corpus(n: usize, len: usize) -> (Vec<Vec<f32>>, Vec<Vec<u8>>) {
        let mut windows = Vec::new();
        let mut targets = Vec::new();
        for i in 0..n {
            let mut w = vec![0.0f32; len];
            let mut t = vec![0u8; len];
            let start = (i * 5) % (len / 2);
            for j in start..start + len / 4 {
                w[j] = 1.0;
                t[j] = 1;
            }
            for (j, v) in w.iter_mut().enumerate() {
                *v += ((i + j) % 3) as f32 * 0.02;
            }
            windows.push(w);
            targets.push(t);
        }
        (windows, targets)
    }

    #[test]
    fn forward_preserves_shape_for_all_archs() {
        let x = Tensor::from_windows(&[vec![0.5; 40], vec![0.1; 40]]);
        for (name, mut net) in archs::all_architectures(1) {
            let y = net.forward(&x, false);
            assert_eq!(y.shape(), (2, 1, 40), "arch {name}");
            let y2 = net.infer(&x);
            assert_eq!(y.data, y2.data, "infer mismatch for {name}");
        }
    }

    #[test]
    fn training_learns_identity_like_mapping() {
        // The plateau IS the target: any seq2seq net should learn this fast.
        let (windows, targets) = toy_seq_corpus(16, 32);
        let mut net = archs::fcn(7);
        let losses = train_seq2seq(
            &mut net,
            &windows,
            &targets,
            &SeqTrainConfig {
                epochs: 15,
                ..SeqTrainConfig::fast()
            },
        );
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.7),
            "loss did not drop: {losses:?}"
        );
        // Prediction should mark plateau timesteps hotter than background.
        let x = Tensor::from_windows(&[windows[0].clone()]);
        let logits = net.infer(&x);
        let on_mean: f32 = logits
            .row(0, 0)
            .iter()
            .zip(&targets[0])
            .filter(|(_, &t)| t == 1)
            .map(|(l, _)| *l)
            .sum::<f32>()
            / targets[0].iter().filter(|&&t| t == 1).count() as f32;
        let off_mean: f32 = logits
            .row(0, 0)
            .iter()
            .zip(&targets[0])
            .filter(|(_, &t)| t == 0)
            .map(|(l, _)| *l)
            .sum::<f32>()
            / targets[0].iter().filter(|&&t| t == 0).count() as f32;
        assert!(on_mean > off_mean, "on {on_mean} vs off {off_mean}");
    }

    /// The dilated TCN trains on the AVX2 forward (every dilation fits the
    /// vector kernel) and the scalar backward of its dilated layers; both
    /// dispatches must produce the same weight and loss bits.
    #[test]
    fn tcn_training_is_bit_identical_across_simd_dispatch() {
        use ds_neural::simd::{self, SimdMode};
        let (windows, targets) = toy_seq_corpus(12, 40);
        let run = |mode: SimdMode| {
            simd::set_mode(Some(mode));
            let mut net = archs::tcn(5);
            let losses = train_seq2seq(&mut net, &windows, &targets, &SeqTrainConfig::fast());
            simd::set_mode(None);
            let mut bits: Vec<u32> = losses.iter().map(|v| v.to_bits()).collect();
            net.visit_params(&mut |params, _| bits.extend(params.iter().map(|v| v.to_bits())));
            bits
        };
        assert_eq!(run(SimdMode::Scalar), run(SimdMode::Avx2));
    }

    #[test]
    fn gradient_flow_through_parallel_sum() {
        use ds_neural::VisitParams;
        let mut net = archs::unet_ms(3);
        let x = Tensor::from_windows(&[vec![0.3; 24], vec![0.6; 24]]);
        let target = Tensor::zeros(2, 1, 24);
        net.zero_grad();
        let logits = net.forward(&x, true);
        let (_, grad) = bce_with_logits_pos_weight(&logits, &target, 1.0);
        let _ = net.backward(&grad);
        // Every parameter must have received a gradient (no dead branch).
        let mut saw_nonzero = 0usize;
        let mut groups = 0usize;
        net.visit_params(&mut |_, g| {
            groups += 1;
            if g.iter().any(|v| *v != 0.0) {
                saw_nonzero += 1;
            }
        });
        assert!(groups > 4);
        assert!(
            saw_nonzero * 2 > groups,
            "too many dead parameter groups: {saw_nonzero}/{groups}"
        );
    }

    #[test]
    fn encoder_decoder_stack_trains() {
        // A true UNet-style encoder–decoder using the Pool/Up layers: shape
        // is preserved for even lengths and gradients flow end to end.
        use ds_neural::batchnorm::BatchNorm1d;
        use ds_neural::conv::Conv1d;
        use ds_neural::sample::{MaxPool1d, Upsample1d};
        let mut net = SeqNet::new(vec![
            SeqLayer::Conv(Conv1d::new(1, 8, 3, 1)),
            SeqLayer::Bn(BatchNorm1d::new(8)),
            SeqLayer::Relu(ds_neural::activations::ReLU::new()),
            SeqLayer::Pool(MaxPool1d::new(2)),
            SeqLayer::Conv(Conv1d::new(8, 8, 3, 2)),
            SeqLayer::Bn(BatchNorm1d::new(8)),
            SeqLayer::Relu(ds_neural::activations::ReLU::new()),
            SeqLayer::Up(Upsample1d::new(2)),
            SeqLayer::Conv(Conv1d::new(8, 1, 1, 3)),
        ]);
        let (windows, targets) = toy_seq_corpus(8, 32);
        let x = Tensor::from_windows(&[windows[0].clone()]);
        assert_eq!(net.forward(&x, false).shape(), (1, 1, 32));
        assert_eq!(net.infer(&x).shape(), (1, 1, 32));
        let losses = train_seq2seq(&mut net, &windows, &targets, &SeqTrainConfig::fast());
        assert!(losses.iter().all(|l| l.is_finite()));
        assert!(losses.last().unwrap() <= &losses[0]);
    }

    #[test]
    fn auto_pos_weight_handles_degenerate_targets() {
        let (windows, _) = toy_seq_corpus(4, 16);
        let all_zero = vec![vec![0u8; 16]; 4];
        let mut net = archs::seq2point(5);
        let losses = train_seq2seq(&mut net, &windows, &all_zero, &SeqTrainConfig::fast());
        assert!(losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    #[should_panic(expected = "requires windows")]
    fn empty_training_panics() {
        let mut net = archs::fcn(0);
        let _ = train_seq2seq(&mut net, &[], &[], &SeqTrainConfig::fast());
    }
}

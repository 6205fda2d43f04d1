//! The deterministic-training contract, checked end to end: for ANY
//! worker count, data-parallel training — member fan-out, micro-batch
//! layer kernels, and the fixed-shape gradient reduction — produces
//! trained weights, epoch losses, and final accuracy **bit-identical**
//! to the sequential path. Micro-batch heights are constants
//! (`ds_neural::workspace::MICRO_ROWS`) and partial gradients fold in
//! slot order, so the only thing `DS_PAR_THREADS` changes is wall time.
//! The same holds across SIMD dispatch: the AVX2 forward and backward
//! kernels are the bit-exact twins of the scalar ones, so `DS_SIMD`
//! changes only wall time too.
//!
//! All tests flip a process-wide override (the worker count or the SIMD
//! dispatch), so they serialize through one lock.

use devicescope::camal::{CamalConfig, ResNetEnsemble};
use devicescope::neural::resnet::{ResNet, ResNetConfig};
use devicescope::neural::simd::{self, SimdMode};
use devicescope::neural::train::{train_classifier, TrainConfig};
use devicescope::neural::VisitParams;
use devicescope::par;
use proptest::prelude::*;
use std::sync::Mutex;

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` once per worker count in `0, 2, 4, 8` (0 = sequential
/// fallback) and return the outputs next to the 1-worker reference.
fn across_worker_counts<R>(f: impl Fn() -> R) -> (R, Vec<(usize, R)>) {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_threads(Some(1));
    let reference = f();
    let runs = [0usize, 2, 4, 8]
        .into_iter()
        .map(|w| {
            par::set_threads(Some(w));
            (w, f())
        })
        .collect();
    par::set_threads(None);
    (reference, runs)
}

fn weight_bits(net: &mut impl VisitParams) -> Vec<u32> {
    let mut out = Vec::new();
    net.visit_params(&mut |params, _| out.extend(params.iter().map(|v| v.to_bits())));
    out
}

fn toy_corpus(n: usize, len: usize, jitter: u32) -> (Vec<Vec<f32>>, Vec<u8>) {
    let mut windows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let mut w = vec![0.1f32; len];
        if i % 2 == 1 {
            for v in &mut w[len / 3..len / 2] {
                *v = 1.0;
            }
        }
        for (j, v) in w.iter_mut().enumerate() {
            *v += ((i * 5 + j * 3 + jitter as usize) % 7) as f32 * 0.01;
        }
        windows.push(w);
        labels.push((i % 2) as u8);
    }
    (windows, labels)
}

/// Everything a training run produces that the contract covers, for a
/// tiny ResNet whose second block is `width` channels wide.
fn train_fingerprint(
    windows: &[Vec<f32>],
    labels: &[u8],
    cfg: &TrainConfig,
    kernel: usize,
    width: usize,
) -> (Vec<u32>, Vec<u32>, u32) {
    let mut net = ResNet::new(ResNetConfig {
        channels: vec![4, width],
        ..ResNetConfig::tiny(kernel, 7)
    });
    let report = train_classifier(&mut net, windows, labels, cfg);
    (
        weight_bits(&mut net),
        report.epoch_losses.iter().map(|l| l.to_bits()).collect(),
        report.train_accuracy.to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Single-network training: micro-batch layer fan-outs plus the
    /// slot-order gradient reduction are exact at any worker count. Odd
    /// corpus sizes exercise the merged trailing batch.
    #[test]
    fn classifier_training_is_bit_identical_across_worker_counts(
        n in prop::sample::select(vec![9usize, 12, 17]),
        batch in prop::sample::select(vec![4usize, 8]),
        jitter in 0u32..1000,
    ) {
        let (windows, labels) = toy_corpus(n, 24, jitter);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: batch,
            patience: None,
            ..TrainConfig::default()
        };
        let (reference, runs) =
            across_worker_counts(|| train_fingerprint(&windows, &labels, &cfg, 5, 8));
        for (w, run) in runs {
            prop_assert_eq!(&reference.0, &run.0, "weights diverged, workers = {}", w);
            prop_assert_eq!(&reference.1, &run.1, "losses diverged, workers = {}", w);
            prop_assert_eq!(reference.2, run.2, "accuracy diverged, workers = {}", w);
        }
    }

    /// SIMD dispatch: training under the AVX2 kernels reproduces the
    /// scalar twins' weights, losses and accuracy bit for bit (on hosts
    /// without AVX2 both runs take the scalar path). Kernel widths cover
    /// the const-dispatched and fallback scalar paths; a 6-channel block
    /// mixes a vector four-row block with scalar remainder rows.
    #[test]
    fn classifier_training_is_bit_identical_across_simd_dispatch(
        n in prop::sample::select(vec![9usize, 12, 17]),
        batch in prop::sample::select(vec![4usize, 8]),
        kernel in prop::sample::select(vec![3usize, 4, 5, 9, 11]),
        jitter in 0u32..1000,
    ) {
        let (windows, labels) = toy_corpus(n, 24, jitter);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: batch,
            patience: None,
            ..TrainConfig::default()
        };
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for width in [8usize, 6] {
            let run = |mode: SimdMode| {
                simd::set_mode(Some(mode));
                let out = train_fingerprint(&windows, &labels, &cfg, kernel, width);
                simd::set_mode(None);
                out
            };
            let scalar = run(SimdMode::Scalar);
            let avx2 = run(SimdMode::Avx2);
            prop_assert_eq!(&scalar.0, &avx2.0, "weights diverged, kernel = {}, width = {}", kernel, width);
            prop_assert_eq!(&scalar.1, &avx2.1, "losses diverged, kernel = {}, width = {}", kernel, width);
            prop_assert_eq!(scalar.2, avx2.2, "accuracy diverged, kernel = {}, width = {}", kernel, width);
        }
    }

    /// Ensemble training: member fan-out on top of the layer fan-outs
    /// (nested calls run sequentially inside a worker) stays exact.
    #[test]
    fn ensemble_training_is_bit_identical_across_worker_counts(
        jitter in 0u32..1000,
    ) {
        let cfg = CamalConfig::fast_test();
        let (windows, labels) = toy_corpus(12, 24, jitter);
        let (reference, runs) = across_worker_counts(|| {
            let mut ensemble = ResNetEnsemble::untrained(&cfg);
            let reports = ensemble.train(&windows, &labels, &cfg);
            let weights: Vec<Vec<u32>> = ensemble
                .members_mut()
                .iter_mut()
                .map(weight_bits)
                .collect();
            let losses: Vec<Vec<u32>> = reports
                .iter()
                .map(|r| r.epoch_losses.iter().map(|l| l.to_bits()).collect())
                .collect();
            (weights, losses)
        });
        for (w, run) in runs {
            prop_assert_eq!(&reference.0, &run.0, "member weights diverged, workers = {}", w);
            prop_assert_eq!(&reference.1, &run.1, "member losses diverged, workers = {}", w);
        }
    }
}

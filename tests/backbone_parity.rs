//! Golden tests for the backbone zoo: every detector architecture
//! (ResNet, Inception, TransApp) must honor the same frozen-plan
//! contract the original ResNet path established in `frozen_plan.rs`:
//!
//! - f32 frozen plans reproduce the mutable path (probabilities within
//!   1e-4, CAMs within 1e-3, thresholded decisions identical) across
//!   batch sizes `{1, 4, 17}` and under both kernel dispatches;
//! - int8 plans calibrated on held-out windows stay within the drift
//!   bound and keep every decision whose f32 probability clears the
//!   threshold by more than that bound;
//! - freezing after a checkpoint round-trip (ds-core `model_io`, the v2
//!   format that tags each member with its backbone) is *bit* identical
//!   to freezing the original model;
//! - steady-state inference against a warm arena allocates nothing.
//!
//! The members are briefly trained first so normalization statistics
//! move off their initialization and probabilities leave the 0.5
//! threshold — matching the `frozen_plan.rs` methodology.

use ds_camal::model_io;
use ds_camal::{Camal, CamalConfig, ResNetEnsemble};
use ds_neural::simd::{self, SimdMode};
use ds_neural::tensor::Tensor;
use ds_neural::train::{train_classifier, TrainConfig};
use ds_neural::{Backbone, DetectorNet, InferenceArena};
use std::sync::Mutex;

const WINDOW: usize = 64;

/// Serializes the test that switches the process-global SIMD dispatch
/// with the test that compares two int8 calibrations bit for bit: the
/// calibration replay runs the dispatched f32 kernels, so a mode flip
/// between the two quantize calls would move the activation scales.
static DISPATCH: Mutex<()> = Mutex::new(());

/// A small linearly separable corpus: odd windows carry a burst.
fn corpus(n: usize) -> (Vec<Vec<f32>>, Vec<u8>) {
    let windows: Vec<Vec<f32>> = (0..n)
        .map(|w| {
            (0..WINDOW)
                .map(|i| {
                    let base = ((w * 17 + i) % 23) as f32 * 0.04;
                    let burst = if w % 2 == 1 && i % 20 < 8 { 1.0 } else { 0.0 };
                    base + burst
                })
                .collect()
        })
        .collect();
    let labels: Vec<u8> = (0..n).map(|w| (w % 2) as u8).collect();
    (windows, labels)
}

/// Varied evaluation input, disjoint from the training corpus pattern.
fn eval_input(batch: usize) -> Tensor {
    let data: Vec<f32> = (0..batch * WINDOW)
        .map(|i| ((i * 31 % 17) as f32 - 8.0) / 4.0 + (i as f32 * 0.09).sin())
        .collect();
    Tensor::from_data(batch, 1, WINDOW, data)
}

/// Held-out calibration windows at a phase disjoint from [`eval_input`]
/// but covering the same value range (see `frozen_plan.rs` for why
/// calibrating on the training corpus would inflate drift).
fn calib_input(batch: usize) -> Tensor {
    let data: Vec<f32> = (0..batch * WINDOW)
        .map(|i| (((i * 37 + 3) % 17) as f32 - 8.0) / 4.0 + (i as f32 * 0.07 + 1.0).sin())
        .collect();
    Tensor::from_data(batch, 1, WINDOW, data)
}

fn trained_net(backbone: Backbone, seed: u64) -> DetectorNet {
    let mut net = DetectorNet::for_backbone(backbone, 1, &[4, 8], 5, 2, seed);
    let (windows, labels) = corpus(16);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 4,
        patience: None,
        ..TrainConfig::default()
    };
    train_classifier(&mut net, &windows, &labels, &cfg);
    net
}

/// The f32 contract: probabilities within 1e-4 of the mutable path,
/// CAMs within 1e-3, thresholded decisions identical.
fn assert_frozen_matches(net: &DetectorNet, label: &str) {
    let frozen = net.freeze();
    assert_eq!(frozen.backbone(), net.backbone(), "{label}: tag lost");
    let mut arena = InferenceArena::new();
    for batch in [1usize, 4, 17] {
        let x = eval_input(batch);
        let (probs, cams) = net.infer_with_cam(&x);
        frozen.predict_into(&x, &mut arena);
        for bi in 0..batch {
            assert!(
                (arena.probs()[bi] - probs[bi]).abs() <= 1e-4,
                "{label} b={batch}: prob {} vs reference {}",
                arena.probs()[bi],
                probs[bi]
            );
            assert_eq!(
                arena.probs()[bi] > 0.5,
                probs[bi] > 0.5,
                "{label} b={batch}: decision flipped at prob {}",
                probs[bi]
            );
            for (a, r) in arena.cam(bi).iter().zip(&cams[bi]) {
                assert!(
                    (a - r).abs() <= 1e-3,
                    "{label} b={batch}: cam {a} vs reference {r}"
                );
            }
        }
    }
}

#[test]
fn frozen_plans_match_the_mutable_path_for_every_backbone() {
    for (i, backbone) in Backbone::ALL.into_iter().enumerate() {
        let net = trained_net(backbone, 600 + i as u64);
        assert_frozen_matches(&net, backbone.label());
    }
}

/// The contract holds under *both* kernel dispatches, for every
/// backbone: the scalar twins (a `DS_SIMD=off` run) and the vectorized
/// path must each reproduce the mutable reference.
#[test]
fn backbone_contract_holds_under_both_dispatches() {
    let _dispatch = DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
    for (dispatch, mode) in [
        ("scalar", SimdMode::Scalar),
        // Falls back to scalar on hosts without AVX2 — the golden then
        // re-checks the twin rather than silently skipping.
        ("simd", SimdMode::Avx2),
    ] {
        simd::set_mode(Some(mode));
        for (i, backbone) in Backbone::ALL.into_iter().enumerate() {
            let net = trained_net(backbone, 700 + i as u64);
            assert_frozen_matches(&net, &format!("dispatch={dispatch} {backbone}"));
        }
        simd::set_mode(None);
    }
}

/// The int8 contract per backbone: probabilities within the drift
/// bound of the f32 plan, and any decision whose f32 probability clears
/// the threshold by more than that bound is identical. The conv
/// backbones hold the ResNet-calibrated 0.05 bound; TransApp gets a
/// wider one because its attention softmax amplifies int8 embedding
/// error at probability tails (observed ~0.052 drift at f32 prob 0.02 —
/// far from the decision threshold, but past the conv bound).
#[test]
fn quantized_plans_keep_decisions_for_every_backbone() {
    for (i, backbone) in Backbone::ALL.into_iter().enumerate() {
        let drift = match backbone {
            Backbone::TransApp => 0.10f32,
            _ => 0.05,
        };
        let net = trained_net(backbone, 800 + i as u64);
        let frozen = net.freeze();
        let quant = net.freeze_quantized(&calib_input(8));
        assert_eq!(quant.backbone(), backbone, "tag lost over quantization");

        let mut f32_arena = InferenceArena::new();
        let mut int8_arena = InferenceArena::new();
        for batch in [1usize, 4, 17] {
            let x = eval_input(batch);
            frozen.predict_into(&x, &mut f32_arena);
            quant.predict_into(&x, &mut int8_arena);
            for bi in 0..batch {
                let fp = f32_arena.probs()[bi];
                let qp = int8_arena.probs()[bi];
                assert!(
                    (fp - qp).abs() <= drift,
                    "{backbone} b={batch}: prob drift {fp} vs {qp}"
                );
                if (fp - 0.5).abs() > drift {
                    assert_eq!(
                        fp > 0.5,
                        qp > 0.5,
                        "{backbone} b={batch}: quantized decision flipped at prob {fp}"
                    );
                }
            }
        }
    }
}

/// Freezing after a save/load round-trip through the v2 checkpoint
/// format must be *bit* identical to freezing the in-memory original —
/// for a single-backbone model of each architecture and for a mixed
/// ensemble, at f32 and at int8.
#[test]
fn freeze_after_checkpoint_round_trip_is_bit_identical() {
    let (windows, labels) = corpus(16);
    let mut zoo: Vec<(String, Camal)> = Backbone::ALL
        .into_iter()
        .map(|b| {
            (
                b.label().to_string(),
                trained_camal(&windows, &labels, vec![b]),
            )
        })
        .collect();
    zoo.push((
        "mixed".to_string(),
        trained_camal(&windows, &labels, Backbone::ALL.to_vec()),
    ));

    let calib: Vec<Vec<f32>> = {
        let t = calib_input(8);
        (0..8).map(|bi| t.row(bi, 0).to_vec()).collect()
    };
    let _dispatch = DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
    for (label, model) in &zoo {
        let restored = model_io::from_json(&model_io::to_json(model)).unwrap();
        let member_tags = |m: &Camal| -> Vec<Backbone> {
            m.ensemble()
                .members()
                .iter()
                .map(|n| n.backbone())
                .collect()
        };
        assert_eq!(
            member_tags(model),
            member_tags(&restored),
            "{label}: member backbones changed over checkpoint"
        );
        assert_eq!(
            model.freeze().ensemble().param_bits(),
            restored.freeze().ensemble().param_bits(),
            "{label}: f32 freeze not bit-identical after round-trip"
        );
        assert_eq!(
            model.freeze_quantized(&calib).ensemble().param_bits(),
            restored.freeze_quantized(&calib).ensemble().param_bits(),
            "{label}: int8 freeze not bit-identical after round-trip"
        );
    }
}

fn trained_camal(windows: &[Vec<f32>], labels: &[u8], backbones: Vec<Backbone>) -> Camal {
    let mut cfg = CamalConfig {
        kernel_sizes: vec![5],
        channels: vec![4, 8],
        backbones,
        ..CamalConfig::default()
    };
    cfg.train.epochs = 2;
    cfg.train.batch_size = 4;
    cfg.train.patience = None;
    let mut ensemble = ResNetEnsemble::untrained(&cfg);
    ensemble.train(windows, labels, &cfg);
    Camal::from_parts(ensemble, cfg)
}

/// Steady-state inference against a warm arena allocates nothing — for
/// every backbone, at f32 and at int8.
#[test]
fn frozen_steady_state_allocates_nothing_for_every_backbone() {
    for (i, backbone) in Backbone::ALL.into_iter().enumerate() {
        let net = trained_net(backbone, 900 + i as u64);
        let frozen = net.freeze();
        let quant = net.freeze_quantized(&calib_input(8));
        let inputs: Vec<Tensor> = [1usize, 4, 17].into_iter().map(eval_input).collect();
        let mut arena = InferenceArena::new();
        // Warm with the largest batch so every later shape fits.
        frozen.predict_into(&eval_input(17), &mut arena);
        let before = ds_obs::alloc_count();
        for x in &inputs {
            frozen.predict_into(x, &mut arena);
        }
        assert_eq!(
            ds_obs::alloc_count(),
            before,
            "{backbone}: steady-state f32 predict must not allocate"
        );

        let mut qarena = InferenceArena::new();
        quant.predict_into(&eval_input(17), &mut qarena);
        let before = ds_obs::alloc_count();
        for x in &inputs {
            quant.predict_into(x, &mut qarena);
        }
        assert_eq!(
            ds_obs::alloc_count(),
            before,
            "{backbone}: steady-state int8 predict must not allocate"
        );
        // And the plan still matches the mutable path after arena reuse.
        assert_frozen_matches(&net, &format!("post-reuse {backbone}"));
    }
}

//! Golden tests for the frozen inference plan: BN-folded, fused-epilogue
//! networks must reproduce the mutable reference path across every
//! architecture shape the paper's ensemble uses.
//!
//! Coverage axes:
//! - kernel sizes `{5, 7, 9, 15}` — the paper's ensemble diversity knob,
//!   spanning the specialized fixed-kernel conv paths and the generic one;
//! - channel plans `[4, 8]` (both blocks carry projection shortcuts) and
//!   `[4, 4]` (the second block uses the identity shortcut, so the
//!   shortcut-free folding path is exercised);
//! - batch sizes `{1, 4, 17}` — singleton, the register-blocked sweet
//!   spot, and a remainder-row count.
//!
//! The networks are briefly *trained* first: training moves the BatchNorm
//! running statistics off their initialization (making folding a
//! non-trivial transform) and pushes probabilities away from the 0.5
//! threshold (making decision-identity meaningful).

use ds_neural::resnet::{ResNet, ResNetConfig};
use ds_neural::simd::{self, SimdMode};
use ds_neural::tensor::Tensor;
use ds_neural::train::{train_classifier, TrainConfig};
use ds_neural::{Backbone, DetectorNet, FrozenResNet, InferenceArena};
use std::sync::Mutex;

const WINDOW: usize = 64;

/// Serializes the tests that switch the process-global SIMD dispatch:
/// the bit pins must run start to finish on the scalar kernels.
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

fn trained_net(kernel: usize, channels: Vec<usize>, seed: u64) -> ResNet {
    let mut net = ResNet::new(ResNetConfig {
        in_channels: 1,
        channels,
        kernel,
        num_classes: 2,
        seed,
    });
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

/// The tolerance contract: logits within 1e-4 max-abs, probabilities
/// within 1e-4, CAMs within 1e-3, and thresholded decisions identical.
fn assert_frozen_matches(net: &mut ResNet, label: &str) {
    let frozen = FrozenResNet::freeze(net);
    let mut arena = InferenceArena::new();
    for batch in [1usize, 4, 17] {
        let x = eval_input(batch);
        let (logits, _) = net.infer(&x);
        let (probs, cams) = net.infer_with_cam(&x);
        frozen.predict_into(&x, &mut arena);
        for bi in 0..batch {
            for (a, r) in arena.logits_row(bi).iter().zip(logits.row(bi)) {
                assert!(
                    (a - r).abs() <= 1e-4,
                    "{label} b={batch}: logit {a} vs reference {r}"
                );
            }
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
fn frozen_matches_reference_with_projection_shortcuts() {
    for (i, kernel) in [5usize, 7, 9, 15].into_iter().enumerate() {
        let mut net = trained_net(kernel, vec![4, 8], 100 + i as u64);
        assert_frozen_matches(&mut net, &format!("k={kernel} channels=[4,8]"));
    }
}

#[test]
fn frozen_matches_reference_with_identity_shortcut() {
    for (i, kernel) in [5usize, 7, 9, 15].into_iter().enumerate() {
        let mut net = trained_net(kernel, vec![4, 4], 200 + i as u64);
        assert_frozen_matches(&mut net, &format!("k={kernel} channels=[4,4]"));
    }
}

/// The tolerance contract holds under *both* kernel dispatches: the
/// scalar twins (a `DS_SIMD=off` run) and the vectorized path must each
/// reproduce the mutable reference. The dispatch override is
/// process-global, but every assertion in this binary is tolerant under
/// either mode, so concurrent tests are unaffected.
#[test]
fn frozen_contract_holds_under_both_dispatches() {
    let _dispatch = DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
    for (dispatch, mode) in [
        ("scalar", SimdMode::Scalar),
        // Falls back to scalar on hosts without AVX2 — the golden then
        // re-checks the twin rather than silently skipping.
        ("simd", SimdMode::Avx2),
    ] {
        simd::set_mode(Some(mode));
        for (i, kernel) in [5usize, 9, 15].into_iter().enumerate() {
            let mut net = trained_net(kernel, vec![4, 8], 400 + i as u64);
            assert_frozen_matches(&mut net, &format!("dispatch={dispatch} k={kernel}"));
        }
        simd::set_mode(None);
    }
}

#[test]
fn frozen_steady_state_allocates_nothing_across_batches() {
    let mut net = trained_net(9, vec![4, 8], 300);
    let frozen = FrozenResNet::freeze(&net);
    let mut arena = InferenceArena::new();
    // Warm with the largest batch so every later shape fits the arena.
    frozen.predict_into(&eval_input(17), &mut arena);
    let inputs: Vec<Tensor> = [1usize, 4, 17].into_iter().map(eval_input).collect();
    let before = ds_obs::alloc_count();
    for x in &inputs {
        frozen.predict_into(x, &mut arena);
    }
    assert_eq!(
        ds_obs::alloc_count(),
        before,
        "steady-state frozen predict must not allocate"
    );
    // And the plan still matches the mutable path after arena reuse.
    assert_frozen_matches(&mut net, "post-reuse k=9 channels=[4,8]");
}

/// FNV-1a over a stream of 32-bit words.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(param_bits hash, output hash)` of one plan; `predict` runs the plan
/// on `x`, and the output hash covers every window's probability and
/// class-1 CAM bits.
fn plan_digest(
    param_bits: Vec<u32>,
    x: &Tensor,
    predict: impl FnOnce(&mut InferenceArena),
) -> (u64, u64) {
    let mut arena = InferenceArena::new();
    predict(&mut arena);
    let mut out: Vec<u32> = arena.probs()[..x.batch]
        .iter()
        .map(|p| p.to_bits())
        .collect();
    for bi in 0..x.batch {
        out.extend(arena.cam(bi).iter().map(|v| v.to_bits()));
    }
    (fnv1a(param_bits), fnv1a(out))
}

/// Exact bits of every backbone's plan at a fixed seed and input, on the
/// scalar kernels so the pins do not depend on the host's SIMD support.
/// The goldens above only bound the plans within tolerance; these pins
/// catch any change to what the plans compute, so a refactor of the plan
/// types must leave them untouched. Per backbone: `(params, outputs)`.
#[test]
fn plans_are_bit_pinned_on_the_scalar_kernels() {
    const PINS: [(Backbone, [u64; 2]); 3] = [
        (
            Backbone::ResNet,
            [0xcc06_b01f_c14d_8184, 0x55f8_4917_2f2d_8170],
        ),
        (
            Backbone::Inception,
            [0xcf13_87ec_7557_f2dc, 0xc92a_15ae_fb86_e8ac],
        ),
        (
            Backbone::TransApp,
            [0xb9d3_0d70_cba4_cefa, 0x471c_4e2f_9984_231e],
        ),
    ];
    let _dispatch = DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
    simd::set_mode(Some(SimdMode::Scalar));
    let x = eval_input(4);
    let (windows, labels) = corpus(16);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 4,
        patience: None,
        ..TrainConfig::default()
    };
    let got: Vec<(Backbone, [u64; 2])> = Backbone::ALL
        .into_iter()
        .map(|backbone| {
            let mut net = DetectorNet::for_backbone(backbone, 1, &[4, 8], 5, 2, 600);
            train_classifier(&mut net, &windows, &labels, &cfg);
            let plan = net.freeze();
            let (params, outputs) =
                plan_digest(plan.param_bits(), &x, |arena| plan.predict_into(&x, arena));
            (backbone, [params, outputs])
        })
        .collect();
    simd::set_mode(None);
    for (backbone, pins) in &got {
        eprintln!("{backbone:?}: {pins:#x?}");
    }
    assert_eq!(got, PINS, "plan bits moved (printed above in hex)");
}

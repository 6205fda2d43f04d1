//! The backbone zoo: one tagged type per detector lifecycle stage.
//!
//! DeviceScope exposes several detector architectures (ConvNet, ResNet,
//! Inception, TransAppS); this reproduction covers the three that matter
//! for the CamAL pipeline — [`ResNet`] (the paper's default), the
//! InceptionTime-style [`InceptionNet`] and the TransAppS-style
//! [`TransAppNet`]. All three share the GAP-classifier CAM surface, so
//! the localizer and the streaming machinery are backbone-agnostic.
//!
//! The vendored serde derive has no generics, so heterogeneity is modeled
//! with concrete enums instead of trait objects:
//!
//! - [`Backbone`]: the tag — selection knob, checkpoint field, plan-cache
//!   key component.
//! - [`DetectorNet`]: a trainable member of any backbone. Its externally
//!   tagged serde form (`{"ResNet": {...}}`) doubles as the per-member
//!   backbone tag of v2 checkpoints.
//! - [`FrozenDetector`]: the compiled serving form at f32 or int8, all
//!   honoring the frozen-plan contract (probs within 1e-4 of the mutable
//!   path at f32, CAMs within 1e-3, zero decision flips, zero
//!   steady-state allocations against a warm [`InferenceArena`]).
//!
//! ds-core's `Detector` trait is implemented over these enums; the
//! dynamic dispatch lives there, the concrete folding lives here.

use crate::frozen::FrozenResNet;
use crate::inception::{FrozenInception, InceptionConfig, InceptionNet};
use crate::plan::InferenceArena;
use crate::resnet::{ResNet, ResNetConfig};
use crate::tensor::{Matrix, Tensor};
use crate::train::NeuralNet;
use crate::transapp::{FrozenTransApp, TransAppConfig, TransAppNet};
use crate::VisitParams;
use serde::{Deserialize, Serialize};

/// Detector architecture tag. `Ord` so it can key plan caches
/// (freeze cache, serving registry, streaming sessions) — entries of
/// different backbones must never alias.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum Backbone {
    /// Residual conv net of Wang et al. — the paper's default detector.
    #[default]
    ResNet,
    /// InceptionTime-style multi-scale conv blocks.
    Inception,
    /// TransAppS-style transformer with conv embedding.
    TransApp,
}

impl Backbone {
    /// Every supported backbone, in presentation order.
    pub const ALL: [Backbone; 3] = [Backbone::ResNet, Backbone::Inception, Backbone::TransApp];

    /// Stable lowercase name (CLI arguments, API fields, bench case names).
    pub fn label(self) -> &'static str {
        match self {
            Backbone::ResNet => "resnet",
            Backbone::Inception => "inception",
            Backbone::TransApp => "transapp",
        }
    }

    /// Parse a [`Backbone::label`]-style name, case-insensitively.
    pub fn parse(s: &str) -> Option<Backbone> {
        match s.to_ascii_lowercase().as_str() {
            "resnet" => Some(Backbone::ResNet),
            "inception" => Some(Backbone::Inception),
            "transapp" | "transapps" => Some(Backbone::TransApp),
            _ => None,
        }
    }
}

impl std::fmt::Display for Backbone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Round `c` up to the next multiple of 4 (inception blocks concatenate
/// four equal-width branches).
fn ceil4(c: usize) -> usize {
    c.div_ceil(4) * 4
}

/// A trainable detector member of any backbone. The serde form is
/// externally tagged, so a serialized member carries its backbone.
// Variant sizes legitimately differ (a transformer carries attention
// state a conv net doesn't); members live in small per-ensemble Vecs
// and boxing would put a pointer chase on every dispatch.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum DetectorNet {
    /// See [`Backbone::ResNet`].
    ResNet(ResNet),
    /// See [`Backbone::Inception`].
    Inception(InceptionNet),
    /// See [`Backbone::TransApp`].
    TransApp(TransAppNet),
}

impl DetectorNet {
    /// Build a freshly initialized member. The shared knobs map onto each
    /// architecture: `channels` are the per-stage widths for the conv
    /// backbones (inception rounds them up to multiples of 4), and the
    /// first width doubles as the transformer's model dimension; `kernel`
    /// is the member's receptive-field knob (branch spread for inception,
    /// embedding kernel for the transformer).
    pub fn for_backbone(
        backbone: Backbone,
        in_channels: usize,
        channels: &[usize],
        kernel: usize,
        num_classes: usize,
        seed: u64,
    ) -> DetectorNet {
        assert!(!channels.is_empty(), "detector needs at least one stage");
        match backbone {
            Backbone::ResNet => DetectorNet::ResNet(ResNet::new(ResNetConfig {
                in_channels,
                channels: channels.to_vec(),
                kernel,
                num_classes,
                seed,
            })),
            Backbone::Inception => DetectorNet::Inception(InceptionNet::new(InceptionConfig {
                in_channels,
                channels: channels.iter().map(|&c| ceil4(c)).collect(),
                kernel,
                num_classes,
                seed,
            })),
            Backbone::TransApp => DetectorNet::TransApp(TransAppNet::new(TransAppConfig {
                in_channels,
                d_model: channels[0],
                blocks: 1,
                kernel,
                num_classes,
                seed,
            })),
        }
    }

    /// Borrow the inner [`ResNet`] mutably, if this member is one — the
    /// determinism suite drives the reference trainer (ResNet-typed by
    /// design) against the same weights the ensemble trains.
    pub fn as_resnet_mut(&mut self) -> Option<&mut ResNet> {
        match self {
            DetectorNet::ResNet(n) => Some(n),
            _ => None,
        }
    }

    /// This member's architecture tag.
    pub fn backbone(&self) -> Backbone {
        match self {
            DetectorNet::ResNet(_) => Backbone::ResNet,
            DetectorNet::Inception(_) => Backbone::Inception,
            DetectorNet::TransApp(_) => Backbone::TransApp,
        }
    }

    /// The member's kernel-size diversity knob.
    pub fn kernel(&self) -> usize {
        match self {
            DetectorNet::ResNet(n) => n.kernel(),
            DetectorNet::Inception(n) => n.kernel(),
            DetectorNet::TransApp(n) => n.kernel(),
        }
    }

    /// Pure inference: positive-class probability and class-1 CAM per row.
    pub fn infer_with_cam(&self, x: &Tensor) -> (Vec<f32>, Vec<Vec<f32>>) {
        match self {
            DetectorNet::ResNet(n) => n.infer_with_cam(x),
            DetectorNet::Inception(n) => n.infer_with_cam(x),
            DetectorNet::TransApp(n) => n.infer_with_cam(x),
        }
    }

    /// Compile into the frozen f32 serving form.
    pub fn freeze(&self) -> FrozenDetector {
        match self {
            DetectorNet::ResNet(n) => FrozenDetector::ResNet(FrozenResNet::freeze(n)),
            DetectorNet::Inception(n) => FrozenDetector::Inception(FrozenInception::freeze(n)),
            DetectorNet::TransApp(n) => FrozenDetector::TransApp(FrozenTransApp::freeze(n)),
        }
    }

    /// Compile into the int8 serving form, calibrating activation scales
    /// on `calib`.
    pub fn freeze_quantized(&self, calib: &Tensor) -> FrozenDetector {
        self.freeze().quantize(calib)
    }
}

impl VisitParams for DetectorNet {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        match self {
            DetectorNet::ResNet(n) => n.visit_params(f),
            DetectorNet::Inception(n) => n.visit_params(f),
            DetectorNet::TransApp(n) => n.visit_params(f),
        }
    }
}

impl NeuralNet for DetectorNet {
    fn forward(&mut self, x: &Tensor, train: bool) -> Matrix {
        match self {
            DetectorNet::ResNet(n) => n.forward(x, train),
            DetectorNet::Inception(n) => n.forward(x, train),
            DetectorNet::TransApp(n) => n.forward(x, train),
        }
    }

    fn backward(&mut self, grad_logits: &Matrix) {
        match self {
            DetectorNet::ResNet(n) => NeuralNet::backward(n, grad_logits),
            DetectorNet::Inception(n) => n.backward(grad_logits),
            DetectorNet::TransApp(n) => n.backward(grad_logits),
        }
    }

    fn predict_positive_proba(&mut self, x: &Tensor) -> Vec<f32> {
        match self {
            DetectorNet::ResNet(n) => n.predict_positive_proba(x),
            DetectorNet::Inception(n) => NeuralNet::predict_positive_proba(n, x),
            DetectorNet::TransApp(n) => NeuralNet::predict_positive_proba(n, x),
        }
    }
}

/// A frozen serving plan of any backbone, at f32 or (after
/// [`FrozenDetector::quantize`]) int8.
#[derive(Debug, Clone)]
pub enum FrozenDetector {
    /// See [`Backbone::ResNet`].
    ResNet(FrozenResNet),
    /// See [`Backbone::Inception`].
    Inception(FrozenInception),
    /// See [`Backbone::TransApp`].
    TransApp(FrozenTransApp),
}

impl FrozenDetector {
    /// This plan's architecture tag.
    pub fn backbone(&self) -> Backbone {
        match self {
            FrozenDetector::ResNet(_) => Backbone::ResNet,
            FrozenDetector::Inception(_) => Backbone::Inception,
            FrozenDetector::TransApp(_) => Backbone::TransApp,
        }
    }

    /// Quantize this f32 plan into an int8 plan of the same backbone,
    /// calibrating activation scales on `calib`.
    pub fn quantize(&self, calib: &Tensor) -> FrozenDetector {
        match self {
            FrozenDetector::ResNet(p) => FrozenDetector::ResNet(p.quantize(calib)),
            FrozenDetector::Inception(p) => FrozenDetector::Inception(p.quantize(calib)),
            FrozenDetector::TransApp(p) => FrozenDetector::TransApp(p.quantize(calib)),
        }
    }

    /// Whether this plan runs the int8 convs.
    pub fn is_int8(&self) -> bool {
        match self {
            FrozenDetector::ResNet(p) => p.is_int8(),
            FrozenDetector::Inception(p) => p.is_int8(),
            FrozenDetector::TransApp(p) => p.is_int8(),
        }
    }

    /// Kernel size of the source member.
    pub fn kernel(&self) -> usize {
        match self {
            FrozenDetector::ResNet(p) => p.kernel(),
            FrozenDetector::Inception(p) => p.kernel(),
            FrozenDetector::TransApp(p) => p.kernel(),
        }
    }

    /// Full forward pass into `arena` — zero steady-state allocations.
    pub fn predict_into(&self, x: &Tensor, arena: &mut InferenceArena) {
        match self {
            FrozenDetector::ResNet(p) => p.predict_into(x, arena),
            FrozenDetector::Inception(p) => p.predict_into(x, arena),
            FrozenDetector::TransApp(p) => p.predict_into(x, arena),
        }
    }

    /// Raw parameter bits in a fixed traversal order.
    pub fn param_bits(&self) -> Vec<u32> {
        match self {
            FrozenDetector::ResNet(p) => p.param_bits(),
            FrozenDetector::Inception(p) => p.param_bits(),
            FrozenDetector::TransApp(p) => p.param_bits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for b in Backbone::ALL {
            assert_eq!(Backbone::parse(b.label()), Some(b));
            assert_eq!(Backbone::parse(&b.label().to_uppercase()), Some(b));
        }
        assert_eq!(Backbone::parse("transapps"), Some(Backbone::TransApp));
        assert_eq!(Backbone::parse("convnet"), None);
        assert_eq!(Backbone::default(), Backbone::ResNet);
    }

    #[test]
    fn backbone_serde_is_a_plain_tag() {
        let json = serde_json::to_string(&Backbone::Inception).unwrap();
        assert_eq!(json, "\"Inception\"");
        let back: Backbone = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Backbone::Inception);
    }

    #[test]
    fn members_report_their_backbone_and_kernel() {
        for b in Backbone::ALL {
            let net = DetectorNet::for_backbone(b, 1, &[4, 8], 5, 2, 1);
            assert_eq!(net.backbone(), b);
            assert_eq!(net.kernel(), 5);
        }
    }

    #[test]
    fn detector_serde_round_trip_preserves_tag_and_behavior() {
        let x = Tensor::from_data(2, 1, 16, (0..32).map(|i| (i % 7) as f32 * 0.1).collect());
        for b in Backbone::ALL {
            let mut net = DetectorNet::for_backbone(b, 1, &[4], 3, 2, 42);
            // Settle BN running stats so inference is non-trivial.
            for _ in 0..3 {
                let _ = net.forward(&x, true);
            }
            let json = serde_json::to_string(&net).unwrap();
            assert!(json.contains(&format!("\"{:?}\"", b)) || json.starts_with("{"));
            let back: DetectorNet = serde_json::from_str(&json).unwrap();
            assert_eq!(back.backbone(), b);
            let (p0, c0) = net.infer_with_cam(&x);
            let (p1, c1) = back.infer_with_cam(&x);
            assert_eq!(p0, p1, "{b} probs changed over serde");
            assert_eq!(c0, c1, "{b} cams changed over serde");
        }
    }

    #[test]
    fn freeze_dispatch_matches_mutable_decisions_for_all_backbones() {
        let x = Tensor::from_data(
            3,
            1,
            20,
            (0..60).map(|i| ((i % 11) as f32 - 5.0) / 5.0).collect(),
        );
        for b in Backbone::ALL {
            let mut net = DetectorNet::for_backbone(b, 1, &[4], 3, 2, 9);
            for _ in 0..4 {
                let _ = net.forward(&x, true);
            }
            let frozen = net.freeze();
            assert_eq!(frozen.backbone(), b);
            let quant = net.freeze_quantized(&x);
            assert_eq!(quant.backbone(), b);
            assert!(!frozen.is_int8() && quant.is_int8(), "{b}");
            let (probs, _) = net.infer_with_cam(&x);
            let mut arena = InferenceArena::new();
            frozen.predict_into(&x, &mut arena);
            for (bi, &p) in probs.iter().enumerate().take(3) {
                assert!((arena.probs()[bi] - p).abs() < 1e-4, "{b}");
                assert_eq!(arena.probs()[bi] > 0.5, p > 0.5, "{b} flip");
            }
            let mut qarena = InferenceArena::new();
            quant.predict_into(&x, &mut qarena);
            for (bi, &p) in probs.iter().enumerate().take(3) {
                assert!((qarena.probs()[bi] - p).abs() < 0.05, "{b} int8");
            }
            assert!(!frozen.param_bits().is_empty());
            assert!(!quant.param_bits().is_empty());
        }
    }

    #[test]
    fn trainable_via_neural_net_trait() {
        use crate::train::{train_classifier, TrainConfig};
        let windows: Vec<Vec<f32>> = (0..8)
            .map(|i| {
                (0..24)
                    .map(|j| {
                        if i % 2 == 1 && j > 8 && j < 16 {
                            1.0
                        } else {
                            0.1
                        }
                    })
                    .collect()
            })
            .collect();
        let labels: Vec<u8> = (0..8).map(|i| (i % 2) as u8).collect();
        for b in Backbone::ALL {
            let mut net = DetectorNet::for_backbone(b, 1, &[4], 3, 2, 3);
            let report = train_classifier(&mut net, &windows, &labels, &TrainConfig::fast());
            assert!(
                report.epoch_losses.iter().all(|l| l.is_finite()),
                "{b} training diverged"
            );
        }
    }
}

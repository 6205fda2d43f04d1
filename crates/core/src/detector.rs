//! Steps 1–2 of the pipeline: ensemble prediction and thresholded
//! detection — plus the [`Detector`] trait, the surface every ensemble
//! member presents regardless of backbone.

use crate::config::LocalizerConfig;
use crate::ensemble::ResNetEnsemble;
use crate::z_normalize_window;
use ds_neural::tensor::Tensor;
use ds_neural::train::{train_classifier, TrainConfig, TrainReport};
use ds_neural::{Backbone, DetectorNet, FrozenDetector, ResNet};

/// The lifecycle surface of one ensemble member, independent of its
/// architecture: train on weak labels, predict probability + class-1 CAM,
/// and compile into the frozen serving plan. The ensemble drives
/// its members exclusively through this trait, which is what lets
/// ResNet, Inception and TransApp members coexist in one model.
///
/// Implementors: [`DetectorNet`] (the backbone-tagged member every
/// checkpoint stores) and plain [`ResNet`] (retrofitted, so pre-zoo code
/// and tests keep compiling against the same surface).
pub trait Detector {
    /// Architecture tag (plan caches key on it).
    fn backbone(&self) -> Backbone;

    /// Receptive-field knob — the paper's ensemble-diversity parameter.
    fn kernel(&self) -> usize;

    /// Train on z-normalized windows with weak labels.
    fn train_member(
        &mut self,
        windows: &[Vec<f32>],
        labels: &[u8],
        cfg: &TrainConfig,
    ) -> TrainReport;

    /// Positive-class probability and class-1 CAM per window of a
    /// `[B, 1, L]` batch (pure — shareable at prediction time).
    fn infer_with_cam(&self, x: &Tensor) -> (Vec<f32>, Vec<Vec<f32>>);

    /// Compile into the frozen serving plan.
    fn freeze(&self) -> FrozenDetector;
}

impl Detector for DetectorNet {
    fn backbone(&self) -> Backbone {
        DetectorNet::backbone(self)
    }

    fn kernel(&self) -> usize {
        DetectorNet::kernel(self)
    }

    fn train_member(
        &mut self,
        windows: &[Vec<f32>],
        labels: &[u8],
        cfg: &TrainConfig,
    ) -> TrainReport {
        train_classifier(self, windows, labels, cfg)
    }

    fn infer_with_cam(&self, x: &Tensor) -> (Vec<f32>, Vec<Vec<f32>>) {
        DetectorNet::infer_with_cam(self, x)
    }

    fn freeze(&self) -> FrozenDetector {
        DetectorNet::freeze(self)
    }
}

impl Detector for ResNet {
    fn backbone(&self) -> Backbone {
        Backbone::ResNet
    }

    fn kernel(&self) -> usize {
        ResNet::kernel(self)
    }

    fn train_member(
        &mut self,
        windows: &[Vec<f32>],
        labels: &[u8],
        cfg: &TrainConfig,
    ) -> TrainReport {
        train_classifier(self, windows, labels, cfg)
    }

    fn infer_with_cam(&self, x: &Tensor) -> (Vec<f32>, Vec<Vec<f32>>) {
        ResNet::infer_with_cam(self, x)
    }

    fn freeze(&self) -> FrozenDetector {
        FrozenDetector::ResNet(ds_neural::FrozenResNet::freeze(self))
    }
}

/// Outcome of the detection step for one window.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Ensemble probability `Prob_ens` (mean of member probabilities).
    pub probability: f32,
    /// Each member's `(kernel size, probability)` — the app's "Model
    /// detection probabilities" view.
    pub member_probabilities: Vec<(usize, f32)>,
    /// Whether `Prob_ens` exceeded the detection threshold.
    pub detected: bool,
}

/// Detect the appliance in one raw window (watts).
pub fn detect(ensemble: &ResNetEnsemble, window: &[f32], cfg: &LocalizerConfig) -> Detection {
    assert!(!window.is_empty(), "cannot detect on an empty window");
    let _span = ds_obs::span!("camal.detect");
    let start = ds_obs::enabled().then(std::time::Instant::now);
    let normalized = z_normalize_window(window);
    let x = Tensor::from_windows(std::slice::from_ref(&normalized));
    let outputs = ensemble.predict(&x);
    let prob = ResNetEnsemble::ensemble_probability(&outputs)[0];
    let detected = prob > cfg.detection_threshold;
    if let Some(start) = start {
        record_detections(&[prob], detected as u64, start.elapsed(), 1);
    }
    Detection {
        probability: prob,
        member_probabilities: outputs.iter().map(|o| (o.kernel, o.probs[0])).collect(),
        detected,
    }
}

/// Shared observability for single and batched detection: per-window
/// latency and probability histograms plus decision counters.
fn record_detections(probs: &[f32], detected: u64, elapsed: std::time::Duration, windows: u64) {
    let per_window = elapsed.as_secs_f64() / windows.max(1) as f64;
    for &p in probs {
        ds_obs::observe("camal.detect.prob", p as f64, ds_obs::Buckets::Unit);
        ds_obs::observe(
            "camal.detect.latency_s",
            per_window,
            ds_obs::Buckets::DurationSecs,
        );
    }
    ds_obs::counter_add("camal.detect.windows", windows);
    ds_obs::counter_add("camal.detect.positive", detected);
    ds_obs::event!(
        "detect",
        windows = windows,
        positive = detected,
        latency_per_window_s = per_window,
    );
}

/// Batched detection over many raw windows, chunked
/// [`crate::localizer::WINDOW_CHUNK`] windows per task across the ds-par
/// worker team. Batch rows flow through the ensemble independently, so
/// the chunking (fixed, never thread-count-derived) and the fan-out leave
/// the probabilities bit-identical to one sequential pass.
pub fn detect_batch(
    ensemble: &ResNetEnsemble,
    windows: &[Vec<f32>],
    cfg: &LocalizerConfig,
) -> Vec<Detection> {
    assert!(!windows.is_empty(), "cannot detect on an empty batch");
    let _span = ds_obs::span!("camal.detect_batch");
    let start = ds_obs::enabled().then(std::time::Instant::now);
    let per_chunk: Vec<Vec<Detection>> =
        ds_par::par_ranges(windows.len(), crate::localizer::WINDOW_CHUNK, |_, range| {
            let normalized: Vec<Vec<f32>> = windows[range]
                .iter()
                .map(|w| z_normalize_window(w))
                .collect();
            let x = Tensor::from_windows(&normalized);
            let outputs = ensemble.predict(&x);
            let probs = ResNetEnsemble::ensemble_probability(&outputs);
            probs
                .iter()
                .enumerate()
                .map(|(i, &p)| Detection {
                    probability: p,
                    member_probabilities: outputs.iter().map(|o| (o.kernel, o.probs[i])).collect(),
                    detected: p > cfg.detection_threshold,
                })
                .collect()
        });
    let detections: Vec<Detection> = per_chunk.into_iter().flatten().collect();
    if let Some(start) = start {
        let probs: Vec<f32> = detections.iter().map(|d| d.probability).collect();
        let positive = detections.iter().filter(|d| d.detected).count() as u64;
        record_detections(&probs, positive, start.elapsed(), windows.len() as u64);
    }
    detections
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CamalConfig;

    fn ensemble() -> ResNetEnsemble {
        ResNetEnsemble::untrained(&CamalConfig::fast_test())
    }

    #[test]
    fn detection_reports_all_members() {
        let ens = ensemble();
        let cfg = LocalizerConfig::default();
        let window = vec![100.0; 48];
        let d = detect(&ens, &window, &cfg);
        assert_eq!(d.member_probabilities.len(), 2);
        assert!((0.0..=1.0).contains(&d.probability));
        let mean: f32 = d.member_probabilities.iter().map(|(_, p)| p).sum::<f32>() / 2.0;
        assert!((d.probability - mean).abs() < 1e-6);
        assert_eq!(d.detected, d.probability > 0.5);
    }

    #[test]
    fn batch_matches_single() {
        let ens = ensemble();
        let cfg = LocalizerConfig::default();
        let w1: Vec<f32> = (0..48)
            .map(|i| (i as f32 * 0.3).sin() * 50.0 + 100.0)
            .collect();
        let w2: Vec<f32> = (0..48).map(|i| (i % 7) as f32 * 30.0).collect();
        let batch = detect_batch(&ens, &[w1.clone(), w2.clone()], &cfg);
        let s1 = detect(&ens, &w1, &cfg);
        let s2 = detect(&ens, &w2, &cfg);
        assert!((batch[0].probability - s1.probability).abs() < 1e-5);
        assert!((batch[1].probability - s2.probability).abs() < 1e-5);
    }

    #[test]
    fn frozen_detect_tracks_reference_probabilities() {
        // Probability tolerance only: an untrained ensemble sits near the
        // 0.5 threshold, where decision identity is exercised by the
        // trained-model tests in `lib.rs` and `ensemble.rs` instead.
        let ens = ensemble();
        let cfg = CamalConfig::fast_test();
        let mut frozen = crate::Camal::from_parts(ens.clone(), cfg.clone()).freeze();
        let window: Vec<f32> = (0..48)
            .map(|i| (i as f32 * 0.3).sin() * 50.0 + 100.0)
            .collect();
        let reference = detect(&ens, &window, &cfg.localizer);
        let d = frozen.detect(&window);
        assert!((d.probability - reference.probability).abs() <= 1e-4);
        assert_eq!(
            d.member_probabilities.len(),
            reference.member_probabilities.len()
        );
        for ((fk, fp), (rk, rp)) in d
            .member_probabilities
            .iter()
            .zip(&reference.member_probabilities)
        {
            assert_eq!(fk, rk);
            assert!((fp - rp).abs() <= 1e-4);
        }
    }

    #[test]
    fn threshold_controls_detection() {
        let ens = ensemble();
        let window = vec![1.0; 32];
        let lenient = LocalizerConfig {
            detection_threshold: 0.0,
            ..LocalizerConfig::default()
        };
        assert!(detect(&ens, &window, &lenient).detected);
        let strict = LocalizerConfig {
            detection_threshold: 1.0,
            ..LocalizerConfig::default()
        };
        assert!(!detect(&ens, &window, &strict).detected);
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn empty_window_panics() {
        let ens = ensemble();
        let _ = detect(&ens, &[], &LocalizerConfig::default());
    }
}

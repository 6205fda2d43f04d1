//! # ds-camal
//!
//! **CamAL — Class Activation Map-based Appliance Localization**, the core
//! contribution of the DeviceScope paper (ICDE 2025), reproduced in Rust.
//!
//! CamAL answers two questions about a household's aggregate smart-meter
//! series using only *weak* training labels (one bit per window or per
//! household — never per-timestep supervision):
//!
//! 1. **Detection** — was appliance A used inside this window?
//! 2. **Localization** — at which timesteps was it on?
//!
//! The pipeline (paper §II, Figure 2):
//!
//! ```text
//!            ┌───────────────────────────── ensemble ─────────────────────────────┐
//! window ───►│ ResNet(k=5) ─► prob₁, CAM₁ ┐                                       │
//!            │ ResNet(k=7) ─► prob₂, CAM₂ ├─► prob_ens = mean(probᵢ)              │
//!            │ ResNet(k=9) ─► prob₃, CAM₃ │   ĈAMᵢ = minmax(CAMᵢ)                 │
//!            │ ResNet(k=15)─► prob₄, CAM₄ ┘   ĈAM_avg = mean(ĈAMᵢ)                │
//!            └─────────────────────────────────────────────────────────────────────┘
//!   step 2: detected ⇔ prob_ens > 0.5
//!   step 5: s(t) = sigmoid(ĈAM_avg(t) ∘ x(t))      (x = the normalized input)
//!   step 6: status(t) = 1 ⇔ s(t) > 0.5             (all-off when not detected)
//! ```
//!
//! Modules:
//! - [`config`]: hyper-parameters ([`CamalConfig`]) with the paper defaults
//!   (kernel set `{5, 7, 9, 15}`, detection threshold 0.5).
//! - [`ensemble`]: the ResNet ensemble, trainable in parallel across members.
//! - [`detector`]: step 1–2 (ensemble probability, thresholded detection).
//! - [`localizer`]: steps 3–6 (CAM extraction, normalization, averaging,
//!   attention, status) with ablation switches for every design choice.
//! - [`selection`]: per-appliance member selection ("we then selected the
//!   networks that best detected specific appliances").
//! - [`train`]: the weak-label training pipeline from a dataset corpus.
//! - [`model_io`]: persistence of trained CamAL models.
//! - [`calibrate`]: detection-threshold tuning (extension; the paper fixes
//!   the gate at 0.5).
//!
//! The top-level [`Camal`] type ties everything together:
//!
//! ```no_run
//! use ds_camal::{Camal, CamalConfig};
//! use ds_datasets::{ApplianceKind, Dataset, DatasetConfig, DatasetPreset};
//! use ds_datasets::labels::Corpus;
//!
//! let dataset = Dataset::generate(DatasetConfig::tiny(DatasetPreset::UkdaleLike, 4, 3));
//! let corpus = Corpus::build(&dataset, ApplianceKind::Kettle, 360);
//! let camal = Camal::train(&corpus, &CamalConfig::default());
//! let window = &corpus.test[0];
//! let outcome = camal.localize(&window.values);
//! println!("detected: {} status: {:?}", outcome.detection.detected, outcome.status);
//! ```

pub mod calibrate;
pub mod config;
pub mod detector;
pub mod ensemble;
pub mod error;
pub mod localizer;
pub mod model_io;
pub mod selection;
pub mod streaming;
pub mod train;

pub use config::{CamalConfig, LocalizerConfig};
pub use detector::{Detection, Detector};
pub use ds_neural::{Backbone, DetectorNet, FrozenDetector};
pub use ensemble::{DetectorEnsemble, FrozenEnsemble, MemberOutput, Precision, ResNetEnsemble};
pub use error::CamalError;
pub use localizer::{Localization, LocalizationBatch, WINDOW_CHUNK};
pub use streaming::StreamingCamal;

use ds_datasets::labels::Corpus;
use ds_neural::tensor::Tensor;
use ds_timeseries::{Status, StatusSeries, TimeSeries};

/// Validate a batch of raw windows for the fallible inference paths:
/// every window must be non-empty and share one length.
fn validate_windows(windows: &[&[f32]]) -> Result<(), CamalError> {
    let Some(first) = windows.first() else {
        return Ok(());
    };
    if first.is_empty() {
        return Err(CamalError::EmptyWindow);
    }
    let expected = first.len();
    for w in windows {
        if w.len() != expected {
            return Err(CamalError::WindowLengthMismatch {
                expected,
                got: w.len(),
            });
        }
    }
    Ok(())
}

/// Per-window z-normalization (instance normalization) — the input scaling
/// applied before every model sees a window, at training and prediction
/// alike. Constant windows map to all-zero. The same normalized values `x`
/// feed CamAL's attention product `sigmoid(ĈAM_avg(t) ∘ x(t))`, which is
/// why localization marks timesteps whose consumption sits *above* the
/// window mean within CAM-supported regions.
pub fn z_normalize_window(values: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; values.len()];
    z_normalize_into(values, &mut out);
    out
}

/// Allocation-free form of [`z_normalize_window`]: write the z-scored
/// window into `out` (same length). Identical arithmetic — single-pass
/// mean, biased variance, divide-by-std — so the results are bit-equal.
pub fn z_normalize_into(values: &[f32], out: &mut [f32]) {
    assert_eq!(values.len(), out.len(), "z-normalize shape mismatch");
    let n = values.len().max(1) as f32;
    let mean = values.iter().sum::<f32>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let std = var.sqrt();
    if std > 0.0 {
        for (o, v) in out.iter_mut().zip(values) {
            *o = (v - mean) / std;
        }
    } else {
        out.fill(0.0);
    }
}

/// A trained CamAL model for one appliance.
#[derive(Debug, Clone)]
pub struct Camal {
    ensemble: ResNetEnsemble,
    config: CamalConfig,
}

impl Camal {
    /// Train CamAL on a weak-label corpus (see [`train::train_camal`]).
    ///
    /// # Panics
    /// Panics on an empty corpus; serving paths use [`Camal::try_train`].
    pub fn train(corpus: &Corpus, config: &CamalConfig) -> Camal {
        train::train_camal(corpus, config)
    }

    /// Fallible form of [`Camal::train`]: `Err(CamalError::EmptyCorpus)`
    /// instead of a panic when no labeled windows survive corpus building.
    pub fn try_train(corpus: &Corpus, config: &CamalConfig) -> Result<Camal, CamalError> {
        train::try_train_camal(corpus, config)
    }

    /// Assemble from parts (used by persistence and tests).
    pub fn from_parts(ensemble: ResNetEnsemble, config: CamalConfig) -> Camal {
        Camal { ensemble, config }
    }

    /// The trained ensemble.
    pub fn ensemble(&self) -> &ResNetEnsemble {
        &self.ensemble
    }

    /// The hyper-parameters the model was trained with.
    pub fn config(&self) -> &CamalConfig {
        &self.config
    }

    /// Steps 1–2: detect the appliance in a raw window (watts).
    pub fn detect(&self, window: &[f32]) -> Detection {
        detector::detect(&self.ensemble, window, &self.config.localizer)
    }

    /// Fallible form of [`Camal::detect`]: typed error on an empty window.
    pub fn try_detect(&self, window: &[f32]) -> Result<Detection, CamalError> {
        validate_windows(std::slice::from_ref(&window))?;
        Ok(self.detect(window))
    }

    /// The full pipeline (steps 1–6) on a raw window (watts).
    pub fn localize(&self, window: &[f32]) -> Localization {
        localizer::localize(&self.ensemble, window, &self.config.localizer)
    }

    /// Fallible form of [`Camal::localize`]: typed error on an empty window.
    pub fn try_localize(&self, window: &[f32]) -> Result<Localization, CamalError> {
        validate_windows(std::slice::from_ref(&window))?;
        Ok(self.localize(window))
    }

    /// The full pipeline over many same-length raw windows, batched and
    /// fanned across the ds-par worker team (see
    /// [`localizer::localize_batch`]); bit-identical to per-window
    /// [`Camal::localize`] calls.
    pub fn localize_batch(&self, windows: &[&[f32]]) -> Vec<Localization> {
        localizer::localize_batch(&self.ensemble, windows, &self.config.localizer)
    }

    /// Fallible form of [`Camal::localize_batch`]: typed errors on empty
    /// or length-mismatched windows instead of the internal asserts.
    pub fn try_localize_batch(&self, windows: &[&[f32]]) -> Result<Vec<Localization>, CamalError> {
        validate_windows(windows)?;
        Ok(self.localize_batch(windows))
    }

    /// Predict a full status series by sliding non-overlapping windows of
    /// `window_samples` over `series`, plus one end-aligned window when
    /// the length is not a multiple, so a complete series has **zero
    /// coverage holes**. Overlap between the tail window and the last
    /// aligned window resolves as "earlier window wins", keeping
    /// aligned-window outputs identical to the aligned-only policy.
    ///
    /// Timesteps inside windows with missing readings — and any region no
    /// window could decide — come back [`Status::Unknown`], never `Off`:
    /// a dropout is absence of evidence, not evidence of absence. The
    /// `serve.degraded_windows` / `serve.unknown_samples` counters record
    /// how much of the series degraded. Complete windows are gathered up
    /// front and localized as one batch, so the whole series benefits from
    /// the batched/parallel inference path.
    pub fn predict_status_series(
        &self,
        series: &TimeSeries,
        window_samples: usize,
    ) -> StatusSeries {
        let w = window_samples;
        assert!(w > 0, "series prediction requires a positive window length");
        let values = series.values();
        let len = values.len();
        let mut states = vec![Status::Unknown; len];
        let aligned_end = if len >= w { (len / w) * w } else { 0 };
        let has_tail = len >= w && len > aligned_end;
        let clean = |lo: usize| values[lo..lo + w].iter().all(|v| !v.is_nan());
        // Coverage plan: (window start, first timestep this window owns).
        let mut plan: Vec<(usize, usize)> = (0..aligned_end / w).map(|i| (i * w, i * w)).collect();
        if has_tail {
            plan.push((len - w, aligned_end));
        }
        let mut degraded = 0u64;
        let starts: Vec<usize> = plan
            .iter()
            .map(|&(lo, _)| lo)
            .filter(|&lo| {
                let ok = clean(lo);
                degraded += u64::from(!ok);
                ok
            })
            .collect();
        let windows: Vec<&[f32]> = starts.iter().map(|&lo| &values[lo..lo + w]).collect();
        let outcomes = self.localize_batch(&windows);
        let mut next = outcomes.iter();
        for &(lo, write_from) in &plan {
            if !clean(lo) {
                continue;
            }
            let out = next.next().expect("one outcome per clean window");
            for (s, &on) in states[write_from..lo + w]
                .iter_mut()
                .zip(&out.status[write_from - lo..])
            {
                *s = if on == 1 { Status::On } else { Status::Off };
            }
        }
        let unknown = states.iter().filter(|s| s.is_unknown()).count();
        ds_obs::counter_add("serve.degraded_windows", degraded);
        ds_obs::counter_add("serve.unknown_samples", unknown as u64);
        StatusSeries::from_status(series.start(), series.interval_secs(), states)
    }

    /// Compile the trained model into its frozen serving form: BatchNorm
    /// folded into conv weights, ReLU fused into the conv epilogue, and
    /// all inference scratch pre-sized so steady-state prediction is
    /// allocation-free. See [`FrozenCamal`] for the contract.
    pub fn freeze(&self) -> FrozenCamal {
        FrozenCamal::new(self.ensemble.freeze(), self.config.clone())
    }
}

/// The frozen serving form of a [`Camal`] model.
///
/// Built once by [`Camal::freeze`]; afterwards every prediction runs the
/// BN-folded, ReLU-fused kernels through reused arenas. The contract with
/// the mutable reference path is *tolerance plus decision identity*:
/// ensemble probabilities agree within `1e-4` max-abs (BN folding
/// reassociates float products), and the thresholded artifacts — the
/// detection flag and the per-timestep status mask — are identical on any
/// input where the reference probability is not within tolerance of the
/// 0.5 threshold. Steady-state calls (after the first, which sizes the
/// arenas) perform **zero heap allocations**, which `ds-bench` asserts via
/// the ds-obs allocation counter.
///
/// Methods take `&mut self` because the arenas are written in place; wrap
/// in a lock if shared across threads.
#[derive(Debug, Clone)]
pub struct FrozenCamal {
    ensemble: FrozenEnsemble,
    config: CamalConfig,
    /// Member kernel sizes, cached for sizing the batch without a borrow
    /// of `ensemble` while `batch` is borrowed mutably.
    kernels: Vec<usize>,
    /// Reused `[chunk, 1, len]` input tensor (z-scored windows).
    input: Tensor,
    /// Reused flat localization output slabs.
    batch: LocalizationBatch,
    /// Reused window-start index buffer for series prediction.
    starts: Vec<usize>,
}

impl FrozenCamal {
    /// Assemble from a frozen ensemble and the model's config.
    pub fn new(ensemble: FrozenEnsemble, config: CamalConfig) -> FrozenCamal {
        let kernels = ensemble.members().iter().map(|m| m.kernel()).collect();
        FrozenCamal {
            ensemble,
            config,
            kernels,
            input: Tensor::zeros(0, 1, 0),
            batch: LocalizationBatch::new(),
            starts: Vec::new(),
        }
    }

    /// The frozen ensemble.
    pub fn ensemble(&self) -> &FrozenEnsemble {
        &self.ensemble
    }

    /// The hyper-parameters the source model was trained with.
    pub fn config(&self) -> &CamalConfig {
        &self.config
    }

    /// Heap footprint of every reused inference buffer this plan owns —
    /// member arenas, the z-scored input tensor, the localization output
    /// slabs, and the series index buffer — in bytes. One serving worker
    /// keeping this plan warm pays exactly this in steady state.
    pub fn arena_bytes(&self) -> usize {
        self.ensemble.arena_bytes()
            + self.input.data.capacity() * std::mem::size_of::<f32>()
            + self.batch.heap_bytes()
            + self.starts.capacity() * std::mem::size_of::<usize>()
    }

    /// Steps 1–2 on a raw window (watts). Allocates only the detection
    /// record's member list (the serving path underneath is arena-backed).
    pub fn detect(&mut self, window: &[f32]) -> Detection {
        let batch = self.localize_batch_into(std::slice::from_ref(&window));
        Detection {
            probability: batch.probability(0),
            member_probabilities: batch.member_probabilities(0).collect(),
            detected: batch.detected(0),
        }
    }

    /// Fallible form of [`FrozenCamal::detect`]: typed error on an empty
    /// window instead of the internal assert.
    pub fn try_detect(&mut self, window: &[f32]) -> Result<Detection, CamalError> {
        validate_windows(std::slice::from_ref(&window))?;
        Ok(self.detect(window))
    }

    /// The full pipeline (steps 1–6) on a raw window (watts), materialized
    /// as an owned [`Localization`].
    pub fn localize(&mut self, window: &[f32]) -> Localization {
        self.localize_batch_into(std::slice::from_ref(&window))
            .to_localization(0)
    }

    /// Fallible form of [`FrozenCamal::localize`]: typed error on an empty
    /// window instead of the internal assert.
    pub fn try_localize(&mut self, window: &[f32]) -> Result<Localization, CamalError> {
        validate_windows(std::slice::from_ref(&window))?;
        Ok(self.localize(window))
    }

    /// Fallible form of [`FrozenCamal::localize_batch_into`]: typed errors
    /// on empty or length-mismatched windows instead of the internal
    /// asserts. Validation runs before any arena is touched.
    pub fn try_localize_batch_into(
        &mut self,
        windows: &[&[f32]],
    ) -> Result<&LocalizationBatch, CamalError> {
        validate_windows(windows)?;
        Ok(self.localize_batch_into(windows))
    }

    /// The full pipeline over many same-length raw windows, written into
    /// the reused [`LocalizationBatch`] slabs. Windows are processed in
    /// fixed chunks of the same size the reference batch path uses, so the
    /// arena shapes stay constant and steady-state calls with a previously
    /// seen `(chunk, len)` shape allocate nothing.
    pub fn localize_batch_into(&mut self, windows: &[&[f32]]) -> &LocalizationBatch {
        let _span = ds_obs::span!("camal.frozen.localize_batch");
        let count = windows.len();
        if count == 0 {
            self.batch.ensure(0, 0, &self.kernels);
            return &self.batch;
        }
        let len = windows[0].len();
        assert!(len > 0, "cannot localize an empty window");
        self.batch.ensure(count, len, &self.kernels);
        let mut offset = 0;
        while offset < count {
            let chunk = (count - offset).min(localizer::WINDOW_CHUNK);
            let elems = chunk * len;
            if self.input.data.len() < elems {
                self.input.data.resize(elems, 0.0);
            }
            self.input.batch = chunk;
            self.input.channels = 1;
            self.input.len = len;
            for i in 0..chunk {
                let window = windows[offset + i];
                assert_eq!(window.len(), len, "windows must share one length");
                z_normalize_into(window, &mut self.input.data[i * len..(i + 1) * len]);
            }
            self.ensemble.predict_into(&self.input);
            self.batch.assemble_frozen_chunk(
                &self.ensemble,
                &self.input.data[..elems],
                offset,
                &self.config.localizer,
            );
            offset += chunk;
        }
        &self.batch
    }

    /// Frozen counterpart of [`Camal::predict_status_series`], writing the
    /// per-timestep states into a caller-owned buffer. Identical window
    /// policy: non-overlapping complete windows plus one end-aligned tail
    /// window ("earlier window wins" on the overlap); NaN-bearing windows
    /// and undecidable regions come back [`Status::Unknown`]. Steady-state
    /// calls over a same-shaped series allocate nothing.
    pub fn predict_status_into(
        &mut self,
        series: &TimeSeries,
        window_samples: usize,
        states: &mut Vec<Status>,
    ) {
        let w = window_samples;
        assert!(w > 0, "series prediction requires a positive window length");
        states.clear();
        states.resize(series.len(), Status::Unknown);
        let values = series.values();
        let len = values.len();
        let aligned_end = if len >= w { (len / w) * w } else { 0 };
        let has_tail = len >= w && len > aligned_end;
        let mut degraded = 0u64;
        // Take the index buffer so `self` stays free for localization.
        let mut starts = std::mem::take(&mut self.starts);
        starts.clear();
        for lo in (0..aligned_end).step_by(w).chain(has_tail.then(|| len - w)) {
            if values[lo..lo + w].iter().all(|v| !v.is_nan()) {
                starts.push(lo);
            } else {
                degraded += 1;
            }
        }
        // A stack array of window refs keeps the chunk loop allocation-free.
        let mut refs: [&[f32]; localizer::WINDOW_CHUNK] = [&[]; localizer::WINDOW_CHUNK];
        for chunk in starts.chunks(localizer::WINDOW_CHUNK) {
            for (slot, &lo) in refs.iter_mut().zip(chunk) {
                *slot = &values[lo..lo + w];
            }
            let batch = self.localize_batch_into(&refs[..chunk.len()]);
            for (i, &lo) in chunk.iter().enumerate() {
                // The tail window only owns the suffix past the aligned
                // region; every aligned window owns its full range.
                let write_from = if has_tail && lo == len - w {
                    aligned_end
                } else {
                    lo
                };
                let status = batch.status(i);
                for idx in write_from..lo + w {
                    states[idx] = if status[idx - lo] == 1 {
                        Status::On
                    } else {
                        Status::Off
                    };
                }
            }
        }
        self.starts = starts;
        let unknown = states.iter().filter(|s| s.is_unknown()).count();
        ds_obs::counter_add("serve.degraded_windows", degraded);
        ds_obs::counter_add("serve.unknown_samples", unknown as u64);
    }

    /// Frozen counterpart of [`Camal::predict_status_series`] returning an
    /// owned [`StatusSeries`].
    pub fn predict_status_series(
        &mut self,
        series: &TimeSeries,
        window_samples: usize,
    ) -> StatusSeries {
        let mut states = Vec::new();
        self.predict_status_into(series, window_samples, &mut states);
        StatusSeries::from_status(series.start(), series.interval_secs(), states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_corpus(n: usize, len: usize) -> (Vec<Vec<f32>>, Vec<u8>) {
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
                *v += ((i * 5 + j * 3) % 7) as f32 * 0.01;
            }
            windows.push(w);
            labels.push((i % 2) as u8);
        }
        (windows, labels)
    }

    fn trained_toy_camal(len: usize) -> (Camal, Vec<Vec<f32>>) {
        let cfg = CamalConfig::fast_test();
        let (windows, labels) = toy_corpus(24, len);
        let mut ens = ResNetEnsemble::untrained(&cfg);
        ens.train(&windows, &labels, &cfg);
        (Camal::from_parts(ens, cfg), windows)
    }

    #[test]
    fn z_normalize_into_matches_owned_form() {
        let w = [3.0f32, -1.0, 7.5, 0.25, 3.0];
        let owned = z_normalize_window(&w);
        let mut out = vec![9.0f32; w.len()];
        z_normalize_into(&w, &mut out);
        for (a, b) in owned.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let mut flat = vec![9.0f32; 3];
        z_normalize_into(&[4.0; 3], &mut flat);
        assert_eq!(flat, vec![0.0; 3]);
    }

    #[test]
    fn frozen_localization_matches_reference_decisions() {
        let (camal, windows) = trained_toy_camal(40);
        let mut frozen = camal.freeze();
        // More windows than one internal chunk, to cross a chunk boundary.
        let refs: Vec<&[f32]> = windows
            .iter()
            .cycle()
            .take(localizer::WINDOW_CHUNK + 3)
            .map(|w| w.as_slice())
            .collect();
        let reference = camal.localize_batch(&refs);
        let batch = frozen.localize_batch_into(&refs);
        assert_eq!(batch.windows(), refs.len());
        assert_eq!(batch.len(), 40);
        for (w, loc) in reference.iter().enumerate() {
            assert!(
                (batch.probability(w) - loc.detection.probability).abs() <= 1e-4,
                "window {w} prob drifted: frozen {} vs {}",
                batch.probability(w),
                loc.detection.probability
            );
            assert_eq!(batch.detected(w), loc.detection.detected, "window {w} flip");
            assert_eq!(batch.status(w), loc.status.as_slice(), "window {w} mask");
            for (f, r) in batch.cam(w).iter().zip(&loc.cam) {
                assert!((f - r).abs() <= 1e-3, "window {w} CAM drifted");
            }
            let members: Vec<(usize, f32)> = batch.member_probabilities(w).collect();
            assert_eq!(members.len(), loc.detection.member_probabilities.len());
            for ((fk, fp), (rk, rp)) in members.iter().zip(&loc.detection.member_probabilities) {
                assert_eq!(fk, rk);
                assert!((fp - rp).abs() <= 1e-4);
            }
            // The owned view agrees with the slab accessors.
            let owned = batch.to_localization(w);
            assert_eq!(owned.status, loc.status);
            assert_eq!(owned.detection.detected, loc.detection.detected);
        }
        // Single-window forms ride the same path.
        let single_ref = camal.localize(&windows[1]);
        let single = frozen.localize(&windows[1]);
        assert_eq!(single.status, single_ref.status);
        let det_ref = camal.detect(&windows[1]);
        let det = frozen.detect(&windows[1]);
        assert_eq!(det.detected, det_ref.detected);
        assert!((det.probability - det_ref.probability).abs() <= 1e-4);
    }

    #[test]
    fn frozen_status_series_matches_and_allocates_nothing() {
        let (camal, windows) = trained_toy_camal(40);
        let mut frozen = camal.freeze();
        // Series = several complete windows + a NaN-bearing window + a
        // partial tail, exercising the Unknown policy and tail coverage.
        let mut values: Vec<f32> = windows.iter().take(4).flatten().copied().collect();
        let mut gap = windows[1].clone();
        gap[7] = f32::NAN;
        values.extend(gap);
        values.extend(&windows[2][..17]);
        let series = TimeSeries::from_values(0, 60, values);
        let reference = camal.predict_status_series(&series, 40);
        let frozen_series = frozen.predict_status_series(&series, 40);
        assert_eq!(frozen_series.states(), reference.states());
        assert_eq!(frozen_series.start(), reference.start());
        // Steady state: repeat predictions into a warm buffer allocate
        // nothing on this thread.
        let mut states = Vec::with_capacity(series.len());
        frozen.predict_status_into(&series, 40, &mut states);
        let before = ds_obs::alloc_count();
        for _ in 0..3 {
            frozen.predict_status_into(&series, 40, &mut states);
        }
        assert_eq!(
            ds_obs::alloc_count() - before,
            0,
            "steady-state series prediction must not allocate"
        );
        assert_eq!(states.as_slice(), reference.states());
    }

    #[test]
    fn gap_windows_surface_unknown_on_both_paths() {
        let (camal, windows) = trained_toy_camal(40);
        let mut frozen = camal.freeze();
        // Two clean windows, then a window with one missing reading.
        let mut values: Vec<f32> = windows.iter().take(2).flatten().copied().collect();
        let mut gap = windows[1].clone();
        gap[3] = f32::NAN;
        values.extend(gap);
        let series = TimeSeries::from_values(0, 60, values);
        let reference = camal.predict_status_series(&series, 40);
        // One missing sample poisons its whole window — the serving path
        // declines to decide rather than feeding fabricated data.
        assert!(reference.states()[80..].iter().all(|s| s.is_unknown()));
        assert_eq!(reference.unknown_count(), 40);
        // The clean windows carry real decisions, never Unknown.
        assert!(reference.states()[..80].iter().all(|s| !s.is_unknown()));
        let frozen_series = frozen.predict_status_series(&series, 40);
        assert_eq!(frozen_series.states(), reference.states());
        // A series shorter than one window is entirely Unknown: no window
        // fits, so nothing can be decided.
        let short = TimeSeries::from_values(0, 60, vec![1.0; 10]);
        assert_eq!(camal.predict_status_series(&short, 40).unknown_count(), 10);
        assert_eq!(frozen.predict_status_series(&short, 40).unknown_count(), 10);
    }

    #[test]
    fn try_paths_surface_typed_errors() {
        let (camal, windows) = trained_toy_camal(24);
        let mut frozen = camal.freeze();
        assert_eq!(
            camal.try_localize(&[]).unwrap_err(),
            CamalError::EmptyWindow
        );
        assert_eq!(camal.try_detect(&[]).unwrap_err(), CamalError::EmptyWindow);
        assert_eq!(frozen.try_detect(&[]).unwrap_err(), CamalError::EmptyWindow);
        assert_eq!(
            frozen.try_localize(&[]).unwrap_err(),
            CamalError::EmptyWindow
        );
        let refs: Vec<&[f32]> = vec![&windows[0], &windows[1][..10]];
        assert_eq!(
            camal.try_localize_batch(&refs).unwrap_err(),
            CamalError::WindowLengthMismatch {
                expected: 24,
                got: 10
            }
        );
        assert_eq!(
            frozen.try_localize_batch_into(&refs).unwrap_err(),
            CamalError::WindowLengthMismatch {
                expected: 24,
                got: 10
            }
        );
        // Valid input rides the same path as the panicking form.
        let ok = camal.try_localize(&windows[0]).unwrap();
        assert_eq!(ok.status, camal.localize(&windows[0]).status);
        let det = frozen.try_detect(&windows[0]).unwrap();
        assert_eq!(det.detected, camal.detect(&windows[0]).detected);
        // An empty batch is a valid no-op, not an error.
        assert!(camal.try_localize_batch(&[]).unwrap().is_empty());
    }
}

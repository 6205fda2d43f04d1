//! Steps 3–6 of the pipeline: CAM extraction, normalization, averaging,
//! the attention mask, and the binary appliance status.
//!
//! With the paper's defaults the chain is, per timestep `t`:
//!
//! ```text
//! ĈAM_n(t)   = minmax(CAM_n)(t)                    (step 4, per member)
//! ĈAM_avg(t) = (1/N) Σ_n ĈAM_n(t)                  (step 4, averaging)
//! s(t)       = sigmoid(ĈAM_avg(t) · x(t))          (step 5, x = z-scored input)
//! status(t)  = 1 ⇔ s(t) > 0.5                      (step 6)
//! ```
//!
//! Note that `sigmoid(p) > 0.5 ⇔ p > 0`, so with a nonnegative normalized
//! CAM the status marks timesteps whose *normalized* consumption is above
//! the window mean inside CAM-supported regions — gated (step 2) on the
//! ensemble detecting the appliance at all. Every design choice carries an
//! ablation switch in [`LocalizerConfig`].

use crate::config::LocalizerConfig;
use crate::detector::Detection;
use crate::ensemble::{FrozenEnsemble, MemberOutput, ResNetEnsemble};
use crate::z_normalize_window;
use ds_neural::activations::sigmoid;
use ds_neural::tensor::Tensor;
use ds_timeseries::normalize::min_max_normalize;

/// Full output of the CamAL pipeline for one window.
#[derive(Debug, Clone, PartialEq)]
pub struct Localization {
    /// The detection step's outcome (steps 1–2).
    pub detection: Detection,
    /// The averaged (and, by default, normalized) CAM (steps 3–4).
    pub cam: Vec<f32>,
    /// The attention signal `s(t)` (step 5).
    pub attention: Vec<f32>,
    /// The binary per-timestep appliance status (step 6).
    pub status: Vec<u8>,
}

/// Run steps 1–6 on one raw window (watts).
pub fn localize(ensemble: &ResNetEnsemble, window: &[f32], cfg: &LocalizerConfig) -> Localization {
    assert!(!window.is_empty(), "cannot localize an empty window");
    let _span = ds_obs::span!("camal.localize");
    let start = ds_obs::enabled().then(std::time::Instant::now);
    let normalized = z_normalize_window(window);
    let x = Tensor::from_windows(std::slice::from_ref(&normalized));
    let outputs = ensemble.predict(&x);
    let probs = ResNetEnsemble::ensemble_probability(&outputs);
    let out = assemble_localization(&outputs, &probs, 0, &normalized, cfg);
    if let Some(start) = start {
        ds_obs::observe(
            "camal.localize.prob",
            out.detection.probability as f64,
            ds_obs::Buckets::Unit,
        );
        ds_obs::observe(
            "camal.localize.latency_s",
            start.elapsed().as_secs_f64(),
            ds_obs::Buckets::DurationSecs,
        );
        ds_obs::counter_add("camal.localize.windows", 1);
        ds_obs::counter_add(
            "camal.localize.active_timesteps",
            out.status.iter().map(|&s| s as u64).sum(),
        );
    }
    out
}

/// Fixed number of windows per batched-localization task. Never derived
/// from the worker count: chunk boundaries — and therefore the batches
/// each network sees — are identical at any `DS_PAR_THREADS` setting.
///
/// Public because the serving front (`ds-serve`) warms each plan's arena
/// with one full chunk, the largest shape any later call asks of it.
pub const WINDOW_CHUNK: usize = 16;

/// Run steps 1–6 over many raw windows (all sharing one length), chunked
/// [`WINDOW_CHUNK`] windows per task across the ds-par worker team.
///
/// Every layer in the ensemble's inference path (conv, batchnorm in
/// inference mode, GAP, linear) treats batch rows independently, so the
/// outputs are bit-identical to calling [`localize`] per window — the
/// batching only amortizes the per-call overhead and enables the window
/// fan-out. Results come back in window order.
pub fn localize_batch(
    ensemble: &ResNetEnsemble,
    windows: &[&[f32]],
    cfg: &LocalizerConfig,
) -> Vec<Localization> {
    if windows.is_empty() {
        return Vec::new();
    }
    let _span = ds_obs::span!("camal.localize_batch");
    let start = ds_obs::enabled().then(std::time::Instant::now);
    let per_chunk: Vec<Vec<Localization>> =
        ds_par::par_ranges(windows.len(), WINDOW_CHUNK, |_, range| {
            let normalized: Vec<Vec<f32>> = windows[range.clone()]
                .iter()
                .map(|w| {
                    assert!(!w.is_empty(), "cannot localize an empty window");
                    z_normalize_window(w)
                })
                .collect();
            let x = Tensor::from_windows(&normalized);
            let outputs = ensemble.predict(&x);
            let probs = ResNetEnsemble::ensemble_probability(&outputs);
            (0..range.len())
                .map(|i| assemble_localization(&outputs, &probs, i, &normalized[i], cfg))
                .collect()
        });
    let out: Vec<Localization> = per_chunk.into_iter().flatten().collect();
    if let Some(start) = start {
        for loc in &out {
            ds_obs::observe(
                "camal.localize.prob",
                loc.detection.probability as f64,
                ds_obs::Buckets::Unit,
            );
        }
        ds_obs::observe(
            "camal.localize.latency_s",
            start.elapsed().as_secs_f64() / out.len() as f64,
            ds_obs::Buckets::DurationSecs,
        );
        ds_obs::counter_add("camal.localize.windows", out.len() as u64);
        ds_obs::counter_add(
            "camal.localize.active_timesteps",
            out.iter()
                .flat_map(|loc| loc.status.iter())
                .map(|&s| s as u64)
                .sum(),
        );
    }
    out
}

/// Steps 2–6 for window `index` of a predicted batch: detection record,
/// CAM averaging, attention, status.
fn assemble_localization(
    outputs: &[MemberOutput],
    probs: &[f32],
    index: usize,
    normalized: &[f32],
    cfg: &LocalizerConfig,
) -> Localization {
    let prob = probs[index];
    let detection = Detection {
        probability: prob,
        member_probabilities: outputs.iter().map(|o| (o.kernel, o.probs[index])).collect(),
        detected: prob > cfg.detection_threshold,
    };
    let cam = average_cams(outputs, index, cfg);
    let (attention, status) = attention_and_status(&cam, normalized, detection.detected, cfg);
    Localization {
        detection,
        cam,
        attention,
        status,
    }
}

/// Steps 3–4 for window `i` of a batch: per-member CAM normalization and
/// ensemble averaging.
pub(crate) fn average_cams(
    outputs: &[MemberOutput],
    index: usize,
    cfg: &LocalizerConfig,
) -> Vec<f32> {
    assert!(!outputs.is_empty(), "no member outputs");
    let len = outputs[0].cams[index].len();
    let mut avg = vec![0.0f32; len];
    let mut scratch = vec![0.0f32; len];
    average_cams_into(
        outputs.iter().map(|o| o.cams[index].as_slice()),
        outputs.len(),
        cfg,
        &mut scratch,
        &mut avg,
    );
    avg
}

/// Allocation-free core of steps 3–4: normalize each member CAM (copied
/// through `scratch`, since min-max normalization is in place) and
/// average into `out`. Accumulation order — per member: copy, normalize,
/// add; then one final scale — matches [`average_cams`] exactly.
pub(crate) fn average_cams_into<'a>(
    cams: impl Iterator<Item = &'a [f32]>,
    count: usize,
    cfg: &LocalizerConfig,
    scratch: &mut [f32],
    out: &mut [f32],
) {
    assert!(count > 0, "no member outputs");
    out.fill(0.0);
    for cam in cams {
        let scratch = &mut scratch[..cam.len()];
        scratch.copy_from_slice(cam);
        if cfg.normalize_cams {
            min_max_normalize(scratch);
        }
        for (a, c) in out.iter_mut().zip(scratch.iter()) {
            *a += c;
        }
    }
    let scale = 1.0 / count as f32;
    for a in out.iter_mut() {
        *a *= scale;
    }
}

/// Steps 5–6: the attention mask and the binary status.
pub(crate) fn attention_and_status(
    cam: &[f32],
    normalized_input: &[f32],
    detected: bool,
    cfg: &LocalizerConfig,
) -> (Vec<f32>, Vec<u8>) {
    let mut attention = vec![0.0f32; cam.len()];
    let mut status = vec![0u8; cam.len()];
    attention_and_status_into(
        cam,
        normalized_input,
        detected,
        cfg,
        &mut attention,
        &mut status,
    );
    (attention, status)
}

/// Allocation-free core of steps 5–6, writing into caller buffers.
pub(crate) fn attention_and_status_into(
    cam: &[f32],
    normalized_input: &[f32],
    detected: bool,
    cfg: &LocalizerConfig,
    attention: &mut [f32],
    status: &mut [u8],
) {
    if cfg.use_attention {
        for ((a, &c), &x) in attention.iter_mut().zip(cam).zip(normalized_input) {
            *a = sigmoid(c * x);
        }
    } else {
        // Ablation: treat the averaged CAM itself as the activation signal.
        attention.copy_from_slice(cam);
    }
    let gate_ok = detected || !cfg.gate_on_detection;
    for ((st, &s), &c) in status.iter_mut().zip(attention.iter()).zip(cam) {
        *st = u8::from(gate_ok && s > 0.5 && c >= cfg.cam_gate);
    }
}

/// Flat, reusable storage for the localization of a batch of windows.
///
/// The frozen serving path writes every per-window artifact — probability,
/// detection flag, averaged CAM, attention signal, status mask, per-member
/// probabilities — into row-major slabs owned by this struct, so a warm
/// [`LocalizationBatch`] makes repeated batched localization allocation-free.
/// Buffers only ever grow (`LocalizationBatch::ensure`); per-window views
/// come back as slices into the slabs, and [`LocalizationBatch::to_localization`]
/// materializes the classic owned [`Localization`] when a caller wants one.
#[derive(Debug, Default, Clone)]
pub struct LocalizationBatch {
    windows: usize,
    len: usize,
    /// Per-window ensemble probability, `[windows]`.
    probability: Vec<f32>,
    /// Per-window detection flag, `[windows]`.
    detected: Vec<bool>,
    /// Averaged (normalized) CAMs, `[windows, len]` row-major.
    cam: Vec<f32>,
    /// Attention signal `s(t)`, `[windows, len]` row-major.
    attention: Vec<f32>,
    /// Binary status, `[windows, len]` row-major.
    status: Vec<u8>,
    /// Per-member probabilities, `[windows, members]` row-major.
    member_probs: Vec<f32>,
    /// Member kernel sizes, `[members]` (shared across windows).
    kernels: Vec<usize>,
    /// CAM normalization scratch, `[len]`.
    scratch: Vec<f32>,
}

impl LocalizationBatch {
    /// An empty batch; buffers are sized lazily by `LocalizationBatch::ensure`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the slabs for `windows × len` with `members` ensemble members.
    /// Grow-only: shrinking reuses the larger buffers.
    pub(crate) fn ensure(&mut self, windows: usize, len: usize, kernels: &[usize]) {
        fn grow<T: Clone + Default>(buf: &mut Vec<T>, n: usize) {
            if buf.len() < n {
                buf.resize(n, T::default());
            }
        }
        self.windows = windows;
        self.len = len;
        grow(&mut self.probability, windows);
        grow(&mut self.detected, windows);
        grow(&mut self.cam, windows * len);
        grow(&mut self.attention, windows * len);
        grow(&mut self.status, windows * len);
        grow(&mut self.member_probs, windows * kernels.len());
        grow(&mut self.scratch, len);
        self.kernels.clear();
        self.kernels.extend_from_slice(kernels);
    }

    /// Heap footprint of the output slabs in bytes (capacity, not live
    /// length) — the per-plan arena cost a serving process pays to keep
    /// one batch shape warm. Used by ds-serve's stats endpoint for
    /// capacity planning.
    pub fn heap_bytes(&self) -> usize {
        self.probability.capacity() * std::mem::size_of::<f32>()
            + self.detected.capacity() * std::mem::size_of::<bool>()
            + (self.cam.capacity() + self.attention.capacity()) * std::mem::size_of::<f32>()
            + self.status.capacity()
            + self.member_probs.capacity() * std::mem::size_of::<f32>()
            + self.kernels.capacity() * std::mem::size_of::<usize>()
            + self.scratch.capacity() * std::mem::size_of::<f32>()
    }

    /// Number of windows localized into this batch.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Window length shared by all rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no windows have been localized.
    pub fn is_empty(&self) -> bool {
        self.windows == 0
    }

    /// Ensemble probability for window `w`.
    pub fn probability(&self, w: usize) -> f32 {
        assert!(w < self.windows, "window {w} out of {}", self.windows);
        self.probability[w]
    }

    /// Detection flag for window `w`.
    pub fn detected(&self, w: usize) -> bool {
        assert!(w < self.windows, "window {w} out of {}", self.windows);
        self.detected[w]
    }

    /// Averaged CAM row for window `w`.
    pub fn cam(&self, w: usize) -> &[f32] {
        assert!(w < self.windows, "window {w} out of {}", self.windows);
        &self.cam[w * self.len..(w + 1) * self.len]
    }

    /// Attention row `s(t)` for window `w`.
    pub fn attention(&self, w: usize) -> &[f32] {
        assert!(w < self.windows, "window {w} out of {}", self.windows);
        &self.attention[w * self.len..(w + 1) * self.len]
    }

    /// Binary status row for window `w`.
    pub fn status(&self, w: usize) -> &[u8] {
        assert!(w < self.windows, "window {w} out of {}", self.windows);
        &self.status[w * self.len..(w + 1) * self.len]
    }

    /// `(kernel, probability)` pairs for window `w`, in member order.
    pub fn member_probabilities(&self, w: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        assert!(w < self.windows, "window {w} out of {}", self.windows);
        let m = self.kernels.len();
        self.kernels
            .iter()
            .copied()
            .zip(self.member_probs[w * m..(w + 1) * m].iter().copied())
    }

    /// Materialize an owned [`Localization`] for window `w` (allocates).
    pub fn to_localization(&self, w: usize) -> Localization {
        Localization {
            detection: Detection {
                probability: self.probability(w),
                member_probabilities: self.member_probabilities(w).collect(),
                detected: self.detected(w),
            },
            cam: self.cam(w).to_vec(),
            attention: self.attention(w).to_vec(),
            status: self.status(w).to_vec(),
        }
    }

    /// Steps 2–6 for a predicted frozen chunk: write windows
    /// `offset..offset + chunk` of this batch from the ensemble's arenas.
    /// `normalized` holds the chunk's z-scored input rows, `[chunk, len]`
    /// row-major. Allocation-free once the slabs are sized.
    pub(crate) fn assemble_frozen_chunk(
        &mut self,
        ensemble: &FrozenEnsemble,
        normalized: &[f32],
        offset: usize,
        cfg: &LocalizerConfig,
    ) {
        let chunk = ensemble.ensemble_probs().len();
        let len = self.len;
        assert_eq!(normalized.len(), chunk * len, "normalized chunk shape");
        assert!(offset + chunk <= self.windows, "chunk exceeds batch");
        let members = ensemble.members();
        let m = members.len();
        assert_eq!(m, self.kernels.len(), "member count changed");
        let Self {
            cam,
            attention,
            status,
            scratch,
            probability,
            detected,
            member_probs,
            ..
        } = self;
        for i in 0..chunk {
            let w = offset + i;
            let prob = ensemble.ensemble_probs()[i];
            probability[w] = prob;
            detected[w] = prob > cfg.detection_threshold;
            for (mi, member) in members.iter().enumerate() {
                member_probs[w * m + mi] = member.probs()[i];
            }
            let cam_row = &mut cam[w * len..(w + 1) * len];
            average_cams_into(
                members.iter().map(|member| member.cam(i)),
                m,
                cfg,
                &mut scratch[..len],
                cam_row,
            );
            attention_and_status_into(
                cam_row,
                &normalized[i * len..(i + 1) * len],
                detected[w],
                cfg,
                &mut attention[w * len..(w + 1) * len],
                &mut status[w * len..(w + 1) * len],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CamalConfig;
    use crate::ensemble::MemberOutput;

    fn member(probs: Vec<f32>, cams: Vec<Vec<f32>>) -> MemberOutput {
        MemberOutput {
            kernel: 5,
            backbone: ds_neural::Backbone::ResNet,
            probs,
            cams,
        }
    }

    #[test]
    fn cam_averaging_normalizes_members() {
        let cfg = LocalizerConfig::default();
        let outputs = vec![
            member(vec![0.9], vec![vec![0.0, 5.0, 10.0]]),
            member(vec![0.9], vec![vec![-2.0, 0.0, 2.0]]),
        ];
        let avg = average_cams(&outputs, 0, &cfg);
        // Both normalize to [0, 0.5, 1]; mean is the same.
        assert_eq!(avg, vec![0.0, 0.5, 1.0]);
        // Without normalization the raw scales dominate.
        let raw_cfg = LocalizerConfig {
            normalize_cams: false,
            ..cfg
        };
        let raw = average_cams(&outputs, 0, &raw_cfg);
        assert_eq!(raw, vec![-1.0, 2.5, 6.0]);
    }

    #[test]
    fn attention_marks_above_mean_supported_regions() {
        let cfg = LocalizerConfig::default();
        let cam = vec![1.0, 1.0, 0.5, 0.0];
        let x = vec![2.0, -1.0, 1.0, 3.0]; // already normalized units
        let (attention, status) = attention_and_status(&cam, &x, true, &cfg);
        // s = sigmoid(cam*x): [s(2)>0.5, s(-1)<0.5, s(0.5)>0.5, s(0)=0.5]
        assert!(attention[0] > 0.5 && attention[1] < 0.5 && attention[2] > 0.5);
        assert!((attention[3] - 0.5).abs() < 1e-6);
        assert_eq!(status, vec![1, 0, 1, 0]); // strict > 0.5 keeps t=3 off
    }

    #[test]
    fn detection_gate_suppresses_status() {
        let cfg = LocalizerConfig::default();
        let cam = vec![1.0; 4];
        let x = vec![1.0; 4];
        let (_, gated) = attention_and_status(&cam, &x, false, &cfg);
        assert_eq!(gated, vec![0; 4]);
        let ungated_cfg = LocalizerConfig {
            gate_on_detection: false,
            ..cfg
        };
        let (_, ungated) = attention_and_status(&cam, &x, false, &ungated_cfg);
        assert_eq!(ungated, vec![1; 4]);
    }

    #[test]
    fn cam_gate_filters_weak_support() {
        let cfg = LocalizerConfig {
            cam_gate: 0.6,
            ..LocalizerConfig::default()
        };
        let cam = vec![0.9, 0.3];
        let x = vec![2.0, 2.0];
        let (_, status) = attention_and_status(&cam, &x, true, &cfg);
        assert_eq!(status, vec![1, 0]);
    }

    #[test]
    fn raw_cam_thresholding_ablation() {
        let cfg = LocalizerConfig {
            use_attention: false,
            ..LocalizerConfig::default()
        };
        let cam = vec![0.9, 0.2];
        let x = vec![-5.0, 5.0]; // ignored in this mode
        let (attention, status) = attention_and_status(&cam, &x, true, &cfg);
        assert_eq!(attention, cam);
        assert_eq!(status, vec![1, 0]);
    }

    #[test]
    fn localize_end_to_end_shapes() {
        let ens = ResNetEnsemble::untrained(&CamalConfig::fast_test());
        let cfg = LocalizerConfig::default();
        let window: Vec<f32> = (0..64)
            .map(|i| if i > 30 && i < 40 { 2000.0 } else { 80.0 })
            .collect();
        let out = localize(&ens, &window, &cfg);
        assert_eq!(out.cam.len(), 64);
        assert_eq!(out.attention.len(), 64);
        assert_eq!(out.status.len(), 64);
        assert!(out.cam.iter().all(|c| (0.0..=1.0).contains(c)));
        assert!(out.status.iter().all(|&s| s <= 1));
        // Status respects the detection gate.
        if !out.detection.detected {
            assert!(out.status.iter().all(|&s| s == 0));
        }
    }

    #[test]
    fn localize_batch_is_bit_identical_to_single() {
        let ens = ResNetEnsemble::untrained(&CamalConfig::fast_test());
        let cfg = LocalizerConfig {
            gate_on_detection: false,
            ..LocalizerConfig::default()
        };
        // More windows than one WINDOW_CHUNK, varied content.
        let windows: Vec<Vec<f32>> = (0..super::WINDOW_CHUNK + 3)
            .map(|w| {
                (0..48)
                    .map(|i| ((w * 7 + i) % 11) as f32 * 40.0 + (i as f32 * 0.4).sin() * 15.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f32]> = windows.iter().map(|w| w.as_slice()).collect();
        let batch = localize_batch(&ens, &refs, &cfg);
        assert_eq!(batch.len(), windows.len());
        for (w, b) in windows.iter().zip(&batch) {
            let single = localize(&ens, w, &cfg);
            assert_eq!(
                single.cam.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
                b.cam.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
            );
            assert_eq!(single.status, b.status);
            assert_eq!(
                single.detection.probability.to_bits(),
                b.detection.probability.to_bits()
            );
        }
        assert!(localize_batch(&ens, &[], &cfg).is_empty());
    }

    #[test]
    fn constant_window_yields_all_off() {
        let ens = ResNetEnsemble::untrained(&CamalConfig::fast_test());
        let cfg = LocalizerConfig {
            gate_on_detection: false,
            ..LocalizerConfig::default()
        };
        let out = localize(&ens, &[500.0; 32], &cfg);
        // z-normalized constant window is all zeros -> product 0 -> s = 0.5,
        // strict threshold keeps everything off.
        assert_eq!(out.status, vec![0; 32]);
    }
}

//! The detector ensemble (paper §II-A): one network per kernel size, each
//! trained independently on the same weak labels. *"This approach is based
//! on the premise that varying kernel sizes change the receptive fields of
//! the CNN, offering different levels of explainability."*
//!
//! Since the backbone-zoo change the ensemble is architecture-agnostic:
//! members are [`DetectorNet`]s driven exclusively through the
//! [`Detector`] trait, so ResNet, Inception and TransApp members mix
//! freely in one model (the `backbones` list in [`CamalConfig`] cycles
//! over members). [`ResNetEnsemble`] remains as an
//! alias for the paper's all-ResNet default.

use crate::config::CamalConfig;
use crate::detector::Detector;
use ds_neural::tensor::Tensor;
use ds_neural::train::TrainReport;
use ds_neural::{Backbone, DetectorNet, FrozenDetector, InferenceArena};
use serde::{Deserialize, Serialize};

/// Numeric precision of a frozen serving plan: f32 is the only one. Kept
/// only so `perfbench/` compiles unchanged; the next benchmark PR removes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Precision {
    /// The BN-folded f32 plan.
    #[default]
    F32,
}

/// An ensemble of independently trained detectors, possibly of mixed
/// backbones.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectorEnsemble {
    members: Vec<DetectorNet>,
}

/// The paper's all-ResNet ensemble is just a [`DetectorEnsemble`] whose
/// every member happens to be a ResNet; pre-zoo call sites keep the name.
pub type ResNetEnsemble = DetectorEnsemble;

/// Per-member output for one window batch: the positive-class probability
/// and the class-1 CAM of each window.
#[derive(Debug, Clone)]
pub struct MemberOutput {
    /// Kernel size of the member that produced this output.
    pub kernel: usize,
    /// Architecture of the member that produced this output.
    pub backbone: Backbone,
    /// Positive-class probability per window.
    pub probs: Vec<f32>,
    /// Class-1 CAM per window.
    pub cams: Vec<Vec<f32>>,
}

impl DetectorEnsemble {
    /// Build untrained members from a configuration. Member `i` gets
    /// kernel `kernel_sizes[i]` and the backbone
    /// [`CamalConfig::backbone_for`]`(i)` (all-ResNet unless configured).
    pub fn untrained(config: &CamalConfig) -> DetectorEnsemble {
        let members = config
            .kernel_sizes
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                DetectorNet::for_backbone(
                    config.backbone_for(i),
                    1,
                    &config.channels,
                    k,
                    2,
                    config.seed.wrapping_add(i as u64),
                )
            })
            .collect();
        DetectorEnsemble { members }
    }

    /// Wrap trained members.
    pub fn from_members(members: Vec<DetectorNet>) -> DetectorEnsemble {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        DetectorEnsemble { members }
    }

    /// Member count `N`.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ensemble has no members (never true for a built one).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Borrow the members.
    pub fn members(&self) -> &[DetectorNet] {
        &self.members
    }

    /// Mutably borrow the members (checkpoint loading, weight inspection
    /// in benches/tests).
    pub fn members_mut(&mut self) -> &mut [DetectorNet] {
        &mut self.members
    }

    /// Drop every member except those at `keep` (selection step). Members
    /// are moved out of the old vector, not cloned — a member owns all of
    /// its weight/optimizer buffers, so cloning here used to double the
    /// ensemble's peak memory during selection.
    pub fn retain_indices(&mut self, keep: &[usize]) {
        assert!(!keep.is_empty(), "cannot retain zero members");
        let mut slots: Vec<Option<DetectorNet>> = std::mem::take(&mut self.members)
            .into_iter()
            .map(Some)
            .collect();
        self.members = keep
            .iter()
            .map(|&i| slots[i].take().expect("duplicate index in retain_indices"))
            .collect();
    }

    /// Train every member on the same `(windows, labels)` corpus,
    /// concurrently across the ds-par worker team (one task per member).
    /// Members differ in kernel size and seed (and possibly backbone),
    /// exactly as in the paper; each owns an independent shuffle RNG, so
    /// member-parallel training is deterministic by construction. Inside a
    /// worker, nested ds-par calls (the layer micro-batch fan-outs) run
    /// sequentially, so member parallelism never oversubscribes the team
    /// the way the previous one-OS-thread-per-member scheme did — and
    /// `DS_PAR_THREADS=1` degrades to a plain sequential loop over members.
    ///
    /// Returns one [`TrainReport`] per member.
    pub fn train(
        &mut self,
        windows: &[Vec<f32>],
        labels: &[u8],
        config: &CamalConfig,
    ) -> Vec<TrainReport> {
        let base_cfg = &config.train;
        ds_par::par_chunks_map_mut(&mut self.members, 1, |i, chunk| {
            let member = &mut chunk[0];
            let mut cfg = base_cfg.clone();
            cfg.shuffle_seed = base_cfg.shuffle_seed.wrapping_add(i as u64);
            // Worker threads root their own span stack, so each member's
            // wall time aggregates under this path.
            let _span = ds_obs::span!("train.member");
            let report = member.train_member(windows, labels, &cfg);
            ds_obs::event!(
                "ensemble_member_trained",
                member = i,
                kernel = member.kernel(),
                backbone = member.backbone().label(),
                epochs = report.epoch_losses.len(),
                train_accuracy = report.train_accuracy,
                early_stopped = report.early_stopped,
            );
            report
        })
    }

    /// Steps 1 & 3: run every member over a `[B, 1, L]` batch, collecting
    /// probabilities and class-1 CAMs. Pure (`&self`): a trained ensemble is
    /// shareable across threads at prediction time.
    ///
    /// Members fan out across the ds-par worker team (one task per member);
    /// inference inside each member then runs sequentially, since nested
    /// ds-par calls are suppressed. Outputs come back in member order and
    /// each member's numerics are untouched by the fan-out, so results are
    /// bit-identical to a sequential loop at any `DS_PAR_THREADS`.
    pub fn predict(&self, x: &Tensor) -> Vec<MemberOutput> {
        let _span = ds_obs::span!("ensemble.predict");
        let member_output = |m: &DetectorNet| {
            let (probs, cams) = Detector::infer_with_cam(m, x);
            MemberOutput {
                kernel: m.kernel(),
                backbone: m.backbone(),
                probs,
                cams,
            }
        };
        // Below the fan-out floor (total batch rows across members) the
        // dispatch costs more than it buys — serve sequentially and skip
        // the thread spawns entirely. Identical results either way.
        if !ds_par::should_fanout(x.batch * self.members.len()) {
            return self.members.iter().map(member_output).collect();
        }
        ds_par::par_map_chunked(&self.members, 1, |_, m| member_output(m))
    }

    /// Compile every member into its frozen inference plan (BN folded,
    /// ReLU fused, arena-driven; see [`FrozenDetector`]). The source
    /// ensemble is untouched — it remains the trainable form, and can be
    /// re-frozen after further training.
    pub fn freeze(&self) -> FrozenEnsemble {
        FrozenEnsemble {
            members: self
                .members
                .iter()
                .map(|m| FrozenMember {
                    plan: Detector::freeze(m),
                    arena: InferenceArena::new(),
                })
                .collect(),
            ens_probs: Vec::new(),
            batch: 0,
        }
    }

    /// Ensemble probability per window: `Prob_ens = (1/N) Σ Prob_n`.
    pub fn ensemble_probability(outputs: &[MemberOutput]) -> Vec<f32> {
        assert!(!outputs.is_empty(), "no member outputs");
        let n = outputs[0].probs.len();
        let mut probs = vec![0.0f32; n];
        for out in outputs {
            assert_eq!(out.probs.len(), n, "member batch size mismatch");
            for (acc, p) in probs.iter_mut().zip(&out.probs) {
                *acc += p;
            }
        }
        let scale = 1.0 / outputs.len() as f32;
        for p in &mut probs {
            *p *= scale;
        }
        probs
    }
}

/// One frozen member plus its private inference arena. The arena holds
/// the member's most recent outputs (probabilities, CAMs, logits) in
/// place — reading them costs nothing and writing the next batch reuses
/// the same memory.
#[derive(Debug, Clone)]
pub struct FrozenMember {
    plan: FrozenDetector,
    arena: InferenceArena,
}

impl FrozenMember {
    /// Kernel size of this member (the ensemble diversity knob).
    pub fn kernel(&self) -> usize {
        self.plan.kernel()
    }

    /// Architecture of this member's plan.
    pub fn backbone(&self) -> Backbone {
        self.plan.backbone()
    }

    /// Positive-class probability per window of the most recent pass.
    pub fn probs(&self) -> &[f32] {
        self.arena.probs()
    }

    /// Class-1 CAM of window `w` from the most recent pass.
    pub fn cam(&self, w: usize) -> &[f32] {
        self.arena.cam(w)
    }

    /// Heap footprint of this member's warm inference arena in bytes.
    pub fn arena_bytes(&self) -> usize {
        self.arena.heap_bytes()
    }
}

/// The serving form of a [`DetectorEnsemble`]: every member compiled to a
/// [`FrozenDetector`], plus reused output buffers. Built once per
/// trained ensemble via [`DetectorEnsemble::freeze`].
///
/// Prediction is `&mut self` (it writes the member arenas), sequential
/// over members, and — after the first call per window shape — performs
/// zero heap allocations. Members are *not* fanned across the ds-par team
/// here: the committed perf results show thread fan-out buys ~1.0× on
/// this workload, and the dispatch itself allocates, which would break
/// the steady-state zero-alloc contract.
#[derive(Debug, Clone)]
pub struct FrozenEnsemble {
    members: Vec<FrozenMember>,
    /// `Prob_ens` per window of the most recent pass.
    ens_probs: Vec<f32>,
    /// Window count of the most recent pass.
    batch: usize,
}

impl FrozenEnsemble {
    /// Member count `N`.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ensemble has no members (never true for a built one).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Borrow the frozen members (and their most recent outputs).
    pub fn members(&self) -> &[FrozenMember] {
        &self.members
    }

    /// Total heap footprint of the warm member arenas plus the ensemble
    /// probability buffer, in bytes. A serving front clones one plan per
    /// worker, so its steady-state memory is roughly `workers ×` this.
    pub fn arena_bytes(&self) -> usize {
        self.members
            .iter()
            .map(FrozenMember::arena_bytes)
            .sum::<usize>()
            + self.ens_probs.capacity() * std::mem::size_of::<f32>()
    }

    /// Steps 1 & 3 on the frozen path: run every member over a `[B, 1, L]`
    /// batch and compute `Prob_ens`. Results live in the member arenas
    /// ([`FrozenMember::probs`]/[`FrozenMember::cam`]) and
    /// [`FrozenEnsemble::ensemble_probs`]. The mean accumulates in member
    /// order, matching [`DetectorEnsemble::ensemble_probability`] exactly.
    pub fn predict_into(&mut self, x: &Tensor) {
        let _span = ds_obs::span!("frozen.predict");
        let b = x.batch;
        for m in &mut self.members {
            m.plan.predict_into(x, &mut m.arena);
        }
        if self.ens_probs.len() < b {
            self.ens_probs.resize(b, 0.0);
        }
        self.ens_probs[..b].fill(0.0);
        for m in &self.members {
            for (acc, &p) in self.ens_probs[..b].iter_mut().zip(m.arena.probs()) {
                *acc += p;
            }
        }
        let scale = 1.0 / self.members.len() as f32;
        for p in &mut self.ens_probs[..b] {
            *p *= scale;
        }
        self.batch = b;
    }

    /// `Prob_ens` per window of the most recent [`predict_into`] pass.
    ///
    /// [`predict_into`]: FrozenEnsemble::predict_into
    pub fn ensemble_probs(&self) -> &[f32] {
        &self.ens_probs[..self.batch]
    }

    /// Every folded parameter of every member as raw `f32` bit patterns,
    /// in a stable (member-major) order. Two freezes of behaviorally
    /// identical ensembles — e.g. before and after a checkpoint round
    /// trip — must produce equal vectors, which the persistence tests
    /// assert bit-for-bit.
    pub fn param_bits(&self) -> Vec<u32> {
        let mut bits = Vec::new();
        for m in &self.members {
            bits.extend(m.plan.param_bits());
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CamalConfig;

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

    #[test]
    fn untrained_members_match_config() {
        let cfg = CamalConfig::fast_test();
        let ens = DetectorEnsemble::untrained(&cfg);
        assert_eq!(ens.len(), 2);
        assert!(!ens.is_empty());
        assert_eq!(ens.members()[0].kernel(), 3);
        assert_eq!(ens.members()[1].kernel(), 5);
        assert!(ens
            .members()
            .iter()
            .all(|m| m.backbone() == Backbone::ResNet));
    }

    #[test]
    fn mixed_backbones_cycle_over_members() {
        let cfg = CamalConfig {
            backbones: vec![Backbone::Inception, Backbone::TransApp],
            ..CamalConfig::fast_test()
        };
        let ens = DetectorEnsemble::untrained(&cfg);
        assert_eq!(ens.members()[0].backbone(), Backbone::Inception);
        assert_eq!(ens.members()[1].backbone(), Backbone::TransApp);
    }

    #[test]
    fn parallel_training_improves_all_members() {
        let cfg = CamalConfig::fast_test();
        let (windows, labels) = toy_corpus(24, 40);
        let mut ens = DetectorEnsemble::untrained(&cfg);
        let reports = ens.train(&windows, &labels, &cfg);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.epoch_losses.iter().all(|l| l.is_finite()));
            assert!(
                r.epoch_losses.last().unwrap() <= &r.epoch_losses[0],
                "member loss went up: {:?}",
                r.epoch_losses
            );
        }
    }

    #[test]
    fn ensemble_probability_is_mean() {
        let outputs = vec![
            MemberOutput {
                kernel: 5,
                backbone: Backbone::ResNet,
                probs: vec![0.2, 0.8],
                cams: vec![vec![], vec![]],
            },
            MemberOutput {
                kernel: 7,
                backbone: Backbone::Inception,
                probs: vec![0.6, 0.4],
                cams: vec![vec![], vec![]],
            },
        ];
        let p = DetectorEnsemble::ensemble_probability(&outputs);
        assert!((p[0] - 0.4).abs() < 1e-6);
        assert!((p[1] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn predict_returns_member_outputs() {
        let cfg = CamalConfig::fast_test();
        let ens = DetectorEnsemble::untrained(&cfg);
        let x = Tensor::from_windows(&[vec![0.5; 32], vec![0.2; 32]]);
        let outputs = ens.predict(&x);
        assert_eq!(outputs.len(), 2);
        for out in &outputs {
            assert_eq!(out.probs.len(), 2);
            assert_eq!(out.cams.len(), 2);
            assert_eq!(out.cams[0].len(), 32);
            assert_eq!(out.backbone, Backbone::ResNet);
        }
        assert_eq!(outputs[0].kernel, 3);
    }

    #[test]
    fn retain_indices_selects_members() {
        let cfg = CamalConfig::fast_test();
        let mut ens = DetectorEnsemble::untrained(&cfg);
        ens.retain_indices(&[1]);
        assert_eq!(ens.len(), 1);
        assert_eq!(ens.members()[0].kernel(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_ensemble_rejected() {
        let _ = DetectorEnsemble::from_members(vec![]);
    }

    #[test]
    fn frozen_matches_reference_and_allocates_nothing() {
        let cfg = CamalConfig::fast_test();
        let (windows, labels) = toy_corpus(24, 40);
        let mut ens = DetectorEnsemble::untrained(&cfg);
        // Training moves the BN running statistics (folding becomes
        // non-trivial) and pushes probabilities away from the 0.5 decision
        // boundary.
        ens.train(&windows, &labels, &cfg);
        let x = Tensor::from_windows(&windows[..5]);
        let outputs = ens.predict(&x);
        let probs = DetectorEnsemble::ensemble_probability(&outputs);
        let mut frozen = ens.freeze();
        assert_eq!(frozen.len(), ens.len());
        assert!(!frozen.is_empty());
        frozen.predict_into(&x);
        for (i, (&f, &r)) in frozen.ensemble_probs().iter().zip(&probs).enumerate() {
            assert!((f - r).abs() < 1e-4, "window {i}: frozen {f} vs {r}");
            assert_eq!(f > 0.5, r > 0.5, "decision flip at window {i}");
        }
        for (m, out) in frozen.members().iter().zip(&outputs) {
            assert_eq!(m.kernel(), out.kernel);
            assert_eq!(m.backbone(), out.backbone);
            for i in 0..5 {
                assert!((m.probs()[i] - out.probs[i]).abs() < 1e-4);
                for (a, b) in m.cam(i).iter().zip(&out.cams[i]) {
                    assert!((a - b).abs() < 1e-3, "member cam diverged: {a} vs {b}");
                }
            }
        }
        // Steady state: repeated passes on the warmed arenas are
        // allocation-free.
        let before = ds_obs::alloc_count();
        for _ in 0..4 {
            frozen.predict_into(&x);
        }
        assert_eq!(ds_obs::alloc_count(), before, "frozen predict allocated");
    }

    #[test]
    fn mixed_backbone_ensemble_trains_predicts_and_freezes() {
        // One member per backbone — the zoo's core promise: heterogeneous
        // members behind one `Detector` surface, frozen plans included.
        let cfg = CamalConfig {
            kernel_sizes: vec![3, 5, 5],
            backbones: vec![Backbone::ResNet, Backbone::Inception, Backbone::TransApp],
            ..CamalConfig::fast_test()
        };
        let (windows, labels) = toy_corpus(24, 40);
        let mut ens = DetectorEnsemble::untrained(&cfg);
        let reports = ens.train(&windows, &labels, &cfg);
        assert_eq!(reports.len(), 3);
        assert!(reports
            .iter()
            .all(|r| r.epoch_losses.iter().all(|l| l.is_finite())));
        let x = Tensor::from_windows(&windows[..4]);
        let outputs = ens.predict(&x);
        let backbones: Vec<Backbone> = outputs.iter().map(|o| o.backbone).collect();
        assert_eq!(
            backbones,
            vec![Backbone::ResNet, Backbone::Inception, Backbone::TransApp]
        );
        let probs = DetectorEnsemble::ensemble_probability(&outputs);
        let mut frozen = ens.freeze();
        frozen.predict_into(&x);
        for (i, (&f, &r)) in frozen.ensemble_probs().iter().zip(&probs).enumerate() {
            assert!((f - r).abs() < 1e-4, "window {i}: frozen {f} vs {r}");
            assert_eq!(f > 0.5, r > 0.5, "decision flip at window {i}");
        }
        let before = ds_obs::alloc_count();
        for _ in 0..3 {
            frozen.predict_into(&x);
        }
        assert_eq!(
            ds_obs::alloc_count(),
            before,
            "mixed frozen predict allocated"
        );
    }

    #[test]
    fn deterministic_parallel_training() {
        // Members train on separate threads but each is seeded; results must
        // be identical across runs.
        let cfg = CamalConfig::fast_test();
        let (windows, labels) = toy_corpus(12, 24);
        let run = || {
            let mut ens = DetectorEnsemble::untrained(&cfg);
            ens.train(&windows, &labels, &cfg);
            let x = Tensor::from_windows(&[windows[0].clone()]);
            let outputs = ens.predict(&x);
            DetectorEnsemble::ensemble_probability(&outputs)
        };
        assert_eq!(run(), run());
    }
}

//! The training pass: weak-label training with [`Camal::try_train`] at a
//! fixed, reduced paper shape (four members, k ∈ {5, 7, 9, 15}) on a
//! simulator corpus, then held-out evaluation on the test houses.
//!
//! Every run makes it, whatever the workload: two trainings per round,
//! every one of the same corpus and configuration. Every training must
//! reproduce the first one's `param_bits` checksum bit for bit, so they
//! are the same computation, and `train_s` is the fastest of them: the
//! shared host runs them at one of two speeds for seconds to minutes at
//! a time, and the fastest reads the fast speed whenever one training
//! of the run met it.

use std::time::Instant;

use ds_camal::{Camal, CamalConfig, FrozenCamal};
use ds_datasets::labels::Corpus;
use ds_datasets::{ApplianceKind, Dataset, DatasetConfig, DatasetPreset};

use crate::stats::{self, mix};
use crate::Outcome;

pub const HOUSES: u32 = 12;
pub const DAYS: u32 = 14;
pub const APPLIANCE: ApplianceKind = ApplianceKind::Kettle;
/// 6 h at 1 min.
pub const WINDOW: usize = 360;
/// Training windows kept after balancing.
pub const TRAIN_WINDOWS: usize = 32;
/// One epoch on [`TRAIN_WINDOWS`] windows keeps a training near 0.6 s, so
/// two fit in each round and a run's trainings spread over all of it.
pub const EPOCHS: usize = 1;
pub const TRAIN_SEED: u64 = 7;

/// The simulator dataset: fixed, like a public benchmark corpus.
pub fn dataset_config() -> DatasetConfig {
    DatasetConfig::tiny(DatasetPreset::UkdaleLike, HOUSES, DAYS)
}

/// The fixed reduced paper shape with fixed training randomness. At this
/// shape held-out quality moves by ±15% from one initialization to the
/// next and by ±30% from one simulated corpus to the next, which would
/// drown any real change; fixed, `detect_bacc` and `loc_f1` repeat
/// exactly until the numerics change. So the train workload's inputs do
/// not depend on `--seed`.
pub fn camal_config() -> CamalConfig {
    let mut cfg = CamalConfig {
        channels: vec![8, 16],
        seed: TRAIN_SEED,
        ..CamalConfig::default()
    };
    cfg.train.epochs = EPOCHS;
    cfg.train.batch_size = 8;
    cfg.train.shuffle_seed = mix(TRAIN_SEED);
    cfg.train.patience = None;
    cfg
}

/// Balanced, truncated weak-label corpus of a dataset.
pub fn corpus(dataset: &Dataset) -> Corpus {
    let mut corpus = Corpus::build(dataset, APPLIANCE, WINDOW);
    corpus.balance_train(1);
    corpus.truncate_train(TRAIN_WINDOWS);
    corpus
}

/// Checksum of every frozen parameter bit.
pub fn param_checksum(model: &Camal) -> u64 {
    model
        .freeze()
        .ensemble()
        .param_bits()
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| mix(h ^ u64::from(b)))
}

/// Held-out quality: window-level detection balanced accuracy and pooled
/// sample-level localization F1 over the test windows.
pub fn evaluate(plan: &mut FrozenCamal, corpus: &Corpus) -> (f64, f64) {
    let (mut tp, mut fp, mut tn, mut fn_) = (0u64, 0u64, 0u64, 0u64);
    let (mut ltp, mut lfp, mut lfn) = (0u64, 0u64, 0u64);
    for chunk in corpus.test.chunks(ds_camal::WINDOW_CHUNK) {
        let windows: Vec<&[f32]> = chunk.iter().map(|w| w.values.as_slice()).collect();
        let batch = plan.localize_batch_into(&windows);
        for (i, w) in chunk.iter().enumerate() {
            match (batch.detected(i), w.weak) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, false) => tn += 1,
                (false, true) => fn_ += 1,
            }
            for (&p, &t) in batch.status(i).iter().zip(&w.strong) {
                match (p == 1, t == 1) {
                    (true, true) => ltp += 1,
                    (true, false) => lfp += 1,
                    (false, true) => lfn += 1,
                    _ => {}
                }
            }
        }
    }
    let tpr = tp as f64 / (tp + fn_).max(1) as f64;
    let tnr = tn as f64 / (tn + fp).max(1) as f64;
    let f1 = 2.0 * ltp as f64 / (2 * ltp + lfp + lfn).max(1) as f64;
    ((tpr + tnr) / 2.0, f1)
}

/// The training pass: two trainings per round, every one of the same
/// corpus and configuration.
pub struct Pass {
    corpus: Corpus,
    cfg: CamalConfig,
    /// The first training's model and checksum.
    first: Option<(Camal, u64)>,
    times: Vec<f64>,
}

impl Pass {
    pub fn new() -> Pass {
        Pass {
            corpus: corpus(&Dataset::generate(dataset_config())),
            cfg: camal_config(),
            first: None,
            times: Vec::new(),
        }
    }

    /// One timed training; its checksum must equal the first one's.
    pub fn round(&mut self, outcome: &mut Outcome) {
        let started = Instant::now();
        let model = Camal::try_train(&self.corpus, &self.cfg);
        self.times.push(started.elapsed().as_secs_f64());
        let Ok(model) = model else {
            outcome.check(false);
            return;
        };
        let sum = param_checksum(&model);
        match &self.first {
            None => {
                outcome.check(true);
                self.first = Some((model, sum));
            }
            Some((_, expected)) => outcome.check(sum == *expected),
        }
    }

    /// Record `train_s` (the fastest training) and the held-out quality
    /// of the first training.
    pub fn finish(self, outcome: &mut Outcome) {
        outcome.metric("train_s", stats::fastest(&self.times), "s");
        outcome.samples("train_s", self.times.len());
        if let Some((model, sum)) = self.first {
            let (bacc, f1) = evaluate(&mut model.freeze(), &self.corpus);
            outcome.metric("detect_bacc", bacc, "ratio");
            outcome.metric("loc_f1", f1, "ratio");
            outcome.samples("detect_bacc", self.corpus.test.len());
            eprintln!(
                "  {} train / {} test windows; param checksum {sum:016x}; train times {:.3?}",
                self.corpus.train.len(),
                self.corpus.test.len(),
                self.times
            );
        }
    }
}

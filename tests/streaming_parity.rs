//! Streaming ↔ batch parity suite: the incremental inference engine must
//! be **bit-identical** to the batch frozen path at every push, for every
//! way the same samples can arrive.
//!
//! [`StreamingCamal`] (grid-window streaming): at every emitted prefix the
//! tri-state status series equals a full
//! `FrozenCamal::predict_status_into` on the same samples — the
//! earlier-window-wins tail merge, gap-degraded `Unknown` windows and all
//! — and every absorbed clean window's probability / CAM / status slab
//! equals the batch plan's output bitwise. Property-tested across push
//! stride × fault class (the `DS_FAULT` grammar, applied in-process with
//! varied seeds) × worker-team size.

use std::sync::OnceLock;

use devicescope::camal::{Camal, CamalConfig, StreamingCamal};
use devicescope::datasets::labels::Corpus;
use devicescope::datasets::{ApplianceKind, Dataset, DatasetConfig, DatasetPreset};
use devicescope::timeseries::faults::FaultPlan;
use devicescope::timeseries::TimeSeries;
use proptest::prelude::*;

const WINDOW: usize = 120;

/// One trained model and one clean multi-window series with a ragged
/// tail — built once per binary.
fn fixture() -> &'static (Camal, TimeSeries) {
    static FIXTURE: OnceLock<(Camal, TimeSeries)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = Dataset::generate(DatasetConfig::tiny(DatasetPreset::UkdaleLike, 4, 2));
        let mut corpus = Corpus::build(&ds, ApplianceKind::Kettle, WINDOW);
        corpus.balance_train(2);
        let camal = Camal::train(&corpus, &CamalConfig::fast_test());
        let mut values: Vec<f32> = corpus
            .test
            .iter()
            .take(5)
            .flat_map(|w| w.values.iter().copied())
            .collect();
        values.extend(&corpus.train[0].values[..47]);
        let series = TimeSeries::from_values(0, 60, values);
        assert!(!series.has_missing());
        (camal, series)
    })
}

/// Restore the ambient worker team when a property bails early.
struct ThreadGuard;
impl Drop for ThreadGuard {
    fn drop(&mut self) {
        ds_par::set_threads(None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Streamed status (and absorbed-window artifacts) equal the batch
    /// frozen path bitwise at every push, under every combination of
    /// arrival stride, fault class and team size.
    #[test]
    fn streaming_camal_matches_batch_bitwise(
        stride in prop::sample::select(vec![7usize, 30, 60, 90, 120, 133, 1024]),
        spec in prop::sample::select(vec![
            "",
            "gaps:0.08",
            "nans:0.03",
            "truncate:0.3",
            "spikes:0.02",
            "flat:0.15",
            "gaps:0.05,nans:0.01,truncate:0.1,spikes:0.01,flat:0.05",
        ]),
        fault_seed in 0u64..1_000,
        threads in prop::sample::select(vec![1usize, 2]),
    ) {
        let (camal, clean) = fixture();
        let series = if spec.is_empty() {
            clean.clone()
        } else {
            FaultPlan::parse(spec).unwrap().with_seed(fault_seed).apply(clean).series
        };
        let _guard = ThreadGuard;
        ds_par::set_threads(Some(threads));
        let mut batch = camal.freeze();
        let mut stream =
            StreamingCamal::new(camal.freeze(), WINDOW, series.len().div_ceil(WINDOW).max(1));
        let values = series.values();
        let mut stream_states = Vec::new();
        let mut batch_states = Vec::new();
        let mut lo = 0usize;
        while lo < values.len() {
            let hi = (lo + stride).min(values.len());
            stream.push_values(&values[lo..hi]).unwrap();
            stream.status_into(&mut stream_states);
            let prefix = series.slice(0, hi).unwrap();
            batch.predict_status_into(&prefix, WINDOW, &mut batch_states);
            prop_assert_eq!(
                &stream_states, &batch_states,
                "prefix {} (stride {}, spec {:?}) diverged",
                hi, stride, spec
            );
            lo = hi;
        }
        // Absorbed clean windows replay the batch plan's artifacts bitwise.
        for i in 0..stream.windows_completed() {
            if !stream.window_clean(i) {
                continue;
            }
            let out = batch.localize_batch_into(&[&values[i * WINDOW..(i + 1) * WINDOW]]);
            prop_assert_eq!(
                stream.window_probability(i).to_bits(),
                out.probability(0).to_bits(),
                "window {} probability", i
            );
            prop_assert_eq!(stream.window_detected(i), out.detected(0), "window {} flag", i);
            prop_assert_eq!(stream.window_status(i), out.status(0), "window {} status", i);
            let cam_same = stream
                .window_cam(i)
                .iter()
                .zip(out.cam(0))
                .all(|(a, b)| a.to_bits() == b.to_bits());
            prop_assert!(cam_same, "window {} CAM bits diverged", i);
        }
    }
}

//! Chaos suite for gap-aware tri-state serving: under every `DS_FAULT`
//! fault class the serving path must
//!
//! 1. never panic (mutable and frozen paths alike),
//! 2. surface removed readings as `Status::Unknown` — never a fabricated
//!    `Off` — and tick the `serve.*` degradation counters,
//! 3. keep **bit-identical** On/Off decisions on windows the faults did
//!    not touch, and
//! 4. partition every timestep into exactly one of On/Off/Unknown, with
//!    `Unknown` exactly on gap-owned or uncovered regions (property test
//!    over arbitrary gap patterns × window lengths × series lengths).

use std::sync::OnceLock;

use devicescope::camal::{Camal, CamalConfig};
use devicescope::datasets::labels::Corpus;
use devicescope::datasets::{ApplianceKind, Dataset, DatasetConfig, DatasetPreset};
use devicescope::timeseries::faults::FaultPlan;
use devicescope::timeseries::TimeSeries;
use proptest::prelude::*;

const WINDOW: usize = 120;

/// One model and one complete (gap-free) series, trained once for the
/// whole binary — the contract under test is serving, not training.
fn fixture() -> &'static (Camal, TimeSeries) {
    static FIXTURE: OnceLock<(Camal, TimeSeries)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = Dataset::generate(DatasetConfig::tiny(DatasetPreset::UkdaleLike, 4, 2));
        let mut corpus = Corpus::build(&ds, ApplianceKind::Kettle, WINDOW);
        corpus.balance_train(2);
        let camal = Camal::train(&corpus, &CamalConfig::fast_test());
        // Gap-free corpus windows plus a ragged 50-sample tail, so the
        // end-aligned tail window is exercised and every later `Unknown`
        // is attributable to an injected fault.
        let mut values: Vec<f32> = corpus
            .test
            .iter()
            .take(6)
            .flat_map(|w| w.values.iter().copied())
            .collect();
        values.extend(&corpus.train[0].values[..50]);
        let series = TimeSeries::from_values(0, 60, values);
        assert!(!series.has_missing());
        (camal, series)
    })
}

/// Every fault class alone, plus all of them stacked.
const PLANS: &[&str] = &[
    "gaps:0.08",
    "nans:0.03",
    "truncate:0.3",
    "spikes:0.02",
    "flat:0.15",
    "gaps:0.05,nans:0.01,truncate:0.1,spikes:0.01,flat:0.05",
];

#[test]
fn serving_survives_every_fault_class() {
    let (camal, clean) = fixture();
    let mut frozen = camal.freeze();
    let clean_status = camal.predict_status_series(clean, WINDOW);
    assert_eq!(
        clean_status.unknown_count(),
        0,
        "clean run must abstain nowhere"
    );

    for spec in PLANS {
        let plan = FaultPlan::parse(spec).unwrap();
        let faulted = plan.apply(clean);
        // (1) No panic, and the two serving paths agree exactly.
        let mutable = camal.predict_status_series(&faulted.series, WINDOW);
        let froz = frozen.predict_status_series(&faulted.series, WINDOW);
        assert_eq!(mutable.states(), froz.states(), "{spec}: paths disagree");
        assert_eq!(mutable.len(), faulted.series.len());

        // (2) Removed readings abstain; they are never served as Off.
        for (i, &gone) in faulted.missing.iter().enumerate() {
            if gone {
                assert!(
                    mutable.states()[i].is_unknown(),
                    "{spec}: missing sample {i} served a fabricated decision"
                );
            }
        }
        // In-band removal (gaps, NaN scatter) must abstain somewhere;
        // truncation removes the tail outright, leaving no hole inside
        // the (shorter) served series, so it is exempt.
        if faulted.missing.iter().any(|&m| m) {
            assert!(
                mutable.has_unknown(),
                "{spec}: removal fault left no Unknown"
            );
        }

        // (3) Aligned windows no fault touched see identical input in both
        // runs (truncation only removes the tail), so their decisions are
        // bit-identical to the unfaulted run.
        let len = faulted.series.len();
        for lo in (0..(len / WINDOW) * WINDOW).step_by(WINDOW) {
            if (lo..lo + WINDOW).any(|i| faulted.touched(i)) {
                continue;
            }
            assert_eq!(
                &mutable.states()[lo..lo + WINDOW],
                &clean_status.states()[lo..lo + WINDOW],
                "{spec}: decisions flipped in the untouched window at {lo}"
            );
        }
    }
}

#[test]
fn degradation_ticks_the_serve_counters() {
    let (camal, clean) = fixture();
    ds_obs::set_level(ds_obs::Level::Summary);
    let degraded_before = ds_obs::global().counter_get("serve.degraded_windows");
    let unknown_before = ds_obs::global().counter_get("serve.unknown_samples");

    let faulted = FaultPlan::parse("gaps:0.1").unwrap().apply(clean);
    let status = camal.predict_status_series(&faulted.series, WINDOW);
    ds_obs::set_level(ds_obs::Level::Off);

    assert!(status.has_unknown());
    assert!(
        ds_obs::global().counter_get("serve.degraded_windows") > degraded_before,
        "gap windows must tick serve.degraded_windows"
    );
    assert!(
        ds_obs::global().counter_get("serve.unknown_samples")
            >= unknown_before + status.unknown_count() as u64,
        "abstentions must tick serve.unknown_samples"
    );
}

/// The expected tri-state coverage of one series under the gap-aware
/// plan, reimplemented independently of the serving code: aligned
/// non-overlapping windows own their range; when the length is not a
/// multiple, one end-aligned window owns the ragged suffix; a window with
/// any missing sample abstains over everything it owns; anything shorter
/// than one window is entirely uncovered.
fn expected_unknown(values: &[f32], w: usize) -> Vec<bool> {
    let len = values.len();
    let mut unknown = vec![true; len];
    if len < w {
        return unknown;
    }
    let aligned_end = (len / w) * w;
    let mut owners: Vec<(usize, usize, usize)> = (0..aligned_end / w)
        .map(|k| (k * w, k * w, k * w + w))
        .collect();
    if len > aligned_end {
        owners.push((len - w, aligned_end, len));
    }
    for (lo, own_from, own_to) in owners {
        let gap = values[lo..lo + w].iter().any(|v| v.is_nan());
        for u in &mut unknown[own_from..own_to] {
            *u = gap;
        }
    }
    unknown
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (4) Partition property: every timestep is classified exactly once,
    /// `Unknown` exactly on gap-owned or uncovered regions, and on a clean
    /// series the binary view matches per-window localization (the
    /// pre-tri-state behavior) over the aligned prefix.
    #[test]
    fn tri_state_partitions_every_timestep(
        w in prop::sample::select(vec![24usize, 40, 60]),
        len in 0usize..400,
        gap_seed in 0u64..1_000,
        gap_density in 0usize..4,
    ) {
        let (camal, source) = fixture();
        // Deterministic pseudo-gap mask from the seed: density 0 leaves the
        // series clean, higher densities scatter more NaN.
        let mut values: Vec<f32> = source.values().iter().copied().cycle().take(len).collect();
        if gap_density > 0 {
            let mut state = gap_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for v in values.iter_mut() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state % 17 < gap_density as u64 * 2 {
                    *v = f32::NAN;
                }
            }
        }
        let expected = expected_unknown(&values, w);
        let series = TimeSeries::from_values(0, 60, values.clone());
        let status = camal.predict_status_series(&series, w);

        prop_assert_eq!(status.len(), len);
        for (i, s) in status.states().iter().enumerate() {
            // Exactly one classification per timestep, and Unknown iff the
            // timestep is gap-owned or uncovered.
            prop_assert_eq!(
                s.is_unknown(), expected[i],
                "timestep {} misclassified (state {:?})", i, s
            );
            prop_assert!(s.is_on() as u8 + s.is_off() as u8 + s.is_unknown() as u8 == 1);
        }
        // Clean series, aligned prefix: the binary view reproduces plain
        // per-window localization, i.e. pre-change behavior.
        if gap_density == 0 && len >= w {
            let binary = status.as_binary();
            for lo in (0..(len / w) * w).step_by(w) {
                let out = camal.localize(&values[lo..lo + w]);
                prop_assert_eq!(
                    &binary[lo..lo + w], out.status.as_slice(),
                    "aligned window at {} diverged from direct localization", lo
                );
            }
        }
    }
}

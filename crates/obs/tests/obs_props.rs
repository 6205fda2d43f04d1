//! Property and concurrency tests for ds-obs: bucket boundaries,
//! quantile monotonicity, counter atomicity under scoped threads,
//! JSONL round-trips, and the disabled-mode "emits nothing" guarantee.
//!
//! Tests that touch process-global state (level, sink, global registry)
//! serialize through `GLOBAL_LOCK`; everything else runs on private
//! `Registry` instances and can interleave freely.

use ds_obs::{Buckets, Registry};
use parking_lot::Mutex;
use proptest::prelude::*;

static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

proptest! {
    /// Quantiles come from cumulative bucket ranks, so they must be
    /// monotone in q and bracketed by the data for any observation set.
    #[test]
    fn quantiles_are_monotone(values in prop::collection::vec(0.0f64..1.0, 1..200)) {
        let registry = Registry::new();
        for &v in &values {
            registry.observe("h", v, Buckets::Unit);
        }
        let s = registry.histogram_summary("h").unwrap();
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert!(s.p50 <= s.p90, "p50 {} > p90 {}", s.p50, s.p90);
        prop_assert!(s.p90 <= s.p99, "p90 {} > p99 {}", s.p90, s.p99);
        // Each quantile is an upper bucket bound, so it sits at or above
        // the true minimum and at or below one bucket past the maximum.
        prop_assert!(s.p50 >= s.min);
        prop_assert!(s.p99 <= (s.max * 20.0).ceil() / 20.0 + 1e-12);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
    }

    /// A single observation lands in the bucket whose upper bound is the
    /// smallest bound >= value, and every quantile reports that bound.
    #[test]
    fn single_value_lands_on_enclosing_bound(v in 0.0f64..=1.0) {
        let registry = Registry::new();
        registry.observe("one", v, Buckets::Unit);
        let s = registry.histogram_summary("one").unwrap();
        let expected_bound = (v * 20.0).ceil().max(1.0) / 20.0;
        prop_assert!((s.p50 - expected_bound).abs() < 1e-9,
            "value {} -> p50 {} (expected bound {})", v, s.p50, expected_bound);
        prop_assert_eq!(s.p50, s.p99);
        prop_assert_eq!(s.min, v);
        prop_assert_eq!(s.max, v);
    }

    /// Values past the last bound go to overflow, and quantiles report
    /// the observed max rather than a fictional bound.
    #[test]
    fn overflow_reports_observed_max(v in 1.0f64..1e9) {
        let registry = Registry::new();
        registry.observe("over", 1.0 + v, Buckets::Unit);
        let s = registry.histogram_summary("over").unwrap();
        prop_assert_eq!(s.p99, 1.0 + v);
    }

    /// Counter reads always equal the sum of increments, whatever the
    /// interleaving of names and deltas.
    #[test]
    fn counters_sum_exactly(deltas in prop::collection::vec((0u8..3, 0u64..1000), 0..100)) {
        let registry = Registry::new();
        let mut expected = [0u64; 3];
        for &(slot, delta) in &deltas {
            let name = ["a", "b", "c"][slot as usize];
            registry.counter_add(name, delta);
            expected[slot as usize] += delta;
        }
        prop_assert_eq!(registry.counter_get("a"), expected[0]);
        prop_assert_eq!(registry.counter_get("b"), expected[1]);
        prop_assert_eq!(registry.counter_get("c"), expected[2]);
    }
}

/// Increments from many scoped threads — including first-touch races
/// on a fresh name — must never be lost.
#[test]
fn counter_atomicity_under_threads() {
    let registry = Registry::new();
    const THREADS: usize = 8;
    const INCREMENTS: u64 = 10_000;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..INCREMENTS {
                    registry.counter_add("shared", 1);
                }
            });
        }
    });
    assert_eq!(registry.counter_get("shared"), THREADS as u64 * INCREMENTS);
}

/// Histogram recording from many threads keeps an exact total count.
#[test]
fn histogram_counts_under_threads() {
    let registry = Registry::new();
    let registry = &registry;
    std::thread::scope(|scope| {
        for t in 0..4 {
            scope.spawn(move || {
                for i in 0..5_000u64 {
                    let v = ((t * 5_000 + i) % 100) as f64 / 100.0;
                    registry.observe("p", v, Buckets::Unit);
                }
            });
        }
    });
    assert_eq!(registry.histogram_summary("p").unwrap().count, 20_000);
}

/// Events written to the JSONL file parse back, line by line, into the
/// same objects the in-memory ring reports.
#[test]
fn jsonl_round_trip() {
    let _guard = GLOBAL_LOCK.lock();
    ds_obs::reset();
    ds_obs::set_level(ds_obs::Level::Summary);

    let path = std::env::temp_dir().join(format!("ds_obs_roundtrip_{}.jsonl", std::process::id()));
    ds_obs::init_sink(&path).expect("sink file");
    ds_obs::event!("train_epoch", epoch = 0usize, loss = 0.75f32);
    ds_obs::event!("train_epoch", epoch = 1usize, loss = 0.5f32);
    ds_obs::event!("detect", device = "kettle", prob = 0.9f64, hit = true);
    ds_obs::flush_sink();

    let text = std::fs::read_to_string(&path).expect("read sink file");
    let parsed: Vec<ds_obs::Value> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("line parses"))
        .collect();
    assert_eq!(parsed.len(), 3);
    assert_eq!(parsed[0].get("kind").unwrap().as_str(), Some("train_epoch"));
    assert_eq!(parsed[0].get("seq").unwrap().as_u64(), Some(0));
    assert_eq!(parsed[2].get("device").unwrap().as_str(), Some("kettle"));
    assert_eq!(parsed[2].get("hit").unwrap().as_bool(), Some(true));
    assert_eq!(parsed[2].get("prob").unwrap().as_f64(), Some(0.9));

    let snapshot = ds_obs::events_snapshot();
    assert_eq!(snapshot.as_array().unwrap().as_slice(), parsed.as_slice());

    ds_obs::reset();
    ds_obs::set_level(ds_obs::Level::Off);
    let _ = std::fs::remove_file(&path);
}

/// With the level off, nothing is recorded anywhere: no metrics, no
/// spans, no events, and no file on disk.
#[test]
fn disabled_mode_emits_nothing() {
    let _guard = GLOBAL_LOCK.lock();
    ds_obs::reset();
    ds_obs::set_level(ds_obs::Level::Off);

    let path = std::env::temp_dir().join(format!("ds_obs_disabled_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    ds_obs::init_sink(&path).expect("no-op init");
    {
        let _span = ds_obs::span!("never");
        ds_obs::counter_add("never", 1);
        ds_obs::gauge_set("never", 1.0);
        ds_obs::observe("never", 0.5, Buckets::Unit);
        ds_obs::event!("never", x = 1u64);
    }

    assert!(!path.exists(), "disabled init_sink must not create a file");
    let snap = ds_obs::snapshot();
    assert_eq!(snap.get("level").unwrap().as_str(), Some("off"));
    assert_eq!(snap.get("events_recorded").unwrap().as_u64(), Some(0));
    for section in ["counters", "gauges", "histograms", "spans"] {
        let obj = snap.get(section).unwrap().as_object().unwrap();
        assert!(obj.is_empty(), "{section} should be empty when disabled");
    }
}

/// Overflowing a tiny trace ring drops whole spans (counted) but never
/// unpairs: every recorded begin keeps its recorded end, and the buffer
/// never exceeds its capacity.
#[test]
fn trace_ring_overflow_keeps_pairing() {
    let _guard = GLOBAL_LOCK.lock();
    ds_obs::reset();
    ds_obs::set_trace_capacity(16);
    ds_obs::set_level(ds_obs::Level::Trace);

    const SPANS: u64 = 64;
    // A fresh thread so the probe gets its own (16-event) buffer rather
    // than the test thread's default-capacity one.
    std::thread::spawn(|| {
        for _ in 0..SPANS {
            let _s = ds_obs::span!("ring_probe");
        }
    })
    .join()
    .expect("probe thread");
    ds_obs::set_level(ds_obs::Level::Off);

    let dropped = ds_obs::dropped_spans();
    assert!(dropped > 0, "64 spans must overflow a 16-event ring");
    let mut recorded_spans = 0u64;
    for (tid, events) in ds_obs::trace_events() {
        assert!(events.len() <= 16, "tid {tid} exceeded its capacity");
        let mut begins: Vec<u64> = events
            .iter()
            .filter(|e| e.begin)
            .map(|e| e.span_id)
            .collect();
        let mut ends: Vec<u64> = events
            .iter()
            .filter(|e| !e.begin)
            .map(|e| e.span_id)
            .collect();
        recorded_spans += begins.len() as u64;
        begins.sort_unstable();
        ends.sort_unstable();
        assert_eq!(begins, ends, "tid {tid} has an unpaired begin or end");
    }
    // Nothing vanished silently: every span is either in the buffer or
    // in the drop counter.
    assert_eq!(recorded_spans + dropped, SPANS);

    ds_obs::set_trace_capacity(ds_obs::DEFAULT_CAPACITY);
    ds_obs::reset();
}

/// Nested spans aggregate under slash-joined hierarchical paths.
#[test]
fn span_hierarchy_aggregates() {
    let _guard = GLOBAL_LOCK.lock();
    ds_obs::reset();
    ds_obs::set_level(ds_obs::Level::Summary);

    for _ in 0..3 {
        let _outer = ds_obs::span!("outer");
        for _ in 0..2 {
            let _inner = ds_obs::span!("inner");
        }
    }
    let snap = ds_obs::snapshot();
    let spans = snap.get("spans").unwrap();
    assert_eq!(
        spans.get("outer").unwrap().get("count").unwrap().as_u64(),
        Some(3)
    );
    assert_eq!(
        spans
            .get("outer/inner")
            .unwrap()
            .get("count")
            .unwrap()
            .as_u64(),
        Some(6)
    );
    let rendered = ds_obs::render_summary();
    assert!(rendered.contains("outer"));
    assert!(
        rendered.contains("  inner"),
        "expected indented child:\n{rendered}"
    );

    ds_obs::reset();
    ds_obs::set_level(ds_obs::Level::Off);
}

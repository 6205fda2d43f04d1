//! ds-obs — a zero-dependency observability layer for the DeviceScope
//! workspace: counters, gauges, and fixed-bucket histograms with
//! p50/p90/p99 summaries; RAII span timers that aggregate into a
//! hierarchical wall-time profile; and a structured JSONL event sink.
//!
//! # Cheap when disabled
//!
//! Every recording entry point starts with [`enabled`] — a single relaxed
//! atomic load plus a branch. With `DS_OBS=off` (the default, so tests
//! stay silent) no locks are taken, no allocations happen, no files are
//! opened, and [`snapshot`] reports empty sections. The perf suite's
//! `obs_overhead_off` and `obs_overhead_trace` cases (ds-bench `perf`,
//! judged by `regress`) gate the disabled-path cost below 2% and the
//! trace-mode cost below 5% of an uninstrumented run.
//!
//! # Verbosity switch
//!
//! The `DS_OBS` environment variable selects the [`Level`]:
//!
//! | value                | effect                                            |
//! |----------------------|---------------------------------------------------|
//! | `off` / `0` / unset  | everything is a no-op                             |
//! | `summary` / `1`      | metrics + spans aggregate; events go to the sink  |
//! | `trace` / `2`        | as `summary`, plus events echo to stderr and every span begin/end is recorded into per-thread trace buffers (exportable to Chrome trace JSON via `DS_TRACE=path.json`) |
//!
//! Unrecognized values fall back to `off` so a typo can never break a
//! pipeline. [`set_level`] overrides the environment programmatically
//! (used by tests and the app).
//!
//! # Quick tour
//!
//! ```
//! use ds_obs as obs;
//!
//! obs::set_level(obs::Level::Summary);
//! {
//!     let _span = obs::span!("epoch");
//!     obs::counter_add("windows_seen", 128);
//!     obs::observe("detect_prob", 0.83, obs::Buckets::Unit);
//!     obs::event!("train_epoch", epoch = 3usize, loss = 0.25f32);
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.get("counters").unwrap().get("windows_seen").unwrap().as_u64(), Some(128));
//! println!("{}", obs::render_summary());
//! # obs::reset();
//! # obs::set_level(obs::Level::Off);
//! ```

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

mod alloc;
mod budget;
mod chrome;
mod registry;
mod render;
mod sink;
mod span;
mod trace;

pub use alloc::{alloc_bytes, alloc_count};
pub use budget::{budget_verdicts, declare_budget, BudgetVerdict, Quantile};
pub use chrome::{
    export_chrome_trace, export_trace_from_env, validate_chrome_trace, TraceCheck, TraceStats,
    TRACE_ENV,
};
pub use registry::{Buckets, HistogramSummary, Registry};
pub use render::{render_profile, render_summary};
pub use sink::{event_record, events_snapshot, flush_sink, init_sink, sink_path};
pub use span::{current_span_id, span, Span};
pub use trace::{
    dropped_spans, events as trace_events, remote_parent_scope, set_trace_capacity,
    thread_activity, RemoteParentGuard, ThreadActivity, TraceEvent, DEFAULT_CAPACITY,
};

/// Re-exported so callers (and the [`event!`] macro) can build event
/// fields without depending on serde_json themselves.
pub use serde_json::Value;

/// Observability verbosity, ordered: `Off < Summary < Trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Everything is a no-op; the default.
    Off,
    /// Aggregate metrics and spans; write events to the JSONL sink.
    Summary,
    /// `Summary`, plus each event is echoed to stderr as it happens.
    Trace,
}

impl Level {
    /// Parses a `DS_OBS` value. Unknown strings map to `Off` (observability
    /// must never turn a typo into a broken run).
    pub fn parse(s: &str) -> Level {
        match s.trim().to_ascii_lowercase().as_str() {
            "summary" | "1" => Level::Summary,
            "trace" | "2" => Level::Trace,
            _ => Level::Off,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Summary => "summary",
            Level::Trace => "trace",
        }
    }
}

/// Environment variable that selects the level.
pub const ENV_VAR: &str = "DS_OBS";

const LEVEL_UNSET: u8 = u8::MAX;

/// Cached level; `LEVEL_UNSET` until first query resolves `DS_OBS`.
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// Current level, resolving `DS_OBS` on first call and caching the result.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Summary,
        2 => Level::Trace,
        _ => {
            let resolved = std::env::var(ENV_VAR)
                .map(|v| Level::parse(&v))
                .unwrap_or(Level::Off);
            LEVEL.store(resolved as u8, Ordering::Relaxed);
            resolved
        }
    }
}

/// Overrides the level for the rest of the process (or until the next
/// call). Takes precedence over `DS_OBS`.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// True when any recording should happen. This is the fast path every
/// instrumentation site checks first: one relaxed load, one compare.
#[inline]
pub fn enabled() -> bool {
    let raw = LEVEL.load(Ordering::Relaxed);
    if raw == LEVEL_UNSET {
        return level() != Level::Off;
    }
    raw != Level::Off as u8
}

/// The process-wide metric registry behind the free-function facade.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Adds `delta` to the named monotonic counter. No-op when disabled.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if enabled() {
        global().counter_add(name, delta);
    }
}

/// Sets the named gauge to `value` (last write wins). No-op when disabled.
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if enabled() {
        global().gauge_set(name, value);
    }
}

/// Records `value` into the named fixed-bucket histogram, creating it
/// with `buckets` on first use. No-op when disabled.
#[inline]
pub fn observe(name: &str, value: f64, buckets: Buckets) {
    if enabled() {
        global().observe(name, value, buckets);
    }
}

/// Full state as a `serde_json::Value`:
/// `{level, counters, gauges, histograms, spans, slo, events_recorded}`.
/// Benches embed this into their JSON reports. Evaluating the `slo`
/// section ticks budget burn counters first, so they appear coherently
/// in the same snapshot.
pub fn snapshot() -> Value {
    let slo = budget::snapshot();
    let mut snap = global().snapshot();
    if let Value::Object(map) = &mut snap {
        map.insert("level".to_string(), Value::from(level().as_str()));
        map.insert("slo".to_string(), slo);
        map.insert(
            "events_recorded".to_string(),
            Value::from(sink::events_recorded()),
        );
    }
    snap
}

/// Clears all counters, gauges, histograms, span stats, trace buffers,
/// budget burn state, and buffered events (the sink file, if any, is
/// closed). SLO budget *declarations* survive. Intended for tests and
/// the app's `obs reset`.
pub fn reset() {
    global().reset();
    sink::reset();
    trace::reset();
    budget::reset();
}

/// Installs a process panic hook (once; chains any previously installed
/// hook) that preserves telemetry from a crashing run: it records a
/// `panic` event, appends a final full [`snapshot`] event, flushes the
/// JSONL sink, and — when `DS_TRACE` is set — exports the Chrome trace.
/// A run dying under `DS_FAULT` thus still leaves usable evidence on
/// disk.
pub fn install_panic_hook() {
    static INSTALLED: std::sync::Once = std::sync::Once::new();
    INSTALLED.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if enabled() {
                let message = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| info.payload().downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string payload>".to_string());
                let location = info
                    .location()
                    .map(|l| format!("{}:{}", l.file(), l.line()))
                    .unwrap_or_else(|| "<unknown>".to_string());
                event_record(
                    "panic",
                    vec![
                        ("message", Value::from(message)),
                        ("location", Value::from(location)),
                    ],
                );
                event_record("final_snapshot", vec![("snapshot", snapshot())]);
                flush_sink();
                if let Some((path, result)) = export_trace_from_env() {
                    match result {
                        Ok(stats) => eprintln!(
                            "ds-obs: panic trace exported to {} ({} events)",
                            path.display(),
                            stats.events
                        ),
                        Err(e) => {
                            eprintln!(
                                "ds-obs: panic trace export to {} failed: {e}",
                                path.display()
                            )
                        }
                    }
                }
            }
            previous(info);
        }));
    });
}

/// Starts an RAII span timer: `let _guard = span!("conv1d_fwd");`.
/// Nested spans aggregate under a `/`-joined hierarchical path.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Records a structured event: `event!("train_epoch", epoch = 3, loss = l)`.
/// Field values go through `ds_obs::Value::from`, so any primitive,
/// `&str`, or `String` works. No-op (fields not even evaluated) when
/// disabled.
#[macro_export]
macro_rules! event {
    ($kind:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::event_record(
                $kind,
                vec![$((stringify!($key), $crate::Value::from($val))),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("off"), Level::Off);
        assert_eq!(Level::parse("0"), Level::Off);
        assert_eq!(Level::parse("SUMMARY"), Level::Summary);
        assert_eq!(Level::parse("1"), Level::Summary);
        assert_eq!(Level::parse(" trace "), Level::Trace);
        assert_eq!(Level::parse("2"), Level::Trace);
        assert_eq!(Level::parse("bogus"), Level::Off);
        assert_eq!(Level::parse(""), Level::Off);
    }

    #[test]
    fn level_ordering() {
        assert!(Level::Off < Level::Summary);
        assert!(Level::Summary < Level::Trace);
    }
}

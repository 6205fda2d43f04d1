//! Closed-loop load harness for the ds-serve HTTP server,
//! behind the perf suite's `serve_throughput` case.
//!
//! Simulates a fleet of meters reporting at mixed cadences — 30 s, 1 min
//! and 10 min, the reporting intervals of real smart-meter deployments —
//! by flattening the per-meter schedules tick by tick into one request
//! sequence, then replaying that sequence from a fixed set of keep-alive
//! HTTP connections in closed loop (every connection fires its next
//! request the moment the previous response lands, so the server sees
//! sustained concurrency rather than paced arrivals).
//!
//! Three contracts are measured, not assumed:
//!
//! - **Decisions**: every 200 response is diffed against a per-request
//!   oracle computed with direct [`ds_camal::FrozenCamal`] calls. The
//!   server must reproduce the detection flag and status mask
//!   exactly and the probability within `1e-6` (a shortest-round-trip
//!   float survives the JSON hop well inside that). `flips` counts
//!   violations; a published run has zero.
//! - **Allocations**: the server's `steady_allocs` counter (heap events
//!   inside kernel calls, measured by the workers themselves)
//!   must read zero after warmup whenever ds-obs recording is off.
//! - **Backpressure**: a second, deliberately tiny server (one worker,
//!   shallow queue) is burst-loaded until the admission bound trips; the
//!   probe asserts 503s appear *only* under that bound and that a fresh
//!   request succeeds once the burst drains.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ds_camal::Camal;
use ds_serve::{Client, ModelRegistry, ServeConfig, Server};
use serde_json::Value;

use crate::perf::PerfScale;

/// Dataset/appliance identity the harness registers its model under.
const PRESET: &str = "BENCH";
const APPLIANCE: &str = "kettle";

/// Load-phase shape. [`LoadConfig::from_scale`] derives it from the perf
/// suite's [`PerfScale`] so `--smoke` and unit tests shrink coherently.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Samples per request window (shorter than the perf window: meters
    /// report short recent slices, not 12 h batches).
    pub window: usize,
    /// Simulated meters in the fleet.
    pub meters: usize,
    /// Concurrent keep-alive client connections replaying the schedule.
    pub connections: usize,
    /// Total requests in the timed phase.
    pub requests: usize,
    /// Inference worker threads for the main server.
    pub workers: usize,
}

impl LoadConfig {
    /// Derive a load shape from the perf-suite scale: full scale maps to
    /// a ~1600-meter fleet and 4000 requests over 120-sample windows.
    pub fn from_scale(scale: PerfScale) -> LoadConfig {
        LoadConfig {
            window: (scale.window / 6).max(32),
            meters: (scale.batch * scale.iters * 10).max(8),
            connections: 6,
            requests: (scale.batch * scale.iters * 25).max(64),
            workers: ds_par::threads(),
        }
    }
}

/// What one run measured, for the `serve_throughput` perf case.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests in the timed phase.
    pub requests: u64,
    /// Wall time of the timed phase, seconds.
    pub elapsed_secs: f64,
    /// Served throughput over the timed phase.
    pub req_per_sec: f64,
    /// Median per-request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-request latency, milliseconds (SLO: 50 ms).
    pub p99_ms: f64,
    /// Wall time of the direct-call baseline: the same request sequence
    /// as sequential single-window `FrozenCamal` calls, no server.
    pub direct_secs: f64,
    /// Responses whose decision diverged from the direct-call oracle
    /// (detection flag, status mask, or probability beyond 1e-6).
    pub flips: u64,
    /// Non-200 responses in the timed phase (must be zero: the main
    /// server is sized so admission control never trips under the
    /// schedule).
    pub errors: u64,
    /// Heap allocations inside kernel calls, server-measured.
    pub steady_allocs: u64,
    /// Successful streaming `push` requests in the stream smoke.
    pub push_oks: u64,
    /// 200s observed while burst-loading the shallow-queue probe server.
    pub overload_ok: u64,
    /// 503s observed under the same burst (must be > 0: the bound works).
    pub overload_rejected: u64,
    /// Whether a fresh request succeeded after the burst drained.
    pub recovered: bool,
}

/// Meter reporting period in 30 s ticks: half the fleet reports every
/// 30 s, a third every minute, the rest every 10 minutes.
fn meter_period(meter: usize) -> usize {
    match meter % 6 {
        0..=2 => 1,
        3 | 4 => 2,
        _ => 20,
    }
}

/// Flatten the per-meter cadences, tick by tick, into exactly
/// `requests` `(meter, tick)` entries.
fn schedule(config: &LoadConfig) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(config.requests);
    let mut tick = 0usize;
    while out.len() < config.requests {
        for meter in 0..config.meters {
            let period = meter_period(meter);
            if tick % period == meter % period {
                out.push((meter, tick));
                if out.len() == config.requests {
                    return out;
                }
            }
        }
        tick += 1;
    }
    out
}

/// The window a meter reports at a tick: deterministic, varied, and
/// non-degenerate (same generator family as the perf serving windows).
fn meter_window(meter: usize, tick: usize, window: usize) -> Vec<f32> {
    (0..window)
        .map(|i| {
            ((meter * 13 + tick * 7 + i) % 29) as f32 * 55.0
                + ((i + tick) as f32 * 0.11).sin() * 20.0
        })
        .collect()
}

fn window_body(values: &[f32]) -> String {
    let mut s = String::with_capacity(values.len() * 8 + 64);
    s.push_str("{\"preset\":\"");
    s.push_str(PRESET);
    s.push_str("\",\"appliance\":\"");
    s.push_str(APPLIANCE);
    s.push_str("\",\"values\":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{v}"));
    }
    s.push_str("]}");
    s
}

fn push_body(meter: usize, window: usize, values: &[f32]) -> String {
    let mut s = String::with_capacity(values.len() * 8 + 96);
    s.push_str(&format!(
        "{{\"meter\":\"m{meter}\",\"preset\":\"{PRESET}\",\"appliance\":\"{APPLIANCE}\",\"window\":{window},\"values\":["
    ));
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{v}"));
    }
    s.push_str("]}");
    s
}

/// What the direct path said about one request's window.
struct Oracle {
    probability: f32,
    detected: bool,
    status: String,
}

fn percentile_ms(sorted_nanos: &[u64], q: f64) -> f64 {
    if sorted_nanos.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_nanos.len() - 1) as f64 * q).round() as usize;
    sorted_nanos[rank] as f64 / 1e6
}

fn registry_with(model: &Camal, window: usize) -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new());
    registry.register(PRESET, APPLIANCE, window, model.clone(), Vec::new());
    registry
}

/// Run the full harness: direct baseline + oracle, timed served phase,
/// streaming push smoke, and the shallow-queue overload probe.
pub fn run(config: &LoadConfig, model: &Camal) -> LoadReport {
    let _span = ds_obs::span!("bench.serve_load");
    let plan_requests = schedule(config);
    let windows: Vec<Vec<f32>> = plan_requests
        .iter()
        .map(|&(meter, tick)| meter_window(meter, tick, config.window))
        .collect();
    // Every 3rd request exercises `detect`; the rest take `localize`
    // (whose status mask makes the oracle comparison strict).
    let bodies: Arc<Vec<(&'static str, String)>> = Arc::new(
        windows
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let path = if i % 3 == 0 {
                    "/api/v1/detect"
                } else {
                    "/api/v1/localize"
                };
                (path, window_body(w))
            })
            .collect(),
    );

    // Direct-call baseline: the same request sequence as sequential
    // single-window plan calls — what a client fleet would pay without
    // the server (per request, no batching). Timed over pure inference;
    // the oracle outputs are collected in a second, untimed pass.
    let mut direct = model.freeze();
    let warmup: Vec<&[f32]> = vec![windows[0].as_slice()];
    let _ = direct.localize_batch_into(&warmup);
    let direct_started = Instant::now();
    for w in &windows {
        let _ = direct.localize_batch_into(&[w.as_slice()]);
    }
    let direct_secs = direct_started
        .elapsed()
        .as_secs_f64()
        .max(f64::MIN_POSITIVE);
    let oracle: Vec<Oracle> = windows
        .iter()
        .map(|w| {
            let batch = direct.localize_batch_into(&[w.as_slice()]);
            Oracle {
                probability: batch.probability(0),
                detected: batch.detected(0),
                status: batch
                    .status(0)
                    .iter()
                    .map(|&s| if s == 1 { '1' } else { '0' })
                    .collect(),
            }
        })
        .collect();

    // Timed served phase: closed-loop clients over keep-alive sockets.
    let server = Server::start(
        ServeConfig {
            workers: config.workers,
            ..ServeConfig::default()
        },
        registry_with(model, config.window),
    )
    .expect("loadtest server binds on a loopback port");
    let addr = server.addr().to_string();
    let next = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();
    let clients: Vec<_> = (0..config.connections.max(1))
        .map(|_| {
            let next = Arc::clone(&next);
            let bodies = Arc::clone(&bodies);
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("loadtest client connects");
                let mut out: Vec<(usize, u16, String, u64)> = Vec::new();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= bodies.len() {
                        return out;
                    }
                    let (path, body) = &bodies[idx];
                    let sent = Instant::now();
                    let (status, reply) =
                        client.post(path, body).expect("loadtest request completes");
                    out.push((idx, status, reply, sent.elapsed().as_nanos() as u64));
                }
            })
        })
        .collect();
    let mut results: Vec<(usize, u16, String, u64)> = Vec::with_capacity(bodies.len());
    for handle in clients {
        results.extend(handle.join().expect("loadtest client thread"));
    }
    let elapsed_secs = started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);

    // Oracle diff, off the clock.
    let mut flips = 0u64;
    let mut errors = 0u64;
    for (idx, status, reply, _) in &results {
        if *status != 200 {
            errors += 1;
            continue;
        }
        let parsed = serde_json::parse_value_complete(reply).expect("response is JSON");
        let probability = parsed
            .get("probability")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        let detected = parsed
            .get("detected")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        let o = &oracle[*idx];
        let delta = (probability - f64::from(o.probability)).abs();
        let status_matches = match parsed.get("status").and_then(Value::as_str) {
            Some(mask) => mask == o.status,
            None => true, // detect responses carry no mask
        };
        // NaN-safe: a missing/NaN probability must count as a flip.
        if detected != o.detected || !status_matches || delta.is_nan() || delta > 1e-6 {
            flips += 1;
        }
    }
    let mut latencies: Vec<u64> = results.iter().map(|&(_, _, _, ns)| ns).collect();
    latencies.sort_unstable();

    // Streaming push smoke (untimed): a few meters stream half-window
    // deltas through per-meter sessions on the same server.
    let mut push_oks = 0u64;
    {
        let mut client = Client::connect(&addr).expect("push client connects");
        let stride = (config.window / 2).max(1);
        for meter in 0..config.meters.min(4) {
            let series = meter_window(meter, 0, config.window * 2);
            for chunk in series.chunks(stride) {
                let body = push_body(meter, config.window, chunk);
                let (status, _) = client
                    .post("/api/v1/push", &body)
                    .expect("push request completes");
                if status == 200 {
                    push_oks += 1;
                }
            }
        }
    }

    let stats = server.stats();
    let steady_allocs = stats.steady_allocs.load(Ordering::Relaxed);
    server.shutdown();

    let (overload_ok, overload_rejected, recovered) = overload_probe(model, config.window);

    LoadReport {
        requests: results.len() as u64,
        elapsed_secs,
        req_per_sec: results.len() as f64 / elapsed_secs,
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
        direct_secs,
        flips,
        errors,
        steady_allocs,
        push_oks,
        overload_ok,
        overload_rejected,
        recovered,
    }
}

/// Burst a deliberately under-provisioned server (one worker, four queue
/// slots) until admission control trips. Returns
/// `(oks, rejected 503s, recovered)` — both counts must be nonzero for
/// the probe to prove anything, and `recovered` shows the 503s stop once
/// the burst drains (backpressure, not a wedge).
fn overload_probe(model: &Camal, window: usize) -> (u64, u64, bool) {
    let probe = Server::start(
        ServeConfig {
            workers: 1,
            queue_depth: 4,
            ..ServeConfig::default()
        },
        registry_with(model, window),
    )
    .expect("probe server binds on a loopback port");
    let addr = probe.addr().to_string();
    let body = Arc::new(window_body(&meter_window(0, 0, window)));
    // Pre-freeze the plan so the burst measures queue admission, not the
    // one-time freeze.
    {
        let mut client = Client::connect(&addr).expect("probe warmup connects");
        let (status, _) = client
            .post("/api/v1/localize", &body)
            .expect("probe warmup completes");
        assert_eq!(status, 200, "probe warmup request must succeed");
    }
    let burst: Vec<_> = (0..24)
        .map(|_| {
            let addr = addr.clone();
            let body = Arc::clone(&body);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("probe client connects");
                let mut ok = 0u64;
                let mut rejected = 0u64;
                for _ in 0..6 {
                    let (status, _) = client
                        .post("/api/v1/localize", &body)
                        .expect("probe request completes");
                    match status {
                        200 => ok += 1,
                        503 => rejected += 1,
                        other => panic!("probe got unexpected status {other}"),
                    }
                }
                (ok, rejected)
            })
        })
        .collect();
    let mut ok = 0u64;
    let mut rejected = 0u64;
    for handle in burst {
        let (o, r) = handle.join().expect("probe client thread");
        ok += o;
        rejected += r;
    }
    // The queue is empty again: a fresh request must succeed.
    let mut client = Client::connect(&addr).expect("recovery client connects");
    let (status, _) = client
        .post("/api/v1/localize", &body)
        .expect("recovery request completes");
    let recovered = status == 200;
    probe.shutdown();
    (ok, rejected, recovered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_mixes_cadences_and_hits_the_request_count() {
        let config = LoadConfig {
            window: 32,
            meters: 24,
            connections: 2,
            requests: 200,
            workers: 1,
        };
        let plan = schedule(&config);
        assert_eq!(plan.len(), 200);
        // Fast meters dominate the flattened schedule; slow meters still
        // appear once the tick horizon passes their period.
        let fast = plan.iter().filter(|&&(m, _)| meter_period(m) == 1).count();
        let slow = plan.iter().filter(|&&(m, _)| meter_period(m) == 20).count();
        assert!(fast > slow, "fast meters must dominate ({fast} vs {slow})");
        assert!(slow > 0, "10-minute meters must still report");
    }

    #[test]
    fn tiny_load_run_is_flip_free_and_backpressure_works() {
        let _obs = crate::perf::OBS_LEVEL_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let tiny = PerfScale {
            batch: 2,
            window: 96,
            iters: 1,
        };
        let config = LoadConfig {
            connections: 3,
            ..LoadConfig::from_scale(tiny)
        };
        let model = crate::perf::trained_serving_model(tiny);
        let report = run(&config, &model);
        assert_eq!(report.requests, config.requests as u64);
        assert_eq!(
            report.flips, 0,
            "served decisions diverged from direct calls"
        );
        assert_eq!(report.errors, 0, "main phase must not be rejected");
        if !ds_obs::enabled() {
            assert_eq!(report.steady_allocs, 0, "batched kernels allocated");
        }
        assert!(report.push_oks > 0, "streaming push smoke got no 200s");
        assert!(
            report.overload_rejected > 0,
            "probe never tripped admission"
        );
        assert!(report.overload_ok > 0, "probe starved every request");
        assert!(report.recovered, "probe did not recover after the burst");
    }
}

//! Concurrency contracts of the ds-serve HTTP server:
//!
//! 1. **Exactly-once freeze** — N threads hammering
//!    [`ModelRegistry::get_or_freeze`] on a cold key perform one freeze
//!    per distinct [`PlanKey`] and all callers share one `Arc` plan.
//! 2. **Zero decision flips under concurrency** — concurrent requests
//!    racing through the job queue onto several workers answer exactly
//!    what the direct in-process plan says about the same window
//!    (probabilities within JSON round-trip tolerance, detection verdicts
//!    and status masks identical).
//! 3. **Concurrency determinism** — the same request set issued
//!    sequentially and at high concurrency yields byte-identical
//!    response bodies: which worker ran a window, and in what order, is
//!    not observable.
//! 4. **Backpressure, not wedge** — a burst against a shallow queue
//!    sheds the excess with 503s, serves the rest, and recovers as soon
//!    as the burst drains.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};

use devicescope::camal::{Camal, CamalConfig, Precision};
use devicescope::datasets::labels::Corpus;
use devicescope::datasets::{ApplianceKind, Dataset, DatasetConfig, DatasetPreset};
use devicescope::serve::{Client, ModelRegistry, PlanKey, ServeConfig, Server};

const WINDOW: usize = 120;
const PRESET: &str = "UKDALE_TEST";
const APPLIANCE: &str = "kettle";
/// A second registration of the same model, so the freeze hammer has two
/// distinct plan keys to race on.
const OTHER_APPLIANCE: &str = "microwave";

/// One trained model, built once per binary.
fn fixture() -> &'static Camal {
    static FIXTURE: OnceLock<Camal> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = Dataset::generate(DatasetConfig::tiny(DatasetPreset::UkdaleLike, 4, 2));
        let mut corpus = Corpus::build(&ds, ApplianceKind::Kettle, WINDOW);
        corpus.balance_train(2);
        Camal::train(&corpus, &CamalConfig::fast_test())
    })
}

fn registry() -> Arc<ModelRegistry> {
    let reg = Arc::new(ModelRegistry::new());
    for appliance in [APPLIANCE, OTHER_APPLIANCE] {
        reg.register(PRESET, appliance, WINDOW, fixture().clone(), Vec::new());
    }
    reg
}

fn key(appliance: &str) -> PlanKey {
    PlanKey {
        preset: PRESET.to_string(),
        appliance: appliance.to_string(),
        window: WINDOW,
        backbone: devicescope::camal::Backbone::ResNet,
        precision: Precision::F32,
    }
}

/// A deterministic non-degenerate request window, distinct per `seed`.
fn request_window(seed: usize) -> Vec<f32> {
    (0..WINDOW)
        .map(|i| ((seed * 13 + i) % 29) as f32 * 55.0 + ((i + seed) as f32 * 0.11).sin() * 20.0)
        .collect()
}

fn localize_body(values: &[f32]) -> String {
    let joined: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    format!(
        "{{\"preset\":\"{PRESET}\",\"appliance\":\"{APPLIANCE}\",\"values\":[{}]}}",
        joined.join(",")
    )
}

#[test]
fn cold_key_freezes_exactly_once_per_plan() {
    let reg = registry();
    let threads = 8;
    let iters = 4;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let reg = Arc::clone(&reg);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut plans = Vec::new();
                for i in 0..iters {
                    // Interleave both keys from every thread so each cell
                    // sees racing first-callers.
                    let appliance = if (t + i) % 2 == 0 {
                        APPLIANCE
                    } else {
                        OTHER_APPLIANCE
                    };
                    plans.push((
                        appliance,
                        reg.get_or_freeze(&key(appliance)).expect("plan freezes"),
                    ));
                }
                plans
            })
        })
        .collect();
    let mut by_key: Vec<(&str, _)> = Vec::new();
    for handle in handles {
        by_key.extend(handle.join().expect("freeze hammer thread"));
    }

    // Two distinct keys were served, so exactly two freezes happened no
    // matter how many callers raced.
    assert_eq!(reg.freeze_count(), 2, "one freeze per distinct PlanKey");
    assert_eq!(reg.frozen_plans().len(), 2);

    // Every caller for a key got the same shared plan.
    for appliance in [APPLIANCE, OTHER_APPLIANCE] {
        let first = by_key
            .iter()
            .find(|(a, _)| *a == appliance)
            .map(|(_, plan)| plan)
            .expect("both keys were exercised");
        for (a, plan) in &by_key {
            if *a == appliance {
                assert!(Arc::ptr_eq(first, plan), "callers share one Arc plan");
            }
        }
    }

    // Warm hits after the race perform no further freezes.
    let _ = reg.get_or_freeze(&key(APPLIANCE)).unwrap();
    assert_eq!(reg.freeze_count(), 2);
}

#[test]
fn unknown_plans_and_precision_fields_fail_cheaply() {
    let reg = registry();
    let missing = PlanKey {
        appliance: "dishwasher".to_string(),
        ..key(APPLIANCE)
    };
    assert!(reg.get_or_freeze(&missing).is_err());

    // Every plan is f32: a body still naming a precision, whatever its
    // value, is a typed 400 rather than a silently ignored field.
    let server = Server::start(ServeConfig::default(), Arc::clone(&reg)).expect("server binds");
    let mut client = Client::connect(&server.addr().to_string()).expect("client connects");
    let values = localize_body(&request_window(0));
    for precision in ["\"f32\"", "\"fp16\"", "null"] {
        let body = values.replacen('{', &format!("{{\"precision\":{precision},"), 1);
        for path in ["/api/v1/detect", "/api/v1/localize"] {
            let (status, reply) = client.post(path, &body).expect("request completes");
            assert_eq!(status, 400, "{path} {precision}: {reply}");
            assert!(reply.contains("unsupported_field"), "{reply}");
        }
    }
    server.shutdown();
    assert_eq!(reg.freeze_count(), 0, "failed lookups never freeze");
}

/// Fire `bodies` at the server from `connections` concurrent keep-alive
/// clients and return the `(status, body)` replies in request order.
fn fire(addr: &str, bodies: &Arc<Vec<String>>, connections: usize) -> Vec<(u16, String)> {
    let next = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..connections)
        .map(|_| {
            let next = Arc::clone(&next);
            let bodies = Arc::clone(bodies);
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("client connects");
                let mut out = Vec::new();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= bodies.len() {
                        return out;
                    }
                    let (status, reply) = client
                        .post("/api/v1/localize", &bodies[idx])
                        .expect("request completes");
                    out.push((idx, status, reply));
                }
            })
        })
        .collect();
    let mut replies: Vec<(usize, u16, String)> = Vec::with_capacity(bodies.len());
    for handle in handles {
        replies.extend(handle.join().expect("client thread"));
    }
    replies.sort_by_key(|&(idx, _, _)| idx);
    replies.into_iter().map(|(_, s, b)| (s, b)).collect()
}

#[test]
fn batched_answers_match_the_direct_plan_and_are_composition_invariant() {
    let camal = fixture();
    let requests = 48;
    let windows: Vec<Vec<f32>> = (0..requests).map(request_window).collect();
    let bodies: Arc<Vec<String>> = Arc::new(windows.iter().map(|w| localize_body(w)).collect());

    // Direct oracle: the same windows, one at a time, no server.
    let mut direct = camal.freeze();
    let oracle: Vec<(f32, bool, String)> = windows
        .iter()
        .map(|w| {
            let batch = direct.localize_batch_into(&[w.as_slice()]);
            (
                batch.probability(0),
                batch.detected(0),
                batch
                    .status(0)
                    .iter()
                    .map(|&s| if s == 1 { '1' } else { '0' })
                    .collect(),
            )
        })
        .collect();

    let server = Server::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        registry(),
    )
    .expect("server binds");
    let addr = server.addr().to_string();

    // High concurrency: 6 clients race for the queue and both workers.
    let concurrent = fire(&addr, &bodies, 6);
    // Sequential: one client, one request in flight at a time.
    let sequential = fire(&addr, &bodies, 1);

    let mut flips = 0;
    for (i, (status, reply)) in concurrent.iter().enumerate() {
        assert_eq!(*status, 200, "request {i} failed: {reply}");
        let parsed = serde_json::parse_value_complete(reply).expect("response is JSON");
        let probability = parsed
            .get("probability")
            .and_then(serde_json::Value::as_f64)
            .expect("probability present");
        let detected = parsed
            .get("detected")
            .and_then(serde_json::Value::as_bool)
            .expect("detected present");
        let mask = parsed
            .get("status")
            .and_then(serde_json::Value::as_str)
            .expect("status mask present");
        let (o_prob, o_detected, o_mask) = &oracle[i];
        let delta = (probability - f64::from(*o_prob)).abs();
        // NaN-safe: a missing/NaN probability must count as a flip.
        if detected != *o_detected || mask != o_mask || delta.is_nan() || delta > 1e-6 {
            flips += 1;
        }
    }
    assert_eq!(flips, 0, "serving must not change any decision");

    // Scheduling is not observable: the replies are byte-identical at
    // both concurrencies.
    assert_eq!(concurrent, sequential, "scheduling leaked into responses");

    let stats = server.stats();
    assert_eq!(
        stats.requests.load(Ordering::Relaxed),
        2 * requests as u64,
        "every request was answered"
    );
    assert!(
        stats.batches.load(Ordering::Relaxed) > 0,
        "requests went through the job queue"
    );
    server.shutdown();
}

#[test]
fn shallow_queue_sheds_load_and_recovers() {
    let server = Server::start(
        ServeConfig {
            workers: 1,
            queue_depth: 2,
            ..ServeConfig::default()
        },
        registry(),
    )
    .expect("probe server binds");
    let addr = server.addr().to_string();
    let body = Arc::new(localize_body(&request_window(0)));

    // Warmup freezes the plan so the burst measures queue admission.
    {
        let mut client = Client::connect(&addr).expect("warmup connects");
        let (status, _) = client.post("/api/v1/localize", &body).expect("warmup");
        assert_eq!(status, 200);
    }

    let threads = 16;
    let per_thread = 6;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let addr = addr.clone();
            let body = Arc::clone(&body);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("burst client connects");
                barrier.wait();
                let (mut oks, mut rejected) = (0u64, 0u64);
                for _ in 0..per_thread {
                    let (status, _) = client
                        .post("/api/v1/localize", &body)
                        .expect("burst request completes");
                    match status {
                        200 => oks += 1,
                        503 => rejected += 1,
                        other => panic!("unexpected status {other} under overload"),
                    }
                }
                (oks, rejected)
            })
        })
        .collect();
    let (mut oks, mut rejected) = (0u64, 0u64);
    for handle in handles {
        let (o, r) = handle.join().expect("burst thread");
        oks += o;
        rejected += r;
    }
    assert!(rejected > 0, "the queue bound never tripped");
    assert!(oks > 0, "overload starved every request");

    // The burst has drained; admission reopens immediately.
    let mut client = Client::connect(&addr).expect("recovery connects");
    let (status, _) = client.post("/api/v1/localize", &body).expect("recovery");
    assert_eq!(status, 200, "server did not recover after the burst");
    assert_eq!(
        server.stats().rejected.load(Ordering::Relaxed),
        rejected,
        "rejected counter tracks the shed requests"
    );
    server.shutdown();
}

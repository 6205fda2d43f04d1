//! Request routing, JSON parsing/shaping, and the error-to-status map.
//!
//! Every response is JSON. Error bodies are uniform:
//! `{"error": "<message>", "kind": "<machine-readable-kind>"}` with the
//! status carrying the semantics — validation 400, unknown plan 404,
//! stream-order conflicts 409, overload/draining 503.

use std::sync::atomic::Ordering;
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ds_camal::{Backbone, CamalError, Precision, StreamingCamal};
use ds_timeseries::{Status, TimeSeries};
use serde_json::Value;

use crate::http::Request;
use crate::queue::{Job, JobError, JobKind, SeriesJob, SubmitError, WindowJob};
use crate::registry::{PlanError, PlanKey};
use crate::server::Shared;

/// JSON object builder (the vendored serde's object representation).
type Obj = std::collections::BTreeMap<String, Value>;

/// How long a connection thread waits for a worker reply before giving
/// up with a 500. Generous: queue admission already bounds backlog.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Uniform JSON error body.
pub(crate) fn error_body(kind: &str, message: &str) -> String {
    let mut obj = Obj::new();
    obj.insert("error".to_string(), Value::from(message));
    obj.insert("kind".to_string(), Value::from(kind));
    Value::Object(obj).to_string()
}

/// Static per-endpoint latency metric name (ds-obs interns by `&str`,
/// but a stable name keeps cardinality fixed).
pub(crate) fn latency_metric(path: &str) -> &'static str {
    match path {
        "/api/v1/detect" => "serve.detect.latency_s",
        "/api/v1/localize" => "serve.localize.latency_s",
        "/api/v1/status-series" => "serve.status_series.latency_s",
        "/api/v1/push" => "serve.push.latency_s",
        _ => "serve.other.latency_s",
    }
}

/// Route one request to `(status, json body)`.
pub(crate) fn handle(shared: &Arc<Shared>, request: &Request) -> (u16, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (200, "{\"ok\":true}".to_string()),
        ("GET", "/api/v1/stats") => (200, stats_body(shared)),
        ("POST", "/api/v1/detect") => window_endpoint(shared, request, false),
        ("POST", "/api/v1/localize") => window_endpoint(shared, request, true),
        ("POST", "/api/v1/status-series") => series_endpoint(shared, request),
        ("POST", "/api/v1/push") => push_endpoint(shared, request),
        ("GET", _) | ("POST", _) => (404, error_body("not_found", "unknown endpoint")),
        _ => (
            405,
            error_body("method_not_allowed", "only GET and POST are served"),
        ),
    }
}

// ---------------------------------------------------------------- parsing

type ApiError = (u16, String);

fn bad(kind: &str, message: &str) -> ApiError {
    (400, error_body(kind, message))
}

fn parse_body(request: &Request) -> Result<Value, ApiError> {
    let text =
        std::str::from_utf8(&request.body).map_err(|_| bad("malformed", "body is not UTF-8"))?;
    serde_json::parse_value_complete(text).map_err(|_| bad("malformed", "body is not valid JSON"))
}

fn str_field<'v>(body: &'v Value, name: &str) -> Result<&'v str, ApiError> {
    body.get(name)
        .and_then(Value::as_str)
        .ok_or_else(|| bad("missing_field", &format!("field '{name}' must be a string")))
}

fn backbone_field(body: &Value) -> Result<Backbone, ApiError> {
    match body.get("backbone") {
        // Absent means the paper's default architecture, mirroring the
        // pre-zoo behavior of every registered model being a ResNet.
        None | Some(Value::Null) => Ok(Backbone::ResNet),
        Some(v) => {
            let label = v
                .as_str()
                .ok_or_else(|| bad("bad_backbone", "field 'backbone' must be a string"))?;
            Backbone::parse(label).ok_or_else(|| {
                bad(
                    "bad_backbone",
                    "backbone must be 'resnet', 'inception' or 'transapp'",
                )
            })
        }
    }
}

/// Parse the `values` array. `allow_gaps` maps JSON `null` to NaN (the
/// series/stream paths treat NaN as a missing sample); the window paths
/// reject non-finite samples outright — a NaN window would silently
/// degrade, and degradation should be the caller's explicit choice.
fn values_field(body: &Value, allow_gaps: bool) -> Result<Vec<f32>, ApiError> {
    let items = body
        .get("values")
        .and_then(Value::as_array)
        .ok_or_else(|| {
            bad(
                "missing_field",
                "field 'values' must be an array of numbers",
            )
        })?;
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Value::Null if allow_gaps => out.push(f32::NAN),
            Value::Number(n) => {
                let v = n.as_f64() as f32;
                if !v.is_finite() && !allow_gaps {
                    return Err(bad("bad_values", "values must be finite numbers"));
                }
                out.push(v);
            }
            _ => return Err(bad("bad_values", "values must be numbers")),
        }
    }
    Ok(out)
}

fn plan_key(body: &Value, window: usize) -> Result<PlanKey, ApiError> {
    // Every plan is f32; a client still naming a precision gets told so
    // instead of having the field silently ignored.
    if body.get("precision").is_some() {
        return Err(bad(
            "unsupported_field",
            "field 'precision' is not supported: every plan serves f32",
        ));
    }
    Ok(PlanKey {
        preset: str_field(body, "preset")?.to_string(),
        appliance: str_field(body, "appliance")?.to_string(),
        window,
        backbone: backbone_field(body)?,
        precision: Precision::F32,
    })
}

// ------------------------------------------------------------ error maps

fn plan_error(err: PlanError) -> ApiError {
    match err {
        PlanError::UnknownModel => (
            404,
            error_body(
                "unknown_plan",
                "no model registered for (preset, appliance, window, backbone)",
            ),
        ),
    }
}

fn submit_error(err: SubmitError) -> ApiError {
    match err {
        SubmitError::QueueFull { depth } => (
            503,
            error_body(
                "overload",
                &format!("inference queue is full ({depth} jobs); retry"),
            ),
        ),
        SubmitError::ShuttingDown => (503, error_body("draining", "server is shutting down")),
    }
}

fn camal_error(err: &CamalError) -> ApiError {
    let status = match err {
        CamalError::OutOfOrderPush { .. }
        | CamalError::IntervalMismatch { .. }
        | CamalError::OverCapacity { .. } => 409,
        _ => 400,
    };
    (status, error_body("camal", &err.to_string()))
}

fn job_error(err: &JobError) -> ApiError {
    match err {
        JobError::Camal(e) => camal_error(e),
        JobError::Plan(e) => plan_error(*e),
    }
}

// ------------------------------------------------------------- endpoints

fn window_endpoint(shared: &Arc<Shared>, request: &Request, localize: bool) -> (u16, String) {
    match window_response(shared, request, localize) {
        Ok(body) => (200, body),
        Err((status, body)) => (status, body),
    }
}

fn window_response(
    shared: &Arc<Shared>,
    request: &Request,
    localize: bool,
) -> Result<String, ApiError> {
    let body = parse_body(request)?;
    let values = values_field(&body, false)?;
    if values.is_empty() {
        return Err(bad("bad_values", "window must not be empty"));
    }
    let key = plan_key(&body, values.len())?;
    // Reject unknown plans *before* queueing so they never occupy queue
    // slots or reach a worker.
    shared.registry.check(&key).map_err(plan_error)?;
    let include_cam = localize
        && body
            .get("include_cam")
            .and_then(Value::as_bool)
            .unwrap_or(false);
    let kind = if localize {
        JobKind::Localize { include_cam }
    } else {
        JobKind::Detect
    };
    let (tx, rx) = sync_channel(1);
    shared
        .queue
        .submit(Job::Window(WindowJob {
            key: key.clone(),
            window: values,
            kind,
            tx,
        }))
        .map_err(submit_error)?;
    let reply = rx
        .recv_timeout(REPLY_TIMEOUT)
        .map_err(|_| {
            (
                500,
                error_body("internal", "inference worker dropped the request"),
            )
        })?
        .map_err(|e| job_error(&e))?;

    let mut obj = Obj::new();
    obj.insert("probability".to_string(), Value::from(reply.probability));
    obj.insert("detected".to_string(), Value::from(reply.detected));
    obj.insert("window".to_string(), Value::from(key.window));
    obj.insert("backbone".to_string(), Value::from(key.backbone.label()));
    let members: Vec<Value> = reply
        .members
        .iter()
        .map(|&(kernel, prob)| Value::Array(vec![Value::from(kernel), Value::from(prob)]))
        .collect();
    obj.insert("members".to_string(), Value::Array(members));
    if localize {
        obj.insert(
            "status".to_string(),
            Value::from(mask_string(&reply.status)),
        );
    }
    if !reply.cam.is_empty() {
        obj.insert("cam".to_string(), Value::from(reply.cam.clone()));
    }
    Ok(Value::Object(obj).to_string())
}

fn series_endpoint(shared: &Arc<Shared>, request: &Request) -> (u16, String) {
    match series_response(shared, request) {
        Ok(body) => (200, body),
        Err((status, body)) => (status, body),
    }
}

fn series_response(shared: &Arc<Shared>, request: &Request) -> Result<String, ApiError> {
    let body = parse_body(request)?;
    let values = values_field(&body, true)?;
    if values.is_empty() {
        return Err(bad("bad_values", "series must not be empty"));
    }
    let window = body
        .get("window")
        .and_then(Value::as_u64)
        .ok_or_else(|| bad("missing_field", "field 'window' must be a positive integer"))?
        as usize;
    if window == 0 {
        return Err(bad("bad_window", "window must be positive"));
    }
    let start = body.get("start").and_then(Value::as_i64).unwrap_or(0);
    let interval = body
        .get("interval_secs")
        .and_then(Value::as_u64)
        .unwrap_or(60) as u32;
    if interval == 0 {
        return Err(bad("bad_interval", "interval_secs must be positive"));
    }
    let key = plan_key(&body, window)?;
    shared.registry.check(&key).map_err(plan_error)?;
    let series = TimeSeries::from_values(start, interval, values);
    let (tx, rx) = sync_channel(1);
    shared
        .queue
        .submit(Job::Series(SeriesJob {
            key,
            series,
            window,
            tx,
        }))
        .map_err(submit_error)?;
    let states = rx
        .recv_timeout(REPLY_TIMEOUT)
        .map_err(|_| {
            (
                500,
                error_body("internal", "inference worker dropped the request"),
            )
        })?
        .map_err(|e| job_error(&e))?;

    let unknown = states.iter().filter(|s| **s == Status::Unknown).count();
    let mask: String = states
        .iter()
        .map(|s| match s {
            Status::Off => '0',
            Status::On => '1',
            Status::Unknown => '?',
        })
        .collect();
    let mut obj = Obj::new();
    obj.insert("states".to_string(), Value::from(mask));
    obj.insert("len".to_string(), Value::from(states.len()));
    obj.insert("unknown".to_string(), Value::from(unknown));
    Ok(Value::Object(obj).to_string())
}

fn push_endpoint(shared: &Arc<Shared>, request: &Request) -> (u16, String) {
    match push_response(shared, request) {
        Ok(body) => (200, body),
        Err((status, body)) => (status, body),
    }
}

fn push_response(shared: &Arc<Shared>, request: &Request) -> Result<String, ApiError> {
    let body = parse_body(request)?;
    let meter = str_field(&body, "meter")?.to_string();
    let values = values_field(&body, true)?;
    let window = body
        .get("window")
        .and_then(Value::as_u64)
        .ok_or_else(|| bad("missing_field", "field 'window' must be a positive integer"))?
        as usize;
    if window == 0 {
        return Err(bad("bad_window", "window must be positive"));
    }
    let key = plan_key(&body, window)?;
    let reset = body.get("reset").and_then(Value::as_bool).unwrap_or(false);

    let session = {
        let mut sessions = shared.sessions.lock().unwrap();
        let id = (meter, key.clone());
        match sessions.get(&id) {
            Some(session) => session.clone(),
            None => {
                if sessions.len() >= shared.config.max_sessions {
                    return Err((
                        503,
                        error_body(
                            "overload",
                            &format!(
                                "push session limit reached ({}); retire sessions first",
                                shared.config.max_sessions
                            ),
                        ),
                    ));
                }
                let plan = shared.registry.get_or_freeze(&key).map_err(plan_error)?;
                let max_windows = shared.config.stream_window_capacity.max(1);
                let stream = StreamingCamal::new((*plan).clone(), window, max_windows);
                let session = Arc::new(Mutex::new(stream));
                sessions.insert(id, session.clone());
                session
            }
        }
    };

    let mut stream = session.lock().unwrap();
    if reset {
        stream.reset();
    }
    let absorbed = stream.push_values(&values).map_err(|e| camal_error(&e))?;
    let mut obj = Obj::new();
    obj.insert("absorbed_windows".to_string(), Value::from(absorbed));
    obj.insert("len".to_string(), Value::from(stream.len()));
    obj.insert("capacity".to_string(), Value::from(stream.capacity()));
    let tail = if absorbed > 0 {
        let i = absorbed - 1;
        let mut t = Obj::new();
        t.insert("index".to_string(), Value::from(i));
        t.insert("clean".to_string(), Value::from(stream.window_clean(i)));
        t.insert(
            "probability".to_string(),
            Value::from(stream.window_probability(i)),
        );
        t.insert(
            "detected".to_string(),
            Value::from(stream.window_detected(i)),
        );
        t.insert(
            "status".to_string(),
            Value::from(mask_string(stream.window_status(i))),
        );
        Value::Object(t)
    } else {
        Value::Null
    };
    obj.insert("tail".to_string(), tail);
    Ok(Value::Object(obj).to_string())
}

fn stats_body(shared: &Arc<Shared>) -> String {
    let stats = &shared.stats;
    let mut obj = Obj::new();
    obj.insert(
        "requests".to_string(),
        Value::from(stats.requests.load(Ordering::Relaxed)),
    );
    obj.insert(
        "rejected".to_string(),
        Value::from(stats.rejected.load(Ordering::Relaxed)),
    );
    obj.insert(
        "client_errors".to_string(),
        Value::from(stats.client_errors.load(Ordering::Relaxed)),
    );
    obj.insert(
        "batches".to_string(),
        Value::from(stats.batches.load(Ordering::Relaxed)),
    );
    obj.insert(
        "batched_windows".to_string(),
        Value::from(stats.batched_windows.load(Ordering::Relaxed)),
    );
    obj.insert(
        "steady_allocs".to_string(),
        Value::from(stats.steady_allocs.load(Ordering::Relaxed)),
    );
    obj.insert(
        "queue_depth".to_string(),
        Value::from(shared.queue.queued()),
    );
    obj.insert("workers".to_string(), Value::from(shared.config.workers));
    obj.insert(
        "sessions".to_string(),
        Value::from(shared.sessions.lock().unwrap().len()),
    );
    obj.insert(
        "freezes".to_string(),
        Value::from(shared.registry.freeze_count()),
    );
    let plans: Vec<Value> = shared
        .registry
        .frozen_plans()
        .into_iter()
        .map(|(key, arena_bytes)| {
            let mut p = Obj::new();
            p.insert("preset".to_string(), Value::from(key.preset));
            p.insert("appliance".to_string(), Value::from(key.appliance));
            p.insert("window".to_string(), Value::from(key.window));
            p.insert("backbone".to_string(), Value::from(key.backbone.label()));
            p.insert("arena_bytes".to_string(), Value::from(arena_bytes));
            Value::Object(p)
        })
        .collect();
    obj.insert("plans".to_string(), Value::Array(plans));
    Value::Object(obj).to_string()
}

/// Per-timestep 0/1 mask as a compact string.
fn mask_string(status: &[u8]) -> String {
    status
        .iter()
        .map(|&s| if s == 1 { '1' } else { '0' })
        .collect()
}

//! The traced run (`--trace 1`): times every layer's public calls from
//! this crate's own code, whatever the workload, and reports the
//! per-layer metrics.
//!
//! Tracing is switched on in-process (`DS_OBS=trace` semantics) with
//! `DS_TRACE` naming the Chrome trace file; each timed call runs inside a
//! `ds_obs` span of ours, so the exported trace shows the benchmark's
//! layer calls with the library's own spans nested under them. The trace
//! is validated with `validate_chrome_trace`, and a self-time table (span
//! total minus its children) covers every metric. The selected workload
//! also runs a short untraced and a short traced pass, and the difference
//! of their headline numbers is the tracing overhead.

use std::io::BufReader;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_app::playground;
use ds_app::plot::line_chart;
use ds_camal::{Camal, DetectorEnsemble, FrozenCamal, Precision, StreamingCamal};
use ds_datasets::{Catalog, Dataset};
use ds_neural::tensor::Tensor;
use ds_obs::Level;
use ds_serve::http::{self, ReadOutcome};
use ds_serve::{Client, ModelRegistry, PlanKey};
use serde_json::Value;

use crate::fleet::{self, Entry, Kind};
use crate::stats;
use crate::{browse, train, Args, Outcome, Workload};

/// Seconds each short pass (fleet phase, browse session) runs.
const PASS_SECS: f64 = 3.0;
/// Seconds each micro-probe repeats its call for.
const PROBE_SECS: f64 = 0.4;
/// Per-thread trace buffer, in begin/end events.
const TRACE_CAPACITY: usize = 1 << 18;

/// The two passes over the layers: the measuring pass runs untraced and
/// gives every metric its value; the traced pass repeats each call a few
/// times with tracing on, for the trace file and the self-time table.
#[derive(Debug, Clone, Copy)]
struct Pass {
    traced: bool,
}

impl Pass {
    /// How long a repeated call or a load phase runs.
    fn secs(self, secs: f64) -> f64 {
        if self.traced {
            secs / 10.0
        } else {
            secs
        }
    }

    /// How often a one-shot measurement repeats.
    fn reps(self, n: usize) -> usize {
        if self.traced {
            1
        } else {
            n
        }
    }
}

/// Median seconds per call of `f`, repeated for about `secs` (at least
/// five calls), each call inside a span named `span`.
fn probe<R>(span: &'static str, secs: f64, mut f: impl FnMut() -> R) -> f64 {
    let mut times = Vec::new();
    let until = Instant::now() + Duration::from_secs_f64(secs);
    while times.len() < 5 || Instant::now() < until {
        let _span = ds_obs::span!(span);
        let started = Instant::now();
        std::hint::black_box(f());
        times.push(started.elapsed().as_secs_f64());
    }
    stats::median(&times)
}

fn once<R>(span: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _span = ds_obs::span!(span);
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// One row of the self-time table: a metric and the span it was timed in.
struct Row {
    metric: &'static str,
    value: f64,
    unit: &'static str,
    span: &'static str,
}

#[derive(Default)]
struct Table(Vec<Row>);

impl Table {
    fn add(&mut self, metric: &'static str, value: f64, unit: &'static str, span: &'static str) {
        self.0.push(Row {
            metric,
            value,
            unit,
            span,
        });
    }
}

/// Browse blocks that make up about `secs` of timed views.
fn browse_blocks(secs: f64) -> usize {
    ((secs / browse::BLOCK_SECS).ceil() as usize).max(1)
}

fn raw_request(entry: &Entry) -> Vec<u8> {
    format!(
        "POST {} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
        entry.path,
        entry.body.len(),
        entry.body
    )
    .into_bytes()
}

fn first_window(entries: &[Entry], len: usize) -> &Entry {
    entries
        .iter()
        .find(|e| e.values.len() == len && e.kind == Kind::Localize)
        .expect("schedule holds a localize request per window length")
}

/// ds-serve and ds-camal frozen/streaming layers.
fn serve_layers(args: &Args, pass: Pass, table: &mut Table, outcome: &mut Outcome) {
    let entries = Arc::new(fleet::schedule(
        args.seed,
        fleet::schedule_len(PASS_SECS as usize),
    ));
    let setup = fleet::setup(args.seed, crate::SERVE_WORKERS, &entries);
    let addr = setup.server.addr().to_string();
    let w720 = first_window(&entries, 720);

    // HTTP framing and JSON decode on recorded bytes.
    let request = raw_request(w720);
    let read = probe(
        "bench.serve.read",
        pass.secs(PROBE_SECS),
        || match http::read_request(&mut BufReader::new(request.as_slice()), 8 << 20) {
            Ok(ReadOutcome::Request(r)) => r.body.len(),
            _ => 0,
        },
    );
    table.add("serve.read_us", read * 1e6, "us", "bench.serve.read");
    let mut client = Client::connect(&addr).expect("probe client connects");
    let (_, reply) = client.post(w720.path, &w720.body).expect("probe request");
    let write = probe("bench.serve.write", pass.secs(PROBE_SECS), || {
        let mut out = Vec::with_capacity(reply.len() + 128);
        http::write_response(&mut out, 200, &reply, true).map(|_| out.len())
    });
    table.add("serve.write_us", write * 1e6, "us", "bench.serve.write");
    let mut decode = 0.0;
    for (_, len) in fleet::CADENCES {
        let body = &first_window(&entries, len).body;
        let secs = probe("bench.serve.decode", pass.secs(PROBE_SECS / 2.0), || {
            serde_json::parse_value_complete(body).map(|v| v.as_object().is_some())
        });
        if !pass.traced {
            eprintln!("  serve.decode_us at w{len}: {:.2}", secs * 1e6);
        }
        if len == 720 {
            decode = secs;
        }
    }
    table.add("serve.decode_us", decode * 1e6, "us", "bench.serve.decode");

    // Frozen kernels.
    let mut plan = setup.model.freeze();
    let mut kernel_720 = 0.0;
    for (metric, span, len) in [
        ("camal.localize_ms.b1.w36", "bench.camal.localize_w36", 36),
        (
            "camal.localize_ms.b1.w360",
            "bench.camal.localize_w360",
            360,
        ),
        (
            "camal.localize_ms.b1.w720",
            "bench.camal.localize_w720",
            720,
        ),
    ] {
        let window = first_window(&entries, len).values.clone();
        let secs = probe(span, pass.secs(PROBE_SECS), || {
            plan.localize_batch_into(&[window.as_slice()])
                .probability(0)
        });
        if len == 720 {
            kernel_720 = secs;
        }
        table.add(metric, secs * 1e3, "ms", span);
    }
    let batch: Vec<&[f32]> = entries
        .iter()
        .filter(|e| e.values.len() == 720)
        .take(ds_camal::WINDOW_CHUNK)
        .map(|e| e.values.as_slice())
        .collect();
    let b16 = probe("bench.camal.localize_b16", pass.secs(PROBE_SECS), || {
        plan.localize_batch_into(&batch).probability(0)
    });
    table.add(
        "camal.localize_ms.b16.w720",
        b16 * 1e3 / batch.len() as f64,
        "ms",
        "bench.camal.localize_b16",
    );
    let mut ensemble = plan.ensemble().clone();
    let x = Tensor::from_data(1, 1, 720, ds_camal::z_normalize_window(&w720.values));
    let forward = probe("bench.camal.forward", pass.secs(PROBE_SECS), || {
        ensemble.predict_into(&x);
        ensemble.ensemble_probs()[0]
    });
    table.add(
        "camal.forward_ms.b1.w720",
        forward * 1e3,
        "ms",
        "bench.camal.forward",
    );

    // Streaming push: one window-sized delta per call.
    let mut stream = StreamingCamal::new(plan.clone(), 720, fleet::SESSION_WINDOWS);
    let push = probe("bench.camal.stream_push", pass.secs(PROBE_SECS), || {
        if stream.len() + 720 > stream.capacity() {
            stream.reset();
        }
        stream.push_values(&w720.values)
    });
    table.add(
        "camal.stream_push_ms",
        push * 1e3,
        "ms",
        "bench.camal.stream_push",
    );

    // Cold freeze through the registry.
    let key = PlanKey {
        preset: fleet::PRESET.to_string(),
        appliance: fleet::APPLIANCE.to_string(),
        window: 720,
        backbone: setup.model.config().lead_backbone(),
        precision: Precision::F32,
    };
    let mut freezes = Vec::new();
    for _ in 0..pass.reps(5) {
        let registry = ModelRegistry::new();
        registry.register(
            fleet::PRESET,
            fleet::APPLIANCE,
            720,
            setup.model.clone(),
            Vec::new(),
        );
        let (plan, secs) = once("bench.serve.freeze", || registry.get_or_freeze(&key));
        outcome.check(plan.is_ok());
        freezes.push(secs);
    }
    table.add(
        "serve.freeze_ms",
        stats::median(&freezes) * 1e3,
        "ms",
        "bench.serve.freeze",
    );

    // A traced fleet phase at the nominal rate.
    let stats0 = server_counts(&setup.server);
    let n = (fleet::NOMINAL_RPS * pass.secs(PASS_SECS)) as usize;
    let (samples, _) = once("bench.fleet.phase", || {
        fleet::run_phase(
            &addr,
            &entries,
            0..n,
            fleet::NOMINAL_RPS,
            crate::connections(),
        )
    });
    let stats1 = server_counts(&setup.server);
    let mut oracle = fleet::Oracle::new(&setup.model);
    for s in &samples {
        outcome.check(oracle.check(s, &entries[s.entry]));
    }
    let batches = (stats1.0 - stats0.0).max(1) as f64;
    table.add(
        "serve.batch_fill",
        (stats1.1 - stats0.1) as f64 / (batches * setup.server.batch_windows() as f64),
        "ratio",
        "bench.fleet.phase",
    );
    table.add(
        "serve.deadline_share",
        (stats1.2 - stats0.2) as f64 / batches,
        "ratio",
        "bench.fleet.phase",
    );
    let class_p50 = |label: &str| {
        stats::median(
            &samples
                .iter()
                .filter(|s| fleet::class_label(&entries[s.entry]) == label)
                .map(|s| s.latency_ms)
                .collect::<Vec<_>>(),
        )
    };
    let attributed_ms = (read + decode + kernel_720 + write) * 1e3;
    table.add(
        "serve.unattributed_ms",
        class_p50("w720") - attributed_ms,
        "ms",
        "bench.fleet.phase",
    );
    table.add(
        "serve.push_ms",
        class_p50("push"),
        "ms",
        "bench.fleet.phase",
    );
    let late = stats::sorted(samples.iter().map(|s| s.late_ms).collect());
    table.add(
        "client.late_ms",
        stats::percentile(&late, 0.99),
        "ms",
        "bench.fleet.phase",
    );
    outcome.samples(
        "serve.push_ms",
        samples
            .iter()
            .filter(|s| fleet::class_label(&entries[s.entry]) == "push")
            .count(),
    );
    outcome.samples("client.late_ms", late.len());
    setup.server.shutdown();
}

/// `(batches, batched windows, deadline batches)` so far.
fn server_counts(server: &ds_serve::ServerHandle) -> (u64, u64, u64) {
    let s = server.stats();
    (
        s.batches.load(Ordering::Relaxed),
        s.batched_windows.load(Ordering::Relaxed),
        s.deadline_batches.load(Ordering::Relaxed),
    )
}

/// ds-app layers, plus the streaming replay of a whole browse series.
fn app_layers(args: &Args, pass: Pass, table: &mut Table, outcome: &mut Outcome) {
    let (mut setup, _) = once("bench.app.setup", browse::setup);
    table.add(
        "app.train_s",
        stats::median(&setup.train_secs),
        "s",
        "bench.app.setup",
    );

    // Replay one browse series through a new stream (what a context
    // switch pays per appliance).
    let context = setup.contexts[0];
    let series = Catalog::tiny(browse::HOUSES, browse::DAYS)
        .get(context.dataset)
        .house(context.house)
        .expect("browse house exists")
        .aggregate()
        .clone();
    browse::switch(&mut setup.state, &context);
    let window = setup.state.current_window().expect("series loaded").len();
    let plan: FrozenCamal = setup
        .state
        .frozen_model(browse::APPLIANCES[0])
        .expect("model trained in set-up")
        .clone();
    let stride = (window / 4).max(1);
    let mut replays = Vec::new();
    for _ in 0..pass.reps(5) {
        let plan = plan.clone();
        let (ok, secs) = once("bench.camal.stream_replay", || {
            let mut stream = StreamingCamal::new(plan, window, series.len().div_ceil(window));
            (0..series.len()).step_by(stride).all(|lo| {
                let chunk = series
                    .slice(lo, (lo + stride).min(series.len()))
                    .expect("in range");
                stream.try_push(&chunk).is_ok()
            })
        });
        outcome.check(ok);
        replays.push(secs);
    }
    table.add(
        "camal.stream_replay_ms",
        stats::median(&replays) * 1e3,
        "ms",
        "bench.camal.stream_replay",
    );

    // Per-call app timings over one context, paging through every window.
    let (mut nav, mut loc, mut render, mut chart) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let context = setup.contexts[1];
    browse::switch(&mut setup.state, &context);
    for _ in 1..if pass.traced { 4 } else { context.windows } {
        let (w, secs) = once("bench.app.nav", || {
            let _ = setup.state.next();
            setup.state.current_window()
        });
        nav.push(secs);
        let w = w.expect("series loaded");
        let (l, secs) = once("bench.app.localize_selected", || {
            setup.state.localize_selected()
        });
        outcome.check(l.is_ok());
        loc.push(secs);
        let (frame, secs) = once("bench.app.render", || playground::render(&mut setup.state));
        outcome.check(frame.is_ok());
        render.push(secs);
        let (_, secs) = once("bench.app.chart", || {
            line_chart(&w, playground::CHART_WIDTH, playground::CHART_HEIGHT)
        });
        chart.push(secs);
    }
    table.add(
        "app.nav_us",
        stats::median(&nav) * 1e6,
        "us",
        "bench.app.nav",
    );
    table.add(
        "app.localize_selected_ms",
        stats::median(&loc) * 1e3,
        "ms",
        "bench.app.localize_selected",
    );
    table.add(
        "app.render_ms",
        stats::median(&render) * 1e3,
        "ms",
        "bench.app.render",
    );
    table.add(
        "app.chart_us",
        stats::median(&chart) * 1e6,
        "us",
        "bench.app.chart",
    );

    // Cache behaviour of a scripted session.
    // Cache counters only count while recording is on.
    if !pass.traced {
        ds_obs::set_level(Level::Summary);
    }
    let counter = |name: &str| ds_obs::global().counter_get(name);
    let before: Vec<u64> = CACHE_COUNTERS.iter().map(|c| counter(c)).collect();
    let (session, _) = once("bench.browse.session", || {
        browse::play(&mut setup, args.seed, browse_blocks(pass.secs(PASS_SECS)))
    });
    outcome.attempted += session.attempted;
    outcome.failed += session.failed;
    let d: Vec<f64> = CACHE_COUNTERS
        .iter()
        .zip(&before)
        .map(|(c, b)| (counter(c) - b) as f64)
        .collect();
    table.add(
        "app.window_hit_ratio",
        d[0] / (d[0] + d[1]).max(1.0),
        "ratio",
        "bench.browse.session",
    );
    table.add(
        "app.stream_hit_ratio",
        d[2] / (d[2] + d[3]).max(1.0),
        "ratio",
        "bench.browse.session",
    );
    if !pass.traced {
        ds_obs::set_level(Level::Off);
    }
}

const CACHE_COUNTERS: [&str; 4] = [
    "cache.window_localization.hits",
    "cache.window_localization.misses",
    "cache.streaming.hits",
    "cache.streaming.misses",
];

/// ds-datasets and ds-neural training layers, at the train workload's
/// corpus with one epoch.
fn train_layers(pass: Pass, table: &mut Table, outcome: &mut Outcome) {
    let mut generate = Vec::new();
    let mut build = Vec::new();
    let mut corpus = None;
    for _ in 0..pass.reps(3) {
        let (dataset, secs) = once("bench.datasets.generate", || {
            Dataset::generate(train::dataset_config())
        });
        generate.push(secs);
        let (c, secs) = once("bench.datasets.corpus", || train::corpus(&dataset));
        build.push(secs);
        corpus = Some(c);
    }
    table.add(
        "datasets.generate_s",
        stats::median(&generate),
        "s",
        "bench.datasets.generate",
    );
    table.add(
        "datasets.corpus_s",
        stats::median(&build),
        "s",
        "bench.datasets.corpus",
    );
    let corpus = corpus.expect("corpus built");

    // The training pass's one-epoch configuration; the traced pass trains
    // on a slice of the corpus, since every layer of every batch records
    // spans.
    let cfg = train::camal_config();
    let mut corpus = corpus;
    if pass.traced {
        corpus.truncate_train(cfg.train.batch_size);
    }
    let (model, train_secs) = once("bench.camal.train", || Camal::try_train(&corpus, &cfg));
    outcome.check(model.is_ok());
    let windows: Vec<Vec<f32>> = corpus
        .train
        .iter()
        .map(|w| ds_camal::z_normalize_window(&w.values))
        .collect();
    let labels: Vec<u8> = corpus.train.iter().map(|w| u8::from(w.weak)).collect();
    // Members train the way `DetectorEnsemble::train` runs them: one
    // ds-par task each, so nested layer fan-outs behave identically.
    let mut ensemble = DetectorEnsemble::untrained(&cfg);
    let members: Vec<f64> = ds_par::par_chunks_map_mut(ensemble.members_mut(), 1, |i, chunk| {
        let mut tc = cfg.train.clone();
        tc.shuffle_seed = cfg.train.shuffle_seed.wrapping_add(i as u64);
        let (_, secs) = once("bench.neural.train_member", || {
            ds_neural::train::train_classifier(&mut chunk[0], &windows, &labels, &tc)
        });
        secs
    });
    table.add(
        "neural.train_member_s",
        members.iter().sum::<f64>() / members.len() as f64,
        "s",
        "bench.neural.train_member",
    );
    table.add(
        "camal.train_overhead_s",
        train_secs - members.iter().sum::<f64>(),
        "s",
        "bench.camal.train",
    );
}

/// The selected workload's headline number, from a short pass.
fn headline(args: &Args) -> (&'static str, f64) {
    match args.workload {
        Workload::MeterFleet => {
            let entries = Arc::new(fleet::schedule(
                args.seed,
                (fleet::NOMINAL_RPS * PASS_SECS) as usize,
            ));
            let setup = fleet::setup(args.seed, crate::SERVE_WORKERS, &entries);
            let samples = fleet::run_phase(
                &setup.server.addr().to_string(),
                &entries,
                0..entries.len(),
                fleet::NOMINAL_RPS,
                crate::connections(),
            );
            setup.server.shutdown();
            (
                "p50_ms",
                stats::median(&samples.iter().map(|s| s.latency_ms).collect::<Vec<_>>()),
            )
        }
        Workload::Browse => {
            let mut setup = browse::setup();
            let session = browse::play(&mut setup, args.seed, browse_blocks(PASS_SECS));
            ("step_p50_ms", stats::median(&session.steps()))
        }
    }
}

/// Span totals and self times (total minus direct children), ms.
fn span_times(name: &str) -> (u64, f64, f64) {
    let snap = ds_obs::snapshot();
    let Some(Value::Object(spans)) = snap.get("spans") else {
        return (0, 0.0, 0.0);
    };
    let total = |v: &Value| v.get("total_ms").and_then(Value::as_f64).unwrap_or(0.0);
    let mut count = 0;
    let mut all = 0.0;
    let mut children = 0.0;
    for (path, v) in spans {
        let depth_of = |p: &str| p.matches('/').count();
        let leaf = path.rsplit('/').next().unwrap_or(path);
        if leaf == name {
            count += v.get("count").and_then(Value::as_u64).unwrap_or(0);
            all += total(v);
            let prefix = format!("{path}/");
            for (child, cv) in spans {
                if child.starts_with(&prefix) && depth_of(child) == depth_of(path) + 1 {
                    children += total(cv);
                }
            }
        }
    }
    (count, all, all - children)
}

pub fn run(args: &Args, outcome: &mut Outcome) {
    let dir = PathBuf::from("perfbench/out");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    std::env::set_var(ds_obs::TRACE_ENV, &path);
    ds_obs::set_trace_capacity(TRACE_CAPACITY);

    let (label, untraced) = headline(args);
    ds_obs::set_level(Level::Trace);
    let (_, traced) = headline(args);
    ds_obs::set_level(Level::Off);
    ds_obs::reset();

    let mut table = Table::default();
    let measure = Pass { traced: false };
    serve_layers(args, measure, &mut table, outcome);
    app_layers(args, measure, &mut table, outcome);
    train_layers(measure, &mut table, outcome);
    let overhead = (traced - untraced) / untraced * 100.0;
    table.add("trace.overhead_pct", overhead, "%", "-");
    eprintln!(
        "  tracing overhead on {} {label}: untraced {untraced:.4}, traced {traced:.4} ({overhead:+.1}%)",
        args.workload.name()
    );

    ds_obs::reset();
    ds_obs::set_level(Level::Trace);
    let trace = Pass { traced: true };
    let mut scratch = Table::default();
    serve_layers(args, trace, &mut scratch, outcome);
    app_layers(args, trace, &mut scratch, outcome);
    train_layers(trace, &mut scratch, outcome);
    ds_obs::set_level(Level::Off);

    eprintln!(
        "  {:<28} {:>12} {:<5} {:<28} {:>6} {:>12} {:>11} {:>11}",
        "metric",
        "untraced",
        "unit",
        "span (traced pass)",
        "calls",
        "ms per call",
        "total ms",
        "self ms"
    );
    for row in &table.0 {
        let (calls, total, own) = span_times(row.span);
        eprintln!(
            "  {:<28} {:>12.4} {:<5} {:<28} {:>6} {:>12.4} {:>11.2} {:>11.2}",
            row.metric,
            row.value,
            row.unit,
            row.span,
            calls,
            total / calls.max(1) as f64,
            total,
            own
        );
        outcome.metric(row.metric, row.value, row.unit);
    }
    match ds_obs::export_trace_from_env() {
        Some((path, Ok(stats))) => {
            let check = ds_obs::validate_chrome_trace(&path);
            eprintln!(
                "  trace {}: {} events on {} threads, {} spans dropped; validation {}",
                path.display(),
                stats.events,
                stats.threads,
                stats.dropped_spans,
                match &check {
                    Ok(c) => format!("ok (max depth {})", c.max_depth),
                    Err(e) => format!("FAILED: {e}"),
                }
            );
            outcome.check(check.is_ok_and(|c| c.events > 0));
        }
        _ => outcome.check(false),
    }
}

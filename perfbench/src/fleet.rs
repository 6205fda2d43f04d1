//! `meter_fleet`: an open-loop fleet of smart meters posting to `ds-serve`
//! over HTTP.
//!
//! Meters report the last 6 h at 30 s, 1 min and 10 min cadences — 720-,
//! 360- and 36-sample windows, three plan keys served by one trained
//! model — in the cadence split of the repository's `serveload` fleet
//! (`crates/bench/src/serveload.rs`, `meter_period`): half the meters
//! every 30 s, a third every minute, a sixth every 10 minutes. Most
//! meters post stateless `detect`/`localize` windows through the
//! micro-batch collector, one request in three a `detect` as in
//! `serveload`; every [`PUSH_EVERY`]-th meter instead streams one
//! window-sized delta per report through `/api/v1/push` (stateful
//! `StreamingCamal` sessions). A push meter is pinned to one connection,
//! so its pushes arrive in order.
//!
//! Requests are due on a fixed grid (`i / rate` seconds after the phase
//! starts) and every latency is timed from the due time, not the send
//! time, so a slow response delays — and is charged for — the requests
//! queued behind it on its connection. Each connection is one blocking
//! client and `ds-serve` answers a connection's requests one at a time,
//! so at most one request per connection is in flight: `max_rps` is the
//! ceiling of the connections, about connections / per-request latency.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_camal::{Camal, CamalConfig, DetectorEnsemble, FrozenCamal};
use ds_serve::{Client, ModelRegistry, ServeConfig, Server, ServerHandle};
use serde_json::Value;

use crate::stats::{self, mix, Rng};
use crate::Outcome;

pub const PRESET: &str = "FLEET";
pub const APPLIANCE: &str = "kettle";

/// `(reporting cadence in seconds, samples in a 6 h window)`.
pub const CADENCES: [(u64, usize); 3] = [(30, 720), (60, 360), (600, 36)];
/// Meters in the fleet.
pub const METERS: usize = 96;
/// Every `PUSH_EVERY`-th meter streams through `/api/v1/push`. An
/// assumption: no fleet figure gives the share of streaming meters.
pub const PUSH_EVERY: usize = 8;
/// Windows one push session holds (the server's default ring capacity).
/// A push meter restarts its session at every block boundary of the
/// schedule, long before the ring would overflow.
pub const SESSION_WINDOWS: usize = 64;
/// The fixed offered rate `p50_ms`/`p95_ms` are measured at: about half
/// of `max_rps` on a 2-vCPU host, so a 1 s block holds 200 requests and
/// queueing behind a connection's previous request stays rare.
pub const NOMINAL_RPS: f64 = 200.0;
/// The tail percentile reported: the highest whose per-block estimate
/// has ten samples beyond it (the 11th-largest of 200). A block's p99
/// would be its 3rd-largest latency, and on a shared host 1–3% of
/// requests wait out a stall of the whole virtual machine, so a p99
/// reads the host rather than the server.
pub const TAIL_Q: f64 = 0.95;
/// The serve SLO `max_rps` is judged against.
pub const SLO_P99_MS: f64 = 50.0;
/// `max_rps` ladder: rung `r` offers `LADDER_BASE * LADDER_STEP^r` req/s.
pub const LADDER_BASE: f64 = NOMINAL_RPS;
pub const LADDER_STEP: f64 = 1.04;
pub const LADDER_RUNGS: usize = 48;
/// Meters whose windows train the serving model.
pub const TRAIN_METERS: usize = 24;
/// Seconds each nominal block and each ladder rung is offered for.
pub const RUNG_SECS: f64 = 1.0;
/// Rungs the `max_rps` search climbs per step until a rung fails.
pub const GALLOP: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Detect,
    Localize,
    /// The `index`-th window of the meter's current push session.
    Push {
        index: usize,
    },
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Entry {
    pub meter: usize,
    pub kind: Kind,
    pub path: &'static str,
    pub values: Vec<f32>,
    pub body: String,
}

/// The fleet's shape as drawn from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Fleet {
    /// Cadence class (index into [`CADENCES`]) per meter.
    pub class: Vec<usize>,
    pub push: Vec<bool>,
    /// Reporting phase per meter, in 30 s ticks.
    pub phase: Vec<u64>,
    /// Meter visit order inside one tick.
    pub order: Vec<usize>,
}

impl Fleet {
    pub fn new(seed: u64) -> Fleet {
        let mut rng = Rng::new(seed);
        let mut slots: Vec<usize> = (0..METERS).collect();
        rng.shuffle(&mut slots);
        // serveload's `meter_period`: 1/2, 1/3 and 1/6 of the meters.
        let class = slots
            .iter()
            .map(|s| match s % 6 {
                0..=2 => 0,
                3 | 4 => 1,
                _ => 2,
            })
            .collect();
        let push = slots.iter().map(|s| s % PUSH_EVERY == 1).collect();
        let phase = (0..METERS).map(|_| rng.next_u64() % 20).collect();
        let mut order: Vec<usize> = (0..METERS).collect();
        rng.shuffle(&mut order);
        Fleet {
            class,
            push,
            phase,
            order,
        }
    }

    fn period_ticks(&self, meter: usize) -> u64 {
        CADENCES[self.class[meter]].0 / 30
    }
}

/// Integer watts, so every value survives the JSON hop bit-exactly.
fn meter_value(seed: u64, meter: usize, cadence: u64, sample: u64) -> f32 {
    let t = sample * cadence; // seconds since the meter's origin
    let minute = t / 60;
    let day = (t % 86_400) as f32 / 86_400.0;
    let base = 180.0 + 90.0 * (std::f32::consts::TAU * (day + meter as f32 * 0.07)).sin();
    let fridge = if (t / 60 + meter as u64 * 7) % 45 < 15 {
        90.0
    } else {
        0.0
    };
    // A kettle boil lasts ~3 minutes and starts in ~1 of 180 minutes.
    let boil = (0..3).any(|back| {
        minute >= back && mix(seed ^ ((meter as u64) << 40) ^ (minute - back)).is_multiple_of(180)
    });
    let kettle = if boil { 2400.0 } else { 0.0 };
    let noise = (mix(seed ^ ((meter as u64) << 32) ^ sample) % 21) as f32;
    (base + fridge + kettle + noise).round()
}

fn meter_window(seed: u64, meter: usize, cadence: u64, end: u64, len: usize) -> Vec<f32> {
    (end - len as u64..end)
        .map(|s| meter_value(seed, meter, cadence, s))
        .collect()
}

fn push_values_json(out: &mut String, values: &[f32]) {
    out.push_str("\"values\":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{v}"));
    }
    out.push(']');
}

fn window_body(values: &[f32]) -> String {
    let mut s = format!("{{\"preset\":\"{PRESET}\",\"appliance\":\"{APPLIANCE}\",");
    push_values_json(&mut s, values);
    s.push('}');
    s
}

fn push_body(meter: usize, index: usize, values: &[f32]) -> String {
    let mut s = format!(
        "{{\"meter\":\"m{meter}\",\"preset\":\"{PRESET}\",\"appliance\":\"{APPLIANCE}\",\"window\":{},\"reset\":{},",
        values.len(),
        index == 0
    );
    push_values_json(&mut s, values);
    s.push('}');
    s
}

/// The first `count` requests of the fleet's schedule: meters report tick
/// by tick (30 s ticks) at their cadence; within a tick they report in
/// the seeded order. Request `i` is due `i / rate` seconds into a phase.
pub fn schedule(seed: u64, count: usize) -> Vec<Entry> {
    let fleet = Fleet::new(seed);
    let mut reports = vec![0usize; METERS];
    // Push sessions restart at every block boundary, so every phase that
    // starts on one — a nominal block or a ladder rung — is consistent.
    let block = block_len();
    let mut since_block = vec![0usize; METERS];
    let mut out = Vec::with_capacity(count);
    let mut tick = 0u64;
    let mut kind_rng = Rng::new(seed.wrapping_add(1));
    while out.len() < count {
        for &m in &fleet.order {
            if out.len() == count {
                break;
            }
            let period = fleet.period_ticks(m);
            if !(tick + fleet.phase[m]).is_multiple_of(period) {
                continue;
            }
            let (cadence, len) = CADENCES[fleet.class[m]];
            if out.len().is_multiple_of(block) {
                since_block.fill(0);
            }
            let report = reports[m];
            reports[m] += 1;
            let entry = if fleet.push[m] {
                let index = since_block[m];
                since_block[m] += 1;
                let end = (report as u64 + 1) * len as u64;
                let values = meter_window(seed, m, cadence, end, len);
                Entry {
                    meter: m,
                    kind: Kind::Push { index },
                    path: "/api/v1/push",
                    body: push_body(m, index, &values),
                    values,
                }
            } else {
                let end = len as u64 + tick * 30 / cadence;
                let values = meter_window(seed, m, cadence, end, len);
                let (kind, path) = if kind_rng.below(3) == 0 {
                    (Kind::Detect, "/api/v1/detect")
                } else {
                    (Kind::Localize, "/api/v1/localize")
                };
                Entry {
                    meter: m,
                    kind,
                    path,
                    body: window_body(&values),
                    values,
                }
            };
            out.push(entry);
        }
        tick += 1;
    }
    out
}

/// A weak-label corpus from the same meter generator: a window is
/// positive iff a kettle boil shows in it.
fn training_corpus(seed: u64) -> (Vec<Vec<f32>>, Vec<u8>) {
    let (cadence, len) = CADENCES[1];
    let mut windows = Vec::new();
    let mut labels = Vec::new();
    for meter in 0..TRAIN_METERS {
        let end = len as u64 * (1 + meter as u64 % 5);
        let w = meter_window(seed ^ 0xC0FFEE, meter, cadence, end, len);
        labels.push(u8::from(w.iter().any(|&v| v > 2000.0)));
        windows.push(ds_camal::z_normalize_window(&w));
    }
    (windows, labels)
}

/// The serving model: the paper's four kernel sizes at reduced width,
/// briefly trained so probabilities sit away from the 0.5 boundary.
pub fn train_model(seed: u64) -> Camal {
    let mut cfg = CamalConfig {
        channels: vec![8, 16],
        ..CamalConfig::default()
    };
    cfg.train.epochs = 2;
    cfg.train.batch_size = 8;
    cfg.train.patience = None;
    let (windows, labels) = training_corpus(seed);
    let mut ensemble = DetectorEnsemble::untrained(&cfg);
    ensemble.train(&windows, &labels, &cfg);
    Camal::from_parts(ensemble, cfg)
}

/// A running server with every plan key registered and frozen.
pub struct Setup {
    pub model: Camal,
    pub server: ServerHandle,
}

pub fn setup(seed: u64, workers: usize, entries: &[Entry]) -> Setup {
    let model = train_model(seed);
    let registry = Arc::new(ModelRegistry::new());
    for (_, len) in CADENCES {
        registry.register(PRESET, APPLIANCE, len, model.clone(), Vec::new());
    }
    let server = Server::start(
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
        registry,
    )
    .expect("benchmark server binds a loopback port");
    // Freeze every plan key before the clock starts.
    let mut client = Client::connect(&server.addr().to_string()).expect("warmup connects");
    for (cadence, len) in CADENCES {
        let body = window_body(&meter_window(seed, 0, cadence, len as u64, len));
        let (status, _) = client
            .post("/api/v1/detect", &body)
            .expect("warmup request");
        assert_eq!(
            status, 200,
            "warmup request for a {len}-sample window failed"
        );
    }
    // Open every push meter's session, so no timed push pays for creating
    // one; each block's first push per meter resets it.
    let mut opened = std::collections::BTreeSet::new();
    for entry in entries.iter().filter(|e| e.kind == Kind::Push { index: 0 }) {
        if !opened.insert(entry.meter) {
            continue;
        }
        let (status, _) = client.post(entry.path, &entry.body).expect("warmup push");
        assert_eq!(status, 200, "warmup push for meter {} failed", entry.meter);
    }
    Setup { model, server }
}

/// What one request did.
#[derive(Debug, Clone)]
pub struct Sample {
    pub entry: usize,
    pub status: u16,
    pub reply: String,
    /// Response time minus due time.
    pub latency_ms: f64,
    /// Send time minus due time.
    pub late_ms: f64,
}

/// Offer the schedule entries in `range` at `rate` req/s over
/// `connections` keep-alive connections, one generator thread each.
pub fn run_phase(
    addr: &str,
    entries: &Arc<Vec<Entry>>,
    range: Range<usize>,
    rate: f64,
    connections: usize,
) -> Vec<Sample> {
    let range = range.start..range.end.min(entries.len());
    let start = Instant::now() + Duration::from_millis(20);
    let threads: Vec<_> = (0..connections)
        .map(|c| {
            let entries = Arc::clone(entries);
            let addr = addr.to_string();
            let range = range.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("fleet client connects");
                let mut out = Vec::new();
                for i in range
                    .clone()
                    .filter(|&i| entries[i].meter % connections == c)
                {
                    let due = start + Duration::from_secs_f64(due_secs(i - range.start, rate));
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let entry = &entries[i];
                    let (status, reply) = client
                        .post(entry.path, &entry.body)
                        .unwrap_or((0, String::new()));
                    let done = Instant::now();
                    out.push(Sample {
                        entry: i,
                        status,
                        reply,
                        latency_ms: ms(done.saturating_duration_since(due)),
                        late_ms: ms(sent.saturating_duration_since(due)),
                    });
                }
                out
            })
        })
        .collect();
    let mut samples: Vec<Sample> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("fleet client thread"))
        .collect();
    samples.sort_by_key(|s| s.entry);
    samples
}

/// When request `i` of a phase offered at `rate` is due, in seconds
/// after the phase starts.
pub fn due_secs(i: usize, rate: f64) -> f64 {
    i as f64 / rate
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Held,
    /// Median within the SLO but the p99 or the backlog check failed.
    TailFailed,
    Failed,
}

/// Whether a ladder rung held: every request answered, p99 within the
/// SLO, and lateness not growing from the first quarter of the rung to
/// the last.
fn rung_verdict(samples: &[Sample]) -> Verdict {
    if samples.iter().any(|s| s.status != 200) {
        return Verdict::Failed;
    }
    let lat = stats::sorted(samples.iter().map(|s| s.latency_ms).collect());
    let quarter = (samples.len() / 4).max(1);
    let late = |part: &[Sample]| stats::median(&part.iter().map(|s| s.late_ms).collect::<Vec<_>>());
    let growth = late(&samples[samples.len() - quarter..]) - late(&samples[..quarter]);
    if stats::percentile(&lat, 0.99) <= SLO_P99_MS && growth < 10.0 {
        Verdict::Held
    } else if stats::percentile(&lat, 0.5) <= SLO_P99_MS {
        Verdict::TailFailed
    } else {
        Verdict::Failed
    }
}

/// Checks served responses against direct calls on a private frozen plan,
/// memoizing the expected answer per schedule entry.
pub struct Oracle {
    plan: FrozenCamal,
    expected: BTreeMap<usize, Expected>,
}

#[derive(Debug, Clone)]
struct Expected {
    probability: f32,
    detected: bool,
    status: String,
}

impl Oracle {
    pub fn new(model: &Camal) -> Oracle {
        Oracle {
            plan: model.freeze(),
            expected: BTreeMap::new(),
        }
    }

    fn expected(&mut self, index: usize, entry: &Entry) -> &Expected {
        let plan = &mut self.plan;
        self.expected
            .entry(index)
            .or_insert_with(|| direct(plan, entry))
    }

    /// Compute the expected answers of the entries at `indices` ahead of
    /// the checks, on [`crate::connections`] threads with a plan each. It
    /// runs after the measured phases, so it only shortens the run.
    pub fn prefetch(&mut self, entries: &[Entry], indices: impl Iterator<Item = usize>) {
        let mut todo: Vec<usize> = indices.filter(|i| !self.expected.contains_key(i)).collect();
        todo.sort_unstable();
        todo.dedup();
        let threads = crate::connections();
        let share = todo.len().div_ceil(threads).max(1);
        let plan = &self.plan;
        let found: Vec<(usize, Expected)> = std::thread::scope(|scope| {
            let workers: Vec<_> = todo
                .chunks(share)
                .map(|chunk| {
                    let mut plan = plan.clone();
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|&i| (i, direct(&mut plan, &entries[i])))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("oracle thread"))
                .collect()
        });
        self.expected.extend(found);
    }

    /// Whether one response matches: exact decision and mask, probability
    /// within 1e-6.
    pub fn check(&mut self, sample: &Sample, entry: &Entry) -> bool {
        if sample.status != 200 {
            return false;
        }
        let Ok(reply) = serde_json::parse_value_complete(&sample.reply) else {
            return false;
        };
        let expected = self.expected(sample.entry, entry).clone();
        let (node, want_status) = match entry.kind {
            Kind::Detect => (&reply, false),
            Kind::Localize => (&reply, true),
            Kind::Push { index } => {
                let absorbed = reply.get("absorbed_windows").and_then(Value::as_u64);
                let Some(tail) = reply.get("tail") else {
                    return false;
                };
                let tail_index = tail.get("index").and_then(Value::as_u64);
                let clean = tail.get("clean").and_then(Value::as_bool);
                if absorbed != Some(index as u64 + 1)
                    || tail_index != Some(index as u64)
                    || clean != Some(true)
                {
                    return false;
                }
                return matches(tail, &expected, true);
            }
        };
        node.get("window").and_then(Value::as_u64) == Some(entry.values.len() as u64)
            && matches(node, &expected, want_status)
    }
}

/// The direct call a served response must match.
fn direct(plan: &mut FrozenCamal, entry: &Entry) -> Expected {
    let batch = plan.localize_batch_into(&[entry.values.as_slice()]);
    Expected {
        probability: batch.probability(0),
        detected: batch.detected(0),
        status: batch
            .status(0)
            .iter()
            .map(|&s| if s == 1 { '1' } else { '0' })
            .collect(),
    }
}

fn matches(node: &Value, expected: &Expected, want_status: bool) -> bool {
    let probability = node
        .get("probability")
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN);
    let delta = (probability - f64::from(expected.probability)).abs();
    let detected = node.get("detected").and_then(Value::as_bool);
    let status_ok = !want_status
        || node.get("status").and_then(Value::as_str) == Some(expected.status.as_str());
    delta <= 1e-6 && detected == Some(expected.detected) && status_ok
}

/// Entries needed so no nominal block of `blocks` or rung runs off the
/// schedule.
pub fn schedule_len(blocks: usize) -> usize {
    let top = rung_rate(LADDER_RUNGS - 1);
    (block_len() * blocks).max((top * RUNG_SECS).ceil() as usize) + 1
}

/// Requests in one nominal block.
pub fn block_len() -> usize {
    (NOMINAL_RPS * RUNG_SECS).round() as usize
}

pub fn rung_rate(r: usize) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(r as i32)
}

/// The `max_rps` search over the ladder, one offered rung at a time. It
/// gallops up [`GALLOP`] rungs at a time until a rung fails, then bisects
/// between the highest rung that held and the lowest that failed. A rung
/// that fails only in its tail (median latency within the SLO) is offered
/// once more before it counts as failed, so one host stall cannot end
/// the climb.
#[derive(Debug, Clone, PartialEq)]
pub struct Ladder {
    /// Highest rung that held.
    lo: Option<usize>,
    /// Lowest rung that failed (or the ladder's end).
    hi: usize,
    galloping: bool,
    /// A rung that failed in its tail once.
    retry: Option<usize>,
}

impl Default for Ladder {
    fn default() -> Ladder {
        Ladder {
            lo: None,
            hi: LADDER_RUNGS,
            galloping: true,
            retry: None,
        }
    }
}

impl Ladder {
    /// The rung to offer next; `None` once the search has converged.
    pub fn next(&self) -> Option<usize> {
        if self.retry.is_some() {
            return self.retry;
        }
        let floor = self.lo.map_or(0, |l| l + 1);
        if floor >= self.hi {
            None
        } else if self.galloping {
            Some((floor + GALLOP - 1).min(self.hi - 1))
        } else {
            Some((floor + self.hi - 1) / 2)
        }
    }

    fn record(&mut self, rung: usize, verdict: Verdict) {
        match verdict {
            Verdict::Held => {
                self.lo = Some(rung);
                self.retry = None;
            }
            Verdict::TailFailed if self.retry != Some(rung) => self.retry = Some(rung),
            _ => {
                self.hi = rung;
                self.galloping = false;
                self.retry = None;
            }
        }
    }
}

/// The `meter_fleet` pass: a running server and what its rounds measured.
pub struct Pass {
    entries: Arc<Vec<Entry>>,
    setup: Setup,
    /// The nominal blocks offered so far.
    blocks: Vec<Vec<Sample>>,
    ladder: Ladder,
    /// Every offered rung: rate, held, samples.
    rungs: Vec<(f64, bool, Vec<Sample>)>,
}

impl Pass {
    /// The set-up: schedule, trained model and a server with every plan
    /// key frozen, ready for `blocks` nominal blocks.
    pub fn new(seed: u64, blocks: usize) -> Pass {
        let entries = Arc::new(schedule(seed, schedule_len(blocks)));
        let setup = setup(seed, crate::SERVE_WORKERS, &entries);
        Pass {
            entries,
            setup,
            blocks: Vec::new(),
            ladder: Ladder::default(),
            rungs: Vec::new(),
        }
    }

    pub fn shutdown(self) {
        self.setup.server.shutdown();
    }

    /// The next one-second block of the schedule at [`NOMINAL_RPS`].
    pub fn block(&mut self) {
        let addr = self.setup.server.addr().to_string();
        let n = block_len();
        let b = self.blocks.len();
        std::thread::sleep(Duration::from_millis(20));
        let block = run_phase(
            &addr,
            &self.entries,
            b * n..(b + 1) * n,
            NOMINAL_RPS,
            crate::connections(),
        );
        self.blocks.push(block);
    }

    /// The ladder's next rung, if the search has not converged.
    pub fn rung(&mut self) {
        let Some(r) = self.ladder.next() else {
            return;
        };
        let addr = self.setup.server.addr().to_string();
        std::thread::sleep(Duration::from_millis(50));
        let n = (rung_rate(r) * RUNG_SECS).round() as usize;
        let samples = run_phase(
            &addr,
            &self.entries,
            0..n,
            rung_rate(r),
            crate::connections(),
        );
        let verdict = rung_verdict(&samples);
        self.ladder.record(r, verdict);
        self.rungs
            .push((rung_rate(r), verdict == Verdict::Held, samples));
    }

    /// Stop the server, oracle-check every response, and record
    /// `p50_ms`, `p95_ms` and `max_rps`.
    pub fn finish(self, outcome: &mut Outcome) {
        self.setup.server.shutdown();
        let mut oracle = Oracle::new(&self.setup.model);
        let phases = || {
            self.blocks
                .iter()
                .chain(self.rungs.iter().map(|(_, _, s)| s))
        };
        oracle.prefetch(&self.entries, phases().flatten().map(|s| s.entry));
        for samples in phases() {
            for s in samples {
                outcome.check(oracle.check(s, &self.entries[s.entry]));
            }
        }
        let quantile = |q: f64| -> Vec<f64> {
            self.blocks
                .iter()
                .map(|b| {
                    stats::percentile(&stats::sorted(b.iter().map(|s| s.latency_ms).collect()), q)
                })
                .collect()
        };
        outcome.metric("p50_ms", stats::low_decile(&quantile(0.5)), "ms");
        outcome.metric("p95_ms", stats::low_decile(&quantile(TAIL_Q)), "ms");
        // The rate the server kept up with at the highest rung that held.
        let max_rps = self.ladder.lo.map_or(0.0, |r| {
            self.rungs
                .iter()
                .rev()
                .find(|(rate, held, _)| *held && *rate == rung_rate(r))
                .map_or(0.0, |(rate, _, s)| achieved_rate(s, *rate))
        });
        outcome.metric("max_rps", max_rps, "1/s");
        let requests = self.blocks.iter().map(Vec::len).sum();
        outcome.samples("p50_ms", requests);
        outcome.samples("p95_ms", requests);
        outcome.samples("p95_ms.blocks", self.blocks.len());
        outcome.samples("max_rps.rungs", self.rungs.len());
        for (rate, ok, samples) in &self.rungs {
            let l = stats::sorted(samples.iter().map(|s| s.latency_ms).collect());
            eprintln!(
                "  rung {rate:7.1} req/s: {} n={} p50 {:.2} ms p99 {:.2} ms",
                if *ok { "held  " } else { "failed" },
                l.len(),
                stats::percentile(&l, 0.5),
                stats::percentile(&l, 0.99)
            );
        }
        let per_block =
            |q: f64| -> Vec<String> { quantile(q).iter().map(|v| format!("{v:.2}")).collect() };
        eprintln!("  fleet block p50 ms: {}", per_block(0.5).join(" "));
        eprintln!("  fleet block p95 ms: {}", per_block(TAIL_Q).join(" "));
        let all = stats::sorted(self.blocks.iter().flatten().map(|s| s.latency_ms).collect());
        eprintln!(
            "  fleet pooled over {} requests: p50 {:.2} p95 {:.2} p99 {:.2} ms",
            all.len(),
            stats::percentile(&all, 0.5),
            stats::percentile(&all, TAIL_Q),
            stats::percentile(&all, 0.99)
        );
    }
}

/// Requests completed per second over a phase offered at `rate`: from
/// the phase's first due time to its last response.
fn achieved_rate(samples: &[Sample], rate: f64) -> f64 {
    let first = samples.iter().map(|s| s.entry).min().unwrap_or(0);
    let end = samples
        .iter()
        .map(|s| due_secs(s.entry - first, rate) + s.latency_ms / 1e3)
        .fold(0.0, f64::max);
    samples.len() as f64 / end
}

pub fn class_label(e: &Entry) -> &'static str {
    match (e.kind, e.values.len()) {
        (Kind::Push { .. }, _) => "push",
        (_, 720) => "w720",
        (_, 360) => "w360",
        _ => "w36",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(entries: &[Entry]) -> Vec<(usize, Kind, String)> {
        entries
            .iter()
            .map(|e| (e.meter, e.kind, e.body.clone()))
            .collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(shape(&schedule(7, 400)), shape(&schedule(7, 400)));
    }

    #[test]
    fn different_seed_different_schedule() {
        assert_ne!(shape(&schedule(7, 400)), shape(&schedule(8, 400)));
    }

    #[test]
    fn offered_rate_equals_nominal() {
        // A nominal block offers `RUNG_SECS * rate` requests, due one
        // every `1 / rate` seconds, and the schedule covers every block.
        let n = block_len();
        let last_due = due_secs(n - 1, NOMINAL_RPS);
        let offered = (n - 1) as f64 / (last_due - due_secs(0, NOMINAL_RPS));
        assert!((offered - NOMINAL_RPS).abs() < 1e-9, "offered {offered}");
        assert!((n as f64 / RUNG_SECS - NOMINAL_RPS).abs() < 1e-9);
        for blocks in [1, 8, 30] {
            assert!(schedule_len(blocks) >= n * blocks);
        }
    }

    #[test]
    fn ladder_gallops_then_bisects_to_the_highest_held_rung() {
        // A server that holds every rung up to 13.
        let mut ladder = Ladder::default();
        let mut offered = Vec::new();
        while let Some(r) = ladder.next() {
            offered.push(r);
            let verdict = if r <= 13 {
                Verdict::Held
            } else if r == 15 && !offered[..offered.len() - 1].contains(&15) {
                Verdict::TailFailed
            } else {
                Verdict::Failed
            };
            ladder.record(r, verdict);
        }
        assert_eq!(ladder.lo, Some(13));
        assert_eq!(ladder.hi, 14);
        assert_eq!(
            offered[..3],
            [7, 15, 15],
            "gallop, then a tail failure retried"
        );
        assert!(offered.len() <= 8, "{offered:?}");
    }

    #[test]
    fn schedule_mixes_every_cadence_and_pushes() {
        let entries = schedule(3, 2000);
        for (_, len) in CADENCES {
            assert!(entries.iter().any(|e| e.values.len() == len));
        }
        let pushes = entries
            .iter()
            .filter(|e| matches!(e.kind, Kind::Push { .. }))
            .count();
        assert!(pushes > 0 && pushes < entries.len() / 4);
        // A push meter's sessions count up in order and restart at zero
        // at every block boundary.
        let mut next: BTreeMap<usize, usize> = BTreeMap::new();
        for (i, e) in entries.iter().enumerate() {
            if i % block_len() == 0 {
                next.clear();
            }
            if let Kind::Push { index } = e.kind {
                let want = next.entry(e.meter).or_insert(0);
                assert_eq!(index, *want);
                assert!(index < SESSION_WINDOWS);
                *want += 1;
            }
        }
    }
}

//! The server proper: accept loop, bounded connection threads, and the
//! inference worker pool that drains the job queue.
//!
//! Threading model (all `std`, no async runtime):
//!
//! - **accept thread** — owns the listener; enforces `max_connections`
//!   (over the cap: immediate 503 + close, counted as a rejection).
//! - **connection threads** — one per live connection, detached; parse
//!   requests, submit jobs, block on the reply channel, write responses.
//!   A short socket read timeout doubles as the shutdown poll while idle.
//! - **inference workers** — fixed pool of `config.workers` threads; each
//!   owns *clones* of the frozen plans it has served (one arena per
//!   worker, no locks on the hot path) and runs one job at a time, oldest
//!   first, from the [`JobQueue`](crate::queue::JobQueue).

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ds_camal::{FrozenCamal, StreamingCamal};

use crate::api;
use crate::http::{self, HttpError, ReadOutcome};
use crate::queue::{Job, JobError, JobKind, JobQueue, WindowJob, WindowReply, WindowResult};
use crate::registry::{ModelRegistry, PlanKey};
use crate::{ServeConfig, ServerStats};

/// Live streaming push sessions, keyed by (meter id, plan).
pub(crate) type SessionMap = BTreeMap<(String, PlanKey), Arc<Mutex<StreamingCamal>>>;

/// State shared by every thread of one server.
pub(crate) struct Shared {
    pub config: ServeConfig,
    pub registry: Arc<ModelRegistry>,
    pub queue: JobQueue,
    pub stats: Arc<ServerStats>,
    pub sessions: Mutex<SessionMap>,
    pub shutdown: AtomicBool,
    pub connections: AtomicUsize,
}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::shutdown`].
pub struct Server;

pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the worker pool and accept loop, and return.
    pub fn start(
        config: ServeConfig,
        registry: Arc<ModelRegistry>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        ds_obs::declare_budget(
            "serve_request_latency",
            "serve.request_latency_s",
            ds_obs::Quantile::P99,
            0.050,
        );
        let queue = JobQueue::new(config.queue_depth);
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            config,
            registry,
            queue,
            stats: Arc::new(ServerStats::default()),
            sessions: Mutex::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
        });
        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = shared.clone();
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("ds-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        let accept_shared = shared.clone();
        let accept = std::thread::Builder::new()
            .name("ds-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            workers: worker_handles,
        })
    }
}

impl ServerHandle {
    /// The actually bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Always 1: every window job is one kernel call. Kept only so
    /// `perfbench/` compiles unchanged; the next benchmark PR removes it
    /// (ROADMAP item 10).
    pub fn batch_windows(&self) -> usize {
        1
    }

    /// Jobs currently queued.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.queued()
    }

    /// Stop accepting, drain queued work, join the pool. In-flight
    /// connection threads notice the flag via their read timeout and exit
    /// on their own; we wait briefly for them.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.shutdown();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.shared.connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        if shared.connections.load(Ordering::SeqCst) >= shared.config.max_connections {
            shared.stats.requests.fetch_add(1, Ordering::Relaxed);
            shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let _ = http::write_response(
                &mut stream,
                503,
                &api::error_body("overload", "connection limit reached"),
                false,
            );
            continue;
        }
        shared.connections.fetch_add(1, Ordering::SeqCst);
        let shared = shared.clone();
        let _ = std::thread::Builder::new()
            .name("ds-serve-conn".to_string())
            .spawn(move || {
                handle_connection(&shared, stream);
                shared.connections.fetch_sub(1, Ordering::SeqCst);
            });
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match http::read_request(&mut reader, shared.config.max_body_bytes) {
            Ok(ReadOutcome::Closed) => break,
            Ok(ReadOutcome::Idle) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Ok(ReadOutcome::Request(request)) => {
                let started = Instant::now();
                let (status, body) = api::handle(shared, &request);
                let stats = &shared.stats;
                stats.requests.fetch_add(1, Ordering::Relaxed);
                if status == 503 {
                    stats.rejected.fetch_add(1, Ordering::Relaxed);
                } else if (400..500).contains(&status) {
                    stats.client_errors.fetch_add(1, Ordering::Relaxed);
                }
                if ds_obs::enabled() {
                    let secs = started.elapsed().as_secs_f64();
                    ds_obs::observe(
                        "serve.request_latency_s",
                        secs,
                        ds_obs::Buckets::DurationSecs,
                    );
                    ds_obs::observe(
                        api::latency_metric(&request.path),
                        secs,
                        ds_obs::Buckets::DurationSecs,
                    );
                }
                let keep = request.keep_alive && !shared.shutdown.load(Ordering::SeqCst);
                if http::write_response(&mut writer, status, &body, keep).is_err() || !keep {
                    break;
                }
            }
            Err(HttpError::BodyTooLarge { limit }) => {
                let body = api::error_body(
                    "body_too_large",
                    &format!("request body exceeds the {limit}-byte limit"),
                );
                let _ = http::write_response(&mut writer, 413, &body, false);
                break;
            }
            Err(HttpError::Malformed(msg)) => {
                let _ = http::write_response(
                    &mut writer,
                    400,
                    &api::error_body("malformed", msg),
                    false,
                );
                break;
            }
            Err(HttpError::Io(_)) => break,
        }
    }
}

/// One inference worker: run queued jobs until shutdown. Each worker
/// keeps its own plan clones — the arenas inside are written in place on
/// every call, so sharing them would need a lock; cloning trades a
/// little memory (reported via `arena_bytes`) for a lock-free hot path.
fn worker_loop(shared: &Arc<Shared>) {
    let mut plans: BTreeMap<PlanKey, FrozenCamal> = BTreeMap::new();
    let mut states = Vec::new();
    while let Some(job) = shared.queue.next_work() {
        match job {
            Job::Window(job) => {
                let stats = &shared.stats;
                stats.batches.fetch_add(1, Ordering::Relaxed);
                stats.batched_windows.fetch_add(1, Ordering::Relaxed);
                let reply = worker_plan(shared, &mut plans, &job.key)
                    .and_then(|plan| run_window(plan, &job, stats));
                let _ = job.tx.send(reply);
            }
            Job::Series(job) => {
                let reply = worker_plan(shared, &mut plans, &job.key).map(|plan| {
                    plan.predict_status_into(&job.series, job.window, &mut states);
                    states.clone()
                });
                let _ = job.tx.send(reply);
            }
        }
    }
}

/// This worker's clone of the plan for `key`, adopted from the registry's
/// frozen template on first use.
fn worker_plan<'a>(
    shared: &Shared,
    plans: &'a mut BTreeMap<PlanKey, FrozenCamal>,
    key: &PlanKey,
) -> Result<&'a mut FrozenCamal, JobError> {
    if !plans.contains_key(key) {
        let template = shared.registry.get_or_freeze(key).map_err(JobError::Plan)?;
        plans.insert(key.clone(), (*template).clone());
    }
    Ok(plans.get_mut(key).expect("plan adopted above"))
}

/// One window through the plan as a single-window kernel call.
fn run_window(plan: &mut FrozenCamal, job: &WindowJob, stats: &ServerStats) -> WindowResult {
    // The zero-steady-state-allocs contract is measured around the kernel
    // call alone: request framing and reply building allocate by design;
    // the inference must not.
    let before = ds_obs::alloc_count();
    let result = plan.try_localize_batch_into(&[job.window.as_slice()]);
    let allocs = ds_obs::alloc_count() - before;
    stats.steady_allocs.fetch_add(allocs, Ordering::Relaxed);
    let batch = result.map_err(JobError::Camal)?;
    let (with_status, include_cam) = match job.kind {
        JobKind::Detect => (false, false),
        JobKind::Localize { include_cam } => (true, include_cam),
    };
    Ok(WindowReply {
        probability: batch.probability(0),
        detected: batch.detected(0),
        members: batch.member_probabilities(0).collect(),
        status: if with_status {
            batch.status(0).to_vec()
        } else {
            Vec::new()
        },
        cam: if include_cam {
            batch.cam(0).to_vec()
        } else {
            Vec::new()
        },
    })
}

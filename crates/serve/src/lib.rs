//! ds-serve: a zero-dependency HTTP/1.1 serving front for frozen CamAL
//! plans.
//!
//! The single-request path is fast in-process (frozen f32 plans, SIMD
//! kernels, streaming reuse); this crate serves it to a fleet. The
//! server is plain `std`: a `TcpListener` accept loop, one detached
//! thread per live connection (bounded), and a fixed pool of inference
//! workers — no async runtime, mirroring the hand-rolled ds-par
//! worker-team style.
//!
//! ## One FIFO, work-conserving workers
//!
//! Every `detect`/`localize` window and every `status-series` request is
//! one job in a single bounded FIFO (the private `queue` module). An idle
//! worker takes the oldest job at once: a window runs as one
//! single-window kernel call on the plan for its [`PlanKey`] = (preset,
//! appliance, window length, backbone), a series as one streaming pass.
//! No job waits on a timer or for company. Fusing windows across
//! requests was measured to buy nothing — the frozen kernels cost the same
//! per window at batch 1 as at batch 16 — while every lone request paid
//! the fusing deadline. The `serve_throughput` perf case
//! (`ds_bench::serveload`) and `tests/serve_concurrency.rs` verify zero
//! decision flips against direct per-request calls.
//!
//! ## Plans, arenas, allocations
//!
//! Models register once into a [`registry::ModelRegistry`]; the first
//! request for a `PlanKey` freezes the plan exactly once (OnceLock), warms
//! its arena at the full chunk shape, and each inference worker clones the
//! warm template — one arena per worker, no locks on the hot path, and
//! zero steady-state heap allocations, asserted under load via the ds-obs
//! allocation counter.
//!
//! ## Backpressure
//!
//! Admission control is typed and bounded: the accept loop caps live
//! connections, the queue caps queued jobs (`queue_depth`), and every
//! rejection or model error maps to a JSON error body with a meaningful
//! status — validation 400, unknown plan 404, stream-order conflicts 409,
//! overload 503. ds-obs wiring: `serve.request_latency_s` histograms per
//! endpoint against the 50 ms p99 SLO budget, and a queue-depth gauge.

use std::sync::atomic::AtomicU64;

mod api;
pub mod client;
pub mod http;
mod queue;
pub mod registry;
mod server;

pub use client::Client;
pub use registry::{ModelRegistry, PlanError, PlanKey};
pub use server::{Server, ServerHandle};

/// Tuning knobs for one [`Server`]. `Default` is sized for a small box:
/// worker count follows the ds-par thread resolution (`DS_PAR_THREADS`).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Inference worker threads (each owns a clone of every plan it
    /// serves). Defaults to `ds_par::threads()`.
    pub workers: usize,
    /// Maximum queued jobs (windows + series) across all plans before
    /// admission rejects with 503.
    pub queue_depth: usize,
    /// Maximum simultaneously live connections; excess accepts get an
    /// immediate 503 and a close.
    pub max_connections: usize,
    /// Request body size cap (bytes); larger bodies get 413.
    pub max_body_bytes: usize,
    /// Maximum live streaming push sessions (distinct meter × plan).
    pub max_sessions: usize,
    /// Ring capacity of each push session, in windows.
    pub stream_window_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: ds_par::threads(),
            queue_depth: 256,
            max_connections: 64,
            max_body_bytes: 8 * 1024 * 1024,
            max_sessions: 256,
            stream_window_capacity: 64,
        }
    }
}

/// Live counters a running server exposes on `/api/v1/stats` and that the
/// `serve_throughput` perf case (`ds_bench::serveload`) asserts against. All plain atomics so they work (and cost
/// nearly nothing) whether or not ds-obs recording is enabled.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// HTTP requests answered (any status).
    pub requests: AtomicU64,
    /// 503 responses (queue full, connection cap, session cap, shutdown).
    pub rejected: AtomicU64,
    /// 4xx responses other than 503 (validation, unknown plan, conflicts).
    pub client_errors: AtomicU64,
    /// Window jobs run. Kept only so `perfbench/` compiles unchanged; the
    /// next benchmark PR removes it (ROADMAP item 10).
    pub batches: AtomicU64,
    /// Window jobs run, equal to `batches`. Kept only so `perfbench/`
    /// compiles unchanged; the next benchmark PR removes it (ROADMAP item 10).
    pub batched_windows: AtomicU64,
    /// Never incremented. Kept only so `perfbench/` compiles unchanged; the
    /// next benchmark PR removes it (ROADMAP item 10).
    pub deadline_batches: AtomicU64,
    /// Heap allocations observed *inside* kernel calls after plan warmup.
    /// The contract is zero; the `serve_throughput` perf case asserts it.
    pub steady_allocs: AtomicU64,
}

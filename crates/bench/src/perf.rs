//! Performance harness for the serving substrate: sequential-vs-parallel
//! baselines for ds-par, scalar-vs-AVX2 baselines for the conv kernels,
//! frozen-vs-mutable baselines for the BN-folded inference plan, and the
//! cost of ds-obs instrumentation.
//!
//! Every case times a reference path pinned to one worker
//! (`ds_par::set_threads(Some(1))`) against an optimized path at the
//! configured team size. Each ds-par case runs the same workload on both
//! sides. Each kernel case (`conv_forward`, `frozen_conv`,
//! `conv_backward`) runs the scalar twin against the dispatched kernel.
//! Each frozen case runs the mutable reference path (the trainable
//! ensemble) against the frozen plan ([`ds_camal::FrozenCamal`] /
//! [`ds_camal::FrozenEnsemble`]), which is sequential by design, so its
//! ratio reads the same on one core and on many; `frozen_predict` and
//! `frozen_localize` pin that reference to the scalar kernels. All paths
//! are timed over interleaved rounds after one untimed warmup iteration
//! per path (the warmup also sizes the frozen arenas, so the timed region
//! is the steady state). A round times one pass of each path back to
//! back, so host-load drift hits both equally; the speedup is the median
//! of the per-round ratios, and each throughput number projects the
//! path's fastest round (external noise only ever adds time, so the
//! minimum is the estimator closest to intrinsic cost). See
//! `sample_paths`.
//!
//! Contracts enforced on every run:
//! - ds-par cases compare outputs **bit for bit** — parallelism never
//!   changes numerics ([`run_sweep`] panics otherwise).
//! - frozen cases compare ensemble probabilities within `1e-4` max-abs
//!   (BN folding reassociates float products) and report
//!   `decision_flips` — windows whose thresholded detection or status
//!   mask changed. A published report must show zero flips.
//! - frozen cases assert **zero heap allocations** per steady-state
//!   iteration (via the ds-obs per-thread allocation counter) whenever
//!   observability is off, and publish `allocs_per_window` either way.
//!
//! The `perf` binary renders the suite as a table and persists it to
//! `results/BENCH_perf.json` — one sweep entry per `--threads` value.
//! Every case has one row in [`crate::gates::GATES`], which the `regress`
//! sentinel judges it by.

use ds_camal::localizer::localize_batch;
use ds_camal::{Backbone, Camal, CamalConfig, LocalizerConfig, ResNetEnsemble, StreamingCamal};
use ds_neural::batchnorm::BatchNorm1d;
use ds_neural::conv::Conv1d;
use ds_neural::frozen::FrozenConv;
use ds_neural::simd::{self, SimdMode};
use ds_neural::tensor::Tensor;
use ds_neural::train::train_classifier_reference;
use ds_neural::VisitParams;
use ds_timeseries::faults::FaultPlan;
use ds_timeseries::{Status, TimeSeries};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One baseline-vs-optimized measurement. The baseline (`seq_*`) always
/// runs pinned to one worker. For ds-par cases the optimized (`par_*`) is
/// the same workload on the configured team; for frozen cases the
/// baseline is the mutable reference path and the optimized is the
/// frozen plan (sequential by design — its dispatch-free inner loop is
/// where the speedup lives).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfCase {
    /// Workload name: one of the [`crate::gates::GATES`] rows.
    pub name: String,
    /// Elements produced per iteration (output samples of the workload).
    pub elements_per_iter: u64,
    /// Iterations the throughput totals project over. The sampled cases
    /// time three rounds per iteration; `serve_throughput` runs once.
    pub iters: u64,
    /// Baseline wall time for `iters` iterations, seconds, projected
    /// from the fastest observed round (see the module docs).
    pub seq_secs: f64,
    /// Optimized wall time for `iters` iterations, seconds, projected
    /// from the fastest observed round (see the module docs).
    pub par_secs: f64,
    /// Baseline throughput over post-warmup iterations, elements/second.
    pub seq_elements_per_sec: f64,
    /// Optimized throughput over post-warmup iterations, elements/second.
    pub par_elements_per_sec: f64,
    /// Baseline time over optimized time, the median of the per-round
    /// ratios — > 1 means the optimized path is faster. It can differ a
    /// little from `seq_secs / par_secs`, whose two minima may come from
    /// different rounds.
    pub speedup: f64,
    /// ds-par cases: whether the two paths produced bit-identical
    /// outputs. Frozen cases: whether every thresholded decision matched
    /// (`decision_flips == 0`). Always true in a published report.
    pub bit_identical: bool,
    /// Frozen cases: windows whose detection flag or status mask differed
    /// from the reference path. Zero for ds-par cases by construction.
    pub decision_flips: u64,
    /// Heap-allocation events per window on the optimized path's calling
    /// thread, averaged over the timed iterations. Zero for the frozen
    /// cases in steady state (asserted when observability is off).
    pub allocs_per_window: f64,
    /// Serving-specific measurements, present only on the
    /// `serve_throughput` case (absent in reports written before it
    /// existed).
    #[serde(default)]
    pub serve: Option<ServeStats>,
}

/// HTTP-serving measurements attached to the `serve_throughput` case.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeStats {
    /// Served requests per second over the timed closed-loop phase.
    pub req_per_sec: f64,
    /// Median per-request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-request latency, milliseconds. The published
    /// SLO is 50 ms; the regression sentinel enforces it.
    pub p99_ms: f64,
    /// Non-200 responses during the timed phase (zero in a published
    /// report: the main server is provisioned for the schedule).
    pub errors: u64,
}

/// The cases measured at one worker-team size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfSweep {
    /// Worker-team size the sweep ran with.
    pub threads: usize,
    /// The measurements.
    pub cases: Vec<PerfCase>,
}

/// The full suite, as persisted to `results/BENCH_perf.json`: one sweep
/// per requested thread count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfReport {
    /// Whether this was the reduced smoke configuration (CI) or the full
    /// benchmark configuration.
    pub smoke: bool,
    /// SIMD dispatch decision the run was measured under
    /// ([`simd::label`]): `"avx2"` on vectorized hosts, `"scalar"`
    /// otherwise. The regression sentinel keys its absolute frozen
    /// speedup floors on this, so a scalar host (or a
    /// `DS_SIMD=off` twin run) is judged against the scalar contract
    /// instead of the vectorized one. Reports written before the field
    /// existed deserialize as the empty string, which the sentinel
    /// treats like any non-"avx2" label: scalar floors.
    #[serde(default)]
    pub simd: String,
    /// Logical cores of the measuring host
    /// (`std::thread::available_parallelism`), recorded once so a
    /// report's numbers can be read against the hardware that produced
    /// them. Zero in reports written before the field existed.
    #[serde(default)]
    pub host_cores: usize,
    /// Ambient ds-par worker-team size the run started under (the
    /// `DS_PAR_THREADS` resolution) before any `--threads` override.
    /// Zero in reports written before the field existed.
    #[serde(default)]
    pub par_threads: usize,
    /// One entry per `--threads` value, in request order.
    pub sweeps: Vec<PerfSweep>,
}

/// Workload sizes, reduced under `--smoke` so CI stays fast.
#[derive(Debug, Clone, Copy)]
pub struct PerfScale {
    /// Batch rows (windows) per iteration.
    pub batch: usize,
    /// Samples per window.
    pub window: usize,
    /// Iterations per path: the sampled cases time
    /// `ROUNDS_PER_ITER` rounds per iteration.
    pub iters: usize,
}

impl PerfScale {
    /// CI-sized — currently the same shape as [`PerfScale::full`]
    /// (~20 s end to end on two workers). Anything thinner makes the CI
    /// frozen-speedup gate flaky: the frozen plan's advantage lives in
    /// the interior conv loops and in reusing warm arena pages, so short
    /// windows (mostly padded edges and per-call overhead) and small
    /// batches (the mutable path's fresh allocations stay cheap) both
    /// thin the margin below the measurement noise on a shared host.
    pub fn smoke() -> PerfScale {
        PerfScale::full()
    }

    /// Benchmark-sized: paper-scale 12 h windows.
    pub fn full() -> PerfScale {
        PerfScale {
            batch: 32,
            window: 720,
            iters: 5,
        }
    }
}

fn time_once<R>(mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64()
}

/// Run `f` pinned to one worker, restoring the *current* team size after
/// — not the environment default, so `--threads` sweep overrides survive.
fn seq<R>(f: impl FnOnce() -> R) -> R {
    let prev = ds_par::threads();
    ds_par::set_threads(Some(1));
    let out = f();
    ds_par::set_threads(Some(prev));
    out
}

/// Run `f` on the scalar kernels, then restore the resolved dispatch.
fn on_scalar_kernels<R>(f: impl FnOnce() -> R) -> R {
    simd::set_mode(Some(SimdMode::Scalar));
    let out = f();
    simd::set_mode(None);
    out
}

/// The fastest observed sample. On a shared host every slowdown source
/// (scheduler preemption, frequency drift, cache pollution from
/// neighbours) only *adds* time, so the minimum is the estimator closest
/// to the workload's intrinsic cost.
fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Timed rounds per projected iteration. At five rounds, runs on a
/// shared 2-vCPU host read the scalar `frozen_predict` ratio anywhere
/// from 1.06× to 1.64×, whichever estimator, as neighbour load came and
/// went. At fifteen, nine of ten CI-shaped runs read 1.16–1.23×; one
/// under sustained neighbour load read 1.08×.
const ROUNDS_PER_ITER: usize = 3;

/// What [`sample_paths`] measured.
#[derive(Debug, Clone, Copy)]
struct Timing {
    /// Baseline total: fastest round × `iters`, seconds.
    seq_secs: f64,
    /// Optimized total: fastest round × `iters`, seconds.
    par_secs: f64,
    /// Median over rounds of `baseline / optimized`, each ratio taken
    /// from the two passes of one round.
    speedup: f64,
    /// Optimized-path heap allocations per window (calling thread).
    allocs_per_window: f64,
}

/// Time a baseline and an optimized path over interleaved rounds after
/// one untimed warmup pass per path. A round times one pass of each path
/// back to back, alternating which goes first: the second of two
/// back-to-back passes measurably reads slower on a shared host. The
/// speedup is the median of the per-round ratios. Both passes of a round
/// see the same host load, so a burst that slows one round leaves its
/// ratio alone. The fastest pass of each path, taken separately, can
/// come from different quiet spells: on the millisecond obs-overhead
/// passes their ratio read 0.80× to 1.09× across twenty runs where the
/// paired median read 0.99× to 1.01×. Throughputs project the fastest
/// round over `iters`. The baseline runs under [`seq`], so its cost does not
/// depend on the host's core count; the optimized path runs at the
/// ambient team size.
fn sample_paths(
    iters: usize,
    windows_per_iter: u64,
    mut baseline: impl FnMut(),
    mut optimized: impl FnMut(),
) -> Timing {
    seq(&mut baseline);
    optimized();
    let rounds = iters * ROUNDS_PER_ITER;
    let mut base_samples = Vec::with_capacity(rounds);
    let mut opt_samples = Vec::with_capacity(rounds);
    let mut allocs = 0u64;
    let mut time_optimized = || {
        let before = ds_obs::alloc_count();
        let secs = time_once(&mut optimized);
        allocs += ds_obs::alloc_count() - before;
        secs
    };
    for i in 0..rounds {
        let (base, opt) = if i % 2 == 0 {
            let base = seq(|| time_once(&mut baseline));
            (base, time_optimized())
        } else {
            let opt = time_optimized();
            (seq(|| time_once(&mut baseline)), opt)
        };
        base_samples.push(base.max(f64::MIN_POSITIVE));
        opt_samples.push(opt.max(f64::MIN_POSITIVE));
    }
    let mut ratios: Vec<f64> = base_samples
        .iter()
        .zip(&opt_samples)
        .map(|(b, o)| b / o)
        .collect();
    ratios.sort_by(f64::total_cmp);
    Timing {
        seq_secs: best(&base_samples) * iters as f64,
        par_secs: best(&opt_samples) * iters as f64,
        speedup: ratios[rounds / 2],
        allocs_per_window: allocs as f64 / (rounds as u64 * windows_per_iter) as f64,
    }
}

/// [`sample_paths`] for ds-par cases, where baseline and optimized run
/// the *same* closure (pinned vs ambient team).
fn sample_same_path(iters: usize, windows_per_iter: u64, work: impl FnMut()) -> Timing {
    let work = std::cell::RefCell::new(work);
    sample_paths(
        iters,
        windows_per_iter,
        || work.borrow_mut()(),
        || work.borrow_mut()(),
    )
}

fn build_case(
    name: &str,
    elements_per_iter: u64,
    iters: usize,
    bit_identical: bool,
    decision_flips: u64,
    timing: Timing,
) -> PerfCase {
    let total = (elements_per_iter * iters as u64) as f64;
    PerfCase {
        name: name.to_string(),
        elements_per_iter,
        iters: iters as u64,
        seq_secs: timing.seq_secs,
        par_secs: timing.par_secs,
        seq_elements_per_sec: total / timing.seq_secs,
        par_elements_per_sec: total / timing.par_secs,
        speedup: timing.speedup,
        bit_identical,
        decision_flips,
        allocs_per_window: timing.allocs_per_window,
        serve: None,
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The `Conv1d` forward over a paper-scale layer (8→16 channels, k = 9),
/// the forward twin of [`conv_backward_case`]: scalar twin vs the
/// dispatched path, both pinned to one worker so the ratio is the
/// kernels' alone. The AVX2 forward multiplies and adds separately, so
/// `bit_identical` means the outputs match bit for bit. On hosts without
/// AVX2 (or with `DS_SIMD=off`) both paths run the scalar twin and the
/// speedup reads 1.0×. The timed loops reuse one output tensor each via
/// `infer_into`, so the dispatched pass must not allocate.
fn conv_forward_case(scale: PerfScale) -> PerfCase {
    let conv = Conv1d::new(8, 16, 9, 1);
    let x = Tensor::from_data(
        scale.batch,
        8,
        scale.window,
        (0..scale.batch * 8 * scale.window)
            .map(|i| ((i % 97) as f32 - 48.0) * 0.021)
            .collect(),
    );
    let scalar = on_scalar_kernels(|| seq(|| conv.infer(&x)));
    let dispatched = seq(|| conv.infer(&x));
    let identical = bits(&scalar.data) == bits(&dispatched.data);
    assert!(identical, "conv forward: SIMD output diverged from scalar");
    let elements = (scale.batch * 16 * scale.window) as u64;
    let mut y_scalar = Tensor::zeros(scale.batch, 16, scale.window);
    let mut y = Tensor::zeros(scale.batch, 16, scale.window);
    assert_zero_alloc(|| seq(|| conv.infer_into(&x, &mut y)), "conv forward");
    let timing = sample_paths(
        scale.iters,
        scale.batch as u64,
        || on_scalar_kernels(|| conv.infer_into(&x, &mut y_scalar)),
        || {
            seq(|| conv.infer_into(&x, &mut y));
        },
    );
    build_case("conv_forward", elements, scale.iters, identical, 0, timing)
}

/// The frozen conv kernel in isolation (same 8→16 / k = 9 layer as
/// [`conv_forward_case`], BN folded, ReLU fused): scalar determinism twin
/// vs the AVX2/FMA SIMD path. On hosts without AVX2 (or with
/// `DS_SIMD=off`) both paths run the scalar twin and the speedup reads
/// 1.0×. `bit_identical` here means "within the `1e-6`-relative SIMD
/// parity tolerance" — FMA contracts mul+add, so exact bit equality is
/// not the contract.
fn frozen_conv_case(scale: PerfScale) -> PerfCase {
    let conv = Conv1d::new(8, 16, 9, 1);
    let bn = BatchNorm1d::new(16);
    let frozen = FrozenConv::fold(&conv, &bn);
    let x: Vec<f32> = (0..scale.batch * 8 * scale.window)
        .map(|i| ((i % 97) as f32 - 48.0) * 0.021)
        .collect();
    let n_out = scale.batch * 16 * scale.window;
    let mut y_scalar = vec![0.0f32; n_out];
    let mut y_simd = vec![0.0f32; n_out];
    on_scalar_kernels(|| frozen.infer_into(&x, scale.batch, scale.window, &mut y_scalar, true));
    frozen.infer_into(&x, scale.batch, scale.window, &mut y_simd, true);
    let within_tolerance = y_scalar
        .iter()
        .zip(&y_simd)
        .all(|(a, b)| (a - b).abs() <= 1e-6 * a.abs().max(1.0));
    assert!(within_tolerance, "frozen conv: SIMD diverged from scalar");
    let elements = n_out as u64;
    let timing = sample_paths(
        scale.iters,
        scale.batch as u64,
        || {
            on_scalar_kernels(|| {
                frozen.infer_into(&x, scale.batch, scale.window, &mut y_scalar, true)
            })
        },
        || {
            frozen.infer_into(&x, scale.batch, scale.window, &mut y_simd, true);
        },
    );
    build_case(
        "frozen_conv",
        elements,
        scale.iters,
        within_tolerance,
        0,
        timing,
    )
}

/// The conv backward kernels in isolation (same 8→16 / k = 9 layer as
/// [`conv_forward_case`]): scalar twin vs the AVX2 path, both pinned to
/// one worker so the ratio is the kernels' alone. The AVX2 kernels are
/// bit-exact twins, so `bit_identical` means the input, weight and bias
/// gradients all match bit for bit. On hosts without AVX2 (or with
/// `DS_SIMD=off`) both paths run the scalar twin and the speedup reads
/// 1.0×.
fn conv_backward_case(scale: PerfScale) -> PerfCase {
    let mut conv = Conv1d::new(8, 16, 9, 1);
    let x = Tensor::from_data(
        scale.batch,
        8,
        scale.window,
        (0..scale.batch * 8 * scale.window)
            .map(|i| ((i % 97) as f32 - 48.0) * 0.021)
            .collect(),
    );
    let g = Tensor::from_data(
        scale.batch,
        16,
        scale.window,
        (0..scale.batch * 16 * scale.window)
            .map(|i| ((i % 89) as f32 - 44.0) * 0.013)
            .collect(),
    );
    conv.forward(&x, true);
    let gradients = |mode: SimdMode| {
        let mut fresh = conv.clone();
        simd::set_mode(Some(mode));
        let grad_in = seq(|| fresh.backward(&g));
        simd::set_mode(None);
        [
            bits(&grad_in.data),
            bits(&fresh.grad_weight),
            bits(&fresh.grad_bias),
        ]
    };
    let identical = gradients(SimdMode::Scalar) == gradients(simd::mode());
    assert!(
        identical,
        "conv backward: SIMD gradients diverged from scalar"
    );
    let elements = (scale.batch * 8 * scale.window) as u64;
    let cell = std::cell::RefCell::new(conv);
    let timing = sample_paths(
        scale.iters,
        scale.batch as u64,
        || {
            on_scalar_kernels(|| cell.borrow_mut().backward(&g));
        },
        || {
            seq(|| cell.borrow_mut().backward(&g));
        },
    );
    build_case("conv_backward", elements, scale.iters, identical, 0, timing)
}

/// Full-ensemble prediction (probabilities + CAMs, 4 members).
fn ensemble_predict_case(scale: PerfScale) -> PerfCase {
    let cfg = CamalConfig {
        channels: vec![8, 16],
        ..CamalConfig::default()
    };
    let ensemble = ResNetEnsemble::untrained(&cfg);
    let x = Tensor::from_data(
        scale.batch,
        1,
        scale.window,
        (0..scale.batch * scale.window)
            .map(|i| ((i % 131) as f32) * 13.7)
            .collect(),
    );
    let reference = seq(|| ensemble.predict(&x));
    let parallel = ensemble.predict(&x);
    let identical = reference.len() == parallel.len()
        && reference.iter().zip(&parallel).all(|(a, b)| {
            bits(&a.probs) == bits(&b.probs)
                && a.cams.len() == b.cams.len()
                && a.cams
                    .iter()
                    .zip(&b.cams)
                    .all(|(ca, cb)| bits(ca) == bits(cb))
        });
    assert!(identical, "ensemble predict: parallel output diverged");
    let elements = (scale.batch * scale.window * ensemble.len()) as u64;
    let timing = sample_same_path(scale.iters, scale.batch as u64, || {
        ensemble.predict(&x);
    });
    build_case(
        "ensemble_predict",
        elements,
        scale.iters,
        identical,
        0,
        timing,
    )
}

/// The end-to-end CamAL pipeline (steps 1–6) over a batch of windows.
fn e2e_localize_case(scale: PerfScale) -> PerfCase {
    let cfg = CamalConfig {
        channels: vec![8, 16],
        ..CamalConfig::default()
    };
    let ensemble = ResNetEnsemble::untrained(&cfg);
    let loc_cfg = LocalizerConfig {
        gate_on_detection: false,
        ..LocalizerConfig::default()
    };
    let windows: Vec<Vec<f32>> = (0..scale.batch)
        .map(|w| {
            (0..scale.window)
                .map(|i| ((w * 13 + i) % 29) as f32 * 55.0 + (i as f32 * 0.11).sin() * 20.0)
                .collect()
        })
        .collect();
    let refs: Vec<&[f32]> = windows.iter().map(|w| w.as_slice()).collect();
    let reference = seq(|| localize_batch(&ensemble, &refs, &loc_cfg));
    let parallel = localize_batch(&ensemble, &refs, &loc_cfg);
    let identical = reference.len() == parallel.len()
        && reference.iter().zip(&parallel).all(|(a, b)| {
            bits(&a.cam) == bits(&b.cam)
                && a.status == b.status
                && a.detection.probability.to_bits() == b.detection.probability.to_bits()
        });
    assert!(identical, "e2e localize: parallel output diverged");
    let elements = (scale.batch * scale.window) as u64;
    let timing = sample_same_path(scale.iters, scale.batch as u64, || {
        localize_batch(&ensemble, &refs, &loc_cfg);
    });
    build_case("e2e_localize", elements, scale.iters, identical, 0, timing)
}

/// The synthetic, linearly separable corpus shared by the training case
/// and the frozen serving model: odd windows carry a periodic burst.
fn separable_corpus(scale: PerfScale) -> (Vec<Vec<f32>>, Vec<u8>) {
    let windows: Vec<Vec<f32>> = (0..scale.batch)
        .map(|w| {
            (0..scale.window)
                .map(|i| {
                    let base = ((w * 17 + i) % 23) as f32 * 0.04;
                    let burst = if w % 2 == 1 && i % 50 < 20 { 1.0 } else { 0.0 };
                    base + burst
                })
                .collect()
        })
        .collect();
    let labels: Vec<u8> = (0..scale.batch).map(|w| (w % 2) as u8).collect();
    (windows, labels)
}

/// Deterministic parallel training of the paper's 4-member ensemble
/// (k ∈ {5, 7, 9, 15}) for two epochs: members fan out across the worker
/// team, layers split batches into fixed micro-batches, and gradients
/// tree-reduce in slot order.
///
/// Unlike the inference cases, the sequential twin here is the preserved
/// pre-workspace trainer: the legacy batching loop
/// ([`train_classifier_reference`]: per-batch window clones and input
/// re-allocation) with layer buffer reuse disabled
/// (`workspace::set_buffer_reuse(false)`), reproducing the historical
/// per-call allocation profile, pinned to one worker — i.e. the speedup
/// reads as "what replacing the legacy sequential trainer with the
/// zero-alloc data-parallel trainer buys". Bit-identity is checked three
/// ways — legacy sequential, new sequential, new parallel — over every
/// trained weight of every member plus the per-epoch losses, so the
/// number also certifies that the allocation-free rewrite reproduces the
/// legacy trainer exactly. (The corpus size is a multiple of the batch
/// size so the legacy loop's dropped-singleton bug is not in play.)
fn train_epoch_case(scale: PerfScale) -> PerfCase {
    let mut cfg = CamalConfig {
        channels: vec![4, 8],
        ..CamalConfig::default()
    };
    cfg.train.epochs = 2;
    cfg.train.batch_size = 4;
    cfg.train.patience = None;
    assert_eq!(
        scale.batch % cfg.train.batch_size,
        0,
        "corpus must split evenly so legacy and fixed batching agree"
    );
    let (windows, labels) = separable_corpus(scale);
    let fingerprint = |ensemble: &mut ResNetEnsemble, losses: &[Vec<f32>]| -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for member in ensemble.members_mut() {
            member.visit_params(&mut |params, _| {
                out.extend(params.iter().map(|v| v.to_bits()));
            });
        }
        for epoch_losses in losses {
            out.extend(epoch_losses.iter().map(|v| v.to_bits()));
        }
        out
    };
    let train_new = || {
        let mut ensemble = ResNetEnsemble::untrained(&cfg);
        let reports = ensemble.train(&windows, &labels, &cfg);
        let losses: Vec<Vec<f32>> = reports.into_iter().map(|r| r.epoch_losses).collect();
        fingerprint(&mut ensemble, &losses)
    };
    let train_legacy = || {
        ds_neural::workspace::set_buffer_reuse(false);
        let mut ensemble = ResNetEnsemble::untrained(&cfg);
        let losses: Vec<Vec<f32>> = ensemble
            .members_mut()
            .iter_mut()
            .enumerate()
            .map(|(i, member)| {
                let mut tc = cfg.train.clone();
                tc.shuffle_seed = cfg.train.shuffle_seed.wrapping_add(i as u64);
                let resnet = member
                    .as_resnet_mut()
                    .expect("reference trainer oracle is ResNet-only");
                train_classifier_reference(resnet, &windows, &labels, &tc).epoch_losses
            })
            .collect();
        ds_neural::workspace::set_buffer_reuse(true);
        fingerprint(&mut ensemble, &losses)
    };
    let legacy = seq(train_legacy);
    let sequential = seq(train_new);
    let parallel = train_new();
    let identical = legacy == sequential && legacy == parallel;
    assert!(identical, "train epoch: training paths diverged");
    let timing = sample_paths(
        scale.iters,
        scale.batch as u64,
        || {
            train_legacy();
        },
        || {
            train_new();
        },
    );
    // Elements: samples seen per run = windows × epochs × members.
    let elements = (scale.batch * scale.window * cfg.train.epochs * cfg.kernel_sizes.len()) as u64;
    build_case("train_epoch", elements, scale.iters, identical, 0, timing)
}

/// A briefly trained paper-shape model (4 members, 8→16 channels) for the
/// frozen serving cases.
/// Training moves the BatchNorm running statistics off their
/// initialization and pushes probabilities away from the 0.5 threshold,
/// so decision-identity is measured where it is meaningful — an untrained
/// ensemble sits exactly on the decision boundary.
pub(crate) fn trained_serving_model(scale: PerfScale) -> Camal {
    let mut cfg = CamalConfig {
        channels: vec![8, 16],
        ..CamalConfig::default()
    };
    cfg.train.epochs = 2;
    cfg.train.batch_size = 4;
    cfg.train.patience = None;
    let (windows, labels) = separable_corpus(scale);
    let mut ensemble = ResNetEnsemble::untrained(&cfg);
    ensemble.train(&windows, &labels, &cfg);
    Camal::from_parts(ensemble, cfg)
}

/// The windows the frozen cases predict on: varied, non-degenerate, and
/// disjoint from the training corpus pattern.
fn serving_windows(scale: PerfScale) -> Vec<Vec<f32>> {
    (0..scale.batch)
        .map(|w| {
            (0..scale.window)
                .map(|i| ((w * 13 + i) % 29) as f32 * 55.0 + (i as f32 * 0.11).sin() * 20.0)
                .collect()
        })
        .collect()
}

/// Assert the frozen path's steady state allocates nothing on this
/// thread. Only meaningful with observability off — the metric recording
/// itself allocates when enabled.
fn assert_zero_alloc(mut pass: impl FnMut(), what: &str) {
    if ds_obs::enabled() {
        return;
    }
    pass(); // warm: sizes every arena for this shape
    let before = ds_obs::alloc_count();
    pass();
    assert_eq!(
        ds_obs::alloc_count() - before,
        0,
        "{what}: steady-state pass allocated"
    );
}

/// Frozen ensemble prediction (probabilities + CAMs) against the mutable
/// reference path on the scalar kernels. The reference has always been
/// the mutable path on scalar kernels; since that path runs the AVX2
/// forward too, the pin keeps the row measuring what its 3.0× floor was
/// set against.
fn frozen_predict_case(scale: PerfScale, model: &Camal) -> PerfCase {
    let ensemble = model.ensemble();
    let windows = serving_windows(scale);
    let x = Tensor::from_windows(&windows);
    let mut frozen = ensemble.freeze();
    // Contract: probabilities within tolerance, decisions identical.
    let reference = ensemble.predict(&x);
    let ref_probs = ResNetEnsemble::ensemble_probability(&reference);
    frozen.predict_into(&x);
    let mut flips = 0u64;
    let mut max_abs = 0.0f32;
    for (r, f) in ref_probs.iter().zip(frozen.ensemble_probs()) {
        max_abs = max_abs.max((r - f).abs());
        if (*r > 0.5) != (*f > 0.5) {
            flips += 1;
        }
    }
    assert!(
        max_abs <= 1e-4,
        "frozen predict: probabilities drifted by {max_abs}"
    );
    assert_zero_alloc(|| frozen.predict_into(&x), "frozen predict");
    let timing = sample_paths(
        scale.iters,
        scale.batch as u64,
        || {
            on_scalar_kernels(|| ensemble.predict(&x));
        },
        || {
            frozen.predict_into(&x);
        },
    );
    let elements = (scale.batch * scale.window * ensemble.len()) as u64;
    build_case(
        "frozen_predict",
        elements,
        scale.iters,
        flips == 0,
        flips,
        timing,
    )
}

/// Frozen end-to-end localization (steps 1–6 through the reused
/// [`ds_camal::LocalizationBatch`] slabs) against the mutable batched
/// reference path on the scalar kernels, pinned as in
/// [`frozen_predict_case`].
fn frozen_localize_case(scale: PerfScale, model: &Camal) -> PerfCase {
    localize_parity_case("frozen_localize", scale, model, true)
}

/// Shared body of [`frozen_localize_case`] and the per-backbone zoo
/// cases: end-to-end frozen localization of `model` against its mutable
/// path, holding the standard contracts (probabilities within `1e-4`,
/// zero decision flips, zero steady-state allocations). The timed
/// mutable path runs on the scalar kernels when `scalar_reference` is
/// set, under the live dispatch otherwise.
fn localize_parity_case(
    name: &str,
    scale: PerfScale,
    model: &Camal,
    scalar_reference: bool,
) -> PerfCase {
    let windows = serving_windows(scale);
    let refs: Vec<&[f32]> = windows.iter().map(|w| w.as_slice()).collect();
    let mut frozen = model.freeze();
    let reference = model.localize_batch(&refs);
    let batch = frozen.localize_batch_into(&refs);
    let mut flips = 0u64;
    let mut max_abs = 0.0f32;
    for (w, loc) in reference.iter().enumerate() {
        max_abs = max_abs.max((batch.probability(w) - loc.detection.probability).abs());
        if batch.detected(w) != loc.detection.detected || batch.status(w) != loc.status.as_slice() {
            flips += 1;
        }
    }
    assert!(
        max_abs <= 1e-4,
        "{name}: probabilities drifted by {max_abs}"
    );
    assert_zero_alloc(
        || {
            frozen.localize_batch_into(&refs);
        },
        name,
    );
    let timing = sample_paths(
        scale.iters,
        scale.batch as u64,
        || {
            if scalar_reference {
                on_scalar_kernels(|| model.localize_batch(&refs));
            } else {
                model.localize_batch(&refs);
            }
        },
        || {
            frozen.localize_batch_into(&refs);
        },
    );
    let elements = (scale.batch * scale.window) as u64;
    build_case(name, elements, scale.iters, flips == 0, flips, timing)
}

/// A briefly trained single-backbone model for the backbone zoo cases —
/// the same corpus and recipe as [`trained_serving_model`] with every
/// ensemble member on `backbone`, so the case measures that backbone's
/// frozen kernels end to end.
fn trained_backbone_model(scale: PerfScale, backbone: Backbone) -> Camal {
    let mut cfg = CamalConfig {
        channels: vec![8, 16],
        backbones: vec![backbone],
        ..CamalConfig::default()
    };
    cfg.train.epochs = 2;
    cfg.train.batch_size = 4;
    cfg.train.patience = None;
    let (windows, labels) = separable_corpus(scale);
    let mut ensemble = ResNetEnsemble::untrained(&cfg);
    ensemble.train(&windows, &labels, &cfg);
    Camal::from_parts(ensemble, cfg)
}

/// Streaming incremental series prediction against the cost an
/// interactive consumer would otherwise pay: a full
/// [`ds_camal::FrozenCamal::predict_status_into`] recompute of the
/// accumulated prefix on every arriving delta. The stream absorbs
/// stride-sized pushes (stride = window / 4, i.e. consecutive emitted
/// prefixes overlap by ≥ 75 %) and re-emits the whole status series
/// after each one; absorbed windows replay from its slabs so only the
/// end-aligned tail window runs the model per emit.
///
/// Contracts checked before timing: the streamed status equals the
/// batch prediction on the same prefix at **every** push (bitwise, the
/// tri-state merge included), every completed clean window's
/// probability / CAM / status slab equals the batch plan's output
/// bitwise, and a warm reset-and-replay cycle allocates nothing.
/// `allocs_per_window` reads as allocations per *push* here. When CI's
/// `DS_FAULT` smoke is active the same fault plan degrades this feed,
/// so the gap/Unknown invalidation protocol is measured, not just the
/// clean path.
fn streaming_predict_case(scale: PerfScale, model: &Camal) -> PerfCase {
    let w = (scale.window / 3).max(8);
    let n_windows = 16usize;
    let stride = (w / 4).max(1);
    let built = n_windows * w;
    let mut series = TimeSeries::from_values(
        0,
        60,
        (0..built)
            .map(|i| ((i * 13) % 29) as f32 * 55.0 + (i as f32 * 0.11).sin() * 20.0)
            .collect(),
    );
    if let Some(plan) = FaultPlan::from_env().expect("DS_FAULT spec must parse") {
        series = plan.apply(&series).series;
    }
    let len = series.len();
    let values = series.values().to_vec();
    let mut batch_plan = model.freeze();
    let mut stream = StreamingCamal::new(model.freeze(), w, len.div_ceil(w).max(1));
    let bounds: Vec<(usize, usize)> = (0..len)
        .step_by(stride)
        .map(|lo| (lo, (lo + stride).min(len)))
        .collect();
    let pushes = bounds.len();

    let mut stream_states: Vec<Status> = Vec::new();
    let mut batch_states: Vec<Status> = Vec::new();
    let mut flips = 0u64;
    for &(lo, hi) in &bounds {
        stream
            .push_values(&values[lo..hi])
            .expect("stream sized for the full series");
        stream.status_into(&mut stream_states);
        let prefix = series.slice(0, hi).expect("prefix in range");
        batch_plan.predict_status_into(&prefix, w, &mut batch_states);
        flips += u64::from(stream_states != batch_states);
    }
    for i in 0..stream.windows_completed() {
        if !stream.window_clean(i) {
            continue;
        }
        let batch = batch_plan.localize_batch_into(&[&values[i * w..(i + 1) * w]]);
        let same = stream.window_probability(i).to_bits() == batch.probability(0).to_bits()
            && stream.window_detected(i) == batch.detected(0)
            && bits(stream.window_cam(i)) == bits(batch.cam(0))
            && stream.window_status(i) == batch.status(0);
        flips += u64::from(!same);
    }
    let identical = flips == 0;
    assert!(identical, "streaming predict: diverged from the batch path");

    assert_zero_alloc(
        || {
            stream.reset();
            for &(lo, hi) in &bounds {
                stream.push_values(&values[lo..hi]).unwrap();
                stream.status_into(&mut stream_states);
            }
        },
        "streaming predict",
    );

    let timing = sample_paths(
        scale.iters,
        pushes as u64,
        || {
            for &(_, hi) in &bounds {
                let prefix = series.slice(0, hi).expect("prefix in range");
                batch_plan.predict_status_into(&prefix, w, &mut batch_states);
            }
        },
        || {
            stream.reset();
            for &(lo, hi) in &bounds {
                stream.push_values(&values[lo..hi]).unwrap();
                stream.status_into(&mut stream_states);
            }
        },
    );
    build_case(
        "streaming_predict",
        len as u64,
        scale.iters,
        identical,
        flips,
        timing,
    )
}

/// HTTP serving throughput: the closed-loop load harness
/// ([`crate::serveload`]) against the direct-call baseline over the same
/// request sequence. The "baseline" is sequential in-process
/// single-window plan calls (what clients would pay with no server), the
/// "optimized" path is the full HTTP server — so the speedup reads as
/// "what serving costs (HTTP + JSON framing, queueing) net of what the
/// worker pool recovers", and parity-ish values are the expected shape. `bit_identical` means every serving contract held: the
/// oracle saw zero decision flips, the main phase saw no non-200s, the
/// streaming push smoke got 200s, and the overload probe both shed load
/// (503s) and served some (200s), then recovered. `allocs_per_window` is
/// the server's own steady-allocation counter per request.
fn serve_throughput_case(scale: PerfScale, model: &Camal) -> PerfCase {
    let config = crate::serveload::LoadConfig::from_scale(scale);
    let report = crate::serveload::run(&config, model);
    let clean = report.flips == 0
        && report.errors == 0
        && report.push_oks > 0
        && report.overload_rejected > 0
        && report.overload_ok > 0
        && report.recovered;
    let mut case = build_case(
        "serve_throughput",
        report.requests,
        1,
        clean,
        report.flips,
        Timing {
            seq_secs: report.direct_secs,
            par_secs: report.elapsed_secs,
            speedup: report.direct_secs / report.elapsed_secs,
            allocs_per_window: report.steady_allocs as f64 / report.requests.max(1) as f64,
        },
    );
    case.serve = Some(ServeStats {
        req_per_sec: report.req_per_sec,
        p50_ms: report.p50_ms,
        p99_ms: report.p99_ms,
        errors: report.errors,
    });
    case
}

/// Serializes tests that run the obs-overhead cases or assert on
/// allocation counts: those cases switch the process-wide ds-obs level.
#[cfg(test)]
pub(crate) static OBS_LEVEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run `f` at ds-obs `level`, restoring the level in force before.
fn at_obs_level<R>(level: ds_obs::Level, f: impl FnOnce() -> R) -> R {
    let prev = ds_obs::level();
    ds_obs::set_level(level);
    let out = f();
    ds_obs::set_level(prev);
    out
}

/// Shape of the obs-overhead cases. The bounds they gate are 2% and 5%,
/// so they run on one worker (ds-par spawn variance stays out) and take
/// many short rounds, 210 at full scale: the paired median held within
/// 1.3% of parity over twenty runs on a shared 2-vCPU host.
fn obs_shape(scale: PerfScale) -> PerfScale {
    PerfScale {
        batch: scale.batch.min(4),
        window: scale.window.min(256),
        iters: scale.iters * 14,
    }
}

/// The cost of ds-obs call sites with recording off: a conv forward
/// bare against the same pass wrapped in the span + counter + histogram
/// calls every instrumented hot path carries, both at `DS_OBS=off`. The
/// speedup reads `bare / instrumented`.
fn obs_overhead_off_case(scale: PerfScale) -> PerfCase {
    let shape = obs_shape(scale);
    let conv = Conv1d::new(8, 16, 9, 1);
    let x = Tensor::from_data(
        shape.batch,
        8,
        shape.window,
        (0..shape.batch * 8 * shape.window)
            .map(|i| ((i % 97) as f32 - 48.0) * 0.021)
            .collect(),
    );
    let mut y_bare = Tensor::zeros(shape.batch, 16, shape.window);
    let mut y_inst = Tensor::zeros(shape.batch, 16, shape.window);
    let instrumented = |y: &mut Tensor| {
        let _span = ds_obs::span!("bench.conv_pass");
        ds_obs::counter_add("bench.conv_calls", 1);
        conv.infer_into(&x, y);
        ds_obs::observe(
            "bench.conv_out",
            y.data[0].clamp(0.0, 1.0) as f64,
            ds_obs::Buckets::Unit,
        );
    };
    at_obs_level(ds_obs::Level::Off, || {
        seq(|| {
            conv.infer_into(&x, &mut y_bare);
            instrumented(&mut y_inst);
            let identical = bits(&y_bare.data) == bits(&y_inst.data);
            assert!(
                identical,
                "obs overhead: instrumentation changed the output"
            );
            assert_zero_alloc(|| instrumented(&mut y_inst), "obs overhead off");
            let timing = sample_paths(
                shape.iters,
                shape.batch as u64,
                || {
                    conv.infer_into(&x, &mut y_bare);
                },
                || {
                    instrumented(&mut y_inst);
                },
            );
            build_case(
                "obs_overhead_off",
                (shape.batch * 16 * shape.window) as u64,
                shape.iters,
                identical,
                0,
                timing,
            )
        })
    })
}

/// The cost of full event tracing on the latency-budgeted serving loop:
/// the frozen predict pass at `DS_OBS=off` against the same pass at
/// `DS_OBS=trace` (span begin/end into the per-thread trace buffers plus
/// allocation attribution). The speedup reads `off / trace`, and tracing
/// must not change a single output bit.
fn obs_overhead_trace_case(scale: PerfScale, model: &Camal) -> PerfCase {
    let shape = obs_shape(scale);
    let x = Tensor::from_windows(&serving_windows(shape));
    let mut frozen = model.ensemble().freeze();
    let traced = |frozen: &mut ds_camal::FrozenEnsemble| {
        at_obs_level(ds_obs::Level::Trace, || frozen.predict_into(&x));
    };
    at_obs_level(ds_obs::Level::Off, || {
        seq(|| {
            frozen.predict_into(&x);
            let off = bits(frozen.ensemble_probs());
            traced(&mut frozen);
            let identical = off == bits(frozen.ensemble_probs());
            assert!(identical, "obs overhead: tracing changed the output");
            let frozen = std::cell::RefCell::new(frozen);
            let timing = sample_paths(
                shape.iters,
                shape.batch as u64,
                || {
                    frozen.borrow_mut().predict_into(&x);
                },
                || {
                    traced(&mut frozen.borrow_mut());
                },
            );
            build_case(
                "obs_overhead_trace",
                (shape.batch * shape.window * model.ensemble().len()) as u64,
                shape.iters,
                identical,
                0,
                timing,
            )
        })
    })
}

fn run_cases(scale: PerfScale, model: &Camal, zoo: &[(&str, &Camal)]) -> Vec<PerfCase> {
    let mut cases = vec![
        conv_forward_case(scale),
        frozen_conv_case(scale),
        conv_backward_case(scale),
        ensemble_predict_case(scale),
        e2e_localize_case(scale),
        train_epoch_case(scale),
        frozen_predict_case(scale, model),
        frozen_localize_case(scale, model),
    ];
    // The backbone zoo: the same frozen-vs-mutable localization contract,
    // one case per non-ResNet architecture (ResNet is `frozen_localize`).
    // Named `backbone_*`, not `frozen_*`: the regress sentinel's SIMD
    // speedup floor calibrates to the ResNet conv stack and does not
    // transfer to attention-heavy backbones.
    for (name, backbone_model) in zoo {
        cases.push(localize_parity_case(name, scale, backbone_model, false));
    }
    cases.push(streaming_predict_case(scale, model));
    cases.push(serve_throughput_case(scale, model));
    cases.push(obs_overhead_off_case(scale));
    cases.push(obs_overhead_trace_case(scale, model));
    cases
}

/// Run every case at `scale` once per entry of `thread_counts`; panics if
/// any parallel path breaks bit-identity or any frozen path drifts past
/// tolerance. The serving model is trained once (training is
/// thread-count-invariant by the determinism contract) and reused across
/// sweeps.
pub fn run_sweep(scale: PerfScale, smoke: bool, thread_counts: &[usize]) -> PerfReport {
    let _span = ds_obs::span!("bench.perf_suite");
    assert!(!thread_counts.is_empty(), "need at least one thread count");
    let model = trained_serving_model(scale);
    let inception = trained_backbone_model(scale, Backbone::Inception);
    let transapp = trained_backbone_model(scale, Backbone::TransApp);
    let zoo: [(&str, &Camal); 2] = [
        ("backbone_inception", &inception),
        ("backbone_transapp", &transapp),
    ];
    let mut sweeps = Vec::with_capacity(thread_counts.len());
    for &t in thread_counts {
        ds_par::set_threads(Some(t));
        let cases = run_cases(scale, &model, &zoo);
        if let Some(fp) = cases.iter().find(|c| c.name == "frozen_predict") {
            ds_obs::gauge_set("frozen.allocs_per_window", fp.allocs_per_window);
            ds_obs::gauge_set("frozen.speedup_x100", fp.speedup * 100.0);
        }
        sweeps.push(PerfSweep {
            threads: ds_par::threads(),
            cases,
        });
    }
    ds_par::set_threads(None);
    PerfReport {
        smoke,
        simd: simd::label().to_string(),
        host_cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
        par_threads: ds_par::threads(),
        sweeps,
    }
}

/// [`run_sweep`] at the single ambient team size.
pub fn run_suite(scale: PerfScale, smoke: bool) -> PerfReport {
    run_sweep(scale, smoke, &[ds_par::threads()])
}

/// Render a report as aligned text tables, one per sweep, under a header
/// naming the host the numbers came from.
pub fn render(report: &PerfReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "host: {} core(s), ds-par team {}, simd {}\n",
        report.host_cores, report.par_threads, report.simd
    ));
    for sweep in &report.sweeps {
        let rows: Vec<Vec<String>> = sweep
            .cases
            .iter()
            .map(|c| {
                vec![
                    c.name.clone(),
                    format!("{}", c.elements_per_iter),
                    format!("{:.3e}", c.seq_elements_per_sec),
                    format!("{:.3e}", c.par_elements_per_sec),
                    format!("{:.2}x", c.speedup),
                    if c.bit_identical { "yes" } else { "NO" }.to_string(),
                    format!("{}", c.decision_flips),
                    format!("{:.1}", c.allocs_per_window),
                ]
            })
            .collect();
        out.push_str(&format!(
            "ds perf suite ({} worker{}, {} mode)\n{}",
            sweep.threads,
            if sweep.threads == 1 { "" } else { "s" },
            if report.smoke { "smoke" } else { "full" },
            crate::report::text_table(
                &[
                    "case",
                    "elems/iter",
                    "base elems/s",
                    "opt elems/s",
                    "speedup",
                    "identical",
                    "flips",
                    "allocs/win"
                ],
                &rows,
            )
        ));
        for case in &sweep.cases {
            if let Some(serve) = &case.serve {
                out.push_str(&format!(
                    "serving: {:.0} req/s, p50 {:.2} ms, p99 {:.2} ms (SLO 50 ms), \
                     {} errors\n",
                    serve.req_per_sec, serve.p50_ms, serve.p99_ms, serve.errors,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::{Allocs, GATES};

    #[test]
    fn smoke_suite_runs_and_is_bit_identical() {
        let _obs = OBS_LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let tiny = PerfScale {
            batch: 4,
            window: 64,
            iters: 1,
        };
        let report = run_suite(tiny, true);
        assert_eq!(report.sweeps.len(), 1);
        assert!(report.host_cores >= 1);
        assert!(report.par_threads >= 1);
        let cases = &report.sweeps[0].cases;
        let names: Vec<&str> = cases.iter().map(|c| c.name.as_str()).collect();
        let gated: Vec<&str> = GATES.iter().map(|g| g.case).collect();
        assert_eq!(names, gated, "the suite runs exactly the gated cases");
        for c in cases {
            assert!(c.bit_identical, "{} diverged", c.name);
            assert_eq!(c.decision_flips, 0, "{} flipped decisions", c.name);
            assert!(c.seq_secs > 0.0 && c.par_secs > 0.0);
            assert!(c.seq_elements_per_sec.is_finite());
        }
        // Every case gated on an absolute allocation ceiling is
        // allocation-free in steady state (tests run with observability
        // off).
        for gate in GATES {
            if let Allocs::Ceiling(_) = gate.allocs {
                let c = cases.iter().find(|c| c.name == gate.case).unwrap();
                assert_eq!(c.allocs_per_window, 0.0, "{} allocated", gate.case);
            }
        }
        let serve = cases
            .iter()
            .find(|c| c.name == "serve_throughput")
            .and_then(|c| c.serve.as_ref())
            .expect("serve case carries serving stats");
        assert!(serve.req_per_sec > 0.0);
        assert_eq!(serve.errors, 0);
        let table = render(&report);
        assert!(table.contains("host:"));
        for gate in GATES {
            assert!(table.contains(gate.case), "{} missing", gate.case);
        }
        assert!(table.contains("req/s"));
    }

    #[test]
    fn sweep_produces_one_entry_per_thread_count() {
        let _obs = OBS_LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let tiny = PerfScale {
            batch: 4,
            window: 48,
            iters: 1,
        };
        let report = run_sweep(tiny, true, &[1, 2]);
        assert_eq!(report.sweeps.len(), 2);
        assert_eq!(report.sweeps[0].threads, 1);
        assert_eq!(report.sweeps[1].threads, 2);
        for sweep in &report.sweeps {
            assert_eq!(sweep.cases.len(), GATES.len());
        }
    }
}

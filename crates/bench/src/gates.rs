//! The perf gates: one row per perf case, the single table the `regress`
//! sentinel judges every fresh `perf` report against (`ci.sh` and the
//! serving load harness carry no bounds of their own).
//!
//! Every `speedup` in a perf report is `baseline time / optimized time`
//! (see [`crate::perf::PerfCase`]). A row's speedup floor is absolute and
//! keyed on the fresh run's SIMD dispatch label: [`Gate::floor_avx2`]
//! where the AVX2 kernels dispatched, [`Gate::floor_scalar`] otherwise
//! (scalar hosts and `DS_SIMD=off` twin runs). [`Gate::relative`]
//! additionally holds the fresh speedup to a fraction of the baseline's,
//! but only when both reports ran under the same label: a scalar twin's
//! ratio against a vectorized baseline ratio would fail for the wrong
//! reason.

/// Allocation ceiling of one gate, in heap allocations per window on the
/// optimized path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Allocs {
    /// At most this many, whatever the baseline recorded. The zero-alloc
    /// contract: the baseline is 0.0, and a 0.5 margin absorbs one-off
    /// warmup traffic landing inside a short timed region.
    Ceiling(f64),
    /// At most `baseline × 1.5`, and never tighter than `baseline + 4`
    /// (small counts are noisy). Paths that allocate by design.
    Relative,
}

/// The bounds one perf case is held to.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Perf case name, as in [`crate::perf::PerfCase::name`].
    pub case: &'static str,
    /// Absolute speedup floor when the fresh run dispatched AVX2.
    pub floor_avx2: f64,
    /// Absolute speedup floor under scalar dispatch.
    pub floor_scalar: f64,
    /// Fraction of the baseline speedup the fresh run must hold when both
    /// ran under the same SIMD label; 0.0 for none.
    pub relative: f64,
    /// Allocations-per-window ceiling.
    pub allocs: Allocs,
    /// Served-throughput floor, requests per second.
    pub min_req_per_sec: Option<f64>,
    /// Served p99 latency ceiling, milliseconds.
    pub max_p99_ms: Option<f64>,
}

impl Gate {
    /// The absolute speedup floor for a run measured under `simd`.
    pub fn floor(&self, simd: &str) -> f64 {
        if simd == "avx2" {
            self.floor_avx2
        } else {
            self.floor_scalar
        }
    }
}

/// Zero-alloc ceiling shared by every frozen-plan row.
const ZERO_ALLOC: Allocs = Allocs::Ceiling(0.5);

/// A row with no absolute floor: ds-par speedups hover near 1.0× and
/// drift with the host, so only a collapse against the baseline fails.
const fn flat(case: &'static str) -> Gate {
    Gate {
        case,
        floor_avx2: 0.0,
        floor_scalar: 0.0,
        relative: 0.70,
        allocs: Allocs::Relative,
        min_req_per_sec: None,
        max_p99_ms: None,
    }
}

/// A frozen-plan row: absolute floors per dispatch, 70% of a comparable
/// baseline (at 3–6× run-to-run variance is proportionally large), and
/// the zero-alloc contract.
const fn frozen(case: &'static str, floor_avx2: f64, floor_scalar: f64) -> Gate {
    Gate {
        case,
        floor_avx2,
        floor_scalar,
        relative: 0.70,
        allocs: ZERO_ALLOC,
        min_req_per_sec: None,
        max_p99_ms: None,
    }
}

/// Every perf case, in suite order. A case the fresh run lacks fails, and
/// so does a fresh case with no row here.
pub const GATES: &[Gate] = &[
    // Conv forward through `infer_into`: zero allocations per pass.
    Gate {
        allocs: ZERO_ALLOC,
        ..flat("conv_forward")
    },
    // The SIMD conv kernel against its scalar twin. Under scalar dispatch
    // both sides run the same code, so the floor there is parity minus
    // noise: far below means the dispatch override leaked.
    frozen("frozen_conv", 3.0, 0.8),
    flat("ensemble_predict"),
    flat("e2e_localize"),
    // The zero-alloc data-parallel trainer against the legacy one.
    flat("train_epoch"),
    // 3.0× is the published serving-path claim; without SIMD the
    // fold/fuse/arena advantage alone must stay clear of parity.
    frozen("frozen_predict", 3.0, 1.15),
    // Int8 trades speed for footprint and integer determinism: AVX2 lacks
    // VNNI-class dot throughput, and scalar i32 MACs have no edge over
    // scalar f32 FMA while still re-quantizing per conv (~0.32×).
    frozen("quantized_predict", 1.5, 0.2),
    frozen("frozen_localize", 3.0, 1.10),
    // Non-ResNet backbones: the frozen win is folding and arena reuse,
    // not a vectorized conv stack, and TransApp's is thin (attention
    // dominates), so the floor only catches a plan slower than mutable.
    frozen("backbone_inception", 0.90, 0.90),
    frozen("backbone_transapp", 0.90, 0.90),
    // ≥5× amortized at 75% overlap. The advantage is work avoided, not
    // instructions vectorized, so it survives scalar dispatch mostly.
    frozen("streaming_predict", 5.0, 3.0),
    // The micro-batching HTTP server against direct in-process calls:
    // parity-ish is the expected shape, so the floor only rejects a
    // collapse. The server's own steady-state allocation counter must
    // read zero, and the published throughput and latency SLOs hold.
    Gate {
        allocs: Allocs::Ceiling(0.0),
        min_req_per_sec: Some(1000.0),
        max_p99_ms: Some(50.0),
        ..frozen("serve_throughput", 0.4, 0.4)
    },
    // ds-obs call sites at `DS_OBS=off` cost < 2% of a bare conv pass.
    Gate {
        relative: 0.0,
        ..frozen("obs_overhead_off", 1.0 / 1.02, 1.0 / 1.02)
    },
    // Full event tracing costs < 5% of the frozen predict pass.
    Gate {
        relative: 0.0,
        allocs: Allocs::Relative,
        ..frozen("obs_overhead_trace", 1.0 / 1.05, 1.0 / 1.05)
    },
];

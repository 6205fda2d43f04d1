//! # ds-neural
//!
//! A from-scratch, pure-Rust deep-learning substrate for 1D convolutional
//! time-series classification — the stand-in for the PyTorch stack the
//! DeviceScope paper trains its models with.
//!
//! The paper's CamAL method needs exactly one architecture family: the
//! **convolutional Residual Network for time-series classification** of
//! Wang et al. (IJCNN 2016), cited as \[7\] — stacked residual blocks of
//! `Conv1d → BatchNorm1d → ReLU`, a global average pooling (GAP), and a
//! linear classification head. Its baselines need a handful of further
//! convolutional seq2seq architectures. Everything required to build and
//! train those lives here:
//!
//! - [`tensor`]: dense `[batch, channels, length]` tensors and `[rows, cols]`
//!   matrices with explicit, allocation-conscious layouts.
//! - [`conv`]: same-padded 1D convolution with full backward.
//! - [`batchnorm`]: batch normalization over `(batch, length)` with running
//!   statistics for inference.
//! - [`activations`], [`pool`], [`linear`]: ReLU / sigmoid, GAP, dense head.
//! - [`sample`]: max pooling and nearest-neighbour upsampling (true
//!   encoder–decoder seq2seq architectures).
//! - [`resblock`], [`resnet`]: residual blocks and the ResNet-TSC model with
//!   configurable kernel size `k` — the paper's ensemble members differ only
//!   in `k ∈ {5, 7, 9, 15}`.
//! - [`loss`]: softmax cross-entropy (detection) and per-timestep binary
//!   cross-entropy (seq2seq baselines).
//! - [`optim`]: Adam and SGD with weight decay.
//! - [`train`]: mini-batch training loop with shuffling, class weighting and
//!   early stopping.
//! - [`workspace`]: reused training buffers (input gather, scratch pools)
//!   and the fixed micro-batch height shared by the parallel layer kernels.
//! - [`cam`]: Class Activation Map extraction — `CAM_c(t) = Σ_k w_k^c f_k(t)`
//!   — the mechanism CamAL builds on.
//! - [`frozen`], [`plan`]: the compiled serving form — BatchNorm folded into
//!   conv weights, ReLU fused into the conv epilogue, and a ping-pong
//!   inference arena that makes steady-state prediction allocation-free.
//! - [`simd`]: runtime-dispatched AVX2/FMA kernels for the frozen path
//!   (`DS_SIMD=off` forces the scalar determinism twins).
//! - [`serialize`]: JSON weight persistence for trained models.
//! - `check` (private): structural validation of deserialized layers
//!   (shapes chain, parameters finite) behind each network's `validate`,
//!   so malformed checkpoints fail with an error instead of a panic.
//!
//! Every differentiable layer is covered by finite-difference gradient
//! checks in its module tests.

pub mod activations;
pub mod backbone;
pub mod batchnorm;
pub mod cam;
mod check;
pub mod conv;
pub mod frozen;
pub mod inception;
pub mod init;
pub mod linear;
pub mod loss;
pub mod optim;
pub mod plan;
pub mod pool;
pub mod resblock;
pub mod resnet;
pub mod sample;
pub mod serialize;
pub mod simd;
pub mod tensor;
pub mod train;
pub mod transapp;
pub mod workspace;

pub use backbone::{Backbone, DetectorNet, FrozenDetector};
pub use frozen::FrozenResNet;
pub use inception::{FrozenInception, InceptionConfig, InceptionNet};
pub use plan::InferenceArena;
pub use resnet::{ResNet, ResNetConfig};
pub use tensor::{Matrix, Tensor};
pub use train::NeuralNet;
pub use transapp::{FrozenTransApp, TransAppConfig, TransAppNet};

/// A standard-normal-based deviate via Box–Muller (local helper; this crate
/// is a leaf substrate and does not depend on the dataset crate's sampler).
pub fn randutil_normal(rng: &mut impl rand::Rng, mean: f32, std: f32) -> f32 {
    let u1: f32 = 1.0 - rng.gen::<f32>();
    let u2: f32 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
    mean + std * z
}

/// Visitor over a layer's `(parameters, gradients)` slices.
///
/// Layers expose their state through this callback instead of returning
/// references, which sidesteps borrow-checker gymnastics and guarantees the
/// optimizer sees parameters in a stable order across steps.
pub trait VisitParams {
    /// Call `f(params, grads)` once per parameter tensor, in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut Vec<f32>));

    /// Zero all gradient buffers.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.fill(0.0));
    }

    /// Size every gradient buffer to its parameter tensor, zeroed.
    /// Checkpoints carry no gradients, so every loader calls this once.
    fn size_grads(&mut self) {
        self.visit_params(&mut |p, g| {
            g.clear();
            g.resize(p.len(), 0.0);
        });
    }

    /// Total number of scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _| n += p.len());
        n
    }
}

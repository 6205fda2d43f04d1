//! # devicescope
//!
//! Umbrella crate of the DeviceScope / CamAL reproduction (ICDE 2025).
//! Re-exports every workspace crate under one roof so the examples and the
//! integration tests read naturally; see the individual crates for the
//! substance:
//!
//! - [`timeseries`] — series, resampling, windowing, missing data.
//! - [`datasets`] — the synthetic UKDALE/REFIT/IDEAL-like substrate.
//! - [`neural`] — the pure-Rust convolutional deep-learning substrate.
//! - [`metrics`] — detection/localization measures and label accounting.
//! - [`camal`] — **CamAL**, the paper's contribution.
//! - [`baselines`] — the 6 benchmark baselines.
//! - [`app`] — the DeviceScope terminal application.
//! - [`bench`](mod@bench) — the experiment harness (Figure 3, benchmark grid, claims,
//!   ablations).
//! - [`par`] — the data-parallel substrate behind batched inference.
//! - [`serve`] — the HTTP serving layer over frozen plans.

pub use ds_app as app;
pub use ds_baselines as baselines;
pub use ds_bench as bench;
pub use ds_camal as camal;
pub use ds_datasets as datasets;
pub use ds_metrics as metrics;
pub use ds_neural as neural;
pub use ds_par as par;
pub use ds_serve as serve;
pub use ds_timeseries as timeseries;

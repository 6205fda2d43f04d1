//! # ds-bench
//!
//! The experiment harness that regenerates every quantitative artifact of
//! the DeviceScope paper (see `DESIGN.md` §4 for the experiment index):
//!
//! - **Figure 3** — localization F1 vs number of training labels, CamAL vs
//!   5 strong-label seq2seq baselines and the weakly supervised baseline
//!   ([`experiments::fig3`], binary `fig3_label_efficiency`).
//! - **§II-C claims** — "2.2× better F1 than the weakly supervised
//!   baseline" and "5200× more labels for NILM approaches"
//!   ([`experiments::claims`], binary `claims`).
//! - **Benchmark frame grid** — Accuracy / Balanced Accuracy / Precision /
//!   Recall / F1 for detection and localization per dataset × appliance ×
//!   method ([`experiments::table`], binary `benchmark_table`; its JSON
//!   output feeds the app's benchmark frame).
//! - **Ablations** — ensemble size, CAM normalization, attention mask,
//!   detection gating, kernel sets ([`experiments::ablations`], binary
//!   `ablations`).
//!
//! The `perf` binary measures the serving substrate ([`perf`]), and
//! `regress` judges its reports against the committed baseline with the
//! bounds in [`gates::GATES`].

pub mod experiments;
pub mod faultsmoke;
pub mod gates;
pub mod methods;
pub mod perf;
pub mod regress;
pub mod report;
pub mod serveload;
pub mod speed;

pub use methods::{fit_method, CamalMethod, MethodName, ALL_METHODS};
pub use speed::SpeedPreset;

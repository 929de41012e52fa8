//! # chiron-bench
//!
//! The figure-regeneration harness: one function per table/figure of the
//! paper's evaluation, shared by the `figures` binary and the Criterion
//! benches. See EXPERIMENTS.md for the paper-vs-measured record.

#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod common;
pub mod fig12;
pub mod figs_eval;
pub mod figs_motivation;
pub mod figs_serve;
pub mod fleet;
pub mod fleetobs;
pub mod lifecycle;
pub mod obs;
pub mod perf;
pub mod perf_eval;
pub mod report;
pub mod sweep;
pub mod transfer;

pub use ablations::ablations;
pub use fig12::fig12;
pub use figs_eval::{fig13, fig14, fig15, fig16, fig17, fig18, fig19};
pub use figs_motivation::{fig3, fig4, fig5, fig6, fig7, fig8, table1};
pub use figs_serve::serve_figure;
pub use fleet::fleet_figure;
pub use fleetobs::fleet_obs_figure;
pub use lifecycle::lifecycle_figure;
pub use obs::obs_eval;
pub use perf::perf;
pub use perf_eval::perf_eval;
pub use report::Report;
pub use transfer::{transfer_figure, transfer_report};

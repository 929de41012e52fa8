//! # chiron-metrics
//!
//! Measurement and accounting utilities for the Chiron reproduction:
//! latency statistics and CDFs (Fig. 13–15), static resource accounting
//! (Fig. 8/16/17), node-level throughput capacity (Fig. 16/18), and the
//! GB-second / GHz-second / state-transition dollar-cost model (Fig. 19).

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod loadgen;
pub mod math;
pub mod resources;
pub mod rng;
pub mod stats;
pub mod throughput;

pub use cost::{request_cost, CostReport};
pub use loadgen::{
    drive_load, drive_load_with, saturation_rps, ArrivalGen, ArrivalProcess, LoadReport,
};
pub use resources::{plan_resources, ResourceUsage};
pub use rng::FastRng;
pub use stats::{mean_abs_error, prediction_error, LatencySamples, StreamingHistogram};
pub use throughput::{node_throughput, Bottleneck, ThroughputReport};

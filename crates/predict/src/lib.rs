//! # chiron-predict
//!
//! Chiron's white-box latency Predictor (§3.3): Algorithm 1's GIL-switching
//! simulation for multi-thread execution inside a process, the
//! work-conserving bound for truly parallel execution, and the Eq. 1–4
//! composition from processes through wraps and stages to the workflow's
//! end-to-end latency. Also provides the conservative (inflated-parameter)
//! variant PGP uses to guarantee SLOs (§6.2, Fig. 14).
//!
//! The hot path is allocation-free and memoised: [`SegmentCatalog`] borrows
//! profiled segments, [`SimArena`] reuses simulation state, and
//! [`PredictionCache`] shares content-addressed Algorithm 1 outcomes across
//! the PGP scheduler's KL rounds, candidate swaps, process counts, and
//! successive schedules, along with the scheduler's per-stage partition
//! memo. Algorithm 1 itself answers CPU-only thread sets in closed form.

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod latency;
pub mod threadsim;

pub use cache::{
    content_key, partition_key, CacheStats, FlatThreads, KlStats, PartitionMemo, PredictionCache,
    SegmentCatalog, StaggeredSet, StaggeredSummary, SwapScan,
};
pub use latency::{PredictScratch, Predictor};
pub use threadsim::{
    predict_threads, predict_threads_src, predict_true_parallel, SimArena, SimOutcome, SimThread,
    ThreadSource,
};

//! # chiron-pgp
//!
//! PGP — the Prediction-based Graph-Partitioning scheduler of Chiron
//! (Algorithm 2, §3.4): Kernighan–Lin swapping of functions between
//! processes, incremental search of the process count, SLO-driven packing
//! of processes into as few wraps as possible, and greedy non-uniform CPU
//! minimisation. Also provides the Intel-MPK and process-pool scheduling
//! modes of §4.

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod kl;
pub mod scheduler;

pub use chiron_lifecycle::PrewarmBudget;
pub use kl::{kernighan_lin, kernighan_lin_with_stats, KlObjective, KlScratch, KlStats, Side};
pub use scheduler::{PgpAudit, PgpConfig, PgpMode, PgpScheduler, ScheduleOutcome};

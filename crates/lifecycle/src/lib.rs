//! chiron-lifecycle: the tiered sandbox-start subsystem.
//!
//! The paper charges every on-path sandbox start one flat 167 ms
//! `T_coldStart`, and the what-if profiler ranks that constant as the top
//! p99 lever under serving load. This crate replaces the flat constant
//! with the ladder real platforms climb — snapshot/restore warm pools
//! (Aetherless-style CRIU, ~12 ms), zygote forking (the `Pool` deployment
//! mode's shared pre-imported image, one `T_process` per sandbox), and
//! the full cold boot — each tier with its own startup latency, standing
//! memory rent, and capacity limit.
//!
//! Three layers, all deterministic:
//!
//! * [`tier`] — the [`StartTier`] state machine and the
//!   [`TierTable`] cost table derived from the calibrated [`CostModel`]
//!   plus a plan's resource footprint.
//! * [`pool`] — [`PrewarmPools`]: per-tier stock with exact lazy rent
//!   integrals and a create/evict/promote policy keyed by an EWMA
//!   demand forecast ([`forecast`]). Driven by the serving simulator's
//!   event loop; no clock or RNG of its own.
//! * [`planner`] — deployment-time tier-mix sizing under a rent budget
//!   ([`PrewarmBudget`]), and the amortised startup penalty the PGP
//!   scheduler folds into its plan objective so deployment plans are
//!   co-optimised against the tier mix they can afford.
//!
//! [`CostModel`]: chiron_model::CostModel

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod forecast;
pub mod planner;
pub mod pool;
pub mod tier;

pub use forecast::DemandForecast;
pub use planner::{mix_fractions, penalty_for_plan, plan_tier_mix, PrewarmBudget, TierMix};
pub use pool::{LifecycleConfig, PoolAction, PoolStats, PrewarmPools};
pub use tier::{LifecycleCosts, StartTier, TierSpec, TierTable};

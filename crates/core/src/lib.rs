//! # chiron
//!
//! The public facade of the Chiron (SC '23) reproduction: the deployment
//! manager of Fig. 9 (profile → predict → schedule → generate → deploy →
//! invoke) plus the evaluation harness behind every figure of §6.
//!
//! ## Quickstart
//!
//! ```
//! use chiron::{Chiron, PgpMode};
//! use chiron_model::{apps, PlatformConfig};
//!
//! let manager = Chiron::new(PlatformConfig::paper_calibrated());
//! let workflow = apps::finra(5);
//! let deployment = manager.deploy(&workflow, None, PgpMode::NativeThread);
//! let outcome = manager.invoke(&workflow, &deployment, 0).unwrap();
//! println!("end-to-end latency: {}", outcome.e2e);
//! ```

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod eval;
pub mod manager;

pub use eval::{
    evaluate_plan, evaluate_system, paper_slo, plan_for, profile_for, state_transitions,
    system_plan, EvalConfig, SystemEval,
};
pub use manager::{Chiron, Deployment};

// Re-export the building blocks a downstream user needs alongside the
// facade.
pub use chiron_deploy as deploy;
pub use chiron_isolation as isolation;
pub use chiron_lifecycle as lifecycle;
pub use chiron_lifecycle::{LifecycleConfig, PrewarmBudget};
pub use chiron_metrics as metrics;
pub use chiron_ml as ml;
pub use chiron_model as model;
pub use chiron_obs as obs;
pub use chiron_obs::{AttributionReport, SloPolicy, SloSummary, WhatIfReport};
pub use chiron_pgp::{PgpConfig, PgpMode, PgpScheduler, ScheduleOutcome};
pub use chiron_predict as predict;
pub use chiron_profiler as profiler;
pub use chiron_runtime as runtime;
pub use chiron_serve as serving;
pub use chiron_serve::{
    FaultPlan, FleetConfig, FleetPhase, FleetReport, FleetSimulation, FleetWorkload, ServeConfig,
    ServeReport, Workload,
};
pub use chiron_store as store;

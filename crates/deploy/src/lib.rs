//! # chiron-deploy
//!
//! Deployment-plan builders for every system of the paper's evaluation —
//! the one-to-one baselines (ASF, OpenFaaS), the many-to-one baselines
//! (SAND, Faastlane and its -T/-+/-M/-P variants), the PGP-driven Chiron
//! plans — plus the Generator that emits each wrap's orchestrator code
//! (§5, Fig. 9 step ➍).

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod codegen;
pub mod planners;

pub use cluster::{
    placement_overhead, scheduling_architectures, ClusterConfig, ClusterState, NodeId, Placement,
    PlacementError, PlacementPolicy,
};
pub use codegen::{generate, GeneratedWrap};
pub use planners::{
    asf, baseline, chiron, chiron_m, chiron_p, chiron_prewarmed, faastlane, faastlane_m,
    faastlane_p, faastlane_plus, faastlane_t, openfaas, sand, to_java,
};

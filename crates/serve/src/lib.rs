//! chiron-serve: an online serving control plane over the virtual cluster.
//!
//! The rest of the repo answers "what is the best deployment of one
//! workflow?"; this crate answers "how does that deployment behave under
//! sustained traffic?". It drives an open-loop request stream through a
//! deterministic discrete-event simulation of:
//!
//! * a **router** with pluggable architectures — one central FIFO gateway
//!   vs Archipelago-style per-node partitioned schedulers (the §7
//!   centralised-vs-decentralised trade-off, operationalised);
//! * an **autoscaler** reacting to queue depth and windowed p99 latency,
//!   paying the paper's 167 ms sandbox cold start on every scale-up unless
//!   a lifecycle pool has stock, and retiring replicas on keepalive expiry;
//! * **failure recovery** — crash-stop node kills detected by missed
//!   heartbeats, with replica write-off, in-flight re-queueing and
//!   replacement placement, losing no accepted request;
//! * **metering** — streaming sojourn percentiles, cold-start fraction and
//!   GB-s / GHz-s dollar cost per run;
//! * a **federation** layer ([`fleet`]) — many clusters under one
//!   epoch-barrier driver, with gossiped admission rates, cross-cluster
//!   spillover, and exactly-merged fleet reports, byte-identical for any
//!   shard grouping or worker count.
//!
//! Everything is deterministic in the `(workload, seed)` pair, so serving
//! experiments are reproducible byte for byte.

pub mod autoscaler;
mod barrier;
pub mod config;
pub mod events;
pub mod faults;
pub mod fleet;
pub mod report;
pub mod router;
pub mod sim;

pub use autoscaler::{Autoscaler, AutoscalerConfig};
pub use config::{RouterPolicy, ServeConfig, TrafficPhase, Workload};
pub use events::{Event, EventKind, EventQueue};
pub use faults::FaultPlan;
pub use fleet::{FleetConfig, FleetPhase, FleetSimulation, FleetWorkload};
pub use report::{FleetReport, PhaseSummary, RequestRecord, ServeReport};
pub use router::{Router, Shard};
pub use sim::{ServeError, ServeSimulation};

//! # chiron-store
//!
//! Intermediate-data costs for the Chiron reproduction: calibrated latency
//! models for every data path (S3, MinIO, RPC payload, pipe, shared memory
//! — Fig. 4). The DES prices each transfer from these models.

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod transfer;

pub use transfer::{LinkModel, TransferModel};

//! # chiron-isolation
//!
//! Thread memory-isolation costs for the Chiron reproduction (§4):
//! calibrated cost models for Intel MPK and WebAssembly SFI (Table 1).
//! The `-M` system variants are priced from [`IsolationCosts`].

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod costs;

pub use costs::IsolationCosts;

//! Marker-trait stand-in for `serde`.
//!
//! No workspace type derives `Serialize` or `Deserialize`, and nothing is
//! serialised. The crates' `serde` entries stay only because
//! `perfbench/Cargo.lock` lists them and CI builds perfbench `--locked`.
//! The traits are blanket-implemented and the derive macros (re-exported
//! from the sibling `serde_derive` shim) expand to nothing.

#![allow(clippy::all)]

/// Marker counterpart of `serde::Serialize`.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker counterpart of `serde::Deserialize`.
pub trait Deserialize<'de>: Sized {}
impl<'de, T> Deserialize<'de> for T {}

/// Marker counterpart of `serde::de::DeserializeOwned`.
pub mod de {
    pub trait DeserializeOwned: for<'de> super::Deserialize<'de> {}
    impl<T> DeserializeOwned for T {}
}

pub use serde_derive::{Deserialize, Serialize};

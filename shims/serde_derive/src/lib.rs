//! No-op stand-ins for serde's derive macros: they expand to nothing (the
//! shimmed traits are blanket-implemented). No workspace type derives
//! them.

#![allow(clippy::all)]

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}

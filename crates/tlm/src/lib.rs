//! # vpdift-tlm — transaction-level modeling with tagged payloads
//!
//! A minimal TLM-2.0-style transport layer for the virtual prototype:
//! [`GenericPayload`] carries a *tagged* data lane (`Taint<u8>` per byte),
//! so security classes flow through the interconnect exactly like the
//! paper's `Taint<uint8_t>` arrays embedded in `tlm_generic_payload`, and
//! [`Router`] decodes transactions by address range to the ports of the
//! bus's owner, with port-local address rewriting; the owner holds the
//! [`TlmTarget`]s and hands each decoded transaction to one of them.
//!
//! See the crate-level docs of [`vpdift_core`] for the taint model.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod fault;
mod payload;
mod router;

pub use fault::{BusFault, FaultRouter};
pub use payload::{GenericPayload, TlmCommand, TlmResponse};
pub use router::{Loan, MapError, Router, TlmTarget};

//! # vpdift-periph — the SoC's hardware peripherals
//!
//! Every peripheral of the modeled embedded system, each a TLM target with
//! a tagged data lane so information flow is tracked *through* the hardware
//! and back into software (the paper's "fine-grained HW/SW interactions"):
//!
//! * [`Ram`] — main memory with per-byte tags (elided in plain mode),
//! * [`Uart`] — clearance-checked output interface,
//! * [`Terminal`] — attacker-facing console input, classified at entry,
//! * [`Sensor`] — the periodic data source of the paper's Fig. 4,
//! * [`CanController`]/[`CanChannel`] — the immobilizer's bus link,
//! * [`AesEngine`] — AES-128 crypto with policy-granted declassification
//!   (built on the from-scratch FIPS-197 [`aes_core`]),
//! * [`Dma`] — tag-preserving direct memory access,
//! * [`Clint`] and [`Plic`] — timer and interrupt infrastructure.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aes;
pub mod aes_core;
pub mod can;
pub mod clint;
pub mod dma;
pub mod mmio;
pub mod plic;
pub mod ram;
pub mod sensor;
pub mod taintdbg;
pub mod terminal;
pub mod uart;
pub mod watchdog;

pub use aes::AesEngine;
pub use aes_core::Aes128;
pub use can::{CanChannel, CanController, CanFrame, CanHostEndpoint, CanLineFault, SharedCanLine};
pub use clint::Clint;
pub use dma::Dma;
pub use plic::Plic;
pub use ram::Ram;
pub use sensor::Sensor;
pub use taintdbg::TaintDebug;
pub use terminal::Terminal;
pub use uart::Uart;
pub use watchdog::Watchdog;

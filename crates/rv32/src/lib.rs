//! # vpdift-rv32 — RV32IM ISS with transparent taint propagation
//!
//! The CPU core of the virtual prototype. One exec implementation compiles
//! into two cores via the [`TaintMode`] abstraction:
//!
//! * [`Cpu<Plain>`](Cpu) — the original VP: plain `u32` machine words, no
//!   tag storage, no checks.
//! * [`Cpu<Tainted>`](Cpu) — the paper's VP+: every register, CSR and
//!   memory byte carries a security [`Tag`](vpdift_core::Tag); tags
//!   propagate through every instruction via LUB, and the three
//!   execution-clearance checks of §V-B2 (instruction fetch, branch
//!   condition / indirect target, memory address) guard implicit flows.
//!
//! Memory is abstracted behind the [`Bus`] trait; the full SoC bus lives in
//! `vpdift-soc`, while [`FlatMemory`] serves tests and bare-metal snippets.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bus;
mod cpu;
mod csr;
mod engine;
mod mode;

pub use bus::{Bus, FlatMemory, IrqLevels, MemError};
pub use cpu::{Cpu, RunExit, Step, DEFAULT_TRAP_LOOP_THRESHOLD};
pub use csr::CsrFile;
pub use engine::{BlockCache, CacheStats, ExecMode};
pub use mode::{Plain, TaintMode, Tainted, Word};

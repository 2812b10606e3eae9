//! # vpdift-faults — deterministic fault injection and resilience campaigns
//!
//! The paper's VP argues DIFT catches *software* attacks; this crate asks
//! what happens when the *platform* misbehaves: seeded, reproducible fault
//! injection across every layer of the VP, plus the campaign machinery
//! that classifies how gracefully the stack degrades.
//!
//! ## Fault model
//!
//! * **RAM** — single-bit flips in data bytes ([`FaultKind::RamDataFlip`])
//!   and, independently, in the taint-tag plane
//!   ([`FaultKind::RamTagFlip`]) — the latter corrupts the DIFT engine's
//!   *metadata*, not the architecture.
//! * **Bus** — TLM-level faults armed on the system bus
//!   (`Soc::arm_mmio_fault`): payload corruption, dropped transactions,
//!   forced error responses (`TlmCorrupt` / `TlmDrop` / `TlmError`).
//! * **Peripherals** — CAN frame corruption/loss armed on the wire
//!   (`CanHostEndpoint::arm_corrupt` / `arm_drop`), sensor stuck-at
//!   values, DMA mid-burst aborts.
//! * **Interrupts** — spurious PLIC sources and interrupt storms.
//!
//! ## Resilience machinery exercised
//!
//! * the memory-mapped **watchdog** (`SocExit::WatchdogTimeout`),
//! * the CPU's **trap-loop detector** (`SocExit::TrapLoop`),
//! * CAN **bounded retry** on injected frame loss,
//! * the DIFT engine's **fail-closed rule** (out-of-universe tags saturate
//!   to lattice top instead of silently declassifying).
//!
//! ## Campaigns
//!
//! [`run_campaign`] replays the immobilizer case study and the §VI-B
//! attack suite under `N` seeded fault schedules and classifies every run
//! as `masked` / `dift_detected` / `precise_trap` / `watchdog_timeout` /
//! `trap_loop` / `hang` / `sdc`. The same seed produces a byte-identical
//! JSON report ([`render_json`]); no wall-clock time or global state is
//! consulted anywhere.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod config;
pub mod injector;
pub mod report;

pub use campaign::{
    campaign_prelude, classify, directed_demos, random_references, random_run, run_campaign,
    run_seed, seeded_plan, CampaignConfig, CampaignPrelude, CampaignReport, Outcome, Replay,
    RunOutcomes, ScenarioKind, ScenarioOutcome, ScenarioRun,
};
pub use config::{generate_plan, FaultKind, PlannedFault};
pub use injector::{apply_fault, run_with_faults, FaultRecord};
pub use report::{campaign_header, render_json, render_report, run_json, scenario_json, Row};

//! `vpdift-fleet` — a fault-tolerant, work-stealing executor for
//! parallel VP session fleets.
//!
//! The campaign, attack-sweep and brute-force runners all execute seeded
//! sessions that are independent by construction; this crate runs them
//! in parallel without giving up the workspace's reproducibility
//! guarantee. Each [`Job`] is a re-runnable closure producing
//! a deterministic JSON payload; the executor adds the robustness the
//! runners cannot provide for themselves:
//!
//! - panic isolation (`catch_unwind`): a poisoned session is classified
//!   `crashed`, never fatal to the fleet;
//! - per-job wall-clock deadlines, enforced through the session's
//!   [`StopFlag`](vpdift_obs::StopFlag) and classified `hang`;
//! - bounded, seed-stable retry for transient host faults;
//! - a crash-safe `taintvp-fleet/v1` JSONL journal with torn-tail
//!   tolerant resume.
//!
//! Aggregates are keyed by job id and carry only deterministic fields,
//! so output is byte-identical across worker counts — the property the
//! CI `fleet-campaign` gate pins.
//!
//! See `docs/FLEET.md` for the job spec, journal format and failure
//! taxonomy.

pub mod campaign;
pub mod executor;
pub mod job;
pub mod journal;
pub mod telemetry;

pub use campaign::{run_campaign_fleet, run_journaled, FleetCampaign, JournaledRun};
pub use executor::{quiet_worker_panics, retry_backoff, Fleet, FleetConfig};
pub use job::{Job, JobCtx, JobError, JobFn, JobOutput, JobResult, JobStatus};
pub use journal::{parse_record, render_record, Journal, JournalHeader, FORMAT};
pub use telemetry::{
    spawn_sampler, SamplerConfig, SamplerHandle, TelemSnapshot, Telemetry, TelemetryHub,
    TelemetryOptions, WorkerSnap, WorkerStats, TELEM_FORMAT,
};

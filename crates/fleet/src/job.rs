//! Fleet jobs: the unit of parallel, isolated, retryable work.
//!
//! A job is a *re-runnable* closure — retries and crash-resume both
//! re-execute it from scratch — that produces a deterministic JSON
//! payload. Everything nondeterministic (wall time, attempt counts,
//! panic messages) lives beside the payload in the [`JobResult`] and is
//! excluded from aggregate output, which is what makes fleet aggregates
//! byte-identical across worker counts.

use std::sync::Arc;

use vpdift_obs::StopFlag;

/// Per-attempt context handed to the job closure.
///
/// Jobs that run a `Soc` should wire [`JobCtx::stop`] into the session
/// (`SocBuilder::stop_flag`) so a deadline reaper can interrupt a wedged
/// guest from outside; jobs that ignore it can still be deadline-killed
/// only at their own blocking points.
#[derive(Debug, Clone)]
pub struct JobCtx {
    /// Stable job identifier (also the aggregate ordering key).
    pub job_id: u64,
    /// 1-based attempt number (increments on transient-error retries).
    pub attempt: u32,
    /// Raised by the deadline reaper when this attempt overruns.
    pub stop: StopFlag,
}

/// Why a job attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// A transient host fault (I/O hiccough, resource exhaustion):
    /// eligible for seed-stable backoff and retry.
    Transient(String),
    /// A permanent failure: retrying cannot help.
    Fatal(String),
}

/// What a successful attempt produced.
#[derive(Debug, Clone, Default)]
pub struct JobOutput {
    /// Deterministic single-line JSON fragment for the aggregate.
    pub payload: String,
    /// Outcome counts this job contributes to the campaign summary
    /// (indexed however the campaign defines; summed across jobs).
    pub counts: Vec<u64>,
    /// Retired guest instructions, reported at completion for telemetry
    /// (a job that does not complete reports none).
    pub insns: u64,
}

/// Terminal classification of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Completed and produced its payload.
    Ok,
    /// The session panicked; the worker caught the unwind and survived.
    Crashed,
    /// Killed by the per-job deadline: the reaper raised the stop flag
    /// (and the attempt was discarded even if it then returned).
    Hang,
    /// Failed with [`JobError`] after exhausting retries.
    Error,
}

impl JobStatus {
    /// Stable journal/aggregate label.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Crashed => "crashed",
            JobStatus::Hang => "hang",
            JobStatus::Error => "error",
        }
    }

    /// Parses a journal label.
    pub fn parse(s: &str) -> Option<JobStatus> {
        Some(match s {
            "ok" => JobStatus::Ok,
            "crashed" => JobStatus::Crashed,
            "hang" => JobStatus::Hang,
            "error" => JobStatus::Error,
            _ => return None,
        })
    }
}

/// The work function: re-runnable, shared with workers.
pub type JobFn = Arc<dyn Fn(&JobCtx) -> Result<JobOutput, JobError> + Send + Sync>;

/// One schedulable unit: an id plus its work function.
#[derive(Clone)]
pub struct Job {
    /// Stable identifier; results aggregate in id order.
    pub id: u64,
    /// The re-runnable work.
    pub work: JobFn,
}

impl Job {
    /// Wraps `work` under `id`.
    pub fn new<F>(id: u64, work: F) -> Job
    where
        F: Fn(&JobCtx) -> Result<JobOutput, JobError> + Send + Sync + 'static,
    {
        Job { id, work: Arc::new(work) }
    }
}

impl core::fmt::Debug for Job {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Job").field("id", &self.id).finish_non_exhaustive()
    }
}

/// The terminal record of one job, as journaled and aggregated.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's stable id.
    pub job_id: u64,
    /// Terminal classification.
    pub status: JobStatus,
    /// Attempts consumed (1 for a first-try success).
    pub attempts: u32,
    /// Deterministic payload; `None` for failed jobs.
    pub payload: Option<String>,
    /// Summary counts contributed by this job (empty for failed jobs).
    pub counts: Vec<u64>,
    /// Failure detail (panic message, error text) — diagnostic only,
    /// never part of the deterministic aggregate.
    pub detail: Option<String>,
    /// Wall-clock microseconds spent (all attempts) — diagnostic only.
    pub elapsed_us: u64,
}

//! The work-stealing executor: N workers, panic isolation, deadlines,
//! seed-stable retry.
//!
//! Robustness model:
//! - **Panic isolation** — each attempt runs under
//!   [`std::panic::catch_unwind`]; a poisoned session is classified
//!   [`JobStatus::Crashed`] and the worker thread survives to take the
//!   next job.
//! - **Deadlines** — a reaper thread watches every in-flight attempt and
//!   raises its [`StopFlag`] past the per-job deadline; the session's
//!   run loop exits at the next step boundary and the job is classified
//!   [`JobStatus::Hang`], whatever it returned.
//! - **Retry** — [`JobError::Transient`] failures back off and re-run,
//!   bounded by [`FleetConfig::max_retries`]; the backoff is derived
//!   from `(retry_seed, job_id, attempt)` so a re-run fleet makes the
//!   same scheduling decisions.
//!
//! Determinism model: results carry only deterministic payloads (plus
//! diagnostic fields excluded from aggregates), are keyed by job id, and
//! are returned sorted by job id — so worker count and interleaving
//! never reach the output.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use vpdift_obs::StopFlag;

use crate::job::{Job, JobCtx, JobError, JobResult, JobStatus};
use crate::journal::Journal;
use crate::telemetry::{TelemetryHub, WorkerStats};

/// Executor tuning.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Per-attempt wall-clock deadline; `None` disables the reaper.
    pub deadline: Option<Duration>,
    /// Retries allowed per job for transient errors (0 = fail fast).
    pub max_retries: u32,
    /// Seed for the deterministic retry backoff schedule.
    pub retry_seed: u64,
    /// Telemetry hub fed by the workers; `None` (the default) costs one
    /// null-pointer check per job (compile-asserted in
    /// [`crate::telemetry`]), nothing per instruction.
    pub telemetry: Option<Arc<TelemetryHub>>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 1,
            deadline: None,
            max_retries: 2,
            retry_seed: 0xF1EE_7000,
            telemetry: None,
        }
    }
}

/// Deterministic backoff for `attempt` of `job_id`: exponential base
/// doubling from 1ms, plus a seed-stable jitter in [0, 1ms). Capped at
/// 50ms so an exhausted-retry job cannot stall a worker for long.
pub fn retry_backoff(retry_seed: u64, job_id: u64, attempt: u32) -> Duration {
    let base_ms = 1u64 << attempt.min(5);
    let jitter_us = splitmix64(retry_seed ^ job_id.rotate_left(17) ^ attempt as u64) % 1000;
    Duration::from_micros((base_ms * 1000 + jitter_us).min(50_000))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Attempt state: the worker's closure is still running.
const ATTEMPT_RUNNING: u8 = 0;
/// Attempt state: the closure returned before any deadline kill.
const ATTEMPT_FINISHED: u8 = 1;
/// Attempt state: the reaper killed the attempt past its deadline.
const ATTEMPT_KILLED: u8 = 2;

/// One in-flight attempt, as watched by the reaper.
///
/// `state` is the race arbiter between the worker (RUNNING → FINISHED
/// when the closure returns) and the reaper (RUNNING → KILLED past the
/// deadline). Both transitions are compare-exchanges from RUNNING, so
/// exactly one side wins: a job whose closure returned just under the
/// deadline commits FINISHED first and can never be classified `Hang`,
/// however late the worker is descheduled afterwards.
struct ActiveAttempt {
    started: Instant,
    stop: StopFlag,
    state: Arc<AtomicU8>,
}

/// Shared mutable executor state.
struct FleetShared {
    /// Per-worker job deques: owners pop the front, thieves steal the
    /// back.
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Jobs not yet terminally resolved (drives worker shutdown).
    remaining: AtomicUsize,
    /// In-flight attempts keyed by slot (one per worker).
    active: Vec<Mutex<Option<ActiveAttempt>>>,
    /// Raised when all jobs are resolved; stops the reaper.
    done: AtomicBool,
}

/// The fleet executor. See the module docs for the robustness model.
pub struct Fleet {
    config: FleetConfig,
}

impl Fleet {
    /// An executor with `config`.
    pub fn new(config: FleetConfig) -> Fleet {
        Fleet { config }
    }

    /// Runs `jobs` to completion and returns their results sorted by
    /// job id. When `journal` is given, every result is appended (and
    /// fsync'd per batch) as it arrives, so a killed process can
    /// [`resume`](crate::journal::Journal::open_resume) later.
    ///
    /// `skip` lists job ids already resolved (from a resumed journal);
    /// those jobs are not re-run and are *not* in the returned vector —
    /// merge with the journaled results for the full picture.
    pub fn run(
        &self,
        jobs: Vec<Job>,
        journal: Option<&mut Journal>,
        skip: &[u64],
    ) -> Vec<JobResult> {
        let workers = self.config.workers.max(1);
        let jobs: Vec<Job> = jobs.into_iter().filter(|j| !skip.contains(&j.id)).collect();
        let total = jobs.len();
        if let Some(hub) = &self.config.telemetry {
            hub.set_total(total as u64);
        }

        let mut deques: Vec<Mutex<VecDeque<Job>>> = Vec::new();
        for _ in 0..workers {
            deques.push(Mutex::new(VecDeque::new()));
        }
        // Round-robin initial distribution; stealing evens out skew.
        for (i, job) in jobs.into_iter().enumerate() {
            deques[i % workers].lock().unwrap().push_back(job);
        }

        let shared = Arc::new(FleetShared {
            deques,
            remaining: AtomicUsize::new(total),
            active: (0..workers).map(|_| Mutex::new(None)).collect(),
            done: AtomicBool::new(total == 0),
        });

        let (tx, rx) = mpsc::channel::<JobResult>();
        let mut results: Vec<JobResult> = Vec::with_capacity(total);

        std::thread::scope(|scope| {
            // Deadline reaper: polls in-flight attempts, raises stop
            // flags past the deadline. Cheap (a few compares every 2ms)
            // and only spawned when a deadline is configured.
            if let Some(deadline) = self.config.deadline {
                let shared = Arc::clone(&shared);
                scope.spawn(move || {
                    while !shared.done.load(Ordering::Acquire) {
                        for slot in &shared.active {
                            let guard = slot.lock().unwrap();
                            if let Some(a) = guard.as_ref() {
                                if a.started.elapsed() >= deadline
                                    && a.state
                                        .compare_exchange(
                                            ATTEMPT_RUNNING,
                                            ATTEMPT_KILLED,
                                            Ordering::AcqRel,
                                            Ordering::Acquire,
                                        )
                                        .is_ok()
                                {
                                    a.stop.request();
                                }
                            }
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                });
            }

            for w in 0..workers {
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                let config = self.config.clone();
                std::thread::Builder::new()
                    .name(format!("fleet-worker-{w}"))
                    .spawn_scoped(scope, move || worker_loop(w, &shared, &config, &tx))
                    .expect("worker thread spawns");
            }
            drop(tx);

            // The driver thread is the journal writer: drain results as
            // they arrive, append, fsync once per drained batch.
            let mut journal = journal;
            while let Ok(first) = rx.recv() {
                let mut batch = vec![first];
                while let Ok(more) = rx.try_recv() {
                    batch.push(more);
                }
                if let Some(j) = journal.as_deref_mut() {
                    for r in &batch {
                        j.append(r).expect("journal append");
                    }
                    j.sync().expect("journal fsync");
                }
                results.extend(batch);
            }
        });

        if let Some(hub) = &self.config.telemetry {
            hub.mark_done();
        }
        results.sort_by_key(|r| r.job_id);
        results
    }
}

/// Finds work for worker `w`: its own front, then other deques' backs.
/// The boolean is `true` when the job was stolen from a victim deque.
fn find_job(w: usize, shared: &FleetShared) -> Option<(Job, bool)> {
    if let Some(job) = shared.deques[w].lock().unwrap().pop_front() {
        return Some((job, false));
    }
    let n = shared.deques.len();
    for off in 1..n {
        let victim = (w + off) % n;
        if let Some(job) = shared.deques[victim].lock().unwrap().pop_back() {
            return Some((job, true));
        }
    }
    None
}

fn worker_loop(w: usize, shared: &FleetShared, config: &FleetConfig, tx: &mpsc::Sender<JobResult>) {
    // One null check per fleet: with telemetry off `stats` is `None` and
    // every telemetry site below is a skipped branch at job granularity.
    let stats: Option<&WorkerStats> = config.telemetry.as_deref().map(|hub| hub.worker(w));
    loop {
        if shared.remaining.load(Ordering::Acquire) == 0 {
            shared.done.store(true, Ordering::Release);
            return;
        }
        let Some((job, stolen)) = find_job(w, shared) else {
            // All deques empty but jobs still in flight elsewhere (or a
            // racing steal): idle briefly and re-check.
            let parked = Instant::now();
            std::thread::sleep(Duration::from_micros(100));
            if let Some(s) = stats {
                s.on_idle(parked.elapsed());
            }
            continue;
        };
        if let Some(s) = stats {
            if stolen {
                s.on_steal();
            }
            s.on_queue_depth(shared.deques[w].lock().unwrap().len() as u64);
            s.on_job_start();
        }
        let busy = Instant::now();
        let (result, insns) = run_job(w, &job, shared, config);
        if let Some(s) = stats {
            s.on_job_done(result.status, result.attempts, busy.elapsed(), insns);
        }
        shared.remaining.fetch_sub(1, Ordering::AcqRel);
        if shared.remaining.load(Ordering::Acquire) == 0 {
            shared.done.store(true, Ordering::Release);
        }
        // The receiver outlives the workers inside `scope`; a send error
        // means the driver is gone, so there is nobody to report to.
        let _ = tx.send(result);
    }
}

/// Runs one job to a terminal status: attempts, retries, panic capture,
/// deadline classification. The second return value is the job's
/// completion-reported instruction count ([`JobOutput::insns`](crate::job::JobOutput);
/// 0 for failed jobs).
fn run_job(w: usize, job: &Job, shared: &FleetShared, config: &FleetConfig) -> (JobResult, u64) {
    let started = Instant::now();
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let stop = StopFlag::new();
        let state = Arc::new(AtomicU8::new(ATTEMPT_RUNNING));
        let ctx = JobCtx { job_id: job.id, attempt, stop: stop.clone() };

        *shared.active[w].lock().unwrap() = Some(ActiveAttempt {
            started: Instant::now(),
            stop: stop.clone(),
            state: Arc::clone(&state),
        });
        let outcome = catch_unwind(AssertUnwindSafe(|| (job.work)(&ctx)));
        // Claim completion BEFORE clearing the slot: if this CAS wins,
        // the reaper can no longer kill the attempt, so a job that
        // returned under the deadline keeps its real verdict even if
        // this thread is descheduled right here.
        let killed = state
            .compare_exchange(
                ATTEMPT_RUNNING,
                ATTEMPT_FINISHED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_err();
        *shared.active[w].lock().unwrap() = None;

        let elapsed_us = started.elapsed().as_micros() as u64;
        // The attempt only carries the Hang verdict when the reaper won
        // the state race: its output past a kill is a partial artifact,
        // not a result.
        if killed {
            return (
                JobResult {
                    job_id: job.id,
                    status: JobStatus::Hang,
                    attempts: attempt,
                    payload: None,
                    counts: Vec::new(),
                    detail: Some("deadline exceeded".into()),
                    elapsed_us,
                },
                0,
            );
        }

        match outcome {
            Ok(Ok(output)) => {
                return (
                    JobResult {
                        job_id: job.id,
                        status: JobStatus::Ok,
                        attempts: attempt,
                        payload: Some(output.payload),
                        counts: output.counts,
                        detail: None,
                        elapsed_us,
                    },
                    output.insns,
                )
            }
            Ok(Err(JobError::Transient(msg))) if attempt <= config.max_retries => {
                std::thread::sleep(retry_backoff(config.retry_seed, job.id, attempt));
                let _ = msg;
                continue;
            }
            Ok(Err(err)) => {
                let (kind, msg) = match err {
                    JobError::Transient(m) => ("transient (retries exhausted)", m),
                    JobError::Fatal(m) => ("fatal", m),
                };
                return (
                    JobResult {
                        job_id: job.id,
                        status: JobStatus::Error,
                        attempts: attempt,
                        payload: None,
                        counts: Vec::new(),
                        detail: Some(format!("{kind}: {msg}")),
                        elapsed_us,
                    },
                    0,
                );
            }
            Err(panic_payload) => {
                let msg = panic_message(panic_payload.as_ref());
                return (
                    JobResult {
                        job_id: job.id,
                        status: JobStatus::Crashed,
                        attempts: attempt,
                        payload: None,
                        counts: Vec::new(),
                        detail: Some(msg),
                        elapsed_us,
                    },
                    0,
                );
            }
        }
    }
}

/// Best-effort panic payload extraction.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

/// Installs a process-wide panic hook that silences default panic output
/// from fleet worker threads (injected-panic jobs would otherwise spam
/// stderr with backtraces), delegating every other thread's panics to
/// the previous hook. Idempotent; call before running fleets whose jobs
/// are expected to crash.
pub fn quiet_worker_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_worker =
                std::thread::current().name().is_some_and(|n| n.starts_with("fleet-worker-"));
            if !in_worker {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobOutput;

    fn ok_job(id: u64) -> Job {
        Job::new(id, move |ctx| {
            Ok(JobOutput {
                payload: format!("{{\"job\":{}}}", ctx.job_id),
                counts: vec![1],
                insns: 0,
            })
        })
    }

    #[test]
    fn runs_all_jobs_and_sorts_by_id() {
        let fleet = Fleet::new(FleetConfig { workers: 4, ..FleetConfig::default() });
        let jobs: Vec<Job> = (0..32).map(ok_job).collect();
        let results = fleet.run(jobs, None, &[]);
        assert_eq!(results.len(), 32);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.job_id, i as u64);
            assert_eq!(r.status, JobStatus::Ok);
            assert_eq!(r.payload.as_deref(), Some(format!("{{\"job\":{i}}}").as_str()));
        }
    }

    #[test]
    fn panic_is_isolated_to_one_job() {
        quiet_worker_panics();
        let fleet = Fleet::new(FleetConfig { workers: 2, ..FleetConfig::default() });
        let mut jobs: Vec<Job> = (0..8).map(ok_job).collect();
        jobs[3] = Job::new(3, |_| panic!("injected panic"));
        let results = fleet.run(jobs, None, &[]);
        assert_eq!(results.len(), 8);
        assert_eq!(results[3].status, JobStatus::Crashed);
        assert_eq!(results[3].detail.as_deref(), Some("injected panic"));
        for r in results.iter().filter(|r| r.job_id != 3) {
            assert_eq!(r.status, JobStatus::Ok, "job {} survived the crash", r.job_id);
        }
    }

    #[test]
    fn deadline_kills_a_wedged_job() {
        let fleet = Fleet::new(FleetConfig {
            workers: 2,
            deadline: Some(Duration::from_millis(30)),
            ..FleetConfig::default()
        });
        let mut jobs: Vec<Job> = (0..4).map(ok_job).collect();
        jobs[1] = Job::new(1, |ctx| {
            // A cooperative spin: checks the stop flag like Soc::run does.
            while !ctx.stop.is_requested() {
                std::hint::spin_loop();
            }
            Ok(JobOutput { payload: "{\"late\":true}".into(), counts: vec![1], insns: 0 })
        });
        let results = fleet.run(jobs, None, &[]);
        assert_eq!(results[1].status, JobStatus::Hang);
        assert!(results[1].payload.is_none(), "killed output is discarded");
        for r in results.iter().filter(|r| r.job_id != 1) {
            assert_eq!(r.status, JobStatus::Ok);
        }
    }

    #[test]
    fn finished_attempt_wins_the_kill_race() {
        // The worker commits FINISHED the moment the closure returns; a
        // reaper firing afterwards (even with elapsed >= deadline and
        // the slot still occupied) must lose the CAS and change nothing.
        let state = AtomicU8::new(ATTEMPT_RUNNING);
        assert!(state
            .compare_exchange(
                ATTEMPT_RUNNING,
                ATTEMPT_FINISHED,
                Ordering::AcqRel,
                Ordering::Acquire
            )
            .is_ok());
        assert!(
            state
                .compare_exchange(
                    ATTEMPT_RUNNING,
                    ATTEMPT_KILLED,
                    Ordering::AcqRel,
                    Ordering::Acquire
                )
                .is_err(),
            "reaper must not reclassify a completed attempt"
        );

        // Reverse order: the reaper killed first, so the worker's
        // completion CAS fails and the attempt is classified Hang.
        let state = AtomicU8::new(ATTEMPT_RUNNING);
        assert!(state
            .compare_exchange(ATTEMPT_RUNNING, ATTEMPT_KILLED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok());
        assert!(state
            .compare_exchange(
                ATTEMPT_RUNNING,
                ATTEMPT_FINISHED,
                Ordering::AcqRel,
                Ordering::Acquire
            )
            .is_err());
    }

    #[test]
    fn fast_jobs_never_classified_hang_under_tight_deadline() {
        // Jobs that return well under the deadline must keep their Ok
        // verdict regardless of reaper timing or worker descheduling.
        let fleet = Fleet::new(FleetConfig {
            workers: 4,
            deadline: Some(Duration::from_millis(200)),
            ..FleetConfig::default()
        });
        let results = fleet.run((0..64).map(ok_job).collect(), None, &[]);
        for r in &results {
            assert_eq!(r.status, JobStatus::Ok, "job {} misclassified", r.job_id);
        }
    }

    #[test]
    fn transient_errors_retry_to_success() {
        use std::sync::atomic::AtomicU32;
        let tries = Arc::new(AtomicU32::new(0));
        let t = Arc::clone(&tries);
        let fleet = Fleet::new(FleetConfig { workers: 1, max_retries: 3, ..Default::default() });
        let job = Job::new(0, move |ctx| {
            t.fetch_add(1, Ordering::Relaxed);
            if ctx.attempt < 3 {
                Err(JobError::Transient("flaky host".into()))
            } else {
                Ok(JobOutput { payload: "{}".into(), counts: vec![], insns: 0 })
            }
        });
        let results = fleet.run(vec![job], None, &[]);
        assert_eq!(results[0].status, JobStatus::Ok);
        assert_eq!(results[0].attempts, 3);
        assert_eq!(tries.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn exhausted_retries_classify_as_error() {
        let fleet = Fleet::new(FleetConfig { workers: 1, max_retries: 1, ..Default::default() });
        let job = Job::new(0, |_| Err(JobError::Transient("always down".into())));
        let results = fleet.run(vec![job], None, &[]);
        assert_eq!(results[0].status, JobStatus::Error);
        assert_eq!(results[0].attempts, 2, "initial try + one retry");
    }

    #[test]
    fn backoff_is_seed_stable() {
        for attempt in 1..5 {
            assert_eq!(
                retry_backoff(42, 7, attempt),
                retry_backoff(42, 7, attempt),
                "same inputs, same backoff"
            );
        }
        assert_ne!(retry_backoff(42, 7, 1), retry_backoff(43, 7, 1), "seed matters");
    }

    #[test]
    fn skip_list_prevents_reruns() {
        let fleet = Fleet::new(FleetConfig { workers: 2, ..Default::default() });
        let jobs: Vec<Job> = (0..6).map(ok_job).collect();
        let results = fleet.run(jobs, None, &[1, 4]);
        let ids: Vec<u64> = results.iter().map(|r| r.job_id).collect();
        assert_eq!(ids, vec![0, 2, 3, 5]);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let jobs = || -> Vec<Job> { (0..24).map(ok_job).collect() };
        let one =
            Fleet::new(FleetConfig { workers: 1, ..Default::default() }).run(jobs(), None, &[]);
        let four =
            Fleet::new(FleetConfig { workers: 4, ..Default::default() }).run(jobs(), None, &[]);
        let flat = |rs: &[JobResult]| -> Vec<(u64, &'static str, Option<String>)> {
            rs.iter().map(|r| (r.job_id, r.status.label(), r.payload.clone())).collect()
        };
        assert_eq!(flat(&one), flat(&four));
    }
}

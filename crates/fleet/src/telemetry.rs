//! Fleet telemetry: per-worker counters, aggregated snapshots, the
//! `taintvp-telem/v1` stream, live progress rendering, and Prometheus
//! exposition.
//!
//! The design keeps the worker hot path honest about cost:
//!
//! - **Off by default, compile-asserted cheap.** `FleetConfig.telemetry`
//!   is an `Option<Arc<TelemetryHub>>`; niche optimization makes the
//!   disabled handle a null pointer (asserted below), so an untelemetered
//!   fleet pays one pointer null-check per *job*, never per instruction.
//! - **Relaxed atomics only.** Workers bump [`WorkerStats`] counters with
//!   relaxed `fetch_add` at job boundaries; the wall-time histogram is a
//!   lock-free [`AtomicHist`]. Nothing on the worker path takes a lock
//!   for telemetry.
//! - **Snapshots are values.** [`TelemetryHub::snapshot`] folds the
//!   atomics into a plain [`TelemSnapshot`] that renders every output
//!   format: a `taintvp-telem/v1` JSONL line, the one-line progress
//!   display, and the `/metrics` exposition document.
//!
//! The sampler ([`spawn_sampler`]) owns the cadence: it snapshots at
//! `--telemetry-interval-ms`, appends stream lines, and renders progress
//! — overwriting a single line on a real terminal, falling back to
//! periodic plain lines when output is redirected (no `\r` spam in CI
//! logs). [`TelemetryOptions`] parses the front ends' telemetry flags and
//! starts the hub, the sampler and `/metrics` as one [`Telemetry`].

use std::fs::OpenOptions;
use std::io::{self, IsTerminal, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vpdift_obs::expo::{render_metrics, Expo};
use vpdift_obs::hist::{AtomicHist, Hist, HistSpec};
use vpdift_obs::{Metrics, MetricsServer};

use crate::job::JobStatus;

/// Schema identifier stamped on every telemetry stream line.
pub const TELEM_FORMAT: &str = "taintvp-telem/v1";

/// Job wall-time histogram layout: log2 buckets over microseconds.
pub fn wall_spec() -> HistSpec {
    HistSpec::log2(32)
}

// The zero-cost-when-off contract, checked at compile time: a disabled
// telemetry handle is a null pointer (niche-optimized Option), so the
// per-job guard in the worker loop is a single null test and carries no
// allocation, no refcount traffic, no extra struct size.
const _: () = assert!(
    std::mem::size_of::<Option<Arc<TelemetryHub>>>() == std::mem::size_of::<usize>(),
    "Option<Arc<TelemetryHub>> must be pointer-sized (niche-optimized)"
);

/// Live counters for one worker thread. All updates are relaxed atomics
/// on the owning worker; readers (the sampler, scrape renders) see
/// values at most one in-flight update stale.
#[derive(Debug)]
pub struct WorkerStats {
    completed: AtomicU64,
    ok: AtomicU64,
    crashed: AtomicU64,
    hung: AtomicU64,
    errored: AtomicU64,
    retried: AtomicU64,
    stolen: AtomicU64,
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
    queue_depth: AtomicU64,
    active: AtomicU64,
    insns: AtomicU64,
    wall_us: AtomicHist,
}

impl WorkerStats {
    fn new() -> WorkerStats {
        WorkerStats {
            completed: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            crashed: AtomicU64::new(0),
            hung: AtomicU64::new(0),
            errored: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            idle_ns: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            active: AtomicU64::new(0),
            insns: AtomicU64::new(0),
            wall_us: AtomicHist::new(wall_spec()),
        }
    }

    /// Records a steal (this worker took a job from another deque).
    pub fn on_steal(&self) {
        self.stolen.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the worker's own queue depth after a pop.
    pub fn on_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Accumulates time spent parked without work.
    pub fn on_idle(&self, idle: Duration) {
        self.idle_ns.fetch_add(idle.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Marks the worker busy (a job attempt chain is starting).
    pub fn on_job_start(&self) {
        self.active.store(1, Ordering::Relaxed);
    }

    /// Records a terminally-resolved job: classification, attempts
    /// consumed, wall time, and completion-reported instructions.
    pub fn on_job_done(&self, status: JobStatus, attempts: u32, busy: Duration, insns: u64) {
        self.active.store(0, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
        let class = match status {
            JobStatus::Ok => &self.ok,
            JobStatus::Crashed => &self.crashed,
            JobStatus::Hang => &self.hung,
            JobStatus::Error => &self.errored,
        };
        class.fetch_add(1, Ordering::Relaxed);
        self.retried.fetch_add(u64::from(attempts.saturating_sub(1)), Ordering::Relaxed);
        self.busy_ns.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        self.wall_us.record(busy.as_micros() as u64);
        self.insns.fetch_add(insns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> WorkerSnap {
        WorkerSnap {
            completed: self.completed.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            crashed: self.crashed.load(Ordering::Relaxed),
            hung: self.hung.load(Ordering::Relaxed),
            errored: self.errored.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            stolen: self.stolen.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            idle_ns: self.idle_ns.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed) != 0,
            insns: self.insns.load(Ordering::Relaxed),
            wall_us: self.wall_us.snapshot(),
        }
    }
}

/// A point-in-time copy of one worker's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSnap {
    /// Jobs terminally resolved by this worker.
    pub completed: u64,
    /// ...of which classified `ok`.
    pub ok: u64,
    /// ...of which classified `crashed`.
    pub crashed: u64,
    /// ...of which classified `hang`.
    pub hung: u64,
    /// ...of which classified `error`.
    pub errored: u64,
    /// Retry attempts consumed beyond each job's first.
    pub retried: u64,
    /// Jobs this worker stole from other deques.
    pub stolen: u64,
    /// Nanoseconds spent inside job attempts.
    pub busy_ns: u64,
    /// Nanoseconds spent parked without work.
    pub idle_ns: u64,
    /// Own-deque depth after the last pop.
    pub queue_depth: u64,
    /// Whether a job attempt is in flight right now.
    pub active: bool,
    /// Retired guest instructions attributed to this worker.
    pub insns: u64,
    /// Per-job wall time histogram (microseconds, log2 buckets).
    pub wall_us: Hist,
}

/// Shared telemetry state for one fleet run: per-worker stats plus run
/// totals. Created by the caller, handed to the executor through
/// `FleetConfig.telemetry`, and read by samplers/scrapers.
#[derive(Debug)]
pub struct TelemetryHub {
    workers: Vec<WorkerStats>,
    total: AtomicU64,
    resumed: AtomicU64,
    done: AtomicBool,
    start: Instant,
}

impl TelemetryHub {
    /// A hub sized for `workers` worker threads.
    pub fn new(workers: usize) -> Arc<TelemetryHub> {
        Arc::new(TelemetryHub {
            workers: (0..workers.max(1)).map(|_| WorkerStats::new()).collect(),
            total: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            done: AtomicBool::new(false),
            start: Instant::now(),
        })
    }

    /// Stats slot for worker `w` (clamped: an over-provisioned hub never
    /// panics the executor).
    pub fn worker(&self, w: usize) -> &WorkerStats {
        &self.workers[w.min(self.workers.len() - 1)]
    }

    /// Number of worker slots.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Declares how many jobs this run will execute (the executor calls
    /// this with the post-skip job count).
    pub fn set_total(&self, jobs: u64) {
        self.total.store(jobs, Ordering::Relaxed);
    }

    /// Adds journal-recovered jobs: they count as completed (their rows
    /// exist) without ever touching a worker.
    pub fn add_resumed(&self, jobs: u64) {
        self.resumed.fetch_add(jobs, Ordering::Relaxed);
    }

    /// Marks the run finished (stops samplers at their next tick).
    pub fn mark_done(&self) {
        self.done.store(true, Ordering::Release);
    }

    /// `true` once the run finished.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Folds every worker's counters into one aggregate snapshot.
    pub fn snapshot(&self) -> TelemSnapshot {
        let workers: Vec<WorkerSnap> = self.workers.iter().map(WorkerStats::snapshot).collect();
        let mut wall_us = Hist::new(wall_spec());
        for w in &workers {
            // Same spec by construction; a mismatch is unreachable.
            let _ = wall_us.merge(&w.wall_us);
        }
        let resumed = self.resumed.load(Ordering::Relaxed);
        TelemSnapshot {
            elapsed: self.start.elapsed(),
            total: self.total.load(Ordering::Relaxed) + resumed,
            resumed,
            done: workers.iter().map(|w| w.completed).sum::<u64>() + resumed,
            running: workers.iter().filter(|w| w.active).count() as u64,
            ok: workers.iter().map(|w| w.ok).sum(),
            crashed: workers.iter().map(|w| w.crashed).sum(),
            hung: workers.iter().map(|w| w.hung).sum(),
            errored: workers.iter().map(|w| w.errored).sum(),
            retried: workers.iter().map(|w| w.retried).sum(),
            stolen: workers.iter().map(|w| w.stolen).sum(),
            insns: workers.iter().map(|w| w.insns).sum(),
            finished: self.is_done(),
            wall_us,
            workers,
        }
    }
}

/// One aggregated telemetry snapshot: everything a stream line, progress
/// display, or scrape needs.
#[derive(Debug, Clone)]
pub struct TelemSnapshot {
    /// Wall time since the hub was created.
    pub elapsed: Duration,
    /// Jobs in the run (including resumed ones).
    pub total: u64,
    /// Jobs recovered from a journal instead of re-run.
    pub resumed: u64,
    /// Terminally resolved jobs (including resumed).
    pub done: u64,
    /// Workers with an attempt in flight.
    pub running: u64,
    /// Jobs classified `ok`.
    pub ok: u64,
    /// Jobs classified `crashed`.
    pub crashed: u64,
    /// Jobs classified `hang`.
    pub hung: u64,
    /// Jobs classified `error`.
    pub errored: u64,
    /// Retry attempts beyond first tries.
    pub retried: u64,
    /// Cross-deque steals.
    pub stolen: u64,
    /// Retired guest instructions, as jobs reported them at completion.
    pub insns: u64,
    /// Whether the run had finished when this snapshot was taken.
    pub finished: bool,
    /// Merged per-job wall-time histogram (microseconds).
    pub wall_us: Hist,
    /// Per-worker breakdown.
    pub workers: Vec<WorkerSnap>,
}

impl TelemSnapshot {
    /// Completed jobs per second of wall time (excluding resumed jobs,
    /// which cost no wall time this run).
    pub fn jobs_per_s(&self) -> f64 {
        let fresh = self.done.saturating_sub(self.resumed);
        fresh as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Aggregate guest MIPS across all workers.
    pub fn mips(&self) -> f64 {
        self.insns as f64 / self.elapsed.as_micros().max(1) as f64
    }

    /// Estimated wall time to finish at the current rate; `None` before
    /// the first completion.
    pub fn eta(&self) -> Option<Duration> {
        let fresh = self.done.saturating_sub(self.resumed);
        if fresh == 0 || self.done >= self.total {
            return if self.done >= self.total { Some(Duration::ZERO) } else { None };
        }
        let remaining = (self.total - self.done) as f64;
        Some(Duration::from_secs_f64(remaining / self.jobs_per_s().max(1e-9)))
    }

    /// Renders one `taintvp-telem/v1` stream line (single-line JSON,
    /// newline not included).
    pub fn telem_line(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"format\":\"{TELEM_FORMAT}\",\"t_ms\":{},\"total\":{},\"resumed\":{},\"done\":{},\
             \"running\":{},\"ok\":{},\"crashed\":{},\"hung\":{},\"errored\":{},\"retried\":{},\
             \"stolen\":{},\"insns\":{},\"jobs_per_s\":{:.3},\"mips\":{:.3},\"finished\":{},\
             \"workers\":[",
            self.elapsed.as_millis(),
            self.total,
            self.resumed,
            self.done,
            self.running,
            self.ok,
            self.crashed,
            self.hung,
            self.errored,
            self.retried,
            self.stolen,
            self.insns,
            self.jobs_per_s(),
            self.mips(),
            self.finished,
        );
        for (i, w) in self.workers.iter().enumerate() {
            let comma = if i + 1 < self.workers.len() { "," } else { "" };
            let _ = write!(
                out,
                "{{\"worker\":{i},\"completed\":{},\"ok\":{},\"crashed\":{},\"hung\":{},\
                 \"errored\":{},\"retried\":{},\"stolen\":{},\"busy_ns\":{},\"idle_ns\":{},\
                 \"queue_depth\":{},\"insns\":{},\"wall_p50_us\":{},\"wall_p99_us\":{}}}{comma}",
                w.completed,
                w.ok,
                w.crashed,
                w.hung,
                w.errored,
                w.retried,
                w.stolen,
                w.busy_ns,
                w.idle_ns,
                w.queue_depth,
                w.insns,
                w.wall_us.quantile(0.5),
                w.wall_us.quantile(0.99),
            );
        }
        out.push_str("]}");
        out
    }

    /// The timing-free subset of the snapshot as canonical JSON: what
    /// two identical serial runs must reproduce byte-for-byte (wall
    /// times, rates and queue gauges excluded; counts, classifications
    /// and instruction totals included).
    pub fn deterministic_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"total\":{},\"resumed\":{},\"done\":{},\"ok\":{},\"crashed\":{},\"hung\":{},\
             \"errored\":{},\"retried\":{},\"insns\":{},\"workers\":[",
            self.total,
            self.resumed,
            self.done,
            self.ok,
            self.crashed,
            self.hung,
            self.errored,
            self.retried,
            self.insns,
        );
        for (i, w) in self.workers.iter().enumerate() {
            let comma = if i + 1 < self.workers.len() { "," } else { "" };
            let _ = write!(
                out,
                "{{\"completed\":{},\"ok\":{},\"crashed\":{},\"hung\":{},\"errored\":{},\
                 \"retried\":{},\"insns\":{}}}{comma}",
                w.completed, w.ok, w.crashed, w.hung, w.errored, w.retried, w.insns,
            );
        }
        out.push_str("]}");
        out
    }

    /// The `obs::metrics` registry a fleet reports. Retired instructions
    /// are the only counter of it a fleet aggregates.
    pub fn metrics(&self) -> Metrics {
        Metrics { instructions: self.insns, ..Metrics::default() }
    }

    /// Renders the one-line progress display.
    pub fn progress_line(&self) -> String {
        let mut line = format!(
            "[fleet] {}/{} done, {} running, {} retried, {} crashed, {} hung | {:.1} jobs/s",
            self.done,
            self.total,
            self.running,
            self.retried,
            self.crashed,
            self.hung,
            self.jobs_per_s(),
        );
        if self.insns > 0 {
            line.push_str(&format!(", {:.1} MIPS", self.mips()));
        }
        match self.eta() {
            Some(eta) if !self.finished => {
                line.push_str(&format!(", eta {:.1}s", eta.as_secs_f64()));
            }
            _ => {}
        }
        if self.finished {
            line.push_str(&format!(" — finished in {:.2}s", self.elapsed.as_secs_f64()));
        }
        line
    }

    /// Renders the fleet section of the `/metrics` exposition document.
    pub fn render_prom(&self, expo: &mut Expo) {
        expo.gauge("fleet_jobs_total", "Jobs in this fleet run.", &[], self.total as f64);
        expo.counter(
            "fleet_jobs_completed_total",
            "Jobs terminally resolved (all classifications, including journal-resumed).",
            &[],
            self.done,
        );
        for (name, help, v) in [
            ("fleet_jobs_ok_total", "Jobs classified ok.", self.ok),
            ("fleet_jobs_crashed_total", "Jobs classified crashed.", self.crashed),
            ("fleet_jobs_hung_total", "Jobs classified hang.", self.hung),
            ("fleet_jobs_errored_total", "Jobs classified error.", self.errored),
            ("fleet_jobs_resumed_total", "Jobs recovered from the journal.", self.resumed),
            ("fleet_job_retries_total", "Retry attempts beyond first tries.", self.retried),
            ("fleet_job_steals_total", "Jobs taken from another worker's deque.", self.stolen),
            ("fleet_insns_total", "Retired guest instructions.", self.insns),
        ] {
            expo.counter(name, help, &[], v);
        }
        expo.gauge(
            "fleet_jobs_running",
            "Workers with an attempt in flight.",
            &[],
            self.running as f64,
        );
        expo.histogram(
            "fleet_job_wall_seconds",
            "Per-job wall time (all attempts).",
            &[],
            &self.wall_us,
            1e-6,
        );
        for (i, w) in self.workers.iter().enumerate() {
            let worker = i.to_string();
            let labels: &[(&str, &str)] = &[("worker", &worker)];
            expo.counter(
                "fleet_worker_jobs_completed_total",
                "Jobs resolved per worker.",
                labels,
                w.completed,
            );
            expo.counter("fleet_worker_steals_total", "Steals per worker.", labels, w.stolen);
            expo.counter(
                "fleet_worker_insns_total",
                "Retired guest instructions per worker.",
                labels,
                w.insns,
            );
            expo.gauge(
                "fleet_worker_busy_seconds_total",
                "Seconds inside job attempts per worker.",
                labels,
                w.busy_ns as f64 * 1e-9,
            );
            expo.gauge(
                "fleet_worker_idle_seconds_total",
                "Seconds parked without work per worker.",
                labels,
                w.idle_ns as f64 * 1e-9,
            );
            expo.gauge(
                "fleet_worker_queue_depth",
                "Own-deque depth after the last pop.",
                labels,
                w.queue_depth as f64,
            );
        }
    }
}

/// Renders the `/metrics` document for one hub: the fleet series, then
/// the `obs::metrics` registry under the `vp_` prefix.
pub fn render_prom(hub: &TelemetryHub) -> String {
    let mut expo = Expo::new();
    let snap = hub.snapshot();
    snap.render_prom(&mut expo);
    render_metrics(&mut expo, "vp", &[], &snap.metrics());
    expo.finish()
}

/// Sampler configuration.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Snapshot cadence.
    pub interval: Duration,
    /// Append `taintvp-telem/v1` lines here (created/truncated at spawn).
    pub out: Option<PathBuf>,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig { interval: Duration::from_millis(500), out: None }
    }
}

/// The five telemetry flags both fleet front ends take (`--progress`,
/// `--telemetry-interval-ms`, `--telemetry-out`, `--metrics-addr`,
/// `--metrics-linger-ms`), parsed and checked in one place.
#[derive(Debug, Default)]
pub struct TelemetryOptions {
    progress: bool,
    sampler: SamplerConfig,
    metrics_addr: Option<String>,
    linger: Duration,
}

impl TelemetryOptions {
    /// Takes `flag` when it is one of the five, reading its value through
    /// `value`; `Ok(false)` leaves any other flag to the caller.
    pub fn take(
        &mut self,
        flag: &str,
        mut value: impl FnMut() -> Result<String, String>,
    ) -> Result<bool, String> {
        let mut millis = |flag: &str| -> Result<Duration, String> {
            let v = value()?;
            v.parse().map(Duration::from_millis).map_err(|_| format!("bad {flag} `{v}`"))
        };
        match flag {
            "--progress" => self.progress = true,
            "--telemetry-interval-ms" => {
                self.sampler.interval = millis(flag)?;
                if self.sampler.interval.is_zero() {
                    return Err("--telemetry-interval-ms must be at least 1".into());
                }
            }
            "--telemetry-out" => self.sampler.out = Some(PathBuf::from(value()?)),
            "--metrics-addr" => self.metrics_addr = Some(value()?),
            "--metrics-linger-ms" => self.linger = millis(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The checks that span flags, once every flag is taken.
    pub fn check(&self) -> Result<(), String> {
        if !self.linger.is_zero() && self.metrics_addr.is_none() {
            return Err("--metrics-linger-ms needs --metrics-addr".into());
        }
        Ok(())
    }

    /// Whether any of the five flags asks for telemetry.
    pub fn requested(&self) -> bool {
        self.progress || self.sampler.out.is_some() || self.metrics_addr.is_some()
    }

    /// Starts telemetry for a run on `workers` workers: the hub, the
    /// sampler (stream file and live progress line) and, with
    /// `--metrics-addr`, the `/metrics` endpoint. `name` prefixes the
    /// lines it prints.
    pub fn start(&self, workers: usize, name: &'static str) -> Result<Telemetry, String> {
        let hub = TelemetryHub::new(workers);
        let server = match &self.metrics_addr {
            Some(addr) => {
                let render_hub = Arc::clone(&hub);
                let server = MetricsServer::bind(addr, Arc::new(move || render_prom(&render_hub)))
                    .map_err(|e| e.to_string())?;
                eprintln!("{name}: metrics endpoint on http://{}/metrics", server.local_addr());
                Some(server)
            }
            None => None,
        };
        let sampler = spawn_sampler(Arc::clone(&hub), self.sampler.clone())
            .map_err(|e| format!("cannot start telemetry sampler: {e}"))?;
        Ok(Telemetry { hub, sampler: Some(sampler), server, linger: self.linger, name })
    }
}

/// Running telemetry, from [`TelemetryOptions::start`].
#[derive(Debug)]
pub struct Telemetry {
    hub: Arc<TelemetryHub>,
    sampler: Option<SamplerHandle>,
    server: Option<MetricsServer>,
    linger: Duration,
    name: &'static str,
}

impl Telemetry {
    /// The hub the executor feeds (`FleetConfig::telemetry`).
    pub fn hub(&self) -> &Arc<TelemetryHub> {
        &self.hub
    }

    /// Waits for the sampler's final snapshot; [`Fleet::run`](crate::Fleet::run)
    /// marks the hub done when the run ends. Call it before printing the
    /// results, so the last progress line comes first. A failed stream
    /// write is only a warning.
    pub fn end_sampling(&mut self) {
        if let Some(sampler) = self.sampler.take() {
            if let Err(e) = sampler.finish() {
                eprintln!("{}: warning: telemetry stream write failed: {e}", self.name);
            }
        }
    }

    /// Ends telemetry: the sampler's final snapshot if not yet taken,
    /// then `/metrics` stays up `--metrics-linger-ms` for final scrapes
    /// before it shuts down.
    pub fn finish(mut self) {
        self.end_sampling();
        if let Some(server) = self.server.take() {
            if !self.linger.is_zero() {
                eprintln!(
                    "{}: metrics endpoint lingering {}ms for final scrapes",
                    self.name,
                    self.linger.as_millis()
                );
                std::thread::sleep(self.linger);
            }
            server.shutdown();
        }
    }
}

/// Handle on a running sampler thread; [`finish`](SamplerHandle::finish)
/// emits the final snapshot and joins.
#[derive(Debug)]
pub struct SamplerHandle {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl SamplerHandle {
    /// Stops the sampler after its final snapshot and propagates any
    /// stream-write error.
    pub fn finish(mut self) -> io::Result<()> {
        self.stop.store(true, Ordering::Release);
        match self.handle.take() {
            Some(h) => h
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("telemetry sampler thread panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for SamplerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Spawns the sampler thread for `hub`. Opens (and truncates) the
/// stream file up front so flag typos fail fast, then snapshots every
/// `config.interval` until the hub is marked done (or the handle is
/// finished/dropped), always emitting one final snapshot.
pub fn spawn_sampler(hub: Arc<TelemetryHub>, config: SamplerConfig) -> io::Result<SamplerHandle> {
    let mut out = match &config.out {
        Some(path) => Some(OpenOptions::new().create(true).write(true).truncate(true).open(path)?),
        None => None,
    };
    let stop = Arc::new(AtomicBool::new(false));
    let stop_thread = Arc::clone(&stop);
    let handle = std::thread::Builder::new().name("fleet-telem".into()).spawn(move || {
        let mut progress = ProgressRenderer::new();
        let tick = Duration::from_millis(20).min(config.interval);
        let mut last_emit = Instant::now();
        loop {
            let finished = hub.is_done() || stop_thread.load(Ordering::Acquire);
            if finished || last_emit.elapsed() >= config.interval {
                last_emit = Instant::now();
                let snap = hub.snapshot();
                if let Some(f) = out.as_mut() {
                    writeln!(f, "{}", snap.telem_line())?;
                }
                progress.render(&snap);
                if finished {
                    if let Some(f) = out.as_mut() {
                        f.flush()?;
                    }
                    progress.close();
                    return Ok(());
                }
            }
            std::thread::sleep(tick);
        }
    })?;
    Ok(SamplerHandle { stop, handle: Some(handle) })
}

/// Live progress renderer with non-TTY fallback: on a real terminal it
/// overwrites one stderr line per tick (`\r` + clear-to-EOL); when
/// stderr is redirected it prints a plain line at most every
/// [`PLAIN_PERIOD`], so CI logs get periodic progress instead of
/// carriage-return spam.
struct ProgressRenderer {
    tty: bool,
    last_plain: Option<Instant>,
}

/// Minimum spacing of plain-mode progress lines.
const PLAIN_PERIOD: Duration = Duration::from_secs(2);

impl ProgressRenderer {
    fn new() -> ProgressRenderer {
        ProgressRenderer { tty: io::stderr().is_terminal(), last_plain: None }
    }

    fn render(&mut self, snap: &TelemSnapshot) {
        let mut err = io::stderr().lock();
        if self.tty {
            let _ = write!(err, "\r\x1b[K{}", snap.progress_line());
            let _ = err.flush();
            return;
        }
        let due = self.last_plain.map(|t| t.elapsed() >= PLAIN_PERIOD).unwrap_or(true);
        if due || snap.finished {
            self.last_plain = Some(Instant::now());
            let _ = writeln!(err, "{}", snap.progress_line());
        }
    }

    /// Ends the overwritten line so subsequent output starts clean.
    fn close(&mut self) {
        if self.tty {
            let mut err = io::stderr().lock();
            let _ = writeln!(err);
            let _ = err.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn do_job(hub: &TelemetryHub, w: usize, status: JobStatus, attempts: u32, insns: u64) {
        let ws = hub.worker(w);
        ws.on_job_start();
        ws.on_job_done(status, attempts, Duration::from_micros(250), insns);
    }

    #[test]
    fn snapshot_aggregates_workers() {
        let hub = TelemetryHub::new(2);
        hub.set_total(5);
        do_job(&hub, 0, JobStatus::Ok, 1, 1000);
        do_job(&hub, 0, JobStatus::Crashed, 2, 0);
        do_job(&hub, 1, JobStatus::Ok, 1, 500);
        hub.worker(1).on_steal();
        let snap = hub.snapshot();
        assert_eq!(snap.total, 5);
        assert_eq!(snap.done, 3);
        assert_eq!((snap.ok, snap.crashed, snap.hung, snap.errored), (2, 1, 0, 0));
        assert_eq!(snap.retried, 1, "second attempt counts as one retry");
        assert_eq!(snap.stolen, 1);
        assert_eq!(snap.insns, 1500);
        assert_eq!(snap.wall_us.count(), 3);
        assert_eq!(snap.workers.len(), 2);
        assert_eq!(snap.workers[0].completed, 2);
    }

    #[test]
    fn resumed_jobs_count_as_done() {
        let hub = TelemetryHub::new(1);
        hub.set_total(4);
        hub.add_resumed(3);
        do_job(&hub, 0, JobStatus::Ok, 1, 0);
        let snap = hub.snapshot();
        assert_eq!(snap.total, 7);
        assert_eq!(snap.done, 4);
        assert_eq!(snap.ok, 1, "resumed rows are not re-classified");
    }

    #[test]
    fn telem_line_is_single_line_json_with_schema() {
        let hub = TelemetryHub::new(1);
        hub.set_total(2);
        do_job(&hub, 0, JobStatus::Ok, 1, 42);
        let line = hub.snapshot().telem_line();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"format\":\"taintvp-telem/v1\""), "{line}");
        assert!(line.contains("\"done\":1"), "{line}");
        assert!(line.contains("\"insns\":42"), "{line}");
        assert!(line.contains("\"worker\":0"), "{line}");
        vpdift_obs::json::parse(&line).expect("stream line is valid JSON");
    }

    #[test]
    fn deterministic_json_excludes_timing() {
        let hub = TelemetryHub::new(1);
        hub.set_total(1);
        do_job(&hub, 0, JobStatus::Ok, 1, 7);
        let d = hub.snapshot().deterministic_json();
        assert!(!d.contains("t_ms") && !d.contains("busy_ns") && !d.contains("jobs_per_s"), "{d}");
        assert!(d.contains("\"insns\":7"), "{d}");
        vpdift_obs::json::parse(&d).expect("deterministic subset is valid JSON");
    }

    #[test]
    fn prom_render_exposes_fleet_counters() {
        let hub = TelemetryHub::new(2);
        hub.set_total(3);
        do_job(&hub, 0, JobStatus::Ok, 1, 10);
        do_job(&hub, 1, JobStatus::Hang, 1, 0);
        let text = render_prom(&hub);
        assert!(text.contains("# TYPE fleet_jobs_completed_total counter"), "{text}");
        assert!(text.contains("fleet_jobs_completed_total 2"), "{text}");
        assert!(text.contains("fleet_jobs_hung_total 1"), "{text}");
        assert!(text.contains("fleet_job_wall_seconds_bucket"), "{text}");
        assert!(text.contains("fleet_worker_jobs_completed_total{worker=\"0\"} 1"), "{text}");
    }

    #[test]
    fn eta_and_rates_behave() {
        let hub = TelemetryHub::new(1);
        hub.set_total(10);
        let early = hub.snapshot();
        assert_eq!(early.eta(), None, "no rate before the first completion");
        do_job(&hub, 0, JobStatus::Ok, 1, 0);
        let snap = hub.snapshot();
        assert!(snap.jobs_per_s() > 0.0);
        assert!(snap.eta().is_some());
        let line = snap.progress_line();
        assert!(line.contains("1/10 done"), "{line}");
    }

    #[test]
    fn sampler_writes_stream_and_final_snapshot() {
        let dir = std::env::temp_dir().join(format!("telem-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("telem.jsonl");
        let hub = TelemetryHub::new(1);
        hub.set_total(1);
        let sampler = spawn_sampler(
            Arc::clone(&hub),
            SamplerConfig { interval: Duration::from_millis(10), out: Some(path.clone()) },
        )
        .expect("sampler spawns");
        do_job(&hub, 0, JobStatus::Ok, 1, 5);
        std::thread::sleep(Duration::from_millis(40));
        hub.mark_done();
        sampler.finish().expect("sampler exits cleanly");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty());
        for l in &lines {
            assert!(l.starts_with("{\"format\":\"taintvp-telem/v1\""), "{l}");
        }
        let last = lines.last().unwrap();
        assert!(last.contains("\"finished\":true"), "final snapshot flagged: {last}");
        assert!(last.contains("\"done\":1"), "{last}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! # vpdift-benchmark — the end-to-end benchmark (`taintvp-bench`)
//!
//! Drives the virtual prototype through the public entry points users'
//! tools call — `Soc::new`/`load_program`/`run` (Table II),
//! `vpdift_fleet::run_campaign_fleet` (fault campaigns) and
//! `vpdift_serve::Connection::handle_line` (serve debugging) — on the
//! build's default execution engine, checks every output, and reports
//! end-to-end metrics (or, in a traced run, per-layer metrics) as one
//! JSON object.
//!
//! A run repeats *rounds* of its workload until `--seconds` have passed.
//! Every round of one run gets the same inputs (the seed only reorders
//! them), so exact counts repeat round to round and run to run, and the
//! reported times are medians over rounds.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod campaign;
pub mod compare;
mod layers;
mod serve;
pub mod stats;
mod table2;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use trace::Tracer;

/// The end-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] =
    &[("guest_mips", "MIPS"), ("ops_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics, printed by every traced run: `(name, unit)`.
/// A layer a workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace_overhead", "ratio"),
    ("host.cores", "count"),
    ("bench.self_share", "ratio"),
    ("soc.new_ms", "ms"),
    ("soc.new_plain_ms", "ms"),
    ("soc.load_ms", "ms"),
    ("soc.run_s", "s"),
    ("soc.ns_per_insn.vp", "ns"),
    ("soc.ns_per_insn.vp_plus", "ns"),
    ("soc.dift_overhead", "ratio"),
    ("soc.digest_ms", "ms"),
    ("rv32.instret", "count"),
    ("rv32.traps", "count"),
    ("rv32.block_hit_ratio", "ratio"),
    ("rv32.block_invalidations", "count"),
    ("rv32.block_flushes", "count"),
    ("rv32.idle_steps", "count"),
    ("rv32.checked_steps", "count"),
    ("core.checks", "count"),
    ("core.checks_failed", "count"),
    ("core.check.fetch", "count"),
    ("core.check.branch", "count"),
    ("core.check.memaddr", "count"),
    ("core.check.output", "count"),
    ("core.tagged_load_ratio", "ratio"),
    ("core.tagged_store_ratio", "ratio"),
    ("core.tag_writes", "count"),
    ("core.violations", "count"),
    ("tlm.tx", "count"),
    ("tlm.tx.clint", "count"),
    ("tlm.tx.plic", "count"),
    ("tlm.tx.uart", "count"),
    ("tlm.tx.terminal", "count"),
    ("tlm.tx.sensor", "count"),
    ("tlm.tx.can", "count"),
    ("tlm.tx.aes", "count"),
    ("tlm.tx.dma", "count"),
    ("tlm.tx.watchdog", "count"),
    ("tlm.tx_per_kinsn", "1/kinsn"),
    ("kernel.sim_s", "s"),
    ("periph.uart_bytes", "bytes"),
    ("periph.can_auths", "count"),
    ("obs.ev_lines", "count"),
    ("obs.ev_lines_per_run", "ratio"),
    ("faults.prelude_s", "s"),
    ("faults.outcome.masked", "count"),
    ("faults.outcome.dift_detected", "count"),
    ("faults.outcome.precise_trap", "count"),
    ("faults.outcome.watchdog_timeout", "count"),
    ("faults.outcome.trap_loop", "count"),
    ("faults.outcome.hang", "count"),
    ("faults.outcome.degraded", "count"),
    ("faults.outcome.sdc", "count"),
    ("fleet.busy_s", "s"),
    ("fleet.idle_s", "s"),
    ("fleet.utilization", "ratio"),
    ("fleet.steals", "count"),
    ("fleet.retries", "count"),
    ("fleet.job_p50_ms", "ms"),
    ("fleet.job_p95_ms", "ms"),
    ("fleet.insns", "count"),
    ("serve.create.p50_us", "us"),
    ("serve.create.p99_us", "us"),
    ("serve.watch.p50_us", "us"),
    ("serve.watch.p99_us", "us"),
    ("serve.break.p50_us", "us"),
    ("serve.break.p99_us", "us"),
    ("serve.run.p50_us", "us"),
    ("serve.run.p99_us", "us"),
    ("serve.step.p50_us", "us"),
    ("serve.step.p99_us", "us"),
    ("serve.read.p50_us", "us"),
    ("serve.read.p99_us", "us"),
    ("serve.explain.p50_us", "us"),
    ("serve.explain.p99_us", "us"),
    ("serve.info.p50_us", "us"),
    ("serve.info.p99_us", "us"),
    ("serve.destroy.p50_us", "us"),
    ("serve.destroy.p99_us", "us"),
    ("serve.req_p50_us", "us"),
    ("serve.req_p99_us", "us"),
    ("serve.json_parse_us", "us"),
    ("serve.json_parse_create_us", "us"),
    ("loader.parse_us", "us"),
];

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// CPU-bound Table II rows on VP and VP+.
    Table2Compute,
    /// Interrupt- and MMIO-heavy Table II rows on VP and VP+.
    Table2Io,
    /// Parallel fault campaigns through the fleet executor.
    FaultCampaign,
    /// One closed-loop client debugging sessions through serve.
    ServeDebug,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Table2Compute,
        Workload::Table2Io,
        Workload::FaultCampaign,
        Workload::ServeDebug,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2Compute => "table2-compute",
            Workload::Table2Io => "table2-io",
            Workload::FaultCampaign => "fault-campaign",
            Workload::ServeDebug => "serve-debug",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the committed ones, or a tiny set for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` and the README state.
    Committed,
    /// Seconds-scale inputs exercising every path (smoke test only).
    Tiny,
}

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Keep starting rounds until this much wall time has passed (at
    /// least one round, or one traced/untraced pair, always runs).
    pub seconds: f64,
    /// Traced run: record spans and report the per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Where the span file and the campaign journal go.
    pub out_dir: PathBuf,
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (from [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The outcome of one run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Operations attempted (program runs, campaign jobs or requests).
    pub attempted: u64,
    /// Failed output checks.
    pub failed: u64,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Rounds the medians were taken over (traced runs: traced rounds).
    pub rounds: usize,
    /// Set-up samples behind `setup_s` (untraced runs).
    pub setup_samples: usize,
    /// The span file written by a traced run.
    pub trace_file: Option<PathBuf>,
}

impl Report {
    /// `true` when every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line result object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Failed-check accounting: every failure counts once and the first few
/// are described on stderr. Nothing in a run panics on a wrong output.
#[derive(Default)]
pub(crate) struct Checks {
    pub(crate) failed: u64,
}

impl Checks {
    /// Counts a failure unless `ok`; `what` describes it.
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("taintvp-bench: check failed: {}", what());
            }
        }
    }
}

/// Exact per-round counts read from public getters. Every round of a run
/// has the same inputs, so these must repeat exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Counts {
    pub(crate) instret: u64,
    pub(crate) sim_ps: u64,
    pub(crate) uart_bytes: u64,
    pub(crate) can_auths: u64,
    pub(crate) checks: u64,
    pub(crate) checks_failed: u64,
    /// Block-cache hits, misses, invalidations, flushes, idle and checked
    /// steps (all 0 under the interpreter).
    pub(crate) block: [u64; 6],
    pub(crate) outcomes: [u64; vpdift_faults::Outcome::COUNT],
    pub(crate) fleet_insns: u64,
    pub(crate) ev_lines: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.instret += o.instret;
        self.sim_ps += o.sim_ps;
        self.uart_bytes += o.uart_bytes;
        self.can_auths += o.can_auths;
        self.checks += o.checks;
        self.checks_failed += o.checks_failed;
        for (a, b) in self.block.iter_mut().zip(o.block) {
            *a += b;
        }
        for (a, b) in self.outcomes.iter_mut().zip(o.outcomes) {
            *a += b;
        }
        self.fleet_insns += o.fleet_insns;
        self.ev_lines += o.ev_lines;
    }
}

/// What one round reports.
#[derive(Clone, Debug, Default)]
pub(crate) struct Round {
    /// Host seconds for the whole round.
    pub(crate) wall: f64,
    /// Operations attempted.
    pub(crate) ops: u64,
    /// Guest instructions (campaigns: CPU steps) retired.
    pub(crate) insns: u64,
    /// VP+ set-up times in seconds (new + load, or serve `create`).
    pub(crate) setup: Vec<f64>,
    /// Exact counts.
    pub(crate) counts: Counts,
    /// Per-round per-layer values (reported as the median over traced
    /// rounds).
    pub(crate) layer: Vec<(&'static str, f64)>,
}

/// One workload's implementation.
pub(crate) trait Bench {
    /// Untimed preparation (inputs, references). Returns VP+ set-up
    /// samples measured outside rounds, if the workload has any.
    fn prepare(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> Vec<f64>;
    /// Runs round `index` (same inputs every round; the index only
    /// reorders them).
    fn round(&mut self, index: u64, tracer: &mut Tracer, checks: &mut Checks) -> Round;
    /// Workload-specific per-layer values for a traced run (counts
    /// passes, span distributions).
    fn layers(
        &mut self,
        traced: &[Round],
        tracer: &Tracer,
        checks: &mut Checks,
        out: &mut BTreeMap<&'static str, f64>,
    );
}

/// Runs the benchmark described by `cfg`.
pub fn run(cfg: &Config) -> Report {
    let mut bench: Box<dyn Bench> = match cfg.workload {
        Workload::Table2Compute => Box::new(table2::Table2::compute(cfg.size, cfg.seed)),
        Workload::Table2Io => Box::new(table2::Table2::io(cfg.size, cfg.seed)),
        Workload::FaultCampaign => Box::new(campaign::Campaign::new(cfg)),
        Workload::ServeDebug => Box::new(serve::ServeDebug::new(cfg.size, cfg.seed)),
    };
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(cfg.trace);
    let mut setup = bench.prepare(&mut tracer, &mut checks);

    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let start = Instant::now();
    for index in 0.. {
        // A traced run pairs each traced round with an untraced one on the
        // same inputs, alternating which goes first, so the tracing cost
        // is measured under the same conditions as the work.
        let sides: &[bool] = match (cfg.trace, index % 2) {
            (false, _) => &[false],
            (true, 0) => &[true, false],
            (true, _) => &[false, true],
        };
        for &recording in sides {
            tracer.set_recording(recording);
            let open = tracer.begin("bench.round", index);
            let mut round = bench.round(index, &mut tracer, &mut checks);
            round.wall = tracer.end(open).as_secs_f64();
            if recording { &mut traced } else { &mut untraced }.push(round);
        }
        if start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    tracer.set_recording(false);

    let first = untraced[0].counts.clone();
    for (i, r) in traced.iter().chain(&untraced).enumerate() {
        checks.check(r.counts == first, || {
            format!("round {i} counts differ from the first round's: {:?} vs {first:?}", r.counts)
        });
    }
    let attempted = untraced.iter().chain(&traced).map(|r| r.ops).sum();

    let rounds = if cfg.trace { traced.len() } else { untraced.len() };
    let (metrics, trace_file) = if cfg.trace {
        let mut values = layers::common(&traced, &untraced, &tracer);
        bench.layers(&traced, &tracer, &mut checks, &mut values);
        let path =
            cfg.out_dir.join(format!("trace-{}-seed{}.jsonl", cfg.workload.name(), cfg.seed));
        let meta = format!(
            "{{\"meta\":\"taintvp-bench/trace\",\"workload\":\"{}\",\"seed\":{},\"host_cores\":{},\"commit\":\"{}\"}}",
            cfg.workload.name(),
            cfg.seed,
            host_cores(),
            git_commit()
        );
        let written =
            std::fs::create_dir_all(&cfg.out_dir).and_then(|()| tracer.write_jsonl(&path, &meta));
        checks.check(written.is_ok(), || format!("cannot write {}: {written:?}", path.display()));
        (catalogue(PER_LAYER, &values), Some(path))
    } else {
        setup.extend(untraced.iter().flat_map(|r| r.setup.iter().copied()));
        let per_round = |f: &dyn Fn(&Round) -> f64| -> f64 {
            stats::median(&untraced.iter().map(f).collect::<Vec<_>>())
        };
        let mut values = BTreeMap::new();
        values.insert("guest_mips", per_round(&|r| r.insns as f64 / r.wall / 1e6));
        values.insert("ops_per_s", per_round(&|r| r.ops as f64 / r.wall));
        values.insert("setup_s", stats::median(&setup));
        values.insert("peak_rss_mb", peak_rss_mb());
        (catalogue(END_TO_END, &values), None)
    };
    Report {
        attempted,
        failed: checks.failed,
        metrics,
        rounds,
        setup_samples: if cfg.trace { 0 } else { setup.len() },
        trace_file,
    }
}

/// Emits every catalogue entry in order; missing values read 0 and
/// non-finite ones are replaced by 0 so the output stays valid JSON.
fn catalogue(
    names: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            Metric { name, unit, value: if v.is_finite() { v } else { 0.0 } }
        })
        .collect()
}

/// Cores available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` outside a git work tree (the usual case for a benchmark
/// checkout).
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// Peak resident set size (`VmHWM`) in MiB; 0 when `/proc` is missing.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A small deterministic generator for seeded orders and sizes.
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// Fisher-Yates shuffle.
    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i as u64) as usize);
        }
    }
}

//! Offline drop-in replacement for the subset of `criterion` 0.5 used by
//! this workspace's benches.
//!
//! The build container cannot reach crates.io, so the workspace patches
//! `criterion` to this shim. It keeps the same *surface* — `Criterion`,
//! `benchmark_group`, `sample_size`, `throughput`, `bench_function`,
//! `Bencher::iter`, `black_box`, `criterion_group!`/`criterion_main!` —
//! and performs **real wall-clock measurement**: per benchmark it
//! calibrates an iteration count, warms up, then takes `sample_size`
//! timed samples and reports median/mean ns-per-iteration (and
//! elements/s when a throughput is set). One addition of its own,
//! [`BenchmarkGroup::bench_interleaved`], times a group's entries
//! sample by sample in turn, so entries whose ratio is compared share
//! the host's speed drifts. There are no plots, no saved baselines, and
//! no statistical regression analysis.

// Vendored offline shim: keep the surface identical to the real crate
// rather than chasing lints.
#![allow(clippy::all)]

use std::hint;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer identity, re-exported from `std::hint`.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// One finished benchmark's summary statistics, collected for `--json`.
#[derive(Debug, Clone)]
struct BenchRecord {
    group: String,
    name: String,
    median_ns: f64,
    mean_ns: f64,
    min_ns: f64,
    max_ns: f64,
    samples: usize,
    throughput_elems: Option<u64>,
}

/// Results accumulated across all groups of this bench binary.
static RECORDS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());
/// Output path from `--json PATH`, when given.
static JSON_PATH: Mutex<Option<String>> = Mutex::new(None);

/// The suite name: this bench binary's file stem with cargo's trailing
/// `-<hash>` disambiguator removed (`iss-1a2b3c4d…` → `iss`).
fn suite_name() -> String {
    let arg0 = std::env::args().next().unwrap_or_default();
    let stem = std::path::Path::new(&arg0)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("bench")
        .to_string();
    strip_bench_hash(&stem).to_string()
}

/// Strips cargo's trailing `-<hex hash>` from a bench binary file stem.
fn strip_bench_hash(stem: &str) -> &str {
    match stem.rfind('-') {
        Some(i) if stem.len() - i > 8 && stem[i + 1..].bytes().all(|b| b.is_ascii_hexdigit()) => {
            &stem[..i]
        }
        _ => stem,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Writes collected results to the `--json` path (if one was given) in
/// the `taintvp-bench/v1` schema documented in `docs/OBSERVABILITY.md`.
/// Called by `criterion_main!` after all groups finish.
pub fn finalize() {
    let Some(path) = JSON_PATH.lock().unwrap().clone() else { return };
    let records = RECORDS.lock().unwrap();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"taintvp-bench/v1\",\n");
    out.push_str(&format!("  \"suite\": \"{}\",\n", json_escape(&suite_name())));
    out.push_str("  \"entries\": [\n");
    for (i, r) in records.iter().enumerate() {
        let throughput = match r.throughput_elems {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "    {{\"group\": \"{}\", \"name\": \"{}\", \"unit\": \"ns/iter\", \"median\": {:.3}, \"mean\": {:.3}, \"min\": {:.3}, \"max\": {:.3}, \"samples\": {}, \"throughput_elems\": {}}}{}\n",
            json_escape(&r.group),
            json_escape(&r.name),
            r.median_ns,
            r.mean_ns,
            r.min_ns,
            r.max_ns,
            r.samples,
            throughput,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    match std::fs::write(&path, out) {
        Ok(()) => println!("\nbench results written to {path}"),
        Err(e) => eprintln!("error: cannot write bench JSON to {path}: {e}"),
    }
}

/// Units used to report per-iteration throughput.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// One iteration processes this many logical elements.
    Elements(u64),
    /// One iteration processes this many bytes.
    Bytes(u64),
}

/// Top-level benchmark driver handle.
#[derive(Debug, Default)]
pub struct Criterion {
    filter: Option<String>,
}

impl Criterion {
    /// Reads CLI arguments. Honoured: a positional name filter
    /// (`cargo bench -- <substring>`) and `--json PATH` (write a
    /// `taintvp-bench/v1` summary when the binary finishes); other
    /// flags are ignored.
    pub fn configure_from_args(mut self) -> Self {
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            if arg == "--json" {
                *JSON_PATH.lock().unwrap() = args.next();
            } else if let Some(path) = arg.strip_prefix("--json=") {
                *JSON_PATH.lock().unwrap() = Some(path.to_string());
            } else if !arg.starts_with('-') && self.filter.is_none() {
                self.filter = Some(arg);
            }
        }
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\n{name}");
        BenchmarkGroup {
            criterion: self,
            group: name.to_string(),
            sample_size: 100,
            throughput: None,
        }
    }
}

/// A named set of benchmarks sharing sample-size/throughput settings.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    group: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark takes.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Declares the per-iteration throughput used in reports.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Measures `f` and prints one report line.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.group, name);
        if let Some(filter) = &self.criterion.filter {
            if !full.contains(filter.as_str()) {
                return self;
            }
        }
        let mut bencher = Bencher { samples: Vec::new(), sample_size: self.sample_size };
        f(&mut bencher);
        bencher.report(&self.group, name, self.throughput);
        self
    }

    /// Measures every entry as [`BenchmarkGroup::bench_function`] would,
    /// but interleaved: each entry is calibrated and warmed up, then
    /// sample `k` of every entry is taken before sample `k + 1` of any. A
    /// change of host speed during the group then moves every entry alike
    /// instead of whichever one ran at the time, which keeps the ratio of
    /// two entries' medians steady. Entries are reported and recorded in
    /// order, exactly as `bench_function` would report them.
    pub fn bench_interleaved<'r, O>(
        &mut self,
        entries: Vec<(String, Box<dyn FnMut() -> O + 'r>)>,
    ) -> &mut Self {
        let filter = self.criterion.filter.as_deref();
        let mut runs: Vec<_> = entries
            .into_iter()
            .filter(|(name, _)| filter.is_none_or(|f| format!("{}/{name}", self.group).contains(f)))
            .map(|(name, mut routine)| {
                let iters = calibrate(&mut routine);
                warm_up(&mut routine);
                (name, routine, iters, Vec::with_capacity(self.sample_size))
            })
            .collect();
        for _ in 0..self.sample_size {
            for (_, routine, iters, samples) in &mut runs {
                samples.push(time_sample(routine, *iters));
            }
        }
        for (name, _, _, samples) in runs {
            let mut bencher = Bencher { samples, sample_size: self.sample_size };
            bencher.report(&self.group, &name, self.throughput);
        }
        self
    }

    /// Ends the group (separator only; nothing is persisted).
    pub fn finish(&mut self) {}
}

/// Passed to each benchmark closure; runs and times the workload.
pub struct Bencher {
    /// Nanoseconds per iteration, one entry per sample.
    samples: Vec<f64>,
    sample_size: usize,
}

/// Target wall-clock duration of one timed sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(40);
/// Warmup budget before sampling starts.
const WARMUP_TARGET: Duration = Duration::from_millis(150);

/// How many iterations of `routine` fill one sample window.
fn calibrate<O>(routine: &mut impl FnMut() -> O) -> u64 {
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        let elapsed = start.elapsed();
        if elapsed >= SAMPLE_TARGET / 4 || iters >= 1 << 30 {
            let per_iter = elapsed.as_secs_f64() / iters as f64;
            let target = SAMPLE_TARGET.as_secs_f64();
            return ((target / per_iter.max(1e-9)) as u64).clamp(1, 1 << 32);
        }
        iters = iters.saturating_mul(4);
    }
}

/// Runs `routine` for the warmup budget.
fn warm_up<O>(routine: &mut impl FnMut() -> O) {
    let warm_start = Instant::now();
    while warm_start.elapsed() < WARMUP_TARGET {
        black_box(routine());
    }
}

/// One timed sample: nanoseconds per iteration over `iters` iterations.
fn time_sample<O>(routine: &mut impl FnMut() -> O, iters: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(routine());
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

impl Bencher {
    /// Times `routine`, keeping its return value live via [`black_box`].
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        let iters = calibrate(&mut routine);
        warm_up(&mut routine);
        self.samples.clear();
        for _ in 0..self.sample_size {
            self.samples.push(time_sample(&mut routine, iters));
        }
    }

    fn report(&mut self, group: &str, name: &str, throughput: Option<Throughput>) {
        let full = format!("{group}/{name}");
        if self.samples.is_empty() {
            println!("  {full:<40} (no samples)");
            return;
        }
        self.samples.sort_by(|a, b| a.total_cmp(b));
        let median = self.samples[self.samples.len() / 2];
        let mean = self.samples.iter().sum::<f64>() / self.samples.len() as f64;
        let rate = match throughput {
            Some(Throughput::Elements(n)) => {
                format!("  {:>12.3} Melem/s", n as f64 / median * 1e3)
            }
            Some(Throughput::Bytes(n)) => {
                format!("  {:>12.3} MiB/s", n as f64 / median * 1e9 / (1024.0 * 1024.0) / 1e6)
            }
            None => String::new(),
        };
        println!("  {full:<40} median {median:>12.1} ns/iter  (mean {mean:>12.1}){rate}");
        RECORDS.lock().unwrap().push(BenchRecord {
            group: group.to_string(),
            name: name.to_string(),
            median_ns: median,
            mean_ns: mean,
            min_ns: self.samples[0],
            max_ns: self.samples[self.samples.len() - 1],
            samples: self.samples.len(),
            throughput_elems: match throughput {
                Some(Throughput::Elements(n)) => Some(n),
                _ => None,
            },
        });
    }
}

/// Bundles benchmark functions into one runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Generates `main` running the given group functions in order, then
/// writing the `--json` results file (when requested).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::finalize();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_produces_samples() {
        let mut b = Bencher { samples: Vec::new(), sample_size: 3 };
        let mut counter = 0u64;
        b.iter(|| {
            counter = counter.wrapping_add(1);
            black_box(counter)
        });
        assert_eq!(b.samples.len(), 3);
        assert!(b.samples.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn bench_hash_stripping() {
        assert_eq!(strip_bench_hash("iss-1a2b3c4d5e6f7890"), "iss");
        assert_eq!(strip_bench_hash("obs-deadbeefdeadbeef"), "obs");
        assert_eq!(strip_bench_hash("iss"), "iss");
        assert_eq!(strip_bench_hash("my-bench"), "my-bench", "short suffix kept");
        assert_eq!(strip_bench_hash("iss-notahexsuffix!"), "iss-notahexsuffix!");
    }

    #[test]
    fn finalize_writes_schema_json() {
        let path = std::env::temp_dir().join("criterion_shim_selftest.json");
        let path_str = path.to_str().unwrap().to_string();
        RECORDS.lock().unwrap().push(BenchRecord {
            group: "selftest_group".into(),
            name: "case".into(),
            median_ns: 1.5,
            mean_ns: 2.0,
            min_ns: 1.0,
            max_ns: 3.0,
            samples: 4,
            throughput_elems: Some(7),
        });
        *JSON_PATH.lock().unwrap() = Some(path_str.clone());
        finalize();
        *JSON_PATH.lock().unwrap() = None;
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.contains("\"schema\": \"taintvp-bench/v1\""), "{text}");
        assert!(text.contains("\"group\": \"selftest_group\""), "{text}");
        assert!(text.contains("\"median\": 1.500"), "{text}");
        assert!(text.contains("\"throughput_elems\": 7"), "{text}");
    }

    #[test]
    fn interleaved_entries_are_sampled_in_turn_and_reported_in_order() {
        let order = std::cell::RefCell::new(Vec::new());
        let mut c = Criterion { filter: Some("interleave_selftest/".into()) };
        let mut g = c.benchmark_group("interleave_selftest");
        g.sample_size(3);
        // Each routine sleeps long enough that calibration settles on one
        // iteration per sample; the sampling order is then visible.
        let entry = |name: &'static str| -> (String, Box<dyn FnMut() -> u32 + '_>) {
            let order = &order;
            let routine = move || {
                std::thread::sleep(SAMPLE_TARGET);
                order.borrow_mut().push(name);
                1
            };
            (name.to_string(), Box::new(routine))
        };
        g.bench_interleaved(vec![entry("a"), entry("b")]);
        let order = order.into_inner();
        // Calibration and warmup run each entry on its own; the timed
        // samples alternate.
        let tail = &order[order.len() - 6..];
        assert_eq!(tail, ["a", "b", "a", "b", "a", "b"], "{order:?}");
        let records = RECORDS.lock().unwrap();
        let names: Vec<_> = records
            .iter()
            .filter(|r| r.group == "interleave_selftest")
            .map(|r| (r.name.as_str(), r.samples))
            .collect();
        assert_eq!(names, [("a", 3), ("b", 3)]);
    }

    #[test]
    fn group_runs_function() {
        let mut c = Criterion::default();
        let mut ran = false;
        {
            let mut g = c.benchmark_group("shim_selftest");
            g.sample_size(2);
            g.throughput(Throughput::Elements(1));
            g.bench_function("noop", |b| {
                ran = true;
                b.iter(|| black_box(1u32 + 1));
            });
            g.finish();
        }
        assert!(ran);
    }
}

//! `taintvp-bench` — run one workload, or compare saved runs.
//!
//! ```text
//! taintvp-bench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//! taintvp-bench compare <parent-dir> <change-dir>
//! ```
//!
//! A run prints its progress and a metric table on stderr and, as the
//! last line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Traced runs also write their spans to
//! `.bench_out/trace-<workload>-seed<n>.jsonl`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vpdift_benchmark::{compare, git_commit, host_cores, run, Config, Size, Workload};

const USAGE: &str = "usage: taintvp-bench --workload <table2-compute|table2-io|fault-campaign|serve-debug> \
     --seed <n> [--seconds <s>] [--trace 0|1]\n       taintvp-bench compare <parent-dir> <change-dir>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::Table2Compute,
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Committed,
        out_dir: PathBuf::from(".bench_out"),
    };
    let (mut workload, mut seed) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad --seed {value}"))?)
            }
            "--seconds" => {
                cfg.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    cfg.seed = seed.ok_or("--seed is required")?;
    Ok(cfg)
}

fn compare_dirs(parent: &str, change: &str) -> ExitCode {
    let specs = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|t| compare::parse_specs(&t));
    match specs.and_then(|s| compare::compare(&s, Path::new(parent), Path::new(change))) {
        Ok((table, regressed)) => {
            print!("{table}");
            if regressed {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("taintvp-bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [cmd, parent, change] = args.as_slice() {
        if cmd == "compare" {
            return compare_dirs(parent, change);
        }
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("taintvp-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "taintvp-bench: workload={} seed={} seconds={} trace={} host_cores={} commit={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        host_cores(),
        git_commit()
    );
    let report = run(&cfg);
    for m in &report.metrics {
        eprintln!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = &report.trace_file {
        eprintln!("taintvp-bench: spans written to {}", path.display());
    }
    eprintln!(
        "taintvp-bench: {} rounds, {} set-up samples, {} operations, {} failed checks",
        report.rounds, report.setup_samples, report.attempted, report.failed
    );
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

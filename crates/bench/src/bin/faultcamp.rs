//! Seeded fault-injection campaign runner.
//!
//! Replays the immobilizer and attack-suite scenarios under `--runs`
//! deterministic fault schedules derived from `--seed`, classifies every
//! outcome, and prints (or writes with `--out`) the campaign report as
//! deterministic JSON: the same seed always produces byte-identical
//! output.
//!
//! The seeded runs execute on `--workers N` (default 1) workers of the
//! `vpdift-fleet` work-stealing executor; the report is byte-identical
//! to the serial one regardless of worker count. `--journal FILE`
//! streams results into a crash-safe `taintvp-fleet/v1` JSONL journal
//! and `--resume` picks an interrupted campaign up where it stopped.
//!
//! Exit status: `0` on a fully classified campaign, `2` when any run of
//! the immobilizer session ended in silent data corruption (the outcome
//! the resilience machinery exists to prevent), `1` on bad arguments, an
//! I/O error, or a run that did not complete (crashed, hung or errored:
//! its outcome, possibly an SDC, is unknown).

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use vpdift_faults::campaign::ReferenceInfo;
use vpdift_faults::{CampaignConfig, Outcome};
use vpdift_fleet::{run_campaign_fleet, FleetConfig, TelemetryOptions};

const USAGE: &str = "usage: faultcamp [--seed N] [--runs N] [--rate R] [--out FILE] [--json FILE] \
     [--workers N] [--journal FILE] [--resume] [--progress] \
     [--telemetry-interval-ms N] [--telemetry-out FILE] \
     [--metrics-addr HOST:PORT] [--metrics-linger-ms N]";

#[derive(Default)]
struct Options {
    out: Option<String>,
    bench_json: Option<String>,
    workers: usize,
    journal: Option<String>,
    resume: bool,
    telemetry: TelemetryOptions,
}

fn parse_args() -> Result<(CampaignConfig, Options), String> {
    let mut cfg = CampaignConfig::default();
    let mut opts = Options { workers: 1, ..Options::default() };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--seed" => {
                let v = value("--seed")?;
                cfg.seed = parse_u64(&v).ok_or(format!("bad --seed {v}"))?;
            }
            "--runs" => {
                let v = value("--runs")?;
                cfg.runs = v.parse().map_err(|_| format!("bad --runs {v}"))?;
            }
            "--rate" => {
                let v = value("--rate")?;
                cfg.rate = v.parse().map_err(|_| format!("bad --rate {v}"))?;
                if !(cfg.rate > 0.0 && cfg.rate.is_finite()) {
                    return Err(format!("--rate must be a positive finite number, got {v}"));
                }
            }
            "--out" => opts.out = Some(value("--out")?),
            "--json" => opts.bench_json = Some(value("--json")?),
            "--workers" => {
                let v = value("--workers")?;
                opts.workers = v.parse().map_err(|_| format!("bad --workers {v}"))?;
                if opts.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--journal" => opts.journal = Some(value("--journal")?),
            "--resume" => opts.resume = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => {
                if !opts.telemetry.take(other, || value(other))? {
                    return Err(format!("unknown argument {other}\n{USAGE}"));
                }
            }
        }
    }
    if opts.resume && opts.journal.is_none() {
        return Err("--resume needs --journal".into());
    }
    opts.telemetry.check()?;
    Ok((cfg, opts))
}

/// Renders the `taintvp-bench/v1` trajectory entry for this campaign:
/// the deterministic per-scenario reference step counts plus the
/// campaign's wall time (the only nondeterministic entry).
fn render_bench_json(references: &[ReferenceInfo], wall_ns: u128) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"taintvp-bench/v1\",\n");
    out.push_str("  \"suite\": \"faultcamp\",\n");
    out.push_str("  \"entries\": [\n");
    for r in references {
        out.push_str(&format!(
            "    {{\"group\": \"reference\", \"name\": \"{}\", \"unit\": \"steps\", \"median\": {}, \"mean\": {}, \"min\": {}, \"max\": {}, \"samples\": 1, \"throughput_elems\": null}},\n",
            r.scenario, r.steps, r.steps, r.steps, r.steps
        ));
    }
    out.push_str(&format!(
        "    {{\"group\": \"campaign\", \"name\": \"wall_time\", \"unit\": \"ns\", \"median\": {wall_ns}, \"mean\": {wall_ns}, \"min\": {wall_ns}, \"max\": {wall_ns}, \"samples\": 1, \"throughput_elems\": null}}\n"
    ));
    out.push_str("  ]\n}\n");
    out
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() -> ExitCode {
    let (cfg, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(1);
        }
    };

    eprintln!(
        "faultcamp: seed=0x{:x} runs={} rate={} workers={} — running campaign...",
        cfg.seed, cfg.runs, cfg.rate, opts.workers
    );
    let wall_start = Instant::now();

    let telemetry =
        opts.telemetry.requested().then(|| opts.telemetry.start(opts.workers, "faultcamp"));
    let mut telemetry = match telemetry.transpose() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("faultcamp: {e}");
            return ExitCode::from(1);
        }
    };
    let fleet_config = FleetConfig {
        workers: opts.workers,
        telemetry: telemetry.as_ref().map(|t| Arc::clone(t.hub())),
        ..FleetConfig::default()
    };
    let journal_path = opts.journal.as_deref().map(Path::new);
    let campaign = match run_campaign_fleet(&cfg, &fleet_config, journal_path, opts.resume) {
        Ok(campaign) => campaign,
        Err(e) => {
            eprintln!("faultcamp: fleet campaign failed: {e}");
            return ExitCode::from(1);
        }
    };
    if campaign.resumed > 0 {
        eprintln!("faultcamp: resumed {} completed run(s) from journal", campaign.resumed);
    }
    let wall_ns = wall_start.elapsed().as_nanos();
    if let Some(t) = telemetry.as_mut() {
        t.end_sampling();
    }

    if let Some(path) = &opts.bench_json {
        if let Err(e) = std::fs::write(path, render_bench_json(&campaign.references, wall_ns)) {
            eprintln!("faultcamp: cannot write bench JSON to {path}: {e}");
            return ExitCode::from(1);
        }
        eprintln!("faultcamp: bench trajectory written to {path}");
    }

    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &campaign.json) {
                eprintln!("faultcamp: cannot write {path}: {e}");
                return ExitCode::from(1);
            }
            eprintln!("faultcamp: report written to {path}");
        }
        None => print!("{}", campaign.json),
    }

    eprintln!("faultcamp: outcome summary:");
    for o in Outcome::ALL {
        eprintln!("  {:>16}: {}", o.label(), campaign.summary[o.index()]);
    }
    for (job, status) in &campaign.failures {
        eprintln!("faultcamp: run {job} did not complete: {status}");
    }

    let immo_sdc = campaign.scenario_outcome_count("immo-session", "sdc");
    let exit = if immo_sdc > 0 {
        eprintln!(
            "faultcamp: FAIL — {immo_sdc} immobilizer run(s) ended in silent data corruption"
        );
        ExitCode::from(2)
    } else if !campaign.failures.is_empty() {
        eprintln!("faultcamp: FAIL — {} run(s) did not complete", campaign.failures.len());
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    };
    if let Some(t) = telemetry {
        t.finish();
    }
    exit
}

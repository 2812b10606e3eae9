//! CI bench guard: reads a `taintvp-bench/v1` results file (as emitted by
//! `cargo bench -p vpdift-bench --bench engine -- --json BENCH_engine.json`)
//! and fails when the block-cache engine is not at least
//! [`MIN_SPEEDUP`]× faster than the reference interpreter on the plain VP,
//! measured end to end through `Soc::run` (the `soc_engine` group) — the
//! path `taintvp-run`, `table2`, fleet and serve actually take.
//!
//! Usage: `bench_guard [BENCH_engine.json]` (default path:
//! `BENCH_engine.json`).
//!
//! Every passing run also appends one compact `taintvp-bench/v1` line to
//! the committed `BENCH_trajectory.jsonl` (override the path with
//! `BENCH_TRAJECTORY`), with the host's core count next to the medians, so
//! the perf history accumulates across PRs instead of living in a single
//! overwritten snapshot.
//!
//! Entries are read one line at a time (one entry object per line, the
//! shape our criterion shim writes): each line that opens an object is
//! parsed as one JSON value once its trailing `,` is stripped. A line that
//! does not parse — the torn tail a killed bench run leaves in a
//! half-written results file — is skipped with a warning rather than
//! tripping the guard.

use std::process::ExitCode;

use vpdift_bench::trajectory;
use vpdift_obs::json::{self, Value};

/// The gated bench group.
const GROUP: &str = "soc_engine";

/// Required plain-VP speedup of the block cache over the interpreter.
const MIN_SPEEDUP: f64 = 1.3;

/// Parses the entry lines of a `taintvp-bench/v1` file, warning (once per
/// line) about truncated leftovers instead of erroring.
fn collect_entries(text: &str) -> Vec<Value> {
    let mut entries = Vec::new();
    for line in text.lines().map(str::trim).filter(|t| t.starts_with("{\"")) {
        match json::parse(line.strip_suffix(',').unwrap_or(line)) {
            Ok(entry) => entries.push(entry),
            Err(e) => eprintln!("bench_guard: warning: skipping truncated line `{line:.60}…`: {e}"),
        }
    }
    entries
}

fn median_of(entries: &[Value], name: &str) -> Option<f64> {
    let is = |e: &Value, key: &str, want: &str| e.get(key).and_then(Value::as_str) == Some(want);
    let entry = entries.iter().find(|e| is(e, "group", GROUP) && is(e, "name", name))?;
    entry.get("median")?.as_f64()
}

fn main() -> ExitCode {
    let path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_engine.json".into());
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_guard: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !text.contains("\"schema\": \"taintvp-bench/v1\"") {
        eprintln!("bench_guard: {path} is not a taintvp-bench/v1 results file");
        return ExitCode::FAILURE;
    }
    let entries = collect_entries(&text);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let (Some(interp), Some(block)) =
        (median_of(&entries, "vp_plain_interp"), median_of(&entries, "vp_plain_block"))
    else {
        eprintln!(
            "bench_guard: missing {GROUP} vp_plain_interp / vp_plain_block entries in {path}"
        );
        return ExitCode::FAILURE;
    };
    let speedup = interp / block;
    println!(
        "plain speedup: vp_plain_interp = {interp:.0} ns, vp_plain_block = {block:.0} ns \
         ({speedup:.2}x, {cores} host cores)"
    );
    if speedup < MIN_SPEEDUP {
        eprintln!(
            "bench_guard: block-cache vp_plain is {speedup:.2}x the interpreter \
             (at least {MIN_SPEEDUP}x required)"
        );
        return ExitCode::FAILURE;
    }

    // Log this run to the append-only perf trajectory.
    let tracked = ["vp_plain_interp", "vp_plain_block", "vp_plus_interp", "vp_plus_block"];
    let mut logged: Vec<trajectory::Entry> = tracked
        .iter()
        .filter_map(|name| {
            median_of(&entries, name).map(|m| trajectory::Entry::new(GROUP, name, "ns/iter", m))
        })
        .collect();
    logged.push(trajectory::Entry::new(GROUP, "host_cores", "count", cores as f64));
    let line = trajectory::render_line("bench_guard", trajectory::now_unix(), &logged);
    let traj_path = trajectory::path();
    match trajectory::append(&traj_path, &line) {
        Ok(()) => println!("bench_guard: trajectory appended to {traj_path}"),
        Err(e) => eprintln!("bench_guard: warning: cannot append to {traj_path}: {e}"),
    }

    println!("bench_guard: ok");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_and_blank_lines_are_skipped() {
        let text = concat!(
            "{\n",
            "  \"schema\": \"taintvp-bench/v1\",\n",
            "  \"entries\": [\n",
            "    {\"group\": \"soc_engine\", \"name\": \"vp_plain_interp\", \"unit\": \"ns/iter\", \"median\": 10.0},\n",
            "\n",
            "    {\"group\": \"soc_engine\", \"name\": \"vp_plain_block\", \"unit\": \"ns/iter\", \"median\": 5.0}\n",
            "  ]\n",
            "}\n",
            "{\"group\": \"soc_engine\", \"name\": \"torn\", \"unit\": \"ns/iter\", \"med"
        );
        let entries = collect_entries(text);
        assert_eq!(entries.len(), 2, "blank + torn lines skipped, not parsed");
        assert_eq!(median_of(&entries, "vp_plain_interp"), Some(10.0));
        assert_eq!(median_of(&entries, "vp_plain_block"), Some(5.0));
        assert_eq!(median_of(&entries, "torn"), None);
    }

    #[test]
    fn only_the_gated_group_counts() {
        let entries = collect_entries(concat!(
            "{\"group\": \"iss_step_rate\", \"name\": \"vp_plain_block\", \"median\": 1.0}\n",
            "{\"group\": \"soc_engine\", \"name\": \"vp_plain_block\", \"median\": 2.0}\n",
        ));
        assert_eq!(median_of(&entries, "vp_plain_block"), Some(2.0));
    }

    #[test]
    fn names_with_commas_and_quotes_are_read_whole() {
        let entries = collect_entries(concat!(
            r#"    {"group": "soc_engine", "name": "a,\"b\"", "unit": "ns/iter", "median": 1234.500, "mean": 1300.000, "samples": 15},"#,
            "\n",
            r#"    {"group": "soc_engine", "name": "a", "unit": "ns/iter", "median": 7.0}"#,
        ));
        assert_eq!(median_of(&entries, "a,\"b\""), Some(1234.5));
        assert_eq!(median_of(&entries, "a"), Some(7.0));
    }
}

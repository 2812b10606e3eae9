//! CI bench guard: reads a `taintvp-bench/v1` results file (as emitted by
//! `cargo bench -p vpdift-bench --bench engine -- --json BENCH_engine.json`)
//! and fails when either gate does not hold:
//!
//! * the block-cache engine is at least [`MIN_SPEEDUP`]× faster than the
//!   reference interpreter on the plain VP, measured end to end through
//!   `Soc::run` (the `soc_engine` group) — the path `taintvp-run`,
//!   `table2`, fleet and serve actually take;
//! * VP+ set-up (`Soc::new` + `load_program` + drop, the `soc_setup`
//!   group) costs at most [`MAX_SETUP_RATIO`]× the plain VP's. A ratio
//!   holds on any host; it catches an eagerly filled tag lane.
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

/// The engine bench group.
const GROUP: &str = "soc_engine";

/// The set-up bench group.
const SETUP_GROUP: &str = "soc_setup";

/// Required plain-VP speedup of the block cache over the interpreter.
const MIN_SPEEDUP: f64 = 1.3;

/// Largest allowed VP+ / VP set-up time ratio.
const MAX_SETUP_RATIO: f64 = 2.0;

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

fn median_of(entries: &[Value], group: &str, name: &str) -> Option<f64> {
    let is = |e: &Value, key: &str, want: &str| e.get(key).and_then(Value::as_str) == Some(want);
    let entry = entries.iter().find(|e| is(e, "group", group) && is(e, "name", name))?;
    entry.get("median")?.as_f64()
}

/// Checks both gates. `Ok` carries one report line per gate, `Err` the
/// first gate that fails or lacks its entries.
fn check_gates(entries: &[Value]) -> Result<Vec<String>, String> {
    let medians = |group: &str, a: &str, b: &str| match (
        median_of(entries, group, a),
        median_of(entries, group, b),
    ) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(format!("missing {group} {a} / {b} entries")),
    };
    let (interp, block) = medians(GROUP, "vp_plain_interp", "vp_plain_block")?;
    let speedup = interp / block;
    if speedup < MIN_SPEEDUP {
        return Err(format!(
            "block-cache vp_plain is {speedup:.2}x the interpreter \
             (at least {MIN_SPEEDUP}x required)"
        ));
    }
    let (plain, plus) = medians(SETUP_GROUP, "vp_plain", "vp_plus")?;
    let ratio = plus / plain;
    if ratio > MAX_SETUP_RATIO {
        return Err(format!(
            "VP+ set-up costs {ratio:.2}x the plain VP's (at most {MAX_SETUP_RATIO}x allowed)"
        ));
    }
    Ok(vec![
        format!(
            "plain speedup: vp_plain_interp = {interp:.0} ns, vp_plain_block = {block:.0} ns \
             ({speedup:.2}x)"
        ),
        format!("set-up ratio: vp_plus = {plus:.0} ns, vp_plain = {plain:.0} ns ({ratio:.2}x)"),
    ])
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

    match check_gates(&entries) {
        Ok(lines) => lines.iter().for_each(|l| println!("{l} ({cores} host cores)")),
        Err(e) => {
            eprintln!("bench_guard: {e} ({path})");
            return ExitCode::FAILURE;
        }
    }

    // Log this run to the append-only perf trajectory.
    let tracked = [
        (GROUP, "vp_plain_interp"),
        (GROUP, "vp_plain_block"),
        (GROUP, "vp_plus_interp"),
        (GROUP, "vp_plus_block"),
        (SETUP_GROUP, "vp_plain"),
        (SETUP_GROUP, "vp_plus"),
    ];
    let mut logged: Vec<trajectory::Entry> = tracked
        .iter()
        .filter_map(|&(group, name)| {
            median_of(&entries, group, name)
                .map(|m| trajectory::Entry::new(group, name, "ns/iter", m))
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
        assert_eq!(median_of(&entries, GROUP, "vp_plain_interp"), Some(10.0));
        assert_eq!(median_of(&entries, GROUP, "vp_plain_block"), Some(5.0));
        assert_eq!(median_of(&entries, GROUP, "torn"), None);
    }

    #[test]
    fn only_the_gated_group_counts() {
        let entries = collect_entries(concat!(
            "{\"group\": \"iss_step_rate\", \"name\": \"vp_plain_block\", \"median\": 1.0}\n",
            "{\"group\": \"soc_engine\", \"name\": \"vp_plain_block\", \"median\": 2.0}\n",
        ));
        assert_eq!(median_of(&entries, GROUP, "vp_plain_block"), Some(2.0));
    }

    #[test]
    fn both_gates_must_hold() {
        let entries = |block: f64, plus: f64| {
            collect_entries(&format!(
                "{{\"group\": \"soc_engine\", \"name\": \"vp_plain_interp\", \"median\": 20.0}}\n\
                 {{\"group\": \"soc_engine\", \"name\": \"vp_plain_block\", \"median\": {block}}}\n\
                 {{\"group\": \"soc_setup\", \"name\": \"vp_plain\", \"median\": 100.0}}\n\
                 {{\"group\": \"soc_setup\", \"name\": \"vp_plus\", \"median\": {plus}}}\n"
            ))
        };
        assert_eq!(check_gates(&entries(10.0, 110.0)).map(|l| l.len()), Ok(2));
        let err = check_gates(&entries(10.0, 3300.0)).unwrap_err();
        assert!(err.contains("33.00x the plain VP's"), "{err}");
        let err = check_gates(&entries(19.0, 110.0)).unwrap_err();
        assert!(err.contains("1.05x the interpreter"), "{err}");
        let setup_missing = &entries(10.0, 110.0)[..2];
        assert_eq!(
            check_gates(setup_missing),
            Err("missing soc_setup vp_plain / vp_plus entries".into())
        );
    }

    #[test]
    fn names_with_commas_and_quotes_are_read_whole() {
        let entries = collect_entries(concat!(
            r#"    {"group": "soc_engine", "name": "a,\"b\"", "unit": "ns/iter", "median": 1234.500, "mean": 1300.000, "samples": 15},"#,
            "\n",
            r#"    {"group": "soc_engine", "name": "a", "unit": "ns/iter", "median": 7.0}"#,
        ));
        assert_eq!(median_of(&entries, GROUP, "a,\"b\""), Some(1234.5));
        assert_eq!(median_of(&entries, GROUP, "a"), Some(7.0));
    }
}

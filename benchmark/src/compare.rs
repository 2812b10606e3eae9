//! `taintvp-bench compare <parent-dir> <change-dir>`: judges saved runs
//! of two commits by the rule the benchmark is built for.
//!
//! Each directory holds one file per run, named `<workload>.<anything>`,
//! whose last non-empty line is the run's result object. Runs pair up in
//! file-name order. Per workload and end-to-end metric:
//!
//! * **unresolved** — the parent's quartile spread is wider than the
//!   metric's bound, and not every change run beats every parent run;
//! * **regression** — the change's median is worse than the parent's by
//!   more than the bound;
//! * **gain** — the change wins at least 9 of 10 pairs (ties count for
//!   neither) and the medians differ by more than the parent's
//!   interquartile range;
//! * **same** — otherwise.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use vpdift_serve::json::{self, Value};

use crate::stats;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// Metric name.
    pub name: String,
    /// `true` when higher is better.
    pub higher: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Reads the `end_to_end` list of a `BENCHMARK.json` text.
///
/// # Errors
/// A description of the first malformed part.
pub fn parse_specs(text: &str) -> Result<Vec<Spec>, String> {
    let root = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = root
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name =
                m.get("name").and_then(Value::as_str).ok_or("end_to_end entry without a name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .ok_or("end_to_end entry without `better`")?;
            let bound = match m.get("bound") {
                Some(Value::Num(b)) => *b,
                _ => return Err(format!("{name}: no numeric bound")),
            };
            Ok(Spec { name: name.to_owned(), higher: better == "higher", bound })
        })
        .collect()
}

/// Per workload, the runs' metric values in file-name order.
type Runs = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

fn load(dir: &Path) -> Result<Runs, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().and_then(|e| e.file_name().into_string().ok()))
        .collect();
    names.sort();
    let mut runs = Runs::new();
    for name in names {
        let Some((workload, _)) = name.split_once('.') else { continue };
        let path = dir.join(&name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let last = text.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or("");
        let result = json::parse(last).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(Value::Obj(metrics)) = result.get("metrics") else {
            return Err(format!("{}: no metrics object on the last line", path.display()));
        };
        let values = metrics
            .iter()
            .filter_map(|(k, v)| match v.get("value") {
                Some(Value::Num(x)) => Some((k.clone(), *x)),
                _ => None,
            })
            .collect();
        runs.entry(workload.to_owned()).or_default().push(values);
    }
    Ok(runs)
}

/// The verdict for one metric on one workload.
fn verdict(spec: &Spec, parent: &[f64], change: &[f64]) -> (&'static str, usize, usize) {
    // `gain(a, b)`: b is better than a.
    let gain = |a: f64, b: f64| if spec.higher { b > a } else { b < a };
    let pairs = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|(p, c)| gain(**p, **c)).count();
    let [q1, pm, q3] = stats::quartiles(parent);
    let cm = stats::median(change);
    let all_better = change.iter().all(|c| parent.iter().all(|p| gain(*p, *c)));
    let worse_by = if spec.higher { pm - cm } else { cm - pm } / pm.abs().max(f64::MIN_POSITIVE);
    let v = if (q3 - q1) / pm.abs().max(f64::MIN_POSITIVE) > spec.bound && !all_better {
        "unresolved"
    } else if worse_by > spec.bound {
        "regression"
    } else if pairs > 0 && wins * 10 >= pairs * 9 && gain(pm, cm) && (cm - pm).abs() > q3 - q1 {
        "gain"
    } else {
        "same"
    };
    (v, wins, pairs)
}

/// Compares the runs saved in `parent` and `change` under `specs`.
/// Returns the table and whether any metric regressed.
///
/// # Errors
/// Unreadable directories or result files.
pub fn compare(specs: &[Spec], parent: &Path, change: &Path) -> Result<(String, bool), String> {
    let (p_runs, c_runs) = (load(parent)?, load(change)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<12} {:>28} {:>28} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut regressed = false;
    for (workload, p) in &p_runs {
        let Some(c) = c_runs.get(workload) else { continue };
        for spec in specs {
            let values = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.get(&spec.name).copied()).collect()
            };
            let (pv, cv) = (values(p), values(c));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let (v, wins, pairs) = verdict(spec, &pv, &cv);
            regressed |= v == "regression";
            let cell = |vs: &[f64]| {
                let [q1, m, q3] = stats::quartiles(vs);
                format!("{m:.4} [{q1:.4}, {q3:.4}]")
            };
            let _ = writeln!(
                out,
                "{workload:<16} {:<12} {:>28} {:>28} {:>6}  {v}",
                spec.name,
                cell(&pv),
                cell(&cv),
                format!("{wins}/{pairs}")
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher: bool, bound: f64) -> Spec {
        Spec { name: "m".into(), higher, bound }
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0];
        let faster: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
        let slower: Vec<f64> = parent.iter().map(|p| p * 0.9).collect();
        assert_eq!(verdict(&spec(true, 0.07), &parent, &faster).0, "gain");
        assert_eq!(verdict(&spec(true, 0.07), &parent, &parent).0, "same");
        assert_eq!(verdict(&spec(true, 0.07), &parent, &slower).0, "regression");
        assert_eq!(verdict(&spec(false, 0.07), &parent, &slower).0, "gain");
        let noisy = [50.0, 150.0, 80.0, 120.0, 100.0];
        assert_eq!(verdict(&spec(true, 0.07), &noisy, &noisy).0, "unresolved");
    }

    #[test]
    fn specs_parse_from_benchmark_json() {
        let text =
            r#"{"end_to_end": [{"name": "a", "unit": "s", "better": "lower", "bound": 0.1}]}"#;
        assert_eq!(
            parse_specs(text).unwrap(),
            vec![Spec { name: "a".into(), higher: false, bound: 0.1 }]
        );
    }
}

//! Every workload at tiny sizes: each metric `BENCHMARK.json` names is
//! printed with its unit, every output check passes, the span file is
//! well formed, and two runs with one seed repeat their exact counts.

use std::collections::BTreeMap;
use std::path::PathBuf;

use vpdift_benchmark::{run, Config, Report, Size, Workload};
use vpdift_serve::json::{self, Value};

fn tiny(workload: Workload, trace: bool, test: &str) -> Report {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{test}"));
    run(&Config { workload, seed: 7, seconds: 0.0, trace, size: Size::Tiny, out_dir })
}

/// `(name, unit)` of every entry in one `BENCHMARK.json` metric list.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the benchmark directory");
    let root = json::parse(&text).expect("BENCHMARK.json parses");
    let str_of =
        |m: &Value, k: &str| m.get(k).and_then(Value::as_str).expect("name and unit").to_owned();
    root.get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| (str_of(m, "name"), str_of(m, "unit")))
        .collect()
}

/// Metric name → (value, unit) from a printed result line.
fn printed(report: &Report) -> BTreeMap<String, (f64, String)> {
    let line = report.to_json();
    let root = json::parse(&line).expect("result line is JSON");
    assert_eq!(root.get("correct").and_then(Value::as_bool), Some(report.correct()));
    let Some(Value::Obj(metrics)) = root.get("metrics") else { panic!("no metrics in {line}") };
    metrics
        .iter()
        .map(|(k, v)| {
            let value = match v.get("value") {
                Some(Value::Num(x)) => *x,
                other => panic!("{k}: value {other:?}"),
            };
            (k.clone(), (value, v.get("unit").and_then(Value::as_str).unwrap_or("").to_owned()))
        })
        .collect()
}

/// Every parent exists, opened earlier, and encloses its child.
fn assert_spans_nest(report: &Report) {
    let path = report.trace_file.as_ref().expect("traced runs write spans");
    let text = std::fs::read_to_string(path).expect("span file readable");
    let mut spans: Vec<(Option<u64>, u64, u64)> = Vec::new();
    for (i, line) in text.lines().enumerate().skip(1) {
        let s = json::parse(line).unwrap_or_else(|e| panic!("span line {i}: {e}"));
        let num =
            |k: &str| s.get(k).and_then(Value::as_u64).unwrap_or_else(|| panic!("line {i}: {k}"));
        assert_eq!(num("id") as usize, spans.len(), "ids are dense");
        let parent = s.get("parent").and_then(Value::as_u64);
        let (start, end) = (num("start_ns"), num("end_ns"));
        assert!(start <= end, "line {i} ends before it starts");
        if let Some(p) = parent {
            let &(_, ps, pe) =
                spans.get(p as usize).unwrap_or_else(|| panic!("line {i}: parent {p} missing"));
            assert!(ps <= start && end <= pe, "line {i} escapes its parent {p}");
        }
        spans.push((parent, start, end));
    }
    assert!(!spans.is_empty(), "a traced run records spans");
}

#[test]
fn every_metric_is_printed_and_every_check_passes() {
    for (list, trace) in [("end_to_end", false), ("per_layer", true)] {
        let want = declared(list);
        for w in Workload::ALL {
            let report = tiny(w, trace, "metrics");
            assert_eq!(report.failed, 0, "{}: failed checks", w.name());
            assert!(report.correct() && report.attempted > 0, "{}", w.name());
            let got = printed(&report);
            for (name, unit) in &want {
                let (_, printed_unit) =
                    got.get(name).unwrap_or_else(|| panic!("{} does not print {name}", w.name()));
                assert_eq!(printed_unit, unit, "{}: unit of {name}", w.name());
            }
            assert_eq!(got.len(), want.len(), "{} prints only declared metrics", w.name());
            if trace {
                assert_spans_nest(&report);
            }
        }
    }
}

#[test]
fn same_seed_runs_repeat_exact_counts() {
    const EXACT: &[&str] = &[
        "rv32.instret",
        "kernel.sim_s",
        "core.checks",
        "tlm.tx",
        "periph.uart_bytes",
        "periph.can_auths",
        "fleet.insns",
        "obs.ev_lines",
        "faults.outcome.masked",
        "faults.outcome.sdc",
    ];
    for w in Workload::ALL {
        let a = tiny(w, true, "repeat-a");
        let b = tiny(w, true, "repeat-b");
        assert_eq!(a.attempted, b.attempted, "{}", w.name());
        let (a, b) = (printed(&a), printed(&b));
        for name in EXACT {
            assert_eq!(a[*name].0, b[*name].0, "{}: {name}", w.name());
        }
    }
}

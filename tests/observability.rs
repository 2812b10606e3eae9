//! End-to-end tests of the observability layer: a tainted program run to a
//! violation must produce a flight report naming the classified source
//! region and the failed check, and the exporters must emit parseable
//! output — both through the library API and the `taintvp-run` CLI.

use std::process::Command;

use taintvp::asm::parse_asm;
use taintvp::core::parse_policy;
use taintvp::core::EnforceMode;
use taintvp::obs::export::{write_chrome_trace, write_jsonl};
use taintvp::obs::json::parse;
use taintvp::obs::{CheckKind, Recorder, StopFlag, StreamItem, StreamSink, WatchKind};
use taintvp::prelude::{Soc, SocBuilder, SocExit};
use taintvp::rv32::Tainted;

const LEAK_ASM: &str = "
        li   t0, 0x2000         # the (classified) key
        lbu  t1, 0(t0)
        li   t2, 0x10000000     # UART
        sw   t1, 0(t2)
        ebreak
";

const LEAK_POLICY: &str = "
policy obs-test
atom secret
classify 0x2000 +16 secret
sink uart.tx public
";

fn leak_to_violation() -> (Soc<Tainted, Recorder>, taintvp::core::AtomTable, SocExit) {
    let (policy, atoms) = parse_policy(LEAK_POLICY).expect("policy parses");
    let program = parse_asm(LEAK_ASM, 0).expect("program assembles");
    let rec = Recorder::new(16).with_event_log();
    let cfg = SocBuilder::new().policy(policy).sensor_thread(false).build();
    let mut soc: Soc<Tainted, Recorder> = Soc::with_obs(cfg, rec);
    soc.load_program(&program);
    let exit = soc.run(1_000);
    (soc, atoms, exit)
}

#[test]
fn flight_report_names_source_region_and_failed_check() {
    let (soc, atoms, exit) = leak_to_violation();
    assert!(matches!(exit, SocExit::Violation(_)), "got {exit:?}");

    let rec = soc.obs().borrow();
    let report = rec.flight_report(&atoms).expect("violation produces a report");
    assert!(report.contains("== DIFT violation flight report =="), "{report}");
    // The failed check kind…
    assert!(report.contains("failed check: output"), "{report}");
    // …and the provenance of the offending tag: the policy's classified
    // region, by rule name and address.
    assert!(report.contains("classified by `classify@0x2000`"), "{report}");
    assert!(report.contains("0x00002000"), "{report}");
    assert!(report.contains("secret"), "atom name resolved: {report}");
}

#[test]
fn recorder_metrics_cover_the_run() {
    let (soc, _atoms, _exit) = leak_to_violation();
    let rec = soc.obs().borrow();
    let m = rec.metrics();
    assert!(m.instructions > 0);
    assert_eq!(m.violations, 1);
    assert_eq!(m.classifications, 1, "one classified region");
    let output = &m.checks[CheckKind::Output.index()];
    assert_eq!(output.failed, 1, "the uart sink check failed once");
    assert!(m.taint_high_water[0] >= 16, "16 key bytes tagged secret");
    let summary = m.to_string();
    assert!(summary.contains("== DIFT metrics =="), "{summary}");
}

#[test]
fn exporters_emit_parseable_output() {
    let (soc, _atoms, _exit) = leak_to_violation();
    let rec = soc.obs().borrow();
    assert!(!rec.events().is_empty(), "event log captured the run");

    let mut jsonl = Vec::new();
    write_jsonl(&mut jsonl, rec.events()).unwrap();
    let jsonl = String::from_utf8(jsonl).unwrap();
    assert_eq!(jsonl.lines().count(), rec.events().len());
    for line in jsonl.lines() {
        parse(line).unwrap_or_else(|e| panic!("bad JSONL line `{line}`: {e}"));
    }
    // The violation itself is exported.
    assert!(jsonl.contains("\"kind\":\"violation\""), "{jsonl}");

    let mut trace = Vec::new();
    write_chrome_trace(&mut trace, rec.events()).unwrap();
    let trace = String::from_utf8(trace).unwrap();
    parse(&trace).expect("chrome trace is one JSON document");
    assert!(trace.contains("\"traceEvents\""));
}

// ---------------------------------------------------------------- CLI ---

fn run_cli(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_taintvp-run"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("CLI binary runs");
    (out.status.code().unwrap_or(-1), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn cli_violation_exit_prints_flight_report_and_metrics() {
    let (code, stderr) = run_cli(&[
        "docs/examples/leak.s",
        "--policy",
        "docs/examples/leak.policy",
        "--flight-recorder",
        "16",
        "--metrics",
    ]);
    assert_eq!(code, 2, "violation exit code: {stderr}");
    assert!(stderr.contains("== DIFT violation flight report =="), "{stderr}");
    assert!(stderr.contains("failed check: output"), "{stderr}");
    assert!(stderr.contains("classified by `classify@0x2000`"), "{stderr}");
    assert!(stderr.contains("== DIFT metrics =="), "{stderr}");
}

#[test]
fn cli_writes_event_and_chrome_trace_files() {
    let dir = std::env::temp_dir();
    let events = dir.join(format!("taintvp-obs-{}.jsonl", std::process::id()));
    let chrome = dir.join(format!("taintvp-obs-{}.json", std::process::id()));
    let (code, stderr) = run_cli(&[
        "docs/examples/leak.s",
        "--policy",
        "docs/examples/leak.policy",
        "--events-out",
        events.to_str().unwrap(),
        "--chrome-trace",
        chrome.to_str().unwrap(),
    ]);
    assert_eq!(code, 2, "{stderr}");
    let jsonl = std::fs::read_to_string(&events).expect("events file written");
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        parse(line).unwrap_or_else(|e| panic!("bad JSONL line `{line}`: {e}"));
    }
    let trace = std::fs::read_to_string(&chrome).expect("chrome trace written");
    parse(&trace).expect("chrome trace parses");
    let _ = std::fs::remove_file(&events);
    let _ = std::fs::remove_file(&chrome);
}

#[test]
fn cli_without_obs_flags_behaves_as_before() {
    let (code, stderr) =
        run_cli(&["docs/examples/leak.s", "--policy", "docs/examples/leak.policy"]);
    assert_eq!(code, 2);
    assert!(!stderr.contains("flight report"), "{stderr}");
    assert!(!stderr.contains("== DIFT metrics =="), "{stderr}");
}

/// A four-byte leak loop so a watchpoint can interrupt the transfer
/// mid-way: each iteration copies one classified byte to the UART.
const LEAK_LOOP_ASM: &str = "
        li   s0, 0x2000         # the (classified) key
        li   s1, 0x10000000     # UART
        li   s2, 4
loop:
        lbu  t0, 0(s0)
        sb   t0, 0(s1)
        addi s0, s0, 1
        addi s2, s2, -1
        bnez s2, loop
        ebreak
";

#[test]
fn sink_watchpoint_stops_the_leak_mid_run_and_resumes() {
    let (policy, _atoms) = parse_policy(LEAK_POLICY).expect("policy parses");
    let program = parse_asm(LEAK_LOOP_ASM, 0).expect("program assembles");

    let stop = StopFlag::new();
    let mut sink = StreamSink::new(Recorder::new(16), stop.clone());
    let watch_id = sink.add_watch(WatchKind::Sink { site: "uart.tx".into(), atom: None });

    // Record mode: without the watchpoint the whole 4-byte leak runs to
    // completion; the watch must be what stops it.
    let cfg = SocBuilder::new()
        .policy(policy)
        .enforce(EnforceMode::Record)
        .sensor_thread(false)
        .stop_flag(stop)
        .build();
    let mut soc: Soc<Tainted, StreamSink> = Soc::with_obs(cfg, sink);
    soc.load_program(&program);

    let exit = soc.run(1_000);
    assert_eq!(exit, SocExit::Stopped, "watch interrupts the run");
    assert_eq!(
        soc.uart().borrow().output().len(),
        1,
        "stopped after the first leaked byte, before the transfer completed"
    );
    let items = soc.obs().borrow_mut().drain();
    assert!(
        items.iter().any(|i| matches!(i, StreamItem::Watch { id, .. } if *id == watch_id)),
        "stream carries the watch hit: {items:?}"
    );

    // The stop is cooperative: the same Soc resumes and the watch fires
    // again on the next leaked byte.
    let exit = soc.run(1_000);
    assert_eq!(exit, SocExit::Stopped, "resumed run hits the watch again");
    assert_eq!(soc.uart().borrow().output().len(), 2);

    // Removing the watch lets the program run to its ebreak.
    assert!(soc.obs().borrow_mut().remove_watch(watch_id));
    let exit = soc.run(1_000);
    assert_eq!(exit, SocExit::Break);
    assert_eq!(soc.uart().borrow().output().len(), 4, "full leak once unwatched");
}

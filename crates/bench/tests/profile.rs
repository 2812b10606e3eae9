//! Exporter coverage on a real workload: runs dhrystone on the tainted
//! VP with the full observability stack attached and checks that every
//! export format — Chrome trace, folded stacks, flat profile, flow
//! DOT/JSON — is structurally well-formed.

use vpdift_firmware::dhrystone;
use vpdift_obs::export::write_chrome_trace;
use vpdift_obs::json::parse;
use vpdift_obs::{Recorder, SymbolMap};
use vpdift_rv32::Tainted;
use vpdift_soc::{Soc, SocBuilder, SocExit};

/// Runs a short dhrystone pass with profiler + event log enabled and
/// returns the recorder.
fn profiled_dhrystone() -> Recorder {
    let workload = dhrystone::build(5);
    let symbols = SymbolMap::from_program(&workload.program);
    let rec = vpdift_sync::shared(
        Recorder::new(64).with_symbols(symbols).with_event_log().with_profiler(),
    );
    let cfg = SocBuilder::new().sensor_thread(workload.needs_sensor).build();
    let mut soc: Soc<Tainted, Recorder> = Soc::with_obs(cfg, rec.clone());
    soc.load_program(&workload.program);
    let exit = soc.run(workload.max_insns);
    assert!(matches!(exit, SocExit::Break), "dhrystone exits cleanly: {exit:?}");
    assert!(workload.verify(soc.uart().borrow().output()), "checksum holds");
    drop(soc);
    match std::sync::Arc::try_unwrap(rec) {
        Ok(cell) => cell.into_inner(),
        Err(_) => panic!("sole owner"),
    }
}

#[test]
fn chrome_trace_of_dhrystone_run_is_valid_json() {
    let rec = profiled_dhrystone();
    assert!(!rec.events().is_empty(), "event log captured something");
    let mut buf = Vec::new();
    write_chrome_trace(&mut buf, rec.events()).unwrap();
    let json = String::from_utf8(buf).unwrap();
    parse(&json).unwrap_or_else(|e| panic!("invalid chrome trace: {e}\n{json}"));
    assert!(json.contains("\"traceEvents\""));
}

#[test]
fn folded_stacks_have_flamegraph_line_shape() {
    let rec = profiled_dhrystone();
    let folded = rec.profiler().expect("profiler on").folded_output();
    assert!(!folded.is_empty(), "folded output nonempty");
    for line in folded.lines() {
        // flamegraph.pl input: `frame;frame;...;frame count`
        let (stack, count) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("folded line has no count: {line:?}");
        });
        assert!(!stack.is_empty(), "empty stack in {line:?}");
        assert!(count.parse::<u64>().is_ok(), "count is a decimal integer in {line:?}");
        for frame in stack.split(';') {
            assert!(!frame.is_empty(), "empty frame in {line:?}");
            assert!(!frame.contains(' '), "frame contains a space in {line:?}");
        }
    }
    // The main loop shows up somewhere in the stacks.
    assert!(folded.contains("dhry_loop"), "dhry_loop present:\n{folded}");
}

#[test]
fn flat_profile_accounts_for_every_instruction() {
    let rec = profiled_dhrystone();
    let prof = rec.profiler().expect("profiler on");
    assert!(prof.insns() > 0);
    let flat_total: u64 = prof.flat().iter().map(|(_, c)| c).sum();
    assert_eq!(flat_total, prof.insns(), "flat profile sums to total instructions");
    // TLM histograms saw the UART traffic the workload produces.
    assert!(prof.tlm_stats().keys().any(|t| t == "uart"), "uart in TLM stats");
}

#[test]
fn flow_exports_on_clean_run_are_wellformed_and_empty() {
    // dhrystone touches no classified data, so the flow graph is empty —
    // but the exports must still be structurally valid documents.
    let rec = profiled_dhrystone();
    let atoms = vpdift_core::AtomTable::from_names(["secret"]);

    let mut dot = Vec::new();
    rec.write_flow_dot(&mut dot, &atoms).unwrap();
    let dot = String::from_utf8(dot).unwrap();
    assert!(dot.starts_with("digraph taint_flow {"), "{dot}");
    assert_eq!(dot.matches('{').count(), dot.matches('}').count(), "{dot}");

    let mut json = Vec::new();
    rec.write_flow_json(&mut json, &atoms).unwrap();
    let json = String::from_utf8(json).unwrap();
    parse(&json).unwrap_or_else(|e| panic!("invalid flow json: {e}\n{json}"));
    assert!(json.contains("\"taintvp-flow/v1\""), "{json}");
}

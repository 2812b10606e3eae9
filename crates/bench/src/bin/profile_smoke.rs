//! Profiler smoke check: runs the dhrystone workload on the tainted VP
//! with the guest profiler attached and asserts the profile is sane —
//! in particular that the dhrystone main loop (`dhry_loop`) dominates
//! the *inclusive* (flamegraph) attribution. Used by the `profile-smoke`
//! CI job; also writes folded-stack and flat-profile artifacts.
//!
//! ```text
//! profile_smoke [--iterations N] [--folded-out FILE] [--flat-out FILE]
//! ```
//!
//! Exit status: 0 when all assertions hold, 1 otherwise.

use std::process::ExitCode;

use vpdift_firmware::dhrystone;
use vpdift_obs::{Recorder, SymbolMap};
use vpdift_rv32::Tainted;
use vpdift_soc::{Soc, SocBuilder, SocExit};

const USAGE: &str = "usage: profile_smoke [--iterations N] [--folded-out FILE] [--flat-out FILE]";

struct Options {
    iterations: u32,
    folded_out: Option<String>,
    flat_out: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options { iterations: 200, folded_out: None, flat_out: None };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--iterations" => {
                let v = value("--iterations")?;
                opts.iterations = v.parse().map_err(|_| format!("bad --iterations {v}"))?;
            }
            "--folded-out" => opts.folded_out = Some(value("--folded-out")?),
            "--flat-out" => opts.flat_out = Some(value("--flat-out")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if opts.iterations == 0 {
        return Err("--iterations must be > 0".into());
    }
    Ok(opts)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("profile_smoke: FAIL — {msg}");
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(1);
        }
    };

    let workload = dhrystone::build(opts.iterations);
    let symbols = SymbolMap::from_program(&workload.program);
    let rec = Recorder::new(32).with_symbols(symbols).with_profiler();

    let cfg = SocBuilder::new().sensor_thread(workload.needs_sensor).build();
    let mut soc: Soc<Tainted, Recorder> = Soc::with_obs(cfg, rec);
    soc.load_program(&workload.program);
    let exit = soc.run(workload.max_insns);
    if !matches!(exit, SocExit::Break) {
        return fail(&format!("dhrystone did not exit cleanly: {exit:?}"));
    }
    let uart = soc.uart().borrow().output().to_vec();
    if !workload.verify(&uart) {
        return fail(&format!(
            "dhrystone checksum mismatch: uart={:?}",
            String::from_utf8_lossy(&uart)
        ));
    }

    let rec = soc.obs().borrow();
    let prof = rec.profiler().expect("profiler enabled");
    eprintln!(
        "profile_smoke: {} iterations, {} instructions profiled",
        opts.iterations,
        prof.insns()
    );
    eprint!("{}", prof.render_flat(10));
    eprint!("{}", prof.render_tlm());

    // The paper-style sanity claim: the dhrystone main loop owns the run.
    // Exclusive counts crown the string-compare helper (it retires more
    // instructions per pass than the loop body itself), so the assertion
    // uses inclusive attribution, where callees accrue to their call
    // sites — the flamegraph view.
    let inclusive = prof.inclusive();
    let Some((top_symbol, top_count)) = inclusive.first() else {
        return fail("empty profile");
    };
    if top_symbol != "dhry_loop" {
        return fail(&format!(
            "top inclusive symbol is `{top_symbol}` ({top_count} insns), expected `dhry_loop`"
        ));
    }
    if prof.insns() == 0 || *top_count == 0 {
        return fail("no instructions attributed");
    }
    let share = *top_count as f64 / prof.insns() as f64;
    eprintln!(
        "profile_smoke: top inclusive symbol `{top_symbol}` owns {:.1}% of {} insns",
        share * 100.0,
        prof.insns()
    );
    if share < 0.5 {
        return fail(&format!("dhry_loop inclusive share {share:.2} below 0.5"));
    }

    // The whole run moves bytes over the bus (UART output at minimum).
    if prof.tlm_stats().is_empty() {
        return fail("no TLM transactions profiled");
    }

    if let Some(path) = &opts.folded_out {
        if let Err(e) = std::fs::write(path, prof.folded_output()) {
            return fail(&format!("cannot write {path}: {e}"));
        }
        eprintln!("profile_smoke: folded stacks written to {path}");
    }
    if let Some(path) = &opts.flat_out {
        if let Err(e) = std::fs::write(path, prof.render_flat(usize::MAX)) {
            return fail(&format!("cannot write {path}: {e}"));
        }
        eprintln!("profile_smoke: flat profile written to {path}");
    }
    eprintln!("profile_smoke: OK");
    ExitCode::SUCCESS
}

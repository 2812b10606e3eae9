//! `taintvp-run` — run a guest program on the virtual prototype from the
//! command line. The program file is either assembly source or an ELF32
//! RISC-V executable — the two are distinguished by the `\x7fELF` magic
//! bytes, so external binaries run with the exact same flag surface
//! (`--profile`/`--explain` resolve symbols from the ELF `.symtab`).
//!
//! ```text
//! taintvp-run <program.s|program.elf> [options]
//! taintvp-run serve [--tcp addr] [--metrics-addr host:port] [--idle-timeout secs]
//! taintvp-run client [--script file] [--tcp addr]
//! taintvp-run fleet [--jobs n] [--workers n] [--seed n] [--rate r]
//!                   [--deadline-ms n] [--journal file] [--resume]
//!                   [--out file] [--inject-panic idx] [--inject-hang idx]
//!                   [--progress] [--telemetry-interval-ms n]
//!                   [--telemetry-out file] [--metrics-json file]
//!                   [--metrics-addr host:port] [--metrics-linger-ms n]
//!
//!   --policy <file>       textual security policy (see vpdift_core::textpolicy)
//!   --plain               run on the original VP (no taint tracking)
//!   --engine <name>       execution engine: `block` (default; predecoded
//!                         basic-block cache with taint-idle fast path) or
//!                         `interp` (the reference interpreter)
//!   --record              log violations instead of stopping at the first
//!   --input <string>      bytes fed to the terminal (supports \n, \xNN)
//!   --max-insns <n>       instruction budget (default 100M)
//!   --trace <n>           print the first n executed instructions
//!   --dump-uart-hex       print UART output as hex instead of the raw bytes
//!   --metrics             print the DIFT metrics summary after the run
//!                         (includes guest-profiler totals: top symbols,
//!                         TLM access counts)
//!   --metrics-json <file> write the metrics registry as a
//!                         `taintvp-metrics/v1` JSON document (includes
//!                         block-cache statistics unless `--engine interp`)
//!   --flight-recorder <n> keep the last n events; on violation print a
//!                         flight report (disassembled tail + provenance)
//!   --events-out <file>   write every event as JSON lines
//!   --chrome-trace <file> write a Chrome-trace (about://tracing) file
//!   --profile             print the guest profile (symbol-attributed
//!                         instruction counts + TLM latency histograms)
//!   --folded-out <file>   write folded call stacks (flamegraph input)
//!   --explain             on a DIFT violation, print the shortest
//!                         recorded source→sink taint path with symbol
//!                         names and disassembly
//!   --flow-dot <file>     write the taint flow graph as Graphviz DOT
//!   --flow-json <file>    write the taint flow graph as JSON
//!   --fault-seed <n>      inject a deterministic fault schedule derived
//!                         from this seed (accepts 0x-prefixed hex)
//!   --fault-rate <r>      faults per CPU step for the schedule
//!                         (default 5e-5, used with --fault-seed)
//!   --campaign <n>        run a fault-free reference plus n faulted runs
//!                         with seeds derived from --fault-seed, classify
//!                         each against the reference and print a summary
//!   --taint-segment <i:b> (ELF guests only, repeatable) stamp taint atom
//!                         bit b onto every byte of PT_LOAD segment i at
//!                         load time — ingress classification for binaries
//!                         that have no policy region of their own
//! ```
//!
//! The `fleet` subcommand sweeps the immobilizer session under per-job
//! fault schedules on the `vpdift-fleet` work-stealing executor: panicking
//! sessions are isolated as `crashed`, deadline overruns are killed and
//! classified `hang`, results stream into a crash-safe `taintvp-fleet/v1`
//! journal, and the aggregate JSON is byte-identical for any worker count
//! (docs/FLEET.md). Its telemetry flags (`--progress`,
//! `--telemetry-out`, `--metrics-addr`, `--metrics-json`; see
//! docs/OBSERVABILITY.md) attach per-worker counters, a
//! `taintvp-telem/v1` stream, live progress, and a scrapeable Prometheus
//! `/metrics` endpoint — all opt-in, costing one pointer check per job
//! when off.
//!
//! The `serve` subcommand starts the live introspection server speaking
//! the `taintvp-serve/v2` line-JSON protocol (docs/SERVE.md; v1 clients
//! negotiate down via `hello`) over stdio, or over TCP with `--tcp addr`
//! — one thread per client against a shared session registry, so a
//! second client can `stop` a run the first started, or arm breakpoints
//! on it mid-flight. `--idle-timeout secs` sweeps sessions no client has
//! touched; `--metrics-addr` adds a `/metrics` endpoint with request and
//! per-session counters. The `client` subcommand drives a server: it
//! sends the request lines from `--script file` (or interactively from
//! stdin) and prints every server line — spawning a `serve` child over
//! stdio by default, or connecting to `--tcp addr`.
//!
//! The observability flags attach a [`taintvp::obs::Recorder`] to every
//! layer of the VP; without them the [`NullSink`] build runs and the
//! instrumentation compiles to nothing.
//!
//! Exit status — one code per [`SocExit`] variant so scripts (and the
//! fault-campaign tooling) can classify runs without parsing stderr:
//!
//! | code | meaning                                      |
//! |------|----------------------------------------------|
//! | 0    | guest reached `ebreak` cleanly               |
//! | 1    | usage/tooling error                          |
//! | 2    | stopped by the DIFT engine (violation)       |
//! | 3    | instruction budget exhausted                 |
//! | 4    | deadlocked in `wfi` (idle, no wake event)    |
//! | 5    | watchdog timeout                             |
//! | 6    | trap loop (guest wedged in its trap handler) |
//! | 7    | stopped by a watchpoint                      |
//! | 8    | malformed guest binary (loader error)        |

use std::process::ExitCode;

use taintvp::asm::{parse_asm, Program};
use taintvp::core::{AtomTable, Tag};
use taintvp::faults::campaign::base_builder;
use taintvp::faults::{
    classify, run_seed, run_with_faults, seeded_plan, Outcome, PlannedFault, Replay, ScenarioRun,
};
use taintvp::fleet::TelemetryOptions;
use taintvp::loader::{is_elf, Elf32};
use taintvp::obs::export::{write_chrome_trace, write_jsonl, write_metrics_json};
use taintvp::obs::{NullSink, ObsSink, Recorder, SymbolMap};
use taintvp::rv32::{Plain, TaintMode, Tainted};
use taintvp::soc::{ExecConfig, Soc, SocBuilder, SocExit};

/// Ring capacity when observability is on but `--flight-recorder` is not.
const DEFAULT_RING: usize = 32;

/// Exit code for a malformed guest binary (see the doc-comment table).
const EXIT_LOADER: u8 = 8;

/// The guest under execution: assembly source assembled in-process, or an
/// external ELF32 binary. The flattened [`Program`] always exists (it
/// drives tracing, disassembly and the profiler symbol map); the ELF form
/// is kept alongside so the SoC can map segments individually with
/// per-segment ingress taint classification.
enum Guest {
    Asm(Program),
    Elf { elf: Elf32, program: Program },
}

impl Guest {
    fn program(&self) -> &Program {
        match self {
            Guest::Asm(p) => p,
            Guest::Elf { program, .. } => program,
        }
    }
}

#[derive(Clone)]
struct Options {
    program: String,
    taint_segments: Vec<(usize, u8)>,
    /// Path of the `--policy` file; its text lands in `exec.policy`.
    policy: Option<String>,
    /// Mode/engine/enforce/policy in the one validated shape every
    /// front end (CLI, serve, fleet) shares.
    exec: ExecConfig,
    input: Vec<u8>,
    max_insns: u64,
    trace: u64,
    uart_hex: bool,
    metrics: bool,
    metrics_json: Option<String>,
    flight_recorder: Option<usize>,
    events_out: Option<String>,
    chrome_trace: Option<String>,
    profile: bool,
    folded_out: Option<String>,
    explain: bool,
    flow_dot: Option<String>,
    flow_json: Option<String>,
    fault_seed: Option<u64>,
    fault_rate: f64,
    campaign: u32,
}

impl Options {
    /// Any flag that needs the recording sink?
    fn observed(&self) -> bool {
        self.metrics
            || self.metrics_json.is_some()
            || self.flight_recorder.is_some()
            || self.events_out.is_some()
            || self.chrome_trace.is_some()
            || self.profiled()
            || self.flow_tracked()
    }

    /// Any flag that needs the guest profiler?
    fn profiled(&self) -> bool {
        self.metrics || self.profile || self.folded_out.is_some()
    }

    /// Any flag that needs per-atom flow tracking?
    fn flow_tracked(&self) -> bool {
        self.explain || self.flow_dot.is_some() || self.flow_json.is_some()
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: taintvp-run <program.s|program.elf> [--policy file] [--plain] [--engine interp|block] [--record] \
         [--input str] [--max-insns n] [--trace n] [--dump-uart-hex] \
         [--metrics] [--metrics-json file] [--flight-recorder n] [--events-out file] \
         [--chrome-trace file] \
         [--profile] [--folded-out file] [--explain] [--flow-dot file] [--flow-json file] \
         [--fault-seed n] [--fault-rate r] [--campaign n] [--taint-segment i:b]\n\
         \x20      taintvp-run serve [--tcp addr]\n\
         \x20      taintvp-run client [--script file] [--tcp addr]\n\
         \x20      taintvp-run fleet [--jobs n] [--workers n] [...] (see docs/FLEET.md)"
    );
    ExitCode::from(1)
}

fn unescape(s: &str) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'\\' && i + 1 < bytes.len() {
            match bytes[i + 1] {
                b'n' => {
                    out.push(b'\n');
                    i += 2;
                }
                b't' => {
                    out.push(b'\t');
                    i += 2;
                }
                b'0' => {
                    out.push(0);
                    i += 2;
                }
                b'\\' => {
                    out.push(b'\\');
                    i += 2;
                }
                b'x' => {
                    let hex =
                        s.get(i + 2..i + 4).ok_or_else(|| "truncated \\x escape".to_owned())?;
                    let v = u8::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad \\x escape `{hex}`"))?;
                    out.push(v);
                    i += 4;
                }
                other => return Err(format!("unknown escape `\\{}`", other as char)),
            }
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    Ok(out)
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        program: String::new(),
        taint_segments: Vec::new(),
        policy: None,
        exec: ExecConfig::default(),
        input: Vec::new(),
        max_insns: 100_000_000,
        trace: 0,
        uart_hex: false,
        metrics: false,
        metrics_json: None,
        flight_recorder: None,
        events_out: None,
        chrome_trace: None,
        profile: false,
        folded_out: None,
        explain: false,
        flow_dot: None,
        flow_json: None,
        fault_seed: None,
        fault_rate: 5e-5,
        campaign: 0,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--policy" => opts.policy = Some(args.next().ok_or("--policy needs a file")?),
            "--plain" => opts.exec.set_mode_str("plain").map_err(|e| e.to_string())?,
            "--engine" => {
                let s = args.next().ok_or("--engine needs a name")?;
                opts.exec.set_engine_str(&s).map_err(|e| e.to_string())?;
            }
            "--record" => opts.exec.set_enforce_str("record").map_err(|e| e.to_string())?,
            "--input" => {
                let s = args.next().ok_or("--input needs a string")?;
                opts.input = unescape(&s)?;
            }
            "--max-insns" => {
                opts.max_insns = args
                    .next()
                    .ok_or("--max-insns needs a number")?
                    .parse()
                    .map_err(|_| "bad --max-insns value".to_owned())?;
            }
            "--trace" => {
                opts.trace = args
                    .next()
                    .ok_or("--trace needs a count")?
                    .parse()
                    .map_err(|_| "bad --trace value".to_owned())?;
            }
            "--dump-uart-hex" => opts.uart_hex = true,
            "--metrics" => opts.metrics = true,
            "--metrics-json" => {
                opts.metrics_json = Some(args.next().ok_or("--metrics-json needs a file")?);
            }
            "--flight-recorder" => {
                let n: usize = args
                    .next()
                    .ok_or("--flight-recorder needs a capacity")?
                    .parse()
                    .map_err(|_| "bad --flight-recorder value".to_owned())?;
                if n == 0 {
                    return Err("--flight-recorder capacity must be > 0".into());
                }
                opts.flight_recorder = Some(n);
            }
            "--events-out" => {
                opts.events_out = Some(args.next().ok_or("--events-out needs a file")?);
            }
            "--chrome-trace" => {
                opts.chrome_trace = Some(args.next().ok_or("--chrome-trace needs a file")?);
            }
            "--profile" => opts.profile = true,
            "--folded-out" => {
                opts.folded_out = Some(args.next().ok_or("--folded-out needs a file")?);
            }
            "--explain" => opts.explain = true,
            "--flow-dot" => {
                opts.flow_dot = Some(args.next().ok_or("--flow-dot needs a file")?);
            }
            "--flow-json" => {
                opts.flow_json = Some(args.next().ok_or("--flow-json needs a file")?);
            }
            "--fault-seed" => {
                let s = args.next().ok_or("--fault-seed needs a number")?;
                let v = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    None => s.parse().ok(),
                };
                opts.fault_seed = Some(v.ok_or_else(|| format!("bad --fault-seed `{s}`"))?);
            }
            "--fault-rate" => {
                let s = args.next().ok_or("--fault-rate needs a number")?;
                opts.fault_rate = s.parse().map_err(|_| format!("bad --fault-rate `{s}`"))?;
                if !(opts.fault_rate > 0.0 && opts.fault_rate.is_finite()) {
                    return Err("--fault-rate must be a positive finite number".into());
                }
            }
            "--campaign" => {
                opts.campaign = args
                    .next()
                    .ok_or("--campaign needs a count")?
                    .parse()
                    .map_err(|_| "bad --campaign value".to_owned())?;
            }
            "--taint-segment" => {
                let s = args.next().ok_or("--taint-segment needs `index:bit`")?;
                let (idx, bit) =
                    s.split_once(':').ok_or_else(|| format!("bad --taint-segment `{s}`"))?;
                let idx: usize =
                    idx.parse().map_err(|_| format!("bad --taint-segment index `{idx}`"))?;
                let bit: u8 =
                    bit.parse().map_err(|_| format!("bad --taint-segment bit `{bit}`"))?;
                if bit as u32 >= Tag::CAPACITY {
                    return Err(format!("--taint-segment bit must be < {}", Tag::CAPACITY));
                }
                opts.taint_segments.push((idx, bit));
            }
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other if opts.program.is_empty() => opts.program = other.to_owned(),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if opts.program.is_empty() {
        return Err("missing program file".into());
    }
    if opts.campaign > 0 && opts.observed() {
        return Err("--campaign cannot be combined with observability flags".into());
    }
    if opts.campaign > 0 && opts.fault_seed.is_none() {
        return Err("--campaign needs --fault-seed".into());
    }
    Ok(opts)
}

fn describe_exit(exit: &SocExit, atoms: &AtomTable) -> (&'static str, u8) {
    match exit {
        SocExit::Break => ("clean exit (ebreak)", 0),
        SocExit::Violation(v) => {
            eprintln!(
                "DIFT violation: {} — data tag [{}], required clearance [{}]{}",
                v.kind,
                atoms.describe(v.tag),
                atoms.describe(v.required),
                v.pc.map(|pc| format!(", pc={pc:#010x}")).unwrap_or_default()
            );
            ("stopped by the DIFT engine", 2)
        }
        SocExit::InstrLimit => ("instruction budget exhausted", 3),
        SocExit::Idle => ("deadlocked in wfi", 4),
        SocExit::WatchdogTimeout => ("watchdog timeout", 5),
        SocExit::TrapLoop => ("trap loop", 6),
        SocExit::Stopped => ("stopped by watchpoint", 7),
    }
}

/// A finished VP run: how it exited, the SoC for post-mortem inspection,
/// and every fault the plan actually landed.
type VpRun<M, S> = (SocExit, Soc<M, S>, Vec<taintvp::faults::FaultRecord>);

fn run_vp<M: TaintMode, S: ObsSink>(
    opts: &Options,
    guest: &Guest,
    obs: S,
    plan: &[PlannedFault],
) -> Result<VpRun<M, S>, String> {
    let builder = SocBuilder::from_exec_config(&opts.exec).map_err(|e| e.to_string())?;
    let mut soc: Soc<M, S> = Soc::with_obs(builder.build(), obs);
    match guest {
        Guest::Asm(program) => soc.load_program(program),
        Guest::Elf { elf, .. } => {
            let segs = &opts.taint_segments;
            soc.load_elf_with(elf, |i, _seg| {
                segs.iter()
                    .filter(|(idx, _)| *idx == i)
                    .fold(Tag::EMPTY, |t, (_, bit)| t.lub(Tag::from_bits(1 << bit)))
            })
            .map_err(|e| format!("cannot load ELF: {e}"))?;
        }
    }
    soc.terminal().borrow_mut().feed(&opts.input);

    // Optional instruction trace (single-stepped prefix).
    let traced = opts.trace.min(opts.max_insns);
    let exit = soc.run_traced(traced, |r| {
        eprintln!("[{:>8}] {:#010x}: {}", r.instret, r.pc, r.text());
    });
    if !matches!(exit, SocExit::InstrLimit) {
        return Ok((exit, soc, Vec::new()));
    }
    let remaining = opts.max_insns - traced;
    if plan.is_empty() {
        let exit = soc.run(remaining);
        Ok((exit, soc, Vec::new()))
    } else {
        // The plan's steps are absolute; the traced prefix already
        // consumed some, so faults scheduled inside it land immediately.
        let (exit, records) = run_with_faults(&mut soc, remaining, plan);
        Ok((exit, soc, records))
    }
}

fn report<M: TaintMode, S: ObsSink>(
    exit: &SocExit,
    soc: &Soc<M, S>,
    opts: &Options,
    atoms: &AtomTable,
) -> u8 {
    let uart = soc.uart().borrow().output().to_vec();
    if opts.uart_hex {
        let hex: Vec<String> = uart.iter().map(|b| format!("{b:02x}")).collect();
        println!("uart[{}]: {}", uart.len(), hex.join(" "));
    } else {
        // The guest's bytes, unchanged (Fig. 4's sensor data is ≥ 0x80).
        use std::io::Write as _;
        std::io::stdout().write_all(&uart).expect("write the UART output to stdout");
    }
    let engine = soc.engine().borrow();
    for v in engine.violations() {
        eprintln!("recorded violation: {v}");
    }
    let (what, code) = describe_exit(exit, atoms);
    eprintln!(
        "== {what}: {} instructions, {} simulated, {} violations recorded",
        soc.instret(),
        soc.now(),
        engine.violations().len()
    );
    if let Some(stats) = soc.engine_stats() {
        eprintln!(
            "== block cache: {} hits, {} misses, {} invalidations, {} flushes, {} idle / {} checked steps",
            stats.hits,
            stats.misses,
            stats.invalidations,
            stats.flushes,
            stats.idle_steps,
            stats.checked_steps
        );
    }
    code
}

/// Flight report, metrics and export files from a recorded run. Returns an
/// error string if an output file cannot be written.
fn obs_epilogue(
    rec: &Recorder,
    exit: &SocExit,
    opts: &Options,
    atoms: &AtomTable,
) -> Result<(), String> {
    if opts.flight_recorder.is_some() {
        if let Some(report) = rec.flight_report(atoms) {
            eprintln!("{report}");
        }
    }
    if opts.metrics {
        eprintln!("{}", rec.metrics());
        eprintln!("exit kind:              {}", exit.label());
    }
    if let Some(path) = &opts.metrics_json {
        let f = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        write_metrics_json(std::io::BufWriter::new(f), rec.metrics())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if opts.explain {
        match rec.explain(atoms) {
            Some(text) => eprintln!("{text}"),
            None => {
                if matches!(exit, SocExit::Violation(_)) {
                    eprintln!("--explain: no flow recorded for the violating atoms");
                }
            }
        }
    }
    if let Some(prof) = rec.profiler() {
        if opts.profile || opts.metrics {
            eprint!("{}", prof.render_flat(10));
            eprint!("{}", prof.render_tlm());
        }
        if let Some(path) = &opts.folded_out {
            std::fs::write(path, prof.folded_output())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    if let Some(path) = &opts.flow_dot {
        let f = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        rec.write_flow_dot(&mut std::io::BufWriter::new(f), atoms)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &opts.flow_json {
        let f = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        rec.write_flow_json(&mut std::io::BufWriter::new(f), atoms)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &opts.events_out {
        let f = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        write_jsonl(std::io::BufWriter::new(f), rec.events())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &opts.chrome_trace {
        let f = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        write_chrome_trace(std::io::BufWriter::new(f), rec.events())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// `--campaign n`: one fault-free reference plus `n` faulted replays with
/// derived seeds, each classified against the reference. Exits 2 when any
/// replay ended in silent data corruption.
fn run_cli_campaign<M: TaintMode>(opts: &Options, guest: &Guest) -> ExitCode {
    let master = opts.fault_seed.expect("validated in parse_args");
    let (exit, soc, _) = match run_vp::<M, NullSink>(opts, guest, NullSink, &[]) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_LOADER);
        }
    };
    let reference = ScenarioRun::observe(&soc, exit, 0, Vec::new());
    eprintln!(
        "reference: exit {} after {} steps, {} UART bytes",
        reference.exit.label(),
        reference.steps,
        reference.uart.len()
    );

    let mut totals = [0u64; Outcome::COUNT];
    for i in 0..opts.campaign {
        let seed = run_seed(master, u64::from(i));
        let Replay { plan, budget, .. } = Replay::of(&reference, seed, opts.fault_rate);
        // Same options, new budget, no recursion into `--campaign` — the
        // observability flags are already rejected by parse_args here.
        let mut run_opts = opts.clone();
        run_opts.max_insns = budget;
        run_opts.trace = 0;
        run_opts.campaign = 0;
        let (exit, soc, records) = match run_vp::<M, NullSink>(&run_opts, guest, NullSink, &plan) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(EXIT_LOADER);
            }
        };
        let run = ScenarioRun::observe(&soc, exit, 0, records);
        let outcome = classify(&reference, &run);
        totals[outcome.index()] += 1;
        eprintln!(
            "run {i:>3}: seed=0x{seed:016x} exit={:<16} outcome={:<16} faults={}",
            run.exit.label(),
            outcome.label(),
            run.faults.len()
        );
    }
    eprintln!("campaign summary ({} runs):", opts.campaign);
    for o in Outcome::ALL {
        eprintln!("  {:>16}: {}", o.label(), totals[o.index()]);
    }
    if totals[Outcome::Sdc.index()] > 0 {
        eprintln!("campaign: FAIL — silent data corruption observed");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

fn run<M: TaintMode>(opts: &Options, atoms: &AtomTable, guest: &Guest) -> ExitCode {
    if opts.campaign > 0 {
        return run_cli_campaign::<M>(opts, guest);
    }
    // A single `--fault-seed` run sizes its schedule over the budget.
    let plan = opts
        .fault_seed
        .map(|seed| seeded_plan(seed, opts.max_insns, opts.fault_rate))
        .unwrap_or_default();
    if !plan.is_empty() {
        eprintln!("fault schedule ({} planned):", plan.len());
        for f in &plan {
            eprintln!("  step {:>10}: {} @ {}", f.at_step, f.kind.label(), f.kind.site());
        }
    }
    if !opts.observed() {
        let (exit, soc, records) = match run_vp::<M, NullSink>(opts, guest, NullSink, &plan) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(EXIT_LOADER);
            }
        };
        report_faults(&records);
        return ExitCode::from(report(&exit, &soc, opts, atoms));
    }
    let mut rec = Recorder::new(opts.flight_recorder.unwrap_or(DEFAULT_RING))
        .with_symbols(SymbolMap::from_program(guest.program()));
    if opts.events_out.is_some() || opts.chrome_trace.is_some() {
        rec = rec.with_event_log();
    }
    if opts.profiled() {
        rec = rec.with_profiler();
    }
    if opts.flow_tracked() {
        rec = rec.with_explain();
    }
    let (exit, soc, records) = match run_vp::<M, Recorder>(opts, guest, rec, &plan) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_LOADER);
        }
    };
    report_faults(&records);
    let code = report(&exit, &soc, opts, atoms);
    if let Err(e) = obs_epilogue(&soc.obs().borrow(), &exit, opts, atoms) {
        eprintln!("error: {e}");
        return ExitCode::from(1);
    }
    ExitCode::from(code)
}

fn report_faults(records: &[taintvp::faults::FaultRecord]) {
    for r in records {
        eprintln!(
            "fault injected at step {}: {} @ {}{}",
            r.step,
            r.kind,
            r.site,
            r.addr.map(|a| format!(" addr={a:#x}")).unwrap_or_default()
        );
    }
}

/// Options for `taintvp-run fleet` — a parallel immobilizer-session
/// fault sweep on the `vpdift-fleet` executor.
struct FleetOptions {
    /// Guest program file (assembly or ELF32) swept instead of the
    /// built-in immobilizer session when present.
    program: Option<String>,
    jobs: u32,
    workers: usize,
    seed: u64,
    rate: f64,
    deadline_ms: u64,
    journal: Option<String>,
    resume: bool,
    out: Option<String>,
    inject_panic: Vec<u64>,
    inject_hang: Vec<u64>,
    metrics_json: Option<String>,
    telemetry: TelemetryOptions,
}

const FLEET_USAGE: &str =
    "usage: taintvp-run fleet [--program file] [--jobs n] [--workers n] [--seed n] [--rate r] \
     [--deadline-ms n] [--journal file] [--resume] [--out file] \
     [--inject-panic idx] [--inject-hang idx] [--progress] \
     [--telemetry-interval-ms n] [--telemetry-out file] [--metrics-json file] \
     [--metrics-addr host:port] [--metrics-linger-ms n]";

fn parse_fleet_args(args: &[String]) -> Result<FleetOptions, String> {
    let mut opts = FleetOptions {
        program: None,
        jobs: 64,
        workers: 1,
        seed: 0xF1EE7,
        rate: 5e-5,
        deadline_ms: 10_000,
        journal: None,
        resume: false,
        out: None,
        inject_panic: Vec::new(),
        inject_hang: Vec::new(),
        metrics_json: None,
        telemetry: TelemetryOptions::default(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--jobs" => {
                let v = value("--jobs")?;
                opts.jobs = v.parse().map_err(|_| format!("bad --jobs `{v}`"))?;
            }
            "--workers" => {
                let v = value("--workers")?;
                opts.workers = v.parse().map_err(|_| format!("bad --workers `{v}`"))?;
                if opts.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--seed" => {
                let v = value("--seed")?;
                let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    None => v.parse().ok(),
                };
                opts.seed = parsed.ok_or_else(|| format!("bad --seed `{v}`"))?;
            }
            "--rate" => {
                let v = value("--rate")?;
                opts.rate = v.parse().map_err(|_| format!("bad --rate `{v}`"))?;
                if !(opts.rate > 0.0 && opts.rate.is_finite()) {
                    return Err("--rate must be a positive finite number".into());
                }
            }
            "--deadline-ms" => {
                let v = value("--deadline-ms")?;
                opts.deadline_ms = v.parse().map_err(|_| format!("bad --deadline-ms `{v}`"))?;
            }
            "--program" => opts.program = Some(value("--program")?.to_owned()),
            "--journal" => opts.journal = Some(value("--journal")?.to_owned()),
            "--resume" => opts.resume = true,
            "--out" => opts.out = Some(value("--out")?.to_owned()),
            "--inject-panic" => {
                let v = value("--inject-panic")?;
                opts.inject_panic.push(v.parse().map_err(|_| format!("bad --inject-panic `{v}`"))?);
            }
            "--inject-hang" => {
                let v = value("--inject-hang")?;
                opts.inject_hang.push(v.parse().map_err(|_| format!("bad --inject-hang `{v}`"))?);
            }
            "--metrics-json" => opts.metrics_json = Some(value("--metrics-json")?.to_owned()),
            "--help" | "-h" => return Err(FLEET_USAGE.into()),
            other => {
                if !opts.telemetry.take(other, || value(other).map(str::to_owned))? {
                    return Err(format!("unknown fleet option `{other}`\n{FLEET_USAGE}"));
                }
            }
        }
    }
    if opts.resume && opts.journal.is_none() {
        return Err("--resume needs --journal".into());
    }
    if !opts.inject_hang.is_empty() && opts.deadline_ms == 0 {
        return Err("--inject-hang needs a nonzero --deadline-ms".into());
    }
    opts.telemetry.check()?;
    Ok(opts)
}

/// Reads a guest program file for the fleet: ELF32 by magic bytes,
/// assembly source otherwise. Fleet jobs only need the flat image — the
/// single-run front end is the one that keeps the parsed ELF around for
/// per-segment classification.
fn load_guest_program(path: &str) -> Result<Program, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if is_elf(&bytes) {
        let elf = Elf32::parse(&bytes).map_err(|e| format!("{path}: {e}"))?;
        elf.to_program().map_err(|e| format!("{path}: {e}"))
    } else {
        let source = String::from_utf8(bytes)
            .map_err(|_| format!("{path}: not an ELF image and not UTF-8 assembly"))?;
        parse_asm(&source, 0).map_err(|e| format!("{path}: {e}"))
    }
}

/// Fault-free reference run of an external guest (fleet `--program`),
/// with the SoC's state digest right after loading: it fingerprints the
/// load address, entry point and image, so the fleet journal pins it and
/// a resume never splices in the rows of another program.
fn program_reference(program: &Program) -> (ScenarioRun, u64) {
    let mut soc = Soc::<Tainted>::new(base_builder().build());
    soc.load_program(program);
    let loaded = soc.state_digest();
    let exit = soc.run(100_000_000);
    (ScenarioRun::observe(&soc, exit, 0, Vec::new()), loaded)
}

/// One faulted replay of an external guest under a fleet job's stop flag
/// and live instruction counter.
fn program_faulted(
    program: &Program,
    plan: &[PlannedFault],
    budget: u64,
    ctx: &taintvp::fleet::JobCtx,
) -> ScenarioRun {
    let cfg = base_builder().stop_flag(ctx.stop.clone()).insn_cell(ctx.insns.clone()).build();
    let mut soc = Soc::<Tainted>::new(cfg);
    soc.load_program(program);
    let (exit, records) = run_with_faults(&mut soc, budget, plan);
    ScenarioRun::observe(&soc, exit, 0, records)
}

/// `taintvp-run fleet` — N seeded fault runs on the work-stealing
/// executor, sweeping either the built-in immobilizer session or, with
/// `--program`, an external guest (assembly or ELF32). Each job replays
/// the scenario under its own derived fault schedule and renders one
/// deterministic JSON row; the aggregate is byte-identical for any worker
/// count. `--inject-panic` / `--inject-hang` replace the named job with a
/// deliberately faulty one (a panicking session, a wedged guest only the
/// deadline reaper can kill) to exercise the failure taxonomy end to end.
fn fleet_main(args: &[String]) -> ExitCode {
    use std::sync::Arc;
    use std::time::Duration;

    use taintvp::faults::campaign::{faulted_run, reference_run};
    use taintvp::faults::{render_report, scenario_json, ScenarioKind};
    use taintvp::fleet::{
        quiet_worker_panics, run_journaled, FleetConfig, Job, JobError, JobOutput, JobStatus,
        JournalHeader,
    };

    let opts = match parse_fleet_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    quiet_worker_panics();

    // Optional external guest: `--program` sweeps an assembly or ELF32
    // binary instead of the built-in immobilizer session.
    let guest = match &opts.program {
        Some(path) => match load_guest_program(path) {
            Ok(p) => Some(Arc::new(p)),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(EXIT_LOADER);
            }
        },
        None => None,
    };
    let kind = ScenarioKind::ImmoSession;
    let scenario_name: &'static str = if guest.is_some() { "program" } else { kind.name() };
    let suite: &'static str = if guest.is_some() { "program-sweep" } else { "immo-sweep" };

    // Driver-side prelude: the fault-free reference every job classifies
    // against (exactly once, like the campaign runner).
    let (reference, program_digest) = match &guest {
        Some(p) => {
            let (run, digest) = program_reference(p);
            (run, Some(digest))
        }
        None => (reference_run(kind), None),
    };
    let reference = Arc::new(reference);
    eprintln!(
        "fleet: reference {scenario_name}: exit {} after {} steps",
        reference.exit.label(),
        reference.steps
    );

    let jobs: Vec<Job> = (0..u64::from(opts.jobs))
        .map(|i| {
            if opts.inject_panic.contains(&i) {
                return Job::new(i, move |_ctx| -> Result<JobOutput, JobError> {
                    panic!("injected panic in job {i}");
                });
            }
            if opts.inject_hang.contains(&i) {
                return Job::new(i, move |ctx: &taintvp::fleet::JobCtx| {
                    // A guest wedged in a tight loop with an effectively
                    // unlimited budget: only the deadline reaper raising
                    // `ctx.stop` ends this attempt.
                    let program = parse_asm("loop:\n    j loop\n", 0)
                        .map_err(|e| JobError::Fatal(format!("bad hang program: {e}")))?;
                    let cfg = base_builder()
                        .stop_flag(ctx.stop.clone())
                        .insn_cell(ctx.insns.clone())
                        .build();
                    let mut soc = Soc::<Tainted>::new(cfg);
                    soc.load_program(&program);
                    soc.run(u64::MAX);
                    Err(JobError::Fatal("hang job outlived its deadline kill".into()))
                });
            }
            let reference = Arc::clone(&reference);
            let guest = guest.clone();
            let master = opts.seed;
            let rate = opts.rate;
            Job::new(i, move |ctx: &taintvp::fleet::JobCtx| {
                let seed = run_seed(master, i);
                let replay = Replay::of(&reference, seed, rate);
                let run = match &guest {
                    Some(p) => program_faulted(p, &replay.plan, replay.budget, ctx),
                    None => faulted_run(kind, &replay.plan, Some(replay.watchdog), replay.budget),
                };
                let outcome = classify(&reference, &run);
                let mut counts = vec![0u64; Outcome::COUNT];
                counts[outcome.index()] = 1;
                let row = taintvp::faults::ScenarioOutcome {
                    scenario: scenario_name,
                    exit: run.exit.label(),
                    outcome,
                    faults: run.faults,
                };
                let payload = format!(
                    "{{\"job\":{i},\"seed\":\"0x{seed:016x}\",\"result\":{}}}",
                    scenario_json(&row)
                );
                Ok(JobOutput { payload, counts, insns: run.steps })
            })
        })
        .collect();

    // Every input that changes a job's payload pins the journal.
    let mut inputs = Vec::new();
    if let Some(digest) = program_digest {
        inputs.push(("program", format!("{digest:016x}")));
    }
    for (name, ids) in [("inject_panic", &opts.inject_panic), ("inject_hang", &opts.inject_hang)] {
        let mut ids = ids.clone();
        ids.sort_unstable();
        ids.dedup();
        if !ids.is_empty() {
            inputs.push((name, format!("{ids:?}")));
        }
    }
    let header = JournalHeader {
        suite: suite.into(),
        jobs: u64::from(opts.jobs),
        seed: opts.seed,
        rate: opts.rate,
        inputs,
    };

    // Telemetry is opt-in: without any consumer flag no hub exists and
    // the executor's per-job telemetry guard is a null-pointer check.
    let telemetry = (opts.telemetry.requested() || opts.metrics_json.is_some())
        .then(|| opts.telemetry.start(opts.workers, "fleet"));
    let mut telemetry = match telemetry.transpose() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let fleet_config = FleetConfig {
        workers: opts.workers,
        deadline: (opts.deadline_ms > 0).then(|| Duration::from_millis(opts.deadline_ms)),
        telemetry: telemetry.as_ref().map(|t| Arc::clone(t.hub())),
        ..FleetConfig::default()
    };
    let journal = opts.journal.as_deref().map(std::path::Path::new);
    let run = match run_journaled(&fleet_config, jobs, journal, &header, opts.resume) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    if run.resumed > 0 {
        eprintln!("fleet: resumed {} completed job(s) from journal", run.resumed);
    }
    if let Some(t) = telemetry.as_mut() {
        t.end_sampling();
    }

    // Deterministic aggregate: its own header, then the campaign report's
    // rows and summary, with the job-level failures counted after the
    // outcomes — byte-identical for any worker count.
    let summary = run.summary();
    let mut failed = [0u64; 3]; // crashed, hang, error
    for r in run.failures() {
        match r.status {
            JobStatus::Crashed => failed[0] += 1,
            JobStatus::Hang => failed[1] += 1,
            _ => failed[2] += 1,
        }
    }
    let header = format!(
        "  \"fleet\": {{\"suite\": \"{suite}\", \"seed\": {}, \"jobs\": {}}},\n  \
         \"reference\": {{\"scenario\":\"{scenario_name}\",\"exit\":\"{}\",\"steps\":{}}},\n",
        opts.seed,
        opts.jobs,
        reference.exit.label(),
        reference.steps
    );
    let failed_cells = [("crashed", failed[0]), ("hang", failed[1]), ("error", failed[2])];
    let out = render_report(&header, "job", &run.rows(), &summary, &failed_cells);

    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &out) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::from(1);
            }
            eprintln!("fleet: report written to {path}");
        }
        None => print!("{out}"),
    }

    // `taintvp-metrics/v1` with the fleet extension: outcome-class
    // counts plus the per-worker telemetry snapshot (timing-free).
    if let (Some(path), Some(t)) = (&opts.metrics_json, &telemetry) {
        let snap = t.hub().snapshot();
        let mut outcome_cells: Vec<String> = Outcome::ALL
            .iter()
            .map(|o| format!("\"{}\":{}", o.label(), summary[o.index()]))
            .collect();
        // Job-level failure classes are prefixed so they cannot collide
        // with classification labels (`hang` exists in both namespaces).
        for (label, n) in failed_cells {
            outcome_cells.push(format!("\"job_{label}\":{n}"));
        }
        let fleet_block = format!(
            "{{\"outcomes\":{{{}}},\"telemetry\":{}}}",
            outcome_cells.join(","),
            snap.deterministic_json()
        );
        let write = std::fs::File::create(path).and_then(|f| {
            taintvp::obs::export::write_metrics_json_ext(
                std::io::BufWriter::new(f),
                &snap.metrics(),
                &[("fleet", &fleet_block)],
            )
        });
        if let Err(e) = write {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        eprintln!("fleet: metrics JSON written to {path}");
    }
    for r in run.failures() {
        eprintln!(
            "fleet: job {} did not complete: {}{}",
            r.job_id,
            r.status.label(),
            r.detail.as_deref().map(|d| format!(" ({d})")).unwrap_or_default()
        );
    }
    eprintln!(
        "fleet: {} job(s), {} completed, {} crashed, {} hung, {} errored",
        run.results.len(),
        run.results.len() as u64 - failed.iter().sum::<u64>(),
        failed[0],
        failed[1],
        failed[2]
    );
    // The SDC gate is a *regression* gate for the defended immobilizer
    // firmware. A `--program` sweep characterises an arbitrary external
    // binary with no promised detection machinery, so corruption there is
    // a finding (reported in the aggregate), not a failure.
    let exit = if summary[Outcome::Sdc.index()] > 0 && guest.is_none() {
        eprintln!("fleet: FAIL — silent data corruption observed");
        ExitCode::from(2)
    } else {
        if summary[Outcome::Sdc.index()] > 0 {
            eprintln!(
                "fleet: {} run(s) ended in silent data corruption (characterisation sweep)",
                summary[Outcome::Sdc.index()]
            );
        }
        ExitCode::SUCCESS
    };
    if let Some(t) = telemetry {
        t.finish();
    }
    exit
}

/// `taintvp-run serve [--tcp addr] [--idle-timeout secs]` — the live
/// introspection server over stdio (default) or a threaded TCP listener
/// serving concurrent clients against one shared session registry.
fn serve_main(args: &[String]) -> ExitCode {
    let mut tcp = None;
    let mut metrics_addr = None;
    let mut idle_timeout = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tcp" => {
                let Some(addr) = args.get(i + 1) else {
                    eprintln!("error: --tcp needs an address");
                    return ExitCode::from(1);
                };
                tcp = Some(addr.clone());
                i += 2;
            }
            "--metrics-addr" => {
                let Some(addr) = args.get(i + 1) else {
                    eprintln!("error: --metrics-addr needs an address");
                    return ExitCode::from(1);
                };
                metrics_addr = Some(addr.clone());
                i += 2;
            }
            "--idle-timeout" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("error: --idle-timeout needs a number of seconds");
                    return ExitCode::from(1);
                };
                let Ok(secs) = v.parse::<u64>() else {
                    eprintln!("error: bad --idle-timeout `{v}`");
                    return ExitCode::from(1);
                };
                idle_timeout = Some(std::time::Duration::from_secs(secs));
                i += 2;
            }
            other => {
                eprintln!("error: unknown serve option `{other}`");
                return ExitCode::from(1);
            }
        }
    }
    let mut server = taintvp::serve::Server::new().with_idle_timeout(idle_timeout);
    let mut metrics_server = None;
    if let Some(addr) = metrics_addr {
        let metrics = std::sync::Arc::new(taintvp::serve::ServeMetrics::new());
        let render_hub = std::sync::Arc::clone(&metrics);
        match taintvp::obs::MetricsServer::bind(
            &addr,
            std::sync::Arc::new(move || render_hub.render()),
        ) {
            Ok(ms) => {
                eprintln!("taintvp-serve metrics endpoint on http://{}/metrics", ms.local_addr());
                metrics_server = Some(ms);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(1);
            }
        }
        server = server.with_metrics(metrics);
    }
    let result = match tcp {
        Some(addr) => server.serve_tcp(&addr),
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            server.serve(stdin.lock(), stdout.lock())
        }
    };
    if let Some(ms) = metrics_server {
        ms.shutdown();
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: serve transport failed: {e}");
            ExitCode::from(1)
        }
    }
}

/// `taintvp-run client [--script file] [--tcp addr]` — drive a server:
/// request lines come from the script file (or stdin), every server line
/// is printed to stdout. Without `--tcp` a `serve` child is spawned and
/// driven over its stdio.
fn client_main(args: &[String]) -> ExitCode {
    let mut script = None;
    let mut tcp = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--script" => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("error: --script needs a file");
                    return ExitCode::from(1);
                };
                script = Some(path.clone());
                i += 2;
            }
            "--tcp" => {
                let Some(addr) = args.get(i + 1) else {
                    eprintln!("error: --tcp needs an address");
                    return ExitCode::from(1);
                };
                tcp = Some(addr.clone());
                i += 2;
            }
            other => {
                eprintln!("error: unknown client option `{other}`");
                return ExitCode::from(1);
            }
        }
    }
    let requests: Vec<String> = match &script {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => text.lines().map(str::to_owned).collect(),
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::from(1);
            }
        },
        None => {
            use std::io::BufRead as _;
            std::io::stdin().lock().lines().map_while(Result::ok).collect()
        }
    };
    match run_client(&requests, tcp.as_deref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: client transport failed: {e}");
            ExitCode::from(1)
        }
    }
}

/// Sends `requests` line-by-line and echoes every server line to stdout.
/// A reader thread drains the server side so large streams cannot
/// deadlock the write pipe.
fn run_client(requests: &[String], tcp: Option<&str>) -> std::io::Result<()> {
    use std::io::{BufRead as _, BufReader, Write as _};

    fn pump<R: std::io::Read + Send + 'static>(r: R) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            for line in BufReader::new(r).lines().map_while(Result::ok) {
                println!("{line}");
            }
        })
    }

    match tcp {
        Some(addr) => {
            let stream = std::net::TcpStream::connect(addr)?;
            let reader = pump(stream.try_clone()?);
            let mut writer = stream;
            for line in requests {
                writeln!(writer, "{line}")?;
            }
            writer.flush()?;
            writer.shutdown(std::net::Shutdown::Write)?;
            let _ = reader.join();
        }
        None => {
            let exe = std::env::current_exe()?;
            let mut child = std::process::Command::new(exe)
                .arg("serve")
                .stdin(std::process::Stdio::piped())
                .stdout(std::process::Stdio::piped())
                .spawn()?;
            let reader = pump(child.stdout.take().expect("piped stdout"));
            {
                let mut stdin = child.stdin.take().expect("piped stdin");
                for line in requests {
                    writeln!(stdin, "{line}")?;
                }
                stdin.flush()?;
                // Dropping stdin closes the pipe: a script without a
                // `shutdown` request still terminates the server via EOF.
            }
            let _ = child.wait()?;
            let _ = reader.join();
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return serve_main(&argv[1..]),
        Some("client") => return client_main(&argv[1..]),
        Some("fleet") => return fleet_main(&argv[1..]),
        _ => {}
    }
    let mut opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let bytes = match std::fs::read(&opts.program) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", opts.program);
            return ExitCode::from(1);
        }
    };
    let guest = if is_elf(&bytes) {
        let elf = match Elf32::parse(&bytes) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("error: {}: {e}", opts.program);
                return ExitCode::from(EXIT_LOADER);
            }
        };
        if let Some(&(idx, _)) =
            opts.taint_segments.iter().find(|(idx, _)| *idx >= elf.segments.len())
        {
            eprintln!(
                "error: --taint-segment {idx}: binary has {} loadable segment(s)",
                elf.segments.len()
            );
            return ExitCode::from(1);
        }
        let program = match elf.to_program() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {}: {e}", opts.program);
                return ExitCode::from(EXIT_LOADER);
            }
        };
        Guest::Elf { elf, program }
    } else {
        if !opts.taint_segments.is_empty() {
            eprintln!("error: --taint-segment only applies to ELF guests");
            return ExitCode::from(1);
        }
        let source = match String::from_utf8(bytes) {
            Ok(s) => s,
            Err(_) => {
                eprintln!("error: {}: not an ELF image and not UTF-8 assembly", opts.program);
                return ExitCode::from(EXIT_LOADER);
            }
        };
        match parse_asm(&source, 0) {
            Ok(p) => Guest::Asm(p),
            Err(e) => {
                eprintln!("error: {}: {e}", opts.program);
                return ExitCode::from(1);
            }
        }
    };
    if let Some(path) = &opts.policy {
        match std::fs::read_to_string(path) {
            Ok(text) => opts.exec.policy = Some(text),
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    // One validation pass for the whole flag surface (policy text
    // included); `run_vp` resolves the same config again per run.
    let atoms = match opts.exec.resolve() {
        Ok((_, atoms)) => atoms,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    if opts.exec.tainted {
        run::<Tainted>(&opts, &atoms, &guest)
    } else {
        run::<Plain>(&opts, &atoms, &guest)
    }
}

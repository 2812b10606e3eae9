//! One live VP under server control: a [`Soc`] in either taint mode with
//! a [`StreamSink`] attached, plus the policy's atom table for rendering
//! tags and explanations.
//!
//! Sessions are resumable by construction: `run` executes a bounded slice
//! and the underlying [`StopFlag`] cooperative-stop mechanism means a
//! watchpoint hit returns [`SocExit::Stopped`] with all architectural
//! state intact — the next `run` continues from the exact stop point.

use vpdift_asm::{parse_asm, Program, Reg};
use vpdift_core::{AtomTable, Tag};
use vpdift_loader::Elf32;
use vpdift_obs::{
    flowgraph, BreakHit, BreakKind, BreakSet, Breakpoint, Recorder, StopFlag, StreamItem,
    StreamSink, Watch, WatchKind,
};
use vpdift_rv32::{ExecMode, Plain, Tainted, Word};
use vpdift_soc::{ExecConfig, ExecConfigError, Soc, SocExit};
use vpdift_sync::{shared, Shared};

use crate::proto::{ErrorCode, ServeError};

/// Default per-call instruction budget when a request names none.
pub const DEFAULT_MAX_STEPS: u64 = 1_000_000;

/// Hard ceiling for `until` (matches the CLI's default instruction cap).
pub const UNTIL_CAP: u64 = 100_000_000;

/// Flight-recorder ring capacity for server sessions.
const RING_CAP: usize = 64;

/// Prefix marking a `create` program field as a hex-encoded ELF32 image
/// (JSON strings cannot carry raw binary, so clients hex-encode the file:
/// `"program": "elf-hex:7f454c46..."`).
pub const ELF_HEX_PREFIX: &str = "elf-hex:";

/// Options extracted from a `create` request. Everything except the
/// program — policy, mode, engine, enforce, quantum, ram_size — rides in
/// the shared [`ExecConfig`], so serve validates exactly what the CLI and
/// fleet validate.
#[derive(Clone, Debug, Default)]
pub struct CreateOpts {
    /// Guest program: assembly source, or a hex-encoded ELF32 image when
    /// prefixed with [`ELF_HEX_PREFIX`].
    pub program: String,
    /// How to build and run the VP (one parse/validate path for every
    /// entry point — see [`ExecConfig`]).
    pub exec: ExecConfig,
}

/// Decodes an even-length hex string (no separators) into bytes.
fn decode_hex(hex: &str) -> Result<Vec<u8>, &'static str> {
    let hex = hex.trim();
    if !hex.len().is_multiple_of(2) {
        return Err("elf-hex payload has odd length");
    }
    let mut out = Vec::with_capacity(hex.len() / 2);
    for pair in hex.as_bytes().chunks_exact(2) {
        let s = core::str::from_utf8(pair).map_err(|_| "elf-hex payload is not ASCII hex")?;
        out.push(u8::from_str_radix(s, 16).map_err(|_| "elf-hex payload is not ASCII hex")?);
    }
    Ok(out)
}

/// The mode-erased SoC: servers hold many sessions of mixed modes.
enum AnySoc {
    Plain(Soc<Plain, StreamSink>),
    Tainted(Soc<Tainted, StreamSink>),
}

/// Dispatches a method call to whichever mode the session runs in.
macro_rules! with_soc {
    ($sess:expr, $soc:ident => $body:expr) => {
        match &mut $sess.soc {
            AnySoc::Plain($soc) => $body,
            AnySoc::Tainted($soc) => $body,
        }
    };
}

/// One register as reported by `read {"what":"regs"}`.
#[derive(Clone, Debug)]
pub struct RegRead {
    /// ABI name (`a0`, `sp`, …).
    pub name: String,
    /// Current value.
    pub value: u32,
    /// Current tag (always empty in plain mode).
    pub tag: Tag,
}

/// One byte as reported by `read {"what":"mem"|"tags"}`.
#[derive(Clone, Debug)]
pub struct ByteRead {
    /// Byte value.
    pub value: u8,
    /// Byte tag (always empty in plain mode).
    pub tag: Tag,
}

/// A live VP session.
pub struct Session {
    soc: AnySoc,
    sink: Shared<StreamSink>,
    stop: StopFlag,
    breaks: BreakSet,
    atoms: AtomTable,
    tainted: bool,
    engine: ExecMode,
    quantum: u32,
}

impl Session {
    /// Assembles `opts.program` (or decodes + parses a hex-encoded ELF32
    /// image, see [`ELF_HEX_PREFIX`]), parses the policy, and boots a
    /// fresh VP with a [`StreamSink`] attached.
    ///
    /// # Errors
    /// [`ErrorCode::BadProgram`] / [`ErrorCode::BadPolicy`] with the
    /// parser's (or loader's) message; [`ErrorCode::BadRequest`] for
    /// out-of-range exec limits (bad `ram_size`/`quantum` — rejected
    /// here by [`ExecConfig::validate`] instead of panicking the server
    /// inside SoC construction).
    pub fn create(opts: &CreateOpts) -> Result<Session, ServeError> {
        let bad = |msg: String| ServeError::new(ErrorCode::BadProgram, msg);
        let (program, elf): (Program, Option<Elf32>) =
            match opts.program.strip_prefix(ELF_HEX_PREFIX) {
                Some(hex) => {
                    let bytes = decode_hex(hex).map_err(|e| bad(e.to_owned()))?;
                    let elf = Elf32::parse(&bytes).map_err(|e| bad(e.to_string()))?;
                    let program = elf.to_program().map_err(|e| bad(e.to_string()))?;
                    (program, Some(elf))
                }
                None => (parse_asm(&opts.program, 0).map_err(|e| bad(e.to_string()))?, None),
            };
        let (builder, atoms) = opts.exec.resolve().map_err(|e| {
            let code = match e {
                ExecConfigError::BadPolicy(_) => ErrorCode::BadPolicy,
                _ => ErrorCode::BadRequest,
            };
            ServeError::new(code, e.to_string())
        })?;

        let stop = StopFlag::new();
        let breaks = BreakSet::new();
        let recorder = Recorder::new(RING_CAP)
            .with_symbols(vpdift_obs::SymbolMap::from_program(&program))
            .with_flow_deltas();
        let sink = shared(StreamSink::new(recorder, stop.clone()));

        let cfg = builder
            .sensor_thread(false)
            .stop_flag(stop.clone())
            .breakpoints(breaks.clone())
            .build();
        let quantum = cfg.quantum;

        // Boot: ELF images map segment-by-segment (BSS zeroed, load
        // errors reported as bad_program); assembly uses the flat image.
        fn boot<M: vpdift_rv32::TaintMode>(
            soc: &mut Soc<M, StreamSink>,
            program: &Program,
            elf: &Option<Elf32>,
        ) -> Result<(), ServeError> {
            match elf {
                Some(e) => soc
                    .load_elf(e)
                    .map_err(|e| ServeError::new(ErrorCode::BadProgram, e.to_string())),
                None => {
                    soc.load_program(program);
                    Ok(())
                }
            }
        }
        let soc = if opts.exec.tainted {
            let mut soc: Soc<Tainted, StreamSink> = Soc::with_obs(cfg, sink.clone());
            boot(&mut soc, &program, &elf)?;
            AnySoc::Tainted(soc)
        } else {
            let mut soc: Soc<Plain, StreamSink> = Soc::with_obs(cfg, sink.clone());
            boot(&mut soc, &program, &elf)?;
            AnySoc::Plain(soc)
        };

        Ok(Session {
            soc,
            sink,
            stop,
            breaks,
            atoms,
            tainted: opts.exec.tainted,
            engine: opts.exec.engine,
            quantum,
        })
    }

    /// `"tainted"` or `"plain"`.
    pub fn mode(&self) -> &'static str {
        if self.tainted {
            "tainted"
        } else {
            "plain"
        }
    }

    /// `"interp"` or `"block"`.
    pub fn engine(&self) -> &'static str {
        self.engine.label()
    }

    /// The policy's atom table.
    pub fn atoms(&self) -> &AtomTable {
        &self.atoms
    }

    /// Instructions retired so far.
    pub fn instret(&mut self) -> u64 {
        with_soc!(self, soc => soc.instret())
    }

    /// Simulated time in picoseconds.
    pub fn now_ps(&mut self) -> u64 {
        with_soc!(self, soc => soc.now().as_ps())
    }

    /// Architectural state digest (CPU ^ RAM), for engine-diff parity.
    pub fn digest(&mut self) -> u64 {
        with_soc!(self, soc => soc.state_digest())
    }

    /// Runs up to `max_steps` instructions, draining buffered stream
    /// items to `emit` between slices so a subscribed client sees events
    /// *while the guest runs*, not after. Slices are quantum multiples,
    /// which keeps a sliced run bit-identical to one batch `Soc::run`
    /// call (watch stops land on step boundaries and remain resumable).
    pub fn run(&mut self, max_steps: u64, emit: &mut dyn FnMut(Vec<StreamItem>)) -> SocExit {
        let slice = (self.quantum as u64).max(1) * 8;
        let mut remaining = max_steps;
        loop {
            let budget = remaining.min(slice);
            let exit = with_soc!(self, soc => soc.run(budget));
            let items = self.sink.borrow_mut().drain();
            if !items.is_empty() {
                emit(items);
            }
            remaining = remaining.saturating_sub(budget);
            match exit {
                SocExit::InstrLimit if remaining > 0 => continue,
                other => return other,
            }
        }
    }

    /// Runs until the guest exits, a watch fires, or `cap` instructions
    /// have retired — `run` without a meaningful budget.
    pub fn run_until(
        &mut self,
        cap: Option<u64>,
        emit: &mut dyn FnMut(Vec<StreamItem>),
    ) -> SocExit {
        self.run(cap.unwrap_or(UNTIL_CAP), emit)
    }

    /// All 32 registers plus the PC.
    pub fn read_regs(&mut self) -> (u32, Vec<RegRead>) {
        with_soc!(self, soc => {
            let cpu = soc.cpu();
            let regs = Reg::ALL
                .iter()
                .map(|&r| {
                    let w = cpu.reg(r);
                    RegRead { name: r.to_string(), value: w.val(), tag: w.tag() }
                })
                .collect();
            (cpu.pc(), regs)
        })
    }

    /// `len` bytes of RAM starting at `addr`; `None` entries are out of
    /// range (MMIO space is not readable through this call).
    pub fn read_mem(&mut self, addr: u32, len: usize) -> Vec<Option<ByteRead>> {
        with_soc!(self, soc => {
            let ram = soc.ram().borrow();
            (0..len)
                .map(|i| {
                    let off = addr.wrapping_add(i as u32);
                    ram.byte_at(off).map(|(value, tag)| ByteRead { value, tag })
                })
                .collect()
        })
    }

    /// Adds a watchpoint; returns its id.
    pub fn add_watch(&mut self, kind: WatchKind) -> u32 {
        self.sink.borrow_mut().add_watch(kind)
    }

    /// Removes a watchpoint; `false` when the id is unknown.
    pub fn remove_watch(&mut self, id: u32) -> bool {
        self.sink.borrow_mut().remove_watch(id)
    }

    /// Current watchpoints (id + kind).
    pub fn watches(&self) -> Vec<Watch> {
        self.sink.borrow().watches().map(|(w, _hits)| w.clone()).collect()
    }

    /// Subscribes to event kinds (empty list = every kind) and/or flow
    /// deltas.
    pub fn subscribe(&mut self, events: Option<Vec<String>>, flow: bool) {
        let mut sink = self.sink.borrow_mut();
        match events {
            Some(kinds) => sink.subscribe_events(kinds),
            None => sink.unsubscribe_events(),
        }
        sink.subscribe_flow(flow);
    }

    /// Drains whatever the sink buffered since the last drain.
    pub fn drain(&mut self) -> Vec<StreamItem> {
        self.sink.borrow_mut().drain()
    }

    /// Recorded (non-enforced) violations so far.
    pub fn violations(&self) -> usize {
        self.sink.borrow().recorder().violations().len()
    }

    /// The live source→sink explanation. With `atom` set, renders the
    /// shortest recorded path of that atom *right now* — no violation
    /// needed; without it, explains the last violation (as `--explain`
    /// does post-mortem).
    pub fn explain(&mut self, atom: Option<&str>) -> Result<Option<String>, ServeError> {
        let sink = self.sink.borrow();
        let rec = sink.recorder();
        match atom {
            None => Ok(rec.explain(&self.atoms)),
            Some(name) => {
                let tag = self.atoms.tag(name).ok_or_else(|| {
                    ServeError::new(
                        ErrorCode::BadRequest,
                        format!("unknown atom `{name}` in this session's policy"),
                    )
                })?;
                Ok(rec.provenance().shortest_path(tag).map(|path| {
                    flowgraph::render_path(&path, &self.atoms, rec.symbols(), &|_| None)
                }))
            }
        }
    }

    /// A clone of the session's cooperative stop flag. Raising it makes
    /// the current run slice the last one — from the same connection
    /// (client vanished mid-run) or any other (the v2 `stop` command).
    pub fn stop_flag(&self) -> StopFlag {
        self.stop.clone()
    }

    /// A clone of the session's breakpoint set — shared with the SoC run
    /// loop, armable from any thread.
    pub fn break_set(&self) -> BreakSet {
        self.breaks.clone()
    }

    /// Adds a PC or instruction-count breakpoint; returns its id.
    pub fn add_break(&self, kind: BreakKind) -> u32 {
        self.breaks.add(kind)
    }

    /// Removes breakpoint `id`; `false` when the id is unknown.
    pub fn remove_break(&self, id: u32) -> bool {
        self.breaks.remove(id)
    }

    /// The registered breakpoints, in registration order.
    pub fn breaks(&self) -> Vec<Breakpoint> {
        self.breaks.list()
    }

    /// The record of the most recent breakpoint hit, consumed once —
    /// the serve layer turns it into an `"ev":"break"` stream line.
    pub fn take_break_hit(&self) -> Option<BreakHit> {
        self.breaks.take_hit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdift_obs::stream::STREAM_BUF_CAP;
    use vpdift_obs::FlowDelta;

    const LOOP_LEAK: &str = "
        li   s0, 0x2000
        li   s1, 0x10000000
        li   s2, 4
loop:
        lbu  t0, 0(s0)
        sb   t0, 0(s1)
        addi s0, s0, 1
        addi s2, s2, -1
        bnez s2, loop
        ebreak
";

    const POLICY: &str = "
policy serve-test
atom secret
classify 0x2000 +16 secret
sink uart.tx public
";

    fn leak_opts() -> CreateOpts {
        CreateOpts {
            program: LOOP_LEAK.into(),
            exec: ExecConfig {
                policy: Some(POLICY.into()),
                enforce: vpdift_core::EnforceMode::Record,
                ram_size: Some(64 * 1024),
                ..ExecConfig::default()
            },
        }
    }

    #[test]
    fn create_rejects_bad_program_policy_and_limits() {
        let bad_prog = CreateOpts { program: "not an opcode".into(), ..CreateOpts::default() };
        let err = Session::create(&bad_prog).err().expect("bad program rejected");
        assert_eq!(err.code, ErrorCode::BadProgram);

        let bad_policy = CreateOpts {
            program: "ebreak".into(),
            exec: ExecConfig { policy: Some("classify nonsense".into()), ..ExecConfig::default() },
        };
        let err = Session::create(&bad_policy).err().expect("bad policy rejected");
        assert_eq!(err.code, ErrorCode::BadPolicy);

        // A huge ram_size used to reach the assertion inside SoC
        // construction and panic the server; ExecConfig rejects it first.
        let bad_ram = CreateOpts {
            program: "ebreak".into(),
            exec: ExecConfig { ram_size: Some(usize::MAX), ..ExecConfig::default() },
        };
        let err = Session::create(&bad_ram).err().expect("bad ram_size rejected");
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    #[test]
    fn watch_stops_run_and_session_resumes() {
        let mut sess = Session::create(&leak_opts()).expect("session boots");
        let id = sess.add_watch(WatchKind::Sink { site: "uart.tx".into(), atom: None });
        sess.subscribe(Some(vec![]), true);

        let mut streamed = Vec::new();
        let exit = sess.run(DEFAULT_MAX_STEPS, &mut |items| streamed.extend(items));
        assert_eq!(exit, SocExit::Stopped, "watch interrupts the run");
        assert!(
            streamed.iter().any(|i| matches!(i, StreamItem::Watch { id: w, .. } if *w == id)),
            "watch hit streamed"
        );
        assert!(streamed.iter().any(|i| matches!(i, StreamItem::Flow(_))), "flow deltas streamed");

        // The session is live: registers and memory are inspectable and
        // the explanation names the flow while the guest is paused.
        let (pc, regs) = sess.read_regs();
        assert!(pc != 0, "paused mid-program");
        assert_eq!(regs.len(), 32);
        let secret = &sess.read_mem(0x2000, 4);
        assert!(secret.iter().all(|b| b.is_some()));
        let explain = sess.explain(Some("secret")).expect("atom known");
        let text = explain.expect("path recorded");
        assert!(text.contains("flow of"), "{text}");

        // Resume: the watch fires once per leaked byte, then the guest
        // ebreaks once the watch is removed.
        let exit = sess.run(DEFAULT_MAX_STEPS, &mut |_| {});
        assert_eq!(exit, SocExit::Stopped);
        assert!(sess.remove_watch(id));
        let exit = sess.run_until(None, &mut |_| {});
        assert_eq!(exit, SocExit::Break);
    }

    #[test]
    fn breakpoints_stop_before_the_instruction_and_resume_on_both_engines() {
        for engine in [ExecMode::Interp, ExecMode::BlockCache] {
            let mut opts = leak_opts();
            opts.exec.engine = engine;
            let mut sess = Session::create(&opts).expect("session boots");

            // Stop mid-loop by instruction count: the breakpoint fires
            // *before* instruction 13 retires.
            let id = sess.add_break(BreakKind::Instret(12));
            let exit = sess.run(DEFAULT_MAX_STEPS, &mut |_| {});
            assert_eq!(exit, SocExit::Stopped, "engine {engine:?}");
            assert_eq!(sess.instret(), 12, "engine {engine:?}: stopped before executing");
            let hit = sess.take_break_hit().expect("hit recorded");
            assert_eq!((hit.id, hit.instret), (id, 12));
            assert!(sess.breaks().is_empty(), "instret breaks are one-shot");

            // A PC breakpoint at the paused instruction: resuming skips
            // it once (no instant re-fire), then it catches the next
            // loop iteration at the same PC.
            let (pc, _) = sess.read_regs();
            let pcid = sess.add_break(BreakKind::Pc(pc));
            let exit = sess.run(DEFAULT_MAX_STEPS, &mut |_| {});
            assert_eq!(exit, SocExit::Stopped, "engine {engine:?}");
            let hit = sess.take_break_hit().expect("pc hit recorded");
            assert_eq!((hit.id, hit.pc), (pcid, pc));
            assert!(hit.instret > 12, "a full loop iteration ran in between");

            assert!(sess.remove_break(pcid));
            assert!(!sess.remove_break(pcid), "second removal reports missing");
            let exit = sess.run_until(None, &mut |_| {});
            assert_eq!(exit, SocExit::Break, "engine {engine:?}: runs to completion");
        }
    }

    /// Copies a classified byte to a moving address 20 000 times: every
    /// iteration adds new flow-graph hop nodes, so deltas pile up.
    const SPREAD: &str = "
        li   s0, 0x2000
        li   s3, 0x3000
        li   s2, 20000
loop:
        andi t1, s2, 15
        add  t2, s0, t1
        lbu  t0, 0(t2)
        add  t3, s3, t1
        sb   t0, 0(t3)
        addi s2, s2, -1
        bnez s2, loop
        ebreak
";

    #[test]
    fn unsubscribed_flow_backlog_keeps_only_the_newest_deltas() {
        const STEPS: u64 = 100_000;
        let opts = CreateOpts { program: SPREAD.into(), ..leak_opts() };
        fn flows(items: Vec<StreamItem>) -> impl Iterator<Item = FlowDelta> {
            items.into_iter().filter_map(|i| match i {
                StreamItem::Flow(d) => Some(d),
                _ => None,
            })
        }

        // Reference: subscribed from the start and drained after every
        // slice, so every delta streams.
        let mut live = Session::create(&opts).expect("session boots");
        live.subscribe(None, true);
        let mut all = Vec::new();
        assert_eq!(live.run(STEPS, &mut |items| all.extend(flows(items))), SocExit::InstrLimit);
        assert_eq!(live.sink.borrow().dropped(), 0);
        assert!(all.len() > 2 * STREAM_BUF_CAP, "only {} deltas", all.len());

        // Never subscribed: the backlog stays at the newest deltas.
        let mut quiet = Session::create(&opts).expect("session boots");
        assert_eq!(quiet.run(STEPS, &mut |_| {}), SocExit::InstrLimit);
        assert_eq!(quiet.instret(), live.instret());
        let queued = quiet.sink.borrow().recorder().provenance().queued_deltas();
        assert_eq!(queued, STREAM_BUF_CAP, "the unsubscribed backlog is bounded");

        // Subscribing streams the newest deltas at the next event and
        // counts the evicted ones as dropped.
        quiet.subscribe(None, true);
        let mut tail = Vec::new();
        quiet.run(1, &mut |items| tail.extend(flows(items)));
        live.run(1, &mut |items| all.extend(flows(items)));
        assert_eq!(tail, all[all.len() - STREAM_BUF_CAP..]);
        assert_eq!(quiet.sink.borrow().dropped(), (all.len() - STREAM_BUF_CAP) as u64);
    }

    #[test]
    fn sliced_run_digest_matches_batch_run() {
        for engine in [ExecMode::Interp, ExecMode::BlockCache] {
            let mut opts = leak_opts();
            opts.exec.engine = engine;
            // Many tiny budgets until the guest ebreaks: slicing must not
            // perturb architectural state relative to one batch run.
            let mut sliced = Session::create(&opts).expect("session boots");
            let mut emitted = Vec::new();
            let exit = loop {
                match sliced.run(3, &mut |items| emitted.extend(items)) {
                    SocExit::InstrLimit => continue,
                    other => break other,
                }
            };
            assert_eq!(exit, SocExit::Break, "engine {engine:?}");

            let mut batch = Session::create(&opts).expect("session boots");
            assert_eq!(batch.run(DEFAULT_MAX_STEPS, &mut |_| {}), SocExit::Break);
            assert_eq!(
                sliced.instret(),
                batch.instret(),
                "engine {engine:?}: instruction counts diverged"
            );
            assert_eq!(
                sliced.digest(),
                batch.digest(),
                "engine {engine:?}: sliced and batch runs diverged"
            );
        }
    }
}

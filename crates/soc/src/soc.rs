//! The assembled virtual prototype.

use core::fmt;

use vpdift_asm::Program;
use vpdift_core::{DiftEngine, EnforceMode, SecurityPolicy, Tag, Violation};
use vpdift_kernel::SimTime;
use vpdift_loader::{Elf32, Segment};
use vpdift_obs::{BreakSet, NullSink, ObsEvent, ObsSink, StopFlag};
use vpdift_periph::{
    AesEngine, CanController, CanHostEndpoint, Clint, Dma, Plic, Ram, Sensor, TaintDebug, Terminal,
    Uart, Watchdog,
};
use vpdift_rv32::{BlockCache, CacheStats, Cpu, ExecMode, Step, TaintMode, Word};
use vpdift_sync::MutCell;
use vpdift_tlm::BusFault;

use crate::builder::SocBuilder;
use crate::bus::{Devices, SocBus};
use crate::map;

/// Why an ELF image could not be mapped into this SoC ([`Soc::load_elf`]).
/// The checks run before any byte is written, so a failed load leaves RAM
/// and the CPU untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElfLoadError {
    /// A `PT_LOAD` segment does not fit in RAM.
    SegmentOutsideRam {
        /// Segment index (parse order).
        index: usize,
        /// Segment load address.
        vaddr: u32,
        /// Segment in-memory size.
        memsz: u32,
        /// First address past RAM.
        ram_end: u32,
    },
    /// The entry point is not a RAM address.
    EntryOutsideRam {
        /// The ELF entry point.
        entry: u32,
        /// First address past RAM.
        ram_end: u32,
    },
}

impl fmt::Display for ElfLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElfLoadError::SegmentOutsideRam { index, vaddr, memsz, ram_end } => write!(
                f,
                "segment {index} ({vaddr:#010x}+{memsz:#x}) outside RAM (ends {ram_end:#010x})"
            ),
            ElfLoadError::EntryOutsideRam { entry, ram_end } => {
                write!(f, "entry point {entry:#010x} outside RAM (ends {ram_end:#010x})")
            }
        }
    }
}

impl std::error::Error for ElfLoadError {}

/// Build-time configuration of the VP.
///
/// Construct through [`SocBuilder`] (or [`SocBuilder::from_exec_config`]
/// for user-facing string knobs) — the struct is `#[non_exhaustive]`, so
/// literal construction outside this crate no longer compiles; fields
/// stay publicly *readable*.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct SocConfig {
    /// RAM size in bytes.
    pub ram_size: usize,
    /// The security policy to enforce (ignored by the plain VP except for
    /// peripheral wiring).
    pub policy: SecurityPolicy,
    /// Enforce (stop on violation) or record (log and continue).
    pub enforce: EnforceMode,
    /// Seed for the sensor's data generator.
    pub seed: u64,
    /// Instructions per scheduling quantum (time-sync granularity).
    pub quantum: u32,
    /// Whether the sensor refills its frame every 25 ms, the first at
    /// 25 ms (Fig. 4's generation thread, [`Sensor::start`]).
    pub sensor_thread: bool,
    /// Which execution engine drives the CPU (predecoded block cache by
    /// default, or the reference interpreter).
    pub exec: ExecMode,
    /// Cooperative stop flag polled by [`Soc::run`] once per dispatch
    /// slice: raising it (from a watchpoint, a controlling session or a
    /// fleet deadline reaper) ends the run with [`SocExit::Stopped`] at the
    /// next slice boundary. On either engine a slice is the rest of the
    /// quantum, so a stop lands within [`SocConfig::quantum`] steps (1 024
    /// by default). It ends earlier at a step that is not `Executed` and,
    /// on the block cache, at an interrupt taken at its start, a block not
    /// yet cached or a store into cached code. With an enabled
    /// observability sink the engines also end a slice right after the
    /// instruction that raised the flag
    /// ([`Bus::end_slice_before`](vpdift_rv32::Bus::end_slice_before)), so
    /// watchpoint stops stay exact per instruction.
    pub stop: StopFlag,
    /// Shared PC / instruction-count breakpoints, which stop a run
    /// *before* the matching instruction executes. The run loop checks
    /// the set at each slice start, and the slice then ends in front of
    /// an armed pc and never dispatches past the lowest armed instret, so
    /// stops land where a check before every instruction would put them.
    /// A breakpoint armed from another thread during a run takes effect
    /// from the next slice, so within [`SocConfig::quantum`] steps. Gated
    /// twice: on `S::ENABLED` (so `NullSink` batch runs compile the check
    /// out — unlike the stop poll, nothing external ever needs to break an
    /// unobserved session) and on the set's one-relaxed-load
    /// [`BreakSet::armed`] fast path. Share a set via
    /// [`SocBuilder::breakpoints`].
    pub breaks: BreakSet,
}

impl Default for SocConfig {
    fn default() -> Self {
        SocConfig {
            ram_size: map::DEFAULT_RAM_SIZE,
            policy: SecurityPolicy::permissive(),
            enforce: EnforceMode::Enforce,
            seed: 42,
            quantum: 1024,
            sensor_thread: true,
            exec: ExecMode::default(),
            stop: StopFlag::new(),
            breaks: BreakSet::new(),
        }
    }
}

impl SocConfig {
    /// The canonical way to assemble a configuration — see [`SocBuilder`].
    pub fn builder() -> SocBuilder {
        SocBuilder::new()
    }
}

/// Why [`Soc::run`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocExit {
    /// Guest executed `ebreak` (normal program end).
    Break,
    /// An enforced DIFT violation stopped the simulation — the paper's
    /// run-time error.
    Violation(Violation),
    /// The instruction budget was exhausted.
    InstrLimit,
    /// The core is in `wfi` and no future event can ever wake it.
    Idle,
    /// The watchdog deadline passed without a kick — the platform hung
    /// (or firmware wedged) long enough for the dog to bite.
    WatchdogTimeout,
    /// The CPU took the configured number of consecutive identical
    /// synchronous traps without retiring an instruction — the guest is
    /// wedged in its own trap handler (e.g. a corrupted trap vector).
    TrapLoop,
    /// The configured [`StopFlag`] was raised — a watchpoint hit or an
    /// external stop request. The VP is resumable: call [`Soc::run`]
    /// again to continue from the exact stop point.
    Stopped,
}

impl SocExit {
    /// A stable snake_case label for reports and campaign classification.
    pub fn label(&self) -> &'static str {
        match self {
            SocExit::Break => "break",
            SocExit::Violation(_) => "violation",
            SocExit::InstrLimit => "instr_limit",
            SocExit::Idle => "idle",
            SocExit::WatchdogTimeout => "watchdog_timeout",
            SocExit::TrapLoop => "trap_loop",
            SocExit::Stopped => "stopped",
        }
    }
}

/// The virtual prototype: CPU, bus, memory and all peripherals on one
/// simulated clock. `M` selects the original VP ([`vpdift_rv32::Plain`])
/// or the DIFT-enabled VP+ ([`vpdift_rv32::Tainted`]).
pub struct Soc<M: TaintMode, S: ObsSink = NullSink> {
    config: SocConfig,
    /// Simulated time. Only [`Soc::advance_to`] moves it, and it brings
    /// the timed devices (sensor, CLINT, watchdog) along.
    now: SimTime,
    cpu: Cpu<M>,
    /// Owns RAM, the DIFT engine, the observability sink and the devices.
    bus: SocBus<M, S>,
    exec: EngineKind,
    /// Quanta since the last taint-spread sample (see [`SPREAD_PERIOD`]).
    quanta_since_spread: u32,
}

/// Taint-spread is sampled (an O(ram) scan) every this many quanta.
const SPREAD_PERIOD: u32 = 64;

/// Simulated time per step (loosely-timed model): a 100 MIPS guest clock.
const INSN_TIME: SimTime = SimTime::from_ns(10);

/// The execution engine actually driving [`Soc::run`].
enum EngineKind {
    Interp,
    Block(Box<BlockCache>),
}

impl<M: TaintMode, S: ObsSink + Default> Soc<M, S> {
    /// Builds the VP from `config`.
    pub fn new(config: SocConfig) -> Self {
        Self::with_obs(config, S::default())
    }

    /// The canonical configuration entry point:
    /// `Soc::<Tainted>::builder().policy(p).build()` yields the
    /// [`SocConfig`] passed to [`Soc::new`].
    pub fn builder() -> SocBuilder {
        SocBuilder::new()
    }
}

impl<M: TaintMode, S: ObsSink> Soc<M, S> {
    /// Builds the VP from `config` around the observability sink `obs`.
    /// The system bus owns it and lends it to every layer that reports
    /// (CPU, bus routers, peripherals, DIFT engine checks); host code
    /// reads it back through [`Soc::obs`]. With a disabled sink type
    /// ([`NullSink`]) every emission site compiles out and the hot paths
    /// run as if the observability layer did not exist.
    ///
    /// # Panics
    /// Panics if `config.ram_size` would make RAM overlap the first MMIO
    /// region (the CLINT) — the map's disjointness is a build-time
    /// invariant everything downstream relies on.
    pub fn with_obs(config: SocConfig, obs: S) -> Self {
        assert!(
            config.ram_size <= map::CLINT_BASE as usize,
            "RAM ({} bytes) may not reach the CLINT at {:#x}",
            config.ram_size,
            map::CLINT_BASE
        );
        let policy = config.policy.clone();
        let engine = DiftEngine::with_mode(policy.clone(), config.enforce);

        let ram = Ram::new(config.ram_size, M::TRACKING);
        let terminal = Terminal::new("terminal", policy.source_tag("terminal.rx"));
        let mut sensor = Sensor::new(policy.source_tag("sensor.data"), config.seed);
        if config.sensor_thread {
            sensor.start();
        }
        let can = CanController::new("can", policy.source_tag("can.rx"));
        let aes = AesEngine::new(policy.grant_declassify("aes"), policy.source_tag("aes.out"));
        let dev = Devices {
            clint: Clint::new(),
            plic: Plic::new(),
            uart: MutCell::new(Uart::new("uart")),
            terminal: MutCell::new(terminal),
            sensor,
            can,
            aes,
            taintdbg: TaintDebug::new(),
            watchdog: Watchdog::new(),
        };
        let bus = SocBus::new(ram, engine, obs, dev, Dma::new(M::TRACKING), config.stop.clone());

        let mut cpu = Cpu::<M>::new();
        if M::TRACKING {
            cpu.set_exec_clearance(policy.exec());
        }

        let exec = match config.exec {
            ExecMode::Interp => EngineKind::Interp,
            ExecMode::BlockCache => EngineKind::Block(Box::default()),
        };

        Soc { config, now: SimTime::ZERO, cpu, bus, exec, quanta_since_spread: 0 }
    }

    /// Loads a program image, applies the policy's classification rules to
    /// RAM, and points the CPU at the entry with a stack at the top of RAM.
    pub fn load_program(&mut self, program: &Program) {
        self.ram_mut().load_image(program.base() - map::RAM_BASE, program.image());
        self.apply_policy_and_boot(program.entry());
    }

    /// Maps a parsed ELF32 executable: every `PT_LOAD` segment is copied
    /// into RAM with its BSS tail zeroed, the policy's classification
    /// rules apply as in [`Soc::load_program`], and the CPU boots at the
    /// ELF entry with a stack at the top of RAM.
    ///
    /// # Errors
    /// [`ElfLoadError`] when a segment or the entry falls outside RAM;
    /// nothing is written in that case.
    pub fn load_elf(&mut self, elf: &Elf32) -> Result<(), ElfLoadError> {
        self.load_elf_with(elf, |_, _| Tag::EMPTY)
    }

    /// [`Soc::load_elf`] with a per-segment ingress-classification hook:
    /// `ingress(index, segment)` returns the taint tag stamped onto that
    /// segment's bytes after loading (`Tag::EMPTY` to skip). This is how
    /// an external binary's data regions are marked as taint sources at
    /// load time — the loader has no policy language of its own, so the
    /// caller (CLI `--taint-segment`, a serve session, a campaign) decides.
    ///
    /// # Errors
    /// [`ElfLoadError`] when a segment or the entry falls outside RAM;
    /// the check runs over all segments before any byte is written.
    pub fn load_elf_with<F>(&mut self, elf: &Elf32, mut ingress: F) -> Result<(), ElfLoadError>
    where
        F: FnMut(usize, &Segment) -> Tag,
    {
        let ram_end = map::RAM_BASE + self.config.ram_size as u32;
        for (index, seg) in elf.segments.iter().enumerate() {
            // RAM_BASE is 0, so only the upper bound can fail.
            if seg.vaddr > ram_end || seg.end() > ram_end {
                return Err(ElfLoadError::SegmentOutsideRam {
                    index,
                    vaddr: seg.vaddr,
                    memsz: seg.memsz,
                    ram_end,
                });
            }
        }
        if elf.entry >= ram_end {
            return Err(ElfLoadError::EntryOutsideRam { entry: elf.entry, ram_end });
        }
        for (index, seg) in elf.segments.iter().enumerate() {
            let off = seg.vaddr - map::RAM_BASE;
            let ram = self.ram_mut();
            ram.load_image(off, &seg.data);
            // `memsz > filesz` tail: the ELF contract requires zero-fill
            // (the SoC may be reloaded with RAM dirty).
            ram.zero_fill(off + seg.data.len() as u32, seg.memsz as usize - seg.data.len());
            let tag = ingress(index, seg);
            if !tag.is_empty() {
                self.ram_mut().classify(off, seg.memsz as usize, tag);
                if S::ENABLED && M::TRACKING {
                    self.bus.obs.get_mut().event(&ObsEvent::Classify {
                        source: format!("elf.segment{index}"),
                        tag,
                        addr: Some(seg.vaddr),
                    });
                }
            }
        }
        self.apply_policy_and_boot(elf.entry);
        Ok(())
    }

    /// The shared tail of program loading: policy classification rules
    /// stamped onto RAM, CPU reset at `entry`, stack at the top of RAM.
    fn apply_policy_and_boot(&mut self, entry: u32) {
        let policy = self.config.policy.clone();
        for rule in policy.regions() {
            if let Some(tag) = rule.classify {
                let ram_len = self.config.ram_size as u32;
                let start = rule.range.start;
                let end = rule.range.end.min(map::RAM_BASE + ram_len);
                if start < end {
                    self.ram_mut().classify(start - map::RAM_BASE, (end - start) as usize, tag);
                    if S::ENABLED && M::TRACKING && !tag.is_empty() {
                        self.bus.obs.get_mut().event(&ObsEvent::Classify {
                            source: rule.name.clone(),
                            tag,
                            addr: Some(start),
                        });
                    }
                }
            }
        }
        self.cpu.reset(entry);
        let sp = map::RAM_BASE + self.config.ram_size as u32 - 16;
        self.cpu.set_reg(vpdift_asm::Reg::Sp, M::Word::from_u32(sp));
    }

    /// Raises the devices' flagged interrupts in the PLIC and samples the
    /// CPU's interrupt levels. Inside a quantum the engines take the levels
    /// after every device access instead
    /// ([`Bus::take_irq_levels`](vpdift_rv32::Bus::take_irq_levels)).
    fn sync_irq_lines(&mut self) {
        self.cpu.set_irq_levels(self.bus.irq_levels());
    }

    /// Runs the VP for at most `max_insns` CPU steps. A *step* is one
    /// retired instruction, one taken trap or one interrupt entry —
    /// exceptions count toward the budget so runaway trap loops still
    /// terminate (retired-instruction statistics remain exact via
    /// [`Soc::instret`]).
    pub fn run(&mut self, max_insns: u64) -> SocExit {
        let exit = self.run_inner(max_insns);
        if S::ENABLED {
            // Final timestamp + taint-spread sample so reports and exports
            // reflect the state at exit.
            let obs = self.bus.obs.get_mut();
            obs.set_now(self.now);
            if M::TRACKING {
                obs.taint_spread(&self.bus.ram.atom_spread());
            }
            if let EngineKind::Block(bc) = &self.exec {
                let st = bc.stats();
                obs.event(&ObsEvent::EngineCache {
                    hits: st.hits,
                    misses: st.misses,
                    invalidations: st.invalidations,
                    flushes: st.flushes,
                    idle_steps: st.idle_steps,
                    checked_steps: st.checked_steps,
                });
            }
        }
        exit
    }

    fn run_inner(&mut self, max_insns: u64) -> SocExit {
        let mut steps_left = max_insns;
        loop {
            self.sync_irq_lines();
            if S::ENABLED {
                self.bus.obs.get_mut().set_now(self.now);
            }
            if steps_left == 0 {
                return SocExit::InstrLimit;
            }
            let quantum = (self.config.quantum as u64).min(steps_left);
            let mut stepped = 0u64;
            let mut waiting = false;
            let mut exit = None;
            while stepped < quantum {
                // Cooperative stop: a watchpoint raised the flag during
                // the previous slice's event emission, a controller raised
                // it between runs, or a fleet deadline reaper raised it
                // from another thread. Polled once per slice and not gated
                // on `S::ENABLED`, so deadline kills reach `NullSink`
                // sessions too; the unraised check is one relaxed load.
                if self.config.stop.take() {
                    exit = Some(SocExit::Stopped);
                    break;
                }
                // Engine dispatch happens per slice, inside the quantum. A
                // slice runs to the budget unless a step is not `Executed`,
                // a stop lands or the block cache yields (`BlockCache::exec`);
                // device accesses hand the core its interrupt levels inside
                // the slice (`Bus::take_irq_levels`), so watchdog and time
                // accounting below stay identical between engines.
                let mut budget = quantum - stepped;
                // Breakpoints fire *before* the matching instruction
                // executes, so a resumed run continues from the exact
                // stop point. The check covers the slice's first
                // instruction; the engines end the slice in front of any
                // other armed pc (`Bus::end_slice_before`), and the budget
                // stops at the lowest armed instret. Gated on `S::ENABLED`
                // (compiled out for `NullSink` batch runs) and on one
                // relaxed `armed` load, so sessions without breakpoints
                // never pay for the set's mutex.
                if S::ENABLED {
                    let armed = &mut self.bus.breaks;
                    if self.config.breaks.armed() {
                        let instret = self.cpu.instret();
                        if self.config.breaks.check(self.cpu.pc(), instret, armed) {
                            exit = Some(SocExit::Stopped);
                            break;
                        }
                        if let Some(n) = armed.instret {
                            budget = budget.min(n - instret);
                        }
                    } else {
                        armed.clear();
                    }
                }
                let (n, step) = match &mut self.exec {
                    EngineKind::Interp => self.cpu.exec(&mut self.bus, budget),
                    EngineKind::Block(bc) => bc.exec(&mut self.cpu, &mut self.bus, budget),
                };
                stepped += n;
                match step {
                    Ok(Step::Executed) => {}
                    Ok(Step::Break) => {
                        exit = Some(SocExit::Break);
                        break;
                    }
                    Ok(Step::WaitingForInterrupt) => {
                        waiting = true;
                        break;
                    }
                    Ok(Step::TrapLoop) => {
                        exit = Some(SocExit::TrapLoop);
                        break;
                    }
                    Err(v) => {
                        exit = Some(SocExit::Violation(v));
                        break;
                    }
                }
            }
            steps_left -= stepped.min(steps_left);
            // Advance simulated time: executed steps + MMIO latency.
            let executed = stepped;
            let elapsed = INSN_TIME * executed + self.bus.take_mmio_delay();
            let target = self.now.saturating_add(elapsed);
            self.advance_to(target);

            if S::ENABLED && M::TRACKING {
                self.quanta_since_spread += 1;
                if self.quanta_since_spread >= SPREAD_PERIOD {
                    self.quanta_since_spread = 0;
                    let spread = self.ram().atom_spread();
                    self.bus.obs.get_mut().taint_spread(&spread);
                }
            }

            if let Some(exit) = exit {
                return exit;
            }
            // A concrete exit from inside the quantum (break, violation,
            // trap loop) wins over a deadline that passed while time was
            // advanced afterwards.
            if self.bus.dev.watchdog.expired() {
                return SocExit::WatchdogTimeout;
            }
            if waiting {
                if !self.advance_to_next_event() {
                    return SocExit::Idle;
                }
                if self.bus.dev.watchdog.expired() {
                    return SocExit::WatchdogTimeout;
                }
                // Deadlock guard: a waiting quantum that advanced neither
                // the instruction count nor simulated time can never make
                // progress (e.g. a wake condition that is permanently
                // "now" but never taken).
                if executed == 0 && self.now == target {
                    return SocExit::Idle;
                }
            }
        }
    }

    /// Moves the clock to `t` and brings the timed devices up to it: the
    /// sensor performs the refills due by then (each one's classification
    /// is reported to an enabled sink, stamped with its due time), the
    /// watchdog latches an expiry, the CLINT's `mtime` reads the new time
    /// in microseconds, and the refills' interrupts reach the PLIC. The
    /// clock never runs backwards, and [`SimTime::MAX`] (a deadline past
    /// the end of time) leaves it where it is.
    fn advance_to(&mut self, t: SimTime) {
        if t != SimTime::MAX {
            self.now = self.now.max(t);
        }
        let SocBus { dev, obs, .. } = &mut self.bus;
        while let Some(due) = dev.sensor.next_refill().filter(|&due| due <= self.now) {
            if S::ENABLED {
                obs.get_mut().set_now(due);
            }
            dev.sensor.advance_to(due);
            let tag = dev.sensor.data_tag();
            if S::ENABLED && !tag.is_empty() {
                let source = "sensor.frame".into();
                obs.get_mut().event(&ObsEvent::Classify { source, tag, addr: None });
            }
        }
        dev.watchdog.set_now(self.now);
        dev.clint.set_mtime(self.now.as_us());
        self.bus.raise_irqs();
    }

    /// While the CPU is parked in `wfi`, jump simulated time to the next
    /// thing that could wake it: a sensor refill, the timer comparator, or
    /// the watchdog deadline (so an armed dog bites even on an otherwise
    /// event-free platform). A refill counts only while a deadline short
    /// of [`SimTime::MAX`] is pending or the refill can raise an enabled
    /// interrupt (PLIC source enabled and `mie.MEIE` set); otherwise
    /// refills alone could never wake the core. Returns `false` when no
    /// such event exists (true deadlock), with the clock where it is.
    fn advance_to_next_event(&mut self) -> bool {
        let now = self.now;
        let dev = &self.bus.dev;
        let timer_next = (dev.clint.mtimecmp_value() != u64::MAX)
            .then(|| SimTime::from_us(dev.clint.mtimecmp_value()).max(now));
        let wd_next = dev.watchdog.deadline().map(|d| d.max(now));
        let refill_wakes = dev.plic.enabled() & (1 << map::IRQ_SENSOR) != 0
            && self.cpu.csrs().mie.val() & vpdift_asm::csr::MIE_MEIE != 0;
        let deadline_pending =
            [timer_next, wd_next].into_iter().flatten().any(|t| t < SimTime::MAX);
        let refill_next = dev.sensor.next_refill().filter(|_| refill_wakes || deadline_pending);
        match [refill_next, timer_next, wd_next].into_iter().flatten().min() {
            Some(t) => {
                self.advance_to(t);
                true
            }
            None => false,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Retired instruction count.
    pub fn instret(&self) -> u64 {
        self.cpu.instret()
    }

    /// The CPU core.
    pub fn cpu(&self) -> &Cpu<M> {
        &self.cpu
    }

    /// Mutable CPU access (test setup). The caller may write tagged
    /// registers, so this sets the taint-idle latch.
    pub fn cpu_mut(&mut self) -> &mut Cpu<M> {
        self.bus.tags_live = true;
        &mut self.cpu
    }

    /// The observability sink, owned by the system bus. Host code reads
    /// it through the cell's `borrow()`/`borrow_mut()`; a run never holds
    /// a borrow.
    pub fn obs(&self) -> &MutCell<S> {
        &self.bus.obs
    }

    /// The DIFT engine, owned by the system bus. Host code reads it
    /// through the cell's `borrow()`; a run never holds a borrow.
    pub fn engine(&self) -> &MutCell<DiftEngine> {
        &self.bus.engine
    }

    /// Main memory, owned by the system bus.
    pub fn ram(&self) -> &Ram {
        &self.bus.ram
    }

    /// Main memory, mutably (image loads, classification, fault
    /// injection). Those writes bump the RAM's mutation epoch, so a block
    /// cache drops code it decoded from the old bytes; `Ram::store` is the
    /// CPU's path and does not.
    pub fn ram_mut(&mut self) -> &mut Ram {
        &mut self.bus.ram
    }

    /// The UART (read its `output()` to observe transmitted bytes). In a
    /// cell, as [`Soc::engine`] is; a run never holds a borrow.
    pub fn uart(&self) -> &MutCell<Uart> {
        &self.bus.dev.uart
    }

    /// The console-input device (feed attacker bytes here). In a cell, as
    /// [`Soc::uart`] is.
    pub fn terminal(&self) -> &MutCell<Terminal> {
        &self.bus.dev.terminal
    }

    /// The sensor.
    pub fn sensor(&self) -> &Sensor {
        &self.bus.dev.sensor
    }

    /// The sensor, mutably (host refills, stuck-at faults). A refill's
    /// interrupt reaches the PLIC when the next run samples interrupts.
    pub fn sensor_mut(&mut self) -> &mut Sensor {
        &mut self.bus.dev.sensor
    }

    /// The host side of the CAN wire (the remote ECU's end), lent by the
    /// CAN controller that owns the wire. A frame sent here raises the CAN
    /// RX interrupt when the next run samples interrupts.
    pub fn can_host(&mut self) -> &mut CanHostEndpoint {
        self.bus.dev.can.host()
    }

    /// The DMA controller.
    pub fn dma(&self) -> &Dma {
        &self.bus.dma
    }

    /// The DMA controller, mutably (abort injection).
    pub fn dma_mut(&mut self) -> &mut Dma {
        &mut self.bus.dma
    }

    /// The PLIC.
    pub fn plic(&self) -> &Plic {
        &self.bus.dev.plic
    }

    /// The PLIC, mutably (host-raised interrupts).
    pub fn plic_mut(&mut self) -> &mut Plic {
        &mut self.bus.dev.plic
    }

    /// The taint-introspection peripheral.
    pub fn taintdbg(&self) -> &TaintDebug {
        &self.bus.dev.taintdbg
    }

    /// The watchdog timer. Arm it host-side (or let firmware do it via
    /// MMIO) to turn hangs into [`SocExit::WatchdogTimeout`].
    pub fn watchdog_mut(&mut self) -> &mut Watchdog {
        &mut self.bus.dev.watchdog
    }

    /// Arms `fault` on the system bus for the next CPU-initiated MMIO
    /// transaction it applies to (fault-injection campaigns), overwriting
    /// a pending arm. See [`BusFault`] for what each kind does.
    pub fn arm_mmio_fault(&mut self, fault: BusFault) {
        self.bus.router.arm(fault);
    }

    /// Block-cache counters when the SoC runs on the
    /// [`ExecMode::BlockCache`] engine; `None` under the interpreter.
    pub fn engine_stats(&self) -> Option<CacheStats> {
        match &self.exec {
            EngineKind::Interp => None,
            EngineKind::Block(bc) => Some(bc.stats()),
        }
    }

    /// Digest of the full architectural state — CPU (pc, registers, CSRs,
    /// tags) and RAM (data + tags). Two runs of the same program under
    /// different execution engines must agree on this bit-for-bit; the
    /// differential harness asserts exactly that.
    pub fn state_digest(&self) -> u64 {
        self.cpu.state_digest() ^ self.ram().digest().rotate_left(17)
    }

    /// The build configuration.
    pub fn config(&self) -> &SocConfig {
        &self.config
    }
}

impl<M: TaintMode, S: ObsSink> core::fmt::Debug for Soc<M, S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Soc")
            .field("tracking", &M::TRACKING)
            .field("instret", &self.cpu.instret())
            .field("now", &self.now)
            .finish()
    }
}

//! The RV32IM instruction-set simulator with transparent taint propagation
//! and the paper's three execution-clearance checks (§V-B2).
//!
//! The CPU is generic over [`TaintMode`]: `Cpu<Plain>` is the original VP
//! core, `Cpu<Tainted>` is the DIFT-enabled VP+ core. All tag handling
//! routes through the [`Word`] abstraction, so the plain instantiation
//! compiles tag work away entirely.

use vpdift_asm::csr as csrn;
use vpdift_asm::{AluOp, BranchCond, CsrSrc, Insn, MulOp, Reg};
use vpdift_core::{ExecClearance, Tag, Violation, ViolationKind};
use vpdift_obs::{CheckKind, ObsEvent};

use crate::bus::{Bus, MemError};
use crate::csr::CsrFile;
use crate::mode::{TaintMode, Word};

/// Outcome of a single [`Cpu::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// One instruction retired.
    Executed,
    /// The core is parked in `wfi` with no enabled interrupt pending; no
    /// instruction retired. The caller should advance simulated time.
    WaitingForInterrupt,
    /// An `ebreak` retired — by VP convention this stops the simulation
    /// (guest programs end with `ebreak`).
    Break,
    /// The configured number of consecutive *identical* synchronous traps
    /// (same pc, same cause, no instruction retired in between) was
    /// reached — the guest is wedged in a trap loop (e.g. a fetch fault on
    /// the `mtvec` target) and can make no further progress.
    TrapLoop,
}

impl Step {
    /// How many steps this outcome counts toward an `exec` budget: every
    /// outcome is one step except a parked `wfi`, which executes nothing.
    #[inline]
    pub(crate) fn count(self) -> u64 {
        (self != Step::WaitingForInterrupt) as u64
    }
}

/// Outcome of one fetch-decode-execute round, as needed by execution
/// engines: the architectural [`Step`] plus the memory range written by a
/// retired store (so a block cache can invalidate overlapping code).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Retired {
    pub step: Step,
    /// `(addr, size)` of a successful data store, if the instruction was
    /// one. Suppressed (trapped/faulted) stores report `None`.
    pub store: Option<(u32, u32)>,
}

impl Retired {
    #[inline]
    pub(crate) fn of(step: Step) -> Self {
        Retired { step, store: None }
    }
}

/// Why [`Cpu::run`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunExit {
    /// Guest executed `ebreak`.
    Break,
    /// The instruction budget was exhausted.
    MaxInsns,
    /// The core is waiting for an interrupt.
    Wfi,
    /// An enforced DIFT violation stopped execution.
    Violation(Violation),
    /// The trap-loop detector fired (see [`Step::TrapLoop`]).
    TrapLoop,
}

/// The RV32IM core. It reports observability events through its bus
/// ([`Bus::emit`]), so a core on a bus without a sink emits nothing.
///
/// ```
/// use vpdift_rv32::{Cpu, FlatMemory, Plain, RunExit};
/// use vpdift_asm::{Asm, Reg};
///
/// let mut a = Asm::new(0);
/// a.li(Reg::A0, 21);
/// a.add(Reg::A0, Reg::A0, Reg::A0);
/// a.ebreak();
/// let prog = a.assemble().unwrap();
///
/// let mut mem = FlatMemory::<Plain>::new(0, 4096);
/// mem.load_image(0, prog.image());
/// let mut cpu = Cpu::<Plain>::new();
/// assert_eq!(cpu.run(&mut mem, 100), RunExit::Break);
/// assert_eq!(cpu.reg(Reg::A0), 42);
/// ```
#[derive(Debug, Clone)]
pub struct Cpu<M: TaintMode> {
    pc: u32,
    regs: [M::Word; 32],
    csrs: CsrFile<M>,
    exec_clearance: ExecClearance,
    instret: u64,
    in_wfi: bool,
    traps_taken: u64,
    trap_loop_threshold: u32,
    last_trap: Option<(u32, u32, u64)>,
    same_trap_count: u32,
    /// Gate for the taint-idle fast path: while `false`, clearance checks
    /// are skipped wholesale. Only ever cleared by an execution engine that
    /// has *proved* all architectural tags empty ([`Bus::tags_live`] still
    /// `false`); the interpreter leaves it `true`.
    checks_enabled: bool,
    /// LR/SC reservation: the word address registered by the last `lr.w`,
    /// cleared by any store, by `sc.w` (success or failure) and by traps.
    /// Lives on the core so both execution engines share one implementation.
    reservation: Option<u32>,
}

/// Default consecutive-identical-trap count after which the trap-loop
/// detector fires.
pub const DEFAULT_TRAP_LOOP_THRESHOLD: u32 = 16;

impl<M: TaintMode> Default for Cpu<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: TaintMode> Cpu<M> {
    /// Creates a core reset to PC 0 with unchecked execution clearance.
    pub fn new() -> Self {
        Cpu {
            pc: 0,
            regs: [M::Word::from_u32(0); 32],
            csrs: CsrFile::new(),
            exec_clearance: ExecClearance::UNCHECKED,
            instret: 0,
            in_wfi: false,
            traps_taken: 0,
            trap_loop_threshold: DEFAULT_TRAP_LOOP_THRESHOLD,
            last_trap: None,
            same_trap_count: 0,
            checks_enabled: true,
            reservation: None,
        }
    }

    /// Resets the core to start execution at `pc` (registers preserved,
    /// counters cleared).
    pub fn reset(&mut self, pc: u32) {
        self.pc = pc;
        self.instret = 0;
        self.in_wfi = false;
        self.traps_taken = 0;
        self.last_trap = None;
        self.same_trap_count = 0;
        self.reservation = None;
    }

    /// The active LR/SC reservation address, if any (for tests).
    pub fn reservation(&self) -> Option<u32> {
        self.reservation
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter.
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Reads a register (x0 is always zero).
    pub fn reg(&self, r: Reg) -> M::Word {
        self.regs[r.num() as usize]
    }

    /// Writes a register (writes to x0 are ignored).
    pub fn set_reg(&mut self, r: Reg, value: M::Word) {
        if r != Reg::Zero {
            self.regs[r.num() as usize] = value;
        }
    }

    /// The CSR file (e.g. for test setup).
    pub fn csrs(&self) -> &CsrFile<M> {
        &self.csrs
    }

    /// Mutable CSR file access.
    pub fn csrs_mut(&mut self) -> &mut CsrFile<M> {
        &mut self.csrs
    }

    /// Retired instruction count.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// Synchronous (non-interrupt) traps taken since reset.
    pub fn traps_taken(&self) -> u64 {
        self.traps_taken
    }

    /// Configures the trap-loop detector: after `threshold` consecutive
    /// identical synchronous traps with no retirement in between,
    /// [`Cpu::step`] returns [`Step::TrapLoop`]. `0` disables detection.
    pub fn set_trap_loop_threshold(&mut self, threshold: u32) {
        self.trap_loop_threshold = threshold;
    }

    /// `true` while parked in `wfi`.
    pub fn is_waiting(&self) -> bool {
        self.in_wfi
    }

    /// Configures the execution clearances (from the security policy).
    pub fn set_exec_clearance(&mut self, exec: ExecClearance) {
        self.exec_clearance = exec;
    }

    /// Engine-side gate for the taint-idle fast path (see
    /// [`BlockCache`](crate::BlockCache)). Safe only while the caller can
    /// prove all architectural tags empty.
    pub(crate) fn set_checks_enabled(&mut self, enabled: bool) {
        self.checks_enabled = enabled;
    }

    /// The instruction-fetch clearance check (§V-B2b), exposed so a block
    /// cache replaying predecoded instructions can apply it to the cached
    /// fetch tag exactly as the interpreter would.
    pub(crate) fn fetch_clearance_check(
        &mut self,
        bus: &mut impl Bus<M>,
        tag: Tag,
        pc: u32,
    ) -> Result<(), Violation> {
        self.exec_check(bus, ViolationKind::Fetch, tag, self.exec_clearance.fetch, pc)
    }

    /// FNV-1a digest of the full architectural state (pc, registers with
    /// tags, CSRs with tags, retirement count, wait state). Used by the
    /// differential engine harness to assert bit-identical final state.
    pub fn state_digest(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, self.pc as u64);
        for r in &self.regs {
            h = fnv1a(h, r.val() as u64);
            h = fnv1a(h, r.tag().bits() as u64);
        }
        for c in [
            self.csrs.mstatus,
            self.csrs.mie,
            self.csrs.mip,
            self.csrs.mtvec,
            self.csrs.mepc,
            self.csrs.mcause,
            self.csrs.mtval,
            self.csrs.mscratch,
        ] {
            h = fnv1a(h, c.val() as u64);
            h = fnv1a(h, c.tag().bits() as u64);
        }
        h = fnv1a(h, self.instret);
        h = fnv1a(h, self.in_wfi as u64);
        // Reservation state distinguishes "no reservation" from "reserved
        // at address 0" so differential runs compare it exactly.
        fnv1a(
            h,
            match self.reservation {
                Some(addr) => 0x8000_0000_0000_0000 | addr as u64,
                None => 0,
            },
        )
    }

    /// Drives the machine timer interrupt pending bit (from the CLINT).
    pub fn set_timer_irq(&mut self, level: bool) {
        self.csrs.set_mip_bit(7, level);
    }

    /// Drives the machine software interrupt pending bit.
    pub fn set_soft_irq(&mut self, level: bool) {
        self.csrs.set_mip_bit(3, level);
    }

    /// Drives the machine external interrupt pending bit (from the PLIC).
    pub fn set_external_irq(&mut self, level: bool) {
        self.csrs.set_mip_bit(11, level);
    }

    /// Writes a register, reporting tag propagation to the sink when the
    /// destination tag changes or the incoming value is tagged.
    fn obs_set_reg<B: Bus<M>>(&mut self, bus: &mut B, r: Reg, value: M::Word, pc: u32) {
        if B::OBSERVED && r != Reg::Zero {
            let before = self.regs[r.num() as usize].tag();
            let after = value.tag();
            if before != after || !after.is_empty() {
                bus.emit(&ObsEvent::TagWrite { pc, reg: r.num() as u8, before, after });
            }
        }
        self.set_reg(r, value);
    }

    /// Records an execution-clearance violation in the bus's DIFT engine
    /// ([`Bus::dift_engine`]); in `Enforce` mode, or without an engine, the
    /// violation is returned as `Err` and the instruction is suppressed.
    ///
    /// The check (pass or fail) and the violation are reported to the sink
    /// from here; the engine records the violation unobserved, so the two
    /// are never double-counted.
    fn exec_check<B: Bus<M>>(
        &mut self,
        bus: &mut B,
        kind: ViolationKind,
        tag: Tag,
        required: Option<Tag>,
        pc: u32,
    ) -> Result<(), Violation> {
        if !M::TRACKING {
            return Ok(());
        }
        if !self.checks_enabled {
            // Taint-idle fast path: the owning engine has proved every
            // architectural tag empty, so the check would trivially pass.
            return Ok(());
        }
        let Some(required) = required else { return Ok(()) };
        let passed = tag.flows_to(required);
        if B::OBSERVED {
            let (check, site) = CheckKind::of_violation(&kind);
            bus.emit(&ObsEvent::Check {
                kind: check,
                tag,
                required,
                pc: Some(pc),
                passed,
                site: site.map(str::to_owned),
            });
        }
        if passed {
            return Ok(());
        }
        let v = Violation::new(kind, tag, required).at_pc(pc);
        if B::OBSERVED {
            bus.emit(&ObsEvent::Violation(v.clone()));
        }
        match bus.dift_engine() {
            Some(e) => e.record(v, None),
            None => Err(v),
        }
    }

    /// Takes a trap: saves state, vectors to `mtvec`. The trap-vector
    /// address is clearance-checked like a branch target (paper §V-B2a).
    ///
    /// Synchronous traps feed the trap-loop detector: traps never retire
    /// an instruction (every trap site returns before `instret` is
    /// bumped), so a repeated `(pc, cause)` at an unchanged `instret`
    /// proves the guest made no progress between two traps. After the
    /// configured threshold of consecutive identical traps the returned
    /// step is [`Step::TrapLoop`]. Interrupts never count: their handlers
    /// retire at least one instruction before any re-entry.
    fn take_trap<B: Bus<M>>(
        &mut self,
        bus: &mut B,
        cause: u32,
        is_irq: bool,
        tval: u32,
        pc: u32,
    ) -> Result<Step, Violation> {
        let mtvec = self.csrs.mtvec;
        // Traps conservatively break any LR/SC reservation (the handler may
        // touch the reserved word; the spec permits spurious SC failure).
        self.reservation = None;
        self.exec_check(
            bus,
            ViolationKind::TrapVector,
            mtvec.tag(),
            self.exec_clearance.branch,
            pc,
        )?;
        if B::OBSERVED {
            bus.emit(&ObsEvent::Trap { pc, cause, irq: is_irq });
        }
        self.csrs.mepc = M::Word::from_u32(pc);
        self.csrs.mcause = M::Word::from_u32(cause | if is_irq { 0x8000_0000 } else { 0 });
        self.csrs.mtval = M::Word::from_u32(tval);
        let mut st = self.csrs.mstatus.val();
        let mie = (st >> 3) & 1;
        st = (st & !(csrn::MSTATUS_MIE | csrn::MSTATUS_MPIE)) | (mie << 7);
        self.csrs.mstatus = self.csrs.mstatus.map_val(|_| st);
        self.pc = mtvec.val() & !0x3;
        if !is_irq {
            self.traps_taken += 1;
            if self.trap_loop_threshold != 0 {
                let key = (pc, cause, self.instret);
                if self.last_trap == Some(key) {
                    self.same_trap_count += 1;
                } else {
                    self.last_trap = Some(key);
                    self.same_trap_count = 1;
                }
                if self.same_trap_count >= self.trap_loop_threshold {
                    return Ok(Step::TrapLoop);
                }
            }
        }
        Ok(Step::Executed)
    }

    /// Checks for an enabled pending interrupt and takes it. Priority
    /// follows the privileged spec: external > software > timer.
    fn poll_interrupts(&mut self, bus: &mut impl Bus<M>) -> Result<bool, Violation> {
        if !self.csrs.mie_enabled() {
            return Ok(false);
        }
        let pending = self.csrs.pending();
        if pending == 0 {
            return Ok(false);
        }
        let cause = if pending & csrn::MIE_MEIE != 0 {
            csrn::cause::M_EXT_IRQ
        } else if pending & csrn::MIE_MSIE != 0 {
            csrn::cause::M_SOFT_IRQ
        } else {
            csrn::cause::M_TIMER_IRQ
        };
        self.in_wfi = false;
        let _ = self.take_trap(bus, cause, true, 0, self.pc)?;
        Ok(true)
    }

    /// Executes (at most) one instruction.
    ///
    /// # Errors
    /// Returns the [`Violation`] when an *enforced* DIFT check fails; the
    /// simulation should stop (the paper's `ClearanceException`).
    pub fn step(&mut self, bus: &mut impl Bus<M>) -> Result<Step, Violation> {
        if let Some(step) = self.pre_step(bus)? {
            return Ok(step);
        }
        self.fetch_decode_exec(bus).map(|r| r.step)
    }

    /// The interrupt/WFI preamble of [`Cpu::step`]: polls for enabled
    /// pending interrupts and handles the parked-in-`wfi` state. Returns
    /// `Some(step)` when the step completes here (interrupt taken or still
    /// waiting), `None` when an instruction should be executed.
    pub(crate) fn pre_step(&mut self, bus: &mut impl Bus<M>) -> Result<Option<Step>, Violation> {
        if self.poll_interrupts(bus)? {
            // Interrupt taken; fall through to execute the first handler
            // instruction on the next call.
            return Ok(Some(Step::Executed));
        }
        if self.in_wfi {
            // WFI resumes when an enabled interrupt becomes *pending*,
            // even with mstatus.MIE clear (privileged spec) — execution
            // then continues sequentially without trapping.
            if self.csrs.pending() != 0 {
                self.in_wfi = false;
            } else {
                return Ok(Some(Step::WaitingForInterrupt));
            }
        }
        Ok(None)
    }

    /// One full fetch-decode-execute round (everything in [`Cpu::step`]
    /// after [`pre_step`](Self::pre_step)). Also the block cache's
    /// fallback when a block cannot be built at the current pc.
    pub(crate) fn fetch_decode_exec(
        &mut self,
        bus: &mut impl Bus<M>,
    ) -> Result<Retired, Violation> {
        let pc = self.pc;
        // RV32C allows 2-byte alignment; only odd PCs are misaligned.
        if !pc.is_multiple_of(2) {
            return self
                .take_trap(bus, csrn::cause::MISALIGNED_FETCH, false, pc, pc)
                .map(Retired::of);
        }

        // --- fetch, with instruction-fetch clearance (§V-B2b) -----------
        let word = match bus.fetch(pc) {
            Ok(w) => w,
            Err(e) => return self.mem_trap(bus, e, true, pc).map(Retired::of),
        };
        let compressed = vpdift_asm::is_compressed(word.val() as u16);
        let (fetched, insn_len) = if compressed {
            // Narrow to the 16-bit parcel so the clearance check sees only
            // the bytes actually executed (precise tags in tainted mode).
            let parcel = if M::TRACKING {
                match bus.load(pc, 2) {
                    Ok(p) => p,
                    Err(e) => return self.mem_trap(bus, e, true, pc).map(Retired::of),
                }
            } else {
                word.map_val(|v| v & 0xFFFF)
            };
            (parcel, 2u32)
        } else {
            (word, 4u32)
        };
        self.fetch_clearance_check(bus, fetched.tag(), pc)?;

        let decoded = if compressed {
            vpdift_asm::decompress(fetched.val() as u16)
        } else {
            Insn::decode(fetched.val())
        };
        let insn = match decoded {
            Ok(i) => i,
            Err(_) => {
                return self
                    .take_trap(bus, csrn::cause::ILLEGAL_INSN, false, fetched.val(), pc)
                    .map(Retired::of);
            }
        };

        self.exec_insn(bus, insn, pc, insn_len, fetched.val(), compressed, fetched.tag())
    }

    /// Executes one already-decoded instruction at `pc`. `raw`,
    /// `compressed` and `fetch_tag` describe the fetched parcel for the
    /// retirement event, so cached dispatch emits events identical to the
    /// interpreter's.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exec_insn<B: Bus<M>>(
        &mut self,
        bus: &mut B,
        insn: Insn,
        pc: u32,
        insn_len: u32,
        raw: u32,
        compressed: bool,
        fetch_tag: Tag,
    ) -> Result<Retired, Violation> {
        let mut next_pc = pc.wrapping_add(insn_len);
        let mut store: Option<(u32, u32)> = None;
        let mut outcome = Step::Executed;

        macro_rules! rs {
            ($r:expr) => {
                self.reg($r)
            };
        }

        match insn {
            Insn::Lui { rd, imm20 } => {
                self.obs_set_reg(bus, rd, M::Word::from_u32(imm20 << 12), pc)
            }
            Insn::Auipc { rd, imm20 } => {
                self.obs_set_reg(bus, rd, M::Word::from_u32(pc.wrapping_add(imm20 << 12)), pc)
            }
            Insn::Jal { rd, offset } => {
                self.obs_set_reg(bus, rd, M::Word::from_u32(next_pc), pc);
                next_pc = pc.wrapping_add(offset as u32);
            }
            Insn::Jalr { rd, rs1, offset } => {
                let base = rs!(rs1);
                // Indirect targets reveal the pointer: branch clearance.
                self.exec_check(
                    bus,
                    ViolationKind::Branch,
                    base.tag(),
                    self.exec_clearance.branch,
                    pc,
                )?;
                self.obs_set_reg(bus, rd, M::Word::from_u32(next_pc), pc);
                next_pc = base.val().wrapping_add(offset as u32) & !1;
            }
            Insn::Branch { cond, rs1, rs2, offset } => {
                let a = rs!(rs1);
                let b = rs!(rs2);
                // The branch *condition* carries both operand tags (§V-B2a).
                self.exec_check(
                    bus,
                    ViolationKind::Branch,
                    a.tag().lub(b.tag()),
                    self.exec_clearance.branch,
                    pc,
                )?;
                let taken = match cond {
                    BranchCond::Eq => a.val() == b.val(),
                    BranchCond::Ne => a.val() != b.val(),
                    BranchCond::Lt => (a.val() as i32) < (b.val() as i32),
                    BranchCond::Ge => (a.val() as i32) >= (b.val() as i32),
                    BranchCond::Ltu => a.val() < b.val(),
                    BranchCond::Geu => a.val() >= b.val(),
                };
                if taken {
                    next_pc = pc.wrapping_add(offset as u32);
                }
            }
            Insn::Load { width, rd, rs1, offset } => {
                let base = rs!(rs1);
                let addr = base.val().wrapping_add(offset as u32);
                // Load addresses leak via access patterns (§V-B2c).
                self.exec_check(
                    bus,
                    ViolationKind::MemAddr,
                    base.tag(),
                    self.exec_clearance.mem_addr,
                    pc,
                )?;
                let size = width.size();
                if !addr.is_multiple_of(size) {
                    return self
                        .take_trap(bus, csrn::cause::MISALIGNED_LOAD, false, addr, pc)
                        .map(Retired::of);
                }
                let loaded = match bus.load(addr, size) {
                    Ok(w) => w,
                    Err(e) => return self.mem_trap(bus, e, false, pc).map(Retired::of),
                };
                if B::OBSERVED {
                    bus.emit(&ObsEvent::Load { pc, addr, size, tag: loaded.tag() });
                }
                let value = loaded.map_val(|v| match width {
                    vpdift_asm::LoadWidth::B => v as u8 as i8 as i32 as u32,
                    vpdift_asm::LoadWidth::H => v as u16 as i16 as i32 as u32,
                    _ => v,
                });
                self.obs_set_reg(bus, rd, value, pc);
            }
            Insn::Store { width, rs2, rs1, offset } => {
                let base = rs!(rs1);
                let addr = base.val().wrapping_add(offset as u32);
                self.exec_check(
                    bus,
                    ViolationKind::MemAddr,
                    base.tag(),
                    self.exec_clearance.mem_addr,
                    pc,
                )?;
                let size = width.size();
                if !addr.is_multiple_of(size) {
                    return self
                        .take_trap(bus, csrn::cause::MISALIGNED_STORE, false, addr, pc)
                        .map(Retired::of);
                }
                if B::OBSERVED {
                    bus.emit(&ObsEvent::Store { pc, addr, size, tag: rs!(rs2).tag() });
                }
                if let Err(e) = bus.store(addr, size, rs!(rs2), pc) {
                    return self.mem_trap(bus, e, false, pc).map(Retired::of);
                }
                store = Some((addr, size));
                // Any intervening store breaks an LR/SC reservation.
                self.reservation = None;
            }
            Insn::Lr { rd, rs1 } => {
                let base = rs!(rs1);
                let addr = base.val();
                self.exec_check(
                    bus,
                    ViolationKind::MemAddr,
                    base.tag(),
                    self.exec_clearance.mem_addr,
                    pc,
                )?;
                if !addr.is_multiple_of(4) {
                    return self
                        .take_trap(bus, csrn::cause::MISALIGNED_LOAD, false, addr, pc)
                        .map(Retired::of);
                }
                if !bus.atomic_supported(addr, 4) {
                    // Atomics are only defined on idempotent memory (RAM);
                    // an LR on MMIO is an access fault, not a side effect.
                    return self
                        .take_trap(bus, csrn::cause::LOAD_FAULT, false, addr, pc)
                        .map(Retired::of);
                }
                let loaded = match bus.load(addr, 4) {
                    Ok(w) => w,
                    Err(e) => return self.mem_trap(bus, e, false, pc).map(Retired::of),
                };
                if B::OBSERVED {
                    bus.emit(&ObsEvent::Load { pc, addr, size: 4, tag: loaded.tag() });
                }
                self.reservation = Some(addr);
                self.obs_set_reg(bus, rd, loaded, pc);
            }
            Insn::Sc { rd, rs2, rs1 } => {
                let base = rs!(rs1);
                let addr = base.val();
                self.exec_check(
                    bus,
                    ViolationKind::MemAddr,
                    base.tag(),
                    self.exec_clearance.mem_addr,
                    pc,
                )?;
                if !addr.is_multiple_of(4) {
                    return self
                        .take_trap(bus, csrn::cause::MISALIGNED_STORE, false, addr, pc)
                        .map(Retired::of);
                }
                if !bus.atomic_supported(addr, 4) {
                    return self
                        .take_trap(bus, csrn::cause::STORE_FAULT, false, addr, pc)
                        .map(Retired::of);
                }
                // An SC consumes the reservation whether it succeeds or not.
                let reserved = self.reservation.take() == Some(addr);
                if reserved {
                    if B::OBSERVED {
                        bus.emit(&ObsEvent::Store { pc, addr, size: 4, tag: rs!(rs2).tag() });
                    }
                    if let Err(e) = bus.store(addr, 4, rs!(rs2), pc) {
                        return self.mem_trap(bus, e, false, pc).map(Retired::of);
                    }
                    store = Some((addr, 4));
                }
                // The 0/1 success code is architecturally generated, not
                // data-derived: it carries no tag.
                self.obs_set_reg(bus, rd, M::Word::from_u32(!reserved as u32), pc);
            }
            Insn::Amo { op, rd, rs2, rs1 } => {
                let base = rs!(rs1);
                let addr = base.val();
                self.exec_check(
                    bus,
                    ViolationKind::MemAddr,
                    base.tag(),
                    self.exec_clearance.mem_addr,
                    pc,
                )?;
                if !addr.is_multiple_of(4) {
                    return self
                        .take_trap(bus, csrn::cause::MISALIGNED_STORE, false, addr, pc)
                        .map(Retired::of);
                }
                if !bus.atomic_supported(addr, 4) {
                    return self
                        .take_trap(bus, csrn::cause::STORE_FAULT, false, addr, pc)
                        .map(Retired::of);
                }
                let loaded = match bus.load(addr, 4) {
                    Ok(w) => w,
                    Err(e) => return self.mem_trap(bus, e, false, pc).map(Retired::of),
                };
                if B::OBSERVED {
                    bus.emit(&ObsEvent::Load { pc, addr, size: 4, tag: loaded.tag() });
                }
                // Read-modify-write taint rule: the written word carries
                // LUB(loaded tag, rs2 tag) — `binop` computes exactly that.
                let written = loaded.binop(rs!(rs2), |l, r| op.apply(l, r));
                if B::OBSERVED {
                    bus.emit(&ObsEvent::Store { pc, addr, size: 4, tag: written.tag() });
                }
                if let Err(e) = bus.store(addr, 4, written, pc) {
                    return self.mem_trap(bus, e, false, pc).map(Retired::of);
                }
                store = Some((addr, 4));
                // An AMO is a store: it breaks any reservation, including
                // one on its own address.
                self.reservation = None;
                self.obs_set_reg(bus, rd, loaded, pc);
            }
            Insn::AluImm { op, rd, rs1, imm } => {
                let a = rs!(rs1);
                let r = alu_imm::<M>(op, a, imm);
                self.obs_set_reg(bus, rd, r, pc);
            }
            Insn::Alu { op, rd, rs1, rs2 } => {
                let r = alu::<M>(op, rs!(rs1), rs!(rs2));
                self.obs_set_reg(bus, rd, r, pc);
            }
            Insn::MulDiv { op, rd, rs1, rs2 } => {
                let r = muldiv::<M>(op, rs!(rs1), rs!(rs2));
                self.obs_set_reg(bus, rd, r, pc);
            }
            Insn::Csr { op, rd, csr, src } => {
                let old = self.csrs.read(csr, self.instret);
                let (sval, write_always) = match src {
                    CsrSrc::Reg(r) => (rs!(r), r != Reg::Zero),
                    CsrSrc::Imm(i) => (M::Word::from_u32(i as u32), i != 0),
                };
                match op {
                    vpdift_asm::CsrOp::Rw => self.csrs.write(csr, sval),
                    vpdift_asm::CsrOp::Rs if write_always => {
                        self.csrs.write(csr, old.binop(sval, |o, s| o | s))
                    }
                    vpdift_asm::CsrOp::Rc if write_always => {
                        self.csrs.write(csr, old.binop(sval, |o, s| o & !s))
                    }
                    _ => {}
                }
                self.obs_set_reg(bus, rd, old, pc);
            }
            Insn::Fence | Insn::FenceI => {}
            Insn::Ecall => {
                // mepc points at the ecall itself; the handler returns past
                // it by adding 4 (standard RISC-V convention).
                return self.take_trap(bus, csrn::cause::ECALL_M, false, 0, pc).map(Retired::of);
            }
            Insn::Ebreak => {
                outcome = Step::Break;
            }
            Insn::Mret => {
                let mepc = self.csrs.mepc;
                // Returning to a secret/untrusted address is an indirect
                // control transfer: branch clearance applies.
                self.exec_check(
                    bus,
                    ViolationKind::Branch,
                    mepc.tag(),
                    self.exec_clearance.branch,
                    pc,
                )?;
                let mut st = self.csrs.mstatus.val();
                let mpie = (st >> 7) & 1;
                st = (st & !csrn::MSTATUS_MIE) | (mpie << 3) | csrn::MSTATUS_MPIE;
                self.csrs.mstatus = self.csrs.mstatus.map_val(|_| st);
                next_pc = mepc.val() & !0x3;
            }
            Insn::Wfi => {
                self.in_wfi = true;
            }
        }

        self.pc = next_pc;
        self.instret += 1;
        if B::OBSERVED {
            bus.emit(&ObsEvent::InsnRetired {
                pc,
                word: raw,
                compressed,
                fetch_tag,
                instret: self.instret,
            });
        }
        Ok(Retired { step: outcome, store })
    }

    fn mem_trap(
        &mut self,
        bus: &mut impl Bus<M>,
        e: MemError,
        is_fetch: bool,
        pc: u32,
    ) -> Result<Step, Violation> {
        let _ = is_fetch; // fetch faults reuse the load-fault cause in this VP
        match e {
            MemError::Fault { addr } => {
                self.take_trap(bus, csrn::cause::LOAD_FAULT, false, addr, pc)
            }
            MemError::Misaligned { addr } => {
                self.take_trap(bus, csrn::cause::MISALIGNED_LOAD, false, addr, pc)
            }
            MemError::Dift(v) => Err(v),
        }
    }

    /// The interpreter's slice-dispatch entry point, shared in shape with
    /// [`BlockCache::exec`](crate::BlockCache::exec): executes up to
    /// `budget` *steps* — retired instructions, taken traps and interrupt
    /// entries — one [`Cpu::step`] at a time.
    ///
    /// Returns the steps taken and the last step's outcome. The slice ends
    /// early on any outcome other than [`Step::Executed`], right after an
    /// access that left [`Bus::irq_dirty`] set, and, on an observed bus,
    /// before a pc that [`Bus::end_slice_before`] names. Neither an `Err`
    /// (the faulting instruction is suppressed) nor a parked `wfi` is a
    /// step.
    pub fn exec<B: Bus<M>>(&mut self, bus: &mut B, budget: u64) -> (u64, Result<Step, Violation>) {
        let mut steps = 0;
        while steps < budget {
            match self.step(bus) {
                Ok(Step::Executed) if !bus.irq_dirty() => steps += 1,
                Ok(step) => return (steps + step.count(), Ok(step)),
                Err(v) => return (steps, Err(v)),
            }
            if B::OBSERVED && bus.end_slice_before(self.pc) {
                break;
            }
        }
        (steps, Ok(Step::Executed))
    }

    /// Runs until `ebreak`, an enforced violation, `wfi` with nothing
    /// pending, or `max_insns` retirements.
    pub fn run(&mut self, bus: &mut impl Bus<M>, max_insns: u64) -> RunExit {
        run_slices(self, max_insns, |cpu, budget| cpu.exec(bus, budget))
    }
}

/// The shared body of [`Cpu::run`] and
/// [`BlockCache::run`](crate::BlockCache::run): `exec` slices until
/// `max_insns` retirements or a terminal step. Each budget is the
/// retirements still allowed, so `instret` never passes the limit.
pub(crate) fn run_slices<M: TaintMode>(
    cpu: &mut Cpu<M>,
    max_insns: u64,
    mut exec: impl FnMut(&mut Cpu<M>, u64) -> (u64, Result<Step, Violation>),
) -> RunExit {
    let limit = cpu.instret + max_insns;
    while cpu.instret < limit {
        match exec(cpu, limit - cpu.instret).1 {
            Ok(Step::Executed) => {}
            Ok(Step::Break) => return RunExit::Break,
            Ok(Step::WaitingForInterrupt) => return RunExit::Wfi,
            Ok(Step::TrapLoop) => return RunExit::TrapLoop,
            Err(v) => return RunExit::Violation(v),
        }
    }
    RunExit::MaxInsns
}

/// FNV-1a offset basis (64-bit).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one 64-bit quantity into an FNV-1a digest, byte by byte.
#[inline]
pub(crate) fn fnv1a(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn alu_imm<M: TaintMode>(op: AluOp, a: M::Word, imm: i32) -> M::Word {
    let b = imm as u32;
    a.map_val(|av| alu_val(op, av, b))
}

fn alu<M: TaintMode>(op: AluOp, a: M::Word, b: M::Word) -> M::Word {
    a.binop(b, |av, bv| alu_val(op, av, bv))
}

fn alu_val(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 0x1F),
        AluOp::Slt => ((a as i32) < (b as i32)) as u32,
        AluOp::Sltu => (a < b) as u32,
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 0x1F),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 0x1F)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
    }
}

fn muldiv<M: TaintMode>(op: MulOp, a: M::Word, b: M::Word) -> M::Word {
    a.binop(b, |av, bv| muldiv_val(op, av, bv))
}

fn muldiv_val(op: MulOp, a: u32, b: u32) -> u32 {
    match op {
        MulOp::Mul => a.wrapping_mul(b),
        MulOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        MulOp::Mulhsu => (((a as i32 as i64) * (b as u64 as i64)) >> 32) as u32,
        MulOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
        MulOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a == 0x8000_0000 && b == u32::MAX {
                a // overflow: MIN / -1 = MIN
            } else {
                ((a as i32) / (b as i32)) as u32
            }
        }
        MulOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        MulOp::Rem => {
            if b == 0 {
                a
            } else if a == 0x8000_0000 && b == u32::MAX {
                0
            } else {
                ((a as i32) % (b as i32)) as u32
            }
        }
        MulOp::Remu => a.checked_rem(b).unwrap_or(a),
    }
}

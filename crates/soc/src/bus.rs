//! The system bus as seen by the CPU: a DMI-style fast path into RAM plus
//! TLM routing for everything else, with DIFT store-clearance checks on
//! protected regions.

use vpdift_core::{AddrRange, DiftEngine, Tag};
use vpdift_kernel::SimTime;
use vpdift_periph::Ram;
use vpdift_rv32::{Bus, MemError, TaintMode, Word};
use vpdift_sync::MutCell;
use vpdift_tlm::{FaultRouter, GenericPayload, Loan, Router, SharedFaultHook, TlmResponse};

use crate::map::RAM_BASE;

/// The CPU ⇄ memory-system adapter, and the one owner of RAM and of the
/// DIFT engine: the CPU reads and writes RAM directly and records its
/// violations in the engine, and every MMIO transaction borrows both
/// ([`Loan`]) for targets that reach memory or check flows themselves
/// (UART, CAN, DMA, taintdbg).
pub struct SocBus<M: TaintMode> {
    pub(crate) ram: Ram,
    /// The VP's one DIFT engine. The cell serves only `Soc::engine`'s
    /// host-side borrows; the guest path takes `get_mut`.
    pub(crate) engine: MutCell<DiftEngine>,
    /// The system-bus router behind a fault-injection interposer; with no
    /// hook installed the wrapper is a single `Option` check per MMIO
    /// transaction (and the RAM fast path bypasses it entirely).
    router: FaultRouter,
    /// Regions with write clearance, copied from the policy so the hot
    /// store path can skip the engine when no rule applies.
    protected: Vec<AddrRange>,
    mmio_delay: SimTime,
    irq_dirty: bool,
    /// The taint-idle latch for tags that reach the core other than from
    /// RAM: a tagged MMIO read (terminal, sensor, CAN RX, AES) or a host
    /// register write (`Soc::cpu_mut`). RAM latches its own writes
    /// ([`Ram::tags_live`]); [`Bus::tags_live`] is the union. Never cleared.
    pub(crate) tags_live: bool,
    _mode: core::marker::PhantomData<M>,
}

impl<M: TaintMode> SocBus<M> {
    /// Creates the bus over `ram` and `engine`. `router` must map every
    /// non-RAM target.
    pub fn new(ram: Ram, router: Router, engine: DiftEngine) -> Self {
        let protected = engine
            .policy()
            .regions()
            .iter()
            .filter(|r| r.write_clearance.is_some())
            .map(|r| r.range)
            .collect();
        SocBus {
            ram,
            engine: MutCell::new(engine),
            router: FaultRouter::new(router),
            protected,
            mmio_delay: SimTime::ZERO,
            irq_dirty: false,
            tags_live: false,
            _mode: core::marker::PhantomData,
        }
    }

    /// Acknowledges the [`Bus::irq_dirty`] flag.
    pub fn clear_irq_dirty(&mut self) {
        self.irq_dirty = false;
    }

    /// Accumulated MMIO latency annotations (consumed by the SoC loop).
    pub fn take_mmio_delay(&mut self) -> SimTime {
        std::mem::take(&mut self.mmio_delay)
    }

    /// Installs a TLM fault hook on the system bus: every MMIO transaction
    /// passes through it and may be corrupted, dropped or answered with a
    /// forced error response.
    pub fn set_mmio_fault(&mut self, hook: SharedFaultHook) {
        self.router.set_hook(hook);
    }

    /// Removes the TLM fault hook.
    pub fn clear_mmio_fault(&mut self) {
        self.router.clear_hook();
    }

    #[inline]
    fn in_ram(&self, addr: u32, size: u32) -> bool {
        // RAM_BASE is 0 in the current map (the >= comparison would be
        // trivially true, which clippy rejects); the checked_add guards
        // wrap-around at the top of the address space.
        const { assert!(RAM_BASE == 0) };
        match addr.checked_add(size) {
            Some(end) => end as usize <= self.ram.len(),
            None => false,
        }
    }

    #[inline]
    fn store_clearance(&mut self, addr: u32, size: u32, tag: Tag, pc: u32) -> Result<(), MemError> {
        if !M::TRACKING || self.protected.is_empty() {
            return Ok(());
        }
        let hit = self.protected.iter().any(|r| (addr..addr + size).any(|a| r.contains(a)));
        if !hit {
            return Ok(());
        }
        let engine = self.engine.get_mut();
        for a in addr..addr + size {
            engine.check_store(a, tag, Some(pc)).map_err(MemError::Dift)?;
        }
        Ok(())
    }

    fn mmio(&mut self, payload: &mut GenericPayload) -> Result<(), MemError> {
        let mut delay = SimTime::ZERO;
        let mut loan = Loan { mem: &mut self.ram, engine: self.engine.get_mut() };
        self.router.route(payload, &mut delay, &mut loan);
        self.mmio_delay += delay;
        self.irq_dirty = true;
        match payload.response() {
            TlmResponse::Ok => Ok(()),
            TlmResponse::AddressError => Err(MemError::Fault { addr: payload.address() }),
            _ => match payload.take_violation() {
                Some(v) => Err(MemError::Dift(v)),
                None => Err(MemError::Fault { addr: payload.address() }),
            },
        }
    }
}

impl<M: TaintMode> Bus<M> for SocBus<M> {
    fn fetch(&mut self, pc: u32) -> Result<M::Word, MemError> {
        // Instructions only execute from RAM in this platform.
        if self.in_ram(pc, 4) {
            let (v, t) = self.ram.load(pc - RAM_BASE, 4);
            Ok(M::Word::with_tag(v, t))
        } else {
            Err(MemError::Fault { addr: pc })
        }
    }

    fn load(&mut self, addr: u32, size: u32) -> Result<M::Word, MemError> {
        if self.in_ram(addr, size) {
            let (v, t) = self.ram.load(addr - RAM_BASE, size);
            return Ok(M::Word::with_tag(v, t));
        }
        let mut p = GenericPayload::read(addr, size as usize);
        self.mmio(&mut p)?;
        let w = vpdift_core::Taint::<u32>::from_bytes(&{
            let mut lanes = [vpdift_core::Taint::untainted(0u8); 4];
            lanes[..size as usize].copy_from_slice(p.data());
            lanes
        });
        // Tagged data entering the core from a peripheral is a taint
        // source: end any taint-idle fast path.
        self.tags_live |= M::TRACKING && !w.tag().is_empty();
        Ok(M::Word::with_tag(w.value(), w.tag()))
    }

    fn store(&mut self, addr: u32, size: u32, value: M::Word, pc: u32) -> Result<(), MemError> {
        if self.in_ram(addr, size) {
            self.store_clearance(addr, size, value.tag(), pc)?;
            self.ram.store(addr - RAM_BASE, size, value.val(), value.tag());
            return Ok(());
        }
        let word = vpdift_core::Taint::new(value.val(), value.tag());
        let mut lanes = [vpdift_core::Taint::untainted(0u8); 4];
        word.to_bytes(&mut lanes);
        let mut p = GenericPayload::write(addr, &lanes[..size as usize]);
        self.mmio(&mut p)
    }

    fn mutation_epoch(&self) -> u64 {
        self.ram.epoch()
    }

    fn dift_engine(&mut self) -> Option<&mut DiftEngine> {
        Some(self.engine.get_mut())
    }

    fn tags_live(&self) -> bool {
        self.tags_live || self.ram.tags_live()
    }

    /// Set by every MMIO transaction since the last
    /// [`SocBus::clear_irq_dirty`]: interrupt levels may have changed (PLIC
    /// claim, CLINT comparator write, peripheral side effects), so the SoC
    /// loop re-samples them before the next instruction.
    fn irq_dirty(&self) -> bool {
        self.irq_dirty
    }

    fn atomic_supported(&self, addr: u32, size: u32) -> bool {
        // Atomics never reach MMIO: device registers have read/write side
        // effects, so a read-modify-write cannot be made atomic there.
        self.in_ram(addr, size)
    }
}

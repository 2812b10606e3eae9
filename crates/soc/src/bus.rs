//! The system bus as seen by the CPU: a DMI-style fast path into RAM plus
//! TLM routing for everything else, with DIFT store-clearance checks on
//! protected regions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vpdift_core::{AddrRange, SharedCensus, SharedEngine, Tag};
use vpdift_kernel::SimTime;
use vpdift_periph::Ram;
use vpdift_rv32::{Bus, MemError, TaintMode, Word};
use vpdift_sync::Shared;
use vpdift_tlm::{FaultRouter, GenericPayload, Router, SharedFaultHook, TlmResponse};

use crate::map::RAM_BASE;

/// The CPU ⇄ memory-system adapter.
pub struct SocBus<M: TaintMode> {
    ram: Shared<Ram>,
    ram_end: u32,
    /// The system-bus router behind a fault-injection interposer; with no
    /// hook installed the wrapper is a single `Option` check per MMIO
    /// transaction (and the RAM fast path bypasses it entirely).
    router: FaultRouter,
    engine: Option<SharedEngine>,
    /// Regions with write clearance, copied from the policy so the hot
    /// store path can skip the engine borrow when no rule applies.
    protected: Vec<AddrRange>,
    mmio_delay: SimTime,
    irq_dirty: bool,
    /// RAM's mutation-epoch counter, cached here so
    /// [`Bus::mutation_epoch`] is a relaxed atomic load per step.
    ram_epoch: Arc<AtomicU64>,
    /// Live-tag census, armed when tagged data enters the CPU via MMIO
    /// (peripheral ingress like the terminal, sensor, or CAN RX).
    census: Option<SharedCensus>,
    _mode: core::marker::PhantomData<M>,
}

impl<M: TaintMode> SocBus<M> {
    /// Creates the bus. `router` must map every non-RAM target.
    pub fn new(ram: Shared<Ram>, router: Router, engine: Option<SharedEngine>) -> Self {
        let ram_end = RAM_BASE + ram.borrow().len() as u32;
        let protected = engine
            .as_ref()
            .map(|e| {
                e.borrow()
                    .policy()
                    .regions()
                    .iter()
                    .filter(|r| r.write_clearance.is_some())
                    .map(|r| r.range)
                    .collect()
            })
            .unwrap_or_default();
        let census =
            M::TRACKING.then(|| engine.as_ref().map(|e| e.borrow().census().clone())).flatten();
        let ram_epoch = ram.borrow().epoch_handle();
        SocBus {
            ram,
            ram_end,
            router: FaultRouter::new(router),
            engine,
            protected,
            mmio_delay: SimTime::ZERO,
            irq_dirty: false,
            ram_epoch,
            census,
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

    /// The MMIO router (diagnostics).
    pub fn router(&self) -> &Router {
        self.router.inner()
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
            Some(end) => end <= self.ram_end,
            None => false,
        }
    }

    #[inline]
    fn store_clearance(&self, addr: u32, size: u32, tag: Tag, pc: u32) -> Result<(), MemError> {
        if !M::TRACKING || self.protected.is_empty() {
            return Ok(());
        }
        let hit = self.protected.iter().any(|r| (addr..addr + size).any(|a| r.contains(a)));
        if !hit {
            return Ok(());
        }
        // Infallible: `protected` is derived from `engine` in `new()` —
        // it is non-empty only when an engine was supplied, and neither is
        // reassigned afterwards. The early return above keeps this
        // unreachable without one.
        let engine = self.engine.as_ref().expect("protected regions imply engine");
        let mut eng = engine.borrow_mut();
        for a in addr..addr + size {
            eng.check_store(a, tag, Some(pc)).map_err(MemError::Dift)?;
        }
        Ok(())
    }

    fn mmio(&mut self, payload: &mut GenericPayload) -> Result<(), MemError> {
        let mut delay = SimTime::ZERO;
        self.router.route(payload, &mut delay);
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
            let (v, t) = self.ram.borrow().load(pc - RAM_BASE, 4);
            Ok(M::Word::with_tag(v, t))
        } else {
            Err(MemError::Fault { addr: pc })
        }
    }

    fn load(&mut self, addr: u32, size: u32) -> Result<M::Word, MemError> {
        if self.in_ram(addr, size) {
            let (v, t) = self.ram.borrow().load(addr - RAM_BASE, size);
            return Ok(M::Word::with_tag(v, t));
        }
        let mut p = GenericPayload::read(addr, size as usize);
        self.mmio(&mut p)?;
        let w = vpdift_core::Taint::<u32>::from_bytes(&{
            let mut lanes = [vpdift_core::Taint::untainted(0u8); 4];
            lanes[..size as usize].copy_from_slice(p.data());
            lanes
        });
        if M::TRACKING && !w.tag().is_empty() {
            // Tagged data entering the core from a peripheral is a taint
            // source: end any taint-idle fast path.
            if let Some(c) = &self.census {
                c.arm();
            }
        }
        Ok(M::Word::with_tag(w.value(), w.tag()))
    }

    fn store(&mut self, addr: u32, size: u32, value: M::Word, pc: u32) -> Result<(), MemError> {
        if self.in_ram(addr, size) {
            self.store_clearance(addr, size, value.tag(), pc)?;
            self.ram.borrow_mut().store(addr - RAM_BASE, size, value.val(), value.tag());
            return Ok(());
        }
        let word = vpdift_core::Taint::new(value.val(), value.tag());
        let mut lanes = [vpdift_core::Taint::untainted(0u8); 4];
        word.to_bytes(&mut lanes);
        let mut p = GenericPayload::write(addr, &lanes[..size as usize]);
        self.mmio(&mut p)
    }

    fn mutation_epoch(&self) -> u64 {
        self.ram_epoch.load(Ordering::Relaxed)
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

//! The system bus as seen by the CPU: a DMI-style fast path into RAM plus
//! TLM routing by port id to every device, with DIFT store-clearance
//! checks on protected regions and the VP's observability sink.

use vpdift_core::{AddrRange, DiftEngine, FlowObserver, Tag};
use vpdift_kernel::SimTime;
use vpdift_obs::{ArmedBreaks, DynObs, EngineObserverAdapter, ObsEvent, ObsSink, StopFlag};
use vpdift_periph::{
    AesEngine, CanController, Clint, Dma, Plic, Ram, Sensor, TaintDebug, Terminal, Uart, Watchdog,
};
use vpdift_rv32::{Bus, MemError, TaintMode, Word};
use vpdift_sync::MutCell;
use vpdift_tlm::{FaultRouter, GenericPayload, Loan, Router, TlmResponse, TlmTarget};

use crate::map::{self, RAM_BASE};

/// What the bus's two maps decode an address to.
#[derive(Clone, Copy)]
pub(crate) enum Port {
    Ram,
    Clint,
    Plic,
    Uart,
    Terminal,
    Sensor,
    Can,
    Aes,
    Dma,
    TaintDbg,
    Watchdog,
}

/// The system-bus windows (name, base, size, port). RAM is not among
/// them: the CPU reaches it directly.
const SYS_BUS: [(&str, u32, u32, Port); 10] = [
    ("clint", map::CLINT_BASE, map::CLINT_SIZE, Port::Clint),
    ("plic", map::PLIC_BASE, map::PLIC_SIZE, Port::Plic),
    ("uart", map::UART_BASE, map::UART_SIZE, Port::Uart),
    ("terminal", map::TERMINAL_BASE, map::TERMINAL_SIZE, Port::Terminal),
    ("sensor", map::SENSOR_BASE, map::SENSOR_SIZE, Port::Sensor),
    ("can", map::CAN_BASE, map::CAN_SIZE, Port::Can),
    ("aes", map::AES_BASE, map::AES_SIZE, Port::Aes),
    ("dma", map::DMA_BASE, map::DMA_SIZE, Port::Dma),
    ("taintdbg", map::TAINTDBG_BASE, map::TAINTDBG_SIZE, Port::TaintDbg),
    ("watchdog", map::WATCHDOG_BASE, map::WATCHDOG_SIZE, Port::Watchdog),
];

/// The [`SYS_BUS`] windows as (name, range, port).
fn sys_bus() -> impl Iterator<Item = (&'static str, AddrRange, Port)> {
    SYS_BUS.into_iter().map(|(name, base, size, port)| (name, AddrRange::new(base, size), port))
}

/// A router over `windows`. Infallible by construction: the regions in
/// [`map`] are pairwise disjoint (checked by the
/// `memory_map_regions_are_disjoint` test in `map.rs`) and each is mapped
/// at most once per router, so the overlap check cannot fire.
fn router<'a>(
    name: &str,
    windows: impl IntoIterator<Item = (&'a str, AddrRange, Port)>,
) -> Router<Port> {
    let mut router = Router::new(name);
    for (name, range, port) in windows {
        router.map(name, range, port).expect("SoC map regions are disjoint by construction");
    }
    router
}

/// The sink as lent to one emission site: `None` for a disabled sink
/// type, so routers and devices skip building events.
fn lend<S: ObsSink>(obs: &mut MutCell<S>) -> Option<&mut (dyn DynObs + 'static)> {
    if S::ENABLED {
        Some(obs.get_mut())
    } else {
        None
    }
}

/// The SoC's devices other than RAM and the DMA, owned by the system bus.
pub(crate) struct Devices {
    pub(crate) clint: Clint,
    pub(crate) plic: Plic,
    /// In a cell only for `Soc::uart`'s host-side borrows; the bus takes
    /// `get_mut`.
    pub(crate) uart: MutCell<Uart>,
    /// In a cell only for `Soc::terminal`, as `uart`.
    pub(crate) terminal: MutCell<Terminal>,
    pub(crate) sensor: Sensor,
    pub(crate) can: CanController,
    pub(crate) aes: AesEngine,
    pub(crate) taintdbg: TaintDebug,
    pub(crate) watchdog: Watchdog,
}

impl Devices {
    /// Hands one decoded transaction to the device behind `port`, lending
    /// it `loan`; the RAM port reaches the lent memory.
    fn transport(
        &mut self,
        port: Port,
        p: &mut GenericPayload,
        delay: &mut SimTime,
        loan: &mut Loan<'_>,
    ) {
        let target: &mut dyn TlmTarget = match port {
            Port::Ram => return loan.reach(p, delay),
            Port::Clint => &mut self.clint,
            Port::Plic => &mut self.plic,
            Port::Uart => self.uart.get_mut(),
            Port::Terminal => self.terminal.get_mut(),
            Port::Sensor => &mut self.sensor,
            Port::Can => &mut self.can,
            Port::Aes => &mut self.aes,
            Port::TaintDbg => &mut self.taintdbg,
            Port::Watchdog => &mut self.watchdog,
            Port::Dma => unreachable!("the bus routes to the DMA itself"),
        };
        target.transport(p, delay, loan);
    }
}

/// The memory port lent to one DMA transfer: the DMA's port map over RAM
/// and the devices it reaches.
struct DmaPorts<'a> {
    map: &'a Router<Port>,
    ram: &'a mut Ram,
    dev: &'a mut Devices,
}

impl TlmTarget for DmaPorts<'_> {
    fn transport(&mut self, p: &mut GenericPayload, delay: &mut SimTime, loan: &mut Loan<'_>) {
        let DmaPorts { map, ram, dev } = self;
        let pc = loan.pc;
        map.route(p, delay, loan.obs.as_deref_mut(), |port, p, delay, obs| {
            dev.transport(
                port,
                p,
                delay,
                &mut Loan { mem: &mut **ram, engine: loan.engine, obs, pc },
            )
        });
    }
}

/// The CPU ⇄ memory-system adapter, and the one owner of RAM, of the DIFT
/// engine, of the observability sink and of every device: the CPU reads
/// and writes RAM directly, records its violations in the engine and
/// reports its events to the sink ([`Bus::emit`]), and the bus routes each
/// MMIO transaction by port id to the device it holds, lending RAM, the
/// engine and the sink ([`Loan`]) to targets that reach memory, check
/// flows or report events themselves (UART, terminal, CAN, AES, taintdbg).
/// A DMA transfer is lent its port map over RAM, sensor, AES and UART
/// instead of RAM.
pub struct SocBus<M: TaintMode, S: ObsSink> {
    pub(crate) ram: Ram,
    /// The VP's one DIFT engine. The cell serves only `Soc::engine`'s
    /// host-side borrows; the guest path takes `get_mut`.
    pub(crate) engine: MutCell<DiftEngine>,
    /// The VP's one observability sink. The cell serves only `Soc::obs`'s
    /// host-side borrows; every emission site takes `get_mut`.
    pub(crate) obs: MutCell<S>,
    pub(crate) dev: Devices,
    /// Outside [`Devices`] because a transfer borrows the devices.
    pub(crate) dma: Dma,
    /// The system-bus router, holding the one-shot fault
    /// `Soc::arm_mmio_fault` arms; unarmed it costs a single `Option`
    /// check per MMIO transaction (and the RAM fast path bypasses it).
    pub(crate) router: FaultRouter<Port>,
    /// The DMA's port map.
    dma_ports: Router<Port>,
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
    /// The run's stop flag, shared with `SocConfig::stop`: a raised flag
    /// ends an observed slice before the next instruction.
    stop: StopFlag,
    /// The breakpoints the SoC loop found armed at the slice start; an
    /// observed slice ends in front of their pcs.
    pub(crate) breaks: ArmedBreaks,
    _mode: core::marker::PhantomData<M>,
}

impl<M: TaintMode, S: ObsSink> SocBus<M, S> {
    /// Creates the bus over `ram`, `engine`, the sink `obs` and the
    /// devices, with the system-bus map and the DMA's port map. `stop` is
    /// the run's stop flag.
    pub(crate) fn new(
        ram: Ram,
        engine: DiftEngine,
        obs: S,
        dev: Devices,
        dma: Dma,
        stop: StopFlag,
    ) -> Self {
        // The DMA reaches RAM, the sensor, the AES engine and the UART: not
        // itself (re-entrancy) nor the interrupt infrastructure.
        let dma_reach =
            sys_bus().filter(|&(_, _, port)| matches!(port, Port::Sensor | Port::Aes | Port::Uart));
        let ram_window = ("ram", map::ram_range(ram.len()), Port::Ram);
        let dma_ports = router("dma-ports", std::iter::once(ram_window).chain(dma_reach));
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
            obs: MutCell::new(obs),
            dev,
            dma,
            router: FaultRouter::new(router("sys-bus", sys_bus())),
            dma_ports,
            protected,
            mmio_delay: SimTime::ZERO,
            irq_dirty: false,
            tags_live: false,
            stop,
            breaks: ArmedBreaks::default(),
            _mode: core::marker::PhantomData,
        }
    }

    /// Raises in the PLIC every interrupt a device has flagged (sensor
    /// refill, DMA completion) or holds (CAN RX).
    pub(crate) fn raise_irqs(&mut self) {
        let irqs = [
            (map::IRQ_SENSOR, self.dev.sensor.take_irq()),
            (map::IRQ_CAN, self.dev.can.rx_pending()),
            (map::IRQ_DMA, self.dma.take_irq()),
        ];
        for (id, pending) in irqs {
            if pending {
                self.dev.plic.raise(id);
            }
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
        let mut adapter = lend(&mut self.obs).map(EngineObserverAdapter);
        for a in addr..addr + size {
            let obs = adapter.as_mut().map(|a| a as &mut dyn FlowObserver);
            engine.check_store(a, tag, Some(pc), obs).map_err(MemError::Dift)?;
        }
        Ok(())
    }

    /// Routes one MMIO transaction; `pc` is that of the store that
    /// issued it (`None` for a load).
    fn mmio(&mut self, payload: &mut GenericPayload, pc: Option<u32>) -> Result<(), MemError> {
        let mut delay = SimTime::ZERO;
        let SocBus { ram, engine, obs, dev, dma, router, dma_ports, .. } = self;
        let engine = engine.get_mut();
        router.route(payload, &mut delay, lend(obs), |port, p, delay, obs| match port {
            Port::Dma => {
                let mut ports = DmaPorts { map: dma_ports, ram, dev };
                dma.transport(p, delay, &mut Loan { mem: &mut ports, engine, obs, pc });
            }
            _ => dev.transport(port, p, delay, &mut Loan { mem: ram, engine, obs, pc }),
        });
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

impl<M: TaintMode, S: ObsSink> Bus<M> for SocBus<M, S> {
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
        self.mmio(&mut p, None)?;
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
        self.mmio(&mut p, Some(pc))
    }

    fn mutation_epoch(&self) -> u64 {
        self.ram.epoch()
    }

    fn dift_engine(&mut self) -> Option<&mut DiftEngine> {
        Some(self.engine.get_mut())
    }

    const OBSERVED: bool = S::ENABLED;

    fn emit(&mut self, event: &ObsEvent) {
        self.obs.get_mut().event(event);
    }

    /// A raised stop flag (a watch hit, a stop from another thread) ends
    /// the slice right after the instruction that raised it, and an armed
    /// PC breakpoint ends it in front of its instruction; the SoC loop
    /// then stops at the next slice start.
    fn end_slice_before(&self, pc: u32) -> bool {
        self.stop.is_requested() || self.breaks.pcs.contains(&pc)
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

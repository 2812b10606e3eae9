//! Every interrupt source reaches the guest: a sensor refill, a host
//! refill between runs, a DMA completion, a CAN frame from the host and a
//! host-raised PLIC source. The guest enables the one source, parks in
//! `wfi` with `mie.MEIE` set (`mstatus.MIE` clear, so no trap is taken)
//! and claims after it wakes; the claim must name the source. Exit,
//! retired instructions and simulated time are pinned per source, on both
//! engines and both VPs.

use vpdift_asm::{csr, Asm, Reg};
use vpdift_periph::can::CanFrame;
use vpdift_rv32::{ExecMode, Plain, TaintMode, Tainted, Word};
use vpdift_soc::{map, Soc, SocBuilder, SocExit};

use Reg::*;

/// Where an interrupt comes from.
#[derive(Clone, Copy, Debug)]
enum Source {
    /// Fig. 4's generation thread refills the sensor at 25 ms.
    SensorRefill,
    /// The host refills the sensor between runs (thread off).
    HostRefill,
    /// The guest starts a DMA transfer before it parks.
    DmaCompletion,
    /// The host's ECU sends a CAN frame between runs.
    CanFrame,
    /// The host raises PLIC source 7 between runs.
    HostRaise,
}

impl Source {
    fn id(self) -> u32 {
        match self {
            Source::SensorRefill | Source::HostRefill => map::IRQ_SENSOR,
            Source::DmaCompletion => map::IRQ_DMA,
            Source::CanFrame => map::IRQ_CAN,
            Source::HostRaise => 7,
        }
    }

    /// Whether the guest parks until the host acts between two runs.
    fn host_driven(self) -> bool {
        !matches!(self, Source::SensorRefill | Source::DmaCompletion)
    }
}

/// Runs the guest for `source` and returns (exit, claim, instret, now in
/// ps) after the run in which it wakes.
fn wake<M: TaintMode>(source: Source, engine: ExecMode) -> (SocExit, u32, u64, u64) {
    let mut a = Asm::new(0);
    a.li(T0, map::PLIC_BASE as i32);
    a.li(T1, 1 << source.id());
    a.sw(T1, 4, T0); // ENABLE
    a.li(T1, csr::MIE_MEIE as i32);
    a.csrw(csr::MIE, T1);
    if let Source::DmaCompletion = source {
        a.li(S0, map::DMA_BASE as i32);
        a.li(T1, 0x1000);
        a.sw(T1, 0x0, S0); // SRC
        a.li(T1, 0x1100);
        a.sw(T1, 0x4, S0); // DST
        a.li(T1, 4);
        a.sw(T1, 0x8, S0); // LEN
        a.sw(T1, 0xC, S0); // CTRL
    }
    a.wfi();
    a.lw(A0, 8, T0); // CLAIM
    a.ebreak();
    let prog = a.assemble().expect("guest assembles");

    let thread = matches!(source, Source::SensorRefill);
    let cfg = SocBuilder::new().sensor_thread(thread).engine(engine).build();
    let mut soc = Soc::<M>::new(cfg);
    soc.load_program(&prog);
    if source.host_driven() {
        assert_eq!(soc.run(1_000), SocExit::Idle, "{source:?}: nothing wakes the core yet");
        match source {
            Source::HostRefill => soc.sensor_mut().generate_frame(),
            Source::CanFrame => assert!(soc.can_host().send(CanFrame::new(1, &[0]))),
            _ => soc.plic_mut().raise(source.id()),
        }
    }
    let exit = soc.run(1_000);
    (exit, soc.cpu().reg(A0).val(), soc.instret(), soc.now().as_ps())
}

#[test]
fn every_interrupt_source_reaches_the_guest() {
    // Eleven instructions at 10 ns each: eight of set-up, `wfi`, the
    // claim and `ebreak`. The DMA guest has twelve more of set-up and
    // never parks (its interrupt is pending before the `wfi`); the sensor
    // guest parks, the clock jumps to the refill at 25 ms, and the run
    // ends 20 ns later.
    // The sensor thread goes last: a refill that never reached the PLIC
    // would leave that guest parked while refills go on, and the host
    // refill fails fast on the same fault.
    let cases = [
        (Source::HostRefill, 11, 110_000),
        (Source::DmaCompletion, 23, 230_000),
        (Source::CanFrame, 11, 110_000),
        (Source::HostRaise, 11, 110_000),
        (Source::SensorRefill, 11, 25_000_020_000),
    ];
    for (source, instret, now_ps) in cases {
        for engine in [ExecMode::Interp, ExecMode::BlockCache] {
            let want = (SocExit::Break, source.id(), instret, now_ps);
            assert_eq!(wake::<Plain>(source, engine), want, "VP {source:?} on {engine:?}");
            assert_eq!(wake::<Tainted>(source, engine), want, "VP+ {source:?} on {engine:?}");
        }
    }
}

/// A refill in the last clock advance of a run is pending in the PLIC when
/// the run returns, as if the sensor had raised it itself: the guest parks
/// with the sensor's source masked and a watchdog deadline at the first
/// refill, so the run ends right after the clock jumps there.
#[test]
fn a_refill_in_the_last_advance_is_pending_at_exit() {
    let mut a = Asm::new(0);
    a.li(T1, csr::MIE_MEIE as i32);
    a.csrw(csr::MIE, T1);
    a.wfi();
    a.ebreak();
    let prog = a.assemble().expect("guest assembles");
    for engine in [ExecMode::Interp, ExecMode::BlockCache] {
        let mut soc = Soc::<Tainted>::new(SocBuilder::new().engine(engine).build());
        soc.load_program(&prog);
        soc.watchdog_mut().arm(vpdift_kernel::SimTime::from_ms(25));
        assert_eq!(soc.run(1_000), SocExit::WatchdogTimeout, "{engine:?}");
        assert_eq!(soc.sensor().frames_generated(), 1, "{engine:?}");
        assert_eq!(soc.plic().pending(), 1 << map::IRQ_SENSOR, "{engine:?}");
    }
}

//! Graceful degradation at the bus boundary: every unmapped or misaligned
//! MMIO access a guest can issue must surface as a *precise* architectural
//! trap — correct `mcause`, `mtval` holding the faulting address, `mepc`
//! holding the faulting pc — never a host panic. Property-tested on both
//! the plain VP and the taint-tracking VP+.
//!
//! Trap cause map exercised here (the platform reports both load and
//! store access faults through the load-fault cause):
//!
//! | condition                    | mcause |
//! |------------------------------|--------|
//! | misaligned load              | 4      |
//! | unmapped load / store        | 5      |
//! | misaligned store             | 6      |
//!
//! Router `BurstError` (a transfer straddling a mapping boundary) cannot
//! be produced by the CPU port — every mapping is a multiple of 4 bytes
//! and the core rejects misaligned accesses first — so it is exercised
//! through the DMA engine, which must flag the error in its STATUS
//! register without disturbing the guest.

use proptest::prelude::*;
use vpdift_asm::{csr, Asm, Reg};
use vpdift_core::{AddrRange, SecurityPolicy, Tag};
use vpdift_rv32::{ExecMode, Plain, TaintMode, Tainted, Word};
use vpdift_soc::{map, Soc, SocBuilder, SocExit};

/// Marker the main path writes to `a0` when the access did *not* trap.
const NO_TRAP: u32 = 0x600D;

struct AccessOutcome {
    exit: SocExit,
    trapped: bool,
    mcause: u32,
    mtval: u32,
    mepc: u32,
    access_pc: u32,
}

/// Runs a single guest load/store against `addr` with a trap handler
/// installed, and reports the latched trap CSRs.
fn run_access<M: TaintMode>(addr: u32, size: u32, store: bool) -> AccessOutcome {
    let mut a = Asm::new(0);
    a.entry();
    a.la(Reg::T1, "handler");
    a.csrw(csr::MTVEC, Reg::T1);
    a.li(Reg::T0, addr as i32);
    a.label("access");
    match (store, size) {
        (false, 1) => a.lbu(Reg::A1, 0, Reg::T0),
        (false, 2) => a.lhu(Reg::A1, 0, Reg::T0),
        (false, _) => a.lw(Reg::A1, 0, Reg::T0),
        (true, 1) => a.sb(Reg::A1, 0, Reg::T0),
        (true, 2) => a.sh(Reg::A1, 0, Reg::T0),
        (true, _) => a.sw(Reg::A1, 0, Reg::T0),
    };
    a.li(Reg::A0, NO_TRAP as i32);
    a.ebreak();
    a.label("handler");
    a.ebreak();
    let prog = a.assemble().expect("access probe assembles");
    let access_pc = prog.symbol("access").expect("access label");

    let cfg = SocBuilder::new().sensor_thread(false).build();
    let mut soc = Soc::<M>::new(cfg);
    soc.load_program(&prog);
    let exit = soc.run(10_000);
    let trapped = soc.cpu().reg(Reg::A0).val() != NO_TRAP;
    let csrs = soc.cpu().csrs();
    AccessOutcome {
        exit,
        trapped,
        mcause: csrs.mcause.val(),
        mtval: csrs.mtval.val(),
        mepc: csrs.mepc.val(),
        access_pc,
    }
}

/// Word-aligned addresses in the holes of the memory map: no RAM, no
/// device claims them.
fn unmapped_addr() -> impl Strategy<Value = u32> {
    let ram_end = map::RAM_BASE + map::DEFAULT_RAM_SIZE as u32;
    prop_oneof![
        // Between RAM end and the CLINT.
        ram_end..map::CLINT_BASE,
        // Between the UART and the terminal.
        map::UART_BASE + map::UART_SIZE..map::TERMINAL_BASE,
        // Beyond the last mapped device.
        map::WATCHDOG_BASE + map::WATCHDOG_SIZE..0xF000_0000,
    ]
    .prop_map(|a| a & !3)
}

/// (addr, size) pairs the core must reject as misaligned, anywhere in the
/// address space (alignment is checked before the bus ever sees them).
fn misaligned_access() -> impl Strategy<Value = (u32, u32)> {
    (0u32..0x1100_0000, prop_oneof![Just(2u32), Just(4u32)]).prop_filter_map(
        "force a misaligned address for the chosen size",
        |(a, size)| {
            let addr = a | if size == 4 { (a % 3) + 1 } else { 1 };
            (addr % size != 0).then_some((addr, size))
        },
    )
}

fn check_unmapped<M: TaintMode>(addr: u32, size: u32, store: bool) {
    let out = run_access::<M>(addr, size, store);
    assert_eq!(out.exit, SocExit::Break, "handler must regain control");
    assert!(out.trapped, "unmapped access at {addr:#010x} must trap");
    assert_eq!(out.mcause, 5, "access fault cause");
    assert_eq!(out.mtval, addr, "mtval holds the faulting address");
    assert_eq!(out.mepc, out.access_pc, "mepc holds the faulting pc");
}

fn check_misaligned<M: TaintMode>(addr: u32, size: u32, store: bool) {
    let out = run_access::<M>(addr, size, store);
    assert_eq!(out.exit, SocExit::Break, "handler must regain control");
    assert!(out.trapped, "misaligned access at {addr:#010x} must trap");
    assert_eq!(out.mcause, if store { 6 } else { 4 }, "misaligned cause");
    assert_eq!(out.mtval, addr, "mtval holds the faulting address");
    assert_eq!(out.mepc, out.access_pc, "mepc holds the faulting pc");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn unmapped_mmio_traps_precisely(
        addr in unmapped_addr(),
        size in prop_oneof![Just(1u32), Just(2), Just(4)],
        store in any::<bool>(),
    ) {
        check_unmapped::<Plain>(addr, size, store);
        check_unmapped::<Tainted>(addr, size, store);
    }

    #[test]
    fn misaligned_access_traps_precisely(
        access in misaligned_access(),
        store in any::<bool>(),
    ) {
        let (addr, size) = access;
        check_misaligned::<Plain>(addr, size, store);
        check_misaligned::<Tainted>(addr, size, store);
    }
}

/// Aligned accesses that sit *inside* a device mapping but miss every
/// register decode as AddressError → precise access-fault trap too.
#[test]
fn unclaimed_device_register_traps_precisely() {
    for store in [false, true] {
        let addr = map::SENSOR_BASE + 0x48; // beyond frame + tag register
        let out = run_access::<Tainted>(addr, 4, store);
        assert_eq!(out.exit, SocExit::Break);
        assert!(out.trapped);
        assert_eq!(out.mcause, 5);
        assert_eq!(out.mtval, addr);
        assert_eq!(out.mepc, out.access_pc);
    }
}

/// A DMA burst that straddles a mapping boundary gets the router's
/// `BurstError`: the engine latches its error STATUS bit and surfaces a
/// generic error on the CTRL write, which the guest handles as a precise
/// access-fault trap — degraded, not dead.
#[test]
fn dma_burst_across_mapping_end_degrades_gracefully() {
    let ctrl = map::DMA_BASE + 0xC;
    let mut a = Asm::new(0);
    a.entry();
    a.la(Reg::T1, "handler");
    a.csrw(csr::MTVEC, Reg::T1);
    a.li(Reg::S0, map::DMA_BASE as i32);
    // src: last 8 bytes of the sensor mapping + 8 beyond it (the burst
    // straddles the mapping end).
    a.li(Reg::T0, (map::SENSOR_BASE + map::SENSOR_SIZE - 8) as i32);
    a.sw(Reg::T0, 0x0, Reg::S0); // SRC
    a.li(Reg::T0, 0x2000);
    a.sw(Reg::T0, 0x4, Reg::S0); // DST
    a.li(Reg::T0, 16);
    a.sw(Reg::T0, 0x8, Reg::S0); // LEN
    a.li(Reg::T0, 1);
    a.label("go");
    a.sw(Reg::T0, 0xC, Reg::S0); // CTRL: run — errors with BurstError inside
    a.label("handler");
    a.lw(Reg::A0, 0x10, Reg::S0); // STATUS (reached via the trap)
    a.ebreak();
    let prog = a.assemble().expect("dma probe assembles");
    let go_pc = prog.symbol("go").expect("go label");

    let cfg = SocBuilder::new().sensor_thread(false).build();
    let mut soc = Soc::<Tainted>::new(cfg);
    soc.load_program(&prog);
    let exit = soc.run(10_000);
    assert_eq!(exit, SocExit::Break);
    let status = soc.cpu().reg(Reg::A0).val();
    assert_eq!(status & 0b10, 0b10, "DMA error bit set after straddling burst");
    let csrs = soc.cpu().csrs();
    assert_eq!(csrs.mcause.val(), 5, "CTRL write surfaced as an access fault");
    assert_eq!(csrs.mtval.val(), ctrl, "mtval holds the CTRL register address");
    assert_eq!(csrs.mepc.val(), go_pc, "mepc holds the faulting store");
}

/// What a DMA burst reaches: RAM, the sensor, the AES engine and the UART.
/// A burst whose source or destination lies in any other device window
/// misses the DMA's port map (the device would answer the CPU) — the
/// error STATUS bit is set and the CTRL write traps precisely, on both
/// engines and both VPs. Bursts between reachable ports complete.
#[test]
fn dma_bursts_reach_only_ram_sensor_aes_and_uart() {
    const RAM: u32 = 0x2000;
    let unreachable = [
        map::CLINT_BASE,
        map::PLIC_BASE,
        map::DMA_BASE,
        map::TERMINAL_BASE,
        map::CAN_BASE,
        map::TAINTDBG_BASE,
        map::WATCHDOG_BASE,
    ];
    // (src, dst, reached)
    let mut cases = vec![(RAM, map::UART_BASE, true), (map::SENSOR_BASE, RAM, true)];
    for window in unreachable {
        cases.push((window, RAM, false));
        cases.push((RAM, window, false));
    }
    for (src, dst, reached) in cases {
        for engine in [ExecMode::Interp, ExecMode::BlockCache] {
            let want = if reached { (1, None) } else { (0b10, Some(map::DMA_BASE + 0xC)) };
            let what = format!("{src:#010x} -> {dst:#010x} on {engine:?}");
            assert_eq!(dma_probe::<Plain>(src, dst, engine), want, "VP: {what}");
            assert_eq!(dma_probe::<Tainted>(src, dst, engine), want, "VP+: {what}");
        }
    }
}

/// A burst whose destination wraps past `0xFFFF_FFFF` is unreachable as a
/// whole: it fails before any byte moves, with the error STATUS bit and a
/// precise access fault on the CTRL write, on both engines and both VPs.
/// The wrapped tail is never checked against the protected bytes at `0x0`
/// (no write could land there), so no violation is recorded.
#[test]
fn dma_burst_wrapping_past_the_top_of_the_address_space_faults() {
    const SRC: u32 = 0x2000;
    let policy = SecurityPolicy::builder("wrap")
        .classify_region("src", AddrRange::new(SRC, 16), Tag::atom(0))
        .protect_region("low", AddrRange::new(0, 8), Tag::EMPTY)
        .build();
    let mut a = Asm::new(0);
    a.entry();
    a.la(Reg::T1, "handler");
    a.csrw(csr::MTVEC, Reg::T1);
    a.li(Reg::S0, map::DMA_BASE as i32);
    a.li(Reg::T0, SRC as i32);
    a.sw(Reg::T0, 0x0, Reg::S0); // SRC
    a.li(Reg::T0, 0xFFFF_FFF8_u32 as i32);
    a.sw(Reg::T0, 0x4, Reg::S0); // DST: 8 bytes below the top
    a.li(Reg::T0, 16);
    a.sw(Reg::T0, 0x8, Reg::S0); // LEN: 8 bytes past it
    a.li(Reg::T0, 1);
    a.label("go");
    a.sw(Reg::T0, 0xC, Reg::S0); // CTRL
    a.label("handler");
    a.lw(Reg::A0, 0x10, Reg::S0); // STATUS
    a.ebreak();
    let prog = a.assemble().expect("dma probe assembles");

    fn probe<M: TaintMode>(prog: &vpdift_asm::Program, policy: &SecurityPolicy, engine: ExecMode) {
        let cfg =
            SocBuilder::new().policy(policy.clone()).sensor_thread(false).engine(engine).build();
        let mut soc = Soc::<M>::new(cfg);
        soc.load_program(prog);
        let what = format!("{} on {engine:?}", if M::TRACKING { "VP+" } else { "VP" });
        assert_eq!(soc.run(10_000), SocExit::Break, "{what}");
        assert_eq!(soc.cpu().reg(Reg::A0).val() & 0b10, 0b10, "{what}: DMA error bit");
        let csrs = soc.cpu().csrs();
        assert_eq!(csrs.mcause.val(), 5, "{what}: the CTRL write is an access fault");
        assert_eq!(csrs.mtval.val(), map::DMA_BASE + 0xC, "{what}: mtval holds CTRL");
        assert_eq!(csrs.mepc.val(), prog.symbol("go").unwrap(), "{what}: mepc holds the store");
        assert_eq!(soc.engine().borrow().violations(), &[], "{what}: nothing recorded");
    }
    for engine in [ExecMode::Interp, ExecMode::BlockCache] {
        probe::<Plain>(&prog, &policy, engine);
        probe::<Tainted>(&prog, &policy, engine);
    }
}

/// Runs a 4-byte burst from `src` to `dst` and returns the DMA's STATUS
/// and, if the CTRL write trapped, its `mtval` (after checking `mcause`
/// and `mepc`).
fn dma_probe<M: TaintMode>(src: u32, dst: u32, engine: ExecMode) -> (u32, Option<u32>) {
    let mut a = Asm::new(0);
    a.entry();
    a.la(Reg::T1, "handler");
    a.csrw(csr::MTVEC, Reg::T1);
    a.li(Reg::S0, map::DMA_BASE as i32);
    a.li(Reg::T0, src as i32);
    a.sw(Reg::T0, 0x0, Reg::S0); // SRC
    a.li(Reg::T0, dst as i32);
    a.sw(Reg::T0, 0x4, Reg::S0); // DST
    a.li(Reg::T0, 4);
    a.sw(Reg::T0, 0x8, Reg::S0); // LEN
    a.label("go");
    a.sw(Reg::T0, 0xC, Reg::S0); // CTRL
    a.li(Reg::A1, NO_TRAP as i32);
    a.label("handler");
    a.lw(Reg::A0, 0x10, Reg::S0); // STATUS
    a.ebreak();
    let prog = a.assemble().expect("dma probe assembles");

    let cfg = SocBuilder::new().sensor_thread(false).engine(engine).build();
    let mut soc = Soc::<M>::new(cfg);
    soc.load_program(&prog);
    assert_eq!(soc.run(10_000), SocExit::Break);
    let csrs = soc.cpu().csrs();
    let trap = (soc.cpu().reg(Reg::A1).val() != NO_TRAP).then(|| {
        assert_eq!(csrs.mcause.val(), 5, "the CTRL write surfaced as an access fault");
        assert_eq!(csrs.mepc.val(), prog.symbol("go").unwrap(), "mepc holds the CTRL store");
        csrs.mtval.val()
    });
    (soc.cpu().reg(Reg::A0).val(), trap)
}

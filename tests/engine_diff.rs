//! Differential harness: the predecoded block-cache engine must be
//! observationally identical to the reference interpreter.
//!
//! Every scenario runs twice — `ExecMode::Interp` and
//! `ExecMode::BlockCache` — and the harness asserts bit-identical
//! architectural state (register/CSR/RAM digest), the same `SocExit`, the
//! same violation reports, the same UART bytes and the same instruction
//! count. Covered: the full Wilander-Kamkar attack suite (malicious and
//! benign twins), the §VI-A immobilizer scenarios and protocol sessions,
//! the Table II plain/tainted workloads, and self-modifying-code
//! regressions where code is overwritten *after* being cached — by a CPU
//! store, by a DMA burst and from the host.
//! Two hot blocks that share a jump-cache slot, one killed mid-loop, have
//! a case of their own.
//! The slice-dispatch yield rules have their own cases: an interrupt
//! raised by an MMIO store mid-block, step-exact short run budgets, and a
//! stop flag raised on a `NullSink` SoC.
//! With an observed sink a slice runs whole blocks, so every stop must
//! still land on its exact instruction: the `exact_stop_*` cases stop a
//! serve-style `StreamSink` SoC mid-block at a PC breakpoint, an instret
//! breakpoint, a range watch, a sink watch and a violation watch, at the
//! pc and instret the guest's labels give, and resume to the state of an
//! uninterrupted `NullSink` run.
//! Each source of a live tag has a `latch_source_*` case: the block cache
//! skips clearance checks until the taint-idle latch is set, so a source
//! that forgot to set it lets a branch pass that the interpreter stops.
//! One Record-mode guest trips every kind of check site and compares the
//! engine's violation list with one written from the program, and its
//! event stream with `tests/golden/events/every_source.jsonl` (regenerate
//! with `UPDATE_GOLDEN=1` after an intended change).

use taintvp::asm::{Asm, Reg};
use taintvp::attacks::{all_attacks, run_attack_captured};
use taintvp::core::AddrRange;
use taintvp::firmware::table2_workloads;
use taintvp::immo::{run_scenario_with, run_session_with, PolicyKind, Scenario, Variant};
use taintvp::kernel::SimTime;
use taintvp::prelude::{
    map, BreakKind, BreakSet, EnforceMode, ExecMode, Plain, Recorder, SecurityPolicy, Soc, SocExit,
    StopFlag, StreamSink, Tag, Taint, TaintMode, Tainted, ViolationKind, WatchKind,
};
use taintvp::rv32::Word;

/// The atom the latch and violation cases classify with.
const SECRET: Tag = Tag::atom(0);

/// Runs one SoC program under both engines and returns
/// `(exit, uart, instret, digest, now)` per engine for comparison.
fn run_both<M: TaintMode>(
    prog: &taintvp::asm::Program,
    budget: u64,
) -> [(SocExit, Vec<u8>, u64, u64, SimTime); 2] {
    [ExecMode::Interp, ExecMode::BlockCache].map(|mode| {
        let cfg = Soc::<M>::builder().sensor_thread(false).engine(mode).build();
        let mut soc = Soc::<M>::new(cfg);
        soc.load_program(prog);
        let exit = soc.run(budget);
        let uart = soc.uart().borrow().output().to_vec();
        (exit, uart, soc.instret(), soc.state_digest(), soc.now())
    })
}

#[test]
fn attack_suite_is_engine_invariant() {
    for attack in all_attacks() {
        if attack.form.is_none() {
            continue;
        }
        for benign in [false, true] {
            let interp = run_attack_captured(&attack, benign, ExecMode::Interp).unwrap();
            let cached = run_attack_captured(&attack, benign, ExecMode::BlockCache).unwrap();
            assert_eq!(interp, cached, "attack #{} (benign={benign}): engines disagree", attack.id);
        }
    }
}

#[test]
fn immobilizer_scenarios_are_engine_invariant() {
    for s in Scenario::ALL {
        for per_byte in [false, true] {
            let interp = run_scenario_with(s, per_byte, ExecMode::Interp);
            let cached = run_scenario_with(s, per_byte, ExecMode::BlockCache);
            assert_eq!(interp.detected, cached.detected, "{}: detection differs", s.name());
            assert_eq!(interp.violation, cached.violation, "{}: violation differs", s.name());
        }
    }
}

#[test]
fn immobilizer_sessions_are_engine_invariant() {
    for (variant, kind, rounds, console) in [
        (Variant::Fixed, PolicyKind::Coarse, 3, b"q".as_slice()),
        (Variant::Fixed, PolicyKind::PerByte, 2, b"q".as_slice()),
        (Variant::Vulnerable, PolicyKind::Coarse, 0, b"dq".as_slice()),
    ] {
        let interp = run_session_with::<Tainted>(variant, kind, rounds, console, ExecMode::Interp);
        let cached =
            run_session_with::<Tainted>(variant, kind, rounds, console, ExecMode::BlockCache);
        assert_eq!(interp.exit, cached.exit, "exit differs for {variant:?}/{kind:?}");
        assert_eq!(interp.authentications, cached.authentications);
        assert_eq!(interp.uart, cached.uart);
        assert_eq!(interp.instret, cached.instret);
        assert_eq!(interp.digest, cached.digest, "state digest differs for {variant:?}/{kind:?}");
    }
}

#[test]
fn table2_workloads_are_engine_invariant_on_both_vps() {
    for w in table2_workloads(1) {
        if w.needs_sensor {
            // The sensor thread is timing-driven, not step-driven; covered
            // by the session tests above. Keep this harness deterministic.
            continue;
        }
        let [pi, pc] = run_both::<Plain>(&w.program, w.max_insns);
        assert_eq!(pi, pc, "{}: plain VP engines disagree", w.name);
        let [ti, tc] = run_both::<Tainted>(&w.program, w.max_insns);
        assert_eq!(ti, tc, "{}: VP+ engines disagree", w.name);
        assert_eq!(pi.0, SocExit::Break, "{}: workload must complete", w.name);
    }
}

/// Self-modifying code at SoC level: a loop body is executed (and thus
/// cached), then the guest overwrites one of its instructions and runs it
/// again. The block cache must re-decode and match the interpreter.
#[test]
fn smc_overwrite_after_caching_is_engine_invariant() {
    let mut a = Asm::new(0);
    a.entry();
    a.li(Reg::A0, 0);
    a.li(Reg::S0, 3); // three passes over the patched region
    a.label("outer");
    a.label("patch");
    a.addi(Reg::A0, Reg::A0, 1); // becomes `addi a0, a0, 100` mid-run
    a.addi(Reg::S0, Reg::S0, -1);
    a.beqz(Reg::S0, "done");
    // After the first pass, rewrite the patch instruction.
    a.la(Reg::T0, "patch");
    a.li(Reg::T1, 0x0645_0513u32 as i32); // addi a0, a0, 100
    a.sw(Reg::T1, 0, Reg::T0);
    a.j("outer");
    a.label("done");
    a.ebreak();
    let prog = a.assemble().expect("smc guest assembles");

    let [pi, pc] = run_both::<Plain>(&prog, 1_000);
    assert_eq!(pi, pc, "plain VP engines disagree on SMC");
    let [ti, tc] = run_both::<Tainted>(&prog, 1_000);
    assert_eq!(ti, tc, "VP+ engines disagree on SMC");
    assert_eq!(pi.0, SocExit::Break);

    // Semantics check: pass 1 adds 1, passes 2 and 3 add 100 each.
    let cfg = Soc::<Plain>::builder().sensor_thread(false).engine(ExecMode::BlockCache).build();
    let mut soc = Soc::<Plain>::new(cfg);
    soc.load_program(&prog);
    assert_eq!(soc.run(1_000), SocExit::Break);
    assert_eq!(soc.cpu().reg(Reg::A0), 201, "patched add must take effect after caching");
    let stats = soc.engine_stats().expect("block cache stats");
    assert!(stats.invalidations > 0, "the overwrite must invalidate a cached block");
}

/// Two hot blocks 1024 bytes apart share a slot of the block cache's
/// direct-mapped jump cache, and a CPU store kills one of them mid-loop.
/// Every call must run the live block that starts at its own pc — right
/// after the kill, the slot still names the killed block — exactly as the
/// interpreter does.
#[test]
fn jump_cache_slot_aliasing_is_engine_invariant() {
    let mut a = Asm::new(0);
    a.entry();
    a.li(Reg::A0, 0);
    a.li(Reg::S0, 20);
    a.li(Reg::T2, 10);
    a.label("loop");
    a.call("near");
    a.call("far");
    a.addi(Reg::S0, Reg::S0, -1);
    a.bne(Reg::S0, Reg::T2, "next");
    // After the 10th pass, while both blocks are cached, patch `far` and
    // call it again before `near` takes the slot back.
    a.la(Reg::T0, "far");
    a.li(Reg::T1, 0x3E85_0513u32 as i32); // addi a0, a0, 1000
    a.sw(Reg::T1, 0, Reg::T0);
    a.call("far");
    a.label("next");
    a.bnez(Reg::S0, "loop");
    a.ebreak();
    a.align(1024);
    a.label("near");
    a.addi(Reg::A0, Reg::A0, 1);
    a.ret();
    a.align(1024);
    a.label("far");
    a.addi(Reg::A0, Reg::A0, 100);
    a.ret();
    let prog = a.assemble().expect("aliasing guest assembles");
    let (near, far) = (prog.symbol("near").unwrap(), prog.symbol("far").unwrap());
    assert_eq!(far - near, 1024, "the two blocks must share a jump-cache slot");

    let [pi, pc] = run_both::<Plain>(&prog, 10_000);
    assert_eq!(pi, pc, "plain VP engines disagree");
    assert_eq!(pi.0, SocExit::Break);
    let [ti, tc] = run_both::<Tainted>(&prog, 10_000);
    assert_eq!(ti, tc, "VP+ engines disagree");
}

/// `addi a0, a0, 100`: the word patched over a cached loop body.
const ADD_100: u32 = 0x0645_0513;

/// A hot loop of 20 passes over `patch: addi a0, a0, 1`. With `dma`, the
/// guest itself has the DMA copy `ADD_100` from a data word over `patch`
/// after the 10th pass, when the block cache has long held the loop.
fn patched_loop(dma: bool) -> taintvp::asm::Program {
    let mut a = Asm::new(0);
    a.entry();
    a.li(Reg::A0, 0);
    a.li(Reg::S0, 20);
    a.li(Reg::T2, 10);
    a.label("patch");
    a.addi(Reg::A0, Reg::A0, 1);
    a.addi(Reg::S0, Reg::S0, -1);
    a.beqz(Reg::S0, "done");
    a.bne(Reg::S0, Reg::T2, "patch");
    if dma {
        a.li(Reg::T0, map::DMA_BASE as i32);
        a.la(Reg::T1, "new_insn");
        a.sw(Reg::T1, 0x0, Reg::T0); // SRC
        a.la(Reg::T1, "patch");
        a.sw(Reg::T1, 0x4, Reg::T0); // DST
        a.li(Reg::T1, 4);
        a.sw(Reg::T1, 0x8, Reg::T0); // LEN
        a.li(Reg::T1, 1);
        a.sw(Reg::T1, 0xC, Reg::T0); // CTRL: start
    }
    a.j("patch");
    a.label("done");
    a.ebreak();
    a.label("new_insn");
    a.word(ADD_100);
    a.assemble().expect("patched-loop guest assembles")
}

/// Runs `prog` on both engines: `first` steps, then `patch` (host side),
/// then to the end. Returns `(exit, a0, instret, digest)` per engine.
fn run_patched<M: TaintMode>(
    prog: &taintvp::asm::Program,
    first: u64,
    patch: impl Fn(&mut Soc<M>),
) -> [(SocExit, u32, u64, u64); 2] {
    [ExecMode::Interp, ExecMode::BlockCache].map(|mode| {
        let cfg = Soc::<M>::builder().sensor_thread(false).engine(mode).build();
        let mut soc = Soc::<M>::new(cfg);
        soc.load_program(prog);
        assert_eq!(soc.run(first), SocExit::InstrLimit);
        patch(&mut soc);
        let exit = soc.run(10_000);
        (exit, soc.cpu().reg(Reg::A0).val(), soc.instret(), soc.state_digest())
    })
}

/// Code overwritten by DMA, not by the CPU: the burst bypasses the CPU's
/// store path, so only the RAM's mutation epoch tells the block cache its
/// decoded loop body is stale.
#[test]
fn dma_overwrite_of_cached_code_is_engine_invariant() {
    let prog = patched_loop(true);
    let [pi, pc] = run_patched::<Plain>(&prog, 0, |_| {});
    assert_eq!(pi, pc, "plain VP engines disagree on DMA-patched code");
    let [ti, tc] = run_patched::<Tainted>(&prog, 0, |_| {});
    assert_eq!(ti, tc, "VP+ engines disagree on DMA-patched code");
    assert_eq!(pi.0, SocExit::Break);
    assert_eq!(pi.1, 10 + 10 * 100, "ten passes before the DMA, ten after");
}

/// Code overwritten host-side between two runs through `Soc::ram_mut`.
#[test]
fn host_overwrite_of_cached_code_is_engine_invariant() {
    let prog = patched_loop(false);
    let at = prog.symbol("patch").expect("patch label");
    // Three `li` of two insns each, then four per pass: stop after pass 10.
    let patch = |soc: &mut Soc<Tainted>| soc.ram_mut().load_image(at, &ADD_100.to_le_bytes());
    let [ti, tc] = run_patched::<Tainted>(&prog, 3 * 2 + 10 * 4, patch);
    assert_eq!(ti, tc, "VP+ engines disagree on host-patched code");
    assert_eq!(ti.0, SocExit::Break);
    assert_eq!(ti.1, 10 + 10 * 100, "ten passes before the patch, ten after");
}

/// The block cache reports its statistics; on a hot loop nearly every
/// step is a cache hit, and on the plain VP no taint checks run at all.
#[test]
fn block_cache_stats_reflect_hot_loops() {
    let mut a = Asm::new(0);
    a.entry();
    a.li(Reg::T0, 20_000);
    a.label("spin");
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "spin");
    a.ebreak();
    let prog = a.assemble().unwrap();
    let cfg = Soc::<Tainted>::builder().sensor_thread(false).engine(ExecMode::BlockCache).build();
    let mut soc = Soc::<Tainted>::new(cfg);
    soc.load_program(&prog);
    assert_eq!(soc.run(100_000), SocExit::Break);
    let stats = soc.engine_stats().expect("block cache stats");
    assert!(stats.hits > 10 * stats.misses.max(1), "hot loop must hit the cache");
    // Nothing classified and no tagged ingress: the whole run stays on the
    // taint-idle fast path.
    assert_eq!(stats.checked_steps, 0, "untainted run must not pay for checks");
    assert!(stats.idle_steps > 0);
}

/// The trap-loop detector (a guest wedged re-entering its own trap
/// handler after a bit flip turns a spin jump into a faulting opcode)
/// fires identically under both engines — previously only exercised on
/// the interpreter via the directed campaign scenario.
#[test]
fn trap_loop_detection_is_engine_invariant() {
    use taintvp::faults::{run_with_faults, FaultKind, PlannedFault};

    let results = [ExecMode::Interp, ExecMode::BlockCache].map(|mode| {
        let cfg = Soc::<Tainted>::builder().sensor_thread(false).engine(mode).build();
        let mut soc = Soc::<Tainted>::new(cfg);
        // `jal x0, 0`: spin-at-zero; the flipped bit 6 makes it faulting,
        // and with mtvec=0 every trap lands back on the broken opcode.
        soc.ram_mut().load_image(0, &0x0000_006Fu32.to_le_bytes());
        soc.cpu_mut().reset(0);
        let plan =
            vec![PlannedFault { at_step: 50, kind: FaultKind::RamDataFlip { offset: 0, bit: 6 } }];
        let (exit, _) = run_with_faults(&mut soc, 20_000, &plan);
        (exit, soc.instret(), soc.cpu().traps_taken(), soc.state_digest())
    });
    assert_eq!(results[0].0, SocExit::TrapLoop, "interpreter detects the trap loop");
    assert_eq!(results[1].0, SocExit::TrapLoop, "block cache detects the trap loop");
    assert_eq!(results[0], results[1], "engines disagree on trap-loop detection");
}

/// LR/SC under contention: reservations established in one cached block
/// and consumed (or killed) in another must behave identically across
/// engines — including the reservation state folded into the digest.
#[test]
fn lrsc_contention_is_engine_invariant() {
    let mut a = Asm::new(0);
    a.entry();
    let cell = 0x7000;
    a.li(Reg::S0, cell);
    a.sw(Reg::Zero, 0, Reg::S0);
    a.li(Reg::S1, 0); // SC-failure tally
                      // Round 1: clean LR/SC pair — must succeed.
    a.lr_w(Reg::T0, Reg::S0);
    a.addi(Reg::T0, Reg::T0, 1);
    a.sc_w(Reg::A0, Reg::T0, Reg::S0);
    a.add(Reg::S1, Reg::S1, Reg::A0);
    // Round 2: an intervening store "contends" and kills the reservation.
    a.lr_w(Reg::T0, Reg::S0);
    a.sw(Reg::T0, 64, Reg::S0);
    a.addi(Reg::T0, Reg::T0, 1);
    a.sc_w(Reg::A0, Reg::T0, Reg::S0);
    a.add(Reg::S1, Reg::S1, Reg::A0);
    // Round 3: reservation taken in one block, SC reached through a
    // branch in another — the cache must carry the reservation across
    // block boundaries.
    a.lr_w(Reg::T0, Reg::S0);
    a.beqz(Reg::Zero, "far_sc");
    a.ebreak(); // unreachable
    a.label("far_sc");
    a.addi(Reg::T0, Reg::T0, 1);
    a.sc_w(Reg::A0, Reg::T0, Reg::S0);
    a.add(Reg::S1, Reg::S1, Reg::A0);
    // Round 4: SC with no reservation at all.
    a.sc_w(Reg::A0, Reg::T0, Reg::S0);
    a.add(Reg::S1, Reg::S1, Reg::A0);
    a.lw(Reg::A1, 0, Reg::S0);
    a.ebreak();
    let prog = a.assemble().expect("lrsc guest assembles");

    let [pi, pc] = run_both::<Plain>(&prog, 1_000);
    assert_eq!(pi, pc, "plain VP engines disagree on LR/SC contention");
    let [ti, tc] = run_both::<Tainted>(&prog, 1_000);
    assert_eq!(ti, tc, "VP+ engines disagree on LR/SC contention");
    assert_eq!(pi.0, SocExit::Break);

    // Semantics: rounds 1 and 3 succeed, rounds 2 and 4 fail (tally 2),
    // so the cell ends at 2.
    let cfg = Soc::<Plain>::builder().sensor_thread(false).build();
    let mut soc = Soc::<Plain>::new(cfg);
    soc.load_program(&prog);
    assert_eq!(soc.run(1_000), SocExit::Break);
    assert_eq!(soc.cpu().reg(Reg::S1), 2, "exactly two SCs must fail");
    assert_eq!(soc.cpu().reg(Reg::A1), 2, "two successful increments");
}

/// Atomics on MMIO are access faults, not read-modify-writes with device
/// side effects — and the trap must look the same under both engines.
#[test]
fn amo_on_mmio_traps_identically_on_both_engines() {
    use taintvp::asm::csr;
    use taintvp::soc::map;

    let mut a = Asm::new(0);
    a.entry();
    a.la(Reg::T0, "handler");
    a.csrw(csr::MTVEC, Reg::T0);
    a.li(Reg::S0, map::UART_BASE as i32);
    a.li(Reg::T1, 1);
    a.amoadd_w(Reg::T2, Reg::T1, Reg::S0); // store fault, no UART write
    a.ebreak(); // skipped: the handler exits
    a.align(4);
    a.label("handler");
    a.csrr(Reg::A0, csr::MCAUSE);
    a.csrr(Reg::A1, csr::MTVAL);
    a.ebreak();
    let prog = a.assemble().expect("mmio amo guest assembles");

    let [pi, pc] = run_both::<Plain>(&prog, 1_000);
    assert_eq!(pi, pc, "plain VP engines disagree on AMO-to-MMIO");
    let [ti, tc] = run_both::<Tainted>(&prog, 1_000);
    assert_eq!(ti, tc, "VP+ engines disagree on AMO-to-MMIO");
    assert_eq!(pi.0, SocExit::Break);
    assert!(pi.1.is_empty(), "the faulting AMO must not reach the UART");

    let cfg = Soc::<Plain>::builder().sensor_thread(false).build();
    let mut soc = Soc::<Plain>::new(cfg);
    soc.load_program(&prog);
    assert_eq!(soc.run(1_000), SocExit::Break);
    assert_eq!(soc.cpu().reg(Reg::A0), csr::cause::STORE_FAULT, "AMO faults as a store");
    assert_eq!(soc.cpu().reg(Reg::A1), map::UART_BASE, "mtval holds the MMIO address");
}

/// SC-after-intervening-store over *tainted* data: the failed SC, the
/// taint carried by the intervening store and the final AMO over a
/// classified cell must leave bit-identical tag state (the state digest
/// folds in per-byte tags) on both engines.
#[test]
fn tainted_atomics_digest_is_engine_invariant() {
    use taintvp::core::Tag;
    use taintvp::rv32::Word as _;

    let cell: u32 = 0x7000;
    let results = [ExecMode::Interp, ExecMode::BlockCache].map(|mode| {
        let mut a = Asm::new(0);
        a.entry();
        a.li(Reg::S0, cell as i32);
        a.lr_w(Reg::T0, Reg::S0); // tainted load: T0 carries the tag
        a.sw(Reg::T0, 32, Reg::S0); // intervening store spreads the taint…
        a.addi(Reg::T0, Reg::T0, 1);
        a.sc_w(Reg::A0, Reg::T0, Reg::S0); // …and this SC must fail
        a.li(Reg::T1, 5);
        a.amoadd_w(Reg::T2, Reg::T1, Reg::S0); // written tag = lub(cell, clean)
        a.ebreak();
        let prog = a.assemble().expect("tainted atomics guest assembles");

        let cfg = Soc::<Tainted>::builder().sensor_thread(false).engine(mode).build();
        let mut soc = Soc::<Tainted>::new(cfg);
        soc.load_program(&prog);
        soc.ram_mut().classify(cell, 4, Tag::from_bits(0b10));
        let exit = soc.run(1_000);
        let spread_tag = soc.ram().load(cell + 32, 4).1;
        let cell_tag = soc.ram().load(cell, 4).1;
        let sc_result = soc.cpu().reg(Reg::A0).val();
        (exit, sc_result, soc.instret(), soc.state_digest(), spread_tag, cell_tag)
    });
    assert_eq!(results[0], results[1], "engines disagree on tainted atomics");
    assert_eq!(results[0].0, SocExit::Break);
    assert_eq!(results[0].1, 1, "the SC after the intervening store must fail");
    assert_eq!(results[0].4, Tag::from_bits(0b10), "the intervening store spreads the tag");
    assert_eq!(results[0].5, Tag::from_bits(0b10), "the AMO write keeps the cell tainted");
}

/// The platform watchdog (armed, waiting on a CAN frame the wire drops)
/// bites identically under both engines.
#[test]
fn watchdog_timeout_is_engine_invariant() {
    use taintvp::kernel::SimTime;
    use taintvp::periph::can::regs as can_regs;
    use taintvp::periph::CanFrame;
    use taintvp::soc::map;

    let results = [ExecMode::Interp, ExecMode::BlockCache].map(|mode| {
        let mut a = Asm::new(0);
        a.entry();
        a.li(Reg::S0, map::CAN_BASE as i32);
        a.label("poll");
        a.lw(Reg::T0, can_regs::RX_AVAIL as i32, Reg::S0);
        a.beqz(Reg::T0, "poll");
        a.ebreak();
        let prog = a.assemble().expect("watchdog guest assembles");

        let cfg = Soc::<Tainted>::builder().sensor_thread(false).engine(mode).build();
        let mut soc = Soc::<Tainted>::new(cfg);
        soc.load_program(&prog);
        soc.can_host().arm_drop(1);
        soc.watchdog_mut().arm(SimTime::from_ms(1));
        let delivered = soc.can_host().send(CanFrame::new(0x10, &[1, 2, 3, 4, 5, 6, 7, 8]));
        assert!(!delivered, "the armed drop must lose the frame");
        let exit = soc.run(5_000_000);
        (exit, soc.instret(), soc.state_digest())
    });
    assert_eq!(results[0].0, SocExit::WatchdogTimeout, "interpreter watchdog bites");
    assert_eq!(results[1].0, SocExit::WatchdogTimeout, "block-cache watchdog bites");
    assert_eq!(results[0], results[1], "engines disagree on watchdog timeout");
}

/// A CLINT `msip` store in the middle of a straight-line block raises a
/// software interrupt that must be taken before the next instruction, as
/// the interpreter takes it: the slice has to end right after the MMIO
/// store so the SoC re-samples the interrupt lines.
#[test]
fn mmio_raised_interrupt_is_taken_mid_block_on_both_engines() {
    use taintvp::asm::csr;
    use taintvp::periph::clint::regs as clint_regs;
    use taintvp::soc::map;

    let mut a = Asm::new(0);
    a.entry();
    a.la(Reg::T0, "handler");
    a.csrw(csr::MTVEC, Reg::T0);
    a.li(Reg::T1, csr::MIE_MSIE as i32); // mie.MSIE and mstatus.MIE
    a.csrw(csr::MIE, Reg::T1);
    a.csrw(csr::MSTATUS, Reg::T1);
    a.li(Reg::S0, (map::CLINT_BASE + clint_regs::MSIP) as i32);
    a.li(Reg::A0, 0);
    a.li(Reg::T2, 1);
    a.sw(Reg::T2, 0, Reg::S0); // msip = 1: the interrupt pends here
    for _ in 0..8 {
        a.addi(Reg::A0, Reg::A0, 1); // all eight retire after the handler
    }
    a.ebreak();
    a.align(4);
    a.label("handler");
    a.mv(Reg::A1, Reg::A0); // increments retired before the interrupt
    a.csrr(Reg::A2, csr::INSTRET); // compared across engines via the digest
    a.sw(Reg::Zero, 0, Reg::S0); // msip = 0
    a.mret();
    let prog = a.assemble().expect("msip guest assembles");

    let [pi, pc] = run_both::<Plain>(&prog, 1_000);
    assert_eq!(pi, pc, "plain VP engines disagree on an MMIO-raised interrupt");
    let [ti, tc] = run_both::<Tainted>(&prog, 1_000);
    assert_eq!(ti, tc, "VP+ engines disagree on an MMIO-raised interrupt");
    assert_eq!(pi.0, SocExit::Break);

    let cfg = Soc::<Plain>::builder().sensor_thread(false).engine(ExecMode::BlockCache).build();
    let mut soc = Soc::<Plain>::new(cfg);
    soc.load_program(&prog);
    assert_eq!(soc.run(1_000), SocExit::Break);
    assert_eq!(soc.cpu().reg(Reg::A1), 0, "the interrupt preempts the first increment");
    assert_eq!(soc.cpu().reg(Reg::A0), 8);
}

/// Repeated short `Soc::run(n)` calls, `n` cycling through `1..=300`,
/// end every call on the same step under both engines — a budget can
/// expire mid-block, and the fault injector relies on it landing exactly.
/// The guest is preemptively scheduled by the CLINT timer, so any
/// misplaced slice end also moves every later context switch.
#[test]
fn step_exact_short_runs_are_engine_invariant() {
    fn sliced<M: TaintMode>(mode: ExecMode) -> (Vec<u64>, SocExit, u64, SimTime, u64) {
        let w = taintvp::firmware::rtos::build(6, 100, 5);
        let cfg = Soc::<M>::builder().sensor_thread(false).engine(mode).build();
        let mut soc = Soc::<M>::new(cfg);
        soc.load_program(&w.program);
        let mut trail = Vec::new();
        let exit = loop {
            let n = trail.len() as u64 % 300 + 1;
            let exit = soc.run(n);
            trail.push(soc.instret());
            if exit != SocExit::InstrLimit || trail.len() > 10_000 {
                break exit;
            }
        };
        (trail, exit, soc.instret(), soc.now(), soc.state_digest())
    }
    let interp = sliced::<Plain>(ExecMode::Interp);
    assert_eq!(interp.1, SocExit::Break, "the sliced guest runs to completion");
    assert_eq!(interp, sliced::<Plain>(ExecMode::BlockCache), "plain VP engines disagree");
    assert_eq!(
        sliced::<Tainted>(ExecMode::Interp),
        sliced::<Tainted>(ExecMode::BlockCache),
        "VP+ engines disagree"
    );
}

/// A stop flag raised from another thread, as a fleet deadline reaper
/// raises it, ends a `NullSink` run of an endless loop at the next slice
/// boundary on both engines. The run resumes from the exact stop point:
/// a following budget lands step-exact on the state an uninterrupted run
/// of the same length reaches.
#[test]
fn stop_flag_on_a_null_sink_soc_stops_and_resumes_on_both_engines() {
    use taintvp::obs::StopFlag;

    let mut a = Asm::new(0);
    a.entry();
    a.li(Reg::A0, 0);
    a.label("spin");
    a.addi(Reg::A0, Reg::A0, 1);
    a.xor(Reg::A1, Reg::A1, Reg::A0);
    a.j("spin");
    a.label("end");
    let prog = a.assemble().expect("spin guest assembles");
    let spin = prog.symbol("spin").expect("label")..prog.symbol("end").expect("label");

    for mode in [ExecMode::Interp, ExecMode::BlockCache] {
        let builder = || Soc::<Plain>::builder().sensor_thread(false).engine(mode);
        let stop = StopFlag::new();
        let mut soc = Soc::<Plain>::new(builder().stop_flag(stop.clone()).build());
        soc.load_program(&prog);
        assert_eq!(soc.run(10), SocExit::InstrLimit, "{mode}: into the loop");
        // The pause only makes a stop mid-run likely: a flag raised before
        // the run starts stops it at its first poll, and passes as well.
        let reaper = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            stop.request();
        });
        assert_eq!(soc.run(u64::MAX), SocExit::Stopped, "{mode}: the raised flag stops the run");
        reaper.join().expect("the reaper thread");
        assert!(spin.contains(&soc.cpu().pc()), "{mode}: stopped inside the loop");

        let stopped_at = soc.instret();
        assert_eq!(soc.run(1_000), SocExit::InstrLimit, "{mode}: the run resumes");
        assert_eq!(soc.instret(), stopped_at + 1_000, "{mode}: step-exact after the stop");
        let mut fresh = Soc::<Plain>::new(builder().build());
        fresh.load_program(&prog);
        assert_eq!(fresh.run(stopped_at + 1_000), SocExit::InstrLimit);
        assert_eq!(soc.state_digest(), fresh.state_digest(), "{mode}: final state differs");
    }
}

/// The guest of the `exact_stop_*` cases: three passes of a loop body
/// that loads a classified byte and stores it to RAM and to the UART. The
/// first pass runs in the block that starts at the entry, later passes in
/// the one that starts at `loop`, so every other label is mid-block.
fn stop_guest() -> taintvp::asm::Program {
    let mut a = Asm::new(0);
    a.entry();
    a.la(Reg::S0, "buf");
    a.la(Reg::S3, "secret");
    a.li(Reg::S1, map::UART_BASE as i32);
    a.li(Reg::S2, 3);
    a.label("loop");
    a.lbu(Reg::A0, 0, Reg::S3);
    a.addi(Reg::A1, Reg::A1, 1);
    a.label("mid");
    a.addi(Reg::A2, Reg::A2, 2);
    a.label("store");
    a.sb(Reg::A0, 0, Reg::S0);
    a.addi(Reg::A3, Reg::A3, 3);
    a.label("target");
    a.add(Reg::A4, Reg::A4, Reg::A3);
    a.label("tainted");
    a.addi(Reg::A5, Reg::A5, 5);
    a.addi(Reg::A6, Reg::A6, 6);
    a.label("uart_store");
    a.sb(Reg::A0, 0, Reg::S1);
    a.addi(Reg::S2, Reg::S2, -1);
    a.bnez(Reg::S2, "loop");
    a.label("done");
    a.ebreak();
    a.label("secret");
    a.byte(0x5A);
    a.align(4);
    a.label("buf");
    a.word(0);
    a.assemble().expect("stop guest assembles")
}

/// Where the `exact_stop_*` cases must stop, from the guest's labels
/// alone: the run stops in front of `label` (`after` false) or right
/// after the instruction there (`after` true), on loop pass `pass`
/// (from 0). Every instruction is one 4-byte word, and the code from the
/// entry to `done` is straight-line but for the loop's back branch.
fn stop_point(prog: &taintvp::asm::Program, label: &str, after: bool, pass: u64) -> (u32, u64) {
    let at = |l: &str| prog.symbol(l).expect("label");
    let pc = at(label) + if after { 4 } else { 0 };
    let body = u64::from(at("done") - at("loop")) / 4;
    (pc, u64::from(pc - prog.entry()) / 4 + pass * body)
}

/// Runs `prog` in record mode on a `StreamSink` SoC whose stop flag and
/// breakpoint set are shared with its config, as a serve session's are.
/// `arm` sets one breakpoint or watch; the run must then stop at each of
/// `stops` in turn. Disarmed, it resumes to the guest's `ebreak`, and
/// must end in the state a `NullSink` batch run of the same step count
/// reaches.
fn assert_exact_stops(
    prog: &taintvp::asm::Program,
    policy: &SecurityPolicy,
    arm: impl Fn(&mut StreamSink, &BreakSet),
    stops: &[(u32, u64)],
) {
    for mode in [ExecMode::Interp, ExecMode::BlockCache] {
        let builder = || {
            Soc::<Tainted>::builder()
                .policy(policy.clone())
                .enforce(EnforceMode::Record)
                .sensor_thread(false)
                .engine(mode)
        };
        let (stop, breaks) = (StopFlag::new(), BreakSet::new());
        let cfg = builder().stop_flag(stop.clone()).breakpoints(breaks.clone()).build();
        let sink = StreamSink::new(Recorder::new(0).with_explain(), stop);
        let mut soc = Soc::<Tainted, StreamSink>::with_obs(cfg, sink);
        soc.load_program(prog);
        arm(&mut soc.obs().borrow_mut(), &breaks);
        for (i, &want) in stops.iter().enumerate() {
            assert_eq!(soc.run(10_000), SocExit::Stopped, "{mode}: stop {i}");
            assert_eq!((soc.cpu().pc(), soc.instret()), want, "{mode}: stop {i} (pc, instret)");
        }
        for bp in breaks.list() {
            breaks.remove(bp.id);
        }
        let watches: Vec<u32> = soc.obs().borrow().watches().map(|(w, _)| w.id).collect();
        for id in watches {
            soc.obs().borrow_mut().remove_watch(id);
        }
        assert_eq!(soc.run(10_000), SocExit::Break, "{mode}: the resumed run ends");

        let mut batch = Soc::<Tainted>::new(builder().build());
        batch.load_program(prog);
        assert_eq!(batch.run(soc.instret()), SocExit::Break, "{mode}: batch run");
        assert_eq!(soc.state_digest(), batch.state_digest(), "{mode}: final state differs");
    }
}

/// The policy of the `exact_stop_*` cases: `secret` classified, the UART
/// a public sink.
fn stop_policy(prog: &taintvp::asm::Program) -> taintvp::core::SecurityPolicyBuilder {
    let secret = prog.symbol("secret").expect("label");
    SecurityPolicy::builder("stops")
        .classify_region("secret", AddrRange::new(secret, 1), SECRET)
        .sink("uart.tx", Tag::EMPTY)
}

/// A PC breakpoint on an instruction inside a block stops in front of
/// it, and, left armed, stops there again on the next pass: the resume
/// steps over it once.
#[test]
fn exact_stop_at_a_mid_block_pc_breakpoint() {
    let prog = stop_guest();
    let target = prog.symbol("target").expect("label");
    assert_exact_stops(
        &prog,
        &stop_policy(&prog).build(),
        |_, breaks| {
            breaks.add(BreakKind::Pc(target));
        },
        &[stop_point(&prog, "target", false, 0), stop_point(&prog, "target", false, 1)],
    );
}

/// An instret breakpoint whose count falls inside a block stops with
/// exactly that many instructions retired.
#[test]
fn exact_stop_at_a_mid_block_instret_breakpoint() {
    let prog = stop_guest();
    let (pc, instret) = stop_point(&prog, "mid", false, 0);
    assert_exact_stops(
        &prog,
        &stop_policy(&prog).build(),
        |_, breaks| {
            breaks.add(BreakKind::Instret(instret));
        },
        &[(pc, instret)],
    );
}

/// A range watch hit by a RAM store inside a block stops right after the
/// store.
#[test]
fn exact_stop_after_a_mid_block_store_hits_a_range_watch() {
    let prog = stop_guest();
    let buf = prog.symbol("buf").expect("label");
    assert_exact_stops(
        &prog,
        &stop_policy(&prog).build(),
        |sink, _| {
            sink.add_watch(WatchKind::Range { start: buf, len: 4 });
        },
        &[stop_point(&prog, "store", true, 0)],
    );
}

/// A `uart.tx` sink watch hit by an MMIO store stops right after the
/// store, on every pass.
#[test]
fn exact_stop_after_an_mmio_store_hits_a_sink_watch() {
    let prog = stop_guest();
    assert_exact_stops(
        &prog,
        &stop_policy(&prog).build(),
        |sink, _| {
            sink.add_watch(WatchKind::Sink { site: "uart.tx".into(), atom: None });
        },
        &[stop_point(&prog, "uart_store", true, 0), stop_point(&prog, "uart_store", true, 1)],
    );
}

/// In record mode a fetch-clearance violation does not end the slice: the
/// classified instruction inside the block executes and is neither a
/// load, a store nor a CSR op. A violation watch still stops the run
/// right after it, as after the UART store's output violation.
#[test]
fn exact_stop_after_a_mid_block_fetch_violation_hits_a_violation_watch() {
    let prog = stop_guest();
    let tainted = prog.symbol("tainted").expect("label");
    let policy = stop_policy(&prog)
        .classify_region("code", AddrRange::new(tainted, 4), Tag::atom(1))
        .fetch_clearance(Tag::EMPTY)
        .build();
    assert_exact_stops(
        &prog,
        &policy,
        |sink, _| {
            sink.add_watch(WatchKind::Violation { site: None });
        },
        &[
            stop_point(&prog, "tainted", true, 0),
            stop_point(&prog, "uart_store", true, 0),
            stop_point(&prog, "tainted", true, 1),
        ],
    );
}

/// A guest that branches on `a0` at `check` after `spins` untainted loop
/// passes (so the block cache settles on its taint-idle path first);
/// `load` puts the value to branch on into `a0`. `data` is a word of 1.
fn branch_guest(spins: i32, load: impl FnOnce(&mut Asm)) -> taintvp::asm::Program {
    let mut a = Asm::new(0);
    a.entry();
    if spins > 0 {
        a.li(Reg::T0, spins);
        a.label("spin");
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, "spin");
    }
    load(&mut a);
    a.label("check");
    a.bnez(Reg::A0, "done");
    a.label("done");
    a.ebreak();
    a.label("data");
    a.word(1);
    a.assemble().expect("branch guest assembles")
}

/// `lw a0, data`.
fn load_data(a: &mut Asm) {
    a.la(Reg::T1, "data");
    a.lw(Reg::A0, 0, Reg::T1);
}

/// A policy whose only check is branch clearance `EMPTY`.
fn branch_policy() -> taintvp::core::SecurityPolicyBuilder {
    SecurityPolicy::builder("latch").branch_clearance(Tag::EMPTY)
}

/// Runs `prog` under `policy` on both engines: `first` steps (none when
/// 0), then `host`, then the rest. The interpreter checks every branch;
/// the block cache checks only once the bus reports a live tag. So both
/// stop on the branch at `check` only if the tag source that `host` or
/// the guest exercises sets the taint-idle latch.
fn assert_branch_trips(
    prog: &taintvp::asm::Program,
    policy: SecurityPolicy,
    first: u64,
    host: impl Fn(&mut Soc<Tainted>),
) {
    let check = prog.symbol("check").expect("check label");
    let runs = [ExecMode::Interp, ExecMode::BlockCache].map(|mode| {
        let cfg = Soc::<Tainted>::builder()
            .policy(policy.clone())
            .sensor_thread(false)
            .engine(mode)
            .build();
        let mut soc = Soc::<Tainted>::new(cfg);
        soc.load_program(prog);
        if first > 0 {
            assert_eq!(soc.run(first), SocExit::InstrLimit, "{mode}: first run");
        }
        host(&mut soc);
        let exit = soc.run(10_000);
        match &exit {
            SocExit::Violation(v) => {
                assert_eq!((&v.kind, v.pc), (&ViolationKind::Branch, Some(check)), "{mode}")
            }
            other => panic!("{mode}: expected the branch at {check:#x} to trip, got {other:?}"),
        }
        (exit, soc.instret(), soc.state_digest())
    });
    assert_eq!(runs[0], runs[1], "engines disagree");
}

#[test]
fn latch_source_policy_classification_at_load() {
    let prog = branch_guest(0, load_data);
    let data = prog.symbol("data").unwrap();
    let policy = branch_policy().classify_region("secret", AddrRange::new(data, 4), SECRET).build();
    assert_branch_trips(&prog, policy, 0, |_| {});
}

#[test]
fn latch_source_host_classify_between_runs() {
    let prog = branch_guest(100, load_data);
    let data = prog.symbol("data").unwrap();
    let classify = |soc: &mut Soc<Tainted>| soc.ram_mut().classify(data, 4, SECRET);
    assert_branch_trips(&prog, branch_policy().build(), 50, classify);
}

#[test]
fn latch_source_dma_burst_from_the_sensor() {
    use taintvp::periph::dma::regs;
    let prog = branch_guest(0, |a| {
        a.li(Reg::T0, map::DMA_BASE as i32);
        a.li(Reg::T1, map::SENSOR_BASE as i32);
        a.sw(Reg::T1, regs::SRC as i32, Reg::T0);
        a.la(Reg::T1, "data");
        a.sw(Reg::T1, regs::DST as i32, Reg::T0);
        a.li(Reg::T2, 4);
        a.sw(Reg::T2, regs::LEN as i32, Reg::T0);
        a.li(Reg::T2, 1);
        a.sw(Reg::T2, regs::CTRL as i32, Reg::T0);
        a.lw(Reg::A0, 0, Reg::T1);
    });
    let policy = branch_policy().source("sensor.data", SECRET).build();
    assert_branch_trips(&prog, policy, 0, |soc| soc.sensor_mut().generate_frame());
}

#[test]
fn latch_source_tag_bit_flip() {
    let prog = branch_guest(100, load_data);
    let data = prog.symbol("data").unwrap();
    let flip = |soc: &mut Soc<Tainted>| {
        soc.ram_mut().flip_tag_bit(data, 0).expect("VP+ RAM keeps tags");
    };
    assert_branch_trips(&prog, branch_policy().build(), 50, flip);
}

#[test]
fn latch_source_terminal_byte_read_by_the_guest() {
    let prog = branch_guest(0, |a| {
        a.li(Reg::T1, map::TERMINAL_BASE as i32);
        a.lw(Reg::A0, 0, Reg::T1);
    });
    let policy = branch_policy().source("terminal.rx", SECRET).build();
    assert_branch_trips(&prog, policy, 0, |soc| soc.terminal().borrow_mut().feed(b"x"));
}

/// A tagged register written from the host: only `Soc::cpu_mut` sees it.
#[test]
fn latch_source_host_register_write() {
    let prog = branch_guest(0, |_| {});
    assert_eq!(prog.symbol("check"), Some(0));
    let set = |soc: &mut Soc<Tainted>| soc.cpu_mut().set_reg(Reg::A0, Taint::new(1, SECRET));
    assert_branch_trips(&prog, branch_policy().build(), 0, set);
}

/// A tagged word stored from the host with the CPU's own store path.
#[test]
fn latch_source_host_ram_store() {
    let prog = branch_guest(0, |a| {
        a.lw(Reg::A0, 0x100, Reg::Zero);
    });
    assert_eq!(prog.symbol("check"), Some(4));
    let store = |soc: &mut Soc<Tainted>| soc.ram_mut().store(0x100, 4, 1, SECRET);
    assert_branch_trips(&prog, branch_policy().build(), 0, store);
}

/// Every check site records into the SoC's one engine, in program order:
/// a Record-mode VP+ guest trips branch clearance (CPU), a protected RAM
/// store (system bus), UART and CAN output clearance, DMA store clearance
/// and a taintdbg assertion, once each, then takes an `ecall` round trip
/// and reads a classified terminal byte. Each violation names the store
/// responsible: a device's check the store that reached the device, the
/// DMA's the `CTRL` store that started the burst. The sink sees every emission
/// site in order: the event stream matches the golden on both engines
/// (the block cache adds its closing `engine_cache` record).
#[test]
fn every_violation_source_records_into_the_one_engine_in_order() {
    use taintvp::asm::csr;
    use taintvp::periph::{can, dma, taintdbg, terminal};

    let mut a = Asm::new(0);
    a.entry();
    a.la(Reg::T4, "handler");
    a.csrw(csr::MTVEC, Reg::T4);
    a.la(Reg::T0, "secret");
    a.lbu(Reg::A0, 0, Reg::T0);
    a.label("branch");
    a.bnez(Reg::A0, "next");
    a.label("next");
    a.la(Reg::T1, "vault");
    a.label("store");
    a.sb(Reg::A0, 0, Reg::T1);
    a.li(Reg::T2, map::UART_BASE as i32);
    a.label("uart_store");
    a.sb(Reg::A0, 0, Reg::T2);
    a.li(Reg::T3, 1);
    a.li(Reg::T2, map::CAN_BASE as i32);
    a.sw(Reg::T3, can::regs::TX_DLC as i32, Reg::T2);
    a.sb(Reg::A0, can::regs::TX_DATA as i32, Reg::T2);
    a.label("can_go");
    a.sw(Reg::T3, can::regs::TX_GO as i32, Reg::T2);
    a.li(Reg::T2, map::DMA_BASE as i32);
    a.sw(Reg::T0, dma::regs::SRC as i32, Reg::T2);
    a.sw(Reg::T1, dma::regs::DST as i32, Reg::T2);
    a.sw(Reg::T3, dma::regs::LEN as i32, Reg::T2);
    a.label("dma_ctrl");
    a.sw(Reg::T3, dma::regs::CTRL as i32, Reg::T2);
    a.li(Reg::T2, map::TAINTDBG_BASE as i32);
    a.sw(Reg::T0, taintdbg::regs::ADDR as i32, Reg::T2);
    a.label("assert_tag");
    a.sw(Reg::Zero, taintdbg::regs::ASSERT_TAG as i32, Reg::T2);
    a.ecall();
    a.li(Reg::T2, map::TERMINAL_BASE as i32);
    a.lw(Reg::A1, terminal::regs::RXDATA as i32, Reg::T2);
    a.ebreak();
    a.label("handler");
    a.csrr(Reg::T4, csr::MEPC);
    a.addi(Reg::T4, Reg::T4, 4);
    a.csrw(csr::MEPC, Reg::T4);
    a.mret();
    a.label("secret");
    a.byte(0x5A);
    a.label("vault");
    a.byte(0);
    let prog = a.assemble().expect("violation guest assembles");
    let at = |label: &str| prog.symbol(label).expect("label");
    let (secret, vault) = (at("secret"), at("vault"));

    let policy = branch_policy()
        .classify_region("secret", AddrRange::new(secret, 1), SECRET)
        .protect_region("vault", AddrRange::new(vault, 1), Tag::EMPTY)
        .sink("uart.tx", Tag::EMPTY)
        .sink("can.tx", Tag::EMPTY)
        .source("terminal.rx", Tag::atom(1))
        .build();
    let vault_store = format!("store to {vault:#010x}");
    let expected = vec![
        (ViolationKind::Branch, Some(at("branch")), String::new()),
        (ViolationKind::Store { region: "vault".into() }, Some(at("store")), vault_store.clone()),
        (ViolationKind::Output { sink: "uart.tx".into() }, Some(at("uart_store")), String::new()),
        (ViolationKind::Output { sink: "can.tx".into() }, Some(at("can_go")), String::new()),
        (ViolationKind::Store { region: "vault".into() }, Some(at("dma_ctrl")), vault_store),
        (
            ViolationKind::Custom { what: "guest taint assertion".into() },
            Some(at("assert_tag")),
            format!("taintdbg assert at {secret:#010x}"),
        ),
    ];
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/events/every_source.jsonl");
    for mode in [ExecMode::Interp, ExecMode::BlockCache] {
        let cfg = Soc::<Tainted>::builder()
            .policy(policy.clone())
            .enforce(EnforceMode::Record)
            .sensor_thread(false)
            .engine(mode)
            .build();
        let rec = Recorder::new(16).with_event_log();
        let mut soc = Soc::<Tainted, Recorder>::with_obs(cfg, rec);
        soc.terminal().borrow_mut().feed(b"k");
        soc.load_program(&prog);
        assert_eq!(soc.run(10_000), SocExit::Break, "{mode}: record mode runs to the end");
        let engine = soc.engine().borrow();
        let seen: Vec<_> =
            engine.violations().iter().map(|v| (v.kind.clone(), v.pc, v.context.clone())).collect();
        assert_eq!(seen, expected, "{mode}");
        assert_eq!(soc.cpu().reg(Reg::A1).val(), u32::from(b'k'), "{mode}: terminal byte read");

        // The event stream of every emission site, pinned byte for byte.
        let mut jsonl = Vec::new();
        taintvp::obs::export::write_jsonl(&mut jsonl, soc.obs().borrow().events())
            .expect("in-memory write");
        let jsonl = String::from_utf8(jsonl).expect("JSON Lines are UTF-8");
        let mut lines: Vec<&str> = jsonl.lines().collect();
        if mode == ExecMode::BlockCache {
            let last = lines.pop().expect("a closing record");
            assert!(last.contains("\"kind\":\"engine_cache\""), "{mode}: closes with {last}");
        }
        let kinds: std::collections::BTreeSet<&str> =
            lines.iter().map(|l| l.split('"').nth(5).expect("a kind field")).collect();
        assert_eq!(
            kinds.into_iter().collect::<Vec<_>>(),
            [
                "check",
                "classify",
                "insn",
                "load",
                "store",
                "tag_set_change",
                "tag_write",
                "tlm",
                "trap",
                "violation"
            ],
            "{mode}: every emission site reports"
        );
        let stream = lines.iter().map(|l| format!("{l}\n")).collect::<String>();
        if mode == ExecMode::Interp && std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(golden.parent().unwrap()).expect("golden dir");
            std::fs::write(&golden, &stream).expect("golden written");
        }
        let want = std::fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("{}: {e}", golden.display()));
        assert!(
            stream == want,
            "{mode}: event stream drifted from {}; regenerate with UPDATE_GOLDEN=1 if the \
             change is intended\n--- got ---\n{stream}",
            golden.display()
        );
    }
}

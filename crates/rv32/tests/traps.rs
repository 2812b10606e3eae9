//! Trap, interrupt and execution-clearance tests for the ISS.

use vpdift_asm::{csr, Asm, Reg};
use vpdift_core::{DiftEngine, EnforceMode, ExecClearance, SecurityPolicy, Tag, ViolationKind};
use vpdift_rv32::{Cpu, FlatMemory, Plain, RunExit, Step, Tainted, Word};

use Reg::*;

const RAM: usize = 64 * 1024;

fn setup(build: impl FnOnce(&mut Asm)) -> (Cpu<Tainted>, FlatMemory<Tainted>) {
    let mut a = Asm::new(0);
    build(&mut a);
    let prog = a.assemble().unwrap();
    let mut mem = FlatMemory::<Tainted>::new(0, RAM);
    mem.load_image(0, prog.image());
    let mut cpu = Cpu::<Tainted>::new();
    cpu.set_reg(Sp, vpdift_core::Taint::untainted(RAM as u32 - 16));
    (cpu, mem)
}

#[test]
fn ecall_vectors_to_mtvec_and_mret_returns() {
    let (mut cpu, mut mem) = setup(|a| {
        // Set mtvec to the handler, make an ecall, check a0 set by handler.
        a.la(T0, "handler");
        a.csrw(csr::MTVEC, T0);
        a.li(A0, 0);
        a.ecall();
        a.ebreak(); // reached only after mret

        a.label("handler");
        a.li(A0, 123);
        a.csrr(T1, csr::MEPC);
        a.addi(T1, T1, 4); // skip the ecall
        a.csrw(csr::MEPC, T1);
        a.mret();
    });
    assert_eq!(cpu.run(&mut mem, 1000), RunExit::Break);
    assert_eq!(cpu.reg(A0).val(), 123);
    assert_eq!(cpu.csrs().mcause.val(), 11, "ecall from M-mode");
}

#[test]
fn illegal_instruction_traps_with_mtval() {
    let (mut cpu, mut mem) = setup(|a| {
        a.la(T0, "handler");
        a.csrw(csr::MTVEC, T0);
        a.word(0xFFFF_FFFF); // illegal
        a.label("handler");
        a.csrr(A0, csr::MCAUSE);
        a.csrr(A1, csr::MTVAL);
        a.ebreak();
    });
    assert_eq!(cpu.run(&mut mem, 1000), RunExit::Break);
    assert_eq!(cpu.reg(A0).val(), 2, "illegal instruction cause");
    assert_eq!(cpu.reg(A1).val(), 0xFFFF_FFFF);
}

#[test]
fn misaligned_load_traps() {
    let (mut cpu, mut mem) = setup(|a| {
        a.la(T0, "handler");
        a.csrw(csr::MTVEC, T0);
        a.li(T1, 0x1001);
        a.lw(A0, 0, T1); // misaligned
        a.label("handler");
        a.csrr(A0, csr::MCAUSE);
        a.csrr(A1, csr::MTVAL);
        a.ebreak();
    });
    assert_eq!(cpu.run(&mut mem, 1000), RunExit::Break);
    assert_eq!(cpu.reg(A0).val(), 4);
    assert_eq!(cpu.reg(A1).val(), 0x1001);
}

#[test]
fn load_fault_on_unmapped_address() {
    let (mut cpu, mut mem) = setup(|a| {
        a.la(T0, "handler");
        a.csrw(csr::MTVEC, T0);
        a.li(T1, 0x4000_0000u32 as i32);
        a.lw(A0, 0, T1);
        a.label("handler");
        a.csrr(A0, csr::MCAUSE);
        a.ebreak();
    });
    assert_eq!(cpu.run(&mut mem, 1000), RunExit::Break);
    assert_eq!(cpu.reg(A0).val(), 5, "load access fault");
}

#[test]
fn timer_interrupt_preempts_and_wfi_wakes() {
    let (mut cpu, mut mem) = setup(|a| {
        a.la(T0, "handler");
        a.csrw(csr::MTVEC, T0);
        a.li(T1, csr::MIE_MTIE as i32);
        a.csrw(csr::MIE, T1);
        a.li(T1, csr::MSTATUS_MIE as i32);
        a.csrw(csr::MSTATUS, T1);
        a.li(A0, 0);
        a.wfi();
        a.ebreak(); // resumed here after handler returns

        a.label("handler");
        a.li(A0, 7);
        a.mret();
    });
    // Run until parked in wfi.
    let exit = cpu.run(&mut mem, 1000);
    assert_eq!(exit, RunExit::Wfi);
    assert!(cpu.is_waiting());
    // Fire the timer line (as the CLINT would).
    cpu.set_timer_irq(true);
    let step = cpu.step(&mut mem).unwrap();
    assert_eq!(step, Step::Executed, "interrupt taken");
    assert_eq!(cpu.csrs().mcause.val(), 0x8000_0007);
    cpu.set_timer_irq(false);
    assert_eq!(cpu.run(&mut mem, 1000), RunExit::Break);
    assert_eq!(cpu.reg(A0).val(), 7);
}

#[test]
fn interrupt_priority_external_over_timer() {
    let (mut cpu, mut mem) = setup(|a| {
        a.la(T0, "handler");
        a.csrw(csr::MTVEC, T0);
        a.li(T1, (csr::MIE_MTIE | csr::MIE_MEIE) as i32);
        a.csrw(csr::MIE, T1);
        a.li(T1, csr::MSTATUS_MIE as i32);
        a.csrw(csr::MSTATUS, T1);
        a.label("spin");
        a.j("spin");
        a.label("handler");
        a.csrr(A0, csr::MCAUSE);
        a.ebreak();
    });
    cpu.set_timer_irq(true);
    cpu.set_external_irq(true);
    assert_eq!(cpu.run(&mut mem, 1000), RunExit::Break);
    assert_eq!(cpu.reg(A0).val(), 0x8000_000B, "external wins");
}

#[test]
fn mstatus_mie_gates_interrupts() {
    let (mut cpu, mut mem) = setup(|a| {
        a.li(T1, csr::MIE_MTIE as i32);
        a.csrw(csr::MIE, T1);
        // mstatus.MIE left clear: interrupt must NOT fire.
        a.li(A0, 41);
        a.addi(A0, A0, 1);
        a.ebreak();
    });
    cpu.set_timer_irq(true);
    assert_eq!(cpu.run(&mut mem, 1000), RunExit::Break);
    assert_eq!(cpu.reg(A0).val(), 42);
}

// ---------------------------------------------------------------------
// Execution clearance (§V-B2)
// ---------------------------------------------------------------------

const SECRET: Tag = Tag::from_bits(0b01);

fn engine_with_exec(exec: ExecClearance, mode: EnforceMode) -> DiftEngine {
    let policy = SecurityPolicy::builder("exec-test").exec_clearance(exec).build();
    DiftEngine::with_mode(policy, mode)
}

#[test]
fn branch_on_secret_condition_violates() {
    let (mut cpu, mut mem) = setup(|a| {
        a.li(T0, 0x2000);
        a.lw(T1, 0, T0); // secret value
        a.beqz(T1, "zero"); // branch on secret -> violation
        a.label("zero");
        a.ebreak();
    });
    mem.classify(0x2000, 4, SECRET);
    let exec = ExecClearance { branch: Some(Tag::EMPTY), fetch: None, mem_addr: None };
    mem.set_engine(engine_with_exec(exec, EnforceMode::Enforce));
    cpu.set_exec_clearance(exec);
    match cpu.run(&mut mem, 1000) {
        RunExit::Violation(v) => {
            assert_eq!(v.kind, ViolationKind::Branch);
            assert_eq!(v.tag, SECRET);
        }
        other => panic!("expected violation, got {other:?}"),
    }
    assert!(mem.engine().unwrap().violated());
}

#[test]
fn branch_on_public_condition_is_fine() {
    let (mut cpu, mut mem) = setup(|a| {
        a.li(T1, 0);
        a.beqz(T1, "zero");
        a.label("zero");
        a.ebreak();
    });
    let exec = ExecClearance { branch: Some(Tag::EMPTY), fetch: None, mem_addr: None };
    mem.set_engine(engine_with_exec(exec, EnforceMode::Enforce));
    cpu.set_exec_clearance(exec);
    assert_eq!(cpu.run(&mut mem, 1000), RunExit::Break);
}

#[test]
fn indirect_jump_through_secret_pointer_violates() {
    let (mut cpu, mut mem) = setup(|a| {
        a.li(T0, 0x2000);
        a.lw(T1, 0, T0); // secret function pointer
        a.jalr(Ra, T1, 0);
        a.ebreak();
    });
    mem.load_image(0x2000, &16u32.to_le_bytes());
    mem.classify(0x2000, 4, SECRET);
    let exec = ExecClearance { branch: Some(Tag::EMPTY), fetch: None, mem_addr: None };
    mem.set_engine(engine_with_exec(exec, EnforceMode::Enforce));
    cpu.set_exec_clearance(exec);
    match cpu.run(&mut mem, 1000) {
        RunExit::Violation(v) => assert_eq!(v.kind, ViolationKind::Branch),
        other => panic!("expected violation, got {other:?}"),
    }
}

#[test]
fn memory_access_with_secret_address_violates() {
    let (mut cpu, mut mem) = setup(|a| {
        a.li(T0, 0x2000);
        a.lw(T1, 0, T0); // secret value used as address
        a.lw(A0, 0, T1); // Mem[secret]
        a.ebreak();
    });
    mem.load_image(0x2000, &0x3000u32.to_le_bytes());
    mem.classify(0x2000, 4, SECRET);
    let exec = ExecClearance { mem_addr: Some(Tag::EMPTY), fetch: None, branch: None };
    mem.set_engine(engine_with_exec(exec, EnforceMode::Enforce));
    cpu.set_exec_clearance(exec);
    match cpu.run(&mut mem, 1000) {
        RunExit::Violation(v) => assert_eq!(v.kind, ViolationKind::MemAddr),
        other => panic!("expected violation, got {other:?}"),
    }
}

#[test]
fn fetching_low_integrity_instruction_violates() {
    // Integrity atom: program code is trusted (empty tag); the "injected"
    // region carries the untrusted atom, and fetch clearance is empty.
    let untrusted = Tag::from_bits(0b10);
    let (mut cpu, mut mem) = setup(|a| {
        a.la(T0, "payload");
        a.jalr(Ra, T0, 0);
        a.ebreak();
        a.label("payload");
        a.li(A0, 666); // "malicious" code
        a.ret();
    });
    let payload_addr = {
        // find label address: it was assembled at fixed layout; easiest is
        // to recompute via a second assembly of the same program.
        let mut a = Asm::new(0);
        a.la(T0, "payload");
        a.jalr(Ra, T0, 0);
        a.ebreak();
        a.label("payload");
        a.li(A0, 666);
        a.ret();
        a.assemble().unwrap().symbol("payload").unwrap()
    };
    mem.classify(payload_addr, 12, untrusted);
    let exec = ExecClearance { fetch: Some(Tag::EMPTY), branch: None, mem_addr: None };
    mem.set_engine(engine_with_exec(exec, EnforceMode::Enforce));
    cpu.set_exec_clearance(exec);
    match cpu.run(&mut mem, 1000) {
        RunExit::Violation(v) => {
            assert_eq!(v.kind, ViolationKind::Fetch);
            assert_eq!(v.pc, Some(payload_addr));
        }
        other => panic!("expected fetch violation, got {other:?}"),
    }
}

#[test]
fn record_mode_logs_but_continues() {
    let (mut cpu, mut mem) = setup(|a| {
        a.li(T0, 0x2000);
        a.lw(T1, 0, T0);
        a.beqz(T1, "zero");
        a.label("zero");
        a.li(A0, 1);
        a.ebreak();
    });
    mem.classify(0x2000, 4, SECRET);
    let exec = ExecClearance { branch: Some(Tag::EMPTY), fetch: None, mem_addr: None };
    mem.set_engine(engine_with_exec(exec, EnforceMode::Record));
    cpu.set_exec_clearance(exec);
    assert_eq!(cpu.run(&mut mem, 1000), RunExit::Break, "record mode continues");
    assert_eq!(cpu.reg(A0).val(), 1);
    assert_eq!(mem.engine().unwrap().violations().len(), 1);
}

#[test]
fn plain_mode_never_checks() {
    // Same secret-branch program in Plain mode: no tags exist, no checks.
    let mut a = Asm::new(0);
    a.li(T0, 0x2000);
    a.lw(T1, 0, T0);
    a.beqz(T1, "zero");
    a.label("zero");
    a.ebreak();
    let prog = a.assemble().unwrap();
    let mut mem = FlatMemory::<Plain>::new(0, RAM);
    mem.load_image(0, prog.image());
    let mut cpu = Cpu::<Plain>::new();
    cpu.set_exec_clearance(ExecClearance::uniform(Tag::EMPTY));
    assert_eq!(cpu.run(&mut mem, 1000), RunExit::Break);
}

#[test]
fn tainted_mepc_is_checked_on_mret() {
    let (mut cpu, mut mem) = setup(|a| {
        a.li(T0, 0x2000);
        a.lw(T1, 0, T0); // secret target
        a.csrw(csr::MEPC, T1);
        a.mret();
        a.ebreak();
    });
    mem.load_image(0x2000, &8u32.to_le_bytes());
    mem.classify(0x2000, 4, SECRET);
    let exec = ExecClearance { branch: Some(Tag::EMPTY), fetch: None, mem_addr: None };
    mem.set_engine(engine_with_exec(exec, EnforceMode::Enforce));
    cpu.set_exec_clearance(exec);
    match cpu.run(&mut mem, 1000) {
        RunExit::Violation(v) => assert_eq!(v.kind, ViolationKind::Branch),
        other => panic!("expected violation, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Trap-loop detection
// ---------------------------------------------------------------------

#[test]
fn misconfigured_trap_vector_exits_as_trap_loop() {
    // mtvec points at a word that is itself an illegal instruction, so the
    // illegal-instruction trap re-enters itself forever: same pc, same
    // cause, no retirement. The detector must stop this as TrapLoop long
    // before the instruction budget runs out.
    let (mut cpu, mut mem) = setup(|a| {
        a.la(T0, "bad_vector");
        a.csrw(csr::MTVEC, T0);
        a.word(0xFFFF_FFFF); // illegal: enters the trap loop
        a.label("bad_vector");
        a.word(0xFFFF_FFFF); // the "handler" is illegal too
    });
    assert_eq!(cpu.run(&mut mem, 1_000_000), RunExit::TrapLoop);
    assert!(
        cpu.traps_taken() >= u64::from(vpdift_rv32::DEFAULT_TRAP_LOOP_THRESHOLD),
        "detector waited for the configured threshold"
    );
    assert_eq!(cpu.csrs().mcause.val(), 2, "last trap was the illegal instruction");
}

#[test]
fn trap_loop_detection_can_be_disabled() {
    let (mut cpu, mut mem) = setup(|a| {
        a.word(0xFFFF_FFFF); // illegal; mtvec = 0 re-enters it forever
    });
    // With detection off the CPU spins trap-after-trap indefinitely (and,
    // because traps never retire, a retirement budget would never expire —
    // the pre-watchdog hang this PR makes classifiable).
    cpu.set_trap_loop_threshold(0);
    for _ in 0..10_000 {
        assert_eq!(cpu.step(&mut mem).unwrap(), Step::Executed);
    }
    assert_eq!(cpu.instret(), 0, "nothing ever retires in the loop");
    assert_eq!(cpu.traps_taken(), 10_000);
}

#[test]
fn recovering_trap_handler_is_not_flagged() {
    // A handler that fixes up mepc and retires instructions: many traps,
    // but progress in between — never a loop.
    let (mut cpu, mut mem) = setup(|a| {
        a.la(T0, "handler");
        a.csrw(csr::MTVEC, T0);
        a.li(S0, 0);
        a.label("again");
        a.ecall(); // traps every iteration
        a.addi(S0, S0, 1);
        a.li(T1, 64);
        a.blt(S0, T1, "again");
        a.ebreak();

        a.label("handler");
        a.csrr(T2, csr::MEPC);
        a.addi(T2, T2, 4);
        a.csrw(csr::MEPC, T2);
        a.mret();
    });
    assert_eq!(cpu.run(&mut mem, 100_000), RunExit::Break);
    assert_eq!(cpu.traps_taken(), 64, "every ecall trapped");
    assert_eq!(cpu.reg(S0).val(), 64);
}

#[test]
fn instret_counts_retired_instructions() {
    let (mut cpu, mut mem) = setup(|a| {
        a.nop();
        a.nop();
        a.nop();
        a.ebreak();
    });
    assert_eq!(cpu.run(&mut mem, 100), RunExit::Break);
    assert_eq!(cpu.instret(), 4);
    // CSR shadow matches.
    let (mut cpu2, mut mem2) = setup(|a| {
        a.nop();
        a.csrr(A0, csr::CYCLE);
        a.ebreak();
    });
    assert_eq!(cpu2.run(&mut mem2, 100), RunExit::Break);
    assert_eq!(cpu2.reg(A0).val(), 1, "cycle read after 1 retired insn");
}

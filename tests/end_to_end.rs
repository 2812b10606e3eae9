//! Workspace-level integration tests: full flows spanning every crate,
//! exercised through the umbrella `taintvp` API.

use taintvp::asm::{Asm, Reg};
use taintvp::core::{ifp, AddrRange, EnforceMode, SecurityPolicy, Tag, ViolationKind};
use taintvp::prelude::{map, Soc, SocBuilder, SocExit};
use taintvp::rv32::{Plain, Tainted, Word};

use Reg::*;

/// A secret may be *processed* freely but caught exactly at the output
/// boundary — end-to-end across assembler, ISS, bus, policy and UART.
#[test]
fn secret_laundering_through_arithmetic_is_still_caught() {
    let secret = Tag::atom(0);
    let policy = SecurityPolicy::builder("laundering")
        .classify_region("key", AddrRange::new(0x2000, 4), secret)
        .sink("uart.tx", Tag::EMPTY)
        .build();

    let mut a = Asm::new(0);
    a.li(T0, 0x2000);
    a.lw(T1, 0, T0);
    // "Launder" the secret: xor with itself-shifted, multiply, mask.
    a.slli(T2, T1, 7);
    a.xor(T1, T1, T2);
    a.li(T3, 0x9E37);
    a.mul(T1, T1, T3);
    a.andi(T1, T1, 0xFF);
    a.li(T4, map::UART_BASE as i32);
    a.sw(T1, 0, T4);
    a.ebreak();
    let prog = a.assemble().unwrap();

    let mut soc = Soc::<Tainted>::new(SocBuilder::new().policy(policy).build());
    soc.load_program(&prog);
    match soc.run(10_000) {
        SocExit::Violation(v) => {
            assert_eq!(v.kind, ViolationKind::Output { sink: "uart.tx".into() })
        }
        other => panic!("laundered secret escaped: {other:?}"),
    }
}

/// The full IFP-3 lattice drives a real SoC run: data classified with the
/// compiled `(HC,HI)` tag is blocked at a `(LC,LI)`-cleared sink.
#[test]
fn compiled_ifp3_tags_work_on_the_soc() {
    let tags = ifp::ifp3_tags();
    let policy = SecurityPolicy::builder("ifp3")
        .classify_region("key", AddrRange::new(0x2000, 4), tags.secret)
        .source("terminal.rx", tags.untrusted)
        .sink("uart.tx", tags.untrusted)
        .build();

    // Echoing untrusted input is fine; echoing the key is not.
    let mut a = Asm::new(0);
    a.li(T0, map::TERMINAL_BASE as i32);
    a.lw(T1, 0, T0); // untrusted byte
    a.li(T2, map::UART_BASE as i32);
    a.sw(T1, 0, T2); // allowed: (LC,LI) -> (LC,LI)
    a.li(T0, 0x2000);
    a.lw(T1, 0, T0);
    a.sw(T1, 0, T2); // blocked: (HC,HI) -/-> (LC,LI)
    a.ebreak();
    let prog = a.assemble().unwrap();

    let mut soc = Soc::<Tainted>::new(SocBuilder::new().policy(policy).build());
    soc.load_program(&prog);
    soc.terminal().borrow_mut().feed(b"x");
    match soc.run(10_000) {
        SocExit::Violation(v) => {
            assert_eq!(v.kind, ViolationKind::Output { sink: "uart.tx".into() });
        }
        other => panic!("expected violation, got {other:?}"),
    }
    assert_eq!(soc.uart().borrow().output(), b"x", "untrusted echo passed first");
}

/// Record mode audits a whole run without stopping it, across CPU and
/// peripheral check sites.
#[test]
fn record_mode_full_audit() {
    let secret = Tag::atom(0);
    let policy = SecurityPolicy::builder("audit")
        .classify_region("key", AddrRange::new(0x2000, 2), secret)
        .sink("uart.tx", Tag::EMPTY)
        .branch_clearance(Tag::EMPTY)
        .build();
    let mut a = Asm::new(0);
    a.li(T0, 0x2000);
    a.lbu(T1, 0, T0);
    a.beqz(T1, "skip"); // branch violation 1
    a.label("skip");
    a.li(T2, map::UART_BASE as i32);
    a.sw(T1, 0, T2); // output violation 2
    a.lbu(T1, 1, T0);
    a.sw(T1, 0, T2); // output violation 3
    a.ebreak();
    let prog = a.assemble().unwrap();

    let cfg = SocBuilder::new().policy(policy).enforce(EnforceMode::Record).build();
    let mut soc = Soc::<Tainted>::new(cfg);
    soc.load_program(&prog);
    assert_eq!(soc.run(10_000), SocExit::Break);
    let engine = soc.engine().borrow();
    assert_eq!(engine.violations().len(), 3);
    assert_eq!(engine.violations()[0].kind, ViolationKind::Branch);
    assert!(engine.stats().failed >= 3);
}

/// The same binary, bit-for-bit, runs on both VP flavours with identical
/// architectural results — the transparency claim of §V.
#[test]
fn vp_and_vp_plus_agree_on_a_nontrivial_program() {
    let w = taintvp::firmware::qsort::build(200, 1);
    let run = |tainted: bool| -> (Vec<u8>, u64) {
        if tainted {
            let mut soc = Soc::<Tainted>::new(SocBuilder::new().build());
            soc.load_program(&w.program);
            assert_eq!(soc.run(w.max_insns), SocExit::Break);
            let out = soc.uart().borrow().output().to_vec();
            (out, soc.instret())
        } else {
            let mut soc = Soc::<Plain>::new(SocBuilder::new().build());
            soc.load_program(&w.program);
            assert_eq!(soc.run(w.max_insns), SocExit::Break);
            let out = soc.uart().borrow().output().to_vec();
            (out, soc.instret())
        }
    };
    assert_eq!(run(false), run(true));
}

/// Declassification is the *only* way down: the AES peripheral's grant
/// lets ciphertext out, while the same data without the grant stays
/// confined. Spans policy, AES peripheral, TLM and the CPU.
#[test]
fn declassification_end_to_end() {
    let secret = Tag::atom(0);
    let build_prog = || {
        let mut a = Asm::new(0);
        // key <- secret region; in <- zeros; encrypt; first out byte -> UART.
        a.li(S0, 0x2000);
        a.li(S1, map::AES_BASE as i32);
        a.li(T0, 0);
        a.label("k");
        a.add(T1, S0, T0);
        a.lbu(T2, 0, T1);
        a.add(T1, S1, T0);
        a.sb(T2, 0, T1);
        a.addi(T0, T0, 1);
        a.li(T3, 16);
        a.blt(T0, T3, "k");
        a.li(T0, 1);
        a.sw(T0, 0x30, S1);
        a.lbu(A0, 0x20, S1);
        a.li(T1, map::UART_BASE as i32);
        a.sw(A0, 0, T1);
        a.ebreak();
        a.assemble().unwrap()
    };

    let base = SecurityPolicy::builder("declass")
        .classify_region("key", AddrRange::new(0x2000, 16), secret)
        .sink("uart.tx", Tag::EMPTY);

    // Without the grant: ciphertext keeps the key's tag and is blocked.
    let mut soc = Soc::<Tainted>::new(SocBuilder::new().policy(base.clone().build()).build());
    soc.load_program(&build_prog());
    assert!(matches!(soc.run(100_000), SocExit::Violation(_)));

    // With the grant: ciphertext is declassified to bottom and flows out.
    let policy = base.allow_declassify("aes").build();
    let mut soc = Soc::<Tainted>::new(SocBuilder::new().policy(policy).build());
    soc.load_program(&build_prog());
    assert_eq!(soc.run(100_000), SocExit::Break);
    assert_eq!(soc.uart().borrow().output().len(), 1);
}

/// Interrupt-driven data flow keeps its tags: sensor -> IRQ -> ISR ->
/// register — spanning sensor refills, PLIC, CPU interrupt logic and MMIO.
#[test]
fn tags_survive_interrupt_driven_flows() {
    let secret = Tag::atom(3);
    let policy = SecurityPolicy::builder("sensor-secret").source("sensor.data", secret).build();
    let prog = {
        use taintvp::asm::csr;
        let mut a = Asm::new(0);
        a.la(T0, "isr");
        a.csrw(csr::MTVEC, T0);
        a.li(T0, map::PLIC_BASE as i32);
        a.li(T1, 1 << map::IRQ_SENSOR);
        a.sw(T1, 4, T0);
        a.li(T1, csr::MIE_MEIE as i32);
        a.csrw(csr::MIE, T1);
        a.li(T1, csr::MSTATUS_MIE as i32);
        a.csrw(csr::MSTATUS, T1);
        a.wfi();
        a.ebreak();
        a.label("isr");
        a.li(T0, map::PLIC_BASE as i32);
        a.lw(T1, 8, T0); // claim
        a.li(T0, map::SENSOR_BASE as i32);
        a.lbu(A0, 0, T0); // tagged sensor byte
        a.mret();
        a.assemble().unwrap()
    };
    let mut soc = Soc::<Tainted>::new(SocBuilder::new().policy(policy).build());
    soc.load_program(&prog);
    assert_eq!(soc.run(1_000_000), SocExit::Break);
    assert_eq!(Word::tag(soc.cpu().reg(A0)), secret);
}

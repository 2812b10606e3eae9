//! Full-platform integration tests: guest programs driving peripherals
//! through the bus, interrupts, DMA, and end-to-end policy enforcement.

use vpdift_asm::{csr, Asm, Reg};
use vpdift_core::{EnforceMode, SecurityPolicy, Tag, ViolationKind};
use vpdift_periph::can::CanFrame;
use vpdift_rv32::{Plain, Tainted, Word};
use vpdift_soc::{map, Soc, SocBuilder, SocExit};

use Reg::*;

const SECRET: Tag = Tag::from_bits(0b01);
const UNTRUSTED: Tag = Tag::from_bits(0b10);

fn asm(build: impl FnOnce(&mut Asm)) -> vpdift_asm::Program {
    let mut a = Asm::new(0);
    build(&mut a);
    a.assemble().expect("program assembles")
}

#[test]
fn uart_hello_from_guest() {
    let prog = asm(|a| {
        a.la(A1, "msg");
        a.li(T0, map::UART_BASE as i32);
        a.label("loop");
        a.lbu(T1, 0, A1);
        a.beqz(T1, "end");
        a.sw(T1, 0, T0);
        a.addi(A1, A1, 1);
        a.j("loop");
        a.label("end");
        a.ebreak();
        a.align(4);
        a.label("msg");
        a.asciiz("hello, vp");
    });
    let mut soc = Soc::<Plain>::new(SocBuilder::new().build());
    soc.load_program(&prog);
    assert_eq!(soc.run(100_000), SocExit::Break);
    assert_eq!(soc.uart().borrow().output_string(), "hello, vp");
}

#[test]
fn terminal_echo_classifies_input() {
    // Guest echoes terminal input to UART; policy allows untrusted out.
    let policy = SecurityPolicy::builder("echo")
        .source("terminal.rx", UNTRUSTED)
        .sink("uart.tx", UNTRUSTED)
        .build();
    let prog = asm(|a| {
        a.li(T0, map::TERMINAL_BASE as i32);
        a.li(T1, map::UART_BASE as i32);
        a.label("loop");
        a.lw(T2, 4, T0); // RXAVAIL
        a.beqz(T2, "end");
        a.lw(T3, 0, T0); // RXDATA
        a.sw(T3, 0, T1);
        a.j("loop");
        a.label("end");
        a.ebreak();
    });
    let mut soc = Soc::<Tainted>::new(SocBuilder::new().policy(policy).build());
    soc.load_program(&prog);
    soc.terminal().borrow_mut().feed(b"abc");
    assert_eq!(soc.run(100_000), SocExit::Break);
    assert_eq!(soc.uart().borrow().output_string(), "abc");
}

#[test]
fn secret_memory_leak_to_uart_is_stopped() {
    // The debug-dump scenario: guest copies a classified memory region to
    // the UART; enforcement stops at the first secret byte.
    let policy = SecurityPolicy::builder("no-leak")
        .classify_region("key", vpdift_core::AddrRange::new(0x2000, 4), SECRET)
        .sink("uart.tx", Tag::EMPTY)
        .build();
    let prog = asm(|a| {
        a.li(T0, 0x2000);
        a.li(T1, map::UART_BASE as i32);
        a.lbu(T2, 0, T0);
        a.sw(T2, 0, T1); // leaks key byte 0
        a.ebreak();
    });
    let mut soc = Soc::<Tainted>::new(SocBuilder::new().policy(policy).build());
    soc.load_program(&prog);
    match soc.run(100_000) {
        SocExit::Violation(v) => {
            assert_eq!(v.kind, ViolationKind::Output { sink: "uart.tx".into() });
        }
        other => panic!("expected violation, got {other:?}"),
    }
    assert!(soc.uart().borrow().output().is_empty());
}

#[test]
fn record_mode_collects_violations_and_finishes() {
    let policy = SecurityPolicy::builder("audit")
        .classify_region("key", vpdift_core::AddrRange::new(0x2000, 4), SECRET)
        .sink("uart.tx", Tag::EMPTY)
        .build();
    let prog = asm(|a| {
        a.li(T0, 0x2000);
        a.li(T1, map::UART_BASE as i32);
        a.lbu(T2, 0, T0);
        a.sw(T2, 0, T1);
        a.lbu(T2, 1, T0);
        a.sw(T2, 0, T1);
        a.ebreak();
    });
    let cfg = SocBuilder::new().policy(policy).enforce(EnforceMode::Record).build();
    let mut soc = Soc::<Tainted>::new(cfg);
    soc.load_program(&prog);
    assert_eq!(soc.run(100_000), SocExit::Break);
    assert_eq!(soc.engine().borrow().violations().len(), 2);
}

#[test]
fn sensor_interrupt_drives_handler() {
    // Enable the sensor IRQ through the PLIC, wfi until the 25 ms frame,
    // then read a frame byte in the handler.
    let prog = asm(|a| {
        a.la(T0, "handler");
        a.csrw(csr::MTVEC, T0);
        // PLIC enable sensor source.
        a.li(T0, map::PLIC_BASE as i32);
        a.li(T1, 1 << map::IRQ_SENSOR);
        a.sw(T1, 4, T0); // ENABLE
                         // mie.MEIE + mstatus.MIE
        a.li(T1, csr::MIE_MEIE as i32);
        a.csrw(csr::MIE, T1);
        a.li(T1, csr::MSTATUS_MIE as i32);
        a.csrw(csr::MSTATUS, T1);
        a.wfi();
        a.ebreak();

        a.label("handler");
        // Claim.
        a.li(T0, map::PLIC_BASE as i32);
        a.lw(A1, 8, T0); // CLAIM -> source id
                         // Read first sensor byte.
        a.li(T0, map::SENSOR_BASE as i32);
        a.lbu(A0, 0, T0);
        a.mret();
    });
    let mut soc = Soc::<Tainted>::new(SocBuilder::new().build());
    soc.load_program(&prog);
    assert_eq!(soc.run(1_000_000), SocExit::Break);
    assert_eq!(soc.cpu().reg(A1).val(), map::IRQ_SENSOR, "claimed the sensor source");
    assert!(soc.cpu().reg(A0).val() >= 128, "frame data is the Fig. 4 printable range");
    assert!(soc.now() >= vpdift_kernel::SimTime::from_ms(25), "woke at the first frame");
}

#[test]
fn sensor_data_tag_flows_into_software() {
    // Classify sensor data as secret via the policy source; reading the
    // frame taints the destination register.
    let policy = SecurityPolicy::builder("sensor-secret").source("sensor.data", SECRET).build();
    let prog = asm(|a| {
        a.li(T0, map::SENSOR_BASE as i32);
        a.lbu(A0, 0, T0);
        a.ebreak();
    });
    let mut soc = Soc::<Tainted>::new(SocBuilder::new().policy(policy).build());
    soc.load_program(&prog);
    soc.sensor_mut().generate_frame();
    assert_eq!(soc.run(1000), SocExit::Break);
    assert_eq!(Word::tag(soc.cpu().reg(A0)), SECRET);
}

#[test]
fn timer_interrupt_via_clint() {
    let prog = asm(|a| {
        a.la(T0, "handler");
        a.csrw(csr::MTVEC, T0);
        a.li(T0, (map::CLINT_BASE + 0xBFF8) as i32);
        a.lw(T1, 0, T0); // mtime lo
        a.addi(T1, T1, 100);
        a.li(T0, (map::CLINT_BASE + 0x4000) as i32);
        a.sw(T1, 0, T0); // mtimecmp lo (hi stays... MAX) -> set hi to 0
        a.li(T2, 0);
        a.sw(T2, 4, T0);
        a.li(T1, csr::MIE_MTIE as i32);
        a.csrw(csr::MIE, T1);
        a.li(T1, csr::MSTATUS_MIE as i32);
        a.csrw(csr::MSTATUS, T1);
        a.label("spin");
        a.wfi();
        a.j("spin");
        a.label("handler");
        a.csrr(A0, csr::MCAUSE);
        a.ebreak();
    });
    let mut soc = Soc::<Plain>::new(SocBuilder::new().build());
    soc.load_program(&prog);
    assert_eq!(soc.run(1_000_000), SocExit::Break);
    assert_eq!(soc.cpu().reg(A0).val(), 0x8000_0007, "machine timer interrupt taken");
}

#[test]
fn can_round_trip_with_host() {
    // Host sends a frame; guest reads it, adds 1 to each byte, sends back.
    let policy = SecurityPolicy::builder("can")
        .source("can.rx", UNTRUSTED)
        .sink("can.tx", UNTRUSTED)
        .build();
    let prog = asm(|a| {
        a.li(T0, map::CAN_BASE as i32);
        a.label("wait");
        a.lw(T1, 0x20, T0); // RX_AVAIL
        a.beqz(T1, "wait");
        a.lw(A0, 0x24, T0); // RX_ID
        a.lw(A1, 0x28, T0); // RX_DLC
                            // Copy data bytes +1 into TX.
        a.li(T2, 0); // index
        a.label("copy");
        a.bge(T2, A1, "send");
        a.add(T3, T0, T2);
        a.lbu(T4, 0x2C, T3);
        a.addi(T4, T4, 1);
        a.sb(T4, 0x08, T3);
        a.addi(T2, T2, 1);
        a.j("copy");
        a.label("send");
        a.sw(A0, 0x00, T0); // TX_ID = RX_ID
        a.sw(A1, 0x04, T0); // TX_DLC
        a.li(T5, 1);
        a.sw(T5, 0x10, T0); // TX_GO
        a.sw(T5, 0x34, T0); // RX_POP
        a.ebreak();
    });
    let mut soc = Soc::<Tainted>::new(SocBuilder::new().policy(policy).build());
    soc.load_program(&prog);
    soc.can_host().send(CanFrame::new(0x42, &[10, 20, 30]));
    assert_eq!(soc.run(1_000_000), SocExit::Break);
    let reply = soc.can_host().recv().expect("reply frame");
    assert_eq!(reply.id, 0x42);
    assert_eq!(reply.bytes(), vec![11, 21, 31]);
}

#[test]
fn aes_encrypt_from_guest_declassifies() {
    // Key is secret in RAM; guest copies key+plaintext into AES, encrypts,
    // and sends the ciphertext to the UART — allowed because the policy
    // grants AES declassification to (LC,LI) = untrusted.
    let policy = SecurityPolicy::builder("aes")
        .classify_region("key", vpdift_core::AddrRange::new(0x2000, 16), SECRET)
        .sink("uart.tx", UNTRUSTED)
        .source("aes.out", UNTRUSTED)
        .allow_declassify("aes")
        .build();
    let prog = asm(|a| {
        a.li(T0, 0x2000); // key
        a.li(T1, map::AES_BASE as i32);
        a.li(T2, 0);
        a.label("key");
        a.add(T3, T0, T2);
        a.lbu(T4, 0, T3);
        a.add(T3, T1, T2);
        a.sb(T4, 0, T3); // KEY window
        a.addi(T2, T2, 1);
        a.li(T5, 16);
        a.blt(T2, T5, "key");
        // Plaintext: zeros (DATA_IN already zero).
        a.li(T2, 1);
        a.sw(T2, 0x30, T1); // CTRL = encrypt
                            // Send first ciphertext byte to UART.
        a.lbu(A0, 0x20, T1);
        a.li(T6, map::UART_BASE as i32);
        a.sw(A0, 0, T6);
        a.ebreak();
    });
    let mut soc = Soc::<Tainted>::new(SocBuilder::new().policy(policy).build());
    soc.load_program(&prog);
    soc.ram_mut().load_image(0x2000, &[0x2B; 16]);
    // classification already applied by load_program; re-apply since we
    // just overwrote the bytes:
    soc.ram_mut().classify(0x2000, 16, SECRET);
    assert_eq!(soc.run(1_000_000), SocExit::Break);
    assert_eq!(soc.uart().borrow().output().len(), 1, "declassified ciphertext left");

    // Control experiment: leaking the *key* byte directly must fail.
    let leak = asm(|a| {
        a.li(T0, 0x2000);
        a.lbu(A0, 0, T0);
        a.li(T6, map::UART_BASE as i32);
        a.sw(A0, 0, T6);
        a.ebreak();
    });
    let policy = SecurityPolicy::builder("aes")
        .classify_region("key", vpdift_core::AddrRange::new(0x2000, 16), SECRET)
        .sink("uart.tx", UNTRUSTED)
        .build();
    let mut soc = Soc::<Tainted>::new(SocBuilder::new().policy(policy).build());
    soc.load_program(&leak);
    soc.ram_mut().classify(0x2000, 16, SECRET);
    assert!(matches!(soc.run(10_000), SocExit::Violation(_)));
}

#[test]
fn dma_copy_from_guest_preserves_taint() {
    let policy = SecurityPolicy::builder("dma")
        .classify_region("src", vpdift_core::AddrRange::new(0x3000, 8), SECRET)
        .build();
    let prog = asm(|a| {
        a.li(T0, map::DMA_BASE as i32);
        a.li(T1, 0x3000);
        a.sw(T1, 0x0, T0); // SRC
        a.li(T1, 0x4000);
        a.sw(T1, 0x4, T0); // DST
        a.li(T1, 8);
        a.sw(T1, 0x8, T0); // LEN
        a.li(T1, 1);
        a.sw(T1, 0xC, T0); // CTRL
                           // Read back a copied byte -> should be tainted.
        a.li(T2, 0x4000);
        a.lbu(A0, 0, T2);
        a.ebreak();
    });
    let mut soc = Soc::<Tainted>::new(SocBuilder::new().policy(policy).build());
    soc.load_program(&prog);
    soc.ram_mut().load_image(0x3000, &[9; 8]);
    soc.ram_mut().classify(0x3000, 8, SECRET);
    assert_eq!(soc.run(100_000), SocExit::Break);
    assert_eq!(soc.cpu().reg(A0).val(), 9);
    assert_eq!(Word::tag(soc.cpu().reg(A0)), SECRET, "taint followed the DMA transfer");
    assert_eq!(soc.dma().bytes_moved(), 8);
}

#[test]
fn store_clearance_protects_pin_region() {
    // Writing untrusted data over the protected PIN region traps.
    let policy = SecurityPolicy::builder("protect")
        .source("terminal.rx", UNTRUSTED)
        .protect_region("pin", vpdift_core::AddrRange::new(0x2000, 4), SECRET)
        .build();
    let prog = asm(|a| {
        a.li(T0, map::TERMINAL_BASE as i32);
        a.lw(T1, 0, T0); // untrusted byte
        a.li(T2, 0x2000);
        a.sb(T1, 0, T2); // overwrite PIN
        a.ebreak();
    });
    let mut soc = Soc::<Tainted>::new(SocBuilder::new().policy(policy).build());
    soc.load_program(&prog);
    soc.terminal().borrow_mut().feed(b"X");
    match soc.run(10_000) {
        SocExit::Violation(v) => {
            assert!(matches!(v.kind, ViolationKind::Store { ref region } if region == "pin"));
            assert!(v.pc.is_some());
        }
        other => panic!("expected store violation, got {other:?}"),
    }
}

#[test]
fn plain_soc_runs_same_program_unchecked() {
    let prog = asm(|a| {
        a.li(T0, 0x2000);
        a.lbu(T2, 0, T0);
        a.li(T1, map::UART_BASE as i32);
        a.sw(T2, 0, T1);
        a.ebreak();
    });
    let mut soc = Soc::<Plain>::new(SocBuilder::new().build());
    soc.load_program(&prog);
    assert_eq!(soc.run(10_000), SocExit::Break);
}

#[test]
fn instr_limit_and_idle_exits() {
    let spin = asm(|a| {
        a.label("spin");
        a.j("spin");
    });
    let mut soc = Soc::<Plain>::new(SocBuilder::new().build());
    soc.load_program(&spin);
    assert_eq!(soc.run(1000), SocExit::InstrLimit);
    assert_eq!(soc.instret(), 1000);

    // wfi with no interrupt source armed and no sensor thread -> Idle.
    let sleep = asm(|a| {
        a.wfi();
        a.ebreak();
    });
    let cfg = SocBuilder::new().sensor_thread(false).build();
    let mut soc = Soc::<Plain>::new(cfg);
    soc.load_program(&sleep);
    assert_eq!(soc.run(1000), SocExit::Idle);
}

#[test]
fn simulated_time_advances_with_instructions() {
    let prog = asm(|a| {
        for _ in 0..100 {
            a.nop();
        }
        a.ebreak();
    });
    let mut soc = Soc::<Plain>::new(SocBuilder::new().build());
    soc.load_program(&prog);
    assert_eq!(soc.run(10_000), SocExit::Break);
    // 101 instructions at 10 ns each ≈ 1.01 µs (quantum-rounded).
    assert!(soc.now() >= vpdift_kernel::SimTime::from_ns(1000));
    assert!(soc.now() <= vpdift_kernel::SimTime::from_us(20));
}

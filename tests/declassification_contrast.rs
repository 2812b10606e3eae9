//! The declassification design point, demonstrated: the *same* encryption
//! of the *same* secret key either may or may not leave the system,
//! depending on whether it ran in the trusted AES peripheral (which holds
//! the policy's declassification grant) or in guest software (which cannot
//! declassify — DIFT correctly sees every ciphertext byte depend on the
//! key). This is why the paper's threat model puts declassification in
//! hardware only.

use taintvp::asm::{Asm, Reg};
use taintvp::core::{AddrRange, SecurityPolicy, Tag, ViolationKind};
use taintvp::firmware::aes_soft::{emit_aes_data, emit_aes_encrypt};
use taintvp::firmware::rt::emit_runtime;
use taintvp::prelude::{map, Soc, SocBuilder, SocExit};
use taintvp::rv32::Tainted;

use Reg::*;

const SECRET: Tag = Tag::from_bits(0b01);
const UNTRUSTED: Tag = Tag::from_bits(0b10);

fn policy() -> SecurityPolicy {
    SecurityPolicy::builder("contrast")
        .classify_region("key", AddrRange::new(0x4000, 16), SECRET)
        .sink("uart.tx", UNTRUSTED)
        .source("aes.out", UNTRUSTED)
        .allow_declassify("aes")
        .build()
}

/// Guest that encrypts the key region's secret key over a fixed plaintext
/// *in software* and transmits the first ciphertext byte.
fn soft_crypto_program() -> taintvp::asm::Program {
    let mut a = Asm::new(0);
    a.entry();
    a.li(A0, 0x4000); // secret key in RAM
    a.la(A1, "pt");
    a.la(A2, "ct");
    a.call("aes_encrypt");
    a.la(T0, "ct");
    a.lbu(T1, 0, T0);
    a.li(T2, map::UART_BASE as i32);
    a.sw(T1, 0, T2); // transmit ciphertext byte
    a.ebreak();
    emit_aes_encrypt(&mut a);
    emit_runtime(&mut a);
    emit_aes_data(&mut a);
    a.align(4);
    a.label("pt");
    a.bytes(&[0u8; 16]);
    a.label("ct");
    a.zero(16);
    a.assemble().unwrap()
}

/// Guest doing the same through the AES peripheral.
fn hw_crypto_program() -> taintvp::asm::Program {
    let mut a = Asm::new(0);
    a.li(S0, 0x4000);
    a.li(S1, map::AES_BASE as i32);
    a.li(T0, 0);
    a.label("key");
    a.add(T1, S0, T0);
    a.lbu(T2, 0, T1);
    a.add(T1, S1, T0);
    a.sb(T2, 0, T1); // KEY window
    a.addi(T0, T0, 1);
    a.li(T3, 16);
    a.blt(T0, T3, "key");
    a.li(T0, 1);
    a.sw(T0, 0x30, S1); // encrypt
    a.lbu(T1, 0x20, S1); // first ciphertext byte (declassified)
    a.li(T2, map::UART_BASE as i32);
    a.sw(T1, 0, T2);
    a.ebreak();
    a.assemble().unwrap()
}

fn run(prog: &taintvp::asm::Program) -> (SocExit, usize, [u8; 16]) {
    let cfg = SocBuilder::new().policy(policy()).sensor_thread(false).build();
    let mut soc = Soc::<Tainted>::new(cfg);
    soc.load_program(prog);
    let key: [u8; 16] = *b"sixteen byte key";
    soc.ram_mut().load_image(0x4000, &key);
    soc.ram_mut().classify(0x4000, 16, SECRET);
    let exit = soc.run(10_000_000);
    let n = soc.uart().borrow().output().len();
    (exit, n, key)
}

#[test]
fn software_crypto_cannot_declassify() {
    let (exit, uart_len, key) = run(&soft_crypto_program());
    match exit {
        SocExit::Violation(v) => {
            assert_eq!(v.kind, ViolationKind::Output { sink: "uart.tx".into() });
            assert_eq!(v.tag, SECRET, "ciphertext carries the key's tag");
        }
        other => panic!("software ciphertext escaped: {other:?}"),
    }
    assert_eq!(uart_len, 0, "nothing left the system");

    // Sanity: the software encryption was *correct* — compare against the
    // host AES over the same key/plaintext. Taint, not math, blocked it.
    let expected = taintvp::periph::Aes128::new(&key).encrypt_block(&[0u8; 16]);
    assert_ne!(expected[0], 0);
}

#[test]
fn hardware_crypto_declassifies_and_transmits() {
    let (exit, uart_len, _) = run(&hw_crypto_program());
    assert_eq!(exit, SocExit::Break);
    assert_eq!(uart_len, 1, "declassified ciphertext byte transmitted");
}

#[test]
fn software_and_hardware_compute_the_same_ciphertext() {
    // Run the software path under a permissive policy and compare the
    // full ciphertext with the host model — the guest AES is real AES.
    let cfg = SocBuilder::new().policy(SecurityPolicy::permissive()).sensor_thread(false).build();
    let mut soc = Soc::<Tainted>::new(cfg);
    let prog = soft_crypto_program();
    soc.load_program(&prog);
    let key: [u8; 16] = *b"sixteen byte key";
    soc.ram_mut().load_image(0x4000, &key);
    assert_eq!(soc.run(10_000_000), SocExit::Break);
    let ct_addr = prog.symbol("ct").unwrap();
    let ram = soc.ram();
    let got: Vec<u8> = (0..16).map(|i| ram.byte_at(ct_addr + i).unwrap().0).collect();
    let expected = taintvp::periph::Aes128::new(&key).encrypt_block(&[0u8; 16]);
    assert_eq!(got, expected);
}

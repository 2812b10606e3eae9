//! Quickstart: build a security policy, assemble a tiny guest program,
//! run it on the DIFT-enabled virtual prototype, and watch the engine
//! stop a secret from leaking.
//!
//! Run with: `cargo run --example quickstart`

use taintvp::asm::{Asm, Reg};
use taintvp::core::{AddrRange, SecurityPolicy, Tag};
use taintvp::prelude::{map, Soc, SocBuilder, SocExit};
use taintvp::rv32::Tainted;

fn main() {
    // 1. A policy: the word at 0x2000 is secret; the UART only accepts
    //    public data.
    let secret = Tag::atom(0);
    let policy = SecurityPolicy::builder("quickstart")
        .classify_region("secret-word", AddrRange::new(0x2000, 4), secret)
        .sink("uart.tx", Tag::EMPTY)
        .build();

    // 2. A guest program: print a greeting, then (accidentally) print the
    //    secret word too.
    let mut a = Asm::new(0);
    a.li(Reg::T0, map::UART_BASE as i32);
    for b in "hello ".bytes() {
        a.li(Reg::T1, b as i32);
        a.sw(Reg::T1, 0, Reg::T0);
    }
    a.li(Reg::T2, 0x2000);
    a.lw(Reg::T1, 0, Reg::T2); // load the secret
    a.sw(Reg::T1, 0, Reg::T0); // ... and leak it
    a.ebreak();
    let program = a.assemble().expect("assembles");

    // 3. Run on the DIFT VP+.
    let mut soc = Soc::<Tainted>::new(SocBuilder::new().policy(policy).build());
    soc.load_program(&program);
    soc.ram_mut().load_image(0x2000, &0xC0FF_EE00u32.to_le_bytes());
    soc.ram_mut().classify(0x2000, 4, secret);

    match soc.run(10_000) {
        SocExit::Violation(v) => {
            println!("UART printed so far: {:?}", soc.uart().borrow().output_string());
            println!("DIFT engine stopped the program: {v}");
        }
        other => println!("unexpected exit: {other:?}"),
    }
}

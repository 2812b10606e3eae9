//! Guest-driven taint introspection: firmware validating its own
//! classification state through the taint-debug peripheral.

use vpdift_asm::{Asm, Reg};
use vpdift_core::{AddrRange, EnforceMode, SecurityPolicy, Tag, ViolationKind};
use vpdift_rv32::{Tainted, Word};
use vpdift_soc::{map, Soc, SocBuilder, SocExit};

use Reg::*;

const SECRET: Tag = Tag::from_bits(0b1);

#[test]
fn guest_reads_its_own_tags() {
    // Firmware inspects the tag of a classified byte and of a public one,
    // leaving both tag words in registers.
    let policy = SecurityPolicy::builder("introspect")
        .classify_region("key", AddrRange::new(0x2000, 4), SECRET)
        .build();
    let prog = {
        let mut a = Asm::new(0);
        a.li(T0, map::TAINTDBG_BASE as i32);
        a.li(T1, 0x2000);
        a.sw(T1, 0x0, T0); // ADDR = classified byte
        a.lw(A0, 0x4, T0); // TAG
        a.li(T1, 0x3000);
        a.sw(T1, 0x0, T0); // ADDR = public byte
        a.lw(A1, 0x4, T0); // TAG
        a.ebreak();
        a.assemble().unwrap()
    };
    let cfg = SocBuilder::new().policy(policy).sensor_thread(false).build();
    let mut soc = Soc::<Tainted>::new(cfg);
    soc.load_program(&prog);
    assert_eq!(soc.run(10_000), SocExit::Break);
    assert_eq!(soc.cpu().reg(A0).val(), SECRET.bits());
    assert_eq!(soc.cpu().reg(A1).val(), 0);
}

#[test]
fn guest_taint_assertions_catch_policy_mistakes() {
    // The firmware test asserts the key region is classified. Run once
    // with the classification present (passes) and once with a policy
    // that forgot it (assertion fires).
    let prog = {
        let mut a = Asm::new(0);
        a.li(T0, map::TAINTDBG_BASE as i32);
        a.li(T1, 0x2000);
        a.sw(T1, 0x0, T0); // ADDR
        a.li(T1, SECRET.bits() as i32);
        a.sw(T1, 0x8, T0); // ASSERT_TAG = secret
        a.lw(A0, 0xC, T0); // FAILED count
        a.ebreak();
        a.assemble().unwrap()
    };

    let good = SecurityPolicy::builder("good")
        .classify_region("key", AddrRange::new(0x2000, 4), SECRET)
        .build();
    let cfg = SocBuilder::new().policy(good).sensor_thread(false).build();
    let mut soc = Soc::<Tainted>::new(cfg);
    soc.load_program(&prog);
    assert_eq!(soc.run(10_000), SocExit::Break);
    assert_eq!(soc.cpu().reg(A0).val(), 0, "assertion passed");

    // The buggy policy: classification forgotten.
    let buggy = SecurityPolicy::builder("buggy").build();
    let cfg =
        SocBuilder::new().policy(buggy).enforce(EnforceMode::Record).sensor_thread(false).build();
    let mut soc = Soc::<Tainted>::new(cfg);
    soc.load_program(&prog);
    assert_eq!(soc.run(10_000), SocExit::Break);
    assert_eq!(soc.cpu().reg(A0).val(), 1, "assertion failure counted");
    let engine = soc.engine().borrow();
    assert_eq!(engine.violations().len(), 1);
    assert!(matches!(
        engine.violations()[0].kind,
        ViolationKind::Custom { ref what } if what.contains("assertion")
    ));
    assert_eq!(soc.taintdbg().failed(), 1);
}

#[test]
fn enforced_assertion_stops_the_run() {
    let prog = {
        let mut a = Asm::new(0);
        a.li(T0, map::TAINTDBG_BASE as i32);
        a.li(T1, 0x2000);
        a.sw(T1, 0x0, T0);
        a.li(T1, 0xF);
        a.sw(T1, 0x8, T0); // expect 0xF on an unclassified byte
        a.ebreak();
        a.assemble().unwrap()
    };
    let cfg = SocBuilder::new().policy(SecurityPolicy::permissive()).sensor_thread(false).build();
    let mut soc = Soc::<Tainted>::new(cfg);
    soc.load_program(&prog);
    assert!(matches!(soc.run(10_000), SocExit::Violation(_)));
}

//! Integration of the textual frontends: assembly source + policy file
//! drive the same engine as the Rust builders (the `taintvp-run` path).

use taintvp::asm::parse_asm;
use taintvp::core::parse_policy;
use taintvp::prelude::{Soc, SocBuilder, SocExit};
use taintvp::rv32::Tainted;

const PROGRAM: &str = r#"
# copy 4 key bytes to the UART
        li   t0, 0x2000
        li   t1, 0x10000000
        li   t2, 4
loop:
        lbu  t3, 0(t0)
        sw   t3, 0(t1)
        addi t0, t0, 1
        addi t2, t2, -1
        bnez t2, loop
        ebreak
key:
"#;

const POLICY: &str = r#"
policy text-demo
atom secret
classify 0x2000 +4 secret
sink uart.tx public
"#;

#[test]
fn textual_program_and_policy_enforce_together() {
    let program = parse_asm(PROGRAM, 0).expect("program parses");
    let (policy, atoms) = parse_policy(POLICY).expect("policy parses");
    assert_eq!(policy.name(), "text-demo");

    let mut soc = Soc::<Tainted>::new(SocBuilder::new().policy(policy).build());
    soc.load_program(&program);
    soc.ram_mut().load_image(0x2000, b"KEY!");
    soc.ram_mut().classify(0x2000, 4, atoms.tag("secret").unwrap());
    match soc.run(10_000) {
        SocExit::Violation(v) => {
            assert_eq!(atoms.describe(v.tag), "secret");
            assert_eq!(atoms.describe(v.required), "public");
        }
        other => panic!("expected violation, got {other:?}"),
    }
    assert!(soc.uart().borrow().output().is_empty());
}

#[test]
fn textual_program_runs_clean_without_classification() {
    let program = parse_asm(PROGRAM, 0).expect("program parses");
    let (policy, _) = parse_policy("policy open\nsink uart.tx public\n").unwrap();
    let mut soc = Soc::<Tainted>::new(SocBuilder::new().policy(policy).build());
    soc.load_program(&program);
    soc.ram_mut().load_image(0x2000, b"ok!!");
    assert_eq!(soc.run(10_000), SocExit::Break);
    assert_eq!(soc.uart().borrow().output(), b"ok!!");
}

#[test]
fn text_and_builder_assemblies_are_bit_identical() {
    use taintvp::asm::{Asm, Reg};
    let text =
        parse_asm("start:\n  li a0, 0x12345678\n  add a1, a0, a0\n  ebreak\n", 0x80).unwrap();
    let mut b = Asm::new(0x80);
    b.label("start");
    b.li(Reg::A0, 0x12345678);
    b.add(Reg::A1, Reg::A0, Reg::A0);
    b.ebreak();
    assert_eq!(text.image(), b.assemble().unwrap().image());
}

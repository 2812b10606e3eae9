//! Self-checking RV32IMA conformance suite, riscv-tests style.
//!
//! Every program is generated by the workspace assembler, serialised to
//! ELF32 ([`Program::to_elf`]), parsed back by `vpdift-loader`, and
//! executed on the full SoC — so one suite pins down the assembler, the
//! ELF emitter, the loader, both execution engines and both taint modes
//! at once. Each program writes a *signature*: a sequence of 32-bit
//! results stored to a fixed RAM region ([`SIG_BASE`]) before `ebreak`.
//! The harness runs every program under all four configurations
//! (interpreter/block-cache × plain/tainted), requires the signatures to
//! be byte-identical across them, and compares against the committed
//! golden file `tests/conformance_signatures.txt`.
//!
//! Regenerate goldens after an intentional semantic change with:
//!
//! ```text
//! BLESS=1 cargo test --test conformance
//! ```
//!
//! The run also writes `target/conformance/signatures.txt` (the freshly
//! computed signatures, uploaded as a CI artifact) and
//! `target/conformance/summary.txt` (program/config counts + throughput,
//! appended by CI to the benchmark trajectory).

use std::fmt::Write as _;

use taintvp::asm::{csr, Asm, Reg};
use taintvp::loader::Elf32;
use taintvp::rv32::{ExecMode, Plain, TaintMode, Tainted};
use taintvp::soc::{Soc, SocExit};

/// Signature region: programs store result words here, in order.
const SIG_BASE: u32 = 0x8000;

/// Scratch cell for the atomic tests (far from code and signature).
const CELL: i32 = 0x7000;

/// Per-program instruction budget — every program is a short straight
/// run; hitting this means a wedge, not slowness.
const BUDGET: u64 = 2_000_000;

use Reg::{Ra, A0, A1, A2, A3, S0, S1, T0, T1, T2};

/// One conformance program: a name, a generator that emits code storing
/// `sig_words` results at [`SIG_BASE`], ending in `ebreak`.
struct Case {
    name: &'static str,
    sig_words: usize,
    gen: fn(&mut Asm),
}

/// `S0` holds the signature cursor in every program.
fn prologue(a: &mut Asm) {
    a.li(S0, SIG_BASE as i32);
}

// ----- RV32I ------------------------------------------------------------

fn arith(a: &mut Asm) {
    prologue(a);
    a.li(T0, 1000);
    a.li(T1, -234);
    a.add(T2, T0, T1);
    a.sw(T2, 0, S0); // 766
    a.sub(T2, T0, T1);
    a.sw(T2, 4, S0); // 1234
    a.neg(T2, T0);
    a.sw(T2, 8, S0); // -1000
    a.addi(T2, T0, 2047);
    a.sw(T2, 12, S0);
    a.ebreak();
}

fn logic(a: &mut Asm) {
    prologue(a);
    a.li(T0, 0x0F0F_0F0F_u32 as i32);
    a.li(T1, 0x0033_CCFF);
    a.and(T2, T0, T1);
    a.sw(T2, 0, S0);
    a.or(T2, T0, T1);
    a.sw(T2, 4, S0);
    a.xor(T2, T0, T1);
    a.sw(T2, 8, S0);
    a.not(T2, T0);
    a.sw(T2, 12, S0);
    a.andi(T2, T0, -16);
    a.sw(T2, 16, S0);
    a.ebreak();
}

fn shifts(a: &mut Asm) {
    prologue(a);
    a.li(T0, 0x8000_0001_u32 as i32);
    a.slli(T1, T0, 4);
    a.sw(T1, 0, S0);
    a.srli(T1, T0, 4);
    a.sw(T1, 4, S0);
    a.srai(T1, T0, 4);
    a.sw(T1, 8, S0);
    a.li(T2, 31);
    a.sll(T1, T0, T2);
    a.sw(T1, 12, S0);
    a.sra(T1, T0, T2);
    a.sw(T1, 16, S0);
    a.srl(T1, T0, T2);
    a.sw(T1, 20, S0);
    a.ebreak();
}

fn compares(a: &mut Asm) {
    prologue(a);
    a.li(T0, -1);
    a.li(T1, 1);
    a.slt(T2, T0, T1);
    a.sw(T2, 0, S0); // 1: -1 < 1 signed
    a.sltu(T2, T0, T1);
    a.sw(T2, 4, S0); // 0: 0xffffffff > 1 unsigned
    a.slti(T2, T0, 0);
    a.sw(T2, 8, S0); // 1
    a.sltiu(T2, T1, -1);
    a.sw(T2, 12, S0); // 1: 1 < 0xffffffff
    a.seqz(T2, T0);
    a.sw(T2, 16, S0); // 0
    a.snez(T2, T0);
    a.sw(T2, 20, S0); // 1
    a.ebreak();
}

fn lui_auipc(a: &mut Asm) {
    prologue(a);
    a.lui(T0, 0xDEADB);
    a.sw(T0, 0, S0);
    a.auipc(T1, 0);
    a.auipc(T2, 0);
    a.sub(T2, T2, T1); // distance between the two auipc sites: 4
    a.sw(T2, 4, S0);
    a.ebreak();
}

fn branches(a: &mut Asm) {
    prologue(a);
    // Accumulate a bitmask: each taken/not-taken decision sets one bit.
    a.li(S1, 0);
    a.li(T0, -5);
    a.li(T1, 5);
    a.beq(T0, T0, "beq_t");
    a.j("after_beq");
    a.label("beq_t");
    a.ori(S1, S1, 1);
    a.label("after_beq");
    a.bne(T0, T1, "bne_t");
    a.j("after_bne");
    a.label("bne_t");
    a.ori(S1, S1, 2);
    a.label("after_bne");
    a.blt(T0, T1, "blt_t");
    a.j("after_blt");
    a.label("blt_t");
    a.ori(S1, S1, 4);
    a.label("after_blt");
    a.bge(T1, T0, "bge_t");
    a.j("after_bge");
    a.label("bge_t");
    a.ori(S1, S1, 8);
    a.label("after_bge");
    a.bltu(T1, T0, "bltu_t"); // 5 < 0xfffffffb unsigned: taken
    a.j("after_bltu");
    a.label("bltu_t");
    a.ori(S1, S1, 16);
    a.label("after_bltu");
    a.bgeu(T0, T1, "bgeu_t"); // 0xfffffffb >= 5 unsigned: taken
    a.j("after_bgeu");
    a.label("bgeu_t");
    a.ori(S1, S1, 32);
    a.label("after_bgeu");
    a.sw(S1, 0, S0); // 0b111111
    a.ebreak();
}

fn jal_jalr(a: &mut Asm) {
    prologue(a);
    a.li(S1, 0);
    a.call("leaf");
    a.call("nested");
    a.sw(S1, 0, S0); // 1 + 10 + (100 - 1) = 110
    a.ebreak();
    a.label("leaf");
    a.addi(S1, S1, 1);
    a.ret();
    a.label("nested");
    a.addi(Reg::Sp, Reg::Sp, -4);
    a.sw(Ra, 0, Reg::Sp);
    a.addi(S1, S1, 10);
    a.call("leaf2");
    a.lw(Ra, 0, Reg::Sp);
    a.addi(Reg::Sp, Reg::Sp, 4);
    a.ret();
    a.label("leaf2");
    a.addi(S1, S1, 100);
    a.addi(S1, S1, -1);
    a.ret();
}

fn loads_stores(a: &mut Asm) {
    prologue(a);
    a.li(T0, CELL);
    a.li(T1, 0x1122_3344);
    a.sw(T1, 0, T0);
    a.lw(T2, 0, T0);
    a.sw(T2, 0, S0);
    a.li(T1, 0x5566_7788);
    a.sw(T1, 4, T0);
    a.lw(T2, 4, T0);
    a.sw(T2, 4, S0);
    // Overwrite the low half and reload the word.
    a.li(T1, 0xABCD_u32 as i32);
    a.sh(T1, 0, T0);
    a.lw(T2, 0, T0);
    a.sw(T2, 8, S0); // 0x1122ABCD
    a.ebreak();
}

fn bytes_halves(a: &mut Asm) {
    prologue(a);
    a.li(T0, CELL);
    a.li(T1, 0x8081_8283_u32 as i32);
    a.sw(T1, 0, T0);
    a.lb(T2, 0, T0);
    a.sw(T2, 0, S0); // 0xffffff83 (sign-extended)
    a.lbu(T2, 0, T0);
    a.sw(T2, 4, S0); // 0x83
    a.lh(T2, 0, T0);
    a.sw(T2, 8, S0); // 0xffff8283
    a.lhu(T2, 0, T0);
    a.sw(T2, 12, S0); // 0x8283
    a.lb(T2, 3, T0);
    a.sw(T2, 16, S0); // 0xffffff80
    a.sb(Reg::Zero, 1, T0);
    a.lw(T2, 0, T0);
    a.sw(T2, 20, S0); // 0x80810083
    a.ebreak();
}

fn memcpy_loop(a: &mut Asm) {
    prologue(a);
    a.la(A0, "src");
    a.li(A1, CELL);
    a.li(A2, 11); // strlen("conformance")
    a.label("copy");
    a.lbu(T0, 0, A0);
    a.sb(T0, 0, A1);
    a.addi(A0, A0, 1);
    a.addi(A1, A1, 1);
    a.addi(A2, A2, -1);
    a.bnez(A2, "copy");
    a.li(A1, CELL);
    a.lw(T0, 0, A1);
    a.sw(T0, 0, S0);
    a.lw(T0, 4, A1);
    a.sw(T0, 4, S0);
    a.ebreak();
    a.label("src");
    a.asciiz("conformance");
    a.align(4);
}

fn stack_discipline(a: &mut Asm) {
    prologue(a);
    a.li(T0, 0x1111);
    a.li(T1, 0x2222);
    a.addi(Reg::Sp, Reg::Sp, -8);
    a.sw(T0, 0, Reg::Sp);
    a.sw(T1, 4, Reg::Sp);
    a.lw(T2, 0, Reg::Sp);
    a.lw(T0, 4, Reg::Sp);
    a.addi(Reg::Sp, Reg::Sp, 8);
    a.add(T2, T2, T0);
    a.sw(T2, 0, S0); // 0x3333
    a.ebreak();
}

fn csr_scratch(a: &mut Asm) {
    prologue(a);
    a.li(T0, 0x00F0);
    a.csrw(csr::MSCRATCH, T0);
    a.li(T1, 0x0F00);
    a.csrs(csr::MSCRATCH, T1);
    a.csrr(T2, csr::MSCRATCH);
    a.sw(T2, 0, S0); // 0x0FF0
    a.li(T1, 0x00F0);
    a.csrc(csr::MSCRATCH, T1);
    a.csrr(T2, csr::MSCRATCH);
    a.sw(T2, 4, S0); // 0x0F00
    a.ebreak();
}

// ----- RV32M ------------------------------------------------------------

fn mul_basic(a: &mut Asm) {
    prologue(a);
    a.li(T0, 1234);
    a.li(T1, -567);
    a.mul(T2, T0, T1);
    a.sw(T2, 0, S0);
    a.li(T1, 100_000);
    a.mul(T2, T1, T1); // wraps 32 bits
    a.sw(T2, 4, S0);
    a.ebreak();
}

fn mulh_variants(a: &mut Asm) {
    prologue(a);
    a.li(T0, 0x8000_0000_u32 as i32);
    a.li(T1, -1);
    a.mulh(T2, T0, T1);
    a.sw(T2, 0, S0);
    a.mulhu(T2, T0, T1);
    a.sw(T2, 4, S0);
    a.mulhsu(T2, T0, T1);
    a.sw(T2, 8, S0);
    a.mulhsu(T2, T1, T0);
    a.sw(T2, 12, S0);
    a.ebreak();
}

fn div_rem(a: &mut Asm) {
    prologue(a);
    a.li(T0, -7);
    a.li(T1, 2);
    a.div(T2, T0, T1);
    a.sw(T2, 0, S0); // -3 (trunc)
    a.rem(T2, T0, T1);
    a.sw(T2, 4, S0); // -1
    a.divu(T2, T0, T1);
    a.sw(T2, 8, S0); // 0x7ffffffc
    a.remu(T2, T0, T1);
    a.sw(T2, 12, S0); // 1
    a.ebreak();
}

fn div_edges(a: &mut Asm) {
    prologue(a);
    a.li(T0, 42);
    a.div(T2, T0, Reg::Zero);
    a.sw(T2, 0, S0); // -1 (div by zero)
    a.rem(T2, T0, Reg::Zero);
    a.sw(T2, 4, S0); // 42
    a.divu(T2, T0, Reg::Zero);
    a.sw(T2, 8, S0); // 0xffffffff
    a.li(T0, 0x8000_0000_u32 as i32);
    a.li(T1, -1);
    a.div(T2, T0, T1);
    a.sw(T2, 12, S0); // overflow: 0x80000000
    a.rem(T2, T0, T1);
    a.sw(T2, 16, S0); // 0
    a.ebreak();
}

// ----- Small kernels ----------------------------------------------------

fn fibonacci(a: &mut Asm) {
    prologue(a);
    a.li(T0, 0);
    a.li(T1, 1);
    a.li(T2, 20);
    a.label("fib");
    a.add(A0, T0, T1);
    a.mv(T0, T1);
    a.mv(T1, A0);
    a.addi(T2, T2, -1);
    a.bnez(T2, "fib");
    a.sw(T0, 0, S0); // fib(21) = 10946
    a.ebreak();
}

fn sum_array(a: &mut Asm) {
    prologue(a);
    a.la(A0, "data");
    a.li(A1, 6);
    a.li(A2, 0);
    a.label("sum");
    a.lw(T0, 0, A0);
    a.add(A2, A2, T0);
    a.addi(A0, A0, 4);
    a.addi(A1, A1, -1);
    a.bnez(A1, "sum");
    a.sw(A2, 0, S0);
    a.ebreak();
    a.align(4);
    a.label("data");
    for v in [5, -3, 100, 7, -200, 4] {
        a.word(v as u32);
    }
}

fn sort5(a: &mut Asm) {
    prologue(a);
    // Copy 5 words to CELL, bubble-sort in place, store them back.
    a.la(A0, "unsorted");
    a.li(A1, CELL);
    a.li(T0, 5);
    a.label("copy");
    a.lw(T1, 0, A0);
    a.sw(T1, 0, A1);
    a.addi(A0, A0, 4);
    a.addi(A1, A1, 4);
    a.addi(T0, T0, -1);
    a.bnez(T0, "copy");
    a.li(S1, 4); // outer countdown
    a.label("outer");
    a.li(A1, CELL);
    a.li(T0, 4); // inner countdown
    a.label("inner");
    a.lw(T1, 0, A1);
    a.lw(T2, 4, A1);
    a.ble(T1, T2, "noswap");
    a.sw(T2, 0, A1);
    a.sw(T1, 4, A1);
    a.label("noswap");
    a.addi(A1, A1, 4);
    a.addi(T0, T0, -1);
    a.bnez(T0, "inner");
    a.addi(S1, S1, -1);
    a.bnez(S1, "outer");
    a.li(A1, CELL);
    for i in 0..5 {
        a.lw(T1, i * 4, A1);
        a.sw(T1, i * 4, S0);
    }
    a.ebreak();
    a.align(4);
    a.label("unsorted");
    for v in [42, -17, 0, 9999, -1] {
        a.word(v as u32);
    }
}

fn bitcount(a: &mut Asm) {
    prologue(a);
    a.li(T0, 0xF00F_5A5A_u32 as i32);
    a.li(T1, 0); // popcount
    a.label("pop");
    a.andi(T2, T0, 1);
    a.add(T1, T1, T2);
    a.srli(T0, T0, 1);
    a.bnez(T0, "pop");
    a.sw(T1, 0, S0); // 16
    a.ebreak();
}

fn gcd(a: &mut Asm) {
    prologue(a);
    a.li(A0, 1071);
    a.li(A1, 462);
    a.label("gcd");
    a.beqz(A1, "done");
    a.rem(T0, A0, A1);
    a.mv(A0, A1);
    a.mv(A1, T0);
    a.j("gcd");
    a.label("done");
    a.sw(A0, 0, S0); // 21
    a.ebreak();
}

fn collatz(a: &mut Asm) {
    prologue(a);
    a.li(A0, 27);
    a.li(A1, 0); // step counter
    a.li(T2, 1);
    a.label("step");
    a.beq(A0, T2, "done");
    a.andi(T0, A0, 1);
    a.bnez(T0, "odd");
    a.srli(A0, A0, 1);
    a.j("next");
    a.label("odd");
    a.slli(T1, A0, 1);
    a.add(A0, A0, T1);
    a.addi(A0, A0, 1); // 3n + 1
    a.label("next");
    a.addi(A1, A1, 1);
    a.j("step");
    a.label("done");
    a.sw(A1, 0, S0); // 111 steps
    a.ebreak();
}

fn strlen(a: &mut Asm) {
    prologue(a);
    a.la(A0, "text");
    a.li(T1, 0);
    a.label("len");
    a.lbu(T0, 0, A0);
    a.beqz(T0, "done");
    a.addi(A0, A0, 1);
    a.addi(T1, T1, 1);
    a.j("len");
    a.label("done");
    a.sw(T1, 0, S0); // 29
    a.ebreak();
    a.label("text");
    a.asciiz("dynamic information flow rock");
    a.align(4);
}

fn checksum(a: &mut Asm) {
    prologue(a);
    a.la(A0, "blob");
    a.li(A1, 8);
    a.li(A2, 0);
    a.label("mix");
    a.lw(T0, 0, A0);
    a.xor(A2, A2, T0);
    a.slli(T1, A2, 7);
    a.srli(A2, A2, 25);
    a.or(A2, A2, T1); // rotl 7
    a.addi(A0, A0, 4);
    a.addi(A1, A1, -1);
    a.bnez(A1, "mix");
    a.sw(A2, 0, S0);
    a.ebreak();
    a.align(4);
    a.label("blob");
    for i in 0u32..8 {
        a.word(0x9E37_79B9u32.wrapping_mul(i + 1));
    }
}

// ----- RV32A: AMOs ------------------------------------------------------

/// Common AMO scaffold: cell = `init`, run `emit(rd=T2, rs2=T1, rs1=T0)`,
/// signature = [old value (rd), new memory value].
fn amo_case(a: &mut Asm, init: i32, rhs: i32, emit: fn(&mut Asm)) {
    prologue(a);
    a.li(T0, CELL);
    a.li(T2, init);
    a.sw(T2, 0, T0);
    a.li(T1, rhs);
    emit(a);
    a.sw(T2, 0, S0); // rd: the loaded (old) value
    a.lw(T2, 0, T0);
    a.sw(T2, 4, S0); // memory after the AMO
    a.ebreak();
}

fn amo_add(a: &mut Asm) {
    amo_case(a, 100, -42, |a| {
        a.amoadd_w(T2, T1, T0);
    });
}

fn amo_swap(a: &mut Asm) {
    amo_case(a, 0x1111, 0x2222, |a| {
        a.amoswap_w(T2, T1, T0);
    });
}

fn amo_xor(a: &mut Asm) {
    amo_case(a, 0x0FF0, 0xFF00, |a| {
        a.amoxor_w(T2, T1, T0);
    });
}

fn amo_or(a: &mut Asm) {
    amo_case(a, 0x0F0F, 0x00FF, |a| {
        a.amoor_w(T2, T1, T0);
    });
}

fn amo_and(a: &mut Asm) {
    amo_case(a, 0x0F0F, 0x00FF, |a| {
        a.amoand_w(T2, T1, T0);
    });
}

fn amo_min(a: &mut Asm) {
    amo_case(a, -5, 3, |a| {
        a.amomin_w(T2, T1, T0);
    });
}

fn amo_max(a: &mut Asm) {
    amo_case(a, -5, 3, |a| {
        a.amomax_w(T2, T1, T0);
    });
}

fn amo_minu(a: &mut Asm) {
    // -5 = 0xfffffffb is LARGE unsigned; contrast with amo_min.
    amo_case(a, -5, 3, |a| {
        a.amominu_w(T2, T1, T0);
    });
}

fn amo_maxu(a: &mut Asm) {
    amo_case(a, -5, 3, |a| {
        a.amomaxu_w(T2, T1, T0);
    });
}

// ----- RV32A: LR/SC -----------------------------------------------------

fn lrsc_success(a: &mut Asm) {
    prologue(a);
    a.li(T0, CELL);
    a.li(T1, 500);
    a.sw(T1, 0, T0);
    a.lr_w(T2, T0);
    a.addi(T2, T2, 1);
    a.sc_w(A0, T2, T0);
    a.sw(A0, 0, S0); // 0: success
    a.lw(T2, 0, T0);
    a.sw(T2, 4, S0); // 501
    a.ebreak();
}

fn sc_without_reservation(a: &mut Asm) {
    prologue(a);
    a.li(T0, CELL);
    a.li(T1, 500);
    a.sw(T1, 0, T0);
    a.li(T2, 999);
    a.sc_w(A0, T2, T0); // no LR: must fail
    a.sw(A0, 0, S0); // 1
    a.lw(T2, 0, T0);
    a.sw(T2, 4, S0); // 500 (unchanged)
    a.ebreak();
}

fn sc_after_intervening_store(a: &mut Asm) {
    prologue(a);
    a.li(T0, CELL);
    a.li(T1, 500);
    a.sw(T1, 0, T0);
    a.lr_w(T2, T0);
    a.sw(T1, 64, T0); // unrelated store: breaks the reservation
    a.addi(T2, T2, 1);
    a.sc_w(A0, T2, T0);
    a.sw(A0, 0, S0); // 1: fail
    a.lw(T2, 0, T0);
    a.sw(T2, 4, S0); // 500 (unchanged)
    a.ebreak();
}

fn sc_wrong_address(a: &mut Asm) {
    prologue(a);
    a.li(T0, CELL);
    a.li(T1, 500);
    a.sw(T1, 0, T0);
    a.sw(T1, 8, T0);
    a.lr_w(T2, T0);
    a.addi(A1, T0, 8);
    a.sc_w(A0, T2, A1); // SC to a different address: fail
    a.sw(A0, 0, S0); // 1
    a.sc_w(A0, T2, T0); // reservation was consumed: fail again
    a.sw(A0, 4, S0); // 1
    a.lw(T2, 8, T0);
    a.sw(T2, 8, S0); // 500 (unchanged)
    a.ebreak();
}

fn amo_breaks_reservation(a: &mut Asm) {
    prologue(a);
    a.li(T0, CELL);
    a.li(T1, 500);
    a.sw(T1, 0, T0);
    a.lr_w(T2, T0);
    a.li(A1, 1);
    a.addi(A2, T0, 64);
    a.sw(Reg::Zero, 0, A2);
    a.amoadd_w(A3, A1, A2); // AMO elsewhere: reservation dies
    a.addi(T2, T2, 1);
    a.sc_w(A0, T2, T0);
    a.sw(A0, 0, S0); // 1: fail
    a.lw(T2, 0, T0);
    a.sw(T2, 4, S0); // 500
    a.lw(T2, 0, A2);
    a.sw(T2, 8, S0); // 1 (the AMO landed)
    a.ebreak();
}

fn lr_sc_retry_loop(a: &mut Asm) {
    prologue(a);
    // Atomic-increment idiom: retry until the SC succeeds. On this
    // single-hart VP the first attempt wins, but the loop shape is the
    // one real firmware uses.
    a.li(T0, CELL);
    a.sw(Reg::Zero, 0, T0);
    a.li(S1, 5); // five increments
    a.label("again");
    a.label("retry");
    a.lr_w(T2, T0);
    a.addi(T2, T2, 1);
    a.sc_w(A0, T2, T0);
    a.bnez(A0, "retry");
    a.addi(S1, S1, -1);
    a.bnez(S1, "again");
    a.lw(T2, 0, T0);
    a.sw(T2, 0, S0); // 5
    a.ebreak();
}

fn amo_mixed_sequence(a: &mut Asm) {
    prologue(a);
    // Chain every AMO once over one cell; the final value pins the whole
    // read-modify-write pipeline ordering.
    a.li(T0, CELL);
    a.li(T2, 7);
    a.sw(T2, 0, T0);
    a.li(T1, 9);
    a.amoadd_w(T2, T1, T0); // 16
    a.li(T1, 0x3C);
    a.amoxor_w(T2, T1, T0); // 0x2c
    a.li(T1, 0x111);
    a.amoor_w(T2, T1, T0); // 0x13d
    a.li(T1, 0xFF);
    a.amoand_w(T2, T1, T0); // 0x3d
    a.li(T1, -2);
    a.amomin_w(T2, T1, T0); // -2
    a.li(T1, 10);
    a.amomax_w(T2, T1, T0); // 10
    a.li(T1, 3);
    a.amominu_w(T2, T1, T0); // 3
    a.li(T1, -1);
    a.amomaxu_w(T2, T1, T0); // 0xffffffff
    a.li(T1, 0x77);
    a.amoswap_w(T2, T1, T0); // 0x77, rd = 0xffffffff
    a.sw(T2, 0, S0);
    a.lw(T2, 0, T0);
    a.sw(T2, 4, S0);
    a.ebreak();
}

fn cases() -> Vec<Case> {
    vec![
        Case { name: "arith", sig_words: 4, gen: arith },
        Case { name: "logic", sig_words: 5, gen: logic },
        Case { name: "shifts", sig_words: 6, gen: shifts },
        Case { name: "compares", sig_words: 6, gen: compares },
        Case { name: "lui_auipc", sig_words: 2, gen: lui_auipc },
        Case { name: "branches", sig_words: 1, gen: branches },
        Case { name: "jal_jalr", sig_words: 1, gen: jal_jalr },
        Case { name: "loads_stores", sig_words: 3, gen: loads_stores },
        Case { name: "bytes_halves", sig_words: 6, gen: bytes_halves },
        Case { name: "memcpy_loop", sig_words: 2, gen: memcpy_loop },
        Case { name: "stack_discipline", sig_words: 1, gen: stack_discipline },
        Case { name: "csr_scratch", sig_words: 2, gen: csr_scratch },
        Case { name: "mul_basic", sig_words: 2, gen: mul_basic },
        Case { name: "mulh_variants", sig_words: 4, gen: mulh_variants },
        Case { name: "div_rem", sig_words: 4, gen: div_rem },
        Case { name: "div_edges", sig_words: 5, gen: div_edges },
        Case { name: "fibonacci", sig_words: 1, gen: fibonacci },
        Case { name: "sum_array", sig_words: 1, gen: sum_array },
        Case { name: "sort5", sig_words: 5, gen: sort5 },
        Case { name: "bitcount", sig_words: 1, gen: bitcount },
        Case { name: "gcd", sig_words: 1, gen: gcd },
        Case { name: "collatz", sig_words: 1, gen: collatz },
        Case { name: "strlen", sig_words: 1, gen: strlen },
        Case { name: "checksum", sig_words: 1, gen: checksum },
        Case { name: "amo_add", sig_words: 2, gen: amo_add },
        Case { name: "amo_swap", sig_words: 2, gen: amo_swap },
        Case { name: "amo_xor", sig_words: 2, gen: amo_xor },
        Case { name: "amo_or", sig_words: 2, gen: amo_or },
        Case { name: "amo_and", sig_words: 2, gen: amo_and },
        Case { name: "amo_min", sig_words: 2, gen: amo_min },
        Case { name: "amo_max", sig_words: 2, gen: amo_max },
        Case { name: "amo_minu", sig_words: 2, gen: amo_minu },
        Case { name: "amo_maxu", sig_words: 2, gen: amo_maxu },
        Case { name: "amo_mixed_sequence", sig_words: 2, gen: amo_mixed_sequence },
        Case { name: "lrsc_success", sig_words: 2, gen: lrsc_success },
        Case { name: "sc_without_reservation", sig_words: 2, gen: sc_without_reservation },
        Case { name: "sc_after_intervening_store", sig_words: 2, gen: sc_after_intervening_store },
        Case { name: "sc_wrong_address", sig_words: 3, gen: sc_wrong_address },
        Case { name: "amo_breaks_reservation", sig_words: 3, gen: amo_breaks_reservation },
        Case { name: "lr_sc_retry_loop", sig_words: 1, gen: lr_sc_retry_loop },
    ]
}

/// Runs one parsed ELF on one (mode, engine) configuration and returns
/// (signature hex, retired instructions).
fn run_one<M: TaintMode>(elf: &Elf32, engine: ExecMode, sig_words: usize) -> (String, u64) {
    let cfg = Soc::<M>::builder().sensor_thread(false).engine(engine).build();
    let mut soc = Soc::<M>::new(cfg);
    soc.load_elf(elf).expect("conformance image fits RAM");
    let exit = soc.run(BUDGET);
    assert!(matches!(exit, SocExit::Break), "expected clean ebreak, got {exit:?}");
    let ram = soc.ram();
    let mut sig = String::new();
    for i in 0..sig_words {
        let (word, _) = ram.load(SIG_BASE + (i as u32) * 4, 4);
        let _ = write!(sig, "{word:08x}");
    }
    (sig, soc.instret())
}

/// All four configurations a signature must agree across.
fn run_all_configs(elf: &Elf32, sig_words: usize, name: &str) -> (String, u64) {
    let mut insns = 0;
    let (reference, n) = run_one::<Plain>(elf, ExecMode::Interp, sig_words);
    insns += n;
    for (label, sig, n) in [
        ("plain/block", run_one::<Plain>(elf, ExecMode::BlockCache, sig_words)),
        ("tainted/interp", run_one::<Tainted>(elf, ExecMode::Interp, sig_words)),
        ("tainted/block", run_one::<Tainted>(elf, ExecMode::BlockCache, sig_words)),
    ]
    .map(|(l, (s, n))| (l, s, n))
    {
        assert_eq!(sig, reference, "{name}: signature diverged on {label}");
        insns += n;
    }
    (reference, insns)
}

const GOLDEN_PATH: &str = "tests/conformance_signatures.txt";

fn golden_signatures() -> std::collections::BTreeMap<String, String> {
    let text = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_default();
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (name, sig) = l.split_once(' ')?;
            Some((name.to_owned(), sig.trim().to_owned()))
        })
        .collect()
}

#[test]
fn conformance_suite_all_engines_all_modes() {
    let cases = cases();
    assert!(cases.len() >= 30, "suite must hold at least 30 programs");

    let started = std::time::Instant::now();
    let mut fresh: Vec<(String, String)> = Vec::new();
    let mut total_insns = 0u64;
    for case in &cases {
        let mut a = Asm::new(0);
        (case.gen)(&mut a);
        let program = a.assemble().unwrap_or_else(|e| panic!("{}: {e}", case.name));
        // The round trip under test: emit ELF, parse it back, run that.
        let elf_bytes = program.to_elf();
        let elf = Elf32::parse(&elf_bytes).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let (sig, insns) = run_all_configs(&elf, case.sig_words, case.name);
        total_insns += insns;
        fresh.push((case.name.to_owned(), sig));
    }
    let elapsed = started.elapsed();

    // CI artifacts (best-effort; the golden comparison is the gate).
    let _ = std::fs::create_dir_all("target/conformance");
    let mut sig_text = String::from("# <program> <signature-hex> — regenerate with BLESS=1\n");
    for (name, sig) in &fresh {
        let _ = writeln!(sig_text, "{name} {sig}");
    }
    let _ = std::fs::write("target/conformance/signatures.txt", &sig_text);
    let mips = total_insns as f64 / elapsed.as_secs_f64() / 1e6;
    let summary = format!(
        "programs={} configs=4 insns={total_insns} elapsed_ms={} mips={mips:.1}\n",
        cases.len(),
        elapsed.as_millis(),
    );
    let _ = std::fs::write("target/conformance/summary.txt", &summary);

    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &sig_text).expect("write golden signatures");
        eprintln!("blessed {} signatures into {GOLDEN_PATH}", fresh.len());
        return;
    }

    let golden = golden_signatures();
    assert!(
        !golden.is_empty(),
        "no golden signatures at {GOLDEN_PATH}; run `BLESS=1 cargo test --test conformance`"
    );
    let mut mismatches = Vec::new();
    for (name, sig) in &fresh {
        match golden.get(name) {
            Some(want) if want == sig => {}
            Some(want) => mismatches.push(format!("{name}: got {sig}, golden {want}")),
            None => mismatches.push(format!("{name}: missing from golden file")),
        }
    }
    for name in golden.keys() {
        if !fresh.iter().any(|(n, _)| n == name) {
            mismatches.push(format!("{name}: in golden file but not in suite"));
        }
    }
    assert!(mismatches.is_empty(), "signature mismatches:\n{}", mismatches.join("\n"));
}

/// The ELF path and the direct in-process path must agree: loading the
/// flattened `Program` (as the DSL front end does) and loading the parsed
/// ELF segment-by-segment must produce the same signature.
#[test]
fn elf_and_program_paths_agree() {
    for case in cases().iter().take(8) {
        let mut a = Asm::new(0);
        (case.gen)(&mut a);
        let program = a.assemble().unwrap();
        let elf = Elf32::parse(&program.to_elf()).unwrap();
        let (via_elf, _) = run_one::<Tainted>(&elf, ExecMode::Interp, case.sig_words);

        let cfg = Soc::<Tainted>::builder().sensor_thread(false).build();
        let mut soc = Soc::<Tainted>::new(cfg);
        soc.load_program(&program);
        let exit = soc.run(BUDGET);
        assert!(matches!(exit, SocExit::Break));
        let ram = soc.ram();
        let mut via_program = String::new();
        for i in 0..case.sig_words {
            let (word, _) = ram.load(SIG_BASE + (i as u32) * 4, 4);
            let _ = write!(via_program, "{word:08x}");
        }
        assert_eq!(via_elf, via_program, "{}: ELF vs Program load divergence", case.name);
    }
}

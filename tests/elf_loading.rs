//! Integration tests for the ELF ingestion path at SoC level: a binary
//! loaded from an ELF image must be indistinguishable from the same
//! program loaded through the DSL front end — same execution, same
//! profiler attribution (the `.symtab` round trip feeds the same
//! `SymbolMap`), same taint behaviour — and images that don't fit the
//! platform RAM must be rejected *before* any byte is written.

use taintvp::asm::{Asm, Reg};
use taintvp::core::Tag;
use taintvp::loader::{Elf32, Segment};
use taintvp::obs::{Recorder, SymbolMap};
use taintvp::prelude::{Soc, SocExit};
use taintvp::rv32::{Plain, Tainted};
use taintvp::soc::ElfLoadError;

/// A guest with two distinct hot functions, so the folded flamegraph has
/// real shape to compare: `main` calls `hot_a` 30× and `hot_b` 10×.
fn twin_guest() -> Asm {
    let mut a = Asm::new(0);
    a.label("main");
    a.entry();
    a.li(Reg::S0, 30);
    a.label("loop_a");
    a.call("hot_a");
    a.addi(Reg::S0, Reg::S0, -1);
    a.bnez(Reg::S0, "loop_a");
    a.li(Reg::S0, 10);
    a.label("loop_b");
    a.call("hot_b");
    a.addi(Reg::S0, Reg::S0, -1);
    a.bnez(Reg::S0, "loop_b");
    a.ebreak();
    a.label("hot_a");
    a.li(Reg::T0, 8);
    a.label("spin_a");
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "spin_a");
    a.ret();
    a.label("hot_b");
    a.li(Reg::T0, 4);
    a.label("spin_b");
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "spin_b");
    a.ret();
    a
}

/// Runs a guest with the profiler attached; `load` does the image
/// ingestion (DSL program vs parsed ELF). Returns the folded flamegraph.
fn profiled_run(
    symbols: SymbolMap,
    load: impl FnOnce(&mut Soc<Tainted, Recorder>),
) -> (SocExit, String, Vec<(String, u64)>) {
    let rec = Recorder::new(64).with_symbols(symbols).with_profiler();
    let cfg = Soc::<Tainted>::builder().sensor_thread(false).build();
    let mut soc: Soc<Tainted, Recorder> = Soc::with_obs(cfg, rec);
    load(&mut soc);
    let exit = soc.run(100_000);
    let rec = soc.obs().borrow();
    let prof = rec.profiler().expect("profiler attached");
    (exit, prof.folded_output(), prof.flat())
}

#[test]
fn elf_twin_and_dsl_twin_profile_identically() {
    let program = twin_guest().assemble().expect("twin assembles");
    let elf = Elf32::parse(&program.to_elf()).expect("emitted ELF parses");

    // DSL path: symbols straight from the assembler's `Program`.
    let (dsl_exit, dsl_folded, dsl_flat) =
        profiled_run(SymbolMap::from_program(&program), |soc| soc.load_program(&program));

    // ELF path: symbols from the parsed `.symtab`, image from `PT_LOAD`.
    let (elf_exit, elf_folded, elf_flat) =
        profiled_run(SymbolMap::from_symbols(elf.symbols.clone()), |soc| {
            soc.load_elf(&elf).expect("image fits RAM")
        });

    assert_eq!(dsl_exit, SocExit::Break);
    assert_eq!(elf_exit, SocExit::Break);
    assert_eq!(elf_folded, dsl_folded, "folded flamegraphs must match line for line");
    assert_eq!(elf_flat, dsl_flat, "flat symbol attribution must match");

    // And the attribution is real: both hot functions appear, with the
    // 30×8 loop dominating the 10×4 one.
    let sample =
        |name: &str| elf_flat.iter().find(|(n, _)| n == name).map(|(_, c)| *c).unwrap_or_default();
    assert!(sample("hot_a") > sample("hot_b"), "hot_a must out-sample hot_b: {elf_flat:?}");
    assert!(sample("hot_b") > 0, "hot_b attributed at all");
    assert!(elf_folded.contains("hot_a"), "folded output names hot_a: {elf_folded}");
}

#[test]
fn load_elf_rejects_images_outside_ram() {
    // 1 KiB of RAM; a segment placed at 4 KiB cannot fit.
    let mut a = Asm::new(0x1000);
    a.entry();
    a.ebreak();
    let elf = Elf32::parse(&a.to_elf().unwrap()).unwrap();

    let cfg = Soc::<Plain>::builder().sensor_thread(false).ram_size(1024).build();
    let mut soc = Soc::<Plain>::new(cfg);
    let before = soc.state_digest();
    let err = soc.load_elf(&elf).expect_err("segment at 0x1000 exceeds 1 KiB RAM");
    assert!(matches!(err, ElfLoadError::SegmentOutsideRam { index: 0, .. }), "got {err}");
    // A failed load is atomic: nothing was written.
    assert_eq!(soc.state_digest(), before, "failed load must not touch state");
    // The error formats usefully for the CLI.
    assert!(err.to_string().contains("0x00001000"), "{err}");
}

#[test]
fn load_elf_with_classifies_segments_on_ingress() {
    // Code segment plus a data blob; the ingress hook tags the data
    // segment's bytes, and a load from it must propagate that tag.
    let mut a = Asm::new(0);
    a.entry();
    a.la(Reg::T0, "blob");
    a.lw(Reg::T1, 0, Reg::T0);
    a.sw(Reg::T1, 0x100, Reg::Zero); // copy: the tag must travel
    a.ebreak();
    a.align(4);
    a.label("blob");
    a.word(0x1234_5678);
    let elf = Elf32::parse(&a.to_elf().unwrap()).unwrap();

    let secret = Tag::from_bits(0b100);
    let cfg = Soc::<Tainted>::builder().sensor_thread(false).build();
    let mut soc = Soc::<Tainted>::new(cfg);
    // The emitter produces one RWX segment, so the hook sees index 0 and
    // may inspect the segment before deciding.
    soc.load_elf_with(&elf, |index, seg: &Segment| {
        assert_eq!(index, 0);
        assert!(seg.is_exec());
        secret
    })
    .expect("image fits RAM");
    assert_eq!(soc.run(1_000), SocExit::Break);
    let copied = soc.ram().load(0x100, 4);
    assert_eq!(copied.0, 0x1234_5678);
    assert_eq!(copied.1, secret, "ingress tag must propagate through the copy");
}

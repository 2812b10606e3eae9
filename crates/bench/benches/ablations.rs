//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! execution-clearance checking on/off, coarse vs per-byte immobilizer
//! policies, and DMA transfer cost with tag tracking.

use criterion::{criterion_group, criterion_main, Criterion};
use vpdift_core::{DiftEngine, ExecClearance, SecurityPolicy, Tag};
use vpdift_immo::{protocol, PolicyKind, Variant};
use vpdift_periph::{Dma, Ram};
use vpdift_rv32::Tainted;
use vpdift_soc::{Soc, SocBuilder, SocExit};
use vpdift_tlm::{GenericPayload, Loan};

/// Runs the primes workload under a given exec-clearance configuration.
fn run_with_exec(exec: ExecClearance) -> u64 {
    let policy = SecurityPolicy::builder("ablation").exec_clearance(exec).build();
    let cfg = SocBuilder::new().policy(policy).sensor_thread(false).build();
    let w = vpdift_firmware::primes::build(2_000);
    let mut soc = Soc::<Tainted>::new(cfg);
    soc.load_program(&w.program);
    assert_eq!(soc.run(w.max_insns), SocExit::Break);
    soc.instret()
}

fn bench_exec_clearance(c: &mut Criterion) {
    let mut g = c.benchmark_group("exec_clearance");
    g.sample_size(20);
    g.bench_function("unchecked", |b| b.iter(|| run_with_exec(ExecClearance::UNCHECKED)));
    g.bench_function("uniform_checked", |b| {
        b.iter(|| run_with_exec(ExecClearance::uniform(Tag::from_bits(u32::MAX))))
    });
    g.finish();
}

fn bench_policy_granularity(c: &mut Criterion) {
    let mut g = c.benchmark_group("immo_policy_granularity");
    g.sample_size(10);
    g.bench_function("coarse", |b| {
        b.iter(|| protocol::run_session::<Tainted>(Variant::Fixed, PolicyKind::Coarse, 3, b"q"))
    });
    g.bench_function("per_byte", |b| {
        b.iter(|| protocol::run_session::<Tainted>(Variant::Fixed, PolicyKind::PerByte, 3, b"q"))
    });
    g.finish();
}

fn bench_dma(c: &mut Criterion) {
    let mut g = c.benchmark_group("dma_copy_4k");
    for (name, tracking) in [("untracked", false), ("tracked", true)] {
        g.bench_function(name, |b| {
            let mut ram = Ram::new(64 * 1024, tracking);
            ram.classify(0, 4096, Tag::from_bits(1));
            // The controller's port is the RAM itself.
            let mut dma = Dma::new(false);
            let mut engine = DiftEngine::new(SecurityPolicy::permissive());
            b.iter(|| {
                use vpdift_tlm::TlmTarget;
                let mut d = vpdift_kernel::SimTime::ZERO;
                let mut loan = Loan { mem: &mut ram, engine: &mut engine, obs: None, pc: None };
                for (reg, v) in [(0x0, 0u32), (0x4, 0x4000), (0x8, 4096), (0xC, 1)] {
                    let mut p = GenericPayload::write_word(reg, vpdift_core::Taint::untainted(v));
                    dma.transport(&mut p, &mut d, &mut loan);
                    assert!(p.is_ok());
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_exec_clearance, bench_policy_granularity, bench_dma);

/// Taint-density sweep: the same copy workload with 0%, 50% and 100% of
/// the source data classified — measuring how VP+ cost scales with the
/// amount of *actual* taint in flight (the tag lane is maintained either
/// way; density affects only LUB outcomes).
fn bench_taint_density(c: &mut Criterion) {
    use vpdift_asm::{Asm, Reg};

    fn copy_program(words: u32) -> vpdift_asm::Program {
        let mut a = Asm::new(0);
        a.li(Reg::T0, 0x10000); // src
        a.li(Reg::T1, 0x20000); // dst
        a.li(Reg::T2, words as i32);
        a.label("copy");
        a.lw(Reg::T3, 0, Reg::T0);
        a.sw(Reg::T3, 0, Reg::T1);
        a.addi(Reg::T0, Reg::T0, 4);
        a.addi(Reg::T1, Reg::T1, 4);
        a.addi(Reg::T2, Reg::T2, -1);
        a.bnez(Reg::T2, "copy");
        a.ebreak();
        a.assemble().unwrap()
    }

    let mut g = c.benchmark_group("taint_density_copy");
    g.sample_size(20);
    let prog = copy_program(4096);
    for (name, stride) in [("0pct", 0u32), ("50pct", 2), ("100pct", 1)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let cfg = SocBuilder::new().sensor_thread(false).build();
                let mut soc = Soc::<Tainted>::new(cfg);
                soc.load_program(&prog);
                if stride > 0 {
                    let ram = soc.ram_mut();
                    let mut w = 0;
                    while w < 4096 {
                        ram.classify(0x10000 + w * 4, 4, Tag::from_bits(1));
                        w += stride;
                    }
                }
                assert_eq!(soc.run(1_000_000), SocExit::Break);
            })
        });
    }
    g.finish();
}

criterion_group!(density, bench_taint_density);
criterion_main!(benches, density);

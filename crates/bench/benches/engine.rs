//! SoC-level engine comparison: the same firmware workload driven by the
//! reference interpreter vs the predecoded block cache, on both VP
//! flavours. The ISS-level layer numbers live in `benches/iss.rs`; this
//! bench includes the full platform (bus routing, quantum loop,
//! peripherals) so it reflects what `Soc::run` users actually get. It is
//! the group `bench_guard` gates in CI.
//!
//! `soc_setup` times what a session pays before its first instruction:
//! `Soc::new` + `load_program` + drop at the default RAM size, on both VP
//! flavours. `bench_guard` gates the VP+/VP ratio there.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use vpdift_asm::Program;
use vpdift_rv32::{ExecMode, Plain, TaintMode, Tainted};
use vpdift_soc::{Soc, SocExit};

fn run_soc<M: TaintMode>(engine: ExecMode) -> u64 {
    let w = vpdift_firmware::primes::build(2_000);
    let cfg = Soc::<M>::builder().sensor_thread(false).engine(engine).build();
    let mut soc = Soc::<M>::new(cfg);
    soc.load_program(&w.program);
    assert_eq!(soc.run(w.max_insns), SocExit::Break);
    soc.instret()
}

fn bench_engines(c: &mut Criterion) {
    let insns = run_soc::<Plain>(ExecMode::Interp);
    assert_eq!(insns, run_soc::<Plain>(ExecMode::BlockCache), "engines must retire identically");

    let mut g = c.benchmark_group("soc_engine");
    g.throughput(Throughput::Elements(insns));
    g.sample_size(15);
    for engine in [ExecMode::Interp, ExecMode::BlockCache] {
        g.bench_function(&format!("vp_plain_{engine}"), |b| b.iter(|| run_soc::<Plain>(engine)));
        g.bench_function(&format!("vp_plus_{engine}"), |b| b.iter(|| run_soc::<Tainted>(engine)));
    }
    g.finish();
}

/// A loaded SoC; the bench loop hands it to `black_box` and drops it.
fn setup_soc<M: TaintMode>(program: &Program) -> Soc<M> {
    let cfg = Soc::<M>::builder().sensor_thread(false).build();
    let mut soc = Soc::<M>::new(cfg);
    soc.load_program(program);
    soc
}

fn bench_setup(c: &mut Criterion) {
    let program = vpdift_firmware::primes::build(2_000).program;
    let mut g = c.benchmark_group("soc_setup");
    g.sample_size(15);
    g.bench_function("vp_plain", |b| b.iter(|| setup_soc::<Plain>(&program)));
    g.bench_function("vp_plus", |b| b.iter(|| setup_soc::<Tainted>(&program)));
    g.finish();
}

criterion_group!(benches, bench_engines, bench_setup);
criterion_main!(benches);

//! SoC-level engine comparison: the same firmware workload driven by the
//! reference interpreter vs the predecoded block cache, on both VP
//! flavours. The ISS-level layer numbers live in `benches/iss.rs`; this
//! bench includes the full platform (bus routing, quantum loop,
//! peripherals) so it reflects what `Soc::run` users actually get. It is
//! the group `bench_guard` gates in CI. `vp_plus_block_counting` runs the
//! VP+ block-cache entry with an enabled sink that only counts events: the
//! price of emitting every event on the path serve sessions and `--metrics`
//! runs take (`bench_guard` gates it against `vp_plus_block`). The five
//! entries are timed interleaved, sample by sample, so the gated ratios
//! compare runs made at the same host speed.
//!
//! `soc_setup` times what a session pays before its first instruction:
//! `Soc::new` + `load_program` + drop at the default RAM size, on both VP
//! flavours, interleaved as well. `bench_guard` gates the VP+/VP ratio
//! there.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use vpdift_asm::Program;
use vpdift_obs::{NullSink, ObsEvent, ObsSink};
use vpdift_rv32::{ExecMode, Plain, TaintMode, Tainted};
use vpdift_soc::{Soc, SocExit};

/// The cheapest enabled sink: isolates the cost of emitting events from
/// the cost of recording them.
#[derive(Default)]
struct CountingSink {
    events: u64,
}

impl ObsSink for CountingSink {
    fn event(&mut self, _event: &ObsEvent) {
        self.events += 1;
    }
}

fn run_soc<M: TaintMode>(engine: ExecMode) -> u64 {
    run_observed::<M, NullSink>(engine)
}

fn run_observed<M: TaintMode, S: ObsSink + Default>(engine: ExecMode) -> u64 {
    let w = vpdift_firmware::primes::build(2_000);
    let cfg = Soc::<M>::builder().sensor_thread(false).engine(engine).build();
    let mut soc = Soc::<M, S>::new(cfg);
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
    let mut entries: Vec<(String, Box<dyn FnMut() -> u64>)> = Vec::new();
    for engine in [ExecMode::Interp, ExecMode::BlockCache] {
        entries.push((format!("vp_plain_{engine}"), Box::new(move || run_soc::<Plain>(engine))));
        entries.push((format!("vp_plus_{engine}"), Box::new(move || run_soc::<Tainted>(engine))));
    }
    entries.push((
        "vp_plus_block_counting".into(),
        Box::new(|| run_observed::<Tainted, CountingSink>(ExecMode::BlockCache)),
    ));
    g.bench_interleaved(entries);
    g.finish();
}

/// A loaded SoC; the bench loop drops it.
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
    g.bench_interleaved(vec![
        ("vp_plain".to_string(), Box::new(|| setup_soc::<Plain>(&program).instret())),
        ("vp_plus".to_string(), Box::new(|| setup_soc::<Tainted>(&program).instret())),
    ]);
    g.finish();
}

criterion_group!(benches, bench_engines, bench_setup);
criterion_main!(benches);

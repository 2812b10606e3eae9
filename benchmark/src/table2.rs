//! `table2-compute` and `table2-io`: Table II rows, each run once on the
//! plain VP and once on VP+ per round, through `Soc::new`,
//! `load_program` and `Soc::run` with the default engine.

use std::collections::BTreeMap;

use vpdift_firmware::Workload as Firmware;
use vpdift_immo::{firmware as immo_fw, EngineEcu, ImmoFirmware, Variant, PIN};
use vpdift_obs::{Metrics, ObsSink};
use vpdift_rv32::{Plain, TaintMode, Tainted};
use vpdift_soc::{Soc, SocBuilder, SocConfig, SocExit};

use crate::layers::{self, CountSink, Counted};
use crate::trace::Tracer;
use crate::{Bench, Checks, Counts, Rng, Round, Size};

/// One Table II row.
enum Row {
    /// A firmware workload with host-side output verification.
    Fw(Firmware),
    /// The fixed immobilizer answering `rounds` CAN challenges, then a
    /// debug dump and quit on the console.
    Immo { fw: ImmoFirmware, rounds: u32 },
}

impl Row {
    fn name(&self) -> &'static str {
        match self {
            Row::Fw(w) => w.name,
            Row::Immo { .. } => "immo-fixed",
        }
    }
}

/// What one session of one row reports.
struct Session {
    counts: Counts,
    metrics: Metrics,
    setup_s: f64,
    run_s: f64,
}

pub(crate) struct Table2 {
    rows: Vec<Row>,
    /// Sensor data and CAN challenges.
    seed: u64,
    /// Row order. `table2-io` keeps it fixed: its seed already varies the
    /// data, and a fixed order keeps the allocation sequence (and so
    /// peak memory) the same for every seed.
    order_seed: u64,
}

impl Table2 {
    /// qsort, dhrystone, primes and sha512 at Table II scale 2, plus
    /// crc32 and matmul: CPU-bound, almost no MMIO.
    pub(crate) fn compute(size: Size, seed: u64) -> Table2 {
        use vpdift_firmware::{crc32, dhrystone, matmul, primes, qsort, sha512};
        let rows = match size {
            Size::Committed => vec![
                qsort::build(8_000, 2),
                dhrystone::build(12_000),
                primes::build(40_000),
                sha512::build(80),
                crc32::build(16_384, 2),
                matmul::build(60),
            ],
            Size::Tiny => vec![
                qsort::build(200, 1),
                dhrystone::build(100),
                primes::build(500),
                sha512::build(1),
                crc32::build(256, 1),
                matmul::build(4),
            ],
        };
        Table2 { rows: rows.into_iter().map(Row::Fw).collect(), seed, order_seed: seed }
    }

    /// simple-sensor (40 Hz sensor thread), the two-task RTOS and the
    /// fixed immobilizer: interrupts, `wfi` time jumps and MMIO traffic.
    pub(crate) fn io(size: Size, seed: u64) -> Table2 {
        use vpdift_firmware::{rtos, sensor_app};
        let (frames, increments, auths) = match size {
            Size::Committed => (6_400, 800, 7_200),
            Size::Tiny => (20, 20, 20),
        };
        let rows = vec![
            Row::Fw(sensor_app::build(frames)),
            Row::Fw(rtos::build(increments, 250, 100)),
            Row::Immo { fw: immo_fw::build(Variant::Fixed), rounds: auths },
        ];
        Table2 { rows, seed, order_seed: 0 }
    }

    fn config<M: TaintMode>(&self, row: &Row) -> SocConfig {
        let b = SocBuilder::new().seed(self.seed);
        match row {
            Row::Fw(w) => {
                let b = if M::TRACKING { b.policy(vpdift_bench::bench_policy()) } else { b };
                b.sensor_thread(w.needs_sensor).build()
            }
            Row::Immo { fw, .. } => {
                use vpdift_immo::protocol::{policy_for, PolicyKind};
                let kind = if M::TRACKING { PolicyKind::Coarse } else { PolicyKind::Permissive };
                b.policy(policy_for(kind, fw)).sensor_thread(false).build()
            }
        }
    }

    /// Builds, loads, runs and checks one row on mode `M`, with sink `S`
    /// (`NullSink` when timed, [`CountSink`] in a counts pass).
    fn session<M: TaintMode, S: Counted>(
        &self,
        row: &Row,
        req: u64,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Session {
        let (new_name, run_name) = if M::TRACKING {
            ("soc.new.vp_plus", "soc.run.vp_plus")
        } else {
            ("soc.new.vp", "soc.run.vp")
        };
        let cfg = self.config::<M>(row);
        let (mut soc, new_s) = tracer.time(new_name, req, || Soc::<M, S>::new(cfg));
        let load = tracer.begin("soc.load", req);
        let (budget, immo) = match row {
            Row::Fw(w) => {
                soc.load_program(&w.program);
                (w.max_insns, None)
            }
            Row::Immo { fw, rounds } => (
                1_000_000 + 10_000 * u64::from(*rounds),
                Some(boot_immo(&mut soc, fw, *rounds, self.seed)),
            ),
        };
        let load_s = tracer.end(load).as_secs_f64();
        let (exit, run_s) = tracer.time(run_name, req, || soc.run(budget));

        let verify = tracer.begin("bench.verify", req);
        let uart = soc.uart().borrow().output().to_vec();
        let mode = if M::TRACKING { "VP+" } else { "VP" };
        checks
            .check(exit == SocExit::Break, || format!("{} on {mode} exited {exit:?}", row.name()));
        let mut auths = 0;
        if let Some((mut ecu, challenges)) = immo {
            for ch in &challenges {
                let ok = ecu.verify_response(soc.can_host(), ch);
                auths += u64::from(ok);
                checks.check(ok, || format!("immo-fixed on {mode}: challenge {ch:02x?} failed"));
            }
        } else if let Row::Fw(w) = row {
            checks.check(w.verify(&uart), || format!("{} on {mode}: wrong UART output", w.name));
        }
        tracer.end(verify);

        let stats = soc.engine().borrow().stats();
        let block = soc.engine_stats().unwrap_or_default();
        let counts = Counts {
            instret: soc.instret(),
            sim_ps: soc.now().as_ps(),
            uart_bytes: uart.len() as u64,
            can_auths: auths,
            checks: stats.checks,
            checks_failed: stats.failed,
            block: [
                block.hits,
                block.misses,
                block.invalidations,
                block.flushes,
                block.idle_steps,
                block.checked_steps,
            ],
            ..Counts::default()
        };
        let metrics = soc.obs().borrow_mut().take_metrics();
        tracer.time("soc.drop", req, || drop(soc));
        Session { counts, metrics, setup_s: new_s + load_s, run_s }
    }

    /// The round's (row, tracked) sessions: rows shuffled per round, each
    /// row on both VPs back to back, VP first in even rounds. (Which mode
    /// goes first never depends on the seed: the allocation sequence, and
    /// so peak memory, would.)
    fn order(&self, index: u64) -> Vec<(usize, bool)> {
        let mut rows: Vec<usize> = (0..self.rows.len()).collect();
        Rng::new(self.order_seed, index).shuffle(&mut rows);
        let vp_plus_first = index % 2 == 1;
        rows.into_iter().flat_map(|r| [(r, vp_plus_first), (r, !vp_plus_first)]).collect()
    }
}

/// Loads the immobilizer and queues `rounds` challenges plus the console
/// script, as `vpdift_immo::protocol::prepare_session` does — spelled out
/// here because that helper only takes `NullSink` SoCs and the counts
/// pass needs a counting sink.
fn boot_immo<M: TaintMode, S: ObsSink>(
    soc: &mut Soc<M, S>,
    fw: &ImmoFirmware,
    rounds: u32,
    seed: u64,
) -> (EngineEcu, Vec<[u8; 8]>) {
    soc.load_program(&fw.program);
    let mut ecu = EngineEcu::new(PIN, seed);
    let challenges = (0..rounds)
        .map(|_| {
            let ch = ecu.next_challenge();
            ecu.send_challenge(soc.can_host(), &ch);
            ch
        })
        .collect();
    soc.terminal().borrow_mut().feed(b"dq");
    (ecu, challenges)
}

impl Bench for Table2 {
    fn prepare(&mut self, _tracer: &mut Tracer, _checks: &mut Checks) -> Vec<f64> {
        Vec::new()
    }

    fn round(&mut self, index: u64, tracer: &mut Tracer, checks: &mut Checks) -> Round {
        let mut round = Round::default();
        let mut instret = vec![[0u64; 2]; self.rows.len()];
        let (mut run_vp, mut run_vp_plus) = (0.0, 0.0);
        for (row, tracked) in self.order(index) {
            let open = tracer.begin("bench.session", index);
            let s = if tracked {
                self.session::<Tainted, vpdift_obs::NullSink>(
                    &self.rows[row],
                    index,
                    tracer,
                    checks,
                )
            } else {
                self.session::<Plain, vpdift_obs::NullSink>(&self.rows[row], index, tracer, checks)
            };
            tracer.end(open);
            round.ops += 1;
            round.insns += s.counts.instret;
            if tracked {
                round.setup.push(s.setup_s);
                run_vp_plus += s.run_s;
            } else {
                run_vp += s.run_s;
            }
            instret[row][usize::from(tracked)] = s.counts.instret;
            round.counts.add(&s.counts);
        }
        for (row, [vp, vp_plus]) in self.rows.iter().zip(&instret) {
            checks.check(vp == vp_plus, || {
                format!("{}: VP retired {vp} instructions, VP+ {vp_plus}", row.name())
            });
        }
        // VP and VP+ retire the same instructions (checked above), so each
        // mode retired half the round's total.
        let per_mode = round.counts.instret as f64 / 2.0;
        round.layer = vec![
            ("soc.run_s", run_vp + run_vp_plus),
            ("soc.ns_per_insn.vp", run_vp * 1e9 / per_mode),
            ("soc.ns_per_insn.vp_plus", run_vp_plus * 1e9 / per_mode),
            ("soc.dift_overhead", run_vp_plus / run_vp),
        ];
        round
    }

    fn layers(
        &mut self,
        traced: &[Round],
        tracer: &Tracer,
        checks: &mut Checks,
        out: &mut BTreeMap<&'static str, f64>,
    ) {
        for (name, span) in [
            ("soc.new_ms", "soc.new.vp_plus"),
            ("soc.new_plain_ms", "soc.new.vp"),
            ("soc.load_ms", "soc.load"),
        ] {
            if let Some(v) = layers::span_quantile(tracer, span, 0.5, 1e3) {
                out.insert(name, v);
            }
        }
        // Counts pass: the same sessions on a counting sink, untimed.
        let mut off = Tracer::new(false);
        let mut metrics = Metrics::default();
        let mut counts = Counts::default();
        for row in &self.rows {
            for s in [
                self.session::<Plain, CountSink>(row, 0, &mut off, checks),
                self.session::<Tainted, CountSink>(row, 0, &mut off, checks),
            ] {
                layers::add_metrics(&mut metrics, &s.metrics);
                counts.add(&s.counts);
            }
        }
        let timed = &traced[0].counts;
        checks.check(counts == *timed && metrics.instructions == timed.instret, || {
            format!("counts pass differs from the timed rounds: {counts:?} vs {timed:?}")
        });
        layers::obs_values(&metrics, out);
    }
}

//! # vpdift-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation
//! (see `DESIGN.md` §5 and `EXPERIMENTS.md`):
//!
//! * `cargo run --release -p vpdift-bench --bin table1` — Table I
//!   (Wilander-Kamkar code-injection results),
//! * `cargo run --release -p vpdift-bench --bin table2 [scale]` — Table II
//!   (VP vs VP+ simulation performance),
//! * `cargo run -p vpdift-bench --bin immo_report` — the §VI-A
//!   case-study narrative,
//! * `cargo run -p vpdift-bench --bin ifp_report` — the Fig. 1 IFPs,
//! * `cargo bench -p vpdift-bench` — Criterion microbenchmarks and
//!   ablations.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::time::{Duration, Instant};

use vpdift_core::{ExecClearance, SecurityPolicy, Tag};
use vpdift_firmware::Workload;
use vpdift_immo::{firmware, protocol, Variant};
use vpdift_rv32::{Plain, TaintMode, Tainted};
use vpdift_soc::{Soc, SocBuilder, SocExit};

/// A single timed simulation run.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Retired guest instructions.
    pub instret: u64,
    /// Host wall-clock time of the simulation.
    pub wall: Duration,
}

impl Measurement {
    /// Million simulated instructions per host second.
    pub fn mips(&self) -> f64 {
        self.instret as f64 / self.wall.as_secs_f64().max(1e-9) / 1e6
    }
}

/// One Table II row.
#[derive(Debug)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Retired instructions (identical for VP and VP+ by construction).
    pub instret: u64,
    /// Instruction words in the final binary ("LoC ASM").
    pub loc_asm: usize,
    /// The plain-VP measurement.
    pub vp: Measurement,
    /// The DIFT VP+ measurement.
    pub vp_plus: Measurement,
}

impl Table2Row {
    /// The overhead factor `VP+ time / VP time`.
    pub fn overhead(&self) -> f64 {
        self.vp_plus.wall.as_secs_f64() / self.vp.wall.as_secs_f64().max(1e-9)
    }
}

/// The policy VP+ benchmark runs use: full execution-clearance checking
/// (with an all-permissive clearance so nothing fires) and classified
/// peripheral inputs — the DIFT engine does all its work, as in the
/// paper's VP+ column, without aborting the benchmark.
pub fn bench_policy() -> SecurityPolicy {
    let all = Tag::from_bits(u32::MAX);
    SecurityPolicy::builder("bench")
        .source("terminal.rx", Tag::atom(0))
        .source("sensor.data", Tag::atom(1))
        .sink("uart.tx", all)
        .sink("can.tx", all)
        .exec_clearance(ExecClearance::uniform(all))
        .build()
}

/// Runs `workload` on mode `M`, verifying its output, and returns the
/// measurement.
///
/// # Panics
/// Panics if the workload does not finish with `ebreak` or its output
/// fails host verification — a benchmark that computes wrong results is
/// not a benchmark.
pub fn run_workload<M: TaintMode>(workload: &Workload) -> Measurement {
    let mut cfg = if M::TRACKING {
        SocBuilder::new().policy(bench_policy()).build()
    } else {
        SocBuilder::new().build()
    };
    cfg.sensor_thread = workload.needs_sensor;
    let mut soc = Soc::<M>::new(cfg);
    soc.load_program(&workload.program);
    let start = Instant::now();
    let exit = soc.run(workload.max_insns);
    let wall = start.elapsed();
    assert_eq!(exit, SocExit::Break, "workload {} did not finish", workload.name);
    let out = soc.uart().borrow().output().to_vec();
    assert!(workload.verify(&out), "workload {} failed verification", workload.name);
    Measurement { instret: soc.instret(), wall }
}

/// Measures one workload on both VPs.
pub fn measure_workload(workload: &Workload) -> Table2Row {
    let vp = run_workload::<Plain>(workload);
    let vp_plus = run_workload::<Tainted>(workload);
    assert_eq!(vp.instret, vp_plus.instret, "{}: modes must retire equally", workload.name);
    Table2Row { name: workload.name, instret: vp.instret, loc_asm: workload.loc_asm(), vp, vp_plus }
}

/// Runs the `immo-fixed` benchmark (the seventh Table II row): the fixed
/// immobilizer firmware answering `rounds` challenge-response
/// authentications plus a debug-dump session.
pub fn run_immo_bench<M: TaintMode>(rounds: u32) -> (Measurement, usize) {
    let fw = firmware::build(Variant::Fixed);
    let kind =
        if M::TRACKING { protocol::PolicyKind::Coarse } else { protocol::PolicyKind::Permissive };
    let cfg =
        SocBuilder::new().policy(protocol::policy_for(kind, &fw)).sensor_thread(false).build();
    let mut soc = Soc::<M>::new(cfg);
    let (mut ecu, challenges) = protocol::prepare_session(&mut soc, &fw, rounds, b"dq", 0xBE);
    let start = Instant::now();
    let exit = soc.run(u64::MAX / 2);
    let wall = start.elapsed();
    assert_eq!(exit, SocExit::Break, "immo-fixed did not finish");
    for ch in &challenges {
        assert!(ecu.verify_response(soc.can_host(), ch), "authentication failed");
    }
    (Measurement { instret: soc.instret(), wall }, fw.program.insn_count())
}

/// Measures the `immo-fixed` row.
pub fn measure_immo(rounds: u32) -> Table2Row {
    let (vp, loc) = run_immo_bench::<Plain>(rounds);
    let (vp_plus, _) = run_immo_bench::<Tainted>(rounds);
    Table2Row { name: "immo-fixed", instret: vp.instret, loc_asm: loc, vp, vp_plus }
}

/// Builds all seven Table II rows at `scale`.
pub fn table2(scale: u32) -> Vec<Table2Row> {
    let mut rows: Vec<Table2Row> =
        vpdift_firmware::table2_workloads(scale).iter().map(measure_workload).collect();
    rows.push(measure_immo(300 * scale));
    rows
}

/// Renders Table II in the paper's format.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "Benchmark      |  #instr. exec. | LoC ASM |  Sim. Time [s]    |     MIPS     |  Ov\n",
    );
    out.push_str(
        "               |                |         |    VP      VP+    |   VP    VP+  |\n",
    );
    out.push_str(
        "---------------+----------------+---------+-------------------+--------------+------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} | {:>14} | {:>7} | {:>8.3} {:>8.3}  | {:>6.1} {:>5.1} | {:>4.1}x\n",
            r.name,
            r.instret,
            r.loc_asm,
            r.vp.wall.as_secs_f64(),
            r.vp_plus.wall.as_secs_f64(),
            r.vp.mips(),
            r.vp_plus.mips(),
            r.overhead()
        ));
    }
    let n = rows.len().max(1) as f64;
    let sum_instr: u128 = rows.iter().map(|r| r.instret as u128).sum();
    let sum_loc: usize = rows.iter().map(|r| r.loc_asm).sum();
    let sum_vp: f64 = rows.iter().map(|r| r.vp.wall.as_secs_f64()).sum();
    let sum_vpp: f64 = rows.iter().map(|r| r.vp_plus.wall.as_secs_f64()).sum();
    out.push_str(
        "---------------+----------------+---------+-------------------+--------------+------\n",
    );
    out.push_str(&format!(
        "{:<14} | {:>14} | {:>7} | {:>8.3} {:>8.3}  | {:>6.1} {:>5.1} | {:>4.1}x\n",
        "- average -",
        sum_instr / rows.len().max(1) as u128,
        sum_loc / rows.len().max(1),
        sum_vp / n,
        sum_vpp / n,
        rows.iter().map(|r| r.vp.mips()).sum::<f64>() / n,
        rows.iter().map(|r| r.vp_plus.mips()).sum::<f64>() / n,
        sum_vpp / sum_vp.max(1e-9),
    ));
    out
}

/// Machine-readable performance trajectory: an append-only JSONL log
/// (`BENCH_trajectory.jsonl` at the workspace root) with one compact
/// `taintvp-bench/v1` line per `bench_guard` run, so the perf history is
/// reconstructible across PRs instead of a single overwritten snapshot.
pub mod trajectory {
    use std::io::Write as _;

    use vpdift_obs::json::escape;

    /// Default trajectory path, relative to the invocation directory;
    /// override with the `BENCH_TRAJECTORY` environment variable.
    pub const DEFAULT_PATH: &str = "BENCH_trajectory.jsonl";

    /// One measurement inside a trajectory line.
    #[derive(Debug, Clone)]
    pub struct Entry {
        /// Benchmark group, e.g. `iss_step_rate`.
        pub group: String,
        /// Benchmark name, e.g. `vp_plain`.
        pub name: String,
        /// Measurement unit, e.g. `ns/iter` or `steps`.
        pub unit: String,
        /// The measured value (a median for timed benches).
        pub value: f64,
    }

    impl Entry {
        /// Convenience constructor.
        pub fn new(group: &str, name: &str, unit: &str, value: f64) -> Self {
            Self { group: group.into(), name: name.into(), unit: unit.into(), value }
        }
    }

    /// The trajectory path: `$BENCH_TRAJECTORY` or [`DEFAULT_PATH`].
    pub fn path() -> String {
        std::env::var("BENCH_TRAJECTORY").unwrap_or_else(|_| DEFAULT_PATH.into())
    }

    /// Renders one compact single-line `taintvp-bench/v1` record.
    /// `t_unix` orders runs in the log (0 is fine for tests).
    pub fn render_line(suite: &str, t_unix: u64, entries: &[Entry]) -> String {
        let mut line = format!(
            "{{\"schema\": \"taintvp-bench/v1\", \"suite\": \"{}\", \
             \"t_unix\": {t_unix}, \"entries\": [",
            escape(suite)
        );
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            let value = if e.value.fract() == 0.0 {
                format!("{}", e.value as i64)
            } else {
                format!("{:.3}", e.value)
            };
            line.push_str(&format!(
                "{{\"group\": \"{}\", \"name\": \"{}\", \"unit\": \"{}\", \"value\": {value}}}",
                escape(&e.group),
                escape(&e.name),
                escape(&e.unit)
            ));
        }
        line.push_str("]}");
        line
    }

    /// Appends `line` (no trailing newline needed) to the trajectory log,
    /// creating the file on first use.
    ///
    /// A killed writer can leave the log without its final newline; gluing
    /// the next entry onto that torn tail would corrupt *two* lines, so a
    /// missing terminator is repaired with a newline before appending.
    pub fn append(path: &str, line: &str) -> std::io::Result<()> {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        let len = f.metadata()?.len();
        if len > 0 {
            let mut tail = [0u8; 1];
            let mut probe = std::fs::File::open(path)?;
            probe.seek(SeekFrom::Start(len - 1))?;
            probe.read_exact(&mut tail)?;
            if tail[0] != b'\n' {
                writeln!(f)?;
            }
        }
        writeln!(f, "{line}")
    }

    /// Seconds since the Unix epoch, saturating to 0 on clock trouble.
    pub fn now_unix() -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_line_is_valid_single_line_json() {
        let entries = vec![
            trajectory::Entry::new("iss_step_rate", "vp_plain", "ns/iter", 1152989.0),
            trajectory::Entry::new("campaign", "wall_time", "ns", 123.456),
        ];
        let line = trajectory::render_line("bench_guard", 0, &entries);
        assert!(!line.contains('\n'), "one line per run: {line}");
        vpdift_obs::json::parse(&line).expect("trajectory line parses");
        assert!(line.contains("\"schema\": \"taintvp-bench/v1\""));
        assert!(line.contains("\"value\": 1152989"));
        assert!(line.contains("\"value\": 123.456"));

        let odd = trajectory::Entry::new("g\"1", "a,\"b\"\\", "ns\n", 1.0);
        let line = trajectory::render_line("s\"", 0, &[odd]);
        let v = vpdift_obs::json::parse(&line).expect("escaped trajectory line parses");
        let entry = &v.get("entries").and_then(|e| e.as_arr()).expect("entries")[0];
        assert_eq!(entry.get("name").and_then(|n| n.as_str()), Some("a,\"b\"\\"));
        assert_eq!(entry.get("unit").and_then(|n| n.as_str()), Some("ns\n"));
        assert_eq!(v.get("suite").and_then(|n| n.as_str()), Some("s\""));
    }

    #[test]
    fn trajectory_appends_one_line_per_run() {
        let path = std::env::temp_dir().join("taintvp_trajectory_test.jsonl");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        for t in 0..3 {
            let line = trajectory::render_line("faultcamp", t, &[]);
            trajectory::append(path, &line).expect("append works");
        }
        let log = std::fs::read_to_string(path).expect("log readable");
        assert_eq!(log.lines().count(), 3);
        assert!(log.lines().all(|l| l.starts_with("{\"schema\": \"taintvp-bench/v1\"")));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn trajectory_append_repairs_a_torn_tail() {
        let path = std::env::temp_dir().join("taintvp_trajectory_torn_test.jsonl");
        let path = path.to_str().unwrap();
        // A killed writer left the log without its final newline.
        std::fs::write(path, "{\"schema\": \"taintvp-bench/v1\", \"suite\": \"faultc").unwrap();
        let line = trajectory::render_line("faultcamp", 1, &[]);
        trajectory::append(path, &line).expect("append works");
        let log = std::fs::read_to_string(path).expect("log readable");
        assert_eq!(log.lines().count(), 2, "torn tail stays its own line");
        assert!(
            log.lines().nth(1).unwrap().starts_with("{\"schema\": \"taintvp-bench/v1\""),
            "new entry is not glued onto the torn tail"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn measurement_mips() {
        let m = Measurement { instret: 2_000_000, wall: Duration::from_secs(1) };
        assert!((m.mips() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn small_workload_measures_on_both_modes() {
        let w = vpdift_firmware::primes::build(500);
        let row = measure_workload(&w);
        assert!(row.instret > 10_000);
        assert!(row.overhead() > 0.0);
        assert_eq!(row.name, "primes");
    }

    #[test]
    fn immo_bench_row() {
        let row = measure_immo(2);
        assert_eq!(row.name, "immo-fixed");
        assert!(row.instret > 1_000);
        assert!(row.loc_asm > 100);
    }

    #[test]
    fn render_contains_all_rows() {
        let w = vpdift_firmware::primes::build(300);
        let rows = vec![measure_workload(&w)];
        let s = render_table2(&rows);
        assert!(s.contains("primes"));
        assert!(s.contains("- average -"));
    }
}

//! End-to-end tests of the `taintvp-run` CLI binary.
//!
//! `cli_outputs_match_their_goldens` pins every output of five example
//! runs to `tests/golden/cli/`; after an intended change, regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test cli cli_outputs_match_their_goldens`.

use std::path::Path;
use std::process::{Command, Output};

fn run_cli_raw(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_taintvp-run"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("CLI binary runs")
}

fn run_cli(args: &[&str]) -> (i32, String, String) {
    let out = run_cli_raw(args);
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The bytes of a `--dump-uart-hex` line (`uart[n]: 92 b4 b7`).
fn uart_hex(stdout: &str) -> Vec<u8> {
    let (_, hex) = stdout.trim().split_once(": ").unwrap_or_else(|| panic!("{stdout}"));
    hex.split(' ').map(|b| u8::from_str_radix(b, 16).unwrap()).collect()
}

#[test]
fn enforced_leak_exits_2_with_diagnostics() {
    let (code, _stdout, stderr) =
        run_cli(&["docs/examples/leak.s", "--policy", "docs/examples/leak.policy"]);
    assert_eq!(code, 2, "violation exit code");
    assert!(stderr.contains("DIFT violation"));
    assert!(stderr.contains("[secret]"), "atom names resolved: {stderr}");
    assert!(stderr.contains("[public]"));
}

#[test]
fn plain_mode_runs_clean() {
    let (code, stdout, stderr) = run_cli(&["docs/examples/leak.s", "--plain", "--dump-uart-hex"]);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("uart[1]"));
    assert!(stderr.contains("clean exit"));
}

#[test]
fn record_mode_logs_and_traces() {
    let (code, _stdout, stderr) = run_cli(&[
        "docs/examples/leak.s",
        "--policy",
        "docs/examples/leak.policy",
        "--record",
        "--trace",
        "2",
    ]);
    assert_eq!(code, 0, "record mode completes");
    assert!(stderr.contains("recorded violation"));
    let trace = "[       1] 0x00000000: lui t0, 0x2\n[       2] 0x00000004: addi t0, t0, 0\n";
    assert!(stderr.starts_with(trace), "exactly two trace lines first: {stderr}");
    assert_eq!(stderr.matches("] 0x0000").count(), 2, "no further trace lines: {stderr}");
}

#[test]
fn usage_errors_exit_1() {
    let (code, _, stderr) = run_cli(&[]);
    assert_eq!(code, 1);
    assert!(stderr.contains("usage"));

    let (code, _, stderr) = run_cli(&["/nonexistent.s"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("cannot read"));

    let (code, _, stderr) = run_cli(&["docs/examples/leak.s", "--bogus"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("unknown option"));
}

#[test]
fn explain_walks_the_immobilizer_leak() {
    let (code, _stdout, stderr) = run_cli(&[
        "docs/examples/immo_leak.s",
        "--policy",
        "docs/examples/immobilizer.policy",
        "--explain",
    ]);
    assert_eq!(code, 2, "violation exit code; stderr: {stderr}");
    assert!(stderr.contains("== taint flow explanation =="), "explain header: {stderr}");
    // Classification site, an intermediate hop with symbol + disassembly,
    // and the violating sink — the full source-to-sink walk.
    assert!(stderr.contains("source  pin @0x2000"), "classification site: {stderr}");
    assert!(stderr.contains("<leak_loop>"), "hop symbol: {stderr}");
    assert!(stderr.contains("lbu t0, 0(s0)"), "hop disassembly: {stderr}");
    assert!(stderr.contains("sink    uart.tx"), "violating sink: {stderr}");
}

#[test]
fn flow_graph_exports_render_structurally() {
    let dir = std::env::temp_dir();
    let dot_path = dir.join("taintvp_cli_flow.dot");
    let json_path = dir.join("taintvp_cli_flow.json");
    let (code, _stdout, stderr) = run_cli(&[
        "docs/examples/immo_leak.s",
        "--policy",
        "docs/examples/immobilizer.policy",
        "--flow-dot",
        dot_path.to_str().unwrap(),
        "--flow-json",
        json_path.to_str().unwrap(),
    ]);
    assert_eq!(code, 2, "stderr: {stderr}");

    let dot = std::fs::read_to_string(&dot_path).expect("DOT written");
    assert!(dot.starts_with("digraph taint_flow {"), "DOT header: {dot}");
    assert!(dot.trim_end().ends_with('}'), "DOT closes: {dot}");
    assert_eq!(dot.matches('{').count(), dot.matches('}').count(), "balanced braces: {dot}");
    assert!(dot.contains("subgraph cluster_atom0"), "per-atom cluster: {dot}");
    assert!(dot.contains("source: pin"), "source node: {dot}");
    assert!(dot.contains("sink: uart.tx"), "sink node: {dot}");
    assert!(dot.contains("->"), "edges present: {dot}");

    let json = std::fs::read_to_string(&json_path).expect("JSON written");
    assert!(json.contains("\"schema\": \"taintvp-flow/v1\""), "schema tag: {json}");
    assert!(json.contains("\"site\": \"uart.tx\""), "sink record: {json}");
    let _ = std::fs::remove_file(&dot_path);
    let _ = std::fs::remove_file(&json_path);
}

#[test]
fn profile_prints_flat_and_tlm_sections() {
    let (code, _stdout, stderr) = run_cli(&[
        "docs/examples/leak.s",
        "--policy",
        "docs/examples/leak.policy",
        "--record",
        "--profile",
    ]);
    assert_eq!(code, 0, "record mode completes; stderr: {stderr}");
    assert!(stderr.contains("guest profile"), "profiler section: {stderr}");
    assert!(stderr.contains("TLM access/latency"), "TLM section: {stderr}");
}

#[test]
fn input_escapes_reach_the_terminal() {
    // docs/examples/echo_once.s echoes one console byte; feed it \x41.
    let (code, stdout, _) = run_cli(&["docs/examples/echo_once.s", "--plain", "--input", "\\x41"]);
    assert_eq!(code, 0);
    assert!(stdout.contains('A'));
}

#[test]
fn sensor_refills_wake_the_guest_and_reach_the_uart() {
    // docs/examples/sensor_echo.s waits in `wfi` for three refills of the
    // Fig. 4 sensor and echoes one frame byte per refill.
    let events =
        std::env::temp_dir().join(format!("taintvp_cli_sensor_echo_{}.jsonl", std::process::id()));
    let (code, stdout, stderr) = run_cli(&[
        "docs/examples/sensor_echo.s",
        "--policy",
        "docs/examples/sensor_echo.policy",
        "--dump-uart-hex",
        "--events-out",
        events.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {stderr}");
    let bytes = uart_hex(&stdout);
    assert_eq!(bytes.len(), 3, "{stdout}");
    assert!(bytes.iter().all(|&b| b >= 128), "Fig. 4's printable range: {stdout}");
    let jsonl = std::fs::read_to_string(&events).expect("events file written");
    let stamps: Vec<u64> = jsonl
        .lines()
        .filter(|l| l.contains(r#""kind":"classify","source":"sensor.frame""#))
        .map(|l| taintvp::obs::json::parse(l).unwrap().get("t_ps").unwrap().as_u64().unwrap())
        .collect();
    // One classified frame per refill, stamped with the refill's time
    // (25, 50 and 75 ms), not with the start of its quantum.
    assert_eq!(stamps, [25_000_000_000, 50_000_000_000, 75_000_000_000], "{jsonl}");
    let _ = std::fs::remove_file(&events);
}

#[test]
fn uart_bytes_reach_stdout_unchanged() {
    // sensor_echo's frame bytes are all >= 0x80: not UTF-8 text.
    let args = ["docs/examples/sensor_echo.s", "--policy", "docs/examples/sensor_echo.policy"];
    let (code, hex, stderr) = run_cli(&[&args[..], &["--dump-uart-hex"]].concat());
    assert_eq!(code, 0, "stderr: {stderr}");
    assert_eq!(run_cli_raw(&args).stdout, uart_hex(&hex), "raw bytes, as --dump-uart-hex reports");
}

/// The runs whose outputs `tests/golden/cli/<name>.txt` pins: the example
/// programs with their policies, on the default engine.
const GOLDEN_RUNS: [(&str, &[&str]); 5] = [
    ("leak", &["docs/examples/leak.s", "--policy", "docs/examples/leak.policy"]),
    ("immo_leak", &["docs/examples/immo_leak.s", "--policy", "docs/examples/immobilizer.policy"]),
    ("echo_once", &["docs/examples/echo_once.s", "--input", "A"]),
    (
        "sensor_echo",
        &["docs/examples/sensor_echo.s", "--policy", "docs/examples/sensor_echo.policy"],
    ),
    ("dma_leak", &["docs/examples/dma_leak.s", "--policy", "docs/examples/leak.policy"]),
];

#[test]
fn cli_outputs_match_their_goldens() {
    for (name, args) in GOLDEN_RUNS {
        let dir = std::env::temp_dir().join(format!("taintvp_cli_golden_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let [events, metrics, flow] =
            ["events.jsonl", "metrics.json", "flow.json"].map(|f| dir.join(f));
        let [ev, me, fl] = [&events, &metrics, &flow].map(|p| p.to_str().unwrap());
        let observe = ["--metrics", "--explain", "--flight-recorder", "32"];
        let files = ["--events-out", ev, "--metrics-json", me, "--flow-json", fl];
        let out = run_cli_raw(&[args, &observe[..], &files[..]].concat());
        let read = |p: &Path| std::fs::read(p).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut transcript = format!("exit {}\n", out.status.code().unwrap_or(-1)).into_bytes();
        let sections = [
            ("stdout", out.stdout),
            ("stderr", out.stderr),
            ("events-out", read(&events)),
            ("metrics-json", read(&metrics)),
            ("flow-json", read(&flow)),
        ];
        for (section, bytes) in sections {
            transcript.extend(format!("== {section} ({} bytes)\n", bytes.len()).bytes());
            transcript.extend(bytes);
            transcript.push(b'\n');
        }
        let _ = std::fs::remove_dir_all(&dir);

        let golden =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/cli/{name}.txt"));
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(golden.parent().unwrap()).expect("golden dir");
            std::fs::write(&golden, &transcript).expect("golden written");
            continue;
        }
        let expected =
            std::fs::read(&golden).unwrap_or_else(|e| panic!("{}: {e}", golden.display()));
        if transcript != expected {
            let (got, want) =
                (String::from_utf8_lossy(&transcript), String::from_utf8_lossy(&expected));
            let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
            panic!(
                "{name}: output drifted from {} at line {line:?}; regenerate with UPDATE_GOLDEN=1 \
                 if the change is intended\n--- got ---\n{got}",
                golden.display()
            );
        }
    }
}

#[test]
fn metrics_json_export_is_valid_and_tagged() {
    let path = std::env::temp_dir().join("taintvp_cli_metrics.json");
    let (code, _stdout, stderr) = run_cli(&[
        "docs/examples/leak.s",
        "--policy",
        "docs/examples/leak.policy",
        "--record",
        "--metrics-json",
        path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "record mode completes; stderr: {stderr}");
    let json = std::fs::read_to_string(&path).expect("metrics written");
    taintvp::obs::json::parse(&json).expect("metrics JSON parses");
    assert!(json.contains("\"schema\": \"taintvp-metrics/v1\""), "schema tag: {json}");
    assert!(json.contains("\"instructions\""), "counter present: {json}");
    let _ = std::fs::remove_file(&path);
}

/// Pipes a request script into `taintvp-run serve` over stdio and returns
/// (exit code, stdout lines).
fn run_serve_script(script: &str) -> (i32, Vec<String>) {
    use std::io::Write as _;
    let mut child = Command::new(env!("CARGO_BIN_EXE_taintvp-run"))
        .arg("serve")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve child spawns");
    child.stdin.take().expect("piped stdin").write_all(script.as_bytes()).expect("script written");
    let out = child.wait_with_output().expect("serve child exits");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).lines().map(str::to_owned).collect(),
    )
}

#[test]
fn serve_subcommand_speaks_the_protocol_over_stdio() {
    let program = taintvp::obs::json::escape(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/examples/immo_leak.s"))
            .expect("demo program"),
    );
    let policy = taintvp::obs::json::escape(
        &std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/docs/examples/immobilizer.policy"
        ))
        .expect("demo policy"),
    );
    let script = format!(
        "{{\"id\":1,\"cmd\":\"create\",\"session\":\"immo\",\"program\":\"{program}\",\
         \"policy\":\"{policy}\",\"enforce\":\"record\",\"ram_size\":65536}}\n\
         {{\"id\":2,\"cmd\":\"watch\",\"session\":\"immo\",\"kind\":\"sink\",\"site\":\"uart.tx\"}}\n\
         {{\"id\":3,\"cmd\":\"run\",\"session\":\"immo\",\"max_steps\":100000}}\n\
         {{\"id\":4,\"cmd\":\"shutdown\"}}\n"
    );
    let (code, lines) = run_serve_script(&script);
    assert_eq!(code, 0, "clean shutdown: {lines:?}");
    assert!(
        lines.first().is_some_and(|l| l.contains("\"schema\":\"taintvp-serve/v2\"")
            && l.contains("\"compat\":[\"taintvp-serve/v1\"]")),
        "v2 greeting with v1 compat first: {lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.contains("\"ev\":\"watch\"") && l.contains("uart.tx")),
        "watch hit streamed: {lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.contains("\"id\":3") && l.contains("\"exit\":\"stopped\"")),
        "watchpoint paused the run: {lines:?}"
    );
    for line in &lines {
        taintvp::obs::json::parse(line).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"));
    }
}

#[test]
fn serve_exits_cleanly_on_client_eof() {
    // No shutdown request — closing stdin must still terminate the server.
    let (code, lines) = run_serve_script("{\"id\":1,\"cmd\":\"list\"}\n");
    assert_eq!(code, 0, "EOF ends the stdio session: {lines:?}");
    assert!(lines.iter().any(|l| l.contains("\"sessions\":[]")), "{lines:?}");
}

#[test]
fn client_subcommand_drives_a_spawned_server() {
    let script_path = std::env::temp_dir().join("taintvp_cli_client.jsonl");
    std::fs::write(
        &script_path,
        "{\"id\":1,\"cmd\":\"create\",\"session\":\"s\",\"program\":\"ebreak\",\"ram_size\":65536}\n\
         {\"id\":2,\"cmd\":\"until\",\"session\":\"s\"}\n\
         {\"id\":3,\"cmd\":\"shutdown\"}\n",
    )
    .expect("script written");
    let (code, stdout, stderr) = run_cli(&["client", "--script", script_path.to_str().unwrap()]);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("\"schema\":\"taintvp-serve/v2\""), "greeting echoed: {stdout}");
    assert!(
        stdout.contains("\"id\":2") && stdout.contains("\"exit\":\"break\""),
        "run response echoed: {stdout}"
    );
    let _ = std::fs::remove_file(&script_path);
}

/// Emits a small ELF with distinct symbols into a temp file. The guest
/// prints one UART byte from `emit` so `--profile`/`--explain` have both
/// I/O and symbol structure to attribute.
fn write_demo_elf(name: &str) -> std::path::PathBuf {
    use taintvp::asm::{Asm, Reg};
    let mut a = Asm::new(0);
    a.label("main");
    a.entry();
    a.li(Reg::S0, 40);
    a.label("work");
    a.call("emit");
    a.addi(Reg::S0, Reg::S0, -1);
    a.bnez(Reg::S0, "work");
    a.ebreak();
    a.label("emit");
    a.li(Reg::T0, 0x1000_0000u32 as i32); // UART tx
    a.li(Reg::T1, b'.' as i32);
    a.sw(Reg::T1, 0, Reg::T0);
    a.ret();
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, a.to_elf().expect("demo ELF assembles")).expect("ELF written");
    path
}

#[test]
fn elf_guest_runs_end_to_end_with_symbolized_profile() {
    let path = write_demo_elf("taintvp_cli_demo.elf");
    let (code, stdout, stderr) = run_cli(&[path.to_str().unwrap(), "--profile", "--dump-uart-hex"]);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stderr.contains("clean exit"), "{stderr}");
    assert!(stdout.contains("uart[40]"), "all 40 UART bytes arrive: {stdout}");
    // Profile attribution (on stderr) uses the names from the ELF `.symtab`.
    assert!(stderr.contains("main"), "profile names `main`: {stderr}");
    assert!(stderr.contains("emit"), "profile names `emit`: {stderr}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn malformed_elf_exits_8_with_a_typed_error() {
    // The ELF magic makes the CLI take the loader path; the truncated
    // header must surface as a loader error, not a panic or a parse of
    // the bytes as assembly text.
    let path = std::env::temp_dir().join("taintvp_cli_truncated.elf");
    std::fs::write(&path, [0x7F, b'E', b'L', b'F', 1, 1]).expect("stub written");
    let (code, _stdout, stderr) = run_cli(&[path.to_str().unwrap()]);
    assert_eq!(code, 8, "loader errors use their own exit code: {stderr}");
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(stderr.contains("truncated"), "names the defect: {stderr}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn taint_segment_flag_classifies_elf_ingress() {
    let path = write_demo_elf("taintvp_cli_taintseg.elf");
    // Tag segment 0 with atom bit 2; the guest copies segment bytes to the
    // UART, so in permissive mode the run stays clean but the taint flows.
    let (code, _stdout, stderr) =
        run_cli(&[path.to_str().unwrap(), "--taint-segment", "0:2", "--metrics"]);
    assert_eq!(code, 0, "stderr: {stderr}");

    // Out-of-range segment index is a usage error, not a loader error.
    let (code, _stdout, stderr) = run_cli(&[path.to_str().unwrap(), "--taint-segment", "7:2"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("1 loadable segment"), "{stderr}");

    // And the flag is meaningless for assembly guests.
    let (code, _stdout, stderr) = run_cli(&["docs/examples/leak.s", "--taint-segment", "0:2"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("only applies to ELF"), "{stderr}");
    let _ = std::fs::remove_file(&path);
}

/// Runs `taintvp-run fleet` with `args`, writing the report to a temp
/// file named after `name`; returns the report and stderr.
fn fleet_report(name: &str, args: &[&str]) -> (String, String) {
    let out =
        std::env::temp_dir().join(format!("taintvp_cli_fleet_{}_{name}.json", std::process::id()));
    let mut argv = vec!["fleet"];
    argv.extend_from_slice(args);
    argv.extend_from_slice(&["--out", out.to_str().unwrap()]);
    let (code, _stdout, stderr) = run_cli(&argv);
    assert_eq!(code, 0, "stderr: {stderr}");
    let report = std::fs::read_to_string(&out).expect("fleet report written");
    let _ = std::fs::remove_file(&out);
    (report, stderr)
}

fn temp_journal(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("taintvp_cli_fleet_{}_{name}.jsonl", std::process::id()))
}

#[test]
fn fleet_report_is_independent_of_worker_count() {
    let (serial, _) = fleet_report("w1", &["--jobs", "6", "--workers", "1"]);
    let (parallel, _) = fleet_report("w3", &["--jobs", "6", "--workers", "3"]);
    assert_eq!(serial.matches("\"result\":").count(), 6, "one row per job: {serial}");
    assert_eq!(parallel, serial, "3 workers render the serial bytes");
}

#[test]
fn fleet_injected_failures_cost_one_row_each() {
    let (serial, _) = fleet_report("inj_serial", &["--jobs", "6", "--workers", "1"]);
    let (injected, _) = fleet_report(
        "inj",
        &[
            "--jobs",
            "6",
            "--workers",
            "2",
            "--deadline-ms",
            "500",
            "--inject-panic",
            "2",
            "--inject-hang",
            "4",
        ],
    );
    assert!(injected.contains("{\"job\":2,\"failed\":\"crashed\"}"), "{injected}");
    assert!(injected.contains("{\"job\":4,\"failed\":\"hang\"}"), "{injected}");
    // Every other row is the serial one; the summary counts the two
    // failures, so it differs too.
    let others = |report: &str| -> Vec<String> {
        report
            .lines()
            .filter(|l| !l.contains("\"job\":2,") && !l.contains("\"job\":4,"))
            .filter(|l| !l.contains("\"summary\""))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(others(&injected), others(&serial));
}

#[test]
fn fleet_resume_after_a_torn_journal_reproduces_the_serial_report() {
    let journal = temp_journal("torn");
    let path = journal.to_str().unwrap();
    let (serial, _) = fleet_report("torn_full", &["--jobs", "6", "--journal", path]);

    // A killed writer leaves the header, three records and a torn line.
    let text = std::fs::read_to_string(&journal).expect("journal written");
    let mut cut: String = text.lines().take(4).map(|l| format!("{l}\n")).collect();
    cut.push_str("{\"job\":5,\"status\":\"ok\",\"att");
    std::fs::write(&journal, cut).expect("journal cut");

    let (resumed, stderr) = fleet_report(
        "torn_resumed",
        &["--jobs", "6", "--workers", "2", "--journal", path, "--resume"],
    );
    assert!(stderr.contains("resumed 3 completed job(s)"), "{stderr}");
    assert_eq!(resumed, serial, "the resumed sweep renders the uninterrupted bytes");
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn fleet_resume_refuses_a_journal_of_another_program() {
    let journal = temp_journal("program");
    let path = journal.to_str().unwrap();
    let leak = ["--jobs", "2", "--program", "docs/examples/leak.s", "--journal", path];
    fleet_report("program_leak", &leak);
    let written = std::fs::read(&journal).expect("journal written");

    let (code, _stdout, stderr) = run_cli(&[
        "fleet",
        "--jobs",
        "2",
        "--program",
        "docs/examples/immo_leak.s",
        "--journal",
        path,
        "--resume",
    ]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("different campaign"), "{stderr}");
    assert_eq!(std::fs::read(&journal).unwrap(), written, "a refused journal is untouched");

    let (_, stderr) = fleet_report("program_again", &[&leak[..], &["--resume"]].concat());
    assert!(stderr.contains("resumed 2 completed job(s)"), "{stderr}");
    let _ = std::fs::remove_file(&journal);
}

//! Protocol-level tests of the introspection server, transport-free:
//! request lines go straight into [`Server::handle_line`] and every
//! emitted line (streamed events and responses) is captured.
//!
//! The centerpiece is a golden-transcript test of the immobilizer leak
//! demo — create, watch `uart.tx`, run until the watchpoint pauses the
//! guest mid-leak, read tags, ask for a live explanation, resume, and
//! drain the stream. The VP is fully deterministic (simulated time, no
//! wall clock), so the whole transcript is byte-stable; regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p vpdift-serve --test protocol`.

use std::sync::Arc;

use vpdift_obs::json::{escape, parse, Value};
use vpdift_serve::{Control, ServeMetrics, Server};

const IMMO_PROGRAM: &str = include_str!("../../../docs/examples/immo_leak.s");
const IMMO_POLICY: &str = include_str!("../../../docs/examples/immobilizer.policy");
const GOLDEN: &str = include_str!("golden/immo_session.txt");

/// Feeds `lines` to the server, returning every emitted line in order
/// (streamed `"ev"` lines interleaved with responses) plus the final
/// control state.
fn drive(server: &mut Server, lines: &[String]) -> (Vec<String>, Control) {
    let mut out = Vec::new();
    let mut control = Control::Continue;
    for line in lines {
        let mut emit = |s: &str| {
            out.push(s.to_owned());
            Ok(())
        };
        control = server.handle_line(line, &mut emit).expect("emit never fails here");
        if control == Control::Shutdown {
            break;
        }
    }
    (out, control)
}

/// The golden session script; `engine` adds an `"engine"` field to its
/// `create` request (`None` runs the default engine).
fn immo_script(engine: Option<&str>) -> Vec<String> {
    let engine = engine.map(|e| format!("\"engine\":\"{e}\",")).unwrap_or_default();
    vec![
        format!(
            "{{\"id\":1,\"cmd\":\"create\",\"session\":\"immo\",\"program\":\"{}\",\"policy\":\"{}\",\"enforce\":\"record\",{engine}\"ram_size\":65536}}",
            escape(IMMO_PROGRAM),
            escape(IMMO_POLICY)
        ),
        r#"{"id":2,"cmd":"watch","session":"immo","kind":"sink","site":"uart.tx"}"#.into(),
        r#"{"id":3,"cmd":"subscribe","session":"immo","events":["violation","tag_set_change"],"flow":true}"#.into(),
        r#"{"id":4,"cmd":"run","session":"immo","max_steps":100000}"#.into(),
        r#"{"id":5,"cmd":"read","session":"immo","what":"tags","addr":8192,"len":4}"#.into(),
        r#"{"id":6,"cmd":"read","session":"immo","what":"regs"}"#.into(),
        r#"{"id":7,"cmd":"explain","session":"immo","atom":"secret"}"#.into(),
        r#"{"id":8,"cmd":"run","session":"immo","max_steps":100000}"#.into(),
        r#"{"id":9,"cmd":"unwatch","session":"immo","watch":1}"#.into(),
        r#"{"id":10,"cmd":"until","session":"immo"}"#.into(),
        r#"{"id":11,"cmd":"info","session":"immo"}"#.into(),
        r#"{"id":12,"cmd":"list"}"#.into(),
        r#"{"id":13,"cmd":"destroy","session":"immo"}"#.into(),
        r#"{"id":14,"cmd":"shutdown"}"#.into(),
    ]
}

#[test]
fn immo_watchpoint_session_matches_golden_transcript() {
    // The golden pins the reference interpreter; the test below holds the
    // other engines to it.
    let mut server = Server::new();
    let (out, control) = drive(&mut server, &immo_script(Some("interp")));
    assert_eq!(control, Control::Shutdown);
    for line in &out {
        parse(line).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"));
    }
    let transcript = out.join("\n") + "\n";

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/immo_session.txt");
        std::fs::write(path, &transcript).expect("golden written");
        return;
    }
    assert_eq!(
        transcript, GOLDEN,
        "transcript drifted from tests/golden/immo_session.txt; \
         regenerate with UPDATE_GOLDEN=1 if the change is intended"
    );
}

#[test]
fn golden_session_is_identical_on_the_block_cache_and_the_default_engine() {
    // Same stop points (instret 9, 14, 28), events and digests as the
    // interpreter golden; only the reported engine label differs.
    for engine in [Some("block"), None] {
        let (out, _) = drive(&mut Server::new(), &immo_script(engine));
        let transcript = out.join("\n") + "\n";
        assert_eq!(
            transcript.matches("\"engine\":\"block\"").count(),
            2,
            "engine {engine:?}: create and info report the block cache"
        );
        assert_eq!(
            transcript.replace("\"engine\":\"block\"", "\"engine\":\"interp\""),
            GOLDEN,
            "engine {engine:?}: transcript differs from the interpreter golden"
        );
    }
}

#[test]
fn watchpoint_pauses_before_the_leak_completes() {
    let mut server = Server::new();
    let (out, _) = drive(&mut server, &immo_script(None)[..4]);
    // The run response is the last line; the watch stopped the guest
    // before the four-byte leak finished.
    let run = out.last().expect("run response");
    assert!(run.contains("\"exit\":\"stopped\""), "{run}");
    assert!(out.iter().any(|l| l.contains("\"ev\":\"watch\"")), "watch hit streamed: {out:?}");
    assert!(
        out.iter().any(|l| l.contains("\"ev\":\"obs\"") && l.contains("tag_set_change")),
        "subscribed events streamed: {out:?}"
    );
    assert!(
        out.iter().any(|l| l.contains("\"ev\":\"flow\"") && l.contains("\"delta\":\"origin\"")),
        "flow deltas streamed: {out:?}"
    );
}

#[test]
fn serve_stepped_digest_matches_batch_digest_on_both_engines() {
    // engine_diff, protocol edition: a session stepped in many small
    // slices over the wire must land on the same architectural digest as
    // one batch run — per engine, and across engines.
    let mut digests = Vec::new();
    for engine in ["interp", "block"] {
        let create = format!(
            "{{\"cmd\":\"create\",\"session\":\"s\",\"program\":\"{}\",\"policy\":\"{}\",\"enforce\":\"record\",\"engine\":\"{engine}\",\"ram_size\":65536}}",
            escape(IMMO_PROGRAM),
            escape(IMMO_POLICY)
        );

        let mut stepped = Server::new();
        let mut lines = vec![create.clone()];
        lines.extend(std::iter::repeat_n(
            r#"{"cmd":"run","session":"s","max_steps":7}"#.to_owned(),
            40,
        ));
        lines.push(r#"{"cmd":"info","session":"s"}"#.into());
        let (out, _) = drive(&mut stepped, &lines);
        // The program ebreaks after ~34 steps; once `break` is reached
        // further run calls would re-retire the ebreak, so find the first
        // terminal exit and compare info digests right after it.
        let stepped_break =
            out.iter().find(|l| l.contains("\"exit\":\"break\"")).expect("guest ebreaks");
        let digest = str_field(stepped_break, "digest");

        let mut batch = Server::new();
        let (out, _) = drive(&mut batch, &[create, r#"{"cmd":"until","session":"s"}"#.into()]);
        let batch_break = out.last().expect("until response");
        assert!(batch_break.contains("\"exit\":\"break\""), "{batch_break}");
        assert_eq!(
            digest,
            str_field(batch_break, "digest"),
            "engine {engine}: serve-stepped and batch digests diverged"
        );
        digests.push(digest);
    }
    assert_eq!(digests[0], digests[1], "interp and block-cache digests diverged");
}

/// The string field `key` of a response line.
fn str_field(line: &str, key: &str) -> String {
    let v = parse(line).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"));
    v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("no {key} in `{line}`")).to_owned()
}

/// The integer field `key` of a response line.
fn u64_field(line: &str, key: &str) -> u64 {
    let v = parse(line).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"));
    v.get(key).and_then(Value::as_u64).unwrap_or_else(|| panic!("no {key} in `{line}`"))
}

// ------------------------------------------------------------- errors ---

fn one_shot(server: &mut Server, line: &str) -> Vec<String> {
    let (out, _) = drive(server, &[line.to_owned()]);
    out
}

#[test]
fn malformed_and_unknown_requests_get_typed_errors() {
    let mut server = Server::new();
    let cases: &[(&str, &str)] = &[
        ("{not json", "bad_json"),
        ("[1,2,3]", "bad_request"),
        (r#"{"id":9,"cmd":"warp"}"#, "unknown_cmd"),
        (r#"{"cmd":"run","session":"ghost"}"#, "unknown_session"),
        (r#"{"cmd":"create","session":"x"}"#, "bad_request"),
        (r#"{"cmd":"create","session":"x","program":"nonsense"}"#, "bad_program"),
        (r#"{"cmd":"create","session":"x","program":"ebreak","policy":"garbage"}"#, "bad_policy"),
        (r#"{"cmd":"create","session":"x","program":"ebreak","mode":"quantum"}"#, "bad_request"),
    ];
    for (req, code) in cases {
        let out = one_shot(&mut server, req);
        assert_eq!(out.len(), 1, "exactly one error line for {req}");
        parse(&out[0]).expect("error line parses");
        assert!(out[0].contains(&format!("\"code\":\"{code}\"")), "{req} -> {}", out[0]);
        assert!(out[0].contains("\"ok\":false"), "{}", out[0]);
    }

    // Duplicate create, bad watch shapes, unknown watch id.
    assert!(one_shot(&mut server, r#"{"cmd":"create","session":"x","program":"ebreak"}"#)[0]
        .contains("\"ok\":true"));
    assert!(one_shot(&mut server, r#"{"cmd":"create","session":"x","program":"ebreak"}"#)[0]
        .contains("duplicate_session"));
    assert!(one_shot(&mut server, r#"{"cmd":"watch","session":"x","kind":"sink"}"#)[0]
        .contains("bad_watch"));
    assert!(one_shot(&mut server, r#"{"cmd":"unwatch","session":"x","watch":99}"#)[0]
        .contains("bad_watch"));
    // The session survived every error above.
    assert!(one_shot(&mut server, r#"{"cmd":"list"}"#)[0].contains("\"x\""));
    // The id is echoed even on errors.
    let out = one_shot(&mut server, r#"{"id":42,"cmd":"warp"}"#);
    assert!(out[0].starts_with("{\"id\":42,"), "{}", out[0]);
}

#[test]
fn client_disconnect_mid_run_stops_but_keeps_the_session() {
    let mut server = Server::new();
    let create = format!(
        "{{\"cmd\":\"create\",\"session\":\"immo\",\"program\":\"{}\",\"policy\":\"{}\",\"enforce\":\"record\",\"ram_size\":65536}}",
        escape(IMMO_PROGRAM),
        escape(IMMO_POLICY)
    );
    let (out, _) = drive(
        &mut server,
        &[create, r#"{"cmd":"subscribe","session":"immo","events":[],"flow":true}"#.into()],
    );
    assert!(out.iter().all(|l| l.contains("\"ok\":true")), "{out:?}");

    // The client vanishes as soon as the first streamed line is written:
    // every emit fails from then on.
    let mut wrote = 0usize;
    let mut emit = |_: &str| -> std::io::Result<()> {
        wrote += 1;
        Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "client gone"))
    };
    let result =
        server.handle_line(r#"{"cmd":"run","session":"immo","max_steps":100000}"#, &mut emit);
    // The transport write failed, so handle_line surfaces the io error
    // (the response line could not be delivered either)…
    assert!(result.is_err(), "broken pipe surfaces to the transport loop");
    assert!(wrote >= 1, "at least one write was attempted");

    // …but the session belongs to the registry, not the dead connection:
    // it was stopped, kept, and is immediately usable by the next client.
    let out = one_shot(&mut server, r#"{"cmd":"list"}"#);
    assert_eq!(out[0], "{\"ok\":true,\"sessions\":[\"immo\"]}");
    let info = one_shot(&mut server, r#"{"cmd":"info","session":"immo"}"#);
    assert!(info[0].contains("\"ok\":true"), "{}", info[0]);
    // The latched stop was cleared, so a fresh run makes real progress
    // instead of returning `stopped` after zero steps.
    let before = u64_field(&info[0], "instret");
    let run = one_shot(&mut server, r#"{"cmd":"run","session":"immo","max_steps":200}"#);
    let resp = run.last().expect("run responds");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let after = u64_field(resp, "instret");
    assert!(after > before, "resumed run retired instructions ({before} -> {after})");
}

#[test]
fn hello_pins_v1_and_hides_v2_verbs() {
    let mut server = Server::new();
    let (out, _) = drive(
        &mut server,
        &[
            r#"{"id":1,"cmd":"create","session":"s","program":"ebreak","ram_size":65536}"#.into(),
            // Fresh connections speak v2: `stop` and `break` exist.
            r#"{"id":2,"cmd":"stop","session":"s"}"#.into(),
            r#"{"id":3,"cmd":"break","session":"s","pc":64}"#.into(),
            // Pin the connection to v1: the same verbs must now be
            // rejected exactly as a v1 server rejected them.
            r#"{"id":4,"cmd":"hello","version":"taintvp-serve/v1"}"#.into(),
            r#"{"id":5,"cmd":"stop","session":"s"}"#.into(),
            r#"{"id":6,"cmd":"break","session":"s","instret":10}"#.into(),
            r#"{"id":7,"cmd":"unbreak","session":"s","break":1}"#.into(),
            // v1 commands keep working while pinned.
            r#"{"id":8,"cmd":"list"}"#.into(),
            // Re-upgrade mid-connection, and reject unknown schemas.
            r#"{"id":9,"cmd":"hello","version":"taintvp-serve/v2"}"#.into(),
            r#"{"id":10,"cmd":"unbreak","session":"s","break":1}"#.into(),
            r#"{"id":11,"cmd":"hello","version":"taintvp-serve/v9"}"#.into(),
        ],
    );
    let line = |id: usize| {
        out.iter()
            .find(|l| l.starts_with(&format!("{{\"id\":{id},")))
            .unwrap_or_else(|| panic!("no response for id {id}: {out:?}"))
    };
    assert!(line(2).contains("\"ok\":true"), "{}", line(2));
    assert!(line(3).contains("\"break\":1"), "{}", line(3));
    assert!(line(4).contains("\"schema\":\"taintvp-serve/v1\""), "{}", line(4));
    for id in [5, 6] {
        assert!(line(id).contains("\"code\":\"unknown_cmd\""), "{}", line(id));
    }
    assert!(line(7).contains("\"code\":\"unknown_cmd\""), "{}", line(7));
    assert!(line(8).contains("\"sessions\":[\"s\"]"), "{}", line(8));
    assert!(line(9).contains("\"schema\":\"taintvp-serve/v2\""), "{}", line(9));
    assert!(line(10).contains("\"ok\":true"), "v2 verbs return after re-upgrade: {}", line(10));
    assert!(line(11).contains("\"code\":\"bad_request\""), "{}", line(11));
}

// --------------------------------------------------------- elf guests ---

/// Builds a tiny ELF guest and returns it as an `elf-hex:` program field.
fn elf_hex_program() -> String {
    use vpdift_asm::{Asm, Reg};
    let mut a = Asm::new(0);
    a.label("main");
    a.entry();
    a.li(Reg::A0, 0x2A);
    a.ebreak();
    let bytes = a.to_elf().expect("demo ELF assembles");
    let mut field = String::from("elf-hex:");
    for b in bytes {
        field.push_str(&format!("{b:02x}"));
    }
    field
}

#[test]
fn elf_hex_session_runs_the_binary() {
    let mut server = Server::new();
    let (out, _) = drive(
        &mut server,
        &[
            format!(
                "{{\"id\":1,\"cmd\":\"create\",\"session\":\"bin\",\"program\":\"{}\",\"ram_size\":65536}}",
                elf_hex_program()
            ),
            r#"{"id":2,"cmd":"until","session":"bin"}"#.into(),
            r#"{"id":3,"cmd":"read","session":"bin","what":"regs"}"#.into(),
        ],
    );
    assert!(out[0].contains("\"ok\":true"), "create accepts elf-hex: {}", out[0]);
    assert!(out[1].contains("\"exit\":\"break\""), "binary runs to ebreak: {}", out[1]);
    // a0 holds 0x2a from the guest.
    assert!(out[2].contains("\"name\":\"a0\",\"value\":42"), "a0 value visible: {}", out[2]);
}

#[test]
fn bad_elf_hex_payloads_get_typed_errors() {
    let mut server = Server::new();
    for (program, what) in [
        ("elf-hex:zz", "non-hex digits"),
        ("elf-hex:abc", "odd length"),
        ("elf-hex:7f454c46", "truncated ELF"),
        ("elf-hex:00112233445566778899", "not an ELF at all"),
    ] {
        let out = one_shot(
            &mut server,
            &format!("{{\"cmd\":\"create\",\"session\":\"x\",\"program\":\"{program}\"}}"),
        );
        assert_eq!(out.len(), 1);
        assert!(
            out[0].contains("\"code\":\"bad_program\""),
            "{what} must be bad_program: {}",
            out[0]
        );
        assert!(out[0].contains("\"ok\":false"), "{}", out[0]);
    }
    // No half-created sessions linger.
    assert!(one_shot(&mut server, r#"{"cmd":"list"}"#)[0].contains("\"sessions\":[]"));
}

#[test]
fn each_verb_reports_its_latency_on_the_metrics_hub() {
    let metrics = Arc::new(ServeMetrics::new());
    let mut server = Server::new().with_metrics(Arc::clone(&metrics));
    let lines = [
        r#"{"id":1,"cmd":"create","session":"s","program":"loop:\n j loop\n","ram_size":65536}"#,
        r#"{"id":2,"cmd":"run","session":"s","max_steps":100}"#,
        r#"{"id":3,"cmd":"step","session":"s"}"#,
    ]
    .map(String::from);
    let (out, _) = drive(&mut server, &lines);
    assert!(out.iter().all(|l| l.contains("\"ok\":true")), "{out:?}");
    let text = metrics.render();
    assert!(text.contains("# TYPE serve_request_seconds histogram"), "{text}");
    for cmd in ["create", "run", "step"] {
        let count = format!("serve_request_seconds_count{{cmd=\"{cmd}\"}} 1\n");
        assert!(text.contains(&count), "{cmd}: {text}");
        let inf = format!("serve_request_seconds_bucket{{cmd=\"{cmd}\",le=\"+Inf\"}} 1\n");
        assert!(text.contains(&inf), "{cmd}: {text}");
    }
}

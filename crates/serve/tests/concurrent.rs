//! Concurrent-client tests of the v2 server over real TCP: two clients
//! on separate connections share one session registry — stepping distinct
//! sessions interleaved, interrupting each other's runs mid-flight with
//! `stop`, and pausing guests at breakpoints and watchpoints.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;

use vpdift_obs::json::{escape, parse, Value};
use vpdift_serve::Server;

const IMMO_PROGRAM: &str = include_str!("../../../docs/examples/immo_leak.s");
const IMMO_POLICY: &str = include_str!("../../../docs/examples/immobilizer.policy");

/// A guest that spins forever — only `stop` (or a breakpoint) ends a run.
const SPIN: &str = "loop:\n    j loop\n";

/// [`SPIN`] after one UART byte: with `tlm` subscribed, a run streams one
/// event line, between two run slices, while it holds the session lock.
const WRITE_THEN_SPIN: &str = "    li t0, 0x10000000\n    sb zero, 0(t0)\nloop:\n    j loop\n";

/// Binds port 0 and serves on a background thread; returns the address
/// and the join handle (joins once `shutdown` lands and clients drop).
fn start_server() -> (String, thread::JoinHandle<()>) {
    let server = Server::new();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle = thread::spawn(move || {
        server.serve_listener(listener).expect("serve_listener runs");
    });
    (addr, handle)
}

/// One TCP client: send request lines, read server lines.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects and consumes the greeting line.
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut c =
            Client { reader: BufReader::new(stream.try_clone().expect("clone")), writer: stream };
        let greeting = c.recv();
        assert!(greeting.contains("\"schema\":\"taintvp-serve/v2\""), "{greeting}");
        c
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
    }

    /// Next server line, whatever it is (response or streamed event).
    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end().to_owned()
    }

    /// Reads until the *response* line (skipping streamed `"ev"` lines),
    /// returning (streamed lines, response).
    fn response(&mut self) -> (Vec<String>, String) {
        let mut events = Vec::new();
        loop {
            let line = self.recv();
            if line.contains("\"ev\":\"") {
                events.push(line);
            } else {
                return (events, line);
            }
        }
    }

    /// Sends one request and returns its (events, response).
    fn request(&mut self, line: &str) -> (Vec<String>, String) {
        self.send(line);
        self.response()
    }
}

fn instret_of(response: &str) -> u64 {
    parse(response)
        .ok()
        .and_then(|v| v.get("instret").and_then(Value::as_u64))
        .unwrap_or_else(|| panic!("no instret in `{response}`"))
}

#[test]
fn two_clients_step_distinct_sessions_interleaved() {
    let (addr, server) = start_server();
    let mut a = Client::connect(&addr);
    let mut b = Client::connect(&addr);

    let spin = escape(SPIN);
    let (_, r) = a.request(&format!(
        "{{\"id\":1,\"cmd\":\"create\",\"session\":\"a\",\"program\":\"{spin}\",\"ram_size\":65536}}"
    ));
    assert!(r.contains("\"ok\":true"), "{r}");
    let (_, r) = b.request(&format!(
        "{{\"id\":1,\"cmd\":\"create\",\"session\":\"b\",\"program\":\"{spin}\",\"ram_size\":65536}}"
    ));
    assert!(r.contains("\"ok\":true"), "{r}");

    // Both connections see the same registry.
    let (_, r) = a.request(r#"{"id":2,"cmd":"list"}"#);
    assert!(r.contains("\"sessions\":[\"a\",\"b\"]"), "{r}");

    // Interleaved stepping: each session advances exactly with its own
    // client's steps, never with the sibling's.
    for round in 1..=3u64 {
        let (_, ra) = a.request(r#"{"id":3,"cmd":"step","session":"a"}"#);
        assert_eq!(instret_of(&ra), round, "{ra}");
        let (_, rb) = b.request(r#"{"id":3,"cmd":"step","session":"b"}"#);
        assert_eq!(instret_of(&rb), round, "{rb}");
    }
    // Cross-connection access: B can also read A's session (same registry).
    let (_, r) = b.request(r#"{"id":4,"cmd":"info","session":"a"}"#);
    assert!(r.contains("\"instret\":3"), "{r}");

    let (_, r) = a.request(r#"{"id":5,"cmd":"shutdown"}"#);
    assert!(r.contains("\"ok\":true"), "{r}");
    drop(a);
    drop(b);
    server.join().expect("server thread exits after shutdown");
}

#[test]
fn stop_from_connection_b_interrupts_a_run_on_connection_a() {
    let (addr, server) = start_server();
    let mut a = Client::connect(&addr);
    let mut b = Client::connect(&addr);

    let spin = escape(WRITE_THEN_SPIN);
    let (_, r) = a.request(&format!(
        "{{\"id\":1,\"cmd\":\"create\",\"session\":\"spin\",\"program\":\"{spin}\",\"ram_size\":65536}}"
    ));
    assert!(r.contains("\"ok\":true"), "{r}");
    let (_, r) = a.request(r#"{"id":2,"cmd":"subscribe","session":"spin","events":["tlm"]}"#);
    assert!(r.contains("\"ok\":true"), "{r}");

    // A starts a run that only an interrupt can end in test time. Its UART
    // byte streams as an event line while the run holds the session lock.
    a.send(r#"{"id":3,"cmd":"run","session":"spin","max_steps":4000000000}"#);
    let ev = a.recv();
    assert!(ev.contains("\"ev\":\"obs\"") && ev.contains("\"kind\":\"tlm\""), "{ev}");

    // B observes the session is busy (the run holds its lock)…
    let (_, r) = b.request(r#"{"id":2,"cmd":"step","session":"spin"}"#);
    assert!(r.contains("\"code\":\"busy\""), "connection B sees the mid-run session as busy: {r}");

    // …and interrupts it — `stop` goes through the registry's lock-free
    // stop handle, not the session lock.
    let (_, r) = b.request(r#"{"id":3,"cmd":"stop","session":"spin"}"#);
    assert!(r.contains("\"ok\":true"), "{r}");

    // A's run returns `stopped`, resumable.
    let (_, r) = a.response();
    assert!(r.contains("\"exit\":\"stopped\""), "{r}");
    let stopped_at = instret_of(&r);
    assert!(stopped_at > 0, "the run made progress before the interrupt: {r}");

    // A resumes from the exact stop point; the cleared flag does not
    // re-trip the next run.
    let (_, r) = a.request(r#"{"id":3,"cmd":"run","session":"spin","max_steps":1000}"#);
    assert!(r.contains("\"ok\":true"), "{r}");
    assert_eq!(instret_of(&r), stopped_at + 1000, "resume continues the count: {r}");

    let (_, r) = b.request(r#"{"id":4,"cmd":"shutdown"}"#);
    assert!(r.contains("\"ok\":true"), "{r}");
    drop(a);
    drop(b);
    server.join().expect("server thread exits after shutdown");
}

#[test]
fn breakpoint_then_watchpoint_pause_the_guest_on_both_engines() {
    let (addr, server) = start_server();
    for engine in ["interp", "block"] {
        let mut c = Client::connect(&addr);
        let sess = format!("leak-{engine}");
        let (_, r) = c.request(&format!(
            "{{\"id\":1,\"cmd\":\"create\",\"session\":\"{sess}\",\"program\":\"{}\",\"policy\":\"{}\",\
             \"enforce\":\"record\",\"engine\":\"{engine}\",\"ram_size\":65536}}",
            escape(IMMO_PROGRAM),
            escape(IMMO_POLICY)
        ));
        assert!(r.contains("\"ok\":true"), "{r}");
        let (_, r) = c.request(&format!(
            "{{\"id\":2,\"cmd\":\"watch\",\"session\":\"{sess}\",\"kind\":\"sink\",\"site\":\"uart.tx\"}}"
        ));
        assert!(r.contains("\"watch\":1"), "{r}");
        let (_, r) = c.request(&format!(
            "{{\"id\":3,\"cmd\":\"break\",\"session\":\"{sess}\",\"instret\":5}}"
        ));
        assert!(r.contains("\"break\":1"), "{r}");

        // First pause: the breakpoint, streamed as an `"ev":"break"` line
        // ahead of the `stopped` response, well before the leak reaches
        // the UART.
        let (events, r) = c.request(&format!(
            "{{\"id\":4,\"cmd\":\"run\",\"session\":\"{sess}\",\"max_steps\":100000}}"
        ));
        assert!(r.contains("\"exit\":\"stopped\""), "{r}");
        assert_eq!(instret_of(&r), 5, "paused exactly at the requested instret: {r}");
        assert!(
            events.iter().any(|e| e.contains("\"ev\":\"break\"") && e.contains("instret=5")),
            "break hit streamed: {events:?}"
        );

        // Paused guests are inspectable like any stopped session.
        let (_, r) = c.request(&format!(
            "{{\"id\":5,\"cmd\":\"read\",\"session\":\"{sess}\",\"what\":\"regs\"}}"
        ));
        assert!(r.contains("\"pc\":"), "{r}");

        // Second pause: resume runs on to the taint watchpoint.
        let (events, r) = c.request(&format!(
            "{{\"id\":6,\"cmd\":\"run\",\"session\":\"{sess}\",\"max_steps\":100000}}"
        ));
        assert!(r.contains("\"exit\":\"stopped\""), "{r}");
        assert!(instret_of(&r) > 5, "the resumed run advanced: {r}");
        assert!(
            events.iter().any(|e| e.contains("\"ev\":\"watch\"") && e.contains("uart.tx")),
            "watch hit streamed after resume: {events:?}"
        );
        drop(c);
    }
    let mut c = Client::connect(&addr);
    let (_, r) = c.request(r#"{"id":1,"cmd":"shutdown"}"#);
    assert!(r.contains("\"ok\":true"), "{r}");
    drop(c);
    server.join().expect("server thread exits after shutdown");
}

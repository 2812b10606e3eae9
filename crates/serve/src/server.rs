//! The introspection server, v2: concurrent connections over a shared
//! session [`Registry`].
//!
//! Three layers, transport-agnostic from the inside out:
//!
//! * [`Registry`] (see `registry.rs`) owns every [`Session`] — lifetime
//!   is `create` → `destroy` (or idle sweep), never drop-on-disconnect.
//! * [`Connection`] is the per-client state: the negotiated protocol
//!   [`Version`] plus a handle to the registry.
//!   [`Connection::handle_line`] is the transport-free core — one
//!   request line in, one response line out, plus any streamed `"ev"`
//!   lines through the emit callback.
//! * Dispatch — the `cmd_*` methods — parses each verb exactly once and
//!   renders v1-stable response shapes (v2 additions are additive-only).
//!
//! [`Server`] is the assembled front door: [`Server::serve`] drives one
//! stdio client, [`Server::serve_tcp`] accepts TCP clients **one thread
//! per connection** — any connection can `step` its own sessions while
//! another `run`s, `stop` a run mid-flight on a sibling connection
//! (cross-connection interrupt via the lock-free [`StopFlag`] in the
//! registry entry), or arm breakpoints on a running session.
//!
//! Error discipline: every failure path returns a typed protocol error
//! line (`bad_json`, `unknown_session`, `busy`, …) — the server never
//! panics on client input, and a client that disconnects mid-run has its
//! running session *stopped but kept*: the registry owns it, and the next
//! connection resumes exactly where the run was interrupted.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use vpdift_obs::json::{self, Value};
use vpdift_obs::{BreakKind, StreamItem, WatchKind};
use vpdift_soc::SocExit;

use crate::metrics::SessionStats;
use crate::proto::{self, ErrorCode, ServeError, Version};
use crate::registry::Registry;
use crate::session::{ByteRead, CreateOpts, Session, DEFAULT_MAX_STEPS};

/// What a handled request asks the transport loop to do next.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Control {
    /// Keep reading requests.
    Continue,
    /// `shutdown` was requested: stop the transport loop.
    Shutdown,
}

/// Emits a line to the client; an `Err` means the client is gone.
pub type EmitFn<'a> = dyn FnMut(&str) -> io::Result<()> + 'a;

/// Per-connection protocol state: the negotiated version plus the shared
/// registry every connection dispatches into.
pub struct Connection {
    registry: Arc<Registry>,
    version: Version,
}

impl Connection {
    /// A fresh connection at the default (v2) protocol version.
    pub fn new(registry: Arc<Registry>) -> Connection {
        Connection { registry, version: Version::default() }
    }

    /// The currently negotiated protocol version.
    pub fn version(&self) -> Version {
        self.version
    }

    /// Captures `sess`'s progress facts for the metrics hub.
    fn session_stats(sess: &mut Session) -> SessionStats {
        SessionStats {
            instret: sess.instret(),
            t_ps: sess.now_ps(),
            violations: sess.violations() as u64,
            runs: 0,
        }
    }

    /// Handles one request line: writes streamed `"ev"` lines and exactly
    /// one response line through `emit`, and reports whether to keep
    /// serving.
    ///
    /// An `emit` failure mid-run (client disconnect) stops the running
    /// session via its [`StopFlag`](vpdift_obs::StopFlag) and surfaces as
    /// `Err` so the transport loop drops the connection — the session
    /// itself stays in the registry, resumable by any other client.
    ///
    /// # Errors
    /// Only transport failures; protocol problems become error *lines*.
    pub fn handle_line(&mut self, line: &str, emit: &mut EmitFn<'_>) -> io::Result<Control> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(Control::Continue);
        }
        let (id, result) = match json::parse(line) {
            Err(e) => (None, Err(ServeError::new(ErrorCode::BadJson, e.to_string()))),
            Ok(req) => {
                let id = req.get("id").and_then(Value::as_u64);
                (id, self.dispatch(&req, emit))
            }
        };
        match result {
            Ok(Reply { fields, control }) => {
                emit(&proto::ok_line(id, &fields))?;
                Ok(control)
            }
            Err(err) => {
                if let Some(m) = self.registry.metrics() {
                    m.on_error();
                }
                emit(&proto::err_line(id, &err))?;
                Ok(Control::Continue)
            }
        }
    }

    // ------------------------------------------------------ dispatch ---

    fn dispatch(&mut self, req: &Value, emit: &mut EmitFn<'_>) -> Result<Reply, ServeError> {
        let cmd = req
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::new(ErrorCode::BadRequest, "missing `cmd` string"))?;
        if let Some(m) = self.registry.metrics() {
            // Client-chosen command strings are folded to `unknown` so
            // the label set stays bounded.
            const KNOWN: &[&str] = &[
                "hello",
                "create",
                "destroy",
                "list",
                "step",
                "run",
                "until",
                "read",
                "watch",
                "unwatch",
                "break",
                "unbreak",
                "stop",
                "subscribe",
                "explain",
                "info",
                "shutdown",
            ];
            m.on_request(if KNOWN.contains(&cmd) { cmd } else { "unknown" });
        }
        // v2-only verbs fall through to `unknown_cmd` on a connection
        // pinned to v1 — byte-identical to what a v1 server answered.
        let v2 = self.version == Version::V2;
        match cmd {
            "hello" => self.cmd_hello(req),
            "create" => self.cmd_create(req),
            "destroy" => self.cmd_destroy(req),
            "list" => self.cmd_list(),
            "step" => self.cmd_run(req, Some(1), emit),
            "run" => {
                let max = req.get("max_steps").and_then(Value::as_u64);
                self.cmd_run(req, Some(max.unwrap_or(DEFAULT_MAX_STEPS)), emit)
            }
            "until" => self.cmd_run(req, None, emit),
            "read" => self.cmd_read(req),
            "watch" => self.cmd_watch(req),
            "unwatch" => self.cmd_unwatch(req),
            "stop" if v2 => self.cmd_stop(req),
            "break" if v2 => self.cmd_break(req),
            "unbreak" if v2 => self.cmd_unbreak(req),
            "subscribe" => self.cmd_subscribe(req),
            "explain" => self.cmd_explain(req),
            "info" => self.cmd_info(req),
            "shutdown" => {
                self.registry.request_shutdown();
                Ok(Reply { fields: String::new(), control: Control::Shutdown })
            }
            other => Err(ServeError::new(ErrorCode::UnknownCmd, format!("unknown cmd `{other}`"))),
        }
    }

    fn session_name(req: &Value) -> Result<&str, ServeError> {
        req.get("session")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::new(ErrorCode::BadRequest, "missing `session` string"))
    }

    fn cmd_hello(&mut self, req: &Value) -> Result<Reply, ServeError> {
        if let Some(v) = req.get("version") {
            let s = v.as_str().ok_or_else(|| {
                ServeError::new(ErrorCode::BadRequest, "`version` must be a schema string")
            })?;
            self.version = Version::from_schema(s).ok_or_else(|| {
                ServeError::new(
                    ErrorCode::BadRequest,
                    format!(
                        "unsupported version `{s}` (supported: {}, {})",
                        proto::SCHEMA_V2,
                        proto::SCHEMA
                    ),
                )
            })?;
        }
        Ok(Reply::fields(format!("\"schema\":\"{}\"", self.version.schema())))
    }

    fn cmd_create(&mut self, req: &Value) -> Result<Reply, ServeError> {
        self.registry.sweep_idle();
        let name = Self::session_name(req)?;
        if self.registry.get(name).is_ok() {
            return Err(ServeError::new(
                ErrorCode::DuplicateSession,
                format!("session `{name}` already exists"),
            ));
        }
        let program = req
            .get("program")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::new(ErrorCode::BadRequest, "missing `program` string"))?;
        let mut opts = CreateOpts { program: program.to_owned(), ..CreateOpts::default() };
        let bad =
            |e: vpdift_soc::ExecConfigError| ServeError::new(ErrorCode::BadRequest, e.to_string());
        opts.exec.policy = req.get("policy").and_then(Value::as_str).map(str::to_owned);
        if let Some(mode) = req.get("mode").and_then(Value::as_str) {
            opts.exec.set_mode_str(mode).map_err(bad)?;
        }
        if let Some(engine) = req.get("engine").and_then(Value::as_str) {
            opts.exec.set_engine_str(engine).map_err(bad)?;
        }
        if let Some(enforce) = req.get("enforce").and_then(Value::as_str) {
            opts.exec.set_enforce_str(enforce).map_err(bad)?;
        }
        opts.exec.quantum = req.get("quantum").and_then(Value::as_u32);
        opts.exec.ram_size = req.get("ram_size").and_then(Value::as_u32).map(|n| n as usize);

        let mut sess = Session::create(&opts)?;
        let fields = format!(
            "\"session\":\"{}\",\"mode\":\"{}\",\"engine\":\"{}\"",
            json::escape(name),
            sess.mode(),
            sess.engine()
        );
        if let Some(m) = self.registry.metrics() {
            m.record_session(name, Self::session_stats(&mut sess));
        }
        self.registry.insert(name, sess)?;
        Ok(Reply::fields(fields))
    }

    fn cmd_destroy(&mut self, req: &Value) -> Result<Reply, ServeError> {
        let name = Self::session_name(req)?;
        self.registry.remove(name)?;
        Ok(Reply::fields(String::new()))
    }

    fn cmd_list(&mut self) -> Result<Reply, ServeError> {
        self.registry.sweep_idle();
        Ok(Reply::fields(format!(
            "\"sessions\":[{}]",
            self.registry
                .names()
                .iter()
                .map(|n| format!("\"{}\"", json::escape(n)))
                .collect::<Vec<_>>()
                .join(",")
        )))
    }

    /// Raises another session's stop flag — lock-free, so it lands while
    /// the session is mid-`run` on a different connection. The
    /// interrupted run returns `"exit":"stopped"` there and stays
    /// resumable.
    fn cmd_stop(&mut self, req: &Value) -> Result<Reply, ServeError> {
        let name = Self::session_name(req)?;
        let entry = self.registry.get(name)?;
        entry.stop().request();
        Ok(Reply::fields(String::new()))
    }

    fn cmd_break(&mut self, req: &Value) -> Result<Reply, ServeError> {
        let name = Self::session_name(req)?;
        let pc = req.get("pc").and_then(Value::as_u32);
        let instret = req.get("instret").and_then(Value::as_u64);
        let kind = match (pc, instret) {
            (Some(pc), None) => BreakKind::Pc(pc),
            (None, Some(n)) => BreakKind::Instret(n),
            _ => {
                return Err(ServeError::new(
                    ErrorCode::BadRequest,
                    "break needs exactly one of `pc` or `instret`",
                ))
            }
        };
        // Armed through the registry entry's cached handle: no session
        // lock, so breakpoints land on a session mid-run elsewhere.
        let entry = self.registry.get(name)?;
        let id = entry.breaks().add(kind);
        Ok(Reply::fields(format!("\"break\":{id}")))
    }

    fn cmd_unbreak(&mut self, req: &Value) -> Result<Reply, ServeError> {
        let name = Self::session_name(req)?;
        let id = req
            .get("break")
            .and_then(Value::as_u32)
            .ok_or_else(|| ServeError::new(ErrorCode::BadRequest, "missing `break` id"))?;
        let entry = self.registry.get(name)?;
        if !entry.breaks().remove(id) {
            return Err(ServeError::new(
                ErrorCode::BadRequest,
                format!("no breakpoint {id} in this session"),
            ));
        }
        Ok(Reply::fields(String::new()))
    }

    fn cmd_run(
        &mut self,
        req: &Value,
        max_steps: Option<u64>,
        emit: &mut EmitFn<'_>,
    ) -> Result<Reply, ServeError> {
        let name = Self::session_name(req)?.to_owned();
        let entry = self.registry.get(&name)?;
        let mut sess = entry.lock(&name)?;

        // Stream buffered items between run slices. A failing emit means
        // the client is gone: raise the stop flag so the current slice is
        // the last — the session itself stays registry-owned.
        let mut client_gone = false;
        let stop = sess.stop_flag();
        let mut on_items = |items: Vec<StreamItem>| {
            if client_gone {
                return;
            }
            for item in &items {
                if emit(&proto::stream_line(&name, item)).is_err() {
                    client_gone = true;
                    stop.request();
                    return;
                }
            }
        };
        let exit = match max_steps {
            Some(n) => sess.run(n, &mut on_items),
            None => sess.run_until(req.get("cap").and_then(Value::as_u64), &mut on_items),
        };

        // A breakpoint hit surfaces as one streamed `"ev":"break"` line
        // ahead of the (v1-shaped) `"exit":"stopped"` response.
        if exit == SocExit::Stopped {
            if let Some(hit) = sess.take_break_hit() {
                let item = StreamItem::Break {
                    id: hit.id,
                    reason: hit.kind.to_string(),
                    pc: hit.pc,
                    instret: hit.instret,
                };
                if !client_gone && emit(&proto::stream_line(&name, &item)).is_err() {
                    client_gone = true;
                }
            }
        }

        if let Some(m) = self.registry.metrics() {
            m.record_session_run(&name, Self::session_stats(&mut sess));
        }
        if client_gone {
            // v2 semantics (registry-owned lifetime): the session is
            // stopped, *not* freed. Clear any stop request that latched
            // after the run already ended, so the next client's run
            // doesn't return `stopped` after zero steps.
            stop.take();
            return Err(ServeError::new(
                ErrorCode::Io,
                format!("client disconnected mid-run; session `{name}` stopped and kept"),
            ));
        }
        let mut fields = format!(
            "\"exit\":\"{}\",\"instret\":{},\"t_ps\":{},\"digest\":\"{:#018x}\"",
            exit.label(),
            sess.instret(),
            sess.now_ps(),
            sess.digest()
        );
        if let SocExit::Violation(v) = &exit {
            fields.push_str(&format!(",\"violation\":\"{}\"", json::escape(&v.to_string())));
        }
        Ok(Reply::fields(fields))
    }

    fn cmd_read(&mut self, req: &Value) -> Result<Reply, ServeError> {
        let what = req
            .get("what")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::new(ErrorCode::BadRequest, "missing `what` string"))?
            .to_owned();
        let name = Self::session_name(req)?;
        let entry = self.registry.get(name)?;
        let mut sess = entry.lock(name)?;
        match what.as_str() {
            "regs" => {
                let (pc, regs) = sess.read_regs();
                let rendered: Vec<String> = regs
                    .iter()
                    .map(|r| {
                        format!(
                            "{{\"name\":\"{}\",\"value\":{},\"tag\":{}}}",
                            r.name,
                            r.value,
                            proto::tag_field(r.tag)
                        )
                    })
                    .collect();
                Ok(Reply::fields(format!("\"pc\":{pc},\"regs\":[{}]", rendered.join(","))))
            }
            "mem" | "tags" => {
                let addr = req
                    .get("addr")
                    .and_then(Value::as_u32)
                    .ok_or_else(|| ServeError::new(ErrorCode::BadRequest, "missing `addr`"))?;
                let len = req.get("len").and_then(Value::as_u64).unwrap_or(16).min(4096) as usize;
                let bytes = sess.read_mem(addr, len);
                let rendered: Vec<String> = bytes
                    .iter()
                    .map(|b| match b {
                        None => "null".to_owned(),
                        Some(ByteRead { value, tag }) => {
                            if what == "mem" {
                                value.to_string()
                            } else {
                                proto::tag_field(*tag)
                            }
                        }
                    })
                    .collect();
                Ok(Reply::fields(format!(
                    "\"addr\":{addr},\"{}\":[{}]",
                    if what == "mem" { "bytes" } else { "tags" },
                    rendered.join(",")
                )))
            }
            other => Err(ServeError::new(
                ErrorCode::BadRequest,
                format!("`what` must be regs|mem|tags, got `{other}`"),
            )),
        }
    }

    fn cmd_watch(&mut self, req: &Value) -> Result<Reply, ServeError> {
        let kind = req
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::new(ErrorCode::BadWatch, "missing `kind` string"))?
            .to_owned();
        let watch = match kind.as_str() {
            "sink" => {
                let site = req.get("site").and_then(Value::as_str).ok_or_else(|| {
                    ServeError::new(ErrorCode::BadWatch, "sink watch needs `site`")
                })?;
                WatchKind::Sink {
                    site: site.to_owned(),
                    atom: req.get("atom").and_then(Value::as_u32),
                }
            }
            "range" => {
                let start = req.get("addr").and_then(Value::as_u32).ok_or_else(|| {
                    ServeError::new(ErrorCode::BadWatch, "range watch needs `addr`")
                })?;
                let len = req.get("len").and_then(Value::as_u32).ok_or_else(|| {
                    ServeError::new(ErrorCode::BadWatch, "range watch needs `len`")
                })?;
                WatchKind::Range { start, len }
            }
            "violation" => WatchKind::Violation {
                site: req.get("site").and_then(Value::as_str).map(str::to_owned),
            },
            other => {
                return Err(ServeError::new(
                    ErrorCode::BadWatch,
                    format!("`kind` must be sink|range|violation, got `{other}`"),
                ))
            }
        };
        let name = Self::session_name(req)?;
        let entry = self.registry.get(name)?;
        let mut sess = entry.lock(name)?;
        let id = sess.add_watch(watch);
        Ok(Reply::fields(format!("\"watch\":{id}")))
    }

    fn cmd_unwatch(&mut self, req: &Value) -> Result<Reply, ServeError> {
        let id = req
            .get("watch")
            .and_then(Value::as_u32)
            .ok_or_else(|| ServeError::new(ErrorCode::BadRequest, "missing `watch` id"))?;
        let name = Self::session_name(req)?;
        let entry = self.registry.get(name)?;
        let mut sess = entry.lock(name)?;
        if !sess.remove_watch(id) {
            return Err(ServeError::new(
                ErrorCode::BadWatch,
                format!("no watch {id} in this session"),
            ));
        }
        Ok(Reply::fields(String::new()))
    }

    fn cmd_subscribe(&mut self, req: &Value) -> Result<Reply, ServeError> {
        let events = match req.get("events") {
            None | Some(Value::Null) => None,
            Some(v) => {
                let arr = v.as_arr().ok_or_else(|| {
                    ServeError::new(ErrorCode::BadRequest, "`events` must be an array of kinds")
                })?;
                let kinds: Result<Vec<String>, ServeError> = arr
                    .iter()
                    .map(|k| {
                        k.as_str().map(str::to_owned).ok_or_else(|| {
                            ServeError::new(ErrorCode::BadRequest, "event kinds must be strings")
                        })
                    })
                    .collect();
                Some(kinds?)
            }
        };
        let flow = req.get("flow").and_then(Value::as_bool).unwrap_or(false);
        let name = Self::session_name(req)?;
        let entry = self.registry.get(name)?;
        let mut sess = entry.lock(name)?;
        sess.subscribe(events, flow);
        Ok(Reply::fields(String::new()))
    }

    fn cmd_explain(&mut self, req: &Value) -> Result<Reply, ServeError> {
        let atom = req.get("atom").and_then(Value::as_str).map(str::to_owned);
        let name = Self::session_name(req)?;
        let entry = self.registry.get(name)?;
        let mut sess = entry.lock(name)?;
        let text = sess.explain(atom.as_deref())?;
        Ok(Reply::fields(match text {
            Some(t) => format!("\"explain\":\"{}\"", json::escape(&t)),
            None => "\"explain\":null".to_owned(),
        }))
    }

    fn cmd_info(&mut self, req: &Value) -> Result<Reply, ServeError> {
        let name = Self::session_name(req)?;
        let entry = self.registry.get(name)?;
        let mut sess = entry.lock(name)?;
        let watches: Vec<String> = sess.watches().iter().map(|w| w.id.to_string()).collect();
        let mut fields = format!(
            "\"mode\":\"{}\",\"engine\":\"{}\",\"instret\":{},\"t_ps\":{},\"digest\":\"{:#018x}\",\"violations\":{},\"watches\":[{}]",
            sess.mode(),
            sess.engine(),
            sess.instret(),
            sess.now_ps(),
            sess.digest(),
            sess.violations(),
            watches.join(",")
        );
        // Additive-only: rendered only when breakpoints exist, so v1
        // clients (and the golden transcript) see the exact v1 shape.
        let breaks = sess.breaks();
        if !breaks.is_empty() {
            let rendered: Vec<String> = breaks
                .iter()
                .map(|b| match b.kind {
                    BreakKind::Pc(pc) => {
                        format!("{{\"break\":{},\"kind\":\"pc\",\"pc\":{pc}}}", b.id)
                    }
                    BreakKind::Instret(n) => {
                        format!("{{\"break\":{},\"kind\":\"instret\",\"instret\":{n}}}", b.id)
                    }
                })
                .collect();
            fields.push_str(&format!(",\"breaks\":[{}]", rendered.join(",")));
        }
        Ok(Reply::fields(fields))
    }

    /// Serves one client over an accepted TCP stream: greeting, then
    /// request lines until disconnect or `shutdown` (this connection's or
    /// any sibling's).
    fn serve_stream(&mut self, stream: TcpStream) -> io::Result<()> {
        let reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        let names = self.registry.names();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        writeln!(writer, "{}", proto::greeting(&refs))?;
        for line in reader.lines() {
            let Ok(line) = line else { break };
            let mut emit = |s: &str| {
                writeln!(writer, "{s}")?;
                writer.flush()
            };
            match self.handle_line(&line, &mut emit) {
                Ok(Control::Continue) => {
                    if self.registry.shutdown_requested() {
                        break;
                    }
                }
                Ok(Control::Shutdown) => break,
                Err(_) => break,
            }
        }
        Ok(())
    }
}

/// The assembled server: a shared [`Registry`] plus transports. Also
/// carries one in-process [`Connection`] so the transport-free
/// [`handle_line`](Server::handle_line) entry point (tests, stdio) keeps
/// its v1 signature.
pub struct Server {
    registry: Arc<Registry>,
    conn: Connection,
}

impl Default for Server {
    fn default() -> Server {
        Server::new()
    }
}

impl Server {
    /// An empty registry with no clients.
    pub fn new() -> Server {
        let registry = Arc::new(Registry::new());
        Server { conn: Connection::new(Arc::clone(&registry)), registry }
    }

    /// Publishes request and per-session counters into `metrics` (shared
    /// with a scrape endpoint; see [`crate::ServeMetrics`]).
    pub fn with_metrics(self, metrics: Arc<crate::ServeMetrics>) -> Server {
        self.registry.set_metrics(metrics);
        self
    }

    /// Enables the idle-session sweep: sessions untouched for `timeout`
    /// are destroyed at the next accept/`create`/`list`. `None` disables.
    pub fn with_idle_timeout(self, timeout: Option<Duration>) -> Server {
        self.registry.set_idle_timeout(timeout);
        self
    }

    /// The shared session registry (for embedding or inspection).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Session names, for the greeting and `list`.
    pub fn session_names(&self) -> Vec<String> {
        self.registry.names()
    }

    /// Transport-free entry point: drives the server's in-process
    /// connection. See [`Connection::handle_line`].
    ///
    /// # Errors
    /// Only transport failures; protocol problems become error *lines*.
    pub fn handle_line(&mut self, line: &str, emit: &mut EmitFn<'_>) -> io::Result<Control> {
        self.conn.handle_line(line, emit)
    }

    /// Serves one client over a reader/writer pair (stdio transport):
    /// greeting first, then request lines until EOF or `shutdown`.
    ///
    /// # Errors
    /// Transport failures other than the client closing its end.
    pub fn serve<R: BufRead, W: Write>(&mut self, reader: R, mut writer: W) -> io::Result<()> {
        let names = self.registry.names();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        writeln!(writer, "{}", proto::greeting(&refs))?;
        writer.flush()?;
        for line in reader.lines() {
            let line = line?;
            let mut emit = |s: &str| {
                writeln!(writer, "{s}")?;
                writer.flush()
            };
            match self.conn.handle_line(&line, &mut emit) {
                Ok(Control::Continue) => {}
                Ok(Control::Shutdown) => break,
                Err(_) => break,
            }
        }
        Ok(())
    }

    /// Binds `addr` and serves TCP clients concurrently — one thread per
    /// accepted connection over the shared registry. Sessions persist
    /// across connections; any connection's `shutdown` stops the
    /// listener and drains the remaining connections.
    ///
    /// # Errors
    /// Bind failures; per-connection errors only end that connection.
    pub fn serve_tcp(&self, addr: &str) -> io::Result<()> {
        let listener = TcpListener::bind(addr)?;
        eprintln!("taintvp-serve listening on {}", listener.local_addr()?);
        self.serve_listener(listener)
    }

    /// Serves an already-bound listener (lets tests bind port 0 and
    /// learn the address first). One thread per connection; returns once
    /// `shutdown` has been requested and every connection has drained.
    ///
    /// # Errors
    /// Listener address lookup failures; per-connection errors only end
    /// that connection.
    pub fn serve_listener(&self, listener: TcpListener) -> io::Result<()> {
        let local = listener.local_addr()?;
        let mut handles = Vec::new();
        for stream in listener.incoming() {
            if self.registry.shutdown_requested() {
                break;
            }
            let Ok(stream) = stream else { continue };
            self.registry.sweep_idle();
            let registry = Arc::clone(&self.registry);
            handles.push(thread::spawn(move || {
                let mut conn = Connection::new(Arc::clone(&registry));
                let _ = conn.serve_stream(stream);
                if registry.shutdown_requested() {
                    // Wake the accept loop (blocked in `incoming()`) so
                    // it observes the flag and stops.
                    let _ = TcpStream::connect(local);
                }
            }));
        }
        for h in handles {
            let _ = h.join();
        }
        Ok(())
    }
}

/// A successful reply: pre-rendered response fields plus loop control.
struct Reply {
    fields: String,
    control: Control,
}

impl Reply {
    fn fields(fields: String) -> Reply {
        Reply { fields, control: Control::Continue }
    }
}

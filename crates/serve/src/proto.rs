//! The `taintvp-serve/v2` wire protocol: one JSON document per line.
//!
//! Requests are objects with a `"cmd"` string and an optional numeric
//! `"id"` the server echoes back. Responses are `{"id":N,"ok":true,...}`
//! or `{"id":N,"ok":false,"error":{"code":"...","message":"..."}}`.
//! Streamed lines (events, flow deltas, watch hits, breakpoint hits)
//! carry an `"ev"` key instead of `"ok"` so clients can split them from
//! responses with one key test.
//!
//! v2 is a strict superset of v1: every v1 command keeps its exact
//! response shape (new response fields are additive and rendered only
//! when non-empty), and the v2-only verbs (`hello`, `stop`, `break`,
//! `unbreak`) are rejected as `unknown_cmd` on a connection pinned to v1
//! via `hello` — see [`Version`].

use vpdift_obs::export::{event_fields, tag_json};
use vpdift_obs::json::escape;
use vpdift_obs::{FlowDelta, HopKind, StreamItem};

/// The v1 schema tag, still accepted by `hello` version negotiation.
pub const SCHEMA: &str = "taintvp-serve/v1";

/// The current schema tag, sent in the greeting line and documented in
/// docs/SERVE.md.
pub const SCHEMA_V2: &str = "taintvp-serve/v2";

/// A negotiated protocol version. Every connection starts at
/// [`Version::V2`]; a `hello` naming the v1 schema pins the connection
/// back to v1 (v2-only verbs then report `unknown_cmd`, exactly as a v1
/// server would have).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Version {
    /// `taintvp-serve/v1`: the PR 5 protocol, golden-transcript pinned.
    V1,
    /// `taintvp-serve/v2`: concurrent clients, `stop`, breakpoints.
    #[default]
    V2,
}

impl Version {
    /// The schema tag this version answers to.
    pub fn schema(self) -> &'static str {
        match self {
            Version::V1 => SCHEMA,
            Version::V2 => SCHEMA_V2,
        }
    }

    /// Parses a `hello` version string.
    pub fn from_schema(s: &str) -> Option<Version> {
        match s {
            _ if s == SCHEMA => Some(Version::V1),
            _ if s == SCHEMA_V2 => Some(Version::V2),
            _ => None,
        }
    }
}

/// Typed protocol error categories; the wire code is [`ErrorCode::code`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON.
    BadJson,
    /// The JSON was valid but the request shape was not (missing or
    /// ill-typed fields).
    BadRequest,
    /// Unknown `"cmd"` verb.
    UnknownCmd,
    /// The named session does not exist.
    UnknownSession,
    /// `create` with a session name that is already in use.
    DuplicateSession,
    /// The submitted program failed to assemble.
    BadProgram,
    /// The submitted policy failed to parse.
    BadPolicy,
    /// A malformed watchpoint specification.
    BadWatch,
    /// The client connection failed mid-operation.
    Io,
    /// The session is locked by a run in progress on another connection
    /// (v2): interrupt it with `stop` instead of waiting.
    Busy,
}

impl ErrorCode {
    /// The wire representation.
    pub fn code(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad_json",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownCmd => "unknown_cmd",
            ErrorCode::UnknownSession => "unknown_session",
            ErrorCode::DuplicateSession => "duplicate_session",
            ErrorCode::BadProgram => "bad_program",
            ErrorCode::BadPolicy => "bad_policy",
            ErrorCode::BadWatch => "bad_watch",
            ErrorCode::Io => "io",
            ErrorCode::Busy => "busy",
        }
    }
}

/// A protocol-level failure: every fallible server path funnels into this
/// so clients always get a typed error line, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeError {
    /// The category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ServeError {
    /// Builds an error with a formatted message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ServeError { code, message: message.into() }
    }
}

/// Renders the `"id":N,` prefix (nothing when the request carried no id).
fn id_prefix(id: Option<u64>) -> String {
    match id {
        Some(id) => format!("\"id\":{id},"),
        None => String::new(),
    }
}

/// A success response line. `fields` is the pre-rendered body (may be
/// empty) *without* surrounding braces or a leading comma.
pub fn ok_line(id: Option<u64>, fields: &str) -> String {
    if fields.is_empty() {
        format!("{{{}\"ok\":true}}", id_prefix(id))
    } else {
        format!("{{{}\"ok\":true,{fields}}}", id_prefix(id))
    }
}

/// An error response line.
pub fn err_line(id: Option<u64>, err: &ServeError) -> String {
    format!(
        "{{{}\"ok\":false,\"error\":{{\"code\":\"{}\",\"message\":\"{}\"}}}}",
        id_prefix(id),
        err.code.code(),
        escape(&err.message)
    )
}

/// The greeting line written once per connection before any response:
/// current schema, the older schemas `hello` can pin, and the sessions
/// already live in the registry.
pub fn greeting(sessions: &[&str]) -> String {
    let names: Vec<String> = sessions.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!(
        "{{\"schema\":\"{SCHEMA_V2}\",\"compat\":[\"{SCHEMA}\"],\"sessions\":[{}]}}",
        names.join(",")
    )
}

/// Renders one streamed item as an `"ev"` line tagged with the session it
/// came from.
pub fn stream_line(session: &str, item: &StreamItem) -> String {
    let sess = escape(session);
    match item {
        StreamItem::Event(te) => format!(
            "{{\"ev\":\"obs\",\"session\":\"{sess}\",\"t_ps\":{},\"kind\":\"{}\",{}}}",
            te.time.as_ps(),
            te.event.label(),
            event_fields(&te.event)
        ),
        StreamItem::Flow(delta) => {
            format!("{{\"ev\":\"flow\",\"session\":\"{sess}\",{}}}", flow_fields(delta))
        }
        StreamItem::Watch { id, reason, time } => format!(
            "{{\"ev\":\"watch\",\"session\":\"{sess}\",\"watch\":{id},\"reason\":\"{}\",\"t_ps\":{}}}",
            escape(reason),
            time.as_ps()
        ),
        StreamItem::Break { id, reason, pc, instret } => format!(
            "{{\"ev\":\"break\",\"session\":\"{sess}\",\"break\":{id},\"reason\":\"{}\",\"pc\":{pc},\"instret\":{instret}}}",
            escape(reason)
        ),
    }
}

fn opt_u32(v: Option<u32>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".into(),
    }
}

fn flow_fields(delta: &FlowDelta) -> String {
    match delta {
        FlowDelta::Origin { atom, source, addr } => format!(
            "\"delta\":\"origin\",\"atom\":{atom},\"source\":\"{}\",\"addr\":{}",
            escape(source),
            opt_u32(*addr)
        ),
        FlowDelta::Hop { atom, hop } => {
            let kind = match &hop.kind {
                HopKind::Reg(r) => format!("\"reg\",\"reg\":{r}"),
                HopKind::Tlm { bus, target } => {
                    format!("\"tlm\",\"bus\":\"{}\",\"target\":\"{}\"", escape(bus), escape(target))
                }
                other => format!("\"{}\"", other.label()),
            };
            format!(
                "\"delta\":\"hop\",\"atom\":{atom},\"kind\":{kind},\"pc\":{},\"addr\":{},\"t_ps\":{}",
                opt_u32(hop.pc),
                opt_u32(hop.addr),
                hop.time.as_ps()
            )
        }
        FlowDelta::Sink { atom, site, pc } => format!(
            "\"delta\":\"sink\",\"atom\":{atom},\"site\":\"{}\",\"pc\":{}",
            escape(site),
            opt_u32(*pc)
        ),
    }
}

/// Renders a tag as its JSON atom list — re-exported spelling for the
/// session layer.
pub fn tag_field(tag: vpdift_core::Tag) -> String {
    tag_json(tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdift_kernel::SimTime;
    use vpdift_obs::json::parse;
    use vpdift_obs::{Hop, ObsEvent, TimedEvent};

    #[test]
    fn response_lines_are_valid_json() {
        let ok = ok_line(Some(7), "\"exit\":\"break\",\"instret\":42");
        parse(&ok).expect("ok line parses");
        assert!(ok.starts_with("{\"id\":7,\"ok\":true,"));
        let bare = ok_line(None, "");
        assert_eq!(bare, "{\"ok\":true}");
        let err = err_line(Some(1), &ServeError::new(ErrorCode::BadWatch, "no \"site\""));
        parse(&err).expect("error line parses");
        assert!(err.contains("\"code\":\"bad_watch\""), "{err}");
        parse(&greeting(&["a", "b"])).expect("greeting parses");
    }

    #[test]
    fn version_negotiation_and_greeting_compat() {
        assert_eq!(Version::default(), Version::V2, "connections start at v2");
        assert_eq!(Version::from_schema(SCHEMA), Some(Version::V1));
        assert_eq!(Version::from_schema(SCHEMA_V2), Some(Version::V2));
        assert_eq!(Version::from_schema("taintvp-serve/v3"), None);
        assert_eq!(Version::V1.schema(), SCHEMA);
        let g = greeting(&["a"]);
        assert!(g.contains("\"schema\":\"taintvp-serve/v2\""), "{g}");
        assert!(g.contains("\"compat\":[\"taintvp-serve/v1\"]"), "{g}");
    }

    #[test]
    fn stream_lines_are_valid_json() {
        let ev = StreamItem::Event(TimedEvent {
            time: SimTime::from_ns(3),
            event: ObsEvent::Trap { cause: 2, pc: 0x40, irq: false },
        });
        let flow = StreamItem::Flow(FlowDelta::Hop {
            atom: 1,
            hop: Hop {
                kind: HopKind::Tlm { bus: "bus0".into(), target: "uart".into() },
                pc: None,
                addr: Some(0x1000_0000),
                time: SimTime::from_ns(5),
                repeats: 1,
            },
        });
        let watch = StreamItem::Watch {
            id: 2,
            reason: "sink uart.tx tagged".into(),
            time: SimTime::from_ns(9),
        };
        let brk =
            StreamItem::Break { id: 1, reason: "pc=0x00000040".into(), pc: 0x40, instret: 17 };
        for item in [&ev, &flow, &watch, &brk] {
            let line = stream_line("s1", item);
            parse(&line).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"));
            assert!(line.contains("\"ev\":\""), "{line}");
        }
    }
}

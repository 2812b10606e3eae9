//! # vpdift-serve — the live VP introspection server
//!
//! A long-running process holding many named VP sessions in a shared
//! [`Registry`] and speaking the line-oriented `taintvp-serve/v2` JSON
//! protocol over stdio or TCP (see `docs/SERVE.md` for the message
//! reference; v1 clients negotiate down via `hello`). Each session is a
//! full [`Soc`](vpdift_soc::Soc) — plain or tainted, interpreter or block
//! cache, configured through one [`ExecConfig`](vpdift_soc::ExecConfig) —
//! with a [`StreamSink`](vpdift_obs::StreamSink) attached, so a client
//! can:
//!
//! * `create` a VP from assembly + policy source and keep it warm,
//! * `step`/`run`/`until` it in resumable slices,
//! * `read` registers, memory bytes, and per-byte tag sets,
//! * set taint `watch`points (tainted data at a named sink, tag-set
//!   changes over an address range, policy violations) and
//!   `break`points (PC or retired-instruction count) that pause the
//!   guest mid-run via the cooperative stop flag,
//! * `stop` a run in flight — including one started by *another*
//!   connection, since sessions belong to the registry, not to the
//!   connection that created them,
//! * `subscribe` to filtered [`ObsEvent`](vpdift_obs::ObsEvent)s and
//!   flow-graph deltas streamed *while the guest runs*, and
//! * ask for a live `explain` — the shortest recorded source→sink path —
//!   without waiting for a violation.
//!
//! The transport-free core is [`Connection::handle_line`] (wrapped by
//! [`Server::handle_line`]); `taintvp-run serve` wraps it around stdio or
//! a threaded TCP listener with one connection per client.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod metrics;
pub mod proto;
mod registry;
mod server;
mod session;

pub use metrics::{ServeMetrics, SessionStats};
pub use proto::{ErrorCode, ServeError, Version, SCHEMA, SCHEMA_V2};
pub use registry::{Registry, SessionEntry};
pub use server::{Connection, Control, Server};
pub use session::{ByteRead, CreateOpts, RegRead, Session, DEFAULT_MAX_STEPS, UNTIL_CAP};

/// The protocol's JSON reader, re-exported from [`vpdift_obs::json`].
pub use vpdift_obs::json;

//! The stable facade: one `use taintvp::prelude::*;` brings in everything
//! a typical embedding needs — SoC construction, taint primitives, policy
//! authoring, observability sinks and the fault-campaign entry points —
//! without memorising which workspace crate owns what.
//!
//! Items here are the supported API surface; reach into the per-subsystem
//! modules (`taintvp::rv32`, `taintvp::obs`, …) only for internals that
//! may move between releases.
//!
//! ```
//! use taintvp::prelude::*;
//!
//! let cfg = Soc::<Tainted>::builder()
//!     .policy(SecurityPolicy::permissive())
//!     .engine(ExecMode::BlockCache)
//!     .build();
//! let soc = Soc::<Tainted>::new(cfg);
//! assert_eq!(soc.instret(), 0);
//! ```

// SoC construction and execution. `ExecConfig` is the one parse/validate
// path for mode/engine/enforce/quantum/ram_size/policy shared by the CLI,
// the serve layer, and the fleet.
pub use vpdift_soc::{
    map, ExecConfig, ExecConfigError, ExecMode, PlainSoc, Soc, SocBuilder, SocConfig, SocExit,
    TaintedSoc,
};

// Execution modes of the CPU type parameter.
pub use vpdift_rv32::{Plain, TaintMode, Tainted};

// Taint primitives and policy authoring.
pub use vpdift_core::{
    parse_policy, EnforceMode, SecurityPolicy, SecurityPolicyBuilder, Tag, Taint, Violation,
    ViolationKind,
};

// Observability sinks, live streaming, and run-control handles.
pub use vpdift_obs::{
    BreakKind, BreakSet, Metrics, NullSink, ObsEvent, ObsSink, Recorder, StopFlag, StreamItem,
    StreamSink, WatchKind,
};

// The live introspection server: client-facing protocol types (error
// codes, request/response shapes, version negotiation) plus the session
// registry that makes concurrent connections possible.
pub use vpdift_serve::{
    ByteRead, Connection, Control, CreateOpts, ErrorCode, RegRead, Registry, ServeError, Server,
    Session, Version, SCHEMA, SCHEMA_V2,
};

// Fault-injection campaigns.
pub use vpdift_faults::{
    classify, generate_plan, run_campaign, run_with_faults, CampaignConfig, CampaignReport,
    FaultKind, Outcome, PlannedFault,
};

// Guest program authoring.
pub use vpdift_asm::{Asm, Program, Reg};

/// Shared-handle primitives (the workspace replacement for `Rc<RefCell<T>>`).
pub use vpdift_sync::{shared, MutCell, Shared};

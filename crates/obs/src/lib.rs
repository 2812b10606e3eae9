//! # vpdift-obs — cross-layer observability for the DIFT VP
//!
//! A zero-cost-when-disabled event layer threaded through every VP
//! component: the ISS emits instruction/tag/check events, the TLM routers
//! emit transaction events, peripherals emit classification and
//! declassification events, and the DIFT engine reports its check sites
//! through the [`FlowObserver`] hook re-exported from `vpdift-core`.
//!
//! The design mirrors the ISS's `TaintMode` pattern: components are
//! generic over an [`ObsSink`] whose `ENABLED` constant guards every
//! emission site, so with the default [`NullSink`] the instrumented hot
//! paths compile to exactly the un-instrumented code (Table II overheads
//! are unaffected when observability is off).
//!
//! The standard sink is the [`Recorder`]: aggregated [`Metrics`], a
//! fixed-capacity flight-recorder ring ([`EventRing`]), taint provenance
//! ([`ProvenanceMap`]), and an optional full event log feeding the
//! [`export`] writers (JSON Lines and Chrome trace format). After a
//! violation, [`Recorder::flight_report`] renders the last events with
//! lazy disassembly, the failed check, and the classification site each
//! offending atom originally came from.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod disasm;
mod event;
pub mod expo;
pub mod export;
pub mod flowgraph;
pub mod hist;
pub mod json;
mod metrics;
pub mod prof;
mod provenance;
mod recorder;
mod ring;
pub mod scrape;
mod sink;
pub mod stream;

use vpdift_core::{FlowObserver, Tag, Violation, ViolationKind};

pub use disasm::RawInsn;
pub use event::{CheckKind, ObsEvent};
pub use expo::Expo;
pub use hist::{AtomicHist, BucketKind, Hist, HistError, HistSpec};
pub use metrics::{CheckCounter, EngineCacheStats, Metrics};
pub use prof::{Profiler, SymbolMap, TlmStat};
pub use provenance::{FlowDelta, FlowPath, Hop, HopKind, Origin, ProvenanceMap, SinkRec, HOP_CAP};
pub use recorder::Recorder;
pub use ring::{EventRing, TimedEvent};
pub use scrape::{MetricsServer, ScrapeError};
pub use sink::{DynObs, NullSink, ObsSink, ATOM_SLOTS};
pub use stream::{
    BreakHit, BreakKind, BreakSet, Breakpoint, StopFlag, StreamItem, StreamSink, Watch, WatchKind,
};

/// Adapts a lent sink to the engine's [`FlowObserver`] hook, for one
/// check or record call: engine check sites become [`ObsEvent::Check`]s,
/// recorded violations [`ObsEvent::Violation`]s and tag-set changes at
/// named sites [`ObsEvent::TagSetChange`]s.
pub struct EngineObserverAdapter<'a>(pub &'a mut (dyn DynObs + 'static));

impl FlowObserver for EngineObserverAdapter<'_> {
    fn on_check(
        &mut self,
        kind: &ViolationKind,
        tag: Tag,
        required: Tag,
        pc: Option<u32>,
        passed: bool,
    ) {
        let (kind, site) = CheckKind::of_violation(kind);
        self.0.dyn_event(&ObsEvent::Check {
            kind,
            tag,
            required,
            pc,
            passed,
            site: site.map(str::to_owned),
        });
    }

    fn on_violation(&mut self, violation: &Violation) {
        self.0.dyn_event(&ObsEvent::Violation(violation.clone()));
    }

    fn on_tag_change(&mut self, site: &str, before: Tag, after: Tag) {
        self.0.dyn_event(&ObsEvent::TagSetChange { site: site.to_owned(), before, after });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdift_core::{DiftEngine, SecurityPolicy};

    #[test]
    fn engine_checks_flow_into_the_sink() {
        let policy = SecurityPolicy::builder("t").sink("uart.tx", Tag::EMPTY).build();
        let mut engine = DiftEngine::new(policy);
        let mut r = Recorder::new(8);
        let mut obs = EngineObserverAdapter(&mut r);

        assert!(engine.check_output("uart.tx", Tag::EMPTY, None, Some(&mut obs)).is_ok());
        assert!(engine.check_output("uart.tx", Tag::atom(0), Some(0x40), Some(&mut obs)).is_err());

        let m = r.metrics();
        assert_eq!(m.checks[CheckKind::Output.index()].performed, 2);
        assert_eq!(m.checks[CheckKind::Output.index()].failed, 1);
        assert_eq!(m.violations, 1);
        assert_eq!(r.violations().len(), 1);
    }
}

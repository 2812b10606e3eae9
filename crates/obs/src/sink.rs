//! The sink abstraction: where observability events go.
//!
//! Mirrors the ISS's `TaintMode` pattern: layers are generic over an
//! [`ObsSink`] whose `ENABLED` constant lets every emission site be written
//! as `if S::ENABLED { … }`. With the default [`NullSink`] that block is
//! dead code and the hot paths compile exactly as before the observability
//! layer existed.

use vpdift_core::Tag;
use vpdift_kernel::SimTime;

use crate::event::ObsEvent;

/// Number of per-atom slots in spread samples (one per [`Tag`] atom).
pub const ATOM_SLOTS: usize = Tag::CAPACITY as usize;

/// A consumer of observability events.
///
/// Implementations should be cheap: emission sites sit on simulation hot
/// paths and call [`ObsSink::event`] synchronously. A VP owns its one
/// sink and lends it to each emission site; sinks are `Send` so the VP
/// can migrate between fleet worker threads.
pub trait ObsSink: Send + Sync + 'static {
    /// `false` compiles all emission sites out (see [`NullSink`]).
    const ENABLED: bool = true;

    /// Consumes one event.
    fn event(&mut self, event: &ObsEvent);

    /// Updates the sink's notion of simulated time. Called by the platform
    /// at quantum boundaries and once before each sensor refill (with the
    /// refill's due time); events between two calls are stamped with the
    /// earlier time (quantum-granular timestamps).
    fn set_now(&mut self, _now: SimTime) {}

    /// Receives a sampled per-atom count of classified RAM bytes (the
    /// platform samples periodically; sinks typically keep the maximum).
    fn taint_spread(&mut self, _counts: &[u32; ATOM_SLOTS]) {}
}

/// The default sink: drops everything, `ENABLED = false`, so emission
/// sites vanish at compile time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl ObsSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _event: &ObsEvent) {}
}

/// Object-safe mirror of [`ObsSink`] for components that cannot be generic
/// over the sink type (peripherals behind `dyn TlmTarget`, the TLM
/// routers, the engine observer): they are lent the VP's sink as
/// `&mut dyn DynObs` for one transaction or check. Blanket-implemented
/// for every sink.
pub trait DynObs: Send + Sync {
    /// See [`ObsSink::event`].
    fn dyn_event(&mut self, event: &ObsEvent);
}

impl<S: ObsSink> DynObs for S {
    fn dyn_event(&mut self, event: &ObsEvent) {
        self.event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counting(usize);

    impl ObsSink for Counting {
        fn event(&mut self, _event: &ObsEvent) {
            self.0 += 1;
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        const { assert!(!NullSink::ENABLED) };
        // Still callable (emission sites may skip the guard in cold code).
        NullSink.event(&ObsEvent::Trap { pc: 0, cause: 3, irq: false });
    }

    #[test]
    fn dynamic_view_reaches_concrete_sink() {
        let mut sink = Counting::default();
        let dynamic: &mut dyn DynObs = &mut sink;
        dynamic.dyn_event(&ObsEvent::Trap { pc: 0, cause: 3, irq: false });
        assert_eq!(sink.0, 1);
    }
}

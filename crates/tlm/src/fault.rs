//! TLM-level fault injection: an interposing router for fault campaigns.
//!
//! [`FaultRouter`] wraps a [`Router`] and consults an optional
//! [`TlmFaultHook`] around every routed transaction, so a fault-injection
//! campaign (`vpdift-faults`) can corrupt payload lanes, drop transactions
//! or force error responses without the interconnect or any target knowing.
//! With no hook installed the wrapper costs a single `Option` check per
//! transaction.

use vpdift_kernel::SimTime;
use vpdift_sync::Shared;

use crate::payload::{GenericPayload, TlmResponse};
use crate::router::{Loan, Router};

/// What a [`TlmFaultHook`] decides to do with a transaction before it is
/// routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultAction {
    /// Route the transaction normally (possibly after the hook mutated the
    /// payload — e.g. corrupted write data).
    #[default]
    Pass,
    /// Drop the transaction: it never reaches a target and completes with
    /// [`TlmResponse::GenericError`].
    Drop,
    /// Complete immediately with the given response, without routing.
    Respond(TlmResponse),
}

/// A fault model consulted around every transaction through a
/// [`FaultRouter`].
pub trait TlmFaultHook: Send + Sync {
    /// Called before routing. May mutate the payload (corrupting write
    /// data or the address) and decides whether the transaction proceeds.
    fn before(&mut self, payload: &mut GenericPayload) -> FaultAction;

    /// Called after a routed transaction returns, with the target's
    /// response and read data in place — the spot to corrupt read lanes.
    fn after(&mut self, _payload: &mut GenericPayload) {}
}

/// A fault hook as shared between the campaign driver and the bus.
pub type SharedFaultHook = Shared<dyn TlmFaultHook>;

/// A [`Router`] wrapper that injects faults via an optional
/// [`TlmFaultHook`]. Map the router's targets before wrapping it.
pub struct FaultRouter {
    inner: Router,
    hook: Option<SharedFaultHook>,
}

impl FaultRouter {
    /// Wraps `inner` with no fault hook installed (transparent).
    pub fn new(inner: Router) -> Self {
        FaultRouter { inner, hook: None }
    }

    /// Installs the fault hook consulted around every transaction.
    pub fn set_hook(&mut self, hook: SharedFaultHook) {
        self.hook = Some(hook);
    }

    /// Removes the fault hook; the wrapper becomes transparent again.
    pub fn clear_hook(&mut self) {
        self.hook = None;
    }

    /// Routes one transaction through the hook (if any) and the wrapped
    /// router. See [`Router::route`] for the routing semantics and `loan`.
    pub fn route(
        &mut self,
        payload: &mut GenericPayload,
        delay: &mut SimTime,
        loan: &mut Loan<'_>,
    ) {
        let Some(hook) = &self.hook else {
            self.inner.route(payload, delay, loan);
            return;
        };
        match hook.borrow_mut().before(payload) {
            FaultAction::Pass => {}
            FaultAction::Drop => {
                payload.set_response(TlmResponse::GenericError);
                return;
            }
            FaultAction::Respond(r) => {
                payload.set_response(r);
                return;
            }
        }
        self.inner.route(payload, delay, loan);
        hook.borrow_mut().after(payload);
    }
}

impl core::fmt::Debug for FaultRouter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FaultRouter")
            .field("inner", &self.inner)
            .field("hook", &self.hook.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdift_core::{AddrRange, DiftEngine, SecurityPolicy, Taint};

    fn wrapped_ram() -> (FaultRouter, Shared<[Taint<u8>; 16]>) {
        let mut router = Router::new("bus");
        let ram = vpdift_sync::shared([Taint::untainted(0u8); 16]);
        let r = ram.clone();
        router
            .map(
                "ram",
                AddrRange::new(0x100, 16),
                vpdift_sync::shared(move |p: &mut GenericPayload, _d: &mut SimTime| {
                    let base = p.address() as usize;
                    match p.command() {
                        crate::TlmCommand::Read => {
                            for (i, b) in p.data_mut().iter_mut().enumerate() {
                                *b = r.borrow()[base + i];
                            }
                        }
                        crate::TlmCommand::Write => {
                            for (i, b) in p.data().iter().enumerate() {
                                r.borrow_mut()[base + i] = *b;
                            }
                        }
                        crate::TlmCommand::Ignore => {}
                    }
                    p.set_response(TlmResponse::Ok);
                }),
            )
            .unwrap();
        (FaultRouter::new(router), ram)
    }

    /// Routes `p` through `fr`, lending no memory and a permissive engine.
    fn route(fr: &mut FaultRouter, p: &mut GenericPayload) {
        let mut no_memory = |p: &mut GenericPayload, _: &mut SimTime| {
            p.set_response(TlmResponse::AddressError);
        };
        let mut engine = DiftEngine::new(SecurityPolicy::permissive());
        fr.route(
            p,
            &mut SimTime::ZERO.clone(),
            &mut Loan { mem: &mut no_memory, engine: &mut engine },
        );
    }

    struct OneShot(FaultAction);

    impl TlmFaultHook for OneShot {
        fn before(&mut self, _p: &mut GenericPayload) -> FaultAction {
            std::mem::take(&mut self.0)
        }
    }

    #[test]
    fn transparent_without_hook() {
        let (mut fr, ram) = wrapped_ram();
        let mut w = GenericPayload::write(0x104, &[Taint::untainted(7)]);
        route(&mut fr, &mut w);
        assert!(w.is_ok());
        assert_eq!(ram.borrow()[4].value(), 7);
    }

    #[test]
    fn drop_never_reaches_the_target() {
        let (mut fr, ram) = wrapped_ram();
        fr.set_hook(vpdift_sync::shared(OneShot(FaultAction::Drop)));
        let mut w = GenericPayload::write(0x104, &[Taint::untainted(7)]);
        route(&mut fr, &mut w);
        assert_eq!(w.response(), TlmResponse::GenericError);
        assert_eq!(ram.borrow()[4].value(), 0, "write was dropped");
        // The hook is one-shot: the retry goes through.
        let mut w = GenericPayload::write(0x104, &[Taint::untainted(7)]);
        route(&mut fr, &mut w);
        assert!(w.is_ok());
        assert_eq!(ram.borrow()[4].value(), 7);
    }

    #[test]
    fn forced_response_short_circuits() {
        let (mut fr, _ram) = wrapped_ram();
        fr.set_hook(vpdift_sync::shared(OneShot(FaultAction::Respond(TlmResponse::AddressError))));
        let mut r = GenericPayload::read(0x104, 4);
        route(&mut fr, &mut r);
        assert_eq!(r.response(), TlmResponse::AddressError);
    }

    #[test]
    fn after_hook_corrupts_read_data() {
        struct FlipRead;
        impl TlmFaultHook for FlipRead {
            fn before(&mut self, _p: &mut GenericPayload) -> FaultAction {
                FaultAction::Pass
            }
            fn after(&mut self, p: &mut GenericPayload) {
                if p.command() == crate::TlmCommand::Read {
                    let b = p.data()[0];
                    p.data_mut()[0] = b.map(|v| v ^ 0x80);
                }
            }
        }
        let (mut fr, ram) = wrapped_ram();
        ram.borrow_mut()[0] = Taint::untainted(0x11);
        fr.set_hook(vpdift_sync::shared(FlipRead));
        let mut r = GenericPayload::read(0x100, 1);
        route(&mut fr, &mut r);
        assert_eq!(r.data()[0].value(), 0x91, "read lane corrupted post-route");
        assert_eq!(ram.borrow()[0].value(), 0x11, "memory itself untouched");
    }

    #[test]
    fn clear_hook_restores_transparency() {
        let (mut fr, _ram) = wrapped_ram();
        fr.set_hook(vpdift_sync::shared(OneShot(FaultAction::Drop)));
        fr.clear_hook();
        let mut r = GenericPayload::read(0x100, 1);
        route(&mut fr, &mut r);
        assert!(r.is_ok());
    }
}

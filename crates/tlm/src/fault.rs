//! TLM-level fault injection: an interposing router for fault campaigns.
//!
//! [`FaultRouter`] wraps a [`Router`] and consults an optional
//! [`TlmFaultHook`] around every routed transaction, so a fault-injection
//! campaign (`vpdift-faults`) can corrupt payload lanes, drop transactions
//! or force error responses without the interconnect or any target knowing.
//! With no hook installed the wrapper costs a single `Option` check per
//! transaction.

use vpdift_kernel::SimTime;
use vpdift_obs::DynObs;
use vpdift_sync::Shared;

use crate::payload::{GenericPayload, TlmResponse};
use crate::router::Router;

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
/// [`TlmFaultHook`]. Map the router's ports before wrapping it.
pub struct FaultRouter<P> {
    inner: Router<P>,
    hook: Option<SharedFaultHook>,
}

impl<P: Copy> FaultRouter<P> {
    /// Wraps `inner` with no fault hook installed (transparent).
    pub fn new(inner: Router<P>) -> Self {
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
    /// router. See [`Router::route`] for the routing semantics, `obs` and
    /// `target`; a dropped or answered transaction reaches neither.
    pub fn route(
        &self,
        payload: &mut GenericPayload,
        delay: &mut SimTime,
        obs: Option<&mut (dyn DynObs + 'static)>,
        target: impl FnOnce(P, &mut GenericPayload, &mut SimTime, Option<&mut (dyn DynObs + 'static)>),
    ) {
        let Some(hook) = &self.hook else {
            self.inner.route(payload, delay, obs, target);
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
        self.inner.route(payload, delay, obs, target);
        hook.borrow_mut().after(payload);
    }
}

impl<P> core::fmt::Debug for FaultRouter<P> {
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
    use vpdift_core::{AddrRange, Taint};

    /// A 16-byte RAM behind port 0 of a wrapped router.
    fn wrapped_ram() -> (FaultRouter<u8>, [Taint<u8>; 16]) {
        let mut router = Router::new("bus");
        router.map("ram", AddrRange::new(0x100, 16), 0).unwrap();
        (FaultRouter::new(router), [Taint::untainted(0u8); 16])
    }

    /// Routes `p` through `fr` to `ram`.
    fn route(fr: &mut FaultRouter<u8>, p: &mut GenericPayload, ram: &mut [Taint<u8>; 16]) {
        fr.route(p, &mut SimTime::ZERO.clone(), None, |_, p, _, _| {
            let lanes = p.address() as usize..p.address() as usize + p.len();
            match p.command() {
                crate::TlmCommand::Read => p.data_mut().copy_from_slice(&ram[lanes]),
                crate::TlmCommand::Write => ram[lanes].copy_from_slice(p.data()),
                crate::TlmCommand::Ignore => {}
            }
            p.set_response(TlmResponse::Ok);
        });
    }

    struct OneShot(FaultAction);

    impl TlmFaultHook for OneShot {
        fn before(&mut self, _p: &mut GenericPayload) -> FaultAction {
            std::mem::take(&mut self.0)
        }
    }

    #[test]
    fn transparent_without_hook() {
        let (mut fr, mut ram) = wrapped_ram();
        let mut w = GenericPayload::write(0x104, &[Taint::untainted(7)]);
        route(&mut fr, &mut w, &mut ram);
        assert!(w.is_ok());
        assert_eq!(ram[4].value(), 7);
    }

    #[test]
    fn drop_never_reaches_the_target() {
        let (mut fr, mut ram) = wrapped_ram();
        fr.set_hook(vpdift_sync::shared(OneShot(FaultAction::Drop)));
        let mut w = GenericPayload::write(0x104, &[Taint::untainted(7)]);
        route(&mut fr, &mut w, &mut ram);
        assert_eq!(w.response(), TlmResponse::GenericError);
        assert_eq!(ram[4].value(), 0, "write was dropped");
        // The hook is one-shot: the retry goes through.
        let mut w = GenericPayload::write(0x104, &[Taint::untainted(7)]);
        route(&mut fr, &mut w, &mut ram);
        assert!(w.is_ok());
        assert_eq!(ram[4].value(), 7);
    }

    #[test]
    fn forced_response_short_circuits() {
        let (mut fr, mut ram) = wrapped_ram();
        fr.set_hook(vpdift_sync::shared(OneShot(FaultAction::Respond(TlmResponse::AddressError))));
        let mut r = GenericPayload::read(0x104, 4);
        route(&mut fr, &mut r, &mut ram);
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
        let (mut fr, mut ram) = wrapped_ram();
        ram[0] = Taint::untainted(0x11);
        fr.set_hook(vpdift_sync::shared(FlipRead));
        let mut r = GenericPayload::read(0x100, 1);
        route(&mut fr, &mut r, &mut ram);
        assert_eq!(r.data()[0].value(), 0x91, "read lane corrupted post-route");
        assert_eq!(ram[0].value(), 0x11, "memory itself untouched");
    }

    #[test]
    fn clear_hook_restores_transparency() {
        let (mut fr, mut ram) = wrapped_ram();
        fr.set_hook(vpdift_sync::shared(OneShot(FaultAction::Drop)));
        fr.clear_hook();
        let mut r = GenericPayload::read(0x100, 1);
        route(&mut fr, &mut r, &mut ram);
        assert!(r.is_ok());
    }
}

//! TLM-level fault injection: the system bus's one-shot fault.
//!
//! [`FaultRouter`] wraps a [`Router`] and holds at most one armed
//! [`BusFault`], which disturbs the next transaction it applies to and then
//! disarms, so a fault-injection campaign (`vpdift-faults`) can corrupt a
//! payload lane, drop a transaction or force an error response without the
//! interconnect or any target knowing. Unarmed, the wrapper costs a single
//! `Option` check per transaction.

use vpdift_kernel::SimTime;
use vpdift_obs::DynObs;

use crate::payload::{GenericPayload, TlmCommand, TlmResponse};
use crate::router::Router;

/// What an armed [`FaultRouter`] does to the next transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusFault {
    /// Flip bit 0 of the first data lane: write data before routing, read
    /// data after a read completes `Ok`. Stays armed through transactions
    /// it cannot corrupt.
    Corrupt,
    /// Drop the transaction: it reaches no target and completes with
    /// [`TlmResponse::GenericError`].
    Drop,
    /// Answer [`TlmResponse::AddressError`] without routing.
    Error,
}

/// A [`Router`] wrapper that disturbs one transaction per armed
/// [`BusFault`]. Map the router's ports before wrapping it.
#[derive(Debug)]
pub struct FaultRouter<P> {
    inner: Router<P>,
    armed: Option<BusFault>,
}

impl<P: Copy> FaultRouter<P> {
    /// Wraps `inner`, unarmed (transparent).
    pub fn new(inner: Router<P>) -> Self {
        FaultRouter { inner, armed: None }
    }

    /// Arms `fault` for the next transaction it applies to, overwriting a
    /// pending arm.
    pub fn arm(&mut self, fault: BusFault) {
        self.armed = Some(fault);
    }

    /// Routes one transaction through the armed fault (if any) and the
    /// wrapped router. See [`Router::route`] for the routing semantics,
    /// `obs` and `target`; a dropped or answered transaction reaches
    /// neither.
    pub fn route(
        &mut self,
        payload: &mut GenericPayload,
        delay: &mut SimTime,
        obs: Option<&mut (dyn DynObs + 'static)>,
        target: impl FnOnce(P, &mut GenericPayload, &mut SimTime, Option<&mut (dyn DynObs + 'static)>),
    ) {
        let Some(fault) = self.armed else {
            self.inner.route(payload, delay, obs, target);
            return;
        };
        match fault {
            BusFault::Drop => self.answer(payload, TlmResponse::GenericError),
            BusFault::Error => self.answer(payload, TlmResponse::AddressError),
            BusFault::Corrupt => {
                if payload.command() == TlmCommand::Write {
                    self.corrupt(payload);
                }
                self.inner.route(payload, delay, obs, target);
                // A read is corrupted once the target filled its lanes.
                if self.armed.is_some() && payload.command() == TlmCommand::Read && payload.is_ok()
                {
                    self.corrupt(payload);
                }
            }
        }
    }

    /// Completes the transaction with `response` without routing it, and
    /// disarms.
    fn answer(&mut self, payload: &mut GenericPayload, response: TlmResponse) {
        payload.set_response(response);
        self.armed = None;
    }

    /// Flips bit 0 of the first data lane and disarms; a payload without
    /// data leaves the fault armed.
    fn corrupt(&mut self, payload: &mut GenericPayload) {
        if let Some(lane) = payload.data_mut().first_mut() {
            *lane = lane.map(|v| v ^ 0x01);
            self.armed = None;
        }
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
                TlmCommand::Read => p.data_mut().copy_from_slice(&ram[lanes]),
                TlmCommand::Write => ram[lanes].copy_from_slice(p.data()),
                TlmCommand::Ignore => {}
            }
            p.set_response(TlmResponse::Ok);
        });
    }

    fn write(fr: &mut FaultRouter<u8>, ram: &mut [Taint<u8>; 16], v: u8) -> TlmResponse {
        let mut w = GenericPayload::write(0x104, &[Taint::untainted(v)]);
        route(fr, &mut w, ram);
        w.response()
    }

    fn read(fr: &mut FaultRouter<u8>, ram: &mut [Taint<u8>; 16]) -> (TlmResponse, u8) {
        let mut r = GenericPayload::read(0x104, 1);
        route(fr, &mut r, ram);
        (r.response(), r.data()[0].value())
    }

    #[test]
    fn transparent_unarmed() {
        let (mut fr, mut ram) = wrapped_ram();
        assert_eq!(write(&mut fr, &mut ram, 7), TlmResponse::Ok);
        assert_eq!(ram[4].value(), 7);
    }

    #[test]
    fn dropped_transaction_never_reaches_its_target() {
        let (mut fr, mut ram) = wrapped_ram();
        fr.arm(BusFault::Drop);
        assert_eq!(write(&mut fr, &mut ram, 7), TlmResponse::GenericError);
        assert_eq!(ram[4].value(), 0, "write was dropped");
        // The fault is one-shot: the retry goes through.
        assert_eq!(write(&mut fr, &mut ram, 7), TlmResponse::Ok);
        assert_eq!(ram[4].value(), 7);
    }

    #[test]
    fn error_is_answered_without_routing() {
        let (mut fr, mut ram) = wrapped_ram();
        fr.arm(BusFault::Error);
        assert_eq!(write(&mut fr, &mut ram, 7), TlmResponse::AddressError);
        assert_eq!(ram[4].value(), 0, "the target never saw the write");
        assert_eq!(read(&mut fr, &mut ram), (TlmResponse::Ok, 0), "fired once, transparent again");
    }

    #[test]
    fn write_corruption_flips_the_lane_before_routing() {
        let (mut fr, mut ram) = wrapped_ram();
        fr.arm(BusFault::Corrupt);
        assert_eq!(write(&mut fr, &mut ram, 0x10), TlmResponse::Ok);
        assert_eq!(ram[4].value(), 0x11, "bit 0 flipped in the stored lane");
        assert_eq!(write(&mut fr, &mut ram, 0x10), TlmResponse::Ok);
        assert_eq!(ram[4].value(), 0x10, "one-shot");
    }

    #[test]
    fn read_corruption_waits_for_the_read_data() {
        let (mut fr, mut ram) = wrapped_ram();
        ram[4] = Taint::untainted(0x20);
        fr.arm(BusFault::Corrupt);
        let mut miss = GenericPayload::read(0x200, 1);
        route(&mut fr, &mut miss, &mut ram);
        assert_eq!(miss.response(), TlmResponse::AddressError);
        assert_eq!(miss.data()[0].value(), 0, "a failed read is not corrupted");
        assert_eq!(read(&mut fr, &mut ram), (TlmResponse::Ok, 0x21), "still armed, fires now");
        assert_eq!(ram[4].value(), 0x20, "memory itself untouched");
        assert_eq!(read(&mut fr, &mut ram), (TlmResponse::Ok, 0x20), "transparent again");
    }

    #[test]
    fn arming_overwrites_a_pending_arm() {
        let (mut fr, mut ram) = wrapped_ram();
        fr.arm(BusFault::Drop);
        fr.arm(BusFault::Error);
        assert_eq!(write(&mut fr, &mut ram, 7), TlmResponse::AddressError);
        assert_eq!(write(&mut fr, &mut ram, 7), TlmResponse::Ok, "only the last arm fired");
    }
}

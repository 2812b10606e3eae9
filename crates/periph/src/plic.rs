//! A simplified platform-level interrupt controller.
//!
//! Numbered interrupt sources are raised on it; software enables sources,
//! claims the highest-priority pending one, and completes it. The `eip()`
//! level feeds the CPU's machine-external-interrupt pending bit. Devices
//! do not hold the controller: each flags its own interrupt, and the SoC
//! raises the flagged sources here when it samples interrupt levels.

use vpdift_core::Taint;
use vpdift_kernel::SimTime;
use vpdift_tlm::{GenericPayload, TlmCommand, TlmResponse, TlmTarget};

use crate::mmio::{get_word, put_word};

/// Register map (word-aligned offsets).
pub mod regs {
    /// Read: pending source bitmap.
    pub const PENDING: u32 = 0x0;
    /// Read/write: enabled source bitmap.
    pub const ENABLE: u32 = 0x4;
    /// Read: claim (returns highest pending&enabled source id, clears its
    /// pending bit). Write: complete (no-op in this simplified model).
    pub const CLAIM: u32 = 0x8;
}

/// The interrupt controller. Sources are numbered 1..=31; source 0 means
/// "none".
#[derive(Debug, Default)]
pub struct Plic {
    pending: u32,
    enabled: u32,
}

impl Plic {
    /// Creates a controller with everything masked.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises interrupt source `id` (1..=31).
    ///
    /// # Panics
    /// Panics if `id` is 0 or ≥ 32.
    pub fn raise(&mut self, id: u32) {
        assert!((1..32).contains(&id), "PLIC source id out of range");
        self.pending |= 1 << id;
    }

    /// Clears a pending source (host/test use; software uses claim).
    pub fn clear(&mut self, id: u32) {
        self.pending &= !(1 << id);
    }

    /// `true` while any enabled source is pending — wired to the CPU's MEIP.
    pub fn eip(&self) -> bool {
        self.pending & self.enabled != 0
    }

    /// The pending bitmap.
    pub fn pending(&self) -> u32 {
        self.pending
    }

    /// The enable bitmap (the `ENABLE` register).
    pub fn enabled(&self) -> u32 {
        self.enabled
    }

    /// Claims the lowest-numbered pending & enabled source.
    pub fn claim(&mut self) -> u32 {
        let ready = self.pending & self.enabled;
        if ready == 0 {
            return 0;
        }
        let id = ready.trailing_zeros();
        self.pending &= !(1 << id);
        id
    }
}

impl TlmTarget for Plic {
    fn transport(&mut self, p: &mut GenericPayload, _delay: &mut SimTime) {
        match (p.command(), p.address()) {
            (TlmCommand::Read, regs::PENDING) => {
                put_word(p, Taint::untainted(self.pending));
                p.set_response(TlmResponse::Ok);
            }
            (TlmCommand::Read, regs::ENABLE) => {
                put_word(p, Taint::untainted(self.enabled));
                p.set_response(TlmResponse::Ok);
            }
            (TlmCommand::Write, regs::ENABLE) => {
                self.enabled = get_word(p).value();
                p.set_response(TlmResponse::Ok);
            }
            (TlmCommand::Read, regs::CLAIM) => {
                let id = self.claim();
                put_word(p, Taint::untainted(id));
                p.set_response(TlmResponse::Ok);
            }
            (TlmCommand::Write, regs::CLAIM) => {
                // Completion: level-triggered sources would re-raise here.
                p.set_response(TlmResponse::Ok);
            }
            _ => p.set_response(TlmResponse::CommandError),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_enable_claim_cycle() {
        let mut plic = Plic::new();
        plic.raise(2);
        assert!(!plic.eip(), "masked source does not assert eip");
        plic.enabled = 1 << 2;
        assert!(plic.eip());
        assert_eq!(plic.claim(), 2);
        assert!(!plic.eip());
        assert_eq!(plic.claim(), 0);
    }

    #[test]
    fn lowest_source_claims_first() {
        let mut plic = Plic::new();
        plic.enabled = u32::MAX;
        plic.raise(7);
        plic.raise(3);
        assert_eq!(plic.claim(), 3);
        assert_eq!(plic.claim(), 7);
    }

    #[test]
    fn mmio_interface() {
        let mut plic = Plic::new();
        let mut d = SimTime::ZERO;

        let mut w = GenericPayload::write_word(regs::ENABLE, Taint::untainted(0b100u32));
        plic.transport(&mut w, &mut d);
        assert!(w.is_ok());

        plic.raise(2);
        let mut r = GenericPayload::read(regs::PENDING, 4);
        plic.transport(&mut r, &mut d);
        assert_eq!(r.data_word::<u32>().value(), 0b100);

        let mut c = GenericPayload::read(regs::CLAIM, 4);
        plic.transport(&mut c, &mut d);
        assert_eq!(c.data_word::<u32>().value(), 2);

        let mut done = GenericPayload::write_word(regs::CLAIM, Taint::untainted(2u32));
        plic.transport(&mut done, &mut d);
        assert!(done.is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn source_zero_rejected() {
        Plic::new().raise(0);
    }
}

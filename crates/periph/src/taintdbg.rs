//! Taint-introspection peripheral — a *development aid* for the VP
//! use-case the paper advertises (early development and validation of
//! security policies).
//!
//! Firmware under test can ask the platform "what is the tag of this
//! byte?" and assert expectations about its own classification state,
//! turning policy validation into guest-side unit tests. The peripheral is
//! trusted hardware (threat model §IV-B); it *reads* tags but cannot
//! change them, and the tag values it returns are public data (the
//! *existence* of a classification is not itself classified in this
//! model — do not map this peripheral in production-profile platforms).

use vpdift_core::{SharedEngine, Tag, Taint, Violation, ViolationKind};
use vpdift_kernel::SimTime;
use vpdift_sync::{shared, Shared};
use vpdift_tlm::{GenericPayload, TlmCommand, TlmResponse, TlmTarget};

use crate::mmio::{get_word, no_memory, put_word};

/// Register map (word-aligned offsets).
pub mod regs {
    /// Read/write: the RAM address under inspection.
    pub const ADDR: u32 = 0x0;
    /// Read: tag bits of the byte at `ADDR`.
    pub const TAG: u32 = 0x4;
    /// Write: assert the byte at `ADDR` carries *exactly* this tag; a
    /// mismatch records a custom DIFT violation.
    pub const ASSERT_TAG: u32 = 0x8;
    /// Read: number of failed assertions so far.
    pub const FAILED: u32 = 0xC;
}

/// The introspection peripheral. It reads tags from the memory lent to
/// each transaction ([`TlmTarget::transport_with`]).
#[derive(Debug)]
pub struct TaintDebug {
    engine: SharedEngine,
    addr: u32,
    failed: u32,
}

impl TaintDebug {
    /// Creates the peripheral.
    pub fn new(engine: SharedEngine) -> Self {
        TaintDebug { engine, addr: 0, failed: 0 }
    }

    /// Wraps into the shared handle used by the SoC.
    pub fn into_shared(self) -> Shared<TaintDebug> {
        shared(self)
    }

    /// Failed guest assertions so far.
    pub fn failed(&self) -> u32 {
        self.failed
    }
}

/// The tag of the byte at `addr` in `mem`, by a one-byte TLM read.
fn tag_at(mem: &mut dyn TlmTarget, addr: u32, delay: &mut SimTime) -> Option<Tag> {
    let mut p = GenericPayload::read(addr, 1);
    mem.transport(&mut p, delay);
    p.is_ok().then(|| p.data()[0].tag())
}

impl TlmTarget for TaintDebug {
    fn transport(&mut self, p: &mut GenericPayload, delay: &mut SimTime) {
        self.transport_with(p, delay, &mut no_memory);
    }

    fn transport_with(
        &mut self,
        p: &mut GenericPayload,
        delay: &mut SimTime,
        mem: &mut dyn TlmTarget,
    ) {
        match (p.command(), p.address()) {
            (TlmCommand::Write, regs::ADDR) => {
                self.addr = get_word(p).value();
                p.set_response(TlmResponse::Ok);
            }
            (TlmCommand::Read, regs::ADDR) => {
                put_word(p, Taint::untainted(self.addr));
                p.set_response(TlmResponse::Ok);
            }
            (TlmCommand::Read, regs::TAG) => match tag_at(mem, self.addr, delay) {
                Some(tag) => {
                    put_word(p, Taint::untainted(tag.bits()));
                    p.set_response(TlmResponse::Ok);
                }
                None => p.set_response(TlmResponse::AddressError),
            },
            (TlmCommand::Write, regs::ASSERT_TAG) => {
                let expected = Tag::from_bits(get_word(p).value());
                match tag_at(mem, self.addr, delay) {
                    Some(actual) if actual == expected => p.set_response(TlmResponse::Ok),
                    Some(actual) => {
                        self.failed += 1;
                        let v = Violation::new(
                            ViolationKind::Custom { what: "guest taint assertion".into() },
                            actual,
                            expected,
                        )
                        .with_context(format!("taintdbg assert at {:#010x}", self.addr));
                        match self.engine.borrow_mut().record(v) {
                            Ok(()) => p.set_response(TlmResponse::Ok),
                            Err(v) => p.set_violation(v),
                        }
                    }
                    None => p.set_response(TlmResponse::AddressError),
                }
            }
            (TlmCommand::Read, regs::FAILED) => {
                put_word(p, Taint::untainted(self.failed));
                p.set_response(TlmResponse::Ok);
            }
            _ => p.set_response(TlmResponse::CommandError),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ram::Ram;
    use vpdift_core::{DiftEngine, EnforceMode, SecurityPolicy};

    fn setup(mode: EnforceMode) -> (TaintDebug, Ram) {
        let engine = DiftEngine::with_mode(SecurityPolicy::permissive(), mode).into_shared();
        (TaintDebug::new(engine), Ram::new(256, true))
    }

    fn wr(d: &mut TaintDebug, ram: &mut Ram, reg: u32, v: u32) -> GenericPayload {
        let mut p = GenericPayload::write_word(reg, Taint::untainted(v));
        d.transport_with(&mut p, &mut SimTime::ZERO.clone(), ram);
        p
    }

    fn rd(d: &mut TaintDebug, ram: &mut Ram, reg: u32) -> u32 {
        let mut p = GenericPayload::read(reg, 4);
        d.transport_with(&mut p, &mut SimTime::ZERO.clone(), ram);
        assert!(p.is_ok());
        p.data_word::<u32>().value()
    }

    #[test]
    fn reads_tags_of_ram_bytes() {
        let (mut d, mut ram) = setup(EnforceMode::Enforce);
        ram.classify(0x10, 1, Tag::from_bits(0b101));
        wr(&mut d, &mut ram, regs::ADDR, 0x10);
        assert_eq!(rd(&mut d, &mut ram, regs::TAG), 0b101);
        assert_eq!(rd(&mut d, &mut ram, regs::ADDR), 0x10);
        wr(&mut d, &mut ram, regs::ADDR, 0x11);
        assert_eq!(rd(&mut d, &mut ram, regs::TAG), 0);
    }

    #[test]
    fn assertions_pass_and_fail() {
        let (mut d, mut ram) = setup(EnforceMode::Record);
        ram.classify(0x20, 1, Tag::from_bits(0b1));
        wr(&mut d, &mut ram, regs::ADDR, 0x20);
        assert!(wr(&mut d, &mut ram, regs::ASSERT_TAG, 0b1).is_ok());
        assert_eq!(d.failed(), 0);
        // Wrong expectation: recorded, counted.
        assert!(wr(&mut d, &mut ram, regs::ASSERT_TAG, 0b10).is_ok());
        assert_eq!(d.failed(), 1);
        assert_eq!(rd(&mut d, &mut ram, regs::FAILED), 1);
        assert_eq!(d.engine.borrow().violations().len(), 1);
    }

    #[test]
    fn enforce_mode_propagates_assertion_failure() {
        let (mut d, mut ram) = setup(EnforceMode::Enforce);
        wr(&mut d, &mut ram, regs::ADDR, 0x30);
        let mut p = wr(&mut d, &mut ram, regs::ASSERT_TAG, 0xFF);
        let v = p.take_violation().expect("violation attached");
        assert!(matches!(v.kind, ViolationKind::Custom { .. }));
        assert!(v.context.contains("0x00000030"));
    }

    #[test]
    fn out_of_range_address_errors() {
        let (mut d, mut ram) = setup(EnforceMode::Enforce);
        wr(&mut d, &mut ram, regs::ADDR, 0x1_0000);
        let mut p = GenericPayload::read(regs::TAG, 4);
        d.transport_with(&mut p, &mut SimTime::ZERO.clone(), &mut ram);
        assert_eq!(p.response(), TlmResponse::AddressError);
        // Without lent memory no address is in range.
        wr(&mut d, &mut ram, regs::ADDR, 0x10);
        let mut p = GenericPayload::read(regs::TAG, 4);
        d.transport(&mut p, &mut SimTime::ZERO.clone());
        assert_eq!(p.response(), TlmResponse::AddressError);
    }
}

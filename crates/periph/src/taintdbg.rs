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

use vpdift_core::{Tag, Taint, Violation, ViolationKind};
use vpdift_kernel::SimTime;
use vpdift_tlm::{GenericPayload, Loan, TlmCommand, TlmResponse, TlmTarget};

use crate::mmio::{get_word, put_word};

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
/// each transaction and records failed assertions in the lent engine
/// ([`TlmTarget::transport_with`]).
#[derive(Debug, Default)]
pub struct TaintDebug {
    addr: u32,
    failed: u32,
}

impl TaintDebug {
    /// Creates the peripheral.
    pub fn new() -> Self {
        TaintDebug::default()
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
    /// Unlent, there is no memory to inspect: the transaction is refused.
    fn transport(&mut self, p: &mut GenericPayload, _delay: &mut SimTime) {
        p.set_response(TlmResponse::GenericError);
    }

    fn transport_with(&mut self, p: &mut GenericPayload, delay: &mut SimTime, loan: &mut Loan<'_>) {
        match (p.command(), p.address()) {
            (TlmCommand::Write, regs::ADDR) => {
                self.addr = get_word(p).value();
                p.set_response(TlmResponse::Ok);
            }
            (TlmCommand::Read, regs::ADDR) => {
                put_word(p, Taint::untainted(self.addr));
                p.set_response(TlmResponse::Ok);
            }
            (TlmCommand::Read, regs::TAG) => match tag_at(loan.mem, self.addr, delay) {
                Some(tag) => {
                    put_word(p, Taint::untainted(tag.bits()));
                    p.set_response(TlmResponse::Ok);
                }
                None => p.set_response(TlmResponse::AddressError),
            },
            (TlmCommand::Write, regs::ASSERT_TAG) => {
                let expected = Tag::from_bits(get_word(p).value());
                match tag_at(loan.mem, self.addr, delay) {
                    Some(actual) if actual == expected => p.set_response(TlmResponse::Ok),
                    Some(actual) => {
                        self.failed += 1;
                        let v = Violation::new(
                            ViolationKind::Custom { what: "guest taint assertion".into() },
                            actual,
                            expected,
                        )
                        .with_context(format!("taintdbg assert at {:#010x}", self.addr));
                        match loan.record(v) {
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

    /// The peripheral with the RAM and engine its bus would lend it.
    struct Rig {
        d: TaintDebug,
        ram: Ram,
        engine: DiftEngine,
    }

    impl Rig {
        fn new(mode: EnforceMode) -> Self {
            let engine = DiftEngine::with_mode(SecurityPolicy::permissive(), mode);
            Rig { d: TaintDebug::new(), ram: Ram::new(256, true), engine }
        }

        fn transport(&mut self, p: &mut GenericPayload) {
            let mut loan = Loan { mem: &mut self.ram, engine: &mut self.engine, obs: None };
            self.d.transport_with(p, &mut SimTime::ZERO.clone(), &mut loan);
        }

        fn wr(&mut self, reg: u32, v: u32) -> GenericPayload {
            let mut p = GenericPayload::write_word(reg, Taint::untainted(v));
            self.transport(&mut p);
            p
        }

        fn rd(&mut self, reg: u32) -> u32 {
            let mut p = GenericPayload::read(reg, 4);
            self.transport(&mut p);
            assert!(p.is_ok());
            p.data_word::<u32>().value()
        }
    }

    #[test]
    fn reads_tags_of_ram_bytes() {
        let mut r = Rig::new(EnforceMode::Enforce);
        r.ram.classify(0x10, 1, Tag::from_bits(0b101));
        r.wr(regs::ADDR, 0x10);
        assert_eq!(r.rd(regs::TAG), 0b101);
        assert_eq!(r.rd(regs::ADDR), 0x10);
        r.wr(regs::ADDR, 0x11);
        assert_eq!(r.rd(regs::TAG), 0);
    }

    #[test]
    fn assertions_pass_and_fail() {
        let mut r = Rig::new(EnforceMode::Record);
        r.ram.classify(0x20, 1, Tag::from_bits(0b1));
        r.wr(regs::ADDR, 0x20);
        assert!(r.wr(regs::ASSERT_TAG, 0b1).is_ok());
        assert_eq!(r.d.failed(), 0);
        // Wrong expectation: recorded, counted.
        assert!(r.wr(regs::ASSERT_TAG, 0b10).is_ok());
        assert_eq!(r.d.failed(), 1);
        assert_eq!(r.rd(regs::FAILED), 1);
        assert_eq!(r.engine.violations().len(), 1);
    }

    #[test]
    fn enforce_mode_propagates_assertion_failure() {
        let mut r = Rig::new(EnforceMode::Enforce);
        r.wr(regs::ADDR, 0x30);
        let mut p = r.wr(regs::ASSERT_TAG, 0xFF);
        let v = p.take_violation().expect("violation attached");
        assert!(matches!(v.kind, ViolationKind::Custom { .. }));
        assert!(v.context.contains("0x00000030"));
    }

    #[test]
    fn out_of_range_address_errors() {
        let mut r = Rig::new(EnforceMode::Enforce);
        r.wr(regs::ADDR, 0x1_0000);
        let mut p = GenericPayload::read(regs::TAG, 4);
        r.transport(&mut p);
        assert_eq!(p.response(), TlmResponse::AddressError);
        // Unlent, the peripheral refuses every transaction.
        r.wr(regs::ADDR, 0x10);
        let mut p = GenericPayload::read(regs::TAG, 4);
        r.d.transport(&mut p, &mut SimTime::ZERO.clone());
        assert_eq!(p.response(), TlmResponse::GenericError);
    }
}

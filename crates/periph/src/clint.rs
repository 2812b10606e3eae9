//! Core-local interruptor: machine timer (`mtime`/`mtimecmp`) and software
//! interrupt (`msip`), as in the SiFive/RISC-V VP memory map.

use vpdift_core::Taint;
use vpdift_kernel::SimTime;
use vpdift_tlm::{GenericPayload, Loan, TlmCommand, TlmResponse, TlmTarget};

use crate::mmio::{get_word, put_word};

/// Register map (offsets within the CLINT region).
pub mod regs {
    /// Read/write: machine software interrupt pending (bit 0).
    pub const MSIP: u32 = 0x0000;
    /// Read/write: timer compare, low word.
    pub const MTIMECMP_LO: u32 = 0x4000;
    /// Read/write: timer compare, high word.
    pub const MTIMECMP_HI: u32 = 0x4004;
    /// Read/write: timer, low word.
    pub const MTIME_LO: u32 = 0xBFF8;
    /// Read/write: timer, high word.
    pub const MTIME_HI: u32 = 0xBFFC;
}

/// The CLINT model. The SoC sets `mtime` to its clock, in microseconds,
/// whenever simulated time moves.
#[derive(Debug, Default)]
pub struct Clint {
    mtime: u64,
    mtimecmp: u64,
    msip: bool,
}

impl Clint {
    /// Creates a CLINT with `mtime = 0` and the comparator at max (no
    /// pending timer interrupt).
    pub fn new() -> Self {
        Clint { mtime: 0, mtimecmp: u64::MAX, msip: false }
    }

    /// Current timer value.
    pub fn mtime(&self) -> u64 {
        self.mtime
    }

    /// Sets the timer (SoC clock coupling).
    pub fn set_mtime(&mut self, t: u64) {
        self.mtime = t;
    }

    /// `true` while the timer interrupt is asserted (`mtime >= mtimecmp`).
    pub fn timer_pending(&self) -> bool {
        self.mtime >= self.mtimecmp
    }

    /// The current comparator value (`u64::MAX` = timer disarmed).
    pub fn mtimecmp_value(&self) -> u64 {
        self.mtimecmp
    }

    /// `true` while the software interrupt is asserted.
    pub fn soft_pending(&self) -> bool {
        self.msip
    }
}

impl TlmTarget for Clint {
    fn transport(&mut self, p: &mut GenericPayload, _delay: &mut SimTime, _loan: &mut Loan<'_>) {
        match (p.command(), p.address()) {
            (TlmCommand::Read, regs::MSIP) => {
                put_word(p, Taint::untainted(self.msip as u32));
                p.set_response(TlmResponse::Ok);
            }
            (TlmCommand::Write, regs::MSIP) => {
                self.msip = get_word(p).value() & 1 != 0;
                p.set_response(TlmResponse::Ok);
            }
            (TlmCommand::Read, regs::MTIMECMP_LO) => {
                put_word(p, Taint::untainted(self.mtimecmp as u32));
                p.set_response(TlmResponse::Ok);
            }
            (TlmCommand::Read, regs::MTIMECMP_HI) => {
                put_word(p, Taint::untainted((self.mtimecmp >> 32) as u32));
                p.set_response(TlmResponse::Ok);
            }
            (TlmCommand::Write, regs::MTIMECMP_LO) => {
                let v = get_word(p).value() as u64;
                self.mtimecmp = (self.mtimecmp & 0xFFFF_FFFF_0000_0000) | v;
                p.set_response(TlmResponse::Ok);
            }
            (TlmCommand::Write, regs::MTIMECMP_HI) => {
                let v = (get_word(p).value() as u64) << 32;
                self.mtimecmp = (self.mtimecmp & 0xFFFF_FFFF) | v;
                p.set_response(TlmResponse::Ok);
            }
            (TlmCommand::Read, regs::MTIME_LO) => {
                put_word(p, Taint::untainted(self.mtime as u32));
                p.set_response(TlmResponse::Ok);
            }
            (TlmCommand::Read, regs::MTIME_HI) => {
                put_word(p, Taint::untainted((self.mtime >> 32) as u32));
                p.set_response(TlmResponse::Ok);
            }
            (TlmCommand::Write, regs::MTIME_LO) => {
                let v = get_word(p).value() as u64;
                self.mtime = (self.mtime & 0xFFFF_FFFF_0000_0000) | v;
                p.set_response(TlmResponse::Ok);
            }
            (TlmCommand::Write, regs::MTIME_HI) => {
                let v = (get_word(p).value() as u64) << 32;
                self.mtime = (self.mtime & 0xFFFF_FFFF) | v;
                p.set_response(TlmResponse::Ok);
            }
            _ => p.set_response(TlmResponse::CommandError),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmio::tests::lend_permissive;

    #[test]
    fn timer_comparison() {
        let mut c = Clint::new();
        assert!(!c.timer_pending());
        c.mtimecmp = 100;
        c.set_mtime(99);
        assert!(!c.timer_pending());
        c.set_mtime(100);
        assert!(c.timer_pending());
        assert_eq!(c.mtime(), 100);
    }

    #[test]
    fn mmio_mtimecmp_64bit() {
        let mut c = Clint::new();
        let mut lo = GenericPayload::write_word(regs::MTIMECMP_LO, Taint::untainted(0x55u32));
        lend_permissive(&mut c, &mut lo);
        let mut hi = GenericPayload::write_word(regs::MTIMECMP_HI, Taint::untainted(0x1u32));
        lend_permissive(&mut c, &mut hi);
        assert_eq!(c.mtimecmp, 0x1_0000_0055);

        c.set_mtime(0xABCD_1234_5678);
        let mut r = GenericPayload::read(regs::MTIME_LO, 4);
        lend_permissive(&mut c, &mut r);
        assert_eq!(r.data_word::<u32>().value(), 0x1234_5678);
        let mut rh = GenericPayload::read(regs::MTIME_HI, 4);
        lend_permissive(&mut c, &mut rh);
        assert_eq!(rh.data_word::<u32>().value(), 0xABCD);
    }

    #[test]
    fn msip_round_trip() {
        let mut c = Clint::new();
        assert!(!c.soft_pending());
        let mut w = GenericPayload::write_word(regs::MSIP, Taint::untainted(1u32));
        lend_permissive(&mut c, &mut w);
        assert!(c.soft_pending());
        let mut r = GenericPayload::read(regs::MSIP, 4);
        lend_permissive(&mut c, &mut r);
        assert_eq!(r.data_word::<u32>().value(), 1);
    }

    #[test]
    fn unknown_offset_rejected() {
        let mut c = Clint::new();
        let mut p = GenericPayload::read(0x1234, 4);
        lend_permissive(&mut c, &mut p);
        assert_eq!(p.response(), TlmResponse::CommandError);
    }
}

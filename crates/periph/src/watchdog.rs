//! Memory-mapped watchdog timer — the SoC's liveness backstop.
//!
//! Firmware arms the watchdog with a timeout and must kick it before the
//! deadline; if simulated time passes the deadline the dog "bites" and the
//! SoC terminates the run with `SocExit::WatchdogTimeout`. This turns
//! otherwise-unclassifiable hangs (spin loops on lost CAN frames, wedged
//! peripherals under fault injection) into a precise, reportable outcome —
//! the graceful-degradation half of the fault-injection story.
//!
//! The host side (test harnesses, the fault-campaign runner) can also arm
//! the dog directly via [`Watchdog::arm`] without firmware cooperation,
//! which is how campaigns bound the wall-clock cost of a hang.
//!
//! Expiry is checked by the SoC at quantum granularity (after each quantum
//! and each idle skip), so a timeout is observed within one quantum of the
//! deadline rather than cycle-exactly — the usual LT trade-off.

use vpdift_core::Taint;
use vpdift_kernel::SimTime;
use vpdift_tlm::{GenericPayload, TlmCommand, TlmResponse, TlmTarget};

use crate::mmio::{get_word, put_word};

/// Register map (word-aligned offsets).
pub mod regs {
    /// Read/write: timeout in microseconds (staged; applied on arm/kick).
    pub const TIMEOUT: u32 = 0x0;
    /// Read/write: bit 0 = enable. Writing 1 (re)arms and reloads the
    /// deadline; writing 0 disarms.
    pub const CTRL: u32 = 0x4;
    /// Write (any value): kick — reload the deadline from `TIMEOUT`.
    pub const KICK: u32 = 0x8;
    /// Read: bit 0 = expired (sticky until re-armed).
    pub const STATUS: u32 = 0xC;
}

/// The watchdog model.
#[derive(Debug)]
pub struct Watchdog {
    timeout: SimTime,
    armed: bool,
    deadline: SimTime,
    expired: bool,
    now: SimTime,
    kicks: u64,
}

impl Default for Watchdog {
    fn default() -> Self {
        Self::new()
    }
}

impl Watchdog {
    /// Creates a disarmed watchdog.
    pub fn new() -> Self {
        Watchdog {
            timeout: SimTime::ZERO,
            armed: false,
            deadline: SimTime::MAX,
            expired: false,
            now: SimTime::ZERO,
            kicks: 0,
        }
    }

    /// Arms (or re-arms) with `timeout` from the current simulated time.
    /// Clears a sticky expiry.
    pub fn arm(&mut self, timeout: SimTime) {
        self.timeout = timeout;
        self.armed = true;
        self.expired = false;
        self.deadline = self.now.saturating_add(timeout);
    }

    /// Disarms; the deadline is withdrawn and expiry stays as-is.
    pub fn disarm(&mut self) {
        self.armed = false;
        self.deadline = SimTime::MAX;
    }

    /// Kicks: reloads the deadline from the configured timeout. A no-op
    /// when disarmed.
    pub fn kick(&mut self) {
        if self.armed {
            self.deadline = self.now.saturating_add(self.timeout);
            self.kicks += 1;
        }
    }

    /// `true` once the deadline has passed while armed (sticky).
    pub fn expired(&self) -> bool {
        self.expired
    }

    /// The pending deadline, or `None` when disarmed/expired — fed into
    /// the SoC's next-event computation so an idle (WFI) platform still
    /// advances time far enough for the dog to bite.
    pub fn deadline(&self) -> Option<SimTime> {
        (self.armed && !self.expired).then_some(self.deadline)
    }

    /// Number of successful kicks over the dog's lifetime.
    pub fn kicks(&self) -> u64 {
        self.kicks
    }

    /// Advances the watchdog's view of simulated time, latching expiry
    /// when the deadline has passed. Called by the SoC once per quantum.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
        if self.armed && !self.expired && now >= self.deadline {
            self.expired = true;
        }
    }
}

impl TlmTarget for Watchdog {
    fn transport(&mut self, p: &mut GenericPayload, _delay: &mut SimTime) {
        let addr = p.address();
        match p.command() {
            TlmCommand::Write => match addr {
                regs::TIMEOUT => {
                    self.timeout = SimTime::from_us(get_word(p).value() as u64);
                    p.set_response(TlmResponse::Ok);
                }
                regs::CTRL => {
                    if get_word(p).value() & 1 != 0 {
                        self.arm(self.timeout);
                    } else {
                        self.disarm();
                    }
                    p.set_response(TlmResponse::Ok);
                }
                regs::KICK => {
                    self.kick();
                    p.set_response(TlmResponse::Ok);
                }
                _ => p.set_response(TlmResponse::CommandError),
            },
            TlmCommand::Read => match addr {
                regs::TIMEOUT => {
                    put_word(p, Taint::untainted(self.timeout.as_us() as u32));
                    p.set_response(TlmResponse::Ok);
                }
                regs::CTRL => {
                    put_word(p, Taint::untainted(self.armed as u32));
                    p.set_response(TlmResponse::Ok);
                }
                regs::STATUS => {
                    put_word(p, Taint::untainted(self.expired as u32));
                    p.set_response(TlmResponse::Ok);
                }
                _ => p.set_response(TlmResponse::CommandError),
            },
            TlmCommand::Ignore => p.set_response(TlmResponse::Ok),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wr(w: &mut Watchdog, reg: u32, v: u32) {
        let mut p = GenericPayload::write_word(reg, Taint::untainted(v));
        w.transport(&mut p, &mut SimTime::ZERO.clone());
        assert!(p.is_ok());
    }

    fn rd(w: &mut Watchdog, reg: u32) -> u32 {
        let mut p = GenericPayload::read(reg, 4);
        w.transport(&mut p, &mut SimTime::ZERO.clone());
        assert!(p.is_ok());
        p.data_word::<u32>().value()
    }

    #[test]
    fn expires_only_when_armed_and_deadline_passes() {
        let mut w = Watchdog::new();
        w.set_now(SimTime::from_ms(100));
        assert!(!w.expired(), "disarmed dog never bites");
        w.arm(SimTime::from_ms(10));
        assert_eq!(w.deadline(), Some(SimTime::from_ms(110)));
        w.set_now(SimTime::from_ms(109));
        assert!(!w.expired());
        w.set_now(SimTime::from_ms(110));
        assert!(w.expired());
        assert_eq!(w.deadline(), None, "expired dog withdraws its deadline");
    }

    #[test]
    fn kick_reloads_the_deadline() {
        let mut w = Watchdog::new();
        w.arm(SimTime::from_ms(10));
        w.set_now(SimTime::from_ms(8));
        w.kick();
        assert_eq!(w.deadline(), Some(SimTime::from_ms(18)));
        w.set_now(SimTime::from_ms(15));
        assert!(!w.expired());
        assert_eq!(w.kicks(), 1);
        w.disarm();
        w.kick();
        assert_eq!(w.kicks(), 1, "kick is a no-op when disarmed");
        w.set_now(SimTime::from_s(10));
        assert!(!w.expired());
    }

    #[test]
    fn mmio_interface_arms_kicks_and_reports() {
        let mut w = Watchdog::new();
        wr(&mut w, regs::TIMEOUT, 500);
        assert_eq!(rd(&mut w, regs::TIMEOUT), 500);
        wr(&mut w, regs::CTRL, 1);
        assert_eq!(rd(&mut w, regs::CTRL), 1);
        assert_eq!(w.deadline(), Some(SimTime::from_us(500)));
        w.set_now(SimTime::from_us(400));
        wr(&mut w, regs::KICK, 0);
        assert_eq!(w.deadline(), Some(SimTime::from_us(900)));
        w.set_now(SimTime::from_us(900));
        assert_eq!(rd(&mut w, regs::STATUS), 1);
        // Re-arming clears the sticky expiry.
        wr(&mut w, regs::CTRL, 1);
        assert_eq!(rd(&mut w, regs::STATUS), 0);
        wr(&mut w, regs::CTRL, 0);
        assert_eq!(rd(&mut w, regs::CTRL), 0);
    }

    #[test]
    fn unknown_register_is_a_command_error() {
        let mut w = Watchdog::new();
        let mut p = GenericPayload::write_word(0x40, Taint::untainted(1));
        w.transport(&mut p, &mut SimTime::ZERO.clone());
        assert_eq!(p.response(), TlmResponse::CommandError);
    }
}

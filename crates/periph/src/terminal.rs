//! Terminal / serial-console *input* device.
//!
//! This is the attacker-facing input port of the threat model: every byte
//! the host test bench feeds in is classified with the device's input tag
//! (typically low-integrity `LI`), so injected data is tainted from the
//! moment it enters the system.

use std::collections::VecDeque;

use vpdift_core::{Tag, Taint};
use vpdift_kernel::SimTime;
use vpdift_obs::{DynObs, ObsEvent};
use vpdift_tlm::{GenericPayload, Loan, TlmCommand, TlmResponse, TlmTarget};

/// Register map (word-aligned offsets).
pub mod regs {
    /// Read: pop one received byte (bit 31 set when the FIFO was empty).
    pub const RXDATA: u32 = 0x0;
    /// Read: number of buffered bytes.
    pub const RXAVAIL: u32 = 0x4;
}

/// Sentinel value returned by an `RXDATA` read on an empty FIFO.
pub const RX_EMPTY: u32 = 0x8000_0000;

/// The console-input model.
pub struct Terminal {
    name: String,
    input_tag: Tag,
    fifo: VecDeque<u8>,
}

impl std::fmt::Debug for Terminal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Terminal")
            .field("name", &self.name)
            .field("input_tag", &self.input_tag)
            .field("buffered", &self.fifo.len())
            .finish()
    }
}

impl Terminal {
    /// Creates a terminal whose incoming bytes are classified `input_tag`
    /// (wire it from `policy.source_tag("<name>.rx")`).
    pub fn new(name: &str, input_tag: Tag) -> Self {
        Terminal { name: name.to_owned(), input_tag, fifo: VecDeque::new() }
    }

    /// Instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The classification applied to incoming bytes.
    pub fn input_tag(&self) -> Tag {
        self.input_tag
    }

    /// Host-side: feeds bytes into the receive FIFO (the attacker's
    /// keyboard).
    pub fn feed(&mut self, bytes: &[u8]) {
        self.fifo.extend(bytes);
    }

    /// Buffered byte count.
    pub fn available(&self) -> usize {
        self.fifo.len()
    }
}

use crate::mmio::put_word as write_word;

impl Terminal {
    /// Serves one register access; a byte popped from the FIFO is reported
    /// to `obs`, if any, as classified.
    fn access(&mut self, p: &mut GenericPayload, obs: Option<&mut (dyn DynObs + 'static)>) {
        match (p.command(), p.address()) {
            (TlmCommand::Read, regs::RXDATA) => {
                let word = match self.fifo.pop_front() {
                    Some(b) => {
                        if let (Some(obs), false) = (obs, self.input_tag.is_empty()) {
                            obs.dyn_event(&ObsEvent::Classify {
                                source: format!("{}.rx", self.name),
                                tag: self.input_tag,
                                addr: None,
                            });
                        }
                        Taint::new(b as u32, self.input_tag)
                    }
                    None => Taint::untainted(RX_EMPTY),
                };
                write_word(p, word);
                p.set_response(TlmResponse::Ok);
            }
            (TlmCommand::Read, regs::RXAVAIL) => {
                write_word(p, Taint::untainted(self.fifo.len() as u32));
                p.set_response(TlmResponse::Ok);
            }
            _ => p.set_response(TlmResponse::CommandError),
        }
    }
}

impl TlmTarget for Terminal {
    fn transport(&mut self, p: &mut GenericPayload, _delay: &mut SimTime) {
        self.access(p, None);
    }

    /// Reports each byte the guest reads to the lent sink.
    fn transport_with(
        &mut self,
        p: &mut GenericPayload,
        _delay: &mut SimTime,
        loan: &mut Loan<'_>,
    ) {
        self.access(p, loan.obs.as_deref_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LI: Tag = Tag::from_bits(0b10);

    fn read_reg(t: &mut Terminal, reg: u32) -> Taint<u32> {
        let mut p = GenericPayload::read(reg, 4);
        t.transport(&mut p, &mut SimTime::ZERO.clone());
        assert!(p.is_ok());
        p.data_word()
    }

    #[test]
    fn fed_bytes_come_back_classified() {
        let mut t = Terminal::new("terminal", LI);
        t.feed(b"AB");
        assert_eq!(t.available(), 2);
        assert_eq!(read_reg(&mut t, regs::RXAVAIL).value(), 2);
        let a = read_reg(&mut t, regs::RXDATA);
        assert_eq!(a.value(), b'A' as u32);
        assert_eq!(a.tag(), LI, "input data is classified at the source");
        let b = read_reg(&mut t, regs::RXDATA);
        assert_eq!(b.value(), b'B' as u32);
        assert_eq!(t.available(), 0);
    }

    #[test]
    fn empty_fifo_returns_sentinel_untainted() {
        let mut t = Terminal::new("terminal", LI);
        let w = read_reg(&mut t, regs::RXDATA);
        assert_eq!(w.value(), RX_EMPTY);
        assert_eq!(w.tag(), Tag::EMPTY);
        assert_eq!(t.input_tag(), LI);
        assert_eq!(t.name(), "terminal");
    }

    #[test]
    fn writes_rejected() {
        let mut t = Terminal::new("terminal", LI);
        let mut p = GenericPayload::write(regs::RXDATA, &[Taint::untainted(0)]);
        t.transport(&mut p, &mut SimTime::ZERO.clone());
        assert_eq!(p.response(), TlmResponse::CommandError);
    }
}

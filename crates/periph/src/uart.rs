//! UART transmitter — the VP's clearance-checked output interface.
//!
//! Every byte written to `TXDATA` is checked against the policy clearance
//! of the sink `"<name>.tx"` before it "leaves the system"; secret data
//! hitting the UART is exactly the paper's immobilizer debug-dump leak.

use vpdift_kernel::SimTime;
use vpdift_tlm::{GenericPayload, Loan, TlmCommand, TlmResponse, TlmTarget};

/// Register map (word-aligned offsets).
pub mod regs {
    /// Write: transmit one byte (low 8 bits of the access).
    pub const TXDATA: u32 = 0x0;
    /// Read: transmitter status; bit 0 = ready (always set in this model).
    pub const TXSTATUS: u32 = 0x4;
}

/// The UART model. It checks each byte with the engine lent to the
/// transaction ([`Loan::check_output`]).
#[derive(Debug)]
pub struct Uart {
    name: String,
    sink: String,
    tx_log: Vec<u8>,
}

impl Uart {
    /// Creates a UART named `name`; its output sink is `"<name>.tx"`.
    pub fn new(name: &str) -> Self {
        Uart { name: name.to_owned(), sink: format!("{name}.tx"), tx_log: Vec::new() }
    }

    /// Instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bytes transmitted so far (only bytes that passed the clearance
    /// check reach the log — blocked bytes never left the system).
    pub fn output(&self) -> &[u8] {
        &self.tx_log
    }

    /// Transmitted bytes as a lossy string.
    pub fn output_string(&self) -> String {
        String::from_utf8_lossy(&self.tx_log).into_owned()
    }

    /// Drains the transmit log.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.tx_log)
    }
}

impl TlmTarget for Uart {
    fn transport(&mut self, p: &mut GenericPayload, _delay: &mut SimTime, loan: &mut Loan<'_>) {
        match (p.command(), p.address()) {
            (TlmCommand::Write, regs::TXDATA) => {
                let byte = p.data()[0];
                match loan.check_output(&self.sink, byte.tag()) {
                    Ok(()) => {
                        self.tx_log.push(byte.value());
                        p.set_response(TlmResponse::Ok);
                    }
                    Err(v) => p.set_violation(v),
                }
            }
            (TlmCommand::Read, regs::TXSTATUS) => {
                p.data_mut()[0] = vpdift_core::Taint::untainted(1);
                for b in &mut p.data_mut()[1..] {
                    *b = vpdift_core::Taint::untainted(0);
                }
                p.set_response(TlmResponse::Ok);
            }
            (TlmCommand::Read, regs::TXDATA) => {
                for b in p.data_mut() {
                    *b = vpdift_core::Taint::untainted(0);
                }
                p.set_response(TlmResponse::Ok);
            }
            _ => p.set_response(TlmResponse::CommandError),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmio::tests::lend_engine;
    use vpdift_core::{DiftEngine, SecurityPolicy, Tag, Taint, ViolationKind};

    const SECRET: Tag = Tag::from_bits(1);

    fn uart() -> (Uart, DiftEngine) {
        let policy = SecurityPolicy::builder("t").sink("uart0.tx", Tag::EMPTY).build();
        (Uart::new("uart0"), DiftEngine::new(policy))
    }

    fn tx(u: &mut Uart, engine: &mut DiftEngine, byte: Taint<u8>) -> GenericPayload {
        let mut p = GenericPayload::write(regs::TXDATA, &[byte]);
        lend_engine(u, &mut p, engine);
        p
    }

    #[test]
    fn public_bytes_pass() {
        let (mut u, mut engine) = uart();
        for &b in b"hi" {
            assert!(tx(&mut u, &mut engine, Taint::untainted(b)).is_ok());
        }
        assert_eq!(u.output_string(), "hi");
        assert_eq!(u.name(), "uart0");
    }

    #[test]
    fn secret_byte_blocked_with_violation() {
        let (mut u, mut engine) = uart();
        let mut p = tx(&mut u, &mut engine, Taint::new(b'X', SECRET));
        let v = p.take_violation().expect("violation attached");
        assert_eq!(v.kind, ViolationKind::Output { sink: "uart0.tx".into() });
        assert!(u.output().is_empty(), "blocked byte never transmitted");
        assert!(engine.violated());
    }

    #[test]
    fn status_reads_ready() {
        let (mut u, mut engine) = uart();
        let mut p = GenericPayload::read(regs::TXSTATUS, 4);
        lend_engine(&mut u, &mut p, &mut engine);
        assert!(p.is_ok());
        assert_eq!(p.data_word::<u32>().value(), 1);
    }

    #[test]
    fn take_output_drains() {
        let (mut u, mut engine) = uart();
        let _ = tx(&mut u, &mut engine, Taint::untainted(b'a'));
        assert_eq!(u.take_output(), b"a");
        assert!(u.output().is_empty());
    }

    #[test]
    fn unknown_register_is_command_error() {
        let (mut u, mut engine) = uart();
        let mut p = GenericPayload::write(0x40, &[Taint::untainted(0)]);
        lend_engine(&mut u, &mut p, &mut engine);
        assert_eq!(p.response(), TlmResponse::CommandError);
    }
}

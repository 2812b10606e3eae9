//! CAN controller and the wire it owns — the immobilizer's link to the
//! engine ECU.
//!
//! The model is frame-based: the SoC-side [`CanController`] owns a
//! point-to-point wire whose host side, a [`CanHostEndpoint`], it lends to
//! the scripted engine ECU of the case study between runs
//! ([`CanController::host`]). Transmission is clearance-checked at the
//! `"<name>.tx"` sink — secret data cannot leave on the CAN bus — and every
//! received byte is classified with the controller's input tag.

use std::collections::VecDeque;

use vpdift_core::{Tag, Taint};
use vpdift_kernel::SimTime;
use vpdift_tlm::{GenericPayload, Loan, TlmCommand, TlmResponse, TlmTarget};

use crate::mmio::{get_word, put_word, report_rx};

/// A CAN frame: identifier plus up to 8 tagged data bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanFrame {
    /// Frame identifier.
    pub id: u32,
    /// Number of valid data bytes (0..=8).
    pub dlc: u8,
    /// Tagged payload.
    pub data: [Taint<u8>; 8],
}

impl CanFrame {
    /// Builds a frame from untagged bytes.
    ///
    /// # Panics
    /// Panics if `bytes.len() > 8`.
    pub fn new(id: u32, bytes: &[u8]) -> Self {
        assert!(bytes.len() <= 8, "CAN frames carry at most 8 bytes");
        let mut data = [Taint::untainted(0); 8];
        for (d, &b) in data.iter_mut().zip(bytes) {
            *d = Taint::untainted(b);
        }
        CanFrame { id, dlc: bytes.len() as u8, data }
    }

    /// The valid payload bytes (values only).
    pub fn bytes(&self) -> Vec<u8> {
        self.data[..self.dlc as usize].iter().map(|b| b.value()).collect()
    }
}

/// The point-to-point CAN wire as the host (the scripted remote ECU) sees
/// it: both directions' queues and the faults armed on the wire
/// ([`CanHostEndpoint::arm_drop`], [`CanHostEndpoint::arm_corrupt`]). A
/// [`CanController`] owns it and lends it out ([`CanController::host`]).
#[derive(Debug, Default)]
pub struct CanHostEndpoint {
    to_host: VecDeque<CanFrame>,
    to_device: VecDeque<CanFrame>,
    /// Frames the wire still loses.
    drops: u32,
    /// Whether the wire flips bit 0 of byte 0 of the next frame with data
    /// it delivers.
    corrupt: bool,
}

impl CanHostEndpoint {
    /// Puts `frame` on the wire towards the VP (`to_device`) or the host.
    /// While armed drops remain the wire loses the frame (`false`);
    /// otherwise an armed corruption disturbs it if it carries data.
    fn transmit(&mut self, mut frame: CanFrame, to_device: bool) -> bool {
        if self.drops > 0 {
            self.drops -= 1;
            return false;
        }
        if self.corrupt && frame.dlc > 0 {
            self.corrupt = false;
            frame.data[0] = frame.data[0].map(|v| v ^ 0x01);
        }
        let queue = if to_device { &mut self.to_device } else { &mut self.to_host };
        queue.push_back(frame);
        true
    }

    /// Sends a frame towards the VP. Returns `true` when the frame made it
    /// onto the wire — an armed drop loses it (`false`). On a fault-free
    /// link this never fails.
    pub fn send(&mut self, frame: CanFrame) -> bool {
        self.transmit(frame, true)
    }

    /// Sends a frame with bounded retry: re-attempts a dropped frame up to
    /// `max_attempts` times in total, backing off by re-entering the
    /// (fault) line each attempt. Returns the number of attempts used when
    /// the frame was delivered, or `None` when every attempt was lost.
    ///
    /// The channel is untimed on the host side, so "backoff" here is
    /// attempt-bounded rather than timed — the graceful-degradation
    /// contract is that injected frame loss costs retries, never a hang.
    pub fn send_with_retry(&mut self, frame: CanFrame, max_attempts: u32) -> Option<u32> {
        (1..=max_attempts).find(|_| self.send(frame.clone()))
    }

    /// Arms the wire to lose the next `n` frames, in either direction, on
    /// top of drops still pending.
    pub fn arm_drop(&mut self, n: u32) {
        self.drops = self.drops.saturating_add(n);
    }

    /// Arms the wire to flip bit 0 of byte 0 of the next frame with data
    /// it delivers, in either direction (one-shot).
    pub fn arm_corrupt(&mut self) {
        self.corrupt = true;
    }

    /// Receives the next frame transmitted by the VP, if any.
    pub fn recv(&mut self) -> Option<CanFrame> {
        self.to_host.pop_front()
    }

    /// Frames waiting for the host.
    pub fn pending(&self) -> usize {
        self.to_host.len()
    }
}

/// Register map (word-aligned offsets).
pub mod regs {
    /// Write: transmit frame identifier.
    pub const TX_ID: u32 = 0x00;
    /// Write: transmit DLC (payload length 0..=8).
    pub const TX_DLC: u32 = 0x04;
    /// Write window: transmit payload bytes `TX_DATA .. TX_DATA+8`.
    pub const TX_DATA: u32 = 0x08;
    /// Write 1: send the staged frame (clearance-checked).
    pub const TX_GO: u32 = 0x10;
    /// Read: number of received frames waiting.
    pub const RX_AVAIL: u32 = 0x20;
    /// Read: identifier of the head frame.
    pub const RX_ID: u32 = 0x24;
    /// Read: DLC of the head frame.
    pub const RX_DLC: u32 = 0x28;
    /// Read window: payload of the head frame `RX_DATA .. RX_DATA+8`.
    pub const RX_DATA: u32 = 0x2C;
    /// Write 1: pop the head frame.
    pub const RX_POP: u32 = 0x34;
}

/// The SoC-side CAN controller and the wire it owns. It checks
/// transmitted frames with the engine lent to the transaction
/// ([`Loan::check_output`]) and reports what it classifies to the lent
/// sink ([`Loan::emit`]).
#[derive(Debug)]
pub struct CanController {
    name: String,
    sink: String,
    input_tag: Tag,
    wire: CanHostEndpoint,
    tx_id: u32,
    tx_dlc: u8,
    tx_data: [Taint<u8>; 8],
    frames_sent: u64,
}

impl CanController {
    /// Creates a controller named `name` on an empty wire: TX clearance is
    /// checked against the sink `"<name>.tx"`, and bytes received from the
    /// wire are classified `input_tag`.
    pub fn new(name: &str, input_tag: Tag) -> Self {
        CanController {
            name: name.to_owned(),
            sink: format!("{name}.tx"),
            input_tag,
            wire: CanHostEndpoint::default(),
            tx_id: 0,
            tx_dlc: 0,
            tx_data: [Taint::untainted(0); 8],
            frames_sent: 0,
        }
    }

    /// Instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Frames transmitted successfully.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// The host side of the wire (the remote ECU's end).
    pub fn host(&mut self) -> &mut CanHostEndpoint {
        &mut self.wire
    }

    /// The RX interrupt level: `true` while host-sent frames wait (the
    /// SoC polls it when it samples interrupt levels).
    pub fn rx_pending(&self) -> bool {
        !self.wire.to_device.is_empty()
    }
}

impl TlmTarget for CanController {
    fn transport(&mut self, p: &mut GenericPayload, _delay: &mut SimTime, loan: &mut Loan<'_>) {
        let addr = p.address();
        match p.command() {
            TlmCommand::Write => match addr {
                regs::TX_ID => {
                    self.tx_id = get_word(p).value();
                    p.set_response(TlmResponse::Ok);
                }
                regs::TX_DLC => {
                    self.tx_dlc = (get_word(p).value() & 0xF).min(8) as u8;
                    p.set_response(TlmResponse::Ok);
                }
                a if (regs::TX_DATA..regs::TX_DATA + 8).contains(&a) => {
                    let idx = (a - regs::TX_DATA) as usize;
                    let end = idx + p.len();
                    if end > 8 {
                        p.set_response(TlmResponse::BurstError);
                        return;
                    }
                    for (i, b) in p.data().iter().enumerate() {
                        self.tx_data[idx + i] = *b;
                    }
                    p.set_response(TlmResponse::Ok);
                }
                regs::TX_GO => {
                    // Clearance check on every payload byte (output).
                    let tag = self.tx_data[..self.tx_dlc as usize]
                        .iter()
                        .fold(Tag::EMPTY, |acc, b| acc.lub(b.tag()));
                    match loan.check_output(&self.sink, tag) {
                        Ok(()) => {
                            let frame =
                                CanFrame { id: self.tx_id, dlc: self.tx_dlc, data: self.tx_data };
                            // The wire may corrupt or lose the frame; the
                            // controller has done its part either way.
                            self.wire.transmit(frame, false);
                            self.frames_sent += 1;
                            p.set_response(TlmResponse::Ok);
                        }
                        Err(v) => p.set_violation(v),
                    }
                }
                regs::RX_POP => {
                    self.wire.to_device.pop_front();
                    p.set_response(TlmResponse::Ok);
                }
                _ => p.set_response(TlmResponse::CommandError),
            },
            TlmCommand::Read => match addr {
                regs::RX_AVAIL => {
                    let n = self.wire.to_device.len() as u32;
                    put_word(p, Taint::untainted(n));
                    p.set_response(TlmResponse::Ok);
                }
                regs::RX_ID => {
                    let id = self.wire.to_device.front().map_or(0, |f| f.id);
                    report_rx(loan, &self.name, self.input_tag);
                    put_word(p, Taint::new(id, self.input_tag));
                    p.set_response(TlmResponse::Ok);
                }
                regs::RX_DLC => {
                    let dlc = self.wire.to_device.front().map_or(0, |f| f.dlc as u32);
                    report_rx(loan, &self.name, self.input_tag);
                    put_word(p, Taint::new(dlc, self.input_tag));
                    p.set_response(TlmResponse::Ok);
                }
                a if (regs::RX_DATA..regs::RX_DATA + 8).contains(&a) => {
                    let idx = (a - regs::RX_DATA) as usize;
                    if idx + p.len() > 8 {
                        p.set_response(TlmResponse::BurstError);
                        return;
                    }
                    let head = self.wire.to_device.front();
                    let mut read_tag = Tag::EMPTY;
                    for (i, lane) in p.data_mut().iter_mut().enumerate() {
                        *lane = match head {
                            // Incoming frames are re-classified at the input
                            // boundary: data from the bus is only as
                            // trustworthy as the policy says.
                            Some(f) => f.data[idx + i].with_tag_lub(self.input_tag),
                            None => Taint::untainted(0),
                        };
                        read_tag = read_tag.lub(lane.tag());
                    }
                    report_rx(loan, &self.name, read_tag);
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
    use crate::mmio::tests::lend_engine;
    use vpdift_core::{DiftEngine, SecurityPolicy, ViolationKind};

    const SECRET: Tag = Tag::from_bits(0b01);
    const UNTRUSTED: Tag = Tag::from_bits(0b10);

    /// A controller with the engine a router would lend it.
    struct Ctl {
        c: CanController,
        engine: DiftEngine,
    }

    impl Ctl {
        fn transport(&mut self, p: &mut GenericPayload) {
            lend_engine(&mut self.c, p, &mut self.engine);
        }
    }

    fn controller() -> Ctl {
        let policy = SecurityPolicy::builder("t").sink("can0.tx", UNTRUSTED).build();
        Ctl { c: CanController::new("can0", UNTRUSTED), engine: DiftEngine::new(policy) }
    }

    fn wr(c: &mut Ctl, reg: u32, v: Taint<u32>) -> GenericPayload {
        let mut p = GenericPayload::write_word(reg, v);
        c.transport(&mut p);
        p
    }

    fn rd(c: &mut Ctl, reg: u32) -> Taint<u32> {
        let mut p = GenericPayload::read(reg, 4);
        c.transport(&mut p);
        assert!(p.is_ok(), "read of {reg:#x}");
        p.data_word()
    }

    #[test]
    fn transmit_reaches_host() {
        let mut c = controller();
        wr(&mut c, regs::TX_ID, Taint::untainted(0x123));
        wr(&mut c, regs::TX_DLC, Taint::untainted(2));
        let mut p =
            GenericPayload::write(regs::TX_DATA, &[Taint::untainted(0xAA), Taint::untainted(0xBB)]);
        c.transport(&mut p);
        assert!(wr(&mut c, regs::TX_GO, Taint::untainted(1)).is_ok());
        let f = c.c.host().recv().expect("frame delivered");
        assert_eq!(f.id, 0x123);
        assert_eq!(f.bytes(), vec![0xAA, 0xBB]);
        assert_eq!(c.c.frames_sent(), 1);
        assert_eq!(c.c.host().pending(), 0);
    }

    #[test]
    fn secret_payload_blocked_at_tx() {
        let mut c = controller();
        wr(&mut c, regs::TX_DLC, Taint::untainted(1));
        let mut p = GenericPayload::write(regs::TX_DATA, &[Taint::new(0x42, SECRET)]);
        c.transport(&mut p);
        let mut go = wr(&mut c, regs::TX_GO, Taint::untainted(1));
        let v = go.take_violation().expect("violation");
        assert_eq!(v.kind, ViolationKind::Output { sink: "can0.tx".into() });
        assert!(c.c.host().recv().is_none(), "secret frame never left");
    }

    #[test]
    fn receive_classifies_input() {
        let mut c = controller();
        c.c.host().send(CanFrame::new(0x7FF, &[1, 2, 3, 4]));
        assert_eq!(rd(&mut c, regs::RX_AVAIL).value(), 1);
        assert_eq!(rd(&mut c, regs::RX_ID).value(), 0x7FF);
        assert_eq!(rd(&mut c, regs::RX_DLC).value(), 4);
        let mut p = GenericPayload::read(regs::RX_DATA, 4);
        c.transport(&mut p);
        assert_eq!(p.data_values(), vec![1, 2, 3, 4]);
        assert!(p.data().iter().all(|b| b.tag() == UNTRUSTED));
        wr(&mut c, regs::RX_POP, Taint::untainted(1));
        assert_eq!(rd(&mut c, regs::RX_AVAIL).value(), 0);
    }

    #[test]
    fn rx_irq_polling() {
        let mut c = controller();
        assert!(!c.c.rx_pending());
        c.c.host().send(CanFrame::new(1, &[0]));
        assert!(c.c.rx_pending(), "a waiting frame asserts the level");
        wr(&mut c, regs::RX_POP, Taint::untainted(1));
        assert!(!c.c.rx_pending(), "popping the last frame drops it");
    }

    #[test]
    fn empty_rx_reads_zero() {
        let mut c = controller();
        assert_eq!(rd(&mut c, regs::RX_ID).value(), 0);
        assert_eq!(rd(&mut c, regs::RX_DLC).value(), 0);
        assert_eq!(c.c.name(), "can0");
    }

    #[test]
    fn armed_drops_lose_frames_and_send_reports_it() {
        let mut host = CanHostEndpoint::default();
        host.arm_drop(2);
        assert!(!host.send(CanFrame::new(1, &[0xAA])), "first frame lost");
        assert!(!host.send(CanFrame::new(1, &[0xAA])), "second frame lost");
        assert!(host.send(CanFrame::new(1, &[0xAA])));
        assert!(host.send(CanFrame::new(2, &[0xBB])), "drops spent: a perfect wire again");
    }

    #[test]
    fn send_with_retry_survives_bounded_loss() {
        let mut host = CanHostEndpoint::default();
        host.arm_drop(2);
        assert_eq!(host.send_with_retry(CanFrame::new(7, &[1]), 5), Some(3), "third attempt lands");
        // Total loss within the attempt budget is reported, not retried forever.
        host.arm_drop(100);
        assert_eq!(host.send_with_retry(CanFrame::new(7, &[1]), 4), None);
    }

    #[test]
    fn armed_wire_drops_then_corrupts_once_in_either_direction() {
        let mut c = controller();
        let host = c.c.host();
        host.arm_drop(2);
        host.arm_corrupt();
        assert!(!host.send(CanFrame::new(1, &[0x40])));
        assert!(!host.send(CanFrame::new(1, &[0x40])));
        assert!(host.send(CanFrame::new(1, &[])), "third frame survives");
        assert!(host.send(CanFrame::new(1, &[0x40])));
        wr(&mut c, regs::RX_POP, Taint::untainted(1)); // the empty frame
        let mut p = GenericPayload::read(regs::RX_DATA, 1);
        c.transport(&mut p);
        assert_eq!(p.data_values(), vec![0x41], "the first frame with data is corrupted");
        wr(&mut c, regs::TX_DLC, Taint::untainted(1));
        let mut p = GenericPayload::write(regs::TX_DATA, &[Taint::untainted(0x40)]);
        c.transport(&mut p);
        assert!(wr(&mut c, regs::TX_GO, Taint::untainted(1)).is_ok());
        let f = c.c.host().recv().expect("delivered");
        assert_eq!(f.bytes(), vec![0x40], "corruption was one-shot");
    }

    #[test]
    fn armed_corruption_disturbs_device_tx_but_send_still_counts() {
        let mut c = controller();
        c.c.host().arm_corrupt();
        wr(&mut c, regs::TX_DLC, Taint::untainted(1));
        let mut p = GenericPayload::write(regs::TX_DATA, &[Taint::untainted(0xAA)]);
        c.transport(&mut p);
        assert!(wr(&mut c, regs::TX_GO, Taint::untainted(1)).is_ok());
        assert_eq!(c.c.frames_sent(), 1);
        let f = c.c.host().recv().expect("corrupted, not lost");
        assert_eq!(f.bytes(), vec![0xAB], "bit 0 flipped on the wire");
    }

    #[test]
    fn line_loss_is_invisible_to_the_device() {
        let mut c = controller();
        c.c.host().arm_drop(1);
        wr(&mut c, regs::TX_DLC, Taint::untainted(1));
        let mut p = GenericPayload::write(regs::TX_DATA, &[Taint::untainted(0x42)]);
        c.transport(&mut p);
        assert!(wr(&mut c, regs::TX_GO, Taint::untainted(1)).is_ok(), "TX_GO still succeeds");
        assert_eq!(c.c.frames_sent(), 1, "the controller believes it transmitted");
        assert!(c.c.host().recv().is_none(), "but the wire ate the frame");
    }
}

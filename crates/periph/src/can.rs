//! CAN controller and bus channel — the immobilizer's link to the engine
//! ECU.
//!
//! The model is frame-based: a [`CanChannel`] couples the SoC-side
//! [`CanController`] with a host-side [`CanHostEndpoint`] (the scripted
//! engine ECU of the case study). Transmission is clearance-checked at the
//! `"<name>.tx"` sink — secret data cannot leave on the CAN bus — and every
//! received byte is classified with the controller's input tag.

use std::collections::VecDeque;
use vpdift_sync::Shared;

use vpdift_core::{Tag, Taint};
use vpdift_kernel::SimTime;
use vpdift_tlm::{GenericPayload, Loan, TlmCommand, TlmResponse, TlmTarget};

use crate::mmio::{get_word, put_word};

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

/// A line-level fault model for a CAN link: consulted for every frame
/// entering the wire in either direction. Implementations may mutate the
/// frame (bit corruption) and return `false` to drop it entirely.
pub trait CanLineFault: Send + Sync {
    /// `frame` is about to be put on the wire; `to_device` is `true` for
    /// host→VP traffic. Return `false` to lose the frame.
    fn on_frame(&mut self, frame: &mut CanFrame, to_device: bool) -> bool;
}

/// A line-fault model as shared with a [`CanChannel`].
pub type SharedCanLine = Shared<dyn CanLineFault>;

/// The two directions of a point-to-point CAN link.
#[derive(Default)]
struct ChannelState {
    to_host: VecDeque<CanFrame>,
    to_device: VecDeque<CanFrame>,
    line_fault: Option<SharedCanLine>,
}

impl core::fmt::Debug for ChannelState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ChannelState")
            .field("to_host", &self.to_host)
            .field("to_device", &self.to_device)
            .field("line_fault", &self.line_fault.is_some())
            .finish()
    }
}

/// Applies the channel's line-fault model to `frame`; `true` = deliver.
/// The hook handle is cloned out first so the model may inspect the
/// channel without a double borrow.
fn apply_line_fault(state: &Shared<ChannelState>, frame: &mut CanFrame, to_device: bool) -> bool {
    let hook = state.borrow().line_fault.clone();
    match hook {
        Some(h) => h.borrow_mut().on_frame(frame, to_device),
        None => true,
    }
}

/// A shared CAN link between the VP's controller and a host endpoint.
#[derive(Debug, Clone, Default)]
pub struct CanChannel {
    state: Shared<ChannelState>,
}

impl CanChannel {
    /// Creates an empty link.
    pub fn new() -> Self {
        Self::default()
    }

    /// The host side of the link.
    pub fn host_endpoint(&self) -> CanHostEndpoint {
        CanHostEndpoint { state: Shared::clone(&self.state) }
    }
}

/// Host-side access to the CAN link (the scripted remote ECU).
#[derive(Debug, Clone)]
pub struct CanHostEndpoint {
    state: Shared<ChannelState>,
}

impl CanHostEndpoint {
    /// Sends a frame towards the VP. Returns `true` when the frame made it
    /// onto the wire — an installed line-fault model may corrupt or drop
    /// it (`false`). On a fault-free link this never fails.
    pub fn send(&self, frame: CanFrame) -> bool {
        let mut frame = frame;
        if !apply_line_fault(&self.state, &mut frame, true) {
            return false;
        }
        self.state.borrow_mut().to_device.push_back(frame);
        true
    }

    /// Sends a frame with bounded retry: re-attempts a dropped frame up to
    /// `max_attempts` times in total, backing off by re-entering the
    /// (fault) line each attempt. Returns the number of attempts used when
    /// the frame was delivered, or `None` when every attempt was lost.
    ///
    /// The channel is untimed on the host side, so "backoff" here is
    /// attempt-bounded rather than timed — the graceful-degradation
    /// contract is that injected frame loss costs retries, never a hang.
    pub fn send_with_retry(&self, frame: CanFrame, max_attempts: u32) -> Option<u32> {
        (1..=max_attempts).find(|_| self.send(frame.clone()))
    }

    /// Installs a line-level fault model (frame corruption/loss) on the
    /// link; both directions pass through it.
    pub fn set_line_fault(&self, fault: SharedCanLine) {
        self.state.borrow_mut().line_fault = Some(fault);
    }

    /// Removes the line-fault model; the wire is perfect again.
    pub fn clear_line_fault(&self) {
        self.state.borrow_mut().line_fault = None;
    }

    /// Receives the next frame transmitted by the VP, if any.
    pub fn recv(&self) -> Option<CanFrame> {
        self.state.borrow_mut().to_host.pop_front()
    }

    /// Frames waiting for the host.
    pub fn pending(&self) -> usize {
        self.state.borrow().to_host.len()
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

/// The SoC-side CAN controller. It checks transmitted frames with the
/// engine lent to the transaction ([`TlmTarget::transport_with`]).
#[derive(Debug)]
pub struct CanController {
    name: String,
    sink: String,
    input_tag: Tag,
    channel: CanChannel,
    tx_id: u32,
    tx_dlc: u8,
    tx_data: [Taint<u8>; 8],
    frames_sent: u64,
}

impl CanController {
    /// Creates a controller named `name`: TX clearance is checked against
    /// the sink `"<name>.tx"`, and bytes received from the link are
    /// classified `input_tag`.
    pub fn new(name: &str, input_tag: Tag, channel: CanChannel) -> Self {
        CanController {
            name: name.to_owned(),
            sink: format!("{name}.tx"),
            input_tag,
            channel,
            tx_id: 0,
            tx_dlc: 0,
            tx_data: [Taint::untainted(0); 8],
            frames_sent: 0,
        }
    }

    /// Reports classification of data read from the RX side to the lent
    /// sink.
    fn obs_classify(&self, loan: &mut Loan<'_>, tag: Tag) {
        if !tag.is_empty() {
            loan.emit(|| vpdift_obs::ObsEvent::Classify {
                source: format!("{}.rx", self.name),
                tag,
                addr: None,
            });
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

    /// The RX interrupt level: `true` while host-sent frames wait (the
    /// SoC polls it when it samples interrupt levels).
    pub fn rx_pending(&self) -> bool {
        !self.channel.state.borrow().to_device.is_empty()
    }

    fn head<R>(&self, f: impl FnOnce(Option<&CanFrame>) -> R) -> R {
        let st = self.channel.state.borrow();
        f(st.to_device.front())
    }
}

impl TlmTarget for CanController {
    /// Unlent, no engine can clear a frame: the transaction is refused.
    fn transport(&mut self, p: &mut GenericPayload, _delay: &mut SimTime) {
        p.set_response(TlmResponse::GenericError);
    }

    fn transport_with(
        &mut self,
        p: &mut GenericPayload,
        _delay: &mut SimTime,
        loan: &mut Loan<'_>,
    ) {
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
                    match loan.check_output(&self.sink, tag, None) {
                        Ok(()) => {
                            let mut frame =
                                CanFrame { id: self.tx_id, dlc: self.tx_dlc, data: self.tx_data };
                            // The wire may corrupt or lose the frame; the
                            // controller has done its part either way.
                            if apply_line_fault(&self.channel.state, &mut frame, false) {
                                self.channel.state.borrow_mut().to_host.push_back(frame);
                            }
                            self.frames_sent += 1;
                            p.set_response(TlmResponse::Ok);
                        }
                        Err(v) => p.set_violation(v),
                    }
                }
                regs::RX_POP => {
                    self.channel.state.borrow_mut().to_device.pop_front();
                    p.set_response(TlmResponse::Ok);
                }
                _ => p.set_response(TlmResponse::CommandError),
            },
            TlmCommand::Read => match addr {
                regs::RX_AVAIL => {
                    let n = self.channel.state.borrow().to_device.len() as u32;
                    put_word(p, Taint::untainted(n));
                    p.set_response(TlmResponse::Ok);
                }
                regs::RX_ID => {
                    let id = self.head(|f| f.map_or(0, |f| f.id));
                    self.obs_classify(loan, self.input_tag);
                    put_word(p, Taint::new(id, self.input_tag));
                    p.set_response(TlmResponse::Ok);
                }
                regs::RX_DLC => {
                    let dlc = self.head(|f| f.map_or(0, |f| f.dlc as u32));
                    self.obs_classify(loan, self.input_tag);
                    put_word(p, Taint::new(dlc, self.input_tag));
                    p.set_response(TlmResponse::Ok);
                }
                a if (regs::RX_DATA..regs::RX_DATA + 8).contains(&a) => {
                    let idx = (a - regs::RX_DATA) as usize;
                    if idx + p.len() > 8 {
                        p.set_response(TlmResponse::BurstError);
                        return;
                    }
                    let input_tag = self.input_tag;
                    let bytes: Vec<Taint<u8>> = self.head(|f| {
                        (0..p.len())
                            .map(|i| match f {
                                // Incoming frames are re-classified at the
                                // input boundary: data from the bus is only
                                // as trustworthy as the policy says.
                                Some(f) => Taint::new(
                                    f.data[idx + i].value(),
                                    f.data[idx + i].tag().lub(input_tag),
                                ),
                                None => Taint::untainted(0),
                            })
                            .collect()
                    });
                    let read_tag = bytes.iter().fold(Tag::EMPTY, |t, b| t.lub(b.tag()));
                    self.obs_classify(loan, read_tag);
                    p.data_mut().copy_from_slice(&bytes);
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
    use vpdift_sync::shared;

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

    fn controller() -> (Ctl, CanHostEndpoint) {
        let policy = SecurityPolicy::builder("t").sink("can0.tx", UNTRUSTED).build();
        let channel = CanChannel::new();
        let host = channel.host_endpoint();
        let c = CanController::new("can0", UNTRUSTED, channel);
        (Ctl { c, engine: DiftEngine::new(policy) }, host)
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
        let (mut c, host) = controller();
        wr(&mut c, regs::TX_ID, Taint::untainted(0x123));
        wr(&mut c, regs::TX_DLC, Taint::untainted(2));
        let mut p =
            GenericPayload::write(regs::TX_DATA, &[Taint::untainted(0xAA), Taint::untainted(0xBB)]);
        c.transport(&mut p);
        assert!(wr(&mut c, regs::TX_GO, Taint::untainted(1)).is_ok());
        let f = host.recv().expect("frame delivered");
        assert_eq!(f.id, 0x123);
        assert_eq!(f.bytes(), vec![0xAA, 0xBB]);
        assert_eq!(c.c.frames_sent(), 1);
        assert_eq!(host.pending(), 0);
    }

    #[test]
    fn secret_payload_blocked_at_tx() {
        let (mut c, host) = controller();
        wr(&mut c, regs::TX_DLC, Taint::untainted(1));
        let mut p = GenericPayload::write(regs::TX_DATA, &[Taint::new(0x42, SECRET)]);
        c.transport(&mut p);
        let mut go = wr(&mut c, regs::TX_GO, Taint::untainted(1));
        let v = go.take_violation().expect("violation");
        assert_eq!(v.kind, ViolationKind::Output { sink: "can0.tx".into() });
        assert!(host.recv().is_none(), "secret frame never left");
    }

    #[test]
    fn receive_classifies_input() {
        let (mut c, host) = controller();
        host.send(CanFrame::new(0x7FF, &[1, 2, 3, 4]));
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
        let (mut c, host) = controller();
        assert!(!c.c.rx_pending());
        host.send(CanFrame::new(1, &[0]));
        assert!(c.c.rx_pending(), "a waiting frame asserts the level");
        wr(&mut c, regs::RX_POP, Taint::untainted(1));
        assert!(!c.c.rx_pending(), "popping the last frame drops it");
    }

    #[test]
    fn empty_rx_reads_zero() {
        let (mut c, _host) = controller();
        assert_eq!(rd(&mut c, regs::RX_ID).value(), 0);
        assert_eq!(rd(&mut c, regs::RX_DLC).value(), 0);
        assert_eq!(c.c.name(), "can0");
    }

    /// Drops the first `drop_n` frames in each direction, then corrupts
    /// bit 0 of byte 0 on everything that passes.
    struct LossyLine {
        drop_n: u32,
        corrupt: bool,
        seen: u32,
    }

    impl CanLineFault for LossyLine {
        fn on_frame(&mut self, frame: &mut CanFrame, _to_device: bool) -> bool {
            self.seen += 1;
            if self.seen <= self.drop_n {
                return false;
            }
            if self.corrupt {
                frame.data[0] = frame.data[0].map(|v| v ^ 1);
            }
            true
        }
    }

    #[test]
    fn line_fault_drops_and_send_reports_it() {
        let host = CanChannel::new().host_endpoint();
        host.set_line_fault(shared(LossyLine { drop_n: 2, corrupt: false, seen: 0 }));
        assert!(!host.send(CanFrame::new(1, &[0xAA])), "first frame lost");
        assert!(!host.send(CanFrame::new(1, &[0xAA])), "second frame lost");
        assert!(host.send(CanFrame::new(1, &[0xAA])));
        host.clear_line_fault();
        assert!(host.send(CanFrame::new(2, &[0xBB])), "perfect wire again");
    }

    #[test]
    fn send_with_retry_survives_bounded_loss() {
        let host = CanChannel::new().host_endpoint();
        host.set_line_fault(shared(LossyLine { drop_n: 2, corrupt: false, seen: 0 }));
        assert_eq!(host.send_with_retry(CanFrame::new(7, &[1]), 5), Some(3), "third attempt lands");
        // Total loss within the attempt budget is reported, not retried forever.
        host.set_line_fault(shared(LossyLine { drop_n: 100, corrupt: false, seen: 0 }));
        assert_eq!(host.send_with_retry(CanFrame::new(7, &[1]), 4), None);
    }

    #[test]
    fn line_fault_corrupts_device_tx_but_send_still_counts() {
        let (mut c, host) = controller();
        host.set_line_fault(shared(LossyLine { drop_n: 0, corrupt: true, seen: 0 }));
        wr(&mut c, regs::TX_DLC, Taint::untainted(1));
        let mut p = GenericPayload::write(regs::TX_DATA, &[Taint::untainted(0xAA)]);
        c.transport(&mut p);
        assert!(wr(&mut c, regs::TX_GO, Taint::untainted(1)).is_ok());
        assert_eq!(c.c.frames_sent(), 1);
        let f = host.recv().expect("corrupted, not lost");
        assert_eq!(f.bytes(), vec![0xAB], "bit 0 flipped on the wire");
    }

    #[test]
    fn line_loss_is_invisible_to_the_device() {
        let (mut c, host) = controller();
        host.set_line_fault(shared(LossyLine { drop_n: 1, corrupt: false, seen: 0 }));
        wr(&mut c, regs::TX_DLC, Taint::untainted(1));
        let mut p = GenericPayload::write(regs::TX_DATA, &[Taint::untainted(0x42)]);
        c.transport(&mut p);
        assert!(wr(&mut c, regs::TX_GO, Taint::untainted(1)).is_ok(), "TX_GO still succeeds");
        assert_eq!(c.c.frames_sent(), 1, "the controller believes it transmitted");
        assert!(host.recv().is_none(), "but the wire ate the frame");
    }
}

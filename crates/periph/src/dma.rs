//! DMA controller with tag-preserving transfers.
//!
//! DMA is one of the "complex HW/SW interactions" the paper's introduction
//! calls out: data can move *around* the CPU, so a DIFT engine that only
//! instruments the core misses these flows. Our controller copies through
//! TLM payloads whose data lanes carry tags, so classification travels with
//! the bytes — and transfers into protected regions are still subject to
//! the policy's store-clearance rules.

use vpdift_core::{SharedEngine, Taint, Violation};
use vpdift_kernel::SimTime;
use vpdift_sync::{shared, Shared};
use vpdift_tlm::{GenericPayload, Router, TlmCommand, TlmResponse, TlmTarget};

use crate::mmio::{get_word, no_memory, put_word};
use crate::plic::IrqLine;

/// Hardware limit on a single transfer; `CTRL` writes with a larger
/// staged `LEN` fail with the error bit (real DMA engines bound their
/// descriptor length field the same way).
pub const MAX_TRANSFER: u32 = 1 << 20;

/// Register map (word-aligned offsets).
pub mod regs {
    /// Read/write: source bus address.
    pub const SRC: u32 = 0x0;
    /// Read/write: destination bus address.
    pub const DST: u32 = 0x4;
    /// Read/write: transfer length in bytes.
    pub const LEN: u32 = 0x8;
    /// Write 1: start the transfer (runs to completion in this LT model).
    pub const CTRL: u32 = 0xC;
    /// Read: bit 0 = done, bit 1 = error.
    pub const STATUS: u32 = 0x10;
}

/// The DMA controller. It owns a *private* [`Router`] (configured by the
/// SoC with the same shared targets as the system bus, minus the DMA
/// itself), which keeps transfers re-entrant-safe. Its RAM window reaches
/// the memory lent to each transaction ([`TlmTarget::transport_with`]).
pub struct Dma {
    ports: Router,
    engine: Option<SharedEngine>,
    irq: Option<IrqLine>,
    src: u32,
    dst: u32,
    len: u32,
    done: bool,
    error: bool,
    bytes_moved: u64,
    abort_after: Option<u32>,
}

impl core::fmt::Debug for Dma {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Dma")
            .field("src", &self.src)
            .field("dst", &self.dst)
            .field("len", &self.len)
            .field("done", &self.done)
            .field("error", &self.error)
            .field("bytes_moved", &self.bytes_moved)
            .finish()
    }
}

impl Dma {
    /// Creates a controller whose transfers go through `ports`. When an
    /// `engine` is attached, destination bytes are checked against the
    /// policy's protected-region rules (store clearance).
    pub fn new(ports: Router, engine: Option<SharedEngine>, irq: Option<IrqLine>) -> Self {
        Dma {
            ports,
            engine,
            irq,
            src: 0,
            dst: 0,
            len: 0,
            done: false,
            error: false,
            bytes_moved: 0,
            abort_after: None,
        }
    }

    /// Fault injection: arms a one-shot mid-burst abort. The *next*
    /// transfer fails with the error status bit once it has moved `bytes`
    /// bytes, leaving the destination partially written — then the arm is
    /// cleared, so subsequent transfers run normally.
    pub fn inject_abort_after(&mut self, bytes: u32) {
        self.abort_after = Some(bytes);
    }

    /// Wraps into the shared handle used by the SoC.
    pub fn into_shared(self) -> Shared<Dma> {
        shared(self)
    }

    /// Total bytes copied over the controller's lifetime.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Performs the staged transfer. Chunked in 16-byte bursts.
    fn run_transfer(
        &mut self,
        delay: &mut SimTime,
        mem: &mut dyn TlmTarget,
    ) -> Result<(), Option<Violation>> {
        if self.len > MAX_TRANSFER {
            return Err(None);
        }
        let mut remaining = self.len;
        let mut src = self.src;
        let mut dst = self.dst;
        let mut moved_this_transfer = 0u32;
        while remaining > 0 {
            if let Some(limit) = self.abort_after {
                if moved_this_transfer >= limit {
                    self.abort_after = None;
                    return Err(None);
                }
            }
            let chunk = remaining.min(16) as usize;
            let mut rd = GenericPayload::read(src, chunk);
            self.ports.route(&mut rd, delay, mem);
            if !rd.is_ok() {
                return Err(rd.take_violation());
            }
            // Store clearance for protected destination regions.
            if let Some(engine) = &self.engine {
                let mut eng = engine.borrow_mut();
                for (i, b) in rd.data().iter().enumerate() {
                    eng.check_store(dst + i as u32, b.tag(), None)
                        .map_err(|v| Some(v.with_context("dma transfer")))?;
                }
            }
            let mut wr = GenericPayload::write(dst, rd.data());
            self.ports.route(&mut wr, delay, mem);
            if !wr.is_ok() {
                return Err(wr.take_violation());
            }
            self.bytes_moved += chunk as u64;
            moved_this_transfer += chunk as u32;
            src += chunk as u32;
            dst += chunk as u32;
            remaining -= chunk as u32;
        }
        self.abort_after = None;
        Ok(())
    }
}

impl TlmTarget for Dma {
    fn transport(&mut self, p: &mut GenericPayload, delay: &mut SimTime) {
        self.transport_with(p, delay, &mut no_memory);
    }

    fn transport_with(
        &mut self,
        p: &mut GenericPayload,
        delay: &mut SimTime,
        mem: &mut dyn TlmTarget,
    ) {
        let addr = p.address();
        match p.command() {
            TlmCommand::Write => match addr {
                regs::SRC => {
                    self.src = get_word(p).value();
                    p.set_response(TlmResponse::Ok);
                }
                regs::DST => {
                    self.dst = get_word(p).value();
                    p.set_response(TlmResponse::Ok);
                }
                regs::LEN => {
                    self.len = get_word(p).value();
                    p.set_response(TlmResponse::Ok);
                }
                regs::CTRL => {
                    self.done = false;
                    self.error = false;
                    match self.run_transfer(delay, mem) {
                        Ok(()) => {
                            self.done = true;
                            if let Some(irq) = &self.irq {
                                irq.raise();
                            }
                            p.set_response(TlmResponse::Ok);
                        }
                        Err(Some(v)) => {
                            self.error = true;
                            p.set_violation(v);
                        }
                        Err(None) => {
                            self.error = true;
                            p.set_response(TlmResponse::GenericError);
                        }
                    }
                }
                _ => p.set_response(TlmResponse::CommandError),
            },
            TlmCommand::Read => match addr {
                regs::SRC => {
                    put_word(p, Taint::untainted(self.src));
                    p.set_response(TlmResponse::Ok);
                }
                regs::DST => {
                    put_word(p, Taint::untainted(self.dst));
                    p.set_response(TlmResponse::Ok);
                }
                regs::LEN => {
                    put_word(p, Taint::untainted(self.len));
                    p.set_response(TlmResponse::Ok);
                }
                regs::STATUS => {
                    let s = self.done as u32 | ((self.error as u32) << 1);
                    put_word(p, Taint::untainted(s));
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
    use crate::ram::Ram;
    use vpdift_core::Tag;
    use vpdift_core::{AddrRange, DiftEngine, SecurityPolicy, ViolationKind};

    const SECRET: Tag = Tag::from_bits(1);

    fn ports(ram_size: u32) -> Router {
        let mut ports = Router::new("dma-ports");
        ports.map_memory("ram", AddrRange::new(0, ram_size)).unwrap();
        ports
    }

    fn dma_with_ram() -> (Dma, Ram) {
        (Dma::new(ports(4096), None, None), Ram::new(4096, true))
    }

    fn wr(d: &mut Dma, ram: &mut Ram, reg: u32, v: u32) -> GenericPayload {
        let mut p = GenericPayload::write_word(reg, Taint::untainted(v));
        d.transport_with(&mut p, &mut SimTime::ZERO.clone(), ram);
        p
    }

    fn rd(d: &mut Dma, ram: &mut Ram, reg: u32) -> u32 {
        let mut p = GenericPayload::read(reg, 4);
        d.transport_with(&mut p, &mut SimTime::ZERO.clone(), ram);
        p.data_word::<u32>().value()
    }

    #[test]
    fn copy_preserves_values_and_tags() {
        let (mut d, mut ram) = dma_with_ram();
        ram.load_image(0x100, &[1, 2, 3, 4, 5, 6, 7]);
        ram.classify(0x102, 3, SECRET);
        let epoch = ram.epoch();
        wr(&mut d, &mut ram, regs::SRC, 0x100);
        wr(&mut d, &mut ram, regs::DST, 0x200);
        wr(&mut d, &mut ram, regs::LEN, 7);
        assert!(wr(&mut d, &mut ram, regs::CTRL, 1).is_ok());
        assert_eq!(rd(&mut d, &mut ram, regs::STATUS), 1);
        assert_eq!(d.bytes_moved(), 7);
        assert!(ram.epoch() > epoch, "a burst bypasses the CPU");
        assert_eq!(ram.bytes(0x200, 7), &[1, 2, 3, 4, 5, 6, 7]);
        // Taint travelled with the bytes — the flow the CPU never saw.
        assert_eq!(ram.byte_at(0x201).unwrap().1, Tag::EMPTY);
        assert_eq!(ram.byte_at(0x202).unwrap().1, SECRET);
        assert_eq!(ram.byte_at(0x204).unwrap().1, SECRET);
        assert_eq!(ram.byte_at(0x205).unwrap().1, Tag::EMPTY);
    }

    #[test]
    fn long_transfer_chunks() {
        let (mut d, mut ram) = dma_with_ram();
        let data: Vec<u8> = (0..100).collect();
        ram.load_image(0, &data);
        wr(&mut d, &mut ram, regs::SRC, 0);
        wr(&mut d, &mut ram, regs::DST, 0x800);
        wr(&mut d, &mut ram, regs::LEN, 100);
        assert!(wr(&mut d, &mut ram, regs::CTRL, 1).is_ok());
        assert_eq!(ram.bytes(0x800, 100), &data[..]);
    }

    #[test]
    fn dma_into_protected_region_violates() {
        let mut ram = Ram::new(4096, true);
        let policy = SecurityPolicy::builder("t")
            .protect_region("pin", AddrRange::new(0x300, 16), Tag::EMPTY)
            .build();
        let engine = DiftEngine::new(policy).into_shared();
        let mut d = Dma::new(ports(4096), Some(engine.clone()), None);
        ram.classify(0x100, 4, SECRET);
        wr(&mut d, &mut ram, regs::SRC, 0x100);
        wr(&mut d, &mut ram, regs::DST, 0x300);
        wr(&mut d, &mut ram, regs::LEN, 4);
        let mut go = wr(&mut d, &mut ram, regs::CTRL, 1);
        let v = go.take_violation().expect("violation");
        assert!(matches!(v.kind, ViolationKind::Store { ref region } if region == "pin"));
        assert_eq!(rd(&mut d, &mut ram, regs::STATUS), 0b10, "error bit set");
    }

    #[test]
    fn out_of_range_transfer_errors() {
        let (mut d, mut ram) = dma_with_ram();
        wr(&mut d, &mut ram, regs::SRC, 0x10_0000);
        wr(&mut d, &mut ram, regs::DST, 0);
        wr(&mut d, &mut ram, regs::LEN, 4);
        let p = wr(&mut d, &mut ram, regs::CTRL, 1);
        assert_eq!(p.response(), TlmResponse::GenericError);
        assert_eq!(rd(&mut d, &mut ram, regs::STATUS), 0b10);
        // Without lent memory the RAM window is out of range too.
        wr(&mut d, &mut ram, regs::SRC, 0);
        let mut p = GenericPayload::write_word(regs::CTRL, Taint::untainted(1));
        d.transport(&mut p, &mut SimTime::ZERO.clone());
        assert_eq!(p.response(), TlmResponse::GenericError);
    }

    #[test]
    fn irq_raised_on_completion() {
        let plic = crate::plic::Plic::new().into_shared();
        let mut ram = Ram::new(64, false);
        let mut d = Dma::new(ports(64), None, Some(IrqLine::new(plic.clone(), 4)));
        wr(&mut d, &mut ram, regs::SRC, 0);
        wr(&mut d, &mut ram, regs::DST, 32);
        wr(&mut d, &mut ram, regs::LEN, 8);
        wr(&mut d, &mut ram, regs::CTRL, 1);
        assert_eq!(plic.borrow().pending(), 1 << 4);
    }

    #[test]
    fn injected_abort_is_one_shot_and_leaves_partial_copy() {
        let (mut d, mut ram) = dma_with_ram();
        let data: Vec<u8> = (1..=64).collect();
        ram.load_image(0, &data);
        d.inject_abort_after(32);
        wr(&mut d, &mut ram, regs::SRC, 0);
        wr(&mut d, &mut ram, regs::DST, 0x800);
        wr(&mut d, &mut ram, regs::LEN, 64);
        let p = wr(&mut d, &mut ram, regs::CTRL, 1);
        assert_eq!(p.response(), TlmResponse::GenericError);
        assert_eq!(rd(&mut d, &mut ram, regs::STATUS), 0b10, "error bit set");
        let copied = ram.bytes(0x800, 64).to_vec();
        assert_eq!(&copied[..32], &data[..32], "first two bursts landed");
        assert!(copied[32..].iter().all(|&b| b == 0), "abort before the third burst");
        // The arm is one-shot: retrying the same transfer now succeeds.
        let p = wr(&mut d, &mut ram, regs::CTRL, 1);
        assert!(p.is_ok());
        assert_eq!(ram.bytes(0x800, 64), &data[..]);
    }

    #[test]
    fn register_readback() {
        let (mut d, mut ram) = dma_with_ram();
        wr(&mut d, &mut ram, regs::SRC, 0xAA);
        wr(&mut d, &mut ram, regs::DST, 0xBB);
        wr(&mut d, &mut ram, regs::LEN, 0xCC);
        assert_eq!(rd(&mut d, &mut ram, regs::SRC), 0xAA);
        assert_eq!(rd(&mut d, &mut ram, regs::DST), 0xBB);
        assert_eq!(rd(&mut d, &mut ram, regs::LEN), 0xCC);
    }
}

//! DMA controller with tag-preserving transfers.
//!
//! DMA is one of the "complex HW/SW interactions" the paper's introduction
//! calls out: data can move *around* the CPU, so a DIFT engine that only
//! instruments the core misses these flows. Our controller copies through
//! TLM payloads whose data lanes carry tags, so classification travels with
//! the bytes — and transfers into protected regions are still subject to
//! the policy's store-clearance rules.

use vpdift_core::{Taint, Violation};
use vpdift_kernel::SimTime;
use vpdift_tlm::{GenericPayload, Loan, TlmCommand, TlmResponse, TlmTarget};

use crate::mmio::{get_word, put_word};

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

/// The DMA controller. It holds no bus: the `CTRL` write that starts a
/// transfer is lent its memory port ([`Loan::mem`], the SoC's DMA port map
/// of RAM and the devices a burst may reach), and every burst goes there
/// ([`Loan::reach`]) with the lent engine, which also checks the
/// controller's own store clearance.
pub struct Dma {
    check_stores: bool,
    /// Set by each completed transfer until the SoC raises the interrupt.
    irq: bool,
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
    /// Creates a controller. With `check_stores`, destination bytes are
    /// checked against the policy's protected-region rules (store
    /// clearance).
    pub fn new(check_stores: bool) -> Self {
        Dma {
            check_stores,
            irq: false,
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

    /// Total bytes copied over the controller's lifetime.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Whether a transfer completed since the last call, which clears the
    /// completion-interrupt flag.
    pub fn take_irq(&mut self) -> bool {
        std::mem::take(&mut self.irq)
    }

    /// Performs the staged transfer. Chunked in 16-byte bursts. A source
    /// or destination range that wraps past the top of the address space
    /// is unreachable as a whole and fails before any byte moves.
    fn run_transfer(
        &mut self,
        delay: &mut SimTime,
        loan: &mut Loan<'_>,
    ) -> Result<(), Option<Violation>> {
        let fits = |base: u32| u64::from(base) + u64::from(self.len) <= 1 << 32;
        if self.len > MAX_TRANSFER || !fits(self.src) || !fits(self.dst) {
            return Err(None);
        }
        let mut moved_this_transfer = 0u32;
        while moved_this_transfer < self.len {
            if let Some(limit) = self.abort_after {
                if moved_this_transfer >= limit {
                    self.abort_after = None;
                    return Err(None);
                }
            }
            // In range: both windows end at or below 2^32.
            let (src, dst) = (self.src + moved_this_transfer, self.dst + moved_this_transfer);
            let chunk = (self.len - moved_this_transfer).min(16) as usize;
            let mut rd = GenericPayload::read(src, chunk);
            loan.reach(&mut rd, delay);
            if !rd.is_ok() {
                return Err(rd.take_violation());
            }
            // Store clearance for protected destination regions.
            if self.check_stores {
                for (i, b) in rd.data().iter().enumerate() {
                    loan.check_store(dst + i as u32, b.tag())
                        .map_err(|v| Some(v.with_context("dma transfer")))?;
                }
            }
            let mut wr = GenericPayload::write(dst, rd.data());
            loan.reach(&mut wr, delay);
            if !wr.is_ok() {
                return Err(wr.take_violation());
            }
            self.bytes_moved += chunk as u64;
            moved_this_transfer += chunk as u32;
        }
        self.abort_after = None;
        Ok(())
    }
}

impl TlmTarget for Dma {
    fn transport(&mut self, p: &mut GenericPayload, delay: &mut SimTime, loan: &mut Loan<'_>) {
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
                    match self.run_transfer(delay, loan) {
                        Ok(()) => {
                            self.done = true;
                            self.irq = true;
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

    /// A controller lent RAM as its port, with the engine its bus would
    /// lend it.
    struct Rig {
        d: Dma,
        ram: Ram,
        engine: DiftEngine,
    }

    impl Rig {
        fn new(ram_size: u32, policy: SecurityPolicy) -> Self {
            Rig {
                d: Dma::new(true),
                ram: Ram::new(ram_size as usize, true),
                engine: DiftEngine::new(policy),
            }
        }

        fn transport(&mut self, p: &mut GenericPayload) {
            let mut loan =
                Loan { mem: &mut self.ram, engine: &mut self.engine, obs: None, pc: None };
            self.d.transport(p, &mut SimTime::ZERO.clone(), &mut loan);
        }

        fn wr(&mut self, reg: u32, v: u32) -> GenericPayload {
            let mut p = GenericPayload::write_word(reg, Taint::untainted(v));
            self.transport(&mut p);
            p
        }

        fn rd(&mut self, reg: u32) -> u32 {
            let mut p = GenericPayload::read(reg, 4);
            self.transport(&mut p);
            p.data_word::<u32>().value()
        }
    }

    fn rig() -> Rig {
        Rig::new(4096, SecurityPolicy::permissive())
    }

    #[test]
    fn copy_preserves_values_and_tags() {
        let mut r = rig();
        r.ram.load_image(0x100, &[1, 2, 3, 4, 5, 6, 7]);
        r.ram.classify(0x102, 3, SECRET);
        let epoch = r.ram.epoch();
        r.wr(regs::SRC, 0x100);
        r.wr(regs::DST, 0x200);
        r.wr(regs::LEN, 7);
        assert!(r.wr(regs::CTRL, 1).is_ok());
        assert_eq!(r.rd(regs::STATUS), 1);
        assert_eq!(r.d.bytes_moved(), 7);
        assert!(r.ram.epoch() > epoch, "a burst bypasses the CPU");
        assert_eq!(r.ram.bytes(0x200, 7), &[1, 2, 3, 4, 5, 6, 7]);
        // Taint travelled with the bytes — the flow the CPU never saw.
        assert_eq!(r.ram.byte_at(0x201).unwrap().1, Tag::EMPTY);
        assert_eq!(r.ram.byte_at(0x202).unwrap().1, SECRET);
        assert_eq!(r.ram.byte_at(0x204).unwrap().1, SECRET);
        assert_eq!(r.ram.byte_at(0x205).unwrap().1, Tag::EMPTY);
    }

    #[test]
    fn long_transfer_chunks() {
        let mut r = rig();
        let data: Vec<u8> = (0..100).collect();
        r.ram.load_image(0, &data);
        r.wr(regs::SRC, 0);
        r.wr(regs::DST, 0x800);
        r.wr(regs::LEN, 100);
        assert!(r.wr(regs::CTRL, 1).is_ok());
        assert_eq!(r.ram.bytes(0x800, 100), &data[..]);
    }

    #[test]
    fn dma_into_protected_region_violates() {
        let policy = SecurityPolicy::builder("t")
            .protect_region("pin", AddrRange::new(0x300, 16), Tag::EMPTY)
            .build();
        let mut r = Rig::new(4096, policy);
        r.ram.classify(0x100, 4, SECRET);
        r.wr(regs::SRC, 0x100);
        r.wr(regs::DST, 0x300);
        r.wr(regs::LEN, 4);
        let mut go = r.wr(regs::CTRL, 1);
        let v = go.take_violation().expect("violation");
        assert!(matches!(v.kind, ViolationKind::Store { ref region } if region == "pin"));
        assert_eq!(r.rd(regs::STATUS), 0b10, "error bit set");
        assert_eq!(r.engine.violations().len(), 1, "recorded in the lent engine");
        // Without store checks (the plain VP) the same burst lands.
        r.d.check_stores = false;
        assert!(r.wr(regs::CTRL, 1).is_ok());
        assert_eq!(r.ram.byte_at(0x300).unwrap().1, SECRET);
    }

    #[test]
    fn out_of_range_transfer_errors() {
        let mut r = rig();
        r.wr(regs::SRC, 0x10_0000);
        r.wr(regs::DST, 0);
        r.wr(regs::LEN, 4);
        let p = r.wr(regs::CTRL, 1);
        assert_eq!(p.response(), TlmResponse::GenericError);
        assert_eq!(r.rd(regs::STATUS), 0b10);
    }

    #[test]
    fn irq_flagged_on_completion() {
        let mut r = Rig::new(64, SecurityPolicy::permissive());
        r.wr(regs::SRC, 0);
        r.wr(regs::DST, 32);
        r.wr(regs::LEN, 8);
        assert!(!r.d.take_irq(), "nothing transferred yet");
        r.wr(regs::CTRL, 1);
        assert!(r.d.take_irq(), "completion flags the interrupt");
        assert!(!r.d.take_irq(), "taking it clears the flag");
        r.wr(regs::SRC, 0x1000);
        r.wr(regs::CTRL, 1);
        assert!(!r.d.take_irq(), "a failed transfer flags nothing");
    }

    #[test]
    fn injected_abort_is_one_shot_and_leaves_partial_copy() {
        let mut r = rig();
        let data: Vec<u8> = (1..=64).collect();
        r.ram.load_image(0, &data);
        r.d.inject_abort_after(32);
        r.wr(regs::SRC, 0);
        r.wr(regs::DST, 0x800);
        r.wr(regs::LEN, 64);
        let p = r.wr(regs::CTRL, 1);
        assert_eq!(p.response(), TlmResponse::GenericError);
        assert_eq!(r.rd(regs::STATUS), 0b10, "error bit set");
        let copied = r.ram.bytes(0x800, 64).to_vec();
        assert_eq!(&copied[..32], &data[..32], "first two bursts landed");
        assert!(copied[32..].iter().all(|&b| b == 0), "abort before the third burst");
        // The arm is one-shot: retrying the same transfer now succeeds.
        let p = r.wr(regs::CTRL, 1);
        assert!(p.is_ok());
        assert_eq!(r.ram.bytes(0x800, 64), &data[..]);
    }

    #[test]
    fn register_readback() {
        let mut r = rig();
        r.wr(regs::SRC, 0xAA);
        r.wr(regs::DST, 0xBB);
        r.wr(regs::LEN, 0xCC);
        assert_eq!(r.rd(regs::SRC), 0xAA);
        assert_eq!(r.rd(regs::DST), 0xBB);
        assert_eq!(r.rd(regs::LEN), 0xCC);
    }
}

//! The CPU-side memory interface.
//!
//! The ISS is generic over a [`Bus`], so unit tests can run against the
//! in-crate [`FlatMemory`] while the full VP (in `vpdift-soc`) provides a
//! bus with a fast RAM path, TLM-routed MMIO, and DIFT store-clearance
//! checks.

use vpdift_core::{DiftEngine, Tag, Violation};
use vpdift_obs::ObsEvent;

use crate::mode::{TaintMode, Word};

/// Why a memory access could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// No device claims the address (→ load/store access fault).
    Fault {
        /// The offending address.
        addr: u32,
    },
    /// The access straddles an alignment boundary the platform rejects.
    Misaligned {
        /// The offending address.
        addr: u32,
    },
    /// A DIFT check failed inside the memory system (e.g. store clearance
    /// into a protected region, or an output-clearance violation in a
    /// peripheral reached via MMIO).
    Dift(Violation),
}

impl core::fmt::Display for MemError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MemError::Fault { addr } => write!(f, "access fault at {addr:#010x}"),
            MemError::Misaligned { addr } => write!(f, "misaligned access at {addr:#010x}"),
            MemError::Dift(v) => write!(f, "DIFT violation: {v}"),
        }
    }
}

impl std::error::Error for MemError {}

/// The core's three interrupt inputs, as a bus hands them over
/// ([`Bus::take_irq_levels`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IrqLevels {
    /// Machine timer interrupt (`mip.MTIP`).
    pub timer: bool,
    /// Machine software interrupt (`mip.MSIP`).
    pub software: bool,
    /// Machine external interrupt (`mip.MEIP`).
    pub external: bool,
}

/// The ISS's view of the memory system.
pub trait Bus<M: TaintMode> {
    /// Fetches the 32-bit instruction word at `pc` (already
    /// alignment-checked by the CPU). The returned word's tag is the LUB of
    /// the four byte tags.
    ///
    /// # Errors
    /// [`MemError`] on faults.
    fn fetch(&mut self, pc: u32) -> Result<M::Word, MemError>;

    /// Loads `size` ∈ {1, 2, 4} bytes at `addr`, zero-extended into the
    /// word value; the tag is the LUB of the byte tags.
    ///
    /// # Errors
    /// [`MemError`] on faults.
    fn load(&mut self, addr: u32, size: u32) -> Result<M::Word, MemError>;

    /// Stores the low `size` bytes of `value` at `addr`. `pc` is the
    /// program counter of the storing instruction, attached to any DIFT
    /// violation raised by protected-region checks.
    ///
    /// # Errors
    /// [`MemError`] on faults.
    fn store(&mut self, addr: u32, size: u32, value: M::Word, pc: u32) -> Result<(), MemError>;

    /// A counter that changes whenever memory (data *or* tags) is mutated
    /// by anything other than CPU stores through this bus — DMA bursts,
    /// host-side classification/image loads, injected bit flips. Execution
    /// engines that cache decoded code compare it every step and flush on
    /// change; CPU stores are instead reported precisely by the CPU, so
    /// they must *not* bump it. Buses without external mutators keep the
    /// default constant `0`.
    fn mutation_epoch(&self) -> u64 {
        0
    }

    /// The core's interrupt levels, handed over once after each device
    /// access that may have changed them (an MMIO side effect: a PLIC
    /// claim, a comparator write, a DMA completion); `None` when no such
    /// access happened since the last call. Execution engines ask right
    /// after every instruction that can reach a device and apply the
    /// levels to `mip` inside the slice, so the next instruction's
    /// interrupt poll sees them. Plain memories have no interrupt sources
    /// and keep the default `None`.
    fn take_irq_levels(&mut self) -> Option<IrqLevels> {
        None
    }

    /// The DIFT engine that records the CPU's execution-clearance
    /// violations, and whose mode decides whether they stop the
    /// instruction. Without one (the default) a failed check always stops
    /// it.
    fn dift_engine(&mut self) -> Option<&mut DiftEngine> {
        None
    }

    /// `true` when [`Bus::emit`] reaches an enabled observability sink.
    /// The CPU gates every emission site on it, so on a bus without one
    /// (the default) they compile out.
    const OBSERVED: bool = false;

    /// Reports one of the CPU's observability events to the sink of the
    /// bus's owner. Called only when [`Bus::OBSERVED`].
    fn emit(&mut self, _event: &ObsEvent) {}

    /// `true` when the slice must end before the instruction at `pc`
    /// executes, because the owner has to look at the run first (a raised
    /// stop flag, a breakpoint armed at `pc`). Execution engines ask it
    /// between the instructions of a slice, and only when
    /// [`Bus::OBSERVED`]; the first instruction of a slice is the owner's
    /// to check. The default never ends a slice.
    fn end_slice_before(&self, _pc: u32) -> bool {
        false
    }

    /// `false` only while every tag the CPU can reach (registers, CSRs,
    /// memory, device reads) is provably empty, so no clearance check can
    /// fail. A one-way latch: once `true` it stays `true`. Execution
    /// engines may skip the checks while it is `false`; the default never
    /// lets them.
    fn tags_live(&self) -> bool {
        true
    }

    /// `true` iff `addr..addr+size` supports atomic (LR/SC/AMO) access.
    /// Atomics are only defined on idempotent backing store: a bus routing
    /// MMIO returns `false` for device regions so the CPU raises an access
    /// fault instead of performing a read-modify-write on a register with
    /// side effects. The default (plain memories) accepts everything the
    /// bus can address.
    fn atomic_supported(&self, addr: u32, size: u32) -> bool {
        let _ = (addr, size);
        true
    }
}

/// A flat byte-addressable memory with per-byte tags (elided in plain
/// mode by `M::Word`'s tag handling — the tag array is only materialised
/// when `M::TRACKING`). Tags are stored as raw [`Tag::bits`] so the lane is
/// a zeroed allocation, the same representation as the SoC's RAM.
///
/// Primarily for tests and small standalone programs; the full SoC memory
/// lives in `vpdift-periph`.
#[derive(Debug, Clone)]
pub struct FlatMemory<M: TaintMode> {
    base: u32,
    data: Vec<u8>,
    tags: Vec<u32>,
    epoch: u64,
    engine: Option<DiftEngine>,
    _mode: core::marker::PhantomData<M>,
}

impl<M: TaintMode> FlatMemory<M> {
    /// Creates `size` bytes of zeroed memory based at `base`.
    pub fn new(base: u32, size: usize) -> Self {
        FlatMemory {
            base,
            data: vec![0; size],
            tags: if M::TRACKING { vec![0; size] } else { Vec::new() },
            epoch: 0,
            engine: None,
            _mode: core::marker::PhantomData,
        }
    }

    /// Attaches the DIFT engine that records the CPU's violations
    /// ([`Bus::dift_engine`]).
    pub fn set_engine(&mut self, engine: DiftEngine) {
        self.engine = Some(engine);
    }

    /// The attached DIFT engine, if any.
    pub fn engine(&self) -> Option<&DiftEngine> {
        self.engine.as_ref()
    }

    /// Base address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` iff the memory has zero bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn index(&self, addr: u32, size: u32) -> Result<usize, MemError> {
        let off = addr.wrapping_sub(self.base) as usize;
        if addr < self.base || off + size as usize > self.data.len() {
            return Err(MemError::Fault { addr });
        }
        Ok(off)
    }

    /// Copies a program image into memory.
    ///
    /// # Panics
    /// Panics if the image does not fit.
    pub fn load_image(&mut self, addr: u32, image: &[u8]) {
        let off = addr.wrapping_sub(self.base) as usize;
        self.data[off..off + image.len()].copy_from_slice(image);
        self.epoch += 1;
    }

    /// Stamps `tag` onto a byte range (classification).
    ///
    /// # Panics
    /// Panics if the range does not fit.
    pub fn classify(&mut self, addr: u32, len: usize, tag: Tag) {
        if !M::TRACKING {
            return;
        }
        let off = addr.wrapping_sub(self.base) as usize;
        self.tags[off..off + len].fill(tag.bits());
        self.epoch += 1;
    }

    /// Reads one byte with its tag (diagnostics).
    pub fn byte_at(&self, addr: u32) -> Option<(u8, Tag)> {
        let off = addr.wrapping_sub(self.base) as usize;
        let v = *self.data.get(off)?;
        let t = if M::TRACKING { Tag::from_bits(self.tags[off]) } else { Tag::EMPTY };
        Some((v, t))
    }
}

impl<M: TaintMode> Bus<M> for FlatMemory<M> {
    fn fetch(&mut self, pc: u32) -> Result<M::Word, MemError> {
        self.load(pc, 4)
    }

    fn load(&mut self, addr: u32, size: u32) -> Result<M::Word, MemError> {
        let off = self.index(addr, size)?;
        let mut value = 0u32;
        let mut bits = 0u32;
        for i in 0..size as usize {
            value |= (self.data[off + i] as u32) << (8 * i);
            if M::TRACKING {
                bits |= self.tags[off + i];
            }
        }
        Ok(M::Word::with_tag(value, Tag::from_bits(bits)))
    }

    fn store(&mut self, addr: u32, size: u32, value: M::Word, _pc: u32) -> Result<(), MemError> {
        let off = self.index(addr, size)?;
        let v = value.val();
        for i in 0..size as usize {
            self.data[off + i] = (v >> (8 * i)) as u8;
            if M::TRACKING {
                self.tags[off + i] = value.tag().bits();
            }
        }
        Ok(())
    }

    fn mutation_epoch(&self) -> u64 {
        self.epoch
    }

    fn dift_engine(&mut self) -> Option<&mut DiftEngine> {
        self.engine.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::{Plain, Tainted};
    use vpdift_core::Taint;

    #[test]
    fn flat_memory_word_round_trip_tainted() {
        let mut m = FlatMemory::<Tainted>::new(0x1000, 64);
        let w = Taint::new(0xAABB_CCDD, Tag::from_bits(0b10));
        m.store(0x1010, 4, w, 0).unwrap();
        let r = Bus::<Tainted>::load(&mut m, 0x1010, 4).unwrap();
        assert_eq!(r, w);
        // Partial reload LUBs only covered bytes.
        let h = Bus::<Tainted>::load(&mut m, 0x1012, 2).unwrap();
        assert_eq!(h.value(), 0xAABB);
        assert_eq!(Word::tag(h), Tag::from_bits(0b10));
    }

    #[test]
    fn flat_memory_plain_has_no_tag_storage() {
        let mut m = FlatMemory::<Plain>::new(0, 16);
        m.store(4, 4, 0x1234_5678u32, 0).unwrap();
        assert_eq!(Bus::<Plain>::load(&mut m, 4, 4).unwrap(), 0x1234_5678);
        assert_eq!(m.tags.len(), 0);
        m.classify(0, 8, Tag::from_bits(1)); // no-op, must not panic
    }

    #[test]
    fn out_of_range_faults() {
        let mut m = FlatMemory::<Plain>::new(0x100, 16);
        assert_eq!(
            Bus::<Plain>::load(&mut m, 0x90, 4).unwrap_err(),
            MemError::Fault { addr: 0x90 }
        );
        assert_eq!(
            Bus::<Plain>::load(&mut m, 0x10E, 4).unwrap_err(),
            MemError::Fault { addr: 0x10E }
        );
        assert!(m.store(0x200, 1, 0u32, 0).is_err());
    }

    #[test]
    fn classify_stamps_tags() {
        let mut m = FlatMemory::<Tainted>::new(0, 32);
        m.load_image(0, &[1, 2, 3, 4]);
        m.classify(1, 2, Tag::from_bits(1));
        assert_eq!(m.byte_at(0), Some((1, Tag::EMPTY)));
        assert_eq!(m.byte_at(1), Some((2, Tag::from_bits(1))));
        assert_eq!(m.byte_at(2), Some((3, Tag::from_bits(1))));
        assert_eq!(m.byte_at(3), Some((4, Tag::EMPTY)));
        assert_eq!(m.byte_at(100), None);
        // A word load spanning classified bytes LUBs their tags in.
        let w = Bus::<Tainted>::load(&mut m, 0, 4).unwrap();
        assert_eq!(Word::tag(w), Tag::from_bits(1));
    }

    #[test]
    fn mem_error_display() {
        assert!(MemError::Fault { addr: 0x10 }.to_string().contains("0x00000010"));
        assert!(MemError::Misaligned { addr: 3 }.to_string().contains("misaligned"));
    }
}

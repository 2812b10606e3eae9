//! Main memory with per-byte security tags.

use vpdift_core::{SharedCensus, Tag, Taint};
use vpdift_kernel::SimTime;
use vpdift_tlm::{GenericPayload, TlmCommand, TlmResponse, TlmTarget};

/// Byte-addressable RAM. Tag storage is only materialised when the VP runs
/// in tainted mode (`tracking = true`), so the plain VP pays neither memory
/// nor bookkeeping cost — mirroring the paper's VP/VP+ split.
///
/// The tag lane holds raw [`Tag::bits`], one `u32` per data byte, so both
/// lanes are built with `vec![0; n]`: a zeroed allocation the OS backs
/// lazily (`vec![Tag::EMPTY; n]` would be filled element by element, since
/// std zero-allocates only primitive element types). VP+ pays for a page
/// of tags when the guest first touches it, not at construction, and the
/// whole-RAM scans ([`Ram::digest`], [`Ram::atom_spread`]) skip all-zero
/// chunks.
///
/// The SoC bus owns the RAM. The CPU reaches it through the fast
/// accessors below (a DMI-style shortcut, as the real RISC-V VP does); the
/// bus lends it to DMA and other initiators for each transaction, and they
/// go through the [`TlmTarget`] implementation.
#[derive(Debug, Clone)]
pub struct Ram {
    data: Vec<u8>,
    tags: Vec<u32>,
    tracking: bool,
    /// Mutation epoch: bumped on every change that bypasses the CPU's
    /// store path (image loads, classification, DMA/TLM writes, injected
    /// bit flips), so block-caching execution engines know to flush.
    epoch: u64,
    /// Live-tag census to arm when a non-empty tag enters RAM from
    /// outside the CPU (classification, tagged DMA data, tag-bit flips).
    census: Option<SharedCensus>,
}

/// Bytes per whole-RAM scan chunk: an all-zero chunk is skipped (or, in
/// the digest, folded in one multiply).
const SCAN_CHUNK: usize = 64;

/// Tags per scan chunk: each tag is 4 bytes of the digest.
const TAG_CHUNK: usize = SCAN_CHUNK / 4;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// `FNV_PRIME^SCAN_CHUNK` (wrapping): the digest step for an all-zero chunk.
const FNV_PRIME_POW_CHUNK: u64 = {
    let mut p = 1u64;
    let mut i = 0;
    while i < SCAN_CHUNK {
        p = p.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    p
};

/// One FNV-1a step.
#[inline]
fn fnv1a(h: u64, byte: u8) -> u64 {
    (h ^ byte as u64).wrapping_mul(FNV_PRIME)
}

impl Ram {
    /// Creates zeroed RAM of `size` bytes; `tracking` selects tag storage.
    pub fn new(size: usize, tracking: bool) -> Self {
        Ram {
            data: vec![0; size],
            tags: if tracking { vec![0; size] } else { Vec::new() },
            tracking,
            epoch: 0,
            census: None,
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` for zero-sized RAM.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `true` when per-byte tags are stored.
    pub fn tracking(&self) -> bool {
        self.tracking
    }

    /// Current mutation epoch (see the `epoch` field docs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    #[inline]
    fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Attaches the live-tag census armed by external tag sources.
    pub fn set_census(&mut self, census: SharedCensus) {
        self.census = Some(census);
    }

    #[inline]
    fn arm_census(&self) {
        if let Some(c) = &self.census {
            c.arm();
        }
    }

    /// `true` iff the access `[offset, offset+size)` fits.
    pub fn fits(&self, offset: u32, size: u32) -> bool {
        (offset as usize) + (size as usize) <= self.data.len()
    }

    /// Fast path: loads `size` ∈ {1,2,4} little-endian bytes, returning the
    /// zero-extended value and the LUB of the byte tags.
    ///
    /// # Panics
    /// Panics if out of range — callers bounds-check with [`Ram::fits`].
    pub fn load(&self, offset: u32, size: u32) -> (u32, Tag) {
        let off = offset as usize;
        let mut value = 0u32;
        let mut bits = 0u32;
        for i in 0..size as usize {
            value |= (self.data[off + i] as u32) << (8 * i);
            if self.tracking {
                bits |= self.tags[off + i];
            }
        }
        (value, Tag::from_bits(bits))
    }

    /// Fast path: stores the low `size` bytes of `value` with `tag` stamped
    /// on every byte.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn store(&mut self, offset: u32, size: u32, value: u32, tag: Tag) {
        let off = offset as usize;
        for i in 0..size as usize {
            self.data[off + i] = (value >> (8 * i)) as u8;
            if self.tracking {
                self.tags[off + i] = tag.bits();
            }
        }
    }

    /// Copies a program image (untagged) to `offset`.
    ///
    /// # Panics
    /// Panics if the image does not fit.
    pub fn load_image(&mut self, offset: u32, image: &[u8]) {
        let off = offset as usize;
        self.data[off..off + image.len()].copy_from_slice(image);
        if self.tracking {
            self.tags[off..off + image.len()].fill(0);
        }
        self.bump_epoch();
    }

    /// Stamps `tag` onto `[offset, offset+len)` (classification at load
    /// time, per the policy's region rules).
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn classify(&mut self, offset: u32, len: usize, tag: Tag) {
        if !self.tracking {
            return;
        }
        let off = offset as usize;
        self.tags[off..off + len].fill(tag.bits());
        self.bump_epoch();
        if !tag.is_empty() {
            self.arm_census();
        }
    }

    /// Reads a byte with its tag (diagnostics, test assertions).
    pub fn byte_at(&self, offset: u32) -> Option<(u8, Tag)> {
        let v = *self.data.get(offset as usize)?;
        let t = if self.tracking { Tag::from_bits(self.tags[offset as usize]) } else { Tag::EMPTY };
        Some((v, t))
    }

    /// Reads `len` raw bytes (values only).
    pub fn bytes(&self, offset: u32, len: usize) -> &[u8] {
        &self.data[offset as usize..offset as usize + len]
    }

    /// Flips bit `bit` (0..8) of the data byte at `offset` — the RAM
    /// data-corruption primitive of the fault-injection campaign. Returns
    /// the new byte value, or `None` when `offset` is out of range.
    pub fn flip_data_bit(&mut self, offset: u32, bit: u32) -> Option<u8> {
        let b = self.data.get_mut(offset as usize)?;
        *b ^= 1u8 << (bit & 7);
        let v = *b;
        self.bump_epoch();
        Some(v)
    }

    /// Flips the presence of `atom` (0..32) in the *tag* of the byte at
    /// `offset` — the DIFT-specific fault: tag state corrupted
    /// independently of the data it describes. Returns the new tag, or
    /// `None` when out of range or when the RAM keeps no tags (plain VP).
    pub fn flip_tag_bit(&mut self, offset: u32, atom: u32) -> Option<Tag> {
        if !self.tracking {
            return None;
        }
        let t = self.tags.get_mut(offset as usize)?;
        *t ^= 1u32 << (atom & 31);
        let flipped = Tag::from_bits(*t);
        self.bump_epoch();
        if !flipped.is_empty() {
            self.arm_census();
        }
        Some(flipped)
    }

    /// FNV-1a digest over all data bytes and (when tracking) the
    /// little-endian tag bits — the memory half of the differential engine
    /// harness's final-state comparison.
    ///
    /// FNV-1a over a zero byte is one multiply by the prime, so an all-zero
    /// `SCAN_CHUNK`-byte chunk folds as one multiply by its power: the
    /// result equals the byte-by-byte digest, and memory the guest never
    /// wrote costs one OR-reduction per chunk.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for chunk in self.data.chunks(SCAN_CHUNK) {
            if chunk.len() == SCAN_CHUNK && chunk.iter().fold(0, |a, &b| a | b) == 0 {
                h = h.wrapping_mul(FNV_PRIME_POW_CHUNK);
            } else {
                h = chunk.iter().copied().fold(h, fnv1a);
            }
        }
        for chunk in self.tags.chunks(TAG_CHUNK) {
            if chunk.len() == TAG_CHUNK && chunk.iter().fold(0, |a, &t| a | t) == 0 {
                h = h.wrapping_mul(FNV_PRIME_POW_CHUNK);
            } else {
                h = chunk.iter().flat_map(|t| t.to_le_bytes()).fold(h, fnv1a);
            }
        }
        h
    }

    /// Counts, per taint atom, how many bytes currently carry that atom —
    /// the taint-spread sample fed to the observability layer. All-zero
    /// when not tracking. O(len), but an all-zero chunk of the tag lane
    /// costs one OR-reduction; callers still sample sparingly.
    pub fn atom_spread(&self) -> [u32; Tag::CAPACITY as usize] {
        let mut counts = [0u32; Tag::CAPACITY as usize];
        for chunk in self.tags.chunks(TAG_CHUNK) {
            if chunk.iter().fold(0, |a, &t| a | t) == 0 {
                continue;
            }
            for &t in chunk.iter().filter(|&&t| t != 0) {
                for atom in Tag::from_bits(t).atoms() {
                    counts[atom as usize] += 1;
                }
            }
        }
        counts
    }
}

impl TlmTarget for Ram {
    fn transport(&mut self, p: &mut GenericPayload, _delay: &mut SimTime) {
        let base = p.address() as usize;
        if base + p.len() > self.data.len() {
            p.set_response(TlmResponse::AddressError);
            return;
        }
        match p.command() {
            TlmCommand::Read => {
                let tracking = self.tracking;
                for (i, b) in p.data_mut().iter_mut().enumerate() {
                    let tag =
                        if tracking { Tag::from_bits(self.tags[base + i]) } else { Tag::EMPTY };
                    *b = Taint::new(self.data[base + i], tag);
                }
            }
            TlmCommand::Write => {
                let mut incoming = Tag::EMPTY;
                for (i, b) in p.data().iter().enumerate() {
                    self.data[base + i] = b.value();
                    if self.tracking {
                        self.tags[base + i] = b.tag().bits();
                        incoming = incoming.lub(b.tag());
                    }
                }
                // A DMA burst bypasses the CPU: cached code over the range
                // is stale, and tagged payload bytes are a taint source.
                self.bump_epoch();
                if !incoming.is_empty() {
                    self.arm_census();
                }
            }
            TlmCommand::Ignore => {}
        }
        p.set_response(TlmResponse::Ok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_round_trip_with_tags() {
        let mut ram = Ram::new(64, true);
        ram.store(8, 4, 0xAABB_CCDD, Tag::atom(1));
        assert_eq!(ram.load(8, 4), (0xAABB_CCDD, Tag::atom(1)));
        assert_eq!(ram.load(9, 2), (0xBBCC, Tag::atom(1)));
        assert_eq!(ram.load(0, 4), (0, Tag::EMPTY));
    }

    #[test]
    fn untracked_ram_has_no_tags() {
        let mut ram = Ram::new(64, false);
        ram.store(0, 4, 5, Tag::atom(3));
        assert_eq!(ram.load(0, 4), (5, Tag::EMPTY));
        assert!(!ram.tracking());
        ram.classify(0, 8, Tag::atom(1)); // no-op
        assert_eq!(ram.byte_at(0).unwrap().1, Tag::EMPTY);
    }

    #[test]
    fn image_load_clears_tags_then_classify_stamps() {
        let mut ram = Ram::new(32, true);
        ram.classify(0, 8, Tag::atom(0));
        ram.load_image(0, &[1, 2, 3, 4]);
        assert_eq!(ram.byte_at(0).unwrap(), (1, Tag::EMPTY));
        ram.classify(2, 2, Tag::atom(5));
        assert_eq!(ram.byte_at(2).unwrap(), (3, Tag::atom(5)));
        assert_eq!(ram.bytes(0, 4), &[1, 2, 3, 4]);
    }

    #[test]
    fn atom_spread_counts_tagged_bytes() {
        let mut ram = Ram::new(64, true);
        ram.classify(0, 8, Tag::atom(0));
        ram.classify(4, 8, Tag::from_bits(0b101)); // overwrites bytes 4..8
        let spread = ram.atom_spread();
        assert_eq!(spread[0], 12, "atoms 0: bytes 0..4 plus 4..12");
        assert_eq!(spread[2], 8);
        assert_eq!(spread[1], 0);
        assert_eq!(Ram::new(16, false).atom_spread(), [0; 32]);
    }

    #[test]
    fn bit_flips_hit_data_and_tags_independently() {
        let mut ram = Ram::new(16, true);
        ram.store(0, 1, 0b0000_0001, Tag::atom(1));
        assert_eq!(ram.flip_data_bit(0, 3), Some(0b0000_1001));
        assert_eq!(ram.byte_at(0).unwrap().1, Tag::atom(1), "data flip leaves the tag");
        assert_eq!(ram.flip_tag_bit(0, 5), Some(Tag::atom(1).lub(Tag::atom(5))));
        assert_eq!(ram.byte_at(0).unwrap().0, 0b0000_1001, "tag flip leaves the data");
        // Flipping the same atom again removes it.
        assert_eq!(ram.flip_tag_bit(0, 5), Some(Tag::atom(1)));
        // Out of range / untracked.
        assert_eq!(ram.flip_data_bit(99, 0), None);
        assert_eq!(Ram::new(16, false).flip_tag_bit(0, 0), None);
    }

    #[test]
    fn tlm_target_reads_and_writes_tagged() {
        let mut ram = Ram::new(32, true);
        let mut w =
            GenericPayload::write(4, &[Taint::new(9, Tag::atom(2)), Taint::new(8, Tag::EMPTY)]);
        ram.transport(&mut w, &mut SimTime::ZERO.clone());
        assert!(w.is_ok());
        let mut r = GenericPayload::read(4, 2);
        ram.transport(&mut r, &mut SimTime::ZERO.clone());
        assert_eq!(r.data()[0].value(), 9);
        assert_eq!(r.data()[0].tag(), Tag::atom(2));
        assert_eq!(r.data()[1].tag(), Tag::EMPTY);
    }

    #[test]
    fn a_clone_keeps_its_own_epoch() {
        let mut a = Ram::new(64, true);
        let b = a.clone();
        a.load_image(0, &[1]);
        assert_eq!((a.epoch(), b.epoch()), (1, 0));
    }

    #[test]
    fn tlm_target_bounds_checked() {
        let mut ram = Ram::new(8, false);
        let mut p = GenericPayload::read(6, 4);
        ram.transport(&mut p, &mut SimTime::ZERO.clone());
        assert_eq!(p.response(), TlmResponse::AddressError);
        assert!(ram.fits(4, 4));
        assert!(!ram.fits(5, 4));
    }
}

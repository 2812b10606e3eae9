//! Main memory with per-byte security tags.

use std::ops::Range;

use vpdift_core::{Tag, Taint};
use vpdift_kernel::SimTime;
use vpdift_tlm::{GenericPayload, Loan, TlmCommand, TlmResponse, TlmTarget};

/// Byte-addressable RAM. Tag storage is only materialised when the VP runs
/// in tainted mode (`tracking = true`), so the plain VP pays neither memory
/// nor bookkeeping cost — mirroring the paper's VP/VP+ split.
///
/// The tag lane holds raw [`Tag::bits`], one `u32` per data byte, so both
/// lanes are zeroed allocations (`vec![Tag::EMPTY; n]` would be filled
/// element by element, since std zero-allocates only primitive element
/// types). Each lane comes from a fresh mapping (see `FRESH_LANE_BYTES`),
/// which the OS backs lazily: a page costs memory when the guest first
/// touches it, not at construction.
///
/// A written-page map keeps one bit per 4 KiB page, set by every
/// write path (CPU stores, image loads, classification, bit flips, TLM
/// writes). A page whose bit is clear holds only zeros in both lanes, so
/// the whole-RAM scans ([`Ram::digest`], [`Ram::atom_spread`]) and tag
/// clearing skip it without faulting it in; inside written pages they
/// still skip all-zero chunks.
///
/// The SoC bus owns the RAM. The CPU reaches it through the fast
/// accessors below (a DMI-style shortcut, as the real RISC-V VP does); the
/// bus lends it to DMA and other initiators for each transaction, and they
/// go through the [`TlmTarget`] implementation.
#[derive(Debug, Clone)]
pub struct Ram {
    data: Vec<u8>,
    tags: Vec<u32>,
    /// One bit per `PAGE`-byte page, set once anything is written there; a
    /// clear bit means the page is zero in both lanes.
    written: Vec<u64>,
    tracking: bool,
    /// Mutation epoch: bumped on every change that bypasses the CPU's
    /// store path (image loads, classification, DMA/TLM writes, injected
    /// bit flips), so block-caching execution engines know to flush.
    epoch: u64,
    /// One-way taint-idle latch: set once any write path stores a
    /// non-empty tag (see [`Ram::tags_live`]).
    tags_live: bool,
}

/// Bytes per page of the written-page map.
const PAGE: usize = 1 << PAGE_SHIFT;
const PAGE_SHIFT: u32 = 12;

/// Digest bytes of one page of tags.
const TAG_PAGE_BYTES: usize = 4 * PAGE;

/// Smallest allocation, in bytes, that a RAM lane requests (the excess
/// capacity is truncated away). glibc's adaptive mmap threshold rises to
/// the size of a freed mapped chunk but never above 32 MiB, so a request
/// this large is always served by a fresh, lazily zero-filled mapping. A
/// smaller lane, once a dropped SoC had raised the threshold, would come
/// from a reused heap chunk that `calloc` must clear in full.
const FRESH_LANE_BYTES: usize = (32 << 20) + 4096;

/// Bytes per whole-RAM scan chunk: inside a written page, an all-zero
/// chunk is skipped (or, in the digest, folded in one multiply).
const SCAN_CHUNK: usize = 64;

/// Tags per scan chunk: each tag is 4 bytes of the digest.
const TAG_CHUNK: usize = SCAN_CHUNK / 4;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// `FNV_PRIME^n` (wrapping), by square-and-multiply.
const fn fnv_prime_pow(mut n: usize) -> u64 {
    let (mut base, mut pow) = (FNV_PRIME, 1u64);
    while n > 0 {
        if n & 1 == 1 {
            pow = pow.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        n >>= 1;
    }
    pow
}

/// The digest after `n` zero bytes: FNV-1a over a zero byte is one
/// multiply by the prime. The common lengths (a scan chunk, a data page, a
/// tag page) use precomputed powers.
#[inline]
fn fold_zeros(h: u64, n: usize) -> u64 {
    const CHUNK_POW: u64 = fnv_prime_pow(SCAN_CHUNK);
    const PAGE_POW: u64 = fnv_prime_pow(PAGE);
    const TAG_PAGE_POW: u64 = fnv_prime_pow(TAG_PAGE_BYTES);
    let pow = match n {
        SCAN_CHUNK => CHUNK_POW,
        PAGE => PAGE_POW,
        TAG_PAGE_BYTES => TAG_PAGE_POW,
        n => fnv_prime_pow(n),
    };
    h.wrapping_mul(pow)
}

/// One FNV-1a step.
#[inline]
fn fnv1a(h: u64, byte: u8) -> u64 {
    (h ^ byte as u64).wrapping_mul(FNV_PRIME)
}

/// A zeroed lane of `n` elements, allocated from a fresh mapping.
fn fresh_lane<T: Copy + Default>(n: usize) -> Vec<T> {
    let mut lane = vec![T::default(); n.max(FRESH_LANE_BYTES.div_ceil(size_of::<T>()))];
    lane.truncate(n);
    lane
}

/// Whether the written-page map `written` has `page`'s bit set.
#[inline]
fn page_written(written: &[u64], page: usize) -> bool {
    written[page / 64] >> (page % 64) & 1 != 0
}

/// The parts of `[off, off + len)` that lie in written pages, one range
/// per page.
fn written_parts(
    written: &[u64],
    off: usize,
    len: usize,
) -> impl Iterator<Item = Range<usize>> + '_ {
    let end = off + len;
    (off >> PAGE_SHIFT..end.div_ceil(PAGE))
        .filter(|&page| page_written(written, page))
        .map(move |page| (page * PAGE).max(off)..((page + 1) * PAGE).min(end))
}

impl Ram {
    /// Creates zeroed RAM of `size` bytes; `tracking` selects tag storage.
    pub fn new(size: usize, tracking: bool) -> Self {
        Ram {
            data: fresh_lane(size),
            tags: if tracking { fresh_lane(size) } else { Vec::new() },
            written: vec![0; size.div_ceil(PAGE).div_ceil(64)],
            tracking,
            epoch: 0,
            tags_live: false,
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

    /// Marks the pages of `[off, off + len)` written.
    #[inline]
    fn mark_written(&mut self, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        for page in off >> PAGE_SHIFT..=(off + len - 1) >> PAGE_SHIFT {
            self.written[page / 64] |= 1 << (page % 64);
        }
    }

    /// `false` while every tag RAM has ever held is empty: no store,
    /// classification, tag-bit flip or TLM write has carried a non-empty
    /// tag. The system bus reads this half of the taint-idle latch; the
    /// latch never clears.
    pub fn tags_live(&self) -> bool {
        self.tags_live
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
        self.mark_written(off, size as usize);
        self.tags_live |= self.tracking && !tag.is_empty();
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
            for part in written_parts(&self.written, off, image.len()) {
                self.tags[part].fill(0);
            }
        }
        self.mark_written(off, image.len());
        self.bump_epoch();
    }

    /// Zeroes `[offset, offset+len)`, data and tags (an ELF segment's BSS
    /// tail). Pages never written are zero already and stay untouched, so
    /// a large zero-fill maps no memory.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn zero_fill(&mut self, offset: u32, len: usize) {
        let off = offset as usize;
        assert!(off + len <= self.data.len(), "zero-fill {off:#x}+{len:#x} past RAM end");
        for part in written_parts(&self.written, off, len) {
            self.data[part.clone()].fill(0);
            if self.tracking {
                self.tags[part].fill(0);
            }
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
        self.mark_written(off, len);
        self.bump_epoch();
        self.tags_live |= !tag.is_empty();
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
        self.mark_written(offset as usize, 1);
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
        self.mark_written(offset as usize, 1);
        self.bump_epoch();
        self.tags_live |= !flipped.is_empty();
        Some(flipped)
    }

    /// FNV-1a digest over all data bytes and (when tracking) the
    /// little-endian tag bits — the memory half of the differential engine
    /// harness's final-state comparison.
    ///
    /// FNV-1a over a zero byte is one multiply by the prime, so a page never
    /// written, or an all-zero `SCAN_CHUNK`-byte chunk of a written one,
    /// folds as one multiply by its power: the result equals the
    /// byte-by-byte digest, and memory the guest never wrote is not read.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for (page, bytes) in self.data.chunks(PAGE).enumerate() {
            if !page_written(&self.written, page) {
                h = fold_zeros(h, bytes.len());
                continue;
            }
            for chunk in bytes.chunks(SCAN_CHUNK) {
                h = if chunk.iter().fold(0, |a, &b| a | b) == 0 {
                    fold_zeros(h, chunk.len())
                } else {
                    chunk.iter().copied().fold(h, fnv1a)
                };
            }
        }
        for (page, tags) in self.tags.chunks(PAGE).enumerate() {
            if !page_written(&self.written, page) {
                h = fold_zeros(h, 4 * tags.len());
                continue;
            }
            for chunk in tags.chunks(TAG_CHUNK) {
                h = if chunk.iter().fold(0, |a, &t| a | t) == 0 {
                    fold_zeros(h, 4 * chunk.len())
                } else {
                    chunk.iter().flat_map(|t| t.to_le_bytes()).fold(h, fnv1a)
                };
            }
        }
        h
    }

    /// Counts, per taint atom, how many bytes currently carry that atom —
    /// the taint-spread sample fed to the observability layer. All-zero
    /// when not tracking. Pages never written are skipped and an all-zero
    /// chunk of a written page costs one OR-reduction; callers still sample
    /// sparingly.
    pub fn atom_spread(&self) -> [u32; Tag::CAPACITY as usize] {
        let mut counts = [0u32; Tag::CAPACITY as usize];
        let pages = written_parts(&self.written, 0, self.tags.len());
        for chunk in pages.flat_map(|part| self.tags[part].chunks(TAG_CHUNK)) {
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
    fn transport(&mut self, p: &mut GenericPayload, _delay: &mut SimTime, _loan: &mut Loan<'_>) {
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
                self.mark_written(base, p.len());
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
                self.tags_live |= !incoming.is_empty();
            }
            TlmCommand::Ignore => {}
        }
        p.set_response(TlmResponse::Ok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmio::tests::lend_permissive;

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
    fn image_load_over_a_classified_page_clears_its_stale_tags() {
        // The classified run straddles pages 0 and 1; the image covers the
        // end of page 0, all of page 1 and page 2, which was never written.
        let mut ram = Ram::new(4 * PAGE, true);
        let page = PAGE as u32;
        ram.classify(page - 4, 8, Tag::atom(2));
        ram.load_image(page - 2, &[7; 2 * PAGE]);
        assert_eq!(ram.byte_at(page - 4).unwrap(), (0, Tag::atom(2)), "before the image");
        assert_eq!(ram.byte_at(page - 1).unwrap(), (7, Tag::EMPTY));
        assert_eq!(ram.byte_at(page + 3).unwrap(), (7, Tag::EMPTY), "stale tag on page 1");
        assert_eq!(ram.byte_at(3 * page - 3).unwrap(), (7, Tag::EMPTY));
        assert_eq!(ram.atom_spread()[2], 2);
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
        lend_permissive(&mut ram, &mut w);
        assert!(w.is_ok());
        let mut r = GenericPayload::read(4, 2);
        lend_permissive(&mut ram, &mut r);
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
        lend_permissive(&mut ram, &mut p);
        assert_eq!(p.response(), TlmResponse::AddressError);
        assert!(ram.fits(4, 4));
        assert!(!ram.fits(5, 4));
    }
}

//! `Ram::digest` and `Ram::atom_spread` skip all-zero chunks. These
//! properties check both against byte-by-byte oracles that live here, on
//! sparse contents around the chunk boundaries, tracking on and off.

use proptest::prelude::*;
use vpdift_core::Tag;
use vpdift_periph::Ram;

/// Plain FNV-1a over every data byte, then every tag's little-endian bytes.
fn fnv1a_oracle(data: &[u8], tags: &[Tag]) -> u64 {
    let tag_bytes = tags.iter().flat_map(|t| t.bits().to_le_bytes());
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in data.iter().copied().chain(tag_bytes) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Per atom, the number of bytes whose tag carries it.
fn spread_oracle(tags: &[Tag]) -> [u32; 32] {
    let mut counts = [0u32; 32];
    for t in tags {
        for (atom, count) in counts.iter_mut().enumerate() {
            if t.bits() & (1 << atom) != 0 {
                *count += 1;
            }
        }
    }
    counts
}

fn size() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0), Just(1), Just(63), Just(64), Just(65), Just(4097), 0usize..9000]
}

fn tag() -> impl Strategy<Value = Tag> {
    prop_oneof![
        Just(Tag::EMPTY),
        Just(Tag::from_bits(u32::MAX)),
        (0u32..32).prop_map(Tag::atom),
        any::<u32>().prop_map(Tag::from_bits),
    ]
}

/// A sparse write: `len` bytes at a position scaled into the RAM, all set
/// to `value` and stamped with `tag`. `len` reaches past one chunk, so
/// runs straddle chunk boundaries; a zero `value` with a non-empty tag
/// leaves a chunk whose only non-zero bytes are tags.
fn writes() -> impl Strategy<Value = Vec<(u32, usize, u8, Tag)>> {
    prop::collection::vec((any::<u32>(), 1usize..130, any::<u8>(), tag()), 0..12)
}

/// Builds the RAM and its oracle mirror (tags stay empty when untracked,
/// as the RAM keeps none).
fn build(
    size: usize,
    tracking: bool,
    writes: &[(u32, usize, u8, Tag)],
) -> (Ram, Vec<u8>, Vec<Tag>) {
    let mut ram = Ram::new(size, tracking);
    let mut data = vec![0u8; size];
    let mut tags = vec![Tag::EMPTY; if tracking { size } else { 0 }];
    for &(pos, len, value, tag) in writes {
        if size == 0 {
            break;
        }
        let start = (pos as usize) % size;
        let len = len.min(size - start);
        for off in start..start + len {
            ram.store(off as u32, 1, u32::from(value), tag);
            data[off] = value;
            if tracking {
                tags[off] = tag;
            }
        }
    }
    (ram, data, tags)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn digest_matches_byte_by_byte_fnv1a(
        size in size(),
        tracking in any::<bool>(),
        writes in writes(),
    ) {
        let (ram, data, tags) = build(size, tracking, &writes);
        prop_assert_eq!(ram.digest(), fnv1a_oracle(&data, &tags));
    }

    #[test]
    fn atom_spread_matches_per_byte_count(
        size in size(),
        tracking in any::<bool>(),
        writes in writes(),
    ) {
        let (ram, _data, tags) = build(size, tracking, &writes);
        prop_assert_eq!(ram.atom_spread(), spread_oracle(&tags));
    }
}

#[test]
fn saturated_tags_and_untouched_ram_match_the_oracles() {
    for size in [0, 1, 63, 64, 65, 4097] {
        for tracking in [false, true] {
            let (ram, data, tags) = build(size, tracking, &[]);
            assert_eq!(ram.digest(), fnv1a_oracle(&data, &tags), "zero RAM, size {size}");
            assert_eq!(ram.atom_spread(), [0; 32]);
            let (ram, data, tags) =
                build(size, tracking, &[(u32::MAX, 70, 0, Tag::from_bits(u32::MAX))]);
            assert_eq!(ram.digest(), fnv1a_oracle(&data, &tags), "top tags, size {size}");
            assert_eq!(ram.atom_spread(), spread_oracle(&tags));
        }
    }
}

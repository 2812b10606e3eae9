//! `Ram::digest` and `Ram::atom_spread` skip pages never written and
//! all-zero chunks of written ones. These properties check both against
//! byte-by-byte oracles that live here, on sparse contents written through
//! every write path of `Ram`, around chunk and 4 KiB page boundaries,
//! tracking on and off. A write path that forgot to mark its page would
//! leave data the scans skip, and the oracles would disagree.

use proptest::prelude::*;
use vpdift_core::{DiftEngine, SecurityPolicy, Tag, Taint};
use vpdift_kernel::SimTime;
use vpdift_periph::Ram;
use vpdift_tlm::{GenericPayload, Loan};

/// Bytes per page of `Ram`'s written-page map.
const PAGE: u32 = 4096;

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
    prop_oneof![
        Just(0),
        Just(1),
        Just(63),
        Just(64),
        Just(65),
        Just(4096),
        Just(4097),
        Just(8193),
        0usize..9000
    ]
}

fn tag() -> impl Strategy<Value = Tag> {
    prop_oneof![
        Just(Tag::EMPTY),
        Just(Tag::from_bits(u32::MAX)),
        (0u32..32).prop_map(Tag::atom),
        any::<u32>().prop_map(Tag::from_bits),
    ]
}

/// One write through one of `Ram`'s write paths, over a run of bytes.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// CPU stores of `width` bytes (the last one shorter), each byte
    /// `value` stamped with `tag`.
    Store { width: usize, value: u8, tag: Tag },
    /// A program image of `value` bytes: tags cleared.
    Image { value: u8 },
    /// Classification: tags stamped, data unchanged.
    Classify { tag: Tag },
    /// One TLM write burst of `value` bytes tagged `tag`.
    Tlm { value: u8, tag: Tag },
    /// A zero-fill (an ELF BSS tail): data and tags cleared.
    Zero,
    /// Data bit `bit` flipped in every byte.
    DataFlip { bit: u32 },
    /// Tag atom `atom` flipped in every byte.
    TagFlip { atom: u32 },
}

fn path() -> impl Strategy<Value = Path> {
    prop_oneof![
        (1usize..5, any::<u8>(), tag()).prop_map(|(width, value, tag)| Path::Store {
            width,
            value,
            tag
        }),
        any::<u8>().prop_map(|value| Path::Image { value }),
        tag().prop_map(|tag| Path::Classify { tag }),
        (any::<u8>(), tag()).prop_map(|(value, tag)| Path::Tlm { value, tag }),
        Just(Path::Zero),
        (0u32..8).prop_map(|bit| Path::DataFlip { bit }),
        (0u32..32).prop_map(|atom| Path::TagFlip { atom }),
    ]
}

/// Where a run starts, before it is scaled into the RAM: anywhere, or just
/// below one of the first two page boundaries, so runs cross pages.
fn position() -> impl Strategy<Value = u32> {
    prop_oneof![any::<u32>(), (1u32..3, 0u32..160).prop_map(|(page, back)| page * PAGE - back)]
}

/// Sparse writes: `len` bytes at a position scaled into the RAM. `len`
/// reaches past one chunk, so runs straddle chunk and page boundaries; a
/// zero `value` with a non-empty tag leaves a chunk whose only non-zero
/// bytes are tags.
fn writes() -> impl Strategy<Value = Vec<(u32, usize, Path)>> {
    prop::collection::vec((position(), 1usize..300, path()), 0..12)
}

/// Builds the RAM and its oracle mirror (tags stay empty when untracked,
/// as the RAM keeps none).
fn build(size: usize, tracking: bool, writes: &[(u32, usize, Path)]) -> (Ram, Vec<u8>, Vec<Tag>) {
    let mut ram = Ram::new(size, tracking);
    let mut data = vec![0u8; size];
    let mut tags = vec![Tag::EMPTY; if tracking { size } else { 0 }];
    for &(pos, len, path) in writes {
        if size == 0 {
            break;
        }
        let start = (pos as usize) % size;
        let run = start..start + len.min(size - start);
        let mut mirror = |value: Option<u8>, tag: Option<Tag>| {
            for off in run.clone() {
                if let Some(v) = value {
                    data[off] = v;
                }
                if let (true, Some(t)) = (tracking, tag) {
                    tags[off] = t;
                }
            }
        };
        match path {
            Path::Store { width, value, tag } => {
                for off in run.clone().step_by(width) {
                    let n = width.min(run.end - off) as u32;
                    ram.store(off as u32, n, u32::from_le_bytes([value; 4]), tag);
                }
                mirror(Some(value), Some(tag));
            }
            Path::Image { value } => {
                ram.load_image(start as u32, &vec![value; run.len()]);
                mirror(Some(value), Some(Tag::EMPTY));
            }
            Path::Classify { tag } => {
                ram.classify(start as u32, run.len(), tag);
                mirror(None, Some(tag));
            }
            Path::Tlm { value, tag } => {
                let mut p =
                    GenericPayload::write(start as u32, &vec![Taint::new(value, tag); run.len()]);
                let mut engine = DiftEngine::new(SecurityPolicy::permissive());
                let mut loan = Loan { mem: &mut ram, engine: &mut engine, obs: None, pc: None };
                loan.reach(&mut p, &mut SimTime::ZERO.clone());
                assert!(p.is_ok());
                mirror(Some(value), Some(tag));
            }
            Path::Zero => {
                ram.zero_fill(start as u32, run.len());
                mirror(Some(0), Some(Tag::EMPTY));
            }
            Path::DataFlip { bit } => {
                for off in run.clone() {
                    assert!(ram.flip_data_bit(off as u32, bit).is_some());
                    data[off] ^= 1 << bit;
                }
            }
            Path::TagFlip { atom } => {
                for off in run.clone() {
                    assert_eq!(ram.flip_tag_bit(off as u32, atom).is_some(), tracking);
                    if tracking {
                        tags[off] = Tag::from_bits(tags[off].bits() ^ 1 << atom);
                    }
                }
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
    let top = Path::Classify { tag: Tag::from_bits(u32::MAX) };
    for size in [0, 1, 63, 64, 65, 4097] {
        for tracking in [false, true] {
            let (ram, data, tags) = build(size, tracking, &[]);
            assert_eq!(ram.digest(), fnv1a_oracle(&data, &tags), "zero RAM, size {size}");
            assert_eq!(ram.atom_spread(), [0; 32]);
            let (ram, data, tags) = build(size, tracking, &[(u32::MAX, 70, top)]);
            assert_eq!(ram.digest(), fnv1a_oracle(&data, &tags), "top tags, size {size}");
            assert_eq!(ram.atom_spread(), spread_oracle(&tags));
        }
    }
}

#[test]
fn a_store_across_a_page_boundary_marks_both_pages() {
    let store = Path::Store { width: 4, value: 0xA5, tag: Tag::atom(7) };
    for tracking in [false, true] {
        let (ram, data, tags) = build(2 * PAGE as usize, tracking, &[(PAGE - 2, 4, store)]);
        assert_eq!(ram.digest(), fnv1a_oracle(&data, &tags), "tracking {tracking}");
        assert_eq!(ram.atom_spread(), spread_oracle(&tags));
    }
}

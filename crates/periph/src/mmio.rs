//! Small helpers shared by all memory-mapped peripherals.

use vpdift_core::Taint;
use vpdift_tlm::GenericPayload;

/// Copies a tainted register word into a payload of 1, 2 or 4 bytes
/// (sub-word MMIO reads see the low bytes).
pub fn put_word(p: &mut GenericPayload, word: Taint<u32>) {
    let mut lanes = [Taint::untainted(0u8); 4];
    word.to_bytes(&mut lanes);
    let n = p.len().min(4);
    p.data_mut()[..n].copy_from_slice(&lanes[..n]);
}

/// Reassembles the payload's (1–4 byte) data lane into a tainted word,
/// zero-extending and LUB-ing byte tags.
pub fn get_word(p: &GenericPayload) -> Taint<u32> {
    let mut lanes = [Taint::untainted(0u8); 4];
    let n = p.len().min(4);
    lanes[..n].copy_from_slice(&p.data()[..n]);
    Taint::from_bytes(&lanes)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vpdift_core::{DiftEngine, Tag};
    use vpdift_kernel::SimTime;
    use vpdift_tlm::{Loan, TlmTarget};

    /// Runs `p` through `target` the way a bus would, lending `engine` and
    /// no memory.
    pub(crate) fn lend_engine(
        target: &mut dyn TlmTarget,
        p: &mut GenericPayload,
        engine: &mut DiftEngine,
    ) {
        Loan { mem: target, engine, obs: None }.reach(p, &mut SimTime::ZERO.clone());
    }

    #[test]
    fn word_round_trip_full_width() {
        let mut p = GenericPayload::read(0, 4);
        put_word(&mut p, Taint::new(0x1234_5678, Tag::atom(1)));
        let w = get_word(&p);
        assert_eq!(w.value(), 0x1234_5678);
        assert_eq!(w.tag(), Tag::atom(1));
    }

    #[test]
    fn sub_word_sees_low_bytes() {
        let mut p = GenericPayload::read(0, 1);
        put_word(&mut p, Taint::new(0xAABB_CCDD, Tag::atom(0)));
        assert_eq!(p.data()[0].value(), 0xDD);
        assert_eq!(get_word(&p).value(), 0xDD);
        assert_eq!(get_word(&p).tag(), Tag::atom(0));
    }
}

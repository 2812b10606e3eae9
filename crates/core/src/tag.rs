//! Security tags as *taint-atom bitsets*.
//!
//! The paper represents each security class of the IFP as a small integer
//! tag and routes every `LUB` through a global policy function. We instead
//! encode each class as the **set of join-irreducible "taint atoms"** below
//! it in the lattice (see [`crate::lattice`]), which makes the two hot
//! operations context-free:
//!
//! * `LUB` is bitwise OR,
//! * `allowedFlow(x, y)` is the subset test `x ⊆ y`.
//!
//! This is sound for every distributive lattice (Birkhoff representation),
//! which covers all policies in the paper — IFP-1/2/3 and the per-PIN-byte
//! refinement. [`crate::lattice::Lattice::compile`] verifies soundness and
//! rejects non-distributive inputs.

use core::fmt;
use core::ops::{BitOr, BitOrAssign};

/// A security tag: a set of up to 32 taint atoms.
///
/// The empty tag is the lattice bottom (fully public / fully trusted data);
/// every set bit adds a restriction (e.g. "depends on the secret PIN" or
/// "influenced by untrusted input").
///
/// ```
/// use vpdift_core::Tag;
/// let conf = Tag::from_bits(0b01);
/// let untrusted = Tag::from_bits(0b10);
/// let both = conf.lub(untrusted);
/// assert!(conf.flows_to(both));
/// assert!(!both.flows_to(conf));
/// assert_eq!(both, conf | untrusted);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Tag(u32);

impl Tag {
    /// The bottom tag: public, trusted data with no restrictions.
    pub const EMPTY: Tag = Tag(0);
    /// Number of distinct atoms a [`Tag`] can hold.
    pub const CAPACITY: u32 = 32;

    /// Creates a tag from a raw atom bitmask.
    pub const fn from_bits(bits: u32) -> Self {
        Tag(bits)
    }

    /// Creates a tag containing the single atom `index`.
    ///
    /// # Panics
    /// Panics if `index >= Tag::CAPACITY`.
    pub const fn atom(index: u32) -> Self {
        assert!(index < Tag::CAPACITY, "taint atom index out of range");
        Tag(1 << index)
    }

    /// Raw atom bitmask.
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// `true` iff no atoms are set (bottom / fully public & trusted).
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Least upper bound: the tag of data computed from both operands.
    #[must_use]
    pub const fn lub(self, other: Tag) -> Tag {
        Tag(self.0 | other.0)
    }

    /// `allowedFlow(self, dst)`: may data carrying this tag flow into a
    /// location/sink whose security class is `dst`?
    pub const fn flows_to(self, dst: Tag) -> bool {
        self.0 & !dst.0 == 0
    }

    /// `true` iff every atom of `other` is also set in `self`.
    pub const fn contains(self, other: Tag) -> bool {
        other.0 & !self.0 == 0
    }

    /// Set intersection of two tags (greatest lower bound).
    #[must_use]
    pub const fn glb(self, other: Tag) -> Tag {
        Tag(self.0 & other.0)
    }

    /// Removes the atoms of `other` — the *declassification* primitive.
    /// Only trusted peripherals may invoke this via
    /// [`DeclassifyCap`](crate::policy::DeclassifyCap).
    #[must_use]
    pub const fn without(self, other: Tag) -> Tag {
        Tag(self.0 & !other.0)
    }

    /// Number of atoms set.
    pub const fn atom_count(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterates over the indices of set atoms, ascending. Each step clears
    /// the lowest set bit, so the cost is one step per atom, not per slot.
    pub fn atoms(self) -> impl Iterator<Item = u32> {
        let mut bits = self.0;
        core::iter::from_fn(move || {
            let atom = (bits != 0).then(|| bits.trailing_zeros())?;
            bits &= bits - 1;
            Some(atom)
        })
    }
}

impl BitOr for Tag {
    type Output = Tag;
    fn bitor(self, rhs: Tag) -> Tag {
        self.lub(rhs)
    }
}

impl BitOrAssign for Tag {
    fn bitor_assign(&mut self, rhs: Tag) {
        self.0 |= rhs.0;
    }
}

impl fmt::Debug for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tag({:#b})", self.0)
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        write!(f, "{{")?;
        let mut first = true;
        for a in self.atoms() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl fmt::Binary for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::LowerHex for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lub_is_union() {
        let a = Tag::from_bits(0b0011);
        let b = Tag::from_bits(0b0110);
        assert_eq!(a.lub(b), Tag::from_bits(0b0111));
        assert_eq!(a | b, a.lub(b));
        let mut c = a;
        c |= b;
        assert_eq!(c, Tag::from_bits(0b0111));
    }

    #[test]
    fn flow_is_subset() {
        let public = Tag::EMPTY;
        let secret = Tag::atom(0);
        assert!(public.flows_to(secret)); // LC -> HC fine
        assert!(!secret.flows_to(public)); // HC -> LC blocked
        assert!(secret.flows_to(secret));
    }

    #[test]
    fn declassify_removes_atoms() {
        let t = Tag::from_bits(0b1011);
        assert_eq!(t.without(Tag::from_bits(0b0010)), Tag::from_bits(0b1001));
        assert_eq!(t.without(t), Tag::EMPTY);
        // Removing atoms that are not set is a no-op.
        assert_eq!(t.without(Tag::from_bits(0b0100)), t);
    }

    #[test]
    fn atoms_iterate_ascending() {
        let t = Tag::from_bits(0b1010_0001);
        assert_eq!(t.atoms().collect::<Vec<_>>(), vec![0, 5, 7]);
        assert_eq!(t.atom_count(), 3);
    }

    #[test]
    fn atoms_match_the_bit_filter() {
        let reference =
            |bits: u32| (0..Tag::CAPACITY).filter(|i| bits & (1 << i) != 0).collect::<Vec<_>>();
        // xorshift32: a fixed pseudo-random sequence of tags.
        let mut x = 0x9E37_79B9u32;
        let random = std::iter::repeat_with(|| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        });
        for bits in [0, u32::MAX, 1, 1 << 31].into_iter().chain(random.take(1000)) {
            assert_eq!(Tag::from_bits(bits).atoms().collect::<Vec<_>>(), reference(bits));
        }
    }

    #[test]
    fn lattice_laws_hold_for_or_encoding() {
        let vals = [0u32, 1, 2, 3, 0b101, 0b111, u32::MAX];
        for &x in &vals {
            for &y in &vals {
                for &z in &vals {
                    let (x, y, z) = (Tag::from_bits(x), Tag::from_bits(y), Tag::from_bits(z));
                    assert_eq!(x.lub(y), y.lub(x));
                    assert_eq!(x.lub(x), x);
                    assert_eq!(x.lub(y.lub(z)), x.lub(y).lub(z));
                    assert_eq!(x.lub(x.glb(y)), x); // absorption
                    assert_eq!(x.glb(x.lub(y)), x);
                }
            }
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Tag::EMPTY.to_string(), "∅");
        assert_eq!(Tag::from_bits(0b101).to_string(), "{0,2}");
        assert_eq!(format!("{:b}", Tag::from_bits(5)), "101");
        assert_eq!(format!("{:x}", Tag::from_bits(255)), "ff");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn atom_index_bounds_checked() {
        let _ = Tag::atom(32);
    }
}

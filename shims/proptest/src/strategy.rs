//! Value-generation strategies: the shim's equivalent of
//! `proptest::strategy` plus the collection/array constructors.

use core::marker::PhantomData;
use core::ops::{Range, RangeInclusive};

use crate::test_runner::TestRng;

/// How many draws `prop_filter_map` attempts before giving up on finding
/// an accepted value.
const FILTER_MAP_RETRIES: u32 = 1_000;

/// A generator of test-case inputs.
///
/// Unlike real proptest there is no value tree / shrinking: `generate`
/// directly produces one concrete value per case.
pub trait Strategy {
    /// The value this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Transforms generated values, redrawing while `f` returns `None`.
    /// `reason` is reported if no value is accepted after many draws.
    fn prop_filter_map<U, F>(self, reason: &'static str, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<U>,
    {
        FilterMap { inner: self, f, reason }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter_map`].
#[derive(Debug, Clone)]
pub struct FilterMap<S, F> {
    inner: S,
    f: F,
    reason: &'static str,
}

impl<S, F, U> Strategy for FilterMap<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> Option<U>,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        for _ in 0..FILTER_MAP_RETRIES {
            if let Some(v) = (self.f)(self.inner.generate(rng)) {
                return v;
            }
        }
        panic!("prop_filter_map found no acceptable value: {}", self.reason);
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a full-domain uniform strategy (`any::<T>()`).
pub trait Arbitrary {
    /// Draws one uniformly random value over the whole domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Full-domain strategy for an [`Arbitrary`] type.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// See [`any`].
#[derive(Debug, Clone)]
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i64 as u64).wrapping_sub(self.start as i64 as u64);
                (self.start as i64).wrapping_add(rng.below(span) as i64) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (low, high) = (*self.start(), *self.end());
                assert!(low <= high, "cannot sample empty range");
                let span = (high as i64 as u64).wrapping_sub(low as i64 as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (low as i64).wrapping_add((rng.next_u64() % (span + 1)) as i64) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, usize, i8, i16, i32);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A 0, B 1);
    (A 0, B 1, C 2);
    (A 0, B 1, C 2, D 3);
    (A 0, B 1, C 2, D 3, E 4);
    (A 0, B 1, C 2, D 3, E 4, F 5);
}

/// Uniform choice between heterogeneous strategies sharing a value type.
/// Built by the [`prop_oneof!`](crate::prop_oneof) macro.
pub struct OneOf<V> {
    arms: Vec<Box<dyn Fn(&mut TestRng) -> V>>,
}

impl<V> OneOf<V> {
    /// An empty choice; add arms with [`OneOf::or`].
    pub fn new() -> Self {
        OneOf { arms: Vec::new() }
    }

    /// Adds an equally weighted arm.
    pub fn or<S>(mut self, s: S) -> Self
    where
        S: Strategy<Value = V> + 'static,
    {
        self.arms.push(Box::new(move |rng| s.generate(rng)));
        self
    }
}

impl<V> Default for OneOf<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        assert!(!self.arms.is_empty(), "prop_oneof! needs at least one arm");
        let idx = rng.below(self.arms.len() as u64) as usize;
        (self.arms[idx])(rng)
    }
}

/// `Vec` strategy with a uniformly drawn length in `len` (half-open).
pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, len }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.len.clone().generate(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// `[T; 4]` strategy drawing each element independently.
pub fn uniform4<S: Strategy>(element: S) -> Uniform4<S> {
    Uniform4 { element }
}

/// See [`uniform4`].
#[derive(Debug, Clone)]
pub struct Uniform4<S> {
    element: S,
}

impl<S: Strategy> Strategy for Uniform4<S> {
    type Value = [S::Value; 4];

    fn generate(&self, rng: &mut TestRng) -> [S::Value; 4] {
        [
            self.element.generate(rng),
            self.element.generate(rng),
            self.element.generate(rng),
            self.element.generate(rng),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_and_maps_stay_in_bounds() {
        let mut rng = TestRng::deterministic("ranges_and_maps_stay_in_bounds");
        let doubled = (0u32..50).prop_map(|v| v * 2);
        for _ in 0..500 {
            let v = (-2048i32..=2047).generate(&mut rng);
            assert!((-2048..=2047).contains(&v));
            assert!(doubled.generate(&mut rng) < 100);
        }
    }

    #[test]
    fn oneof_reaches_every_arm() {
        let mut rng = TestRng::deterministic("oneof_reaches_every_arm");
        let s = OneOf::new().or(Just(1u8)).or(Just(2u8)).or(Just(3u8));
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert_eq!(seen, [false, true, true, true]);
    }

    #[test]
    fn vec_lengths_respect_range() {
        let mut rng = TestRng::deterministic("vec_lengths_respect_range");
        let s = vec(any::<u8>(), 3..7);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((3..7).contains(&v.len()));
        }
    }
}

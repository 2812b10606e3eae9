//! Thread-safe shared-cell primitives underpinning the `Send` virtual
//! prototype.
//!
//! Little of a [`Soc`](../vpdift_soc/struct.Soc.html) is aliased any
//! more: the system bus owns RAM, the DIFT engine, the observability sink
//! and every device, and lends them per transaction; faults are armed on
//! the part they disturb, as plain state. The one thing still shared is
//! the CAN link between the controller and the host's ECU endpoint (with
//! the faults armed on its wire); the engine, UART, terminal and sink sit
//! in a [`MutCell`] only for host-side `borrow()`s.
//! Historically that aliasing was `Rc<RefCell<T>>` — correct for the
//! single-threaded simulator, but it froze every session onto one thread
//! and made fleet execution (N parallel campaign sessions) impossible.
//!
//! [`MutCell`] replaces `RefCell` with the *same dynamic borrow
//! discipline* — shared borrows count up, an exclusive borrow requires no
//! outstanding borrow, conflicts panic — implemented on an atomic counter
//! so the cell is `Sync` and an [`Arc`]-shared graph of them is `Send`.
//! Within one VP the graph is still used strictly single-threaded (each
//! fleet worker owns its sessions outright), so a borrow conflict remains
//! what it always was: a re-entrancy bug, reported by panic exactly as
//! `RefCell` would. The uncontended atomic costs one `compare_exchange`
//! per borrow; the guest path takes none, since the bus reaches the cells
//! it owns with [`MutCell::get_mut`].
//!
//! [`Shared<T>`] is the `Arc<MutCell<T>>` alias that link uses,
//! constructed via [`shared`].

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Borrow-state value marking an active exclusive borrow.
const WRITING: usize = usize::MAX;

/// An atomically borrow-checked cell: `RefCell` semantics (counted shared
/// borrows, exclusive mutable borrow, panic on conflict) with `Sync`
/// sharing, so object graphs built from [`Shared`] handles are `Send`.
pub struct MutCell<T: ?Sized> {
    /// 0 = unborrowed, `WRITING` = exclusively borrowed, else the number
    /// of live shared borrows.
    borrows: AtomicUsize,
    value: UnsafeCell<T>,
}

// SAFETY: the atomic borrow counter serialises *mutable* access — an
// exclusive borrow is only granted when no other borrow (shared or
// exclusive) is live, and shared borrows never coexist with an exclusive
// one. Shared borrows DO coexist with each other, and a `Sync` cell lets
// two threads hold `&T` concurrently, so `T: Sync` is required in
// addition to `T: Send` — exactly the `RwLock<T>: Sync` bounds. (With
// only `T: Send`, a `T = Cell<u32>` could be data-raced through two
// concurrent shared borrows in safe code.)
unsafe impl<T: ?Sized + Send> Send for MutCell<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for MutCell<T> {}

impl<T> MutCell<T> {
    /// Wraps `value`.
    pub fn new(value: T) -> Self {
        MutCell { borrows: AtomicUsize::new(0), value: UnsafeCell::new(value) }
    }

    /// Consumes the cell and returns the wrapped value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T: ?Sized> MutCell<T> {
    /// Takes a shared borrow.
    ///
    /// # Panics
    /// If an exclusive borrow is live (same discipline as
    /// [`RefCell::borrow`](std::cell::RefCell::borrow)).
    #[inline]
    #[track_caller]
    pub fn borrow(&self) -> MutRef<'_, T> {
        match self.try_borrow() {
            Some(r) => r,
            None => panic!("MutCell already mutably borrowed"),
        }
    }

    /// Takes a shared borrow, or returns `None` if an exclusive borrow
    /// is live — the non-panicking [`borrow`](MutCell::borrow).
    #[inline]
    pub fn try_borrow(&self) -> Option<MutRef<'_, T>> {
        let mut cur = self.borrows.load(Ordering::Relaxed);
        loop {
            if cur == WRITING {
                return None;
            }
            match self.borrows.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(MutRef { cell: self }),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Takes the exclusive borrow.
    ///
    /// # Panics
    /// If any borrow is live (same discipline as
    /// [`RefCell::borrow_mut`](std::cell::RefCell::borrow_mut)).
    #[inline]
    #[track_caller]
    pub fn borrow_mut(&self) -> MutRefMut<'_, T> {
        if self.borrows.compare_exchange(0, WRITING, Ordering::Acquire, Ordering::Relaxed).is_err()
        {
            panic!("MutCell already borrowed");
        }
        MutRefMut { cell: self }
    }

    /// Exclusive access through a unique reference — no runtime check
    /// needed.
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

impl<T: Default> Default for MutCell<T> {
    fn default() -> Self {
        MutCell::new(T::default())
    }
}

impl<T: ?Sized + core::fmt::Debug> core::fmt::Debug for MutCell<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Best-effort: skip the value rather than panic when borrowed.
        // `try_borrow` (not a load-then-borrow) so a racing `borrow_mut`
        // can never turn the formatter into a panic.
        match self.try_borrow() {
            Some(v) => f.debug_struct("MutCell").field("value", &&*v).finish(),
            None => f.debug_struct("MutCell").field("value", &"<mutably borrowed>").finish(),
        }
    }
}

/// A shared borrow of a [`MutCell`].
pub struct MutRef<'a, T: ?Sized> {
    cell: &'a MutCell<T>,
}

impl<T: ?Sized> Deref for MutRef<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the borrow counter guarantees no exclusive borrow is
        // live while this guard exists.
        unsafe { &*self.cell.value.get() }
    }
}

impl<T: ?Sized> Drop for MutRef<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.cell.borrows.fetch_sub(1, Ordering::Release);
    }
}

/// The exclusive borrow of a [`MutCell`].
pub struct MutRefMut<'a, T: ?Sized> {
    cell: &'a MutCell<T>,
}

impl<T: ?Sized> Deref for MutRefMut<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: this guard is the unique exclusive borrow.
        unsafe { &*self.cell.value.get() }
    }
}

impl<T: ?Sized> DerefMut for MutRefMut<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: this guard is the unique exclusive borrow.
        unsafe { &mut *self.cell.value.get() }
    }
}

impl<T: ?Sized> Drop for MutRefMut<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.cell.borrows.store(0, Ordering::Release);
    }
}

/// A shared, interiorly mutable handle — the workspace-wide replacement
/// for `Rc<RefCell<T>>`.
pub type Shared<T> = Arc<MutCell<T>>;

/// Wraps `value` for sharing: `shared(x)` is the canonical spelling of
/// the old `Rc::new(RefCell::new(x))`.
pub fn shared<T>(value: T) -> Shared<T> {
    Arc::new(MutCell::new(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_borrows_coexist() {
        let c = MutCell::new(7);
        let a = c.borrow();
        let b = c.borrow();
        assert_eq!(*a + *b, 14);
    }

    #[test]
    fn exclusive_borrow_mutates() {
        let c = shared(vec![1, 2]);
        c.borrow_mut().push(3);
        assert_eq!(c.borrow().len(), 3);
    }

    #[test]
    #[should_panic(expected = "already borrowed")]
    fn conflict_panics_like_refcell() {
        let c = MutCell::new(0u32);
        let _shared = c.borrow();
        let _mut = c.borrow_mut();
    }

    #[test]
    #[should_panic(expected = "already mutably borrowed")]
    fn shared_after_exclusive_panics() {
        let c = MutCell::new(0u32);
        let _mut = c.borrow_mut();
        let _shared = c.borrow();
    }

    #[test]
    fn unsizes_to_trait_objects() {
        trait Speak {
            fn speak(&self) -> u32;
        }
        struct S(u32);
        impl Speak for S {
            fn speak(&self) -> u32 {
                self.0
            }
        }
        let obj: Shared<dyn Speak + Send + Sync> = shared(S(9));
        assert_eq!(obj.borrow().speak(), 9);
    }

    #[test]
    fn try_borrow_yields_none_under_exclusive() {
        let c = MutCell::new(3u32);
        {
            let _m = c.borrow_mut();
            assert!(c.try_borrow().is_none());
            // Debug must not panic while exclusively borrowed.
            assert!(format!("{c:?}").contains("<mutably borrowed>"));
        }
        assert_eq!(*c.try_borrow().expect("free again"), 3);
    }

    #[test]
    fn sync_requires_inner_sync() {
        // `MutCell<T>: Sync` must demand `T: Sync`, not just `T: Send`
        // — shared borrows hand out `&T` to several threads at once.
        fn assert_sync<T: Sync>() {}
        assert_sync::<MutCell<u32>>();
        // Compile-fail half is enforced by the trait solver; u32 above
        // plus the `Shared<dyn _ + Send + Sync>` aliases across the
        // workspace exercise the positive side.
    }

    #[test]
    fn graph_is_send() {
        fn assert_send<T: Send>(_: &T) {}
        let g: Shared<Vec<u32>> = shared(vec![1]);
        assert_send(&g);
        let h = g.clone();
        let t = std::thread::spawn(move || h.borrow_mut().push(2));
        t.join().unwrap();
        assert_eq!(*g.borrow(), vec![1, 2]);
    }

    #[test]
    fn sequential_borrows_after_drop() {
        let c = MutCell::new(1);
        {
            let _m = c.borrow_mut();
        }
        {
            let _s = c.borrow();
        }
        let _m2 = c.borrow_mut();
    }
}

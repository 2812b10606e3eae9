//! A passing clearance check with no observer allocates nothing: UART and
//! CAN bytes and stores into protected regions are checked on every
//! access, so a `String` built per check would cost an allocation per
//! byte. Own test binary, because it installs a counting global
//! allocator; the count is per thread, so the harness's other threads do
//! not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vpdift_core::{AddrRange, DiftEngine, SecurityPolicy, Tag};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// thread-local counter neither allocates nor has a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn passing_unobserved_checks_allocate_nothing() {
    let policy = SecurityPolicy::builder("alloc")
        .sink("uart.tx", Tag::atom(1))
        .protect_region("vault", AddrRange::new(0x2000, 16), Tag::atom(1))
        .build();
    let mut engine = DiftEngine::new(policy);
    let allocs = allocations_in(|| {
        for i in 0..1_000u32 {
            let tag = if i % 2 == 0 { Tag::EMPTY } else { Tag::atom(1) };
            engine.check_output("uart.tx", tag, Some(0x40), None).expect("public output");
            engine.check_store(0x2000 + i % 16, tag, Some(0x44), None).expect("cleared store");
        }
    });
    assert_eq!(allocs, 0, "allocations by 2 000 passing unobserved checks");
    assert_eq!(engine.stats().checks, 2_000, "every check still counts");

    // A failing check still builds its violation.
    let failing = allocations_in(|| {
        let _ = engine.check_output("uart.tx", Tag::atom(0), None, None);
    });
    assert!(failing > 0);
}

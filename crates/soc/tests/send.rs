//! Compile-time assertion that a `Soc` — and everything it transitively
//! owns — is `Send`, so fleet workers can own sessions outright and
//! migrate them across threads. This is the contract the `vpdift-fleet`
//! executor builds on; if a peripheral regresses to `Rc`/`RefCell`
//! internals, this test stops compiling rather than failing at runtime.

use vpdift_obs::{NullSink, Recorder, StreamSink};
use vpdift_rv32::{Plain, Tainted};
use vpdift_soc::Soc;

fn assert_send<T: Send>() {}

#[test]
fn soc_is_send_in_every_configuration() {
    // Plain and tainted modes, with and without an observability sink.
    assert_send::<Soc<Plain, NullSink>>();
    assert_send::<Soc<Tainted, NullSink>>();
    assert_send::<Soc<Plain, Recorder>>();
    assert_send::<Soc<Tainted, Recorder>>();
    assert_send::<Soc<Tainted, StreamSink>>();
}

#[test]
fn built_soc_moves_across_threads() {
    let soc: Soc<Tainted> = Soc::new(Soc::<Tainted>::builder().build());
    let handle = std::thread::spawn(move || {
        // Run zero guest work — the point is that the whole object graph
        // (clock, bus, peripherals, engine, sink) crossed the thread
        // boundary and is usable there.
        soc.ram().len()
    });
    assert!(handle.join().unwrap() > 0);
}

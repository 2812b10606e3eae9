//! Live-introspection sink: taint watchpoints, a cooperative stop flag,
//! and a bounded buffer of streamable items.
//!
//! Where the [`Recorder`] aggregates for post-mortem
//! reports, the [`StreamSink`] wraps one and additionally makes the event
//! stream *interactive*: a serve layer registers [`Watch`]points, runs the
//! VP in slices, and between slices [`drain`](StreamSink::drain)s whatever
//! matched the subscription — filtered [`ObsEvent`]s, incremental
//! flow-graph [`FlowDelta`]s, and watch hits. When a watchpoint triggers
//! it raises a shared [`StopFlag`] that the SoC run loop polls, so the
//! simulation breaks mid-run instead of at the next exit condition.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use vpdift_core::Tag;
use vpdift_kernel::SimTime;

use crate::event::ObsEvent;
use crate::provenance::FlowDelta;
use crate::recorder::Recorder;
use crate::ring::TimedEvent;
use crate::sink::{ObsSink, ATOM_SLOTS};

/// Default bound on the number of buffered [`StreamItem`]s; older items
/// are dropped (and counted) when a client does not drain fast enough.
pub const STREAM_BUF_CAP: usize = 4096;

/// A shared, cloneable "please stop" latch between a watchpoint evaluator
/// (or any other controller — fleet deadline reapers raise it from another
/// thread) and the SoC run loop. The loop polls [`take`](StopFlag::take)
/// once per dispatch slice regardless of the attached sink (with an
/// enabled sink a slice is one step): the unraised-flag check is a single
/// relaxed atomic load, cheap enough for the `NullSink` hot path, and
/// polling unconditionally is what lets a fleet executor deadline-kill a
/// wedged session that runs without observability. Raised flags end the
/// run with `SocExit::Stopped`.
#[derive(Clone, Debug, Default)]
pub struct StopFlag(Arc<AtomicBool>);

impl StopFlag {
    /// A fresh, unraised flag.
    pub fn new() -> Self {
        StopFlag::default()
    }

    /// Raises the flag. Safe from any thread.
    pub fn request(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// `true` while the flag is raised.
    #[inline]
    pub fn is_requested(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// Lowers the flag, returning whether it was raised. The fast path
    /// (flag not raised) is a single relaxed load.
    #[inline]
    pub fn take(&self) -> bool {
        if !self.0.load(Ordering::Relaxed) {
            return false;
        }
        self.0.swap(false, Ordering::AcqRel)
    }
}

/// What a [`Breakpoint`] fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakKind {
    /// Stop *before* executing the instruction at this PC. Persists
    /// across hits; resuming steps over it once (see [`BreakSet::check`]).
    Pc(u32),
    /// Stop once the retired-instruction count reaches this value.
    /// One-shot: removed automatically when it fires.
    Instret(u64),
}

impl core::fmt::Display for BreakKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BreakKind::Pc(pc) => write!(f, "pc={pc:#010x}"),
            BreakKind::Instret(n) => write!(f, "instret={n}"),
        }
    }
}

/// A registered breakpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Breakpoint {
    /// Identifier assigned at registration, used to unregister and to
    /// attribute hits.
    pub id: u32,
    /// What it fires on.
    pub kind: BreakKind,
}

/// The record a fired breakpoint leaves behind, retrievable once via
/// [`BreakSet::take_hit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakHit {
    /// Which breakpoint fired.
    pub id: u32,
    /// Its kind at the time it fired.
    pub kind: BreakKind,
    /// PC of the instruction about to execute when the run stopped.
    pub pc: u32,
    /// Retired-instruction count at the stop.
    pub instret: u64,
}

#[derive(Debug, Default)]
struct BreakState {
    bps: Vec<Breakpoint>,
    next_id: u32,
    /// `(pc, instret)` of the last hit; consumed by the first
    /// [`check`](BreakSet::check) after a resume so a persistent PC
    /// breakpoint does not immediately re-fire on the same instruction.
    resume: Option<(u32, u64)>,
    hit: Option<BreakHit>,
}

#[derive(Debug, Default)]
struct BreakInner {
    /// Fast-path gate: `true` while any breakpoint is registered. The
    /// run loop reads this (one relaxed load) before touching the mutex,
    /// so sessions without breakpoints never contend.
    armed: AtomicBool,
    state: Mutex<BreakState>,
}

/// A shared, cloneable set of PC / instruction-count breakpoints,
/// evaluated by the SoC run loop *before* each instruction executes.
///
/// Like [`StopFlag`], clones share state, so a serve registry can arm
/// and disarm breakpoints from another thread while the session runs.
/// Unlike the stop poll — which is unconditional so deadline reapers
/// reach `NullSink` fleets — the breakpoint check is observability-gated
/// in the run loop and additionally gated on [`armed`](BreakSet::armed),
/// keeping batch runs at zero cost.
#[derive(Clone, Debug, Default)]
pub struct BreakSet(Arc<BreakInner>);

impl BreakSet {
    /// A fresh, empty set.
    pub fn new() -> Self {
        BreakSet::default()
    }

    /// Registers a breakpoint and returns its id. Ids are never reused.
    pub fn add(&self, kind: BreakKind) -> u32 {
        let mut st = self.0.state.lock().unwrap();
        st.next_id += 1;
        let id = st.next_id;
        st.bps.push(Breakpoint { id, kind });
        self.0.armed.store(true, Ordering::Release);
        id
    }

    /// Unregisters breakpoint `id`; `false` when no such breakpoint
    /// exists.
    pub fn remove(&self, id: u32) -> bool {
        let mut st = self.0.state.lock().unwrap();
        let before = st.bps.len();
        st.bps.retain(|b| b.id != id);
        let removed = st.bps.len() != before;
        if st.bps.is_empty() {
            self.0.armed.store(false, Ordering::Release);
        }
        removed
    }

    /// The registered breakpoints, in registration order.
    pub fn list(&self) -> Vec<Breakpoint> {
        self.0.state.lock().unwrap().bps.clone()
    }

    /// `true` while any breakpoint is registered — a single relaxed
    /// load, the run loop's pre-check before paying for the mutex.
    #[inline]
    pub fn armed(&self) -> bool {
        self.0.armed.load(Ordering::Relaxed)
    }

    /// Evaluates the set against the instruction about to execute.
    /// Returns `true` when a breakpoint fires (the run loop should stop
    /// with `SocExit::Stopped`); the hit is recorded for
    /// [`take_hit`](BreakSet::take_hit).
    ///
    /// The first call after a hit with the *same* `(pc, instret)` —
    /// i.e. resuming at the instruction the break stopped in front of —
    /// skips PC breakpoints once, so persistent PC breaks don't pin the
    /// session in place. Instret breakpoints fire when
    /// `instret >= n` and are removed as they fire.
    pub fn check(&self, pc: u32, instret: u64) -> bool {
        let mut st = self.0.state.lock().unwrap();
        let skip_pc = st.resume.take() == Some((pc, instret));
        let fired = st.bps.iter().find_map(|b| match b.kind {
            BreakKind::Pc(bp) if !skip_pc && bp == pc => Some(*b),
            BreakKind::Instret(n) if instret >= n => Some(*b),
            _ => None,
        });
        let Some(bp) = fired else { return false };
        if matches!(bp.kind, BreakKind::Instret(_)) {
            st.bps.retain(|b| b.id != bp.id);
            if st.bps.is_empty() {
                self.0.armed.store(false, Ordering::Release);
            }
        }
        st.resume = Some((pc, instret));
        st.hit = Some(BreakHit { id: bp.id, kind: bp.kind, pc, instret });
        true
    }

    /// Removes and returns the record of the most recent hit, if any.
    pub fn take_hit(&self) -> Option<BreakHit> {
        self.0.state.lock().unwrap().hit.take()
    }
}

/// What a taint watchpoint watches for.
#[derive(Debug, Clone, PartialEq)]
pub enum WatchKind {
    /// Tainted data reached the named check site (e.g. `"uart.tx"`):
    /// triggers on any check there whose tag is non-empty, or — with
    /// `atom` set — carries that specific atom. Fires whether or not the
    /// check passes, so a leak is caught even under a permissive policy.
    Sink {
        /// The named check site.
        site: String,
        /// Restrict to one atom; `None` matches any non-empty tag.
        atom: Option<u32>,
    },
    /// The tag set reaching an address range changed: triggers when a
    /// store, write transaction, or classification inside
    /// `[start, start+len)` carries a different tag than the range last
    /// saw (initially the empty tag).
    Range {
        /// First address of the watched range.
        start: u32,
        /// Length of the range in bytes.
        len: u32,
    },
    /// A policy violation was recorded, optionally only at one site.
    Violation {
        /// Restrict to violations at this site; `None` matches all.
        site: Option<String>,
    },
}

/// A registered taint watchpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Watch {
    /// Identifier assigned at registration, used to unregister and to
    /// attribute hits.
    pub id: u32,
    /// What it watches for.
    pub kind: WatchKind,
}

struct WatchState {
    watch: Watch,
    /// Tag last seen by a [`WatchKind::Range`] watch.
    last: Tag,
    hits: u64,
}

/// One item a subscriber can receive from [`StreamSink::drain`].
#[derive(Debug, Clone, PartialEq)]
pub enum StreamItem {
    /// A subscribed observability event.
    Event(TimedEvent),
    /// An incremental flow-graph change.
    Flow(FlowDelta),
    /// A watchpoint triggered (the stop flag was raised).
    Watch {
        /// Which watchpoint.
        id: u32,
        /// Human-readable trigger description.
        reason: String,
        /// Simulated time of the trigger.
        time: SimTime,
    },
    /// A breakpoint fired: the run stopped *before* executing `pc`.
    /// Synthesized by the serve layer from [`BreakSet::take_hit`] after
    /// a stopped run (the SoC loop itself never touches the stream).
    Break {
        /// Which breakpoint.
        id: u32,
        /// Human-readable trigger description (e.g. `pc=0x00000040`).
        reason: String,
        /// PC of the instruction about to execute.
        pc: u32,
        /// Retired-instruction count at the stop.
        instret: u64,
    },
}

/// An [`ObsSink`] for live sessions: forwards everything into an inner
/// [`Recorder`] (so metrics/explain/flight reports keep working), buffers
/// the items a subscriber asked for, and evaluates watchpoints.
pub struct StreamSink {
    recorder: Recorder,
    now: SimTime,
    /// Subscribed event kinds ([`ObsEvent::label`] values); `None` means
    /// no event subscription, `Some(empty)` means *all* kinds.
    event_filter: Option<Vec<String>>,
    /// Whether flow-graph deltas are streamed.
    flow_subscribed: bool,
    buf: VecDeque<StreamItem>,
    buf_cap: usize,
    dropped: u64,
    watches: Vec<WatchState>,
    next_watch_id: u32,
    stop: StopFlag,
}

impl StreamSink {
    /// Wraps `recorder` (typically built `with_symbols().with_flow_deltas()`)
    /// and ties watch hits to `stop`.
    pub fn new(recorder: Recorder, stop: StopFlag) -> Self {
        StreamSink {
            recorder,
            now: SimTime::ZERO,
            event_filter: None,
            flow_subscribed: false,
            buf: VecDeque::new(),
            buf_cap: STREAM_BUF_CAP,
            dropped: 0,
            watches: Vec::new(),
            next_watch_id: 1,
            stop: StopFlag::new(),
        }
        .with_stop(stop)
    }

    fn with_stop(mut self, stop: StopFlag) -> Self {
        self.stop = stop;
        self
    }

    /// The inner recorder (metrics, provenance, explain, …).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Mutable access to the inner recorder.
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// The shared stop flag watch hits raise.
    pub fn stop_flag(&self) -> StopFlag {
        self.stop.clone()
    }

    /// Subscribes to event kinds by [`ObsEvent::label`]; an empty list
    /// subscribes to *all* kinds. Replaces any previous subscription.
    pub fn subscribe_events(&mut self, kinds: Vec<String>) {
        self.event_filter = Some(kinds);
    }

    /// Cancels the event subscription (flow/watch items still stream).
    pub fn unsubscribe_events(&mut self) {
        self.event_filter = None;
    }

    /// Turns flow-graph delta streaming on or off. The inner recorder
    /// must have been built [`Recorder::with_flow_deltas`] for deltas to
    /// exist at all.
    pub fn subscribe_flow(&mut self, on: bool) {
        self.flow_subscribed = on;
    }

    /// Registers a watchpoint and returns its id.
    pub fn add_watch(&mut self, kind: WatchKind) -> u32 {
        let id = self.next_watch_id;
        self.next_watch_id += 1;
        self.watches.push(WatchState { watch: Watch { id, kind }, last: Tag::EMPTY, hits: 0 });
        id
    }

    /// Unregisters watch `id`; `false` when no such watch exists.
    pub fn remove_watch(&mut self, id: u32) -> bool {
        let before = self.watches.len();
        self.watches.retain(|w| w.watch.id != id);
        self.watches.len() != before
    }

    /// The registered watchpoints with their hit counts, in id order.
    pub fn watches(&self) -> impl Iterator<Item = (&Watch, u64)> {
        self.watches.iter().map(|w| (&w.watch, w.hits))
    }

    /// Removes and returns everything buffered since the last drain.
    pub fn drain(&mut self) -> Vec<StreamItem> {
        self.buf.drain(..).collect()
    }

    /// Items dropped because the buffer bound was hit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn push(&mut self, item: StreamItem) {
        if self.buf.len() == self.buf_cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
    }

    /// The tag an event presents to range watches at `addr`, when it is
    /// an address-carrying taint movement.
    fn range_sighting(event: &ObsEvent) -> Option<(u32, Tag)> {
        match event {
            ObsEvent::Store { addr, tag, .. } => Some((*addr, *tag)),
            ObsEvent::Tlm { addr, tag, write: true, .. } => Some((*addr, *tag)),
            ObsEvent::Classify { addr: Some(addr), tag, .. } => Some((*addr, *tag)),
            _ => None,
        }
    }

    fn eval_watches(&mut self, event: &ObsEvent) {
        let mut hits: Vec<(u32, String)> = Vec::new();
        for w in &mut self.watches {
            match &w.watch.kind {
                WatchKind::Sink { site, atom } => {
                    let tag = match event {
                        ObsEvent::Check { site: Some(s), tag, .. } if s == site => *tag,
                        _ => continue,
                    };
                    let matched = match atom {
                        Some(a) => tag.contains(Tag::atom(*a)),
                        None => !tag.is_empty(),
                    };
                    if matched {
                        w.hits += 1;
                        hits.push((
                            w.watch.id,
                            format!("tainted data (tag {tag}) reached sink `{site}`"),
                        ));
                    }
                }
                WatchKind::Range { start, len } => {
                    if let Some((addr, tag)) = Self::range_sighting(event) {
                        let in_range = addr.wrapping_sub(*start) < *len;
                        if in_range && tag != w.last {
                            let before = w.last;
                            w.last = tag;
                            w.hits += 1;
                            hits.push((
                                w.watch.id,
                                format!(
                                    "tag set at {addr:#010x} (range {start:#010x}+{len}) changed {before} -> {tag}"
                                ),
                            ));
                        }
                    }
                }
                WatchKind::Violation { site } => {
                    if let ObsEvent::Violation(v) = event {
                        let matched = match site {
                            Some(s) => v.kind.site() == Some(s.as_str()),
                            None => true,
                        };
                        if matched {
                            w.hits += 1;
                            hits.push((w.watch.id, format!("violation: {v}")));
                        }
                    }
                }
            }
        }
        for (id, reason) in hits {
            self.stop.request();
            let time = self.now;
            self.push(StreamItem::Watch { id, reason, time });
        }
    }
}

impl ObsSink for StreamSink {
    fn event(&mut self, event: &ObsEvent) {
        self.recorder.event(event);
        self.eval_watches(event);
        let subscribed = match &self.event_filter {
            None => false,
            Some(kinds) => kinds.is_empty() || kinds.iter().any(|k| k == event.label()),
        };
        if subscribed {
            let item = StreamItem::Event(TimedEvent { time: self.now, event: event.clone() });
            self.push(item);
        }
        if self.flow_subscribed {
            // Deltas the bounded backlog evicted while nobody subscribed
            // count as dropped, as if they had passed through `buf`.
            let (deltas, evicted) = self.recorder.take_flow_deltas();
            self.dropped += evicted;
            for delta in deltas {
                self.push(StreamItem::Flow(delta));
            }
        }
    }

    fn set_now(&mut self, now: SimTime) {
        self.now = now;
        self.recorder.set_now(now);
    }

    fn taint_spread(&mut self, counts: &[u32; ATOM_SLOTS]) {
        self.recorder.taint_spread(counts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdift_core::{Violation, ViolationKind};

    use crate::event::CheckKind;

    fn check_at(site: &str, tag: Tag) -> ObsEvent {
        ObsEvent::Check {
            kind: CheckKind::Output,
            tag,
            required: Tag::EMPTY,
            pc: Some(0x44),
            passed: tag.is_empty(),
            site: Some(site.to_owned()),
        }
    }

    fn sink() -> StreamSink {
        StreamSink::new(Recorder::new(8).with_flow_deltas(), StopFlag::new())
    }

    #[test]
    fn stop_flag_latches_and_takes() {
        let f = StopFlag::new();
        let g = f.clone();
        assert!(!f.is_requested());
        g.request();
        assert!(f.is_requested(), "clones share the latch");
        assert!(f.take());
        assert!(!g.is_requested());
        assert!(!f.take());
    }

    #[test]
    fn sink_watch_fires_on_tainted_check_and_raises_stop() {
        let mut s = sink();
        let stop = s.stop_flag();
        let id = s.add_watch(WatchKind::Sink { site: "uart.tx".into(), atom: None });
        s.event(&check_at("uart.tx", Tag::EMPTY));
        assert!(!stop.is_requested(), "untainted check does not fire");
        s.event(&check_at("can.tx", Tag::atom(0)));
        assert!(!stop.is_requested(), "other site does not fire");
        s.event(&check_at("uart.tx", Tag::atom(0)));
        assert!(stop.is_requested());
        let items = s.drain();
        assert!(
            items.iter().any(|i| matches!(i, StreamItem::Watch { id: got, .. } if *got == id)),
            "{items:?}"
        );
    }

    #[test]
    fn one_tainted_check_is_one_sink_watch_hit() {
        let mut s = sink();
        s.add_watch(WatchKind::Sink { site: "uart.tx".into(), atom: None });
        // The engine follows a check that changes its site's tag set with
        // the change, at the same site.
        s.event(&check_at("uart.tx", Tag::atom(0)));
        s.event(&ObsEvent::TagSetChange {
            site: "uart.tx".into(),
            before: Tag::EMPTY,
            after: Tag::atom(0),
        });
        let items = s.drain();
        let hits = items.iter().filter(|i| matches!(i, StreamItem::Watch { .. })).count();
        assert_eq!(hits, 1, "{items:?}");
        assert_eq!(s.watches().map(|(_, n)| n).collect::<Vec<_>>(), [1]);
    }

    #[test]
    fn sink_watch_with_atom_filters() {
        let mut s = sink();
        let stop = s.stop_flag();
        s.add_watch(WatchKind::Sink { site: "uart.tx".into(), atom: Some(1) });
        s.event(&check_at("uart.tx", Tag::atom(0)));
        assert!(!stop.is_requested(), "wrong atom");
        s.event(&check_at("uart.tx", Tag::atom(0).lub(Tag::atom(1))));
        assert!(stop.is_requested());
    }

    #[test]
    fn range_watch_fires_on_tag_set_change_only() {
        let mut s = sink();
        let stop = s.stop_flag();
        s.add_watch(WatchKind::Range { start: 0x3000, len: 16 });
        let store = |addr, tag| ObsEvent::Store { pc: 0x40, addr, size: 1, tag };
        s.event(&store(0x3004, Tag::EMPTY));
        assert!(!stop.is_requested(), "empty tag == initial state");
        s.event(&store(0x2000, Tag::atom(0)));
        assert!(!stop.is_requested(), "outside the range");
        s.event(&store(0x3004, Tag::atom(0)));
        assert!(stop.take());
        s.event(&store(0x3008, Tag::atom(0)));
        assert!(!stop.is_requested(), "same tag again is not a change");
        s.event(&store(0x300f, Tag::EMPTY));
        assert!(stop.is_requested(), "tag leaving the range is a change too");
    }

    #[test]
    fn violation_watch_matches_site_filter() {
        let mut s = sink();
        let stop = s.stop_flag();
        s.add_watch(WatchKind::Violation { site: Some("uart.tx".into()) });
        let v = |sink: &str| {
            ObsEvent::Violation(Violation::new(
                ViolationKind::Output { sink: sink.into() },
                Tag::atom(0),
                Tag::EMPTY,
            ))
        };
        s.event(&v("can.tx"));
        assert!(!stop.is_requested());
        s.event(&v("uart.tx"));
        assert!(stop.is_requested());
    }

    #[test]
    fn subscription_filters_events_and_streams_flow_deltas() {
        let mut s = sink();
        s.subscribe_events(vec!["classify".into()]);
        s.subscribe_flow(true);
        s.event(&ObsEvent::Trap { pc: 0, cause: 3, irq: false });
        s.event(&ObsEvent::Classify {
            source: "pin".into(),
            tag: Tag::atom(0),
            addr: Some(0x2000),
        });
        let items = s.drain();
        let events: Vec<_> = items.iter().filter(|i| matches!(i, StreamItem::Event(_))).collect();
        assert_eq!(events.len(), 1, "trap filtered out: {items:?}");
        assert!(
            items.iter().any(|i| matches!(i, StreamItem::Flow(FlowDelta::Origin { atom: 0, .. }))),
            "classification produced a flow delta: {items:?}"
        );
        assert!(s.drain().is_empty(), "drain empties the buffer");
        // Metrics still aggregate underneath.
        assert_eq!(s.recorder().metrics().traps, 1);
        assert_eq!(s.recorder().metrics().classifications, 1);
    }

    #[test]
    fn empty_kind_list_subscribes_all_and_buffer_bounds_drop() {
        let mut s = sink();
        s.subscribe_events(Vec::new());
        s.buf_cap = 4;
        for i in 0..10 {
            s.event(&ObsEvent::Trap { pc: i, cause: 3, irq: false });
        }
        assert_eq!(s.drain().len(), 4);
        assert_eq!(s.dropped(), 6);
    }

    #[test]
    fn pc_break_fires_once_then_skips_on_resume() {
        let b = BreakSet::new();
        assert!(!b.armed());
        let id = b.add(BreakKind::Pc(0x40));
        assert!(b.armed());
        assert!(!b.check(0x3c, 10), "other pc does not fire");
        assert!(b.check(0x40, 11));
        let hit = b.take_hit().expect("hit recorded");
        assert_eq!((hit.id, hit.pc, hit.instret), (id, 0x40, 11));
        assert!(b.take_hit().is_none(), "hit is taken once");
        assert!(!b.check(0x40, 11), "resume at the same spot skips the pc break once");
        assert!(b.check(0x40, 15), "but coming back around fires again");
        assert!(b.armed(), "pc breaks persist");
        assert!(b.remove(id));
        assert!(!b.remove(id));
        assert!(!b.armed());
    }

    #[test]
    fn instret_break_is_one_shot_and_clones_share_state() {
        let a = BreakSet::new();
        let b = a.clone();
        let id = b.add(BreakKind::Instret(100));
        assert!(a.armed(), "clones share the set");
        assert!(!a.check(0x10, 99));
        assert!(a.check(0x10, 100));
        assert_eq!(a.take_hit().map(|h| h.id), Some(id));
        assert!(!a.armed(), "instret break removed itself");
        assert!(a.list().is_empty());
        assert!(!a.check(0x14, 101), "does not re-fire");
    }

    #[test]
    fn stale_resume_token_does_not_mask_a_different_pc_hit() {
        let b = BreakSet::new();
        b.add(BreakKind::Pc(0x40));
        b.add(BreakKind::Pc(0x44));
        assert!(b.check(0x40, 5));
        // Resume skips 0x40 at (0x40, 5); the very next instruction is
        // 0x44 and must still fire.
        assert!(!b.check(0x40, 5));
        assert!(b.check(0x44, 6));
    }

    #[test]
    fn remove_watch_stops_firing() {
        let mut s = sink();
        let stop = s.stop_flag();
        let id = s.add_watch(WatchKind::Violation { site: None });
        assert!(s.remove_watch(id));
        assert!(!s.remove_watch(id), "second removal reports missing");
        s.event(&ObsEvent::Violation(Violation::new(
            ViolationKind::Branch,
            Tag::atom(0),
            Tag::EMPTY,
        )));
        assert!(!stop.is_requested());
    }
}

//! Taint provenance: a bounded propagation DAG per atom.
//!
//! PR 1's provenance was a single fact per atom — *which classification
//! site minted it*. This module grows that into the flow graph the
//! `--explain` machinery walks: for every atom, the classification site
//! (the DAG source), a bounded ring of *hops* (instruction-level and TLM
//! propagation steps the atom was seen taking), and the last sink that
//! rejected it (the DAG sink). Consecutive identical hops — an atom
//! circulating through the same instruction in a loop — fold into one
//! node with a repeat count, so a bounded ring still spans long runs.

use std::collections::VecDeque;

use vpdift_core::Tag;
use vpdift_kernel::SimTime;

use crate::sink::ATOM_SLOTS;
use crate::stream::STREAM_BUF_CAP;

/// Per-atom hop-ring capacity. Old hops are evicted (and counted) once a
/// ring is full; with consecutive-duplicate folding this comfortably spans
/// the tail of a run.
pub const HOP_CAP: usize = 32;

/// Where an atom was first introduced into the system.
#[derive(Debug, Clone, PartialEq)]
pub struct Origin {
    /// The classification site: a policy region name or a peripheral
    /// source name such as `"terminal.rx"`.
    pub source: String,
    /// Start address for memory-region classification, `None` for
    /// peripheral ingress.
    pub addr: Option<u32>,
    /// Simulated time of the first sighting.
    pub time: SimTime,
}

/// What kind of propagation step a [`Hop`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum HopKind {
    /// The atom flowed into architectural register `x<n>`.
    Reg(u8),
    /// The atom was loaded from memory.
    Load,
    /// The atom was stored to memory.
    Store,
    /// The atom crossed a TLM interconnect.
    Tlm {
        /// Routing bus name.
        bus: String,
        /// Addressed target name.
        target: String,
    },
}

impl HopKind {
    /// Short label used in reports and exports.
    pub fn label(&self) -> &'static str {
        match self {
            HopKind::Reg(_) => "reg",
            HopKind::Load => "load",
            HopKind::Store => "store",
            HopKind::Tlm { .. } => "tlm",
        }
    }
}

/// One recorded propagation step of an atom.
#[derive(Debug, Clone, PartialEq)]
pub struct Hop {
    /// What happened.
    pub kind: HopKind,
    /// PC of the instruction that moved the atom (TLM hops have none).
    pub pc: Option<u32>,
    /// Memory/bus address involved, when there is one.
    pub addr: Option<u32>,
    /// Simulated time of the first occurrence.
    pub time: SimTime,
    /// How many consecutive identical occurrences this hop folds
    /// (1 = seen once).
    pub repeats: u64,
}

impl Hop {
    fn same_site(&self, other: &Hop) -> bool {
        self.kind == other.kind && self.pc == other.pc && self.addr == other.addr
    }
}

/// The sink that last rejected an atom — the end of its recorded path.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkRec {
    /// Violation site label (sink/region/component name, or the check
    /// kind for unnamed checks).
    pub site: String,
    /// PC of the violating access, when known.
    pub pc: Option<u32>,
    /// Simulated time of the violation.
    pub time: SimTime,
}

/// Bounded per-atom hop ring. A plain `Vec` with front eviction: the
/// capacity is small and eviction only happens on tagged events, so the
/// `O(HOP_CAP)` shift is noise next to the event clone that preceded it.
#[derive(Debug, Clone, Default)]
struct HopRing {
    hops: Vec<Hop>,
    evicted: u64,
}

impl HopRing {
    /// Returns `true` when the hop became a *new* node (folding into the
    /// previous node's repeat count is not a graph change).
    fn push(&mut self, hop: Hop) -> bool {
        if let Some(last) = self.hops.last_mut() {
            if last.same_site(&hop) {
                last.repeats += 1;
                return false;
            }
        }
        if self.hops.len() == HOP_CAP {
            self.hops.remove(0);
            self.evicted += 1;
        }
        self.hops.push(hop);
        true
    }
}

/// One incremental change to the recorded flow graph, for live streaming.
/// Only produced after [`ProvenanceMap::enable_deltas`]; batch consumers
/// (DOT/JSON export, `--explain`) never pay for the queue.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowDelta {
    /// An atom gained its origin (first classification).
    Origin {
        /// The newly classified atom.
        atom: u32,
        /// Classification site name.
        source: String,
        /// Classification address, when there is one.
        addr: Option<u32>,
    },
    /// A new hop node was appended to an atom's path. Repeat folds of the
    /// newest node do not produce deltas — the node is unchanged.
    Hop {
        /// The atom that moved.
        atom: u32,
        /// The recorded step.
        hop: Hop,
    },
    /// An atom's rejecting sink was set (or replaced by a later one).
    Sink {
        /// The rejected atom.
        atom: u32,
        /// Violation site label.
        site: String,
        /// PC of the violating access, when known.
        pc: Option<u32>,
    },
}

/// The [`FlowDelta`] queue. It keeps the newest [`STREAM_BUF_CAP`] deltas
/// and counts the older ones it evicts, so a stream nobody drains stays
/// bounded; flushing it into a stream buffer of the same bound gives what
/// flushing the whole backlog would.
#[derive(Debug, Clone, Default)]
struct DeltaQueue {
    items: VecDeque<FlowDelta>,
    evicted: u64,
}

impl DeltaQueue {
    fn push(&mut self, delta: FlowDelta) {
        if self.items.len() == STREAM_BUF_CAP {
            self.items.pop_front();
            self.evicted += 1;
        }
        self.items.push_back(delta);
    }
}

/// One atom's recorded source→hops→sink path, borrowed from the map.
#[derive(Debug, Clone)]
pub struct FlowPath<'a> {
    /// The atom this path belongs to.
    pub atom: u32,
    /// Classification site, if one was observed.
    pub origin: Option<&'a Origin>,
    /// Recorded hops, oldest first.
    pub hops: &'a [Hop],
    /// Hops evicted from the bounded ring before these.
    pub evicted: u64,
    /// The sink that rejected the atom, if a violation was recorded.
    pub sink: Option<&'a SinkRec>,
}

/// Per-atom propagation DAG: first classification (source), a bounded
/// hop ring, and the last rejecting sink.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceMap {
    origins: [Option<Origin>; ATOM_SLOTS],
    hops: [HopRing; ATOM_SLOTS],
    sinks: [Option<SinkRec>; ATOM_SLOTS],
    /// Incremental-change queue; `None` until
    /// [`ProvenanceMap::enable_deltas`].
    deltas: Option<DeltaQueue>,
}

impl ProvenanceMap {
    /// Starts queueing [`FlowDelta`]s for every graph change from here on.
    pub fn enable_deltas(&mut self) {
        if self.deltas.is_none() {
            self.deltas = Some(DeltaQueue::default());
        }
    }

    /// Removes and returns the queued deltas, oldest first, with the
    /// number evicted before them since the last take (empty and 0 when
    /// delta tracking is off or nothing changed). The queue holds at most
    /// [`STREAM_BUF_CAP`] deltas.
    pub fn take_deltas(&mut self) -> (Vec<FlowDelta>, u64) {
        match &mut self.deltas {
            Some(q) => (q.items.drain(..).collect(), std::mem::take(&mut q.evicted)),
            None => (Vec::new(), 0),
        }
    }

    /// Deltas queued since the last [`ProvenanceMap::take_deltas`].
    pub fn queued_deltas(&self) -> usize {
        self.deltas.as_ref().map_or(0, |q| q.items.len())
    }
    /// Records a classification event: every atom of `tag` not yet seen
    /// gets `source`/`addr` as its origin. Later sightings are ignored —
    /// the *first* ingress is the provenance. Atoms outside the slot
    /// range (a saturated or corrupted tag) are skipped, not indexed:
    /// fail-closed tags must never panic the observer.
    pub fn classify(&mut self, tag: Tag, source: &str, addr: Option<u32>, time: SimTime) {
        for atom in tag.atoms() {
            let Some(slot) = self.origins.get_mut(atom as usize) else { continue };
            if slot.is_none() {
                *slot = Some(Origin { source: source.to_owned(), addr, time });
                if let Some(q) = &mut self.deltas {
                    q.push(FlowDelta::Origin { atom, source: source.to_owned(), addr });
                }
            }
        }
    }

    /// Records one propagation step for every atom of `tag`.
    pub fn record_hop(&mut self, tag: Tag, hop: Hop) {
        for atom in tag.atoms() {
            if let Some(ring) = self.hops.get_mut(atom as usize) {
                if ring.push(hop.clone()) {
                    if let Some(q) = &mut self.deltas {
                        q.push(FlowDelta::Hop { atom, hop: hop.clone() });
                    }
                }
            }
        }
    }

    /// Records the sink that rejected `tag` (the path end for each atom).
    /// The *last* rejection wins: it is the one the run stopped on.
    pub fn record_sink(&mut self, tag: Tag, site: &str, pc: Option<u32>, time: SimTime) {
        for atom in tag.atoms() {
            if let Some(slot) = self.sinks.get_mut(atom as usize) {
                *slot = Some(SinkRec { site: site.to_owned(), pc, time });
                if let Some(q) = &mut self.deltas {
                    q.push(FlowDelta::Sink { atom, site: site.to_owned(), pc });
                }
            }
        }
    }

    /// The origin of `atom`, if one was recorded.
    pub fn origin(&self, atom: u32) -> Option<&Origin> {
        self.origins.get(atom as usize).and_then(|o| o.as_ref())
    }

    /// Iterates `(atom, origin)` for every atom of `tag` with a known
    /// origin.
    pub fn origins_of(&self, tag: Tag) -> impl Iterator<Item = (u32, &Origin)> {
        tag.atoms().filter_map(move |a| self.origin(a).map(|o| (a, o)))
    }

    /// The recorded hops of `atom`, oldest first.
    pub fn hops_of(&self, atom: u32) -> &[Hop] {
        self.hops.get(atom as usize).map(|r| r.hops.as_slice()).unwrap_or(&[])
    }

    /// `true` when any atom has at least one recorded hop or origin.
    pub fn has_flows(&self) -> bool {
        self.origins.iter().any(|o| o.is_some()) || self.hops.iter().any(|r| !r.hops.is_empty())
    }

    /// The full recorded path of `atom`, or `None` for an atom nothing
    /// was ever recorded about.
    pub fn path(&self, atom: u32) -> Option<FlowPath<'_>> {
        let idx = atom as usize;
        if idx >= ATOM_SLOTS {
            return None;
        }
        let origin = self.origins[idx].as_ref();
        let ring = &self.hops[idx];
        let sink = self.sinks[idx].as_ref();
        if origin.is_none() && ring.hops.is_empty() && sink.is_none() {
            return None;
        }
        Some(FlowPath { atom, origin, hops: self.hops_of(atom), evicted: ring.evicted, sink })
    }

    /// The *shortest recorded* source→sink path among the atoms of
    /// `tag`: atoms with a known origin are preferred, then fewer hops,
    /// then the lowest atom index. `None` when nothing was recorded for
    /// any atom of `tag`.
    pub fn shortest_path(&self, tag: Tag) -> Option<FlowPath<'_>> {
        tag.atoms()
            .filter_map(|a| self.path(a))
            .min_by_key(|p| (p.origin.is_none(), p.hops.len(), p.atom))
    }

    /// Iterates every atom with any recorded state, in atom order.
    pub fn paths(&self) -> impl Iterator<Item = FlowPath<'_>> {
        (0..ATOM_SLOTS as u32).filter_map(move |a| self.path(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(kind: HopKind, pc: u32, addr: Option<u32>) -> Hop {
        Hop { kind, pc: Some(pc), addr, time: SimTime::ZERO, repeats: 1 }
    }

    #[test]
    fn first_classification_wins() {
        let mut p = ProvenanceMap::default();
        p.classify(Tag::from_bits(0b11), "key-region", Some(0x2000), SimTime::from_ns(5));
        p.classify(Tag::atom(0), "terminal.rx", None, SimTime::from_ns(9));
        let o = p.origin(0).unwrap();
        assert_eq!(o.source, "key-region", "later sighting does not overwrite");
        assert_eq!(o.addr, Some(0x2000));
        assert_eq!(p.origin(1).unwrap().source, "key-region");
        assert!(p.origin(2).is_none());
    }

    #[test]
    fn origins_of_filters_to_known_atoms() {
        let mut p = ProvenanceMap::default();
        p.classify(Tag::atom(3), "can.rx", None, SimTime::ZERO);
        let found: Vec<u32> = p.origins_of(Tag::from_bits(0b1100)).map(|(a, _)| a).collect();
        assert_eq!(found, vec![3], "atom 2 has no origin and is skipped");
    }

    #[test]
    fn saturated_tag_classifies_without_panicking() {
        // PR 2's fail-closed rule saturates unknown tags to lattice top:
        // every slot bit set. classify must handle it bounds-safely.
        let mut p = ProvenanceMap::default();
        let top = Tag::from_bits(u32::MAX);
        p.classify(top, "fail-closed", None, SimTime::from_ns(1));
        p.record_hop(top, hop(HopKind::Load, 0x40, Some(0x100)));
        p.record_sink(top, "uart.tx", Some(0x44), SimTime::from_ns(2));
        for atom in top.atoms() {
            assert_eq!(p.origin(atom).unwrap().source, "fail-closed");
            assert_eq!(p.path(atom).unwrap().hops.len(), 1);
        }
    }

    #[test]
    fn consecutive_identical_hops_fold() {
        let mut p = ProvenanceMap::default();
        let t = Tag::atom(0);
        for _ in 0..5 {
            p.record_hop(t, hop(HopKind::Load, 0x40, Some(0x2000)));
        }
        p.record_hop(t, hop(HopKind::Reg(5), 0x40, None));
        let hops = p.hops_of(0);
        assert_eq!(hops.len(), 2, "5 identical loads fold into one hop");
        assert_eq!(hops[0].repeats, 5);
        assert_eq!(hops[1].kind, HopKind::Reg(5));
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let mut p = ProvenanceMap::default();
        let t = Tag::atom(1);
        for i in 0..(HOP_CAP as u32 + 10) {
            p.record_hop(t, hop(HopKind::Store, 0x100 + 4 * i, Some(i)));
        }
        let path = p.path(1).unwrap();
        assert_eq!(path.hops.len(), HOP_CAP);
        assert_eq!(path.evicted, 10);
        // Oldest surviving hop is hop #10.
        assert_eq!(path.hops[0].pc, Some(0x100 + 4 * 10));
    }

    #[test]
    fn shortest_path_prefers_origin_then_fewest_hops() {
        let mut p = ProvenanceMap::default();
        // Atom 0: origin + 3 hops. Atom 1: origin + 1 hop. Atom 2: hops
        // but no origin.
        p.classify(Tag::from_bits(0b11), "pin", Some(0x2000), SimTime::ZERO);
        for i in 0..3 {
            p.record_hop(Tag::atom(0), hop(HopKind::Load, 0x10 + 4 * i, None));
        }
        p.record_hop(Tag::atom(1), hop(HopKind::Load, 0x40, None));
        p.record_hop(Tag::atom(2), hop(HopKind::Load, 0x50, None));
        let best = p.shortest_path(Tag::from_bits(0b111)).unwrap();
        assert_eq!(best.atom, 1, "origin-backed path with fewest hops wins");
        let orphan = p.shortest_path(Tag::atom(2)).unwrap();
        assert!(orphan.origin.is_none(), "origin-less path still returned when alone");
    }

    #[test]
    fn sink_records_the_last_rejection() {
        let mut p = ProvenanceMap::default();
        p.record_sink(Tag::atom(0), "uart.tx", Some(0x44), SimTime::from_ns(1));
        p.record_sink(Tag::atom(0), "can.tx", None, SimTime::from_ns(2));
        let path = p.path(0).unwrap();
        assert_eq!(path.sink.unwrap().site, "can.tx", "last rejection wins");
    }

    #[test]
    fn deltas_queue_only_real_graph_changes() {
        let mut p = ProvenanceMap::default();
        // Nothing queued while deltas are off.
        p.classify(Tag::atom(0), "pin", Some(0x2000), SimTime::ZERO);
        assert_eq!(p.take_deltas(), (Vec::new(), 0));

        p.enable_deltas();
        // Re-classification of a known atom is not a change.
        p.classify(Tag::atom(0), "terminal.rx", None, SimTime::from_ns(1));
        // A fresh atom is.
        p.classify(Tag::atom(1), "can.rx", None, SimTime::from_ns(2));
        // Three identical hops fold into one node: one delta.
        for _ in 0..3 {
            p.record_hop(Tag::atom(0), hop(HopKind::Load, 0x40, Some(0x2000)));
        }
        p.record_sink(Tag::atom(0), "uart.tx", Some(0x44), SimTime::from_ns(3));

        let (deltas, evicted) = p.take_deltas();
        assert_eq!((deltas.len(), evicted), (3, 0), "{deltas:?}");
        assert!(
            matches!(&deltas[0], FlowDelta::Origin { atom: 1, source, .. } if source == "can.rx")
        );
        assert!(matches!(&deltas[1], FlowDelta::Hop { atom: 0, .. }));
        assert!(matches!(&deltas[2], FlowDelta::Sink { atom: 0, site, .. } if site == "uart.tx"));
        assert_eq!(p.take_deltas(), (Vec::new(), 0), "take drains the queue");
    }

    #[test]
    fn delta_queue_keeps_the_newest_and_counts_the_rest() {
        let mut p = ProvenanceMap::default();
        p.enable_deltas();
        let hops = STREAM_BUF_CAP as u32 + 10;
        for pc in 0..hops {
            p.record_hop(Tag::atom(0), hop(HopKind::Load, pc, None));
            assert!(p.queued_deltas() <= STREAM_BUF_CAP);
        }
        let (deltas, evicted) = p.take_deltas();
        assert_eq!((deltas.len(), evicted), (STREAM_BUF_CAP, 10));
        assert!(matches!(&deltas[0], FlowDelta::Hop { hop, .. } if hop.pc == Some(10)));
        assert_eq!(p.take_deltas(), (Vec::new(), 0), "the eviction count is taken once");
    }

    #[test]
    fn out_of_range_atom_path_is_none() {
        let p = ProvenanceMap::default();
        assert!(p.path(ATOM_SLOTS as u32 + 5).is_none());
        assert!(p.shortest_path(Tag::EMPTY).is_none());
    }
}

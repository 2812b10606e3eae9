//! The standard sink: metrics + flight-recorder ring + provenance map,
//! with optional full event logging for the exporters, an optional guest
//! profiler, and an optional `--explain` flow tracker.

use std::collections::HashMap;

use vpdift_core::{AtomTable, Tag, Violation};
use vpdift_kernel::SimTime;

use crate::disasm::RawInsn;
use crate::event::{CheckKind, ObsEvent};
use crate::flowgraph;
use crate::metrics::Metrics;
use crate::prof::{Profiler, SymbolMap};
use crate::provenance::{FlowDelta, Hop, HopKind, ProvenanceMap};
use crate::ring::{EventRing, TimedEvent};
use crate::sink::{ObsSink, ATOM_SLOTS};

/// An [`ObsSink`] that aggregates metrics, keeps the last events in a
/// flight-recorder ring, tracks taint provenance, and (optionally) logs
/// every event for JSONL/Chrome-trace export, profiles the guest
/// ([`Recorder::with_profiler`]), or records per-atom propagation hops
/// for `--explain`/flow-graph export ([`Recorder::with_explain`]).
#[derive(Debug, Clone)]
pub struct Recorder {
    now: SimTime,
    metrics: Metrics,
    ring: EventRing,
    provenance: ProvenanceMap,
    log: Option<Vec<TimedEvent>>,
    violations: Vec<Violation>,
    symbols: Option<SymbolMap>,
    prof: Option<Profiler>,
    explain: bool,
    /// pc → raw instruction bits of retired instructions, kept only in
    /// explain mode so hop PCs can be disassembled after the fact.
    /// Bounded by the number of distinct PCs in the program image.
    insn_words: HashMap<u32, (u32, bool)>,
}

impl Recorder {
    /// A recorder whose flight ring keeps the last `ring_capacity` events.
    pub fn new(ring_capacity: usize) -> Self {
        Recorder {
            now: SimTime::ZERO,
            metrics: Metrics::default(),
            ring: EventRing::new(ring_capacity),
            provenance: ProvenanceMap::default(),
            log: None,
            violations: Vec::new(),
            symbols: None,
            prof: None,
            explain: false,
            insn_words: HashMap::new(),
        }
    }

    /// Additionally keeps *every* event in memory, for the exporters.
    /// Unbounded — intended for the short runs where export is wanted.
    #[must_use]
    pub fn with_event_log(mut self) -> Self {
        self.log = Some(Vec::new());
        self
    }

    /// Attaches the guest program's symbol map, used by the profiler and
    /// `--explain` renderer. Call before [`Recorder::with_profiler`].
    #[must_use]
    pub fn with_symbols(mut self, symbols: SymbolMap) -> Self {
        self.symbols = Some(symbols);
        self
    }

    /// Enables the guest profiler (per-PC histogram, call/return shadow
    /// stack, TLM latency histograms), attributing against the symbol
    /// map set by [`Recorder::with_symbols`].
    #[must_use]
    pub fn with_profiler(mut self) -> Self {
        self.prof = Some(Profiler::new(self.symbols.clone().unwrap_or_default()));
        self
    }

    /// Enables flow tracking for `--explain` and the DOT/JSON flow-graph
    /// exporters: tagged loads/stores/register writes/TLM transactions
    /// become provenance hops, violations become sinks, and retired
    /// instruction bits are kept for later disassembly.
    #[must_use]
    pub fn with_explain(mut self) -> Self {
        self.explain = true;
        self
    }

    /// Additionally queues incremental flow-graph changes as
    /// [`FlowDelta`]s, drained with [`Recorder::take_flow_deltas`] — the
    /// live-streaming complement of [`Recorder::with_explain`] (which it
    /// implies: deltas only exist where flow tracking records hops).
    #[must_use]
    pub fn with_flow_deltas(mut self) -> Self {
        self.explain = true;
        self.provenance.enable_deltas();
        self
    }

    /// Removes and returns queued flow-graph deltas with the number the
    /// bounded queue evicted before them (always empty unless
    /// [`Recorder::with_flow_deltas`] was used; see
    /// [`ProvenanceMap::take_deltas`]).
    pub fn take_flow_deltas(&mut self) -> (Vec<FlowDelta>, u64) {
        self.provenance.take_deltas()
    }

    /// Aggregated counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The flight-recorder ring.
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// Where each taint atom first entered the system.
    pub fn provenance(&self) -> &ProvenanceMap {
        &self.provenance
    }

    /// Violations observed, oldest first.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The full event log (empty slice unless
    /// [`Recorder::with_event_log`] was used).
    pub fn events(&self) -> &[TimedEvent] {
        self.log.as_deref().unwrap_or(&[])
    }

    /// The guest profiler, when [`Recorder::with_profiler`] enabled it.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.prof.as_ref()
    }

    /// The attached symbol map, when one was supplied.
    pub fn symbols(&self) -> Option<&SymbolMap> {
        self.symbols.as_ref()
    }

    /// `true` when flow tracking ([`Recorder::with_explain`]) is on.
    pub fn explain_enabled(&self) -> bool {
        self.explain
    }

    /// The offending atoms of a violation: what the data carried beyond
    /// its clearance, falling back to the whole tag when the subtraction
    /// is empty (e.g. an empty-tag custom violation).
    fn offending(violation: &Violation) -> Tag {
        let excess = violation.tag.without(violation.required);
        if excess.is_empty() {
            violation.tag
        } else {
            excess
        }
    }

    /// Renders the shortest recorded source→sink flow path for the last
    /// violation — the `--explain` output. `None` when no violation was
    /// observed or nothing was recorded about its atoms (e.g. flow
    /// tracking was off).
    pub fn explain(&self, atoms: &AtomTable) -> Option<String> {
        use core::fmt::Write as _;
        let violation = self.violations.last()?;
        let offending = Self::offending(violation);
        let path = self.provenance.shortest_path(offending)?;
        let mut out = String::new();
        let _ = writeln!(out, "== taint flow explanation ==");
        let _ = writeln!(out, "violation : {violation}");
        let _ = writeln!(
            out,
            "offending : {} = {} ({} atom(s) recorded; showing shortest path)",
            offending,
            atoms.describe(offending),
            offending.atoms().filter(|&a| self.provenance.path(a).is_some()).count(),
        );
        let insn_of = |pc: u32| self.insn_words.get(&pc).copied();
        out.push_str(&flowgraph::render_path(&path, atoms, self.symbols.as_ref(), &insn_of));
        Some(out)
    }

    /// Writes the recorded flow graph as Graphviz DOT.
    ///
    /// # Errors
    /// Propagates I/O errors from `w`.
    pub fn write_flow_dot<W: std::io::Write>(
        &self,
        w: &mut W,
        atoms: &AtomTable,
    ) -> std::io::Result<()> {
        flowgraph::write_dot(w, &self.provenance, atoms, self.symbols.as_ref())
    }

    /// Writes the recorded flow graph as `taintvp-flow/v1` JSON.
    ///
    /// # Errors
    /// Propagates I/O errors from `w`.
    pub fn write_flow_json<W: std::io::Write>(
        &self,
        w: &mut W,
        atoms: &AtomTable,
    ) -> std::io::Result<()> {
        flowgraph::write_json(w, &self.provenance, atoms, self.symbols.as_ref())
    }

    /// Folds one event into the provenance DAG (explain mode only).
    fn track_flow(&mut self, event: &ObsEvent) {
        match event {
            ObsEvent::InsnRetired { pc, word, compressed, .. } => {
                self.insn_words.insert(*pc, (*word, *compressed));
            }
            ObsEvent::TagWrite { pc, reg, after, .. } if !after.is_empty() => {
                self.provenance.record_hop(
                    *after,
                    Hop {
                        kind: HopKind::Reg(*reg),
                        pc: Some(*pc),
                        addr: None,
                        time: self.now,
                        repeats: 1,
                    },
                );
            }
            ObsEvent::Load { pc, addr, tag, .. } if !tag.is_empty() => {
                self.provenance.record_hop(
                    *tag,
                    Hop {
                        kind: HopKind::Load,
                        pc: Some(*pc),
                        addr: Some(*addr),
                        time: self.now,
                        repeats: 1,
                    },
                );
            }
            ObsEvent::Store { pc, addr, tag, .. } if !tag.is_empty() => {
                self.provenance.record_hop(
                    *tag,
                    Hop {
                        kind: HopKind::Store,
                        pc: Some(*pc),
                        addr: Some(*addr),
                        time: self.now,
                        repeats: 1,
                    },
                );
            }
            ObsEvent::Tlm { bus, target, addr, tag, .. } if !tag.is_empty() => {
                self.provenance.record_hop(
                    *tag,
                    Hop {
                        kind: HopKind::Tlm { bus: bus.clone(), target: target.clone() },
                        pc: None,
                        addr: Some(*addr),
                        time: self.now,
                        repeats: 1,
                    },
                );
            }
            ObsEvent::Violation(v) => {
                let (kind, site) = CheckKind::of_violation(&v.kind);
                let site = site.unwrap_or(kind.label());
                self.provenance.record_sink(Self::offending(v), site, v.pc, self.now);
            }
            _ => {}
        }
    }

    /// Renders the flight-recorder report for the *last* observed
    /// violation: the failed check, the provenance of every offending
    /// atom, and the recent event timeline with lazy disassembly.
    /// Returns `None` when no violation was observed.
    pub fn flight_report(&self, atoms: &AtomTable) -> Option<String> {
        use core::fmt::Write as _;
        let violation = self.violations.last()?;
        let (kind, site) = CheckKind::of_violation(&violation.kind);
        let mut out = String::new();
        let _ = writeln!(out, "== DIFT violation flight report ==");
        let _ = writeln!(out, "violation : {violation}");
        match site {
            Some(site) => {
                let _ = writeln!(out, "failed check: {kind} (site `{site}`)");
            }
            None => {
                let _ = writeln!(out, "failed check: {kind}");
            }
        }
        let _ = writeln!(
            out,
            "data tag  : {} = {}   (required clearance: {} = {})",
            violation.tag,
            atoms.describe(violation.tag),
            violation.required,
            atoms.describe(violation.required),
        );
        let offending = Self::offending(violation);
        let _ = writeln!(out, "taint provenance:");
        let mut any = false;
        for (atom, origin) in self.provenance.origins_of(offending) {
            any = true;
            let name = atoms.describe(Tag::atom(atom));
            let _ = write!(out, "  atom {atom} ({name}): classified by `{}`", origin.source);
            if let Some(addr) = origin.addr {
                let _ = write!(out, " at {addr:#010x}");
            }
            let _ = writeln!(out, ", t={}ns", origin.time.as_ns());
        }
        if !any {
            let _ = writeln!(out, "  (no classification event observed for the offending atoms)");
        }
        let _ = writeln!(
            out,
            "last {} of {} events before the violation:",
            self.ring.len(),
            self.ring.total_pushed()
        );
        for te in self.ring.iter() {
            let t = te.time.as_ns();
            match &te.event {
                ObsEvent::InsnRetired { pc, word, compressed, fetch_tag, instret } => {
                    let text = RawInsn::from_retired(*word, *compressed).disassemble();
                    let _ = write!(out, "  [{instret:>8}] {pc:#010x}: {text}");
                    if !fetch_tag.is_empty() {
                        let _ = write!(out, "   ; fetch tag {fetch_tag}");
                    }
                    let _ = writeln!(out);
                }
                ObsEvent::TagWrite { pc, reg, before, after } => {
                    let _ = writeln!(
                        out,
                        "      tag_write  x{reg} {before} -> {after} @ pc={pc:#010x}"
                    );
                }
                ObsEvent::Load { pc, addr, size, tag } => {
                    let _ = writeln!(
                        out,
                        "      load       {size}B @ {addr:#010x} tag {tag} (pc={pc:#010x})"
                    );
                }
                ObsEvent::Store { pc, addr, size, tag } => {
                    let _ = writeln!(
                        out,
                        "      store      {size}B @ {addr:#010x} tag {tag} (pc={pc:#010x})"
                    );
                }
                ObsEvent::Check { kind, tag, required, passed, site, .. } => {
                    let verdict = if *passed { "pass" } else { "FAIL" };
                    let site = site.as_deref().unwrap_or("-");
                    let _ = writeln!(
                        out,
                        "      check      {kind} [{site}] tag {tag} vs {required}: {verdict}"
                    );
                }
                ObsEvent::Violation(v) => {
                    let _ = writeln!(out, "      VIOLATION  {v}");
                }
                ObsEvent::TagSetChange { site, before, after } => {
                    let _ = writeln!(out, "      tag_set    `{site}` {before} -> {after}");
                }
                ObsEvent::Classify { source, tag, addr } => match addr {
                    Some(a) => {
                        let _ = writeln!(out, "      classify   `{source}` tag {tag} @ {a:#010x}");
                    }
                    None => {
                        let _ = writeln!(out, "      classify   `{source}` tag {tag}");
                    }
                },
                ObsEvent::Declassify { component, before, after } => {
                    let _ = writeln!(out, "      declassify `{component}` {before} -> {after}");
                }
                ObsEvent::Tlm { bus, target, addr, len, write, tag, ok, lat_ps } => {
                    let dir = if *write { "W" } else { "R" };
                    let status = if *ok { "ok" } else { "err" };
                    let _ = writeln!(
                        out,
                        "      tlm        {bus}->{target} {dir} {len}B @ {addr:#010x} tag {tag} {status} lat={lat_ps}ps t={t}ns"
                    );
                }
                ObsEvent::Trap { pc, cause, irq } => {
                    let what = if *irq { "irq" } else { "trap" };
                    let _ = writeln!(out, "      {what}       cause={cause} @ pc={pc:#010x}");
                }
                ObsEvent::FaultInjected { site, kind, addr, detail } => {
                    let _ = write!(out, "      FAULT      {kind} @ `{site}`");
                    if let Some(a) = addr {
                        let _ = write!(out, " addr={a:#010x}");
                    }
                    let _ = writeln!(out, " detail={detail}");
                }
                ObsEvent::EngineCache {
                    hits,
                    misses,
                    invalidations,
                    flushes,
                    idle_steps,
                    checked_steps,
                } => {
                    let _ = writeln!(
                        out,
                        "      engine     block-cache {hits} hits / {misses} misses, {invalidations} invalidations, {flushes} flushes, {idle_steps} idle / {checked_steps} checked steps"
                    );
                }
            }
        }
        Some(out)
    }
}

impl ObsSink for Recorder {
    fn event(&mut self, event: &ObsEvent) {
        self.metrics.update(event);
        if self.explain {
            self.track_flow(event);
        }
        if let Some(prof) = &mut self.prof {
            prof.on_event(event);
        }
        match event {
            ObsEvent::Classify { source, tag, addr } => {
                self.provenance.classify(*tag, source, *addr, self.now);
            }
            ObsEvent::Violation(v) => self.violations.push(v.clone()),
            _ => {}
        }
        let timed = TimedEvent { time: self.now, event: event.clone() };
        if let Some(log) = &mut self.log {
            log.push(timed.clone());
        }
        self.ring.push(timed);
    }

    fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    fn taint_spread(&mut self, counts: &[u32; ATOM_SLOTS]) {
        self.metrics.update_spread(counts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdift_core::ViolationKind;

    fn recorder_with_violation() -> Recorder {
        let mut r = Recorder::new(8).with_event_log();
        r.set_now(SimTime::from_ns(10));
        r.event(&ObsEvent::Classify {
            source: "key-region".into(),
            tag: Tag::atom(0),
            addr: Some(0x2000),
        });
        r.event(&ObsEvent::InsnRetired {
            pc: 0x40,
            word: 0x0000_0013,
            compressed: false,
            fetch_tag: Tag::EMPTY,
            instret: 1,
        });
        let v = Violation::new(
            ViolationKind::Output { sink: "uart.tx".into() },
            Tag::atom(0),
            Tag::EMPTY,
        )
        .at_pc(0x44);
        r.event(&ObsEvent::Check {
            kind: CheckKind::Output,
            tag: Tag::atom(0),
            required: Tag::EMPTY,
            pc: Some(0x44),
            passed: false,
            site: Some("uart.tx".into()),
        });
        r.event(&ObsEvent::Violation(v));
        r
    }

    #[test]
    fn flight_report_names_source_and_check() {
        let r = recorder_with_violation();
        let report = r.flight_report(&AtomTable::default()).expect("violation recorded");
        assert!(report.contains("failed check: output (site `uart.tx`)"), "{report}");
        assert!(report.contains("classified by `key-region` at 0x00002000"), "{report}");
        assert!(report.contains("0x00000040"), "retired instruction listed: {report}");
        assert!(report.contains("VIOLATION"), "{report}");
    }

    #[test]
    fn no_violation_no_report() {
        let mut r = Recorder::new(4);
        r.event(&ObsEvent::Trap { pc: 0, cause: 3, irq: false });
        assert!(r.flight_report(&AtomTable::default()).is_none());
        assert_eq!(r.metrics().traps, 1);
    }

    #[test]
    fn explain_renders_source_hops_and_sink() {
        let symbols = SymbolMap::from_symbols([(0x40u32, "leak_loop".to_owned())]);
        let mut r = Recorder::new(8).with_symbols(symbols).with_explain();
        r.set_now(SimTime::from_ns(10));
        r.event(&ObsEvent::Classify {
            source: "pin".into(),
            tag: Tag::atom(0),
            addr: Some(0x2000),
        });
        // lbu t0, 0(s0) = 0x00044283: tagged load then tag write, retired.
        r.event(&ObsEvent::Load { pc: 0x40, addr: 0x2000, size: 1, tag: Tag::atom(0) });
        r.event(&ObsEvent::TagWrite { pc: 0x40, reg: 5, before: Tag::EMPTY, after: Tag::atom(0) });
        r.event(&ObsEvent::InsnRetired {
            pc: 0x40,
            word: 0x0004_4283,
            compressed: false,
            fetch_tag: Tag::EMPTY,
            instret: 1,
        });
        let v = Violation::new(
            ViolationKind::Output { sink: "uart.tx".into() },
            Tag::atom(0),
            Tag::EMPTY,
        )
        .at_pc(0x44);
        r.event(&ObsEvent::Violation(v));

        let atoms = AtomTable::from_names(["pin"]);
        let text = r.explain(&atoms).expect("flow recorded");
        assert!(text.contains("source  pin @0x2000"), "{text}");
        assert!(text.contains("<leak_loop>"), "symbolized hop: {text}");
        assert!(text.contains("lbu"), "hop disassembly: {text}");
        assert!(text.contains("sink    uart.tx"), "{text}");

        let mut dot = Vec::new();
        r.write_flow_dot(&mut dot, &atoms).unwrap();
        assert!(String::from_utf8(dot).unwrap().contains("sink: uart.tx"));
        let mut json = Vec::new();
        r.write_flow_json(&mut json, &atoms).unwrap();
        crate::json::parse(&String::from_utf8(json).unwrap()).unwrap();
    }

    #[test]
    fn explain_is_none_without_flow_tracking() {
        let r = recorder_with_violation();
        // No with_explain: no hops, but classification still recorded, so
        // the shortest path degenerates to source+sink only.
        let text = r.explain(&AtomTable::default());
        assert!(text.is_some(), "origin alone still explains");
        let r2 = Recorder::new(4);
        assert!(r2.explain(&AtomTable::default()).is_none(), "no violation, no explanation");
    }

    #[test]
    fn profiler_rides_the_event_stream() {
        let mut r = Recorder::new(4)
            .with_symbols(SymbolMap::from_symbols([(0u32, "main".to_owned())]))
            .with_profiler();
        r.event(&ObsEvent::InsnRetired {
            pc: 0x0,
            word: 0x0000_0013,
            compressed: false,
            fetch_tag: Tag::EMPTY,
            instret: 1,
        });
        let prof = r.profiler().expect("enabled");
        assert_eq!(prof.insns(), 1);
        assert_eq!(prof.flat()[0].0, "main");
    }

    #[test]
    fn event_log_is_opt_in() {
        let mut r = Recorder::new(4);
        r.event(&ObsEvent::Trap { pc: 0, cause: 3, irq: false });
        assert!(r.events().is_empty());
        let mut r = Recorder::new(4).with_event_log();
        r.event(&ObsEvent::Trap { pc: 0, cause: 3, irq: false });
        assert_eq!(r.events().len(), 1);
    }
}

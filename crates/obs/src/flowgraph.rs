//! Taint flow-graph exporters: DOT and JSON views of the per-atom
//! propagation DAG recorded in [`ProvenanceMap`], plus the textual
//! source→sink path renderer behind `taintvp-run --explain`.
//!
//! The graph has one cluster per atom with recorded state: the
//! classification site (source node), the bounded chain of hops, and the
//! rejecting sink, in recorded order. Nodes carry symbol-resolved PCs
//! when a [`SymbolMap`] is supplied.

use std::io::{self, Write};

use vpdift_core::AtomTable;

use crate::disasm::RawInsn;
use crate::json::escape;
use crate::prof::SymbolMap;
use crate::provenance::{FlowPath, Hop, HopKind, ProvenanceMap};

fn atom_label(atoms: &AtomTable, atom: u32) -> String {
    match atoms.name(atom) {
        Some(name) => format!("atom {atom} ({name})"),
        None => format!("atom {atom}"),
    }
}

fn fmt_pc(pc: Option<u32>, symbols: Option<&SymbolMap>) -> Option<String> {
    let pc = pc?;
    Some(match symbols {
        Some(m) => m.format_pc(pc),
        None => format!("{pc:#010x}"),
    })
}

/// One-line description of a hop, used by DOT labels and `--explain`.
fn hop_text(hop: &Hop, symbols: Option<&SymbolMap>) -> String {
    let mut text = match &hop.kind {
        HopKind::Reg(r) => format!("reg x{r}"),
        HopKind::Load => "load".to_owned(),
        HopKind::Store => "store".to_owned(),
        HopKind::Tlm { bus, target } => format!("tlm {bus}->{target}"),
    };
    if let Some(addr) = hop.addr {
        text.push_str(&format!(" @{addr:#x}"));
    }
    if let Some(pc) = fmt_pc(hop.pc, symbols) {
        text.push_str(&format!(" at {pc}"));
    }
    if hop.repeats > 1 {
        text.push_str(&format!(" x{}", hop.repeats));
    }
    text
}

fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Writes the recorded flow graph as Graphviz DOT. One subgraph cluster
/// per atom; edges follow recorded order source → hop₁ → … → sink.
pub fn write_dot<W: Write>(
    w: &mut W,
    map: &ProvenanceMap,
    atoms: &AtomTable,
    symbols: Option<&SymbolMap>,
) -> io::Result<()> {
    writeln!(w, "digraph taint_flow {{")?;
    writeln!(w, "  rankdir=LR;")?;
    writeln!(w, "  node [shape=box, fontsize=10];")?;
    for path in map.paths() {
        let a = path.atom;
        writeln!(w, "  subgraph cluster_atom{a} {{")?;
        writeln!(w, "    label=\"{}\";", dot_escape(&atom_label(atoms, a)))?;
        let mut prev: Option<String> = None;
        if let Some(origin) = path.origin {
            let id = format!("a{a}_src");
            let mut label = format!("source: {}", dot_escape(&origin.source));
            if let Some(addr) = origin.addr {
                label.push_str(&format!("\\n@{addr:#x}"));
            }
            label.push_str(&format!("\\nt={}", origin.time));
            writeln!(
                w,
                "    {id} [label=\"{label}\", shape=ellipse, style=filled, fillcolor=lightblue];"
            )?;
            prev = Some(id);
        }
        if path.evicted > 0 {
            let id = format!("a{a}_evicted");
            writeln!(
                w,
                "    {id} [label=\"({} older hops evicted)\", shape=plaintext];",
                path.evicted
            )?;
            if let Some(p) = &prev {
                writeln!(w, "    {p} -> {id} [style=dashed];")?;
            }
            prev = Some(id);
        }
        for (i, hop) in path.hops.iter().enumerate() {
            let id = format!("a{a}_h{i}");
            writeln!(w, "    {id} [label=\"{}\"];", dot_escape(&hop_text(hop, symbols)))?;
            if let Some(p) = &prev {
                writeln!(w, "    {p} -> {id};")?;
            }
            prev = Some(id);
        }
        if let Some(sink) = path.sink {
            let id = format!("a{a}_sink");
            let mut label = format!("sink: {}", dot_escape(&sink.site));
            if let Some(pc) = fmt_pc(sink.pc, symbols) {
                label.push_str(&format!("\\nat {}", dot_escape(&pc)));
            }
            writeln!(
                w,
                "    {id} [label=\"{label}\", shape=ellipse, style=filled, fillcolor=lightcoral];"
            )?;
            if let Some(p) = &prev {
                writeln!(w, "    {p} -> {id} [color=red];")?;
            }
        }
        writeln!(w, "  }}")?;
    }
    writeln!(w, "}}")
}

fn opt_u32_json(v: Option<u32>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_owned(),
    }
}

/// Writes the recorded flow graph as JSON (`taintvp-flow/v1` schema):
/// one entry per atom with `origin`, `hops[]`, `evicted`, and `sink`.
pub fn write_json<W: Write>(
    w: &mut W,
    map: &ProvenanceMap,
    atoms: &AtomTable,
    symbols: Option<&SymbolMap>,
) -> io::Result<()> {
    writeln!(w, "{{")?;
    writeln!(w, "  \"schema\": \"taintvp-flow/v1\",")?;
    writeln!(w, "  \"atoms\": [")?;
    let paths: Vec<FlowPath<'_>> = map.paths().collect();
    for (pi, path) in paths.iter().enumerate() {
        let a = path.atom;
        writeln!(w, "    {{")?;
        writeln!(w, "      \"atom\": {a},")?;
        match atoms.name(a) {
            Some(n) => writeln!(w, "      \"name\": \"{}\",", escape(n))?,
            None => writeln!(w, "      \"name\": null,")?,
        }
        match path.origin {
            Some(o) => writeln!(
                w,
                "      \"origin\": {{\"source\": \"{}\", \"addr\": {}, \"time_ns\": {}}},",
                escape(&o.source),
                opt_u32_json(o.addr),
                o.time.as_ns()
            )?,
            None => writeln!(w, "      \"origin\": null,")?,
        }
        writeln!(w, "      \"evicted\": {},", path.evicted)?;
        writeln!(w, "      \"hops\": [")?;
        for (i, hop) in path.hops.iter().enumerate() {
            let extra = match &hop.kind {
                HopKind::Reg(r) => format!(", \"reg\": {r}"),
                HopKind::Tlm { bus, target } => {
                    format!(", \"bus\": \"{}\", \"target\": \"{}\"", escape(bus), escape(target))
                }
                _ => String::new(),
            };
            let sym = hop
                .pc
                .and_then(|pc| symbols.and_then(|m| m.resolve(pc)))
                .map(|(name, off)| format!(", \"symbol\": \"{}\", \"offset\": {off}", escape(name)))
                .unwrap_or_default();
            writeln!(
                w,
                "        {{\"kind\": \"{}\", \"pc\": {}, \"addr\": {}, \"time_ns\": {}, \"repeats\": {}{extra}{sym}}}{}",
                escape(hop.kind.label()),
                opt_u32_json(hop.pc),
                opt_u32_json(hop.addr),
                hop.time.as_ns(),
                hop.repeats,
                if i + 1 == path.hops.len() { "" } else { "," }
            )?;
        }
        writeln!(w, "      ],")?;
        match path.sink {
            Some(s) => writeln!(
                w,
                "      \"sink\": {{\"site\": \"{}\", \"pc\": {}, \"time_ns\": {}}}",
                escape(&s.site),
                opt_u32_json(s.pc),
                s.time.as_ns()
            )?,
            None => writeln!(w, "      \"sink\": null")?,
        }
        writeln!(w, "    }}{}", if pi + 1 == paths.len() { "" } else { "," })?;
    }
    writeln!(w, "  ]")?;
    writeln!(w, "}}")
}

/// Renders one atom's source→sink path as indented text with symbol
/// names and, where the raw instruction bits are known, disassembly.
/// `insn_of` maps a hop PC to its captured `(word, compressed)` bits.
pub fn render_path(
    path: &FlowPath<'_>,
    atoms: &AtomTable,
    symbols: Option<&SymbolMap>,
    insn_of: &dyn Fn(u32) -> Option<(u32, bool)>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("flow of {}:\n", atom_label(atoms, path.atom)));
    match path.origin {
        Some(o) => {
            out.push_str(&format!("  source  {} ", o.source));
            if let Some(addr) = o.addr {
                out.push_str(&format!("@{addr:#x} "));
            }
            out.push_str(&format!("(classified at t={})\n", o.time));
        }
        None => out.push_str("  source  (classification not recorded)\n"),
    }
    if path.evicted > 0 {
        out.push_str(&format!("  ...     ({} older hops evicted from ring)\n", path.evicted));
    }
    for hop in path.hops {
        out.push_str(&format!("  hop     {}\n", hop_text(hop, symbols)));
        if let Some(pc) = hop.pc {
            if let Some((word, compressed)) = insn_of(pc) {
                let raw = RawInsn::from_retired(word, compressed);
                out.push_str(&format!("          {}\n", raw.disassemble()));
            }
        }
    }
    match path.sink {
        Some(s) => {
            out.push_str(&format!("  sink    {} ", s.site));
            if let Some(pc) = fmt_pc(s.pc, symbols) {
                out.push_str(&format!("at {pc} "));
            }
            out.push_str(&format!("(violation at t={})\n", s.time));
        }
        None => out.push_str("  sink    (no violation recorded)\n"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::Hop;
    use vpdift_core::Tag;
    use vpdift_kernel::SimTime;

    fn sample_map() -> (ProvenanceMap, AtomTable) {
        let atoms = AtomTable::from_names(["pin"]);
        let t = Tag::atom(0);
        let mut map = ProvenanceMap::default();
        map.classify(t, "pin", Some(0x2000), SimTime::from_ns(10));
        map.record_hop(
            t,
            Hop {
                kind: HopKind::Load,
                pc: Some(0x40),
                addr: Some(0x2000),
                time: SimTime::from_ns(20),
                repeats: 4,
            },
        );
        map.record_hop(
            t,
            Hop {
                kind: HopKind::Tlm { bus: "sys-bus".into(), target: "uart".into() },
                pc: None,
                addr: Some(0x1000_0000),
                time: SimTime::from_ns(30),
                repeats: 1,
            },
        );
        map.record_sink(t, "uart.tx", Some(0x44), SimTime::from_ns(30));
        (map, atoms)
    }

    #[test]
    fn dot_output_is_structurally_valid() {
        let (map, atoms) = sample_map();
        let mut buf = Vec::new();
        write_dot(&mut buf, &map, &atoms, None).unwrap();
        let dot = String::from_utf8(buf).unwrap();
        assert!(dot.starts_with("digraph taint_flow {"), "{dot}");
        assert!(dot.trim_end().ends_with('}'), "{dot}");
        assert!(dot.contains("subgraph cluster_atom0"), "{dot}");
        assert!(dot.contains("source: pin"), "{dot}");
        assert!(dot.contains("sink: uart.tx"), "{dot}");
        assert!(dot.contains("->"), "{dot}");
        // Balanced braces => parses structurally.
        let open = dot.matches('{').count();
        let close = dot.matches('}').count();
        assert_eq!(open, close, "unbalanced braces: {dot}");
    }

    #[test]
    fn json_output_validates_and_carries_schema() {
        let (map, atoms) = sample_map();
        let mut buf = Vec::new();
        write_json(&mut buf, &map, &atoms, None).unwrap();
        let json = String::from_utf8(buf).unwrap();
        crate::json::parse(&json).expect("flow JSON must be structurally valid");
        assert!(json.contains("\"schema\": \"taintvp-flow/v1\""), "{json}");
        assert!(json.contains("\"repeats\": 4"), "{json}");
        assert!(json.contains("\"target\": \"uart\""), "{json}");
    }

    #[test]
    fn render_path_shows_source_hops_and_sink() {
        let (map, atoms) = sample_map();
        let symbols = SymbolMap::from_symbols([(0x40u32, "leak_loop".to_owned())]);
        let path = map.shortest_path(Tag::atom(0)).unwrap();
        // 0x2000(s0) lbu t0 -> raw bits for "lbu t0, 0(s0)" = 0x00044283.
        let text = render_path(&path, &atoms, Some(&symbols), &|pc| {
            (pc == 0x40).then_some((0x0004_4283, false))
        });
        assert!(text.contains("source  pin @0x2000"), "{text}");
        assert!(text.contains("<leak_loop>"), "{text}");
        assert!(text.contains("lbu"), "disassembly of the load hop: {text}");
        assert!(text.contains("sink    uart.tx"), "{text}");
        assert!(text.contains("x4"), "repeat count shown: {text}");
    }

    #[test]
    fn empty_map_exports_cleanly() {
        let map = ProvenanceMap::default();
        let atoms = AtomTable::default();
        let mut dot = Vec::new();
        write_dot(&mut dot, &map, &atoms, None).unwrap();
        let mut json = Vec::new();
        write_json(&mut json, &map, &atoms, None).unwrap();
        crate::json::parse(&String::from_utf8(json).unwrap()).unwrap();
    }
}

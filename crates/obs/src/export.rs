//! Event export: JSON Lines and the Chrome trace event format.
//!
//! Hand-rolled serialization — the workspace is offline, so no serde.
//! Strings go through [`crate::json::escape`]; the tests read every
//! document back with [`crate::json::parse`].

use std::io::{self, Write};

use vpdift_core::Tag;

use crate::event::{CheckKind, ObsEvent};
use crate::metrics::Metrics;
use crate::ring::TimedEvent;

/// Re-exported from [`crate::json`], the string escaper's home.
pub use crate::json::escape;

/// Renders a tag as a JSON array of its atom indices.
pub fn tag_json(tag: Tag) -> String {
    let atoms: Vec<String> = tag.atoms().map(|a| a.to_string()).collect();
    format!("[{}]", atoms.join(","))
}

fn opt_u32(v: Option<u32>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".into(),
    }
}

/// Renders one event's payload fields (no braces, no timestamp). Shared
/// with the serve protocol, which wraps the same fields in its own
/// streaming envelope.
pub fn event_fields(event: &ObsEvent) -> String {
    match event {
        ObsEvent::InsnRetired { pc, word, compressed, fetch_tag, instret } => format!(
            "\"pc\":{pc},\"word\":{word},\"compressed\":{compressed},\"fetch_tag\":{},\"instret\":{instret}",
            tag_json(*fetch_tag)
        ),
        ObsEvent::TagWrite { pc, reg, before, after } => format!(
            "\"pc\":{pc},\"reg\":{reg},\"before\":{},\"after\":{}",
            tag_json(*before),
            tag_json(*after)
        ),
        ObsEvent::Load { pc, addr, size, tag } => {
            format!("\"pc\":{pc},\"addr\":{addr},\"size\":{size},\"tag\":{}", tag_json(*tag))
        }
        ObsEvent::Store { pc, addr, size, tag } => {
            format!("\"pc\":{pc},\"addr\":{addr},\"size\":{size},\"tag\":{}", tag_json(*tag))
        }
        ObsEvent::Check { kind, tag, required, pc, passed, site } => format!(
            "\"check\":\"{}\",\"tag\":{},\"required\":{},\"pc\":{},\"passed\":{passed},\"site\":{}",
            kind.label(),
            tag_json(*tag),
            tag_json(*required),
            opt_u32(*pc),
            match site {
                Some(s) => format!("\"{}\"", escape(s)),
                None => "null".into(),
            }
        ),
        ObsEvent::Violation(v) => format!(
            "\"violation\":\"{}\",\"tag\":{},\"required\":{},\"pc\":{}",
            escape(&v.kind.to_string()),
            tag_json(v.tag),
            tag_json(v.required),
            opt_u32(v.pc)
        ),
        ObsEvent::TagSetChange { site, before, after } => format!(
            "\"site\":\"{}\",\"before\":{},\"after\":{}",
            escape(site),
            tag_json(*before),
            tag_json(*after)
        ),
        ObsEvent::Classify { source, tag, addr } => format!(
            "\"source\":\"{}\",\"tag\":{},\"addr\":{}",
            escape(source),
            tag_json(*tag),
            opt_u32(*addr)
        ),
        ObsEvent::Declassify { component, before, after } => format!(
            "\"component\":\"{}\",\"before\":{},\"after\":{}",
            escape(component),
            tag_json(*before),
            tag_json(*after)
        ),
        ObsEvent::Tlm { bus, target, addr, len, write, tag, ok, lat_ps } => format!(
            "\"bus\":\"{}\",\"target\":\"{}\",\"addr\":{addr},\"len\":{len},\"write\":{write},\"tag\":{},\"ok\":{ok},\"lat_ps\":{lat_ps}",
            escape(bus),
            escape(target),
            tag_json(*tag)
        ),
        ObsEvent::Trap { pc, cause, irq } => format!("\"pc\":{pc},\"cause\":{cause},\"irq\":{irq}"),
        ObsEvent::FaultInjected { site, kind, addr, detail } => format!(
            "\"site\":\"{}\",\"fault\":\"{}\",\"addr\":{},\"detail\":{detail}",
            escape(site),
            escape(kind),
            opt_u32(*addr)
        ),
        ObsEvent::EngineCache { hits, misses, invalidations, flushes, idle_steps, checked_steps } => format!(
            "\"hits\":{hits},\"misses\":{misses},\"invalidations\":{invalidations},\"flushes\":{flushes},\"idle_steps\":{idle_steps},\"checked_steps\":{checked_steps}"
        ),
    }
}

/// Writes the events as JSON Lines: one object per line with `t_ps`
/// (simulated picoseconds), `kind`, and the event's payload fields.
///
/// # Errors
/// Propagates I/O errors from `w`.
pub fn write_jsonl<W: Write>(mut w: W, events: &[TimedEvent]) -> io::Result<()> {
    for te in events {
        writeln!(
            w,
            "{{\"t_ps\":{},\"kind\":\"{}\",{}}}",
            te.time.as_ps(),
            te.event.label(),
            event_fields(&te.event)
        )?;
    }
    Ok(())
}

/// Writes the events in the Chrome trace event format (load the file in
/// `chrome://tracing` or Perfetto). Each event becomes an instant event
/// with its simulated time mapped to the trace's microsecond timeline.
///
/// # Errors
/// Propagates I/O errors from `w`.
pub fn write_chrome_trace<W: Write>(mut w: W, events: &[TimedEvent]) -> io::Result<()> {
    writeln!(w, "{{\"traceEvents\":[")?;
    for (i, te) in events.iter().enumerate() {
        let sep = if i + 1 == events.len() { "" } else { "," };
        // ts is a double in microseconds; simulated ps / 1e6.
        let ts = te.time.as_ps() as f64 / 1e6;
        writeln!(
            w,
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":1,\"ts\":{ts},\"args\":{{{}}}}}{sep}",
            te.event.label(),
            event_fields(&te.event)
        )?;
    }
    writeln!(w, "],\"displayTimeUnit\":\"ns\"}}")?;
    Ok(())
}

/// Writes the full metrics registry as one `taintvp-metrics/v1` JSON
/// document, including the block-cache counters when a caching engine ran
/// (so cache behaviour is machine-readable, not just a CLI summary line).
///
/// # Errors
/// Propagates I/O errors from `w`.
pub fn write_metrics_json<W: Write>(w: W, m: &Metrics) -> io::Result<()> {
    write_metrics_json_ext(w, m, &[])
}

/// [`write_metrics_json`] with extra top-level members appended after
/// the registry fields — the additive extension point of the
/// `taintvp-metrics/v1` schema (e.g. the fleet runner's `"fleet"` block
/// with per-outcome-class counts and per-worker telemetry). Each entry
/// is `(key, value)` where `value` must be pre-rendered valid JSON;
/// consumers ignore members they do not know.
///
/// # Errors
/// Propagates I/O errors from `w`.
pub fn write_metrics_json_ext<W: Write>(
    mut w: W,
    m: &Metrics,
    extra: &[(&str, &str)],
) -> io::Result<()> {
    writeln!(w, "{{")?;
    writeln!(w, "  \"schema\": \"taintvp-metrics/v1\",")?;
    writeln!(w, "  \"instructions\": {},", m.instructions)?;
    writeln!(
        w,
        "  \"loads\": {{\"tagged\": {}, \"untagged\": {}}},",
        m.tagged_loads, m.untagged_loads
    )?;
    writeln!(
        w,
        "  \"stores\": {{\"tagged\": {}, \"untagged\": {}}},",
        m.tagged_stores, m.untagged_stores
    )?;
    writeln!(w, "  \"tag_writes\": {},", m.tag_writes)?;
    writeln!(w, "  \"checks\": {{")?;
    writeln!(w, "    \"total\": {},", m.total_checks())?;
    for kind in CheckKind::ALL {
        let c = m.checks[kind.index()];
        let sep = if kind.index() + 1 == CheckKind::COUNT { "" } else { "," };
        writeln!(
            w,
            "    \"{}\": {{\"performed\": {}, \"failed\": {}}}{sep}",
            kind.label(),
            c.performed,
            c.failed
        )?;
    }
    writeln!(w, "  }},")?;
    writeln!(w, "  \"classifications\": {},", m.classifications)?;
    writeln!(w, "  \"declassifications\": {},", m.declassifications)?;
    writeln!(w, "  \"traps\": {},", m.traps)?;
    writeln!(w, "  \"violations\": {},", m.violations)?;
    writeln!(w, "  \"tag_set_changes\": {},", m.tag_set_changes)?;
    writeln!(w, "  \"faults_injected\": {},", m.faults_injected)?;
    match &m.engine_cache {
        Some(ec) => writeln!(
            w,
            "  \"engine_cache\": {{\"hits\": {}, \"misses\": {}, \"invalidations\": {}, \"flushes\": {}, \"idle_steps\": {}, \"checked_steps\": {}}},",
            ec.hits, ec.misses, ec.invalidations, ec.flushes, ec.idle_steps, ec.checked_steps
        )?,
        None => writeln!(w, "  \"engine_cache\": null,")?,
    }
    let tlm: Vec<String> =
        m.tlm_per_target.iter().map(|(target, n)| format!("\"{}\": {n}", escape(target))).collect();
    writeln!(w, "  \"tlm_per_target\": {{{}}},", tlm.join(", "))?;
    let spread: Vec<String> = m
        .taint_high_water
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(atom, &c)| format!("\"{atom}\": {c}"))
        .collect();
    match extra {
        [] => writeln!(w, "  \"taint_high_water\": {{{}}}", spread.join(", "))?,
        _ => {
            writeln!(w, "  \"taint_high_water\": {{{}}},", spread.join(", "))?;
            for (i, (key, value)) in extra.iter().enumerate() {
                let sep = if i + 1 == extra.len() { "" } else { "," };
                writeln!(w, "  \"{}\": {value}{sep}", escape(key))?;
            }
        }
    }
    writeln!(w, "}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use vpdift_kernel::SimTime;

    fn sample_events() -> Vec<TimedEvent> {
        vec![
            TimedEvent {
                time: SimTime::from_ns(10),
                event: ObsEvent::Classify {
                    source: "key \"quoted\"".into(),
                    tag: Tag::from_bits(0b101),
                    addr: Some(0x2000),
                },
            },
            TimedEvent {
                time: SimTime::from_ns(20),
                event: ObsEvent::Tlm {
                    bus: "sys-bus".into(),
                    target: "uart".into(),
                    addr: 0x1000_0000,
                    len: 1,
                    write: true,
                    tag: Tag::atom(0),
                    ok: false,
                    lat_ps: 20_000,
                },
            },
        ]
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &sample_events()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        assert!(text.contains("\"kind\":\"classify\""));
        assert!(text.contains("\\\"quoted\\\""), "string escaping applied");
        assert!(text.contains("\"tag\":[0,2]"));
    }

    #[test]
    fn chrome_trace_is_one_valid_json_document() {
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &sample_events()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"ts\":0.01"), "10ns == 0.01µs: {text}");
    }

    #[test]
    fn metrics_json_is_valid_and_carries_cache_stats() {
        let mut m = Metrics { instructions: 42, ..Metrics::default() };
        m.update(&ObsEvent::EngineCache {
            hits: 100,
            misses: 3,
            invalidations: 2,
            flushes: 1,
            idle_steps: 60,
            checked_steps: 40,
        });
        m.update(&ObsEvent::TagSetChange {
            site: "uart.tx".into(),
            before: Tag::EMPTY,
            after: Tag::atom(0),
        });
        let mut buf = Vec::new();
        write_metrics_json(&mut buf, &m).unwrap();
        let text = String::from_utf8(buf).unwrap();
        parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        assert!(text.contains("\"schema\": \"taintvp-metrics/v1\""));
        assert!(text.contains("\"hits\": 100"));
        assert!(text.contains("\"checked_steps\": 40"));
        assert!(text.contains("\"tag_set_changes\": 1"));

        // Interpreter runs export an explicit null cache block.
        let mut buf = Vec::new();
        write_metrics_json(&mut buf, &Metrics::default()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        parse(&text).unwrap();
        assert!(text.contains("\"engine_cache\": null"));
    }

    #[test]
    fn metrics_json_ext_appends_extra_members() {
        let mut buf = Vec::new();
        write_metrics_json_ext(
            &mut buf,
            &Metrics::default(),
            &[("fleet", "{\"done\":3}"), ("note", "\"x\"")],
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        assert!(text.contains("\"fleet\": {\"done\":3}"), "{text}");
        assert!(text.contains("\"note\": \"x\""), "{text}");
        assert!(text.contains("\"schema\": \"taintvp-metrics/v1\""), "schema unchanged");
    }

    #[test]
    fn empty_event_list_exports_cleanly() {
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &[]).unwrap();
        parse(&String::from_utf8(buf).unwrap()).unwrap();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &[]).unwrap();
        assert!(buf.is_empty());
    }
}

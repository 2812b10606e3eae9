//! Spans recorded around every call the benchmark makes into the system.
//!
//! A span has a name (`<module>.<call>`), a start and end on one
//! monotonic clock, the span that was open when it began, and a request
//! id (the round, session or request it belongs to). Spans are kept in
//! memory and written as JSON Lines once the run ends, so recording
//! costs one `Vec` push per call. With tracing off, [`Tracer::begin`] and
//! [`Tracer::end`] still time the call (the end-to-end metrics need the
//! durations) but record nothing.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the run's span list.
    pub id: usize,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
    /// `<module>.<call>`, e.g. `soc.run.vp_plus` or `serve.step`.
    pub name: &'static str,
    /// Round, session or request this span belongs to.
    pub req: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An open span, returned by [`Tracer::begin`] and closed by
/// [`Tracer::end`].
#[must_use = "close the span with Tracer::end"]
pub struct Open {
    slot: Option<usize>,
    start: Instant,
}

/// Per-name totals over a run: summed duration and self time (duration
/// minus the part covered by child spans).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Summed duration in seconds.
    pub total_s: f64,
    /// Summed self time in seconds.
    pub self_s: f64,
}

/// The span recorder. Spans must close in the reverse order they opened.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Turns recording on or off between rounds (no span may be open).
    pub fn set_recording(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "recording toggled inside a span");
        self.on = on;
    }

    /// `true` while spans are being recorded.
    pub fn recording(&self) -> bool {
        self.on
    }

    /// Opens a span named `name` for request `req`.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        let start = Instant::now();
        let slot = self.on.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                id,
                parent: self.stack.last().copied(),
                name,
                req,
                start_ns: self.ns(start),
                end_ns: 0,
            });
            self.stack.push(id);
            id
        });
        Open { slot, start }
    }

    /// Closes `open` and returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(id) = open.slot {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
            self.spans[id].end_ns = self.ns(end);
        }
        end - open.start
    }

    /// Times `f` as one span and returns its result with the duration.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name, req);
        let out = f();
        (out, self.end(open).as_secs_f64())
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    /// Every recorded span, in the order they opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Duration and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.total_s += s.secs();
            t.self_s += s.secs() - child_s[s.id];
        }
        out
    }

    /// Writes one `meta` line, then one line per span.
    pub fn write_jsonl(&self, path: &Path, meta: &str) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{meta}")?;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        let (_, inner) = t.time("inner", 1, || std::thread::sleep(Duration::from_millis(2)));
        let total = t.end(outer).as_secs_f64();
        assert!(inner > 0.0 && total >= inner);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let totals = t.totals();
        let o = totals["outer"];
        assert!((o.self_s - (o.total_s - totals["inner"].total_s)).abs() < 1e-12);
    }

    #[test]
    fn an_off_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, d) = t.time("x", 0, || 7);
        assert_eq!(v, 7);
        assert!(d >= 0.0);
        assert!(t.spans().is_empty());
    }
}

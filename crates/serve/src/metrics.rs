//! Scrapeable serve-side metrics: request counters and latency
//! histograms plus per-session progress gauges.
//!
//! The v2 server is multi-threaded — one thread per TCP connection over
//! a shared session registry — and every `ServeMetrics` field is already
//! a lock or an atomic, so connection threads publish into one shared
//! `Arc<ServeMetrics>` (attached once via the registry) at command
//! granularity: requests counted at dispatch, session gauges refreshed
//! after the commands that move them. The scrape endpoint renders from
//! these shared counters under short locks and never touches a session
//! itself, so a scrape can never block (or be blocked by) a guest run.
//! Gauges are at most one command stale per session.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use vpdift_obs::{Expo, Hist, HistSpec};

/// Per-session progress facts, refreshed after each state-moving command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Retired instructions so far.
    pub instret: u64,
    /// Simulated time in picoseconds.
    pub t_ps: u64,
    /// Recorded policy violations.
    pub violations: u64,
    /// `step`/`run`/`until` commands executed against this session.
    pub runs: u64,
}

/// Shared serve metrics: updated by the server thread, rendered by the
/// scrape endpoint.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Requests dispatched, by command name.
    requests: Mutex<BTreeMap<String, u64>>,
    /// Request latency in microseconds (log2 buckets), by command name.
    latency: Mutex<BTreeMap<String, Hist>>,
    /// Requests that produced a protocol error line.
    errors: AtomicU64,
    /// Live session count.
    sessions: AtomicU64,
    /// Per-session progress, keyed by session name.
    session_stats: Mutex<BTreeMap<String, SessionStats>>,
}

impl ServeMetrics {
    /// A zeroed metrics hub.
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// Counts one dispatched request (known commands only; unknown
    /// commands count under `unknown` so labels stay bounded).
    pub fn on_request(&self, cmd: &str) {
        let mut requests = self.requests.lock().unwrap();
        *requests.entry(cmd.to_owned()).or_insert(0) += 1;
    }

    /// Records how long one request of command `cmd` took, from dispatch
    /// to its reply (streamed lines included).
    pub fn on_latency(&self, cmd: &str, took: Duration) {
        let us = u64::try_from(took.as_micros()).unwrap_or(u64::MAX);
        let mut latency = self.latency.lock().unwrap();
        match latency.get_mut(cmd) {
            Some(hist) => hist.record(us),
            None => {
                let mut hist = Hist::new(HistSpec::log2(32));
                hist.record(us);
                latency.insert(cmd.to_owned(), hist);
            }
        }
    }

    /// Counts one request resolved as a protocol error.
    pub fn on_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the live session count.
    pub fn set_sessions(&self, n: u64) {
        self.sessions.store(n, Ordering::Relaxed);
    }

    /// Refreshes one session's progress facts.
    pub fn record_session(&self, name: &str, stats: SessionStats) {
        let mut map = self.session_stats.lock().unwrap();
        map.insert(name.to_owned(), stats);
    }

    /// Bumps the run counter for `name` and refreshes its facts.
    pub fn record_session_run(&self, name: &str, mut stats: SessionStats) {
        let mut map = self.session_stats.lock().unwrap();
        stats.runs = map.get(name).map_or(0, |s| s.runs) + 1;
        map.insert(name.to_owned(), stats);
    }

    /// Forgets a destroyed session (its series disappear from scrapes).
    pub fn drop_session(&self, name: &str) {
        self.session_stats.lock().unwrap().remove(name);
    }

    /// Renders the serve section of a `/metrics` exposition document.
    pub fn render_prom(&self, expo: &mut Expo) {
        for (cmd, n) in self.requests.lock().unwrap().iter() {
            expo.counter(
                "serve_requests_total",
                "Requests dispatched, by command.",
                &[("cmd", cmd)],
                *n,
            );
        }
        for (cmd, hist) in self.latency.lock().unwrap().iter() {
            expo.histogram(
                "serve_request_seconds",
                "Request latency, by command.",
                &[("cmd", cmd)],
                hist,
                1e-6,
            );
        }
        expo.counter(
            "serve_request_errors_total",
            "Requests resolved as protocol errors.",
            &[],
            self.errors.load(Ordering::Relaxed),
        );
        expo.gauge(
            "serve_sessions",
            "Live sessions in the registry.",
            &[],
            self.sessions.load(Ordering::Relaxed) as f64,
        );
        for (name, s) in self.session_stats.lock().unwrap().iter() {
            let labels: &[(&str, &str)] = &[("session", name)];
            expo.counter(
                "serve_session_instret_total",
                "Retired instructions per session.",
                labels,
                s.instret,
            );
            expo.gauge(
                "serve_session_time_ps",
                "Simulated time per session (picoseconds).",
                labels,
                s.t_ps as f64,
            );
            expo.counter(
                "serve_session_violations_total",
                "Recorded policy violations per session.",
                labels,
                s.violations,
            );
            expo.counter(
                "serve_session_runs_total",
                "step/run/until commands per session.",
                labels,
                s.runs,
            );
        }
    }

    /// A complete exposition document (convenience for scrape endpoints).
    pub fn render(&self) -> String {
        let mut expo = Expo::new();
        self.render_prom(&mut expo);
        expo.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_counts_group_by_cmd() {
        let m = ServeMetrics::new();
        m.on_request("run");
        m.on_request("run");
        m.on_request("create");
        m.on_error();
        let text = m.render();
        assert!(text.contains("serve_requests_total{cmd=\"run\"} 2"), "{text}");
        assert!(text.contains("serve_requests_total{cmd=\"create\"} 1"), "{text}");
        assert!(text.contains("serve_request_errors_total 1"), "{text}");
    }

    #[test]
    fn session_series_appear_and_disappear() {
        let m = ServeMetrics::new();
        m.set_sessions(1);
        m.record_session_run(
            "demo",
            SessionStats { instret: 500, t_ps: 1000, violations: 1, runs: 0 },
        );
        m.record_session_run(
            "demo",
            SessionStats { instret: 900, t_ps: 2000, violations: 1, runs: 0 },
        );
        let text = m.render();
        assert!(text.contains("serve_sessions 1"), "{text}");
        assert!(text.contains("serve_session_instret_total{session=\"demo\"} 900"), "{text}");
        assert!(text.contains("serve_session_runs_total{session=\"demo\"} 2"), "{text}");
        m.drop_session("demo");
        m.set_sessions(0);
        let text = m.render();
        assert!(!text.contains("session=\"demo\""), "{text}");
    }
}

//! The shared session registry: the v2 server's source of truth.
//!
//! v1 owned sessions *per server loop*, which tied session lifetime to
//! whatever connection happened to be serving. v2 inverts that: a
//! [`Registry`] owns every [`Session`] behind a `Mutex`, connections are
//! peers that address sessions by name, and lifetime is explicit —
//! `create` to `destroy` (or an idle-timeout sweep), never
//! drop-on-disconnect.
//!
//! Two kinds of access:
//!
//! * **Locked** — commands that step, read, or reconfigure a session take
//!   its mutex via [`SessionEntry::lock`]. A session busy mid-`run` on
//!   another connection yields [`ErrorCode::Busy`] instead of blocking
//!   the whole connection behind a potentially long run.
//! * **Lock-free control** — each entry caches clones of the session's
//!   [`StopFlag`] and [`BreakSet`] at creation, so `stop` (the mid-run
//!   interrupt) and `break`/`unbreak` work *while the session runs on
//!   another connection* — that is the entire point of protocol v2.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, TryLockError};
use std::time::{Duration, Instant};

use vpdift_obs::{BreakSet, StopFlag};

use crate::metrics::ServeMetrics;
use crate::proto::{ErrorCode, ServeError};
use crate::session::Session;

/// One registry slot: the session plus the lock-free control handles
/// cloned out of it at creation time.
pub struct SessionEntry {
    session: Mutex<Session>,
    stop: StopFlag,
    breaks: BreakSet,
    /// Wall-clock time of the last command that touched this entry, for
    /// the idle sweep.
    last_used: Mutex<Instant>,
}

impl SessionEntry {
    fn new(session: Session) -> SessionEntry {
        let stop = session.stop_flag();
        let breaks = session.break_set();
        SessionEntry {
            session: Mutex::new(session),
            stop,
            breaks,
            last_used: Mutex::new(Instant::now()),
        }
    }

    /// Locks the session for a command, without blocking: a session
    /// mid-`run` on another connection is reported [`ErrorCode::Busy`] —
    /// use [`stop`](SessionEntry::stop) to interrupt it instead.
    pub fn lock(&self, name: &str) -> Result<MutexGuard<'_, Session>, ServeError> {
        match self.session.try_lock() {
            Ok(guard) => Ok(guard),
            Err(TryLockError::WouldBlock) => Err(ServeError::new(
                ErrorCode::Busy,
                format!(
                    "session `{name}` is busy (mid-run on another connection); `stop` it first"
                ),
            )),
            // A connection thread panicking mid-command is isolated to
            // its session; treat the poisoned state as still-usable
            // rather than wedging the name forever.
            Err(TryLockError::Poisoned(p)) => Ok(p.into_inner()),
        }
    }

    /// The session's cooperative stop flag — raisable without the lock.
    pub fn stop(&self) -> &StopFlag {
        &self.stop
    }

    /// The session's breakpoint set — armable without the lock.
    pub fn breaks(&self) -> &BreakSet {
        &self.breaks
    }

    fn touch(&self) {
        *self.last_used.lock().unwrap() = Instant::now();
    }

    fn idle_for(&self) -> Duration {
        self.last_used.lock().unwrap().elapsed()
    }
}

/// The shared state every connection thread operates on.
#[derive(Default)]
pub struct Registry {
    sessions: Mutex<BTreeMap<String, Arc<SessionEntry>>>,
    metrics: OnceLock<Arc<ServeMetrics>>,
    /// Raised by any connection's `shutdown`; the TCP accept loop and
    /// sibling connections check it between requests.
    shutdown: AtomicBool,
    /// Idle sweep threshold in milliseconds; 0 disables the sweep.
    idle_timeout_ms: AtomicU64,
}

impl Registry {
    /// An empty registry with no metrics hub and the idle sweep off.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Attaches the metrics hub (first call wins; later calls are
    /// ignored so a scrape endpoint can never be swapped mid-serve).
    pub fn set_metrics(&self, metrics: Arc<ServeMetrics>) {
        let _ = self.metrics.set(metrics);
    }

    /// The attached metrics hub, if any.
    pub fn metrics(&self) -> Option<&Arc<ServeMetrics>> {
        self.metrics.get()
    }

    /// Sets the idle-timeout sweep threshold; `None` (or zero) disables
    /// sweeping. Swept on connection accept, `create`, and `list`.
    pub fn set_idle_timeout(&self, timeout: Option<Duration>) {
        // A sub-millisecond timeout still means "sweep aggressively",
        // not "disable": clamp up so only `None`/zero-by-intent turn the
        // sweep off.
        let ms = timeout.map_or(0, |d| d.as_millis().clamp(1, u64::MAX as u128) as u64);
        self.idle_timeout_ms.store(ms, Ordering::Relaxed);
    }

    /// Inserts a freshly created session under `name`.
    ///
    /// # Errors
    /// [`ErrorCode::DuplicateSession`] when the name is taken.
    pub fn insert(&self, name: &str, session: Session) -> Result<(), ServeError> {
        let mut map = self.sessions.lock().unwrap();
        if map.contains_key(name) {
            return Err(ServeError::new(
                ErrorCode::DuplicateSession,
                format!("session `{name}` already exists"),
            ));
        }
        map.insert(name.to_owned(), Arc::new(SessionEntry::new(session)));
        if let Some(m) = self.metrics() {
            m.set_sessions(map.len() as u64);
        }
        Ok(())
    }

    /// Looks up `name`, refreshing its idle clock.
    ///
    /// # Errors
    /// [`ErrorCode::UnknownSession`].
    pub fn get(&self, name: &str) -> Result<Arc<SessionEntry>, ServeError> {
        let map = self.sessions.lock().unwrap();
        match map.get(name) {
            Some(entry) => {
                entry.touch();
                Ok(Arc::clone(entry))
            }
            None => Err(ServeError::new(ErrorCode::UnknownSession, format!("no session `{name}`"))),
        }
    }

    /// Removes `name` from the registry. If the session is mid-run on
    /// another connection its stop flag is raised: the runner's `Arc`
    /// keeps the session alive until the run winds down, after which the
    /// last reference frees it.
    ///
    /// # Errors
    /// [`ErrorCode::UnknownSession`].
    pub fn remove(&self, name: &str) -> Result<Arc<SessionEntry>, ServeError> {
        let mut map = self.sessions.lock().unwrap();
        let entry = map.remove(name).ok_or_else(|| {
            ServeError::new(ErrorCode::UnknownSession, format!("no session `{name}`"))
        })?;
        entry.stop().request();
        if let Some(m) = self.metrics() {
            m.drop_session(name);
            m.set_sessions(map.len() as u64);
        }
        Ok(entry)
    }

    /// Session names in order, for `list` and the greeting.
    pub fn names(&self) -> Vec<String> {
        self.sessions.lock().unwrap().keys().cloned().collect()
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.sessions.lock().unwrap().len()
    }

    /// `true` when no sessions exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes sessions idle past the configured timeout, returning the
    /// swept names. Sessions currently locked (mid-run) are never swept —
    /// an active run is not idle, whatever the clock says.
    pub fn sweep_idle(&self) -> Vec<String> {
        let ms = self.idle_timeout_ms.load(Ordering::Relaxed);
        if ms == 0 {
            return Vec::new();
        }
        let timeout = Duration::from_millis(ms);
        let mut map = self.sessions.lock().unwrap();
        let doomed: Vec<String> = map
            .iter()
            .filter(|(_, e)| e.session.try_lock().is_ok() && e.idle_for() >= timeout)
            .map(|(n, _)| n.clone())
            .collect();
        for name in &doomed {
            map.remove(name);
            if let Some(m) = self.metrics() {
                m.drop_session(name);
            }
        }
        if !doomed.is_empty() {
            if let Some(m) = self.metrics() {
                m.set_sessions(map.len() as u64);
            }
        }
        doomed
    }

    /// Flags the whole server for shutdown (any connection's `shutdown`
    /// command lands here).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// `true` once any connection requested shutdown.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::CreateOpts;

    fn boot() -> Session {
        Session::create(&CreateOpts { program: "ebreak".into(), ..CreateOpts::default() })
            .expect("session boots")
    }

    #[test]
    fn insert_get_remove_roundtrip_with_duplicate_and_unknown_errors() {
        let reg = Registry::new();
        assert!(reg.is_empty());
        reg.insert("a", boot()).expect("fresh name");
        assert_eq!(reg.insert("a", boot()).unwrap_err().code, ErrorCode::DuplicateSession);
        assert_eq!(reg.names(), vec!["a".to_owned()]);
        let entry = reg.get("a").expect("present");
        assert!(entry.lock("a").is_ok());
        assert_eq!(reg.get("ghost").err().map(|e| e.code), Some(ErrorCode::UnknownSession));
        assert!(reg.remove("a").is_ok(), "present");
        assert_eq!(reg.remove("a").err().map(|e| e.code), Some(ErrorCode::UnknownSession));
        assert!(reg.is_empty());
    }

    #[test]
    fn locked_entry_reports_busy_but_control_handles_still_work() {
        let reg = Registry::new();
        reg.insert("a", boot()).unwrap();
        let entry = reg.get("a").unwrap();
        let _guard = entry.lock("a").expect("first lock");
        let again = reg.get("a").unwrap();
        let code = again.lock("a").err().map(|e| e.code);
        assert_eq!(code, Some(ErrorCode::Busy), "second lock is refused");
        // The cached handles bypass the lock entirely.
        again.stop().request();
        assert!(entry.stop().is_requested());
        again.breaks().add(vpdift_obs::BreakKind::Pc(0x40));
        assert!(entry.breaks().armed());
    }

    #[test]
    fn remove_while_running_raises_stop_and_keeps_the_holder_alive() {
        let reg = Registry::new();
        reg.insert("a", boot()).unwrap();
        let entry = reg.get("a").unwrap();
        let guard = entry.lock("a").expect("runner holds the lock");
        let removed = reg.remove("a").expect("destroy while running");
        assert!(removed.stop().is_requested(), "runner's slice will be its last");
        assert!(reg.is_empty(), "name is free immediately");
        drop(guard);
    }

    #[test]
    fn idle_sweep_reaps_only_idle_unlocked_sessions() {
        let reg = Registry::new();
        reg.insert("old", boot()).unwrap();
        reg.insert("busy", boot()).unwrap();
        assert!(reg.sweep_idle().is_empty(), "sweep disabled by default");
        reg.set_idle_timeout(Some(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(10));
        let busy = reg.get("busy").unwrap();
        let _guard = busy.lock("busy").unwrap();
        let swept = reg.sweep_idle();
        assert_eq!(swept, vec!["old".to_owned()]);
        assert_eq!(reg.names(), vec!["busy".to_owned()], "locked sessions survive");
        reg.set_idle_timeout(None);
        assert!(reg.sweep_idle().is_empty());
    }
}

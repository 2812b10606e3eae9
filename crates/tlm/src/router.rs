//! Address-based transaction routing — the TLM interconnect.

use vpdift_core::AddrRange;
use vpdift_kernel::SimTime;
use vpdift_obs::{ObsEvent, SharedObs};
use vpdift_sync::Shared;

use crate::payload::{GenericPayload, TlmCommand, TlmResponse};

/// A transaction target (the `simple_target_socket` side).
///
/// `transport` is the blocking-transport equivalent: it must process the
/// payload, fill reads / absorb writes, set a response status, and may add
/// to `delay` to model access latency (loosely-timed style).
pub trait TlmTarget: Send + Sync {
    /// Processes one transaction addressed to this target. The payload
    /// address has already been rewritten to a target-local offset.
    fn transport(&mut self, payload: &mut GenericPayload, delay: &mut SimTime);

    /// [`TlmTarget::transport`] with the memory its owner lends for this
    /// one transaction. Targets that reach memory themselves (DMA bursts,
    /// tag reads) override it; the default ignores `mem`.
    fn transport_with(
        &mut self,
        payload: &mut GenericPayload,
        delay: &mut SimTime,
        mem: &mut dyn TlmTarget,
    ) {
        let _ = mem;
        self.transport(payload, delay);
    }
}

impl<F> TlmTarget for F
where
    F: FnMut(&mut GenericPayload, &mut SimTime) + Send + Sync,
{
    fn transport(&mut self, payload: &mut GenericPayload, delay: &mut SimTime) {
        self(payload, delay)
    }
}

/// A shared, interiorly mutable target handle as stored in the router.
pub type SharedTarget = Shared<dyn TlmTarget>;

struct Mapping {
    name: String,
    range: AddrRange,
    /// `None` maps the range to the memory lent to each [`Router::route`].
    target: Option<SharedTarget>,
}

/// Errors raised while building the memory map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The new range overlaps an existing mapping (named by the `String`).
    Overlap(String),
}

impl core::fmt::Display for MapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MapError::Overlap(name) => write!(f, "address range overlaps mapping `{name}`"),
        }
    }
}

impl std::error::Error for MapError {}

/// Routes transactions to targets by address range, rewriting the payload
/// address to a target-local offset.
///
/// ```
/// use vpdift_tlm::{GenericPayload, Router, TlmResponse};
/// use vpdift_core::{AddrRange, Taint};
/// use vpdift_kernel::SimTime;
/// use vpdift_sync::shared;
///
/// let mut router = Router::new("bus");
/// let reg = shared(0u8);
/// let r = reg.clone();
/// router.map("reg", AddrRange::new(0x1000, 4), shared(
///     move |p: &mut GenericPayload, _d: &mut SimTime| {
///         if p.command() == vpdift_tlm::TlmCommand::Write {
///             *r.borrow_mut() = p.data()[0].value();
///         }
///         p.set_response(TlmResponse::Ok);
///     }))?;
/// let mut p = GenericPayload::write(0x1002, &[Taint::untainted(7)]);
/// let mut no_memory = |_: &mut GenericPayload, _: &mut SimTime| {}; // none mapped
/// router.route(&mut p, &mut SimTime::ZERO, &mut no_memory);
/// assert!(p.is_ok());
/// assert_eq!(*reg.borrow(), 7);
/// # Ok::<(), vpdift_tlm::MapError>(())
/// ```
pub struct Router {
    name: String,
    mappings: Vec<Mapping>,
    obs: Option<SharedObs>,
}

impl Router {
    /// Creates an empty router.
    pub fn new(name: &str) -> Self {
        Router { name: name.to_owned(), mappings: Vec::new(), obs: None }
    }

    /// Attaches an observability sink; every routed transaction is
    /// reported to it (after the target has processed the payload, so
    /// read data and response status are final).
    pub fn set_obs(&mut self, obs: SharedObs) {
        self.obs = Some(obs);
    }

    /// Router name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Maps `range` to `target`.
    ///
    /// # Errors
    /// [`MapError::Overlap`] if the range intersects an existing mapping.
    pub fn map(
        &mut self,
        name: &str,
        range: AddrRange,
        target: SharedTarget,
    ) -> Result<(), MapError> {
        self.insert(name, range, Some(target))
    }

    /// Like [`Router::map`], but maps `range` to the memory lent to each
    /// [`Router::route`], so the memory's owner keeps it.
    pub fn map_memory(&mut self, name: &str, range: AddrRange) -> Result<(), MapError> {
        self.insert(name, range, None)
    }

    fn insert(
        &mut self,
        name: &str,
        range: AddrRange,
        target: Option<SharedTarget>,
    ) -> Result<(), MapError> {
        for m in &self.mappings {
            let disjoint = range.end <= m.range.start || range.start >= m.range.end;
            if !disjoint {
                return Err(MapError::Overlap(m.name.clone()));
            }
        }
        self.mappings.push(Mapping { name: name.to_owned(), range, target });
        Ok(())
    }

    /// Routes one transaction, lending `mem` to the target (see
    /// [`TlmTarget::transport_with`] and [`Router::map_memory`]). On
    /// unmapped addresses the payload gets [`TlmResponse::AddressError`];
    /// transfers straddling a mapping boundary get [`TlmResponse::BurstError`].
    pub fn route(
        &mut self,
        payload: &mut GenericPayload,
        delay: &mut SimTime,
        mem: &mut dyn TlmTarget,
    ) {
        let addr = payload.address();
        let Some(m) = self.mappings.iter().find(|m| m.range.contains(addr)) else {
            payload.set_response(TlmResponse::AddressError);
            self.emit(payload, addr, "<unmapped>", 0);
            return;
        };
        let end = addr as u64 + payload.len() as u64;
        if end > m.range.end as u64 {
            payload.set_response(TlmResponse::BurstError);
            self.emit(payload, addr, &m.name, 0);
            return;
        }
        let local = addr - m.range.start;
        payload.set_address(local);
        let before = delay.as_ps();
        match &m.target {
            Some(target) => target.borrow_mut().transport_with(payload, delay, mem),
            None => mem.transport(payload, delay),
        }
        let lat_ps = delay.as_ps().saturating_sub(before);
        payload.set_address(addr);
        self.emit(payload, addr, &m.name, lat_ps);
    }

    /// Reports a finished transaction to the sink, if one is attached.
    /// Called after the target's `transport` has returned so the sink is
    /// never borrowed while a target is active (re-entrancy safety).
    /// `lat_ps` is what the target added to the transaction's delay.
    fn emit(&self, payload: &GenericPayload, addr: u32, target: &str, lat_ps: u64) {
        let Some(obs) = &self.obs else { return };
        obs.borrow_mut().dyn_event(&ObsEvent::Tlm {
            bus: self.name.clone(),
            target: target.to_owned(),
            addr,
            len: payload.len() as u32,
            write: payload.command() == TlmCommand::Write,
            tag: payload.data_tag(),
            ok: payload.is_ok(),
            lat_ps,
        });
    }
}

impl core::fmt::Debug for Router {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let maps: Vec<String> =
            self.mappings.iter().map(|m| format!("{} {}", m.name, m.range)).collect();
        f.debug_struct("Router").field("name", &self.name).field("mappings", &maps).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::TlmCommand;
    use vpdift_core::{Tag, Taint};

    /// A 16-byte scratch RAM test double.
    struct Scratch {
        bytes: [Taint<u8>; 16],
        latency: SimTime,
    }

    impl TlmTarget for Scratch {
        fn transport(&mut self, p: &mut GenericPayload, delay: &mut SimTime) {
            *delay += self.latency;
            let base = p.address() as usize;
            match p.command() {
                TlmCommand::Read => {
                    for (i, b) in p.data_mut().iter_mut().enumerate() {
                        *b = self.bytes[base + i];
                    }
                }
                TlmCommand::Write => {
                    for (i, b) in p.data().iter().enumerate() {
                        self.bytes[base + i] = *b;
                    }
                }
                TlmCommand::Ignore => {}
            }
            p.set_response(TlmResponse::Ok);
        }
    }

    fn scratch() -> Shared<Scratch> {
        vpdift_sync::shared(Scratch {
            bytes: [Taint::untainted(0); 16],
            latency: SimTime::from_ns(10),
        })
    }

    /// Lent memory for routes that must not reach any.
    fn no_memory(p: &mut GenericPayload, _delay: &mut SimTime) {
        p.set_response(TlmResponse::AddressError);
    }

    #[test]
    fn routes_by_range_with_local_addressing() {
        let mut router = Router::new("bus");
        let ram = scratch();
        router.map("ram", AddrRange::new(0x100, 16), ram.clone()).unwrap();

        let word = Taint::new(0xCAFEu16, Tag::atom(2));
        let mut w = GenericPayload::write_word(0x108, word);
        let mut delay = SimTime::ZERO;
        router.route(&mut w, &mut delay, &mut no_memory);
        assert!(w.is_ok());
        assert_eq!(router.name(), "bus");
        assert_eq!(w.address(), 0x108, "global address restored after routing");
        assert_eq!(delay, SimTime::from_ns(10));
        // The target saw the local offset 8.
        assert_eq!(ram.borrow().bytes[8].value(), 0xFE);
        assert_eq!(ram.borrow().bytes[9].value(), 0xCA);
        assert_eq!(ram.borrow().bytes[8].tag(), Tag::atom(2));

        let mut r = GenericPayload::read(0x108, 2);
        router.route(&mut r, &mut delay, &mut no_memory);
        let back: Taint<u16> = r.data_word();
        assert_eq!(back.value(), 0xCAFE);
        assert_eq!(back.tag(), Tag::atom(2));
    }

    #[test]
    fn unmapped_address_errors() {
        let mut router = Router::new("bus");
        router.map("ram", AddrRange::new(0x100, 16), scratch()).unwrap();
        let mut p = GenericPayload::read(0x50, 4);
        router.route(&mut p, &mut SimTime::ZERO.clone(), &mut no_memory);
        assert_eq!(p.response(), TlmResponse::AddressError);
    }

    #[test]
    fn straddling_transfer_is_burst_error() {
        let mut router = Router::new("bus");
        router.map("ram", AddrRange::new(0x100, 16), scratch()).unwrap();
        let mut p = GenericPayload::read(0x10E, 4); // crosses 0x110
        router.route(&mut p, &mut SimTime::ZERO.clone(), &mut no_memory);
        assert_eq!(p.response(), TlmResponse::BurstError);
    }

    #[test]
    fn overlap_rejected() {
        let mut router = Router::new("bus");
        router.map("a", AddrRange::new(0x100, 16), scratch()).unwrap();
        let err = router.map("b", AddrRange::new(0x108, 16), scratch()).unwrap_err();
        assert_eq!(err, MapError::Overlap("a".into()));
        // Adjacent is fine, and the rejected mapping was not added.
        router.map("c", AddrRange::new(0x110, 16), scratch()).unwrap();
        let maps = format!("{router:?}");
        assert!(maps.contains("\"a [") && maps.contains("\"c [") && !maps.contains("\"b ["));
        let err = router.map_memory("m", AddrRange::new(0x11F, 1)).unwrap_err();
        assert_eq!(err, MapError::Overlap("c".into()));
    }

    #[test]
    fn memory_window_reaches_the_lent_memory() {
        let mut router = Router::new("dma-ports");
        let reg = scratch();
        router.map("reg", AddrRange::new(0x1000, 16), reg.clone()).unwrap();
        router.map_memory("ram", AddrRange::new(0x100, 16)).unwrap();
        let mut mem = Scratch { bytes: [Taint::untainted(0); 16], latency: SimTime::from_ns(3) };

        let mut w = GenericPayload::write(0x104, &[Taint::new(9, Tag::atom(1))]);
        let mut delay = SimTime::ZERO;
        router.route(&mut w, &mut delay, &mut mem);
        assert!(w.is_ok());
        assert_eq!(mem.bytes[4], Taint::new(9, Tag::atom(1)), "local offset 4");
        assert_eq!(delay, SimTime::from_ns(3), "the memory's latency");
        // A shared target is unaffected by the memory lent alongside.
        let mut p = GenericPayload::write(0x1004, &[Taint::untainted(7)]);
        router.route(&mut p, &mut delay, &mut mem);
        assert_eq!(reg.borrow().bytes[4].value(), 7);
        assert_eq!(mem.bytes[4].value(), 9);
    }

    #[test]
    fn routed_transactions_reach_the_obs_sink() {
        use vpdift_obs::{shared_obs, Recorder};
        let mut router = Router::new("bus");
        router.map("ram", AddrRange::new(0x100, 16), scratch()).unwrap();
        let sink = vpdift_sync::shared(Recorder::new(8));
        router.set_obs(shared_obs(&sink));

        let mut w = GenericPayload::write(0x104, &[Taint::new(1, Tag::atom(3))]);
        router.route(&mut w, &mut SimTime::ZERO.clone(), &mut no_memory);
        let mut bad = GenericPayload::read(0x50, 1);
        router.route(&mut bad, &mut SimTime::ZERO.clone(), &mut no_memory);

        let r = sink.borrow();
        assert_eq!(r.metrics().tlm_per_target["ram"], 1);
        assert_eq!(r.metrics().tlm_per_target["<unmapped>"], 1);
        let events: Vec<_> = r.ring().iter().collect();
        match &events[0].event {
            vpdift_obs::ObsEvent::Tlm { target, addr, write, tag, ok, lat_ps, .. } => {
                assert_eq!(target, "ram");
                assert_eq!(*addr, 0x104, "global address reported");
                assert!(*write && *ok);
                assert_eq!(*tag, Tag::atom(3));
                assert_eq!(*lat_ps, 10_000, "target latency reported");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}

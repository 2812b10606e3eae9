//! Address-based transaction routing — the TLM interconnect.

use vpdift_core::{AddrRange, DiftEngine, FlowObserver, Tag, Violation};
use vpdift_kernel::SimTime;
use vpdift_obs::{DynObs, EngineObserverAdapter, ObsEvent};

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

    /// [`TlmTarget::transport`] with what the bus's owner lends for this
    /// one transaction. Targets that reach memory or the DIFT engine
    /// override it; the default ignores the loan.
    fn transport_with(
        &mut self,
        payload: &mut GenericPayload,
        delay: &mut SimTime,
        loan: &mut Loan<'_>,
    ) {
        let _ = loan;
        self.transport(payload, delay);
    }
}

/// What the owner of a bus lends each transaction it routes: what the
/// target may reach as an initiator (RAM for a tag read, the DMA's port
/// map for a burst), the DIFT engine and the observability sink. Targets
/// that reach memory themselves, check and record flows (output sinks,
/// DMA store clearance, guest tag assertions) or report events
/// (classification, declassification) use them for that one transaction,
/// so no target keeps a handle to any of them.
pub struct Loan<'a> {
    /// Where the target's own transactions go (see [`Loan::reach`]).
    pub mem: &'a mut dyn TlmTarget,
    /// The engine that checks flows and records violations.
    pub engine: &'a mut DiftEngine,
    /// The sink, when the bus's owner has an enabled one.
    pub obs: Option<&'a mut (dyn DynObs + 'static)>,
}

impl Loan<'_> {
    /// Sends one transaction of the borrower's own to [`Loan::mem`],
    /// lending it the engine and the sink in turn (a DMA burst that ends
    /// at the UART is checked by the same engine) and no memory.
    pub fn reach(&mut self, payload: &mut GenericPayload, delay: &mut SimTime) {
        let mut loan =
            Loan { mem: &mut NoMemory, engine: self.engine, obs: self.obs.as_deref_mut() };
        self.mem.transport_with(payload, delay, &mut loan);
    }

    /// Reports the event `event` builds to the lent sink; without one the
    /// event is never built.
    pub fn emit(&mut self, event: impl FnOnce() -> ObsEvent) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.dyn_event(&event());
        }
    }

    /// [`DiftEngine::check_output`], observed by the lent sink.
    ///
    /// # Errors
    /// See [`DiftEngine::check_flow`].
    pub fn check_output(&mut self, sink: &str, tag: Tag, pc: Option<u32>) -> Result<(), Violation> {
        self.observed(|engine, obs| engine.check_output(sink, tag, pc, obs))
    }

    /// [`DiftEngine::check_store`], observed by the lent sink.
    ///
    /// # Errors
    /// See [`DiftEngine::check_flow`].
    pub fn check_store(&mut self, addr: u32, tag: Tag, pc: Option<u32>) -> Result<(), Violation> {
        self.observed(|engine, obs| engine.check_store(addr, tag, pc, obs))
    }

    /// [`DiftEngine::record`], observed by the lent sink.
    ///
    /// # Errors
    /// See [`DiftEngine::record`].
    pub fn record(&mut self, violation: Violation) -> Result<(), Violation> {
        self.observed(|engine, obs| engine.record(violation, obs))
    }

    /// Calls the lent engine with the lent sink as its observer.
    fn observed<R>(
        &mut self,
        call: impl FnOnce(&mut DiftEngine, Option<&mut dyn FlowObserver>) -> R,
    ) -> R {
        let mut adapter = self.obs.as_deref_mut().map(EngineObserverAdapter);
        call(self.engine, adapter.as_mut().map(|a| a as &mut dyn FlowObserver))
    }
}

/// The memory lent to a transaction that reaches none: every access is an
/// address error.
struct NoMemory;

impl TlmTarget for NoMemory {
    fn transport(&mut self, payload: &mut GenericPayload, _delay: &mut SimTime) {
        payload.set_response(TlmResponse::AddressError);
    }
}

struct Mapping<P> {
    name: String,
    range: AddrRange,
    port: P,
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

/// Decodes transactions to ports by address range, rewriting the payload
/// address to a port-local offset. A port is a `Copy` id chosen by the
/// router's owner, which holds the devices and matches each decoded port
/// to one of them.
///
/// ```
/// use vpdift_tlm::{GenericPayload, Router, TlmResponse};
/// use vpdift_core::{AddrRange, Taint};
/// use vpdift_kernel::SimTime;
///
/// #[derive(Clone, Copy)]
/// enum Port {
///     Reg,
/// }
///
/// let mut router = Router::new("bus");
/// router.map("reg", AddrRange::new(0x1000, 4), Port::Reg)?;
/// let mut reg = 0u8;
/// let mut p = GenericPayload::write(0x1002, &[Taint::untainted(7)]);
/// router.route(&mut p, &mut SimTime::ZERO, None, |port, p, _delay, _obs| match port {
///     Port::Reg => {
///         assert_eq!(p.address(), 2, "the local offset");
///         reg = p.data()[0].value();
///         p.set_response(TlmResponse::Ok);
///     }
/// });
/// assert!(p.is_ok());
/// assert_eq!(reg, 7);
/// # Ok::<(), vpdift_tlm::MapError>(())
/// ```
pub struct Router<P> {
    name: String,
    mappings: Vec<Mapping<P>>,
}

impl<P: Copy> Router<P> {
    /// Creates an empty router.
    pub fn new(name: &str) -> Self {
        Router { name: name.to_owned(), mappings: Vec::new() }
    }

    /// Router name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Maps `range` to `port`.
    ///
    /// # Errors
    /// [`MapError::Overlap`] if the range intersects an existing mapping.
    pub fn map(&mut self, name: &str, range: AddrRange, port: P) -> Result<(), MapError> {
        for m in &self.mappings {
            let disjoint = range.end <= m.range.start || range.start >= m.range.end;
            if !disjoint {
                return Err(MapError::Overlap(m.name.clone()));
            }
        }
        self.mappings.push(Mapping { name: name.to_owned(), range, port });
        Ok(())
    }

    /// Routes one transaction: hands the decoded port, the payload at its
    /// port-local address and the lent sink `obs` to `target`. On unmapped
    /// addresses the payload gets [`TlmResponse::AddressError`]; transfers
    /// straddling a mapping boundary get [`TlmResponse::BurstError`];
    /// neither reaches `target`. Every routed transaction is reported to
    /// `obs` after `target` returns, so read data and response status are
    /// final (`None`, for a disabled sink, reports nothing).
    pub fn route(
        &self,
        payload: &mut GenericPayload,
        delay: &mut SimTime,
        mut obs: Option<&mut (dyn DynObs + 'static)>,
        target: impl FnOnce(P, &mut GenericPayload, &mut SimTime, Option<&mut (dyn DynObs + 'static)>),
    ) {
        let addr = payload.address();
        let Some(m) = self.mappings.iter().find(|m| m.range.contains(addr)) else {
            payload.set_response(TlmResponse::AddressError);
            self.emit(obs, payload, addr, "<unmapped>", 0);
            return;
        };
        let end = addr as u64 + payload.len() as u64;
        if end > m.range.end as u64 {
            payload.set_response(TlmResponse::BurstError);
            self.emit(obs, payload, addr, &m.name, 0);
            return;
        }
        payload.set_address(addr - m.range.start);
        let before = delay.as_ps();
        target(m.port, payload, delay, obs.as_deref_mut());
        let lat_ps = delay.as_ps().saturating_sub(before);
        payload.set_address(addr);
        self.emit(obs, payload, addr, &m.name, lat_ps);
    }

    /// Reports a finished transaction to the lent sink, if any. `lat_ps`
    /// is what the target added to the transaction's delay.
    fn emit(
        &self,
        obs: Option<&mut (dyn DynObs + 'static)>,
        payload: &GenericPayload,
        addr: u32,
        target: &str,
        lat_ps: u64,
    ) {
        let Some(obs) = obs else { return };
        obs.dyn_event(&ObsEvent::Tlm {
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

impl<P> core::fmt::Debug for Router<P> {
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
    use vpdift_core::{SecurityPolicy, Tag, Taint};

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

    fn scratch() -> Scratch {
        Scratch { bytes: [Taint::untainted(0); 16], latency: SimTime::from_ns(10) }
    }

    /// Routes `p` to the scratch target behind port `i` of `targets`.
    fn route(router: &Router<usize>, p: &mut GenericPayload, targets: &mut [Scratch]) {
        router.route(p, &mut SimTime::ZERO.clone(), None, |port, p, d, _| {
            targets[port].transport(p, d)
        });
    }

    #[test]
    fn routes_by_range_with_local_addressing() {
        let mut router = Router::new("bus");
        router.map("ram", AddrRange::new(0x100, 16), 0).unwrap();
        let mut ram = scratch();

        let word = Taint::new(0xCAFEu16, Tag::atom(2));
        let mut w = GenericPayload::write_word(0x108, word);
        let mut delay = SimTime::ZERO;
        router.route(&mut w, &mut delay, None, |_, p, d, _| ram.transport(p, d));
        assert!(w.is_ok());
        assert_eq!(router.name(), "bus");
        assert_eq!(w.address(), 0x108, "global address restored after routing");
        assert_eq!(delay, SimTime::from_ns(10));
        // The target saw the local offset 8.
        assert_eq!(ram.bytes[8].value(), 0xFE);
        assert_eq!(ram.bytes[9].value(), 0xCA);
        assert_eq!(ram.bytes[8].tag(), Tag::atom(2));

        let mut r = GenericPayload::read(0x108, 2);
        route(&router, &mut r, std::slice::from_mut(&mut ram));
        let back: Taint<u16> = r.data_word();
        assert_eq!(back.value(), 0xCAFE);
        assert_eq!(back.tag(), Tag::atom(2));
    }

    #[test]
    fn each_port_reaches_its_own_target() {
        let mut router = Router::new("bus");
        router.map("a", AddrRange::new(0x100, 16), 0).unwrap();
        router.map("b", AddrRange::new(0x200, 16), 1).unwrap();
        let mut targets = [scratch(), scratch()];
        let mut w = GenericPayload::write(0x204, &[Taint::untainted(7)]);
        route(&router, &mut w, &mut targets);
        assert!(w.is_ok());
        assert_eq!(targets[1].bytes[4].value(), 7);
        assert_eq!(targets[0].bytes[4].value(), 0, "port 0 untouched");
    }

    #[test]
    fn unmapped_address_errors() {
        let mut router = Router::new("bus");
        router.map("ram", AddrRange::new(0x100, 16), 0).unwrap();
        let mut p = GenericPayload::read(0x50, 4);
        router.route(&mut p, &mut SimTime::ZERO.clone(), None, |_, _, _, _| panic!("unmapped"));
        assert_eq!(p.response(), TlmResponse::AddressError);
    }

    #[test]
    fn straddling_transfer_is_burst_error() {
        let mut router = Router::new("bus");
        router.map("ram", AddrRange::new(0x100, 16), 0).unwrap();
        let mut p = GenericPayload::read(0x10E, 4); // crosses 0x110
        router.route(&mut p, &mut SimTime::ZERO.clone(), None, |_, _, _, _| panic!("straddles"));
        assert_eq!(p.response(), TlmResponse::BurstError);
    }

    #[test]
    fn overlap_rejected() {
        let mut router = Router::new("bus");
        router.map("a", AddrRange::new(0x100, 16), 0).unwrap();
        let err = router.map("b", AddrRange::new(0x108, 16), 1).unwrap_err();
        assert_eq!(err, MapError::Overlap("a".into()));
        // Adjacent is fine, and the rejected mapping was not added.
        router.map("c", AddrRange::new(0x110, 16), 2).unwrap();
        let maps = format!("{router:?}");
        assert!(maps.contains("\"a [") && maps.contains("\"c [") && !maps.contains("\"b ["));
        let err = router.map("m", AddrRange::new(0x11F, 1), 3).unwrap_err();
        assert_eq!(err, MapError::Overlap("c".into()));
    }

    #[test]
    fn a_loan_reaches_its_memory_with_the_engine_and_no_memory_behind() {
        /// Answers with the clearance of `uart.tx` for the byte it gets,
        /// and checks that the memory lent in turn reaches nothing.
        struct Sink;
        impl TlmTarget for Sink {
            fn transport(&mut self, _: &mut GenericPayload, _: &mut SimTime) {
                unreachable!("always lent");
            }
            fn transport_with(
                &mut self,
                p: &mut GenericPayload,
                d: &mut SimTime,
                loan: &mut Loan<'_>,
            ) {
                let mut inner = GenericPayload::read(0, 1);
                loan.mem.transport(&mut inner, d);
                assert_eq!(inner.response(), TlmResponse::AddressError);
                match loan.check_output("uart.tx", p.data_tag(), None) {
                    Ok(()) => p.set_response(TlmResponse::Ok),
                    Err(v) => p.set_violation(v),
                }
            }
        }
        let policy = SecurityPolicy::builder("t").sink("uart.tx", Tag::EMPTY).build();
        let mut engine = DiftEngine::new(policy);
        let mut rec = vpdift_obs::Recorder::new(8);
        let mut loan = Loan { mem: &mut Sink, engine: &mut engine, obs: Some(&mut rec) };
        let mut p = GenericPayload::write(0, &[Taint::new(1, Tag::atom(0))]);
        loan.reach(&mut p, &mut SimTime::ZERO.clone());
        assert!(p.take_violation().is_some(), "checked by the lent engine");
        assert_eq!(engine.violations().len(), 1);
        let labels: Vec<_> = rec.ring().iter().map(|e| e.event.label()).collect();
        assert_eq!(labels, ["check", "tag_set_change", "violation"], "seen by the lent sink");
    }

    #[test]
    fn routed_transactions_reach_the_obs_sink() {
        let mut router = Router::new("bus");
        router.map("ram", AddrRange::new(0x100, 16), 0).unwrap();
        let mut r = vpdift_obs::Recorder::new(8);
        let mut ram = scratch();

        let mut w = GenericPayload::write(0x104, &[Taint::new(1, Tag::atom(3))]);
        router.route(&mut w, &mut SimTime::ZERO.clone(), Some(&mut r), |_, p, d, _| {
            ram.transport(p, d)
        });
        let mut bad = GenericPayload::read(0x50, 1);
        router.route(&mut bad, &mut SimTime::ZERO.clone(), Some(&mut r), |_, _, _, _| {
            unreachable!("unmapped")
        });

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

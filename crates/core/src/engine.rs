//! The run-time DIFT engine: evaluates policy checks, records violations,
//! and counts checks for the performance reports.
//!
//! The engine is deliberately thin — tag *propagation* happens inside
//! [`Taint`](crate::Taint) operators and the ISS, with no engine
//! involvement; the engine is consulted only at *check sites* (outputs,
//! protected stores, execution clearance) and when a violation must be
//! recorded.

use core::fmt;
use std::collections::HashMap;

use crate::error::{Violation, ViolationKind};
use crate::policy::SecurityPolicy;
use crate::tag::Tag;

/// What the engine does when a check fails.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum EnforceMode {
    /// Fail the offending operation: checks return `Err`, the CPU raises a
    /// DIFT trap. This is the paper's behaviour ("triggering a runtime
    /// error upon violation").
    #[default]
    Enforce,
    /// Record violations but let execution continue — useful when auditing
    /// a policy against a test-suite without stopping at the first finding.
    Record,
}

/// Observer notified at the engine's check sites, so an observability
/// layer can see checks and violations without core depending on it
/// (`vpdift-obs` adapts its sinks to it). The engine keeps no observer:
/// each check or record call is handed one, or `None`, by its caller,
/// and calls it synchronously while the engine itself is borrowed —
/// implementations must not call back into the engine.
pub trait FlowObserver: Send + Sync {
    /// A clearance check of `kind` was evaluated: `passed` tells whether
    /// `allowedFlow(tag, required)` held.
    fn on_check(
        &mut self,
        kind: &ViolationKind,
        tag: Tag,
        required: Tag,
        pc: Option<u32>,
        passed: bool,
    );

    /// A violation was recorded (covers engine-side check failures *and*
    /// externally detected ones handed to [`DiftEngine::record`]).
    fn on_violation(&mut self, violation: &Violation);

    /// The tag checked at a *named* site (output sink, protected region,
    /// declassify component) differs from the tag last checked there —
    /// the tag set reaching that site changed. Fired on the clearance-check
    /// path, before the pass/fail decision is reported; live-introspection
    /// layers use it for taint watchpoints. The per-site state backing
    /// this notification is only maintained by observed checks, so
    /// unobserved runs (the `NullSink` configuration) pay nothing.
    fn on_tag_change(&mut self, _site: &str, _before: Tag, _after: Tag) {}
}

/// Run-time statistics, reported alongside Table II.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Clearance checks evaluated.
    pub checks: u64,
    /// Checks that failed (== recorded violations).
    pub failed: u64,
}

/// The DIFT engine. A VP has one, owned by its system bus, which lends it
/// to the CPU's and the peripherals' check sites.
///
/// ```
/// use vpdift_core::{DiftEngine, SecurityPolicy, Tag, ViolationKind};
/// let secret = Tag::atom(0);
/// let policy = SecurityPolicy::builder("demo").sink("uart.tx", Tag::EMPTY).build();
/// let mut engine = DiftEngine::new(policy);
/// // Public data may leave ...
/// assert!(engine.check_output("uart.tx", Tag::EMPTY, None, None).is_ok());
/// // ... secret data may not.
/// let err = engine.check_output("uart.tx", secret, Some(0x80), None).unwrap_err();
/// assert_eq!(err.kind, ViolationKind::Output { sink: "uart.tx".into() });
/// assert_eq!(engine.violations().len(), 1);
/// ```
/// # Fail-closed rule
///
/// A tag carrying atoms outside the policy's
/// [atom universe](SecurityPolicy::atom_universe) cannot have been produced
/// by any legitimate classification — it is corrupted tag state (e.g. an
/// injected tag-bit flip, or a bug upstream). The engine **never panics and
/// never silently declassifies** on such a tag: it saturates it to the
/// lattice top (all atoms) before evaluating the check, so the flow is
/// denied by every clearance below top and the recorded violation carries
/// the saturated tag, making the corruption visible in reports. In-universe
/// tags are unaffected.
#[derive(Clone)]
pub struct DiftEngine {
    policy: SecurityPolicy,
    mode: EnforceMode,
    violations: Vec<Violation>,
    stats: EngineStats,
    /// Cached [`SecurityPolicy::atom_universe`] for the fail-closed check.
    universe: Tag,
    /// Last tag checked per named site, backing
    /// [`FlowObserver::on_tag_change`]. Written by observed checks only, so
    /// it stays empty while no caller hands the engine an observer.
    site_tags: HashMap<String, Tag>,
}

impl fmt::Debug for DiftEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiftEngine")
            .field("policy", &self.policy.name())
            .field("mode", &self.mode)
            .field("violations", &self.violations.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl DiftEngine {
    /// Creates an enforcing engine for `policy`.
    pub fn new(policy: SecurityPolicy) -> Self {
        let universe = policy.atom_universe();
        DiftEngine {
            policy,
            mode: EnforceMode::Enforce,
            violations: Vec::new(),
            stats: EngineStats::default(),
            universe,
            site_tags: HashMap::new(),
        }
    }

    /// Creates an engine with an explicit mode.
    pub fn with_mode(policy: SecurityPolicy, mode: EnforceMode) -> Self {
        DiftEngine { mode, ..DiftEngine::new(policy) }
    }

    /// The policy under evaluation.
    pub fn policy(&self) -> &SecurityPolicy {
        &self.policy
    }

    /// Current enforcement mode.
    pub fn mode(&self) -> EnforceMode {
        self.mode
    }

    /// Switches enforcement mode at run time.
    pub fn set_mode(&mut self, mode: EnforceMode) {
        self.mode = mode;
    }

    /// Statistics so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// All recorded violations, oldest first.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Removes and returns all recorded violations.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// `true` iff at least one violation has been recorded.
    pub fn violated(&self) -> bool {
        !self.violations.is_empty()
    }

    /// The fail-closed rule (see the type-level docs): tags with atoms
    /// outside the policy's universe are corrupted state and saturate to
    /// top instead of panicking or silently declassifying.
    #[inline]
    fn sanitize(&self, tag: Tag) -> Tag {
        if tag.flows_to(self.universe) {
            tag
        } else {
            Tag::from_bits(u32::MAX)
        }
    }

    /// Reports an evaluated check to `obs` and, when the check site is
    /// *named* (see [`ViolationKind::site`]), fires
    /// [`FlowObserver::on_tag_change`] if the checked tag differs from the
    /// tag last checked there. Entirely skipped — including the per-site
    /// bookkeeping — for an unobserved check, preserving the
    /// zero-cost-when-off guarantee for `NullSink` builds.
    fn notify_check(
        &mut self,
        obs: Option<&mut (dyn FlowObserver + '_)>,
        kind: &ViolationKind,
        tag: Tag,
        required: Tag,
        pc: Option<u32>,
        passed: bool,
    ) {
        let Some(obs) = obs else { return };
        obs.on_check(kind, tag, required, pc, passed);
        if let Some(site) = kind.site() {
            let before = self.site_tags.get(site).copied().unwrap_or(Tag::EMPTY);
            if before != tag {
                self.site_tags.insert(site.to_owned(), tag);
                obs.on_tag_change(site, before, tag);
            }
        }
    }

    /// The core check: is `allowedFlow(tag, required)`? On failure a
    /// violation of `kind` is recorded. `tag` is subject to the fail-closed
    /// rule (see the type-level docs). `obs`, if any, sees the check and
    /// the violation.
    ///
    /// # Errors
    /// In [`EnforceMode::Enforce`], returns the recorded [`Violation`]; in
    /// [`EnforceMode::Record`] the failure is logged and `Ok` is returned.
    pub fn check_flow(
        &mut self,
        kind: ViolationKind,
        tag: Tag,
        required: Tag,
        pc: Option<u32>,
        mut obs: Option<&mut dyn FlowObserver>,
    ) -> Result<(), Violation> {
        let tag = self.sanitize(tag);
        self.stats.checks += 1;
        let passed = tag.flows_to(required);
        self.notify_check(obs.as_deref_mut(), &kind, tag, required, pc, passed);
        if passed {
            return Ok(());
        }
        let mut v = Violation::new(kind, tag, required);
        v.pc = pc;
        self.record(v, obs)
    }

    /// Checks data leaving through `sink` against the sink's clearance.
    /// Sinks without a configured clearance are unchecked.
    ///
    /// # Errors
    /// See [`DiftEngine::check_flow`].
    pub fn check_output(
        &mut self,
        sink: &str,
        tag: Tag,
        pc: Option<u32>,
        obs: Option<&mut dyn FlowObserver>,
    ) -> Result<(), Violation> {
        match self.policy.sink_clearance(sink) {
            Some(clearance) => {
                let kind = ViolationKind::Output { sink: sink.to_owned() };
                self.check_flow(kind, tag, clearance, pc, obs)
            }
            None => Ok(()),
        }
    }

    /// Checks a store of data tagged `tag` to address `addr` against any
    /// protected-region rule covering it. `tag` is subject to the
    /// fail-closed rule (see the type-level docs).
    ///
    /// # Errors
    /// See [`DiftEngine::check_flow`].
    pub fn check_store(
        &mut self,
        addr: u32,
        tag: Tag,
        pc: Option<u32>,
        mut obs: Option<&mut dyn FlowObserver>,
    ) -> Result<(), Violation> {
        if let Some((rule, clearance)) = self.policy.write_clearance_at(addr) {
            let region = rule.name.clone();
            let tag = self.sanitize(tag);
            self.stats.checks += 1;
            let passed = tag.flows_to(clearance);
            let kind = ViolationKind::Store { region: region.clone() };
            self.notify_check(obs.as_deref_mut(), &kind, tag, clearance, pc, passed);
            if passed {
                return Ok(());
            }
            let mut v = Violation::new(ViolationKind::Store { region }, tag, clearance)
                .with_context(format!("store to {addr:#010x}"));
            v.pc = pc;
            return self.record(v, obs);
        }
        Ok(())
    }

    /// Records an externally constructed violation (a failed guest taint
    /// assertion, or a CPU execution-clearance failure, which the CPU
    /// reports to its sink itself). `obs`, if any, sees the violation.
    ///
    /// # Errors
    /// In [`EnforceMode::Enforce`], echoes the violation back as `Err`.
    pub fn record(
        &mut self,
        violation: Violation,
        obs: Option<&mut dyn FlowObserver>,
    ) -> Result<(), Violation> {
        self.stats.failed += 1;
        if let Some(obs) = obs {
            obs.on_violation(&violation);
        }
        self.violations.push(violation.clone());
        match self.mode {
            EnforceMode::Enforce => Err(violation),
            EnforceMode::Record => Ok(()),
        }
    }

    /// Clears violations, statistics, and per-site tag-change state (fresh
    /// run on the same policy).
    pub fn reset(&mut self) {
        self.violations.clear();
        self.stats = EngineStats::default();
        self.site_tags.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AddrRange;

    const SECRET: Tag = Tag::from_bits(0b01);
    const UNTRUSTED: Tag = Tag::from_bits(0b10);

    fn engine() -> DiftEngine {
        let policy = SecurityPolicy::builder("t")
            .sink("uart.tx", UNTRUSTED)
            .protect_region("pin", AddrRange::new(0x1000, 4), SECRET)
            .build();
        DiftEngine::new(policy)
    }

    #[test]
    fn output_check_enforces_clearance() {
        let mut e = engine();
        assert!(e.check_output("uart.tx", Tag::EMPTY, None, None).is_ok());
        assert!(e.check_output("uart.tx", UNTRUSTED, None, None).is_ok());
        let v = e.check_output("uart.tx", SECRET, Some(4), None).unwrap_err();
        assert_eq!(v.pc, Some(4));
        assert_eq!(v.required, UNTRUSTED);
        assert_eq!(e.stats(), EngineStats { checks: 3, failed: 1 });
    }

    #[test]
    fn unknown_sink_is_unchecked() {
        let mut e = engine();
        assert!(e.check_output("debug.port", SECRET, None, None).is_ok());
        assert_eq!(e.stats().checks, 0);
    }

    #[test]
    fn store_check_consults_region_rules() {
        let mut e = engine();
        // Secret (the PIN itself) may be stored into the PIN region.
        assert!(e.check_store(0x1002, SECRET, None, None).is_ok());
        // Untrusted data may not.
        let v = e.check_store(0x1002, UNTRUSTED, None, None).unwrap_err();
        assert!(matches!(v.kind, ViolationKind::Store { ref region } if region == "pin"));
        assert!(v.context.contains("0x00001002"));
        // Outside the region: unchecked.
        assert!(e.check_store(0x2000, UNTRUSTED, None, None).is_ok());
    }

    #[test]
    fn corrupted_tags_fail_closed() {
        let mut e = engine(); // universe = SECRET ∪ UNTRUSTED
        let corrupt = Tag::atom(7);
        // An out-of-universe atom is denied and recorded saturated to top —
        // corruption never panics and never slips through as declassified.
        let v = e.check_output("uart.tx", corrupt, None, None).unwrap_err();
        assert_eq!(v.tag, Tag::from_bits(u32::MAX), "violation shows the saturated tag");
        // Same for protected stores, even mixed with legitimate atoms.
        let v = e.check_store(0x1002, SECRET.lub(corrupt), None, None).unwrap_err();
        assert_eq!(v.tag, Tag::from_bits(u32::MAX));
        // In-universe tags are untouched by the rule.
        assert!(e.check_output("uart.tx", UNTRUSTED, None, None).is_ok());
        assert!(e.check_store(0x1002, SECRET, None, None).is_ok());
    }

    #[test]
    fn record_mode_logs_without_failing() {
        let policy = SecurityPolicy::builder("t").sink("uart.tx", Tag::EMPTY).build();
        let mut e = DiftEngine::with_mode(policy, EnforceMode::Record);
        assert!(e.check_output("uart.tx", SECRET, None, None).is_ok());
        assert_eq!(e.violations().len(), 1);
        assert!(e.violated());
        let taken = e.take_violations();
        assert_eq!(taken.len(), 1);
        assert!(!e.violated());
    }

    #[test]
    fn reset_clears_everything() {
        let mut e = engine();
        let _ = e.check_output("uart.tx", SECRET, None, None);
        e.reset();
        assert!(!e.violated());
        assert_eq!(e.stats(), EngineStats::default());
    }

    #[test]
    fn mode_switching() {
        let mut e = engine();
        assert_eq!(e.mode(), EnforceMode::Enforce);
        e.set_mode(EnforceMode::Record);
        assert_eq!(e.mode(), EnforceMode::Record);
        assert!(e.check_output("uart.tx", SECRET, None, None).is_ok());
    }

    #[derive(Default)]
    struct TagChangeLog {
        changes: Vec<(String, Tag, Tag)>,
        checks: usize,
    }

    impl FlowObserver for TagChangeLog {
        fn on_check(&mut self, _: &ViolationKind, _: Tag, _: Tag, _: Option<u32>, _: bool) {
            self.checks += 1;
        }
        fn on_violation(&mut self, _: &Violation) {}
        fn on_tag_change(&mut self, site: &str, before: Tag, after: Tag) {
            self.changes.push((site.to_owned(), before, after));
        }
    }

    #[test]
    fn tag_change_fires_on_named_sites_only_when_tag_set_differs() {
        let mut e = engine();
        let mut log = TagChangeLog::default();
        // First check at a named site: EMPTY -> EMPTY is not a change.
        assert!(e.check_output("uart.tx", Tag::EMPTY, None, Some(&mut log)).is_ok());
        assert!(log.changes.is_empty());
        // Untrusted arrives: change EMPTY -> UNTRUSTED.
        assert!(e.check_output("uart.tx", UNTRUSTED, None, Some(&mut log)).is_ok());
        // Same tag again: no new change.
        assert!(e.check_output("uart.tx", UNTRUSTED, None, Some(&mut log)).is_ok());
        // Secret joins: change UNTRUSTED -> UNTRUSTED∪SECRET (a violation,
        // but the change still fires — it is evaluated pre-verdict).
        assert!(e.check_output("uart.tx", UNTRUSTED.lub(SECRET), None, Some(&mut log)).is_err());
        // Anonymous CPU-side checks never fire tag changes.
        let _ = e.check_flow(ViolationKind::Branch, SECRET, Tag::EMPTY, None, Some(&mut log));
        assert_eq!(
            log.changes,
            vec![
                ("uart.tx".into(), Tag::EMPTY, UNTRUSTED),
                ("uart.tx".into(), UNTRUSTED, UNTRUSTED.lub(SECRET)),
            ]
        );
        assert_eq!(log.checks, 5);
    }

    #[test]
    fn tag_change_tracks_store_regions_and_resets() {
        let mut e = engine();
        let mut log = TagChangeLog::default();
        assert!(e.check_store(0x1000, SECRET, None, Some(&mut log)).is_ok());
        assert_eq!(log.changes, vec![("pin".into(), Tag::EMPTY, SECRET)]);
        // reset() forgets per-site state: the same tag change fires again.
        e.reset();
        assert!(e.check_store(0x1000, SECRET, None, Some(&mut log)).is_ok());
        assert_eq!(log.changes.len(), 2);
    }

    #[test]
    fn unobserved_engine_keeps_no_site_state() {
        let mut e = engine();
        let _ = e.check_output("uart.tx", SECRET, None, None);
        assert!(e.site_tags.is_empty(), "site tracking must be free under NullSink");
    }
}

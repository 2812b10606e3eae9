//! Aggregated DIFT run metrics and their text summary.

use core::fmt;
use std::collections::BTreeMap;

use crate::event::{CheckKind, ObsEvent};
use crate::sink::ATOM_SLOTS;

/// Per-check-kind counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckCounter {
    /// Checks evaluated.
    pub performed: u64,
    /// Checks that failed.
    pub failed: u64,
}

/// Block-cache engine counters as reported by the end-of-run
/// [`ObsEvent::EngineCache`] event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCacheStats {
    /// Steps dispatched from a cached block.
    pub hits: u64,
    /// Cache lookups that had to (re)build or fall back.
    pub misses: u64,
    /// Blocks killed by store-range invalidation.
    pub invalidations: u64,
    /// Whole-cache flushes from external memory mutation.
    pub flushes: u64,
    /// Steps run with checks skipped (taint-idle latch clear).
    pub idle_steps: u64,
    /// Steps run on the slow checked path after the latch was set.
    pub checked_steps: u64,
}

/// Counter registry fed from [`ObsEvent`]s; renders the `--metrics`
/// summary.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Instructions retired.
    pub instructions: u64,
    /// Per-kind clearance check counts (indexed by [`CheckKind::index`]).
    pub checks: [CheckCounter; CheckKind::COUNT],
    /// Loads whose value carried a non-empty tag.
    pub tagged_loads: u64,
    /// Loads of untagged values.
    pub untagged_loads: u64,
    /// Stores of tagged values.
    pub tagged_stores: u64,
    /// Stores of untagged values.
    pub untagged_stores: u64,
    /// Register writes that changed the destination tag.
    pub tag_writes: u64,
    /// TLM transactions per target name.
    pub tlm_per_target: BTreeMap<String, u64>,
    /// Classification events (policy regions + peripheral ingress).
    pub classifications: u64,
    /// Declassification events.
    pub declassifications: u64,
    /// Violations recorded.
    pub violations: u64,
    /// Traps/interrupts taken.
    pub traps: u64,
    /// Faults injected by a fault-injection campaign.
    pub faults_injected: u64,
    /// Tag-set changes observed at named check sites.
    pub tag_set_changes: u64,
    /// Block-cache engine counters `(hits, misses, invalidations,
    /// flushes, idle_steps)`; `None` for interpreter runs.
    pub engine_cache: Option<EngineCacheStats>,
    /// Per-atom high-water mark of classified RAM bytes (from periodic
    /// spread samples; index = atom).
    pub taint_high_water: [u32; ATOM_SLOTS],
}

impl Metrics {
    /// Folds one event into the counters.
    pub fn update(&mut self, event: &ObsEvent) {
        match event {
            ObsEvent::InsnRetired { .. } => self.instructions += 1,
            ObsEvent::TagWrite { .. } => self.tag_writes += 1,
            ObsEvent::Load { tag, .. } => {
                if tag.is_empty() {
                    self.untagged_loads += 1;
                } else {
                    self.tagged_loads += 1;
                }
            }
            ObsEvent::Store { tag, .. } => {
                if tag.is_empty() {
                    self.untagged_stores += 1;
                } else {
                    self.tagged_stores += 1;
                }
            }
            ObsEvent::Check { kind, passed, .. } => {
                let c = &mut self.checks[kind.index()];
                c.performed += 1;
                if !passed {
                    c.failed += 1;
                }
            }
            ObsEvent::Violation(_) => self.violations += 1,
            ObsEvent::TagSetChange { .. } => self.tag_set_changes += 1,
            ObsEvent::Classify { .. } => self.classifications += 1,
            ObsEvent::Declassify { .. } => self.declassifications += 1,
            ObsEvent::Tlm { target, .. } => {
                *self.tlm_per_target.entry(target.clone()).or_insert(0) += 1;
            }
            ObsEvent::Trap { .. } => self.traps += 1,
            ObsEvent::FaultInjected { .. } => self.faults_injected += 1,
            ObsEvent::EngineCache {
                hits,
                misses,
                invalidations,
                flushes,
                idle_steps,
                checked_steps,
            } => {
                self.engine_cache = Some(EngineCacheStats {
                    hits: *hits,
                    misses: *misses,
                    invalidations: *invalidations,
                    flushes: *flushes,
                    idle_steps: *idle_steps,
                    checked_steps: *checked_steps,
                });
            }
        }
    }

    /// Folds a taint-spread sample into the per-atom high-water marks.
    pub fn update_spread(&mut self, counts: &[u32; ATOM_SLOTS]) {
        for (hw, &c) in self.taint_high_water.iter_mut().zip(counts) {
            *hw = (*hw).max(c);
        }
    }

    /// Total checks performed across kinds.
    pub fn total_checks(&self) -> u64 {
        self.checks.iter().map(|c| c.performed).sum()
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== DIFT metrics ==")?;
        writeln!(f, "instructions retired:   {}", self.instructions)?;
        writeln!(
            f,
            "loads:                  {} tagged / {} untagged",
            self.tagged_loads, self.untagged_loads
        )?;
        writeln!(
            f,
            "stores:                 {} tagged / {} untagged",
            self.tagged_stores, self.untagged_stores
        )?;
        writeln!(f, "tag-changing reg writes: {}", self.tag_writes)?;
        writeln!(f, "clearance checks:       {} total", self.total_checks())?;
        for kind in CheckKind::ALL {
            let c = self.checks[kind.index()];
            if c.performed > 0 {
                writeln!(
                    f,
                    "  {:<12} {:>8} performed, {} failed",
                    kind.label(),
                    c.performed,
                    c.failed
                )?;
            }
        }
        writeln!(f, "classifications:        {}", self.classifications)?;
        writeln!(f, "declassifications:      {}", self.declassifications)?;
        writeln!(f, "traps taken:            {}", self.traps)?;
        writeln!(f, "violations:             {}", self.violations)?;
        if self.tag_set_changes > 0 {
            writeln!(f, "tag-set changes:        {}", self.tag_set_changes)?;
        }
        if self.faults_injected > 0 {
            writeln!(f, "faults injected:        {}", self.faults_injected)?;
        }
        if let Some(ec) = &self.engine_cache {
            writeln!(
                f,
                "block cache:            {} hits / {} misses, {} invalidations, {} flushes",
                ec.hits, ec.misses, ec.invalidations, ec.flushes
            )?;
            writeln!(
                f,
                "taint-idle steps:       {} ({} checked)",
                ec.idle_steps, ec.checked_steps
            )?;
        }
        if !self.tlm_per_target.is_empty() {
            writeln!(f, "TLM transactions per target:")?;
            for (target, n) in &self.tlm_per_target {
                writeln!(f, "  {target:<12} {n:>8}")?;
            }
        }
        let any_spread = self.taint_high_water.iter().any(|&c| c > 0);
        if any_spread {
            writeln!(f, "taint spread high-water (bytes of RAM per atom):")?;
            for (atom, &c) in self.taint_high_water.iter().enumerate() {
                if c > 0 {
                    writeln!(f, "  atom {atom:<2} {c:>10}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdift_core::Tag;

    #[test]
    fn counters_follow_events() {
        let mut m = Metrics::default();
        m.update(&ObsEvent::Load { pc: 0, addr: 4, size: 4, tag: Tag::atom(1) });
        m.update(&ObsEvent::Load { pc: 0, addr: 8, size: 4, tag: Tag::EMPTY });
        m.update(&ObsEvent::Check {
            kind: CheckKind::Output,
            tag: Tag::atom(1),
            required: Tag::EMPTY,
            pc: None,
            passed: false,
            site: Some("uart.tx".into()),
        });
        m.update(&ObsEvent::Tlm {
            bus: "sys-bus".into(),
            target: "uart".into(),
            addr: 0x1000_0000,
            len: 1,
            write: true,
            tag: Tag::atom(1),
            ok: false,
            lat_ps: 0,
        });
        assert_eq!(m.tagged_loads, 1);
        assert_eq!(m.untagged_loads, 1);
        assert_eq!(m.checks[CheckKind::Output.index()].performed, 1);
        assert_eq!(m.checks[CheckKind::Output.index()].failed, 1);
        assert_eq!(m.tlm_per_target["uart"], 1);
        let text = m.to_string();
        assert!(text.contains("output"));
        assert!(text.contains("1 tagged / 1 untagged"));
    }

    #[test]
    fn spread_keeps_high_water() {
        let mut m = Metrics::default();
        let mut s = [0u32; ATOM_SLOTS];
        s[0] = 16;
        m.update_spread(&s);
        s[0] = 4;
        s[2] = 9;
        m.update_spread(&s);
        assert_eq!(m.taint_high_water[0], 16, "high-water keeps the max");
        assert_eq!(m.taint_high_water[2], 9);
    }
}

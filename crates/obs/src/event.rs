//! The cross-layer observability event vocabulary.

use core::fmt;

use vpdift_core::{Tag, Violation, ViolationKind};

/// Which clearance check an [`ObsEvent::Check`] refers to. A payload-free
/// mirror of [`ViolationKind`] so checks can be counted per kind without
/// allocating; the site name (sink, region, component) travels separately
/// in the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// Branch/jump/mret execution clearance (§V-B2a).
    Branch,
    /// Instruction-fetch clearance (§V-B2b).
    Fetch,
    /// Load/store address clearance (§V-B2c).
    MemAddr,
    /// Trap-vector clearance.
    TrapVector,
    /// Output-sink clearance (UART, CAN, …).
    Output,
    /// Protected-region store clearance.
    Store,
    /// Declassification authority.
    Declassify,
    /// A model-specific check.
    Custom,
}

impl CheckKind {
    /// Number of kinds (for fixed-size per-kind counters).
    pub const COUNT: usize = 8;

    /// Dense index for counter arrays.
    pub const fn index(self) -> usize {
        match self {
            CheckKind::Branch => 0,
            CheckKind::Fetch => 1,
            CheckKind::MemAddr => 2,
            CheckKind::TrapVector => 3,
            CheckKind::Output => 4,
            CheckKind::Store => 5,
            CheckKind::Declassify => 6,
            CheckKind::Custom => 7,
        }
    }

    /// All kinds, in [`CheckKind::index`] order.
    pub const ALL: [CheckKind; CheckKind::COUNT] = [
        CheckKind::Branch,
        CheckKind::Fetch,
        CheckKind::MemAddr,
        CheckKind::TrapVector,
        CheckKind::Output,
        CheckKind::Store,
        CheckKind::Declassify,
        CheckKind::Custom,
    ];

    /// Short label used in metric and export output.
    pub const fn label(self) -> &'static str {
        match self {
            CheckKind::Branch => "branch",
            CheckKind::Fetch => "fetch",
            CheckKind::MemAddr => "mem_addr",
            CheckKind::TrapVector => "trap_vector",
            CheckKind::Output => "output",
            CheckKind::Store => "store",
            CheckKind::Declassify => "declassify",
            CheckKind::Custom => "custom",
        }
    }

    /// The check kind a violation kind belongs to, plus its site name (the
    /// sink/region/component, when the kind carries one).
    pub fn of_violation(kind: &ViolationKind) -> (CheckKind, Option<&str>) {
        match kind {
            ViolationKind::Branch => (CheckKind::Branch, None),
            ViolationKind::Fetch => (CheckKind::Fetch, None),
            ViolationKind::MemAddr => (CheckKind::MemAddr, None),
            ViolationKind::TrapVector => (CheckKind::TrapVector, None),
            ViolationKind::Output { sink } => (CheckKind::Output, Some(sink)),
            ViolationKind::Store { region } => (CheckKind::Store, Some(region)),
            ViolationKind::Declassify { component } => (CheckKind::Declassify, Some(component)),
            ViolationKind::Custom { what } => (CheckKind::Custom, Some(what)),
        }
    }
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One observability event, emitted by a VP layer into an
/// [`ObsSink`](crate::ObsSink).
///
/// Events are only produced when a sink with `ENABLED = true` is attached;
/// with the default [`NullSink`](crate::NullSink) every emission site is
/// compiled out.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// One instruction retired. `word` holds the raw fetched bits (the
    /// 16-bit parcel for compressed instructions) so the flight recorder
    /// can disassemble lazily, long after the fact.
    InsnRetired {
        /// PC of the retired instruction.
        pc: u32,
        /// Raw instruction bits as fetched.
        word: u32,
        /// `true` when `word` is a 16-bit RV32C parcel.
        compressed: bool,
        /// LUB of the fetched bytes' tags (empty in plain mode).
        fetch_tag: Tag,
        /// Retired-instruction count *after* this instruction.
        instret: u64,
    },
    /// Tag propagation into an architectural register: the destination's
    /// tag before and after the write. Only emitted when the write changes
    /// the tag or the incoming tag is non-empty.
    TagWrite {
        /// PC of the writing instruction.
        pc: u32,
        /// Destination register number (1–31; x0 writes are dropped).
        reg: u8,
        /// Destination tag before the write.
        before: Tag,
        /// Destination tag after the write.
        after: Tag,
    },
    /// A data load observed at the CPU boundary.
    Load {
        /// PC of the load.
        pc: u32,
        /// Effective address.
        addr: u32,
        /// Access size in bytes.
        size: u32,
        /// Tag of the loaded value.
        tag: Tag,
    },
    /// A data store observed at the CPU boundary.
    Store {
        /// PC of the store.
        pc: u32,
        /// Effective address.
        addr: u32,
        /// Access size in bytes.
        size: u32,
        /// Tag of the stored value.
        tag: Tag,
    },
    /// A clearance check was evaluated (pass or fail).
    Check {
        /// What kind of check.
        kind: CheckKind,
        /// Tag of the checked data.
        tag: Tag,
        /// Clearance the site required.
        required: Tag,
        /// PC, when the check site knows it.
        pc: Option<u32>,
        /// `true` when `allowedFlow(tag, required)` held.
        passed: bool,
        /// Site name (sink/region/component) for named checks.
        site: Option<String>,
    },
    /// A violation was recorded by the DIFT engine.
    Violation(Violation),
    /// The tag set reaching a *named* check site (output sink, protected
    /// region, declassify component) changed: the engine saw a different
    /// tag at the site than on its previous check there, and reports it
    /// right after that check. Much sparser than the per-check stream.
    TagSetChange {
        /// The named site (e.g. `"uart.tx"`).
        site: String,
        /// Tag last checked at the site (empty before the first check).
        before: Tag,
        /// Tag checked now.
        after: Tag,
    },
    /// Data entered the system already classified: a policy region applied
    /// at load time, or a peripheral ingress tagging incoming bytes.
    Classify {
        /// The classification site (region name or `"<periph>.rx"`-style
        /// source name).
        source: String,
        /// The applied tag.
        tag: Tag,
        /// Address for memory-region classification, `None` for
        /// peripheral ingress.
        addr: Option<u32>,
    },
    /// A trusted component removed atoms from data (e.g. the AES engine
    /// re-tagging ciphertext).
    Declassify {
        /// The declassifying component.
        component: String,
        /// Tag before declassification.
        before: Tag,
        /// Tag after declassification.
        after: Tag,
    },
    /// A TLM transaction was routed to a target.
    Tlm {
        /// Name of the routing interconnect (e.g. `"sys-bus"`).
        bus: String,
        /// Name of the addressed target, or `"<unmapped>"`.
        target: String,
        /// Global (pre-rewrite) address.
        addr: u32,
        /// Payload length in bytes.
        len: u32,
        /// `true` for writes.
        write: bool,
        /// LUB of the payload byte tags after the transaction.
        tag: Tag,
        /// `true` when the target responded OK.
        ok: bool,
        /// Latency the target added to the transaction, in picoseconds
        /// (0 for unrouted or error-terminated transactions).
        lat_ps: u64,
    },
    /// A trap or interrupt was taken.
    Trap {
        /// PC at which the trap was taken.
        pc: u32,
        /// `mcause` value (without the interrupt bit).
        cause: u32,
        /// `true` for asynchronous interrupts.
        irq: bool,
    },
    /// A fault was injected into the platform by a fault-injection
    /// campaign (`vpdift-faults`).
    FaultInjected {
        /// Where the fault was injected (e.g. `"ram"`, `"sys-bus"`,
        /// `"can"`, `"plic"`).
        site: String,
        /// Fault kind label (e.g. `"ram_data_flip"`, `"tlm_drop"`).
        kind: String,
        /// Faulted address, when the fault targets one.
        addr: Option<u32>,
        /// Kind-specific detail (bit index, IRQ line, burst count, …).
        detail: u32,
    },
    /// End-of-run counters from a block-caching execution engine
    /// (`vpdift-rv32`'s `BlockCache`); absent for interpreter runs.
    EngineCache {
        /// Steps dispatched from a cached block.
        hits: u64,
        /// Cache lookups that had to (re)build or fall back.
        misses: u64,
        /// Blocks killed by store-range invalidation (self-modifying code).
        invalidations: u64,
        /// Whole-cache flushes from external memory mutation.
        flushes: u64,
        /// Steps run with checks skipped because the taint-idle latch was
        /// still clear.
        idle_steps: u64,
        /// Steps run on the slow checked path after the latch was set.
        checked_steps: u64,
    },
}

impl ObsEvent {
    /// Short kind label (export key, progress displays).
    pub const fn label(&self) -> &'static str {
        match self {
            ObsEvent::InsnRetired { .. } => "insn",
            ObsEvent::TagWrite { .. } => "tag_write",
            ObsEvent::Load { .. } => "load",
            ObsEvent::Store { .. } => "store",
            ObsEvent::Check { .. } => "check",
            ObsEvent::Violation(_) => "violation",
            ObsEvent::TagSetChange { .. } => "tag_set_change",
            ObsEvent::Classify { .. } => "classify",
            ObsEvent::Declassify { .. } => "declassify",
            ObsEvent::Tlm { .. } => "tlm",
            ObsEvent::Trap { .. } => "trap",
            ObsEvent::FaultInjected { .. } => "fault",
            ObsEvent::EngineCache { .. } => "engine_cache",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_kind_indices_are_dense_and_unique() {
        let mut seen = [false; CheckKind::COUNT];
        for k in CheckKind::ALL {
            assert!(!seen[k.index()], "duplicate index");
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn violation_kinds_map_to_checks_with_sites() {
        let output = ViolationKind::Output { sink: "uart.tx".into() };
        let (k, site) = CheckKind::of_violation(&output);
        assert_eq!(k, CheckKind::Output);
        assert_eq!(site, Some("uart.tx"));
        let (k, site) = CheckKind::of_violation(&ViolationKind::Branch);
        assert_eq!(k, CheckKind::Branch);
        assert_eq!(site, None);
    }
}

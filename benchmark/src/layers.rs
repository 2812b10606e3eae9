//! Per-layer values shared by every workload: tracing cost, exact
//! counts, and the observability counters of a counts pass.

use std::collections::BTreeMap;

use vpdift_obs::{CheckKind, Metrics, NullSink, ObsEvent, ObsSink};

use crate::trace::Tracer;
use crate::{stats, Round};

/// An observability sink that only counts: every event folds into
/// [`vpdift_obs::Metrics`]. A counts pass runs the same sessions as a
/// round on `Soc<M, CountSink>`, untimed, to learn per-layer work
/// (TLM transactions per target, checks per kind, tagged loads and
/// stores) that `NullSink` builds compile out.
#[derive(Default)]
pub(crate) struct CountSink(pub(crate) Metrics);

impl ObsSink for CountSink {
    fn event(&mut self, event: &ObsEvent) {
        self.0.update(event);
    }
}

/// A sink a session can be generic over: the timed `NullSink`, which
/// counts nothing, or a [`CountSink`].
pub(crate) trait Counted: ObsSink + Default {
    /// The counters gathered so far.
    fn take_metrics(&mut self) -> Metrics;
}

impl Counted for NullSink {
    fn take_metrics(&mut self) -> Metrics {
        Metrics::default()
    }
}

impl Counted for CountSink {
    fn take_metrics(&mut self) -> Metrics {
        std::mem::take(&mut self.0)
    }
}

/// Adds `m`'s counters into `acc` (the parts the per-layer metrics use).
pub(crate) fn add_metrics(acc: &mut Metrics, m: &Metrics) {
    acc.instructions += m.instructions;
    for (a, b) in acc.checks.iter_mut().zip(&m.checks) {
        a.performed += b.performed;
        a.failed += b.failed;
    }
    acc.tagged_loads += m.tagged_loads;
    acc.untagged_loads += m.untagged_loads;
    acc.tagged_stores += m.tagged_stores;
    acc.untagged_stores += m.untagged_stores;
    acc.tag_writes += m.tag_writes;
    acc.violations += m.violations;
    for (target, n) in &m.tlm_per_target {
        *acc.tlm_per_target.entry(target.clone()).or_insert(0) += n;
    }
}

/// The `core.*` and `tlm.*` values of one round's counts pass.
pub(crate) fn obs_values(m: &Metrics, out: &mut BTreeMap<&'static str, f64>) {
    let check = |k: CheckKind| m.checks[k.index()].performed as f64;
    out.insert("core.check.fetch", check(CheckKind::Fetch));
    out.insert("core.check.branch", check(CheckKind::Branch));
    out.insert("core.check.memaddr", check(CheckKind::MemAddr));
    out.insert("core.check.output", check(CheckKind::Output));
    let ratio = |a: u64, b: u64| if a + b == 0 { 0.0 } else { a as f64 / (a + b) as f64 };
    out.insert("core.tagged_load_ratio", ratio(m.tagged_loads, m.untagged_loads));
    out.insert("core.tagged_store_ratio", ratio(m.tagged_stores, m.untagged_stores));
    out.insert("core.tag_writes", m.tag_writes as f64);
    out.insert("core.violations", m.violations as f64);
    out.insert("rv32.traps", m.traps as f64);
    let tx: u64 = m.tlm_per_target.values().sum();
    out.insert("tlm.tx", tx as f64);
    for (name, target) in [
        ("tlm.tx.clint", "clint"),
        ("tlm.tx.plic", "plic"),
        ("tlm.tx.uart", "uart"),
        ("tlm.tx.terminal", "terminal"),
        ("tlm.tx.sensor", "sensor"),
        ("tlm.tx.can", "can"),
        ("tlm.tx.aes", "aes"),
        ("tlm.tx.dma", "dma"),
        ("tlm.tx.watchdog", "watchdog"),
    ] {
        out.insert(name, m.tlm_per_target.get(target).copied().unwrap_or(0) as f64);
    }
    if m.instructions > 0 {
        out.insert("tlm.tx_per_kinsn", tx as f64 * 1e3 / m.instructions as f64);
    }
}

/// Values every workload reports the same way.
pub(crate) fn common(
    traced: &[Round],
    untraced: &[Round],
    tracer: &Tracer,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let wall = |rs: &[Round]| rs.iter().map(|r| r.wall).sum::<f64>();
    out.insert("trace_overhead", wall(traced) / wall(untraced));
    out.insert("host.cores", crate::host_cores() as f64);

    let totals = tracer.totals();
    let harness: f64 =
        totals.iter().filter(|(n, _)| n.starts_with("bench.")).map(|(_, t)| t.self_s).sum();
    if let Some(rounds) = totals.get("bench.round") {
        out.insert("bench.self_share", harness / rounds.total_s);
    }

    let c = &traced[0].counts;
    let [hits, misses, invalidations, flushes, idle, checked] = c.block;
    for (name, v) in [
        ("rv32.instret", c.instret),
        ("rv32.block_invalidations", invalidations),
        ("rv32.block_flushes", flushes),
        ("rv32.idle_steps", idle),
        ("rv32.checked_steps", checked),
        ("core.checks", c.checks),
        ("core.checks_failed", c.checks_failed),
        ("periph.uart_bytes", c.uart_bytes),
        ("periph.can_auths", c.can_auths),
        ("fleet.insns", c.fleet_insns),
        ("obs.ev_lines", c.ev_lines),
    ] {
        out.insert(name, v as f64);
    }
    if hits + misses > 0 {
        out.insert("rv32.block_hit_ratio", hits as f64 / (hits + misses) as f64);
    }
    out.insert("kernel.sim_s", c.sim_ps as f64 * 1e-12);
    for o in vpdift_faults::Outcome::ALL {
        let name = OUTCOME_METRICS[o.index()];
        out.insert(name, c.outcomes[o.index()] as f64);
    }

    let mut per_round: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (name, v) in traced.iter().flat_map(|r| r.layer.iter()) {
        per_round.entry(name).or_default().push(*v);
    }
    for (name, vs) in per_round {
        out.insert(name, stats::median(&vs));
    }
    out
}

/// Metric names of the campaign outcomes, indexed by `Outcome::index`.
const OUTCOME_METRICS: [&str; vpdift_faults::Outcome::COUNT] = [
    "faults.outcome.masked",
    "faults.outcome.dift_detected",
    "faults.outcome.precise_trap",
    "faults.outcome.watchdog_timeout",
    "faults.outcome.trap_loop",
    "faults.outcome.hang",
    "faults.outcome.degraded",
    "faults.outcome.sdc",
];

/// The `q`-quantile of the span durations named `name`, in `scale` units
/// per second (1e3 for ms, 1e6 for µs); absent when there are none.
pub(crate) fn span_quantile(tracer: &Tracer, name: &str, q: f64, scale: f64) -> Option<f64> {
    let d = tracer.durations(name);
    (!d.is_empty()).then(|| stats::quantile(&d, q) * scale)
}

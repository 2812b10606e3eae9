//! Deterministic JSON rendering of a [`CampaignReport`].
//!
//! Hand-rolled on purpose (the workspace is offline — no serde): fixed
//! field order, no timestamps, no map iteration — the same report always
//! renders to the same bytes, which is what the campaign's reproducibility
//! guarantee is checked against.

use std::fmt::Write as _;

use crate::campaign::{
    CampaignConfig, CampaignReport, Outcome, ReferenceInfo, RunOutcomes, ScenarioOutcome,
};
use crate::injector::FaultRecord;

/// Renders one fault record as a compact JSON object.
pub fn fault_json(f: &FaultRecord) -> String {
    let addr = match f.addr {
        Some(a) => a.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"step\":{},\"site\":\"{}\",\"kind\":\"{}\",\"addr\":{},\"detail\":{}}}",
        f.step, f.site, f.kind, addr, f.detail
    )
}

/// Renders one classified scenario outcome as a compact JSON object.
pub fn scenario_json(s: &ScenarioOutcome) -> String {
    let faults: Vec<String> = s.faults.iter().map(fault_json).collect();
    format!(
        "{{\"scenario\":\"{}\",\"exit\":\"{}\",\"outcome\":\"{}\",\"faults\":[{}]}}",
        s.scenario,
        s.exit,
        s.outcome.label(),
        faults.join(",")
    )
}

/// Renders one seeded run (all random scenarios) as a compact JSON
/// object — the exact fragment [`render_json`] emits per run, so a
/// parallel campaign executor that renders fragments per job and
/// reassembles them in run order reproduces the serial report
/// byte-for-byte.
pub fn run_json(run: &RunOutcomes) -> String {
    let results: Vec<String> = run.results.iter().map(scenario_json).collect();
    format!("{{\"run\":{},\"seed\":{},\"results\":[{}]}}", run.run, run.seed, results.join(","))
}

/// One row of a report's `"runs"` array.
#[derive(Debug, Clone, Copy)]
pub enum Row<'a> {
    /// A completed run's rendered fragment, such as [`run_json`].
    Done(&'a str),
    /// A run that did not complete: its id and failure label.
    Failed(u64, &'a str),
}

/// The leading members of a campaign report: its config, the fault-free
/// references and the directed demonstrations.
pub fn campaign_header(
    config: &CampaignConfig,
    references: &[ReferenceInfo],
    directed: &[ScenarioOutcome],
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  \"campaign\": {{\"seed\": {}, \"runs\": {}, \"rate\": {}}},",
        config.seed, config.runs, config.rate
    );
    out.push_str("  \"references\": [\n");
    for (i, r) in references.iter().enumerate() {
        let comma = if i + 1 < references.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"scenario\":\"{}\",\"exit\":\"{}\",\"steps\":{}}}{comma}",
            r.scenario, r.exit, r.steps
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"directed\": [\n");
    for (i, s) in directed.iter().enumerate() {
        let comma = if i + 1 < directed.len() { "," } else { "" };
        let _ = writeln!(out, "    {}{comma}", scenario_json(s));
    }
    out.push_str("  ],\n");
    out
}

/// Renders a campaign report: `header` (its leading members, each line
/// ending in `,`), then the `"runs"` array with one row per line in the
/// order given, a failed run as `{"<id_key>":N,"failed":"<label>"}`, then
/// the `"summary"` of outcome counts (indexed by [`Outcome::index`])
/// followed by the `extra` cells. The serial report, the parallel one and
/// the `taintvp-run fleet` sweep all render through here.
pub fn render_report(
    header: &str,
    id_key: &str,
    rows: &[Row<'_>],
    summary: &[u64],
    extra: &[(&str, u64)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(header);
    out.push_str("  \"runs\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = match row {
            Row::Done(fragment) => writeln!(out, "    {fragment}{comma}"),
            Row::Failed(id, label) => {
                writeln!(out, "    {{\"{id_key}\":{id},\"failed\":\"{label}\"}}{comma}")
            }
        };
    }
    out.push_str("  ],\n");
    let cells: Vec<String> = Outcome::ALL
        .iter()
        .map(|o| (o.label(), summary[o.index()]))
        .chain(extra.iter().copied())
        .map(|(label, n)| format!("\"{label}\": {n}"))
        .collect();
    let _ = writeln!(out, "  \"summary\": {{{}}}", cells.join(", "));
    out.push_str("}\n");
    out
}

/// Renders the report as deterministic JSON: equal reports produce
/// byte-identical output.
pub fn render_json(report: &CampaignReport) -> String {
    let runs: Vec<String> = report.random.iter().map(run_json).collect();
    let rows: Vec<Row<'_>> = runs.iter().map(|r| Row::Done(r)).collect();
    let header = campaign_header(&report.config, &report.references, &report.directed);
    render_report(&header, "run", &rows, &report.summary, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};

    #[test]
    fn same_seed_renders_byte_identical_json() {
        let cfg = CampaignConfig { seed: 0xBEEF, runs: 2, rate: 5e-5 };
        let a = render_json(&run_campaign(&cfg));
        let b = render_json(&run_campaign(&cfg));
        assert_eq!(a, b, "campaigns must be reproducible to the byte");
        assert!(a.contains("\"directed\""));
        assert!(a.contains("\"trap_loop\""));
    }

    #[test]
    fn different_seeds_render_different_json() {
        let a = render_json(&run_campaign(&CampaignConfig { seed: 1, runs: 2, rate: 5e-5 }));
        let b = render_json(&run_campaign(&CampaignConfig { seed: 2, runs: 2, rate: 5e-5 }));
        assert_ne!(a, b, "the seed must matter");
    }

    #[test]
    fn report_is_one_json_document() {
        let report = run_campaign(&CampaignConfig { seed: 3, runs: 1, rate: 5e-5 });
        let json = render_json(&report);
        // One JSON document, and the summary covers every outcome label.
        vpdift_obs::json::parse(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        for o in Outcome::ALL {
            assert!(json.contains(o.label()), "summary key {} missing", o.label());
        }
    }
}

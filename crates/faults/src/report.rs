//! Deterministic JSON rendering of a [`CampaignReport`].
//!
//! Hand-rolled on purpose (the workspace is offline — no serde): fixed
//! field order, no timestamps, no map iteration — the same report always
//! renders to the same bytes, which is what the campaign's reproducibility
//! guarantee is checked against.

use std::fmt::Write as _;

use crate::campaign::{CampaignReport, Outcome, RunOutcomes, ScenarioOutcome};
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

/// Renders the report as deterministic JSON: equal reports produce
/// byte-identical output.
pub fn render_json(report: &CampaignReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"campaign\": {{\"seed\": {}, \"runs\": {}, \"rate\": {}}},",
        report.config.seed, report.config.runs, report.config.rate
    );

    out.push_str("  \"references\": [\n");
    for (i, r) in report.references.iter().enumerate() {
        let comma = if i + 1 < report.references.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"scenario\":\"{}\",\"exit\":\"{}\",\"steps\":{}}}{comma}",
            r.scenario, r.exit, r.steps
        );
    }
    out.push_str("  ],\n");

    out.push_str("  \"directed\": [\n");
    for (i, s) in report.directed.iter().enumerate() {
        let comma = if i + 1 < report.directed.len() { "," } else { "" };
        let _ = writeln!(out, "    {}{comma}", scenario_json(s));
    }
    out.push_str("  ],\n");

    out.push_str("  \"runs\": [\n");
    for (i, run) in report.random.iter().enumerate() {
        let comma = if i + 1 < report.random.len() { "," } else { "" };
        let _ = writeln!(out, "    {}{comma}", run_json(run));
    }
    out.push_str("  ],\n");

    let summary: Vec<String> = Outcome::ALL
        .iter()
        .map(|o| format!("\"{}\": {}", o.label(), report.summary[o.index()]))
        .collect();
    let _ = writeln!(out, "  \"summary\": {{{}}}", summary.join(", "));
    out.push_str("}\n");
    out
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

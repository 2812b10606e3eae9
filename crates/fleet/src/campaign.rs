//! Parallel fault campaigns: the serial `run_campaign` fan-out, and the
//! journaled run every fleet front end goes through.
//!
//! The fault-free references of the random scenarios run once on the
//! calling thread, as in the serial runner; every seeded run then becomes
//! one fleet job whose payload is the *rendered JSON fragment* the serial
//! report emits for that run. No job needs the three directed
//! demonstrations, so they run on one more thread beside the workers. The
//! report puts the fragments back in run order through the serial
//! renderer's own skeleton ([`vpdift_faults::render_report`]), so the
//! output is byte-identical to [`vpdift_faults::render_json`] on a serial
//! [`vpdift_faults::run_campaign`] — regardless of worker count,
//! stealing, or interleaving.

use std::io;
use std::path::Path;
use std::sync::Arc;

use vpdift_faults::campaign::ReferenceInfo;
use vpdift_faults::{
    campaign_header, directed_demos, random_references, random_run, render_report, run_json,
    CampaignConfig, Outcome, Row,
};
use vpdift_obs::json::{self, Value};

use crate::executor::{Fleet, FleetConfig};
use crate::job::{Job, JobOutput, JobResult, JobStatus};
use crate::journal::{Journal, JournalHeader};

/// A finished parallel campaign.
#[derive(Debug)]
pub struct FleetCampaign {
    /// The deterministic report JSON (byte-identical to the serial
    /// renderer when every job completed).
    pub json: String,
    /// Jobs that did not complete (`crashed` / `hang` / `error`), by
    /// (job id, status label).
    pub failures: Vec<(u64, &'static str)>,
    /// Jobs resumed from the journal rather than re-run.
    pub resumed: usize,
    /// Fault-free reference facts (for bench trajectories).
    pub references: Vec<ReferenceInfo>,
    /// Outcome totals across directed + completed runs, indexed by
    /// [`Outcome::index`].
    pub summary: Vec<u64>,
}

impl FleetCampaign {
    /// Counts the scenario objects of the report that name `scenario`
    /// with `outcome`: the directed demonstrations and the results of
    /// every completed run.
    ///
    /// # Panics
    ///
    /// If the report does not parse as JSON (a non-finite
    /// [`CampaignConfig::rate`] renders as `NaN` or `inf`): an SDC gate
    /// must not read an unreadable report as zero.
    pub fn scenario_outcome_count(&self, scenario: &str, outcome: &str) -> u64 {
        fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
            v.get(key).and_then(Value::as_arr).unwrap_or_default()
        }
        let report = json::parse(&self.json).expect("a rendered campaign report is JSON");
        let runs = array(&report, "runs").iter().flat_map(|run| array(run, "results"));
        array(&report, "directed")
            .iter()
            .chain(runs)
            .filter(|s| {
                s.get("scenario").and_then(Value::as_str) == Some(scenario)
                    && s.get("outcome").and_then(Value::as_str) == Some(outcome)
            })
            .count() as u64
    }
}

/// Every result of a journaled run, in job-id order.
#[derive(Debug)]
pub struct JournaledRun {
    /// Recovered and fresh results, sorted by job id.
    pub results: Vec<JobResult>,
    /// How many results came from the journal instead of running.
    pub resumed: usize,
}

impl JournaledRun {
    fn completed(r: &JobResult) -> Option<&str> {
        match (&r.status, &r.payload) {
            (JobStatus::Ok, Some(payload)) => Some(payload),
            _ => None,
        }
    }

    /// The report rows: one per job in id order, a job that did not
    /// complete as an explicit failed row.
    pub fn rows(&self) -> Vec<Row<'_>> {
        self.results
            .iter()
            .map(|r| match Self::completed(r) {
                Some(payload) => Row::Done(payload),
                None => Row::Failed(r.job_id, r.status.label()),
            })
            .collect()
    }

    /// Outcome counts summed over the completed jobs, indexed by
    /// [`Outcome::index`].
    pub fn summary(&self) -> Vec<u64> {
        let mut summary = vec![0u64; Outcome::COUNT];
        for r in self.results.iter().filter(|r| Self::completed(r).is_some()) {
            for (cell, n) in summary.iter_mut().zip(&r.counts) {
                *cell += n;
            }
        }
        summary
    }

    /// The jobs that did not complete.
    pub fn failures(&self) -> impl Iterator<Item = &JobResult> {
        self.results.iter().filter(|r| Self::completed(r).is_none())
    }
}

/// Runs `jobs` on a fleet configured by `fleet_config`. With `journal`,
/// results stream into a crash-safe journal created under `header`; with
/// `resume` the journal is reopened instead, refused unless its header is
/// `header`, and the jobs it already holds are skipped and counted into
/// telemetry as resumed.
pub fn run_journaled(
    fleet_config: &FleetConfig,
    jobs: Vec<Job>,
    journal: Option<&Path>,
    header: &JournalHeader,
    resume: bool,
) -> io::Result<JournaledRun> {
    let context = |what: &str, path: &Path, e: io::Error| {
        io::Error::new(e.kind(), format!("cannot {what} journal {}: {e}", path.display()))
    };
    let (mut journal, mut results) = match journal {
        Some(path) if resume => {
            let (j, recovered) =
                Journal::open_resume(path, header).map_err(|e| context("resume", path, e))?;
            (Some(j), recovered)
        }
        Some(path) => {
            (Some(Journal::create(path, header).map_err(|e| context("create", path, e))?), vec![])
        }
        None => (None, Vec::new()),
    };
    let skip: Vec<u64> = results.iter().map(|r| r.job_id).collect();
    if let Some(hub) = &fleet_config.telemetry {
        hub.add_resumed(skip.len() as u64);
    }
    results.extend(Fleet::new(fleet_config.clone()).run(jobs, journal.as_mut(), &skip));
    results.sort_by_key(|r| r.job_id);
    Ok(JournaledRun { results, resumed: skip.len() })
}

/// Runs `config` as a parallel campaign on `fleet_config.workers`
/// workers, plus one thread for the directed demonstrations. With
/// `journal_path`, results stream into a crash-safe journal; `resume`
/// recovers previously completed jobs from it instead of re-running them.
pub fn run_campaign_fleet(
    config: &CampaignConfig,
    fleet_config: &FleetConfig,
    journal_path: Option<&Path>,
    resume: bool,
) -> io::Result<FleetCampaign> {
    let refs = Arc::new(random_references());
    let campaign = *config;

    let jobs: Vec<Job> = (0..config.runs)
        .map(|i| {
            let refs = Arc::clone(&refs);
            Job::new(u64::from(i), move |_ctx| {
                let run = random_run(&refs, &campaign, i);
                let mut counts = vec![0u64; Outcome::COUNT];
                for s in &run.results {
                    counts[s.outcome.index()] += 1;
                }
                Ok(JobOutput { payload: run_json(&run), counts, insns: run.steps })
            })
        })
        .collect();

    let header = JournalHeader {
        suite: "faultcamp".into(),
        jobs: u64::from(config.runs),
        seed: config.seed,
        rate: config.rate,
        inputs: Vec::new(),
    };
    let (demos, run) = std::thread::scope(|scope| {
        let demos = scope.spawn(directed_demos);
        let run = run_journaled(fleet_config, jobs, journal_path, &header, resume);
        (demos.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)), run)
    });
    let run = run?;
    let (mut references, directed) = demos;
    references.extend(refs.iter().map(|(kind, r)| ReferenceInfo::of(*kind, r)));

    let mut summary = run.summary();
    for s in &directed {
        summary[s.outcome.index()] += 1;
    }
    let header = campaign_header(config, &references, &directed);
    Ok(FleetCampaign {
        json: render_report(&header, "run", &run.rows(), &summary, &[]),
        failures: run.failures().map(|r| (r.job_id, r.status.label())).collect(),
        resumed: run.resumed,
        references,
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdift_faults::{render_json, run_campaign, ScenarioKind};

    #[test]
    fn parallel_campaign_is_byte_identical_to_serial() {
        let config = CampaignConfig { seed: 0xFEED, runs: 6, rate: 5e-5 };
        let serial = render_json(&run_campaign(&config));
        for workers in [1, 4] {
            let fleet_config = FleetConfig { workers, ..FleetConfig::default() };
            let fleet = run_campaign_fleet(&config, &fleet_config, None, false).unwrap();
            assert!(fleet.failures.is_empty());
            assert_eq!(
                fleet.json, serial,
                "{workers}-worker campaign must render the serial bytes"
            );
        }
    }

    #[test]
    fn report_counts_match_the_serial_tally() {
        let config = CampaignConfig { seed: 0x5CA1E, runs: 3, rate: 5e-5 };
        let serial = run_campaign(&config);
        let fleet = run_campaign_fleet(&config, &FleetConfig::default(), None, false).unwrap();
        let scenarios = ScenarioKind::RANDOM.iter().chain(&ScenarioKind::DIRECTED);
        for kind in scenarios {
            for outcome in Outcome::ALL {
                assert_eq!(
                    fleet.scenario_outcome_count(kind.name(), outcome.label()),
                    serial.scenario_count(kind.name(), outcome),
                    "{} / {}",
                    kind.name(),
                    outcome.label()
                );
            }
        }
    }

    #[test]
    fn resume_refuses_a_journal_of_another_rate() {
        let path =
            std::env::temp_dir().join(format!("fleet-campaign-rate-{}.jsonl", std::process::id()));
        let config = CampaignConfig { seed: 7, runs: 2, rate: 5e-5 };
        let fleet_config = FleetConfig::default();
        run_campaign_fleet(&config, &fleet_config, Some(&path), false).unwrap();
        let written = std::fs::read(&path).unwrap();
        let other = CampaignConfig { rate: 1e-3, ..config };
        let err = run_campaign_fleet(&other, &fleet_config, Some(&path), true).unwrap_err();
        assert!(err.to_string().contains("different campaign"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), written, "a refused journal is untouched");
        let resumed = run_campaign_fleet(&config, &fleet_config, Some(&path), true).unwrap();
        assert_eq!(resumed.resumed, 2, "the same campaign resumes");
        std::fs::remove_file(&path).ok();
    }
}

//! `fault-campaign`: seeded fault campaigns through
//! `vpdift_fleet::run_campaign_fleet` on up to two workers, journaled to
//! a `taintvp-fleet/v1` file, after a set-up phase that builds
//! immobilizer sessions the way every campaign job does.

use std::collections::BTreeMap;
use std::path::PathBuf;

use vpdift_faults::{campaign_prelude, CampaignConfig, ScenarioKind};
use vpdift_fleet::{parse_record, run_campaign_fleet, FleetConfig, JobStatus, TelemetryHub};
use vpdift_immo::protocol::{policy_for, prepare_session, PolicyKind};
use vpdift_immo::{firmware as immo_fw, Variant};
use vpdift_rv32::Tainted;
use vpdift_soc::{ExecConfig, Soc, SocBuilder};

use crate::trace::Tracer;
use crate::{Bench, Checks, Config, Round, Size};

pub(crate) struct Campaign {
    config: CampaignConfig,
    workers: usize,
    setup_sessions: u64,
    journal: PathBuf,
    /// The first round's report; every later round must match it.
    report: Option<String>,
    prelude_s: Option<f64>,
}

impl Campaign {
    pub(crate) fn new(cfg: &Config) -> Campaign {
        let (runs, setup_sessions) = match cfg.size {
            Size::Committed => (50, 20),
            Size::Tiny => (2, 2),
        };
        Campaign {
            config: CampaignConfig { seed: cfg.seed, runs, rate: 5e-5 },
            workers: crate::host_cores().min(2),
            setup_sessions,
            journal: cfg.out_dir.join(format!("journal-{}-{}.jsonl", cfg.seed, std::process::id())),
            report: None,
            prelude_s: None,
        }
    }

    /// Reads the journal back: a header plus one `ok` record per run.
    fn check_journal(&self, checks: &mut Checks) {
        let text = std::fs::read_to_string(&self.journal).unwrap_or_default();
        let mut lines = text.lines();
        let header_ok = lines.next().is_some_and(|h| h.contains(vpdift_fleet::FORMAT));
        let mut jobs: Vec<u64> = lines
            .filter_map(parse_record)
            .filter(|r| r.status == JobStatus::Ok)
            .map(|r| r.job_id)
            .collect();
        jobs.sort_unstable();
        let want: Vec<u64> = (0..u64::from(self.config.runs)).collect();
        checks.check(header_ok && jobs == want, || {
            format!(
                "journal {} holds jobs {jobs:?}, want 0..{}",
                self.journal.display(),
                self.config.runs
            )
        });
    }
}

impl Bench for Campaign {
    fn prepare(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> Vec<f64> {
        if let Some(dir) = self.journal.parent() {
            let made = std::fs::create_dir_all(dir);
            checks.check(made.is_ok(), || format!("cannot create {}: {made:?}", dir.display()));
        }
        // Every campaign job builds a fresh per-byte-policy immobilizer
        // session from the default exec config; time that set-up alone.
        let fw = immo_fw::build(Variant::Fixed);
        let policy = policy_for(PolicyKind::PerByte, &fw);
        let mut setup = Vec::new();
        for i in 0..self.setup_sessions {
            let open = tracer.begin("setup.session", i);
            match SocBuilder::from_exec_config(&ExecConfig::default()) {
                Ok(b) => {
                    let cfg = b.sensor_thread(false).policy(policy.clone()).build();
                    let (mut soc, new_s) =
                        tracer.time("soc.new.vp_plus", i, || Soc::<Tainted>::new(cfg));
                    let (_, load_s) = tracer
                        .time("soc.load", i, || prepare_session(&mut soc, &fw, 1, b"q", 0xEC0));
                    tracer.time("soc.drop", i, || drop(soc));
                    setup.push(new_s + load_s);
                }
                Err(e) => checks.check(false, || format!("default exec config rejected: {e}")),
            }
            tracer.end(open);
        }
        if tracer.recording() {
            // The prelude (directed runs, fault-free references) runs
            // inside every campaign; timed once on its own here.
            let (_, s) = tracer.time("faults.prelude", 0, || campaign_prelude(&self.config));
            self.prelude_s = Some(s);
        }
        setup
    }

    fn round(&mut self, index: u64, tracer: &mut Tracer, checks: &mut Checks) -> Round {
        let runs = u64::from(self.config.runs);
        let hub = TelemetryHub::new(self.workers);
        let fleet = FleetConfig {
            workers: self.workers,
            telemetry: Some(hub.clone()),
            ..FleetConfig::default()
        };
        let (result, _) = tracer.time("fleet.run_campaign", index, || {
            run_campaign_fleet(&self.config, &fleet, Some(&self.journal), false)
        });
        let snap = hub.snapshot();
        let mut round = Round { ops: runs, insns: snap.insns, ..Round::default() };

        let open = tracer.begin("bench.verify", index);
        match result {
            Err(e) => checks.check(false, || format!("campaign failed: {e}")),
            Ok(c) => {
                checks.check(c.failures.is_empty(), || {
                    format!("runs did not complete: {:?}", c.failures)
                });
                let sdc = c.scenario_outcome_count("immo-session", "sdc");
                checks.check(sdc == 0, || {
                    format!("{sdc} immobilizer run(s) ended in silent data corruption")
                });
                let total: u64 = c.summary.iter().sum();
                let want =
                    runs * ScenarioKind::RANDOM.len() as u64 + ScenarioKind::DIRECTED.len() as u64;
                checks.check(total == want, || {
                    format!("summary classifies {total} runs, want {want}")
                });
                match &self.report {
                    None => self.report = Some(c.json.clone()),
                    Some(first) => checks.check(*first == c.json, || {
                        "campaign report changed between rounds".into()
                    }),
                }
                for (slot, n) in round.counts.outcomes.iter_mut().zip(&c.summary) {
                    *slot = *n;
                }
            }
        }
        self.check_journal(checks);
        let removed = std::fs::remove_file(&self.journal);
        checks.check(removed.is_ok(), || format!("cannot remove the journal: {removed:?}"));
        tracer.end(open);

        let busy_ns: u64 = snap.workers.iter().map(|w| w.busy_ns).sum();
        let idle_ns: u64 = snap.workers.iter().map(|w| w.idle_ns).sum();
        round.counts.fleet_insns = snap.insns;
        round.layer = vec![
            ("fleet.busy_s", busy_ns as f64 * 1e-9),
            ("fleet.idle_s", idle_ns as f64 * 1e-9),
            ("fleet.utilization", busy_ns as f64 / (busy_ns + idle_ns).max(1) as f64),
            ("fleet.steals", snap.stolen as f64),
            ("fleet.retries", snap.retried as f64),
            ("fleet.job_p50_ms", snap.wall_us.quantile(0.5) as f64 * 1e-3),
            ("fleet.job_p95_ms", snap.wall_us.quantile(0.95) as f64 * 1e-3),
        ];
        round
    }

    fn layers(
        &mut self,
        _traced: &[Round],
        tracer: &Tracer,
        _checks: &mut Checks,
        out: &mut BTreeMap<&'static str, f64>,
    ) {
        for (name, span) in [("soc.new_ms", "soc.new.vp_plus"), ("soc.load_ms", "soc.load")] {
            if let Some(v) = crate::layers::span_quantile(tracer, span, 0.5, 1e3) {
                out.insert(name, v);
            }
        }
        if let Some(s) = self.prelude_s {
            out.insert("faults.prelude_s", s);
        }
    }
}

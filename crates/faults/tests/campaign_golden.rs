//! Pins the seeded campaign report that CI's `fault-campaign` job writes
//! (`faultcamp --seed 0xD1F7FA17 --runs 25 --rate 5e-5`). Its 25 random
//! schedules apply every fault kind — RAM data and tag flips, the three
//! bus faults, both CAN wire faults, sensor, DMA and interrupt faults —
//! so any drift in how a fault is armed or fires shows up here. The
//! campaign is fully deterministic; regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p vpdift-faults --test campaign_golden`
//! after an intended change.

use vpdift_faults::{render_json, run_campaign, CampaignConfig};

const GOLDEN: &str = include_str!("golden/campaign_d1f7fa17.json");

#[test]
fn seeded_campaign_report_matches_its_golden() {
    let config = CampaignConfig { seed: 0xD1F7_FA17, runs: 25, rate: 5e-5 };
    let report = render_json(&run_campaign(&config));

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/campaign_d1f7fa17.json");
        std::fs::write(path, &report).expect("golden written");
        return;
    }
    assert_eq!(
        report, GOLDEN,
        "campaign report drifted from tests/golden/campaign_d1f7fa17.json; \
         regenerate with UPDATE_GOLDEN=1 if the change is intended"
    );
}

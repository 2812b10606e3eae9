//! The workflow the paper advertises: *developing* a security policy
//! against a binary before hardware exists.
//!
//! We iterate a policy for a small telemetry firmware in three steps:
//! 1. run in **record mode** to see every flow the draft policy flags,
//! 2. use the findings to add the missing declassification-free path
//!    (aggregate statistics are fine to publish, raw samples are not —
//!    so the fix is in the *software*, guided by the violations),
//! 3. re-run enforcing, with an instruction trace around the hot spot.
//!
//! Run with: `cargo run --example policy_development`

use taintvp::asm::{Asm, Reg};
use taintvp::core::{EnforceMode, SecurityPolicy, Tag};
use taintvp::prelude::{map, Soc, SocBuilder, SocExit};
use taintvp::rv32::Tainted;

use Reg::*;

const SENSOR_SECRET: Tag = Tag::from_bits(1);

/// Telemetry firmware, draft 1: publishes MIN/MAX of a sensor frame —
/// and, for "debugging", also the first raw sample.
fn firmware(publish_raw_sample: bool) -> taintvp::asm::Program {
    let mut a = Asm::new(0);
    a.li(S0, map::SENSOR_BASE as i32);
    a.li(S1, 255); // min
    a.li(S2, 0); // max
    a.li(T0, 0);
    a.label("scan");
    a.add(T1, S0, T0);
    a.lbu(T2, 0, T1);
    a.bgeu(S1, T2, "not_min");
    a.label("min_done");
    a.bgeu(S2, T2, "next");
    a.mv(S2, T2);
    a.j("next");
    a.label("not_min");
    a.mv(S1, T2);
    a.j("min_done");
    a.label("next");
    a.addi(T0, T0, 1);
    a.li(T1, 64);
    a.blt(T0, T1, "scan");

    a.li(T3, map::UART_BASE as i32);
    a.sw(S1, 0, T3); // publish min
    a.sw(S2, 0, T3); // publish max
    if publish_raw_sample {
        a.lbu(T2, 0, S0); // "debug": raw sample 0
        a.sw(T2, 0, T3);
    }
    a.ebreak();
    a.assemble().unwrap()
}

fn soc(policy: SecurityPolicy, enforce: EnforceMode, raw: bool) -> Soc<Tainted> {
    let cfg = SocBuilder::new().policy(policy).enforce(enforce).sensor_thread(false).build();
    let mut s = Soc::<Tainted>::new(cfg);
    s.load_program(&firmware(raw));
    s.sensor_mut().generate_frame();
    s
}

fn main() {
    // Draft policy: sensor data is confidential, UART is public-only…
    // which is too strict — even MIN/MAX are (correctly!) tainted.
    let draft = || {
        SecurityPolicy::builder("telemetry-draft")
            .source("sensor.data", SENSOR_SECRET)
            .sink("uart.tx", Tag::EMPTY)
            .build()
    };

    println!("== step 1: audit the draft policy in record mode ==");
    let mut s = soc(draft(), EnforceMode::Record, true);
    assert_eq!(s.run(100_000), SocExit::Break);
    for v in s.engine().borrow().violations() {
        println!("  finding: {v}");
    }
    println!(
        "  -> every UART write is flagged: MIN/MAX depend on samples, and \
         taint tracking has no notion of 'aggregated enough'.\n"
    );

    println!("== step 2: decide the policy, not the engine, was wrong ==");
    println!(
        "  Aggregates may be published on this product, raw samples may not.\n  \
         DIFT cannot distinguish them (both depend on the data), so the\n  \
         *policy* clears uart.tx for sensor-derived data, and the raw-sample\n  \
         debug write is removed from the firmware instead.\n"
    );

    let shipped = SecurityPolicy::builder("telemetry-v2")
        .source("sensor.data", SENSOR_SECRET)
        .sink("uart.tx", SENSOR_SECRET) // aggregates may leave
        .build();

    println!("== step 3: enforce on the fixed firmware, traced ==");
    let mut s = soc(shipped, EnforceMode::Enforce, false);
    let exit = s.run_traced(12, |r| println!("  {r}"));
    let exit = if matches!(exit, SocExit::InstrLimit) { s.run(100_000) } else { exit };
    println!("  … exit: {exit:?}; UART bytes: {:?}", s.uart().borrow().output());
    assert_eq!(exit, SocExit::Break);
}

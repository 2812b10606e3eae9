//! Fault campaigns over the paper's workloads: run the immobilizer case
//! study and the §VI-B attack suite under seeded fault schedules and
//! classify how the platform degraded.
//!
//! Three *random* scenarios take per-run generated schedules; three
//! *directed* scenarios carry fixed schedules constructed to demonstrate
//! one resilience mechanism each (trap-loop detection, the watchdog, and
//! the DIFT fail-closed rule), so every campaign — regardless of seed —
//! contains at least one `trap_loop`, one `watchdog_timeout` and one
//! `dift_detected` classification.

use std::sync::OnceLock;

use vpdift_asm::{Asm, Program, Reg};
use vpdift_attacks::{all_attacks, code_injection_policy, LI};
use vpdift_core::{SecurityPolicy, Tag};
use vpdift_firmware::rt::emit_runtime;
use vpdift_immo::firmware::{self as immo_fw, ImmoFirmware, Variant, CHALLENGE_ID};
use vpdift_immo::policy as immo_policy;
use vpdift_immo::protocol::{policy_for, prepare_session, PolicyKind};
use vpdift_immo::scenarios::{build_program as build_leak_program, Scenario};
use vpdift_kernel::SimTime;
use vpdift_obs::ObsSink;
use vpdift_periph::can::regs as can_regs;
use vpdift_periph::CanFrame;
use vpdift_rv32::{TaintMode, Tainted};
use vpdift_soc::{map, ExecConfig, Soc, SocBuilder, SocExit};
use vpdift_sync::shared;

use crate::config::{generate_plan, FaultKind, PlannedFault};
use crate::hooks::LossyCanFault;
use crate::injector::{run_with_faults, FaultRecord};

/// RAM window targeted by random RAM faults: covers every workload image
/// plus its working data (see [`generate_plan`]).
const RAM_FAULT_WINDOW: u32 = 0x4000;

/// Campaign parameters. Equal configs produce byte-identical reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Master seed; per-run schedule seeds are derived from it.
    pub seed: u64,
    /// Number of seeded random-schedule runs.
    pub runs: u32,
    /// Faults per CPU step of the reference run (schedule density). The
    /// derived per-run fault count is clamped to `1..=32`.
    pub rate: f64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig { seed: 0xD1F7_FA17, runs: 10, rate: 5e-5 }
    }
}

/// The campaign's workload scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Immobilizer challenge-response session (fixed firmware, per-byte
    /// policy) under a random fault schedule.
    ImmoSession,
    /// §VI-A scenario 1a (direct PIN leak) under the per-byte policy —
    /// the reference run *is* a violation, so the interesting outcome is
    /// a fault that masks detection.
    ImmoLeak,
    /// One §VI-B code-injection attack under the fetch-clearance policy.
    AttackInjection,
    /// Directed: a RAM bit flip turns the only instruction of a spin loop
    /// illegal — with `mtvec` still at the reset vector, the trap target
    /// *is* the corrupted word, and the trap-loop detector must fire.
    DirectedTrapLoop,
    /// Directed: the CAN line eats the only challenge frame while the
    /// guest spin-waits for it; the armed watchdog must bite.
    DirectedWatchdog,
    /// Directed: a taint-tag bit flip plants an atom no policy rule ever
    /// mentions on a byte headed for the UART; the DIFT engine's
    /// fail-closed rule must saturate it and stop the output.
    DirectedTagCorruption,
}

impl ScenarioKind {
    /// Scenarios driven by per-run random schedules.
    pub const RANDOM: [ScenarioKind; 3] =
        [ScenarioKind::ImmoSession, ScenarioKind::ImmoLeak, ScenarioKind::AttackInjection];

    /// Scenarios with fixed, purpose-built schedules.
    pub const DIRECTED: [ScenarioKind; 3] = [
        ScenarioKind::DirectedTrapLoop,
        ScenarioKind::DirectedWatchdog,
        ScenarioKind::DirectedTagCorruption,
    ];

    /// Stable scenario name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::ImmoSession => "immo-session",
            ScenarioKind::ImmoLeak => "immo-leak",
            ScenarioKind::AttackInjection => "attack-injection",
            ScenarioKind::DirectedTrapLoop => "directed-trap-loop",
            ScenarioKind::DirectedWatchdog => "directed-watchdog",
            ScenarioKind::DirectedTagCorruption => "directed-tag-corruption",
        }
    }

    /// Per-scenario schedule-seed salt, so the same run seed draws
    /// independent schedules for each scenario.
    fn salt(self) -> u64 {
        match self {
            ScenarioKind::ImmoSession => 0x5E55_1001,
            ScenarioKind::ImmoLeak => 0x1EA6_0CAF,
            ScenarioKind::AttackInjection => 0x00A7_7ACC,
            _ => 0,
        }
    }

    /// Step budget for the *reference* (fault-free) run.
    fn reference_budget(self) -> u64 {
        match self {
            ScenarioKind::ImmoSession => 50_000_000,
            ScenarioKind::ImmoLeak | ScenarioKind::AttackInjection => 10_000_000,
            // Directed references are open loops; a small budget bounds
            // them (their classification never depends on the budget).
            ScenarioKind::DirectedTrapLoop => 20_000,
            ScenarioKind::DirectedWatchdog => 2_000_000,
            ScenarioKind::DirectedTagCorruption => 100_000,
        }
    }
}

/// Everything observed about one scenario execution.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// How the simulation ended.
    pub exit: SocExit,
    /// UART output (the architectural result surface).
    pub uart: Vec<u8>,
    /// Successful ECU authentications (immobilizer session only).
    pub auths: u32,
    /// CPU steps consumed (retired instructions + taken traps).
    pub steps: u64,
    /// Taken traps alone.
    pub traps: u64,
    /// Simulated time at exit.
    pub sim_time: SimTime,
    /// Faults actually applied.
    pub faults: Vec<FaultRecord>,
}

/// How a faulted run compares to its fault-free reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Architecturally identical to the reference — the fault was
    /// absorbed.
    Masked,
    /// The DIFT engine raised a violation the reference did not (or a
    /// different one) — the fault was *detected* by the policy layer.
    DiftDetected,
    /// Same architectural result, but the platform took extra precise
    /// traps to get there.
    PreciseTrap,
    /// The armed watchdog expired.
    WatchdogTimeout,
    /// The CPU's trap-loop detector fired.
    TrapLoop,
    /// The run neither finished nor tripped a resilience mechanism
    /// within its budget.
    Hang,
    /// Outputs match the reference but the scenario's success metric
    /// regressed (fewer authentications): the failure is *visible* at
    /// the protocol level — fail-secure, not silent.
    Degraded,
    /// Silent data corruption: the run completed with a different
    /// architectural result, gained authentications it should not have,
    /// or lost a detection the reference made.
    Sdc,
}

impl Outcome {
    /// Number of outcome classes.
    pub const COUNT: usize = 8;

    /// All outcomes, in report order.
    pub const ALL: [Outcome; Outcome::COUNT] = [
        Outcome::Masked,
        Outcome::DiftDetected,
        Outcome::PreciseTrap,
        Outcome::WatchdogTimeout,
        Outcome::TrapLoop,
        Outcome::Hang,
        Outcome::Degraded,
        Outcome::Sdc,
    ];

    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Masked => "masked",
            Outcome::DiftDetected => "dift_detected",
            Outcome::PreciseTrap => "precise_trap",
            Outcome::WatchdogTimeout => "watchdog_timeout",
            Outcome::TrapLoop => "trap_loop",
            Outcome::Hang => "hang",
            Outcome::Degraded => "degraded",
            Outcome::Sdc => "sdc",
        }
    }

    /// Dense index into summary arrays.
    pub fn index(self) -> usize {
        match self {
            Outcome::Masked => 0,
            Outcome::DiftDetected => 1,
            Outcome::PreciseTrap => 2,
            Outcome::WatchdogTimeout => 3,
            Outcome::TrapLoop => 4,
            Outcome::Hang => 5,
            Outcome::Degraded => 6,
            Outcome::Sdc => 7,
        }
    }
}

/// Classifies a faulted run against its fault-free reference.
pub fn classify(reference: &ScenarioRun, run: &ScenarioRun) -> Outcome {
    match &run.exit {
        SocExit::WatchdogTimeout => Outcome::WatchdogTimeout,
        SocExit::TrapLoop => Outcome::TrapLoop,
        SocExit::Violation(v) => match &reference.exit {
            // The reference already violated: the same violation kind
            // means the fault changed nothing the policy layer sees; a
            // *different* kind means the engine caught the fault itself.
            SocExit::Violation(r) if r.kind == v.kind => Outcome::Masked,
            _ => Outcome::DiftDetected,
        },
        SocExit::Break => {
            if matches!(reference.exit, SocExit::Violation(_)) {
                // The reference was stopped by the policy; completing
                // cleanly means the fault *suppressed* a detection.
                Outcome::Sdc
            } else if run.uart == reference.uart && run.auths == reference.auths {
                if run.traps > reference.traps {
                    Outcome::PreciseTrap
                } else {
                    Outcome::Masked
                }
            } else if run.uart == reference.uart && run.auths < reference.auths {
                // A corrupted or lost exchange that the protocol refused:
                // the engine stays locked — fail-secure, visibly degraded.
                Outcome::Degraded
            } else {
                Outcome::Sdc
            }
        }
        // A cooperative stop never happens inside a campaign (no serve
        // session drives these runs); treat a stray one like a budget
        // exit so the classification stays total.
        SocExit::InstrLimit | SocExit::Idle | SocExit::Stopped => {
            // Directed references are open loops that also hit the
            // budget; matching behavior there is absorption, not a hang.
            if matches!(reference.exit, SocExit::InstrLimit | SocExit::Idle)
                && run.uart == reference.uart
            {
                Outcome::Masked
            } else {
                Outcome::Hang
            }
        }
    }
}

impl ScenarioRun {
    /// What a finished run of `soc` shows the classifier: its exit, UART
    /// output, step and trap counts and simulated time, plus `auths` and
    /// the `faults` actually applied.
    pub fn observe<M: TaintMode, S: ObsSink>(
        soc: &Soc<M, S>,
        exit: SocExit,
        auths: u32,
        faults: Vec<FaultRecord>,
    ) -> ScenarioRun {
        ScenarioRun {
            exit,
            uart: soc.uart().borrow().output().to_vec(),
            auths,
            steps: soc.instret() + soc.cpu().traps_taken(),
            traps: soc.cpu().traps_taken(),
            sim_time: soc.now(),
            faults,
        }
    }
}

/// Every campaign SoC starts from the one validated [`ExecConfig`] entry
/// point; scenario-specific knobs (typed policies, the disabled sensor
/// thread) layer on top of the resolved builder.
pub fn base_builder() -> SocBuilder {
    SocBuilder::from_exec_config(&ExecConfig::default())
        .expect("the default exec config is valid")
        .sensor_thread(false)
}

/// The attack-injection guest: the first applicable attack of the §VI-B
/// suite with its payload range and malicious terminal input. It is plain
/// data, so it is assembled once per process and shared by every run
/// instead of rebuilding the whole suite per run (the suite's input
/// builder is not `Sync`, so the input is built here, up front).
struct AttackGuest {
    program: Program,
    payload: u32,
    payload_len: usize,
    input: Vec<u8>,
}

fn attack_guest() -> &'static AttackGuest {
    static GUEST: OnceLock<AttackGuest> = OnceLock::new();
    GUEST.get_or_init(|| {
        let form = all_attacks()
            .into_iter()
            .find_map(|a| a.form)
            .expect("the suite contains applicable attacks");
        let payload = form.program.symbol("payload").expect("payload symbol");
        let end = form.program.symbol("payload_end").expect("payload end marker");
        let input = (form.malicious_input)(&form.program);
        AttackGuest { payload, payload_len: (end - payload) as usize, input, program: form.program }
    })
}

/// The fixed immobilizer firmware, assembled once per process.
fn immo_firmware() -> &'static ImmoFirmware {
    static FIRMWARE: OnceLock<ImmoFirmware> = OnceLock::new();
    FIRMWARE.get_or_init(|| immo_fw::build(Variant::Fixed))
}

/// The §VI-A direct-leak guest, assembled once per process.
fn leak_program() -> &'static Program {
    static PROGRAM: OnceLock<Program> = OnceLock::new();
    PROGRAM.get_or_init(|| build_leak_program(Scenario::DirectLeakUart))
}

/// Runs a *random-schedule* scenario under `plan`. `watchdog` arms the
/// host-side hang detector (always `None` for the reference run: an
/// un-kicked dog would bite every long reference).
pub fn faulted_run(
    kind: ScenarioKind,
    plan: &[PlannedFault],
    watchdog: Option<SimTime>,
    budget: u64,
) -> ScenarioRun {
    match kind {
        ScenarioKind::ImmoSession => {
            let fw = immo_firmware();
            let cfg = base_builder().policy(policy_for(PolicyKind::PerByte, fw)).build();
            let mut soc = Soc::<Tainted>::new(cfg);
            let (mut ecu, challenges) = prepare_session(&mut soc, fw, 1, b"q", 0xEC0);
            if let Some(t) = watchdog {
                soc.watchdog_mut().arm(t);
            }
            let (exit, faults) = run_with_faults(&mut soc, budget, plan);
            let auths =
                challenges.iter().filter(|ch| ecu.verify_response(soc.can_host(), ch)).count()
                    as u32;
            ScenarioRun::observe(&soc, exit, auths, faults)
        }
        ScenarioKind::ImmoLeak => {
            let program = leak_program();
            let pin_addr = program.symbol("pin").expect("leak program has a pin label");
            let (policy, _tags) = immo_policy::per_byte(pin_addr, 16);
            let cfg = base_builder().policy(policy).build();
            let mut soc = Soc::<Tainted>::new(cfg);
            soc.load_program(program);
            soc.terminal().borrow_mut().feed(b"Z");
            if let Some(t) = watchdog {
                soc.watchdog_mut().arm(t);
            }
            let (exit, faults) = run_with_faults(&mut soc, budget, plan);
            ScenarioRun::observe(&soc, exit, 0, faults)
        }
        ScenarioKind::AttackInjection => {
            let guest = attack_guest();
            let cfg = base_builder().policy(code_injection_policy()).build();
            let mut soc = Soc::<Tainted>::new(cfg);
            soc.load_program(&guest.program);
            soc.ram_mut().classify(guest.payload, guest.payload_len, LI);
            soc.terminal().borrow_mut().feed(&guest.input);
            if let Some(t) = watchdog {
                soc.watchdog_mut().arm(t);
            }
            let (exit, faults) = run_with_faults(&mut soc, budget, plan);
            ScenarioRun::observe(&soc, exit, 0, faults)
        }
        directed => directed_run(directed, !plan.is_empty()),
    }
}

/// Runs a random-schedule scenario with no faults — the reference.
pub fn reference_run(kind: ScenarioKind) -> ScenarioRun {
    if ScenarioKind::DIRECTED.contains(&kind) {
        directed_run(kind, false)
    } else {
        faulted_run(kind, &[], None, kind.reference_budget())
    }
}

/// Runs a *directed* scenario; `faulted` selects the purpose-built fault
/// schedule, `false` the fault-free twin.
pub fn directed_run(kind: ScenarioKind, faulted: bool) -> ScenarioRun {
    match kind {
        ScenarioKind::DirectedTrapLoop => directed_trap_loop(faulted),
        ScenarioKind::DirectedWatchdog => directed_watchdog(faulted),
        ScenarioKind::DirectedTagCorruption => directed_tag_corruption(faulted),
        other => panic!("{} is not a directed scenario", other.name()),
    }
}

/// A one-instruction spin loop at the reset vector: `j 0` (0x0000006F).
/// Flipping bit 6 of its first byte turns the word into 0x0000002F — an
/// AMO opcode this RV32IM core does not implement. The illegal-instruction
/// trap lands at `mtvec` (still the reset value 0), which *is* the
/// corrupted word: a textbook zero-progress trap loop.
fn directed_trap_loop(faulted: bool) -> ScenarioRun {
    let cfg = base_builder().build();
    let mut soc = Soc::<Tainted>::new(cfg);
    soc.ram_mut().load_image(0, &0x0000_006Fu32.to_le_bytes());
    soc.cpu_mut().reset(0);
    let plan = if faulted {
        vec![PlannedFault { at_step: 50, kind: FaultKind::RamDataFlip { offset: 0, bit: 6 } }]
    } else {
        Vec::new()
    };
    let (exit, faults) =
        run_with_faults(&mut soc, ScenarioKind::DirectedTrapLoop.reference_budget(), &plan);
    ScenarioRun::observe(&soc, exit, 0, faults)
}

/// The guest spin-waits for a CAN challenge frame. In the faulted twin the
/// line eats the single frame the ECU sends and the armed watchdog is the
/// only thing standing between the platform and an unbounded spin.
fn directed_watchdog(faulted: bool) -> ScenarioRun {
    let mut a = Asm::new(0);
    a.entry();
    a.li(Reg::S0, map::CAN_BASE as i32);
    a.label("poll");
    a.lw(Reg::T0, can_regs::RX_AVAIL as i32, Reg::S0);
    a.beqz(Reg::T0, "poll");
    a.lw(Reg::T1, can_regs::RX_ID as i32, Reg::S0);
    a.ebreak();
    let program = a.assemble().expect("watchdog guest assembles");
    let cfg = base_builder().build();
    let mut soc = Soc::<Tainted>::new(cfg);
    soc.load_program(&program);
    let mut faults = Vec::new();
    if faulted {
        let line = shared(LossyCanFault::default());
        line.borrow_mut().arm_drop(1);
        soc.can_host().set_line_fault(line);
        soc.watchdog_mut().arm(SimTime::from_ms(1));
        faults.push(FaultRecord { step: 0, site: "can", kind: "can_drop", addr: None, detail: 1 });
    }
    let delivered = soc.can_host().send(CanFrame::new(CHALLENGE_ID, &[1, 2, 3, 4, 5, 6, 7, 8]));
    debug_assert_eq!(delivered, !faulted, "the line fault decides delivery");
    let (exit, _) =
        run_with_faults(&mut soc, ScenarioKind::DirectedWatchdog.reference_budget(), &[]);
    ScenarioRun::observe(&soc, exit, 0, faults)
}

/// The guest prints one clean byte. The faulted twin flips a taint-tag
/// atom on that byte before it is read — an atom no rule of the policy
/// mentions, so the engine's fail-closed rule must saturate it to lattice
/// top and refuse the UART write instead of silently declassifying.
fn directed_tag_corruption(faulted: bool) -> ScenarioRun {
    let mut a = Asm::new(0);
    a.entry();
    a.j("main");
    a.align(4);
    a.label("buf");
    a.bytes(b"A");
    a.align(4);
    a.label("main");
    a.la(Reg::T0, "buf");
    a.lbu(Reg::A0, 0, Reg::T0);
    a.call("rt_putc");
    a.ebreak();
    emit_runtime(&mut a);
    let program = a.assemble().expect("tag-corruption guest assembles");
    let policy = SecurityPolicy::builder("fault-demo").sink("uart.tx", Tag::EMPTY).build();
    let cfg = base_builder().policy(policy).build();
    let mut soc = Soc::<Tainted>::new(cfg);
    soc.load_program(&program);
    let buf = program.symbol("buf").expect("buf symbol");
    let plan = if faulted {
        vec![PlannedFault { at_step: 1, kind: FaultKind::RamTagFlip { offset: buf, atom: 9 } }]
    } else {
        Vec::new()
    };
    let (exit, faults) =
        run_with_faults(&mut soc, ScenarioKind::DirectedTagCorruption.reference_budget(), &plan);
    ScenarioRun::observe(&soc, exit, 0, faults)
}

/// A classified scenario execution, as reported.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub scenario: &'static str,
    /// Exit label (`SocExit::label`).
    pub exit: &'static str,
    /// Classification against the reference.
    pub outcome: Outcome,
    /// Faults applied in this run.
    pub faults: Vec<FaultRecord>,
}

/// One seeded random-schedule run across all random scenarios.
#[derive(Debug, Clone)]
pub struct RunOutcomes {
    /// Run index.
    pub run: u32,
    /// Derived schedule seed.
    pub seed: u64,
    /// Per-scenario results.
    pub results: Vec<ScenarioOutcome>,
    /// Total CPU steps consumed across all scenarios in this run —
    /// telemetry fuel for fleet throughput (MIPS) accounting. Excluded
    /// from [`run_json`](crate::report::run_json), so reports stay
    /// byte-identical to pre-telemetry output.
    pub steps: u64,
}

/// Reference-run facts included in the report.
#[derive(Debug, Clone)]
pub struct ReferenceInfo {
    /// Scenario name.
    pub scenario: &'static str,
    /// Exit label of the fault-free run.
    pub exit: &'static str,
    /// Steps the fault-free run consumed.
    pub steps: u64,
}

impl ReferenceInfo {
    /// The reported facts of `kind`'s fault-free run `reference`.
    pub fn of(kind: ScenarioKind, reference: &ScenarioRun) -> ReferenceInfo {
        ReferenceInfo {
            scenario: kind.name(),
            exit: reference.exit.label(),
            steps: reference.steps,
        }
    }
}

/// The complete campaign result.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The configuration that produced this report.
    pub config: CampaignConfig,
    /// Fault-free reference facts, one per scenario.
    pub references: Vec<ReferenceInfo>,
    /// The three directed demonstrations.
    pub directed: Vec<ScenarioOutcome>,
    /// The seeded random-schedule runs.
    pub random: Vec<RunOutcomes>,
    /// Outcome counts across directed + random results, indexed by
    /// [`Outcome::index`].
    pub summary: [u64; Outcome::COUNT],
}

impl CampaignReport {
    /// Total classifications of `outcome` across the whole campaign.
    pub fn total(&self, outcome: Outcome) -> u64 {
        self.summary[outcome.index()]
    }

    /// Classifications of `outcome` for one scenario name.
    pub fn scenario_count(&self, scenario: &str, outcome: Outcome) -> u64 {
        let directed =
            self.directed.iter().filter(|s| s.scenario == scenario && s.outcome == outcome).count()
                as u64;
        let random = self
            .random
            .iter()
            .flat_map(|r| &r.results)
            .filter(|s| s.scenario == scenario && s.outcome == outcome)
            .count() as u64;
        directed + random
    }
}

/// Derives the schedule seed of run `i` from the master seed.
pub fn run_seed(master: u64, i: u64) -> u64 {
    master.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A seeded fault schedule over `horizon` steps: `⌈horizon·rate⌉` faults,
/// clamped to `1..=32`, with RAM faults inside the first `0x4000` bytes of
/// RAM.
pub fn seeded_plan(seed: u64, horizon: u64, rate: f64) -> Vec<PlannedFault> {
    let count = ((horizon as f64 * rate).ceil() as u64).clamp(1, 32) as u32;
    generate_plan(seed, count, horizon, RAM_FAULT_WINDOW)
}

/// How a faulted replay follows from its fault-free reference. Every
/// campaign front end derives its replays here, so they all share one
/// recipe.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The fault schedule: [`seeded_plan`] over the reference's steps.
    pub plan: Vec<PlannedFault>,
    /// Step budget: four times the reference's steps plus 10 000.
    pub budget: u64,
    /// Host-side hang detection, well beyond anything the reference
    /// needed: four times its simulated time plus 1 ms.
    pub watchdog: SimTime,
}

impl Replay {
    /// The replay of `reference` under the schedule drawn from
    /// `plan_seed` at `rate` faults per reference step.
    pub fn of(reference: &ScenarioRun, plan_seed: u64, rate: f64) -> Replay {
        Replay {
            plan: seeded_plan(plan_seed, reference.steps, rate),
            budget: reference.steps.saturating_mul(4).saturating_add(10_000),
            watchdog: (reference.sim_time * 4).saturating_add(SimTime::from_ms(1)),
        }
    }
}

/// Everything a campaign computes exactly once besides the seeded runs:
/// the three directed demonstrations and the fault-free references for
/// every random scenario.
#[derive(Debug, Clone)]
pub struct CampaignPrelude {
    /// Fault-free reference facts, one per scenario (directed first, in
    /// the same order [`run_campaign`] reports them).
    pub references: Vec<ReferenceInfo>,
    /// The three directed demonstrations, classified.
    pub directed: Vec<ScenarioOutcome>,
    /// Reference runs keyed by random scenario — what every seeded run
    /// needs to generate its plan and classify its outcome.
    pub refs: Vec<(ScenarioKind, ScenarioRun)>,
}

/// The directed half of the prelude: each demonstration's fault-free
/// reference facts and its classified faulted run. No seeded run depends
/// on it, so a parallel executor runs it beside its workers.
pub fn directed_demos() -> (Vec<ReferenceInfo>, Vec<ScenarioOutcome>) {
    ScenarioKind::DIRECTED
        .iter()
        .map(|&kind| {
            let reference = directed_run(kind, false);
            let run = directed_run(kind, true);
            let outcome = classify(&reference, &run);
            let demo = ScenarioOutcome {
                scenario: kind.name(),
                exit: run.exit.label(),
                outcome,
                faults: run.faults,
            };
            (ReferenceInfo::of(kind, &reference), demo)
        })
        .unzip()
}

/// The random half of the prelude: the fault-free reference of every
/// random scenario, which every seeded run needs first.
pub fn random_references() -> Vec<(ScenarioKind, ScenarioRun)> {
    ScenarioKind::RANDOM.iter().map(|&kind| (kind, reference_run(kind))).collect()
}

/// Runs the once-per-campaign work: [`directed_demos`], then
/// [`random_references`]. Deterministic for equal configs.
pub fn campaign_prelude(_config: &CampaignConfig) -> CampaignPrelude {
    let (mut references, directed) = directed_demos();
    let refs = random_references();
    references.extend(refs.iter().map(|(kind, r)| ReferenceInfo::of(*kind, r)));
    CampaignPrelude { references, directed, refs }
}

/// Executes seeded run `i`: every random scenario under the fault
/// schedule derived from the campaign seed. This is the unit of work a
/// fleet executor parallelizes; calling it for `0..runs` in order is
/// exactly what the serial [`run_campaign`] does, so a parallel campaign
/// that reassembles these results in run order is byte-identical.
pub fn random_run(
    refs: &[(ScenarioKind, ScenarioRun)],
    config: &CampaignConfig,
    i: u32,
) -> RunOutcomes {
    let seed = run_seed(config.seed, u64::from(i));
    let mut results = Vec::new();
    let mut steps = 0u64;
    for (kind, reference) in refs {
        let replay = Replay::of(reference, seed ^ kind.salt(), config.rate);
        let run = faulted_run(*kind, &replay.plan, Some(replay.watchdog), replay.budget);
        let outcome = classify(reference, &run);
        steps += run.steps;
        results.push(ScenarioOutcome {
            scenario: kind.name(),
            exit: run.exit.label(),
            outcome,
            faults: run.faults,
        });
    }
    RunOutcomes { run: i, seed, results, steps }
}

/// Runs the full campaign. Equal configs produce equal reports — no
/// wall-clock time, host randomness or map iteration order is involved.
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    let prelude = campaign_prelude(config);
    let random: Vec<RunOutcomes> =
        (0..config.runs).map(|i| random_run(&prelude.refs, config, i)).collect();

    let mut summary = [0u64; Outcome::COUNT];
    for s in prelude.directed.iter().chain(random.iter().flat_map(|r| &r.results)) {
        summary[s.outcome.index()] += 1;
    }
    CampaignReport {
        config: *config,
        references: prelude.references,
        directed: prelude.directed,
        random,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_trap_loop_is_caught() {
        let reference = directed_run(ScenarioKind::DirectedTrapLoop, false);
        assert_eq!(reference.exit, SocExit::InstrLimit, "fault-free spin burns the budget");
        let run = directed_run(ScenarioKind::DirectedTrapLoop, true);
        assert_eq!(run.exit, SocExit::TrapLoop, "corrupted spin is detected, not simulated");
        assert_eq!(classify(&reference, &run), Outcome::TrapLoop);
        assert!(run.steps < reference.steps, "detection saves the rest of the budget");
    }

    #[test]
    fn directed_watchdog_bites_on_lost_frame() {
        let reference = directed_run(ScenarioKind::DirectedWatchdog, false);
        assert_eq!(reference.exit, SocExit::Break, "delivered frame ends the wait");
        let run = directed_run(ScenarioKind::DirectedWatchdog, true);
        assert_eq!(run.exit, SocExit::WatchdogTimeout, "lost frame + armed dog = timeout");
        assert_eq!(classify(&reference, &run), Outcome::WatchdogTimeout);
    }

    #[test]
    fn directed_tag_corruption_fails_closed() {
        let reference = directed_run(ScenarioKind::DirectedTagCorruption, false);
        assert_eq!(reference.exit, SocExit::Break);
        assert_eq!(reference.uart, b"A", "clean byte reaches the UART");
        let run = directed_run(ScenarioKind::DirectedTagCorruption, true);
        match &run.exit {
            SocExit::Violation(v) => {
                assert_eq!(v.tag, Tag::from_bits(u32::MAX), "unknown atom saturated to top");
            }
            other => panic!("corrupted tag must violate, got {other:?}"),
        }
        assert!(run.uart.is_empty(), "nothing left the UART");
        assert_eq!(classify(&reference, &run), Outcome::DiftDetected);
    }

    #[test]
    fn references_are_healthy() {
        for &kind in &ScenarioKind::RANDOM {
            let r = reference_run(kind);
            match kind {
                ScenarioKind::ImmoSession => {
                    assert_eq!(r.exit, SocExit::Break);
                    assert_eq!(r.auths, 1, "the one round authenticates");
                }
                ScenarioKind::ImmoLeak | ScenarioKind::AttackInjection => {
                    assert!(
                        matches!(r.exit, SocExit::Violation(_)),
                        "{}: reference must be detected, got {:?}",
                        kind.name(),
                        r.exit
                    );
                }
                _ => unreachable!(),
            }
            assert!(r.steps > 0);
        }
    }

    #[test]
    fn small_campaign_is_fully_classified() {
        let cfg = CampaignConfig { seed: 0xCAFE, runs: 2, rate: 5e-5 };
        let report = run_campaign(&cfg);
        assert_eq!(report.directed.len(), 3);
        assert_eq!(report.random.len(), 2);
        let classified: u64 = report.summary.iter().sum();
        assert_eq!(
            classified,
            3 + 2 * ScenarioKind::RANDOM.len() as u64,
            "every execution lands in exactly one class"
        );
        // The directed trio guarantees the three resilience outcomes.
        assert!(report.total(Outcome::TrapLoop) >= 1);
        assert!(report.total(Outcome::WatchdogTimeout) >= 1);
        assert!(report.total(Outcome::DiftDetected) >= 1);
    }

    #[test]
    fn classification_table() {
        let base = |exit: SocExit| ScenarioRun {
            exit,
            uart: b"ok".to_vec(),
            auths: 1,
            steps: 100,
            traps: 0,
            sim_time: SimTime::ZERO,
            faults: Vec::new(),
        };
        let reference = base(SocExit::Break);
        assert_eq!(classify(&reference, &base(SocExit::Break)), Outcome::Masked);
        assert_eq!(classify(&reference, &base(SocExit::WatchdogTimeout)), Outcome::WatchdogTimeout);
        assert_eq!(classify(&reference, &base(SocExit::TrapLoop)), Outcome::TrapLoop);
        assert_eq!(classify(&reference, &base(SocExit::InstrLimit)), Outcome::Hang);
        let mut noisy = base(SocExit::Break);
        noisy.uart = b"corrupted".to_vec();
        assert_eq!(classify(&reference, &noisy), Outcome::Sdc);
        let mut trapped = base(SocExit::Break);
        trapped.traps = 3;
        assert_eq!(classify(&reference, &trapped), Outcome::PreciseTrap);
        let mut lost_auth = base(SocExit::Break);
        lost_auth.auths = 0;
        assert_eq!(classify(&reference, &lost_auth), Outcome::Degraded, "fail-secure refusal");
        let mut gained_auth = base(SocExit::Break);
        gained_auth.auths = 2;
        assert_eq!(classify(&reference, &gained_auth), Outcome::Sdc, "unearned authentication");
    }
}

//! Runs the attack suite on the DIFT-enabled VP and produces Table I.

use vpdift_core::{SecurityPolicy, Tag, Violation, ViolationKind};
use vpdift_rv32::{ExecMode, Tainted};
use vpdift_soc::{Soc, SocExit};

use crate::suite::{all_attacks, Attack};

/// The low-integrity atom used by the §VI-B policy.
pub const LI: Tag = Tag::from_bits(1);

/// Result of running one attack form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Not applicable in the RISC-V environment (paper column "N/A").
    NotApplicable,
    /// The DIFT engine stopped the injected code at instruction fetch.
    Detected,
    /// The attack succeeded (would be a regression of the DIFT engine).
    Undetected,
}

impl core::fmt::Display for Outcome {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Outcome::NotApplicable => write!(f, "N/A"),
            Outcome::Detected => write!(f, "Detected"),
            Outcome::Undetected => write!(f, "UNDETECTED"),
        }
    }
}

/// The §VI-B security policy: console input is low-integrity, program
/// memory is high-integrity at load, and the instruction-fetch unit
/// requires high integrity.
pub fn code_injection_policy() -> SecurityPolicy {
    SecurityPolicy::builder("code-injection")
        .source("terminal.rx", LI)
        .sink("uart.tx", LI)
        .fetch_clearance(Tag::EMPTY)
        .build()
}

/// Full observable result of one attack run, engine-agnostic — what the
/// differential harness compares between the interpreter and the block
/// cache.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackRun {
    /// How the simulation ended.
    pub exit: SocExit,
    /// Violations the DIFT engine recorded.
    pub violations: Vec<Violation>,
    /// Bytes the guest transmitted on the UART.
    pub uart: Vec<u8>,
    /// Retired instructions.
    pub instret: u64,
    /// Final architectural-state digest ([`Soc::state_digest`]).
    pub digest: u64,
}

/// Runs one applicable attack on the given execution engine and captures
/// everything observable. `None` for attacks without a RISC-V form.
pub fn run_attack_captured(attack: &Attack, benign: bool, engine: ExecMode) -> Option<AttackRun> {
    let form = attack.form.as_ref()?;
    let cfg = Soc::<Tainted>::builder()
        .policy(code_injection_policy())
        .sensor_thread(false)
        .engine(engine)
        .build();
    let mut soc = Soc::<Tainted>::new(cfg);
    soc.load_program(&form.program);

    // "We specifically classify this function as LI before conducting the
    // tests" (paper §VI-B): stamp the payload function.
    let payload = form.program.symbol("payload").expect("payload symbol");
    let end = form.program.symbol("payload_end").expect("payload end marker");
    soc.ram_mut().classify(payload, (end - payload) as usize, LI);

    let input =
        if benign { form.benign_input.clone() } else { (form.malicious_input)(&form.program) };
    soc.terminal().borrow_mut().feed(&input);

    let exit = soc.run(10_000_000);
    let violations = soc.engine().borrow().violations().to_vec();
    let uart = soc.uart().borrow().output().to_vec();
    Some(AttackRun { exit, violations, uart, instret: soc.instret(), digest: soc.state_digest() })
}

/// Runs one applicable attack with its malicious input; also exercises the
/// benign twin when `benign` is set.
pub fn run_attack(attack: &Attack, benign: bool) -> Outcome {
    let Some(run) = run_attack_captured(attack, benign, ExecMode::Interp) else {
        return Outcome::NotApplicable;
    };
    match run.exit {
        SocExit::Violation(v) if v.kind == ViolationKind::Fetch => Outcome::Detected,
        SocExit::Violation(v) => {
            // Any other violation still stopped the attack, but Table I
            // detection is specifically at instruction fetch; report it.
            panic!("attack #{} raised unexpected {v}", attack.id)
        }
        _ => Outcome::Undetected,
    }
}

/// One row of the reproduced Table I.
#[derive(Debug)]
pub struct TableRow {
    /// The attack definition.
    pub attack: Attack,
    /// The measured outcome.
    pub outcome: Outcome,
    /// The benign twin must run clean (no false positive); `true` = clean.
    pub benign_clean: bool,
}

/// Runs the whole suite.
pub fn table1() -> Vec<TableRow> {
    all_attacks()
        .into_iter()
        .map(|attack| {
            let outcome = run_attack(&attack, false);
            let benign_clean = match &attack.form {
                None => true,
                Some(_) => run_attack(&attack, true) == Outcome::Undetected,
            };
            TableRow { attack, outcome, benign_clean }
        })
        .collect()
}

/// Renders Table I in the paper's format.
pub fn render_table1(rows: &[TableRow]) -> String {
    let mut out = String::new();
    out.push_str("Atk # | Location      | Target                    | Technique | Result\n");
    out.push_str("------+---------------+---------------------------+-----------+---------\n");
    for row in rows {
        out.push_str(&format!(
            "{:>5} | {:<13} | {:<25} | {:<9} | {}\n",
            row.attack.id,
            row.attack.location.to_string(),
            row.attack.target.to_string(),
            row.attack.technique.to_string(),
            row.outcome
        ));
    }
    out
}

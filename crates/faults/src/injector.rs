//! Applies planned faults to a live [`Soc`] at exact CPU steps.
//!
//! [`run_with_faults`] slices the simulation at every scheduled step: the
//! SoC runs until the fault's step is reached (`SocExit::InstrLimit` on a
//! slice means *exactly* that many steps were consumed — a step is one
//! retired instruction or one taken trap), the fault is applied to the
//! part it disturbs (RAM, the system bus, the CAN wire, a device), and the
//! run continues. Any concrete exit (break, violation, watchdog, trap
//! loop, idle) before a scheduled fault ends the run and the remaining
//! faults never happen — exactly as on real hardware, where a crashed
//! board absorbs no further radiation.

use vpdift_obs::{ObsEvent, ObsSink};
use vpdift_rv32::TaintMode;
use vpdift_soc::{map, Soc, SocExit};
use vpdift_tlm::BusFault;

use crate::config::{FaultKind, PlannedFault};

/// What was actually injected, for reports and determinism checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// CPU step at which the fault was applied.
    pub step: u64,
    /// Injection site (e.g. `"ram"`, `"sys-bus"`, `"can"`).
    pub site: &'static str,
    /// Fault kind label (e.g. `"ram_data_flip"`).
    pub kind: &'static str,
    /// Faulted address, when the fault targets one.
    pub addr: Option<u32>,
    /// Kind-specific detail (bit index, IRQ line, frame count, …).
    pub detail: u32,
}

/// Applies one fault to the SoC at `step`, on the part it disturbs, and
/// returns the record. Bus and CAN faults are armed there and fire on the
/// next MMIO transaction or frame they apply to. Emits an
/// [`ObsEvent::FaultInjected`] when an observability sink is attached
/// (compiled out entirely under the default `NullSink`).
pub fn apply_fault<M: TaintMode, S: ObsSink>(
    soc: &mut Soc<M, S>,
    step: u64,
    kind: FaultKind,
) -> FaultRecord {
    match kind {
        FaultKind::RamDataFlip { offset, bit } => {
            // Out-of-range offsets are a no-op (None): the record still
            // notes the attempt so reports stay faithful to the plan.
            let _ = soc.ram_mut().flip_data_bit(offset, bit);
        }
        FaultKind::RamTagFlip { offset, atom } => {
            let _ = soc.ram_mut().flip_tag_bit(offset, atom);
        }
        FaultKind::TlmCorrupt => soc.arm_mmio_fault(BusFault::Corrupt),
        FaultKind::TlmDrop => soc.arm_mmio_fault(BusFault::Drop),
        FaultKind::TlmError => soc.arm_mmio_fault(BusFault::Error),
        FaultKind::CanCorrupt => soc.can_host().arm_corrupt(),
        FaultKind::CanDrop { count } => soc.can_host().arm_drop(count),
        FaultKind::SensorStuck { value } => {
            soc.sensor_mut().set_stuck(Some(value));
        }
        FaultKind::DmaAbort { bytes } => {
            soc.dma_mut().inject_abort_after(bytes);
        }
        FaultKind::SpuriousIrq { line } => {
            soc.plic_mut().raise(line.clamp(1, 31));
        }
        FaultKind::IrqStorm => {
            let plic = soc.plic_mut();
            plic.raise(map::IRQ_SENSOR);
            plic.raise(map::IRQ_CAN);
            plic.raise(map::IRQ_DMA);
        }
    }
    let record = FaultRecord {
        step,
        site: kind.site(),
        kind: kind.label(),
        addr: kind.addr(),
        detail: kind.detail(),
    };
    if S::ENABLED {
        soc.obs().borrow_mut().event(&ObsEvent::FaultInjected {
            site: record.site.into(),
            kind: record.kind.into(),
            addr: record.addr,
            detail: record.detail,
        });
    }
    record
}

/// Runs the SoC for at most `budget` steps, applying `plan` (sorted by
/// `at_step`) at the scheduled steps. Returns the exit and the faults that
/// were actually applied — faults scheduled after an early exit are never
/// injected and produce no records.
pub fn run_with_faults<M: TaintMode, S: ObsSink>(
    soc: &mut Soc<M, S>,
    budget: u64,
    plan: &[PlannedFault],
) -> (SocExit, Vec<FaultRecord>) {
    let mut records = Vec::new();
    let mut consumed = 0u64;
    for fault in plan {
        let at = fault.at_step.min(budget);
        if at > consumed {
            match soc.run(at - consumed) {
                SocExit::InstrLimit => consumed = at,
                exit => return (exit, records),
            }
        }
        records.push(apply_fault(soc, fault.at_step, fault.kind));
    }
    let exit = if budget > consumed { soc.run(budget - consumed) } else { SocExit::InstrLimit };
    (exit, records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdift_asm::{Asm, Reg};
    use vpdift_rv32::Tainted;
    /// A guest that copies a byte from 0x2000 to 0x2004 in a counted loop,
    /// then breaks — enough surface to observe a mid-run RAM flip.
    fn copy_loop_soc() -> Soc<Tainted> {
        let mut a = Asm::new(0);
        a.entry();
        a.li(Reg::T0, 0x2000);
        a.li(Reg::S0, 400); // loop iterations
        a.label("loop");
        a.lbu(Reg::T1, 0, Reg::T0);
        a.sb(Reg::T1, 4, Reg::T0);
        a.addi(Reg::S0, Reg::S0, -1);
        a.bnez(Reg::S0, "loop");
        a.ebreak();
        let prog = a.assemble().expect("copy loop assembles");
        let cfg = vpdift_soc::SocBuilder::from_exec_config(&vpdift_soc::ExecConfig::default())
            .expect("default exec config resolves")
            .sensor_thread(false)
            .build();
        let mut soc = Soc::<Tainted>::new(cfg);
        soc.load_program(&prog);
        soc.ram_mut().load_image(0x2000, &[0x00]);
        soc
    }

    #[test]
    fn fault_lands_at_the_scheduled_step() {
        // Reference: the copy loop propagates 0x00 forever.
        let mut soc = copy_loop_soc();
        let plan = [PlannedFault {
            at_step: 500, // mid-loop
            kind: FaultKind::RamDataFlip { offset: 0x2000, bit: 7 },
        }];
        let (exit, records) = run_with_faults(&mut soc, 100_000, &plan);
        assert_eq!(exit, SocExit::Break);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].kind, "ram_data_flip");
        assert_eq!(records[0].addr, Some(0x2000));
        // The flip happened mid-run: later iterations copied 0x80.
        let ram = soc.ram();
        assert_eq!(ram.bytes(0x2004, 1), &[0x80], "post-flip value propagated");
    }

    #[test]
    fn faults_after_exit_are_not_applied() {
        let mut soc = copy_loop_soc();
        let plan = [PlannedFault {
            at_step: 10_000_000, // far beyond the program's lifetime
            kind: FaultKind::IrqStorm,
        }];
        let (exit, records) = run_with_faults(&mut soc, 100_000, &plan);
        assert_eq!(exit, SocExit::Break);
        assert!(records.is_empty(), "the run ended before the schedule");
    }

    #[test]
    fn budget_caps_the_run() {
        let mut soc = copy_loop_soc();
        let (exit, records) = run_with_faults(&mut soc, 100, &[]);
        assert_eq!(exit, SocExit::InstrLimit);
        assert!(records.is_empty());
    }

    #[test]
    fn plan_application_is_reproducible() {
        let plan = crate::generate_plan(0xF00D, 8, 2_000, 0x3000);
        let run = |plan: &[PlannedFault]| {
            let mut soc = copy_loop_soc();
            let (exit, records) = run_with_faults(&mut soc, 100_000, plan);
            let uart = soc.uart().borrow().output().to_vec();
            (exit, records, uart, soc.instret())
        };
        assert_eq!(run(&plan), run(&plan), "same plan, same trajectory");
    }
}

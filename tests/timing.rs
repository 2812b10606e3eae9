//! Simulated time, pinned from the spec rather than from the code under
//! test. Fig. 4's sensor refills its frame once per 25 ms, the first at
//! 25 ms; each step costs 10 ns; the CLINT's `mtime` counts microseconds
//! of simulated time; a watchdog bites at its deadline; and a core parked
//! in `wfi` that nothing can wake ends the run `Idle` instead of spinning
//! through refills it cannot take. Every case runs on both engines and
//! both VPs.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use taintvp::asm::csr;
use taintvp::firmware::sensor_app;
use taintvp::kernel::SimTime;
use taintvp::prelude::{
    map, Asm, ExecMode, Plain, Program, Reg, Soc, SocBuilder, SocExit, StopFlag, TaintMode, Tainted,
};
use taintvp::rv32::Word;

use Reg::*;

/// Fig. 4, line 16: one refill per 25 ms.
const REFILL: SimTime = SimTime::from_ms(25);

const ENGINES: [ExecMode; 2] = [ExecMode::Interp, ExecMode::BlockCache];

fn asm(build: impl FnOnce(&mut Asm)) -> Program {
    let mut a = Asm::new(0);
    build(&mut a);
    a.assemble().expect("program assembles")
}

/// What the timing cases compare: exit, clock, retired instructions and
/// sensor refills.
#[derive(Debug, PartialEq)]
struct Outcome {
    exit: SocExit,
    now: SimTime,
    instret: u64,
    frames: u64,
}

/// Builds a SoC from `b`, loads `prog` and runs it for `budget` steps.
fn run<M: TaintMode>(b: SocBuilder, prog: &Program, budget: u64) -> Outcome {
    let mut soc = Soc::<M>::new(b.build());
    soc.load_program(prog);
    let exit = soc.run(budget);
    outcome(&soc, exit)
}

fn outcome<M: TaintMode>(soc: &Soc<M>, exit: SocExit) -> Outcome {
    Outcome {
        exit,
        now: soc.now(),
        instret: soc.instret(),
        frames: soc.sensor().frames_generated(),
    }
}

#[test]
fn sensor_refills_follow_fig4_cadence_under_uneven_budgets() {
    fn cadence<M: TaintMode>(engine: ExecMode) -> Vec<Outcome> {
        let fw = sensor_app::build(100);
        let mut soc = Soc::<M>::new(SocBuilder::new().engine(engine).build());
        soc.load_program(&fw.program);
        let mut seen = Vec::new();
        for budget in [1, 999, 12_345, 250_000, 3_000_000, 7, 1, 40_000] {
            let exit = soc.run(budget);
            let o = outcome(&soc, exit);
            assert_eq!(
                o.frames,
                o.now.as_ps() / REFILL.as_ps(),
                "{engine:?}: refills after a {budget}-step run at {}",
                o.now
            );
            seen.push(o);
        }
        // The third run crosses one simulated second: 40 refills.
        assert_eq!(seen[2].frames, 40, "{engine:?}");
        seen
    }
    for engine in ENGINES {
        assert_eq!(cadence::<Plain>(engine), cadence::<Tainted>(engine), "{engine:?}");
    }
}

#[test]
fn watchdog_bites_at_its_deadline_between_refills() {
    // Arm the dog for 60 ms and park with the sensor's PLIC source
    // disabled (its reset state): refills at 25 and 50 ms cannot wake the
    // core, the dog bites at exactly 60 ms.
    let prog = asm(|a| {
        a.li(T0, map::WATCHDOG_BASE as i32);
        a.li(T1, 60_000); // µs
        a.sw(T1, 0, T0); // TIMEOUT
        a.li(T1, 1);
        a.sw(T1, 4, T0); // CTRL: arm
        a.wfi();
        a.ebreak();
    });
    let want = Outcome {
        exit: SocExit::WatchdogTimeout,
        now: SimTime::from_ms(60),
        instret: 9,
        frames: 2,
    };
    for engine in ENGINES {
        let b = || SocBuilder::new().engine(engine);
        assert_eq!(run::<Plain>(b(), &prog, 1_000_000), want, "{engine:?} VP");
        assert_eq!(run::<Tainted>(b(), &prog, 1_000_000), want, "{engine:?} VP+");
    }
}

/// Parks with `mtimecmp = 0xFFFF_FFFF_0000_0000` µs and `MTIE` on: the
/// comparator lies past the end of simulated time, so the timer can
/// never fire. 12 instructions.
fn saturated_comparator() -> Program {
    asm(|a| {
        a.li(T0, (map::CLINT_BASE + 0x4000) as i32);
        a.sw(Zero, 0, T0); // MTIMECMP_LO
        a.addi(T1, Zero, -1);
        a.sw(T1, 4, T0); // MTIMECMP_HI
        a.li(T1, csr::MIE_MTIE as i32);
        a.csrw(csr::MIE, T1);
        a.li(T1, csr::MSTATUS_MIE as i32);
        a.csrw(csr::MSTATUS, T1);
        a.wfi();
        a.ebreak();
    })
}

#[test]
fn saturated_comparator_parks_idle() {
    let prog = saturated_comparator();
    let want = Outcome { exit: SocExit::Idle, now: SimTime::from_ns(120), instret: 12, frames: 0 };
    for engine in ENGINES {
        let b = || SocBuilder::new().engine(engine).sensor_thread(false);
        assert_eq!(run::<Plain>(b(), &prog, 1_000_000), want, "{engine:?} VP");
        assert_eq!(run::<Tainted>(b(), &prog, 1_000_000), want, "{engine:?} VP+");
    }
}

#[test]
fn parked_core_that_refills_cannot_wake_is_idle() {
    // The sensor thread runs, but `mie.MEIE` is clear: no refill can
    // raise an enabled interrupt and no reachable deadline is pending, so
    // the run ends `Idle` where it is instead of jumping 25 ms per loop
    // forever with the step budget untouched. A guard thread raises the
    // stop flag after a few seconds, so a spinning run ends `Stopped`
    // and fails the assertion instead of hanging the suite.
    let spin = asm(|a| {
        a.label("spin");
        a.wfi();
        a.j("spin");
    });
    fn park<M: TaintMode>(engine: ExecMode, prog: &Program) -> Outcome {
        let flag = StopFlag::new();
        let b = SocBuilder::new().engine(engine).stop_flag(flag.clone());
        let (done, wait) = mpsc::channel::<()>();
        let guard = thread::spawn(move || {
            if wait.recv_timeout(Duration::from_secs(3)).is_err() {
                flag.request();
            }
        });
        let o = run::<M>(b, prog, 1000);
        // Dropping the sender wakes the guard without raising the flag.
        drop(done);
        guard.join().expect("stop guard");
        o
    }
    let cases = [
        (spin, Outcome { exit: SocExit::Idle, now: SimTime::from_ns(10), instret: 1, frames: 0 }),
        (
            saturated_comparator(),
            Outcome { exit: SocExit::Idle, now: SimTime::from_ns(120), instret: 12, frames: 0 },
        ),
    ];
    for (prog, want) in &cases {
        for engine in ENGINES {
            assert_eq!(&park::<Plain>(engine, prog), want, "{engine:?} VP");
            assert_eq!(&park::<Tainted>(engine, prog), want, "{engine:?} VP+");
        }
    }
}

#[test]
fn mtime_is_current_after_an_idle_exit() {
    // Enable only mie.MEIE and PLIC source 7, spin to 1 000 steps, park.
    // Nothing can wake the core: `Idle` at 10 µs. The host then raises
    // source 7; the woken guest reads MTIME_LO, which must say 10 µs.
    let prog = asm(|a| {
        a.li(T0, map::PLIC_BASE as i32);
        a.li(T1, 1 << 7);
        a.sw(T1, 4, T0); // ENABLE source 7
        a.li(T1, csr::MIE_MEIE as i32);
        a.csrw(csr::MIE, T1);
        a.addi(T2, Zero, 495);
        a.label("spin");
        a.addi(T2, T2, -1);
        a.bnez(T2, "spin");
        a.wfi();
        a.li(T0, (map::CLINT_BASE + 0xBFF8) as i32);
        a.lw(A0, 0, T0); // MTIME_LO
        a.ebreak();
    });
    fn wake<M: TaintMode>(engine: ExecMode, prog: &Program) -> u32 {
        let mut soc = Soc::<M>::new(SocBuilder::new().engine(engine).sensor_thread(false).build());
        soc.load_program(prog);
        let exit = soc.run(100_000);
        let want =
            Outcome { exit: SocExit::Idle, now: SimTime::from_us(10), instret: 1000, frames: 0 };
        assert_eq!(outcome(&soc, exit), want, "{engine:?}");
        soc.plic_mut().raise(7);
        assert_eq!(soc.run(100_000), SocExit::Break, "{engine:?}");
        soc.cpu().reg(A0).val()
    }
    for engine in ENGINES {
        assert_eq!(wake::<Plain>(engine, &prog), 10, "{engine:?} VP: MTIME_LO after the idle exit");
        assert_eq!(
            wake::<Tainted>(engine, &prog),
            10,
            "{engine:?} VP+: MTIME_LO after the idle exit"
        );
    }
}

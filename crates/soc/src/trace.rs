//! Execution tracing — observability for policy development.
//!
//! The paper positions the VP as the place where security policies are
//! *developed*; that workflow needs to see what the binary did. The trace
//! API single-steps the platform and reports each step with its
//! disassembly and (in tainted mode) the tags entering the instruction, at
//! the cost of simulation speed.

use vpdift_asm::is_compressed;
use vpdift_core::Tag;
use vpdift_obs::{ObsSink, RawInsn};
use vpdift_rv32::TaintMode;

use crate::map::RAM_BASE;
use crate::soc::{Soc, SocExit};

/// One traced CPU step. Disassembly is lazy: the record captures the raw
/// instruction bytes and only renders text when [`TraceRecord::text`] (or
/// `Display`) is asked for, so sinks that filter or count records do not
/// pay for string formatting.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// PC before the step.
    pub pc: u32,
    /// The raw instruction bytes at `pc`.
    raw: RawInsn,
    /// LUB of the fetched instruction bytes' tags (always empty in plain
    /// mode).
    pub fetch_tag: Tag,
    /// Retired-instruction count *after* the step.
    pub instret: u64,
    /// Simulated time after the step.
    pub time: vpdift_kernel::SimTime,
}

impl TraceRecord {
    /// Disassembles the instruction (or `.word`/`.half` for undecodable
    /// bytes).
    pub fn text(&self) -> String {
        self.raw.disassemble()
    }

    /// The raw instruction bytes.
    pub fn raw(&self) -> RawInsn {
        self.raw
    }
}

impl core::fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{:>8}] {:#010x}: {}", self.instret, self.pc, self.text())?;
        if !self.fetch_tag.is_empty() {
            write!(f, "   ; fetch tag {}", self.fetch_tag)?;
        }
        Ok(())
    }
}

impl<M: TaintMode, S: ObsSink> Soc<M, S> {
    /// Reads the raw instruction bytes currently at `pc` (RAM only) with
    /// the LUB of their tags.
    pub fn raw_insn_at(&self, pc: u32) -> (RawInsn, Tag) {
        let ram = self.ram();
        let off = pc.wrapping_sub(RAM_BASE);
        if !ram.fits(off, 2) {
            return (RawInsn::Unavailable(pc), Tag::EMPTY);
        }
        let (lo, tag_lo) = ram.load(off, 2);
        if is_compressed(lo as u16) || !ram.fits(off, 4) {
            return (RawInsn::Half(lo as u16), tag_lo);
        }
        let (word, tag) = ram.load(off, 4);
        (RawInsn::Word(word), tag)
    }

    /// Runs up to `max_steps` CPU steps, invoking `sink` before each one.
    /// Stops on the same conditions as [`Soc::run`].
    pub fn run_traced(&mut self, max_steps: u64, mut sink: impl FnMut(&TraceRecord)) -> SocExit {
        for _ in 0..max_steps {
            let pc = self.cpu().pc();
            let (raw, fetch_tag) = self.raw_insn_at(pc);
            let exit = self.run(1);
            let record =
                TraceRecord { pc, raw, fetch_tag, instret: self.instret(), time: self.now() };
            sink(&record);
            if !matches!(exit, SocExit::InstrLimit) {
                return exit;
            }
        }
        SocExit::InstrLimit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdift_asm::{Asm, Reg};
    use vpdift_core::{AddrRange, SecurityPolicy};
    use vpdift_rv32::Tainted;

    #[test]
    fn trace_reports_disassembly_and_tags() {
        let secret = Tag::atom(0);
        let policy = SecurityPolicy::builder("trace")
            .classify_region("s", AddrRange::new(0x100, 8), secret)
            .build();
        let mut a = Asm::new(0);
        a.li(Reg::T0, 0x100);
        a.lw(Reg::T1, 0, Reg::T0);
        a.ebreak();
        let prog = a.assemble().unwrap();

        let cfg = Soc::<Tainted>::builder().policy(policy).sensor_thread(false).build();
        let mut soc = Soc::<Tainted>::new(cfg);
        soc.load_program(&prog);

        let mut lines = Vec::new();
        let exit = soc.run_traced(100, |r| lines.push(r.to_string()));
        assert_eq!(exit, SocExit::Break);
        assert_eq!(lines.len(), 4, "li expands to two instructions + lw + ebreak");
        assert!(lines[0].contains("lui t0"));
        assert!(lines[2].contains("lw t1, 0(t0)"));
        assert!(lines[3].contains("ebreak"));
        // Code itself is untainted; no fetch tags reported.
        assert!(lines.iter().all(|l| !l.contains("fetch tag")));
    }

    #[test]
    fn tainted_code_shows_fetch_tag() {
        let mut a = Asm::new(0);
        a.nop();
        a.ebreak();
        let prog = a.assemble().unwrap();
        let cfg = Soc::<Tainted>::builder().sensor_thread(false).build();
        let mut soc = Soc::<Tainted>::new(cfg);
        soc.load_program(&prog);
        soc.ram_mut().classify(0, 4, Tag::atom(2));
        let (raw, tag) = soc.raw_insn_at(0);
        assert!(raw.disassemble().contains("addi"));
        assert_eq!(tag, Tag::atom(2));
        let mut first = None;
        soc.run_traced(10, |r| {
            if first.is_none() {
                first = Some(r.clone());
            }
        });
        assert_eq!(first.unwrap().fetch_tag, Tag::atom(2));
    }

    #[test]
    fn disassemble_handles_compressed_and_data() {
        let cfg = Soc::<Tainted>::builder().sensor_thread(false).build();
        let mut soc = Soc::<Tainted>::new(cfg);
        // c.li a0, 5 at 0; garbage word at 4.
        soc.ram_mut().load_image(0, &0x4515u16.to_le_bytes());
        soc.ram_mut().load_image(4, &0xFFFF_FFFFu32.to_le_bytes());
        let text = |pc| soc.raw_insn_at(pc).0.disassemble();
        assert!(text(0).starts_with("(c) addi a0"));
        assert!(text(4).starts_with(".half 0xffff") || text(4).starts_with(".word"));
        assert!(text(0xFFFF_FFF0).contains("outside RAM"));
    }
}

//! Execution engines: the predecoded basic-block cache and its
//! taint-idle fast path.
//!
//! The interpreter ([`Cpu::step`]) re-fetches and re-decodes every
//! instruction from memory on every step — simple, and the reference
//! semantics. This module adds a second engine, [`BlockCache`], that
//! decodes straight-line code once into blocks over one flat instruction
//! store and afterwards dispatches from the cache. Two mechanisms keep
//! it observably identical to the interpreter:
//!
//! * **Self-modifying-code invalidation.** Every retired CPU store
//!   reports its `(addr, size)` back to the engine, which checks it
//!   against a per-64-byte-line refcount of cached code and kills any
//!   overlapping blocks (the Wilander–Kamkar attack suite *injects* code,
//!   so this is mandatory, not an optimisation). Mutations that bypass
//!   the CPU — DMA bursts, host classification, fault-injected bit flips
//!   — are caught by the bus's [`mutation_epoch`](crate::Bus::mutation_epoch)
//!   counter, which triggers a full flush on change.
//! * **Taint-idle gating.** In the tainted VP, while the bus reports no
//!   live tag ([`Bus::tags_live`]), every architectural tag is provably
//!   [`Tag::EMPTY`], so every clearance check would trivially pass — the
//!   engine disables the CPU's check sites wholesale and blocks execute
//!   with plain-VP cost. The first tag source switches on the checked
//!   path for the rest of the run.
//!
//! Both engines share one slice-dispatch entry point, `exec(cpu, bus,
//! budget)` ([`Cpu::exec`], [`BlockCache::exec`]): it runs up to `budget`
//! steps and returns early wherever the caller must look at the platform
//! again — on any step that is not [`Step::Executed`], right after an
//! access that left [`Bus::irq_dirty`] set, and, on an observed bus,
//! before a pc that [`Bus::end_slice_before`] names. A caller interleaving
//! interrupt-line sampling, watchdogs or time accounting between slices
//! (as `vpdift-soc` does) therefore sees exactly the interpreter's timing;
//! the saving is the skipped fetch/decode work and the per-block, not
//! per-instruction, dispatch bookkeeping.

use std::collections::HashMap;
use std::str::FromStr;

use vpdift_asm::Insn;
use vpdift_core::{Tag, Violation};

use crate::bus::Bus;
use crate::cpu::{run_slices, Cpu, RunExit, Step};
use crate::mode::{TaintMode, Word};

/// Which execution engine drives the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Fetch-decode-execute every instruction from memory — the reference
    /// engine (`engine_diff`, conformance).
    Interp,
    /// Predecoded basic-block cache with taint-idle fast path
    /// ([`BlockCache`]) — the default.
    #[default]
    BlockCache,
}

impl ExecMode {
    /// Stable lower-case label (CLI / bench naming).
    pub fn label(&self) -> &'static str {
        match self {
            ExecMode::Interp => "interp",
            ExecMode::BlockCache => "block",
        }
    }
}

impl core::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for ExecMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interp" | "interpreter" => Ok(ExecMode::Interp),
            "block" | "block-cache" | "blockcache" | "cached" => Ok(ExecMode::BlockCache),
            other => Err(format!("unknown engine '{other}' (expected 'interp' or 'block')")),
        }
    }
}

/// Block-cache counters, reported through the observability layer and the
/// CLI.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Steps dispatched from a cached block (cursor or index hit).
    pub hits: u64,
    /// Block-cache lookups that had to (re)build or fall back.
    pub misses: u64,
    /// Blocks killed by store-range invalidation.
    pub invalidations: u64,
    /// Whole-cache flushes (external mutation epoch changed, or capacity).
    pub flushes: u64,
    /// Steps executed with clearance checks skipped (no tag live yet).
    pub idle_steps: u64,
    /// Steps executed with the full checked semantics.
    pub checked_steps: u64,
}

/// Code-line granularity for store invalidation: 64-byte lines.
const LINE_SHIFT: u32 = 6;
/// Longest block, in instructions.
const BLOCK_CAP: usize = 32;
/// Capacity backstops for the block arena and the shared instruction
/// store; exceeding either flushes the cache (killed blocks keep their
/// slots and code until then). Never reached by ordinary guests —
/// RAM-resident code is far smaller — only by heavy self-modifying code.
const MAX_BLOCKS: usize = 4096;
const MAX_CODE: usize = 1 << 16;
/// Initial capacities, sized for typical guest code so a warming cache
/// does not scatter small heap allocations among the SoC's large ones.
const INIT_BLOCKS: usize = 128;
const INIT_CODE: usize = 2048;
/// Slots of the direct-mapped jump cache in front of the hashed block
/// index; pc `p` maps to slot `(p >> 1) % JUMP_SLOTS`.
const JUMP_SLOTS: usize = 512;

/// One predecoded instruction, carrying everything [`Cpu::exec_insn`] and
/// the retirement event need.
#[derive(Debug, Clone, Copy)]
struct CachedInsn {
    insn: Insn,
    /// Address of the following sequential instruction (`pc + len`).
    next_pc: u32,
    len: u32,
    /// The fetched parcel as the interpreter would report it (16-bit
    /// parcels zero-extended).
    raw: u32,
    compressed: bool,
    /// LUB of the executed parcel's byte tags at decode time; stores into
    /// the block and external mutations invalidate it, so it is always
    /// current when dispatched.
    fetch_tag: Tag,
    /// Whether interrupt state must be re-polled after this instruction.
    /// Inside a straight-line slice, `mstatus`/`mie`/`mip` are reachable
    /// only through CSR writes and bus side effects (`mret` and `wfi` end
    /// the block; traps diverge), so only loads, stores and CSR ops set it.
    poll: bool,
}

#[derive(Debug)]
struct Block {
    start: u32,
    /// First byte past the block's code.
    end: u32,
    /// The block's instructions: `code[first..first + len]`.
    first: usize,
    len: usize,
    alive: bool,
}

impl Block {
    /// The code lines the block spans.
    fn lines(&self) -> std::ops::RangeInclusive<u32> {
        self.start >> LINE_SHIFT..=(self.end - 1) >> LINE_SHIFT
    }
}

/// Continue-point inside a block: the next dispatch is `insns[idx]`
/// provided the CPU's pc still equals `expected_pc` (any divergence —
/// taken branch, trap, interrupt — falls back to an index lookup).
#[derive(Debug, Clone, Copy)]
struct Cursor {
    block: usize,
    idx: usize,
    expected_pc: u32,
}

/// The predecoded basic-block execution engine. See the module docs for
/// the invalidation and taint-idle machinery.
///
/// ```
/// use vpdift_asm::{Asm, Reg};
/// use vpdift_rv32::{BlockCache, Cpu, FlatMemory, Plain, RunExit};
///
/// let mut a = Asm::new(0);
/// a.li(Reg::A0, 21);
/// a.add(Reg::A0, Reg::A0, Reg::A0);
/// a.ebreak();
/// let prog = a.assemble().unwrap();
///
/// let mut mem = FlatMemory::<Plain>::new(0, 4096);
/// mem.load_image(0, prog.image());
/// let mut cpu = Cpu::<Plain>::new();
/// let mut engine = BlockCache::new();
/// assert_eq!(engine.run(&mut cpu, &mut mem, 100), RunExit::Break);
/// assert_eq!(cpu.reg(Reg::A0), 42);
/// ```
#[derive(Debug)]
pub struct BlockCache {
    arena: Vec<Block>,
    /// Every block's decoded instructions, appended in build order.
    code: Vec<CachedInsn>,
    index: HashMap<u32, usize>,
    /// Per slot, the arena index of the block last found for a pc of that
    /// slot. A hint counts only while its block is alive and starts at the
    /// pc, so kills and flushes need not clear it.
    jump: [u32; JUMP_SLOTS],
    /// Per-64-byte-line count of live blocks containing code from that
    /// line; a store only pays the invalidation walk when its line count
    /// is non-zero.
    line_refs: Vec<u16>,
    line_blocks: HashMap<u32, Vec<usize>>,
    cursor: Option<Cursor>,
    epoch: u64,
    stats: CacheStats,
}

impl Default for BlockCache {
    fn default() -> Self {
        BlockCache::new()
    }
}

impl BlockCache {
    /// An empty cache.
    pub fn new() -> Self {
        BlockCache {
            arena: Vec::with_capacity(INIT_BLOCKS),
            code: Vec::with_capacity(INIT_CODE),
            index: HashMap::with_capacity(INIT_BLOCKS),
            jump: [0; JUMP_SLOTS],
            line_refs: Vec::new(),
            line_blocks: HashMap::with_capacity(INIT_BLOCKS),
            cursor: None,
            epoch: 0,
            stats: CacheStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Runs until `ebreak`, an enforced violation, `wfi` with nothing
    /// pending, or `max_insns` retirements — [`Cpu::run`] on this engine.
    pub fn run<M: TaintMode>(
        &mut self,
        cpu: &mut Cpu<M>,
        bus: &mut impl Bus<M>,
        max_insns: u64,
    ) -> RunExit {
        run_slices(cpu, max_insns, |cpu, budget| self.exec(cpu, bus, budget))
    }

    /// The block cache's slice-dispatch entry point, shared in shape with
    /// [`Cpu::exec`]: executes up to `budget` steps (retired instructions,
    /// taken traps, interrupt entries) from one cached block and returns
    /// the steps taken plus the last step's outcome.
    ///
    /// The mutation-epoch read, cache probe and statistics updates are
    /// paid per slice, not per instruction. The slice ends at block end,
    /// at control-flow divergence, when the budget is used up, on any step
    /// that is not [`Step::Executed`], on a mutation-epoch change, right
    /// after a load, store, CSR op or atomic that left [`Bus::irq_dirty`]
    /// set, and, on an observed bus, before a pc that
    /// [`Bus::end_slice_before`] names. Observable behaviour equals
    /// repeated [`Cpu::step`] calls: interrupts are re-polled after every
    /// instruction that can change interrupt state (the same poll-flagged
    /// instructions — nothing else inside a straight-line slice can reach
    /// `mstatus`/`mie`/`mip`).
    pub fn exec<M: TaintMode, B: Bus<M>>(
        &mut self,
        cpu: &mut Cpu<M>,
        bus: &mut B,
        budget: u64,
    ) -> (u64, Result<Step, Violation>) {
        if budget == 0 {
            return (0, Ok(Step::Executed));
        }
        match cpu.pre_step(bus) {
            Ok(None) => {}
            Ok(Some(step)) => return (step.count(), Ok(step)),
            Err(v) => return (0, Err(v)),
        }
        let epoch = bus.mutation_epoch();
        if epoch != self.epoch {
            // Memory changed behind the CPU's back (DMA, classification,
            // fault injection): all cached decodes and fetch tags are
            // suspect.
            self.epoch = epoch;
            self.flush();
        }
        // `tags_live` is a one-way latch: once live it stays live, so the
        // re-sample below only runs while the fast path is still on.
        let mut live = true;
        if M::TRACKING {
            live = bus.tags_live();
            cpu.set_checks_enabled(live);
        }

        let mut pc = cpu.pc();
        let (bi, mut ii) = match self.cursor.take() {
            Some(c) if c.expected_pc == pc => (c.block, c.idx),
            _ => match self.lookup(pc) {
                Some(bi) => (bi, 0),
                None => {
                    self.stats.misses += 1;
                    match self.build(bus, pc) {
                        Some(bi) => (bi, 0),
                        None => {
                            // Unfetchable/undecodable/misaligned pc: one
                            // reference-interpreter step raises the
                            // identical trap.
                            if M::TRACKING {
                                self.count_gating(1, live);
                            }
                            return match cpu.fetch_decode_exec(bus) {
                                Ok(r) => {
                                    if let Some((addr, size)) = r.store {
                                        self.on_store(addr, size);
                                    }
                                    (r.step.count(), Ok(r.step))
                                }
                                Err(v) => (0, Err(v)),
                            };
                        }
                    }
                }
            },
        };

        // The instruction store is moved out for the duration of the slice
        // so the hot loop reads a local, provably unaliased slice; it is put
        // back below, emptied if the whole cache was flushed mid-slice
        // (blocks are never built inside the loop). Every exit leaves the
        // cursor cleared except the resumable one (budget used up or
        // interrupt levels dirty mid-block), so invalidation never has a
        // cursor to fix up.
        let mut code = std::mem::take(&mut self.code);
        let insns = &code[self.arena[bi].first..][..self.arena[bi].len];
        let mut steps: u64 = 0;
        let mut executed: u64 = 0;
        let (mut checked, mut idle) = (0u64, 0u64);
        // `pre_step` already ran above; it is re-run mid-slice only after
        // instructions whose `poll` flag is set (see [`CachedInsn::poll`]).
        let mut need_poll = false;
        let res = loop {
            if need_poll {
                match cpu.pre_step(bus) {
                    Ok(None) => {}
                    Ok(Some(step)) => {
                        steps += step.count();
                        break Ok(step);
                    }
                    Err(v) => break Err(v),
                }
            }
            if M::TRACKING && !live {
                live = bus.tags_live();
                if live {
                    cpu.set_checks_enabled(true);
                }
            }
            let d = &insns[ii];
            if M::TRACKING {
                if live {
                    checked += 1;
                } else {
                    idle += 1;
                }
                if let Err(v) = cpu.fetch_clearance_check(bus, d.fetch_tag, pc) {
                    break Err(v);
                }
            }
            executed += 1;
            let r = match cpu.exec_insn(bus, d.insn, pc, d.len, d.raw, d.compressed, d.fetch_tag) {
                Ok(r) => r,
                Err(v) => break Err(v),
            };
            steps += 1;
            if let Some((addr, size)) = r.store {
                self.on_store(addr, size);
                let e = bus.mutation_epoch();
                if e != self.epoch {
                    self.epoch = e;
                    self.flush();
                    break Ok(r.step);
                }
                if !self.arena[bi].alive {
                    break Ok(r.step);
                }
            }
            ii += 1;
            // Non-`Executed` step, block end, or taken branch/trap: the
            // next probe starts fresh.
            if r.step != Step::Executed || ii >= insns.len() || cpu.pc() != d.next_pc {
                break Ok(r.step);
            }
            pc = d.next_pc;
            if steps == budget
                || (d.poll && bus.irq_dirty())
                || (B::OBSERVED && bus.end_slice_before(pc))
            {
                self.cursor = Some(Cursor { block: bi, idx: ii, expected_pc: pc });
                break Ok(Step::Executed);
            }
            need_poll = d.poll;
        };
        if self.arena.is_empty() {
            code.clear();
        }
        self.code = code;
        self.stats.hits += executed;
        if M::TRACKING {
            self.stats.checked_steps += checked;
            self.stats.idle_steps += idle;
        }
        (steps, res)
    }

    /// The live block starting at `pc`: the jump-cache hint if it holds,
    /// else the hashed index, which then refreshes the hint.
    #[inline]
    fn lookup(&mut self, pc: u32) -> Option<usize> {
        let slot = jump_slot(pc);
        let hint = self.jump[slot] as usize;
        // `start == pc` is load-bearing: pcs `2 * JUMP_SLOTS` bytes apart
        // share a slot, and a flush hands arena indices to new blocks.
        if self.arena.get(hint).is_some_and(|b| b.alive && b.start == pc) {
            return Some(hint);
        }
        let bi = self.index.get(&pc).copied().filter(|&bi| self.arena[bi].alive)?;
        self.jump[slot] = bi as u32;
        Some(bi)
    }

    #[inline]
    fn count_gating(&mut self, n: u64, live: bool) {
        if live {
            self.stats.checked_steps += n;
        } else {
            self.stats.idle_steps += n;
        }
    }

    /// Decodes the straight-line block starting at `pc` and registers it.
    /// `None` when not even the first instruction could be decoded — the
    /// caller falls back to the interpreter for faithful trap behaviour.
    fn build<M: TaintMode>(&mut self, bus: &mut impl Bus<M>, pc: u32) -> Option<usize> {
        if !pc.is_multiple_of(2) {
            return None;
        }
        if self.arena.len() >= MAX_BLOCKS || self.code.len() + BLOCK_CAP > MAX_CODE {
            self.flush();
        }
        let first = self.code.len();
        let mut cur = pc;
        while let Ok(word) = bus.fetch(cur) {
            let compressed = vpdift_asm::is_compressed(word.val() as u16);
            let (raw, fetch_tag, len) = if compressed {
                // Mirror the interpreter: narrow to the executed 16-bit
                // parcel so the cached fetch tag is byte-precise.
                if M::TRACKING {
                    match bus.load(cur, 2) {
                        Ok(p) => (p.val() & 0xFFFF, p.tag(), 2u32),
                        Err(_) => break,
                    }
                } else {
                    (word.val() & 0xFFFF, Tag::EMPTY, 2u32)
                }
            } else {
                (word.val(), word.tag(), 4u32)
            };
            let decoded =
                if compressed { vpdift_asm::decompress(raw as u16) } else { Insn::decode(raw) };
            let Ok(insn) = decoded else { break };
            let next_pc = cur.wrapping_add(len);
            let poll = matches!(
                insn,
                Insn::Load { .. }
                    | Insn::Store { .. }
                    | Insn::Csr { .. }
                    | Insn::Lr { .. }
                    | Insn::Sc { .. }
                    | Insn::Amo { .. }
            );
            self.code.push(CachedInsn { insn, next_pc, len, raw, compressed, fetch_tag, poll });
            // Unconditional control transfers end the block; conditional
            // branches may fall through, so the block continues past them.
            let terminal = matches!(
                insn,
                Insn::Jal { .. }
                    | Insn::Jalr { .. }
                    | Insn::Mret
                    | Insn::Ecall
                    | Insn::Ebreak
                    | Insn::Wfi
                    | Insn::FenceI
            );
            cur = next_pc;
            if terminal || self.code.len() - first >= BLOCK_CAP {
                break;
            }
        }
        let len = self.code.len() - first;
        // `cur` is the last decoded instruction's `next_pc`.
        (len > 0).then(|| self.insert(Block { start: pc, end: cur, first, len, alive: true }))
    }

    fn insert(&mut self, block: Block) -> usize {
        let bi = self.arena.len();
        for line in block.lines() {
            let li = line as usize;
            if self.line_refs.len() <= li {
                self.line_refs.resize(li + 1, 0);
            }
            self.line_refs[li] += 1;
            self.line_blocks.entry(line).or_default().push(bi);
        }
        self.index.insert(block.start, bi);
        self.jump[jump_slot(block.start)] = bi as u32;
        self.arena.push(block);
        bi
    }

    /// Store-range invalidation: kill every live block whose code bytes
    /// overlap the written range. The common case (store into data) costs
    /// one or two refcount probes; a store into data that merely shares a
    /// code line leaves the line's blocks cached.
    #[inline]
    fn on_store(&mut self, addr: u32, size: u32) {
        let first = addr >> LINE_SHIFT;
        let last = addr.wrapping_add(size.saturating_sub(1)) >> LINE_SHIFT;
        for line in first..=last {
            if (line as usize) < self.line_refs.len() && self.line_refs[line as usize] > 0 {
                self.invalidate(line, addr as u64, addr as u64 + size as u64);
            }
        }
    }

    /// Kills the live blocks of `line` that overlap bytes `lo..hi`.
    fn invalidate(&mut self, line: u32, lo: u64, hi: u64) {
        let Some(blocks) = self.line_blocks.get_mut(&line) else { return };
        let arena = &self.arena;
        let hit = |bi: usize| {
            arena[bi].alive && lo < u64::from(arena[bi].end) && u64::from(arena[bi].start) < hi
        };
        if !blocks.iter().any(|&bi| hit(bi)) {
            return;
        }
        let killed: Vec<usize> = blocks.iter().copied().filter(|&bi| hit(bi)).collect();
        blocks.retain(|&bi| arena[bi].alive && !hit(bi));
        for bi in killed {
            self.kill(bi);
        }
    }

    /// Unregisters a block; its slot and code stay allocated until the next
    /// flush.
    fn kill(&mut self, bi: usize) {
        let b = &mut self.arena[bi];
        if !b.alive {
            return;
        }
        b.alive = false;
        let (start, lines) = (b.start, b.lines());
        self.index.remove(&start);
        for line in lines {
            self.line_refs[line as usize] -= 1;
        }
        self.stats.invalidations += 1;
    }

    /// Drops every cached block (external mutation or capacity).
    fn flush(&mut self) {
        self.cursor = None;
        if self.arena.is_empty() {
            return;
        }
        self.arena.clear();
        self.code.clear();
        self.index.clear();
        self.line_refs.clear();
        self.line_blocks.clear();
        self.stats.flushes += 1;
    }
}

/// The jump-cache slot of `pc` (instructions are at least 2-byte aligned).
#[inline]
fn jump_slot(pc: u32) -> usize {
    (pc >> 1) as usize % JUMP_SLOTS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{FlatMemory, MemError};
    use crate::mode::{Plain, Tainted};
    use vpdift_asm::{Asm, Reg};
    use vpdift_core::{ExecClearance, Taint};

    fn looped_sum() -> vpdift_asm::Program {
        let mut a = Asm::new(0);
        a.li(Reg::A0, 0);
        a.li(Reg::T0, 50);
        a.label("loop");
        a.add(Reg::A0, Reg::A0, Reg::T0);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bne(Reg::T0, Reg::Zero, "loop");
        a.ebreak();
        a.assemble().unwrap()
    }

    fn run_both(prog: &vpdift_asm::Program) -> (RunExit, RunExit, u64, u64) {
        let mut mem_i = FlatMemory::<Plain>::new(0, 4096);
        mem_i.load_image(0, prog.image());
        let mut cpu_i = Cpu::<Plain>::new();
        let exit_i = cpu_i.run(&mut mem_i, 10_000);

        let mut mem_b = FlatMemory::<Plain>::new(0, 4096);
        mem_b.load_image(0, prog.image());
        let mut cpu_b = Cpu::<Plain>::new();
        let mut eng = BlockCache::new();
        let exit_b = eng.run(&mut cpu_b, &mut mem_b, 10_000);

        (exit_i, exit_b, cpu_i.state_digest(), cpu_b.state_digest())
    }

    #[test]
    fn cached_loop_matches_interpreter() {
        let prog = looped_sum();
        let (exit_i, exit_b, d_i, d_b) = run_both(&prog);
        assert_eq!(exit_i, RunExit::Break);
        assert_eq!(exit_b, RunExit::Break);
        assert_eq!(d_i, d_b);
    }

    #[test]
    fn cache_hits_dominate_on_hot_loops() {
        let prog = looped_sum();
        let mut mem = FlatMemory::<Plain>::new(0, 4096);
        mem.load_image(0, prog.image());
        let mut cpu = Cpu::<Plain>::new();
        let mut eng = BlockCache::new();
        assert_eq!(eng.run(&mut cpu, &mut mem, 10_000), RunExit::Break);
        let st = eng.stats();
        assert!(st.hits > 10 * st.misses, "hits {} misses {}", st.hits, st.misses);
    }

    #[test]
    fn store_into_cached_block_invalidates() {
        // A loop body is cached, then the guest overwrites one of its
        // instructions; the patched semantics must take effect exactly as
        // under the interpreter.
        let addi_a0_a0_100: i32 = 0x0645_0513u32 as i32; // addi a0, a0, 100
        let mut a = Asm::new(0);
        a.li(Reg::A0, 0);
        a.li(Reg::T0, 2); // two passes
        a.label("loop");
        a.label("patch");
        a.addi(Reg::A0, Reg::A0, 1); // pass 1: +1; overwritten to +100
        a.li(Reg::T1, addi_a0_a0_100);
        a.la(Reg::T2, "patch");
        a.sw(Reg::T1, 0, Reg::T2);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bne(Reg::T0, Reg::Zero, "loop");
        a.ebreak();
        let prog = a.assemble().unwrap();

        let (exit_i, exit_b, d_i, d_b) = run_both(&prog);
        assert_eq!(exit_i, RunExit::Break);
        assert_eq!(exit_b, RunExit::Break);
        assert_eq!(d_i, d_b);

        // And the patched value is what the interpreter computes: 1 + 100.
        let mut mem = FlatMemory::<Plain>::new(0, 4096);
        mem.load_image(0, prog.image());
        let mut cpu = Cpu::<Plain>::new();
        let mut eng = BlockCache::new();
        assert_eq!(eng.run(&mut cpu, &mut mem, 10_000), RunExit::Break);
        assert_eq!(cpu.reg(Reg::A0), 101);
        assert!(eng.stats().invalidations > 0);
    }

    #[test]
    fn store_into_data_sharing_a_code_line_keeps_the_block() {
        // The loop's counter sits right after its code, inside the same
        // 64-byte line: only stores overlapping code bytes invalidate.
        let mut a = Asm::new(0);
        a.la(Reg::T2, "counter");
        a.li(Reg::T0, 50);
        a.label("loop");
        a.sw(Reg::T0, 0, Reg::T2);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bne(Reg::T0, Reg::Zero, "loop");
        a.ebreak();
        a.label("counter");
        a.word(0);
        let prog = a.assemble().unwrap();
        assert!(prog.symbol("counter").unwrap() < 1 << LINE_SHIFT, "data shares the code line");

        let (exit_i, exit_b, d_i, d_b) = run_both(&prog);
        assert_eq!(exit_i, RunExit::Break);
        assert_eq!((exit_b, d_b), (exit_i, d_i));

        let mut mem = FlatMemory::<Plain>::new(0, 4096);
        mem.load_image(0, prog.image());
        let mut cpu = Cpu::<Plain>::new();
        let mut eng = BlockCache::new();
        assert_eq!(eng.run(&mut cpu, &mut mem, 10_000), RunExit::Break);
        assert_eq!(eng.stats().invalidations, 0);
        assert_eq!(mem.byte_at(prog.symbol("counter").unwrap()), Some((1, Tag::EMPTY)));
    }

    #[test]
    fn csr_raised_interrupt_is_taken_mid_block() {
        // A `csrw mip` raising MSIP inside a straight-line block must be
        // serviced before the following instruction — exactly where the
        // batched dispatch re-polls only after poll-flagged instructions.
        use vpdift_asm::csr;
        let mut a = Asm::new(0);
        a.la(Reg::T0, "handler");
        a.csrw(csr::MTVEC, Reg::T0);
        a.li(Reg::T1, 8); // MSIE / mstatus.MIE
        a.csrw(csr::MIE, Reg::T1);
        a.csrw(csr::MSTATUS, Reg::T1);
        a.li(Reg::A0, 0);
        a.li(Reg::A1, 8);
        a.csrw(csr::MIP, Reg::A1); // raise MSIP: interrupt pends *here*
        a.addi(Reg::A0, Reg::A0, 1); // must run only after the handler
        a.ebreak();
        a.label("handler");
        a.li(Reg::A2, 77);
        a.csrc(csr::MIP, Reg::A1);
        a.mret();
        let prog = a.assemble().unwrap();

        let (exit_i, exit_b, d_i, d_b) = run_both(&prog);
        assert_eq!(exit_i, RunExit::Break);
        assert_eq!(exit_b, RunExit::Break);
        assert_eq!(d_i, d_b, "engines disagree on mid-block interrupt");

        let mut mem = FlatMemory::<Plain>::new(0, 4096);
        mem.load_image(0, prog.image());
        let mut cpu = Cpu::<Plain>::new();
        let mut eng = BlockCache::new();
        assert_eq!(eng.run(&mut cpu, &mut mem, 10_000), RunExit::Break);
        assert_eq!(cpu.reg(Reg::A2), 77, "handler must have run");
        assert_eq!(cpu.reg(Reg::A0), 1);
    }

    #[test]
    fn external_mutation_epoch_flushes() {
        let prog = looped_sum();
        let mut mem = FlatMemory::<Plain>::new(0, 4096);
        mem.load_image(0, prog.image());
        let mut cpu = Cpu::<Plain>::new();
        let mut eng = BlockCache::new();
        assert_eq!(eng.exec(&mut cpu, &mut mem, 8).1, Ok(Step::Executed));
        assert!(!eng.arena.is_empty());
        // Host-side image reload bumps the epoch; the next slice flushes.
        mem.load_image(0, prog.image());
        assert_eq!(eng.exec(&mut cpu, &mut mem, 1), (1, Ok(Step::Executed)));
        assert!(eng.stats().flushes > 0);
    }

    /// A tainted flat memory whose taint-idle latch the test sets by hand.
    struct Latched {
        mem: FlatMemory<Tainted>,
        live: bool,
    }

    impl Bus<Tainted> for Latched {
        fn fetch(&mut self, pc: u32) -> Result<Taint<u32>, MemError> {
            self.mem.fetch(pc)
        }
        fn load(&mut self, addr: u32, size: u32) -> Result<Taint<u32>, MemError> {
            self.mem.load(addr, size)
        }
        fn store(&mut self, addr: u32, size: u32, v: Taint<u32>, pc: u32) -> Result<(), MemError> {
            self.mem.store(addr, size, v, pc)
        }
        fn mutation_epoch(&self) -> u64 {
            self.mem.mutation_epoch()
        }
        fn tags_live(&self) -> bool {
            self.live
        }
    }

    #[test]
    fn tag_latch_gates_clearance_checks() {
        // Fetch clearance of EMPTY over classified code: the checked
        // path must flag it, the idle path must be skipped until latched.
        let prog = looped_sum();
        let clearance = ExecClearance { fetch: Some(Tag::EMPTY), ..ExecClearance::UNCHECKED };
        let run = |live: bool| {
            let mut mem = FlatMemory::<Tainted>::new(0, 4096);
            mem.load_image(0, prog.image());
            mem.classify(0, 64, Tag::atom(0));
            let mut cpu = Cpu::<Tainted>::new();
            cpu.set_exec_clearance(clearance);
            let mut eng = BlockCache::new();
            (eng.run(&mut cpu, &mut Latched { mem, live }, 10_000), eng.stats())
        };
        // Latch clear → checks skipped → the run completes.
        let (exit, stats) = run(false);
        assert_eq!(exit, RunExit::Break);
        assert!(stats.idle_steps > 0);
        assert_eq!(stats.checked_steps, 0);
        // Latched → the very same program trips the fetch check.
        assert!(matches!(run(true).0, RunExit::Violation(_)));
    }
}

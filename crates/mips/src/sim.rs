//! Cycle-approximate MIPS simulator with execution profiling.
//!
//! The machine executes decoded text with architecturally correct branch
//! delay slots, counts cycles via a [`CycleModel`], and accumulates a
//! [`Profile`] (per-instruction execution counts and per-branch taken
//! counts) that later drives the 90-10 partitioner.
//!
//! # Fast-path architecture
//!
//! Every number in the DATE'05 reproduction funnels through this simulator,
//! so its hot path is engineered rather than naive (the naive engine is
//! retained in [`crate::reference`] as the differential oracle and
//! throughput baseline):
//!
//! * **Word-oriented paged memory with a software TLB.** [`Memory`] keeps
//!   4 KiB pages in a slot vector indexed through a page table, fronted by
//!   a direct-mapped `TLB_ENTRIES`-entry translation cache. A naturally
//!   aligned word access never crosses a page, so the aligned fast path is
//!   one TLB tag compare plus a 4-byte slice read — versus four separate
//!   `HashMap` lookups per `read_u32` in the reference engine. The TLB
//!   lives in [`Cell`]s so reads stay `&self`; slots are never
//!   deallocated, so cached slot indices stay valid for the life of the
//!   `Memory`.
//! * **Bulk page-wise transfer.** [`Memory::write_slice`] and
//!   [`Memory::read_vec`] copy page-sized chunks with `copy_from_slice`,
//!   making binary loading O(pages) instead of O(bytes) hash lookups.
//! * **Micro-op pre-decoding.** At load, every text word is lowered
//!   (`lower`) into a packed `Op`: operand registers unpacked,
//!   immediates pre-extended (`lui` pre-shifted), branch/jump targets
//!   resolved to absolute addresses, and the [`CycleModel`] cost
//!   precomputed — the dispatch loop never re-decodes or re-matches the
//!   cycle table.
//! * **Block dispatch with fused control epilogues.** `build_plans`
//!   precomputes, per op, the length of the straight-line (non-control)
//!   run starting there and whether that run ends in a control op whose
//!   delay slot is plain. In the sequential state the run loop executes
//!   the whole run with no per-op fetch checks or pc bookkeeping
//!   (`run_block`), then folds the terminating branch/jump *and its
//!   delay slot* into the same dispatch round — a tight loop iteration
//!   costs one trip around the outer loop instead of three. All hot state
//!   (registers, pc chain, counters) lives in locals for the duration of
//!   [`Machine::run`].
//! * **Superinstruction fusion inside superblocks.** A peephole pass
//!   (`fuse`) rewrites hot adjacent pairs/triples into single fused
//!   micro-ops, attacking the dominant remaining cost on register-resident
//!   code: dispatch itself (one indirect branch per op). It runs only when
//!   a superblock is installed, over the text slots of each recorded
//!   round (see below): control enters a round only at its first slot, so
//!   no pattern can be entered part-way, and the dispatcher itself always
//!   executes the plain pre-decoded ops. Each fused arm is straight-line
//!   code executing its constituents' semantics in original order against
//!   the real register file, so chained, aliased, and `$zero`-destination
//!   forms — and therefore architectural state, cycle totals, and
//!   [`Profile`] counts — are bit-identical to per-op execution. The
//!   pattern table, selected from the suite's measured dynamic-pair
//!   histogram (see `examples/fusion_histogram.rs`):
//!
//!   | patterns | guards |
//!   |---|---|
//!   | `addiu+addiu` (chained/independent), `mult/multu+mflo`, `lui+ori` / `lui+addiu` (`li` idioms), `slt/sltu/slti/sltiu+beq/bne` vs `$zero` (fused control op) | compare dest non-zero, one branch operand `$zero` |
//!   | `addiu+slt/sltu+beq/bne` loop back edge (width-3 control), `mult+mflo+addu` MAC, `sll+addu+lw/sw` array indexing, `addu+lw/lbu/sw`, `addiu+lw/sw`, `sw+lw` / `lw+sw` / `lw+lw` spill pairs, `lw+addiu/addu`, and the generic ALU pairs `addu+addiu`, `sll+addiu`, `addiu+srl`, `srl+addiu`, `ori+addiu` | memory base chained to the address producer where the encoding needs it |
//!
//!   Fusion never starts at a control op; the fused compare-and-branch
//!   forms end a round and run as its control epilogue. A fused memory op
//!   that faults reports the faulting *constituent's* pc and skips the
//!   rest, so partial profiles match the reference bit-for-bit.
//! * **Superblock trace cache with threaded-code translation.** On top of
//!   block dispatch, the engine records hot paths *across* taken branches
//!   and replays them as straight-line threaded code
//!   ([`crate::superblock`]). The lifecycle:
//!
//!   1. **Record.** A per-target heat counter marks a backward-branch /
//!      call-return target hot after a handful of visits (NET-style
//!      most-recently-executed-tail). The next arrival enters recording
//!      mode: the dispatcher runs normally while the recorder captures
//!      each round — body run, control op, delay slot, and the *observed*
//!      continuation — until the path closes back on its entry (a loop),
//!      re-enters another trace head, or hits a segment/length cap.
//!   2. **Specialize.** The recorded rounds are frozen into segments with
//!      everything the dispatcher would recompute pre-resolved: dense
//!      body micro-ops fused (`fuse`) over each round's slots,
//!      per-segment instruction/cycle charges as constants,
//!      canonical-`nop` delay slots marked for skipping, and
//!      unconditional direct transfers marked to bypass control
//!      resolution entirely. The dominant shapes (1- and 2-segment loop
//!      traces) compile to const-generic specializations whose segment
//!      arrays live on the stack and whose body loops are positionally
//!      unrolled.
//!   3. **Install & execute.** The trace is keyed by entry pc in a
//!      direct map; the dispatcher consults it once per round start and
//!      jumps into trace execution on a hit. Inside, each segment
//!      executes its dense body, charges its constants, and compares the
//!      resolved control target against the recorded continuation — a
//!      mismatch is a **side exit** that falls back to the dispatcher
//!      with exact pc/cycle/profile state (per-segment side-exit counts
//!      are kept for tooling). Traces chain: a trace that ends where
//!      another begins transfers directly without a dispatcher round
//!      trip. Watchpoints and step budgets are checked per segment, so
//!      [`HybridMachine`](crate::hybrid) trap pcs and `MaxSteps`
//!      boundaries stay exact.
//!   4. **Invalidate.** [`Machine::set_dispatch_boundaries`] (new entry
//!      points, e.g. hybrid trap pcs or partition changes) clears the
//!      cache and heat table; traces re-record against the new
//!      boundaries. Boundary pcs are mandatory trace boundaries, so a
//!      watched pc can never be buried mid-trace.
//!
//!   The whole engine is observationally invisible: `Exit`, `Profile`,
//!   fault pcs, and partial profiles are bit-identical to the
//!   reference engine (asserted suite-wide by
//!   `tests/differential.rs` and torture-tested on hostile binaries).
//! * **One profile, collected through a monomorphized hook trait.** The
//!   execute body is generic over a crate-private `Profiler`, so each run
//!   pays exactly for what it observes. [`Machine::run`] collects the
//!   [`Profile`] the partitioner reads — exact per-instruction execution
//!   counts plus per-branch taken counts — from two boundary deltas per
//!   dispatch round and one counter bump per taken branch; a prefix sum
//!   at exit turns the deltas into counts. [`Machine::run_unprofiled`]
//!   compiles every hook out. Total cycles/instructions are architectural
//!   and always kept.
//!
//! [`Machine::new`] pre-decodes the text and builds the trace cache: there
//! is one engine. Cold code dispatches the plain pre-decoded ops; hot paths
//! replay as fused superblocks.
//!
//! Measured on the 20-benchmark workload suite across all four compiler
//! optimization levels (the matrix the experiment harness simulates), the
//! engine retires ~7x more instructions per second than the seed engine
//! (host-dependent) at ~98% trace coverage, with the exact numbers tracked
//! per PR in `BENCH_sim.json` (written by `tables all`, gated by `tables
//! check`; see `crates/bench/src/bin/README.md`).
//!
//! The differential test suite (`tests/differential.rs` at the workspace
//! root) asserts that the engine and the retained reference engine produce
//! bit-identical [`Exit`] state and [`Profile`] over the whole benchmark
//! suite at every optimization level, including fault pcs and partial
//! profiles.

use crate::superblock;
use crate::{Binary, CycleModel, DecodeError, Instr, Reg, HALT_PC};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;

pub(crate) const PAGE_BITS: u32 = 12;
/// Bytes in one [`Memory`] page.
pub const PAGE_SIZE: usize = 1 << PAGE_BITS;
const PAGE_MASK: usize = PAGE_SIZE - 1;
/// TLB tag meaning "no page cached" (no 32-bit address maps to this page
/// number, since page numbers are at most `u32::MAX >> PAGE_BITS`).
const NO_PAGE: u32 = u32::MAX;
/// Direct-mapped TLB entries. A single entry thrashes when an inner loop
/// alternates data-array and stack-spill accesses; 64 entries keep every
/// working-set page of the benchmark suite resident.
const TLB_ENTRIES: usize = 64;

/// Sparse, demand-zeroed flat memory with word-oriented page access.
///
/// Pages are 4 KiB and live in a slot vector; a page table maps page
/// numbers to slots and a one-entry last-page cache (software TLB) makes
/// consecutive accesses to the same page O(1) without hashing. See the
/// [module docs](self) for the full fast-path design.
#[derive(Debug)]
pub struct Memory {
    table: HashMap<u32, u32>,
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
    /// Direct-mapped translation cache: entry `pno % TLB_ENTRIES` holds the
    /// last (page number, slot) seen for that index; `NO_PAGE` tag when empty.
    tlb: [Cell<(u32, u32)>; TLB_ENTRIES],
}

impl Default for Memory {
    fn default() -> Self {
        Memory {
            table: HashMap::new(),
            pages: Vec::new(),
            tlb: std::array::from_fn(|_| Cell::new((NO_PAGE, 0))),
        }
    }
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Slot of the page holding `addr`, if it exists (TLB-accelerated).
    #[inline(always)]
    fn slot_of(&self, addr: u32) -> Option<usize> {
        let pno = addr >> PAGE_BITS;
        let entry = &self.tlb[(pno as usize) & (TLB_ENTRIES - 1)];
        let (tag, slot) = entry.get();
        if tag == pno {
            return Some(slot as usize);
        }
        let slot = *self.table.get(&pno)?;
        entry.set((pno, slot));
        Some(slot as usize)
    }

    /// Whether the page holding `addr` has been written.
    #[inline(always)]
    pub fn has_page(&self, addr: u32) -> bool {
        self.slot_of(addr).is_some()
    }

    /// Slot of the page holding `addr`, allocating it on first touch.
    #[inline(always)]
    fn slot_or_alloc(&mut self, addr: u32) -> usize {
        let pno = addr >> PAGE_BITS;
        let entry = &self.tlb[(pno as usize) & (TLB_ENTRIES - 1)];
        let (tag, slot) = entry.get();
        if tag == pno {
            return slot as usize;
        }
        let next = self.pages.len() as u32;
        let slot = *self.table.entry(pno).or_insert(next);
        if slot == next {
            self.pages.push(Box::new([0u8; PAGE_SIZE]));
        }
        entry.set((pno, slot));
        slot as usize
    }

    /// Reads one byte.
    #[inline(always)]
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.slot_of(addr) {
            Some(s) => self.pages[s][addr as usize & PAGE_MASK],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline(always)]
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        let s = self.slot_or_alloc(addr);
        self.pages[s][addr as usize & PAGE_MASK] = value;
    }

    /// Reads a little-endian halfword (any alignment; an aligned access
    /// never crosses a page and takes the single-page fast path).
    #[inline(always)]
    pub fn read_u16(&self, addr: u32) -> u16 {
        let off = addr as usize & PAGE_MASK;
        if off + 2 <= PAGE_SIZE {
            match self.slot_of(addr) {
                Some(s) => {
                    let p = &self.pages[s];
                    u16::from_le_bytes([p[off], p[off + 1]])
                }
                None => 0,
            }
        } else {
            u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr.wrapping_add(1))])
        }
    }

    /// Writes a little-endian halfword.
    #[inline(always)]
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        let off = addr as usize & PAGE_MASK;
        let b = value.to_le_bytes();
        if off + 2 <= PAGE_SIZE {
            let s = self.slot_or_alloc(addr);
            self.pages[s][off..off + 2].copy_from_slice(&b);
        } else {
            self.write_u8(addr, b[0]);
            self.write_u8(addr.wrapping_add(1), b[1]);
        }
    }

    /// Reads a little-endian word (any alignment; an aligned access never
    /// crosses a page and takes the single-page fast path).
    #[inline(always)]
    pub fn read_u32(&self, addr: u32) -> u32 {
        let off = addr as usize & PAGE_MASK;
        if off + 4 <= PAGE_SIZE {
            match self.slot_of(addr) {
                Some(s) => {
                    let p = &self.pages[s];
                    u32::from_le_bytes([p[off], p[off + 1], p[off + 2], p[off + 3]])
                }
                None => 0,
            }
        } else {
            u32::from_le_bytes([
                self.read_u8(addr),
                self.read_u8(addr.wrapping_add(1)),
                self.read_u8(addr.wrapping_add(2)),
                self.read_u8(addr.wrapping_add(3)),
            ])
        }
    }

    /// Writes a little-endian word.
    #[inline(always)]
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        let off = addr as usize & PAGE_MASK;
        let b = value.to_le_bytes();
        if off + 4 <= PAGE_SIZE {
            let s = self.slot_or_alloc(addr);
            self.pages[s][off..off + 4].copy_from_slice(&b);
        } else {
            for (k, byte) in b.iter().enumerate() {
                self.write_u8(addr.wrapping_add(k as u32), *byte);
            }
        }
    }

    /// Bulk-copies `bytes` starting at `addr`, one page chunk at a time.
    pub fn write_slice(&mut self, addr: u32, bytes: &[u8]) {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = addr as usize & PAGE_MASK;
            let n = rest.len().min(PAGE_SIZE - off);
            let s = self.slot_or_alloc(addr);
            self.pages[s][off..off + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            addr = addr.wrapping_add(n as u32);
        }
    }

    /// Reads `len` bytes starting at `addr`, one page chunk at a time
    /// (unmapped pages read as zeros).
    pub fn read_vec(&self, addr: u32, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut addr = addr;
        while out.len() < len {
            let off = addr as usize & PAGE_MASK;
            let n = (len - out.len()).min(PAGE_SIZE - off);
            match self.slot_of(addr) {
                Some(s) => out.extend_from_slice(&self.pages[s][off..off + n]),
                None => out.resize(out.len() + n, 0),
            }
            addr = addr.wrapping_add(n as u32);
        }
        out
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Program counter left the text section without reaching [`HALT_PC`].
    PcOutOfText {
        /// Offending program counter.
        pc: u32,
    },
    /// A load/store address violated natural alignment.
    Unaligned {
        /// Faulting data address.
        addr: u32,
        /// Program counter of the access.
        pc: u32,
    },
    /// The text section contained a word outside the supported subset.
    BadInstruction(DecodeError),
    /// The step budget ran out (runaway program).
    MaxStepsExceeded {
        /// The configured limit.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PcOutOfText { pc } => write!(f, "pc {pc:#010x} left the text section"),
            SimError::Unaligned { addr, pc } => {
                write!(f, "unaligned access to {addr:#010x} at pc {pc:#010x}")
            }
            SimError::BadInstruction(e) => write!(f, "{e}"),
            SimError::MaxStepsExceeded { limit } => {
                write!(f, "exceeded {limit} instructions without halting")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<DecodeError> for SimError {
    fn from(e: DecodeError) -> Self {
        SimError::BadInstruction(e)
    }
}

/// Why the machine stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// Control returned to the loader ([`HALT_PC`]).
    Halt,
    /// A `break code` instruction executed.
    Break(u32),
}

/// Execution profile collected while running: what the 90-10 partitioner
/// reads to rank loops.
///
/// Counts are indexed by instruction position in the text section; helper
/// methods translate from absolute addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    text_base: u32,
    /// Dynamic execution count per static instruction.
    pub counts: Vec<u64>,
    /// For branch instructions, how many executions were taken.
    pub taken: Vec<u64>,
    /// Total dynamic instructions.
    pub total_instrs: u64,
    /// Total cycles under the configured [`CycleModel`].
    pub total_cycles: u64,
}

impl Profile {
    pub(crate) fn new(text_base: u32, text_len: usize) -> Profile {
        Profile {
            text_base,
            counts: vec![0; text_len],
            taken: vec![0; text_len],
            total_instrs: 0,
            total_cycles: 0,
        }
    }

    fn index(&self, pc: u32) -> Option<usize> {
        let off = pc.wrapping_sub(self.text_base);
        if off.is_multiple_of(4) && ((off / 4) as usize) < self.counts.len() {
            Some((off / 4) as usize)
        } else {
            None
        }
    }

    /// Execution count of the instruction at `pc` (0 if outside text).
    pub fn count_at(&self, pc: u32) -> u64 {
        self.index(pc).map_or(0, |i| self.counts[i])
    }

    /// Taken count of the branch at `pc` (0 if outside text or never taken).
    pub fn taken_at(&self, pc: u32) -> u64 {
        self.index(pc).map_or(0, |i| self.taken[i])
    }
}

impl Default for Profile {
    /// An empty profile (no text).
    fn default() -> Profile {
        Profile::new(0, 0)
    }
}

/// Observation hooks for a simulation run, monomorphized into the dispatch
/// loop ([`Machine::run_with`]) so unused hooks compile out entirely.
///
/// The engine reports retirement at *block* granularity: every retired
/// instruction is covered by exactly one [`Profiler::on_block`] range (a
/// straight-line run, a control op + delay slot epilogue, or a single
/// slow-path op), so per-instruction execution counts are recoverable
/// exactly from the ranges alone — that is what [`EdgeProfiler`] does with
/// two array writes per range instead of one per instruction.
///
/// Implementations: [`NullProfiler`] ([`Machine::run_unprofiled`]),
/// [`EdgeProfiler`] ([`Machine::run`]) and the hybrid machine's
/// [`StoreLog`](crate::hybrid::StoreLog).
pub(crate) trait Profiler {
    /// Called at the start of each run with the text geometry; sizes
    /// internal storage without discarding accumulated data.
    fn begin(&mut self, text_base: u32, text_len: usize);
    /// `n` instructions at text indices `[idx, idx + n)` retired, costing
    /// `cyc` cycles in total. On a fault the range ends at (and includes)
    /// the faulting instruction.
    fn on_block(&mut self, idx: usize, n: usize, cyc: u64);
    /// The conditional branch at `idx` was taken.
    fn on_taken(&mut self, idx: usize);
    /// A store of `value` (low `bytes` bytes significant) to `addr`
    /// retired. Defaulted to a no-op; the hybrid co-simulation's store log
    /// overrides it to record the software side of the HW/SW differential.
    #[inline(always)]
    fn on_store_at(&mut self, addr: u32, bytes: u8, value: u32) {
        let _ = (addr, bytes, value);
    }
    /// Extracts the collected data as a [`Profile`], leaving the profiler
    /// reset (ready for another run).
    fn take_profile(&mut self, text_base: u32, text_len: usize) -> Profile;
}

/// The zero-cost profiler: every hook is empty, so the monomorphized run
/// loop carries no counter updates at all.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NullProfiler;

impl Profiler for NullProfiler {
    #[inline(always)]
    fn begin(&mut self, _text_base: u32, _text_len: usize) {}
    #[inline(always)]
    fn on_block(&mut self, _idx: usize, _n: usize, _cyc: u64) {}
    #[inline(always)]
    fn on_taken(&mut self, _idx: usize) {}
    fn take_profile(&mut self, text_base: u32, _text_len: usize) -> Profile {
        Profile::new(text_base, 0)
    }
}

/// Block execution counts plus branch bias — the profiler behind
/// [`Machine::run`].
///
/// Each retired range `[idx, idx + n)` is recorded as two boundary deltas
/// (`diff[idx] += 1`, `diff[idx + n] -= 1`); a prefix sum at
/// [`Profiler::take_profile`] reconstructs *exact* per-instruction
/// execution counts, because every retired instruction is covered by
/// exactly one reported range. A per-branch taken counter (one array write
/// per retired taken branch) adds the branch bias the partitioner's
/// loop-bound estimates consume (dynamic back-edge counts → loop entries →
/// CPU↔FPGA invocation counts; see
/// `binpart_core::partition::harvest_candidates`).
#[derive(Debug, Clone, Default)]
pub(crate) struct EdgeProfiler {
    /// Boundary deltas; entry `i` is the count change at text index `i`.
    diff: Vec<i64>,
    /// Taken count per static branch (text index).
    taken: Vec<u64>,
    total_instrs: u64,
    total_cycles: u64,
}

impl Profiler for EdgeProfiler {
    fn begin(&mut self, _text_base: u32, text_len: usize) {
        if self.diff.len() < text_len + 1 {
            self.diff.resize(text_len + 1, 0);
        }
        if self.taken.len() < text_len {
            self.taken.resize(text_len, 0);
        }
    }
    #[inline(always)]
    fn on_block(&mut self, idx: usize, n: usize, cyc: u64) {
        self.diff[idx] += 1;
        self.diff[idx + n] -= 1;
        self.total_instrs += n as u64;
        self.total_cycles += cyc;
    }
    #[inline(always)]
    fn on_taken(&mut self, idx: usize) {
        self.taken[idx] += 1;
    }
    fn take_profile(&mut self, text_base: u32, text_len: usize) -> Profile {
        let mut p = Profile::new(text_base, text_len);
        let mut acc = 0i64;
        for (i, slot) in p.counts.iter_mut().enumerate() {
            acc += self.diff.get(i).copied().unwrap_or(0);
            *slot = acc as u64;
        }
        for (i, slot) in p.taken.iter_mut().enumerate() {
            *slot = self.taken.get(i).copied().unwrap_or(0);
        }
        p.total_instrs = self.total_instrs;
        p.total_cycles = self.total_cycles;
        self.diff.clear();
        self.taken.clear();
        self.total_instrs = 0;
        self.total_cycles = 0;
        p
    }
}

/// Configuration for a [`Machine`]: everything that can change a run's
/// result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimConfig {
    /// Cycle cost table.
    pub cycles: CycleModel,
    /// Abort after this many dynamic instructions.
    pub max_steps: u64,
    /// Initial stack pointer.
    pub stack_top: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cycles: CycleModel::default(),
            max_steps: 500_000_000,
            stack_top: crate::DEFAULT_STACK_TOP,
        }
    }
}

/// A pc predicate monomorphized into the dispatch loop. [`NoWatch`] (the
/// plain-run case) compiles every check out; closures make
/// [`Machine::run_until`] stop at caller-chosen addresses.
pub(crate) trait PcWatch {
    fn hit(&self, pc: u32) -> bool;
}

/// The zero-cost watch: never hits, so the monomorphized run loop carries
/// no pc checks at all.
pub(crate) struct NoWatch;

impl PcWatch for NoWatch {
    #[inline(always)]
    fn hit(&self, _pc: u32) -> bool {
        false
    }
}

impl<F: Fn(u32) -> bool> PcWatch for F {
    #[inline(always)]
    fn hit(&self, pc: u32) -> bool {
        self(pc)
    }
}

/// Where a bounded run ([`Machine::run_until`]) stopped.
#[derive(Debug)]
pub(crate) enum RunStop {
    /// The program finished normally (halt or `break`).
    Exited(Box<Exit>),
    /// Control reached a watched pc in the sequential state, *before*
    /// executing the instruction there. The machine can be resumed (it
    /// will re-trap unless the watch changes) or handed to an accelerator.
    Trapped {
        /// The watched pc.
        pc: u32,
    },
}

/// Final machine state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exit {
    /// Why execution stopped.
    pub reason: ExitReason,
    /// Register file at exit.
    pub regs: [u32; 32],
    /// Total cycles.
    pub cycles: u64,
    /// Total retired instructions.
    pub instrs: u64,
    /// Execution profile (empty after [`Machine::run_unprofiled`]).
    pub profile: Profile,
}

impl Exit {
    /// Value of `reg` at exit.
    pub fn reg(&self, reg: Reg) -> u32 {
        self.regs[reg.number() as usize]
    }
}

/// One pre-decoded micro-op: the executable form of one text-section
/// instruction, with operand registers unpacked, immediates pre-extended,
/// branch/jump targets pre-resolved to absolute addresses, and the
/// [`CycleModel`] cost pre-computed. Built once at load by [`lower`].
///
/// A *fused* micro-op (see [`fuse`]) packs two or three adjacent
/// instructions into one dispatch; `width` is the number of text slots it
/// covers, `cyc` the summed cycle cost, and the extra register fields
/// (`d`, `e`) plus `imm2` hold the additional constituents' operands.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Op {
    pub(crate) code: OpCode,
    /// Destination register (rd / rt for loads and immediate ALU).
    pub(crate) a: u8,
    /// First source register (rs / base).
    pub(crate) b: u8,
    /// Second source register (rt / store value).
    pub(crate) c: u8,
    /// Fused ops: second constituent's destination (or first intermediate).
    pub(crate) d: u8,
    /// Fused ops: second intermediate / value register / compare sub-kind.
    pub(crate) e: u8,
    /// Text slots this op covers: 1 for plain ops, 2–3 for fused ops.
    pub(crate) width: u8,
    /// Cycle cost of one dynamic instance (summed over constituents when
    /// fused).
    pub(crate) cyc: u32,
    /// Pre-baked immediate: sign/zero-extended constant, pre-shifted `lui`
    /// value, shift amount, `break` code, or absolute control target.
    pub(crate) imm: u32,
    /// Fused ops: second immediate (second constituent's constant, shift
    /// amount, or load/store offset).
    pub(crate) imm2: u32,
}

/// Micro-op kinds. `Add`/`Addu` (and `Addi`/`Addiu`, `Sub`/`Subu`) share a
/// kind because the simulator models both as wrapping arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpCode {
    Addu,
    Subu,
    And,
    Or,
    Xor,
    Nor,
    Slt,
    Sltu,
    Sll,
    Srl,
    Sra,
    Sllv,
    Srlv,
    Srav,
    Mult,
    Multu,
    Div,
    Divu,
    Mfhi,
    Mflo,
    Mthi,
    Mtlo,
    Addiu,
    Slti,
    Sltiu,
    Andi,
    Ori,
    Xori,
    Lui,
    Lb,
    Lbu,
    Lh,
    Lhu,
    Lw,
    Sb,
    Sh,
    Sw,
    Beq,
    Bne,
    Blez,
    Bgtz,
    Bltz,
    Bgez,
    J,
    Jal,
    Jr,
    Jalr,
    Break,
    // ---- fused superinstructions (built by `fuse`, never decoded) ----
    /// `addiu; addiu` — chained or independent (sequential semantics).
    FAddiuAddiu,
    /// `mult; mflo` — product straight into the destination register.
    FMultMflo,
    /// `multu; mflo`.
    FMultuMflo,
    /// `lui; ori` — the `li` large-constant idiom (and any adjacent pair).
    FLuiOri,
    /// `lui; addiu` — the alternate `li` idiom.
    FLuiAddiu,
    /// `addiu; lw` — pointer bump / offset compute feeding a word load.
    FAddiuLw,
    /// `addiu; sw` — pointer bump feeding a word store.
    FAddiuSw,
    /// `sll; addu; lw` — the array-index word-load idiom `a[i]`.
    FSllAdduLw,
    /// `sll; addu; sw` — the array-index word-store idiom `a[i] = v`.
    FSllAdduSw,
    /// `mult; mflo; addu` — the multiply-accumulate chain (the addu
    /// consumes the product).
    FMultMfloAddu,
    /// `addu; lw` — register-indexed address compute feeding a word load.
    FAdduLw,
    /// `addu; lbu` — register-indexed address compute feeding a byte load.
    FAdduLbu,
    /// `addu; sw` — compute then spill (value or base may be the sum).
    FAdduSw,
    /// `sw; lw` — the dominant `-O0` stack spill/reload pair.
    FSwLw,
    /// `lw; sw` — reload then spill.
    FLwSw,
    /// `lw; lw` — back-to-back reloads.
    FLwLw,
    /// `lw; addiu` — reload feeding an immediate add.
    FLwAddiu,
    /// `lw; addu` — reload feeding a register add.
    FLwAddu,
    /// `addu; addiu` — generic 3-reg ALU then immediate ALU pair.
    FAdduAddiu,
    /// `sll; addiu`.
    FSllAddiu,
    /// `addiu; srl`.
    FAddiuSrl,
    /// `srl; addiu`.
    FSrlAddiu,
    /// `ori; addiu`.
    FOriAddiu,
    /// `slt/sltu/slti/sltiu; beq rd, $zero` — compare-and-branch-if-false
    /// (sub-kind in `e`). A fused *control* op: executes in the dispatch
    /// epilogue, not inside straight-line runs.
    FCmpBeqz,
    /// `slt/sltu/slti/sltiu; bne rd, $zero` — compare-and-branch-if-true.
    FCmpBnez,
    /// `addiu; slt/sltu; beq rd, $zero` — the counted-loop back edge
    /// (increment, compare, exit-if-false) as one fused control op.
    FAddiuCmpBeqz,
    /// `addiu; slt/sltu; bne rd, $zero` — increment, compare, loop-if-true.
    FAddiuCmpBnez,
}

/// Lowers one decoded instruction at `pc` into its micro-op.
fn lower(instr: Instr, pc: u32, cyc: u32) -> Op {
    use Instr::*;
    let n = |r: Reg| r.number();
    // Absolute control target; only the branch and jump arms read it, and
    // for them it is always `Some`.
    let target = instr
        .branch_target(pc)
        .or(instr.jump_target(pc))
        .unwrap_or_default();
    let mut op = Op {
        code: OpCode::Sll,
        a: 0,
        b: 0,
        c: 0,
        d: 0,
        e: 0,
        width: 1,
        cyc,
        imm: 0,
        imm2: 0,
    };
    match instr {
        Add { rd, rs, rt } | Addu { rd, rs, rt } => {
            (op.code, op.a, op.b, op.c) = (OpCode::Addu, n(rd), n(rs), n(rt))
        }
        Sub { rd, rs, rt } | Subu { rd, rs, rt } => {
            (op.code, op.a, op.b, op.c) = (OpCode::Subu, n(rd), n(rs), n(rt))
        }
        And { rd, rs, rt } => (op.code, op.a, op.b, op.c) = (OpCode::And, n(rd), n(rs), n(rt)),
        Or { rd, rs, rt } => (op.code, op.a, op.b, op.c) = (OpCode::Or, n(rd), n(rs), n(rt)),
        Xor { rd, rs, rt } => (op.code, op.a, op.b, op.c) = (OpCode::Xor, n(rd), n(rs), n(rt)),
        Nor { rd, rs, rt } => (op.code, op.a, op.b, op.c) = (OpCode::Nor, n(rd), n(rs), n(rt)),
        Slt { rd, rs, rt } => (op.code, op.a, op.b, op.c) = (OpCode::Slt, n(rd), n(rs), n(rt)),
        Sltu { rd, rs, rt } => (op.code, op.a, op.b, op.c) = (OpCode::Sltu, n(rd), n(rs), n(rt)),
        Sll { rd, rt, shamt } => {
            (op.code, op.a, op.b, op.imm) = (OpCode::Sll, n(rd), n(rt), u32::from(shamt))
        }
        Srl { rd, rt, shamt } => {
            (op.code, op.a, op.b, op.imm) = (OpCode::Srl, n(rd), n(rt), u32::from(shamt))
        }
        Sra { rd, rt, shamt } => {
            (op.code, op.a, op.b, op.imm) = (OpCode::Sra, n(rd), n(rt), u32::from(shamt))
        }
        Sllv { rd, rt, rs } => (op.code, op.a, op.b, op.c) = (OpCode::Sllv, n(rd), n(rt), n(rs)),
        Srlv { rd, rt, rs } => (op.code, op.a, op.b, op.c) = (OpCode::Srlv, n(rd), n(rt), n(rs)),
        Srav { rd, rt, rs } => (op.code, op.a, op.b, op.c) = (OpCode::Srav, n(rd), n(rt), n(rs)),
        Mult { rs, rt } => (op.code, op.b, op.c) = (OpCode::Mult, n(rs), n(rt)),
        Multu { rs, rt } => (op.code, op.b, op.c) = (OpCode::Multu, n(rs), n(rt)),
        Div { rs, rt } => (op.code, op.b, op.c) = (OpCode::Div, n(rs), n(rt)),
        Divu { rs, rt } => (op.code, op.b, op.c) = (OpCode::Divu, n(rs), n(rt)),
        Mfhi { rd } => (op.code, op.a) = (OpCode::Mfhi, n(rd)),
        Mflo { rd } => (op.code, op.a) = (OpCode::Mflo, n(rd)),
        Mthi { rs } => (op.code, op.b) = (OpCode::Mthi, n(rs)),
        Mtlo { rs } => (op.code, op.b) = (OpCode::Mtlo, n(rs)),
        Addi { rt, rs, imm } | Addiu { rt, rs, imm } => {
            (op.code, op.a, op.b, op.imm) = (OpCode::Addiu, n(rt), n(rs), imm as i32 as u32)
        }
        Slti { rt, rs, imm } => {
            (op.code, op.a, op.b, op.imm) = (OpCode::Slti, n(rt), n(rs), imm as i32 as u32)
        }
        Sltiu { rt, rs, imm } => {
            (op.code, op.a, op.b, op.imm) = (OpCode::Sltiu, n(rt), n(rs), imm as i32 as u32)
        }
        Andi { rt, rs, imm } => {
            (op.code, op.a, op.b, op.imm) = (OpCode::Andi, n(rt), n(rs), u32::from(imm))
        }
        Ori { rt, rs, imm } => {
            (op.code, op.a, op.b, op.imm) = (OpCode::Ori, n(rt), n(rs), u32::from(imm))
        }
        Xori { rt, rs, imm } => {
            (op.code, op.a, op.b, op.imm) = (OpCode::Xori, n(rt), n(rs), u32::from(imm))
        }
        Lui { rt, imm } => (op.code, op.a, op.imm) = (OpCode::Lui, n(rt), u32::from(imm) << 16),
        Lb { rt, base, offset } => {
            (op.code, op.a, op.b, op.imm) = (OpCode::Lb, n(rt), n(base), offset as i32 as u32)
        }
        Lbu { rt, base, offset } => {
            (op.code, op.a, op.b, op.imm) = (OpCode::Lbu, n(rt), n(base), offset as i32 as u32)
        }
        Lh { rt, base, offset } => {
            (op.code, op.a, op.b, op.imm) = (OpCode::Lh, n(rt), n(base), offset as i32 as u32)
        }
        Lhu { rt, base, offset } => {
            (op.code, op.a, op.b, op.imm) = (OpCode::Lhu, n(rt), n(base), offset as i32 as u32)
        }
        Lw { rt, base, offset } => {
            (op.code, op.a, op.b, op.imm) = (OpCode::Lw, n(rt), n(base), offset as i32 as u32)
        }
        Sb { rt, base, offset } => {
            (op.code, op.c, op.b, op.imm) = (OpCode::Sb, n(rt), n(base), offset as i32 as u32)
        }
        Sh { rt, base, offset } => {
            (op.code, op.c, op.b, op.imm) = (OpCode::Sh, n(rt), n(base), offset as i32 as u32)
        }
        Sw { rt, base, offset } => {
            (op.code, op.c, op.b, op.imm) = (OpCode::Sw, n(rt), n(base), offset as i32 as u32)
        }
        Beq { rs, rt, .. } => {
            (op.code, op.b, op.c) = (OpCode::Beq, n(rs), n(rt));
            op.imm = target;
        }
        Bne { rs, rt, .. } => {
            (op.code, op.b, op.c) = (OpCode::Bne, n(rs), n(rt));
            op.imm = target;
        }
        Blez { rs, .. } => {
            (op.code, op.b) = (OpCode::Blez, n(rs));
            op.imm = target;
        }
        Bgtz { rs, .. } => {
            (op.code, op.b) = (OpCode::Bgtz, n(rs));
            op.imm = target;
        }
        Bltz { rs, .. } => {
            (op.code, op.b) = (OpCode::Bltz, n(rs));
            op.imm = target;
        }
        Bgez { rs, .. } => {
            (op.code, op.b) = (OpCode::Bgez, n(rs));
            op.imm = target;
        }
        J { .. } => {
            op.code = OpCode::J;
            op.imm = target;
        }
        Jal { .. } => {
            op.code = OpCode::Jal;
            op.imm = target;
        }
        Jr { rs } => (op.code, op.b) = (OpCode::Jr, n(rs)),
        Jalr { rd, rs } => (op.code, op.a, op.b) = (OpCode::Jalr, n(rd), n(rs)),
        Break { code } => (op.code, op.imm) = (OpCode::Break, code),
    }
    op
}

/// Returns `true` for micro-ops that (may) transfer control, including the
/// fused compare-and-branch superinstructions.
pub(crate) fn is_control(code: OpCode) -> bool {
    matches!(
        code,
        OpCode::Beq
            | OpCode::Bne
            | OpCode::Blez
            | OpCode::Bgtz
            | OpCode::Bltz
            | OpCode::Bgez
            | OpCode::J
            | OpCode::Jal
            | OpCode::Jr
            | OpCode::Jalr
            | OpCode::Break
            | OpCode::FCmpBeqz
            | OpCode::FCmpBnez
            | OpCode::FAddiuCmpBeqz
            | OpCode::FAddiuCmpBnez
    )
}

/// Fuses the ops of one recorded round into the dense sequence a
/// superblock segment dispatches: each matched pattern becomes one
/// superinstruction covering `width` slots; every other op is kept as is.
///
/// Matching is greedy left-to-right (longest pattern first) and never
/// starts at a control op. Control enters a round only at its first slot,
/// so no pattern can be entered part-way.
pub(crate) fn fuse(ops: &[Op]) -> Vec<Op> {
    let mut dense = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        let op = if is_control(ops[i].code) {
            ops[i]
        } else {
            fuse_at(ops, i).unwrap_or(ops[i])
        };
        dense.push(op);
        i += op.width as usize;
    }
    dense
}

/// Attempts to fuse the pattern starting at `i`. Fused ops re-read the
/// register file between constituent writes, so chained, independent, and
/// `$zero`-destination forms are all handled by one generic encoding.
fn fuse_at(ops: &[Op], i: usize) -> Option<Op> {
    let a = ops[i];
    let b = *ops.get(i + 1)?;
    // Triples first (longest match wins).
    if let Some(&c) = ops.get(i + 2) {
        // addiu; slt/sltu; beq/bne rd, $zero — the counted-loop back edge
        // as one fused *control* op (executes in the dispatch epilogue).
        // The addiu source rides in `e` next to the compare sub-kind.
        if a.code == OpCode::Addiu
            && matches!(b.code, OpCode::Slt | OpCode::Sltu)
            && matches!(c.code, OpCode::Beq | OpCode::Bne)
            && b.a != 0
            && ((c.b == b.a && c.c == 0) || (c.b == 0 && c.c == b.a))
        {
            return Some(Op {
                code: if c.code == OpCode::Beq {
                    OpCode::FAddiuCmpBeqz
                } else {
                    OpCode::FAddiuCmpBnez
                },
                a: b.a,
                b: b.b,
                c: b.c,
                d: a.a,
                e: (a.b << 1) | u8::from(b.code == OpCode::Sltu),
                width: 3,
                cyc: a.cyc + b.cyc + c.cyc,
                imm: c.imm,
                imm2: a.imm,
            });
        }
        // mult; mflo; addu — multiply-accumulate (the addu consumes the
        // product register).
        if a.code == OpCode::Mult && b.code == OpCode::Mflo && c.code == OpCode::Addu {
            let other = if c.b == b.a {
                Some(c.c)
            } else if c.c == b.a {
                Some(c.b)
            } else {
                None
            };
            if let Some(other) = other {
                return Some(Op {
                    code: OpCode::FMultMfloAddu,
                    a: b.a,
                    b: a.b,
                    c: a.c,
                    d: c.a,
                    e: other,
                    width: 3,
                    cyc: a.cyc + b.cyc + c.cyc,
                    imm: 0,
                    imm2: 0,
                });
            }
        }
        if a.code == OpCode::Sll && b.code == OpCode::Addu {
            // The addu must consume the sll result (either operand —
            // addition commutes) and the memory base must be the addu
            // result; intermediates are still architecturally written.
            let other = if b.b == a.a {
                Some(b.c)
            } else if b.c == a.a {
                Some(b.b)
            } else {
                None
            };
            if let Some(other) = other {
                let fields = Op {
                    a: 0,
                    b: a.b,
                    c: other,
                    d: a.a,
                    e: b.a,
                    width: 3,
                    cyc: a.cyc + b.cyc + c.cyc,
                    imm: c.imm,
                    imm2: a.imm,
                    ..a
                };
                if c.code == OpCode::Lw && c.b == b.a {
                    return Some(Op {
                        code: OpCode::FSllAdduLw,
                        a: c.a,
                        ..fields
                    });
                }
                if c.code == OpCode::Sw && c.b == b.a {
                    return Some(Op {
                        code: OpCode::FSllAdduSw,
                        a: c.c,
                        ..fields
                    });
                }
            }
        }
    }
    let pair = |code: OpCode| Op {
        code,
        a: a.a,
        b: a.b,
        c: b.b,
        d: b.a,
        e: 0,
        width: 2,
        cyc: a.cyc + b.cyc,
        imm: a.imm,
        imm2: b.imm,
    };
    match (a.code, b.code) {
        // addiu rd1, rs1, i1 ; addiu rd2, rs2, i2 — 12 % of dynamic ops.
        (OpCode::Addiu, OpCode::Addiu) => Some(pair(OpCode::FAddiuAddiu)),
        // mult rs, rt ; mflo rd — hi/lo still written architecturally.
        (OpCode::Mult, OpCode::Mflo) => Some(Op {
            code: OpCode::FMultMflo,
            a: b.a,
            b: a.b,
            c: a.c,
            d: 0,
            e: 0,
            width: 2,
            cyc: a.cyc + b.cyc,
            imm: 0,
            imm2: 0,
        }),
        (OpCode::Multu, OpCode::Mflo) => Some(Op {
            code: OpCode::FMultuMflo,
            a: b.a,
            b: a.b,
            c: a.c,
            d: 0,
            e: 0,
            width: 2,
            cyc: a.cyc + b.cyc,
            imm: 0,
            imm2: 0,
        }),
        // lui rt, hi ; ori/addiu rd, rs, lo — the `li` constant idioms.
        (OpCode::Lui, OpCode::Ori) => Some(pair(OpCode::FLuiOri)),
        (OpCode::Lui, OpCode::Addiu) => Some(pair(OpCode::FLuiAddiu)),
        // slt-class compare feeding beq/bne against $zero: a fused control
        // op (executes in the dispatch epilogue). The compare destination
        // must be a real register and one branch operand must be $zero.
        (OpCode::Slt | OpCode::Sltu | OpCode::Slti | OpCode::Sltiu, OpCode::Beq | OpCode::Bne)
            if a.a != 0 && ((b.b == a.a && b.c == 0) || (b.b == 0 && b.c == a.a)) =>
        {
            let kind = match a.code {
                OpCode::Slt => 0,
                OpCode::Sltu => 1,
                OpCode::Slti => 2,
                _ => 3,
            };
            Some(Op {
                code: if b.code == OpCode::Beq {
                    OpCode::FCmpBeqz
                } else {
                    OpCode::FCmpBnez
                },
                a: a.a,
                b: a.b,
                c: a.c,
                d: 0,
                e: kind,
                width: 2,
                cyc: a.cyc + b.cyc,
                imm: b.imm,
                imm2: a.imm,
            })
        }
        // addiu rd, rs, i ; lw/sw rt, off(base) — pointer-bump memory ops.
        (OpCode::Addiu, OpCode::Lw) => Some(Op {
            code: OpCode::FAddiuLw,
            a: b.a,
            b: a.b,
            c: b.b,
            d: a.a,
            e: 0,
            width: 2,
            cyc: a.cyc + b.cyc,
            imm: a.imm,
            imm2: b.imm,
        }),
        (OpCode::Addiu, OpCode::Sw) => Some(Op {
            code: OpCode::FAddiuSw,
            a: 0,
            b: a.b,
            c: b.b,
            d: a.a,
            e: b.c,
            width: 2,
            cyc: a.cyc + b.cyc,
            imm: a.imm,
            imm2: b.imm,
        }),
        // The -O0 stack-traffic pairs: spill/reload chains and
        // reload-feeds-ALU. All generic (sequential semantics); loads and
        // stores report faults at their own slot.
        (OpCode::Sw, OpCode::Lw) => Some(Op {
            code: OpCode::FSwLw,
            a: b.a,
            b: a.b,
            c: a.c,
            d: b.b,
            e: 0,
            width: 2,
            cyc: a.cyc + b.cyc,
            imm: a.imm,
            imm2: b.imm,
        }),
        (OpCode::Lw, OpCode::Sw) => Some(Op {
            code: OpCode::FLwSw,
            a: a.a,
            b: a.b,
            c: b.b,
            d: 0,
            e: b.c,
            width: 2,
            cyc: a.cyc + b.cyc,
            imm: a.imm,
            imm2: b.imm,
        }),
        (OpCode::Lw, OpCode::Lw) => Some(Op {
            code: OpCode::FLwLw,
            a: a.a,
            b: a.b,
            c: b.b,
            d: b.a,
            e: 0,
            width: 2,
            cyc: a.cyc + b.cyc,
            imm: a.imm,
            imm2: b.imm,
        }),
        (OpCode::Lw, OpCode::Addiu) => Some(Op {
            code: OpCode::FLwAddiu,
            a: a.a,
            b: a.b,
            c: 0,
            d: b.a,
            e: b.b,
            width: 2,
            cyc: a.cyc + b.cyc,
            imm: a.imm,
            imm2: b.imm,
        }),
        (OpCode::Lw, OpCode::Addu) => Some(Op {
            code: OpCode::FLwAddu,
            a: a.a,
            b: a.b,
            c: b.c,
            d: b.a,
            e: b.b,
            width: 2,
            cyc: a.cyc + b.cyc,
            imm: a.imm,
            imm2: 0,
        }),
        (OpCode::Addu, OpCode::Sw) => Some(Op {
            code: OpCode::FAdduSw,
            a: b.b,
            b: a.b,
            c: a.c,
            d: a.a,
            e: b.c,
            width: 2,
            cyc: a.cyc + b.cyc,
            imm: b.imm,
            imm2: 0,
        }),
        // addu rd, rs, rt ; lw/lbu rt2, off(rd) — register-indexed loads.
        (OpCode::Addu, OpCode::Lw | OpCode::Lbu) if b.b == a.a => Some(Op {
            code: if b.code == OpCode::Lw {
                OpCode::FAdduLw
            } else {
                OpCode::FAdduLbu
            },
            a: b.a,
            b: a.b,
            c: a.c,
            d: a.a,
            e: 0,
            width: 2,
            cyc: a.cyc + b.cyc,
            imm: b.imm,
            imm2: 0,
        }),
        // Generic hot ALU pairs: op1(a, b, imm) ; op2(d, e, imm2). Each
        // arm is straight-line code — no inner sub-kind dispatch.
        (OpCode::Addu, OpCode::Addiu) => Some(Op {
            code: OpCode::FAdduAddiu,
            a: a.a,
            b: a.b,
            c: a.c,
            d: b.a,
            e: b.b,
            width: 2,
            cyc: a.cyc + b.cyc,
            imm: 0,
            imm2: b.imm,
        }),
        (OpCode::Sll, OpCode::Addiu) => Some(pair2(OpCode::FSllAddiu, a, b)),
        (OpCode::Addiu, OpCode::Srl) => Some(pair2(OpCode::FAddiuSrl, a, b)),
        (OpCode::Srl, OpCode::Addiu) => Some(pair2(OpCode::FSrlAddiu, a, b)),
        (OpCode::Ori, OpCode::Addiu) => Some(pair2(OpCode::FOriAddiu, a, b)),
        _ => None,
    }
}

/// Pair constructor for two immediate-form ALU ops: `op1(a, b, imm)` then
/// `op2(d, e, imm2)`.
fn pair2(code: OpCode, a: Op, b: Op) -> Op {
    Op {
        code,
        a: a.a,
        b: a.b,
        c: 0,
        d: b.a,
        e: b.b,
        width: 2,
        cyc: a.cyc + b.cyc,
        imm: a.imm,
        imm2: b.imm,
    }
}

/// Per-index dispatch plan, precomputed at load so the run loop's block
/// dispatcher does no op-kind inspection: low 24 bits are the plain
/// (non-control) run length starting at this index; bit 31 says the run is
/// terminated by a fusable control op (any control transfer except `break`)
/// whose delay slot is plain — i.e. the whole run + control + slot can
/// execute in one dispatch round.
const PLAN_FUSED: u32 = 1 << 31;
const PLAN_LEN: u32 = (1 << 24) - 1;

/// Builds the dispatch plan over `ops`, with *dispatch boundaries*: at
/// every index marked in `boundary`, a dispatch round must begin (so the
/// outer loop's pc checks — halt, watch, budget — observe that address).
/// Straight-line runs are truncated to end just before a boundary, and a
/// control op loses its epilogue flag when its delay slot is a boundary or
/// not a plain op. An empty `boundary` marks nothing.
fn build_plans(ops: &[Op], boundary: &[bool]) -> Vec<u32> {
    let bounded = |k: usize| boundary.get(k).copied().unwrap_or(false);
    let mut v = vec![0u32; ops.len()];
    for i in (0..ops.len()).rev() {
        if !is_control(ops[i].code) {
            if bounded(i + 1) {
                // The run must stop at the boundary: just this op, and the
                // run's end is not the fusable control op.
                v[i] = 1;
                continue;
            }
            let next = v.get(i + 1).copied().unwrap_or(0);
            let len = (next & PLAN_LEN) + 1;
            if len >= PLAN_LEN {
                // Saturated: the run is truncated, so its end is not the
                // fusable control op — drop the flag.
                v[i] = PLAN_LEN;
            } else {
                v[i] = len | (next & PLAN_FUSED);
            }
        } else if ops[i].code != OpCode::Break {
            let slot = i + 1;
            if slot < ops.len() && !is_control(ops[slot].code) && !bounded(slot) {
                v[i] = PLAN_FUSED;
            }
        }
    }
    v
}

/// How the generic run loop ended (normal completion or a watched pc).
enum RunControl {
    /// The program finished for `reason`.
    Done(ExitReason),
    /// A watched pc was reached in the sequential state.
    Watched(u32),
}

/// How one executed micro-op leaves control flow.
pub(crate) enum Outcome {
    /// Sequential: the delay slot's successor is `next_pc + 4`.
    Next,
    /// Taken control transfer: after the delay slot, continue here.
    Jump(u32),
    /// `break code` executed (no delay slot).
    Brk(u32),
}

#[inline(always)]
fn reg_read(regs: &[u32; 32], r: u8) -> u32 {
    regs[(r & 31) as usize]
}

#[inline(always)]
fn reg_write(regs: &mut [u32; 32], r: u8, v: u32) {
    if r != 0 {
        regs[(r & 31) as usize] = v;
    }
}

/// Comparison result of a fused compare-and-branch op (`e` selects the
/// slt-class sub-kind; register/immediate second operand per kind).
#[inline(always)]
fn cmp_value(regs: &[u32; 32], op: Op) -> u32 {
    let l = reg_read(regs, op.b);
    match op.e {
        0 => ((l as i32) < (reg_read(regs, op.c) as i32)) as u32,
        1 => (l < reg_read(regs, op.c)) as u32,
        2 => ((l as i32) < (op.imm2 as i32)) as u32,
        _ => (l < op.imm2) as u32,
    }
}

/// Executes the `addiu` then `slt`/`sltu` constituents of a fused loop
/// back edge, writing both destinations and returning the comparison
/// result (the compare re-reads the register file, so it sees the addiu
/// write exactly like the unfused sequence). `e` packs the addiu source
/// register (high bits) and the sltu flag (bit 0).
#[inline(always)]
fn addiu_cmp_value(regs: &mut [u32; 32], op: Op) -> u32 {
    reg_write(regs, op.d, reg_read(regs, op.e >> 1).wrapping_add(op.imm2));
    let l = reg_read(regs, op.b);
    let r = reg_read(regs, op.c);
    let v = if op.e & 1 == 0 {
        ((l as i32) < (r as i32)) as u32
    } else {
        (l < r) as u32
    };
    reg_write(regs, op.a, v);
    v
}

/// Resolves a dispatch-round-terminating control op: evaluates the
/// condition (executing any fused compare constituents' register writes),
/// performs link writes, and returns the taken
/// target — `None` for a not-taken conditional. Shared by the fused
/// epilogue of the dispatch loop and the superblock trace executor so the
/// two cannot diverge. Must run *before* the delay slot (the slot must see
/// link writes, and the target must use pre-slot register values).
///
/// `cop` must be a fusable control op: any control except `Break`.
#[inline(always)]
pub(crate) fn resolve_control(cop: Op, ctl_pc: u32, regs: &mut [u32; 32]) -> Option<u32> {
    match cop.code {
        OpCode::Beq => (reg_read(regs, cop.b) == reg_read(regs, cop.c)).then_some(cop.imm),
        OpCode::Bne => (reg_read(regs, cop.b) != reg_read(regs, cop.c)).then_some(cop.imm),
        OpCode::Blez => ((reg_read(regs, cop.b) as i32) <= 0).then_some(cop.imm),
        OpCode::Bgtz => ((reg_read(regs, cop.b) as i32) > 0).then_some(cop.imm),
        OpCode::Bltz => ((reg_read(regs, cop.b) as i32) < 0).then_some(cop.imm),
        OpCode::Bgez => ((reg_read(regs, cop.b) as i32) >= 0).then_some(cop.imm),
        OpCode::FCmpBeqz => {
            let v = cmp_value(regs, cop);
            reg_write(regs, cop.a, v);
            (v == 0).then_some(cop.imm)
        }
        OpCode::FCmpBnez => {
            let v = cmp_value(regs, cop);
            reg_write(regs, cop.a, v);
            (v != 0).then_some(cop.imm)
        }
        OpCode::FAddiuCmpBeqz => {
            let v = addiu_cmp_value(regs, cop);
            (v == 0).then_some(cop.imm)
        }
        OpCode::FAddiuCmpBnez => {
            let v = addiu_cmp_value(regs, cop);
            (v != 0).then_some(cop.imm)
        }
        OpCode::J => Some(cop.imm),
        OpCode::Jal => {
            reg_write(regs, 31, ctl_pc.wrapping_add(8));
            Some(cop.imm)
        }
        OpCode::Jr => Some(reg_read(regs, cop.b)),
        OpCode::Jalr => {
            let t = reg_read(regs, cop.b);
            reg_write(regs, cop.a, ctl_pc.wrapping_add(8));
            Some(t)
        }
        // `build_plans` flags only non-`break` control ops, and every
        // segment's control op is such a flagged round's, maybe fused.
        _ => unreachable!("fusable excludes non-control and break"),
    }
}

/// `addr` if it is a multiple of `align` (2 or 4); otherwise the
/// unaligned-access fault of the instruction at `pc`.
#[inline(always)]
fn aligned(addr: u32, align: u32, pc: u32) -> Result<u32, SimError> {
    if addr & (align - 1) == 0 {
        Ok(addr)
    } else {
        Err(SimError::Unaligned { addr, pc })
    }
}

/// Executes one micro-op (plain or fused) against the given architectural
/// state. Shared by the [`Machine::run`] loop and the superblock trace
/// executor so the two cannot diverge; `#[inline(always)]` keeps the run
/// loop a single flat frame. Fused arms execute their constituents' semantics in
/// original order against the real register file (re-reading registers
/// between writes), so chained, aliased, and `$zero`-destination forms
/// behave exactly like the unfused sequence; a faulting memory constituent
/// reports its error with the pc adjusted to its own slot, and constituents
/// after it are not executed (the caller recovers exact per-op accounting
/// from that pc).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_op<P: Profiler>(
    op: Op,
    pc: u32,
    idx: usize,
    regs: &mut [u32; 32],
    hi: &mut u32,
    lo: &mut u32,
    mem: &mut Memory,
    prof: &mut P,
) -> Result<Outcome, SimError> {
    let taken = match op.code {
        OpCode::Addu => {
            reg_write(
                regs,
                op.a,
                reg_read(regs, op.b).wrapping_add(reg_read(regs, op.c)),
            );
            false
        }
        OpCode::Subu => {
            reg_write(
                regs,
                op.a,
                reg_read(regs, op.b).wrapping_sub(reg_read(regs, op.c)),
            );
            false
        }
        OpCode::And => {
            reg_write(regs, op.a, reg_read(regs, op.b) & reg_read(regs, op.c));
            false
        }
        OpCode::Or => {
            reg_write(regs, op.a, reg_read(regs, op.b) | reg_read(regs, op.c));
            false
        }
        OpCode::Xor => {
            reg_write(regs, op.a, reg_read(regs, op.b) ^ reg_read(regs, op.c));
            false
        }
        OpCode::Nor => {
            reg_write(regs, op.a, !(reg_read(regs, op.b) | reg_read(regs, op.c)));
            false
        }
        OpCode::Slt => {
            reg_write(
                regs,
                op.a,
                ((reg_read(regs, op.b) as i32) < (reg_read(regs, op.c) as i32)) as u32,
            );
            false
        }
        OpCode::Sltu => {
            reg_write(
                regs,
                op.a,
                (reg_read(regs, op.b) < reg_read(regs, op.c)) as u32,
            );
            false
        }
        OpCode::Sll => {
            reg_write(regs, op.a, reg_read(regs, op.b) << (op.imm & 31));
            false
        }
        OpCode::Srl => {
            reg_write(regs, op.a, reg_read(regs, op.b) >> (op.imm & 31));
            false
        }
        OpCode::Sra => {
            reg_write(
                regs,
                op.a,
                ((reg_read(regs, op.b) as i32) >> (op.imm & 31)) as u32,
            );
            false
        }
        OpCode::Sllv => {
            reg_write(
                regs,
                op.a,
                reg_read(regs, op.b) << (reg_read(regs, op.c) & 0x1f),
            );
            false
        }
        OpCode::Srlv => {
            reg_write(
                regs,
                op.a,
                reg_read(regs, op.b) >> (reg_read(regs, op.c) & 0x1f),
            );
            false
        }
        OpCode::Srav => {
            reg_write(
                regs,
                op.a,
                ((reg_read(regs, op.b) as i32) >> (reg_read(regs, op.c) & 0x1f)) as u32,
            );
            false
        }
        OpCode::Mult => {
            let p = (reg_read(regs, op.b) as i32 as i64) * (reg_read(regs, op.c) as i32 as i64);
            *lo = p as u32;
            *hi = (p >> 32) as u32;
            false
        }
        OpCode::Multu => {
            let p = (reg_read(regs, op.b) as u64) * (reg_read(regs, op.c) as u64);
            *lo = p as u32;
            *hi = (p >> 32) as u32;
            false
        }
        OpCode::Div => {
            let (a, b) = (reg_read(regs, op.b) as i32, reg_read(regs, op.c) as i32);
            if b == 0 {
                // Architecturally UNPREDICTABLE; we pick a deterministic value.
                *lo = u32::MAX;
                *hi = a as u32;
            } else {
                *lo = a.wrapping_div(b) as u32;
                *hi = a.wrapping_rem(b) as u32;
            }
            false
        }
        OpCode::Divu => {
            let (a, b) = (reg_read(regs, op.b), reg_read(regs, op.c));
            if let Some(q) = a.checked_div(b) {
                *lo = q;
                *hi = a % b;
            } else {
                *lo = u32::MAX;
                *hi = a;
            }
            false
        }
        OpCode::Mfhi => {
            reg_write(regs, op.a, *hi);
            false
        }
        OpCode::Mflo => {
            reg_write(regs, op.a, *lo);
            false
        }
        OpCode::Mthi => {
            *hi = reg_read(regs, op.b);
            false
        }
        OpCode::Mtlo => {
            *lo = reg_read(regs, op.b);
            false
        }
        OpCode::Addiu => {
            reg_write(regs, op.a, reg_read(regs, op.b).wrapping_add(op.imm));
            false
        }
        OpCode::Slti => {
            reg_write(
                regs,
                op.a,
                ((reg_read(regs, op.b) as i32) < op.imm as i32) as u32,
            );
            false
        }
        OpCode::Sltiu => {
            reg_write(regs, op.a, (reg_read(regs, op.b) < op.imm) as u32);
            false
        }
        OpCode::Andi => {
            reg_write(regs, op.a, reg_read(regs, op.b) & op.imm);
            false
        }
        OpCode::Ori => {
            reg_write(regs, op.a, reg_read(regs, op.b) | op.imm);
            false
        }
        OpCode::Xori => {
            reg_write(regs, op.a, reg_read(regs, op.b) ^ op.imm);
            false
        }
        OpCode::Lui => {
            reg_write(regs, op.a, op.imm);
            false
        }
        OpCode::Lb => {
            let a = reg_read(regs, op.b).wrapping_add(op.imm);
            let v = mem.read_u8(a) as i8 as i32 as u32;
            reg_write(regs, op.a, v);
            false
        }
        OpCode::Lbu => {
            let a = reg_read(regs, op.b).wrapping_add(op.imm);
            let v = mem.read_u8(a) as u32;
            reg_write(regs, op.a, v);
            false
        }
        OpCode::Lh => {
            let a = aligned(reg_read(regs, op.b).wrapping_add(op.imm), 2, pc)?;
            let v = mem.read_u16(a) as i16 as i32 as u32;
            reg_write(regs, op.a, v);
            false
        }
        OpCode::Lhu => {
            let a = aligned(reg_read(regs, op.b).wrapping_add(op.imm), 2, pc)?;
            let v = mem.read_u16(a) as u32;
            reg_write(regs, op.a, v);
            false
        }
        OpCode::Lw => {
            let a = aligned(reg_read(regs, op.b).wrapping_add(op.imm), 4, pc)?;
            let v = mem.read_u32(a);
            reg_write(regs, op.a, v);
            false
        }
        OpCode::Sb => {
            let a = reg_read(regs, op.b).wrapping_add(op.imm);
            let v = reg_read(regs, op.c);
            prof.on_store_at(a, 1, v);
            mem.write_u8(a, v as u8);
            false
        }
        OpCode::Sh => {
            let a = aligned(reg_read(regs, op.b).wrapping_add(op.imm), 2, pc)?;
            let v = reg_read(regs, op.c);
            prof.on_store_at(a, 2, v);
            mem.write_u16(a, v as u16);
            false
        }
        OpCode::Sw => {
            let a = aligned(reg_read(regs, op.b).wrapping_add(op.imm), 4, pc)?;
            let v = reg_read(regs, op.c);
            prof.on_store_at(a, 4, v);
            mem.write_u32(a, v);
            false
        }
        OpCode::FAddiuAddiu => {
            reg_write(regs, op.a, reg_read(regs, op.b).wrapping_add(op.imm));
            reg_write(regs, op.d, reg_read(regs, op.c).wrapping_add(op.imm2));
            false
        }
        OpCode::FMultMflo => {
            let p = (reg_read(regs, op.b) as i32 as i64) * (reg_read(regs, op.c) as i32 as i64);
            *lo = p as u32;
            *hi = (p >> 32) as u32;
            reg_write(regs, op.a, *lo);
            false
        }
        OpCode::FMultuMflo => {
            let p = (reg_read(regs, op.b) as u64) * (reg_read(regs, op.c) as u64);
            *lo = p as u32;
            *hi = (p >> 32) as u32;
            reg_write(regs, op.a, *lo);
            false
        }
        OpCode::FLuiOri => {
            reg_write(regs, op.a, op.imm);
            reg_write(regs, op.d, reg_read(regs, op.c) | op.imm2);
            false
        }
        OpCode::FLuiAddiu => {
            reg_write(regs, op.a, op.imm);
            reg_write(regs, op.d, reg_read(regs, op.c).wrapping_add(op.imm2));
            false
        }
        OpCode::FAddiuLw => {
            reg_write(regs, op.d, reg_read(regs, op.b).wrapping_add(op.imm));
            let a = aligned(
                reg_read(regs, op.c).wrapping_add(op.imm2),
                4,
                pc.wrapping_add(4),
            )?;
            let v = mem.read_u32(a);
            reg_write(regs, op.a, v);
            false
        }
        OpCode::FAddiuSw => {
            reg_write(regs, op.d, reg_read(regs, op.b).wrapping_add(op.imm));
            let a = aligned(
                reg_read(regs, op.c).wrapping_add(op.imm2),
                4,
                pc.wrapping_add(4),
            )?;
            let v = reg_read(regs, op.e);
            prof.on_store_at(a, 4, v);
            mem.write_u32(a, v);
            false
        }
        OpCode::FSllAdduLw => {
            reg_write(regs, op.d, reg_read(regs, op.b) << (op.imm2 & 31));
            reg_write(
                regs,
                op.e,
                reg_read(regs, op.d).wrapping_add(reg_read(regs, op.c)),
            );
            let a = aligned(
                reg_read(regs, op.e).wrapping_add(op.imm),
                4,
                pc.wrapping_add(8),
            )?;
            let v = mem.read_u32(a);
            reg_write(regs, op.a, v);
            false
        }
        OpCode::FSllAdduSw => {
            reg_write(regs, op.d, reg_read(regs, op.b) << (op.imm2 & 31));
            reg_write(
                regs,
                op.e,
                reg_read(regs, op.d).wrapping_add(reg_read(regs, op.c)),
            );
            let a = aligned(
                reg_read(regs, op.e).wrapping_add(op.imm),
                4,
                pc.wrapping_add(8),
            )?;
            let v = reg_read(regs, op.a);
            prof.on_store_at(a, 4, v);
            mem.write_u32(a, v);
            false
        }
        OpCode::FMultMfloAddu => {
            let p = (reg_read(regs, op.b) as i32 as i64) * (reg_read(regs, op.c) as i32 as i64);
            *lo = p as u32;
            *hi = (p >> 32) as u32;
            reg_write(regs, op.a, *lo);
            reg_write(
                regs,
                op.d,
                reg_read(regs, op.a).wrapping_add(reg_read(regs, op.e)),
            );
            false
        }
        OpCode::FAdduLw => {
            reg_write(
                regs,
                op.d,
                reg_read(regs, op.b).wrapping_add(reg_read(regs, op.c)),
            );
            let a = aligned(
                reg_read(regs, op.d).wrapping_add(op.imm),
                4,
                pc.wrapping_add(4),
            )?;
            let v = mem.read_u32(a);
            reg_write(regs, op.a, v);
            false
        }
        OpCode::FAdduLbu => {
            reg_write(
                regs,
                op.d,
                reg_read(regs, op.b).wrapping_add(reg_read(regs, op.c)),
            );
            let a = reg_read(regs, op.d).wrapping_add(op.imm);
            let v = mem.read_u8(a) as u32;
            reg_write(regs, op.a, v);
            false
        }
        OpCode::FSwLw => {
            let s = aligned(reg_read(regs, op.b).wrapping_add(op.imm), 4, pc)?;
            let sv = reg_read(regs, op.c);
            prof.on_store_at(s, 4, sv);
            mem.write_u32(s, sv);
            let l = aligned(
                reg_read(regs, op.d).wrapping_add(op.imm2),
                4,
                pc.wrapping_add(4),
            )?;
            let v = mem.read_u32(l);
            reg_write(regs, op.a, v);
            false
        }
        OpCode::FLwSw => {
            let l = aligned(reg_read(regs, op.b).wrapping_add(op.imm), 4, pc)?;
            let v = mem.read_u32(l);
            reg_write(regs, op.a, v);
            let s = aligned(
                reg_read(regs, op.c).wrapping_add(op.imm2),
                4,
                pc.wrapping_add(4),
            )?;
            let sv = reg_read(regs, op.e);
            prof.on_store_at(s, 4, sv);
            mem.write_u32(s, sv);
            false
        }
        OpCode::FLwLw => {
            let l1 = aligned(reg_read(regs, op.b).wrapping_add(op.imm), 4, pc)?;
            let v1 = mem.read_u32(l1);
            reg_write(regs, op.a, v1);
            let l2 = aligned(
                reg_read(regs, op.c).wrapping_add(op.imm2),
                4,
                pc.wrapping_add(4),
            )?;
            let v2 = mem.read_u32(l2);
            reg_write(regs, op.d, v2);
            false
        }
        OpCode::FLwAddiu => {
            let l = aligned(reg_read(regs, op.b).wrapping_add(op.imm), 4, pc)?;
            let v = mem.read_u32(l);
            reg_write(regs, op.a, v);
            reg_write(regs, op.d, reg_read(regs, op.e).wrapping_add(op.imm2));
            false
        }
        OpCode::FLwAddu => {
            let l = aligned(reg_read(regs, op.b).wrapping_add(op.imm), 4, pc)?;
            let v = mem.read_u32(l);
            reg_write(regs, op.a, v);
            reg_write(
                regs,
                op.d,
                reg_read(regs, op.e).wrapping_add(reg_read(regs, op.c)),
            );
            false
        }
        OpCode::FAdduSw => {
            reg_write(
                regs,
                op.d,
                reg_read(regs, op.b).wrapping_add(reg_read(regs, op.c)),
            );
            let s = aligned(
                reg_read(regs, op.a).wrapping_add(op.imm),
                4,
                pc.wrapping_add(4),
            )?;
            let v = reg_read(regs, op.e);
            prof.on_store_at(s, 4, v);
            mem.write_u32(s, v);
            false
        }
        OpCode::FAdduAddiu => {
            reg_write(
                regs,
                op.a,
                reg_read(regs, op.b).wrapping_add(reg_read(regs, op.c)),
            );
            reg_write(regs, op.d, reg_read(regs, op.e).wrapping_add(op.imm2));
            false
        }
        OpCode::FSllAddiu => {
            reg_write(regs, op.a, reg_read(regs, op.b) << (op.imm & 31));
            reg_write(regs, op.d, reg_read(regs, op.e).wrapping_add(op.imm2));
            false
        }
        OpCode::FAddiuSrl => {
            reg_write(regs, op.a, reg_read(regs, op.b).wrapping_add(op.imm));
            reg_write(regs, op.d, reg_read(regs, op.e) >> (op.imm2 & 31));
            false
        }
        OpCode::FSrlAddiu => {
            reg_write(regs, op.a, reg_read(regs, op.b) >> (op.imm & 31));
            reg_write(regs, op.d, reg_read(regs, op.e).wrapping_add(op.imm2));
            false
        }
        OpCode::FOriAddiu => {
            reg_write(regs, op.a, reg_read(regs, op.b) | op.imm);
            reg_write(regs, op.d, reg_read(regs, op.e).wrapping_add(op.imm2));
            false
        }
        OpCode::FCmpBeqz | OpCode::FCmpBnez | OpCode::FAddiuCmpBeqz | OpCode::FAddiuCmpBnez => {
            // `fuse` emits these only as a round's last op, which
            // `superblock::build_seg` takes as the segment's control op.
            unreachable!("fused compare-and-branch outside the control epilogue")
        }
        OpCode::Beq => reg_read(regs, op.b) == reg_read(regs, op.c),
        OpCode::Bne => reg_read(regs, op.b) != reg_read(regs, op.c),
        OpCode::Blez => (reg_read(regs, op.b) as i32) <= 0,
        OpCode::Bgtz => (reg_read(regs, op.b) as i32) > 0,
        OpCode::Bltz => (reg_read(regs, op.b) as i32) < 0,
        OpCode::Bgez => (reg_read(regs, op.b) as i32) >= 0,
        OpCode::J => return Ok(Outcome::Jump(op.imm)),
        OpCode::Jal => {
            reg_write(regs, 31, pc.wrapping_add(8));
            return Ok(Outcome::Jump(op.imm));
        }
        OpCode::Jr => return Ok(Outcome::Jump(reg_read(regs, op.b))),
        OpCode::Jalr => {
            let target = reg_read(regs, op.b);
            reg_write(regs, op.a, pc.wrapping_add(8));
            return Ok(Outcome::Jump(target));
        }
        OpCode::Break => return Ok(Outcome::Brk(op.imm)),
    };
    if taken {
        prof.on_taken(idx);
        Ok(Outcome::Jump(op.imm))
    } else {
        Ok(Outcome::Next)
    }
}

/// Executes a run of plain ops (all sequential, none control-transferring)
/// starting at `base_pc` / text index `start_idx`.
///
/// On success returns the cycle sum of the whole run; on a fault at
/// relative slot `k` returns `(k, cycles-including-faulting-op, error)` so
/// the caller can reconstruct the exact architectural counters the per-op
/// engine would have produced. Either way the profiler sees exactly one
/// `on_block` range covering every retired slot.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn run_block<P: Profiler>(
    ops: &[Op],
    base_pc: u32,
    start_idx: usize,
    regs: &mut [u32; 32],
    hi: &mut u32,
    lo: &mut u32,
    mem: &mut Memory,
    prof: &mut P,
) -> Result<u64, (usize, u64, SimError)> {
    let mut cyc_sum = 0u64;
    for (k, &op) in ops.iter().enumerate() {
        cyc_sum += u64::from(op.cyc);
        let pc = base_pc.wrapping_add((k as u32) * 4);
        match exec_op::<P>(op, pc, start_idx + k, regs, hi, lo, mem, prof) {
            Ok(Outcome::Next) => {}
            // `build_plans` counts only non-control ops into a run.
            Ok(_) => unreachable!("control op inside sequential run"),
            Err(e) => {
                prof.on_block(start_idx, k + 1, cyc_sum);
                return Err((k, cyc_sum, e));
            }
        }
    }
    prof.on_block(start_idx, ops.len(), cyc_sum);
    Ok(cyc_sum)
}

/// The simulator.
///
/// See the [crate-level example](crate) for typical use, and the
/// [module docs](self) for the fast-path design.
#[derive(Debug)]
pub struct Machine {
    regs: [u32; 32],
    hi: u32,
    lo: u32,
    pc: u32,
    next_pc: u32,
    /// Pre-decoded micro-ops, parallel to the text section: what the
    /// dispatcher executes, and what superblock segments fuse ([`fuse`]).
    ops: Vec<Op>,
    /// Per-index dispatch plan (run length + fusable-epilogue flag); see
    /// [`build_plans`].
    plans: Vec<u32>,
    text_base: u32,
    /// Data/stack memory (text is pre-decoded, not stored here).
    pub mem: Memory,
    config: SimConfig,
    /// The partial profile of the last run that faulted (empty otherwise).
    profile: Profile,
    cycles: u64,
    instrs: u64,
    /// Superblock trace cache ([`crate::superblock`]).
    sb: Box<superblock::TraceCache>,
}

impl Machine {
    /// Loads `binary` into a fresh machine.
    ///
    /// `$sp` is set to the configured stack top, `$ra` to [`HALT_PC`], and
    /// `$gp` to the data base. Initialized data is copied into memory (so
    /// jump tables and constants are readable).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadInstruction`] if the text section contains a
    /// word outside the supported subset.
    pub fn new(binary: &Binary) -> Result<Machine, SimError> {
        Machine::with_config(binary, SimConfig::default())
    }

    /// Like [`Machine::new`] with an explicit [`SimConfig`].
    ///
    /// # Errors
    ///
    /// Same as [`Machine::new`].
    pub fn with_config(binary: &Binary, config: SimConfig) -> Result<Machine, SimError> {
        let text = binary.decode_text()?;
        let ops: Vec<Op> = text
            .iter()
            .enumerate()
            .map(|(i, &instr)| {
                let pc = binary.text_base.wrapping_add((i as u32) * 4);
                lower(instr, pc, config.cycles.cycles_for(instr))
            })
            .collect();
        let plans = build_plans(&ops, &[]);
        let mut mem = Memory::new();
        mem.write_slice(binary.data_base, &binary.data);
        let mut regs = [0u32; 32];
        regs[Reg::Sp.number() as usize] = config.stack_top;
        regs[Reg::Ra.number() as usize] = HALT_PC;
        regs[Reg::Gp.number() as usize] = binary.data_base;
        let sb = Box::new(superblock::TraceCache::new(ops.len()));
        Ok(Machine {
            regs,
            hi: 0,
            lo: 0,
            pc: binary.entry,
            next_pc: binary.entry.wrapping_add(4),
            ops,
            plans,
            text_base: binary.text_base,
            mem,
            config,
            profile: Profile::new(binary.text_base, 0),
            cycles: 0,
            instrs: 0,
            sb,
        })
    }

    /// Forces a dispatch round to begin at each of the given pcs (in
    /// addition to every natural run start), so a bounded run's watch
    /// reliably observes them: straight-line runs are truncated there
    /// (`build_plans`). Out-of-text or unaligned pcs are ignored.
    /// Architectural behaviour is unchanged — only the dispatch grouping
    /// (and thus watch granularity) differs.
    pub fn set_dispatch_boundaries(&mut self, pcs: &[u32]) {
        let mut boundary = vec![false; self.ops.len()];
        for &pc in pcs {
            let off = pc.wrapping_sub(self.text_base);
            if off.is_multiple_of(4) && ((off / 4) as usize) < self.ops.len() {
                boundary[(off / 4) as usize] = true;
            }
        }
        self.plans = build_plans(&self.ops, &boundary);
        // Superblock traces are chains of dispatch rounds, so they bake in
        // the old round shapes: drop them all. Re-recorded traces are built
        // from the new bounded plans, which makes every boundary (e.g. a
        // hybrid machine's trap pcs) a mandatory segment start.
        self.sb.invalidate();
    }

    /// Aggregate superblock trace-cache statistics (all zeros while
    /// nothing got hot yet).
    pub fn trace_cache_stats(&self) -> superblock::TraceCacheStats {
        self.sb.stats()
    }

    /// Summaries of every installed superblock, in install order. See
    /// `examples/fusion_histogram.rs --superblocks`.
    pub fn trace_summaries(&self) -> Vec<superblock::TraceSummary> {
        self.sb.summaries()
    }

    /// Current register value.
    pub fn reg(&self, reg: Reg) -> u32 {
        self.regs[reg.number() as usize]
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// The whole register file (read-only view for accelerator dispatch).
    pub fn regs(&self) -> &[u32; 32] {
        &self.regs
    }

    /// Total cycles accumulated so far (across all run segments).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total instructions retired so far (across all run segments).
    pub fn instrs(&self) -> u64 {
        self.instrs
    }

    /// Runs until halt, `break`, or an error, collecting the [`Profile`]:
    /// exact per-instruction execution counts and per-branch taken counts.
    ///
    /// ```
    /// use binpart_mips::{Asm, Reg, BinaryBuilder, DEFAULT_TEXT_BASE};
    /// use binpart_mips::sim::Machine;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut a = Asm::new();
    /// let top = a.new_label();
    /// a.li(Reg::T0, 3);
    /// a.bind(top);
    /// a.addiu(Reg::T0, Reg::T0, -1);
    /// a.bgtz(Reg::T0, top); // back edge, taken twice
    /// a.nop();
    /// a.jr(Reg::Ra);
    /// a.nop();
    /// let binary = BinaryBuilder::new().text(a.finish()?).build();
    /// let exit = Machine::new(&binary)?.run()?;
    /// assert_eq!(exit.profile.count_at(DEFAULT_TEXT_BASE + 4), 3);
    /// assert_eq!(exit.profile.taken_at(DEFAULT_TEXT_BASE + 8), 2);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Any [`SimError`]; the machine state is left at the faulting point
    /// and the partial profile (the faulting instruction counted) in
    /// [`Machine::profile`].
    pub fn run(&mut self) -> Result<Exit, SimError> {
        self.run_with(&mut EdgeProfiler::default())
    }

    /// Like [`Machine::run`], but with every profile-counter update
    /// compiled out — for runs that only need architectural results
    /// (checksums, total cycles/instructions). The returned [`Exit`]
    /// carries an empty [`Profile`].
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    pub fn run_unprofiled(&mut self) -> Result<Exit, SimError> {
        self.run_with(&mut NullProfiler)
    }

    /// Runs with `prof`, monomorphizing the dispatch loop over its hooks.
    /// The returned [`Exit`] carries [`Profiler::take_profile`]'s result;
    /// on an error that result is left in [`Machine::profile`] instead.
    pub(crate) fn run_with<P: Profiler>(&mut self, prof: &mut P) -> Result<Exit, SimError> {
        prof.begin(self.text_base, self.ops.len());
        let stop = self.run_loop(prof, &NoWatch);
        let profile = prof.take_profile(self.text_base, self.ops.len());
        match stop {
            Ok(RunControl::Done(reason)) => {
                self.profile = Profile::new(self.text_base, 0);
                Ok(self.exit_with(reason, profile))
            }
            // `NoWatch::hit` is constant false.
            Ok(RunControl::Watched(_)) => unreachable!("NoWatch never hits"),
            Err(e) => {
                self.profile = profile;
                Err(e)
            }
        }
    }

    /// Runs until the program finishes **or control reaches a pc for which
    /// `watch` returns true** (checked at dispatch-round granularity in the
    /// sequential state, before the watched instruction executes — never
    /// inside a branch/delay-slot pair). Pair with
    /// [`Machine::set_dispatch_boundaries`] to guarantee a round starts at
    /// every address the watch cares about; otherwise a straight-line run
    /// may step over a watched pc without a check.
    ///
    /// On a trap the machine (registers, memory, counters, and the
    /// partially accumulated data in `prof`) is left exactly at the watched
    /// pc; calling `run_until` again resumes from there. On normal exit the
    /// profiler's data is taken into the returned [`Exit`].
    pub(crate) fn run_until<P: Profiler>(
        &mut self,
        prof: &mut P,
        watch: impl Fn(u32) -> bool,
    ) -> Result<RunStop, SimError> {
        prof.begin(self.text_base, self.ops.len());
        match self.run_loop(prof, &watch)? {
            RunControl::Done(reason) => {
                let profile = prof.take_profile(self.text_base, self.ops.len());
                Ok(RunStop::Exited(Box::new(self.exit_with(reason, profile))))
            }
            RunControl::Watched(pc) => Ok(RunStop::Trapped { pc }),
        }
    }

    fn exit_with(&self, reason: ExitReason, profile: Profile) -> Exit {
        Exit {
            reason,
            regs: self.regs,
            cycles: self.cycles,
            instrs: self.instrs,
            profile,
        }
    }

    fn run_loop<P: Profiler, W: PcWatch>(
        &mut self,
        prof: &mut P,
        watch: &W,
    ) -> Result<RunControl, SimError> {
        enum Stop {
            Halt,
            Brk(u32),
            Watched(u32),
            Err(SimError),
        }
        // Hoist all hot state into locals so the dispatch loop runs out of
        // registers; write everything back before building the exit.
        let max_steps = self.config.max_steps;
        let text_base = self.text_base;
        let mut regs = self.regs;
        let mut hi = self.hi;
        let mut lo = self.lo;
        let mut pc = self.pc;
        let mut next_pc = self.next_pc;
        let mut cycles = self.cycles;
        let mut instrs = self.instrs;
        let stop = {
            let ops = &self.ops[..];
            let plans = &self.plans[..];
            let mem = &mut self.mem;
            let sb = &mut *self.sb;
            loop {
                if pc == HALT_PC {
                    break Stop::Halt;
                }
                // Watch check: sequential state only, so a trap never lands
                // between a control op and its delay slot. NoWatch compiles
                // this out entirely.
                if next_pc == pc.wrapping_add(4) && watch.hit(pc) {
                    break Stop::Watched(pc);
                }
                if instrs >= max_steps {
                    break Stop::Err(SimError::MaxStepsExceeded { limit: max_steps });
                }
                let off = pc.wrapping_sub(text_base);
                let idx = (off >> 2) as usize;
                if off & 3 != 0 || idx >= ops.len() {
                    break Stop::Err(SimError::PcOutOfText { pc });
                }
                // Block dispatch: in the sequential state (no control
                // transfer pending in the delay-slot chain), execute the
                // whole straight-line run without per-op fetch checks or
                // pc bookkeeping, then — budget permitting — fold the
                // run-terminating control op and its delay slot into the
                // same dispatch round, so a tight loop iteration costs one
                // trip around this loop instead of three. The step budget
                // caps the run length so MaxSteps still fires at exactly
                // the right instruction.
                if next_pc == pc.wrapping_add(4) {
                    // Replay an installed trace from here, or feed the
                    // recorder/heat counters.
                    let tid = sb.lookup(idx);
                    if tid != superblock::NO_TRACE {
                        // Entering a trace closes any recording in flight
                        // (a trace head is as good a tail as any).
                        sb.finalize_recording(ops, text_base);
                        match sb.run(
                            tid,
                            ops,
                            text_base,
                            max_steps,
                            &mut regs,
                            &mut hi,
                            &mut lo,
                            mem,
                            prof,
                            watch,
                            &mut pc,
                            &mut next_pc,
                            &mut instrs,
                            &mut cycles,
                        ) {
                            superblock::TraceExit::Seq => continue,
                            // Budget too tight for the head segment: the
                            // interpreter below retires the exact partial
                            // round.
                            superblock::TraceExit::Interp => {}
                            superblock::TraceExit::Watched(p) => break Stop::Watched(p),
                            superblock::TraceExit::Err(e) => break Stop::Err(e),
                        }
                    } else {
                        sb.round_start(idx, ops, text_base);
                    }
                    let plan = plans[idx];
                    let len = u64::from(plan & PLAN_LEN);
                    let budget = max_steps - instrs;
                    let take = len.min(budget) as usize;
                    if take > 0 {
                        match run_block::<P>(
                            &ops[idx..idx + take],
                            pc,
                            idx,
                            &mut regs,
                            &mut hi,
                            &mut lo,
                            mem,
                            prof,
                        ) {
                            Ok(cyc_sum) => {
                                instrs += take as u64;
                                cycles += cyc_sum;
                                pc = pc.wrapping_add((take as u32) * 4);
                                next_pc = pc.wrapping_add(4);
                            }
                            Err((k, cyc_sum, e)) => {
                                instrs += k as u64 + 1;
                                cycles += cyc_sum;
                                pc = pc.wrapping_add((k as u32) * 4);
                                next_pc = pc.wrapping_add(4);
                                break Stop::Err(e);
                            }
                        }
                    }
                    // Fused control + delay slot epilogue (precomputed
                    // flag; only the budget needs re-checking at run time:
                    // budget >= len + 2 implies the whole run was taken,
                    // and the flag guarantees cidx and the slot are in
                    // bounds).
                    if plan & PLAN_FUSED != 0 && budget >= len + 2 {
                        let cidx = idx + take;
                        let cop = ops[cidx];
                        let ctl_pc = pc;
                        // Resolve the transfer before the slot runs (the
                        // slot must see link writes, and the target must
                        // use pre-slot register values) — seed order.
                        let target = resolve_control(cop, ctl_pc, &mut regs);
                        let slot_idx = cidx + 1;
                        let sop = ops[slot_idx];
                        let ctl_cyc = u64::from(cop.cyc) + u64::from(sop.cyc);
                        instrs += 2;
                        cycles += ctl_cyc;
                        // One contiguous retired range: control op + delay
                        // slot (the slot is counted even when it faults,
                        // matching the reference).
                        prof.on_block(cidx, 2, ctl_cyc);
                        let cond = !matches!(
                            cop.code,
                            OpCode::J | OpCode::Jal | OpCode::Jr | OpCode::Jalr
                        );
                        if cond && target.is_some() {
                            prof.on_taken(cidx);
                        }
                        let slot_pc = ctl_pc.wrapping_add(4);
                        let after_slot = target.unwrap_or_else(|| slot_pc.wrapping_add(4));
                        match exec_op::<P>(
                            sop, slot_pc, slot_idx, &mut regs, &mut hi, &mut lo, mem, prof,
                        ) {
                            Ok(Outcome::Next) => {}
                            // `build_plans` flags only plain delay slots.
                            Ok(_) => unreachable!("control op in fused delay slot"),
                            Err(e) => {
                                pc = slot_pc;
                                next_pc = after_slot;
                                break Stop::Err(e);
                            }
                        }
                        pc = after_slot;
                        next_pc = after_slot.wrapping_add(4);
                        // A full fused round just retired — exactly the
                        // unit a superblock segment replays. (This is the
                        // only recording site: partial rounds and
                        // slow-path ops end any active recording at the
                        // next round_start's continuity check.)
                        sb.record_round(
                            idx,
                            len as u32,
                            cond,
                            target.is_some(),
                            after_slot,
                            ops,
                            text_base,
                        );
                        continue;
                    }
                    if take > 0 {
                        continue;
                    }
                    // take == 0 and nothing fused: a `break`, a control op
                    // with a control/out-of-text slot, or a budget boundary
                    // — handle one op the slow way.
                }
                let op = ops[idx];
                instrs += 1;
                cycles += u64::from(op.cyc);
                prof.on_block(idx, 1, u64::from(op.cyc));
                match exec_op::<P>(op, pc, idx, &mut regs, &mut hi, &mut lo, mem, prof) {
                    Ok(Outcome::Next) => {
                        let t = next_pc.wrapping_add(4);
                        pc = next_pc;
                        next_pc = t;
                    }
                    Ok(Outcome::Jump(t)) => {
                        pc = next_pc;
                        next_pc = t;
                    }
                    Ok(Outcome::Brk(code)) => break Stop::Brk(code),
                    Err(e) => break Stop::Err(e),
                }
            }
        };
        self.regs = regs;
        self.hi = hi;
        self.lo = lo;
        self.pc = pc;
        self.next_pc = next_pc;
        self.cycles = cycles;
        self.instrs = instrs;
        match stop {
            Stop::Halt => Ok(RunControl::Done(ExitReason::Halt)),
            Stop::Brk(code) => Ok(RunControl::Done(ExitReason::Break(code))),
            Stop::Watched(pc) => Ok(RunControl::Watched(pc)),
            Stop::Err(e) => Err(e),
        }
    }

    /// The partial profile of the last run that faulted; empty after a
    /// run that completed (its profile moved into the [`Exit`]).
    pub fn profile(&self) -> &Profile {
        &self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceMachine;
    use crate::{Asm, BinaryBuilder};

    /// Where a run stopped: pc, registers, cycles, instrs, and the profile
    /// (the partial one after a fault).
    type Stopped = (u32, [u32; 32], u64, u64, Profile);

    fn stopped(m: &Machine) -> Stopped {
        (
            m.pc(),
            *m.regs(),
            m.cycles(),
            m.instrs(),
            m.profile().clone(),
        )
    }

    fn reference_stopped(m: &ReferenceMachine) -> Stopped {
        let p = m.profile();
        (
            m.pc(),
            Reg::ALL.map(|r| m.reg(r)),
            p.total_cycles,
            p.total_instrs,
            p.clone(),
        )
    }

    fn assemble(build: impl FnOnce(&mut Asm)) -> Binary {
        let mut a = Asm::new();
        build(&mut a);
        BinaryBuilder::new()
            .text(a.finish().expect("assembles"))
            .build()
    }

    /// Runs `binary` under `config` on [`Machine`] and on the reference
    /// engine, asserts the same error and the same stopping state, and
    /// returns the error and the machine.
    fn assert_fault_exact(binary: &Binary, config: SimConfig) -> (SimError, Machine) {
        let mut m = Machine::with_config(binary, config).expect("loads");
        let err = m.run().expect_err("faults");
        let mut r = ReferenceMachine::with_config(binary, config).expect("loads");
        let ref_err = r.run().expect_err("reference faults");
        assert_eq!(err, ref_err, "error");
        assert_eq!(stopped(&m), reference_stopped(&r), "stopping state");
        (err, m)
    }

    fn run_asm(build: impl FnOnce(&mut Asm)) -> Exit {
        let mut a = Asm::new();
        build(&mut a);
        let text = a.finish().expect("assembles");
        let binary = BinaryBuilder::new().text(text).build();
        let mut m = Machine::new(&binary).expect("loads");
        m.run().expect("runs")
    }

    #[test]
    fn delay_slot_executes_on_taken_branch() {
        // beq taken; delay slot sets $t1=7; target sets $v0=$t1.
        let exit = run_asm(|a| {
            let target = a.new_label();
            a.beq(Reg::Zero, Reg::Zero, target);
            a.li(Reg::T1, 7); // delay slot
            a.li(Reg::T1, 99); // skipped
            a.bind(target);
            a.mov(Reg::V0, Reg::T1);
            a.jr(Reg::Ra);
            a.nop();
        });
        assert_eq!(exit.reg(Reg::V0), 7);
    }

    #[test]
    fn delay_slot_executes_on_jump_and_jal_links_past_slot() {
        let exit = run_asm(|a| {
            let f = a.new_label();
            a.mov(Reg::S0, Reg::Ra); // save loader return address
            a.jal(f);
            a.li(Reg::A0, 5); // delay slot: argument setup
            a.mov(Reg::V0, Reg::V1);
            a.jr(Reg::S0);
            a.nop();
            a.bind(f);
            a.addiu(Reg::V1, Reg::A0, 1);
            a.jr(Reg::Ra);
            a.nop();
        });
        assert_eq!(exit.reg(Reg::V0), 6);
    }

    #[test]
    fn loop_sums_correctly_and_profile_counts() {
        let exit = run_asm(|a| {
            let top = a.new_label();
            a.li(Reg::T0, 100);
            a.li(Reg::V0, 0);
            a.bind(top);
            a.addu(Reg::V0, Reg::V0, Reg::T0);
            a.addiu(Reg::T0, Reg::T0, -1);
            a.bgtz(Reg::T0, top);
            a.nop();
            a.jr(Reg::Ra);
            a.nop();
        });
        assert_eq!(exit.reg(Reg::V0), 5050);
        // The loop body instruction at index 2 ran 100 times.
        assert_eq!(exit.profile.counts[2], 100);
        // The branch was taken 99 times.
        assert_eq!(exit.profile.taken[4], 99);
        assert_eq!(exit.profile.count_at(crate::DEFAULT_TEXT_BASE + 8), 100);
    }

    #[test]
    fn memory_ops_sign_and_zero_extend() {
        let exit = run_asm(|a| {
            a.li(Reg::T0, -1);
            a.sb(Reg::T0, 0, Reg::Sp);
            a.lb(Reg::V0, 0, Reg::Sp);
            a.lbu(Reg::V1, 0, Reg::Sp);
            a.li(Reg::T1, -2);
            a.sh(Reg::T1, 4, Reg::Sp);
            a.lh(Reg::A0, 4, Reg::Sp);
            a.lhu(Reg::A1, 4, Reg::Sp);
            a.jr(Reg::Ra);
            a.nop();
        });
        assert_eq!(exit.reg(Reg::V0), 0xffff_ffff);
        assert_eq!(exit.reg(Reg::V1), 0xff);
        assert_eq!(exit.reg(Reg::A0), 0xffff_fffe);
        assert_eq!(exit.reg(Reg::A1), 0xfffe);
    }

    #[test]
    fn mult_div_hi_lo() {
        let exit = run_asm(|a| {
            a.li(Reg::T0, -6);
            a.li(Reg::T1, 7);
            a.mult(Reg::T0, Reg::T1);
            a.mflo(Reg::V0); // -42
            a.li(Reg::T2, 17);
            a.li(Reg::T3, 5);
            a.div(Reg::T2, Reg::T3);
            a.mflo(Reg::V1); // 3
            a.mfhi(Reg::A0); // 2
            a.jr(Reg::Ra);
            a.nop();
        });
        assert_eq!(exit.reg(Reg::V0) as i32, -42);
        assert_eq!(exit.reg(Reg::V1), 3);
        assert_eq!(exit.reg(Reg::A0), 2);
    }

    #[test]
    fn div_by_zero_is_deterministic() {
        let exit = run_asm(|a| {
            a.li(Reg::T0, 9);
            a.li(Reg::T1, 0);
            a.div(Reg::T0, Reg::T1);
            a.mflo(Reg::V0);
            a.mfhi(Reg::V1);
            a.jr(Reg::Ra);
            a.nop();
        });
        assert_eq!(exit.reg(Reg::V0), u32::MAX);
        assert_eq!(exit.reg(Reg::V1), 9);
    }

    #[test]
    fn break_stops_with_code() {
        let exit = run_asm(|a| {
            a.li(Reg::V0, 3);
            a.brk(42);
        });
        assert_eq!(exit.reason, ExitReason::Break(42));
        assert_eq!(exit.reg(Reg::V0), 3);
    }

    #[test]
    fn unaligned_word_access_errors() {
        let mut a = Asm::new();
        a.li(Reg::T0, 2);
        a.lw(Reg::V0, 0, Reg::T0);
        a.jr(Reg::Ra);
        a.nop();
        let binary = BinaryBuilder::new().text(a.finish().unwrap()).build();
        let mut m = Machine::new(&binary).unwrap();
        let err = m.run().unwrap_err();
        assert!(matches!(err, SimError::Unaligned { addr: 2, .. }));
    }

    #[test]
    fn runaway_program_hits_step_limit() {
        let mut a = Asm::new();
        let top = a.new_label();
        a.bind(top);
        a.b(top);
        a.nop();
        let binary = BinaryBuilder::new().text(a.finish().unwrap()).build();
        let mut m = Machine::with_config(
            &binary,
            SimConfig {
                max_steps: 1000,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert!(matches!(
            m.run(),
            Err(SimError::MaxStepsExceeded { limit: 1000 })
        ));
    }

    #[test]
    fn data_section_visible_and_writable() {
        let data_base = crate::DEFAULT_DATA_BASE;
        let mut a = Asm::new();
        a.la(Reg::T0, data_base);
        a.lw(Reg::V0, 0, Reg::T0);
        a.addiu(Reg::V0, Reg::V0, 1);
        a.sw(Reg::V0, 0, Reg::T0);
        a.jr(Reg::Ra);
        a.nop();
        let binary = BinaryBuilder::new()
            .text(a.finish().unwrap())
            .data(41u32.to_le_bytes().to_vec())
            .build();
        let mut m = Machine::new(&binary).unwrap();
        let exit = m.run().unwrap();
        assert_eq!(exit.reg(Reg::V0), 42);
        assert_eq!(m.mem.read_u32(data_base), 42);
    }

    #[test]
    fn sltiu_sign_extends_then_compares_unsigned() {
        let exit = run_asm(|a| {
            a.li(Reg::T0, 5);
            a.sltiu(Reg::V0, Reg::T0, -1); // 5 < 0xffffffff => 1
            a.jr(Reg::Ra);
            a.nop();
        });
        assert_eq!(exit.reg(Reg::V0), 1);
    }

    #[test]
    fn writes_to_zero_register_discarded() {
        let exit = run_asm(|a| {
            a.li(Reg::Zero, 55);
            a.mov(Reg::V0, Reg::Zero);
            a.jr(Reg::Ra);
            a.nop();
        });
        assert_eq!(exit.reg(Reg::V0), 0);
    }

    #[test]
    fn unprofiled_run_matches_architectural_state() {
        let build = |a: &mut Asm| {
            let top = a.new_label();
            a.li(Reg::T0, 50);
            a.li(Reg::V0, 0);
            a.bind(top);
            a.addu(Reg::V0, Reg::V0, Reg::T0);
            a.sw(Reg::V0, 0, Reg::Sp);
            a.lw(Reg::V1, 0, Reg::Sp);
            a.addiu(Reg::T0, Reg::T0, -1);
            a.bgtz(Reg::T0, top);
            a.nop();
            a.jr(Reg::Ra);
            a.nop();
        };
        let profiled = run_asm(build);
        let mut a = Asm::new();
        build(&mut a);
        let binary = BinaryBuilder::new().text(a.finish().unwrap()).build();
        let mut m = Machine::new(&binary).unwrap();
        let plain = m.run_unprofiled().unwrap();
        assert_eq!(plain.regs, profiled.regs);
        assert_eq!(plain.cycles, profiled.cycles);
        assert_eq!(plain.instrs, profiled.instrs);
        assert_eq!(plain.reason, profiled.reason);
        // The unprofiled exit carries an empty profile.
        assert!(plain.profile.counts.is_empty());
        assert_eq!(plain.profile.total_instrs, 0);
    }

    #[test]
    fn run_moves_profile_out_of_machine() {
        let mut a = Asm::new();
        a.li(Reg::V0, 1);
        a.jr(Reg::Ra);
        a.nop();
        let binary = BinaryBuilder::new().text(a.finish().unwrap()).build();
        let mut m = Machine::new(&binary).unwrap();
        let exit = m.run().unwrap();
        assert_eq!(exit.profile.total_instrs, 3);
        assert_eq!(exit.profile.counts, vec![1, 1, 1]);
        // A completed run leaves no partial profile behind.
        assert!(m.profile().counts.is_empty());
        assert_eq!(m.profile().total_instrs, 0);
    }

    // ----------------------- Fusion unit tests ---------------------------

    /// Runs `binary` on [`Machine`] and on the reference engine and asserts
    /// bit-identical `Exit` state and `Profile`; returns the exit and the
    /// machine's trace-cache stats for further assertions.
    fn assert_exact(binary: &Binary) -> (Exit, superblock::TraceCacheStats) {
        let mut m = Machine::new(binary).expect("loads");
        let fast = m.run().expect("runs");
        let reference = ReferenceMachine::new(binary)
            .expect("loads")
            .run()
            .expect("runs");
        assert_eq!(fast.reason, reference.reason, "exit reason");
        assert_eq!(fast.regs, reference.regs, "registers");
        assert_eq!(fast.cycles, reference.cycles, "cycles");
        assert_eq!(fast.instrs, reference.instrs, "instrs");
        assert_eq!(fast.profile, reference.profile, "profile");
        (fast, m.trace_cache_stats())
    }

    /// Trips of [`hot_loop`]: well past the recorder's heat threshold.
    const HOT_TRIPS: i32 = 40;

    /// Text index of the first `body` op in [`hot_loop`] (after the one-op
    /// counter setup).
    const BODY: usize = 1;

    /// Wraps `body` in a loop of [`HOT_TRIPS`] trips counted down in `$s7`,
    /// then returns. Bodies only read `$s7`: feeding it into a pattern makes
    /// its values change per trip, so a constituent that read a stale
    /// register would show.
    fn hot_loop(a: &mut Asm, body: impl Fn(&mut Asm)) {
        let top = a.new_label();
        a.li(Reg::S7, HOT_TRIPS);
        a.bind(top);
        body(a);
        a.addiu(Reg::S7, Reg::S7, -1);
        a.bgtz(Reg::S7, top);
        a.nop();
        a.jr(Reg::Ra);
        a.nop();
    }

    /// Runs `body` inside a loop hot enough to install a superblock — the
    /// only place superinstructions are fused — and asserts bit-identical
    /// `Exit` state and `Profile` against the reference engine; returns the
    /// exit for further assertions.
    fn assert_fusion_exact(body: impl Fn(&mut Asm)) -> Exit {
        let (exit, stats) = assert_exact(&assemble(|a| hot_loop(a, &body)));
        assert!(stats.traces >= 1, "the hot loop should install a trace");
        assert!(stats.superblock_instrs > 0, "the body should replay fused");
        exit
    }

    #[test]
    fn fusion_addiu_addiu_chained_and_independent() {
        let exit = assert_fusion_exact(|a| {
            a.addiu(Reg::T0, Reg::S7, 5);
            a.addiu(Reg::T1, Reg::T0, 3); // chained: reads T0 just written
            a.addiu(Reg::T2, Reg::A0, 7); // independent
            a.addiu(Reg::T3, Reg::T3, 1); // self-chained
            a.addu(Reg::V0, Reg::T1, Reg::T2);
        });
        // The last trip runs with $s7 = 1.
        assert_eq!(exit.reg(Reg::V0), 9 + 7);
        assert_eq!(exit.reg(Reg::T3), HOT_TRIPS as u32);
    }

    #[test]
    fn fusion_mult_mflo_and_mac_chain() {
        let exit = assert_fusion_exact(|a| {
            a.li(Reg::T0, -6);
            a.addiu(Reg::T1, Reg::S7, 6);
            a.li(Reg::S0, 100);
            a.mult(Reg::T0, Reg::T1);
            a.mflo(Reg::T2);
            a.addu(Reg::V0, Reg::S0, Reg::T2); // mult+mflo+addu MAC triple
            a.multu(Reg::T1, Reg::T1);
            a.mflo(Reg::V1); // multu+mflo pair
            a.mfhi(Reg::A1); // hi must still be architecturally written
        });
        assert_eq!(exit.reg(Reg::V0) as i32, 58);
        assert_eq!(exit.reg(Reg::V1), 49); // the last trip: $t1 = 7
        assert_eq!(exit.reg(Reg::A1), 0);
    }

    #[test]
    fn fusion_li_idioms() {
        let exit = assert_fusion_exact(|a| {
            a.lui(Reg::T0, 0x1234);
            a.ori(Reg::T0, Reg::T0, 0x5678); // li via lui+ori
            a.lui(Reg::T1, 0x2000);
            a.addiu(Reg::T1, Reg::T1, -4); // li via lui+addiu
            a.addu(Reg::V0, Reg::T0, Reg::Zero);
            a.addu(Reg::V1, Reg::T1, Reg::Zero);
        });
        assert_eq!(exit.reg(Reg::V0), 0x1234_5678);
        assert_eq!(exit.reg(Reg::V1), 0x1fff_fffc);
    }

    #[test]
    fn fusion_compare_and_branch_loops() {
        // slt+bne back edge (and the addiu+slt+bne triple) drive a counted
        // loop; taken counts and the compare destination must match the
        // reference engine exactly.
        let exit = assert_fusion_exact(|a| {
            let top = a.new_label();
            a.li(Reg::T0, 0); // i
            a.li(Reg::V0, 0); // sum
            a.li(Reg::T2, 10); // n
            a.bind(top);
            a.addu(Reg::V0, Reg::V0, Reg::T0);
            a.addiu(Reg::T0, Reg::T0, 1);
            a.slt(Reg::T1, Reg::T0, Reg::T2);
            a.bne(Reg::T1, Reg::Zero, top);
            a.nop();
        });
        assert_eq!(exit.reg(Reg::V0), 45);
        assert_eq!(exit.reg(Reg::T1), 0); // compare result still written
    }

    #[test]
    fn fusion_sltu_beq_and_slti_variants() {
        let exit = assert_fusion_exact(|a| {
            let skip = a.new_label();
            let end = a.new_label();
            a.addiu(Reg::T0, Reg::S7, -30); // 10 down to -29
            a.sltiu(Reg::T1, Reg::T0, 10);
            a.beq(Reg::T1, Reg::Zero, skip); // taken unless 0 <= $t0 < 10
            a.nop();
            a.li(Reg::V0, 77);
            a.bind(skip);
            a.sltu(Reg::T2, Reg::Zero, Reg::T0); // $t0 != 0
            a.bne(Reg::T2, Reg::Zero, end); // taken unless $t0 = 0
            a.nop();
            a.li(Reg::V1, 55);
            a.bind(end);
        });
        assert_eq!(exit.reg(Reg::V0), 77);
        assert_eq!(exit.reg(Reg::V1), 55);
    }

    #[test]
    fn fusion_array_index_memory_idioms() {
        let exit = assert_fusion_exact(|a| {
            // a[i] load/store via sll+addu+lw / sll+addu+sw, plus the
            // addiu+lw pointer-bump and the -O0 spill pairs.
            a.li(Reg::S0, 0x2000); // base
            a.andi(Reg::T0, Reg::S7, 3); // index
            a.addiu(Reg::T1, Reg::S7, 41);
            a.sll(Reg::T2, Reg::T0, 2);
            a.addu(Reg::T2, Reg::S0, Reg::T2);
            a.sw(Reg::T1, 0, Reg::T2); // a[i] = s7 + 41 (sll+addu+sw)
            a.sll(Reg::T3, Reg::T0, 2);
            a.addu(Reg::T3, Reg::S0, Reg::T3);
            a.lw(Reg::V0, 0, Reg::T3); // v0 = a[i] (sll+addu+lw)
            a.addiu(Reg::T4, Reg::S0, 4);
            a.lw(Reg::V1, 0, Reg::T4); // v1 = a[1] (addiu+lw)
            a.sw(Reg::V1, 4, Reg::Sp); // lw;sw then sw;lw pairs
            a.lw(Reg::A0, 4, Reg::Sp);
        });
        assert_eq!(exit.reg(Reg::V0), 42);
        assert_eq!(exit.reg(Reg::V1), 42);
        assert_eq!(exit.reg(Reg::A0), 42);
    }

    #[test]
    fn fusion_disabled_across_branch_targets() {
        // The second addiu is a branch target: the trace's round starts
        // there, so the pair is never fused, and entering at it must retire
        // exactly one op with correct counts.
        let exit = assert_fusion_exact(|a| {
            let mid = a.new_label();
            let done = a.new_label();
            a.li(Reg::T0, 1);
            a.beq(Reg::Zero, Reg::Zero, mid);
            a.nop();
            a.addiu(Reg::V0, Reg::Zero, 100); // skipped by the branch
            a.bind(mid);
            a.addiu(Reg::V0, Reg::V0, 5); // branch target mid-"pair"
            a.beq(Reg::Zero, Reg::Zero, done);
            a.nop();
            a.bind(done);
        });
        // The first addiu never ran; only the target one did.
        assert_eq!(exit.reg(Reg::V0), 5 * HOT_TRIPS as u32);
        assert_eq!(exit.profile.counts[BODY + 3], 0);
        assert_eq!(exit.profile.counts[BODY + 4], HOT_TRIPS as u64);
    }

    #[test]
    fn fusion_first_constituent_in_delay_slot_executes_once() {
        // The delay slot op would pair with its successor; when executed
        // *as a slot* it must retire alone (the successor belongs to the
        // branch target path only if control falls through).
        let exit = assert_fusion_exact(|a| {
            let target = a.new_label();
            a.li(Reg::T0, 1);
            a.beq(Reg::Zero, Reg::Zero, target);
            a.addiu(Reg::V0, Reg::Zero, 7); // delay slot: first of a "pair"
            a.addiu(Reg::V0, Reg::V0, 100); // skipped (taken branch)
            a.bind(target);
            a.addiu(Reg::V1, Reg::V0, 1);
        });
        assert_eq!(exit.reg(Reg::V0), 7);
        assert_eq!(exit.reg(Reg::V1), 8);
        // The slot ran once per trip; its successor never.
        assert_eq!(exit.profile.counts[BODY + 2], HOT_TRIPS as u64);
        assert_eq!(exit.profile.counts[BODY + 3], 0);
    }

    #[test]
    fn fusion_step_budget_splits_superinstruction() {
        // A budget that expires between two constituents of a fused pair
        // must retire only the first one, exactly like the reference engine
        // — before the trace exists and long after it is installed. Each
        // trip retires 5 ops (the pair, then the loop tail); trip `k`'s
        // pair sits at steps `BODY + 5k` and `BODY + 5k + 1`.
        let binary = assemble(|a| {
            hot_loop(a, |a| {
                a.addiu(Reg::T0, Reg::T0, 1);
                a.addiu(Reg::T1, Reg::T1, 2); // fused pair with the first
            })
        });
        let trips = [0u64, 1, 2, 12, 20, 39];
        for k in trips {
            for max_steps in (BODY as u64 + 5 * k)..=(BODY as u64 + 5 * k + 5) {
                let config = SimConfig {
                    max_steps,
                    ..SimConfig::default()
                };
                let (err, m) = assert_fault_exact(&binary, config);
                assert!(matches!(err, SimError::MaxStepsExceeded { .. }), "{err:?}");
                if max_steps == BODY as u64 + 5 * k + 1 {
                    assert_eq!(m.reg(Reg::T0), k as u32 + 1, "first constituent retired");
                    assert_eq!(m.reg(Reg::T1), 2 * k as u32, "second must not run");
                }
                if k >= 20 {
                    let stats = m.trace_cache_stats();
                    assert!(stats.traces >= 1, "trace installed before step {max_steps}");
                    assert!(stats.superblock_instrs > 0);
                }
            }
        }
    }

    #[test]
    fn fusion_partial_fault_inside_pair_counts_exactly() {
        // A fused sw;lw pair whose *store* (first constituent) turns
        // unaligned once the loop's trace is installed: the load must not
        // execute and the partial profile must match the reference engine
        // (fault pc at the sw).
        let binary = assemble(|a| {
            hot_loop(a, |a| {
                a.slti(Reg::T2, Reg::S7, 3);
                a.sll(Reg::T2, Reg::T2, 1); // 2 once $s7 < 3: unaligned
                a.addu(Reg::T0, Reg::Sp, Reg::T2);
                a.xor(Reg::T3, Reg::T3, Reg::T3); // keeps the addu unpaired
                a.sw(Reg::T1, 0, Reg::T0); // faults
                a.lw(Reg::V0, 0, Reg::Sp); // must not run
            })
        });
        let (err, m) = assert_fault_exact(&binary, SimConfig::default());
        assert!(
            matches!(err, SimError::Unaligned { addr, .. } if addr & 3 == 2),
            "{err:?}"
        );
        let stats = m.trace_cache_stats();
        assert!(stats.traces >= 1, "loop should be installed pre-fault");
        assert!(stats.superblock_instrs > 0);
    }

    #[test]
    fn fusion_generic_alu_pairs() {
        let exit = assert_fusion_exact(|a| {
            a.addiu(Reg::T0, Reg::S7, 0x00ef);
            a.addu(Reg::T1, Reg::T0, Reg::T0);
            a.addiu(Reg::T1, Reg::T1, 1); // addu+addiu
            a.sll(Reg::T2, Reg::T1, 4);
            a.addiu(Reg::T3, Reg::T2, -3); // sll+addiu
            a.addiu(Reg::T4, Reg::T3, 2);
            a.srl(Reg::T5, Reg::T4, 1); // addiu+srl
            a.srl(Reg::T6, Reg::T5, 1);
            a.addiu(Reg::T7, Reg::T6, 5); // srl+addiu
            a.ori(Reg::S0, Reg::T7, 0x3);
            a.addiu(Reg::V0, Reg::S0, 1); // ori+addiu
        });
        let t1 = 0x00f0u32 * 2 + 1;
        let t3 = (t1 << 4).wrapping_sub(3);
        let t5 = t3.wrapping_add(2) >> 1;
        let t7 = (t5 >> 1).wrapping_add(5);
        assert_eq!(exit.reg(Reg::V0), (t7 | 3).wrapping_add(1));
    }

    // ------------------------- Memory unit tests -------------------------

    #[test]
    fn memory_word_roundtrip_and_default_zero() {
        let mut m = Memory::new();
        assert_eq!(m.read_u32(0x1000_0000), 0);
        m.write_u32(0x1000_0000, 0xdead_beef);
        assert_eq!(m.read_u32(0x1000_0000), 0xdead_beef);
        assert_eq!(m.read_u8(0x1000_0000), 0xef);
        assert_eq!(m.read_u8(0x1000_0003), 0xde);
        assert_eq!(m.read_u16(0x1000_0002), 0xdead);
    }

    #[test]
    fn memory_unaligned_word_across_page_boundary() {
        let mut m = Memory::new();
        // A page start; a word written 2 bytes before it straddles two pages.
        let boundary = 0x0002_3000u32;
        m.write_u32(boundary - 2, 0x1122_3344);
        assert_eq!(m.read_u8(boundary - 2), 0x44);
        assert_eq!(m.read_u8(boundary - 1), 0x33);
        assert_eq!(m.read_u8(boundary), 0x22);
        assert_eq!(m.read_u8(boundary + 1), 0x11);
        assert_eq!(m.read_u32(boundary - 2), 0x1122_3344);
        // Halfword across the boundary too.
        m.write_u16(boundary - 1, 0xa5b6);
        assert_eq!(m.read_u16(boundary - 1), 0xa5b6);
        assert_eq!(m.read_u8(boundary - 1), 0xb6);
        assert_eq!(m.read_u8(boundary), 0xa5);
    }

    #[test]
    fn memory_write_slice_and_read_vec_span_pages() {
        let mut m = Memory::new();
        // 10000 bytes starting 100 bytes before a page boundary: spans 3 pages.
        let base = 0x0004_0000u32 + (PAGE_SIZE as u32 - 100);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 7 + 3) as u8).collect();
        m.write_slice(base, &data);
        assert_eq!(m.read_vec(base, data.len()), data);
        // Byte-granular spot checks across the first boundary.
        for k in 95..105 {
            assert_eq!(m.read_u8(base + k), data[k as usize], "offset {k}");
        }
        // read_vec over unmapped tail pads with zeros.
        let tail = m.read_vec(base + data.len() as u32 - 4, 16);
        assert_eq!(&tail[..4], &data[data.len() - 4..]);
        assert_eq!(&tail[4..], &[0u8; 12]);
    }

    #[test]
    fn memory_tlb_survives_interleaved_pages() {
        let mut m = Memory::new();
        let a = 0x0001_0000u32;
        let b = 0x0900_0000u32;
        for i in 0..64u32 {
            m.write_u32(a + i * 4, i);
            m.write_u32(b + i * 4, !i);
        }
        for i in 0..64u32 {
            assert_eq!(m.read_u32(a + i * 4), i);
            assert_eq!(m.read_u32(b + i * 4), !i);
        }
    }

    #[test]
    fn memory_empty_write_slice_and_read_vec() {
        let mut m = Memory::new();
        m.write_slice(0x5000, &[]);
        assert!(m.read_vec(0x5000, 0).is_empty());
    }

    // --------------------- Superblock engine tests ------------------------

    /// A loop long enough to cross the recorder's heat threshold.
    fn hot_sum_loop(a: &mut Asm, n: i32) {
        let top = a.new_label();
        a.li(Reg::T0, n);
        a.li(Reg::V0, 0);
        a.bind(top);
        a.addu(Reg::V0, Reg::V0, Reg::T0);
        a.addiu(Reg::T0, Reg::T0, -1);
        a.bgtz(Reg::T0, top);
        a.nop();
        a.jr(Reg::Ra);
        a.nop();
    }

    #[test]
    fn superblock_hot_loop_exact_and_trace_installed() {
        let (exit, stats) = assert_exact(&assemble(|a| hot_sum_loop(a, 500)));
        assert_eq!(exit.reg(Reg::V0), 500 * 501 / 2);
        assert_eq!(exit.profile.counts[2], 500);
        assert_eq!(exit.profile.taken[4], 499);
        assert!(stats.traces >= 1, "hot loop should install a trace");
        assert!(
            stats.superblock_instrs > exit.instrs / 2,
            "most retirement should happen inside the superblock: {} of {}",
            stats.superblock_instrs,
            exit.instrs
        );
    }

    #[test]
    fn superblock_nested_loops_and_calls_exact() {
        // Inner counted loop inside an outer loop, plus a call each outer
        // iteration: exercises loop traces, linear traces, side exits at
        // the inner-loop exit, and jal/jr links inside rounds.
        let (exit, stats) = assert_exact(&assemble(|a| {
            let outer = a.new_label();
            let inner = a.new_label();
            let f = a.new_label();
            let done = a.new_label();
            a.li(Reg::S0, 60); // outer trips
            a.li(Reg::V0, 0);
            a.mov(Reg::S2, Reg::Ra);
            a.bind(outer);
            a.li(Reg::T0, 9); // inner trips
            a.bind(inner);
            a.addu(Reg::V0, Reg::V0, Reg::T0);
            a.addiu(Reg::T0, Reg::T0, -1);
            a.bgtz(Reg::T0, inner);
            a.nop();
            a.jal(f);
            a.nop();
            a.addiu(Reg::S0, Reg::S0, -1);
            a.bgtz(Reg::S0, outer);
            a.nop();
            a.j(done);
            a.nop();
            a.bind(f);
            a.jr(Reg::Ra);
            a.addiu(Reg::V0, Reg::V0, 1); // delay slot of the return
            a.bind(done);
            a.jr(Reg::S2);
            a.nop();
        }));
        assert_eq!(exit.reg(Reg::V0), 60 * (45 + 1));
        assert!(stats.traces >= 1);
    }

    #[test]
    fn superblock_max_steps_boundaries_exact() {
        // Stopping inside / at the edge of a superblock must retire the
        // exact same partial round the reference engine does.
        let binary = assemble(|a| hot_sum_loop(a, 1000));
        for max_steps in [1u64, 2, 3, 7, 150, 151, 152, 153, 1000, 2003, 2004] {
            let config = SimConfig {
                max_steps,
                ..SimConfig::default()
            };
            let (err, _) = assert_fault_exact(&binary, config);
            assert!(matches!(err, SimError::MaxStepsExceeded { .. }), "{err:?}");
        }
    }

    #[test]
    fn superblock_mid_trace_fault_pc_exact() {
        // A load loop whose address bias flips (branch-free) from aligned
        // to misaligned for the last few iterations: by then the loop is
        // long since installed as a superblock, so the fault happens
        // mid-trace and must report the same pc, counters, and partial
        // profile as the reference engine.
        let binary = assemble(|a| {
            let top = a.new_label();
            a.li(Reg::T0, 200);
            a.li(Reg::V0, 0);
            a.bind(top);
            a.slti(Reg::T2, Reg::T0, 6);
            a.sll(Reg::T2, Reg::T2, 1); // bias = 2 once T0 < 6
            a.addu(Reg::T3, Reg::Sp, Reg::T2);
            a.lw(Reg::T4, 0, Reg::T3);
            a.addu(Reg::V0, Reg::V0, Reg::T4);
            a.addiu(Reg::T0, Reg::T0, -1);
            a.bgtz(Reg::T0, top);
            a.nop();
            a.jr(Reg::Ra);
            a.nop();
        });
        let (err, m) = assert_fault_exact(&binary, SimConfig::default());
        assert!(
            matches!(err, SimError::Unaligned { addr, .. } if addr & 3 == 2),
            "expected a misaligned lw, got {err:?}"
        );
        let stats = m.trace_cache_stats();
        assert!(stats.traces >= 1, "loop should be installed pre-fault");
        assert!(stats.superblock_instrs > 0);
    }

    #[test]
    fn superblock_watch_and_boundaries_exact() {
        // run_until with a dispatch boundary inside the hot loop: the
        // engine must trap at the watched pc and resume bit-for-bit, so the
        // trapping run ends exactly where the reference engine does.
        let binary = assemble(|a| hot_sum_loop(a, 300));
        let watched = crate::DEFAULT_TEXT_BASE + 3 * 4; // the addiu

        // Heat the loop first so a trace spanning the pc is installed…
        let mut m = Machine::new(&binary).expect("loads");
        m.run().expect("first run");
        assert!(
            m.trace_cache_stats().traces >= 1,
            "unwatched run should install a trace"
        );
        // …then carve a boundary at the watched pc and re-run.
        let mut m2 = Machine::new(&binary).expect("loads");
        m2.set_dispatch_boundaries(&[watched]);
        let mut traps = 0u32;
        let mut prof = EdgeProfiler::default();
        let exit = loop {
            match m2
                .run_until(&mut prof, |pc| pc == watched && traps < 10)
                .expect("runs")
            {
                RunStop::Trapped { pc } => {
                    assert_eq!(pc, watched);
                    traps += 1;
                }
                RunStop::Exited(exit) => break exit,
            }
        };
        assert_eq!(traps, 10);
        let reference = ReferenceMachine::new(&binary)
            .expect("loads")
            .run()
            .expect("runs");
        assert_eq!(exit.regs, reference.regs);
        assert_eq!(exit.cycles, reference.cycles);
        assert_eq!(exit.instrs, reference.instrs);
        assert_eq!(exit.profile, reference.profile);
    }

    #[test]
    fn superblock_boundary_change_invalidates_cache() {
        let mut a = Asm::new();
        hot_sum_loop(&mut a, 300);
        let text = a.finish().expect("assembles");
        let binary = BinaryBuilder::new().text(text).build();
        let mut m = Machine::new(&binary).expect("loads");
        m.run().expect("runs");
        let before = m.trace_cache_stats();
        assert!(before.traces >= 1);
        m.set_dispatch_boundaries(&[crate::DEFAULT_TEXT_BASE + 2 * 4]);
        let after = m.trace_cache_stats();
        assert_eq!(after.traces, 0, "boundary change must drop all traces");
        assert_eq!(after.invalidations, before.invalidations + 1);
        // Cumulative retirement stats survive invalidation.
        assert_eq!(after.superblock_instrs, before.superblock_instrs);
    }

    #[test]
    fn superblock_summaries_describe_recorded_traces() {
        let mut a = Asm::new();
        hot_sum_loop(&mut a, 400);
        let text = a.finish().expect("assembles");
        let binary = BinaryBuilder::new().text(text).build();
        let mut m = Machine::new(&binary).expect("loads");
        m.run().expect("runs");
        let summaries = m.trace_summaries();
        assert!(!summaries.is_empty());
        let loop_trace = summaries
            .iter()
            .find(|t| t.looped)
            .expect("hot loop records a loop trace");
        assert_eq!(loop_trace.entry_pc, crate::DEFAULT_TEXT_BASE + 2 * 4);
        assert!(loop_trace.passes > 300);
        assert!(loop_trace.hold_rate() > 0.9, "{}", loop_trace.hold_rate());
        // One full loop round: body (addu, addiu) + bgtz + delay slot.
        assert_eq!(loop_trace.slots(), 4);
        for s in &loop_trace.segs {
            assert!(s.slots >= 2);
        }
    }
}

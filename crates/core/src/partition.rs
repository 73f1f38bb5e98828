//! The paper's three-step "90-10" partitioning heuristic.
//!
//! 1. Profile-ranked loops are moved to hardware until ~90 % of execution is
//!    covered (while the FPGA area budget holds).
//! 2. Alias information finds the memory the selected loops touch; when all
//!    of a kernel's accesses resolve to global arrays, those arrays move to
//!    on-FPGA block RAM (raising memory parallelism), and other candidate
//!    regions touching the *same* arrays join the hardware partition.
//! 3. Remaining candidates are added greedily by profile weight × hardware
//!    suitability until the area constraint would be violated.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::alias::{self, RegionSummary};
use crate::diag::{Diagnostic, FlowStage};
use crate::decompile::{
    blocks_contain_call, region_pc_range, sw_cycles_of_blocks, DecompiledProgram,
};
use binpart_cdfg::ir::BlockId;
use binpart_cdfg::ir::Function;
use binpart_cdfg::loops::LoopForest;
use binpart_mips::sim::Profile;
use binpart_mips::{Binary, CycleModel};
use binpart_synth::{EstimateCache, ResourceBudget, SynthesisInput, SynthesisResult, TechLibrary};

/// Partitioner tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionOptions {
    /// FPGA area budget in gate equivalents.
    pub area_budget_gates: u64,
    /// Step-1 coverage target (fraction of total cycles; the "90" of 90-10).
    pub coverage: f64,
    /// Enable step 2 (memory co-location / block RAM migration).
    pub alias_step: bool,
    /// Maximum kernels to select.
    pub max_kernels: usize,
    /// Minimum per-kernel share of total cycles to consider at all.
    pub min_share: f64,
    /// Processor clock, used to reject kernels whose hardware time would
    /// not beat their software time (a region is only "suitable" for
    /// hardware if it actually accelerates).
    pub cpu_clock_hz: f64,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions {
            area_budget_gates: 150_000,
            coverage: 0.9,
            alias_step: true,
            max_kernels: 8,
            min_share: 0.005,
            cpu_clock_hz: 200e6,
        }
    }
}

/// One region selected for hardware.
#[derive(Debug, Clone)]
pub struct SelectedKernel {
    /// Index into [`DecompiledProgram::functions`].
    pub func_index: usize,
    /// Region blocks (a loop nest).
    pub blocks: Vec<BlockId>,
    /// The loop-nest header — the region's single entry block (the
    /// co-simulation trap point).
    pub header: BlockId,
    /// Kernel display name.
    pub name: String,
    /// Profiled software cycles the kernel replaces.
    pub sw_cycles: u64,
    /// CPU→FPGA invocations (loop entries).
    pub invocations: u64,
    /// Whether the kernel's arrays moved to block RAM (step 2).
    pub mem_in_bram: bool,
    /// Bytes of array data placed in block RAM.
    pub bram_bytes: u64,
    /// Memory summary from alias analysis.
    pub regions: RegionSummary,
    /// Synthesis result (timing, area, VHDL).
    pub synth: SynthesisResult,
    /// Which partitioning step selected it (1, 2, or 3).
    pub step: u8,
}

/// The partitioning result.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Selected kernels.
    pub kernels: Vec<SelectedKernel>,
    /// Total area used (gate equivalents).
    pub total_area_gates: u64,
    /// Total profiled cycles of the program.
    pub total_sw_cycles: u64,
    /// Human-readable decision log.
    pub log: Vec<String>,
    /// Candidates rejected back to software by a *synthesis failure*
    /// (stage [`FlowStage::Synth`]). Area and suitability rejections are
    /// normal heuristic outcomes and stay in [`Partition::log`] only.
    pub diagnostics: Vec<Diagnostic>,
}

impl Partition {
    /// Fraction of software cycles moved to hardware.
    pub fn coverage(&self) -> f64 {
        if self.total_sw_cycles == 0 {
            return 0.0;
        }
        self.kernels.iter().map(|k| k.sw_cycles).sum::<u64>() as f64
            / self.total_sw_cycles as f64
    }
}

/// One hardware-candidate region (an outermost call-free loop nest), with
/// its profile weight and memory summary. Produced by
/// [`harvest_candidates`]; invariant across platform clock, area budget,
/// and partitioner tuning.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Index into [`DecompiledProgram::functions`].
    pub func_index: usize,
    /// Region blocks (a loop nest).
    pub blocks: Vec<BlockId>,
    /// The loop-nest header — the region's single entry block.
    pub header: BlockId,
    /// Kernel display name.
    pub name: String,
    /// Profiled software cycles the region covers.
    pub sw_cycles: u64,
    /// Loop entries (CPU→FPGA invocations if selected).
    pub invocations: u64,
    /// Memory summary from alias analysis.
    pub regions: RegionSummary,
    /// Hardware suitability weight (divisions, unresolved pointers).
    pub suitability: f64,
}

/// All hardware candidates of one profiled program — the partitioner's
/// platform-independent input artifact. Harvested once, reused for every
/// (platform, budget) point of a sweep.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// Candidates in discovery order (function order × loop order),
    /// *unfiltered* — [`PartitionOptions::min_share`] is applied at
    /// selection time so one harvest serves any option set.
    pub candidates: Vec<Candidate>,
    /// Start of the data section (for block-RAM extent computation).
    pub data_base: u32,
    /// End of the data section.
    pub data_end: u32,
}

/// Harvests every outermost call-free loop nest of `prog` as a hardware
/// candidate, with profile weights from `profile` and `cycles`.
///
/// This is the profile/alias-analysis half of the partitioner, run once
/// per program: nothing here depends on the platform clock, the FPGA area
/// budget, or the partitioner options. [`partition_with_candidates`] is
/// the selection half.
pub fn harvest_candidates(
    prog: &DecompiledProgram,
    binary: &Binary,
    profile: &Profile,
    cycles: &CycleModel,
) -> CandidateSet {
    let data_base = binary.data_base;
    let data_end = binary.data_end();
    let mut candidates: Vec<Candidate> = Vec::new();
    for (fi, f) in prog.functions.iter().enumerate() {
        let forest = LoopForest::compute(f);
        for l in forest.loops() {
            if l.parent.is_some() {
                continue; // only outermost nests; inner loops come along
            }
            if blocks_contain_call(f, &l.blocks) {
                continue;
            }
            let sw = sw_cycles_of_blocks(f, &l.blocks, binary, profile, cycles);
            // Loop entries — the paper's loop-bound estimate. Preferred:
            // header executions minus *measured* dynamic back-edge
            // transfers from the branch-bias (edge) profile; fallback when
            // the profile carries no taken data: latch block counts (which
            // overcount back edges of fall-out latches by one per entry).
            let header_count = f.block(l.header).profile_count;
            let fn_end = crate::decompile::function_end_after(
                binary,
                &prog.entries,
                f.block(l.header).start_pc.unwrap_or(binary.text_base),
            );
            let back_edges =
                measured_back_edges(f, &l.blocks, l.header, binary, profile, fn_end)
                    .unwrap_or_else(|| {
                        l.latches.iter().map(|&b| f.block(b).profile_count).sum()
                    });
            let invocations = header_count.saturating_sub(back_edges).max(1);
            let regions = alias::summarize(f, &l.blocks, data_base, data_end);
            // Hardware suitability: divisions and unresolved pointers make
            // regions less attractive.
            let mut suitability = 1.0;
            let has_div = l.blocks.iter().any(|&b| {
                f.block(b).ops.iter().any(|i| {
                    matches!(
                        i.op,
                        binpart_cdfg::ir::Op::Bin {
                            op: binpart_cdfg::ir::BinOp::DivS
                                | binpart_cdfg::ir::BinOp::DivU
                                | binpart_cdfg::ir::BinOp::RemS
                                | binpart_cdfg::ir::BinOp::RemU,
                            ..
                        }
                    )
                })
            });
            if has_div {
                suitability *= 0.6;
            }
            if regions.has_unknown {
                suitability *= 0.5;
            }
            candidates.push(Candidate {
                func_index: fi,
                blocks: l.blocks.clone(),
                header: l.header,
                name: format!("{}_loop_{}", f.name, l.header.index()),
                sw_cycles: sw,
                invocations,
                regions,
                suitability,
            });
        }
    }
    CandidateSet {
        candidates,
        data_base,
        data_end,
    }
}

/// Counts the loop's dynamic back-edge transfers from the branch-bias
/// profile: taken counts of conditional branches targeting the header plus
/// execution counts of unconditional jumps to it, scanned over the loop's
/// full *machine* extent ([`crate::decompile::region_machine_extent`] —
/// provenance alone misses trailing `j header; nop` latches and the
/// unrolled sections of rerolled loops). `None` when the profile carries
/// no taken data (e.g. a [`binpart_mips::sim::BlockCountProfiler`] run) or
/// no back-edge instruction is found — callers fall back to latch block
/// counts.
fn measured_back_edges(
    f: &Function,
    blocks: &[BlockId],
    header: BlockId,
    binary: &Binary,
    profile: &Profile,
    fn_end: u32,
) -> Option<u64> {
    if !profile.has_taken_data() {
        return None;
    }
    let (lo, hi) = region_pc_range(f, blocks)?;
    let hi = crate::decompile::region_machine_extent(binary, lo, hi, fn_end);
    let header_pc = f.block(header).start_pc?;
    let mut total = 0u64;
    let mut found = false;
    let mut pc = lo;
    while pc <= hi {
        let idx = pc.wrapping_sub(binary.text_base) / 4;
        if let Some(&word) = binary.text.get(idx as usize) {
            if let Ok(instr) = binpart_mips::decode(word) {
                if instr.branch_target(pc) == Some(header_pc) {
                    total += profile.taken_at(pc);
                    found = true;
                } else if matches!(instr, binpart_mips::Instr::J { .. })
                    && instr.jump_target(pc) == Some(header_pc)
                {
                    total += profile.count_at(pc);
                    found = true;
                }
            }
        }
        pc += 4;
    }
    found.then_some(total)
}

/// Runs the three-step partitioner over a pre-harvested candidate set:
/// applies the `min_share` filter, ranks, and runs steps 1–3, memoizing
/// synthesis through `cache`.
///
/// `total_sw_cycles` is the whole-program profiled cycle count. Synthesis
/// is deterministic and the cache key covers every input (see
/// [`binpart_synth::estimate`]), so the memo never changes a result; the
/// cache must only be shared across calls passing the same `prog` (the
/// staged flow guarantees this by owning one cache per estimated-program
/// artifact).
pub fn partition_with_candidates(
    prog: &DecompiledProgram,
    set: &CandidateSet,
    total_sw_cycles: u64,
    options: &PartitionOptions,
    budget: &ResourceBudget,
    library: &TechLibrary,
    cache: &EstimateCache,
) -> Partition {
    let data_end = set.data_end;
    let mut log = Vec::new();
    // min_share filter (deferred from harvest so the candidate set is
    // option-independent), then profile ranking.
    let mut candidates: Vec<&Candidate> = set
        .candidates
        .iter()
        .filter(|c| (c.sw_cycles as f64) >= options.min_share * total_sw_cycles as f64)
        .collect();
    candidates.sort_by_key(|c| std::cmp::Reverse(c.sw_cycles));

    let mut kernels: Vec<SelectedKernel> = Vec::new();
    let mut area_used = 0u64;
    let mut covered = 0u64;
    let mut taken: Vec<usize> = Vec::new();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();

    /// Why a candidate was not selected.
    enum Reject {
        /// Synthesis itself failed — a per-region degradation, diagnosed.
        Synth(binpart_synth::SynthError),
        /// Would blow the area budget — a normal heuristic outcome.
        Area,
        /// Hardware would not beat software — a normal heuristic outcome.
        Unsuitable,
    }

    let try_select = |c: &Candidate,
                      mem_in_bram: bool,
                      bram_bytes: u64,
                      area_used: u64|
     -> Result<SynthesisResult, Reject> {
        let f = &prog.functions[c.func_index];
        let input = SynthesisInput {
            function: f,
            region: c.blocks.clone(),
            mem_in_bram,
            bram_bytes,
            budget: *budget,
            library: library.clone(),
        };
        let r = cache
            .synthesize(c.func_index, &input)
            .map_err(Reject::Synth)?;
        if area_used + r.area.gate_equivalents > options.area_budget_gates {
            return Err(Reject::Area);
        }
        // Suitability gate: the hardware must actually be faster than the
        // software it replaces.
        let hw_time = r.timing.hw_cycles as f64 / (r.timing.clock_mhz * 1e6);
        let sw_time = c.sw_cycles as f64 / options.cpu_clock_hz;
        if hw_time >= sw_time * 0.7 {
            return Err(Reject::Unsuitable);
        }
        Ok(r)
    };

    // A candidate can be retried across steps; diagnose each synth
    // failure once per region.
    let note_synth = |diagnostics: &mut Vec<Diagnostic>, name: &str, rej: &Reject| {
        if let Reject::Synth(e) = rej {
            if !diagnostics
                .iter()
                .any(|d| d.stage == FlowStage::Synth && d.region == name)
            {
                diagnostics.push(Diagnostic::new(FlowStage::Synth, name, e.to_string()));
            }
        }
    };

    // ---- step 1: most frequent loops to ~coverage ----
    for (ci, c) in candidates.iter().enumerate() {
        if kernels.len() >= options.max_kernels {
            break;
        }
        if (covered as f64) >= options.coverage * total_sw_cycles as f64 {
            break;
        }
        let synth = match try_select(c, false, 0, area_used) {
            Ok(synth) => synth,
            Err(rej) => {
                note_synth(&mut diagnostics, &c.name, &rej);
                log.push(format!("step1: {} skipped (area/synth)", c.name));
                continue;
            }
        };
        area_used += synth.area.gate_equivalents;
        covered += c.sw_cycles;
        log.push(format!(
            "step1: {} selected ({} cycles, {} gates)",
            c.name, c.sw_cycles, synth.area.gate_equivalents
        ));
        kernels.push(SelectedKernel {
            func_index: c.func_index,
            blocks: c.blocks.clone(),
            header: c.header,
            name: c.name.clone(),
            sw_cycles: c.sw_cycles,
            invocations: c.invocations,
            mem_in_bram: false,
            bram_bytes: 0,
            regions: c.regions.clone(),
            synth,
            step: 1,
        });
        taken.push(ci);
    }

    // ---- step 2: migrate memory to block RAM, pull in aliasing regions ----
    if options.alias_step {
        let mut shared_bases: std::collections::BTreeSet<u32> =
            std::collections::BTreeSet::new();
        for k in &kernels {
            shared_bases.extend(k.regions.globals.iter().copied());
        }
        for k in &mut kernels {
            if !k.regions.fully_resolved() || k.regions.globals.is_empty() {
                continue;
            }
            let bytes: u64 = k
                .regions
                .globals
                .iter()
                .map(|&b| alias::extent_of(&shared_bases, b, data_end) as u64)
                .sum();
            let c = Candidate {
                func_index: k.func_index,
                blocks: k.blocks.clone(),
                header: k.header,
                name: k.name.clone(),
                sw_cycles: k.sw_cycles,
                invocations: k.invocations,
                regions: k.regions.clone(),
                suitability: 1.0,
            };
            let prev_area = k.synth.area.gate_equivalents;
            // A BRAM re-synthesis failure is not a degradation: the kernel
            // stays in hardware with its step-1 synthesis.
            if let Ok(synth) = try_select(&c, true, bytes, area_used - prev_area) {
                area_used = area_used - prev_area + synth.area.gate_equivalents;
                log.push(format!(
                    "step2: {} memory ({} bytes) moved to BRAM",
                    k.name, bytes
                ));
                k.mem_in_bram = true;
                k.bram_bytes = bytes;
                k.synth = synth;
            }
        }
        // Pull in other candidates touching the same arrays.
        for (ci, c) in candidates.iter().enumerate() {
            if taken.contains(&ci) || kernels.len() >= options.max_kernels {
                continue;
            }
            if c.regions.globals.is_empty()
                || !c.regions.globals.iter().any(|b| shared_bases.contains(b))
            {
                continue;
            }
            let bram = c.regions.fully_resolved();
            let synth = match try_select(c, bram, 0, area_used) {
                Ok(synth) => synth,
                Err(rej) => {
                    note_synth(&mut diagnostics, &c.name, &rej);
                    continue;
                }
            };
            area_used += synth.area.gate_equivalents;
            log.push(format!("step2: {} joins (shares arrays)", c.name));
            kernels.push(SelectedKernel {
                func_index: c.func_index,
                blocks: c.blocks.clone(),
                header: c.header,
                name: c.name.clone(),
                sw_cycles: c.sw_cycles,
                invocations: c.invocations,
                mem_in_bram: bram,
                bram_bytes: 0,
                regions: c.regions.clone(),
                synth,
                step: 2,
            });
            taken.push(ci);
        }
    }

    // ---- step 3: greedy fill by weight × suitability ----
    let mut rest: Vec<usize> = (0..candidates.len())
        .filter(|i| !taken.contains(i))
        .collect();
    rest.sort_by(|&a, &b| {
        let sa = candidates[a].sw_cycles as f64 * candidates[a].suitability;
        let sb = candidates[b].sw_cycles as f64 * candidates[b].suitability;
        sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal)
    });
    for ci in rest {
        if kernels.len() >= options.max_kernels {
            break;
        }
        let c = &candidates[ci];
        let bram = c.regions.fully_resolved() && options.alias_step;
        let synth = match try_select(c, bram, 0, area_used) {
            Ok(synth) => synth,
            Err(rej) => {
                note_synth(&mut diagnostics, &c.name, &rej);
                log.push(format!("step3: {} rejected (area)", c.name));
                continue;
            }
        };
        area_used += synth.area.gate_equivalents;
        log.push(format!("step3: {} added", c.name));
        kernels.push(SelectedKernel {
            func_index: c.func_index,
            blocks: c.blocks.clone(),
            header: c.header,
            name: c.name.clone(),
            sw_cycles: c.sw_cycles,
            invocations: c.invocations,
            mem_in_bram: bram,
            bram_bytes: 0,
            regions: c.regions.clone(),
            synth,
            step: 3,
        });
    }

    Partition {
        kernels,
        total_area_gates: area_used,
        total_sw_cycles,
        log,
        diagnostics,
    }
}

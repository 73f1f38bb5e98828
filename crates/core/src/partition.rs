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

use crate::alias::{self, RegionSummary};
use crate::decompile::{
    blocks_contain_call, region_pc_range, sw_cycles_of_blocks, DecompiledProgram,
};
use crate::diag::{Diagnostic, FlowStage};
use binpart_cdfg::dataflow::DefSites;
use binpart_cdfg::ir::{BlockCounts, BlockId, Function};
use binpart_mips::sim::Profile;
use binpart_mips::{Binary, CycleModel};
use binpart_synth::{
    EstimateCache, KernelKey, ResourceBudget, SynthesisInput, SynthesisResult, TechLibrary,
};
use std::fmt;
use std::sync::Arc;

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

/// One region selected for hardware: a candidate, named by its index,
/// and what selection decided for it. The candidate itself (function,
/// blocks, header, name, profile weight, alias summary) is read through
/// [`Partition::selected`].
#[derive(Debug, Clone)]
pub struct SelectedKernel {
    /// Index into the candidate list the partition was selected from
    /// ([`CandidateSet::candidates`]): the kernel's dense region id.
    pub candidate: usize,
    /// Whether the kernel's arrays moved to block RAM (step 2).
    pub mem_in_bram: bool,
    /// Bytes of array data placed in block RAM.
    pub bram_bytes: u64,
    /// Synthesis result (timing, area, and the schedules the FSMD and the
    /// RTL are built from), shared with the synthesis memo that produced
    /// it.
    pub synth: Arc<SynthesisResult>,
    /// Which partitioning step selected it (1, 2, or 3).
    pub step: u8,
}

/// What the partitioner decided about one candidate at one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Step 1 selected it.
    Selected {
        /// Profiled software cycles it covers.
        sw_cycles: u64,
        /// Its synthesized area (gate equivalents).
        gates: u64,
    },
    /// Step 1 passed over it (area budget, suitability or synthesis).
    Skipped,
    /// Step 2 moved a selected kernel's arrays to block RAM.
    MovedToBram {
        /// Bytes of array data moved.
        bytes: u64,
    },
    /// Step 2 pulled it in because it shares arrays with a selected
    /// kernel.
    Joined,
    /// Step 3 added it.
    Added,
    /// Step 3 rejected it (area budget, suitability or synthesis).
    Rejected,
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Selected { sw_cycles, gates } => {
                write!(f, "selected ({sw_cycles} cycles, {gates} gates)")
            }
            Outcome::Skipped => f.write_str("skipped (area/synth)"),
            Outcome::MovedToBram { bytes } => write!(f, "memory ({bytes} bytes) moved to BRAM"),
            Outcome::Joined => f.write_str("joins (shares arrays)"),
            Outcome::Added => f.write_str("added"),
            Outcome::Rejected => f.write_str("rejected (area)"),
        }
    }
}

/// One record of the partitioner's decision log: which step decided what
/// about which candidate. [`Partition::log`] renders the records as text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Partitioning step (1, 2 or 3).
    pub step: u8,
    /// Index into [`CandidateSet::candidates`].
    pub candidate: usize,
    /// What was decided.
    pub outcome: Outcome,
}

/// The partitioning result.
///
/// Built once per evaluated design point, so building it is kept cheap:
/// a kernel names its candidate by index instead of copying it, each
/// kernel's [`SelectedKernel::synth`] is the synthesis memo's own shared
/// result (an `Arc`, never a copy of its schedules), and the decision log
/// is kept as [`Decision`] records that [`Partition::log`] renders to
/// text only when asked. A caller evaluating many points keeps one
/// `Partition` and has [`partition_with_candidates`] rewrite it; the
/// default is the empty partition it starts from.
#[derive(Debug, Clone, Default)]
pub struct Partition {
    /// Selected kernels.
    pub kernels: Vec<SelectedKernel>,
    /// Total area used (gate equivalents).
    pub total_area_gates: u64,
    /// Total profiled cycles of the program.
    pub total_sw_cycles: u64,
    /// The decision log as compact records, in decision order; see
    /// [`Partition::log`] for the text.
    pub decisions: Vec<Decision>,
    /// Candidates rejected back to software by a *synthesis failure*
    /// (stage [`FlowStage::Synth`]). Area and suitability rejections are
    /// normal heuristic outcomes and stay in the decision log only.
    pub diagnostics: Vec<Diagnostic>,
    /// The candidate list [`SelectedKernel::candidate`] and
    /// [`Decision::candidate`] index; `None` only in the default (empty)
    /// partition, so building one touches no shared reference count.
    candidates: Option<Arc<[Candidate]>>,
    /// Step 2's global bases touched by step 1's kernels, sorted and
    /// distinct; kept so a rewritten partition sorts them in place.
    shared_bases: Vec<u32>,
}

impl Partition {
    /// Each kernel with the candidate it was selected from, in kernel
    /// order.
    pub fn selected(&self) -> impl Iterator<Item = (&SelectedKernel, &Candidate)> {
        let all = self.candidates();
        self.kernels.iter().map(|k| (k, &all[k.candidate]))
    }

    /// The candidate list the kernels and decisions index (empty in the
    /// default partition, which has neither).
    fn candidates(&self) -> &[Candidate] {
        self.candidates.as_deref().unwrap_or_default()
    }

    /// The human-readable decision log, one line per [`Decision`] (e.g.
    /// `step1: main_loop_3 selected (4998 cycles, 17902 gates)`). Rendered
    /// on each call; the partitioner itself formats nothing.
    pub fn log(&self) -> Vec<String> {
        self.decisions
            .iter()
            .map(|d| {
                let name = self.candidates().get(d.candidate).map_or("?", |c| &*c.name);
                format!("step{}: {name} {}", d.step, d.outcome)
            })
            .collect()
    }

    /// Fraction of software cycles moved to hardware.
    pub fn coverage(&self) -> f64 {
        if self.total_sw_cycles == 0 {
            return 0.0;
        }
        self.selected().map(|(_, c)| c.sw_cycles).sum::<u64>() as f64 / self.total_sw_cycles as f64
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
    pub blocks: Arc<[BlockId]>,
    /// The loop-nest header — the region's single entry block.
    pub header: BlockId,
    /// Kernel display name.
    pub name: Arc<str>,
    /// Profiled software cycles the region covers.
    pub sw_cycles: u64,
    /// Loop entries (CPU→FPGA invocations if selected).
    pub invocations: u64,
    /// Memory summary from alias analysis.
    pub regions: Arc<RegionSummary>,
    /// Hardware suitability weight (divisions, unresolved pointers).
    pub suitability: f64,
}

/// All hardware candidates of one profiled program — the partitioner's
/// platform-independent input artifact. Harvested once, reused for every
/// (platform, budget) point of a sweep.
///
/// # Rankings
///
/// Selection visits candidates in two orders that depend on the
/// candidates alone, so the harvest fixes both once instead of every
/// design point sorting again:
///
/// * the *profile ranking* — candidate indices by `sw_cycles`,
///   descending, ties in discovery order (a stable sort); steps 1 and 2
///   walk it;
/// * the *fill ranking* — the profile ranking stably re-sorted by the
///   step-3 weight (`sw_cycles × suitability`, descending); step 3 walks
///   it.
///
/// Both are bit-identical to sorting per point. The `min_share` filter
/// keeps exactly the candidates whose cycles reach a threshold, so what
/// it keeps is a prefix of the profile ranking, in the same order the
/// per-point filter-then-stable-sort produced. Step 3 stably sorted the
/// kept, untaken candidates (in profile-ranking order) by weight, and a
/// stable sort of a subsequence is that subsequence of the stable sort:
/// walking the fill ranking and skipping filtered and taken candidates
/// visits them in the same order. Weights are compared with
/// [`f64::total_cmp`], a total order, which is what makes the
/// subsequence argument hold; weights are never NaN or `-0.0`, so it
/// orders them exactly as `partial_cmp` would.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// Candidates in discovery order (function order × loop order),
    /// *unfiltered* — [`PartitionOptions::min_share`] is applied at
    /// selection time so one harvest serves any option set. A candidate's
    /// index here is its dense region id: the synthesis-memo key
    /// ([`KernelKey::region`]) and [`Decision::candidate`]. Shared, so
    /// every [`Partition`] can name its candidates without copying them.
    pub candidates: Arc<[Candidate]>,
    /// Start of the data section (for block-RAM extent computation).
    pub data_base: u32,
    /// End of the data section.
    pub data_end: u32,
    /// The profile ranking (see [Rankings](CandidateSet#rankings)).
    by_cycles: Vec<usize>,
    /// The fill ranking (see [Rankings](CandidateSet#rankings)).
    by_weight: Vec<usize>,
}

impl CandidateSet {
    /// Wraps `candidates` with both of its rankings.
    fn new(candidates: Vec<Candidate>, data_base: u32, data_end: u32) -> CandidateSet {
        let mut by_cycles: Vec<usize> = (0..candidates.len()).collect();
        by_cycles.sort_by_key(|&ci| std::cmp::Reverse(candidates[ci].sw_cycles));
        let weight = |ci: usize| candidates[ci].sw_cycles as f64 * candidates[ci].suitability;
        let mut by_weight = by_cycles.clone();
        by_weight.sort_by(|&a, &b| weight(b).total_cmp(&weight(a)));
        CandidateSet {
            candidates: candidates.into(),
            data_base,
            data_end,
            by_cycles,
            by_weight,
        }
    }
}

/// Harvests every outermost call-free loop nest of `prog` as a hardware
/// candidate, with profile weights from `profile` and `cycles` and loop
/// entries from `counts` (one table per entry of `prog.functions`).
///
/// This is the profile/alias-analysis half of the partitioner, run once
/// per program: nothing here depends on the platform clock, the FPGA area
/// budget, or the partitioner options. [`partition_with_candidates`] is
/// the selection half. Loop nests come from the forests the decompiler
/// kept ([`DecompiledProgram::forests`]); alias analysis shares one
/// [`DefSites`] table per function across its candidates.
pub fn harvest_candidates(
    prog: &DecompiledProgram,
    counts: &[BlockCounts],
    binary: &Binary,
    profile: &Profile,
    cycles: &CycleModel,
) -> CandidateSet {
    let data_base = binary.data_base;
    let data_end = binary.data_end();
    let mut candidates: Vec<Candidate> = Vec::new();
    for (fi, (f, forest)) in prog.functions.iter().zip(&prog.forests).enumerate() {
        let counts = &counts[fi];
        // Built on the function's first candidate and shared by the rest.
        let mut sites: Option<DefSites> = None;
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
            let header_count = counts.get(l.header);
            let fn_end = crate::decompile::function_end_after(
                binary,
                &prog.entries,
                f.block(l.header).start_pc.unwrap_or(binary.text_base),
            );
            let back_edges = measured_back_edges(f, &l.blocks, l.header, binary, profile, fn_end)
                .unwrap_or_else(|| l.latches.iter().map(|&b| counts.get(b)).sum());
            let invocations = header_count.saturating_sub(back_edges).max(1);
            let sites = sites.get_or_insert_with(|| DefSites::compute(f));
            let regions = alias::summarize(f, sites, &l.blocks, data_base, data_end);
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
                blocks: l.blocks.as_slice().into(),
                header: l.header,
                name: format!("{}_loop_{}", f.name, l.header.index()).into(),
                sw_cycles: sw,
                invocations,
                regions: Arc::new(regions),
                suitability,
            });
        }
    }
    CandidateSet::new(candidates, data_base, data_end)
}

/// Counts the loop's dynamic back-edge transfers from the branch-bias
/// profile: taken counts of conditional branches targeting the header plus
/// execution counts of unconditional jumps to it, scanned over the loop's
/// full *machine* extent ([`crate::decompile::region_machine_extent`] —
/// provenance alone misses trailing `j header; nop` latches and the
/// unrolled sections of rerolled loops). `None` when no back-edge
/// instruction is found — callers fall back to latch block counts.
fn measured_back_edges(
    f: &Function,
    blocks: &[BlockId],
    header: BlockId,
    binary: &Binary,
    profile: &Profile,
    fn_end: u32,
) -> Option<u64> {
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
/// applies the `min_share` filter to the set's
/// [rankings](CandidateSet#rankings) and runs steps 1–3, memoizing
/// synthesis through `cache`.
///
/// `total_sw_cycles` is the whole-program profiled cycle count. Synthesis
/// is deterministic and the cache key covers every input (see
/// [`binpart_synth::estimate`]), so the memo never changes a result; the
/// cache must only be shared across calls passing the same `prog`,
/// `counts` and `set` (the staged flow guarantees this by owning one
/// cache per estimated-program artifact), because it keys a region by its
/// index in `set`. `counts` holds one table per entry of
/// `prog.functions`. The call reads the memo through one
/// [`MemoView`](binpart_synth::MemoView), taken at the start and dropped
/// at the end.
///
/// The result is written into `out`, which a caller evaluating many
/// points reuses: its kernel, decision and diagnostic lists are cleared
/// and refilled in place, step 2's shared array bases are sorted in a
/// buffer it keeps, and its candidate list is re-shared only when `set`
/// is not the one it already shares. A warm point written into a used
/// `out` therefore allocates nothing, unless it diagnoses a synthesis
/// failure. Every field is overwritten, so the result does not depend on
/// what `out` held.
#[allow(clippy::too_many_arguments)]
pub fn partition_with_candidates(
    prog: &DecompiledProgram,
    counts: &[BlockCounts],
    set: &CandidateSet,
    total_sw_cycles: u64,
    options: &PartitionOptions,
    budget: &ResourceBudget,
    library: &TechLibrary,
    cache: &EstimateCache,
    out: &mut Partition,
) {
    let Partition {
        kernels,
        total_area_gates,
        total_sw_cycles: out_sw_cycles,
        decisions,
        diagnostics,
        shared_bases,
        candidates: shared,
    } = out;
    let data_end = set.data_end;
    let all = &set.candidates;
    let mut memo = cache.view(budget, library);
    // min_share filter (deferred from harvest so the candidate set is
    // option-independent): the candidates it keeps are a prefix of the
    // profile ranking. Entries are indices into `all`.
    let threshold = options.min_share * total_sw_cycles as f64;
    let kept = |ci: usize| all[ci].sw_cycles as f64 >= threshold;
    let candidates = &set.by_cycles[..set.by_cycles.partition_point(|&ci| kept(ci))];

    let most_kernels = options.max_kernels.min(candidates.len());
    kernels.clear();
    kernels.reserve(most_kernels);
    let taken = |kernels: &[SelectedKernel], ci| kernels.iter().any(|k| k.candidate == ci);
    // A candidate is decided at most once in step 1 and once more in step
    // 2 (joined) or step 3; step 2 also records one move per kernel.
    decisions.clear();
    decisions.reserve(2 * candidates.len() + most_kernels);
    diagnostics.clear();
    shared_bases.clear();
    let mut area_used = 0u64;
    let mut covered = 0u64;

    /// Why a candidate was not selected.
    enum Reject {
        /// Synthesis itself failed — a per-region degradation, diagnosed.
        Synth(binpart_synth::SynthError),
        /// Would blow the area budget — a normal heuristic outcome.
        Area,
        /// Hardware would not beat software — a normal heuristic outcome.
        Unsuitable,
    }

    // Clones the memo's result only for a candidate it selects.
    let mut try_select = |ci: usize,
                          mem_in_bram: bool,
                          bram_bytes: u64,
                          area_used: u64|
     -> Result<Arc<SynthesisResult>, Reject> {
        let c = &all[ci];
        let key = KernelKey {
            region: ci,
            mem_in_bram,
            bram_bytes,
        };
        let r = memo
            .synthesize(key, || SynthesisInput {
                function: &prog.functions[c.func_index],
                counts: &counts[c.func_index],
                forest: &prog.forests[c.func_index],
                region: &c.blocks,
                mem_in_bram,
                bram_bytes,
                budget: *budget,
                library: library.clone(),
            })
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
        Ok(Arc::clone(r))
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
    let decide = |decisions: &mut Vec<Decision>, step: u8, ci: usize, outcome: Outcome| {
        decisions.push(Decision {
            step,
            candidate: ci,
            outcome,
        });
    };
    let kernel =
        |ci: usize, mem_in_bram: bool, synth: Arc<SynthesisResult>, step: u8| SelectedKernel {
            candidate: ci,
            mem_in_bram,
            bram_bytes: 0,
            synth,
            step,
        };

    // ---- step 1: most frequent loops to ~coverage ----
    for &ci in candidates {
        if kernels.len() >= options.max_kernels {
            break;
        }
        if (covered as f64) >= options.coverage * total_sw_cycles as f64 {
            break;
        }
        let c = &all[ci];
        let synth = match try_select(ci, false, 0, area_used) {
            Ok(synth) => synth,
            Err(rej) => {
                note_synth(diagnostics, &c.name, &rej);
                decide(decisions, 1, ci, Outcome::Skipped);
                continue;
            }
        };
        area_used += synth.area.gate_equivalents;
        covered += c.sw_cycles;
        decide(
            decisions,
            1,
            ci,
            Outcome::Selected {
                sw_cycles: c.sw_cycles,
                gates: synth.area.gate_equivalents,
            },
        );
        kernels.push(kernel(ci, false, synth, 1));
    }

    // ---- step 2: migrate memory to block RAM, pull in aliasing regions ----
    if options.alias_step {
        // The global bases step 1's kernels touch, sorted and distinct.
        for k in kernels.iter() {
            shared_bases.extend(all[k.candidate].regions.globals.iter().copied());
        }
        shared_bases.sort_unstable();
        shared_bases.dedup();
        for k in kernels.iter_mut() {
            let regions = &all[k.candidate].regions;
            if !regions.fully_resolved() || regions.globals.is_empty() {
                continue;
            }
            let bytes: u64 = regions
                .globals
                .iter()
                .map(|&b| alias::extent_of(shared_bases, b, data_end) as u64)
                .sum();
            let prev_area = k.synth.area.gate_equivalents;
            // A BRAM re-synthesis failure is not a degradation: the kernel
            // stays in hardware with its step-1 synthesis.
            if let Ok(synth) = try_select(k.candidate, true, bytes, area_used - prev_area) {
                area_used = area_used - prev_area + synth.area.gate_equivalents;
                decide(decisions, 2, k.candidate, Outcome::MovedToBram { bytes });
                k.mem_in_bram = true;
                k.bram_bytes = bytes;
                k.synth = synth;
            }
        }
        // Pull in other candidates touching the same arrays.
        for &ci in candidates {
            if taken(kernels, ci) || kernels.len() >= options.max_kernels {
                continue;
            }
            let c = &all[ci];
            if c.regions.globals.is_empty()
                || !c.regions.globals.iter().any(|b| shared_bases.contains(b))
            {
                continue;
            }
            let bram = c.regions.fully_resolved();
            let synth = match try_select(ci, bram, 0, area_used) {
                Ok(synth) => synth,
                Err(rej) => {
                    note_synth(diagnostics, &c.name, &rej);
                    continue;
                }
            };
            area_used += synth.area.gate_equivalents;
            decide(decisions, 2, ci, Outcome::Joined);
            kernels.push(kernel(ci, bram, synth, 2));
        }
    }

    // ---- step 3: greedy fill by weight × suitability ----
    for &ci in &set.by_weight {
        if kernels.len() >= options.max_kernels {
            break;
        }
        if !kept(ci) || taken(kernels, ci) {
            continue;
        }
        let c = &all[ci];
        let bram = c.regions.fully_resolved() && options.alias_step;
        let synth = match try_select(ci, bram, 0, area_used) {
            Ok(synth) => synth,
            Err(rej) => {
                note_synth(diagnostics, &c.name, &rej);
                decide(decisions, 3, ci, Outcome::Rejected);
                continue;
            }
        };
        area_used += synth.area.gate_equivalents;
        decide(decisions, 3, ci, Outcome::Added);
        kernels.push(kernel(ci, bram, synth, 3));
    }

    *total_area_gates = area_used;
    *out_sw_cycles = total_sw_cycles;
    if !shared.as_ref().is_some_and(|s| Arc::ptr_eq(s, all)) {
        *shared = Some(Arc::clone(all));
    }
}

//! The full decompilation pipeline. [`decompile`] lifts the binary into
//! CDFGs, then runs on each function, in order:
//!
//! 1. stack-operation removal (pre-SSA);
//! 2. SSA construction and calling-convention recovery;
//! 3. constant/copy propagation;
//! 4. strength promotion, then loop rerolling;
//! 5. constant/copy propagation again, only when step 4 changed the
//!    function: step 3 ended at its fixpoint, so otherwise it has no work;
//! 6. operator size reduction;
//! 7. unreachable-block removal and control-structure recovery (the
//!    latter only for [`DecompileStats::structure`]).
//!
//! Steps 1 and 3–6 run only with [`DecompileOptions::optimize`].
//!
//! `decompile` owns each function's loop forest. It computes the forest
//! once after step 3 and hands it through steps 4–6: rerolling reads its
//! loops, size reduction its trip counts. Step 4 changes values but no
//! edge, so when step 5 keeps every edge too, only the forest's induction
//! variables and trip counts are refreshed. The forest is recomputed only
//! when step 5 or 7 changed the CFG (without optimization it is computed
//! once, after step 7). The final forest is
//! [`DecompiledProgram::forests`], which the partitioner reads.

use crate::diag::{Diagnostic, FlowStage};
use crate::lift::{self, DecompileError, DecompileOptions};
use crate::opts::{self, PassStats};
use binpart_cdfg::ir::{Function, Op, VReg};
use binpart_cdfg::loops::LoopForest;
use binpart_cdfg::structure::{self, StructureStats};
use binpart_cdfg::{cfg, ssa};
use binpart_mips::sim::Profile;
use binpart_mips::{Binary, Reg};
use std::sync::Arc;

/// Aggregated decompilation statistics (experiment E4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecompileStats {
    /// Functions recovered.
    pub functions: usize,
    /// Basic blocks recovered.
    pub blocks: usize,
    /// Optimization pass counters.
    pub passes: PassStats,
    /// Control constructs recovered (summed over functions).
    pub structure: StructureStats,
}

/// A fully decompiled program: optimized SSA CDFGs plus statistics.
#[derive(Debug, Clone)]
pub struct DecompiledProgram {
    /// Functions; index 0 is the binary entry.
    pub functions: Vec<Function>,
    /// The loop forest of each function, parallel to `functions`: the one
    /// the passes kept current while optimizing it, equal to a fresh
    /// [`LoopForest::compute`] of the final function. The candidate
    /// harvest and every synthesis of a candidate read it instead of
    /// recomputing; shared, so the estimate stage's copy of the program
    /// does not duplicate it.
    pub forests: Arc<[LoopForest]>,
    /// Entry addresses parallel to `functions`.
    pub entries: Vec<u32>,
    /// Per function, the SSA names of function-entry register values:
    /// `(original machine register, SSA name)` for every register read
    /// before any definition. The co-simulation accelerator binder uses
    /// these to materialize function-level live-ins from the CPU register
    /// file (`binpart_hwsim::KernelAccel`).
    pub live_ins: Vec<Vec<(VReg, VReg)>>,
    /// Statistics.
    pub stats: DecompileStats,
    /// Per-region degradation records: functions rejected back to
    /// software-only (lift failures, optimizer fuel trips) under
    /// [`DecompileOptions::software_fallback`]. Always empty when the
    /// option is off — failures are whole-program errors then.
    pub diagnostics: Vec<Diagnostic>,
}

/// Decompiles `binary` into optimized SSA CDFGs.
///
/// # Errors
///
/// Returns [`DecompileError`] when CDFG recovery fails (undecodable words,
/// indirect jumps without recovery enabled, or flow leaving the text
/// section) or an optimizer fuel budget trips. With
/// [`DecompileOptions::software_fallback`] on, only *entry-function*
/// failures are errors: a failing non-entry function is dropped from the
/// recovered program (its call sites keep software semantics — calls are
/// never mapped to hardware) and recorded on
/// [`DecompiledProgram::diagnostics`].
pub fn decompile(
    binary: &Binary,
    options: DecompileOptions,
) -> Result<DecompiledProgram, DecompileError> {
    let lifted = lift::lift_program(binary, options)?;
    let mut stats = DecompileStats::default();
    let mut functions = Vec::new();
    let mut entries = Vec::new();
    let mut live_ins = Vec::new();
    let mut forests = Vec::new();
    let mut diagnostics: Vec<Diagnostic> = lifted
        .skipped
        .iter()
        .map(|s| Diagnostic::new(FlowStage::Lift, &s.name, s.error.to_string()))
        .collect();
    for (idx, (mut f, entry)) in lifted.functions.into_iter().zip(lifted.entries).enumerate() {
        if options.optimize {
            opts::stack_op_removal(&mut f, &mut stats.passes);
        }
        let info = ssa::construct(&mut f);
        // Calling-convention recovery: live-in argument registers become
        // parameters (in ABI order).
        let mut params: Vec<(u8, VReg)> = info
            .live_ins
            .iter()
            .filter_map(|(orig, name)| {
                let n = orig.0;
                if (Reg::A0.number() as u32..=Reg::A3.number() as u32).contains(&n) {
                    Some((n as u8, *name))
                } else {
                    None
                }
            })
            .collect();
        params.sort();
        f.params = params.into_iter().map(|(_, v)| v).collect();
        let optimized = options
            .optimize
            .then(|| optimize(&mut f, &mut stats.passes));
        let forest = match optimized.transpose() {
            Ok(forest) => forest,
            // Index 0 is the binary entry: dropping it would leave no
            // program, so its failure is the program's failure.
            Err(e) if options.software_fallback && idx != 0 => {
                diagnostics.push(Diagnostic::new(FlowStage::Opt, &f.name, e.to_string()));
                continue;
            }
            Err(e) => return Err(e),
        };
        let removed = cfg::remove_unreachable(&mut f) > 0;
        let forest = match forest {
            Some(kept) if !removed => kept,
            _ => LoopForest::compute(&f),
        };
        stats.functions += 1;
        stats.blocks += f.blocks.len();
        let st = structure::recover(&f).stats();
        stats.structure.blocks += st.blocks;
        stats.structure.ifs += st.ifs;
        stats.structure.if_elses += st.if_elses;
        stats.structure.whiles += st.whiles;
        stats.structure.do_whiles += st.do_whiles;
        stats.structure.self_loops += st.self_loops;
        stats.structure.switches += st.switches;
        stats.structure.unstructured += st.unstructured;
        live_ins.push(info.live_ins);
        entries.push(entry);
        functions.push(f);
        forests.push(forest);
    }
    // Refine call arities now that parameters are known.
    let arities: Vec<(u32, usize)> = entries
        .iter()
        .zip(&functions)
        .map(|(&e, f)| (e, f.params.len()))
        .collect();
    for f in &mut functions {
        for b in f.block_ids().collect::<Vec<_>>() {
            for inst in &mut f.block_mut(b).ops {
                if let Op::Call { target, args, .. } = &mut inst.op {
                    if let Some((_, n)) = arities.iter().find(|(e, _)| e == target) {
                        args.truncate(*n);
                    }
                }
            }
        }
    }
    Ok(DecompiledProgram {
        functions,
        forests: forests.into(),
        entries,
        live_ins,
        stats,
        diagnostics,
    })
}

/// Steps 3–6 of the pass list (see the [module docs](self)) on one SSA
/// function. Returns its loop forest, current for the optimized function.
fn optimize(f: &mut Function, stats: &mut PassStats) -> Result<LoopForest, DecompileError> {
    opts::const_copy_prop(f, stats)?;
    let mut forest = LoopForest::compute(f);
    let promoted = opts::strength_promotion(f, stats);
    let rerolled = opts::loop_reroll(f, &forest, stats)?;
    // The first propagation reached its fixpoint; only new multiplies or
    // rerolled bodies give a second one work.
    if promoted || rerolled {
        if opts::const_copy_prop(f, stats)? {
            forest = LoopForest::compute(f);
        } else {
            forest.refresh_induction(f);
        }
    }
    opts::size_reduction(f, &forest, stats);
    Ok(forest)
}

/// Attaches dynamic execution counts from `profile` onto every block.
///
/// A block's count is the maximum count over the addresses of its lifted
/// operations (robust against blocks merged or split by optimization).
pub fn attach_profile(prog: &mut DecompiledProgram, profile: &Profile) {
    for f in &mut prog.functions {
        for b in f.block_ids().collect::<Vec<_>>() {
            let mut count = f
                .block(b)
                .start_pc
                .map(|pc| profile.count_at(pc))
                .unwrap_or(0);
            for inst in &f.block(b).ops {
                if let Some(pc) = inst.pc {
                    count = count.max(profile.count_at(pc));
                }
            }
            f.block_mut(b).profile_count = count;
        }
    }
}

/// Profiled software cycles attributed to a set of blocks (by decoding the
/// original instructions at the blocks' addresses).
pub fn sw_cycles_of_blocks(
    f: &Function,
    blocks: &[binpart_cdfg::ir::BlockId],
    binary: &Binary,
    profile: &Profile,
    cycles: &binpart_mips::CycleModel,
) -> u64 {
    // Decompiler passes delete ops (stack loads, moves) whose machine
    // instructions still cost software cycles, so account by pc *range*:
    // the code generator lays a loop nest out contiguously.
    let Some((min_pc, max_pc)) = region_pc_range(f, blocks) else {
        return 0;
    };
    let mut total = 0u64;
    let mut pc = min_pc;
    while pc <= max_pc {
        let idx = pc.wrapping_sub(binary.text_base) / 4;
        if let Some(&word) = binary.text.get(idx as usize) {
            if let Ok(instr) = binpart_mips::decode(word) {
                total += profile.count_at(pc) * cycles.cycles_for(instr) as u64;
            }
        }
        pc += 4;
    }
    total
}

/// The contiguous machine pc range `[lo, hi]` covered by a set of blocks
/// (the code generator lays loop nests out contiguously), or `None` when
/// no block carries provenance.
pub fn region_pc_range(f: &Function, blocks: &[binpart_cdfg::ir::BlockId]) -> Option<(u32, u32)> {
    let mut min_pc = u32::MAX;
    let mut max_pc = 0u32;
    for &b in blocks {
        if let Some(pc) = f.block(b).start_pc {
            min_pc = min_pc.min(pc);
            max_pc = max_pc.max(pc);
        }
        for inst in &f.block(b).ops {
            if let Some(pc) = inst.pc {
                min_pc = min_pc.min(pc);
                max_pc = max_pc.max(pc);
            }
        }
    }
    (min_pc <= max_pc).then_some((min_pc, max_pc))
}

/// Extends a provenance-derived pc range `[lo, hi]` to its full *machine*
/// extent. Two effects make provenance undershoot: block terminators carry
/// no pc (a latch branch and its delay slot sit just past the last op),
/// and loop rerolling synthesizes one rolled body from the first unrolled
/// section only (sections 2..n of the machine loop have no IR
/// counterpart). Both are recovered the same way: any control transfer
/// *after* the current extent that targets back *into* it is a back edge,
/// so the machine code reaches at least to that branch (plus its delay
/// slot). Iterated to a fixpoint over `[lo, fn_end)` — cross-function
/// branches do not exist, so bounding the scan by the owning function is
/// exact.
pub fn region_machine_extent(binary: &Binary, lo: u32, hi: u32, fn_end: u32) -> u32 {
    // Collect every (pc, target) transfer in [lo, fn_end).
    let mut transfers: Vec<(u32, u32)> = Vec::new();
    let mut pc = lo;
    while pc < fn_end {
        let idx = pc.wrapping_sub(binary.text_base) / 4;
        let Some(&word) = binary.text.get(idx as usize) else {
            break;
        };
        if let Ok(instr) = binpart_mips::decode(word) {
            let target = instr.branch_target(pc).or_else(|| match instr {
                binpart_mips::Instr::J { .. } => instr.jump_target(pc),
                _ => None,
            });
            if let Some(t) = target {
                transfers.push((pc, t));
            }
        }
        pc += 4;
    }
    let mut hi = hi;
    loop {
        let grown = transfers
            .iter()
            .filter(|&&(p, t)| p > hi && t >= lo && t <= hi)
            .map(|&(p, _)| p.wrapping_add(4)) // include the delay slot
            .max();
        match grown {
            Some(h) if h > hi => hi = h,
            _ => break,
        }
    }
    hi
}

/// The first function entry after `lo` (the owning function's end bound
/// for [`region_machine_extent`]), or the end of the text section.
pub fn function_end_after(binary: &Binary, entries: &[u32], lo: u32) -> u32 {
    entries
        .iter()
        .copied()
        .filter(|&e| e > lo)
        .min()
        .unwrap_or_else(|| binary.text_base.wrapping_add(4 * binary.text.len() as u32))
}

/// Convenience: does any op in these blocks call another function?
pub fn blocks_contain_call(f: &Function, blocks: &[binpart_cdfg::ir::BlockId]) -> bool {
    blocks.iter().any(|&b| {
        f.block(b)
            .ops
            .iter()
            .any(|i| matches!(i.op, Op::Call { .. }))
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use binpart_minicc::{compile, OptLevel};

    fn decompile_src(src: &str, level: OptLevel) -> DecompiledProgram {
        let binary = compile(src, level).expect("compiles");
        decompile(&binary, DecompileOptions::default()).expect("decompiles")
    }

    #[test]
    fn decompiles_o0_binary_and_removes_stack_ops() {
        let src = "int main(void) { int i; int s = 0; for (i = 0; i < 10; i++) s += i; return s; }";
        let prog = decompile_src(src, OptLevel::O0);
        assert_eq!(prog.functions.len(), 1);
        assert!(
            prog.stats.passes.stack_slots_promoted >= 2,
            "expected spill slots promoted: {:?}",
            prog.stats.passes
        );
        assert!(prog.stats.passes.stack_ops_removed > 4);
        // The loop must survive as a recovered construct.
        assert!(prog.stats.structure.loops() >= 1);
    }

    #[test]
    fn recovers_loops_across_opt_levels() {
        let src = "int a[16];
            int main(void) { int i; int s = 0;
              for (i = 0; i < 16; i++) a[i] = i;
              for (i = 0; i < 16; i++) s += a[i];
              return s; }";
        for level in OptLevel::ALL {
            let prog = decompile_src(src, level);
            assert!(
                prog.stats.structure.loops() >= 2,
                "at {level}: {:?}",
                prog.stats.structure
            );
            assert_eq!(prog.stats.structure.unstructured, 0, "at {level}");
        }
    }

    #[test]
    fn strength_promotion_fires_on_o2_binaries() {
        // x*10 is strength-reduced by the compiler at -O2; the decompiler
        // must promote it back to a multiply.
        let src = "int g;
            int main(void) { int i; int s = 0;
              for (i = 0; i < 64; i++) s += i * 10;
              g = s; return s; }";
        let prog = decompile_src(src, OptLevel::O2);
        assert!(
            prog.stats.passes.muls_promoted >= 1,
            "{:?}",
            prog.stats.passes
        );
    }

    #[test]
    fn reroll_fires_on_o3_binaries() {
        let src = "int a[16]; int b[16];
            int main(void) { int i;
              for (i = 0; i < 16; i++) b[i] = a[i] + 3;
              return b[5]; }";
        let prog = decompile_src(src, OptLevel::O3);
        assert!(
            prog.stats.passes.loops_rerolled >= 1,
            "expected the unrolled loop to reroll: {:?}",
            prog.stats.passes
        );
    }

    #[test]
    fn jump_table_fails_then_recovers_with_option() {
        let src = "int main(void) { int i; int acc = 0;
            for (i = 0; i < 6; i++) {
              switch (i) {
                case 0: acc += 1; break;
                case 1: acc += 2; break;
                case 2: acc += 4; break;
                case 3: acc += 8; break;
                case 4: acc += 16; break;
                case 5: acc += 32; break;
              }
            }
            return acc; }";
        let binary = compile(src, OptLevel::O2).unwrap();
        let plain = decompile(&binary, DecompileOptions::default());
        assert!(
            matches!(
                plain,
                Err(DecompileError::Lift(
                    crate::lift::LiftError::IndirectJump { .. }
                ))
            ),
            "jump table must defeat plain CDFG recovery: {plain:?}"
        );
        let recovered = decompile(
            &binary,
            DecompileOptions {
                recover_jump_tables: true,
                ..Default::default()
            },
        )
        .expect("recovery succeeds");
        assert!(recovered.stats.structure.switches >= 1);
    }

    #[test]
    fn profile_attaches_to_hot_blocks() {
        let src =
            "int main(void) { int i; int s = 0; for (i = 0; i < 500; i++) s += i; return s; }";
        let binary = compile(src, OptLevel::O1).unwrap();
        let mut m = binpart_mips::sim::Machine::new(&binary).unwrap();
        let exit = m.run().unwrap();
        let mut prog = decompile(&binary, DecompileOptions::default()).unwrap();
        attach_profile(&mut prog, &exit.profile);
        let max = prog.functions[0]
            .blocks
            .iter()
            .map(|b| b.profile_count)
            .max()
            .unwrap();
        assert!(max >= 500, "hottest block count {max}");
    }

    #[test]
    fn size_reduction_narrows_loop_counters() {
        let src =
            "int main(void) { int i; int s = 0; for (i = 0; i < 100; i++) s += 3; return s; }";
        let prog = decompile_src(src, OptLevel::O1);
        assert!(prog.stats.passes.values_narrowed > 0);
    }

    #[test]
    fn multi_function_program_recovers_params() {
        let src = "int add3(int a, int b, int c) { return a + b + c; }
            int main(void) { return add3(1, 2, 3); }";
        let prog = decompile_src(src, OptLevel::O1);
        assert_eq!(prog.functions.len(), 2);
        let callee = &prog.functions[1];
        assert_eq!(callee.params.len(), 3, "{callee}");
    }
}

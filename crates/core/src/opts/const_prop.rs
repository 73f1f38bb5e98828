//! **Constant propagation**, the paper's pass that removes the
//! instruction-set overhead of register moves encoded as `addiu rd, rs, 0`
//! and materializes folded constants, so synthesis wastes no adder on them.
//! Here it is SSA constant and copy propagation with branch folding,
//! followed by dead-code elimination ([`dce`]), which strength promotion
//! also runs after its rewrites.

use super::PassStats;
use crate::lift::DecompileError;
use binpart_cdfg::cfg;
use binpart_cdfg::dataflow::RegLists;
use binpart_cdfg::ir::{BinOp, BlockId, Function, Op, Operand, Terminator, VReg};

/// SSA constant/copy propagation with branch folding. This is the pass that
/// removes "arithmetic instructions with an immediate of zero used as
/// register moves" — the instruction-set overhead the paper calls out.
///
/// Worklist-driven: one seeding sweep builds a dense value map (indexed by
/// register number) and per-register use-block lists; after that, only
/// blocks that use a register whose value changed are revisited, instead of
/// re-sweeping the whole function to a fixpoint. Constant-branch folding
/// (which renumbers blocks via unreachable-code removal) runs between
/// worklist rounds.
///
/// Returns whether the CFG changed (a branch folded or a block removed):
/// only then does a loop forest computed before the pass need
/// recomputing; value-only changes need just
/// [`LoopForest::refresh_induction`](binpart_cdfg::loops::LoopForest::refresh_induction).
///
/// # Errors
///
/// The outer fixpoint carries a fuel budget (each round must fold a branch
/// or remove a block, so compiler output converges in far fewer rounds than
/// the budget); an adversarial CFG that trips it gets
/// [`DecompileError::Fuel`] instead of an unbounded loop.
pub fn const_copy_prop(f: &mut Function, stats: &mut PassStats) -> Result<bool, DecompileError> {
    // Every productive round folds >=1 branch or removes >=1 block, both
    // finite resources; the +64 covers the final no-change round and small
    // functions.
    let limit = 2 * f.blocks.len() as u64 + 64;
    let mut fuel = limit;
    let mut cfg_changed = false;
    loop {
        if fuel == 0 {
            return Err(DecompileError::Fuel {
                pass: "const_copy_prop",
                limit,
            });
        }
        fuel -= 1;
        propagate_worklist(f, stats);
        // Fold constant branches (and prune phi edges of dropped targets).
        let mut folded = false;
        for b in f.block_ids().collect::<Vec<_>>() {
            if let Terminator::Branch {
                cond: Operand::Const(c),
                t,
                f: fl,
            } = f.block(b).term
            {
                let (taken, dropped) = if c != 0 { (t, fl) } else { (fl, t) };
                f.block_mut(b).term = Terminator::Jump(taken);
                if dropped != taken {
                    prune_phi_edge(f, b, dropped);
                }
                folded = true;
            }
        }
        let removed = cfg::remove_unreachable(f) > 0;
        dce(f, stats);
        // Only CFG mutations (branch folds, edge pruning, block removal)
        // can expose new propagation work — they shrink phi argument lists
        // and thus enable new collapses. Pure value changes were already
        // driven to a fixpoint by the worklist, and DCE cannot enable any
        // rewrite.
        if !folded && !removed {
            break;
        }
        cfg_changed = true;
    }
    Ok(cfg_changed)
}

/// Drives constant/copy rewriting and op folding to a fixpoint with a
/// block-level worklist. Returns `true` if anything changed. Does not
/// mutate the CFG (no block removal), so block ids stay stable throughout.
///
/// One ordered pass over all blocks handles the common case outright
/// (values propagate forward in block order); only when a value changes
/// mid-pass — a loop-carried copy, a phi collapse — is the per-register
/// use-block index built to drive targeted re-visits.
fn propagate_worklist(f: &mut Function, stats: &mut PassStats) -> bool {
    let nv = f.vreg_count() as usize;
    let nb = f.blocks.len();
    // Dense value map: register -> known replacement.
    let mut value: Vec<Option<Operand>> = vec![None; nv];
    for b in f.block_ids() {
        for inst in &f.block(b).ops {
            match &inst.op {
                Op::Const { dst, value: v } => {
                    value[dst.index()] = Some(Operand::Const(*v));
                }
                Op::Copy { dst, src } => {
                    value[dst.index()] = Some(*src);
                }
                Op::Phi { dst, args } => {
                    if let Some(u) = phi_collapse(*dst, args) {
                        value[dst.index()] = Some(u);
                    }
                }
                _ => {}
            }
        }
    }
    // (register, block) pairs whose operand was rewritten to a register —
    // the register's uses moved, so the CSR built later must be augmented.
    let mut use_extra: Vec<(u32, u32)> = Vec::new();
    let mut changed = false;
    // Registers whose value became known (or changed) during the initial
    // ordered pass; their use sites may sit in already-visited blocks.
    let mut pending: Vec<VReg> = Vec::new();
    let mut pending_set = vec![false; nv];
    let mut newly: Vec<VReg> = Vec::new();
    for bi in 0..nb as u32 {
        newly.clear();
        visit_block(
            f,
            bi,
            &mut value,
            &mut newly,
            &mut use_extra,
            stats,
            &mut changed,
        );
        for &d in &newly {
            if !pending_set[d.index()] {
                pending_set[d.index()] = true;
                pending.push(d);
            }
        }
    }
    if pending.is_empty() {
        return changed;
    }

    // Index the blocks using each register over the *rewritten* IR and
    // re-visit only blocks that still use a changed register. The rewrites
    // recorded in `use_extra` so far are subsumed by this index (it sees
    // the post-rewrite operands), so the overflow list restarts empty and
    // only collects worklist-phase rewrites.
    use_extra.clear();
    let use_blocks = RegLists::build(nv, |sink| {
        for b in f.block_ids() {
            let bi = b.index() as u32;
            let mut push = |o: &Operand| {
                if let Operand::Reg(r) = o {
                    sink.push(*r, bi);
                }
            };
            for inst in &f.block(b).ops {
                inst.op.for_each_use(&mut push);
            }
            f.block(b).term.for_each_use(&mut push);
        }
    });

    let mut in_work = vec![false; nb];
    let mut work: Vec<u32> = Vec::new();
    let enqueue_users =
        |d: VReg, use_extra: &[(u32, u32)], in_work: &mut [bool], work: &mut Vec<u32>| {
            for &ub in use_blocks.of(d) {
                if !in_work[ub as usize] {
                    in_work[ub as usize] = true;
                    work.push(ub);
                }
            }
            for &(r, ub) in use_extra {
                if r == d.0 && !in_work[ub as usize] {
                    in_work[ub as usize] = true;
                    work.push(ub);
                }
            }
        };
    for &d in &pending {
        enqueue_users(d, &use_extra, &mut in_work, &mut work);
    }
    // Fuel: in well-formed SSA each register's value settles after a
    // bounded number of visits; degenerate (non-dominating) cycles could
    // oscillate, so the worklist stops after a generous budget. Stopping
    // early is sound — the pass is a pure optimization.
    let mut fuel = 64 * nb as u64 + 1024;
    while let Some(bi) = work.pop() {
        if fuel == 0 {
            break;
        }
        fuel -= 1;
        in_work[bi as usize] = false;
        newly.clear();
        visit_block(
            f,
            bi,
            &mut value,
            &mut newly,
            &mut use_extra,
            stats,
            &mut changed,
        );
        for &d in &newly {
            enqueue_users(d, &use_extra, &mut in_work, &mut work);
        }
    }
    changed
}

/// One worklist visit: rewrites every use in block `bi` through the value
/// map, folds ops, and records registers whose value changed in `newly`.
fn visit_block(
    f: &mut Function,
    bi: u32,
    value: &mut [Option<Operand>],
    newly: &mut Vec<VReg>,
    use_extra: &mut Vec<(u32, u32)>,
    stats: &mut PassStats,
    changed: &mut bool,
) {
    // Chains are acyclic in well-formed SSA, so `len + 1` hops fully
    // resolves any chain; the cap only guards degenerate cycles.
    let hop_cap = value.len() + 1;
    let resolve = |mut o: Operand, value: &[Option<Operand>]| -> Operand {
        for _ in 0..hop_cap {
            match o {
                Operand::Reg(r) => match value[r.index()] {
                    Some(n) if n != o => o = n,
                    _ => break,
                },
                Operand::Const(_) => break,
            }
        }
        o
    };
    let block = f.block_mut(BlockId(bi));
    for inst in &mut block.ops {
        // Rewrite uses (phi args resolve too: values dominate the edge).
        inst.op.for_each_use_mut(|o| {
            let n = resolve(*o, value);
            if n != *o {
                *o = n;
                *changed = true;
                if let Operand::Reg(r) = n {
                    use_extra.push((r.0, bi));
                }
            }
        });
        // Fold.
        if let Op::Phi { dst, args } = &inst.op {
            if let Some(u) = phi_collapse(*dst, args) {
                if value[dst.index()] != Some(u) {
                    value[dst.index()] = Some(u);
                    newly.push(*dst);
                }
            }
            continue;
        }
        // The folded op and the operand its destination now stands for.
        let folded: Option<(Op, Operand)> = match &inst.op {
            Op::Bin { op, dst, lhs, rhs } => match (lhs, rhs) {
                (Operand::Const(a), Operand::Const(b)) => {
                    let value = op.fold(*a, *b);
                    Some((Op::Const { dst: *dst, value }, Operand::Const(value)))
                }
                (x, Operand::Const(0))
                    if matches!(
                        op,
                        BinOp::Add
                            | BinOp::Sub
                            | BinOp::Or
                            | BinOp::Xor
                            | BinOp::Shl
                            | BinOp::ShrL
                            | BinOp::ShrA
                    ) =>
                {
                    Some((Op::Copy { dst: *dst, src: *x }, *x))
                }
                (Operand::Const(0), y) if matches!(op, BinOp::Add | BinOp::Or) => {
                    Some((Op::Copy { dst: *dst, src: *y }, *y))
                }
                _ => None,
            },
            Op::Un {
                op,
                dst,
                src: Operand::Const(c),
            } => {
                let value = op.fold(*c);
                Some((Op::Const { dst: *dst, value }, Operand::Const(value)))
            }
            _ => None,
        };
        if let Some((n, v)) = folded {
            if matches!(n, Op::Const { .. }) {
                stats.consts_folded += 1;
            } else {
                stats.moves_removed += 1;
            }
            if let Some(d) = n.dst() {
                if value[d.index()] != Some(v) {
                    value[d.index()] = Some(v);
                    newly.push(d);
                }
            }
            inst.op = n;
            *changed = true;
        }
    }
    let block = f.block_mut(BlockId(bi));
    let mut term = std::mem::replace(&mut block.term, Terminator::None);
    term.for_each_use_mut(|o| {
        let n = resolve(*o, value);
        if n != *o {
            *o = n;
            *changed = true;
            if let Operand::Reg(r) = n {
                use_extra.push((r.0, bi));
            }
        }
    });
    f.block_mut(BlockId(bi)).term = term;
}

/// A phi whose arguments are all identical (or the phi itself) collapses to
/// that unique value.
fn phi_collapse(dst: VReg, args: &[(BlockId, Operand)]) -> Option<Operand> {
    let mut uniq: Option<Operand> = None;
    for (_, a) in args {
        if a.as_reg() == Some(dst) {
            continue;
        }
        match uniq {
            None => uniq = Some(*a),
            Some(u) if u == *a => {}
            _ => return None,
        }
    }
    uniq
}

/// Removes the `pred` incoming edge from `succ`'s phis.
fn prune_phi_edge(f: &mut Function, pred: BlockId, succ: BlockId) {
    for inst in &mut f.block_mut(succ).ops {
        if let Op::Phi { args, .. } = &mut inst.op {
            args.retain(|(p, _)| *p != pred);
        }
    }
}

/// Dead-code elimination (SSA). Returns `true` on change.
///
/// Worklist-driven: one sweep counts uses and seeds the initial dead set;
/// removing an op decrements its operands' use counts, and registers that
/// hit zero enqueue their defining ops — no whole-function re-sweeps. The
/// removed set is the same fixpoint the iterated-sweep formulation reaches
/// (the largest set of sideeffect-free ops whose results are transitively
/// unused).
pub fn dce(f: &mut Function, stats: &mut PassStats) -> bool {
    let nv = f.vreg_count() as usize;
    let mut uses: Vec<u32> = vec![0; nv];
    // Flat op index base per block (ops are addressed as base + k).
    let mut op_base: Vec<u32> = Vec::with_capacity(f.blocks.len() + 1);
    let mut total_ops = 0u32;
    for b in f.block_ids() {
        op_base.push(total_ops);
        total_ops += f.block(b).ops.len() as u32;
        let mut count = |o: &Operand| {
            if let Operand::Reg(r) = o {
                if r.index() < nv {
                    uses[r.index()] += 1;
                }
            }
        };
        for inst in &f.block(b).ops {
            inst.op.for_each_use(&mut count);
        }
        f.block(b).term.for_each_use(&mut count);
    }
    op_base.push(total_ops);
    // Defining ops per register. Not assumed SSA — a register may have
    // several defs (pre-SSA callers), all candidates.
    let defs = RegLists::build(nv, |sink| {
        for b in f.block_ids() {
            for (k, inst) in f.block(b).ops.iter().enumerate() {
                if let Some(d) = inst.op.dst() {
                    sink.push(d, (b.index() as u32, k as u32));
                }
            }
        }
    });
    let removable = |op: &Op, uses: &[u32]| -> bool {
        if op.has_side_effects() {
            return false;
        }
        match op.dst() {
            Some(d) => d.index() < uses.len() && uses[d.index()] == 0,
            None => false,
        }
    };
    // Seed: every op already dead.
    let mut dead = vec![false; total_ops as usize];
    let mut work: Vec<(u32, u32)> = Vec::new();
    for b in f.block_ids() {
        for (k, inst) in f.block(b).ops.iter().enumerate() {
            if removable(&inst.op, &uses) {
                work.push((b.index() as u32, k as u32));
            }
        }
    }
    let mut removed = 0usize;
    let mut zeroed: Vec<VReg> = Vec::new();
    while let Some((bi, k)) = work.pop() {
        let flat = (op_base[bi as usize] + k) as usize;
        if dead[flat] {
            continue;
        }
        let op = &f.blocks[bi as usize].ops[k as usize].op;
        if !removable(op, &uses) {
            continue;
        }
        dead[flat] = true;
        removed += 1;
        // Decrement operand counts; zero-use registers wake their defs.
        zeroed.clear();
        op.for_each_use(|o| {
            if let Operand::Reg(r) = o {
                if r.index() < nv {
                    uses[r.index()] -= 1;
                    if uses[r.index()] == 0 {
                        zeroed.push(*r);
                    }
                }
            }
        });
        for &r in &zeroed {
            for &(db, dk) in defs.of(r) {
                if !dead[(op_base[db as usize] + dk) as usize] {
                    work.push((db, dk));
                }
            }
        }
    }
    if removed == 0 {
        return false;
    }
    for (bi, block) in f.blocks.iter_mut().enumerate() {
        let base = op_base[bi] as usize;
        let mut k = 0;
        block.ops.retain(|_| {
            let keep = !dead[base + k];
            k += 1;
            keep
        });
    }
    stats.dead_removed += removed;
    true
}

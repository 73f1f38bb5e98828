//! The decompiler optimization passes from the paper:
//!
//! * **constant propagation** — removes the instruction-set overhead of
//!   register moves encoded as `addiu rd, rs, 0` and materializes folded
//!   constants, so no adder is wasted in synthesis;
//! * **stack operation removal** — promotes spill slots, saved registers,
//!   and `$ra` homes back into registers (pre-SSA);
//! * **operator size reduction** — infers the bit-width each value actually
//!   needs so the synthesizer builds narrow datapaths;
//! * **strength promotion** — re-fuses shift/add sequences produced by a
//!   compiler's strength reduction back into single multiplications, giving
//!   the synthesis tool the choice;
//! * **loop rerolling** — detects compiler-unrolled loops and rolls them
//!   back into their original single-body form.

use crate::lift::DecompileError;
use binpart_cdfg::cfg;
use binpart_cdfg::dataflow::DefSites;
use binpart_cdfg::ir::{BinOp, BlockId, Function, Inst, Op, Operand, Terminator, UnOp, VReg};
use binpart_cdfg::loops::LoopForest;
use std::collections::HashMap;

/// Counters reported by experiment E4 ("constructs recovered").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// `Copy`/move instructions eliminated (instruction-set overhead).
    pub moves_removed: usize,
    /// Operations folded to constants.
    pub consts_folded: usize,
    /// Dead operations removed.
    pub dead_removed: usize,
    /// Stack slots promoted to registers.
    pub stack_slots_promoted: usize,
    /// Stack loads/stores eliminated.
    pub stack_ops_removed: usize,
    /// Values whose inferred width is below 32 bits.
    pub values_narrowed: usize,
    /// Multiplications recovered from shift/add sequences.
    pub muls_promoted: usize,
    /// Loops rerolled.
    pub loops_rerolled: usize,
}

// ---------------------------------------------------------------- stack ops

/// Pre-SSA stack operation removal.
///
/// Finds the frame adjustment (`sp -= N` / `sp += N`), tracks `sp`-relative
/// addresses per block, and promotes word-sized slots whose addresses never
/// escape to fresh virtual registers. Slots above the lowest escaping base
/// (local arrays, address-taken scalars) are left in memory.
/// Epoch-stamped dense map from register to sp-relative offset, reset per
/// block in O(1) (used by [`stack_op_removal`]).
struct DenseDerived {
    epoch: u32,
    stamp: Vec<u32>,
    off: Vec<i64>,
}

impl DenseDerived {
    fn new(n: usize) -> DenseDerived {
        DenseDerived {
            epoch: 0,
            stamp: vec![0; n],
            off: vec![0; n],
        }
    }

    fn next_block(&mut self) {
        self.epoch += 1;
    }

    fn insert(&mut self, r: VReg, c: i64) {
        if r.index() < self.stamp.len() {
            self.stamp[r.index()] = self.epoch;
            self.off[r.index()] = c;
        }
    }

    fn remove(&mut self, r: &VReg) {
        if r.index() < self.stamp.len() {
            self.stamp[r.index()] = 0;
        }
    }

    fn get(&self, r: &VReg) -> Option<&i64> {
        if r.index() < self.stamp.len() && self.stamp[r.index()] == self.epoch {
            Some(&self.off[r.index()])
        } else {
            None
        }
    }

    fn contains_key(&self, r: &VReg) -> bool {
        self.get(r).is_some()
    }
}

pub fn stack_op_removal(f: &mut Function, stats: &mut PassStats) {
    const SP: VReg = VReg(29);
    // 1. Find the frame size from the entry block's `sp = sp + (-N)`.
    let mut frame: Option<i64> = None;
    for inst in &f.block(f.entry).ops {
        if let Op::Bin {
            op: BinOp::Add,
            dst,
            lhs: Operand::Reg(r),
            rhs: Operand::Const(c),
        } = inst.op
        {
            if dst == SP && r == SP && c < 0 {
                frame = Some(-c);
                break;
            }
        }
    }
    let Some(frame) = frame else { return };

    // 2. Scan: classify every sp-derived value per block; find accesses and
    //    escapes. Sp-derived values are `Add(sp, const)` temporaries.
    #[derive(Clone, Copy, PartialEq)]
    enum Acc {
        Word,
        Narrow,
    }
    let mut slot_access: HashMap<i64, Acc> = HashMap::new();
    let mut min_escape: i64 = frame;
    let mut whole_frame_escape = false;
    // Per-block sp-derived values as an epoch-stamped dense array (one
    // allocation for the whole pass instead of a hash map per block).
    let nv0 = f.vreg_count() as usize;
    let mut derived = DenseDerived::new(nv0);
    for b in f.block_ids() {
        derived.next_block();
        for inst in &f.block(b).ops {
            // Which of this op's *uses* are sp or sp-derived, and how?
            match &inst.op {
                Op::Bin {
                    op: BinOp::Add,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let sp_side = |o: &Operand| matches!(o, Operand::Reg(r) if *r == SP);
                    if sp_side(lhs) || sp_side(rhs) {
                        let c = lhs.as_const().or(rhs.as_const());
                        match c {
                            Some(c) if *dst != SP => {
                                derived.insert(*dst, c);
                            }
                            Some(_) => {} // the prologue/epilogue adjust
                            None => whole_frame_escape = true,
                        }
                        continue;
                    }
                    // non-sp add consuming a derived value: pointer
                    // arithmetic off a frame object -> its base escapes
                    for o in [lhs, rhs] {
                        if let Operand::Reg(r) = o {
                            if let Some(&off) = derived.get(r) {
                                min_escape = min_escape.min(off);
                            }
                        }
                    }
                    derived.remove(dst);
                }
                Op::Load { dst, addr, width, .. } => {
                    let off = match addr {
                        Operand::Reg(r) if *r == SP => Some(0),
                        Operand::Reg(r) => derived.get(r).copied(),
                        Operand::Const(_) => None,
                    };
                    if let Some(off) = off {
                        let acc = if width.bytes() == 4 { Acc::Word } else { Acc::Narrow };
                        slot_access
                            .entry(off)
                            .and_modify(|a| {
                                if *a != acc {
                                    *a = Acc::Narrow;
                                }
                            })
                            .or_insert(acc);
                    }
                    derived.remove(dst);
                }
                Op::Store { src, addr, width } => {
                    // storing a derived value leaks the address
                    if let Operand::Reg(r) = src {
                        if let Some(&off) = derived.get(r) {
                            min_escape = min_escape.min(off);
                        }
                        if *r == SP {
                            whole_frame_escape = true;
                        }
                    }
                    let off = match addr {
                        Operand::Reg(r) if *r == SP => Some(0),
                        Operand::Reg(r) => derived.get(r).copied(),
                        Operand::Const(_) => None,
                    };
                    if let Some(off) = off {
                        let acc = if width.bytes() == 4 { Acc::Word } else { Acc::Narrow };
                        slot_access
                            .entry(off)
                            .and_modify(|a| {
                                if *a != acc {
                                    *a = Acc::Narrow;
                                }
                            })
                            .or_insert(acc);
                    }
                }
                Op::Call { args, .. } => {
                    for a in args {
                        if let Operand::Reg(r) = a {
                            if let Some(&off) = derived.get(r) {
                                min_escape = min_escape.min(off);
                            }
                            if *r == SP {
                                whole_frame_escape = true;
                            }
                        }
                    }
                    // calls may define v0; drop any derived there
                }
                other => {
                    // any other use of sp or a derived value escapes
                    other.for_each_use(|o| {
                        if let Operand::Reg(r) = o {
                            if *r == SP {
                                whole_frame_escape = true;
                            } else if let Some(&off) = derived.get(r) {
                                min_escape = min_escape.min(off);
                            }
                        }
                    });
                    if let Some(d) = other.dst() {
                        derived.remove(&d);
                    }
                }
            }
        }
        let term_uses_sp = {
            let mut found = false;
            f.block(b).term.for_each_use(|o| {
                if let Operand::Reg(r) = o {
                    if *r == SP || derived.contains_key(r) {
                        found = true;
                    }
                }
            });
            found
        };
        if term_uses_sp {
            whole_frame_escape = true;
        }
    }
    if whole_frame_escape {
        return;
    }
    // 3. Promote: word slots below the escape line get fresh registers.
    let promotable: Vec<i64> = slot_access
        .iter()
        .filter(|(off, acc)| **off < min_escape && **off >= 0 && **acc == Acc::Word)
        .map(|(off, _)| *off)
        .collect();
    if promotable.is_empty() {
        return;
    }
    let mut slot_reg: HashMap<i64, VReg> = HashMap::new();
    for &off in &promotable {
        slot_reg.insert(off, f.new_vreg());
    }
    stats.stack_slots_promoted += promotable.len();
    let mut derived = DenseDerived::new(nv0.max(f.vreg_count() as usize));
    for b in f.block_ids().collect::<Vec<_>>() {
        derived.next_block();
        let ops = std::mem::take(&mut f.block_mut(b).ops);
        let mut new_ops = Vec::with_capacity(ops.len());
        for inst in ops {
            match &inst.op {
                Op::Bin {
                    op: BinOp::Add,
                    dst,
                    lhs,
                    rhs,
                } if *dst != SP => {
                    let sp_side = matches!(lhs, Operand::Reg(r) if *r == SP)
                        || matches!(rhs, Operand::Reg(r) if *r == SP);
                    if sp_side {
                        if let Some(c) = lhs.as_const().or(rhs.as_const()) {
                            derived.insert(*dst, c);
                        }
                    } else {
                        derived.remove(dst);
                    }
                    new_ops.push(inst);
                }
                Op::Load { dst, addr, .. } => {
                    let off = match addr {
                        Operand::Reg(r) if *r == SP => Some(0),
                        Operand::Reg(r) => derived.get(r).copied(),
                        _ => None,
                    };
                    match off.and_then(|o| slot_reg.get(&o)) {
                        Some(&slot) => {
                            stats.stack_ops_removed += 1;
                            new_ops.push(Inst {
                                op: Op::Copy {
                                    dst: *dst,
                                    src: Operand::Reg(slot),
                                },
                                pc: inst.pc,
                            });
                        }
                        None => new_ops.push(inst.clone()),
                    }
                    if let Op::Load { dst, .. } = &inst.op {
                        derived.remove(dst);
                    }
                }
                Op::Store { src, addr, .. } => {
                    let off = match addr {
                        Operand::Reg(r) if *r == SP => Some(0),
                        Operand::Reg(r) => derived.get(r).copied(),
                        _ => None,
                    };
                    match off.and_then(|o| slot_reg.get(&o)) {
                        Some(&slot) => {
                            stats.stack_ops_removed += 1;
                            new_ops.push(Inst {
                                op: Op::Copy {
                                    dst: slot,
                                    src: *src,
                                },
                                pc: inst.pc,
                            });
                        }
                        None => new_ops.push(inst),
                    }
                }
                other => {
                    if let Some(d) = other.dst() {
                        derived.remove(&d);
                    }
                    new_ops.push(inst);
                }
            }
        }
        f.block_mut(b).ops = new_ops;
    }
}

// -------------------------------------------------- const & copy prop + DCE

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
/// [`LoopForest::refresh_induction`].
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
/// mid-pass — a loop-carried copy, a phi collapse — is the CSR use-block
/// index built to drive targeted re-visits.
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
        visit_block(f, bi, &mut value, &mut newly, &mut use_extra, stats, &mut changed);
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

    // Build the use-block index (CSR: flat array + per-register offsets)
    // over the *rewritten* IR and re-visit only blocks that still use a
    // changed register. The rewrites recorded in `use_extra` so far are
    // subsumed by this index (it sees the post-rewrite operands), so the
    // overflow list restarts empty and only collects worklist-phase
    // rewrites.
    use_extra.clear();
    let mut use_count: Vec<u32> = vec![0; nv + 1];
    for b in f.block_ids() {
        let count = |o: &Operand, use_count: &mut [u32]| {
            if let Operand::Reg(r) = o {
                use_count[r.index() + 1] += 1;
            }
        };
        for inst in &f.block(b).ops {
            inst.op.for_each_use(|o| count(o, &mut use_count));
        }
        f.block(b).term.for_each_use(|o| count(o, &mut use_count));
    }
    for i in 1..=nv {
        use_count[i] += use_count[i - 1];
    }
    // CSR offsets: `use_off[r]..use_off[r + 1]` are register `r`'s uses;
    // the vector holds `nv + 1` entries, so `use_off[nv]` is the total.
    let use_off = use_count;
    let mut use_flat: Vec<u32> = vec![0; use_off[nv] as usize];
    let mut cursor: Vec<u32> = use_off[..nv].to_vec();
    for b in f.block_ids() {
        let bi = b.index() as u32;
        let fill = |o: &Operand, use_flat: &mut [u32], cursor: &mut [u32]| {
            if let Operand::Reg(r) = o {
                use_flat[cursor[r.index()] as usize] = bi;
                cursor[r.index()] += 1;
            }
        };
        for inst in &f.block(b).ops {
            inst.op.for_each_use(|o| fill(o, &mut use_flat, &mut cursor));
        }
        f.block(b)
            .term
            .for_each_use(|o| fill(o, &mut use_flat, &mut cursor));
    }

    let mut in_work = vec![false; nb];
    let mut work: Vec<u32> = Vec::new();
    let enqueue_users = |d: VReg,
                             use_extra: &[(u32, u32)],
                             in_work: &mut [bool],
                             work: &mut Vec<u32>| {
        let slice = &use_flat[use_off[d.index()] as usize..use_off[d.index() + 1] as usize];
        for &ub in slice {
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
        visit_block(f, bi, &mut value, &mut newly, &mut use_extra, stats, &mut changed);
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
                        BinOp::Add | BinOp::Sub | BinOp::Or | BinOp::Xor | BinOp::Shl
                            | BinOp::ShrL | BinOp::ShrA
                    ) =>
                {
                    Some((Op::Copy { dst: *dst, src: *x }, *x))
                }
                (Operand::Const(0), y) if matches!(op, BinOp::Add | BinOp::Or) => {
                    Some((Op::Copy { dst: *dst, src: *y }, *y))
                }
                _ => None,
            },
            Op::Un { op, dst, src: Operand::Const(c) } => {
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
    // Defining ops per register, CSR-laid-out. Not assumed SSA — a register
    // may have several defs (pre-SSA callers), all candidates.
    let mut def_count: Vec<u32> = vec![0; nv + 1];
    // Flat op index base per block (ops are addressed as base + k).
    let mut op_base: Vec<u32> = Vec::with_capacity(f.blocks.len() + 1);
    let mut total_ops = 0u32;
    for b in f.block_ids() {
        op_base.push(total_ops);
        total_ops += f.block(b).ops.len() as u32;
        for inst in &f.block(b).ops {
            inst.op.for_each_use(|o| {
                if let Operand::Reg(r) = o {
                    if r.index() < nv {
                        uses[r.index()] += 1;
                    }
                }
            });
            if let Some(d) = inst.op.dst() {
                if d.index() < nv {
                    def_count[d.index() + 1] += 1;
                }
            }
        }
        f.block(b).term.for_each_use(|o| {
            if let Operand::Reg(r) = o {
                if r.index() < nv {
                    uses[r.index()] += 1;
                }
            }
        });
    }
    op_base.push(total_ops);
    for i in 1..=nv {
        def_count[i] += def_count[i - 1];
    }
    // CSR offsets with `nv + 1` entries: `def_off[nv]` is the total.
    let def_off = def_count;
    let mut def_flat: Vec<(u32, u32)> = vec![(0, 0); def_off[nv] as usize];
    let mut cursor: Vec<u32> = def_off[..nv].to_vec();
    for b in f.block_ids() {
        for (k, inst) in f.block(b).ops.iter().enumerate() {
            if let Some(d) = inst.op.dst() {
                if d.index() < nv {
                    def_flat[cursor[d.index()] as usize] = (b.index() as u32, k as u32);
                    cursor[d.index()] += 1;
                }
            }
        }
    }
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
            let defs =
                &def_flat[def_off[r.index()] as usize..def_off[r.index() + 1] as usize];
            for &(db, dk) in defs {
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

// --------------------------------------------------------- size reduction

/// Operator size reduction: forward bit-width inference (with induction-
/// variable ranges from the loop forest) written into `f.vreg_bits`.
///
/// `forest` must be current for `f`, induction variables and trip counts
/// included (a fresh [`LoopForest::compute`], or one kept across
/// value-only passes and [refreshed](LoopForest::refresh_induction)); the
/// pass only reads it, and it changes no op or edge, so the forest stays
/// valid afterwards.
///
/// Worklist-driven sparse fixpoint: widths start at the optimistic minimum
/// and only the ops consuming a register whose width grew are re-evaluated.
/// Every transfer function is monotone in its operand widths, so the
/// unique least fixpoint is reached regardless of evaluation order —
/// identical to the old iterated whole-function sweep.
pub fn size_reduction(f: &mut Function, forest: &LoopForest, stats: &mut PassStats) {
    let n = f.vreg_count() as usize;
    // Seed induction variables from loop trip counts.
    let mut iv_bits: HashMap<VReg, u8> = HashMap::new();
    for l in forest.loops() {
        if let (Some(iv), Some(trip)) = (l.induction, l.trip_count) {
            if let Some(init) = iv.init.as_const() {
                let lo = init.min(init + iv.step * trip as i64);
                let hi = init.max(init + iv.step * trip as i64);
                if lo >= 0 {
                    let w = 64 - (hi.max(1) as u64).leading_zeros();
                    iv_bits.insert(iv.phi, (w as u8).min(32));
                    iv_bits.insert(iv.next, (w as u8).min(32));
                }
            }
        }
    }
    let width_of = |o: &Operand, bits: &[u8]| -> u8 {
        match o {
            Operand::Const(c) => {
                if *c < 0 {
                    32
                } else {
                    (64 - (*c as u64).max(1).leading_zeros()).min(32) as u8
                }
            }
            Operand::Reg(r) => bits.get(r.index()).copied().unwrap_or(32),
        }
    };
    // The width an op's destination needs given current operand widths.
    let transfer = |op: &Op, d: VReg, bits: &[u8], iv_bits: &HashMap<VReg, u8>| -> Option<u8> {
        Some(match op {
            Op::Const { value, .. } => width_of(&Operand::Const(*value), bits),
            Op::Copy { src, .. } => width_of(src, bits),
            Op::Phi { args, .. } => {
                if let Some(&ivw) = iv_bits.get(&d) {
                    ivw
                } else {
                    args.iter().map(|(_, a)| width_of(a, bits)).max().unwrap_or(32)
                }
            }
            Op::Un { op, src, .. } => match op {
                UnOp::ZextB => 8.min(width_of(src, bits)),
                UnOp::ZextH => 16.min(width_of(src, bits)),
                UnOp::SextB => {
                    let w = width_of(src, bits);
                    if w <= 7 {
                        w
                    } else {
                        32
                    }
                }
                UnOp::SextH => {
                    let w = width_of(src, bits);
                    if w <= 15 {
                        w
                    } else {
                        32
                    }
                }
                _ => 32,
            },
            Op::Bin { op, lhs, rhs, .. } => {
                if let Some(&ivw) = iv_bits.get(&d) {
                    ivw
                } else {
                    let a = width_of(lhs, bits);
                    let b = width_of(rhs, bits);
                    match op {
                        BinOp::And => a.min(b),
                        BinOp::Or | BinOp::Xor | BinOp::Nor => a.max(b),
                        BinOp::Add => (a.max(b) + 1).min(32),
                        BinOp::Mul => (a as u32 + b as u32).min(32) as u8,
                        BinOp::Shl => match rhs.as_const() {
                            Some(s) => (a as u32 + (s as u32 & 31)).min(32) as u8,
                            None => 32,
                        },
                        BinOp::ShrL => match rhs.as_const() {
                            Some(s) => a.saturating_sub((s & 31) as u8).max(1),
                            None => a,
                        },
                        BinOp::ShrA if a < 32 => a,
                        op if op.is_compare() => 1,
                        _ => 32,
                    }
                }
            }
            Op::Load { width, signed, .. } => {
                if *signed && width.bits() < 32 {
                    32
                } else {
                    width.bits()
                }
            }
            Op::Call { .. } => 32,
            Op::Store { .. } => return None,
        })
    };

    // Flat def list + per-register consumer lists (the IR is not mutated
    // during inference, so op indices stay valid).
    let mut def_ops: Vec<(BlockId, usize, VReg)> = Vec::new();
    for blk in f.block_ids() {
        for (k, inst) in f.block(blk).ops.iter().enumerate() {
            if let Some(d) = inst.op.dst() {
                if d.index() < n {
                    def_ops.push((blk, k, d));
                }
            }
        }
    }
    // CSR consumer lists: ops to re-evaluate when a register's width grows.
    let mut cons_count: Vec<u32> = vec![0; n + 1];
    for &(blk, k, _) in def_ops.iter() {
        f.block(blk).ops[k].op.for_each_use(|o| {
            if let Operand::Reg(r) = o {
                if r.index() < n {
                    cons_count[r.index() + 1] += 1;
                }
            }
        });
    }
    for i in 1..=n {
        cons_count[i] += cons_count[i - 1];
    }
    // CSR offsets with `n + 1` entries: `cons_off[n]` is the total.
    let cons_off = cons_count;
    let mut cons_flat: Vec<u32> = vec![0; cons_off[n] as usize];
    let mut cursor: Vec<u32> = cons_off[..n].to_vec();
    for (i, &(blk, k, _)) in def_ops.iter().enumerate() {
        f.block(blk).ops[k].op.for_each_use(|o| {
            if let Operand::Reg(r) = o {
                if r.index() < n {
                    cons_flat[cursor[r.index()] as usize] = i as u32;
                    cursor[r.index()] += 1;
                }
            }
        });
    }

    // Initialize to the narrow optimistic value then widen round by round.
    // The 12-round cap is semantic, not merely a convergence budget: it is
    // the widening cutoff for loop-carried accumulators (whose widths would
    // otherwise grow one bit per round all the way to 32), so the dirty-op
    // worklist must reproduce sweep-round visibility exactly — an op
    // re-dirtied by an *earlier* op in the same round is evaluated within
    // the round; one re-dirtied by a *later* op waits for the next round.
    let mut bits: Vec<u8> = vec![1; n];
    let nops = def_ops.len();
    let mut dirty = vec![true; nops];
    let mut next = vec![false; nops];
    for _round in 0..12 {
        let mut any = false;
        for i in 0..nops {
            if !dirty[i] {
                continue;
            }
            dirty[i] = false;
            let (blk, k, d) = def_ops[i];
            let Some(w) = transfer(&f.block(blk).ops[k].op, d, &bits, &iv_bits) else {
                continue;
            };
            if w > bits[d.index()] {
                bits[d.index()] = w;
                any = true;
                let cons = &cons_flat
                    [cons_off[d.index()] as usize..cons_off[d.index() + 1] as usize];
                for &c in cons {
                    if (c as usize) > i {
                        dirty[c as usize] = true;
                    } else {
                        next[c as usize] = true;
                    }
                }
            }
        }
        if !any {
            break;
        }
        std::mem::swap(&mut dirty, &mut next);
    }
    stats.values_narrowed += bits.iter().filter(|&&b| b < 32).count();
    f.vreg_bits = bits;
}

// ------------------------------------------------------ strength promotion

/// Strength promotion: rewrites shift/add trees computing `k·x` back into a
/// single multiplication, undoing compiler strength reduction so the
/// synthesis tool can choose the implementation. Returns whether anything
/// was promoted. Rewrites ops only, never an edge.
pub fn strength_promotion(f: &mut Function, stats: &mut PassStats) -> bool {
    let sites = DefSites::compute(f);
    // linear form: value = k * base + c
    #[derive(Clone, Copy)]
    struct Lin {
        base: Option<VReg>,
        k: i64,
        c: i64,
        ops: u32,
    }
    fn linear(v: VReg, f: &Function, sites: &DefSites, depth: u32) -> Lin {
        let leaf = Lin {
            base: Some(v),
            k: 1,
            c: 0,
            ops: 0,
        };
        if depth > 8 {
            return leaf;
        }
        let Some(op) = sites.def_of(f, v) else {
            return leaf;
        };
        let operand = |o: &Operand, f: &Function, sites: &DefSites| -> Lin {
            match o {
                Operand::Const(c) => Lin {
                    base: None,
                    k: 0,
                    c: *c,
                    ops: 0,
                },
                Operand::Reg(r) => linear(*r, f, sites, depth + 1),
            }
        };
        match op {
            Op::Bin { op: BinOp::Add, lhs, rhs, .. } => {
                let a = operand(lhs, f, sites);
                let b = operand(rhs, f, sites);
                combine(a, b, 1).unwrap_or(leaf)
            }
            Op::Bin { op: BinOp::Sub, lhs, rhs, .. } => {
                let a = operand(lhs, f, sites);
                let b = operand(rhs, f, sites);
                combine(a, b, -1).unwrap_or(leaf)
            }
            Op::Bin {
                op: BinOp::Shl,
                lhs,
                rhs: Operand::Const(s),
                ..
            } => {
                let a = operand(lhs, f, sites);
                let s = *s & 31;
                Lin {
                    base: a.base,
                    k: a.k.wrapping_shl(s as u32),
                    c: a.c.wrapping_shl(s as u32),
                    ops: a.ops + 1,
                }
            }
            Op::Copy { src, .. } => operand(src, f, sites),
            _ => leaf,
        }
    }
    fn combine(a: Lin, b: Lin, sign: i64) -> Option<Lin> {
        let base = match (a.base, b.base) {
            (Some(x), Some(y)) if x == y => Some(x),
            (Some(x), None) => Some(x),
            (None, Some(y)) => Some(y),
            (None, None) => None,
            _ => return None, // two different bases: not a 1-D linear form
        };
        Some(Lin {
            base,
            k: a.k + sign * b.k,
            c: a.c + sign * b.c,
            ops: a.ops + b.ops + 1,
        })
    }
    // Promote roots: Add/Sub ops whose linear form is k*x with interesting k.
    let mut promotions: Vec<(BlockId, usize, VReg, VReg, i64)> = Vec::new();
    for b in f.block_ids() {
        for (k, inst) in f.block(b).ops.iter().enumerate() {
            let Op::Bin { op, dst, .. } = &inst.op else {
                continue;
            };
            if !matches!(op, BinOp::Add | BinOp::Sub) {
                continue;
            }
            let lin = linear(*dst, f, &sites, 0);
            let Some(base) = lin.base else { continue };
            if base == *dst {
                continue;
            }
            if lin.c != 0 || lin.ops < 2 {
                continue;
            }
            let kk = lin.k;
            if kk <= 1 || (kk as u64).is_power_of_two() {
                continue;
            }
            promotions.push((b, k, *dst, base, kk));
        }
    }
    let promoted = !promotions.is_empty();
    for (b, k, dst, base, kk) in promotions {
        f.block_mut(b).ops[k].op = Op::Bin {
            op: BinOp::Mul,
            dst,
            lhs: Operand::Reg(base),
            rhs: Operand::Const(kk),
        };
        stats.muls_promoted += 1;
    }
    if promoted {
        dce(f, stats);
    }
    promoted
}

// ---------------------------------------------------------- loop rerolling

/// Loop rerolling: detects a loop body consisting of `k` isomorphic sections
/// separated by induction-variable increments (the unrolled form) and rolls
/// it back to a single section. Returns whether any loop was rerolled.
///
/// `forest` is `f`'s loop forest; the pass reads only its structure
/// (headers and bodies). A reroll truncates one block's ops and rewrites
/// values, but never changes an edge, so the structure stays valid across
/// every round and afterwards. The rewritten induction chains do leave
/// each loop's induction variable and trip count stale: a caller that
/// keeps the forest calls [`LoopForest::refresh_induction`] once the value
/// passes are done.
///
/// # Errors
///
/// The fixpoint (one reroll per round, then a rescan from the first loop)
/// carries a fuel budget; a CFG that keeps producing reroll opportunities
/// beyond it gets [`DecompileError::Fuel`] instead of an unbounded loop.
pub fn loop_reroll(
    f: &mut Function,
    forest: &LoopForest,
    stats: &mut PassStats,
) -> Result<bool, DecompileError> {
    // Each round rerolls at most one loop and strictly shrinks its body;
    // compiler output has far fewer loops than blocks.
    let limit = f.blocks.len() as u64 + 64;
    let mut fuel = limit;
    let mut any = false;
    // The invariant `forest` rests on, checked after every reroll in debug
    // builds.
    let successors = |f: &Function| -> Vec<Vec<BlockId>> {
        f.blocks.iter().map(|b| b.term.successors()).collect()
    };
    let edges = if cfg!(debug_assertions) {
        successors(f)
    } else {
        Vec::new()
    };
    loop {
        if fuel == 0 {
            return Err(DecompileError::Fuel {
                pass: "loop_reroll",
                limit,
            });
        }
        fuel -= 1;
        let mut rerolled = false;
        'loops: for l in forest.loops() {
            // Identify the single non-header block holding the body (after
            // lifting, counted loops are header + body).
            let body_blocks: Vec<BlockId> = l
                .blocks
                .iter()
                .copied()
                .filter(|&b| b != l.header)
                .collect();
            if body_blocks.len() > 1 {
                continue;
            }
            // The replicated sections may live in the header itself (when
            // the latch only holds the exit test) or in the single body
            // block; try both.
            let mut candidates_blocks = vec![l.header];
            candidates_blocks.extend(body_blocks.iter().copied());
            // Candidate induction phis: the unrolled IV steps through a
            // *chain* of adds, so the loop forest's `phi + c` recognizer
            // does not apply; walk the chain from each phi's latch argument
            // back to the phi.
            for &body in &candidates_blocks {
                // Collect (phi dst, latch arg) pairs up front — a small
                // copy instead of cloning every header op.
                let phis: Vec<(VReg, VReg)> = f
                    .block(l.header)
                    .ops
                    .iter()
                    .filter_map(|inst| {
                        let Op::Phi { dst, args } = &inst.op else {
                            return None;
                        };
                        let back = args
                            .iter()
                            .find(|(p, _)| l.contains(*p))
                            .and_then(|(_, a)| a.as_reg())?;
                        Some((*dst, back))
                    })
                    .collect();
                for (dst, back) in phis {
                    let Some(step) = chain_step(f, body, dst, back) else {
                        continue;
                    };
                    if try_reroll(f, l.header, body, dst, step) {
                        debug_assert!(
                            successors(f) == edges,
                            "a reroll must keep every successor list"
                        );
                        stats.loops_rerolled += 1;
                        rerolled = true;
                        break 'loops; // bodies changed: rescan from the first loop
                    }
                }
            }
        }
        if !rerolled {
            break;
        }
        any = true;
    }
    Ok(any)
}

/// If `back` is reached from `phi` through a chain of 2+ `add const`
/// operations with a uniform step inside `body`, returns the step.
fn chain_step(f: &Function, body: BlockId, phi: VReg, back: VReg) -> Option<i64> {
    let def_of = |v: VReg| -> Option<(VReg, i64)> {
        f.block(body).ops.iter().find_map(|inst| match &inst.op {
            Op::Bin {
                op: BinOp::Add,
                dst,
                lhs: Operand::Reg(r),
                rhs: Operand::Const(c),
            } if *dst == v => Some((*r, *c)),
            Op::Bin {
                op: BinOp::Add,
                dst,
                lhs: Operand::Const(c),
                rhs: Operand::Reg(r),
            } if *dst == v => Some((*r, *c)),
            _ => None,
        })
    };
    let mut cur = back;
    let mut step: Option<i64> = None;
    let mut hops = 0;
    while cur != phi {
        let (prev, c) = def_of(cur)?;
        match step {
            None => step = Some(c),
            Some(s) if s == c => {}
            _ => return None,
        }
        cur = prev;
        hops += 1;
        if hops > 64 {
            return None;
        }
    }
    if hops >= 2 {
        step
    } else {
        None
    }
}

/// Attempts to reroll one loop; returns `true` on success.
fn try_reroll(f: &mut Function, header: BlockId, body: BlockId, iv_phi: VReg, step: i64) -> bool {
    // 1. Find the IV chain in the body: i1 = phi + step; i2 = i1 + step; ...
    let ops = &f.block(body).ops;
    let mut chain: Vec<(usize, VReg)> = Vec::new(); // (op index, def)
    let mut cur = iv_phi;
    loop {
        let next = ops.iter().enumerate().find_map(|(k, inst)| match &inst.op {
            Op::Bin {
                op: BinOp::Add,
                dst,
                lhs: Operand::Reg(r),
                rhs: Operand::Const(c),
            } if *r == cur && *c == step => Some((k, *dst)),
            Op::Bin {
                op: BinOp::Add,
                dst,
                lhs: Operand::Const(c),
                rhs: Operand::Reg(r),
            } if *r == cur && *c == step => Some((k, *dst)),
            _ => None,
        });
        match next {
            Some((k, d)) => {
                chain.push((k, d));
                cur = d;
            }
            None => break,
        }
    }
    let k = chain.len();
    if k < 2 {
        return false;
    }
    // 2..4. Read-only analysis in its own scope so the borrow ends before
    // we mutate blocks: partition into sections, check isomorphism, and
    // build the positional value map (defs of section j map to section 0;
    // the IV chain maps i_j -> i_1).
    let remap: HashMap<VReg, VReg> = {
        let ops = &f.block(body).ops;
        // Sections start after any leading phis (the sections may live in
        // the loop header itself).
        let first_non_phi = ops
            .iter()
            .position(|i| !matches!(i.op, Op::Phi { .. }))
            .unwrap_or(ops.len());
        if chain[0].0 < first_non_phi {
            return false;
        }
        // Section j = ops strictly between consecutive chain adds.
        let mut sections: Vec<&[Inst]> = Vec::new();
        let mut start = first_non_phi;
        for (idx, _) in &chain {
            sections.push(&ops[start..*idx]);
            start = idx + 1;
        }
        // trailing ops after the last IV add must be empty
        if !ops[chain[k - 1].0 + 1..].is_empty() {
            return false;
        }
        // Isomorphism: identical op kinds and constants across sections.
        // Compared structurally (discriminant + the constants the old
        // string signature encoded) without allocating signature strings.
        fn shape_eq(a: &Inst, b: &Inst) -> bool {
            match (&a.op, &b.op) {
                (
                    Op::Bin { op: oa, rhs: ra, .. },
                    Op::Bin { op: ob, rhs: rb, .. },
                ) => oa == ob && ra.as_const() == rb.as_const(),
                (Op::Un { op: oa, .. }, Op::Un { op: ob, .. }) => oa == ob,
                (
                    Op::Load { width: wa, signed: sa, .. },
                    Op::Load { width: wb, signed: sb, .. },
                ) => wa == wb && sa == sb,
                (Op::Store { width: wa, .. }, Op::Store { width: wb, .. }) => wa == wb,
                (Op::Const { value: va, .. }, Op::Const { value: vb, .. }) => va == vb,
                (Op::Copy { .. }, Op::Copy { .. }) => true,
                (Op::Phi { .. }, Op::Phi { .. }) => true,
                (Op::Call { target: ta, .. }, Op::Call { target: tb, .. }) => ta == tb,
                _ => false,
            }
        }
        let first = sections[0];
        for s in &sections[1..] {
            if s.len() != first.len()
                || !s.iter().zip(first.iter()).all(|(x, y)| shape_eq(x, y))
            {
                return false;
            }
        }
        let mut remap: HashMap<VReg, VReg> = HashMap::new();
        let sec0_defs: Vec<Option<VReg>> = sections[0].iter().map(|i| i.op.dst()).collect();
        for s in &sections[1..] {
            for (p, inst) in s.iter().enumerate() {
                if let (Some(d), Some(Some(d0))) = (inst.op.dst(), sec0_defs.get(p)) {
                    remap.insert(d, *d0);
                }
            }
        }
        let i1 = chain[0].1;
        for (_, d) in &chain[1..] {
            remap.insert(*d, i1);
        }
        remap
    };
    // 5. Rewrite the header phis' loop-carried arguments through the map
    //    (value-based: the latch edge may come through a test-only block).
    let resolve = |mut v: VReg, remap: &HashMap<VReg, VReg>| -> VReg {
        for _ in 0..8 {
            match remap.get(&v) {
                Some(&n) if n != v => v = n,
                _ => break,
            }
        }
        v
    };
    let header_block = f.block_mut(header);
    for inst in &mut header_block.ops {
        if let Op::Phi { args, .. } = &mut inst.op {
            for (_, a) in args.iter_mut() {
                if let Operand::Reg(r) = a {
                    let n = resolve(*r, &remap);
                    if n != *r {
                        *a = Operand::Reg(n);
                    }
                }
            }
        }
    }
    // 6. Truncate the body to (phis +) section 0 + the first IV add, and
    //    rewrite any remaining uses of replicated values (e.g. the exit
    //    test consuming the final IV) through the map.
    let keep = chain[0].0 + 1;
    f.block_mut(body).ops.truncate(keep);
    for b in f.block_ids().collect::<Vec<_>>() {
        let block = f.block_mut(b);
        for inst in &mut block.ops {
            inst.op.for_each_use_mut(|o| {
                if let Operand::Reg(r) = o {
                    let n = resolve(*r, &remap);
                    if n != *r {
                        *o = Operand::Reg(n);
                    }
                }
            });
        }
        block.term.for_each_use_mut(|o| {
            if let Operand::Reg(r) = o {
                let n = resolve(*r, &remap);
                if n != *r {
                    *o = Operand::Reg(n);
                }
            }
        });
    }
    // 7. One original (unrolled) execution of this loop covered `k`
    //    logical iterations: record the factor so profile-weighted cycle
    //    estimates keep counting logical iterations, not unrolled ones.
    //    Compounds across nested rerolls of the same block.
    let k32 = k as u32;
    for b in if header == body {
        vec![header]
    } else {
        vec![header, body]
    } {
        let blk = f.block_mut(b);
        blk.reroll_factor = blk.reroll_factor.saturating_mul(k32);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use binpart_cdfg::ir::MemWidth;
    use binpart_cdfg::ssa;

    fn stats() -> PassStats {
        PassStats::default()
    }

    #[test]
    fn const_prop_removes_move_overhead() {
        // addiu v0, t0, 0 lifted as Add(v0, t0, 0): must fold to a copy and
        // propagate away.
        let mut f = Function::with_reserved_regs("m", 34);
        let t0 = VReg(8);
        let v0 = VReg(2);
        f.block_mut(f.entry).push(Op::Const { dst: t0, value: 5 });
        f.block_mut(f.entry).push(Op::Bin {
            op: BinOp::Add,
            dst: v0,
            lhs: Operand::Reg(t0),
            rhs: Operand::Const(0),
        });
        f.block_mut(f.entry).term = Terminator::Return {
            value: Some(Operand::Reg(v0)),
        };
        ssa::construct(&mut f);
        let mut s = stats();
        assert!(
            !const_copy_prop(&mut f, &mut s).unwrap(),
            "no edge to change"
        );
        // Everything folds to return of constant-ish value with no adds
        let adds = f
            .block_ids()
            .flat_map(|b| f.block(b).ops.iter())
            .filter(|i| matches!(i.op, Op::Bin { op: BinOp::Add, .. }))
            .count();
        assert_eq!(adds, 0, "{f}");
        assert!(s.moves_removed + s.consts_folded > 0);
    }

    #[test]
    fn branch_folding_prunes_paths() {
        let mut f = Function::new("bf");
        let a = f.add_block();
        let b = f.add_block();
        let c = f.new_vreg();
        let x = f.new_vreg();
        f.block_mut(f.entry).push(Op::Const { dst: c, value: 1 });
        f.block_mut(f.entry).term = Terminator::Branch {
            cond: Operand::Reg(c),
            t: a,
            f: b,
        };
        f.block_mut(a).push(Op::Const { dst: x, value: 10 });
        f.block_mut(a).term = Terminator::Return {
            value: Some(Operand::Reg(x)),
        };
        f.block_mut(b).term = Terminator::Return { value: None };
        ssa::construct(&mut f);
        let mut s = stats();
        assert!(const_copy_prop(&mut f, &mut s).unwrap(), "a branch folded");
        // the false path is gone
        assert_eq!(f.blocks.len(), 2, "{f}");
    }

    #[test]
    fn strength_promotion_recovers_x10() {
        // (x<<3) + (x<<1) => x*10
        let mut f = Function::new("sp");
        let x = f.new_vreg();
        let a = f.new_vreg();
        let b = f.new_vreg();
        let d = f.new_vreg();
        f.block_mut(f.entry).push(Op::Load {
            dst: x,
            addr: Operand::Const(0x1000),
            width: MemWidth::W,
            signed: false,
        });
        f.block_mut(f.entry).push(Op::Bin {
            op: BinOp::Shl,
            dst: a,
            lhs: Operand::Reg(x),
            rhs: Operand::Const(3),
        });
        f.block_mut(f.entry).push(Op::Bin {
            op: BinOp::Shl,
            dst: b,
            lhs: Operand::Reg(x),
            rhs: Operand::Const(1),
        });
        f.block_mut(f.entry).push(Op::Bin {
            op: BinOp::Add,
            dst: d,
            lhs: Operand::Reg(a),
            rhs: Operand::Reg(b),
        });
        f.block_mut(f.entry).term = Terminator::Return {
            value: Some(Operand::Reg(d)),
        };
        f.is_ssa = true;
        let mut s = stats();
        assert!(strength_promotion(&mut f, &mut s));
        assert_eq!(s.muls_promoted, 1);
        let has_mul = f
            .block(f.entry)
            .ops
            .iter()
            .any(|i| matches!(i.op, Op::Bin { op: BinOp::Mul, rhs: Operand::Const(10), .. }));
        assert!(has_mul, "{f}");
    }

    #[test]
    fn strength_promotion_recovers_shift_sub() {
        // (x<<3) - x => x*7
        let mut f = Function::new("sp7");
        let x = f.new_vreg();
        let a = f.new_vreg();
        let d = f.new_vreg();
        f.block_mut(f.entry).push(Op::Load {
            dst: x,
            addr: Operand::Const(0x1000),
            width: MemWidth::W,
            signed: false,
        });
        f.block_mut(f.entry).push(Op::Bin {
            op: BinOp::Shl,
            dst: a,
            lhs: Operand::Reg(x),
            rhs: Operand::Const(3),
        });
        f.block_mut(f.entry).push(Op::Bin {
            op: BinOp::Sub,
            dst: d,
            lhs: Operand::Reg(a),
            rhs: Operand::Reg(x),
        });
        f.block_mut(f.entry).term = Terminator::Return {
            value: Some(Operand::Reg(d)),
        };
        f.is_ssa = true;
        let mut s = stats();
        assert!(strength_promotion(&mut f, &mut s));
        assert_eq!(s.muls_promoted, 1);
        let has_mul7 = f
            .block(f.entry)
            .ops
            .iter()
            .any(|i| matches!(i.op, Op::Bin { op: BinOp::Mul, rhs: Operand::Const(7), .. }));
        assert!(has_mul7, "{f}");
    }

    #[test]
    fn plain_shift_not_promoted() {
        let mut f = Function::new("nsp");
        let x = f.new_vreg();
        let d = f.new_vreg();
        f.block_mut(f.entry).push(Op::Load {
            dst: x,
            addr: Operand::Const(0x1000),
            width: MemWidth::W,
            signed: false,
        });
        f.block_mut(f.entry).push(Op::Bin {
            op: BinOp::Shl,
            dst: d,
            lhs: Operand::Reg(x),
            rhs: Operand::Const(3),
        });
        f.block_mut(f.entry).term = Terminator::Return {
            value: Some(Operand::Reg(d)),
        };
        f.is_ssa = true;
        let mut s = stats();
        assert!(!strength_promotion(&mut f, &mut s));
        assert_eq!(s.muls_promoted, 0);
    }

    #[test]
    fn size_reduction_narrows_masked_values() {
        let mut f = Function::new("sr");
        let x = f.new_vreg();
        let m = f.new_vreg();
        f.block_mut(f.entry).push(Op::Load {
            dst: x,
            addr: Operand::Const(0x1000),
            width: MemWidth::W,
            signed: false,
        });
        f.block_mut(f.entry).push(Op::Bin {
            op: BinOp::And,
            dst: m,
            lhs: Operand::Reg(x),
            rhs: Operand::Const(0xff),
        });
        f.block_mut(f.entry).term = Terminator::Return {
            value: Some(Operand::Reg(m)),
        };
        f.is_ssa = true;
        let mut s = stats();
        let forest = LoopForest::compute(&f);
        size_reduction(&mut f, &forest, &mut s);
        assert_eq!(f.bits_of(m), 8);
        assert!(s.values_narrowed >= 1);
    }

    #[test]
    fn size_reduction_uses_induction_ranges() {
        // i = 0..100 loop: phi width should be 7 bits
        let mut f = Function::new("iv");
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let i = f.new_vreg();
        let c = f.new_vreg();
        f.block_mut(f.entry).push(Op::Const { dst: i, value: 0 });
        f.block_mut(f.entry).term = Terminator::Jump(header);
        f.block_mut(header).push(Op::Bin {
            op: BinOp::LtS,
            dst: c,
            lhs: Operand::Reg(i),
            rhs: Operand::Const(100),
        });
        f.block_mut(header).term = Terminator::Branch {
            cond: Operand::Reg(c),
            t: body,
            f: exit,
        };
        f.block_mut(body).push(Op::Bin {
            op: BinOp::Add,
            dst: i,
            lhs: Operand::Reg(i),
            rhs: Operand::Const(1),
        });
        f.block_mut(body).term = Terminator::Jump(header);
        f.block_mut(exit).term = Terminator::Return {
            value: Some(Operand::Reg(i)),
        };
        ssa::construct(&mut f);
        let mut s = stats();
        let forest = LoopForest::compute(&f);
        size_reduction(&mut f, &forest, &mut s);
        // find the phi and check its width
        let phi_bits = f
            .block_ids()
            .flat_map(|b| f.block(b).ops.iter())
            .find_map(|inst| match &inst.op {
                Op::Phi { dst, .. } => Some(f.bits_of(*dst)),
                _ => None,
            })
            .unwrap();
        assert!(phi_bits <= 8, "phi width {phi_bits}");
    }

    #[test]
    fn reroll_collapses_unrolled_body() {
        // Hand-built 4x-unrolled accumulation:
        //   header: i = phi(0, i4); acc = phi(0, a4); cond...
        //   body:   a1 = acc + 3; i1 = i + 1;
        //           a2 = a1 + 3;  i2 = i1 + 1;
        //           a3 = a2 + 3;  i3 = i2 + 1;
        //           a4 = a3 + 3;  i4 = i3 + 1;
        let mut f = Function::new("rr");
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let iphi = f.new_vreg();
        let aphi = f.new_vreg();
        let c = f.new_vreg();
        let mut ai = aphi;
        let mut ii = iphi;
        f.block_mut(f.entry).term = Terminator::Jump(header);
        let mut avs = Vec::new();
        let mut ivs = Vec::new();
        for _ in 0..4 {
            let a = f.new_vreg();
            let iv = f.new_vreg();
            avs.push((ai, a));
            ivs.push((ii, iv));
            ai = a;
            ii = iv;
        }
        for k in 0..4 {
            let (src_a, a) = avs[k];
            let (src_i, iv) = ivs[k];
            f.block_mut(body).push(Op::Bin {
                op: BinOp::Add,
                dst: a,
                lhs: Operand::Reg(src_a),
                rhs: Operand::Const(3),
            });
            f.block_mut(body).push(Op::Bin {
                op: BinOp::Add,
                dst: iv,
                lhs: Operand::Reg(src_i),
                rhs: Operand::Const(1),
            });
        }
        f.block_mut(body).term = Terminator::Jump(header);
        let entry = f.entry;
        f.block_mut(header).ops.insert(
            0,
            Inst::new(Op::Phi {
                dst: iphi,
                args: vec![
                    (entry, Operand::Const(0)),
                    (body, Operand::Reg(ivs[3].1)),
                ],
            }),
        );
        f.block_mut(header).ops.insert(
            1,
            Inst::new(Op::Phi {
                dst: aphi,
                args: vec![
                    (entry, Operand::Const(0)),
                    (body, Operand::Reg(avs[3].1)),
                ],
            }),
        );
        f.block_mut(header).push(Op::Bin {
            op: BinOp::LtS,
            dst: c,
            lhs: Operand::Reg(iphi),
            rhs: Operand::Const(16),
        });
        f.block_mut(header).term = Terminator::Branch {
            cond: Operand::Reg(c),
            t: body,
            f: exit,
        };
        f.block_mut(exit).term = Terminator::Return {
            value: Some(Operand::Reg(aphi)),
        };
        f.is_ssa = true;
        let before = f.block(body).ops.len();
        let mut s = stats();
        let forest = LoopForest::compute(&f);
        assert!(loop_reroll(&mut f, &forest, &mut s).unwrap());
        assert_eq!(s.loops_rerolled, 1);
        let after = f.block(body).ops.len();
        assert!(after < before, "body {before} -> {after}\n{f}");
        assert_eq!(after, 2); // one acc add + one IV add
        // phis now take the section-1 values
        for inst in &f.block(header).ops {
            if let Op::Phi { args, .. } = &inst.op {
                for (p, a) in args {
                    if *p == body {
                        assert!(
                            matches!(a, Operand::Reg(r) if *r == avs[0].1 || *r == ivs[0].1),
                            "latch arg {a:?}"
                        );
                    }
                }
            }
        }
        // One original execution of the unrolled body covered 4 logical
        // iterations: the factor must be recorded on both loop blocks so
        // profile-weighted cycle estimates stay in logical iterations.
        assert_eq!(f.block(body).reroll_factor, 4);
        assert_eq!(f.block(header).reroll_factor, 4);
        assert_eq!(f.block(exit).reroll_factor, 1);
    }

    #[test]
    fn reroll_rejects_non_isomorphic_sections() {
        let mut f = Function::new("nrr");
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let iphi = f.new_vreg();
        let c = f.new_vreg();
        let i1 = f.new_vreg();
        let i2 = f.new_vreg();
        let junk = f.new_vreg();
        f.block_mut(f.entry).term = Terminator::Jump(header);
        // section 0: empty; i1 = iphi + 1
        f.block_mut(body).push(Op::Bin {
            op: BinOp::Add,
            dst: i1,
            lhs: Operand::Reg(iphi),
            rhs: Operand::Const(1),
        });
        // section 1: extra op; i2 = i1 + 1
        f.block_mut(body).push(Op::Bin {
            op: BinOp::Mul,
            dst: junk,
            lhs: Operand::Reg(i1),
            rhs: Operand::Const(3),
        });
        f.block_mut(body).push(Op::Bin {
            op: BinOp::Add,
            dst: i2,
            lhs: Operand::Reg(i1),
            rhs: Operand::Const(1),
        });
        f.block_mut(body).push(Op::Store {
            src: Operand::Reg(junk),
            addr: Operand::Const(0x2000),
            width: MemWidth::W,
        });
        f.block_mut(body).term = Terminator::Jump(header);
        let entry = f.entry;
        f.block_mut(header).ops.insert(
            0,
            Inst::new(Op::Phi {
                dst: iphi,
                args: vec![(entry, Operand::Const(0)), (body, Operand::Reg(i2))],
            }),
        );
        f.block_mut(header).push(Op::Bin {
            op: BinOp::LtS,
            dst: c,
            lhs: Operand::Reg(iphi),
            rhs: Operand::Const(16),
        });
        f.block_mut(header).term = Terminator::Branch {
            cond: Operand::Reg(c),
            t: body,
            f: exit,
        };
        f.block_mut(exit).term = Terminator::Return { value: None };
        f.is_ssa = true;
        let mut s = stats();
        let forest = LoopForest::compute(&f);
        assert!(!loop_reroll(&mut f, &forest, &mut s).unwrap());
        assert_eq!(s.loops_rerolled, 0);
    }
}

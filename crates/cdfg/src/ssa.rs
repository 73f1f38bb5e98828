//! Pruned-SSA construction (Cytron-style phi placement on dominance
//! frontiers + dominator-tree renaming) and SSA verification.
//!
//! Lifted machine code defines each architectural register many times; SSA
//! gives every definition a unique name so the decompiler's constant
//! propagation, size reduction, strength promotion, and loop rerolling all
//! become simple def-use rewrites.

use crate::cfg;
use crate::dom::Dominators;
use crate::ir::{BlockId, Function, Inst, Op, Operand, Terminator, VReg};
use std::collections::HashMap;
use std::fmt;

/// Mapping information produced by [`construct`].
#[derive(Debug, Clone, Default)]
pub struct SsaInfo {
    /// For every variable that was read before any definition (function
    /// arguments, callee-saved registers, the stack pointer): the original
    /// register and the SSA name representing its entry value.
    pub live_ins: Vec<(VReg, VReg)>,
}

impl SsaInfo {
    /// SSA name of the entry value of original register `r`, if it was
    /// live-in.
    pub fn live_in(&self, r: VReg) -> Option<VReg> {
        self.live_ins.iter().find(|(o, _)| *o == r).map(|(_, n)| *n)
    }
}

/// Converts `f` to SSA form in place.
///
/// Returns which original registers were live into the function (reads of
/// registers with no dominating definition); the decompiler uses those to
/// recover the calling convention.
///
/// Every working structure is a dense array indexed by register or block
/// number — the original-name space is fixed at entry, so definition
/// sites, rename stacks, and live-in slots all live in flat `Vec`s rather
/// than hash maps. [`reference_construct`] keeps the original map-based
/// implementation as a differential oracle; both produce bit-identical
/// functions (same phi placement, same fresh-name order).
pub fn construct(f: &mut Function) -> SsaInfo {
    cfg::remove_unreachable(f);
    let dom = Dominators::compute(f);
    let preds = cfg::predecessors(f);
    let nblocks = f.blocks.len();
    // Original (pre-SSA) name space: every register mentioned before
    // renaming is below this bound.
    let n0 = f.vreg_count() as usize;

    // Collect definition sites per original variable, and the "globals"
    // (names that are upward-exposed in some block => live across an edge).
    // `globals` keeps first-appearance order (it determines phi insertion
    // order); membership tests use bitsets.
    // CSR layout for definition sites: one flat array plus per-variable
    // offsets, instead of a heap-allocated list per variable.
    let mut def_count: Vec<u32> = vec![0; n0 + 1];
    let mut globals: Vec<VReg> = Vec::new();
    let mut is_global = crate::dataflow::RegSet::new(n0);
    // Epoch-stamped "defined in current block" marker: avoids clearing a
    // bitset per block.
    let mut defined_epoch: Vec<u32> = vec![0; n0];
    for b in f.block_ids() {
        let epoch = b.index() as u32 + 1;
        let mut note_use = |o: &Operand, defined_epoch: &[u32]| {
            if let Operand::Reg(r) = o {
                if defined_epoch[r.index()] != epoch && is_global.insert(*r) {
                    globals.push(*r);
                }
            }
        };
        for inst in &f.block(b).ops {
            inst.op.for_each_use(|o| note_use(o, &defined_epoch));
            if let Some(d) = inst.op.dst() {
                defined_epoch[d.index()] = epoch;
                def_count[d.index() + 1] += 1;
            }
        }
        f.block(b)
            .term
            .for_each_use(|o| note_use(o, &defined_epoch));
    }
    for i in 1..=n0 {
        def_count[i] += def_count[i - 1];
    }
    let def_off = def_count; // prefix sums: defs of var v sit in off[v]..off[v+1]
    // `def_count` has `n0 + 1` entries, so `off[n0]` is the total.
    let mut def_flat: Vec<BlockId> = vec![BlockId(0); def_off[n0] as usize];
    let mut cursor: Vec<u32> = def_off[..n0].to_vec();
    for b in f.block_ids() {
        for inst in &f.block(b).ops {
            if let Some(d) = inst.op.dst() {
                def_flat[cursor[d.index()] as usize] = b;
                cursor[d.index()] += 1;
            }
        }
    }

    // Phi insertion at iterated dominance frontiers (only for globals).
    let mut placed = vec![0u32; nblocks];
    let mut ever_on_work = vec![0u32; nblocks];
    let mut work: Vec<BlockId> = Vec::new();
    for (vi, &var) in globals.iter().enumerate() {
        let defs =
            &def_flat[def_off[var.index()] as usize..def_off[var.index() + 1] as usize];
        if defs.is_empty() {
            continue;
        }
        let epoch = vi as u32 + 1;
        work.clear();
        work.extend_from_slice(defs);
        for &b in &work {
            ever_on_work[b.index()] = epoch;
        }
        while let Some(b) = work.pop() {
            for &df in dom.frontier(b) {
                if placed[df.index()] == epoch {
                    continue;
                }
                placed[df.index()] = epoch;
                let args = preds[df.index()]
                    .iter()
                    .map(|&p| (p, Operand::Reg(var)))
                    .collect();
                let block = f.block_mut(df);
                block.ops.insert(0, Inst::new(Op::Phi { dst: var, args }));
                if ever_on_work[df.index()] != epoch {
                    ever_on_work[df.index()] = epoch;
                    work.push(df);
                }
            }
        }
    }

    // Renaming. All pre-rename names are < n0, so the current-name table
    // and live-in slots are flat arrays over the original name space. The
    // per-variable rename *stack* of the textbook algorithm is replaced by
    // a current-name array plus an undo log per dom-tree frame: entering a
    // block records (var, previous name) for each definition, exiting
    // restores them — the same top-of-stack the recursive walk sees,
    // without a heap-allocated stack per variable.
    const NO_NAME: VReg = VReg(u32::MAX);
    let mut current: Vec<VReg> = vec![NO_NAME; n0];
    let mut live_in_names: Vec<Option<VReg>> = vec![None; n0];
    let mut info = SsaInfo::default();
    let mut current_name = |r: VReg,
                            current: &[VReg],
                            live_in_names: &mut [Option<VReg>]|
     -> VReg {
        let cur = current[r.index()];
        if cur != NO_NAME {
            return cur;
        }
        *live_in_names[r.index()].get_or_insert_with(|| {
            let name = VReg(LIVE_IN_BASE + info.live_ins.len() as u32);
            info.live_ins.push((r, name));
            name
        })
    };

    // Iterative dom-tree walk to avoid recursion depth limits.
    enum Frame {
        Enter(BlockId),
        Exit(Vec<(VReg, VReg)>),
    }
    let mut stack = vec![Frame::Enter(f.entry)];
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Enter(b) => {
                // Undo log: (var, name to restore on frame exit).
                let mut pushed: Vec<(VReg, VReg)> = Vec::new();
                // Rename within the block.
                let mut new_ops: Vec<Inst> = Vec::new();
                let ops = std::mem::take(&mut f.block_mut(b).ops);

                for mut inst in ops {
                    let is_phi = matches!(inst.op, Op::Phi { .. });
                    if !is_phi {
                        inst.op.for_each_use_mut(|o| {
                            if let Operand::Reg(r) = o {
                                let cur = current_name(*r, &current, &mut live_in_names);
                                *o = Operand::Reg(cur);
                            }
                        });
                    }
                    if let Some(d) = inst.op.dst() {
                        let fresh = f.new_vreg();
                        inst.op.set_dst(fresh);
                        pushed.push((d, current[d.index()]));
                        current[d.index()] = fresh;
                    }
                    new_ops.push(inst);
                }
                f.block_mut(b).ops = new_ops;
                let mut term = std::mem::replace(&mut f.block_mut(b).term, Terminator::None);
                term.for_each_use_mut(|o| {
                    if let Operand::Reg(r) = o {
                        let cur = current_name(*r, &current, &mut live_in_names);
                        *o = Operand::Reg(cur);
                    }
                });
                f.block_mut(b).term = term;
                // Fill phi arguments in successors.
                for s in f.block(b).term.successors() {
                    let nphis = f
                        .block(s)
                        .ops
                        .iter()
                        .take_while(|i| matches!(i.op, Op::Phi { .. }))
                        .count();
                    for k in 0..nphis {
                        // The arg slot for predecessor b still holds the
                        // original variable this phi renames.
                        let block = f.block_mut(s);
                        if let Op::Phi { args, .. } = &mut block.ops[k].op {
                            for (p, a) in args.iter_mut() {
                                if *p == b {
                                    // Slots already renamed (>= n0) are
                                    // skipped: a block can appear twice in
                                    // a successor list.
                                    if let Operand::Reg(orig) = a {
                                        if orig.index() < n0 {
                                            let cur =
                                                current_name(*orig, &current, &mut live_in_names);
                                            *a = Operand::Reg(cur);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                stack.push(Frame::Exit(pushed));
                for &c in dom.children(b) {
                    stack.push(Frame::Enter(c));
                }
            }
            Frame::Exit(pushed) => {
                // Restore in reverse so a block with several definitions of
                // the same variable unwinds to its pre-block name.
                for (var, prev) in pushed.into_iter().rev() {
                    current[var.index()] = prev;
                }
            }
        }
    }

    // Live-in placeholders were minted in a provisional high range; remap
    // them into the function's normal register space (indexable by their
    // offset from the base).
    if !info.live_ins.is_empty() {
        let mut remap: Vec<VReg> = Vec::with_capacity(info.live_ins.len());
        for (_, name) in info.live_ins.iter_mut() {
            let fresh = f.new_vreg();
            remap.push(fresh);
            *name = fresh;
        }
        let resolve = |o: &mut Operand| {
            if let Operand::Reg(r) = o {
                if r.0 >= LIVE_IN_BASE {
                    *o = Operand::Reg(remap[(r.0 - LIVE_IN_BASE) as usize]);
                }
            }
        };
        for b in f.block_ids().collect::<Vec<_>>() {
            let block = f.block_mut(b);
            for inst in &mut block.ops {
                inst.op.for_each_use_mut(resolve);
            }
            block.term.for_each_use_mut(resolve);
        }
    }

    f.is_ssa = true;
    info
}

// Live-in names are minted from a provisional high range while the function
// is being rewritten, then remapped to ordinary registers at the end. The
// base comfortably exceeds any lifted function's register count.
const LIVE_IN_BASE: u32 = 1 << 20;

/// The original map-based SSA construction, retained verbatim as the
/// differential oracle for [`construct`] (see `tests/differential.rs`):
/// both must produce bit-identical functions — same phi placement, same
/// fresh-name numbering, same live-in order.
pub fn reference_construct(f: &mut Function) -> SsaInfo {
    fn current_name(
        r: VReg,
        stacks: &HashMap<VReg, Vec<VReg>>,
        live_in_names: &mut HashMap<VReg, VReg>,
        info: &mut SsaInfo,
    ) -> VReg {
        if let Some(s) = stacks.get(&r) {
            if let Some(&top) = s.last() {
                return top;
            }
        }
        *live_in_names.entry(r).or_insert_with(|| {
            let name = VReg(LIVE_IN_BASE + info.live_ins.len() as u32);
            info.live_ins.push((r, name));
            name
        })
    }

    cfg::remove_unreachable(f);
    let dom = Dominators::compute(f);
    let preds = cfg::predecessors(f);
    let nblocks = f.blocks.len();

    let mut def_blocks: HashMap<VReg, Vec<BlockId>> = HashMap::new();
    let mut globals: Vec<VReg> = Vec::new();
    for b in f.block_ids() {
        let mut defined_here: Vec<VReg> = Vec::new();
        let note_use = |o: &Operand, defined_here: &Vec<VReg>, globals: &mut Vec<VReg>| {
            if let Operand::Reg(r) = o {
                if !defined_here.contains(r) && !globals.contains(r) {
                    globals.push(*r);
                }
            }
        };
        for inst in &f.block(b).ops {
            inst.op
                .for_each_use(|o| note_use(o, &defined_here, &mut globals));
            if let Some(d) = inst.op.dst() {
                if !defined_here.contains(&d) {
                    defined_here.push(d);
                }
                def_blocks.entry(d).or_default().push(b);
            }
        }
        f.block(b)
            .term
            .for_each_use(|o| note_use(o, &defined_here, &mut globals));
    }

    for &var in &globals {
        let Some(defs) = def_blocks.get(&var) else {
            continue;
        };
        if defs.is_empty() {
            continue;
        }
        let mut work: Vec<BlockId> = defs.clone();
        let mut placed = vec![false; nblocks];
        let mut ever_on_work = vec![false; nblocks];
        for &b in &work {
            ever_on_work[b.index()] = true;
        }
        while let Some(b) = work.pop() {
            for &df in dom.frontier(b) {
                if placed[df.index()] {
                    continue;
                }
                placed[df.index()] = true;
                let args = preds[df.index()]
                    .iter()
                    .map(|&p| (p, Operand::Reg(var)))
                    .collect();
                let block = f.block_mut(df);
                block.ops.insert(0, Inst::new(Op::Phi { dst: var, args }));
                if !ever_on_work[df.index()] {
                    ever_on_work[df.index()] = true;
                    work.push(df);
                }
            }
        }
    }

    let mut stacks: HashMap<VReg, Vec<VReg>> = HashMap::new();
    let mut live_in_names: HashMap<VReg, VReg> = HashMap::new();
    let mut info = SsaInfo::default();

    enum Frame {
        Enter(BlockId),
        Exit(Vec<(VReg, usize)>),
    }
    let mut stack = vec![Frame::Enter(f.entry)];
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Enter(b) => {
                let mut pushed: Vec<(VReg, usize)> = Vec::new();
                let mut new_ops: Vec<Inst> = Vec::new();
                let ops = std::mem::take(&mut f.block_mut(b).ops);

                for mut inst in ops {
                    let is_phi = matches!(inst.op, Op::Phi { .. });
                    if !is_phi {
                        inst.op.for_each_use_mut(|o| {
                            if let Operand::Reg(r) = o {
                                let cur = current_name(*r, &stacks, &mut live_in_names, &mut info);
                                *o = Operand::Reg(cur);
                            }
                        });
                    }
                    if let Some(d) = inst.op.dst() {
                        let fresh = f.new_vreg();
                        inst.op.set_dst(fresh);
                        stacks.entry(d).or_default().push(fresh);
                        pushed.push((d, 1));
                    }
                    new_ops.push(inst);
                }
                f.block_mut(b).ops = new_ops;
                let mut term = std::mem::replace(&mut f.block_mut(b).term, Terminator::None);
                term.for_each_use_mut(|o| {
                    if let Operand::Reg(r) = o {
                        let cur = current_name(*r, &stacks, &mut live_in_names, &mut info);
                        *o = Operand::Reg(cur);
                    }
                });
                f.block_mut(b).term = term;
                for s in f.block(b).term.successors() {
                    let idxs: Vec<usize> = f
                        .block(s)
                        .ops
                        .iter()
                        .enumerate()
                        .take_while(|(_, i)| matches!(i.op, Op::Phi { .. }))
                        .map(|(k, _)| k)
                        .collect();
                    for k in idxs {
                        let block = f.block_mut(s);
                        if let Op::Phi { args, .. } = &mut block.ops[k].op {
                            for (p, a) in args.iter_mut() {
                                if *p == b {
                                    if let Operand::Reg(orig) = a {
                                        let cur = current_name(
                                            *orig,
                                            &stacks,
                                            &mut live_in_names,
                                            &mut info,
                                        );
                                        *a = Operand::Reg(cur);
                                    }
                                }
                            }
                        }
                    }
                }
                stack.push(Frame::Exit(pushed));
                for &c in dom.children(b) {
                    stack.push(Frame::Enter(c));
                }
            }
            Frame::Exit(pushed) => {
                // Every `var` here was pushed onto by this block's
                // `Enter` frame, so its stack exists and holds `n` names.
                for (var, n) in pushed {
                    if let Some(s) = stacks.get_mut(&var) {
                        s.truncate(s.len().saturating_sub(n));
                    }
                }
            }
        }
    }

    if !info.live_ins.is_empty() {
        let mut remap: HashMap<VReg, VReg> = HashMap::new();
        for (_, name) in info.live_ins.iter_mut() {
            let fresh = f.new_vreg();
            remap.insert(*name, fresh);
            *name = fresh;
        }
        for b in f.block_ids().collect::<Vec<_>>() {
            let block = f.block_mut(b);
            for inst in &mut block.ops {
                inst.op.for_each_use_mut(|o| {
                    if let Operand::Reg(r) = o {
                        if let Some(n) = remap.get(r) {
                            *o = Operand::Reg(*n);
                        }
                    }
                });
            }
            block.term.for_each_use_mut(|o| {
                if let Operand::Reg(r) = o {
                    if let Some(n) = remap.get(r) {
                        *o = Operand::Reg(*n);
                    }
                }
            });
        }
    }

    f.is_ssa = true;
    info
}

/// SSA well-formedness violation found by [`verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SsaViolation {
    /// A register has more than one definition.
    MultipleDefs(VReg),
    /// A phi's argument count does not match its block's predecessors.
    PhiArity {
        /// Block containing the phi.
        block: BlockId,
        /// The phi destination.
        phi: VReg,
    },
    /// A phi appears after a non-phi op.
    PhiNotFirst(BlockId),
    /// A use is not dominated by its definition.
    UseNotDominated {
        /// The used register.
        reg: VReg,
        /// The block of the use.
        block: BlockId,
    },
}

impl fmt::Display for SsaViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsaViolation::MultipleDefs(r) => write!(f, "{r} has multiple definitions"),
            SsaViolation::PhiArity { block, phi } => {
                write!(f, "phi {phi} in {block} has wrong arity")
            }
            SsaViolation::PhiNotFirst(b) => write!(f, "phi after non-phi in {b}"),
            SsaViolation::UseNotDominated { reg, block } => {
                write!(f, "use of {reg} in {block} not dominated by its definition")
            }
        }
    }
}

impl std::error::Error for SsaViolation {}

/// Checks SSA invariants.
///
/// # Errors
///
/// Returns the first violation found: duplicate definitions, phi arity
/// mismatches, phis after non-phis, or uses not dominated by definitions.
pub fn verify(f: &Function) -> Result<(), SsaViolation> {
    let dom = Dominators::compute(f);
    let preds = cfg::predecessors(f);
    let mut def_site: Vec<Option<(BlockId, usize)>> = vec![None; f.vreg_count() as usize];
    for b in f.block_ids() {
        let mut seen_non_phi = false;
        for (k, inst) in f.block(b).ops.iter().enumerate() {
            if matches!(inst.op, Op::Phi { .. }) {
                if seen_non_phi {
                    return Err(SsaViolation::PhiNotFirst(b));
                }
            } else {
                seen_non_phi = true;
            }
            if let Some(d) = inst.op.dst() {
                if def_site[d.index()].replace((b, k)).is_some() {
                    return Err(SsaViolation::MultipleDefs(d));
                }
            }
            if let Op::Phi { dst, args } = &inst.op {
                let ps = &preds[b.index()];
                if args.len() != ps.len() || args.iter().any(|(p, _)| !ps.contains(p)) {
                    return Err(SsaViolation::PhiArity { block: b, phi: *dst });
                }
            }
        }
    }
    // Dominance of uses.
    for b in f.block_ids() {
        if !dom.is_reachable(b) {
            continue;
        }
        for (k, inst) in f.block(b).ops.iter().enumerate() {
            if let Op::Phi { args, .. } = &inst.op {
                for (p, a) in args {
                    if let Operand::Reg(r) = a {
                        if let Some((db, _)) = def_site.get(r.index()).copied().flatten() {
                            if !dom.dominates(db, *p) {
                                return Err(SsaViolation::UseNotDominated { reg: *r, block: *p });
                            }
                        }
                    }
                }
            } else {
                let mut bad = None;
                inst.op.for_each_use(|o| {
                    if let Operand::Reg(r) = o {
                        if let Some((db, dk)) = def_site.get(r.index()).copied().flatten() {
                            let ok = if db == b { dk < k } else { dom.dominates(db, b) };
                            if !ok && bad.is_none() {
                                bad = Some(*r);
                            }
                        }
                    }
                });
                if let Some(r) = bad {
                    return Err(SsaViolation::UseNotDominated { reg: r, block: b });
                }
            }
        }
        let mut bad = None;
        f.block(b).term.for_each_use(|o| {
            if let Operand::Reg(r) = o {
                if let Some((db, _)) = def_site.get(r.index()).copied().flatten() {
                    if !(db == b || dom.dominates(db, b)) && bad.is_none() {
                        bad = Some(*r);
                    }
                }
            }
        });
        if let Some(r) = bad {
            return Err(SsaViolation::UseNotDominated { reg: r, block: b });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, MemWidth};

    /// x = 1; if (c) x = 2; return x  — the textbook phi case.
    fn if_join() -> Function {
        let mut f = Function::new("ifj");
        let then = f.add_block();
        let join = f.add_block();
        let x = f.new_vreg();
        let c = f.new_vreg();
        f.block_mut(f.entry).push(Op::Const { dst: x, value: 1 });
        f.block_mut(f.entry).push(Op::Load {
            dst: c,
            addr: Operand::Const(0x100),
            width: MemWidth::W,
            signed: false,
        });
        f.block_mut(f.entry).term = Terminator::Branch {
            cond: Operand::Reg(c),
            t: then,
            f: join,
        };
        f.block_mut(then).push(Op::Const { dst: x, value: 2 });
        f.block_mut(then).term = Terminator::Jump(join);
        f.block_mut(join).term = Terminator::Return {
            value: Some(Operand::Reg(x)),
        };
        f
    }

    #[test]
    fn inserts_phi_at_join() {
        let mut f = if_join();
        construct(&mut f);
        verify(&f).unwrap();
        let join = BlockId(2);
        let nphis = f
            .block(join)
            .ops
            .iter()
            .filter(|i| matches!(i.op, Op::Phi { .. }))
            .count();
        assert_eq!(nphis, 1);
        // The return must use the phi result.
        let Op::Phi { dst, .. } = &f.block(join).ops[0].op else {
            panic!("phi first");
        };
        match &f.block(join).term {
            Terminator::Return { value: Some(Operand::Reg(r)) } => assert_eq!(r, dst),
            other => panic!("unexpected terminator {other:?}"),
        }
    }

    #[test]
    fn single_defs_after_construction() {
        let mut f = if_join();
        construct(&mut f);
        let mut defs: HashMap<VReg, u32> = HashMap::new();
        for b in f.block_ids() {
            for i in &f.block(b).ops {
                if let Some(d) = i.op.dst() {
                    *defs.entry(d).or_insert(0) += 1;
                }
            }
        }
        assert!(defs.values().all(|&n| n == 1));
        assert!(f.is_ssa);
    }

    #[test]
    fn live_ins_reported_for_undefined_reads() {
        // return a0-like register that is never defined
        let mut f = Function::new("param");
        let a0 = f.new_vreg();
        let sum = f.new_vreg();
        f.block_mut(f.entry).push(Op::Bin {
            op: BinOp::Add,
            dst: sum,
            lhs: Operand::Reg(a0),
            rhs: Operand::Const(1),
        });
        f.block_mut(f.entry).term = Terminator::Return {
            value: Some(Operand::Reg(sum)),
        };
        let info = construct(&mut f);
        assert_eq!(info.live_ins.len(), 1);
        assert_eq!(info.live_ins[0].0, a0);
        assert!(info.live_in(a0).is_some());
        verify(&f).unwrap();
    }

    #[test]
    fn loop_phi_inserted_and_verifies() {
        // i = 0; while (i < 10) i++;  (same shape as the lifter emits)
        let mut f = Function::new("loop");
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
            rhs: Operand::Const(10),
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
        construct(&mut f);
        verify(&f).unwrap();
        let header_phis = f
            .block(BlockId(1))
            .ops
            .iter()
            .filter(|x| matches!(x.op, Op::Phi { .. }))
            .count();
        assert_eq!(header_phis, 1);
    }

    #[test]
    fn verify_catches_multiple_defs() {
        let mut f = Function::new("bad");
        let x = f.new_vreg();
        f.block_mut(f.entry).push(Op::Const { dst: x, value: 1 });
        f.block_mut(f.entry).push(Op::Const { dst: x, value: 2 });
        f.block_mut(f.entry).term = Terminator::Return { value: None };
        f.is_ssa = true;
        assert_eq!(verify(&f), Err(SsaViolation::MultipleDefs(x)));
    }

    #[test]
    fn verify_catches_bad_phi_arity() {
        let mut f = Function::new("bad2");
        let b = f.add_block();
        let x = f.new_vreg();
        f.block_mut(f.entry).term = Terminator::Jump(b);
        let e = f.entry;
        f.block_mut(b).push(Op::Phi {
            dst: x,
            args: vec![(e, Operand::Const(1)), (BlockId(1), Operand::Const(2))],
        });
        f.block_mut(b).term = Terminator::Return { value: None };
        assert!(matches!(
            verify(&f),
            Err(SsaViolation::PhiArity { .. })
        ));
    }
}

//! **Loop rerolling**, the paper's pass that detects compiler-unrolled
//! loops and rolls them back into their original single-body form, so
//! synthesis sees one iteration instead of several copies.

use super::PassStats;
use crate::lift::DecompileError;
use binpart_cdfg::ir::{BinOp, BlockId, Function, Inst, Op, Operand, VReg};
use binpart_cdfg::loops::LoopForest;
use std::collections::HashMap;

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
        f.block(body)
            .ops
            .iter()
            .find_map(|inst| match add_const(&inst.op) {
                Some((dst, r, c)) if dst == v => Some((r, c)),
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

/// `(dst, src, c)` when `op` is `dst = src + c` for a constant `c`, in
/// either operand order.
fn add_const(op: &Op) -> Option<(VReg, VReg, i64)> {
    match op {
        Op::Bin {
            op: BinOp::Add,
            dst,
            lhs: Operand::Reg(r),
            rhs: Operand::Const(c),
        }
        | Op::Bin {
            op: BinOp::Add,
            dst,
            lhs: Operand::Const(c),
            rhs: Operand::Reg(r),
        } => Some((*dst, *r, *c)),
        _ => None,
    }
}

/// Attempts to reroll one loop; returns `true` on success.
fn try_reroll(f: &mut Function, header: BlockId, body: BlockId, iv_phi: VReg, step: i64) -> bool {
    // 1. Find the IV chain in the body: i1 = phi + step; i2 = i1 + step; ...
    let ops = &f.block(body).ops;
    let mut chain: Vec<(usize, VReg)> = Vec::new(); // (op index, def)
    let mut cur = iv_phi;
    loop {
        let next = ops
            .iter()
            .enumerate()
            .find_map(|(k, inst)| match add_const(&inst.op) {
                Some((dst, r, c)) if r == cur && c == step => Some((k, dst)),
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
                    Op::Bin {
                        op: oa, rhs: ra, ..
                    },
                    Op::Bin {
                        op: ob, rhs: rb, ..
                    },
                ) => oa == ob && ra.as_const() == rb.as_const(),
                (Op::Un { op: oa, .. }, Op::Un { op: ob, .. }) => oa == ob,
                (
                    Op::Load {
                        width: wa,
                        signed: sa,
                        ..
                    },
                    Op::Load {
                        width: wb,
                        signed: sb,
                        ..
                    },
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
            if s.len() != first.len() || !s.iter().zip(first.iter()).all(|(x, y)| shape_eq(x, y)) {
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
    // 5. Truncate the body to (phis +) section 0 + the first IV add, and
    //    rewrite every remaining use of a replicated value through the map:
    //    the header phis' loop-carried arguments (value-based: the latch
    //    edge may come through a test-only block) and, e.g., the exit test
    //    consuming the final IV. Every map entry points at a section-0 def
    //    or the first IV, which are not keys, so one lookup resolves it.
    let keep = chain[0].0 + 1;
    f.block_mut(body).ops.truncate(keep);
    let rewrite = |o: &mut Operand| {
        if let Some(&n) = o.as_reg().and_then(|r| remap.get(&r)) {
            *o = Operand::Reg(n);
        }
    };
    for block in &mut f.blocks {
        for inst in &mut block.ops {
            inst.op.for_each_use_mut(rewrite);
        }
        block.term.for_each_use_mut(rewrite);
    }
    // 6. One original (unrolled) execution of this loop covered `k`
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

//! Natural-loop detection, the loop-nesting forest, and induction-variable /
//! trip-count recovery.
//!
//! The paper's partitioner works at loop granularity: the profiler attributes
//! time to loops, the synthesizer pipelines them, and loop rerolling needs to
//! know trip counts. This module recovers all of that from the CFG.

use crate::cfg;
use crate::dataflow::DefSites;
use crate::dom::Dominators;
use crate::ir::{BinOp, BlockId, Function, Op, Operand, Terminator, VReg};

/// A natural loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Loop {
    /// Loop header (single entry of the natural loop).
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub blocks: Vec<BlockId>,
    /// Blocks with a back edge to the header.
    pub latches: Vec<BlockId>,
    /// Blocks outside the loop that are branched to from inside.
    pub exits: Vec<BlockId>,
    /// Parent loop index in the forest (None for top-level loops).
    pub parent: Option<usize>,
    /// Nesting depth (1 = outermost).
    pub depth: u32,
    /// Basic induction variable, when recognized.
    pub induction: Option<InductionVar>,
    /// Constant trip count, when derivable.
    pub trip_count: Option<u64>,
}

impl Loop {
    /// Returns `true` if `b` belongs to the loop. `blocks` is kept sorted
    /// by [`LoopForest::compute`], so this is a binary search.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.binary_search(&b).is_ok()
    }
}

/// A recognized basic induction variable `i = phi(init, i + step)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InductionVar {
    /// The phi destination in the header.
    pub phi: VReg,
    /// Initial value entering the loop.
    pub init: Operand,
    /// Per-iteration step (constant).
    pub step: i64,
    /// The register holding `i + step` (the updated value).
    pub next: VReg,
}

/// The loop-nesting forest of a function.
///
/// Its loops, bodies, latches, exits and nesting depend only on the CFG's
/// edges; each loop's induction variable and trip count also read the ops.
/// A pass that rewrites values but keeps every edge therefore keeps the
/// forest valid up to [`LoopForest::refresh_induction`].
#[derive(Debug, Clone, PartialEq)]
pub struct LoopForest {
    loops: Vec<Loop>,
    /// Innermost loop index per block (None when not in a loop).
    block_loop: Vec<Option<usize>>,
}

impl LoopForest {
    /// Detects all natural loops via back edges in the dominator tree.
    ///
    /// Irreducible edges (branches into a loop body that bypass the header)
    /// do not produce loops; the structurer reports them separately.
    ///
    /// Loop bodies and exit sets are built over dense bitsets indexed by
    /// block number (the block arena is flat), so membership tests during
    /// the reverse-reachability walk are O(1) instead of list scans.
    pub fn compute(f: &Function) -> LoopForest {
        let dom = Dominators::compute(f);
        let preds = cfg::predecessors(f);
        let nblocks = f.blocks.len();
        let mut headers: Vec<BlockId> = Vec::new();
        let mut is_header = vec![false; nblocks];
        let mut back_edges: Vec<(BlockId, BlockId)> = Vec::new(); // (latch, header)
        for b in f.block_ids() {
            if !dom.is_reachable(b) {
                continue;
            }
            for s in f.block(b).term.successors() {
                if dom.dominates(s, b) {
                    back_edges.push((b, s));
                    if !is_header[s.index()] {
                        is_header[s.index()] = true;
                        headers.push(s);
                    }
                }
            }
        }
        // Build loop bodies: union of reverse-reachable blocks from each
        // latch without passing the header. Membership bitsets are
        // epoch-stamped with the loop index so one allocation serves all
        // loops; they are retained for the nesting pass below.
        let mut loops: Vec<Loop> = Vec::new();
        let mut in_body: Vec<Vec<bool>> = Vec::with_capacity(headers.len());
        let mut exit_seen = vec![0u32; nblocks];
        for (li, &h) in headers.iter().enumerate() {
            let mut member = vec![false; nblocks];
            member[h.index()] = true;
            let mut body = vec![h];
            let mut latches = Vec::new();
            let mut stack: Vec<BlockId> = Vec::new();
            for &(latch, header) in &back_edges {
                if header != h {
                    continue;
                }
                latches.push(latch);
                if !member[latch.index()] {
                    member[latch.index()] = true;
                    body.push(latch);
                    stack.push(latch);
                }
            }
            while let Some(b) = stack.pop() {
                for &p in &preds[b.index()] {
                    if dom.is_reachable(p) && !member[p.index()] {
                        member[p.index()] = true;
                        body.push(p);
                        stack.push(p);
                    }
                }
            }
            let mut exits = Vec::new();
            let epoch = li as u32 + 1;
            for &b in &body {
                for s in f.block(b).term.successors() {
                    if !member[s.index()] && exit_seen[s.index()] != epoch {
                        exit_seen[s.index()] = epoch;
                        exits.push(s);
                    }
                }
            }
            body.sort();
            latches.sort();
            loops.push(Loop {
                header: h,
                blocks: body,
                latches,
                exits,
                parent: None,
                depth: 1,
                induction: None,
                trip_count: None,
            });
            in_body.push(member);
        }
        // Nesting: loop A is the parent of B if A != B and A contains B's
        // header; the parent is the smallest such container.
        let order: Vec<usize> = {
            let mut idx: Vec<usize> = (0..loops.len()).collect();
            idx.sort_by_key(|&i| loops[i].blocks.len());
            idx
        };
        for &i in &order {
            let header = loops[i].header;
            let mut best: Option<usize> = None;
            for &j in &order {
                if i == j {
                    continue;
                }
                if loops[j].blocks.len() <= loops[i].blocks.len() {
                    continue;
                }
                if in_body[j][header.index()] {
                    best = match best {
                        None => Some(j),
                        Some(b) if loops[j].blocks.len() < loops[b].blocks.len() => Some(j),
                        other => other,
                    };
                }
            }
            loops[i].parent = best;
        }
        for i in 0..loops.len() {
            let mut d = 1;
            let mut p = loops[i].parent;
            while let Some(j) = p {
                d += 1;
                p = loops[j].parent;
            }
            loops[i].depth = d;
        }
        // Innermost loop per block.
        let mut block_loop: Vec<Option<usize>> = vec![None; f.blocks.len()];
        for (i, l) in loops.iter().enumerate() {
            for &b in &l.blocks {
                block_loop[b.index()] = match block_loop[b.index()] {
                    None => Some(i),
                    Some(j) if loops[i].blocks.len() < loops[j].blocks.len() => Some(i),
                    other => other,
                };
            }
        }
        let mut forest = LoopForest { loops, block_loop };
        forest.refresh_induction(f);
        forest
    }

    /// All loops (index order is arbitrary but stable).
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    /// Innermost loop containing `b`.
    pub fn innermost(&self, b: BlockId) -> Option<&Loop> {
        self.block_loop[b.index()].map(|i| &self.loops[i])
    }

    /// Loop nesting depth of `b` (0 = not in a loop).
    pub fn depth_of(&self, b: BlockId) -> u32 {
        self.innermost(b).map_or(0, |l| l.depth)
    }

    /// Re-derives every loop's induction variable and trip count from the
    /// current ops of `f`, keeping the loop structure. Valid after any pass
    /// that changed values but no CFG edge (`f` must have the blocks this
    /// forest was computed on); the result equals a fresh
    /// [`LoopForest::compute`].
    ///
    /// Requires SSA form; clears both fields otherwise. The recognized
    /// shape is the one compilers emit for counted loops: a header phi
    /// `i = phi(init, next)` with `next = i + c` inside the loop, and an
    /// exit branch comparing `i` (or `next`) against a loop-invariant bound.
    pub fn refresh_induction(&mut self, f: &Function) {
        for l in &mut self.loops {
            l.induction = None;
            l.trip_count = None;
        }
        if !f.is_ssa {
            return;
        }
        let sites = DefSites::compute(f);
        let def_op = |r: VReg| sites.def_of(f, r);
        // Follows Copy/Const chains so "init" and bounds recover literal
        // values even when the lifter materialized them into registers.
        let resolve = |mut o: Operand| -> Operand {
            for _ in 0..8 {
                let Operand::Reg(r) = o else { break };
                match def_op(r) {
                    Some(Op::Const { value, .. }) => return Operand::Const(*value),
                    Some(Op::Copy { src, .. }) => o = *src,
                    _ => break,
                }
            }
            o
        };
        for l in &mut self.loops {
            let header = l.header;
            // Find a phi i = phi(init from outside, next from latch) with
            // next = i + const defined inside the loop.
            for inst in &f.block(header).ops {
                let Op::Phi { dst, args } = &inst.op else {
                    continue;
                };
                if args.len() != 2 {
                    continue;
                }
                let mut init = None;
                let mut next = None;
                for (p, a) in args {
                    if l.contains(*p) {
                        next = a.as_reg();
                    } else {
                        init = Some(resolve(*a));
                    }
                }
                let (Some(init), Some(next_reg)) = (init, next) else {
                    continue;
                };
                let Some(&Op::Bin {
                    op: BinOp::Add,
                    lhs,
                    rhs,
                    ..
                }) = def_op(next_reg)
                else {
                    continue;
                };
                let step = match (lhs, rhs) {
                    (Operand::Reg(r), Operand::Const(c)) if r == *dst => c,
                    (Operand::Const(c), Operand::Reg(r)) if r == *dst => c,
                    _ => continue,
                };
                if step == 0 {
                    continue;
                }
                l.induction = Some(InductionVar {
                    phi: *dst,
                    init,
                    step,
                    next: next_reg,
                });
                break;
            }
            // Trip count: exit condition in a loop block branching out,
            // comparing the IV against a constant, with constant init.
            let Some(iv) = l.induction else { continue };
            let Some(init_c) = iv.init.as_const() else {
                continue;
            };
            for &b in &l.blocks {
                let Terminator::Branch { cond, t, f: fl } = &f.block(b).term else {
                    continue;
                };
                let exits_loop = !l.contains(*t) || !l.contains(*fl);
                if !exits_loop {
                    continue;
                }
                let Some(cr) = cond.as_reg() else { continue };
                let Some(&Op::Bin { op, lhs, rhs, .. }) = def_op(cr) else {
                    continue;
                };
                // normalize: IV-ish on the left, constant bound on the right
                let (lhs, rhs) = (
                    if lhs.as_reg() == Some(iv.phi) || lhs.as_reg() == Some(iv.next) {
                        lhs
                    } else {
                        resolve(lhs)
                    },
                    if rhs.as_reg() == Some(iv.phi) || rhs.as_reg() == Some(iv.next) {
                        rhs
                    } else {
                        resolve(rhs)
                    },
                );
                let (iv_side, bound, op) = match (lhs, rhs) {
                    (Operand::Reg(r), Operand::Const(c)) => (r, c, op),
                    (Operand::Const(c), Operand::Reg(r)) => {
                        let flipped = match op {
                            BinOp::LtS => BinOp::GtS,
                            BinOp::GtS => BinOp::LtS,
                            BinOp::LeS => BinOp::GeS,
                            BinOp::GeS => BinOp::LeS,
                            other => other,
                        };
                        (r, c, flipped)
                    }
                    _ => continue,
                };
                let uses_next = iv_side == iv.next;
                let uses_phi = iv_side == iv.phi;
                if !uses_next && !uses_phi {
                    continue;
                }
                // Value compared at the branch on iteration k (0-based):
                // phi: init + k*step ; next: init + (k+1)*step
                let base = if uses_next { init_c + iv.step } else { init_c };
                // continue-while-true if the true edge stays in the loop
                let cont_on_true = l.contains(*t);
                let count = trip_count_from(op, cont_on_true, base, iv.step, bound);
                if let Some(c) = count {
                    l.trip_count = Some(c);
                }
                break;
            }
        }
    }
}

/// Solves the number of iterations for `init + k*step  REL  bound`.
fn trip_count_from(op: BinOp, cont_on_true: bool, init: i64, step: i64, bound: i64) -> Option<u64> {
    // Number of k >= 0 such that the continue-condition holds for all
    // 0..k and fails at k; loop executes k+... — we count executed
    // iterations: smallest k where condition fails equals the trip count
    // (condition checked each iteration including the first).
    let holds = |k: i64| -> bool {
        let v = init.wrapping_add(k.wrapping_mul(step)) as i32 as i64;
        let r = op.fold(v, bound) != 0;
        if cont_on_true {
            r
        } else {
            !r
        }
    };
    if !holds(0) {
        return Some(1); // do-while executes once; while-loop bodies guarded by preheader check
    }
    // Closed form for monotone conditions; fall back to bounded scan.
    let limit = 1 << 24;
    // exponential + binary search to keep this O(log n)
    let mut hi = 1i64;
    while hi < limit && holds(hi) {
        hi *= 2;
    }
    if hi >= limit {
        return None; // not a simple counted loop
    }
    let mut lo = hi / 2;
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if holds(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(hi as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Inst, Op};
    use crate::ssa;

    /// entry -> header; header -> body|exit; body -> header
    fn while_loop(bound: i64) -> Function {
        let mut f = Function::new("w");
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
            rhs: Operand::Const(bound),
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
        f
    }

    #[test]
    fn detects_single_while_loop() {
        let f = while_loop(10);
        let forest = LoopForest::compute(&f);
        assert_eq!(forest.loops().len(), 1);
        let l = &forest.loops()[0];
        assert_eq!(l.header, BlockId(1));
        assert!(l.contains(BlockId(2)));
        assert!(!l.contains(BlockId(0)));
        assert_eq!(l.exits, vec![BlockId(3)]);
        assert_eq!(l.depth, 1);
        assert_eq!(forest.depth_of(BlockId(2)), 1);
        assert_eq!(forest.depth_of(BlockId(0)), 0);
    }

    #[test]
    fn induction_and_trip_count_after_ssa() {
        let mut f = while_loop(10);
        ssa::construct(&mut f);
        let forest = LoopForest::compute(&f);
        let l = &forest.loops()[0];
        let iv = l.induction.expect("induction variable recognized");
        assert_eq!(iv.step, 1);
        assert_eq!(iv.init, Operand::Const(0));
        assert_eq!(l.trip_count, Some(10));
    }

    #[test]
    fn nested_loops_have_depths() {
        // outer: header1 {inner: header2 body2} latch1
        let mut f = Function::new("nest");
        let h1 = f.add_block();
        let h2 = f.add_block();
        let b2 = f.add_block();
        let l1 = f.add_block();
        let exit = f.add_block();
        let c = f.new_vreg();
        f.block_mut(f.entry).term = Terminator::Jump(h1);
        f.block_mut(h1).term = Terminator::Jump(h2);
        f.block_mut(h2).push(Op::Const { dst: c, value: 1 });
        f.block_mut(h2).term = Terminator::Branch {
            cond: Operand::Reg(c),
            t: b2,
            f: l1,
        };
        f.block_mut(b2).term = Terminator::Jump(h2);
        f.block_mut(l1).push(Op::Const { dst: c, value: 0 });
        f.block_mut(l1).term = Terminator::Branch {
            cond: Operand::Reg(c),
            t: h1,
            f: exit,
        };
        f.block_mut(exit).term = Terminator::Return { value: None };
        let forest = LoopForest::compute(&f);
        assert_eq!(forest.loops().len(), 2);
        let inner = forest.innermost(b2).unwrap();
        assert_eq!(inner.header, h2);
        assert_eq!(inner.depth, 2);
        let outer = forest.innermost(l1).unwrap();
        assert_eq!(outer.header, h1);
        assert_eq!(outer.depth, 1);
    }

    #[test]
    fn trip_count_with_step_and_le() {
        // for (i = 1; i <= 32; i += 2) -> 16 iterations
        let mut f = Function::new("le");
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let i = f.new_vreg();
        let c = f.new_vreg();
        f.block_mut(f.entry).push(Op::Const { dst: i, value: 1 });
        f.block_mut(f.entry).term = Terminator::Jump(header);
        f.block_mut(header).push(Op::Bin {
            op: BinOp::LeS,
            dst: c,
            lhs: Operand::Reg(i),
            rhs: Operand::Const(32),
        });
        f.block_mut(header).term = Terminator::Branch {
            cond: Operand::Reg(c),
            t: body,
            f: exit,
        };
        f.block_mut(body).ops.push(Inst::new(Op::Bin {
            op: BinOp::Add,
            dst: i,
            lhs: Operand::Reg(i),
            rhs: Operand::Const(2),
        }));
        f.block_mut(body).term = Terminator::Jump(header);
        f.block_mut(exit).term = Terminator::Return { value: None };
        ssa::construct(&mut f);
        let forest = LoopForest::compute(&f);
        assert_eq!(forest.loops()[0].trip_count, Some(16));
    }

    #[test]
    fn non_counted_loop_has_no_trip_count() {
        // while (x) with data-dependent x: no induction pattern
        let mut f = Function::new("nc");
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let x = f.new_vreg();
        f.block_mut(f.entry).term = Terminator::Jump(header);
        f.block_mut(header).push(Op::Load {
            dst: x,
            addr: Operand::Const(0x1000),
            width: crate::ir::MemWidth::W,
            signed: false,
        });
        f.block_mut(header).term = Terminator::Branch {
            cond: Operand::Reg(x),
            t: body,
            f: exit,
        };
        f.block_mut(body).term = Terminator::Jump(header);
        f.block_mut(exit).term = Terminator::Return { value: None };
        ssa::construct(&mut f);
        let forest = LoopForest::compute(&f);
        assert_eq!(forest.loops().len(), 1);
        assert!(forest.loops()[0].trip_count.is_none());
    }
}

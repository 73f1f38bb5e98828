//! **Operator size reduction**, the paper's pass that infers the bit-width
//! each value actually needs, so the synthesizer builds narrow datapaths.
//! The widths land in [`Function::vreg_bits`].

use super::PassStats;
use binpart_cdfg::dataflow::RegLists;
use binpart_cdfg::ir::{BinOp, BlockId, Function, Op, Operand, UnOp, VReg};
use binpart_cdfg::loops::LoopForest;
use std::collections::HashMap;

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
                    args.iter()
                        .map(|(_, a)| width_of(a, bits))
                        .max()
                        .unwrap_or(32)
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
    // Consumer lists: the ops to re-evaluate when a register's width grows.
    let consumers = RegLists::build(n, |sink| {
        for (i, &(blk, k, _)) in def_ops.iter().enumerate() {
            f.block(blk).ops[k].op.for_each_use(|o| {
                if let Operand::Reg(r) = o {
                    sink.push(*r, i as u32);
                }
            });
        }
    });

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
                for &c in consumers.of(d) {
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

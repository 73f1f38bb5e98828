//! **Strength promotion**, the paper's pass that re-fuses the shift/add
//! sequences a compiler's strength reduction produced back into single
//! multiplications, giving the synthesis tool the choice of
//! implementation.

use super::{dce, PassStats};
use binpart_cdfg::dataflow::DefSites;
use binpart_cdfg::ir::{BinOp, BlockId, Function, Op, Operand, VReg};

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
            Op::Bin {
                op: BinOp::Add,
                lhs,
                rhs,
                ..
            } => {
                let a = operand(lhs, f, sites);
                let b = operand(rhs, f, sites);
                combine(a, b, 1).unwrap_or(leaf)
            }
            Op::Bin {
                op: BinOp::Sub,
                lhs,
                rhs,
                ..
            } => {
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

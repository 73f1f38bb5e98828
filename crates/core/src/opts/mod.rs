//! The decompiler optimization passes from the paper, one module each:
//!
//! * **constant propagation** ([`const_copy_prop`], with the dead-code
//!   elimination [`dce`] it ends each round with) — removes the
//!   instruction-set overhead of register moves;
//! * **stack operation removal** ([`stack_op_removal`]) — promotes spill
//!   slots, saved registers, and `$ra` homes back into registers (pre-SSA);
//! * **operator size reduction** ([`size_reduction`]) — infers the
//!   bit-width each value actually needs;
//! * **strength promotion** ([`strength_promotion`]) — re-fuses shift/add
//!   sequences back into multiplications;
//! * **loop rerolling** ([`loop_reroll`]) — rolls compiler-unrolled loops
//!   back into a single body.
//!
//! [`decompile`](crate::decompile::decompile) runs them in the order its
//! module docs list, and sums their counters into one [`PassStats`].

mod const_prop;
mod reroll;
mod size_reduction;
mod stack_ops;
mod strength_promotion;

pub use const_prop::{const_copy_prop, dce};
pub use reroll::loop_reroll;
pub use size_reduction::size_reduction;
pub use stack_ops::stack_op_removal;
pub use strength_promotion::strength_promotion;

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

#[cfg(test)]
mod tests {
    use super::*;
    use binpart_cdfg::ir::{BinOp, Function, Inst, MemWidth, Op, Operand, Terminator, VReg};
    use binpart_cdfg::loops::LoopForest;
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

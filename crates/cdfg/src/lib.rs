//! Control/data-flow-graph substrate for the decompilation-based
//! partitioning flow.
//!
//! The crate defines an instruction-set-independent micro-IR ([`ir::Op`]),
//! functions of basic blocks ([`ir::Function`]), and the analyses the
//! decompiler and behavioral synthesizer need:
//!
//! * predecessor/successor and ordering utilities ([`cfg`](mod@cfg)),
//! * dominator trees and dominance frontiers ([`dom`]),
//! * natural-loop detection and the loop forest ([`loops`]),
//! * pruned-SSA construction and verification ([`ssa`]),
//! * liveness and SSA definition sites ([`dataflow`]),
//! * high-level control-structure recovery ([`structure`]) — the paper's
//!   "control structure recovery" stage, classifying ifs and loop kinds.
//!
//! # Example
//!
//! Build a counted loop by hand, convert to SSA, and recover its structure:
//!
//! ```
//! use binpart_cdfg::ir::{Function, Op, Operand, Terminator, BinOp, VReg};
//! use binpart_cdfg::{ssa, loops, structure};
//!
//! let mut f = Function::new("count");
//! let entry = f.entry;
//! let header = f.add_block();
//! let exit = f.add_block();
//! let i = f.new_vreg();
//! f.block_mut(entry).push(Op::Const { dst: i, value: 0 });
//! f.block_mut(entry).term = Terminator::Jump(header);
//! f.block_mut(header).push(Op::Bin {
//!     op: BinOp::Add, dst: i, lhs: Operand::Reg(i), rhs: Operand::Const(1),
//! });
//! let c = f.new_vreg();
//! f.block_mut(header).push(Op::Bin {
//!     op: BinOp::LtS, dst: c, lhs: Operand::Reg(i), rhs: Operand::Const(10),
//! });
//! f.block_mut(header).term = Terminator::Branch {
//!     cond: Operand::Reg(c), t: header, f: exit,
//! };
//! f.block_mut(exit).term = Terminator::Return { value: Some(Operand::Reg(i)) };
//!
//! ssa::construct(&mut f);
//! ssa::verify(&f).expect("valid SSA");
//! let forest = loops::LoopForest::compute(&f);
//! assert_eq!(forest.loops().len(), 1);
//! let tree = structure::recover(&f);
//! assert!(tree.stats().loops() >= 1);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cfg;
pub mod dataflow;
pub mod dom;
pub mod ir;
pub mod loops;
pub mod ssa;
pub mod structure;

pub use ir::{BinOp, Block, BlockId, Function, Inst, MemWidth, Op, Operand, Terminator, UnOp, VReg};

//! Control/data-flow-graph substrate for the decompilation-based
//! partitioning flow.
//!
//! The crate defines an instruction-set-independent micro-IR and the
//! analyses the decompiler and behavioral synthesizer need:
//!
//! | file | role | entry point |
//! |---|---|---|
//! | `ir.rs` | the micro-IR: operations, basic blocks, functions; block counts kept beside them | [`ir::Function`], [`ir::Op`], [`ir::BlockCounts`] |
//! | `cfg.rs` | predecessors, orderings, unreachable-block removal | [`cfg::predecessors`], [`cfg::remove_unreachable`] |
//! | `dom.rs` | dominator trees and dominance frontiers | [`dom::Dominators`] |
//! | `loops.rs` | natural loops, the loop forest, induction variables and trip counts | [`loops::LoopForest`] |
//! | `ssa.rs` | pruned-SSA construction and verification, and its map-based oracle | [`ssa::construct`], [`ssa::verify`] |
//! | `dataflow.rs` | per-register tables: a bitset, per-register lists, definition sites | [`dataflow::RegLists`], [`dataflow::DefSites`] |
//! | `structure.rs` | the paper's control structure recovery: ifs, loop kinds, switches | [`structure::recover`] |
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

pub use ir::{
    BinOp, Block, BlockId, Function, Inst, MemWidth, Op, Operand, Terminator, UnOp, VReg,
};

//! The instruction-set-independent micro-IR.
//!
//! Decompiled MIPS instructions lift into these operations; all decompiler
//! passes and the behavioral synthesizer work on this representation. The IR
//! has two regimes distinguished by [`Function::is_ssa`]: after lifting,
//! virtual registers may be defined many times (they mirror machine
//! registers); after [`crate::ssa::construct`], every register has exactly
//! one definition and block-argument merges are explicit [`Op::Phi`]s.

use std::fmt;

/// A virtual register.
///
/// During lifting, numbers 0..=33 mirror the MIPS register file plus HI/LO;
/// fresh temporaries and SSA renaming allocate upward from there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(pub u32);

impl VReg {
    /// Index for dense side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A basic-block identifier (index into [`Function::blocks`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Index for dense side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// An operand: a virtual register or an immediate constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Virtual-register operand.
    Reg(VReg),
    /// Constant operand (sign-agnostic 64-bit container for 32-bit values).
    Const(i64),
}

impl Operand {
    /// The register, if this operand is one.
    pub fn as_reg(self) -> Option<VReg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Const(_) => None,
        }
    }

    /// The constant, if this operand is one.
    pub fn as_const(self) -> Option<i64> {
        match self {
            Operand::Const(c) => Some(c),
            Operand::Reg(_) => None,
        }
    }
}

impl From<VReg> for Operand {
    fn from(r: VReg) -> Self {
        Operand::Reg(r)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

/// Binary operations. Comparison operators produce 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping 32-bit add.
    Add,
    /// Wrapping 32-bit subtract.
    Sub,
    /// Low 32 bits of the product.
    Mul,
    /// High 32 bits of the signed 64-bit product.
    MulHiS,
    /// High 32 bits of the unsigned 64-bit product.
    MulHiU,
    /// Signed division (quotient).
    DivS,
    /// Unsigned division (quotient).
    DivU,
    /// Signed remainder.
    RemS,
    /// Unsigned remainder.
    RemU,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Bitwise nor.
    Nor,
    /// Logical shift left (rhs masked to 5 bits).
    Shl,
    /// Logical shift right.
    ShrL,
    /// Arithmetic shift right.
    ShrA,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Signed less-than.
    LtS,
    /// Unsigned less-than.
    LtU,
    /// Signed less-or-equal.
    LeS,
    /// Signed greater-than.
    GtS,
    /// Signed greater-or-equal.
    GeS,
}

impl BinOp {
    /// Returns `true` for comparison operators (result is 0/1).
    pub fn is_compare(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::LtS | BinOp::LtU | BinOp::LeS | BinOp::GtS | BinOp::GeS
        )
    }

    /// Constant-folds `lhs op rhs` with 32-bit wrapping semantics.
    ///
    /// Division/remainder by zero folds to the simulator's deterministic
    /// values so decompiled constants match executed behaviour.
    pub fn fold(self, lhs: i64, rhs: i64) -> i64 {
        let a = lhs as i32;
        let b = rhs as i32;
        let au = a as u32;
        let bu = b as u32;
        let r: i32 = match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::MulHiS => (((a as i64) * (b as i64)) >> 32) as i32,
            BinOp::MulHiU => (((au as u64) * (bu as u64)) >> 32) as i32,
            BinOp::DivS => {
                if b == 0 {
                    -1
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::DivU => au.checked_div(bu).map_or(-1, |q| q as i32),
            BinOp::RemS => {
                if b == 0 {
                    a
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::RemU => {
                if bu == 0 {
                    a
                } else {
                    (au % bu) as i32
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Nor => !(a | b),
            BinOp::Shl => ((au) << (bu & 31)) as i32,
            BinOp::ShrL => (au >> (bu & 31)) as i32,
            BinOp::ShrA => a >> (bu & 31),
            BinOp::Eq => (a == b) as i32,
            BinOp::Ne => (a != b) as i32,
            BinOp::LtS => (a < b) as i32,
            BinOp::LtU => (au < bu) as i32,
            BinOp::LeS => (a <= b) as i32,
            BinOp::GtS => (a > b) as i32,
            BinOp::GeS => (a >= b) as i32,
        };
        r as i64
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::MulHiS => "mulhis",
            BinOp::MulHiU => "mulhiu",
            BinOp::DivS => "sdiv",
            BinOp::DivU => "udiv",
            BinOp::RemS => "srem",
            BinOp::RemU => "urem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Nor => "nor",
            BinOp::Shl => "shl",
            BinOp::ShrL => "lshr",
            BinOp::ShrA => "ashr",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::LtS => "slt",
            BinOp::LtU => "ult",
            BinOp::LeS => "sle",
            BinOp::GtS => "sgt",
            BinOp::GeS => "sge",
        };
        f.write_str(s)
    }
}

/// Unary operations (including the size casts operator-size reduction uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise complement.
    Not,
    /// Arithmetic negate.
    Neg,
    /// Sign-extend the low 8 bits.
    SextB,
    /// Sign-extend the low 16 bits.
    SextH,
    /// Zero-extend the low 8 bits.
    ZextB,
    /// Zero-extend the low 16 bits.
    ZextH,
}

impl UnOp {
    /// Constant-folds with 32-bit semantics.
    pub fn fold(self, v: i64) -> i64 {
        let x = v as i32;
        let r: i32 = match self {
            UnOp::Not => !x,
            UnOp::Neg => x.wrapping_neg(),
            UnOp::SextB => x as u32 as u8 as i8 as i32,
            UnOp::SextH => x as u32 as u16 as i16 as i32,
            UnOp::ZextB => (x as u32 as u8) as i32,
            UnOp::ZextH => (x as u32 as u16) as i32,
        };
        r as i64
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Not => "not",
            UnOp::Neg => "neg",
            UnOp::SextB => "sext8",
            UnOp::SextH => "sext16",
            UnOp::ZextB => "zext8",
            UnOp::ZextH => "zext16",
        };
        f.write_str(s)
    }
}

/// Memory access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// One byte.
    B,
    /// Two bytes.
    H,
    /// Four bytes.
    W,
}

impl MemWidth {
    /// Width in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
        }
    }

    /// Width in bits.
    pub fn bits(self) -> u8 {
        (self.bytes() * 8) as u8
    }
}

/// A non-terminator operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `dst = value`
    Const {
        /// Destination.
        dst: VReg,
        /// Immediate value.
        value: i64,
    },
    /// `dst = src`
    Copy {
        /// Destination.
        dst: VReg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = op src`
    Un {
        /// Operation.
        op: UnOp,
        /// Destination.
        dst: VReg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = lhs op rhs`
    Bin {
        /// Operation.
        op: BinOp,
        /// Destination.
        dst: VReg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = mem[addr]`
    Load {
        /// Destination.
        dst: VReg,
        /// Byte address.
        addr: Operand,
        /// Access width.
        width: MemWidth,
        /// Sign-extend narrow loads.
        signed: bool,
    },
    /// `mem[addr] = src`
    Store {
        /// Value to store.
        src: Operand,
        /// Byte address.
        addr: Operand,
        /// Access width.
        width: MemWidth,
    },
    /// Call to a function identified by its entry address.
    Call {
        /// Callee entry address.
        target: u32,
        /// Arguments (recovered from the calling convention).
        args: Vec<Operand>,
        /// Result register, if the callee produces one.
        dst: Option<VReg>,
    },
    /// SSA merge.
    Phi {
        /// Destination.
        dst: VReg,
        /// One incoming operand per predecessor block.
        args: Vec<(BlockId, Operand)>,
    },
}

impl Op {
    /// The register defined by this op, if any.
    pub fn dst(&self) -> Option<VReg> {
        match self {
            Op::Const { dst, .. }
            | Op::Copy { dst, .. }
            | Op::Un { dst, .. }
            | Op::Bin { dst, .. }
            | Op::Load { dst, .. }
            | Op::Phi { dst, .. } => Some(*dst),
            Op::Call { dst, .. } => *dst,
            Op::Store { .. } => None,
        }
    }

    /// Replaces the defined register.
    pub fn set_dst(&mut self, new: VReg) {
        match self {
            Op::Const { dst, .. }
            | Op::Copy { dst, .. }
            | Op::Un { dst, .. }
            | Op::Bin { dst, .. }
            | Op::Load { dst, .. }
            | Op::Phi { dst, .. } => *dst = new,
            Op::Call { dst, .. } => *dst = Some(new),
            Op::Store { .. } => {}
        }
    }

    /// Visits every operand read by this op.
    pub fn for_each_use(&self, mut f: impl FnMut(&Operand)) {
        match self {
            Op::Const { .. } => {}
            Op::Copy { src, .. } | Op::Un { src, .. } => f(src),
            Op::Bin { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Op::Load { addr, .. } => f(addr),
            Op::Store { src, addr, .. } => {
                f(src);
                f(addr);
            }
            Op::Call { args, .. } => args.iter().for_each(f),
            Op::Phi { args, .. } => {
                for (_, a) in args {
                    f(a);
                }
            }
        }
    }

    /// Mutably visits every operand read by this op.
    pub fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            Op::Const { .. } => {}
            Op::Copy { src, .. } | Op::Un { src, .. } => f(src),
            Op::Bin { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Op::Load { addr, .. } => f(addr),
            Op::Store { src, addr, .. } => {
                f(src);
                f(addr);
            }
            Op::Call { args, .. } => args.iter_mut().for_each(f),
            Op::Phi { args, .. } => {
                for (_, a) in args {
                    f(a);
                }
            }
        }
    }

    /// Returns `true` if removing this op (when its result is dead) changes
    /// observable behaviour.
    pub fn has_side_effects(&self) -> bool {
        matches!(self, Op::Store { .. } | Op::Call { .. })
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Const { dst, value } => write!(f, "{dst} = const {value}"),
            Op::Copy { dst, src } => write!(f, "{dst} = {src}"),
            Op::Un { op, dst, src } => write!(f, "{dst} = {op} {src}"),
            Op::Bin { op, dst, lhs, rhs } => write!(f, "{dst} = {op} {lhs}, {rhs}"),
            Op::Load {
                dst,
                addr,
                width,
                signed,
            } => write!(
                f,
                "{dst} = load.{}{} [{addr}]",
                if *signed { "s" } else { "u" },
                width.bits()
            ),
            Op::Store { src, addr, width } => {
                write!(f, "store.{} [{addr}], {src}", width.bits())
            }
            Op::Call { target, args, dst } => {
                if let Some(d) = dst {
                    write!(f, "{d} = call {target:#x}(")?;
                } else {
                    write!(f, "call {target:#x}(")?;
                }
                for (k, a) in args.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Op::Phi { dst, args } => {
                write!(f, "{dst} = phi ")?;
                for (k, (b, a)) in args.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "[{b}: {a}]")?;
                }
                Ok(())
            }
        }
    }
}

/// An op plus provenance metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inst {
    /// The operation.
    pub op: Op,
    /// Address of the originating machine instruction, when lifted.
    pub pc: Option<u32>,
}

impl Inst {
    /// Wraps an op with no provenance.
    pub fn new(op: Op) -> Inst {
        Inst { op, pc: None }
    }

    /// Wraps an op tagged with its source address.
    pub fn at(op: Op, pc: u32) -> Inst {
        Inst { op, pc: Some(pc) }
    }
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional transfer.
    Jump(BlockId),
    /// Two-way conditional on `cond != 0`.
    Branch {
        /// Condition value.
        cond: Operand,
        /// Taken when nonzero.
        t: BlockId,
        /// Taken when zero.
        f: BlockId,
    },
    /// Function return.
    Return {
        /// Returned value, if the function produces one.
        value: Option<Operand>,
    },
    /// Multi-way transfer recovered from a jump table: `targets[index]`.
    Switch {
        /// Table index value.
        index: Operand,
        /// Targets in table order.
        targets: Vec<BlockId>,
        /// Fallthrough for out-of-range indices (bounds-check branch).
        default: BlockId,
    },
    /// Placeholder for blocks under construction.
    None,
}

impl Terminator {
    /// Successor block ids, in order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch { t, f, .. } => vec![*t, *f],
            Terminator::Return { .. } | Terminator::None => vec![],
            Terminator::Switch {
                targets, default, ..
            } => {
                let mut v = targets.clone();
                v.push(*default);
                v.dedup();
                v
            }
        }
    }

    /// Rewrites every successor id through `f`.
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Jump(b) => *b = f(*b),
            Terminator::Branch { t, f: fl, .. } => {
                *t = f(*t);
                *fl = f(*fl);
            }
            Terminator::Switch {
                targets, default, ..
            } => {
                for t in targets {
                    *t = f(*t);
                }
                *default = f(*default);
            }
            Terminator::Return { .. } | Terminator::None => {}
        }
    }

    /// Visits operands read by the terminator.
    pub fn for_each_use(&self, mut f: impl FnMut(&Operand)) {
        match self {
            Terminator::Branch { cond, .. } => f(cond),
            Terminator::Return { value: Some(v) } => f(v),
            Terminator::Switch { index, .. } => f(index),
            _ => {}
        }
    }

    /// Mutably visits operands read by the terminator.
    pub fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            Terminator::Branch { cond, .. } => f(cond),
            Terminator::Return { value: Some(v) } => f(v),
            Terminator::Switch { index, .. } => f(index),
            _ => {}
        }
    }
}

/// A basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Straight-line operations.
    pub ops: Vec<Inst>,
    /// Terminator.
    pub term: Terminator,
    /// Address of the first originating machine instruction, when lifted.
    pub start_pc: Option<u32>,
    /// Logical iterations each recorded execution of this block stands
    /// for (1 = untransformed). Loop rerolling folds a `k`-way unrolled
    /// body into one section, so one profiled execution of the original
    /// block corresponds to `k` executions of the rerolled block; cycle
    /// estimators must scale the block's [`BlockCounts`] entry by this
    /// factor.
    pub reroll_factor: u32,
}

impl Block {
    /// An empty block with a [`Terminator::None`] placeholder.
    pub fn new() -> Block {
        Block {
            ops: Vec::new(),
            term: Terminator::None,
            start_pc: None,
            reroll_factor: 1,
        }
    }

    /// Appends `op` with no provenance.
    pub fn push(&mut self, op: Op) {
        self.ops.push(Inst::new(op));
    }

    /// Appends `op` tagged with address `pc`.
    pub fn push_at(&mut self, op: Op, pc: u32) {
        self.ops.push(Inst::at(op, pc));
    }
}

impl Default for Block {
    fn default() -> Self {
        Self::new()
    }
}

/// Dynamic execution counts of one function's blocks, indexed by
/// [`BlockId`]: a table kept beside the program, so one function can be
/// weighed under several profiles. A block past the table's end counts 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockCounts(Vec<u64>);

impl BlockCounts {
    /// The count of block `b` (0 when `b` is past the table's end).
    pub fn get(&self, b: BlockId) -> u64 {
        self.0.get(b.index()).copied().unwrap_or(0)
    }
}

impl FromIterator<u64> for BlockCounts {
    /// The counts of blocks `0, 1, ...` in iteration order.
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> BlockCounts {
        BlockCounts(iter.into_iter().collect())
    }
}

/// A function: a CFG of basic blocks over virtual registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Diagnostic name (from symbols when available, else `f_<addr>`).
    pub name: String,
    /// Entry address in the original binary (0 if synthetic).
    pub entry_pc: u32,
    /// Blocks; [`BlockId`] indexes into this.
    pub blocks: Vec<Block>,
    /// Entry block.
    pub entry: BlockId,
    /// Parameters recovered from the calling convention.
    pub params: Vec<VReg>,
    /// Whether SSA invariants hold (single def per register, phis first).
    pub is_ssa: bool,
    /// Inferred bit-width per register (index by [`VReg::index`]); written by
    /// the operator-size-reduction pass. Empty until computed.
    pub vreg_bits: Vec<u8>,
    next_vreg: u32,
}

impl Function {
    /// Creates a function with a single empty entry block.
    pub fn new(name: impl Into<String>) -> Function {
        Function {
            name: name.into(),
            entry_pc: 0,
            blocks: vec![Block::new()],
            entry: BlockId(0),
            params: Vec::new(),
            is_ssa: false,
            vreg_bits: Vec::new(),
            next_vreg: 0,
        }
    }

    /// Creates a function whose first `n` registers are pre-allocated
    /// (used by the lifter to mirror the machine register file).
    pub fn with_reserved_regs(name: impl Into<String>, n: u32) -> Function {
        let mut f = Function::new(name);
        f.next_vreg = n;
        f
    }

    /// Allocates a fresh virtual register.
    pub fn new_vreg(&mut self) -> VReg {
        let r = VReg(self.next_vreg);
        self.next_vreg += 1;
        r
    }

    /// Number of virtual registers allocated so far.
    pub fn vreg_count(&self) -> u32 {
        self.next_vreg
    }

    /// Appends an empty block and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(Block::new());
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Shared access to a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Exclusive access to a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// All block ids in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Total op count across blocks (excluding terminators).
    pub fn op_count(&self) -> usize {
        self.blocks.iter().map(|b| b.ops.len()).sum()
    }

    /// Inferred width of `r` in bits (32 when size reduction has not run).
    pub fn bits_of(&self, r: VReg) -> u8 {
        self.vreg_bits.get(r.index()).copied().unwrap_or(32)
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fn {} (entry {}) {{", self.name, self.entry)?;
        for id in self.block_ids() {
            let b = self.block(id);
            write!(f, "{id}")?;
            if let Some(pc) = b.start_pc {
                write!(f, " @ {pc:#x}")?;
            }
            writeln!(f, ":")?;
            for inst in &b.ops {
                writeln!(f, "    {}", inst.op)?;
            }
            match &b.term {
                Terminator::Jump(t) => writeln!(f, "    jump {t}")?,
                Terminator::Branch { cond, t, f: fl } => writeln!(f, "    br {cond} ? {t} : {fl}")?,
                Terminator::Return { value: Some(v) } => writeln!(f, "    ret {v}")?,
                Terminator::Return { value: None } => writeln!(f, "    ret")?,
                Terminator::Switch {
                    index,
                    targets,
                    default,
                } => writeln!(f, "    switch {index} {targets:?} default {default}")?,
                Terminator::None => writeln!(f, "    <none>")?,
            }
        }
        writeln!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_matches_wrapping_semantics() {
        assert_eq!(BinOp::Add.fold(i32::MAX as i64, 1), i32::MIN as i64);
        assert_eq!(BinOp::Shl.fold(1, 33), 2); // shift amount masked to 5 bits
        assert_eq!(BinOp::ShrA.fold(-8, 1), -4);
        assert_eq!(BinOp::ShrL.fold(-8, 1), 0x7fff_fffc);
        assert_eq!(BinOp::LtU.fold(-1, 1), 0); // 0xffffffff < 1 unsigned
        assert_eq!(BinOp::DivS.fold(7, 2), 3);
        assert_eq!(BinOp::DivS.fold(7, 0), -1); // deterministic div-by-zero
        assert_eq!(BinOp::RemS.fold(7, 0), 7);
    }

    #[test]
    fn unop_fold() {
        assert_eq!(UnOp::SextB.fold(0x80), -128);
        assert_eq!(UnOp::ZextB.fold(0x180), 0x80);
        assert_eq!(UnOp::SextH.fold(0x8000), -32768);
        assert_eq!(UnOp::Not.fold(0), -1);
        assert_eq!(UnOp::Neg.fold(5), -5);
    }

    #[test]
    fn op_dst_and_uses() {
        let r0 = VReg(0);
        let r1 = VReg(1);
        let op = Op::Bin {
            op: BinOp::Add,
            dst: r0,
            lhs: Operand::Reg(r1),
            rhs: Operand::Const(3),
        };
        assert_eq!(op.dst(), Some(r0));
        let mut uses = vec![];
        op.for_each_use(|o| uses.push(*o));
        assert_eq!(uses, vec![Operand::Reg(r1), Operand::Const(3)]);
        let st = Op::Store {
            src: Operand::Reg(r0),
            addr: Operand::Reg(r1),
            width: MemWidth::W,
        };
        assert_eq!(st.dst(), None);
        assert!(st.has_side_effects());
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            cond: Operand::Const(1),
            t: BlockId(1),
            f: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        let s = Terminator::Switch {
            index: Operand::Const(0),
            targets: vec![BlockId(1), BlockId(1), BlockId(2)],
            default: BlockId(3),
        };
        // deduped but order-preserving
        assert_eq!(s.successors(), vec![BlockId(1), BlockId(2), BlockId(3)]);
    }

    #[test]
    fn function_builder_basics() {
        let mut f = Function::with_reserved_regs("t", 34);
        assert_eq!(f.new_vreg(), VReg(34));
        let b = f.add_block();
        assert_eq!(b, BlockId(1));
        f.block_mut(b).push(Op::Const {
            dst: VReg(34),
            value: 9,
        });
        assert_eq!(f.op_count(), 1);
        assert_eq!(f.bits_of(VReg(34)), 32);
        let text = f.to_string();
        assert!(text.contains("bb1"));
        assert!(text.contains("const 9"));
    }
}

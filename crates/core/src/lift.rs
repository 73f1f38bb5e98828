//! Binary parsing and CDFG creation: lifting MIPS machine code into the
//! instruction-set-independent micro-IR.
//!
//! Lifting is **panic-free**: every malformed input — undecodable words,
//! indirect jumps, control flow escaping the text section, branches into
//! delay slots — surfaces as a typed [`LiftError`], rolled up into
//! [`DecompileError`] (and from there into
//! [`crate::flow::FlowError`]). With
//! [`DecompileOptions::software_fallback`] enabled, a *non-entry* function
//! that fails to lift is skipped (it simply stays in software) instead of
//! failing the whole program; the skip is recorded on
//! [`LiftedProgram::skipped`].
//!
//! This is the front half of the paper's decompiler: discover functions
//! (entry point + direct-call targets), build each function's CFG by
//! recursive traversal, normalize branch **delay slots** (the delay
//! instruction's effect is re-ordered before the transfer, with the branch
//! condition captured first so semantics are preserved), and either reject
//! or recover **indirect jumps** — plain CDFG recovery fails on jump tables
//! exactly as the paper reports for two of its EEMBC benchmarks; optional
//! recovery pattern-matches the bounds-check/table-load idiom and produces a
//! `Switch` terminator instead.

use binpart_cdfg::ir::{BinOp, BlockId, Function, MemWidth, Op, Operand, Terminator, VReg};
use binpart_mips::{Binary, Instr, Reg};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Virtual register mirroring machine register `r`.
fn mreg(r: Reg) -> VReg {
    VReg(r.number() as u32)
}

/// Virtual register for the HI multiply/divide result.
const HI: VReg = VReg(32);
/// Virtual register for the LO multiply/divide result.
const LO: VReg = VReg(33);
/// Machine state registers reserved before fresh temporaries.
pub const RESERVED_REGS: u32 = 34;

/// Options controlling decompilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecompileOptions {
    /// Attempt jump-table recovery at indirect jumps (extension beyond the
    /// paper; the paper's tool fails on these).
    pub recover_jump_tables: bool,
    /// Run the decompiler optimization passes (constant propagation, stack
    /// operation removal, size reduction, strength promotion, rerolling).
    pub optimize: bool,
    /// Per-function graceful degradation: a *non-entry* function that fails
    /// to lift or optimize is skipped (it stays in software, with a
    /// [`crate::diag::Diagnostic`] recorded) instead of failing the whole
    /// program. Off by default — the paper's flow reports whole-program
    /// decompilation failure (its 2-of-20 jump-table cases), and the
    /// benchmark evidence depends on that behavior.
    pub software_fallback: bool,
}

impl Default for DecompileOptions {
    fn default() -> Self {
        DecompileOptions {
            recover_jump_tables: false,
            optimize: true,
            software_fallback: false,
        }
    }
}

/// CDFG-creation failure: why one function could not be lifted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiftError {
    /// Undecodable machine word on an executed path.
    BadWord {
        /// Address of the word.
        pc: u32,
        /// The word.
        word: u32,
    },
    /// CDFG recovery failed at an indirect jump (jump table) — the paper's
    /// failure mode.
    IndirectJump {
        /// Address of the `jr` instruction.
        pc: u32,
    },
    /// Control flow leaves the text section.
    FlowLeavesText {
        /// The offending target.
        target: u32,
    },
    /// A branch target lands in a delay slot (not generated by compilers).
    BranchIntoDelaySlot {
        /// The branch address.
        pc: u32,
    },
    /// The decoder and the lifter disagreed about an instruction's shape
    /// (defensive: this indicates an inconsistent decode, not bad input).
    Malformed {
        /// Address of the instruction.
        pc: u32,
        /// What was inconsistent.
        what: &'static str,
    },
}

impl fmt::Display for LiftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiftError::BadWord { pc, word } => {
                write!(f, "undecodable word {word:#010x} at {pc:#010x}")
            }
            LiftError::IndirectJump { pc } => {
                write!(f, "CDFG recovery failed: indirect jump at {pc:#010x}")
            }
            LiftError::FlowLeavesText { target } => {
                write!(f, "control flow leaves text section toward {target:#010x}")
            }
            LiftError::BranchIntoDelaySlot { pc } => {
                write!(f, "branch at {pc:#010x} targets a delay slot")
            }
            LiftError::Malformed { pc, what } => {
                write!(f, "inconsistent instruction at {pc:#010x}: {what}")
            }
        }
    }
}

impl std::error::Error for LiftError {}

/// Decompilation failure: a lift failure or an optimizer fuel trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompileError {
    /// CDFG creation failed ([`LiftError`]).
    Lift(LiftError),
    /// A decompiler fixpoint exhausted its fuel budget — a termination
    /// guard against adversarial CFGs. **Transient**: re-running with a
    /// larger budget (or after simplification) can succeed, so the staged
    /// flow does not latch this error in its caches.
    Fuel {
        /// The pass whose fixpoint tripped.
        pass: &'static str,
        /// The configured iteration budget.
        limit: u64,
    },
}

impl fmt::Display for DecompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompileError::Lift(e) => e.fmt(f),
            DecompileError::Fuel { pass, limit } => {
                write!(
                    f,
                    "optimizer fuel exhausted: {pass} exceeded {limit} rounds"
                )
            }
        }
    }
}

impl std::error::Error for DecompileError {}

impl From<LiftError> for DecompileError {
    fn from(e: LiftError) -> Self {
        DecompileError::Lift(e)
    }
}

/// A function skipped by per-function graceful degradation
/// ([`DecompileOptions::software_fallback`]).
#[derive(Debug, Clone)]
pub struct SkippedFunction {
    /// The function's entry address.
    pub entry: u32,
    /// The function's (symbol or synthetic) name.
    pub name: String,
    /// Why lifting failed.
    pub error: LiftError,
}

/// A lifted program: one [`Function`] per discovered function.
#[derive(Debug, Clone)]
pub struct LiftedProgram {
    /// Functions keyed by entry address; `functions[0]` is the binary entry.
    pub functions: Vec<Function>,
    /// Entry addresses parallel to `functions`.
    pub entries: Vec<u32>,
    /// Functions rejected back to software by per-function degradation
    /// (always empty unless [`DecompileOptions::software_fallback`] is on).
    pub skipped: Vec<SkippedFunction>,
}

struct Lifter<'b> {
    binary: &'b Binary,
    options: DecompileOptions,
}

impl<'b> Lifter<'b> {
    /// Decodes the instruction at `pc`. Decoding is **lazy** — only words
    /// the lifter actually walks must decode, so an undecodable word in
    /// never-lifted padding or data interleaved with text cannot fail the
    /// whole program.
    fn instr_at(&self, pc: u32) -> Result<Instr, LiftError> {
        let off = pc.wrapping_sub(self.binary.text_base);
        if !off.is_multiple_of(4) {
            return Err(LiftError::FlowLeavesText { target: pc });
        }
        let word = self
            .binary
            .text
            .get((off / 4) as usize)
            .copied()
            .ok_or(LiftError::FlowLeavesText { target: pc })?;
        binpart_mips::decode(word).map_err(|e| LiftError::BadWord { pc, word: e.word })
    }

    fn function_name(&self, entry: u32) -> String {
        self.binary
            .symbols
            .iter()
            .find(|s| s.addr == entry && s.kind == binpart_mips::SymbolKind::Func)
            .map(|s| s.name.clone())
            .unwrap_or_else(|| format!("f_{entry:#x}"))
    }
}

/// Lifts every reachable function of `binary`.
///
/// # Errors
///
/// Returns [`DecompileError`] on undecodable words, indirect jumps (without
/// recovery enabled), or control flow escaping the text section. With
/// [`DecompileOptions::software_fallback`], only the *entry* function's
/// failure is fatal; failing callees are recorded on
/// [`LiftedProgram::skipped`] and stay in software.
pub fn lift_program(
    binary: &Binary,
    options: DecompileOptions,
) -> Result<LiftedProgram, DecompileError> {
    let lifter = Lifter { binary, options };
    // Function discovery: entry + every jal target, breadth-first.
    let mut discovered = vec![binary.entry];
    let mut entries = Vec::new();
    let mut functions = Vec::new();
    let mut skipped = Vec::new();
    let mut done = 0;
    while done < discovered.len() {
        let entry = discovered[done];
        done += 1;
        let f = match lift_function(&lifter, entry) {
            Ok(f) => f,
            Err(e) if options.software_fallback && entry != binary.entry => {
                // Per-function graceful degradation: the callee stays in
                // software; its own callees go undiscovered (they too stay
                // in software unless reached through another lifted call).
                skipped.push(SkippedFunction {
                    entry,
                    name: lifter.function_name(entry),
                    error: e,
                });
                continue;
            }
            Err(e) => return Err(e.into()),
        };
        // enqueue new callees
        for b in f.block_ids() {
            for inst in &f.block(b).ops {
                if let Op::Call { target, .. } = inst.op {
                    if !discovered.contains(&target) {
                        discovered.push(target);
                    }
                }
            }
        }
        entries.push(entry);
        functions.push(f);
    }
    Ok(LiftedProgram {
        functions,
        entries,
        skipped,
    })
}

/// Lifts a single function rooted at `entry`.
fn lift_function(lifter: &Lifter<'_>, entry: u32) -> Result<Function, LiftError> {
    let mut f = Function::with_reserved_regs(lifter.function_name(entry), RESERVED_REGS);
    f.entry_pc = entry;
    // Map pc -> block id; entry block is block 0.
    let mut block_of: HashMap<u32, BlockId> = HashMap::new();
    block_of.insert(entry, f.entry);
    f.block_mut(f.entry).start_pc = Some(entry);
    let mut work = vec![entry];
    let mut visited: HashSet<u32> = HashSet::new();
    while let Some(start) = work.pop() {
        if !visited.insert(start) {
            continue;
        }
        // Every worklist entry was registered in `block_of` when pushed;
        // skip (don't panic) if that invariant is ever violated.
        let Some(&bb) = block_of.get(&start) else {
            continue;
        };
        let mut pc = start;
        loop {
            let instr = lifter.instr_at(pc)?;
            if instr.is_control() {
                let term_targets = lift_control(lifter, &mut f, bb, pc, instr, &mut block_of)?;
                for t in term_targets {
                    if !visited.contains(&t) {
                        work.push(t);
                    }
                }
                break;
            }
            lift_simple(&mut f, bb, pc, instr)?;
            pc += 4;
            // Falling into another block's leader ends this block.
            if let Some(&next) = block_of.get(&pc) {
                f.block_mut(bb).term = Terminator::Jump(next);
                if !visited.contains(&pc) {
                    work.push(pc);
                }
                break;
            }
        }
    }
    Ok(f)
}

/// Gets (or creates) the block at `pc`.
fn block_at(f: &mut Function, block_of: &mut HashMap<u32, BlockId>, pc: u32) -> BlockId {
    *block_of.entry(pc).or_insert_with(|| {
        let b = f.add_block();
        f.block_mut(b).start_pc = Some(pc);
        b
    })
}

/// Lifts a non-control instruction.
fn lift_simple(f: &mut Function, bb: BlockId, pc: u32, instr: Instr) -> Result<(), LiftError> {
    use Instr::*;
    let bin = |f: &mut Function, bb: BlockId, op: BinOp, rd: Reg, a: Operand, b: Operand| {
        if rd != Reg::Zero {
            f.block_mut(bb).push_at(
                Op::Bin {
                    op,
                    dst: mreg(rd),
                    lhs: a,
                    rhs: b,
                },
                pc,
            );
        }
    };
    let r = |x: Reg| -> Operand {
        if x == Reg::Zero {
            Operand::Const(0)
        } else {
            Operand::Reg(mreg(x))
        }
    };
    match instr {
        Add { rd, rs, rt } | Addu { rd, rs, rt } => bin(f, bb, BinOp::Add, rd, r(rs), r(rt)),
        Sub { rd, rs, rt } | Subu { rd, rs, rt } => bin(f, bb, BinOp::Sub, rd, r(rs), r(rt)),
        And { rd, rs, rt } => bin(f, bb, BinOp::And, rd, r(rs), r(rt)),
        Or { rd, rs, rt } => bin(f, bb, BinOp::Or, rd, r(rs), r(rt)),
        Xor { rd, rs, rt } => bin(f, bb, BinOp::Xor, rd, r(rs), r(rt)),
        Nor { rd, rs, rt } => bin(f, bb, BinOp::Nor, rd, r(rs), r(rt)),
        Slt { rd, rs, rt } => bin(f, bb, BinOp::LtS, rd, r(rs), r(rt)),
        Sltu { rd, rs, rt } => bin(f, bb, BinOp::LtU, rd, r(rs), r(rt)),
        Sll { rd, rt, shamt } => {
            if !instr.is_nop() {
                bin(f, bb, BinOp::Shl, rd, r(rt), Operand::Const(shamt as i64))
            }
        }
        Srl { rd, rt, shamt } => bin(f, bb, BinOp::ShrL, rd, r(rt), Operand::Const(shamt as i64)),
        Sra { rd, rt, shamt } => bin(f, bb, BinOp::ShrA, rd, r(rt), Operand::Const(shamt as i64)),
        Sllv { rd, rt, rs } => bin(f, bb, BinOp::Shl, rd, r(rt), r(rs)),
        Srlv { rd, rt, rs } => bin(f, bb, BinOp::ShrL, rd, r(rt), r(rs)),
        Srav { rd, rt, rs } => bin(f, bb, BinOp::ShrA, rd, r(rt), r(rs)),
        Mult { rs, rt } => {
            f.block_mut(bb).push_at(
                Op::Bin {
                    op: BinOp::Mul,
                    dst: LO,
                    lhs: r(rs),
                    rhs: r(rt),
                },
                pc,
            );
            f.block_mut(bb).push_at(
                Op::Bin {
                    op: BinOp::MulHiS,
                    dst: HI,
                    lhs: r(rs),
                    rhs: r(rt),
                },
                pc,
            );
        }
        Multu { rs, rt } => {
            f.block_mut(bb).push_at(
                Op::Bin {
                    op: BinOp::Mul,
                    dst: LO,
                    lhs: r(rs),
                    rhs: r(rt),
                },
                pc,
            );
            f.block_mut(bb).push_at(
                Op::Bin {
                    op: BinOp::MulHiU,
                    dst: HI,
                    lhs: r(rs),
                    rhs: r(rt),
                },
                pc,
            );
        }
        Div { rs, rt } => {
            f.block_mut(bb).push_at(
                Op::Bin {
                    op: BinOp::DivS,
                    dst: LO,
                    lhs: r(rs),
                    rhs: r(rt),
                },
                pc,
            );
            f.block_mut(bb).push_at(
                Op::Bin {
                    op: BinOp::RemS,
                    dst: HI,
                    lhs: r(rs),
                    rhs: r(rt),
                },
                pc,
            );
        }
        Divu { rs, rt } => {
            f.block_mut(bb).push_at(
                Op::Bin {
                    op: BinOp::DivU,
                    dst: LO,
                    lhs: r(rs),
                    rhs: r(rt),
                },
                pc,
            );
            f.block_mut(bb).push_at(
                Op::Bin {
                    op: BinOp::RemU,
                    dst: HI,
                    lhs: r(rs),
                    rhs: r(rt),
                },
                pc,
            );
        }
        Mfhi { rd } => {
            if rd != Reg::Zero {
                f.block_mut(bb).push_at(
                    Op::Copy {
                        dst: mreg(rd),
                        src: Operand::Reg(HI),
                    },
                    pc,
                );
            }
        }
        Mflo { rd } => {
            if rd != Reg::Zero {
                f.block_mut(bb).push_at(
                    Op::Copy {
                        dst: mreg(rd),
                        src: Operand::Reg(LO),
                    },
                    pc,
                );
            }
        }
        Mthi { rs } => f.block_mut(bb).push_at(
            Op::Copy {
                dst: HI,
                src: r(rs),
            },
            pc,
        ),
        Mtlo { rs } => f.block_mut(bb).push_at(
            Op::Copy {
                dst: LO,
                src: r(rs),
            },
            pc,
        ),
        Addi { rt, rs, imm } | Addiu { rt, rs, imm } => {
            bin(f, bb, BinOp::Add, rt, r(rs), Operand::Const(imm as i64))
        }
        Slti { rt, rs, imm } => bin(f, bb, BinOp::LtS, rt, r(rs), Operand::Const(imm as i64)),
        Sltiu { rt, rs, imm } => bin(
            f,
            bb,
            BinOp::LtU,
            rt,
            r(rs),
            Operand::Const(imm as i32 as u32 as i64),
        ),
        Andi { rt, rs, imm } => bin(f, bb, BinOp::And, rt, r(rs), Operand::Const(imm as i64)),
        Ori { rt, rs, imm } => bin(f, bb, BinOp::Or, rt, r(rs), Operand::Const(imm as i64)),
        Xori { rt, rs, imm } => bin(f, bb, BinOp::Xor, rt, r(rs), Operand::Const(imm as i64)),
        Lui { rt, imm } => {
            if rt != Reg::Zero {
                f.block_mut(bb).push_at(
                    Op::Const {
                        dst: mreg(rt),
                        value: ((imm as u32) << 16) as i64,
                    },
                    pc,
                );
            }
        }
        Lb { rt, base, offset }
        | Lbu { rt, base, offset }
        | Lh { rt, base, offset }
        | Lhu { rt, base, offset }
        | Lw { rt, base, offset } => {
            let addr = addr_operand(f, bb, pc, base, offset);
            let (width, signed) = match instr {
                Lb { .. } => (MemWidth::B, true),
                Lbu { .. } => (MemWidth::B, false),
                Lh { .. } => (MemWidth::H, true),
                Lhu { .. } => (MemWidth::H, false),
                _ => (MemWidth::W, false),
            };
            if rt != Reg::Zero {
                f.block_mut(bb).push_at(
                    Op::Load {
                        dst: mreg(rt),
                        addr,
                        width,
                        signed,
                    },
                    pc,
                );
            }
        }
        Sb { rt, base, offset } | Sh { rt, base, offset } | Sw { rt, base, offset } => {
            let addr = addr_operand(f, bb, pc, base, offset);
            let width = match instr {
                Sb { .. } => MemWidth::B,
                Sh { .. } => MemWidth::H,
                _ => MemWidth::W,
            };
            f.block_mut(bb).push_at(
                Op::Store {
                    src: r(rt),
                    addr,
                    width,
                },
                pc,
            );
        }
        _ => {
            return Err(LiftError::Malformed {
                pc,
                what: "control instruction lifted as simple",
            })
        }
    }
    Ok(())
}

/// Computes the effective address `base + offset` as an operand.
fn addr_operand(f: &mut Function, bb: BlockId, pc: u32, base: Reg, offset: i16) -> Operand {
    if base == Reg::Zero {
        return Operand::Const(offset as i64);
    }
    if offset == 0 {
        return Operand::Reg(mreg(base));
    }
    let t = f.new_vreg();
    f.block_mut(bb).push_at(
        Op::Bin {
            op: BinOp::Add,
            dst: t,
            lhs: Operand::Reg(mreg(base)),
            rhs: Operand::Const(offset as i64),
        },
        pc,
    );
    Operand::Reg(t)
}

/// Lifts a control instruction together with its delay slot; returns the
/// continuation pcs to explore.
fn lift_control(
    lifter: &Lifter<'_>,
    f: &mut Function,
    bb: BlockId,
    pc: u32,
    instr: Instr,
    block_of: &mut HashMap<u32, BlockId>,
) -> Result<Vec<u32>, LiftError> {
    use Instr::*;
    let delay = lifter.instr_at(pc + 4)?;
    if delay.is_control() {
        return Err(LiftError::BranchIntoDelaySlot { pc });
    }
    let r = |x: Reg| -> Operand {
        if x == Reg::Zero {
            Operand::Const(0)
        } else {
            Operand::Reg(mreg(x))
        }
    };
    match instr {
        Beq { .. } | Bne { .. } | Blez { .. } | Bgtz { .. } | Bltz { .. } | Bgez { .. } => {
            // Capture the condition BEFORE the delay slot executes.
            let cond = f.new_vreg();
            let (op, a, b) = match instr {
                Beq { rs, rt, .. } => (BinOp::Eq, r(rs), r(rt)),
                Bne { rs, rt, .. } => (BinOp::Ne, r(rs), r(rt)),
                Blez { rs, .. } => (BinOp::LeS, r(rs), Operand::Const(0)),
                Bgtz { rs, .. } => (BinOp::GtS, r(rs), Operand::Const(0)),
                Bltz { rs, .. } => (BinOp::LtS, r(rs), Operand::Const(0)),
                _ => (BinOp::GeS, r(rs_of(instr)), Operand::Const(0)),
            };
            f.block_mut(bb).push_at(
                Op::Bin {
                    op,
                    dst: cond,
                    lhs: a,
                    rhs: b,
                },
                pc,
            );
            if !delay.is_nop() {
                lift_simple(f, bb, pc + 4, delay)?;
            }
            let target = instr.branch_target(pc).ok_or(LiftError::Malformed {
                pc,
                what: "branch without target",
            })?;
            let fall = pc + 8;
            let tb = block_at(f, block_of, target);
            let fb = block_at(f, block_of, fall);
            f.block_mut(bb).term = Terminator::Branch {
                cond: Operand::Reg(cond),
                t: tb,
                f: fb,
            };
            Ok(vec![target, fall])
        }
        J { .. } => {
            if !delay.is_nop() {
                lift_simple(f, bb, pc + 4, delay)?;
            }
            let target = instr.jump_target(pc).ok_or(LiftError::Malformed {
                pc,
                what: "jump without target",
            })?;
            let tb = block_at(f, block_of, target);
            f.block_mut(bb).term = Terminator::Jump(tb);
            Ok(vec![target])
        }
        Jal { .. } => {
            if !delay.is_nop() {
                lift_simple(f, bb, pc + 4, delay)?;
            }
            let target = instr.jump_target(pc).ok_or(LiftError::Malformed {
                pc,
                what: "jal without target",
            })?;
            // Calling convention (recovered): up to 4 register args, result
            // in $v0. Arity is refined after all functions are lifted.
            f.block_mut(bb).push_at(
                Op::Call {
                    target,
                    args: vec![
                        Operand::Reg(mreg(Reg::A0)),
                        Operand::Reg(mreg(Reg::A1)),
                        Operand::Reg(mreg(Reg::A2)),
                        Operand::Reg(mreg(Reg::A3)),
                    ],
                    dst: Some(mreg(Reg::V0)),
                },
                pc,
            );
            let fall = pc + 8;
            let fb = block_at(f, block_of, fall);
            f.block_mut(bb).term = Terminator::Jump(fb);
            Ok(vec![fall])
        }
        Jr { rs: Reg::Ra } => {
            if !delay.is_nop() {
                lift_simple(f, bb, pc + 4, delay)?;
            }
            f.block_mut(bb).term = Terminator::Return {
                value: Some(Operand::Reg(mreg(Reg::V0))),
            };
            Ok(vec![])
        }
        Jr { .. } | Jalr { .. } => {
            if lifter.options.recover_jump_tables {
                if let Some(result) = recover_jump_table(lifter, f, bb, pc, instr, block_of) {
                    return result;
                }
            }
            Err(LiftError::IndirectJump { pc })
        }
        Break { .. } => {
            f.block_mut(bb).term = Terminator::Return { value: None };
            Ok(vec![])
        }
        _ => Err(LiftError::Malformed {
            pc,
            what: "non-control instruction lifted as control",
        }),
    }
}

fn rs_of(instr: Instr) -> Reg {
    match instr {
        Instr::Bgez { rs, .. } => rs,
        _ => Reg::Zero,
    }
}

/// Pattern-matches the jump-table idiom ending at `jr rX`:
///
/// ```text
///   sll  rC, rIdx, 2
///   lui  rB, hi(table)      ; possibly followed by ori rB, rB, lo
///   addu rA, rB, rC
///   lw   rX, 0(rA)
///   jr   rX
/// ```
///
/// The table extent comes from the dominating bounds check (`sltiu` feeding
/// a `beq` in a predecessor); we conservatively read entries while they
/// point into the text section.
fn recover_jump_table(
    lifter: &Lifter<'_>,
    f: &mut Function,
    bb: BlockId,
    pc: u32,
    instr: Instr,
    block_of: &mut HashMap<u32, BlockId>,
) -> Option<Result<Vec<u32>, LiftError>> {
    let Instr::Jr { rs: jr_reg } = instr else {
        return None;
    };
    // Walk this block's lifted ops backwards to find the load feeding jr and
    // the address computation.
    let ops = &f.block(bb).ops;
    let mut load_addr: Option<Operand> = None;
    for inst in ops.iter().rev() {
        if let Op::Load {
            dst,
            addr,
            width: MemWidth::W,
            ..
        } = &inst.op
        {
            if *dst == mreg(jr_reg) {
                load_addr = Some(*addr);
                break;
            }
        }
    }
    let Operand::Reg(addr_reg) = load_addr? else {
        return None;
    };
    // addr = table_base + scaled_index: find the defining Add and resolve
    // the constant side.
    let mut table_base: Option<i64> = None;
    let mut index_src: Option<Operand> = None;
    let mut consts: HashMap<VReg, i64> = HashMap::new();
    for inst in &f.block(bb).ops {
        match &inst.op {
            Op::Const { dst, value } => {
                consts.insert(*dst, *value);
            }
            Op::Bin {
                op: BinOp::Or,
                dst,
                lhs: Operand::Reg(l),
                rhs: Operand::Const(c),
            } => {
                if let Some(base) = consts.get(l) {
                    consts.insert(*dst, base | c);
                }
            }
            _ => {}
        }
    }
    for inst in &f.block(bb).ops {
        if let Op::Bin {
            op: BinOp::Add,
            dst,
            lhs,
            rhs,
        } = &inst.op
        {
            if *dst == addr_reg {
                for (a, b) in [(lhs, rhs), (rhs, lhs)] {
                    if let Operand::Reg(r) = a {
                        if let Some(&c) = consts.get(r) {
                            table_base = Some(c);
                            index_src = Some(*b);
                        }
                    }
                }
            }
        }
    }
    let base = table_base? as u32;
    let scaled = index_src?.as_reg()?;
    // The switch index must be the *unscaled* case number, captured at the
    // idiom's `sll rC, rIdx, 2`. Two reasons a direct operand reference
    // fails: terminator operands take the register's value at block *end*
    // (SSA renames them there), and the code generator reuses rC for the
    // loaded target — so `rC` at the jr aliases the table entry, not the
    // index. A fresh copy inserted immediately before the shift pins the
    // index value at the right point; SSA renaming then gives the `Switch`
    // its documented `targets[index]` semantics, which the FSMD
    // co-simulation executes.
    let mut shl_at: Option<(usize, Operand)> = None;
    for (k, inst) in f.block(bb).ops.iter().enumerate() {
        if let Op::Bin {
            op: BinOp::Shl,
            dst,
            lhs,
            rhs: Operand::Const(2),
        } = &inst.op
        {
            if *dst == scaled {
                shl_at = Some((k, *lhs));
            }
        }
    }
    let (shl_pos, unscaled) = shl_at?;
    let index_tmp = f.new_vreg();
    f.block_mut(bb).ops.insert(
        shl_pos,
        binpart_cdfg::ir::Inst::new(Op::Copy {
            dst: index_tmp,
            src: unscaled,
        }),
    );
    let index = Operand::Reg(index_tmp);
    // Read table entries while they land on text-section instruction
    // boundaries within this function's vicinity.
    let data_off = base.wrapping_sub(lifter.binary.data_base) as usize;
    let mut targets_pc = Vec::new();
    let mut k = 0usize;
    while k < 1024 {
        let o = data_off + 4 * k;
        if o + 4 > lifter.binary.data.len() {
            break;
        }
        let w = u32::from_le_bytes([
            lifter.binary.data[o],
            lifter.binary.data[o + 1],
            lifter.binary.data[o + 2],
            lifter.binary.data[o + 3],
        ]);
        if !w.is_multiple_of(4) || w < lifter.binary.text_base || w >= lifter.binary.text_end() {
            break;
        }
        targets_pc.push(w);
        k += 1;
    }
    if targets_pc.is_empty() {
        return None;
    }
    let mut blocks = Vec::new();
    for &t in &targets_pc {
        blocks.push(block_at(f, block_of, t));
    }
    // The bounds check already guards this block; the default edge is never
    // taken, so reuse the first target (documented approximation).
    let default = blocks[0];
    f.block_mut(bb).term = Terminator::Switch {
        index,
        targets: blocks,
        default,
    };
    let _ = pc;
    Some(Ok(targets_pc))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use binpart_mips::{Asm, BinaryBuilder};

    fn lift_one(build: impl FnOnce(&mut Asm), options: DecompileOptions) -> Function {
        let mut a = Asm::new();
        build(&mut a);
        let binary = BinaryBuilder::new().text(a.finish().unwrap()).build();
        let prog = lift_program(&binary, options).unwrap();
        prog.functions.into_iter().next().unwrap()
    }

    #[test]
    fn lifts_straight_line_and_return() {
        let f = lift_one(
            |a| {
                a.li(Reg::V0, 7);
                a.jr(Reg::Ra);
                a.nop();
            },
            DecompileOptions::default(),
        );
        assert_eq!(f.blocks.len(), 1);
        assert!(matches!(f.block(f.entry).term, Terminator::Return { .. }));
    }

    #[test]
    fn delay_slot_semantics_preserved_for_branch_condition() {
        // bne $t0, $zero, target ; delay: addiu $t0, $t0, 1
        // The branch must test the OLD $t0; the lifted block must compute
        // the condition before the delay-slot add.
        let f = lift_one(
            |a| {
                let target = a.new_label();
                a.bne(Reg::T0, Reg::Zero, target);
                a.addiu(Reg::T0, Reg::T0, 1); // delay slot writes cond reg
                a.bind(target);
                a.jr(Reg::Ra);
                a.nop();
            },
            DecompileOptions::default(),
        );
        let ops = &f.block(f.entry).ops;
        // first lifted op is the condition compare, then the add
        assert!(matches!(ops[0].op, Op::Bin { op: BinOp::Ne, .. }), "{f}");
        assert!(matches!(ops[1].op, Op::Bin { op: BinOp::Add, .. }), "{f}");
    }

    #[test]
    fn discovers_called_functions() {
        let mut a = Asm::new();
        let callee = a.new_label();
        a.addiu(Reg::Sp, Reg::Sp, -8);
        a.sw(Reg::Ra, 4, Reg::Sp);
        a.jal(callee);
        a.nop();
        a.lw(Reg::Ra, 4, Reg::Sp);
        a.addiu(Reg::Sp, Reg::Sp, 8);
        a.jr(Reg::Ra);
        a.nop();
        a.bind(callee);
        a.li(Reg::V0, 3);
        a.jr(Reg::Ra);
        a.nop();
        let binary = BinaryBuilder::new().text(a.finish().unwrap()).build();
        let prog = lift_program(&binary, DecompileOptions::default()).unwrap();
        assert_eq!(prog.functions.len(), 2);
        assert!(prog.functions[1].name.starts_with("f_"));
    }

    #[test]
    fn indirect_jump_fails_without_recovery() {
        let mut a = Asm::new();
        a.jr(Reg::T0);
        a.nop();
        let binary = BinaryBuilder::new().text(a.finish().unwrap()).build();
        let err = lift_program(&binary, DecompileOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            DecompileError::Lift(LiftError::IndirectJump { .. })
        ));
        assert!(err.to_string().contains("indirect jump"));
    }

    #[test]
    fn loop_shape_recovered() {
        let f = lift_one(
            |a| {
                let top = a.new_label();
                a.li(Reg::T0, 10);
                a.li(Reg::V0, 0);
                a.bind(top);
                a.addu(Reg::V0, Reg::V0, Reg::T0);
                a.addiu(Reg::T0, Reg::T0, -1);
                a.bgtz(Reg::T0, top);
                a.nop();
                a.jr(Reg::Ra);
                a.nop();
            },
            DecompileOptions::default(),
        );
        // entry block + loop block + exit block
        assert!(f.blocks.len() >= 3, "{f}");
        let has_branch = f
            .block_ids()
            .any(|b| matches!(f.block(b).term, Terminator::Branch { .. }));
        assert!(has_branch);
    }

    #[test]
    fn mult_lifts_to_mul_and_mflo_reads_it() {
        let f = lift_one(
            |a| {
                a.li(Reg::T0, 6);
                a.li(Reg::T1, 7);
                a.mult(Reg::T0, Reg::T1);
                a.mflo(Reg::V0);
                a.jr(Reg::Ra);
                a.nop();
            },
            DecompileOptions::default(),
        );
        let ops = &f.block(f.entry).ops;
        assert!(ops
            .iter()
            .any(|i| matches!(i.op, Op::Bin { op: BinOp::Mul, .. })));
    }
}

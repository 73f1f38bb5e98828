//! The MIPS-I subset instruction enumeration and its textual form.

use crate::Reg;
use std::fmt;

/// A decoded MIPS-I instruction.
///
/// The subset covers everything `binpart-minicc` emits and everything the
/// decompiler understands: integer ALU, shifts, multiply/divide with HI/LO,
/// loads/stores of byte/half/word, branches, jumps, and `break`.
///
/// Branch `offset` fields are in **instructions** (words) relative to the
/// instruction *after* the branch, exactly as encoded in the machine word.
/// Jump `target` fields hold the 26-bit instruction index field.
///
/// # Example
///
/// ```
/// use binpart_mips::{Instr, Reg, encode, decode};
/// let i = Instr::Addiu { rt: Reg::T0, rs: Reg::Sp, imm: -8 };
/// assert_eq!(decode(encode(i)).unwrap(), i);
/// assert_eq!(i.to_string(), "addiu $t0, $sp, -8");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    // ---- R-type ALU ----
    /// `add rd, rs, rt` (trapping add; treated as `addu` by the simulator).
    Add { rd: Reg, rs: Reg, rt: Reg },
    /// `addu rd, rs, rt`
    Addu { rd: Reg, rs: Reg, rt: Reg },
    /// `sub rd, rs, rt` (trapping; treated as `subu`).
    Sub { rd: Reg, rs: Reg, rt: Reg },
    /// `subu rd, rs, rt`
    Subu { rd: Reg, rs: Reg, rt: Reg },
    /// `and rd, rs, rt`
    And { rd: Reg, rs: Reg, rt: Reg },
    /// `or rd, rs, rt`
    Or { rd: Reg, rs: Reg, rt: Reg },
    /// `xor rd, rs, rt`
    Xor { rd: Reg, rs: Reg, rt: Reg },
    /// `nor rd, rs, rt`
    Nor { rd: Reg, rs: Reg, rt: Reg },
    /// `slt rd, rs, rt` — set on signed less-than.
    Slt { rd: Reg, rs: Reg, rt: Reg },
    /// `sltu rd, rs, rt` — set on unsigned less-than.
    Sltu { rd: Reg, rs: Reg, rt: Reg },

    // ---- shifts ----
    /// `sll rd, rt, shamt` (`sll $zero,$zero,0` is the canonical `nop`).
    Sll { rd: Reg, rt: Reg, shamt: u8 },
    /// `srl rd, rt, shamt`
    Srl { rd: Reg, rt: Reg, shamt: u8 },
    /// `sra rd, rt, shamt`
    Sra { rd: Reg, rt: Reg, shamt: u8 },
    /// `sllv rd, rt, rs`
    Sllv { rd: Reg, rt: Reg, rs: Reg },
    /// `srlv rd, rt, rs`
    Srlv { rd: Reg, rt: Reg, rs: Reg },
    /// `srav rd, rt, rs`
    Srav { rd: Reg, rt: Reg, rs: Reg },

    // ---- multiply / divide ----
    /// `mult rs, rt` — signed 32x32→64 into HI/LO.
    Mult { rs: Reg, rt: Reg },
    /// `multu rs, rt`
    Multu { rs: Reg, rt: Reg },
    /// `div rs, rt` — signed divide, quotient LO, remainder HI.
    Div { rs: Reg, rt: Reg },
    /// `divu rs, rt`
    Divu { rs: Reg, rt: Reg },
    /// `mfhi rd`
    Mfhi { rd: Reg },
    /// `mflo rd`
    Mflo { rd: Reg },
    /// `mthi rs`
    Mthi { rs: Reg },
    /// `mtlo rs`
    Mtlo { rs: Reg },

    // ---- I-type ALU ----
    /// `addi rt, rs, imm` (trapping; treated as `addiu`).
    Addi { rt: Reg, rs: Reg, imm: i16 },
    /// `addiu rt, rs, imm`
    Addiu { rt: Reg, rs: Reg, imm: i16 },
    /// `slti rt, rs, imm`
    Slti { rt: Reg, rs: Reg, imm: i16 },
    /// `sltiu rt, rs, imm` — immediate sign-extended then compared unsigned.
    Sltiu { rt: Reg, rs: Reg, imm: i16 },
    /// `andi rt, rs, imm` — immediate zero-extended.
    Andi { rt: Reg, rs: Reg, imm: u16 },
    /// `ori rt, rs, imm`
    Ori { rt: Reg, rs: Reg, imm: u16 },
    /// `xori rt, rs, imm`
    Xori { rt: Reg, rs: Reg, imm: u16 },
    /// `lui rt, imm`
    Lui { rt: Reg, imm: u16 },

    // ---- loads / stores ----
    /// `lb rt, offset(base)`
    Lb { rt: Reg, base: Reg, offset: i16 },
    /// `lbu rt, offset(base)`
    Lbu { rt: Reg, base: Reg, offset: i16 },
    /// `lh rt, offset(base)`
    Lh { rt: Reg, base: Reg, offset: i16 },
    /// `lhu rt, offset(base)`
    Lhu { rt: Reg, base: Reg, offset: i16 },
    /// `lw rt, offset(base)`
    Lw { rt: Reg, base: Reg, offset: i16 },
    /// `sb rt, offset(base)`
    Sb { rt: Reg, base: Reg, offset: i16 },
    /// `sh rt, offset(base)`
    Sh { rt: Reg, base: Reg, offset: i16 },
    /// `sw rt, offset(base)`
    Sw { rt: Reg, base: Reg, offset: i16 },

    // ---- branches (offset in words from the delay slot) ----
    /// `beq rs, rt, offset`
    Beq { rs: Reg, rt: Reg, offset: i16 },
    /// `bne rs, rt, offset`
    Bne { rs: Reg, rt: Reg, offset: i16 },
    /// `blez rs, offset`
    Blez { rs: Reg, offset: i16 },
    /// `bgtz rs, offset`
    Bgtz { rs: Reg, offset: i16 },
    /// `bltz rs, offset`
    Bltz { rs: Reg, offset: i16 },
    /// `bgez rs, offset`
    Bgez { rs: Reg, offset: i16 },

    // ---- jumps ----
    /// `j target` — 26-bit instruction-index field.
    J { target: u32 },
    /// `jal target`
    Jal { target: u32 },
    /// `jr rs`
    Jr { rs: Reg },
    /// `jalr rd, rs`
    Jalr { rd: Reg, rs: Reg },

    // ---- system ----
    /// `break code` — halts the simulator with `code`.
    Break { code: u32 },
}

impl Instr {
    /// The canonical no-op, `sll $zero, $zero, 0`.
    pub const NOP: Instr = Instr::Sll {
        rd: Reg::Zero,
        rt: Reg::Zero,
        shamt: 0,
    };

    /// Returns `true` if this is the canonical `nop` encoding.
    pub fn is_nop(self) -> bool {
        self == Instr::NOP
    }

    /// Returns `true` for conditional branches (not jumps).
    pub fn is_branch(self) -> bool {
        matches!(
            self,
            Instr::Beq { .. }
                | Instr::Bne { .. }
                | Instr::Blez { .. }
                | Instr::Bgtz { .. }
                | Instr::Bltz { .. }
                | Instr::Bgez { .. }
        )
    }

    /// Returns `true` for any control transfer (branch, jump, call, return).
    pub fn is_control(self) -> bool {
        self.is_branch()
            || matches!(
                self,
                Instr::J { .. }
                    | Instr::Jal { .. }
                    | Instr::Jr { .. }
                    | Instr::Jalr { .. }
                    | Instr::Break { .. }
            )
    }

    /// For a branch at address `pc`, the absolute target address.
    ///
    /// Returns `None` for non-branch instructions.
    pub fn branch_target(self, pc: u32) -> Option<u32> {
        let off = match self {
            Instr::Beq { offset, .. }
            | Instr::Bne { offset, .. }
            | Instr::Blez { offset, .. }
            | Instr::Bgtz { offset, .. }
            | Instr::Bltz { offset, .. }
            | Instr::Bgez { offset, .. } => offset,
            _ => return None,
        };
        Some(pc.wrapping_add(4).wrapping_add((off as i32 as u32) << 2))
    }

    /// For `j`/`jal` at address `pc`, the absolute target address.
    pub fn jump_target(self, pc: u32) -> Option<u32> {
        match self {
            Instr::J { target } | Instr::Jal { target } => {
                Some((pc.wrapping_add(4) & 0xf000_0000) | (target << 2))
            }
            _ => None,
        }
    }

    /// The register written by this instruction, if any.
    pub fn def(self) -> Option<Reg> {
        use Instr::*;
        let r = match self {
            Add { rd, .. }
            | Addu { rd, .. }
            | Sub { rd, .. }
            | Subu { rd, .. }
            | And { rd, .. }
            | Or { rd, .. }
            | Xor { rd, .. }
            | Nor { rd, .. }
            | Slt { rd, .. }
            | Sltu { rd, .. }
            | Sll { rd, .. }
            | Srl { rd, .. }
            | Sra { rd, .. }
            | Sllv { rd, .. }
            | Srlv { rd, .. }
            | Srav { rd, .. }
            | Mfhi { rd }
            | Mflo { rd }
            | Jalr { rd, .. } => rd,
            Addi { rt, .. }
            | Addiu { rt, .. }
            | Slti { rt, .. }
            | Sltiu { rt, .. }
            | Andi { rt, .. }
            | Ori { rt, .. }
            | Xori { rt, .. }
            | Lui { rt, .. }
            | Lb { rt, .. }
            | Lbu { rt, .. }
            | Lh { rt, .. }
            | Lhu { rt, .. }
            | Lw { rt, .. } => rt,
            Jal { .. } => Reg::Ra,
            _ => return None,
        };
        if r == Reg::Zero {
            None
        } else {
            Some(r)
        }
    }

    /// The registers read by this instruction (up to two).
    pub fn uses(self) -> Vec<Reg> {
        use Instr::*;
        let v: Vec<Reg> = match self {
            Add { rs, rt, .. }
            | Addu { rs, rt, .. }
            | Sub { rs, rt, .. }
            | Subu { rs, rt, .. }
            | And { rs, rt, .. }
            | Or { rs, rt, .. }
            | Xor { rs, rt, .. }
            | Nor { rs, rt, .. }
            | Slt { rs, rt, .. }
            | Sltu { rs, rt, .. }
            | Mult { rs, rt }
            | Multu { rs, rt }
            | Div { rs, rt }
            | Divu { rs, rt }
            | Beq { rs, rt, .. }
            | Bne { rs, rt, .. } => vec![rs, rt],
            Sllv { rt, rs, .. } | Srlv { rt, rs, .. } | Srav { rt, rs, .. } => vec![rt, rs],
            Sll { rt, .. } | Srl { rt, .. } | Sra { rt, .. } => vec![rt],
            Addi { rs, .. }
            | Addiu { rs, .. }
            | Slti { rs, .. }
            | Sltiu { rs, .. }
            | Andi { rs, .. }
            | Ori { rs, .. }
            | Xori { rs, .. }
            | Blez { rs, .. }
            | Bgtz { rs, .. }
            | Bltz { rs, .. }
            | Bgez { rs, .. }
            | Jr { rs }
            | Jalr { rs, .. }
            | Mthi { rs }
            | Mtlo { rs } => vec![rs],
            Lb { base, .. }
            | Lbu { base, .. }
            | Lh { base, .. }
            | Lhu { base, .. }
            | Lw { base, .. } => vec![base],
            Sb { rt, base, .. } | Sh { rt, base, .. } | Sw { rt, base, .. } => vec![rt, base],
            Lui { .. } | J { .. } | Jal { .. } | Mfhi { .. } | Mflo { .. } | Break { .. } => {
                vec![]
            }
        };
        v.into_iter().filter(|&r| r != Reg::Zero).collect()
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        match *self {
            i if i.is_nop() => write!(f, "nop"),
            Add { rd, rs, rt } => write!(f, "add {rd}, {rs}, {rt}"),
            Addu { rd, rs, rt } => write!(f, "addu {rd}, {rs}, {rt}"),
            Sub { rd, rs, rt } => write!(f, "sub {rd}, {rs}, {rt}"),
            Subu { rd, rs, rt } => write!(f, "subu {rd}, {rs}, {rt}"),
            And { rd, rs, rt } => write!(f, "and {rd}, {rs}, {rt}"),
            Or { rd, rs, rt } => write!(f, "or {rd}, {rs}, {rt}"),
            Xor { rd, rs, rt } => write!(f, "xor {rd}, {rs}, {rt}"),
            Nor { rd, rs, rt } => write!(f, "nor {rd}, {rs}, {rt}"),
            Slt { rd, rs, rt } => write!(f, "slt {rd}, {rs}, {rt}"),
            Sltu { rd, rs, rt } => write!(f, "sltu {rd}, {rs}, {rt}"),
            Sll { rd, rt, shamt } => write!(f, "sll {rd}, {rt}, {shamt}"),
            Srl { rd, rt, shamt } => write!(f, "srl {rd}, {rt}, {shamt}"),
            Sra { rd, rt, shamt } => write!(f, "sra {rd}, {rt}, {shamt}"),
            Sllv { rd, rt, rs } => write!(f, "sllv {rd}, {rt}, {rs}"),
            Srlv { rd, rt, rs } => write!(f, "srlv {rd}, {rt}, {rs}"),
            Srav { rd, rt, rs } => write!(f, "srav {rd}, {rt}, {rs}"),
            Mult { rs, rt } => write!(f, "mult {rs}, {rt}"),
            Multu { rs, rt } => write!(f, "multu {rs}, {rt}"),
            Div { rs, rt } => write!(f, "div {rs}, {rt}"),
            Divu { rs, rt } => write!(f, "divu {rs}, {rt}"),
            Mfhi { rd } => write!(f, "mfhi {rd}"),
            Mflo { rd } => write!(f, "mflo {rd}"),
            Mthi { rs } => write!(f, "mthi {rs}"),
            Mtlo { rs } => write!(f, "mtlo {rs}"),
            Addi { rt, rs, imm } => write!(f, "addi {rt}, {rs}, {imm}"),
            Addiu { rt, rs, imm } => write!(f, "addiu {rt}, {rs}, {imm}"),
            Slti { rt, rs, imm } => write!(f, "slti {rt}, {rs}, {imm}"),
            Sltiu { rt, rs, imm } => write!(f, "sltiu {rt}, {rs}, {imm}"),
            Andi { rt, rs, imm } => write!(f, "andi {rt}, {rs}, {imm:#x}"),
            Ori { rt, rs, imm } => write!(f, "ori {rt}, {rs}, {imm:#x}"),
            Xori { rt, rs, imm } => write!(f, "xori {rt}, {rs}, {imm:#x}"),
            Lui { rt, imm } => write!(f, "lui {rt}, {imm:#x}"),
            Lb { rt, base, offset } => write!(f, "lb {rt}, {offset}({base})"),
            Lbu { rt, base, offset } => write!(f, "lbu {rt}, {offset}({base})"),
            Lh { rt, base, offset } => write!(f, "lh {rt}, {offset}({base})"),
            Lhu { rt, base, offset } => write!(f, "lhu {rt}, {offset}({base})"),
            Lw { rt, base, offset } => write!(f, "lw {rt}, {offset}({base})"),
            Sb { rt, base, offset } => write!(f, "sb {rt}, {offset}({base})"),
            Sh { rt, base, offset } => write!(f, "sh {rt}, {offset}({base})"),
            Sw { rt, base, offset } => write!(f, "sw {rt}, {offset}({base})"),
            Beq { rs, rt, offset } => write!(f, "beq {rs}, {rt}, {offset}"),
            Bne { rs, rt, offset } => write!(f, "bne {rs}, {rt}, {offset}"),
            Blez { rs, offset } => write!(f, "blez {rs}, {offset}"),
            Bgtz { rs, offset } => write!(f, "bgtz {rs}, {offset}"),
            Bltz { rs, offset } => write!(f, "bltz {rs}, {offset}"),
            Bgez { rs, offset } => write!(f, "bgez {rs}, {offset}"),
            J { target } => write!(f, "j {:#x}", target << 2),
            Jal { target } => write!(f, "jal {:#x}", target << 2),
            Jr { rs } => write!(f, "jr {rs}"),
            Jalr { rd, rs } => write!(f, "jalr {rd}, {rs}"),
            Break { code } => write!(f, "break {code}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_is_sll_zero() {
        assert!(Instr::NOP.is_nop());
        assert!(!Instr::Sll {
            rd: Reg::T0,
            rt: Reg::Zero,
            shamt: 0
        }
        .is_nop());
        assert_eq!(Instr::NOP.to_string(), "nop");
    }

    #[test]
    fn branch_target_arithmetic() {
        let b = Instr::Beq {
            rs: Reg::T0,
            rt: Reg::Zero,
            offset: -2,
        };
        // pc+4 + (-2<<2) = pc - 4
        assert_eq!(b.branch_target(0x0040_0010), Some(0x0040_000c));
        let fwd = Instr::Bne {
            rs: Reg::T0,
            rt: Reg::T1,
            offset: 3,
        };
        assert_eq!(fwd.branch_target(0x0040_0000), Some(0x0040_0010));
    }

    #[test]
    fn jump_target_uses_region_bits() {
        let j = Instr::J {
            target: 0x0040_0040 >> 2,
        };
        assert_eq!(j.jump_target(0x0040_0000), Some(0x0040_0040));
    }

    #[test]
    fn defs_and_uses_ignore_zero() {
        let i = Instr::Addu {
            rd: Reg::Zero,
            rs: Reg::T0,
            rt: Reg::Zero,
        };
        assert_eq!(i.def(), None);
        assert_eq!(i.uses(), vec![Reg::T0]);
        let jal = Instr::Jal { target: 0 };
        assert_eq!(jal.def(), Some(Reg::Ra));
        let sw = Instr::Sw {
            rt: Reg::T1,
            base: Reg::Sp,
            offset: 4,
        };
        assert_eq!(sw.def(), None);
        assert_eq!(sw.uses(), vec![Reg::T1, Reg::Sp]);
    }

    #[test]
    fn control_classification() {
        assert!(Instr::J { target: 0 }.is_control());
        assert!(Instr::Jr { rs: Reg::Ra }.is_control());
        assert!(Instr::Beq {
            rs: Reg::T0,
            rt: Reg::T1,
            offset: 0
        }
        .is_branch());
        assert!(!Instr::NOP.is_control());
        assert!(!Instr::Lw {
            rt: Reg::T0,
            base: Reg::Sp,
            offset: 0
        }
        .is_control());
    }
}

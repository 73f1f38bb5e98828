//! Virtex-II–class technology library: per-operator delay, LUT/FF cost, and
//! the gate-equivalent conversion used for reporting.
//!
//! The paper reports kernel area as "equivalent logic gates" out of Xilinx
//! ISE; we model the same quantity with per-operator costs calibrated to
//! era-typical numbers (carry-chain adders, MULT18X18 blocks, block RAM).

use binpart_cdfg::ir::{BinOp, Op, UnOp};
use std::sync::Arc;

/// Functional-unit class an operation binds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// Adders/subtractors/comparators (carry chains).
    AddSub,
    /// Bitwise logic.
    Logic,
    /// Constant shifts (wiring only).
    ShiftConst,
    /// Variable shifts (barrel shifter).
    ShiftVar,
    /// Hard multiplier blocks.
    Mult,
    /// Iterative divider.
    Div,
    /// Memory port (block RAM or external).
    Mem,
    /// Zero-cost (copies, constants, phis resolved by wiring).
    Free,
}

impl FuClass {
    /// Every class, in declaration order: `FuClass::ALL[c as usize] == c`,
    /// so `class as usize` indexes per-class tables.
    pub const ALL: [FuClass; 8] = [
        FuClass::AddSub,
        FuClass::Logic,
        FuClass::ShiftConst,
        FuClass::ShiftVar,
        FuClass::Mult,
        FuClass::Div,
        FuClass::Mem,
        FuClass::Free,
    ];
}

/// Delay/area library.
#[derive(Debug, Clone, PartialEq)]
pub struct TechLibrary {
    /// Name for reports (shared, so cloning a library allocates nothing).
    pub name: Arc<str>,
    /// Routed LUT delay, ns (logic + local routing).
    pub lut_delay_ns: f64,
    /// Flip-flop setup + clock-to-q, ns.
    pub ff_overhead_ns: f64,
    /// Gate equivalents per LUT.
    pub gates_per_lut: f64,
    /// Gate equivalents per flip-flop.
    pub gates_per_ff: f64,
    /// Gate equivalents per MULT18X18 block.
    pub gates_per_mult: f64,
    /// Gate equivalents per block-RAM block.
    pub gates_per_bram: f64,
    /// Block-RAM block capacity in bits.
    pub bram_block_bits: u64,
    /// Latency (cycles) of an iterative divide.
    pub div_cycles: u32,
    /// Latency (cycles) of an external (non-BRAM) memory access.
    pub ext_mem_cycles: u32,
}

impl TechLibrary {
    /// Virtex-II defaults.
    pub fn virtex2() -> TechLibrary {
        TechLibrary {
            name: "virtex2".into(),
            lut_delay_ns: 1.1,
            ff_overhead_ns: 1.2,
            gates_per_lut: 12.0,
            gates_per_ff: 8.0,
            gates_per_mult: 2500.0,
            gates_per_bram: 4000.0,
            bram_block_bits: 18 * 1024,
            div_cycles: 12,
            ext_mem_cycles: 4,
        }
    }

    /// Combinational delay of one op at `bits` width, in ns.
    pub fn delay_ns(&self, class: FuClass, bits: u8) -> f64 {
        let b = bits as f64;
        match class {
            FuClass::AddSub => 1.6 + 0.075 * b,
            FuClass::Logic => self.lut_delay_ns,
            FuClass::ShiftConst => 0.15,
            FuClass::ShiftVar => 2.4 + 0.02 * b,
            FuClass::Mult => {
                if bits <= 18 {
                    6.0
                } else {
                    9.5
                }
            }
            // sequential units: delay is per-cycle path, kept short
            FuClass::Div => 3.0,
            FuClass::Mem => 3.2,
            FuClass::Free => 0.0,
        }
    }

    /// LUT cost of one functional unit at `bits` width.
    pub fn luts(&self, class: FuClass, bits: u8) -> f64 {
        let b = bits as f64;
        match class {
            FuClass::AddSub => b,
            FuClass::Logic => b / 2.0,
            FuClass::ShiftConst => 0.0,
            FuClass::ShiftVar => b * 2.5,
            FuClass::Mult => 4.0, // glue around the hard block
            FuClass::Div => b * 4.0,
            FuClass::Mem => 6.0, // address/control glue
            FuClass::Free => 0.0,
        }
    }

    /// Latency in cycles of a unit (1 = single cycle / chainable).
    pub fn cycles(&self, class: FuClass, mem_in_bram: bool) -> u32 {
        match class {
            FuClass::Div => self.div_cycles,
            FuClass::Mem if !mem_in_bram => self.ext_mem_cycles,
            _ => 1,
        }
    }

    /// Block-RAM blocks needed for `bytes` of kernel-local data.
    pub fn bram_blocks(&self, bytes: u64) -> u64 {
        (bytes * 8).div_ceil(self.bram_block_bits)
    }
}

/// Classifies an op for binding.
pub fn classify(op: &Op) -> FuClass {
    match op {
        Op::Bin { op, rhs, .. } => match op {
            BinOp::Add
            | BinOp::Sub
            | BinOp::Eq
            | BinOp::Ne
            | BinOp::LtS
            | BinOp::LtU
            | BinOp::LeS
            | BinOp::GtS
            | BinOp::GeS => FuClass::AddSub,
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Nor => FuClass::Logic,
            BinOp::Shl | BinOp::ShrL | BinOp::ShrA => {
                if rhs.as_const().is_some() {
                    FuClass::ShiftConst
                } else {
                    FuClass::ShiftVar
                }
            }
            BinOp::Mul | BinOp::MulHiS | BinOp::MulHiU => FuClass::Mult,
            BinOp::DivS | BinOp::DivU | BinOp::RemS | BinOp::RemU => FuClass::Div,
        },
        Op::Un { op, .. } => match op {
            UnOp::Neg => FuClass::AddSub,
            UnOp::Not => FuClass::Logic,
            // size casts are wiring
            _ => FuClass::Free,
        },
        Op::Load { .. } | Op::Store { .. } => FuClass::Mem,
        Op::Const { .. } | Op::Copy { .. } | Op::Phi { .. } => FuClass::Free,
        Op::Call { .. } => FuClass::Free, // calls are rejected before synthesis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use binpart_cdfg::ir::{Operand, VReg};

    #[test]
    fn classification() {
        let add = Op::Bin {
            op: BinOp::Add,
            dst: VReg(0),
            lhs: Operand::Const(1),
            rhs: Operand::Const(2),
        };
        assert_eq!(classify(&add), FuClass::AddSub);
        let shc = Op::Bin {
            op: BinOp::Shl,
            dst: VReg(0),
            lhs: Operand::Reg(VReg(1)),
            rhs: Operand::Const(2),
        };
        assert_eq!(classify(&shc), FuClass::ShiftConst);
        let shv = Op::Bin {
            op: BinOp::Shl,
            dst: VReg(0),
            lhs: Operand::Reg(VReg(1)),
            rhs: Operand::Reg(VReg(2)),
        };
        assert_eq!(classify(&shv), FuClass::ShiftVar);
    }

    #[test]
    fn narrow_ops_are_cheaper_and_faster() {
        let lib = TechLibrary::virtex2();
        assert!(lib.delay_ns(FuClass::AddSub, 8) < lib.delay_ns(FuClass::AddSub, 32));
        assert!(lib.luts(FuClass::AddSub, 8) < lib.luts(FuClass::AddSub, 32));
        assert!(lib.delay_ns(FuClass::Mult, 16) < lib.delay_ns(FuClass::Mult, 32));
    }

    #[test]
    fn bram_blocks_round_up() {
        let lib = TechLibrary::virtex2();
        assert_eq!(lib.bram_blocks(0), 0);
        assert_eq!(lib.bram_blocks(1), 1);
        assert_eq!(lib.bram_blocks(18 * 1024 / 8), 1);
        assert_eq!(lib.bram_blocks(18 * 1024 / 8 + 1), 2);
    }
}

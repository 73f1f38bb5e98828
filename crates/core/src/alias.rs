//! Binary-level alias (memory-region) analysis.
//!
//! Partitioning step 2 needs to know which memory each loop touches so that
//! arrays can be moved into on-FPGA block RAM. Working from the binary,
//! regions are identified by the constant base addresses that reach each
//! load/store (global arrays materialize as `lui`/`ori` constants that
//! constant propagation has already folded); stack accesses and accesses
//! through unresolved pointers are classified separately.

use binpart_cdfg::dataflow::DefSites;
use binpart_cdfg::ir::{BinOp, BlockId, Function, Op, Operand, VReg};
use std::collections::BTreeSet;

/// Classification of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemRegion {
    /// A global object rooted at this base address.
    Global(u32),
    /// The function's stack frame.
    Stack,
    /// Unresolvable (pointer parameter, phi-merged base).
    Unknown,
}

/// Memory summary of a set of blocks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionSummary {
    /// Distinct global bases accessed.
    pub globals: BTreeSet<u32>,
    /// Whether any stack access remains.
    pub touches_stack: bool,
    /// Whether any access could not be resolved.
    pub has_unknown: bool,
    /// Total loads+stores (static count).
    pub access_count: usize,
}

impl RegionSummary {
    /// `true` when every access resolves to a global region (the kernel's
    /// data can be migrated to block RAM).
    pub fn fully_resolved(&self) -> bool {
        !self.has_unknown && !self.touches_stack
    }
}

/// Resolves the region of address operand `addr`.
fn resolve(
    f: &Function,
    sites: &DefSites,
    addr: &Operand,
    data_base: u32,
    data_end: u32,
    depth: u32,
) -> MemRegion {
    if depth > 16 {
        return MemRegion::Unknown;
    }
    match addr {
        Operand::Const(c) => {
            let c = *c as u32;
            if c >= data_base && c < data_end {
                MemRegion::Global(c)
            } else {
                MemRegion::Unknown
            }
        }
        Operand::Reg(r) => resolve_reg(f, sites, *r, data_base, data_end, depth),
    }
}

fn resolve_reg(
    f: &Function,
    sites: &DefSites,
    r: VReg,
    data_base: u32,
    data_end: u32,
    depth: u32,
) -> MemRegion {
    // Stack pointer and derivatives: the lifter mirrors $sp as VReg(29),
    // but after SSA the entry value is a live-in; we detect stack bases via
    // values far above the data section (conventional stack top).
    let Some(op) = sites.def_of(f, r) else {
        // live-in: parameter or stack pointer — unknown pointer
        return MemRegion::Unknown;
    };
    match op {
        Op::Const { value, .. } => {
            let c = *value as u32;
            if c >= data_base && c < data_end {
                MemRegion::Global(c)
            } else if c >= 0x7000_0000 {
                MemRegion::Stack
            } else {
                MemRegion::Unknown
            }
        }
        Op::Copy { src, .. } => resolve(f, sites, src, data_base, data_end, depth + 1),
        Op::Bin {
            op: BinOp::Add | BinOp::Sub | BinOp::Or,
            lhs,
            rhs,
            ..
        } => {
            // A pointer plus an index: the constant-side base wins.
            let a = resolve(f, sites, lhs, data_base, data_end, depth + 1);
            let b = resolve(f, sites, rhs, data_base, data_end, depth + 1);
            match (a, b) {
                (MemRegion::Global(x), _) => MemRegion::Global(x),
                (_, MemRegion::Global(x)) => MemRegion::Global(x),
                (MemRegion::Stack, _) | (_, MemRegion::Stack) => MemRegion::Stack,
                _ => MemRegion::Unknown,
            }
        }
        Op::Phi { args, .. } => {
            // All incoming the same base => that base (common for pointers
            // advanced in loops).
            let mut out: Option<MemRegion> = None;
            for (_, a) in args {
                if a.as_reg() == Some(r) {
                    continue;
                }
                let m = resolve(f, sites, a, data_base, data_end, depth + 1);
                match out {
                    None => out = Some(m),
                    Some(prev) if prev == m => {}
                    _ => return MemRegion::Unknown,
                }
            }
            out.unwrap_or(MemRegion::Unknown)
        }
        _ => MemRegion::Unknown,
    }
}

/// Summarizes the memory behaviour of `blocks` in `f`. `sites` is `f`'s
/// [`DefSites`] table, built once per function and shared by all its
/// regions.
pub fn summarize(
    f: &Function,
    sites: &DefSites,
    blocks: &[BlockId],
    data_base: u32,
    data_end: u32,
) -> RegionSummary {
    let mut s = RegionSummary::default();
    for &b in blocks {
        for inst in &f.block(b).ops {
            let addr = match &inst.op {
                Op::Load { addr, .. } => addr,
                Op::Store { addr, .. } => addr,
                _ => continue,
            };
            s.access_count += 1;
            match resolve(f, sites, addr, data_base, data_end, 0) {
                MemRegion::Global(base) => {
                    s.globals.insert(base);
                }
                MemRegion::Stack => s.touches_stack = true,
                MemRegion::Unknown => s.has_unknown = true,
            }
        }
    }
    s
}

/// Estimates the byte extent of each accessed global by the gap to the next
/// accessed base (or to the end of the data section).
pub fn extent_of(bases: &BTreeSet<u32>, base: u32, data_end: u32) -> u32 {
    let next = bases.range((base + 1)..).next().copied().unwrap_or(data_end);
    next.saturating_sub(base).min(64 * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use binpart_cdfg::ir::{MemWidth, Terminator};

    #[test]
    fn constant_addresses_resolve_to_globals() {
        let mut f = Function::new("g");
        let x = f.new_vreg();
        f.block_mut(f.entry).push(Op::Load {
            dst: x,
            addr: Operand::Const(0x1001_0040),
            width: MemWidth::W,
            signed: false,
        });
        f.block_mut(f.entry).term = Terminator::Return { value: None };
        f.is_ssa = true;
        let s = summarize(
            &f,
            &DefSites::compute(&f),
            &[f.entry],
            0x1001_0000,
            0x1002_0000,
        );
        assert_eq!(s.globals.iter().copied().collect::<Vec<_>>(), vec![0x1001_0040]);
        assert!(s.fully_resolved());
    }

    #[test]
    fn indexed_accesses_keep_their_base() {
        // addr = const_base + (i << 2)
        let mut f = Function::new("idx");
        let i = f.new_vreg();
        let base = f.new_vreg();
        let scaled = f.new_vreg();
        let addr = f.new_vreg();
        let x = f.new_vreg();
        let e = f.entry;
        f.block_mut(e).push(Op::Load {
            dst: i,
            addr: Operand::Const(0x1001_0000),
            width: MemWidth::W,
            signed: false,
        });
        f.block_mut(e).push(Op::Const {
            dst: base,
            value: 0x1001_0100,
        });
        f.block_mut(e).push(Op::Bin {
            op: BinOp::Shl,
            dst: scaled,
            lhs: Operand::Reg(i),
            rhs: Operand::Const(2),
        });
        f.block_mut(e).push(Op::Bin {
            op: BinOp::Add,
            dst: addr,
            lhs: Operand::Reg(base),
            rhs: Operand::Reg(scaled),
        });
        f.block_mut(e).push(Op::Load {
            dst: x,
            addr: Operand::Reg(addr),
            width: MemWidth::W,
            signed: false,
        });
        f.block_mut(e).term = Terminator::Return { value: None };
        f.is_ssa = true;
        let s = summarize(&f, &DefSites::compute(&f), &[e], 0x1001_0000, 0x1002_0000);
        assert!(s.globals.contains(&0x1001_0100));
        assert_eq!(s.access_count, 2);
    }

    #[test]
    fn live_in_pointer_is_unknown() {
        let mut f = Function::new("p");
        let p = f.new_vreg(); // never defined: live-in parameter
        let x = f.new_vreg();
        f.block_mut(f.entry).push(Op::Load {
            dst: x,
            addr: Operand::Reg(p),
            width: MemWidth::W,
            signed: false,
        });
        f.block_mut(f.entry).term = Terminator::Return { value: None };
        f.is_ssa = true;
        let s = summarize(
            &f,
            &DefSites::compute(&f),
            &[f.entry],
            0x1001_0000,
            0x1002_0000,
        );
        assert!(s.has_unknown);
        assert!(!s.fully_resolved());
    }

    #[test]
    fn extent_uses_gap_to_next_base() {
        let mut bases = BTreeSet::new();
        bases.insert(0x1000);
        bases.insert(0x1040);
        assert_eq!(extent_of(&bases, 0x1000, 0x2000), 0x40);
        assert_eq!(extent_of(&bases, 0x1040, 0x2000), 0x2000 - 0x1040);
    }
}

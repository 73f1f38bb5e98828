//! Behavioral synthesis for decompiled CDFG regions.
//!
//! The input is a loop nest (or whole function) in SSA form with profile
//! counts and bit-width annotations, together with the function's loop
//! forest, which the caller computes once per function; the output is a
//! scheduled, bound datapath with an area estimate in Virtex-II gate
//! equivalents, a clock estimate, a cycle count, and the schedules
//! themselves ([`KernelSchedule`]). RTL VHDL is rendered from those
//! schedules on demand ([`SynthesisResult::vhdl`]); synthesis itself
//! formats no text.
//!
//! Pipeline: DFG extraction → chaining-aware list scheduling
//! ([`schedule::schedule_ops`]) of each region block and each innermost
//! loop, once ([`schedule::schedule_kernel`]) → loop pipelining (`II =
//! max(ResMII, RecMII)`) → cycle estimation
//! ([`schedule::estimate_kernel_cycles`]) → binding and area estimation
//! ([`schedule::estimate_area`]). VHDL emission ([`vhdl::emit_kernel`])
//! runs only when [`SynthesisResult::vhdl`] is called.
//!
//! # Example
//!
//! ```
//! use binpart_cdfg::ir::{Function, Op, Operand, Terminator, BinOp};
//! use binpart_cdfg::loops::LoopForest;
//! use binpart_synth::{synthesize, SynthesisInput};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut f = Function::new("double_all");
//! let x = f.new_vreg();
//! let y = f.new_vreg();
//! let entry = f.entry;
//! f.block_mut(entry).push(Op::Load {
//!     dst: x, addr: Operand::Const(0x1000), width: binpart_cdfg::ir::MemWidth::W, signed: false,
//! });
//! f.block_mut(entry).push(Op::Bin {
//!     op: BinOp::Shl, dst: y, lhs: Operand::Reg(x), rhs: Operand::Const(1),
//! });
//! f.block_mut(entry).push(Op::Store {
//!     src: Operand::Reg(y), addr: Operand::Const(0x1000), width: binpart_cdfg::ir::MemWidth::W,
//! });
//! f.block_mut(entry).term = Terminator::Return { value: None };
//! f.block_mut(entry).profile_count = 1;
//! binpart_cdfg::ssa::construct(&mut f);
//! let forest = LoopForest::compute(&f);
//! let region: Vec<_> = f.block_ids().collect();
//! let result = synthesize(&SynthesisInput::new(&f, &forest, &region))?;
//! assert!(result.area.gate_equivalents > 0);
//! // The RTL is rendered from the kept schedule only when asked for.
//! assert!(result.vhdl(&f).contains("entity"));
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod estimate;
pub mod schedule;
pub mod tech;
pub mod vhdl;

pub use estimate::{EstimateCache, KernelKey, KeyMap};
pub use schedule::{
    AreaEstimate, BlockSchedule, KernelSchedule, KernelTiming, PipelinedLoop, ResourceBudget,
    ScheduledBlock,
};
pub use tech::{FuClass, TechLibrary};

use binpart_cdfg::ir::{BlockId, Function, Op};
use binpart_cdfg::loops::LoopForest;
use std::fmt;

/// Synthesis failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthError {
    /// The region contains a call; calls are not synthesizable (the
    /// partitioner only offers call-free regions).
    ContainsCall {
        /// The callee address.
        target: u32,
    },
    /// The region is empty.
    EmptyRegion,
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::ContainsCall { target } => {
                write!(f, "region contains a call to {target:#x}")
            }
            SynthError::EmptyRegion => write!(f, "region has no operations"),
        }
    }
}

impl std::error::Error for SynthError {}

/// Input to [`synthesize`].
#[derive(Debug, Clone)]
pub struct SynthesisInput<'f> {
    /// The decompiled function (SSA, profile counts attached).
    pub function: &'f Function,
    /// The loop forest of `function`, computed once per function by the
    /// caller (the partitioner's candidate harvest keeps one per function).
    pub forest: &'f LoopForest,
    /// Blocks of the region to implement in hardware.
    pub region: &'f [BlockId],
    /// Whether the region's arrays were moved to on-FPGA block RAM
    /// (partitioning step 2). Off means every access pays the external
    /// memory latency.
    pub mem_in_bram: bool,
    /// Bytes of array data to place in block RAM.
    pub bram_bytes: u64,
    /// Resource/clock budget.
    pub budget: ResourceBudget,
    /// Technology library.
    pub library: TechLibrary,
}

impl<'f> SynthesisInput<'f> {
    /// Input with default budget/library, block RAM on, no arrays.
    pub fn new(
        function: &'f Function,
        forest: &'f LoopForest,
        region: &'f [BlockId],
    ) -> SynthesisInput<'f> {
        SynthesisInput {
            function,
            forest,
            region,
            mem_in_bram: true,
            bram_bytes: 0,
            budget: ResourceBudget::default(),
            library: TechLibrary::virtex2(),
        }
    }
}

/// Result of synthesizing one region.
///
/// It keeps the [`KernelSchedule`] its timing and area were priced from:
/// `binpart-hwsim` lowers that same schedule into the FSMD it executes, and
/// [`SynthesisResult::vhdl`] renders the RTL from it on demand.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// Kernel entity name.
    pub name: String,
    /// Timing summary (cycles, II, clock).
    pub timing: KernelTiming,
    /// Area estimate.
    pub area: AreaEstimate,
    /// The block and loop schedules behind `timing` and `area`.
    pub schedule: KernelSchedule,
    /// Number of datapath operations synthesized.
    pub op_count: usize,
}

impl SynthesisResult {
    /// Renders the kernel's RTL: an FSM over the schedule of the region's
    /// hottest block (the largest profile count; the last such block in
    /// region order on a tie). `f` must be the function this result was
    /// synthesized from. Built on each call; an empty string when no
    /// region block of `f` has ops.
    pub fn vhdl(&self, f: &Function) -> String {
        let hot = self
            .schedule
            .blocks
            .iter()
            .filter_map(|b| Some((f.blocks.get(b.id.index())?, b.schedule.as_ref()?)))
            .max_by_key(|(block, _)| block.profile_count);
        match hot {
            Some((block, sched)) => {
                let ops: Vec<&Op> = block.ops.iter().map(|i| &i.op).collect();
                vhdl::emit_kernel(f, &f.name, &ops, sched)
            }
            None => String::new(),
        }
    }
}

/// Synthesizes a region of `input.function` into hardware: schedules every
/// region block and every innermost loop once ([`schedule::schedule_kernel`])
/// and prices cycles and area from those schedules.
///
/// # Errors
///
/// Returns [`SynthError::ContainsCall`] if the region calls functions, or
/// [`SynthError::EmptyRegion`] if it has no operations.
pub fn synthesize(input: &SynthesisInput<'_>) -> Result<SynthesisResult, SynthError> {
    let f = input.function;
    let mut all_ops: Vec<&Op> = Vec::new();
    for &b in input.region {
        for inst in &f.block(b).ops {
            if let Op::Call { target, .. } = inst.op {
                return Err(SynthError::ContainsCall { target });
            }
            all_ops.push(&inst.op);
        }
    }
    if all_ops.is_empty() {
        return Err(SynthError::EmptyRegion);
    }
    let schedule = schedule::schedule_kernel(
        f,
        input.forest,
        input.region,
        &input.library,
        &input.budget,
        input.mem_in_bram,
    );
    let timing = schedule::estimate_kernel_cycles(f, &schedule, &input.library, &input.budget);
    let block_schedules: Vec<&BlockSchedule> = schedule
        .blocks
        .iter()
        .filter_map(|b| b.schedule.as_ref())
        .collect();
    let states: u32 = block_schedules.iter().map(|s| s.depth).sum::<u32>().max(1);
    let area = schedule::estimate_area(
        f,
        &all_ops,
        &block_schedules,
        &input.library,
        states,
        input.bram_bytes,
    );
    Ok(SynthesisResult {
        name: f.name.clone(),
        timing,
        area,
        schedule,
        op_count: all_ops.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use binpart_cdfg::ir::{BinOp, MemWidth, Operand, Terminator};
    use binpart_cdfg::ssa;

    /// A counted loop summing an array: the canonical kernel.
    fn sum_kernel(iters: u64) -> Function {
        let mut f = Function::new("sum");
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let i = f.new_vreg();
        let acc = f.new_vreg();
        let c = f.new_vreg();
        let addr = f.new_vreg();
        let x = f.new_vreg();
        f.block_mut(f.entry).push(Op::Const { dst: i, value: 0 });
        f.block_mut(f.entry).push(Op::Const { dst: acc, value: 0 });
        f.block_mut(f.entry).term = Terminator::Jump(header);
        f.block_mut(header).push(Op::Bin {
            op: BinOp::LtS,
            dst: c,
            lhs: Operand::Reg(i),
            rhs: Operand::Const(iters as i64),
        });
        f.block_mut(header).term = Terminator::Branch {
            cond: Operand::Reg(c),
            t: body,
            f: exit,
        };
        f.block_mut(body).push(Op::Bin {
            op: BinOp::Shl,
            dst: addr,
            lhs: Operand::Reg(i),
            rhs: Operand::Const(2),
        });
        f.block_mut(body).push(Op::Load {
            dst: x,
            addr: Operand::Reg(addr),
            width: MemWidth::W,
            signed: false,
        });
        f.block_mut(body).push(Op::Bin {
            op: BinOp::Add,
            dst: acc,
            lhs: Operand::Reg(acc),
            rhs: Operand::Reg(x),
        });
        f.block_mut(body).push(Op::Bin {
            op: BinOp::Add,
            dst: i,
            lhs: Operand::Reg(i),
            rhs: Operand::Const(1),
        });
        f.block_mut(body).term = Terminator::Jump(header);
        f.block_mut(exit).term = Terminator::Return {
            value: Some(Operand::Reg(acc)),
        };
        ssa::construct(&mut f);
        // attach a profile
        for b in f.block_ids().collect::<Vec<_>>() {
            f.block_mut(b).profile_count = 1;
        }
        let hdr = f
            .block_ids()
            .find(|&b| matches!(f.block(b).term, Terminator::Branch { .. }))
            .unwrap();
        f.block_mut(hdr).profile_count = iters + 1;
        // body is the branch target inside the loop
        if let Terminator::Branch { t, .. } = f.block(hdr).term {
            f.block_mut(t).profile_count = iters;
        }
        f
    }

    #[test]
    fn synthesizes_sum_kernel_much_faster_than_sw() {
        let f = sum_kernel(1000);
        let forest = LoopForest::compute(&f);
        let region: Vec<BlockId> = f.block_ids().collect();
        let r = synthesize(&SynthesisInput::new(&f, &forest, &region)).unwrap();
        // Software would be ~6 instrs/iteration = ~6000 cycles; pipelined
        // hardware should be near 1000 * II cycles.
        assert!(
            r.timing.hw_cycles < 3500,
            "hw_cycles {} too slow",
            r.timing.hw_cycles
        );
        assert!(r.timing.innermost_ii <= 2);
        assert!(r.area.gate_equivalents > 500);
        assert!(r.vhdl(&f).contains("entity sum"));
    }

    #[test]
    fn bram_speeds_up_memory_bound_kernels() {
        let f = sum_kernel(1000);
        let forest = LoopForest::compute(&f);
        let region: Vec<BlockId> = f.block_ids().collect();
        let mut input = SynthesisInput::new(&f, &forest, &region);
        let fast = synthesize(&input).unwrap();
        input.mem_in_bram = false;
        let slow = synthesize(&input).unwrap();
        assert!(
            slow.timing.hw_cycles > fast.timing.hw_cycles,
            "ext {} vs bram {}",
            slow.timing.hw_cycles,
            fast.timing.hw_cycles
        );
    }

    #[test]
    fn call_in_region_is_rejected() {
        let mut f = Function::new("c");
        let d = f.new_vreg();
        f.block_mut(f.entry).push(Op::Call {
            target: 0x40_0000,
            args: vec![],
            dst: Some(d),
        });
        f.block_mut(f.entry).term = Terminator::Return { value: None };
        let forest = LoopForest::compute(&f);
        let region: Vec<BlockId> = f.block_ids().collect();
        let err = synthesize(&SynthesisInput::new(&f, &forest, &region)).unwrap_err();
        assert!(matches!(err, SynthError::ContainsCall { .. }));
    }

    #[test]
    fn empty_region_is_rejected() {
        let mut f = Function::new("e");
        f.block_mut(f.entry).term = Terminator::Return { value: None };
        let forest = LoopForest::compute(&f);
        let region: Vec<BlockId> = f.block_ids().collect();
        let err = synthesize(&SynthesisInput::new(&f, &forest, &region)).unwrap_err();
        assert_eq!(err, SynthError::EmptyRegion);
    }

    #[test]
    fn narrower_widths_shrink_area() {
        let mut f = sum_kernel(100);
        let forest = LoopForest::compute(&f);
        let region: Vec<BlockId> = f.block_ids().collect();
        let wide = synthesize(&SynthesisInput::new(&f, &forest, &region))
            .unwrap()
            .area
            .gate_equivalents;
        f.vreg_bits = vec![8; f.vreg_count() as usize];
        let narrow = synthesize(&SynthesisInput::new(&f, &forest, &region))
            .unwrap()
            .area
            .gate_equivalents;
        assert!(narrow < wide, "narrow {narrow} wide {wide}");
    }

    #[test]
    fn bram_bytes_add_area() {
        let f = sum_kernel(100);
        let forest = LoopForest::compute(&f);
        let region: Vec<BlockId> = f.block_ids().collect();
        let mut input = SynthesisInput::new(&f, &forest, &region);
        let base = synthesize(&input).unwrap().area.gate_equivalents;
        input.bram_bytes = 4096;
        let with = synthesize(&input).unwrap().area.gate_equivalents;
        assert!(with > base);
    }
}

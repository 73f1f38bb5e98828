//! Binding a compiled [`Fsmd`] to CPU architectural state: live-in
//! resolution and the [`binpart_mips::hybrid::Accelerator`] implementation.
//!
//! A kernel's SSA live-ins (values computed before the region and read
//! inside it) must be materialized from the CPU's architectural state at
//! region entry. Three sources, tried in order:
//!
//! 1. **Constant recovery** — the decompiler's constant propagation turns
//!    most loop-invariant live-ins (array bases, induction seeds,
//!    accumulator inits) into `Const` defs or short pure-op chains over
//!    constants; these fold to immediates at compile time.
//! 2. **Instruction provenance** — every lifted op carries the pc of its
//!    originating machine instruction; the instruction's destination
//!    register (via [`binpart_mips::Instr::def`]) names the machine
//!    register holding the value at region entry. A call's result lives in
//!    `$v0` per the calling convention.
//! 3. **Function live-ins** — SSA names representing register values at
//!    *function* entry (recorded by `binpart_core`'s decompiler) map
//!    directly to their machine registers.
//!
//! A live-in none of these resolve makes the kernel *unmappable*: the
//! accelerator is not built and every invocation runs in software (counted
//! by the co-simulation report). A *stale* binding — the machine register
//! was overwritten between the def and region entry — cannot be detected
//! statically; it surfaces as a store-sequence divergence in the hybrid
//! machine's per-invocation differential, which is exactly what that check
//! exists to catch.

use crate::fsmd::{Fsmd, FsmdError, OverlayBus};
use crate::hwtel::{HwTelemetry, NullHwTelemetry};
use binpart_cdfg::ir::{BinOp, BlockCounts, BlockId, Function, Inst, Op, Operand, UnOp, VReg};
use binpart_mips::hybrid::{AccelOutcome, Accelerator, HwInvocation};
use binpart_mips::sim::Memory;
use binpart_mips::{Binary, Reg};
use binpart_synth::KernelSchedule;
use std::fmt;

/// Where one live-in value comes from at invocation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveInSource {
    /// A compile-time constant (recovered from the CDFG).
    Const(u32),
    /// The CPU register holding the value at region entry.
    MachineReg(u8),
}

/// Why a kernel could not be packaged as an accelerator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccelBuildError {
    /// A live-in SSA value has no recoverable CPU-state source.
    UnmappableLiveIn {
        /// The unresolvable register.
        vreg: VReg,
    },
    /// The region is not executable (calls, malformed terminators, entry
    /// outside the region).
    Unexecutable,
}

impl fmt::Display for AccelBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelBuildError::UnmappableLiveIn { vreg } => {
                write!(f, "live-in {vreg} has no recoverable CPU-state source")
            }
            AccelBuildError::Unexecutable => write!(f, "region is not executable"),
        }
    }
}

impl std::error::Error for AccelBuildError {}

impl From<FsmdError> for AccelBuildError {
    fn from(_: FsmdError) -> Self {
        AccelBuildError::Unexecutable
    }
}

/// One kernel packaged as a hardware accelerator: the compiled FSMD plus
/// its live-in binding plan.
#[derive(Debug)]
pub struct KernelAccel<'f> {
    fsmd: Fsmd<'f>,
    plan: Vec<(VReg, LiveInSource)>,
    /// Per-invocation hardware cycle budget (runaway guard).
    pub cycle_limit: u64,
}

impl<'f> KernelAccel<'f> {
    /// Lowers `schedule` — the region schedule synthesis priced the kernel
    /// from ([`binpart_synth::SynthesisResult::schedule`]) — into an FSMD
    /// entered at `entry` ([`Fsmd::compile`], which keeps `counts`, the
    /// block counts the kernel was priced with) and resolves its live-ins.
    ///
    /// `function_live_ins` maps original (pre-SSA) machine registers to the
    /// SSA names of their function-entry values — source 3 above; pass an
    /// empty slice when unavailable.
    ///
    /// # Errors
    ///
    /// [`AccelBuildError`] when the region cannot execute or a live-in is
    /// unmappable.
    pub fn compile(
        f: &'f Function,
        counts: &'f BlockCounts,
        schedule: &KernelSchedule,
        entry: BlockId,
        binary: &Binary,
        function_live_ins: &[(VReg, VReg)],
    ) -> Result<KernelAccel<'f>, AccelBuildError> {
        let fsmd = Fsmd::compile(f, counts, schedule, entry)?;
        let resolver = Resolver::new(f, binary, function_live_ins);
        let mut plan = Vec::new();
        for v in fsmd.live_ins() {
            match resolver.resolve(v, 0) {
                Some(src) => plan.push((v, src)),
                None => return Err(AccelBuildError::UnmappableLiveIn { vreg: v }),
            }
        }
        Ok(KernelAccel {
            fsmd,
            plan,
            cycle_limit: 1 << 28,
        })
    }

    /// The live-in binding plan (diagnostics).
    pub fn plan(&self) -> &[(VReg, LiveInSource)] {
        &self.plan
    }

    /// The compiled FSMD (telemetry sizing and analytic attribution).
    pub fn fsmd(&self) -> &Fsmd<'f> {
        &self.fsmd
    }

    /// Executes one invocation against CPU state, returning the hardware
    /// cycle count and store log, or the fault.
    ///
    /// # Errors
    ///
    /// Any [`FsmdError`] from the executor.
    pub fn execute(&self, regs: &[u32; 32], mem: &Memory) -> Result<HwInvocation, FsmdError> {
        self.execute_with(regs, mem, &mut NullHwTelemetry)
    }

    /// [`KernelAccel::execute`] with a live [`HwTelemetry`] sink, which
    /// gets the invocation's counts when it ends ([`Fsmd::execute_tel`]):
    /// committed on success, aborted on a fault — so a recording sink's
    /// totals cover exactly the invocations whose cycles the hybrid
    /// machine charged.
    ///
    /// # Errors
    ///
    /// Any [`FsmdError`] from the executor.
    pub fn execute_with<H: HwTelemetry>(
        &self,
        regs: &[u32; 32],
        mem: &Memory,
        tel: &mut H,
    ) -> Result<HwInvocation, FsmdError> {
        let mut vals = vec![0u32; self.fsmd.register_count()];
        for &(v, src) in &self.plan {
            vals[v.index()] = match src {
                LiveInSource::Const(c) => c,
                LiveInSource::MachineReg(r) => regs[(r & 31) as usize],
            };
        }
        let mut bus = OverlayBus::new(mem);
        let run = self
            .fsmd
            .execute_tel(&mut vals, &mut bus, self.cycle_limit, tel)?;
        Ok(HwInvocation {
            hw_cycles: run.cycles,
            stores: bus.stores,
        })
    }
}

/// A region-indexed set of optional accelerators — the
/// [`Accelerator`] the hybrid machine dispatches through. `None` slots
/// (unmappable kernels) decline every invocation.
#[derive(Debug, Default)]
pub struct KernelSet<'f> {
    /// One slot per hybrid-machine region, in region order.
    pub kernels: Vec<Option<KernelAccel<'f>>>,
}

impl Accelerator for KernelSet<'_> {
    fn invoke(&mut self, region: usize, regs: &[u32; 32], mem: &Memory) -> AccelOutcome {
        match self.kernels.get(region).and_then(|k| k.as_ref()) {
            Some(accel) => match accel.execute(regs, mem) {
                Ok(inv) => AccelOutcome::Executed(inv),
                Err(_) => AccelOutcome::Faulted,
            },
            None => AccelOutcome::Declined,
        }
    }
}

/// Live-in resolution over one function.
struct Resolver<'a> {
    f: &'a Function,
    binary: &'a Binary,
    function_live_ins: &'a [(VReg, VReg)],
    /// Def site per register: (block, op index), dense by [`VReg::index`].
    defs: Vec<Option<(BlockId, u32)>>,
}

impl<'a> Resolver<'a> {
    fn new(
        f: &'a Function,
        binary: &'a Binary,
        function_live_ins: &'a [(VReg, VReg)],
    ) -> Resolver<'a> {
        let mut defs = vec![None; f.vreg_count() as usize];
        for b in f.block_ids() {
            for (k, inst) in f.block(b).ops.iter().enumerate() {
                if let Some(d) = inst.op.dst() {
                    defs[d.index()] = Some((b, k as u32));
                }
            }
        }
        Resolver {
            f,
            binary,
            function_live_ins,
            defs,
        }
    }

    fn def_inst(&self, v: VReg) -> Option<&'a Inst> {
        let (b, k) = self.defs.get(v.index()).copied().flatten()?;
        Some(&self.f.block(b).ops[k as usize])
    }

    /// Constant-folds `v` through pure ops, if its whole backward slice is
    /// constant.
    fn const_eval(&self, v: VReg, depth: u32) -> Option<u32> {
        if depth > 16 {
            return None;
        }
        let inst = self.def_inst(v)?;
        let operand = |o: &Operand| -> Option<u32> {
            match o {
                Operand::Const(c) => Some(*c as u32),
                Operand::Reg(r) => self.const_eval(*r, depth + 1),
            }
        };
        match &inst.op {
            Op::Const { value, .. } => Some(*value as u32),
            Op::Copy { src, .. } => operand(src),
            Op::Un { op, src, .. } => {
                let s = operand(src)?;
                Some(UnOp::fold(*op, s as i64) as u32)
            }
            Op::Bin { op, lhs, rhs, .. } => {
                let a = operand(lhs)?;
                let b = operand(rhs)?;
                Some(BinOp::fold(*op, a as i64, b as i64) as u32)
            }
            Op::Phi { args, .. } => {
                // A phi whose incoming values all fold to the same constant.
                let mut folded: Option<u32> = None;
                for (_, a) in args {
                    let c = operand(a)?;
                    match folded {
                        None => folded = Some(c),
                        Some(prev) if prev == c => {}
                        Some(_) => return None,
                    }
                }
                folded
            }
            _ => None,
        }
    }

    fn resolve(&self, v: VReg, depth: u32) -> Option<LiveInSource> {
        if let Some(c) = self.const_eval(v, depth) {
            return Some(LiveInSource::Const(c));
        }
        match self.def_inst(v) {
            Some(inst) => {
                if let Op::Call { .. } = inst.op {
                    // Calling convention: results arrive in $v0.
                    return Some(LiveInSource::MachineReg(Reg::V0.number()));
                }
                // Provenance: the originating machine instruction's
                // destination register holds the value.
                let pc = inst.pc?;
                let idx = pc.wrapping_sub(self.binary.text_base) / 4;
                let word = *self.binary.text.get(idx as usize)?;
                let instr = binpart_mips::decode(word).ok()?;
                instr.def().map(|r| LiveInSource::MachineReg(r.number()))
            }
            None => {
                // No def: a function parameter or a function live-in name.
                if let Some(pos) = self.f.params.iter().position(|&p| p == v) {
                    if pos < 4 {
                        return Some(LiveInSource::MachineReg(Reg::A0.number() + pos as u8));
                    }
                    return None;
                }
                let (orig, _) = self.function_live_ins.iter().find(|(_, name)| *name == v)?;
                if orig.index() < 32 {
                    Some(LiveInSource::MachineReg(orig.0 as u8))
                } else {
                    None // HI/LO are not visible through the register file
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{schedule, NO_COUNTS};
    use binpart_cdfg::ir::Terminator;
    use binpart_cdfg::ssa;

    /// A loop over `a[0x1000 + 4i]`, accumulating into a value returned at
    /// exit; live-ins resolve to constants after SSA (no opt passes run).
    fn mem_kernel() -> (Function, Vec<BlockId>, BlockId) {
        let mut f = Function::new("k");
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let i = f.new_vreg();
        let c = f.new_vreg();
        let addr = f.new_vreg();
        let sh = f.new_vreg();
        let x = f.new_vreg();
        let x2 = f.new_vreg();
        f.block_mut(f.entry).push(Op::Const { dst: i, value: 0 });
        f.block_mut(f.entry).term = Terminator::Jump(header);
        f.block_mut(header).push(Op::Bin {
            op: BinOp::LtS,
            dst: c,
            lhs: Operand::Reg(i),
            rhs: Operand::Const(8),
        });
        f.block_mut(header).term = Terminator::Branch {
            cond: Operand::Reg(c),
            t: body,
            f: exit,
        };
        f.block_mut(body).push(Op::Bin {
            op: BinOp::Shl,
            dst: sh,
            lhs: Operand::Reg(i),
            rhs: Operand::Const(2),
        });
        f.block_mut(body).push(Op::Bin {
            op: BinOp::Add,
            dst: addr,
            lhs: Operand::Reg(sh),
            rhs: Operand::Const(0x1000),
        });
        f.block_mut(body).push(Op::Load {
            dst: x,
            addr: Operand::Reg(addr),
            width: binpart_cdfg::ir::MemWidth::W,
            signed: false,
        });
        f.block_mut(body).push(Op::Bin {
            op: BinOp::Add,
            dst: x2,
            lhs: Operand::Reg(x),
            rhs: Operand::Const(1),
        });
        f.block_mut(body).push(Op::Store {
            src: Operand::Reg(x2),
            addr: Operand::Reg(addr),
            width: binpart_cdfg::ir::MemWidth::W,
        });
        f.block_mut(body).push(Op::Bin {
            op: BinOp::Add,
            dst: i,
            lhs: Operand::Reg(i),
            rhs: Operand::Const(1),
        });
        f.block_mut(body).term = Terminator::Jump(header);
        f.block_mut(exit).term = Terminator::Return { value: None };
        ssa::construct(&mut f);
        let header = f
            .block_ids()
            .find(|&b| matches!(f.block(b).term, Terminator::Branch { .. }))
            .unwrap();
        let body = match f.block(header).term {
            Terminator::Branch { t, .. } => t,
            _ => unreachable!(),
        };
        (f, vec![header, body], header)
    }

    #[test]
    fn accel_executes_and_logs_increment_stores() {
        let (f, region, header) = mem_kernel();
        let binary = binpart_mips::BinaryBuilder::new().build();
        let accel =
            KernelAccel::compile(&f, &NO_COUNTS, &schedule(&f, &region), header, &binary, &[])
                .unwrap();
        let mut mem = Memory::new();
        for k in 0..8u32 {
            mem.write_u32(0x1000 + 4 * k, 10 * k);
        }
        let regs = [0u32; 32];
        let inv = accel.execute(&regs, &mem).unwrap();
        assert_eq!(inv.stores.len(), 8);
        for (k, s) in inv.stores.iter().enumerate() {
            assert_eq!(s.addr, 0x1000 + 4 * k as u32);
            assert_eq!(s.value, 10 * k as u32 + 1);
            assert_eq!(s.bytes, 4);
        }
        assert!(inv.hw_cycles > 8, "cycles {}", inv.hw_cycles);
        assert_eq!(mem.read_u32(0x1000), 0, "overlay never commits");
    }

    #[test]
    fn unmappable_live_in_is_a_build_error() {
        // The region reads a register with no def anywhere: unmappable.
        let mut f = Function::new("um");
        let ghost = f.new_vreg();
        let d = f.new_vreg();
        let header = f.add_block();
        let exit = f.add_block();
        f.block_mut(f.entry).term = Terminator::Jump(header);
        f.block_mut(header).push(Op::Bin {
            op: BinOp::Add,
            dst: d,
            lhs: Operand::Reg(ghost),
            rhs: Operand::Const(1),
        });
        f.block_mut(header).term = Terminator::Jump(exit);
        f.block_mut(exit).term = Terminator::Return { value: None };
        let binary = binpart_mips::BinaryBuilder::new().build();
        let err = KernelAccel::compile(
            &f,
            &NO_COUNTS,
            &schedule(&f, &[header]),
            header,
            &binary,
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, AccelBuildError::UnmappableLiveIn { .. }));
    }

    #[test]
    fn function_live_ins_map_to_machine_registers() {
        let mut f = Function::new("li");
        let name = f.new_vreg(); // represents $t0's entry value
        let d = f.new_vreg();
        let header = f.add_block();
        let exit = f.add_block();
        f.block_mut(f.entry).term = Terminator::Jump(header);
        f.block_mut(header).push(Op::Bin {
            op: BinOp::Add,
            dst: d,
            lhs: Operand::Reg(name),
            rhs: Operand::Const(0),
        });
        f.block_mut(header).push(Op::Store {
            src: Operand::Reg(d),
            addr: Operand::Const(0x40),
            width: binpart_cdfg::ir::MemWidth::W,
        });
        f.block_mut(header).term = Terminator::Jump(exit);
        f.block_mut(exit).term = Terminator::Return { value: None };
        let binary = binpart_mips::BinaryBuilder::new().build();
        let t0 = VReg(u32::from(Reg::T0.number()));
        let accel = KernelAccel::compile(
            &f,
            &NO_COUNTS,
            &schedule(&f, &[header]),
            header,
            &binary,
            &[(t0, name)],
        )
        .unwrap();
        assert_eq!(
            accel.plan(),
            &[(name, LiveInSource::MachineReg(Reg::T0.number()))]
        );
        let mut regs = [0u32; 32];
        regs[Reg::T0.number() as usize] = 1234;
        let mem = Memory::new();
        let inv = accel.execute(&regs, &mem).unwrap();
        assert_eq!(inv.stores[0].value, 1234);
    }
}

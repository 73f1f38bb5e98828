//! The FSMD executor: runs a scheduled region of a decompiled function,
//! state by control step, with pipelined-loop cycle accounting.
//!
//! [`Fsmd::compile`] lowers the region once into a dense program, the way
//! `binpart_mips::sim` pre-decodes machine code: region blocks get local
//! indices, each block owns a contiguous slice of micro-ops whose operands
//! are register-file slots (constants live in slots appended after the
//! function's SSA registers), every block carries its timing, and every
//! in-region CFG edge carries its phi parallel copies. Executing a step is
//! then one dispatch on a micro-op — no `Op`/`Operand` matching, no phi
//! argument search, no region or loop lookups.

use crate::hwtel::{HwAttribution, HwCounts, HwTelemetry, NullHwTelemetry};
use binpart_cdfg::ir::{
    BinOp, BlockCounts, BlockId, Function, MemWidth, Op, Operand, Terminator, UnOp, VReg,
};
use binpart_mips::hybrid::HwStore;
use binpart_mips::sim::{Memory, PAGE_SIZE};
use binpart_synth::{KernelSchedule, PipelinedLoop, ScheduledBlock};
use std::fmt;

/// The hardware's memory port: a copy-on-write view over the CPU's
/// [`Memory`]. The first store to a page copies that whole page into a
/// private [`Memory`]; every later access to a copied page is served
/// there, and every other access reads the CPU's memory. Stores are logged
/// in execution order. Nothing is ever committed — the hybrid machine's
/// software oracle remains authoritative.
///
/// Accesses must be naturally aligned (an unaligned one is
/// [`FsmdError::Unaligned`]), so none straddles two pages.
#[derive(Debug)]
pub struct OverlayBus<'m> {
    mem: &'m Memory,
    /// The pages the hardware has written.
    copied: Memory,
    /// Every store performed, in execution order.
    pub stores: Vec<HwStore>,
}

impl<'m> OverlayBus<'m> {
    /// An empty overlay over `mem`.
    pub fn new(mem: &'m Memory) -> OverlayBus<'m> {
        OverlayBus {
            mem,
            copied: Memory::new(),
            stores: Vec::new(),
        }
    }

    /// Reads a little-endian `width` value at `addr`, zero-extended.
    ///
    /// # Errors
    ///
    /// [`FsmdError::Unaligned`] if `addr` is not a multiple of `width`.
    #[inline(always)]
    pub fn read(&self, addr: u32, width: MemWidth) -> Result<u32, FsmdError> {
        check_aligned(addr, width)?;
        let m = if self.copied.has_page(addr) {
            &self.copied
        } else {
            self.mem
        };
        Ok(match width {
            MemWidth::W => m.read_u32(addr),
            MemWidth::H => u32::from(m.read_u16(addr)),
            MemWidth::B => u32::from(m.read_u8(addr)),
        })
    }

    /// Writes the low `width` bytes of `value` at `addr`, little-endian,
    /// into the overlay, and logs the store.
    ///
    /// # Errors
    ///
    /// [`FsmdError::Unaligned`] if `addr` is not a multiple of `width`.
    #[inline]
    pub fn write(&mut self, addr: u32, width: MemWidth, value: u32) -> Result<(), FsmdError> {
        check_aligned(addr, width)?;
        if !self.copied.has_page(addr) {
            let page = addr & !(PAGE_SIZE as u32 - 1);
            self.copied
                .write_slice(page, &self.mem.read_vec(page, PAGE_SIZE));
        }
        match width {
            MemWidth::W => self.copied.write_u32(addr, value),
            MemWidth::H => self.copied.write_u16(addr, value as u16),
            MemWidth::B => self.copied.write_u8(addr, value as u8),
        }
        self.stores.push(HwStore {
            addr,
            bytes: width.bytes() as u8,
            value,
        });
        Ok(())
    }
}

/// Why an FSMD execution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsmdError {
    /// A load/store address violated natural alignment.
    Unaligned {
        /// Faulting address.
        addr: u32,
    },
    /// The cycle budget ran out (runaway hardware — usually a mis-bound
    /// live-in turning a loop exit condition false forever).
    CycleLimit {
        /// The configured limit.
        limit: u64,
    },
    /// The region contained an op hardware cannot execute (a call), a
    /// malformed terminator or a reference outside the function, or the
    /// register file passed to [`Fsmd::execute`] was too short.
    Unexecutable,
    /// A phi had no argument for the executed predecessor.
    PhiWithoutPred,
}

impl fmt::Display for FsmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsmdError::Unaligned { addr } => write!(f, "unaligned hw access to {addr:#010x}"),
            FsmdError::CycleLimit { limit } => write!(f, "hw exceeded {limit} cycles"),
            FsmdError::Unexecutable => write!(f, "region contains unexecutable op"),
            FsmdError::PhiWithoutPred => write!(f, "phi missing executed predecessor"),
        }
    }
}

impl std::error::Error for FsmdError {}

/// One completed FSMD invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct FsmdRun {
    /// Measured hardware cycles (control steps, with pipelined loops at
    /// their II).
    pub cycles: u64,
    /// Header executions of pipelined loops (steady-state iterations).
    pub iterations: u64,
    /// Entries into pipelined loops (each pays the pipeline fill).
    pub entries: u64,
    /// Region blocks executed.
    pub blocks_executed: u64,
    /// The first out-of-region block control transferred to, if the region
    /// was left by an exit edge ([`None`] when it returned).
    pub exit_block: Option<BlockId>,
    /// The value returned, when the region ended in a `Return`.
    pub return_value: Option<u32>,
}

/// One datapath step. Operands and destinations are register-file slots:
/// slot `i < vreg_count` is `VReg(i)`, later slots hold constants.
#[derive(Debug, Clone, Copy)]
enum MicroOp {
    Copy {
        d: u32,
        s: u32,
    },
    Add {
        d: u32,
        a: u32,
        b: u32,
    },
    Sub {
        d: u32,
        a: u32,
        b: u32,
    },
    Mul {
        d: u32,
        a: u32,
        b: u32,
    },
    And {
        d: u32,
        a: u32,
        b: u32,
    },
    Or {
        d: u32,
        a: u32,
        b: u32,
    },
    Xor {
        d: u32,
        a: u32,
        b: u32,
    },
    Shl {
        d: u32,
        a: u32,
        b: u32,
    },
    ShrL {
        d: u32,
        a: u32,
        b: u32,
    },
    ShrA {
        d: u32,
        a: u32,
        b: u32,
    },
    Eq {
        d: u32,
        a: u32,
        b: u32,
    },
    Ne {
        d: u32,
        a: u32,
        b: u32,
    },
    LtS {
        d: u32,
        a: u32,
        b: u32,
    },
    LtU {
        d: u32,
        a: u32,
        b: u32,
    },
    /// Every other binop, through [`BinOp::fold`].
    Bin {
        op: BinOp,
        d: u32,
        a: u32,
        b: u32,
    },
    Un {
        op: UnOp,
        d: u32,
        s: u32,
    },
    Load {
        d: u32,
        addr: u32,
        width: MemWidth,
        signed: bool,
    },
    Store {
        s: u32,
        addr: u32,
        width: MemWidth,
    },
}

/// Where a control transfer goes.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// A region block (local index) entered over `edge`.
    Local { block: u32, edge: u32 },
    /// Out of the region: the execution ends here.
    Exit(BlockId),
}

/// A block's terminator with resolved slots and targets.
#[derive(Debug, Clone, Copy)]
enum Exit {
    Jump(Target),
    Branch {
        cond: u32,
        t: Target,
        f: Target,
    },
    /// `table[start..end][index]`, else `default`.
    Switch {
        index: u32,
        start: u32,
        end: u32,
        default: Target,
    },
    Return(Option<u32>),
    /// `Terminator::None`: unexecutable when reached.
    Malformed,
}

/// The phi parallel copy performed when control crosses one CFG edge:
/// `copies[start..end]`, `(destination, source)` slot pairs in phi order.
#[derive(Debug, Clone, Copy)]
struct Edge {
    start: u32,
    end: u32,
    kind: EdgeKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeKind {
    /// No destination is another copy's source: copy in order.
    Direct,
    /// Some destination feeds another copy: read all sources first.
    Buffered,
    /// A phi of the target has no argument for this edge.
    MissingArg,
}

/// Edge 0: no phi copies.
const NO_COPIES: u32 = 0;
/// A block outside every pipelined loop.
const NO_LOOP: u32 = u32::MAX;

/// One region block, lowered.
#[derive(Debug, Clone)]
struct DenseBlock {
    /// The block in the function (telemetry names states by it).
    id: BlockId,
    /// `code[start..end]`: non-phi ops in (control step, original index)
    /// order — the state sequence of the block's FSM. Dependence-safe: an
    /// op's producers never sit in a later step, and within a step
    /// chained producers precede consumers in original order.
    start: u32,
    end: u32,
    exit: Exit,
    /// Innermost pipelined loop covering the block, or [`NO_LOOP`].
    pipe: u32,
    /// Whether the block is its pipelined loop's header.
    header: bool,
    /// The loop's pipeline fill (`depth - II`), II and bus-stall share.
    fill: u32,
    ii: u32,
    stall: u32,
    /// Control steps the block occupies (1 for control-only blocks).
    depth: u32,
}

/// What one entry into a region state costs ([`Fsmd::state_costs`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StateCost {
    /// The state's block id.
    pub(crate) block: u32,
    /// Cycles charged per entry, by [`HwAttribution`] category.
    pub(crate) block_seq: u64,
    pub(crate) steady_ii: u64,
    pub(crate) bus_stall: u64,
    /// Cycles charged per pipelined-loop entry taken at the state.
    pub(crate) fill: u64,
    /// Loads and stores per entry.
    pub(crate) loads: u64,
    pub(crate) stores: u64,
}

/// A compiled, executable FSMD for one region of a decompiled function —
/// the [`KernelSchedule`] [`binpart_synth::synthesize`] priced the kernel
/// from, lowered once into a dense program (see the [module docs](self)).
#[derive(Debug)]
pub struct Fsmd<'f> {
    f: &'f Function,
    /// Profiled execution counts of `f`'s blocks (the analytic
    /// attribution's weights).
    counts: &'f BlockCounts,
    /// Region blocks in ascending [`BlockId`] order.
    blocks: Vec<DenseBlock>,
    code: Vec<MicroOp>,
    /// Switch target tables.
    table: Vec<Target>,
    edges: Vec<Edge>,
    copies: Vec<(u32, u32)>,
    /// Local index of the entry block, and the edge region entry takes.
    entry: u32,
    entry_edge: u32,
    loops: Vec<PipelinedLoop>,
    /// Register-file slots `vreg_count..` hold these constants.
    consts: Vec<u32>,
    vreg_count: usize,
}

/// Builds the dense program's side tables while blocks are lowered.
struct Lowering<'a> {
    f: &'a Function,
    in_region: &'a [bool],
    local: &'a [u32],
    vreg_count: usize,
    consts: Vec<u32>,
    table: Vec<Target>,
    edges: Vec<Edge>,
    copies: Vec<(u32, u32)>,
}

impl Lowering<'_> {
    fn reg(&self, r: VReg) -> Result<u32, FsmdError> {
        if r.index() < self.vreg_count {
            Ok(r.0)
        } else {
            Err(FsmdError::Unexecutable)
        }
    }

    fn operand(&mut self, o: Operand) -> Result<u32, FsmdError> {
        match o {
            Operand::Reg(r) => self.reg(r),
            Operand::Const(c) => {
                let value = c as u32;
                let k = match self.consts.iter().position(|&v| v == value) {
                    Some(k) => k,
                    None => {
                        self.consts.push(value);
                        self.consts.len() - 1
                    }
                };
                Ok((self.vreg_count + k) as u32)
            }
        }
    }

    fn op(&mut self, op: &Op) -> Result<MicroOp, FsmdError> {
        Ok(match *op {
            Op::Const { dst, value } => MicroOp::Copy {
                d: self.reg(dst)?,
                s: self.operand(Operand::Const(value))?,
            },
            Op::Copy { dst, src } => MicroOp::Copy {
                d: self.reg(dst)?,
                s: self.operand(src)?,
            },
            Op::Un { op, dst, src } => MicroOp::Un {
                op,
                d: self.reg(dst)?,
                s: self.operand(src)?,
            },
            Op::Bin { op, dst, lhs, rhs } => {
                let (d, a, b) = (self.reg(dst)?, self.operand(lhs)?, self.operand(rhs)?);
                match op {
                    BinOp::Add => MicroOp::Add { d, a, b },
                    BinOp::Sub => MicroOp::Sub { d, a, b },
                    BinOp::Mul => MicroOp::Mul { d, a, b },
                    BinOp::And => MicroOp::And { d, a, b },
                    BinOp::Or => MicroOp::Or { d, a, b },
                    BinOp::Xor => MicroOp::Xor { d, a, b },
                    BinOp::Shl => MicroOp::Shl { d, a, b },
                    BinOp::ShrL => MicroOp::ShrL { d, a, b },
                    BinOp::ShrA => MicroOp::ShrA { d, a, b },
                    BinOp::Eq => MicroOp::Eq { d, a, b },
                    BinOp::Ne => MicroOp::Ne { d, a, b },
                    BinOp::LtS => MicroOp::LtS { d, a, b },
                    BinOp::LtU => MicroOp::LtU { d, a, b },
                    _ => MicroOp::Bin { op, d, a, b },
                }
            }
            Op::Load {
                dst,
                addr,
                width,
                signed,
            } => MicroOp::Load {
                d: self.reg(dst)?,
                addr: self.operand(addr)?,
                width,
                signed,
            },
            Op::Store { src, addr, width } => MicroOp::Store {
                s: self.operand(src)?,
                addr: self.operand(addr)?,
                width,
            },
            Op::Phi { .. } | Op::Call { .. } => return Err(FsmdError::Unexecutable),
        })
    }

    fn in_region(&self, b: BlockId) -> bool {
        self.in_region.get(b.index()).copied().unwrap_or(false)
    }

    /// The phi copies for entering `to` from `from` (`None`: region entry,
    /// which takes each phi's first argument from outside the region).
    fn edge(&mut self, from: Option<BlockId>, to: BlockId) -> Result<u32, FsmdError> {
        let phis = self.f.block(to).ops.iter().filter_map(|i| match &i.op {
            Op::Phi { dst, args } => Some((*dst, args)),
            _ => None,
        });
        let start = self.copies.len();
        let mut kind = EdgeKind::Direct;
        for (dst, args) in phis {
            let arg = match from {
                Some(p) => args.iter().find(|(b, _)| *b == p),
                None => args.iter().find(|(b, _)| !self.in_region(*b)),
            };
            let Some(&(_, arg)) = arg else {
                kind = EdgeKind::MissingArg;
                self.copies.truncate(start);
                break;
            };
            let pair = (self.reg(dst)?, self.operand(arg)?);
            self.copies.push(pair);
        }
        if self.copies.len() == start && kind == EdgeKind::Direct {
            return Ok(NO_COPIES);
        }
        let list = &self.copies[start..];
        let hazard = list.iter().enumerate().any(|(i, &(d, _))| {
            list.iter()
                .enumerate()
                .any(|(j, &(dj, sj))| i != j && (sj == d || dj == d))
        });
        if hazard {
            kind = EdgeKind::Buffered;
        }
        self.edges.push(Edge {
            start: start as u32,
            end: self.copies.len() as u32,
            kind,
        });
        Ok(self.edges.len() as u32 - 1)
    }

    fn target(&mut self, from: BlockId, to: BlockId) -> Result<Target, FsmdError> {
        if to.index() >= self.in_region.len() {
            return Err(FsmdError::Unexecutable);
        }
        if !self.in_region(to) {
            return Ok(Target::Exit(to));
        }
        Ok(Target::Local {
            block: self.local[to.index()],
            edge: self.edge(Some(from), to)?,
        })
    }

    fn exit(&mut self, from: BlockId, term: &Terminator) -> Result<Exit, FsmdError> {
        Ok(match term {
            Terminator::Jump(t) => Exit::Jump(self.target(from, *t)?),
            Terminator::Branch { cond, t, f } => Exit::Branch {
                cond: self.operand(*cond)?,
                t: self.target(from, *t)?,
                f: self.target(from, *f)?,
            },
            Terminator::Switch {
                index,
                targets,
                default,
            } => {
                let index = self.operand(*index)?;
                let default = self.target(from, *default)?;
                let mut lowered = Vec::with_capacity(targets.len());
                for &t in targets {
                    lowered.push(self.target(from, t)?);
                }
                let start = self.table.len() as u32;
                self.table.extend(lowered);
                Exit::Switch {
                    index,
                    start,
                    end: self.table.len() as u32,
                    default,
                }
            }
            Terminator::Return { value } => Exit::Return(match value {
                Some(v) => Some(self.operand(*v)?),
                None => None,
            }),
            Terminator::None => Exit::Malformed,
        })
    }
}

impl<'f> Fsmd<'f> {
    /// Lowers `schedule` — the block and loop schedules synthesis priced
    /// a region of `f` from ([`binpart_synth::SynthesisResult::schedule`])
    /// — into the dense program [`Fsmd::execute`] runs, entered at
    /// `entry`. The region is the schedule's blocks, each executed in its
    /// scheduled state order, and every pipelined loop runs at the II the
    /// estimate charged. `counts` are `f`'s block counts the estimate was
    /// priced with; only [`Fsmd::analytic_attribution`] reads them.
    ///
    /// # Errors
    ///
    /// [`FsmdError::Unexecutable`] if the region contains calls, names a
    /// block or register outside `f`, does not contain `entry`, or carries
    /// a schedule that does not fit its block's ops.
    pub fn compile(
        f: &'f Function,
        counts: &'f BlockCounts,
        schedule: &KernelSchedule,
        entry: BlockId,
    ) -> Result<Fsmd<'f>, FsmdError> {
        let nblocks = f.blocks.len();
        let mut in_region = vec![false; nblocks];
        for b in &schedule.blocks {
            *in_region
                .get_mut(b.id.index())
                .ok_or(FsmdError::Unexecutable)? = true;
        }
        let inside = |b: BlockId| in_region.get(b.index()).copied().unwrap_or(false);
        if !inside(entry) || schedule.loops.iter().any(|l| !inside(l.header)) {
            return Err(FsmdError::Unexecutable);
        }
        // Region blocks in ascending id order, one each.
        let mut region: Vec<&ScheduledBlock> = schedule.blocks.iter().collect();
        region.sort_by_key(|b| b.id);
        region.dedup_by_key(|b| b.id);
        let mut local = vec![u32::MAX; nblocks];
        for (i, b) in region.iter().enumerate() {
            local[b.id.index()] = i as u32;
        }
        let mut lower = Lowering {
            f,
            in_region: &in_region,
            local: &local,
            vreg_count: f.vreg_count() as usize,
            consts: Vec::new(),
            table: Vec::new(),
            // Edge 0 is shared by every transfer into a phi-free block.
            edges: vec![Edge {
                start: 0,
                end: 0,
                kind: EdgeKind::Direct,
            }],
            copies: Vec::new(),
        };
        let mut code = Vec::new();
        let mut blocks = Vec::with_capacity(region.len());
        for sb in region {
            let b = sb.id;
            let block = f.block(b);
            // The block's states in scheduled order.
            let ops = &block.ops;
            let (order, depth) = match &sb.schedule {
                None if ops.is_empty() => (Vec::new(), 1),
                Some(sched) if sched.steps.len() == ops.len() => {
                    let mut order: Vec<usize> = (0..ops.len())
                        .filter(|&k| !matches!(ops[k].op, Op::Phi { .. }))
                        .collect();
                    order.sort_by_key(|&k| (sched.steps[k], k));
                    (order, sched.depth)
                }
                _ => return Err(FsmdError::Unexecutable),
            };
            let start = code.len() as u32;
            for k in order {
                code.push(lower.op(&ops[k].op)?);
            }
            let exit = lower.exit(b, &block.term)?;
            let pl = match sb.pipe {
                Some(p) => Some(*schedule.loops.get(p).ok_or(FsmdError::Unexecutable)?),
                None => None,
            };
            blocks.push(DenseBlock {
                id: b,
                start,
                end: code.len() as u32,
                exit,
                pipe: sb.pipe.map_or(NO_LOOP, |p| p as u32),
                header: pl.is_some_and(|pl| pl.header == b),
                fill: pl.map_or(0, |pl| pl.fill),
                ii: pl.map_or(0, |pl| pl.ii),
                stall: pl.map_or(0, |pl| pl.stall),
                depth,
            });
        }
        let entry_edge = lower.edge(None, entry)?;
        let Lowering {
            consts,
            table,
            edges,
            copies,
            vreg_count,
            ..
        } = lower;
        Ok(Fsmd {
            f,
            counts,
            blocks,
            code,
            table,
            edges,
            copies,
            entry: local[entry.index()],
            entry_edge,
            loops: schedule.loops.clone(),
            consts,
            vreg_count,
        })
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.blocks[self.entry as usize].id
    }

    /// Length of the register file [`Fsmd::execute`] runs on: the
    /// function's SSA registers (slot [`VReg::index`]) followed by the
    /// region's constants.
    pub fn register_count(&self) -> usize {
        self.vreg_count + self.consts.len()
    }

    /// SSA registers read by the region but defined outside it — the values
    /// [`Fsmd::execute`] needs bound. Deterministic order (block × op ×
    /// operand).
    pub fn live_ins(&self) -> Vec<VReg> {
        let mut defined = vec![false; self.vreg_count];
        for b in &self.blocks {
            for inst in &self.f.block(b.id).ops {
                if let Some(d) = inst.op.dst().and_then(|d| defined.get_mut(d.index())) {
                    *d = true;
                }
            }
        }
        let mut seen = vec![false; self.vreg_count];
        let mut live = Vec::new();
        let mut note = |o: &Operand| {
            // A register outside the function (only in phi arguments no
            // lowered edge reads) is never bound.
            if let Operand::Reg(r) = o {
                if !defined.get(r.index()).copied().unwrap_or(true) && !seen[r.index()] {
                    seen[r.index()] = true;
                    live.push(*r);
                }
            }
        };
        for b in &self.blocks {
            let block = self.f.block(b.id);
            for inst in &block.ops {
                inst.op.for_each_use(&mut note);
            }
            block.term.for_each_use(&mut note);
        }
        live
    }

    /// FSM states in the kernel: region blocks the FSMD compiled.
    pub fn region_states(&self) -> usize {
        self.blocks.len()
    }

    /// The analytic per-category cycle attribution: the exact split
    /// [`binpart_synth::schedule::estimate_kernel_cycles`] predicts from
    /// the schedule tables this FSMD was lowered from and the block counts
    /// it was compiled with. The categories sum to the analytic `hw_cycles`
    /// estimate (up to its `max(1)` floor); differencing against a
    /// measured [`HwAttribution`] decomposes the estimate error by
    /// feature.
    pub fn analytic_attribution(&self) -> HwAttribution {
        let mut a = HwAttribution::default();
        for pl in &self.loops {
            let reroll = self.f.block(pl.header).reroll_factor;
            let iters = self.counts.get(pl.header) * u64::from(reroll);
            let entries = match pl.trip_count {
                Some(t) if t > 0 => iters.div_ceil(t),
                _ => 1,
            };
            a.steady_ii += iters * u64::from(pl.ii.saturating_sub(pl.stall));
            a.bus_stall += iters * u64::from(pl.stall);
            a.fill_drain += entries * u64::from(pl.fill);
        }
        for eb in self.blocks.iter().filter(|b| b.pipe == NO_LOOP) {
            let reroll = self.f.block(eb.id).reroll_factor;
            let count = self.counts.get(eb.id) * u64::from(reroll);
            a.block_seq += count * u64::from(eb.depth);
        }
        a
    }

    /// What entering each region state costs, in block order: the cycles
    /// [`Fsmd::execute_tel`] adds to [`FsmdRun::cycles`] there and the
    /// bus transactions the state's ops perform. Counts × costs give a
    /// recorder's profile.
    pub(crate) fn state_costs(&self) -> impl Iterator<Item = StateCost> + '_ {
        self.blocks.iter().map(|b| {
            let only = |yes: bool, cycles: u32| if yes { u64::from(cycles) } else { 0 };
            let mut cost = StateCost {
                block: b.id.0,
                block_seq: only(b.pipe == NO_LOOP, b.depth),
                steady_ii: only(b.header, b.ii.saturating_sub(b.stall)),
                bus_stall: only(b.header, b.stall),
                fill: u64::from(b.fill),
                loads: 0,
                stores: 0,
            };
            for op in &self.code[b.start as usize..b.end as usize] {
                match op {
                    MicroOp::Load { .. } => cost.loads += 1,
                    MicroOp::Store { .. } => cost.stores += 1,
                    _ => {}
                }
            }
            cost
        })
    }

    /// Executes one invocation on the register file `regs` (at least
    /// [`Fsmd::register_count`] long, live-ins pre-bound at their
    /// [`VReg::index`]; the constant slots are filled here), memory through
    /// `bus`. Runs until the region is left or `cycle_limit` is exceeded.
    ///
    /// # Errors
    ///
    /// Any [`FsmdError`]; the bus may have absorbed a partial store log.
    pub fn execute(
        &self,
        regs: &mut [u32],
        bus: &mut OverlayBus<'_>,
        cycle_limit: u64,
    ) -> Result<FsmdRun, FsmdError> {
        self.execute_tel(regs, bus, cycle_limit, &mut NullHwTelemetry)
    }

    /// [`Fsmd::execute`] with a live [`HwTelemetry`] sink. Monomorphized:
    /// with [`NullHwTelemetry`] nothing is counted and this *is*
    /// `execute`. Otherwise the invocation counts into an [`HwCounts`]
    /// while it runs — per state, entries and pipelined-loop entries; the
    /// last bus transactions; the last state; the wave when
    /// [`HwTelemetry::capture_wave`] asks — and hands it to the sink's
    /// [`HwTelemetry::invocation_commit`], or to
    /// [`HwTelemetry::invocation_abort`] on a fault.
    ///
    /// # Errors
    ///
    /// Any [`FsmdError`]; the bus may have absorbed a partial store log.
    pub fn execute_tel<H: HwTelemetry>(
        &self,
        regs: &mut [u32],
        bus: &mut OverlayBus<'_>,
        cycle_limit: u64,
        tel: &mut H,
    ) -> Result<FsmdRun, FsmdError> {
        if !H::ENABLED {
            return self.run::<false>(regs, bus, cycle_limit, &mut HwCounts::new(0, false));
        }
        let mut counts = HwCounts::new(self.blocks.len(), tel.capture_wave());
        let result = self.run::<true>(regs, bus, cycle_limit, &mut counts);
        if result.is_ok() {
            tel.invocation_commit(counts);
        } else {
            tel.invocation_abort(counts);
        }
        result
    }

    /// The executor. With `REC` it counts into `counts`: every `cycles +=`
    /// below is one of the costs [`Fsmd::state_costs`] reports, charged
    /// per state entry or per loop entry, so counts × costs sum to
    /// [`FsmdRun::cycles`] exactly.
    fn run<const REC: bool>(
        &self,
        regs: &mut [u32],
        bus: &mut OverlayBus<'_>,
        cycle_limit: u64,
        counts: &mut HwCounts,
    ) -> Result<FsmdRun, FsmdError> {
        let consts = self.vreg_count..self.register_count();
        regs.get_mut(consts)
            .ok_or(FsmdError::Unexecutable)?
            .copy_from_slice(&self.consts);
        let mut run = FsmdRun {
            cycles: 0,
            iterations: 0,
            entries: 0,
            blocks_executed: 0,
            exit_block: None,
            return_value: None,
        };
        let mut cur = self.entry as usize;
        let mut edge = self.entry_edge;
        let mut cur_loop = NO_LOOP;
        let mut buffer: Vec<u32> = Vec::new();
        loop {
            let b = &self.blocks[cur];
            run.blocks_executed += 1;
            if REC {
                counts.state_enter(cur, b.id.0, run.cycles);
            }
            // ---- timing: pipelined loops at II, other blocks at depth ----
            if b.pipe == NO_LOOP {
                cur_loop = NO_LOOP;
                run.cycles += u64::from(b.depth);
            } else {
                if cur_loop != b.pipe {
                    // entering the loop: pay the pipeline fill once
                    run.cycles += u64::from(b.fill);
                    run.entries += 1;
                    cur_loop = b.pipe;
                    if REC {
                        counts.loop_enter(cur);
                    }
                }
                if b.header {
                    run.cycles += u64::from(b.ii);
                    run.iterations += 1;
                }
            }
            if run.cycles > cycle_limit {
                return Err(FsmdError::CycleLimit { limit: cycle_limit });
            }
            // ---- phis: the entered edge's parallel copy ----
            if edge != NO_COPIES {
                self.cross::<REC>(edge, regs, &mut buffer, counts, run.cycles)?;
            }
            // ---- datapath: the block's states in scheduled order ----
            // (the per-op wave probes run only while the wave captures)
            let ops = &self.code[b.start as usize..b.end as usize];
            if REC && counts.capturing() {
                for op in ops {
                    step::<true, true>(op, regs, bus, counts, run.cycles)?;
                }
            } else {
                for op in ops {
                    step::<REC, false>(op, regs, bus, counts, run.cycles)?;
                }
            }
            // ---- terminator ----
            let next = match b.exit {
                Exit::Jump(t) => t,
                Exit::Branch { cond, t, f } => {
                    if regs[cond as usize] != 0 {
                        t
                    } else {
                        f
                    }
                }
                Exit::Switch {
                    index,
                    start,
                    end,
                    default,
                } => {
                    let i = regs[index as usize] as usize;
                    self.table[start as usize..end as usize]
                        .get(i)
                        .copied()
                        .unwrap_or(default)
                }
                Exit::Return(value) => {
                    run.return_value = value.map(|s| regs[s as usize]);
                    return Ok(run);
                }
                Exit::Malformed => return Err(FsmdError::Unexecutable),
            };
            match next {
                Target::Local { block, edge: e } => {
                    cur = block as usize;
                    edge = e;
                }
                Target::Exit(id) => {
                    run.exit_block = Some(id);
                    return Ok(run);
                }
            }
        }
    }

    /// Performs edge `edge`'s phi parallel copy, counting each phi's write
    /// in phi order.
    #[inline(always)]
    fn cross<const REC: bool>(
        &self,
        edge: u32,
        regs: &mut [u32],
        buffer: &mut Vec<u32>,
        counts: &mut HwCounts,
        cycle: u64,
    ) -> Result<(), FsmdError> {
        let e = self.edges[edge as usize];
        let copies = &self.copies[e.start as usize..e.end as usize];
        match e.kind {
            EdgeKind::MissingArg => return Err(FsmdError::PhiWithoutPred),
            EdgeKind::Direct => {
                for &(d, s) in copies {
                    regs[d as usize] = regs[s as usize];
                }
                if REC && counts.capturing() {
                    for &(d, _) in copies {
                        counts.reg_write(cycle, d, regs[d as usize]);
                    }
                }
            }
            EdgeKind::Buffered => {
                buffer.clear();
                buffer.extend(copies.iter().map(|&(_, s)| regs[s as usize]));
                for (&(d, _), &v) in copies.iter().zip(buffer.iter()) {
                    regs[d as usize] = v;
                    if REC && counts.capturing() {
                        counts.reg_write(cycle, d, v);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Executes one micro-op, counting its bus transaction with `REC` and its
/// wave events with `WAVE`.
#[inline(always)]
fn step<const REC: bool, const WAVE: bool>(
    op: &MicroOp,
    r: &mut [u32],
    bus: &mut OverlayBus<'_>,
    counts: &mut HwCounts,
    cycle: u64,
) -> Result<(), FsmdError> {
    let reg = |s: u32| r[s as usize];
    let (d, v) = match *op {
        MicroOp::Copy { d, s } => (d, reg(s)),
        MicroOp::Add { d, a, b } => (d, reg(a).wrapping_add(reg(b))),
        MicroOp::Sub { d, a, b } => (d, reg(a).wrapping_sub(reg(b))),
        MicroOp::Mul { d, a, b } => (d, reg(a).wrapping_mul(reg(b))),
        MicroOp::And { d, a, b } => (d, reg(a) & reg(b)),
        MicroOp::Or { d, a, b } => (d, reg(a) | reg(b)),
        MicroOp::Xor { d, a, b } => (d, reg(a) ^ reg(b)),
        MicroOp::Shl { d, a, b } => (d, reg(a) << (reg(b) & 31)),
        MicroOp::ShrL { d, a, b } => (d, reg(a) >> (reg(b) & 31)),
        MicroOp::ShrA { d, a, b } => (d, ((reg(a) as i32) >> (reg(b) & 31)) as u32),
        MicroOp::Eq { d, a, b } => (d, u32::from(reg(a) == reg(b))),
        MicroOp::Ne { d, a, b } => (d, u32::from(reg(a) != reg(b))),
        MicroOp::LtS { d, a, b } => (d, u32::from((reg(a) as i32) < (reg(b) as i32))),
        MicroOp::LtU { d, a, b } => (d, u32::from(reg(a) < reg(b))),
        MicroOp::Bin { op, d, a, b } => (
            d,
            BinOp::fold(op, i64::from(reg(a)), i64::from(reg(b))) as u32,
        ),
        MicroOp::Un { op, d, s } => (d, UnOp::fold(op, i64::from(reg(s))) as u32),
        MicroOp::Load {
            d,
            addr,
            width,
            signed,
        } => {
            let a = reg(addr);
            let raw = bus.read(a, width)?;
            let v = match (width, signed) {
                (MemWidth::B, true) => raw as u8 as i8 as i32 as u32,
                (MemWidth::H, true) => raw as u16 as i16 as i32 as u32,
                _ => raw,
            };
            if REC {
                counts.bus(false, a, width, raw, cycle);
            }
            if WAVE {
                counts.wave_bus(false, a, raw, cycle);
            }
            (d, v)
        }
        MicroOp::Store { s, addr, width } => {
            let a = reg(addr);
            let v = reg(s);
            bus.write(a, width, v)?;
            if REC {
                counts.bus(true, a, width, v, cycle);
            }
            if WAVE {
                counts.wave_bus(true, a, v, cycle);
            }
            return Ok(());
        }
    };
    r[d as usize] = v;
    if WAVE {
        counts.reg_write(cycle, d, v);
    }
    Ok(())
}

#[inline]
fn check_aligned(addr: u32, width: MemWidth) -> Result<(), FsmdError> {
    let mask = width.bytes() - 1;
    if addr & mask != 0 {
        return Err(FsmdError::Unaligned { addr });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hwtel::{clear_post_mortem, post_mortem_context, HwRecorder};
    use crate::{schedule, NO_COUNTS};
    use binpart_cdfg::loops::LoopForest;
    use binpart_cdfg::ssa;
    use binpart_synth::{synthesize, SynthesisInput};

    /// The canonical sum kernel: `for (i = 0; i < n; i++) acc += a[i<<2]`.
    /// [`sum_counts`] gives its exact profile counts.
    fn sum_kernel(iters: u64) -> (Function, Vec<BlockId>, BlockId) {
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
        let header = f
            .block_ids()
            .find(|&b| matches!(f.block(b).term, Terminator::Branch { .. }))
            .unwrap();
        // The hardware region is the loop itself (header + body); the
        // entry block (the preheader) stays in software.
        let body = match f.block(header).term {
            Terminator::Branch { t, .. } => t,
            _ => unreachable!(),
        };
        (f, vec![header, body], header)
    }

    /// The exact profile of [`sum_kernel`]`(iters)`, given its region
    /// `[header, body]`: the header runs `iters + 1` times, the body
    /// `iters` times and every other block once.
    fn sum_counts(f: &Function, region: &[BlockId], iters: u64) -> BlockCounts {
        f.block_ids()
            .map(|b| match region.iter().position(|&r| r == b) {
                Some(0) => iters + 1,
                Some(_) => iters,
                None => 1,
            })
            .collect()
    }

    /// Schedules `region` of `f` and lowers it, entered at `entry`.
    fn compile<'f>(
        f: &'f Function,
        region: &[BlockId],
        entry: BlockId,
    ) -> Result<Fsmd<'f>, FsmdError> {
        Fsmd::compile(f, &NO_COUNTS, &schedule(f, region), entry)
    }

    /// Binds every live-in whose function-level def is a `Const`.
    fn bind_const_live_ins(f: &Function, fsmd: &Fsmd<'_>, vals: &mut [u32]) {
        for v in fsmd.live_ins() {
            for b in f.block_ids() {
                for inst in &f.block(b).ops {
                    if let Op::Const { dst, value } = inst.op {
                        if dst == v {
                            vals[v.index()] = value as u32;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fsmd_computes_the_architectural_sum() {
        let n = 100u64;
        let (f, region, header) = sum_kernel(n);
        let fsmd = compile(&f, &region, header).unwrap();
        // Seed memory: a[i] = i at word addresses.
        let mut mem = Memory::new();
        for i in 0..n {
            mem.write_u32((i * 4) as u32, i as u32);
        }
        let mut bus = OverlayBus::new(&mem);
        // Live-ins: the loop phis' init values, defined by the preheader's
        // `Const` ops — bind them from their defs.
        let mut vals = vec![0u32; fsmd.register_count()];
        bind_const_live_ins(&f, &fsmd, &mut vals);
        let run = fsmd.execute(&mut vals, &mut bus, 1 << 24).unwrap();
        let expected: u32 = (0..n as u32).sum();
        // The region exits through the loop's exit block; the sum sits in
        // the accumulator phi value — visible through the exit block's
        // return in full-function execution. Here we check iterations and
        // that no stores happened.
        assert_eq!(run.iterations, n + 1, "header executes n+1 times");
        assert_eq!(run.entries, 1);
        assert!(run.exit_block.is_some());
        assert!(bus.stores.is_empty());
        // The accumulator's final value must be somewhere in vals: find it.
        assert!(vals.contains(&expected), "sum {expected} not computed");
    }

    #[test]
    fn measured_cycles_match_analytic_estimate_when_counts_are_exact() {
        let n = 1000u64;
        let (f, region, header) = sum_kernel(n);
        let counts = sum_counts(&f, &region, n);
        let forest = LoopForest::compute(&f);
        let est = synthesize(&SynthesisInput::new(&f, &counts, &forest, &region)).unwrap();
        let fsmd = Fsmd::compile(&f, &counts, &est.schedule, header).unwrap();
        let mem = Memory::new();
        let mut bus = OverlayBus::new(&mem);
        let mut vals = vec![0u32; fsmd.register_count()];
        bind_const_live_ins(&f, &fsmd, &mut vals);
        let run = fsmd.execute(&mut vals, &mut bus, 1 << 28).unwrap();
        // The profile counts are exact for this kernel, so measured and
        // analytic agree to within the entries-estimation slack.
        let measured = run.cycles as f64;
        let analytic = est.timing.hw_cycles as f64;
        let err = (measured - analytic).abs() / analytic;
        assert!(
            err < 0.05,
            "measured {measured} vs analytic {analytic} ({:.1}% off)",
            err * 100.0
        );
    }

    #[test]
    fn recorded_attribution_conserves_measured_cycles_exactly() {
        let n = 137u64;
        let (f, region, header) = sum_kernel(n);
        let counts = sum_counts(&f, &region, n);
        let forest = LoopForest::compute(&f);
        let est = synthesize(&SynthesisInput::new(&f, &counts, &forest, &region)).unwrap();
        let fsmd = Fsmd::compile(&f, &counts, &est.schedule, header).unwrap();
        let mem = Memory::new();
        let mut bus = OverlayBus::new(&mem);
        let mut vals = vec![0u32; fsmd.register_count()];
        bind_const_live_ins(&f, &fsmd, &mut vals);
        let mut rec = HwRecorder::default();
        let run = fsmd
            .execute_tel(&mut vals, &mut bus, 1 << 28, &mut rec)
            .unwrap();
        let profile = rec.into_profile(&fsmd);
        // Conservation by construction: per-category and per-state sums
        // both equal the measured cycle count, exactly.
        assert_eq!(profile.attributed.total(), run.cycles);
        assert_eq!(profile.measured_cycles, run.cycles);
        assert_eq!(
            profile.state_cycles.iter().map(|&(_, c)| c).sum::<u64>(),
            run.cycles
        );
        // The analytic split sums to the synthesizer's estimate.
        assert_eq!(profile.analytic.total().max(1), est.timing.hw_cycles);
        // Every region state ran, and the bus saw one load per iteration.
        assert_eq!(profile.states_executed, profile.states_total);
        assert_eq!(profile.bus_reads, n);
        assert_eq!(profile.bus_writes, 0);
        assert!(!profile.last_bus.is_empty());
        assert!(profile.vcd().is_some(), "first invocation captures a wave");
    }

    #[test]
    fn identical_run_with_and_without_recorder_is_bit_identical() {
        let (f, region, header) = sum_kernel(64);
        let fsmd = compile(&f, &region, header).unwrap();
        let mut mem = Memory::new();
        for i in 0..64u32 {
            mem.write_u32(i * 4, i * 3);
        }
        let run2 = || {
            let mut bus = OverlayBus::new(&mem);
            let mut vals = vec![0u32; fsmd.register_count()];
            bind_const_live_ins(&f, &fsmd, &mut vals);
            (fsmd.execute(&mut vals, &mut bus, 1 << 24).unwrap(), vals)
        };
        let (plain, plain_vals) = run2();
        let mut rec = HwRecorder::default();
        let mut bus = OverlayBus::new(&mem);
        let mut vals = vec![0u32; fsmd.register_count()];
        bind_const_live_ins(&f, &fsmd, &mut vals);
        let instrumented = fsmd
            .execute_tel(&mut vals, &mut bus, 1 << 24, &mut rec)
            .unwrap();
        assert_eq!(plain, instrumented);
        assert_eq!(plain_vals, vals);
    }

    /// A faulting invocation between two committed ones leaves the totals
    /// of the committed ones alone; the post-mortem payload (final state,
    /// last bus transactions, this thread's post-mortem) is its own.
    #[test]
    fn a_faulting_invocation_counts_only_toward_the_post_mortem() {
        let (f, region, header) = sum_kernel(40);
        let fsmd = compile(&f, &region, header).unwrap();
        let mut mem = Memory::new();
        for i in 0..40u32 {
            mem.write_u32(i * 4, 3 * i + 1);
        }
        let invoke = |rec: &mut HwRecorder, limit: u64| {
            let mut vals = vec![0u32; fsmd.register_count()];
            bind_const_live_ins(&f, &fsmd, &mut vals);
            fsmd.execute_tel(&mut vals, &mut OverlayBus::new(&mem), limit, rec)
        };
        let full = u64::MAX;
        let cycles = invoke(&mut HwRecorder::default(), full).unwrap().cycles;
        // Halfway through the loop, after more loads than the bus ring holds.
        let limit = cycles / 2;
        let fault = |rec: &mut HwRecorder| {
            let err = invoke(rec, limit).unwrap_err();
            assert_eq!(err, FsmdError::CycleLimit { limit });
        };

        clear_post_mortem();
        let mut alone = HwRecorder::default();
        fault(&mut alone);
        let pm_alone = post_mortem_context().unwrap();
        let alone = alone.into_profile(&fsmd);
        assert_eq!(alone.last_bus.len(), 16, "{:?}", alone.last_bus);

        // Committed, then faulting: the payload is the fault's.
        clear_post_mortem();
        let mut rec = HwRecorder::default();
        invoke(&mut rec, full).unwrap();
        fault(&mut rec);
        assert_eq!(post_mortem_context().unwrap(), pm_alone);
        let after_fault = rec.into_profile(&fsmd);
        assert_eq!(after_fault.final_state, alone.final_state);
        assert_eq!(after_fault.last_bus, alone.last_bus);

        // Committed, faulting, committed vs the two committed ones alone.
        let mut rec = HwRecorder::default();
        invoke(&mut rec, full).unwrap();
        fault(&mut rec);
        invoke(&mut rec, full).unwrap();
        let mut committed = HwRecorder::default();
        invoke(&mut committed, full).unwrap();
        invoke(&mut committed, full).unwrap();
        let (a, b) = (rec.into_profile(&fsmd), committed.into_profile(&fsmd));
        assert_eq!((a.invocations, a.committed, a.aborted), (3, 2, 1));
        assert_eq!((b.invocations, b.committed, b.aborted), (2, 2, 0));
        assert_eq!(a.measured_cycles, b.measured_cycles);
        assert_eq!(a.state_cycles, b.state_cycles);
        assert_eq!(a.block_execs, b.block_execs);
        assert_eq!(a.attributed, b.attributed);
        assert_eq!((a.bus_reads, a.bus_writes), (b.bus_reads, b.bus_writes));
        assert_eq!(a.bus_reads, 80);
        assert_eq!(a.measured_cycles, 2 * cycles);
        assert_eq!(a.last_bus, b.last_bus, "the last invocation committed");
        clear_post_mortem();
    }

    /// Runs one recorded invocation of `(f, region, header)` against `mem`
    /// and checks the rendered VCD against `golden`, the contents of
    /// `src/{name}` (`BINPART_PIN_GOLDEN=1` re-pins that file). Returns the
    /// VCD.
    fn check_golden_vcd(
        (f, region, header): (Function, Vec<BlockId>, BlockId),
        mem: &Memory,
        name: &str,
        golden: &str,
    ) -> String {
        let fsmd = compile(&f, &region, header).unwrap();
        let mut bus = OverlayBus::new(mem);
        let mut vals = vec![0u32; fsmd.register_count()];
        bind_const_live_ins(&f, &fsmd, &mut vals);
        let mut rec = HwRecorder::default();
        fsmd.execute_tel(&mut vals, &mut bus, 1 << 20, &mut rec)
            .unwrap();
        let profile = rec.into_profile(&fsmd);
        let vcd = profile.vcd().expect("wave captured");
        // Rendered on demand: every call, and every clone, gives the same
        // bytes.
        assert_eq!(profile.vcd().as_ref(), Some(&vcd));
        assert_eq!(profile.clone().vcd().as_ref(), Some(&vcd));
        if std::env::var_os("BINPART_PIN_GOLDEN").is_some() {
            std::fs::write(format!("{}/src/{name}", env!("CARGO_MANIFEST_DIR")), &vcd).unwrap();
        }
        assert_eq!(
            vcd, golden,
            "VCD output drifted from the pinned golden {name}; if the change \
             is intended, regenerate with BINPART_PIN_GOLDEN=1 cargo test -p \
             binpart-hwsim golden_vcd"
        );
        vcd
    }

    #[test]
    fn golden_vcd_for_the_sum_kernel() {
        let mut mem = Memory::new();
        for i in 0..4u32 {
            mem.write_u32(i * 4, 10 + i);
        }
        check_golden_vcd(
            sum_kernel(4),
            &mem,
            "golden_sum_kernel.vcd",
            include_str!("golden_sum_kernel.vcd"),
        );
    }

    /// Byte and halfword traffic: every store raises the `bus_wr` strobe,
    /// and the last one is cleared by the trailing clear after the final
    /// event.
    #[test]
    fn golden_vcd_for_narrow_stores() {
        let mut f = Function::new("narrow");
        let e = f.entry;
        let x = f.new_vreg();
        let y = f.new_vreg();
        let z = f.new_vreg();
        for op in [
            Op::Load {
                dst: x,
                addr: Operand::Const(0x200),
                width: MemWidth::W,
                signed: false,
            },
            Op::Store {
                src: Operand::Reg(x),
                addr: Operand::Const(0x100),
                width: MemWidth::B,
            },
            Op::Bin {
                op: BinOp::Add,
                dst: y,
                lhs: Operand::Reg(x),
                rhs: Operand::Const(1),
            },
            Op::Store {
                src: Operand::Reg(y),
                addr: Operand::Const(0x102),
                width: MemWidth::H,
            },
            Op::Load {
                dst: z,
                addr: Operand::Const(0x203),
                width: MemWidth::B,
                signed: true,
            },
            Op::Store {
                src: Operand::Reg(z),
                addr: Operand::Const(0x105),
                width: MemWidth::B,
            },
        ] {
            f.block_mut(e).push(op);
        }
        f.block_mut(e).term = Terminator::Return { value: None };
        ssa::construct(&mut f);
        let region: Vec<BlockId> = f.block_ids().collect();
        let entry = f.entry;
        let mut mem = Memory::new();
        mem.write_u32(0x200, 0x80ff_12fe);
        let vcd = check_golden_vcd(
            (f, region, entry),
            &mem,
            "golden_narrow_stores.vcd",
            include_str!("golden_narrow_stores.vcd"),
        );
        // `%` is bus_wr's identifier code.
        assert_eq!(vcd.matches("\n1%\n").count(), 3, "one strobe per store");
        assert!(vcd.ends_with("\n0%\n"), "trailing strobe clear");
    }

    #[test]
    fn stores_are_logged_in_order_and_stay_in_the_overlay() {
        // store a[0]=7; a[1]=9 in one block.
        let mut f = Function::new("st");
        let e = f.entry;
        f.block_mut(e).push(Op::Store {
            src: Operand::Const(7),
            addr: Operand::Const(0x100),
            width: MemWidth::W,
        });
        f.block_mut(e).push(Op::Store {
            src: Operand::Const(9),
            addr: Operand::Const(0x104),
            width: MemWidth::W,
        });
        f.block_mut(e).term = Terminator::Return { value: None };
        ssa::construct(&mut f);
        let region: Vec<BlockId> = f.block_ids().collect();
        let fsmd = compile(&f, &region, f.entry).unwrap();
        let mem = Memory::new();
        let mut bus = OverlayBus::new(&mem);
        let mut vals = vec![0u32; fsmd.register_count()];
        let run = fsmd.execute(&mut vals, &mut bus, 1024).unwrap();
        assert_eq!(run.return_value, None);
        assert_eq!(
            bus.stores,
            vec![
                HwStore {
                    addr: 0x100,
                    bytes: 4,
                    value: 7
                },
                HwStore {
                    addr: 0x104,
                    bytes: 4,
                    value: 9
                },
            ]
        );
        assert_eq!(mem.read_u32(0x100), 0, "overlay never commits");
        let bus2 = OverlayBus::new(&mem);
        assert_eq!(bus2.read(0x100, MemWidth::B), Ok(0));
    }

    #[test]
    fn cycle_limit_catches_runaway_hardware() {
        // while (1) {} — branch always back to header.
        let mut f = Function::new("spin");
        let header = f.add_block();
        f.block_mut(f.entry).term = Terminator::Jump(header);
        f.block_mut(header).term = Terminator::Jump(header);
        ssa::construct(&mut f);
        let region = vec![header];
        let fsmd = compile(&f, &region, header).unwrap();
        let mem = Memory::new();
        let mut bus = OverlayBus::new(&mem);
        let mut vals = vec![0u32; fsmd.register_count()];
        let err = fsmd.execute(&mut vals, &mut bus, 1000).unwrap_err();
        assert!(matches!(err, FsmdError::CycleLimit { .. }));
    }

    #[test]
    fn unaligned_hw_access_faults() {
        let mut f = Function::new("ua");
        let d = f.new_vreg();
        f.block_mut(f.entry).push(Op::Load {
            dst: d,
            addr: Operand::Const(0x101),
            width: MemWidth::W,
            signed: false,
        });
        f.block_mut(f.entry).term = Terminator::Return { value: None };
        ssa::construct(&mut f);
        let region: Vec<BlockId> = f.block_ids().collect();
        let fsmd = compile(&f, &region, f.entry).unwrap();
        let mem = Memory::new();
        let mut bus = OverlayBus::new(&mem);
        let mut vals = vec![0u32; fsmd.register_count()];
        assert_eq!(
            fsmd.execute(&mut vals, &mut bus, 64).unwrap_err(),
            FsmdError::Unaligned { addr: 0x101 }
        );
    }

    /// Compiles the whole of `f`, entered at its entry block.
    fn compile_whole(f: &Function) -> Fsmd<'_> {
        let region: Vec<BlockId> = f.block_ids().collect();
        compile(f, &region, f.entry).unwrap()
    }

    #[test]
    fn phi_swap_goes_through_the_parallel_copy_buffer() {
        // a, b = 1, 2; for (i = 0; i < 3; i++) { a, b = b, a; }
        let mut f = Function::new("swap");
        let (pre, header, body, exit) = (f.entry, f.add_block(), f.add_block(), f.add_block());
        let (a, b, i, i2, c) = (
            f.new_vreg(),
            f.new_vreg(),
            f.new_vreg(),
            f.new_vreg(),
            f.new_vreg(),
        );
        f.block_mut(pre).term = Terminator::Jump(header);
        for (dst, init, back) in [
            (a, 1, Operand::Reg(b)),
            (b, 2, Operand::Reg(a)),
            (i, 0, Operand::Reg(i2)),
        ] {
            f.block_mut(header).push(Op::Phi {
                dst,
                args: vec![(pre, Operand::Const(init)), (body, back)],
            });
        }
        f.block_mut(header).push(Op::Bin {
            op: BinOp::LtS,
            dst: c,
            lhs: Operand::Reg(i),
            rhs: Operand::Const(3),
        });
        f.block_mut(header).term = Terminator::Branch {
            cond: Operand::Reg(c),
            t: body,
            f: exit,
        };
        f.block_mut(body).push(Op::Bin {
            op: BinOp::Add,
            dst: i2,
            lhs: Operand::Reg(i),
            rhs: Operand::Const(1),
        });
        f.block_mut(body).term = Terminator::Jump(header);
        f.block_mut(exit).term = Terminator::Return { value: None };
        let fsmd = compile(&f, &[header, body], header).unwrap();
        // The back edge's copies read each other's destinations; region
        // entry's read only constants.
        let kinds: Vec<EdgeKind> = fsmd.edges.iter().skip(1).map(|e| e.kind).collect();
        assert!(kinds.contains(&EdgeKind::Buffered), "{kinds:?}");
        assert!(kinds.contains(&EdgeKind::Direct), "{kinds:?}");
        let mem = Memory::new();
        let mut bus = OverlayBus::new(&mem);
        let mut vals = vec![0u32; fsmd.register_count()];
        let run = fsmd.execute(&mut vals, &mut bus, 1 << 16).unwrap();
        assert_eq!(run.exit_block, Some(exit));
        // Three swaps of (1, 2); a sequential copy would leave (2, 2).
        assert_eq!(
            (vals[a.index()], vals[b.index()], vals[i.index()]),
            (2, 1, 3)
        );
    }

    #[test]
    fn phi_without_pred_is_raised_only_when_the_bad_edge_is_taken() {
        // if (c) goto p1 else goto p2; both reach x, whose phi only has
        // an argument for p1.
        let mut f = Function::new("badphi");
        let (e, p1, p2, x) = (f.entry, f.add_block(), f.add_block(), f.add_block());
        let (c, v) = (f.new_vreg(), f.new_vreg());
        f.block_mut(e).term = Terminator::Branch {
            cond: Operand::Reg(c),
            t: p1,
            f: p2,
        };
        f.block_mut(p1).term = Terminator::Jump(x);
        f.block_mut(p2).term = Terminator::Jump(x);
        f.block_mut(x).push(Op::Phi {
            dst: v,
            args: vec![(p1, Operand::Const(7))],
        });
        f.block_mut(x).term = Terminator::Return {
            value: Some(Operand::Reg(v)),
        };
        let fsmd = compile_whole(&f);
        let mem = Memory::new();
        let mut vals = vec![0u32; fsmd.register_count()];
        vals[c.index()] = 1;
        let run = fsmd
            .execute(&mut vals, &mut OverlayBus::new(&mem), 1 << 10)
            .unwrap();
        assert_eq!(run.return_value, Some(7));
        vals[c.index()] = 0;
        assert_eq!(
            fsmd.execute(&mut vals, &mut OverlayBus::new(&mem), 1 << 10)
                .unwrap_err(),
            FsmdError::PhiWithoutPred
        );
    }

    #[test]
    fn switch_index_out_of_range_goes_to_the_default() {
        let mut f = Function::new("sw");
        let (e, t0, t1, dflt) = (f.entry, f.add_block(), f.add_block(), f.add_block());
        let k = f.new_vreg();
        f.block_mut(e).term = Terminator::Switch {
            index: Operand::Reg(k),
            targets: vec![t0, t1],
            default: dflt,
        };
        for (b, value) in [(t0, 10), (t1, 11), (dflt, 99)] {
            f.block_mut(b).term = Terminator::Return {
                value: Some(Operand::Const(value)),
            };
        }
        let fsmd = compile_whole(&f);
        let mem = Memory::new();
        for (index, expected) in [(0, 10), (1, 11), (2, 99), (u32::MAX, 99)] {
            let mut vals = vec![0u32; fsmd.register_count()];
            vals[k.index()] = index;
            let run = fsmd
                .execute(&mut vals, &mut OverlayBus::new(&mem), 1 << 10)
                .unwrap();
            assert_eq!(run.return_value, Some(expected), "index {index}");
        }
    }

    #[test]
    fn byte_store_then_word_load_sees_the_merged_word() {
        let mut f = Function::new("merge");
        let e = f.entry;
        let d = f.new_vreg();
        f.block_mut(e).push(Op::Store {
            src: Operand::Const(0xaa),
            addr: Operand::Const(0x101),
            width: MemWidth::B,
        });
        f.block_mut(e).push(Op::Load {
            dst: d,
            addr: Operand::Const(0x100),
            width: MemWidth::W,
            signed: false,
        });
        f.block_mut(e).term = Terminator::Return {
            value: Some(Operand::Reg(d)),
        };
        let fsmd = compile_whole(&f);
        let mut mem = Memory::new();
        mem.write_u32(0x100, 0x1122_3344);
        let mut bus = OverlayBus::new(&mem);
        let mut vals = vec![0u32; fsmd.register_count()];
        let run = fsmd.execute(&mut vals, &mut bus, 1 << 10).unwrap();
        assert_eq!(run.return_value, Some(0x1122_aa44));
        assert_eq!(
            bus.stores,
            vec![HwStore {
                addr: 0x101,
                bytes: 1,
                value: 0xaa
            }]
        );
        assert_eq!(mem.read_u32(0x100), 0x1122_3344, "overlay never commits");
    }

    #[test]
    fn load_from_an_untouched_page_falls_through_to_memory() {
        let mut f = Function::new("pages");
        let e = f.entry;
        let (x, y, z) = (f.new_vreg(), f.new_vreg(), f.new_vreg());
        f.block_mut(e).push(Op::Store {
            src: Operand::Const(5),
            addr: Operand::Const(0x100),
            width: MemWidth::W,
        });
        f.block_mut(e).push(Op::Load {
            dst: x,
            addr: Operand::Const(0x2000),
            width: MemWidth::W,
            signed: false,
        });
        f.block_mut(e).push(Op::Load {
            dst: y,
            addr: Operand::Const(0x100),
            width: MemWidth::W,
            signed: false,
        });
        f.block_mut(e).push(Op::Bin {
            op: BinOp::Add,
            dst: z,
            lhs: Operand::Reg(x),
            rhs: Operand::Reg(y),
        });
        f.block_mut(e).term = Terminator::Return {
            value: Some(Operand::Reg(z)),
        };
        let fsmd = compile_whole(&f);
        let mut mem = Memory::new();
        mem.write_u32(0x104, 0x77);
        mem.write_u32(0x2000, 0x1000);
        let mut bus = OverlayBus::new(&mem);
        let mut vals = vec![0u32; fsmd.register_count()];
        let run = fsmd.execute(&mut vals, &mut bus, 1 << 10).unwrap();
        assert_eq!(run.return_value, Some(0x1005));
        assert!(bus.copied.has_page(0x100), "the stored-to page is copied");
        assert!(!bus.copied.has_page(0x2000), "a loaded page is not");
        // The copied page keeps the rest of memory's contents.
        assert_eq!(bus.read(0x104, MemWidth::W), Ok(0x77));
    }

    #[test]
    fn malformed_input_is_unexecutable_not_a_panic() {
        let mut f = Function::new("bad");
        let ghost = VReg(1000);
        let d = f.new_vreg();
        f.block_mut(f.entry).push(Op::Copy {
            dst: d,
            src: Operand::Reg(ghost),
        });
        f.block_mut(f.entry).term = Terminator::Return { value: None };
        let lower = |f: &Function, schedule: &KernelSchedule| {
            Fsmd::compile(f, &NO_COUNTS, schedule, f.entry).map(|_| ())
        };
        // A register outside the function.
        let good = schedule(&f, &[f.entry]);
        assert_eq!(lower(&f, &good), Err(FsmdError::Unexecutable));
        // A schedule that does not fit its block's ops.
        f.block_mut(f.entry).ops.clear();
        assert_eq!(lower(&f, &good), Err(FsmdError::Unexecutable));
        // A region block outside the function.
        let bare = |id| ScheduledBlock {
            id,
            schedule: None,
            pipe: None,
        };
        let mut outside = KernelSchedule {
            blocks: vec![bare(f.entry), bare(BlockId(9))],
            loops: Vec::new(),
        };
        assert_eq!(lower(&f, &outside), Err(FsmdError::Unexecutable));
        // A pipelined loop outside the region, or one the schedule lacks.
        outside.blocks.pop();
        assert_eq!(lower(&f, &outside), Ok(()));
        outside.loops.push(PipelinedLoop {
            header: BlockId(9),
            ii: 1,
            fill: 0,
            stall: 0,
            trip_count: None,
            depth: 1,
            critical_ns: 0.0,
        });
        assert_eq!(lower(&f, &outside), Err(FsmdError::Unexecutable));
        outside.loops.clear();
        outside.blocks[0].pipe = Some(0);
        assert_eq!(lower(&f, &outside), Err(FsmdError::Unexecutable));
        outside.blocks[0].pipe = None;
        // A jump outside the function.
        f.block_mut(f.entry).term = Terminator::Jump(BlockId(9));
        assert_eq!(lower(&f, &outside), Err(FsmdError::Unexecutable));
        // An unfinished terminator faults only when reached.
        f.block_mut(f.entry).term = Terminator::None;
        let fsmd = compile_whole(&f);
        let mem = Memory::new();
        let mut vals = vec![0u32; fsmd.register_count()];
        assert_eq!(
            fsmd.execute(&mut vals, &mut OverlayBus::new(&mem), 64)
                .unwrap_err(),
            FsmdError::Unexecutable
        );
        // A register file shorter than the program's.
        f.block_mut(f.entry).push(Op::Const { dst: d, value: 3 });
        f.block_mut(f.entry).term = Terminator::Return { value: None };
        let fsmd = compile_whole(&f);
        let mut short = vec![0u32; fsmd.register_count() - 1];
        assert_eq!(
            fsmd.execute(&mut short, &mut OverlayBus::new(&mem), 64)
                .unwrap_err(),
            FsmdError::Unexecutable
        );
    }
}

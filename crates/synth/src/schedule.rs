//! Chaining-aware list scheduling, loop pipelining (ResMII/RecMII), binding,
//! and area/clock estimation.

use crate::estimate::KeyMap;
use crate::tech::{classify, FuClass, TechLibrary};
use binpart_cdfg::ir::{BlockCounts, BlockId, Function, Op, Operand, VReg};
use binpart_cdfg::loops::LoopForest;

/// Resource constraints for one kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceBudget {
    /// Hard multiplier blocks available to the kernel.
    pub multipliers: u32,
    /// Memory ports (2 for dual-ported block RAM).
    pub mem_ports: u32,
    /// Target clock period in ns (chaining budget per cycle).
    pub target_period_ns: f64,
}

impl Default for ResourceBudget {
    fn default() -> Self {
        ResourceBudget {
            multipliers: 8,
            mem_ports: 4,
            target_period_ns: 18.0,
        }
    }
}

/// Schedule of one basic block (or flattened loop iteration).
#[derive(Debug, Clone)]
pub struct BlockSchedule {
    /// Step assigned to each scheduled op, in op order.
    pub steps: Vec<u32>,
    /// Total steps (≥ 1).
    pub depth: u32,
    /// Longest combinational chain used, ns.
    pub critical_ns: f64,
    /// FU usage per step and class: `usage[step][class as usize]` units
    /// busy (steps past the end use none).
    pub usage: Vec<ClassCounts>,
}

/// One count per [`FuClass`], indexed by `class as usize`.
pub type ClassCounts = [u32; FuClass::ALL.len()];

/// Adds one busy unit of `class` at `step`.
fn occupy(usage: &mut Vec<ClassCounts>, class: FuClass, step: u32) {
    let row = step as usize;
    if usage.len() <= row {
        usage.resize(row + 1, [0; FuClass::ALL.len()]);
    }
    usage[row][class as usize] += 1;
}

/// Schedules the ops of one iteration/block with operator chaining and
/// resource constraints.
pub fn schedule_ops(
    f: &Function,
    ops: &[&Op],
    lib: &TechLibrary,
    budget: &ResourceBudget,
    mem_in_bram: bool,
) -> BlockSchedule {
    let n = ops.len();
    // def index within this op list
    let mut def_at: KeyMap<VReg, usize> = KeyMap::with_capacity_and_hasher(n, Default::default());
    for (i, op) in ops.iter().enumerate() {
        if let Some(d) = op.dst() {
            def_at.insert(d, i);
        }
    }
    // List scheduling with chaining.
    let mut step = vec![0u32; n];
    let mut ready_ns = vec![0.0f64; n]; // time within its step when result is ready
    let mut latency = vec![0u32; n]; // cycles of each scheduled op
    let mut usage: Vec<ClassCounts> = Vec::new();
    let mut critical: f64 = 0.0;
    let mut depth: u32 = 1;
    let mut last_store: Option<usize> = None;
    for i in 0..n {
        let op = ops[i];
        let class = classify(op);
        let bits = op.dst().map_or(32, |d| f.bits_of(d));
        let d_ns = lib.delay_ns(class, bits);
        let cycles = lib.cycles(class, mem_in_bram);
        // Earliest by data deps (with chaining inside a step): the producer
        // of each register operand, then memory order (the last earlier
        // store, for loads and stores).
        let mut s = 0u32;
        let mut start_ns = 0.0f64;
        let mut after = |j: usize| {
            let j_cycles = latency[j];
            let j_done_step = step[j] + j_cycles - 1;
            if j_cycles > 1 {
                // multi-cycle producers register their result: consume next step
                if j_done_step + 1 > s {
                    s = j_done_step + 1;
                    start_ns = 0.0;
                }
            } else {
                match j_done_step.cmp(&s) {
                    std::cmp::Ordering::Greater => {
                        s = j_done_step;
                        start_ns = ready_ns[j];
                    }
                    std::cmp::Ordering::Equal => start_ns = start_ns.max(ready_ns[j]),
                    std::cmp::Ordering::Less => {}
                }
            }
        };
        op.for_each_use(|o| {
            if let Operand::Reg(r) = o {
                if let Some(&j) = def_at.get(r) {
                    if j < i {
                        after(j);
                    }
                }
            }
        });
        match op {
            Op::Store { .. } => {
                if let Some(j) = last_store {
                    after(j);
                }
                last_store = Some(i);
            }
            Op::Load { .. } => {
                if let Some(j) = last_store {
                    after(j);
                }
            }
            _ => {}
        }
        // Chaining budget: spill to the next step when the chain overflows.
        if start_ns + d_ns + lib.ff_overhead_ns > budget.target_period_ns && start_ns > 0.0 {
            s += 1;
            start_ns = 0.0;
        }
        // Resource constraints.
        let limit = |c: FuClass| match c {
            FuClass::Mult => Some(budget.multipliers),
            FuClass::Mem => Some(budget.mem_ports),
            FuClass::Div => Some(1),
            _ => None,
        };
        if let Some(max) = limit(class) {
            loop {
                let used = usage.get(s as usize).map_or(0, |row| row[class as usize]);
                if used < max {
                    break;
                }
                s += 1;
                start_ns = 0.0;
            }
            // occupy the unit for its full latency
            for k in 0..cycles {
                occupy(&mut usage, class, s + k);
            }
        } else if class != FuClass::Free {
            occupy(&mut usage, class, s);
        }
        step[i] = s;
        latency[i] = cycles;
        ready_ns[i] = if cycles > 1 { 0.0 } else { start_ns + d_ns };
        critical = critical.max(start_ns + d_ns + lib.ff_overhead_ns);
        depth = depth.max(s + cycles);
    }
    BlockSchedule {
        steps: step,
        depth,
        critical_ns: critical.max(lib.ff_overhead_ns),
        usage,
    }
}

/// Recurrence-constrained minimum initiation interval of a loop iteration:
/// the longest dependence cycle through header phis, in cycles.
pub fn rec_mii(
    f: &Function,
    loop_blocks: &[BlockId],
    header: BlockId,
    lib: &TechLibrary,
    budget: &ResourceBudget,
    mem_in_bram: bool,
) -> u32 {
    // Longest path (in cycle units) from each header phi to the register it
    // receives from the latch.
    let mut def_site: KeyMap<VReg, (&Op, BlockId)> = KeyMap::default();
    for &b in loop_blocks {
        for inst in &f.block(b).ops {
            if let Some(d) = inst.op.dst() {
                def_site.insert(d, (&inst.op, b));
            }
        }
    }
    let mut best = 1u32;
    for inst in &f.block(header).ops {
        let Op::Phi { args, .. } = &inst.op else {
            continue;
        };
        for (p, a) in args {
            if !loop_blocks.contains(p) {
                continue;
            }
            let Operand::Reg(back) = a else { continue };
            // accumulate delay along the chain feeding `back`
            let mut delay_ns = 0.0f64;
            let mut cycles = 0u32;
            let mut cur = *back;
            let mut hops = 0;
            while let Some(&(op, _)) = def_site.get(&cur) {
                hops += 1;
                if hops > 64 {
                    break;
                }
                let class = classify(op);
                let c = lib.cycles(class, mem_in_bram);
                if c > 1 {
                    cycles += c;
                } else {
                    delay_ns += lib.delay_ns(class, op.dst().map_or(32, |d| f.bits_of(d)));
                }
                if let Op::Phi { .. } = op {
                    break;
                }
                // follow the first register operand (longest chains in
                // reductions are linear)
                let mut next = None;
                op.for_each_use(|o| {
                    if next.is_none() {
                        if let Operand::Reg(r) = o {
                            if def_site.contains_key(r) {
                                next = Some(*r);
                            }
                        }
                    }
                });
                match next {
                    Some(r) => cur = r,
                    None => break,
                }
            }
            let chain_cycles = cycles + (delay_ns / budget.target_period_ns).ceil().max(1.0) as u32;
            best = best.max(chain_cycles);
        }
    }
    best
}

/// Resource-constrained minimum initiation interval.
pub fn res_mii(ops: &[&Op], budget: &ResourceBudget, lib: &TechLibrary, mem_in_bram: bool) -> u32 {
    let mut mem = 0u32;
    let mut mul = 0u32;
    let mut div = 0u32;
    for op in ops {
        match classify(op) {
            FuClass::Mem => mem += lib.cycles(FuClass::Mem, mem_in_bram),
            FuClass::Mult => mul += 1,
            FuClass::Div => div += lib.cycles(FuClass::Div, mem_in_bram),
            _ => {}
        }
    }
    let mut ii = 1;
    ii = ii.max(mem.div_ceil(budget.mem_ports.max(1)));
    ii = ii.max(mul.div_ceil(budget.multipliers.max(1)));
    ii = ii.max(div);
    ii
}

/// [`res_mii`] with the memory-port pressure term removed: the II the loop
/// would reach if the bus were infinitely ported. The gap between the full
/// II and `max(rec_mii, res_mii_nonmem)` is the per-iteration cycle count
/// attributable to memory-bus contention — the hardware profiler's
/// `BusStall` category.
pub fn res_mii_nonmem(
    ops: &[&Op],
    budget: &ResourceBudget,
    lib: &TechLibrary,
    mem_in_bram: bool,
) -> u32 {
    let mut mul = 0u32;
    let mut div = 0u32;
    for op in ops {
        match classify(op) {
            FuClass::Mult => mul += 1,
            FuClass::Div => div += lib.cycles(FuClass::Div, mem_in_bram),
            _ => {}
        }
    }
    let mut ii = 1;
    ii = ii.max(mul.div_ceil(budget.multipliers.max(1)));
    ii = ii.max(div);
    ii
}

/// Area accounting for a scheduled kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaEstimate {
    /// Datapath LUTs.
    pub luts: f64,
    /// Flip-flops.
    pub ffs: f64,
    /// Hard multiplier blocks.
    pub mult_blocks: u32,
    /// Block-RAM blocks.
    pub bram_blocks: u64,
    /// Total in gate equivalents.
    pub gate_equivalents: u64,
}

/// Estimates area from FU usage maxima plus registers, muxes, control, and
/// block RAM.
pub fn estimate_area(
    f: &Function,
    all_ops: &[&Op],
    schedules: &[&BlockSchedule],
    lib: &TechLibrary,
    states: u32,
    bram_bytes: u64,
) -> AreaEstimate {
    // FUs: maximum concurrent usage of each class at its widest width.
    let mut width_of_class: [Option<u8>; FuClass::ALL.len()] = [None; FuClass::ALL.len()];
    for op in all_ops {
        let w = &mut width_of_class[classify(op) as usize];
        let bits = op.dst().map_or(32, |d| f.bits_of(d));
        *w = Some(w.unwrap_or(0).max(bits));
    }
    let mut max_usage: ClassCounts = [0; FuClass::ALL.len()];
    for row in schedules.iter().flat_map(|sched| &sched.usage) {
        for (m, &n) in max_usage.iter_mut().zip(row) {
            *m = (*m).max(n);
        }
    }
    // Every LUT count is a multiple of 0.5, so this sum is exact in any
    // class order.
    let mut luts = 0.0;
    let mut mult_blocks = 0u32;
    for (c, &n) in FuClass::ALL.into_iter().zip(&max_usage) {
        if n == 0 {
            continue;
        }
        let w = width_of_class[c as usize].unwrap_or(32);
        luts += lib.luts(c, w) * n as f64;
        if c == FuClass::Mult {
            let blocks_per = if w <= 18 { 1 } else { 3 };
            mult_blocks += n * blocks_per;
        }
    }
    // Registers: one per produced value (pipeline registers dominate).
    let ffs: f64 = all_ops
        .iter()
        .filter_map(|o| o.dst())
        .map(|d| f.bits_of(d) as f64)
        .sum();
    // Sharing muxes: ~25% of datapath, control: per-state decode.
    let mux_luts = luts * 0.25;
    let control_luts = states as f64 * 2.0;
    let total_luts = luts + mux_luts + control_luts;
    let bram_blocks = lib.bram_blocks(bram_bytes);
    let gates = total_luts * lib.gates_per_lut
        + ffs * lib.gates_per_ff
        + mult_blocks as f64 * lib.gates_per_mult
        + bram_blocks as f64 * lib.gates_per_bram;
    AreaEstimate {
        luts: total_luts,
        ffs,
        mult_blocks,
        bram_blocks,
        gate_equivalents: gates.round() as u64,
    }
}

/// Collects the ops of a loop's blocks flattened into one iteration body.
pub fn loop_iteration_ops<'f>(f: &'f Function, blocks: &[BlockId]) -> Vec<&'f Op> {
    let mut ops = Vec::new();
    for &b in blocks {
        for inst in &f.block(b).ops {
            ops.push(&inst.op);
        }
    }
    ops
}

/// One region block with the schedule synthesis gave it.
#[derive(Debug, Clone)]
pub struct ScheduledBlock {
    /// The block.
    pub id: BlockId,
    /// Its control-step schedule; `None` for a block without ops, which
    /// occupies one control step.
    pub schedule: Option<BlockSchedule>,
    /// Index into [`KernelSchedule::loops`] of the pipelined loop covering
    /// the block, if any.
    pub pipe: Option<usize>,
}

/// One innermost loop of the region, software-pipelined at its initiation
/// interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelinedLoop {
    /// The loop header: one header execution is one steady-state
    /// iteration.
    pub header: BlockId,
    /// Initiation interval, `max(ResMII, RecMII)`.
    pub ii: u32,
    /// Pipeline fill cost paid once per entry: `depth - II`.
    pub fill: u32,
    /// The share of the II forced by memory-port contention:
    /// `II - max(RecMII, ResMII-without-mem)`.
    pub stall: u32,
    /// The loop's static trip count, when known.
    pub trip_count: Option<u64>,
    /// Schedule depth of one flattened iteration.
    pub depth: u32,
    /// Longest combinational chain of that iteration schedule, ns.
    pub critical_ns: f64,
}

/// Every schedule a kernel was priced from, computed once by
/// [`schedule_kernel`]: the cycle estimate, the area estimate, the RTL and
/// the executed FSMD (`binpart-hwsim`) all read these tables.
#[derive(Debug, Clone)]
pub struct KernelSchedule {
    /// Every region block, in region order.
    pub blocks: Vec<ScheduledBlock>,
    /// The innermost loops fully inside the region, in loop-forest order.
    pub loops: Vec<PipelinedLoop>,
}

/// Schedules a region of `f` once: every region block's ops as one block
/// schedule, and every innermost loop of `forest` (the loop forest of `f`)
/// that lies fully inside the region as one flattened, pipelined iteration.
pub fn schedule_kernel(
    f: &Function,
    forest: &LoopForest,
    region: &[BlockId],
    lib: &TechLibrary,
    budget: &ResourceBudget,
    mem_in_bram: bool,
) -> KernelSchedule {
    let all = forest.loops();
    let mut pipelined = Vec::new();
    let mut loops = Vec::new();
    for (li, l) in all.iter().enumerate() {
        let is_innermost = !all.iter().any(|o| o.parent == Some(li));
        if !is_innermost || !l.blocks.iter().all(|b| region.contains(b)) {
            continue;
        }
        let ops = loop_iteration_ops(f, &l.blocks);
        let sched = schedule_ops(f, &ops, lib, budget, mem_in_bram);
        let rmii = rec_mii(f, &l.blocks, l.header, lib, budget, mem_in_bram);
        let ii = rmii.max(res_mii(&ops, budget, lib, mem_in_bram));
        // What the II would be with infinite memory ports; the gap is the
        // bus-contention share of every steady-state iteration.
        let nonmem = rmii.max(res_mii_nonmem(&ops, budget, lib, mem_in_bram));
        loops.push(PipelinedLoop {
            header: l.header,
            ii,
            fill: sched.depth.saturating_sub(ii),
            stall: ii.saturating_sub(nonmem),
            trip_count: l.trip_count,
            depth: sched.depth,
            critical_ns: sched.critical_ns,
        });
        pipelined.push(l);
    }
    let blocks = region
        .iter()
        .map(|&b| {
            let ops: Vec<&Op> = f.block(b).ops.iter().map(|i| &i.op).collect();
            ScheduledBlock {
                id: b,
                schedule: (!ops.is_empty())
                    .then(|| schedule_ops(f, &ops, lib, budget, mem_in_bram)),
                // Innermost loops are disjoint; should two share a block,
                // the later one covers it.
                pipe: pipelined.iter().rposition(|l| l.contains(b)),
            }
        })
        .collect();
    KernelSchedule { blocks, loops }
}

/// Kernel timing summary derived from schedules + profile counts.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTiming {
    /// Total hardware cycles (all invocations, from profile counts).
    pub hw_cycles: u64,
    /// Initiation interval of the hottest pipelined loop (1 = fully
    /// pipelined).
    pub innermost_ii: u32,
    /// Schedule depth of the hottest loop iteration.
    pub innermost_depth: u32,
    /// Achieved clock in MHz.
    pub clock_mhz: f64,
}

/// Estimates total kernel cycles from a region's [`KernelSchedule`].
///
/// Innermost loops are software-pipelined at their computed II; all other
/// blocks execute their block schedule sequentially, weighted by the
/// profiled execution counts of `f`'s blocks in `counts`.
pub fn estimate_kernel_cycles(
    f: &Function,
    counts: &BlockCounts,
    schedule: &KernelSchedule,
    lib: &TechLibrary,
    budget: &ResourceBudget,
) -> KernelTiming {
    let mut total: u64 = 0;
    let mut critical: f64 = lib.ff_overhead_ns;
    let mut hot_ii = 1u32;
    let mut hot_depth = 1u32;
    let mut hot_count = 0u64;
    for l in &schedule.loops {
        // Rerolled loops: one profiled execution of the original
        // (unrolled) header stands for `reroll_factor` logical iterations
        // of the rerolled body — count the logical ones.
        let iters = counts.get(l.header) * u64::from(f.block(l.header).reroll_factor);
        // entries ≈ iterations / trip-count (1 when unknown)
        let entries = match l.trip_count {
            Some(t) if t > 0 => iters.div_ceil(t),
            _ => 1,
        };
        total += iters * l.ii as u64 + entries * l.fill as u64;
        critical = critical.max(l.critical_ns);
        if iters >= hot_count {
            hot_count = iters;
            hot_ii = l.ii;
            hot_depth = l.depth;
        }
    }
    // Remaining region blocks: sequential schedules.
    for b in schedule.blocks.iter().filter(|b| b.pipe.is_none()) {
        let count = counts.get(b.id) * u64::from(f.block(b.id).reroll_factor);
        match &b.schedule {
            // control-only block: 1 cycle
            None => total += count,
            Some(sched) => {
                total += count * sched.depth as u64;
                critical = critical.max(sched.critical_ns);
            }
        }
    }
    let clock_mhz = (1000.0 / critical.max(1.0)).min(1000.0 / budget.target_period_ns * 3.0);
    KernelTiming {
        hw_cycles: total.max(1),
        innermost_ii: hot_ii,
        innermost_depth: hot_depth,
        clock_mhz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use binpart_cdfg::ir::{BinOp, MemWidth, Operand, Terminator};

    fn lib() -> TechLibrary {
        TechLibrary::virtex2()
    }

    /// Builds a chain a+b -> +c -> +d (3 dependent adds).
    fn chain_function() -> (Function, Vec<Op>) {
        let mut f = Function::new("chain");
        let mut regs = Vec::new();
        for _ in 0..6 {
            regs.push(f.new_vreg());
        }
        let ops = vec![
            Op::Bin {
                op: BinOp::Add,
                dst: regs[3],
                lhs: Operand::Reg(regs[0]),
                rhs: Operand::Reg(regs[1]),
            },
            Op::Bin {
                op: BinOp::Add,
                dst: regs[4],
                lhs: Operand::Reg(regs[3]),
                rhs: Operand::Reg(regs[2]),
            },
            Op::Bin {
                op: BinOp::Add,
                dst: regs[5],
                lhs: Operand::Reg(regs[4]),
                rhs: Operand::Const(1),
            },
        ];
        (f, ops)
    }

    #[test]
    fn chaining_packs_dependent_adds_into_few_steps() {
        let (f, ops) = chain_function();
        let refs: Vec<&Op> = ops.iter().collect();
        let s = schedule_ops(&f, &refs, &lib(), &ResourceBudget::default(), true);
        // 3 adds at ~4ns each chain within an 18ns period -> depth 1
        assert_eq!(s.depth, 1, "{s:?}");
        assert!(s.critical_ns <= 18.0);
    }

    #[test]
    fn tight_period_forces_more_steps() {
        let (f, ops) = chain_function();
        let refs: Vec<&Op> = ops.iter().collect();
        let budget = ResourceBudget {
            target_period_ns: 6.0,
            ..Default::default()
        };
        let s = schedule_ops(&f, &refs, &lib(), &budget, true);
        assert!(s.depth >= 2, "{s:?}");
    }

    #[test]
    fn independent_ops_share_a_step() {
        let mut f = Function::new("par");
        let mut ops = Vec::new();
        for _ in 0..4 {
            let a = f.new_vreg();
            let b = f.new_vreg();
            let d = f.new_vreg();
            ops.push(Op::Bin {
                op: BinOp::Add,
                dst: d,
                lhs: Operand::Reg(a),
                rhs: Operand::Reg(b),
            });
        }
        let refs: Vec<&Op> = ops.iter().collect();
        let s = schedule_ops(&f, &refs, &lib(), &ResourceBudget::default(), true);
        assert_eq!(s.depth, 1);
    }

    #[test]
    fn memory_port_limit_serializes_loads() {
        let mut f = Function::new("mem");
        let mut ops = Vec::new();
        for k in 0..6 {
            let d = f.new_vreg();
            ops.push(Op::Load {
                dst: d,
                addr: Operand::Const(k * 4),
                width: MemWidth::W,
                signed: false,
            });
        }
        let refs: Vec<&Op> = ops.iter().collect();
        let budget = ResourceBudget {
            mem_ports: 2,
            ..Default::default()
        };
        let s = schedule_ops(&f, &refs, &lib(), &budget, true);
        // 6 loads over 2 ports -> at least 3 steps
        assert!(s.depth >= 3, "{s:?}");
    }

    #[test]
    fn external_memory_is_slower_than_bram() {
        let mut f = Function::new("mem2");
        let mut ops = Vec::new();
        for k in 0..4 {
            let d = f.new_vreg();
            ops.push(Op::Load {
                dst: d,
                addr: Operand::Const(k * 4),
                width: MemWidth::W,
                signed: false,
            });
        }
        let refs: Vec<&Op> = ops.iter().collect();
        let bram = schedule_ops(&f, &refs, &lib(), &ResourceBudget::default(), true);
        let ext = schedule_ops(&f, &refs, &lib(), &ResourceBudget::default(), false);
        assert!(ext.depth > bram.depth, "{} vs {}", ext.depth, bram.depth);
    }

    #[test]
    fn res_mii_counts_ports_and_multipliers() {
        let mut f = Function::new("m");
        let mut ops = Vec::new();
        for _ in 0..4 {
            let a = f.new_vreg();
            let d = f.new_vreg();
            ops.push(Op::Bin {
                op: BinOp::Mul,
                dst: d,
                lhs: Operand::Reg(a),
                rhs: Operand::Const(3),
            });
        }
        let refs: Vec<&Op> = ops.iter().collect();
        let budget = ResourceBudget {
            multipliers: 2,
            ..Default::default()
        };
        assert_eq!(res_mii(&refs, &budget, &lib(), true), 2);
    }

    #[test]
    fn area_grows_with_width() {
        let mut f = Function::new("w");
        let a = f.new_vreg();
        let b = f.new_vreg();
        let d = f.new_vreg();
        let op = Op::Bin {
            op: BinOp::Add,
            dst: d,
            lhs: Operand::Reg(a),
            rhs: Operand::Reg(b),
        };
        let ops = [&op];
        let budget = ResourceBudget::default();
        let s = schedule_ops(&f, &ops, &lib(), &budget, true);
        let wide = estimate_area(&f, &ops, &[&s], &lib(), 4, 0);
        f.vreg_bits = vec![8; f.vreg_count() as usize];
        let narrow = estimate_area(&f, &ops, &[&s], &lib(), 4, 0);
        assert!(
            narrow.gate_equivalents < wide.gate_equivalents,
            "narrow {} wide {}",
            narrow.gate_equivalents,
            wide.gate_equivalents
        );
    }

    #[test]
    fn kernel_cycles_respect_profile() {
        // single-block self loop with profiled counts
        let mut f = Function::new("k");
        let header = f.add_block();
        let exit = f.add_block();
        let i0 = f.new_vreg();
        let c = f.new_vreg();
        f.block_mut(f.entry).term = Terminator::Jump(header);
        f.block_mut(header).push(Op::Bin {
            op: BinOp::Add,
            dst: i0,
            lhs: Operand::Reg(i0),
            rhs: Operand::Const(1),
        });
        f.block_mut(header).push(Op::Bin {
            op: BinOp::LtS,
            dst: c,
            lhs: Operand::Reg(i0),
            rhs: Operand::Const(100),
        });
        f.block_mut(header).term = Terminator::Branch {
            cond: Operand::Reg(c),
            t: header,
            f: exit,
        };
        f.block_mut(exit).term = Terminator::Return { value: None };
        binpart_cdfg::ssa::construct(&mut f);
        // profile counts: header ran 100 times
        let header_id = f.block_ids().find(|&b| !f.block(b).ops.is_empty()).unwrap();
        let counts: BlockCounts = f
            .block_ids()
            .map(|b| if b == header_id { 100 } else { 0 })
            .collect();
        let forest = LoopForest::compute(&f);
        let region: Vec<BlockId> = f.block_ids().collect();
        let budget = ResourceBudget::default();
        let schedule = schedule_kernel(&f, &forest, &region, &lib(), &budget, true);
        let t = estimate_kernel_cycles(&f, &counts, &schedule, &lib(), &budget);
        // II=1 loop with 100 iterations: ~100 cycles, far below SW
        assert!(t.hw_cycles >= 100 && t.hw_cycles < 160, "{t:?}");
        assert!(t.clock_mhz > 20.0);

        // A rerolled loop counts logical iterations: the same profile with
        // a 4x reroll factor must estimate ~4x the cycles (the profiled
        // count was taken on the unrolled original).
        f.block_mut(header_id).reroll_factor = 4;
        let t4 = estimate_kernel_cycles(&f, &counts, &schedule, &lib(), &budget);
        assert!(
            t4.hw_cycles >= 4 * t.hw_cycles - 64 && t4.hw_cycles >= 400,
            "rerolled {t4:?} vs {t:?}"
        );
    }
}

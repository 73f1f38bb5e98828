//! **Stack operation removal**, the paper's pass that undoes the stack
//! traffic a compiler emits for spills, saved registers and the `$ra`
//! home: word-sized frame slots whose addresses never escape become
//! virtual registers. It runs before SSA construction, so the promoted
//! slots get SSA names like any other register.

use super::PassStats;
use binpart_cdfg::ir::{BinOp, Function, Inst, MemWidth, Op, Operand, VReg};
use std::collections::HashMap;

/// The stack pointer, `$sp`.
const SP: VReg = VReg(29);

/// Epoch-stamped dense map from register to sp-relative offset, reset per
/// block in O(1) (used by [`stack_op_removal`]).
struct DenseDerived {
    epoch: u32,
    stamp: Vec<u32>,
    off: Vec<i64>,
}

impl DenseDerived {
    fn new(n: usize) -> DenseDerived {
        DenseDerived {
            epoch: 0,
            stamp: vec![0; n],
            off: vec![0; n],
        }
    }

    fn next_block(&mut self) {
        self.epoch += 1;
    }

    fn insert(&mut self, r: VReg, c: i64) {
        if r.index() < self.stamp.len() {
            self.stamp[r.index()] = self.epoch;
            self.off[r.index()] = c;
        }
    }

    fn remove(&mut self, r: &VReg) {
        if r.index() < self.stamp.len() {
            self.stamp[r.index()] = 0;
        }
    }

    fn get(&self, r: &VReg) -> Option<&i64> {
        if r.index() < self.stamp.len() && self.stamp[r.index()] == self.epoch {
            Some(&self.off[r.index()])
        } else {
            None
        }
    }

    /// The sp-relative offset an address operand points at, if known.
    fn slot_of(&self, addr: &Operand) -> Option<i64> {
        match addr {
            Operand::Reg(r) if *r == SP => Some(0),
            Operand::Reg(r) => self.get(r).copied(),
            Operand::Const(_) => None,
        }
    }
}

/// Pre-SSA stack operation removal.
///
/// Finds the frame adjustment (`sp -= N` / `sp += N`), tracks `sp`-relative
/// addresses per block, and promotes word-sized slots whose addresses never
/// escape to fresh virtual registers. Slots above the lowest escaping base
/// (local arrays, address-taken scalars) are left in memory.
pub fn stack_op_removal(f: &mut Function, stats: &mut PassStats) {
    // 1. Find the frame size from the entry block's `sp = sp + (-N)`.
    let mut frame: Option<i64> = None;
    for inst in &f.block(f.entry).ops {
        if let Op::Bin {
            op: BinOp::Add,
            dst,
            lhs: Operand::Reg(r),
            rhs: Operand::Const(c),
        } = inst.op
        {
            if dst == SP && r == SP && c < 0 {
                frame = Some(-c);
                break;
            }
        }
    }
    let Some(frame) = frame else { return };

    // 2. Scan: classify every sp-derived value per block; find accesses and
    //    escapes. Sp-derived values are `Add(sp, const)` temporaries.
    #[derive(Clone, Copy, PartialEq)]
    enum Acc {
        Word,
        Narrow,
    }
    let mut slot_access: HashMap<i64, Acc> = HashMap::new();
    // A slot accessed both as a word and narrower counts as narrow.
    let mut record = |off: i64, width: MemWidth| {
        let acc = if width.bytes() == 4 {
            Acc::Word
        } else {
            Acc::Narrow
        };
        let seen = slot_access.entry(off).or_insert(acc);
        if *seen != acc {
            *seen = Acc::Narrow;
        }
    };
    let mut min_escape: i64 = frame;
    let mut whole_frame_escape = false;
    // Per-block sp-derived values as an epoch-stamped dense array (one
    // allocation for the whole pass instead of a hash map per block).
    let nv0 = f.vreg_count() as usize;
    let mut derived = DenseDerived::new(nv0);
    for b in f.block_ids() {
        derived.next_block();
        for inst in &f.block(b).ops {
            // Which of this op's *uses* are sp or sp-derived, and how?
            match &inst.op {
                Op::Bin {
                    op: BinOp::Add,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let sp_side = |o: &Operand| matches!(o, Operand::Reg(r) if *r == SP);
                    if sp_side(lhs) || sp_side(rhs) {
                        let c = lhs.as_const().or(rhs.as_const());
                        match c {
                            Some(c) if *dst != SP => {
                                derived.insert(*dst, c);
                            }
                            Some(_) => {} // the prologue/epilogue adjust
                            None => whole_frame_escape = true,
                        }
                        continue;
                    }
                    // non-sp add consuming a derived value: pointer
                    // arithmetic off a frame object -> its base escapes
                    for o in [lhs, rhs] {
                        if let Operand::Reg(r) = o {
                            if let Some(&off) = derived.get(r) {
                                min_escape = min_escape.min(off);
                            }
                        }
                    }
                    derived.remove(dst);
                }
                Op::Load {
                    dst, addr, width, ..
                } => {
                    if let Some(off) = derived.slot_of(addr) {
                        record(off, *width);
                    }
                    derived.remove(dst);
                }
                Op::Store { src, addr, width } => {
                    // storing a derived value leaks the address
                    if let Operand::Reg(r) = src {
                        if let Some(&off) = derived.get(r) {
                            min_escape = min_escape.min(off);
                        }
                        if *r == SP {
                            whole_frame_escape = true;
                        }
                    }
                    if let Some(off) = derived.slot_of(addr) {
                        record(off, *width);
                    }
                }
                Op::Call { args, .. } => {
                    for a in args {
                        if let Operand::Reg(r) = a {
                            if let Some(&off) = derived.get(r) {
                                min_escape = min_escape.min(off);
                            }
                            if *r == SP {
                                whole_frame_escape = true;
                            }
                        }
                    }
                    // calls may define v0; drop any derived there
                }
                other => {
                    // any other use of sp or a derived value escapes
                    other.for_each_use(|o| {
                        if let Operand::Reg(r) = o {
                            if *r == SP {
                                whole_frame_escape = true;
                            } else if let Some(&off) = derived.get(r) {
                                min_escape = min_escape.min(off);
                            }
                        }
                    });
                    if let Some(d) = other.dst() {
                        derived.remove(&d);
                    }
                }
            }
        }
        let term_uses_sp = {
            let mut found = false;
            f.block(b).term.for_each_use(|o| {
                if let Operand::Reg(r) = o {
                    if *r == SP || derived.get(r).is_some() {
                        found = true;
                    }
                }
            });
            found
        };
        if term_uses_sp {
            whole_frame_escape = true;
        }
    }
    if whole_frame_escape {
        return;
    }
    // 3. Promote: word slots below the escape line get fresh registers.
    let mut promotable: Vec<i64> = slot_access
        .iter()
        .filter(|(off, acc)| **off < min_escape && **off >= 0 && **acc == Acc::Word)
        .map(|(off, _)| *off)
        .collect();
    // Fresh registers in frame order, not the map's per-process order:
    // a slot read before any write keeps its pre-SSA name as a live-in.
    promotable.sort_unstable();
    if promotable.is_empty() {
        return;
    }
    let mut slot_reg: HashMap<i64, VReg> = HashMap::new();
    for &off in &promotable {
        slot_reg.insert(off, f.new_vreg());
    }
    stats.stack_slots_promoted += promotable.len();
    let mut derived = DenseDerived::new(nv0.max(f.vreg_count() as usize));
    for b in f.block_ids().collect::<Vec<_>>() {
        derived.next_block();
        let ops = std::mem::take(&mut f.block_mut(b).ops);
        let mut new_ops = Vec::with_capacity(ops.len());
        for inst in ops {
            match &inst.op {
                Op::Bin {
                    op: BinOp::Add,
                    dst,
                    lhs,
                    rhs,
                } if *dst != SP => {
                    let sp_side = matches!(lhs, Operand::Reg(r) if *r == SP)
                        || matches!(rhs, Operand::Reg(r) if *r == SP);
                    if sp_side {
                        if let Some(c) = lhs.as_const().or(rhs.as_const()) {
                            derived.insert(*dst, c);
                        }
                    } else {
                        derived.remove(dst);
                    }
                    new_ops.push(inst);
                }
                Op::Load { dst, addr, .. } => {
                    match derived.slot_of(addr).and_then(|o| slot_reg.get(&o)) {
                        Some(&slot) => {
                            stats.stack_ops_removed += 1;
                            new_ops.push(Inst {
                                op: Op::Copy {
                                    dst: *dst,
                                    src: Operand::Reg(slot),
                                },
                                pc: inst.pc,
                            });
                        }
                        None => new_ops.push(inst.clone()),
                    }
                    if let Op::Load { dst, .. } = &inst.op {
                        derived.remove(dst);
                    }
                }
                Op::Store { src, addr, .. } => {
                    match derived.slot_of(addr).and_then(|o| slot_reg.get(&o)) {
                        Some(&slot) => {
                            stats.stack_ops_removed += 1;
                            new_ops.push(Inst {
                                op: Op::Copy {
                                    dst: slot,
                                    src: *src,
                                },
                                pc: inst.pc,
                            });
                        }
                        None => new_ops.push(inst),
                    }
                }
                other => {
                    if let Some(d) = other.dst() {
                        derived.remove(&d);
                    }
                    new_ops.push(inst);
                }
            }
        }
        f.block_mut(b).ops = new_ops;
    }
}

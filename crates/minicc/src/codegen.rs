//! MIPS code generation from TIR.
//!
//! * `-O0`: every scalar variable lives in a frame slot; each instruction
//!   loads its operands, computes, and stores back — the stack-heavy code
//!   the decompiler's *stack operation removal* pass exists for.
//! * `-O1+`: linear-scan register allocation over `$t0..$t7`/`$s0..$s7`
//!   (`$t8`/`$t9` are reserved scratch), with call-crossing live ranges
//!   preferring callee-saved registers.
//! * `-O2+`: branch delay slots are filled ([`Asm::fill_delay_slots`]) and
//!   dense switches become jump tables (`sltiu` bounds check + `lw` from a
//!   table in the data section + `jr`) — the indirect jumps that defeat
//!   plain CDFG recovery.

use crate::ast::Ty;
use crate::opt::OptLevel;
use crate::tir::{BlockId, MemW, Opnd, TBinOp, TFunc, TInst, TProgram, TTerm, TUnOp, VarId, VarKind};
use binpart_mips::{Asm, AsmError, Binary, BinaryBuilder, Label, Reg, Symbol, SymbolKind};
use std::collections::HashMap;
use std::fmt;

/// Code generation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// Label resolution failed (e.g. a branch span overflow).
    Asm(AsmError),
    /// The program has no `main`.
    NoMain,
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Asm(e) => write!(f, "{e}"),
            CodegenError::NoMain => write!(f, "program has no `main` function"),
        }
    }
}

impl std::error::Error for CodegenError {}

impl From<AsmError> for CodegenError {
    fn from(e: AsmError) -> Self {
        CodegenError::Asm(e)
    }
}

const SCRATCH_A: Reg = Reg::T8;
const SCRATCH_B: Reg = Reg::T9;
/// Allocatable caller-saved registers.
const TEMP_POOL: [Reg; 8] = [
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::T6,
    Reg::T7,
];

/// Where a scalar variable lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Reg(Reg),
    /// Index into the spill area.
    Spill(u32),
}

/// Emits a whole program.
///
/// # Errors
///
/// Returns [`CodegenError::NoMain`] when `main` is missing, or a label
/// resolution error for pathological layouts.
pub fn generate(prog: &TProgram, level: OptLevel) -> Result<Binary, CodegenError> {
    if prog.func("main").is_none() {
        return Err(CodegenError::NoMain);
    }
    // ---- global data layout ----
    let data_base = binpart_mips::DEFAULT_DATA_BASE;
    let mut data: Vec<u8> = Vec::new();
    let mut global_addr: Vec<u32> = Vec::new();
    let mut symbols: Vec<Symbol> = Vec::new();
    for g in &prog.globals {
        let align = g.ty.align().max(4); // word-align everything for the FPGA memory model
        while !data.len().is_multiple_of(align) {
            data.push(0);
        }
        let addr = data_base + data.len() as u32;
        global_addr.push(addr);
        let size = g.ty.size().max(4);
        let elem = match &g.ty {
            Ty::Array(e, _) => (**e).clone(),
            t => t.clone(),
        };
        let esz = elem.size();
        let count = size / esz.max(1);
        for k in 0..count {
            let v = g.init.get(k).copied().unwrap_or(0);
            let bytes = (v as u32).to_le_bytes();
            data.extend_from_slice(&bytes[..esz]);
        }
        while data.len() < (addr - data_base) as usize + size {
            data.push(0);
        }
        symbols.push(Symbol {
            name: g.name.clone(),
            addr,
            size: size as u32,
            kind: SymbolKind::Object,
        });
    }

    // ---- code ----
    let mut asm = Asm::with_text_base(binpart_mips::DEFAULT_TEXT_BASE);
    let func_labels: HashMap<String, Label> = prog
        .funcs
        .iter()
        .map(|f| (f.name.clone(), asm.new_label()))
        .collect();
    // Jump tables to patch into the data image after label resolution.
    let mut pending_tables: Vec<(usize, Vec<Label>)> = Vec::new();
    let mut func_start_indices = Vec::new();
    for f in &prog.funcs {
        asm.bind(func_labels[&f.name]);
        func_start_indices.push((f.name.clone(), asm.here()));
        let mut cg = FuncGen::new(f, level, &global_addr, &func_labels);
        cg.run(&mut asm, &mut data, &mut pending_tables, data_base)?;
    }
    if level >= OptLevel::O2 {
        asm.fill_delay_slots();
    }
    // Function symbols.
    for (name, idx) in &func_start_indices {
        symbols.push(Symbol {
            name: name.clone(),
            addr: binpart_mips::DEFAULT_TEXT_BASE + (*idx as u32) * 4,
            size: 0,
            kind: SymbolKind::Func,
        });
    }
    let main = func_labels["main"];
    let entry = asm.label_addr(main).ok_or(AsmError::UnboundLabel(main))?;
    // Patch jump tables now that labels are resolved.
    for (offset, labels) in &pending_tables {
        for (k, l) in labels.iter().enumerate() {
            let addr = asm.label_addr(*l).ok_or(AsmError::UnboundLabel(*l))?;
            data[offset + 4 * k..offset + 4 * k + 4].copy_from_slice(&addr.to_le_bytes());
        }
    }
    let text = asm.finish()?;
    Ok(BinaryBuilder::new()
        .text(text)
        .entry(entry)
        .data(data)
        .data_base(data_base)
        .build())
}

struct FuncGen<'a> {
    f: &'a TFunc,
    level: OptLevel,
    global_addr: &'a [u32],
    func_labels: &'a HashMap<String, Label>,
    loc: Vec<Loc>,
    frame_off: HashMap<VarId, u32>,
    spill_base: u32,
    frame_size: u32,
    used_sregs: Vec<Reg>,
    saves_ra: bool,
    block_labels: Vec<Label>,
    use_counts: Vec<u32>,
}

impl<'a> FuncGen<'a> {
    fn new(
        f: &'a TFunc,
        level: OptLevel,
        global_addr: &'a [u32],
        func_labels: &'a HashMap<String, Label>,
    ) -> FuncGen<'a> {
        FuncGen {
            f,
            level,
            global_addr,
            func_labels,
            loc: Vec::new(),
            frame_off: HashMap::new(),
            spill_base: 0,
            frame_size: 0,
            used_sregs: Vec::new(),
            saves_ra: false,
            block_labels: Vec::new(),
            use_counts: Vec::new(),
        }
    }

    fn run(
        &mut self,
        asm: &mut Asm,
        data: &mut Vec<u8>,
        pending_tables: &mut Vec<(usize, Vec<Label>)>,
        data_base: u32,
    ) -> Result<(), CodegenError> {
        self.analyze();
        self.allocate();
        self.layout_frame();
        self.block_labels = (0..self.f.blocks.len()).map(|_| asm.new_label()).collect();
        self.prologue(asm);
        for (bi, block) in self.f.blocks.iter().enumerate() {
            asm.bind(self.block_labels[bi]);
            let fused = self.emit_block_body(asm, block);
            self.emit_term(asm, bi, &block.term, fused, data, pending_tables, data_base);
        }
        Ok(())
    }

    fn analyze(&mut self) {
        self.use_counts = vec![0; self.f.vars.len()];
        for b in &self.f.blocks {
            for i in &b.insts {
                i.for_each_use(|o| {
                    if let Opnd::Var(v) = o {
                        self.use_counts[v.index()] += 1;
                    }
                });
            }
            b.term.for_each_use(|o| {
                if let Opnd::Var(v) = o {
                    self.use_counts[v.index()] += 1;
                }
            });
        }
        self.saves_ra = self
            .f
            .blocks
            .iter()
            .any(|b| b.insts.iter().any(|i| matches!(i, TInst::Call { .. })));
    }

    // ---- register allocation ----

    fn allocate(&mut self) {
        let nv = self.f.vars.len();
        let scalar = |v: usize| matches!(self.f.vars[v].kind, VarKind::Scalar);
        if self.level == OptLevel::O0 {
            // Everything in memory.
            let mut slot = 0;
            self.loc = (0..nv)
                .map(|v| {
                    if scalar(v) {
                        let s = Loc::Spill(slot);
                        slot += 1;
                        s
                    } else {
                        Loc::Spill(u32::MAX) // frame objects handled separately
                    }
                })
                .collect();
            return;
        }
        // Linear positions.
        let mut pos = 0usize;
        let mut block_range = Vec::new();
        let mut call_positions = Vec::new();
        let mut first: Vec<usize> = vec![usize::MAX; nv];
        let mut last: Vec<usize> = vec![0; nv];
        for b in &self.f.blocks {
            let start = pos;
            for i in &b.insts {
                if matches!(i, TInst::Call { .. }) {
                    call_positions.push(pos);
                }
                i.for_each_use(|o| {
                    if let Opnd::Var(v) = o {
                        first[v.index()] = first[v.index()].min(pos);
                        last[v.index()] = last[v.index()].max(pos);
                    }
                });
                if let Some(d) = i.dst() {
                    first[d.index()] = first[d.index()].min(pos);
                    last[d.index()] = last[d.index()].max(pos);
                }
                pos += 1;
            }
            b.term.for_each_use(|o| {
                if let Opnd::Var(v) = o {
                    first[v.index()] = first[v.index()].min(pos);
                    last[v.index()] = last[v.index()].max(pos);
                }
            });
            pos += 1;
            block_range.push((start, pos));
        }
        // Params are defined at entry.
        for &p in &self.f.params {
            first[p.index()] = 0;
        }
        // Liveness to extend intervals across blocks.
        let (live_in, live_out) = self.liveness();
        for (bi, (s, e)) in block_range.iter().enumerate() {
            for v in 0..nv {
                if live_in[bi].contains(&VarId(v as u32)) {
                    first[v] = first[v].min(*s);
                    last[v] = last[v].max(*s);
                }
                if live_out[bi].contains(&VarId(v as u32)) {
                    last[v] = last[v].max(*e);
                    first[v] = first[v].min(*s);
                }
            }
        }
        // Build and sort intervals.
        let mut intervals: Vec<(usize, usize, usize)> = (0..nv)
            .filter(|&v| scalar(v) && first[v] != usize::MAX)
            .map(|v| (first[v], last[v], v))
            .collect();
        intervals.sort();
        let crosses_call = |s: usize, e: usize| call_positions.iter().any(|&c| s < c && c < e);

        self.loc = vec![Loc::Spill(u32::MAX); nv];
        let mut active: Vec<(usize, Reg, usize)> = Vec::new(); // (end, reg, var)
        let mut free_t: Vec<Reg> = TEMP_POOL.to_vec();
        let mut free_s: Vec<Reg> = Reg::SAVED.to_vec();
        let mut next_spill = 0u32;
        for (s, e, v) in intervals {
            active.retain(|&(end, reg, _)| {
                if end < s {
                    if TEMP_POOL.contains(&reg) {
                        free_t.push(reg);
                    } else {
                        free_s.push(reg);
                    }
                    false
                } else {
                    true
                }
            });
            let needs_s = crosses_call(s, e);
            let reg = if needs_s {
                free_s.pop()
            } else {
                free_t.pop().or_else(|| free_s.pop())
            };
            match reg {
                Some(r) => {
                    self.loc[v] = Loc::Reg(r);
                    if !self.used_sregs.contains(&r) && Reg::SAVED.contains(&r) {
                        self.used_sregs.push(r);
                    }
                    active.push((e, r, v));
                }
                None => {
                    // Spill the furthest-ending compatible interval.
                    let victim = active
                        .iter()
                        .enumerate()
                        .filter(|(_, (_, r, _))| !needs_s || Reg::SAVED.contains(r))
                        .max_by_key(|(_, (end, _, _))| *end);
                    match victim {
                        Some((ai, &(vend, vreg, vvar))) if vend > e => {
                            self.loc[vvar] = Loc::Spill(next_spill);
                            next_spill += 1;
                            self.loc[v] = Loc::Reg(vreg);
                            active[ai] = (e, vreg, v);
                        }
                        _ => {
                            self.loc[v] = Loc::Spill(next_spill);
                            next_spill += 1;
                        }
                    }
                }
            }
        }
    }

    fn liveness(&self) -> (Vec<Vec<VarId>>, Vec<Vec<VarId>>) {
        let n = self.f.blocks.len();
        let mut use_s: Vec<Vec<VarId>> = vec![Vec::new(); n];
        let mut def_s: Vec<Vec<VarId>> = vec![Vec::new(); n];
        for (bi, b) in self.f.blocks.iter().enumerate() {
            for i in &b.insts {
                i.for_each_use(|o| {
                    if let Opnd::Var(v) = o {
                        if !def_s[bi].contains(v) && !use_s[bi].contains(v) {
                            use_s[bi].push(*v);
                        }
                    }
                });
                if let Some(d) = i.dst() {
                    if !def_s[bi].contains(&d) {
                        def_s[bi].push(d);
                    }
                }
            }
            b.term.for_each_use(|o| {
                if let Opnd::Var(v) = o {
                    if !def_s[bi].contains(v) && !use_s[bi].contains(v) {
                        use_s[bi].push(*v);
                    }
                }
            });
        }
        let mut live_in: Vec<Vec<VarId>> = vec![Vec::new(); n];
        let mut live_out: Vec<Vec<VarId>> = vec![Vec::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..n).rev() {
                let mut out: Vec<VarId> = Vec::new();
                for s in self.f.blocks[bi].term.successors() {
                    for &v in &live_in[s.index()] {
                        if !out.contains(&v) {
                            out.push(v);
                        }
                    }
                }
                let mut inp = use_s[bi].clone();
                for &v in &out {
                    if !def_s[bi].contains(&v) && !inp.contains(&v) {
                        inp.push(v);
                    }
                }
                inp.sort();
                out.sort();
                if out != live_out[bi] {
                    live_out[bi] = out;
                    changed = true;
                }
                if inp != live_in[bi] {
                    live_in[bi] = inp;
                    changed = true;
                }
            }
        }
        (live_in, live_out)
    }

    // ---- frame layout ----

    /// Frame layout (sp-relative, low to high): spill slots, saved
    /// `$s`-registers, `$ra`, then frame objects (arrays / address-taken
    /// locals). Scalar homes sit *below* anything whose address escapes,
    /// which is what lets a binary-level decompiler promote them safely.
    fn layout_frame(&mut self) {
        self.spill_base = 0;
        let nspills = self
            .loc
            .iter()
            .filter_map(|l| match l {
                Loc::Spill(s) if *s != u32::MAX => Some(*s + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let mut off = nspills * 4;
        off += (self.used_sregs.len() as u32) * 4;
        if self.saves_ra {
            off += 4;
        }
        // Frame objects above all scalar slots.
        for (vi, info) in self.f.vars.iter().enumerate() {
            if let VarKind::Frame { size, align } = info.kind {
                let a = align.max(4);
                off = off.div_ceil(a) * a;
                self.frame_off.insert(VarId(vi as u32), off);
                off += size.div_ceil(4) * 4;
            }
        }
        self.frame_size = off.div_ceil(8) * 8;
    }

    fn spill_slot_off(&self, slot: u32) -> i16 {
        (self.spill_base + slot * 4) as i16
    }

    fn sreg_save_off(&self, k: usize) -> i16 {
        let nspills = self
            .loc
            .iter()
            .filter_map(|l| match l {
                Loc::Spill(s) if *s != u32::MAX => Some(*s + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        ((nspills + k as u32) * 4) as i16
    }

    fn ra_save_off(&self) -> i16 {
        self.sreg_save_off(self.used_sregs.len())
    }

    // ---- emission helpers ----

    fn prologue(&mut self, asm: &mut Asm) {
        if self.frame_size > 0 {
            asm.addiu(Reg::Sp, Reg::Sp, -(self.frame_size as i16));
        }
        if self.saves_ra {
            asm.sw(Reg::Ra, self.ra_save_off(), Reg::Sp);
        }
        let sregs = self.used_sregs.clone();
        for (k, r) in sregs.iter().enumerate() {
            asm.sw(*r, self.sreg_save_off(k), Reg::Sp);
        }
        // Move parameters to their homes.
        let params = self.f.params.clone();
        for (k, p) in params.iter().enumerate() {
            let arg = Reg::ARGS[k];
            match self.loc[p.index()] {
                Loc::Reg(r) => {
                    if r != arg {
                        asm.mov(r, arg);
                    }
                }
                Loc::Spill(s) if s != u32::MAX => {
                    asm.sw(arg, self.spill_slot_off(s), Reg::Sp);
                }
                Loc::Spill(_) => {}
            }
        }
    }

    fn epilogue(&mut self, asm: &mut Asm, ret: Option<&Opnd>) {
        if let Some(v) = ret {
            let r = self.opnd_reg(asm, *v, SCRATCH_A);
            if r != Reg::V0 {
                asm.mov(Reg::V0, r);
            }
        }
        let sregs = self.used_sregs.clone();
        for (k, r) in sregs.iter().enumerate() {
            asm.lw(*r, self.sreg_save_off(k), Reg::Sp);
        }
        if self.saves_ra {
            asm.lw(Reg::Ra, self.ra_save_off(), Reg::Sp);
        }
        if self.frame_size > 0 {
            asm.addiu(Reg::Sp, Reg::Sp, self.frame_size as i16);
        }
        asm.jr(Reg::Ra);
        asm.nop();
    }

    /// Materializes `o` in a register (using `scratch` if needed).
    fn opnd_reg(&mut self, asm: &mut Asm, o: Opnd, scratch: Reg) -> Reg {
        match o {
            Opnd::Const(0) => Reg::Zero,
            Opnd::Const(c) => {
                asm.li(scratch, c as i32);
                scratch
            }
            Opnd::Var(v) => match self.loc[v.index()] {
                Loc::Reg(r) => r,
                Loc::Spill(s) => {
                    asm.lw(scratch, self.spill_slot_off(s), Reg::Sp);
                    scratch
                }
            },
        }
    }

    /// Register that will hold the result for `dst` (scratch when spilled).
    fn dst_reg(&self, dst: VarId, scratch: Reg) -> Reg {
        match self.loc[dst.index()] {
            Loc::Reg(r) => r,
            Loc::Spill(_) => scratch,
        }
    }

    /// Stores `reg` back to `dst`'s home if it is spilled.
    fn store_dst(&mut self, asm: &mut Asm, dst: VarId, reg: Reg) {
        if let Loc::Spill(s) = self.loc[dst.index()] {
            asm.sw(reg, self.spill_slot_off(s), Reg::Sp);
        }
    }

    /// Emits the straight-line body; returns a compare fused into the
    /// terminator, if any.
    fn emit_block_body(&mut self, asm: &mut Asm, block: &crate::tir::TBlockData) -> Option<Fused> {
        let mut fused = None;
        for (k, inst) in block.insts.iter().enumerate() {
            let is_last = k + 1 == block.insts.len();
            // Try to fuse a final compare with a conditional terminator.
            if is_last && self.level >= OptLevel::O1 {
                if let (TInst::Bin { op, dst, a, b }, TTerm::Br { cond, .. }) =
                    (inst, &block.term)
                {
                    if Opnd::Var(*dst) == *cond
                        && self.use_counts[dst.index()] == 1
                        && compare_fusable(*op)
                    {
                        fused = Some(Fused {
                            op: *op,
                            a: *a,
                            b: *b,
                        });
                        continue;
                    }
                }
            }
            self.emit_inst(asm, inst);
        }
        fused
    }

    fn emit_inst(&mut self, asm: &mut Asm, inst: &TInst) {
        match inst {
            TInst::Copy { dst, src } => {
                let d = self.dst_reg(*dst, SCRATCH_A);
                match src {
                    Opnd::Const(c) => asm.li(d, *c as i32),
                    Opnd::Var(_) => {
                        let s = self.opnd_reg(asm, *src, SCRATCH_A);
                        if s != d {
                            asm.mov(d, s);
                        }
                    }
                }
                self.store_dst(asm, *dst, d);
            }
            TInst::Bin { op, dst, a, b } => self.emit_bin(asm, *op, *dst, *a, *b),
            TInst::Un { op, dst, a } => {
                let s = self.opnd_reg(asm, *a, SCRATCH_A);
                let d = self.dst_reg(*dst, SCRATCH_A);
                match op {
                    TUnOp::Neg => asm.subu(d, Reg::Zero, s),
                    TUnOp::Not => asm.nor(d, s, Reg::Zero),
                    TUnOp::SextB => {
                        asm.sll(d, s, 24);
                        asm.sra(d, d, 24);
                    }
                    TUnOp::SextH => {
                        asm.sll(d, s, 16);
                        asm.sra(d, d, 16);
                    }
                    TUnOp::ZextB => asm.andi(d, s, 0xff),
                    TUnOp::ZextH => asm.andi(d, s, 0xffff),
                }
                self.store_dst(asm, *dst, d);
            }
            TInst::AddrGlobal { dst, global, offset } => {
                let d = self.dst_reg(*dst, SCRATCH_A);
                asm.la(d, self.global_addr[*global].wrapping_add(*offset as u32));
                self.store_dst(asm, *dst, d);
            }
            TInst::AddrFrame { dst, var, offset } => {
                let d = self.dst_reg(*dst, SCRATCH_A);
                let base = self.frame_off[var] as i64 + offset;
                asm.addiu(d, Reg::Sp, base as i16);
                self.store_dst(asm, *dst, d);
            }
            TInst::Load { dst, addr, width, signed } => {
                let a = self.opnd_reg(asm, *addr, SCRATCH_A);
                let d = self.dst_reg(*dst, SCRATCH_B);
                match (width, signed) {
                    (MemW::B, true) => asm.lb(d, 0, a),
                    (MemW::B, false) => asm.lbu(d, 0, a),
                    (MemW::H, true) => asm.lh(d, 0, a),
                    (MemW::H, false) => asm.lhu(d, 0, a),
                    (MemW::W, _) => asm.lw(d, 0, a),
                }
                self.store_dst(asm, *dst, d);
            }
            TInst::Store { addr, src, width } => {
                let a = self.opnd_reg(asm, *addr, SCRATCH_A);
                let s = self.opnd_reg(asm, *src, SCRATCH_B);
                match width {
                    MemW::B => asm.sb(s, 0, a),
                    MemW::H => asm.sh(s, 0, a),
                    MemW::W => asm.sw(s, 0, a),
                }
            }
            TInst::Call { dst, callee, args } => {
                for (k, arg) in args.iter().enumerate() {
                    let target = Reg::ARGS[k];
                    match arg {
                        Opnd::Const(c) => asm.li(target, *c as i32),
                        Opnd::Var(_) => {
                            let s = self.opnd_reg(asm, *arg, target);
                            if s != target {
                                asm.mov(target, s);
                            }
                        }
                    }
                }
                asm.jal(self.func_labels[callee]);
                asm.nop();
                if let Some(d) = dst {
                    let dr = self.dst_reg(*d, SCRATCH_A);
                    if dr != Reg::V0 {
                        asm.mov(dr, Reg::V0);
                    }
                    self.store_dst(asm, *d, dr);
                }
            }
        }
    }

    fn emit_bin(&mut self, asm: &mut Asm, op: TBinOp, dst: VarId, a: Opnd, b: Opnd) {
        let d = self.dst_reg(dst, SCRATCH_B);
        match op {
            TBinOp::Add => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                if let Opnd::Const(c) = b {
                    if let Ok(imm) = i16::try_from(c) {
                        asm.addiu(d, ra, imm);
                        self.store_dst(asm, dst, d);
                        return;
                    }
                }
                let rb = self.opnd_reg(asm, b, SCRATCH_B);
                asm.addu(d, ra, rb);
            }
            TBinOp::Sub => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                if let Opnd::Const(c) = b {
                    if let Ok(imm) = i16::try_from(-c) {
                        asm.addiu(d, ra, imm);
                        self.store_dst(asm, dst, d);
                        return;
                    }
                }
                let rb = self.opnd_reg(asm, b, SCRATCH_B);
                asm.subu(d, ra, rb);
            }
            TBinOp::And | TBinOp::Or | TBinOp::Xor => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                if let Opnd::Const(c) = b {
                    if let Ok(imm) = u16::try_from(c) {
                        match op {
                            TBinOp::And => asm.andi(d, ra, imm),
                            TBinOp::Or => asm.ori(d, ra, imm),
                            _ => asm.xori(d, ra, imm),
                        }
                        self.store_dst(asm, dst, d);
                        return;
                    }
                }
                let rb = self.opnd_reg(asm, b, SCRATCH_B);
                match op {
                    TBinOp::And => asm.and(d, ra, rb),
                    TBinOp::Or => asm.or(d, ra, rb),
                    _ => asm.xor(d, ra, rb),
                }
            }
            TBinOp::Shl | TBinOp::ShrL | TBinOp::ShrA => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                if let Opnd::Const(c) = b {
                    let sh = (c & 31) as u8;
                    match op {
                        TBinOp::Shl => asm.sll(d, ra, sh),
                        TBinOp::ShrL => asm.srl(d, ra, sh),
                        _ => asm.sra(d, ra, sh),
                    }
                } else {
                    let rb = self.opnd_reg(asm, b, SCRATCH_B);
                    match op {
                        TBinOp::Shl => asm.sllv(d, ra, rb),
                        TBinOp::ShrL => asm.srlv(d, ra, rb),
                        _ => asm.srav(d, ra, rb),
                    }
                }
            }
            TBinOp::Mul => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                let rb = self.opnd_reg(asm, b, SCRATCH_B);
                asm.mult(ra, rb);
                asm.mflo(d);
            }
            TBinOp::DivS | TBinOp::RemS => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                let rb = self.opnd_reg(asm, b, SCRATCH_B);
                asm.div(ra, rb);
                if op == TBinOp::DivS {
                    asm.mflo(d);
                } else {
                    asm.mfhi(d);
                }
            }
            TBinOp::DivU | TBinOp::RemU => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                let rb = self.opnd_reg(asm, b, SCRATCH_B);
                asm.divu(ra, rb);
                if op == TBinOp::DivU {
                    asm.mflo(d);
                } else {
                    asm.mfhi(d);
                }
            }
            TBinOp::Eq => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                let rb = self.opnd_reg(asm, b, SCRATCH_B);
                asm.subu(d, ra, rb);
                asm.sltiu(d, d, 1);
            }
            TBinOp::Ne => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                let rb = self.opnd_reg(asm, b, SCRATCH_B);
                asm.subu(d, ra, rb);
                asm.sltu(d, Reg::Zero, d);
            }
            TBinOp::LtS => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                if let Opnd::Const(c) = b {
                    if let Ok(imm) = i16::try_from(c) {
                        asm.slti(d, ra, imm);
                        self.store_dst(asm, dst, d);
                        return;
                    }
                }
                let rb = self.opnd_reg(asm, b, SCRATCH_B);
                asm.slt(d, ra, rb);
            }
            TBinOp::LtU => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                if let Opnd::Const(c) = b {
                    if let Ok(imm) = i16::try_from(c) {
                        asm.sltiu(d, ra, imm);
                        self.store_dst(asm, dst, d);
                        return;
                    }
                }
                let rb = self.opnd_reg(asm, b, SCRATCH_B);
                asm.sltu(d, ra, rb);
            }
            TBinOp::LeS | TBinOp::LeU => {
                // a <= b  ==  !(b < a)
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                let rb = self.opnd_reg(asm, b, SCRATCH_B);
                if op == TBinOp::LeS {
                    asm.slt(d, rb, ra);
                } else {
                    asm.sltu(d, rb, ra);
                }
                asm.xori(d, d, 1);
            }
            TBinOp::GtS | TBinOp::GtU => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                let rb = self.opnd_reg(asm, b, SCRATCH_B);
                if op == TBinOp::GtS {
                    asm.slt(d, rb, ra);
                } else {
                    asm.sltu(d, rb, ra);
                }
            }
            TBinOp::GeS | TBinOp::GeU => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                let rb = self.opnd_reg(asm, b, SCRATCH_B);
                if op == TBinOp::GeS {
                    asm.slt(d, ra, rb);
                } else {
                    asm.sltu(d, ra, rb);
                }
                asm.xori(d, d, 1);
            }
        }
        self.store_dst(asm, dst, d);
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_term(
        &mut self,
        asm: &mut Asm,
        bi: usize,
        term: &TTerm,
        fused: Option<Fused>,
        data: &mut Vec<u8>,
        pending_tables: &mut Vec<(usize, Vec<Label>)>,
        data_base: u32,
    ) {
        let next_is = |b: BlockId| b.index() == bi + 1;
        match term {
            TTerm::Jump(t) => {
                if !next_is(*t) {
                    asm.j(self.block_labels[t.index()]);
                    asm.nop();
                }
            }
            TTerm::Br { cond, t, f } => {
                let tl = self.block_labels[t.index()];
                match fused {
                    Some(fz) => self.emit_fused_branch(asm, fz, tl),
                    None => {
                        let c = self.opnd_reg(asm, *cond, SCRATCH_A);
                        asm.bne(c, Reg::Zero, tl);
                        asm.nop();
                    }
                }
                if !next_is(*f) {
                    asm.j(self.block_labels[f.index()]);
                    asm.nop();
                }
            }
            TTerm::Ret(v) => {
                let v = v.as_ref();
                self.epilogue(asm, v);
            }
            TTerm::Switch { val, cases, default } => {
                let labels = cases.iter().map(|(l, _)| *l);
                let dense = match (labels.clone().min(), labels.max()) {
                    (Some(min), Some(max)) if cases.len() >= 4 && self.level >= OptLevel::O1 => {
                        let span = (max - min + 1) as usize;
                        (span <= cases.len() * 2).then_some((min, span))
                    }
                    _ => None,
                };
                match dense {
                    Some((min, span)) => {
                        // Jump table: the indirect jump that defeats plain
                        // CDFG recovery.
                        let v = self.opnd_reg(asm, *val, SCRATCH_A);
                        let idx = SCRATCH_A;
                        if min != 0 {
                            asm.addiu(idx, v, -(min as i16));
                        } else if v != idx {
                            asm.mov(idx, v);
                        }
                        let dl = self.block_labels[default.index()];
                        asm.sltiu(SCRATCH_B, idx, span as i16);
                        asm.beq(SCRATCH_B, Reg::Zero, dl);
                        asm.nop();
                        asm.sll(idx, idx, 2);
                        // table base
                        while !data.len().is_multiple_of(4) {
                            data.push(0);
                        }
                        let table_off = data.len();
                        let mut labels = Vec::new();
                        for k in 0..span {
                            let target = cases
                                .iter()
                                .find(|(l, _)| *l == min + k as i64)
                                .map(|(_, b)| *b)
                                .unwrap_or(*default);
                            labels.push(self.block_labels[target.index()]);
                            data.extend_from_slice(&0u32.to_le_bytes());
                        }
                        pending_tables.push((table_off, labels));
                        asm.la(SCRATCH_B, data_base + table_off as u32);
                        asm.addu(idx, SCRATCH_B, idx);
                        asm.lw(idx, 0, idx);
                        asm.jr(idx);
                        asm.nop();
                    }
                    None => {
                        // Compare-and-branch chain.
                        let v = self.opnd_reg(asm, *val, SCRATCH_A);
                        // `v` may be in scratch; keep it stable across li's
                        // by moving to SCRATCH_A explicitly when constant.
                        for (label, target) in cases {
                            let tl = self.block_labels[target.index()];
                            if *label == 0 {
                                asm.beq(v, Reg::Zero, tl);
                                asm.nop();
                            } else {
                                asm.li(SCRATCH_B, *label as i32);
                                asm.beq(v, SCRATCH_B, tl);
                                asm.nop();
                            }
                        }
                        if !next_is(*default) {
                            asm.j(self.block_labels[default.index()]);
                            asm.nop();
                        }
                    }
                }
            }
        }
    }

    fn emit_fused_branch(&mut self, asm: &mut Asm, fz: Fused, target: Label) {
        let Fused { op, a, b } = fz;
        match op {
            TBinOp::Eq | TBinOp::Ne => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                let rb = self.opnd_reg(asm, b, SCRATCH_B);
                if op == TBinOp::Eq {
                    asm.beq(ra, rb, target);
                } else {
                    asm.bne(ra, rb, target);
                }
                asm.nop();
            }
            TBinOp::LtS if b == Opnd::Const(0) => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                asm.bltz(ra, target);
                asm.nop();
            }
            TBinOp::GeS if b == Opnd::Const(0) => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                asm.bgez(ra, target);
                asm.nop();
            }
            TBinOp::GtS if b == Opnd::Const(0) => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                asm.bgtz(ra, target);
                asm.nop();
            }
            TBinOp::LeS if b == Opnd::Const(0) => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                asm.blez(ra, target);
                asm.nop();
            }
            TBinOp::LtS | TBinOp::LtU => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                let rb = self.opnd_reg(asm, b, SCRATCH_B);
                if op == TBinOp::LtS {
                    asm.slt(SCRATCH_A, ra, rb);
                } else {
                    asm.sltu(SCRATCH_A, ra, rb);
                }
                asm.bne(SCRATCH_A, Reg::Zero, target);
                asm.nop();
            }
            TBinOp::GtS | TBinOp::GtU => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                let rb = self.opnd_reg(asm, b, SCRATCH_B);
                if op == TBinOp::GtS {
                    asm.slt(SCRATCH_A, rb, ra);
                } else {
                    asm.sltu(SCRATCH_A, rb, ra);
                }
                asm.bne(SCRATCH_A, Reg::Zero, target);
                asm.nop();
            }
            TBinOp::LeS | TBinOp::LeU => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                let rb = self.opnd_reg(asm, b, SCRATCH_B);
                if op == TBinOp::LeS {
                    asm.slt(SCRATCH_A, rb, ra);
                } else {
                    asm.sltu(SCRATCH_A, rb, ra);
                }
                asm.beq(SCRATCH_A, Reg::Zero, target);
                asm.nop();
            }
            TBinOp::GeS | TBinOp::GeU => {
                let ra = self.opnd_reg(asm, a, SCRATCH_A);
                let rb = self.opnd_reg(asm, b, SCRATCH_B);
                if op == TBinOp::GeS {
                    asm.slt(SCRATCH_A, ra, rb);
                } else {
                    asm.sltu(SCRATCH_A, ra, rb);
                }
                asm.beq(SCRATCH_A, Reg::Zero, target);
                asm.nop();
            }
            // `emit_block_body` fuses only ops `compare_fusable` accepts.
            _ => unreachable!("non-comparison op fused"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Fused {
    op: TBinOp,
    a: Opnd,
    b: Opnd,
}

fn compare_fusable(op: TBinOp) -> bool {
    matches!(
        op,
        TBinOp::Eq
            | TBinOp::Ne
            | TBinOp::LtS
            | TBinOp::LtU
            | TBinOp::LeS
            | TBinOp::LeU
            | TBinOp::GtS
            | TBinOp::GtU
            | TBinOp::GeS
            | TBinOp::GeU
    )
}

//! The original (seed) simulator engine, retained as the differential
//! oracle and throughput baseline for [`crate::sim`].
//!
//! [`ReferenceMachine`] keeps the naive design the fast path replaced: a
//! byte-granular `HashMap`-paged memory (four separate hash lookups per
//! `read_u32`), per-step `cycles_for` matching, and a plain `step()` loop
//! with no hoisted bookkeeping. It shares the architectural types
//! ([`Exit`], [`Profile`], [`SimError`], [`SimConfig`]) with the fast
//! engine, so the workspace-level differential test can assert bit-identical
//! results, and the `sim_throughput` bench can measure the speedup of the
//! fast path over this exact seed behavior.

use crate::sim::{Exit, ExitReason, Profile, SimConfig, SimError};
use crate::{Binary, Instr, Reg, HALT_PC};
use std::collections::HashMap;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// Sparse, demand-zeroed flat memory with byte-granular page access (the
/// seed implementation [`crate::sim::Memory`] replaced).
#[derive(Debug, Default)]
pub struct ByteMemory {
    pages: HashMap<u32, Box<[u8; PAGE_SIZE]>>,
}

impl ByteMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> ByteMemory {
        ByteMemory::default()
    }

    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_BITS)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.pages.get(&(addr >> PAGE_BITS)) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads a little-endian halfword.
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr.wrapping_add(1))])
    }

    /// Writes a little-endian halfword.
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        let b = value.to_le_bytes();
        self.write_u8(addr, b[0]);
        self.write_u8(addr.wrapping_add(1), b[1]);
    }

    /// Reads a little-endian word — four separate page lookups.
    pub fn read_u32(&self, addr: u32) -> u32 {
        u32::from_le_bytes([
            self.read_u8(addr),
            self.read_u8(addr.wrapping_add(1)),
            self.read_u8(addr.wrapping_add(2)),
            self.read_u8(addr.wrapping_add(3)),
        ])
    }

    /// Writes a little-endian word.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        let b = value.to_le_bytes();
        for (k, byte) in b.iter().enumerate() {
            self.write_u8(addr.wrapping_add(k as u32), *byte);
        }
    }

    /// Bulk-copies `bytes` starting at `addr`, byte at a time.
    pub fn write_slice(&mut self, addr: u32, bytes: &[u8]) {
        for (k, byte) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(k as u32), *byte);
        }
    }

    /// Reads `len` bytes starting at `addr`, byte at a time.
    pub fn read_vec(&self, addr: u32, len: usize) -> Vec<u8> {
        (0..len)
            .map(|k| self.read_u8(addr.wrapping_add(k as u32)))
            .collect()
    }
}

/// The seed simulator: naive per-byte memory and per-step dispatch.
#[derive(Debug)]
pub struct ReferenceMachine {
    regs: [u32; 32],
    hi: u32,
    lo: u32,
    pc: u32,
    next_pc: u32,
    text: Vec<Instr>,
    text_base: u32,
    /// Data/stack memory (text is pre-decoded, not stored here).
    pub mem: ByteMemory,
    config: SimConfig,
    profile: Profile,
    cycles: u64,
    instrs: u64,
}

impl ReferenceMachine {
    /// Loads `binary` into a fresh machine (same loader contract as
    /// [`crate::sim::Machine::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadInstruction`] if the text section contains a
    /// word outside the supported subset.
    pub fn new(binary: &Binary) -> Result<ReferenceMachine, SimError> {
        ReferenceMachine::with_config(binary, SimConfig::default())
    }

    /// Like [`ReferenceMachine::new`] with an explicit [`SimConfig`].
    ///
    /// # Errors
    ///
    /// Same as [`ReferenceMachine::new`].
    pub fn with_config(binary: &Binary, config: SimConfig) -> Result<ReferenceMachine, SimError> {
        let text = binary.decode_text()?;
        let mut mem = ByteMemory::new();
        mem.write_slice(binary.data_base, &binary.data);
        let mut regs = [0u32; 32];
        regs[Reg::Sp.number() as usize] = config.stack_top;
        regs[Reg::Ra.number() as usize] = HALT_PC;
        regs[Reg::Gp.number() as usize] = binary.data_base;
        let profile = Profile::new(binary.text_base, text.len());
        Ok(ReferenceMachine {
            regs,
            hi: 0,
            lo: 0,
            pc: binary.entry,
            next_pc: binary.entry.wrapping_add(4),
            text,
            text_base: binary.text_base,
            mem,
            config,
            profile,
            cycles: 0,
            instrs: 0,
        })
    }

    /// Current register value.
    pub fn reg(&self, reg: Reg) -> u32 {
        self.regs[reg.number() as usize]
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    fn fetch(&self, pc: u32) -> Result<Instr, SimError> {
        let off = pc.wrapping_sub(self.text_base);
        if !off.is_multiple_of(4) {
            return Err(SimError::PcOutOfText { pc });
        }
        self.text
            .get((off / 4) as usize)
            .copied()
            .ok_or(SimError::PcOutOfText { pc })
    }

    fn aligned(&self, addr: u32, align: u32) -> Result<(), SimError> {
        if !addr.is_multiple_of(align) {
            Err(SimError::Unaligned { addr, pc: self.pc })
        } else {
            Ok(())
        }
    }

    /// Runs until halt, `break`, or an error (seed loop: per-step checks,
    /// profile cloned into the exit).
    ///
    /// # Errors
    ///
    /// Any [`SimError`]; the machine state is left at the faulting point.
    pub fn run(&mut self) -> Result<Exit, SimError> {
        loop {
            if self.pc == HALT_PC {
                return Ok(self.exit(ExitReason::Halt));
            }
            if self.instrs >= self.config.max_steps {
                return Err(SimError::MaxStepsExceeded {
                    limit: self.config.max_steps,
                });
            }
            if let Some(code) = self.step()? {
                return Ok(self.exit(ExitReason::Break(code)));
            }
        }
    }

    fn exit(&self, reason: ExitReason) -> Exit {
        Exit {
            reason,
            regs: self.regs,
            cycles: self.cycles,
            instrs: self.instrs,
            profile: self.profile.clone(),
        }
    }

    /// Executes a single instruction (the seed `step()`).
    ///
    /// Returns `Ok(Some(code))` when a `break` executes.
    ///
    /// # Errors
    ///
    /// Any [`SimError`].
    pub fn step(&mut self) -> Result<Option<u32>, SimError> {
        use Instr::*;
        let pc = self.pc;
        let instr = self.fetch(pc)?;
        let idx = (pc.wrapping_sub(self.text_base) / 4) as usize;
        self.profile.counts[idx] += 1;
        self.profile.total_instrs += 1;
        self.instrs += 1;
        let c = self.config.cycles.cycles_for(instr) as u64;
        self.cycles += c;
        self.profile.total_cycles += c;

        let r = |m: &ReferenceMachine, reg: Reg| m.regs[reg.number() as usize];
        let mut taken_target: Option<u32> = None;
        let mut branch_taken = false;

        match instr {
            Add { rd, rs, rt } | Addu { rd, rs, rt } => {
                self.write(rd, r(self, rs).wrapping_add(r(self, rt)))
            }
            Sub { rd, rs, rt } | Subu { rd, rs, rt } => {
                self.write(rd, r(self, rs).wrapping_sub(r(self, rt)))
            }
            And { rd, rs, rt } => self.write(rd, r(self, rs) & r(self, rt)),
            Or { rd, rs, rt } => self.write(rd, r(self, rs) | r(self, rt)),
            Xor { rd, rs, rt } => self.write(rd, r(self, rs) ^ r(self, rt)),
            Nor { rd, rs, rt } => self.write(rd, !(r(self, rs) | r(self, rt))),
            Slt { rd, rs, rt } => {
                self.write(rd, ((r(self, rs) as i32) < (r(self, rt) as i32)) as u32)
            }
            Sltu { rd, rs, rt } => self.write(rd, (r(self, rs) < r(self, rt)) as u32),
            Sll { rd, rt, shamt } => self.write(rd, r(self, rt) << shamt),
            Srl { rd, rt, shamt } => self.write(rd, r(self, rt) >> shamt),
            Sra { rd, rt, shamt } => self.write(rd, ((r(self, rt) as i32) >> shamt) as u32),
            Sllv { rd, rt, rs } => self.write(rd, r(self, rt) << (r(self, rs) & 0x1f)),
            Srlv { rd, rt, rs } => self.write(rd, r(self, rt) >> (r(self, rs) & 0x1f)),
            Srav { rd, rt, rs } => {
                self.write(rd, ((r(self, rt) as i32) >> (r(self, rs) & 0x1f)) as u32)
            }
            Mult { rs, rt } => {
                let p = (r(self, rs) as i32 as i64) * (r(self, rt) as i32 as i64);
                self.lo = p as u32;
                self.hi = (p >> 32) as u32;
            }
            Multu { rs, rt } => {
                let p = (r(self, rs) as u64) * (r(self, rt) as u64);
                self.lo = p as u32;
                self.hi = (p >> 32) as u32;
            }
            Div { rs, rt } => {
                let (a, b) = (r(self, rs) as i32, r(self, rt) as i32);
                if b == 0 {
                    // Architecturally UNPREDICTABLE; we pick a deterministic value.
                    self.lo = u32::MAX;
                    self.hi = a as u32;
                } else {
                    self.lo = a.wrapping_div(b) as u32;
                    self.hi = a.wrapping_rem(b) as u32;
                }
            }
            Divu { rs, rt } => {
                let (a, b) = (r(self, rs), r(self, rt));
                if let Some(q) = a.checked_div(b) {
                    self.lo = q;
                    self.hi = a % b;
                } else {
                    self.lo = u32::MAX;
                    self.hi = a;
                }
            }
            Mfhi { rd } => self.write(rd, self.hi),
            Mflo { rd } => self.write(rd, self.lo),
            Mthi { rs } => self.hi = r(self, rs),
            Mtlo { rs } => self.lo = r(self, rs),
            Addi { rt, rs, imm } | Addiu { rt, rs, imm } => {
                self.write(rt, r(self, rs).wrapping_add(imm as i32 as u32))
            }
            Slti { rt, rs, imm } => self.write(rt, ((r(self, rs) as i32) < imm as i32) as u32),
            Sltiu { rt, rs, imm } => self.write(rt, (r(self, rs) < imm as i32 as u32) as u32),
            Andi { rt, rs, imm } => self.write(rt, r(self, rs) & imm as u32),
            Ori { rt, rs, imm } => self.write(rt, r(self, rs) | imm as u32),
            Xori { rt, rs, imm } => self.write(rt, r(self, rs) ^ imm as u32),
            Lui { rt, imm } => self.write(rt, (imm as u32) << 16),
            Lb { rt, base, offset } => {
                let a = r(self, base).wrapping_add(offset as i32 as u32);
                let v = self.mem.read_u8(a) as i8 as i32 as u32;
                self.write(rt, v);
            }
            Lbu { rt, base, offset } => {
                let a = r(self, base).wrapping_add(offset as i32 as u32);
                let v = self.mem.read_u8(a) as u32;
                self.write(rt, v);
            }
            Lh { rt, base, offset } => {
                let a = r(self, base).wrapping_add(offset as i32 as u32);
                self.aligned(a, 2)?;
                let v = self.mem.read_u16(a) as i16 as i32 as u32;
                self.write(rt, v);
            }
            Lhu { rt, base, offset } => {
                let a = r(self, base).wrapping_add(offset as i32 as u32);
                self.aligned(a, 2)?;
                let v = self.mem.read_u16(a) as u32;
                self.write(rt, v);
            }
            Lw { rt, base, offset } => {
                let a = r(self, base).wrapping_add(offset as i32 as u32);
                self.aligned(a, 4)?;
                let v = self.mem.read_u32(a);
                self.write(rt, v);
            }
            Sb { rt, base, offset } => {
                let a = r(self, base).wrapping_add(offset as i32 as u32);
                self.mem.write_u8(a, r(self, rt) as u8);
            }
            Sh { rt, base, offset } => {
                let a = r(self, base).wrapping_add(offset as i32 as u32);
                self.aligned(a, 2)?;
                self.mem.write_u16(a, r(self, rt) as u16);
            }
            Sw { rt, base, offset } => {
                let a = r(self, base).wrapping_add(offset as i32 as u32);
                self.aligned(a, 4)?;
                self.mem.write_u32(a, r(self, rt));
            }
            Beq { rs, rt, .. } => branch_taken = r(self, rs) == r(self, rt),
            Bne { rs, rt, .. } => branch_taken = r(self, rs) != r(self, rt),
            Blez { rs, .. } => branch_taken = (r(self, rs) as i32) <= 0,
            Bgtz { rs, .. } => branch_taken = (r(self, rs) as i32) > 0,
            Bltz { rs, .. } => branch_taken = (r(self, rs) as i32) < 0,
            Bgez { rs, .. } => branch_taken = (r(self, rs) as i32) >= 0,
            J { .. } => taken_target = instr.jump_target(pc),
            Jal { .. } => {
                taken_target = instr.jump_target(pc);
                self.write(Reg::Ra, pc.wrapping_add(8));
            }
            Jr { rs } => taken_target = Some(r(self, rs)),
            Jalr { rd, rs } => {
                taken_target = Some(r(self, rs));
                let link = pc.wrapping_add(8);
                self.write(rd, link);
            }
            Break { code } => {
                // `break` has no delay slot; stop immediately.
                return Ok(Some(code));
            }
        }

        if branch_taken {
            taken_target = instr.branch_target(pc);
            self.profile.taken[idx] += 1;
        }

        // Architectural delay slot: the instruction at `next_pc` executes
        // before any taken control transfer.
        let after_slot = taken_target.unwrap_or_else(|| self.next_pc.wrapping_add(4));
        self.pc = self.next_pc;
        self.next_pc = after_slot;
        Ok(None)
    }

    fn write(&mut self, reg: Reg, value: u32) {
        if reg != Reg::Zero {
            self.regs[reg.number() as usize] = value;
        }
    }

    /// Profile accumulated so far.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Asm, BinaryBuilder};

    #[test]
    fn reference_engine_runs_and_profiles() {
        let mut a = Asm::new();
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
        let binary = BinaryBuilder::new().text(a.finish().unwrap()).build();
        let mut m = ReferenceMachine::new(&binary).unwrap();
        let exit = m.run().unwrap();
        assert_eq!(exit.reg(Reg::V0), 55);
        assert_eq!(exit.profile.counts[2], 10);
    }

    #[test]
    fn byte_memory_matches_seed_semantics() {
        let mut m = ByteMemory::new();
        m.write_u32(0x1000, 0xcafe_f00d);
        assert_eq!(m.read_u32(0x1000), 0xcafe_f00d);
        assert_eq!(m.read_u8(0x1003), 0xca);
        m.write_slice(0x1ffe, &[1, 2, 3, 4]);
        assert_eq!(m.read_vec(0x1ffe, 4), vec![1, 2, 3, 4]);
        assert_eq!(m.read_u8(0x2001), 4);
    }
}

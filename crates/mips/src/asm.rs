//! A small label-based MIPS assembler used by the mini-C compiler's code
//! generator and by tests.
//!
//! The assembler is a builder: instructions are appended in order, branch and
//! jump targets are [`Label`]s that may be bound before or after use, and
//! [`Asm::finish`] resolves every fixup into encoded-ready [`Instr`]s.

use crate::{Instr, Reg};
use std::fmt;

/// A forward- or backward-referencable code label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

/// Error produced when resolving labels in [`Asm::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never bound.
    UnboundLabel(Label),
    /// A branch target is too far away for a signed 16-bit word offset.
    BranchOutOfRange {
        /// Index of the branch instruction.
        at: usize,
        /// Instruction-index distance that did not fit.
        distance: i64,
    },
    /// A label was bound twice.
    RedefinedLabel(Label),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel(l) => write!(f, "label L{} was never bound", l.0),
            AsmError::BranchOutOfRange { at, distance } => {
                write!(
                    f,
                    "branch at instruction {at} out of range ({distance} words)"
                )
            }
            AsmError::RedefinedLabel(l) => write!(f, "label L{} bound twice", l.0),
        }
    }
}

impl std::error::Error for AsmError {}

#[derive(Debug, Clone, Copy)]
enum Pending {
    /// Branch instruction whose 16-bit offset points at a label.
    Branch(Label),
    /// `j`/`jal` whose 26-bit field points at a label.
    Jump(Label),
    /// Fully resolved already.
    None,
}

/// Label-resolving instruction builder.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug, Default)]
pub struct Asm {
    items: Vec<(Instr, Pending)>,
    labels: Vec<Option<usize>>,
    text_base: u32,
}

impl Asm {
    /// Creates an assembler targeting the default text base.
    pub fn new() -> Asm {
        Asm {
            items: Vec::new(),
            labels: Vec::new(),
            text_base: crate::DEFAULT_TEXT_BASE,
        }
    }

    /// Creates an assembler whose first instruction will live at `text_base`.
    pub fn with_text_base(text_base: u32) -> Asm {
        Asm {
            text_base,
            ..Asm::new()
        }
    }

    /// Allocates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() as u32 - 1)
    }

    /// Binds `label` to the next instruction to be emitted.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound (programming error in codegen).
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.is_none(), "label L{} bound twice", label.0);
        *slot = Some(self.items.len());
    }

    /// Returns the current instruction index (useful for size accounting).
    pub fn here(&self) -> usize {
        self.items.len()
    }

    /// Byte address of `label` once bound, given the configured text base.
    ///
    /// Returns `None` while unbound.
    pub fn label_addr(&self, label: Label) -> Option<u32> {
        self.labels[label.0 as usize].map(|idx| self.text_base + (idx as u32) * 4)
    }

    /// Appends a raw instruction (no fixup).
    pub fn raw(&mut self, instr: Instr) {
        self.items.push((instr, Pending::None));
    }

    /// Resolves all labels and returns the finished instruction list.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UnboundLabel`] if any referenced label was never
    /// bound, or [`AsmError::BranchOutOfRange`] if a branch distance exceeds
    /// the signed 16-bit word offset.
    pub fn finish(self) -> Result<Vec<Instr>, AsmError> {
        let Asm {
            mut items,
            labels,
            text_base,
        } = self;
        for (idx, item) in items.iter_mut().enumerate() {
            let (instr, pending) = *item;
            match pending {
                Pending::None => {}
                Pending::Branch(l) => {
                    let target = labels[l.0 as usize].ok_or(AsmError::UnboundLabel(l))?;
                    let distance = target as i64 - (idx as i64 + 1);
                    let offset = i16::try_from(distance)
                        .map_err(|_| AsmError::BranchOutOfRange { at: idx, distance })?;
                    item.0 = with_branch_offset(instr, offset);
                }
                Pending::Jump(l) => {
                    let target = labels[l.0 as usize].ok_or(AsmError::UnboundLabel(l))?;
                    let addr = text_base + (target as u32) * 4;
                    let field = (addr >> 2) & 0x03ff_ffff;
                    item.0 = match instr {
                        Instr::J { .. } => Instr::J { target: field },
                        Instr::Jal { .. } => Instr::Jal { target: field },
                        other => other,
                    };
                }
            }
        }
        Ok(items.into_iter().map(|(i, _)| i).collect())
    }

    fn branch(&mut self, instr: Instr, label: Label) {
        self.items.push((instr, Pending::Branch(label)));
    }

    /// Fills branch delay slots by hoisting the instruction preceding a
    /// control transfer into the `nop` that follows it, when safe.
    ///
    /// An optimizing code generator calls this once after emitting all code
    /// (the `-O2` behaviour of era compilers). The candidate instruction `I`
    /// immediately before control transfer `B` (whose delay slot currently
    /// holds a `nop`) is moved when:
    ///
    /// * `I` is not itself a control transfer and not in a delay slot,
    /// * no label binds at `B` (so `I` belongs to the same basic block),
    /// * `I` writes no register `B` reads, and
    /// * `B` writes no register `I` reads or writes (e.g. `$ra` for `jal`).
    ///
    /// Returns the number of slots filled.
    pub fn fill_delay_slots(&mut self) -> usize {
        let mut filled = 0;
        let mut i = 1;
        while i + 1 < self.items.len() {
            let is_leader = |labels: &Vec<Option<usize>>, idx: usize| labels.contains(&Some(idx));
            let (b, _) = self.items[i];
            let slot_is_nop =
                self.items[i + 1].0.is_nop() && matches!(self.items[i + 1].1, Pending::None);
            if !b.is_control() || !slot_is_nop || is_leader(&self.labels, i) {
                i += 1;
                continue;
            }
            let (cand, cand_pending) = self.items[i - 1];
            let movable = !cand.is_control()
                && matches!(cand_pending, Pending::None)
                && !is_leader(&self.labels, i - 1)
                && (i < 2 || !self.items[i - 2].0.is_control())
                && cand.def().is_none_or(|d| !b.uses().contains(&d))
                && b.def()
                    .is_none_or(|d| !cand.uses().contains(&d) && cand.def() != Some(d));
            if movable {
                // I B nop  =>  B I   (I lands in the delay slot)
                self.items[i + 1] = self.items[i - 1];
                self.items.remove(i - 1);
                // any label bound after i-1 shifts down by one
                for l in self.labels.iter_mut().flatten() {
                    if *l > i - 1 {
                        *l -= 1;
                    }
                }
                filled += 1;
                // position i-1 now holds the branch; continue after its slot
                i += 1;
            } else {
                i += 1;
            }
        }
        filled
    }
}

fn with_branch_offset(instr: Instr, offset: i16) -> Instr {
    use Instr::*;
    match instr {
        Beq { rs, rt, .. } => Beq { rs, rt, offset },
        Bne { rs, rt, .. } => Bne { rs, rt, offset },
        Blez { rs, .. } => Blez { rs, offset },
        Bgtz { rs, .. } => Bgtz { rs, offset },
        Bltz { rs, .. } => Bltz { rs, offset },
        Bgez { rs, .. } => Bgez { rs, offset },
        other => other,
    }
}

macro_rules! rrr {
    ($($(#[$m:meta])* $name:ident => $variant:ident),* $(,)?) => {
        $($(#[$m])*
        pub fn $name(&mut self, rd: Reg, rs: Reg, rt: Reg) {
            self.raw(Instr::$variant { rd, rs, rt });
        })*
    };
}

macro_rules! rri {
    ($($(#[$m:meta])* $name:ident => $variant:ident: $t:ty),* $(,)?) => {
        $($(#[$m])*
        pub fn $name(&mut self, rt: Reg, rs: Reg, imm: $t) {
            self.raw(Instr::$variant { rt, rs, imm });
        })*
    };
}

macro_rules! mem {
    ($($(#[$m:meta])* $name:ident => $variant:ident),* $(,)?) => {
        $($(#[$m])*
        pub fn $name(&mut self, rt: Reg, offset: i16, base: Reg) {
            self.raw(Instr::$variant { rt, base, offset });
        })*
    };
}

/// Instruction-emitting methods. Each appends one instruction.
impl Asm {
    rrr! {
        /// `addu rd, rs, rt`
        addu => Addu,
        /// `subu rd, rs, rt`
        subu => Subu,
        /// `and rd, rs, rt`
        and => And,
        /// `or rd, rs, rt`
        or => Or,
        /// `xor rd, rs, rt`
        xor => Xor,
        /// `nor rd, rs, rt`
        nor => Nor,
        /// `slt rd, rs, rt`
        slt => Slt,
        /// `sltu rd, rs, rt`
        sltu => Sltu,
    }

    rri! {
        /// `addiu rt, rs, imm`
        addiu => Addiu: i16,
        /// `slti rt, rs, imm`
        slti => Slti: i16,
        /// `sltiu rt, rs, imm`
        sltiu => Sltiu: i16,
        /// `andi rt, rs, imm`
        andi => Andi: u16,
        /// `ori rt, rs, imm`
        ori => Ori: u16,
        /// `xori rt, rs, imm`
        xori => Xori: u16,
    }

    mem! {
        /// `lb rt, offset(base)`
        lb => Lb,
        /// `lbu rt, offset(base)`
        lbu => Lbu,
        /// `lh rt, offset(base)`
        lh => Lh,
        /// `lhu rt, offset(base)`
        lhu => Lhu,
        /// `lw rt, offset(base)`
        lw => Lw,
        /// `sb rt, offset(base)`
        sb => Sb,
        /// `sh rt, offset(base)`
        sh => Sh,
        /// `sw rt, offset(base)`
        sw => Sw,
    }

    /// `sll rd, rt, shamt`
    pub fn sll(&mut self, rd: Reg, rt: Reg, shamt: u8) {
        self.raw(Instr::Sll { rd, rt, shamt });
    }

    /// `srl rd, rt, shamt`
    pub fn srl(&mut self, rd: Reg, rt: Reg, shamt: u8) {
        self.raw(Instr::Srl { rd, rt, shamt });
    }

    /// `sra rd, rt, shamt`
    pub fn sra(&mut self, rd: Reg, rt: Reg, shamt: u8) {
        self.raw(Instr::Sra { rd, rt, shamt });
    }

    /// `sllv rd, rt, rs`
    pub fn sllv(&mut self, rd: Reg, rt: Reg, rs: Reg) {
        self.raw(Instr::Sllv { rd, rt, rs });
    }

    /// `srlv rd, rt, rs`
    pub fn srlv(&mut self, rd: Reg, rt: Reg, rs: Reg) {
        self.raw(Instr::Srlv { rd, rt, rs });
    }

    /// `srav rd, rt, rs`
    pub fn srav(&mut self, rd: Reg, rt: Reg, rs: Reg) {
        self.raw(Instr::Srav { rd, rt, rs });
    }

    /// `lui rt, imm`
    pub fn lui(&mut self, rt: Reg, imm: u16) {
        self.raw(Instr::Lui { rt, imm });
    }

    /// `mult rs, rt`
    pub fn mult(&mut self, rs: Reg, rt: Reg) {
        self.raw(Instr::Mult { rs, rt });
    }

    /// `multu rs, rt`
    pub fn multu(&mut self, rs: Reg, rt: Reg) {
        self.raw(Instr::Multu { rs, rt });
    }

    /// `div rs, rt`
    pub fn div(&mut self, rs: Reg, rt: Reg) {
        self.raw(Instr::Div { rs, rt });
    }

    /// `divu rs, rt`
    pub fn divu(&mut self, rs: Reg, rt: Reg) {
        self.raw(Instr::Divu { rs, rt });
    }

    /// `mfhi rd`
    pub fn mfhi(&mut self, rd: Reg) {
        self.raw(Instr::Mfhi { rd });
    }

    /// `mflo rd`
    pub fn mflo(&mut self, rd: Reg) {
        self.raw(Instr::Mflo { rd });
    }

    /// `beq rs, rt, label`
    pub fn beq(&mut self, rs: Reg, rt: Reg, label: Label) {
        self.branch(Instr::Beq { rs, rt, offset: 0 }, label);
    }

    /// `bne rs, rt, label`
    pub fn bne(&mut self, rs: Reg, rt: Reg, label: Label) {
        self.branch(Instr::Bne { rs, rt, offset: 0 }, label);
    }

    /// `blez rs, label`
    pub fn blez(&mut self, rs: Reg, label: Label) {
        self.branch(Instr::Blez { rs, offset: 0 }, label);
    }

    /// `bgtz rs, label`
    pub fn bgtz(&mut self, rs: Reg, label: Label) {
        self.branch(Instr::Bgtz { rs, offset: 0 }, label);
    }

    /// `bltz rs, label`
    pub fn bltz(&mut self, rs: Reg, label: Label) {
        self.branch(Instr::Bltz { rs, offset: 0 }, label);
    }

    /// `bgez rs, label`
    pub fn bgez(&mut self, rs: Reg, label: Label) {
        self.branch(Instr::Bgez { rs, offset: 0 }, label);
    }

    /// Unconditional branch: `beq $zero, $zero, label`.
    pub fn b(&mut self, label: Label) {
        self.beq(Reg::Zero, Reg::Zero, label);
    }

    /// `j label`
    pub fn j(&mut self, label: Label) {
        self.items
            .push((Instr::J { target: 0 }, Pending::Jump(label)));
    }

    /// `jal label`
    pub fn jal(&mut self, label: Label) {
        self.items
            .push((Instr::Jal { target: 0 }, Pending::Jump(label)));
    }

    /// `jr rs`
    pub fn jr(&mut self, rs: Reg) {
        self.raw(Instr::Jr { rs });
    }

    /// `jalr $ra, rs`
    pub fn jalr(&mut self, rs: Reg) {
        self.raw(Instr::Jalr { rd: Reg::Ra, rs });
    }

    /// `break code`
    pub fn brk(&mut self, code: u32) {
        self.raw(Instr::Break { code });
    }

    /// `nop`
    pub fn nop(&mut self) {
        self.raw(Instr::NOP);
    }

    /// Load-immediate pseudo-instruction.
    ///
    /// Expands to `addiu rt, $zero, imm` when the value fits 16 signed bits,
    /// `ori rt, $zero, imm` when it fits 16 unsigned bits, and `lui` + `ori`
    /// otherwise.
    pub fn li(&mut self, rt: Reg, value: i32) {
        if let Ok(imm) = i16::try_from(value) {
            self.addiu(rt, Reg::Zero, imm);
        } else if let Ok(imm) = u16::try_from(value) {
            self.ori(rt, Reg::Zero, imm);
        } else {
            let v = value as u32;
            self.lui(rt, (v >> 16) as u16);
            if v & 0xffff != 0 {
                self.ori(rt, rt, (v & 0xffff) as u16);
            }
        }
    }

    /// Load-address pseudo-instruction (`lui` + `ori` as needed).
    pub fn la(&mut self, rt: Reg, addr: u32) {
        self.li(rt, addr as i32);
    }

    /// Register move, emitted the way a compiler back-end would:
    /// `addiu rd, rs, 0`. This is exactly the instruction-set overhead the
    /// paper's constant-propagation decompiler pass removes.
    pub fn mov(&mut self, rd: Reg, rs: Reg) {
        self.addiu(rd, rs, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Asm::new();
        let top = a.new_label();
        let out = a.new_label();
        a.bind(top);
        a.addiu(Reg::T0, Reg::T0, -1);
        a.beq(Reg::T0, Reg::Zero, out); // forward: +2 -1 = 1
        a.nop();
        a.b(top); // backward
        a.nop();
        a.bind(out);
        a.jr(Reg::Ra);
        let text = a.finish().unwrap();
        assert_eq!(
            text[1],
            Instr::Beq {
                rs: Reg::T0,
                rt: Reg::Zero,
                offset: 3
            }
        );
        assert_eq!(
            text[3],
            Instr::Beq {
                rs: Reg::Zero,
                rt: Reg::Zero,
                offset: -4
            }
        );
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut a = Asm::new();
        let l = a.new_label();
        a.b(l);
        let err = a.finish().unwrap_err();
        assert!(matches!(err, AsmError::UnboundLabel(_)));
        assert!(err.to_string().contains("never bound"));
    }

    #[test]
    fn jal_targets_absolute_address() {
        let mut a = Asm::with_text_base(0x0040_0000);
        let f = a.new_label();
        a.jal(f);
        a.nop();
        a.bind(f);
        a.jr(Reg::Ra);
        let text = a.finish().unwrap();
        assert_eq!(
            text[0],
            Instr::Jal {
                target: 0x0040_0008 >> 2
            }
        );
    }

    #[test]
    fn li_expansion_strategies() {
        let mut a = Asm::new();
        a.li(Reg::T0, 42);
        a.li(Reg::T1, -5);
        a.li(Reg::T2, 0xbeef); // fits u16, not i16
        a.li(Reg::T3, 0x1234_5678);
        a.li(Reg::T4, 0x7fff_0000); // low half zero: single lui
        let text = a.finish().unwrap();
        assert_eq!(
            text[0],
            Instr::Addiu {
                rt: Reg::T0,
                rs: Reg::Zero,
                imm: 42
            }
        );
        assert_eq!(
            text[2],
            Instr::Ori {
                rt: Reg::T2,
                rs: Reg::Zero,
                imm: 0xbeef
            }
        );
        assert_eq!(
            text[3],
            Instr::Lui {
                rt: Reg::T3,
                imm: 0x1234
            }
        );
        assert_eq!(
            text[4],
            Instr::Ori {
                rt: Reg::T3,
                rs: Reg::T3,
                imm: 0x5678
            }
        );
        assert_eq!(
            text[5],
            Instr::Lui {
                rt: Reg::T4,
                imm: 0x7fff
            }
        );
        assert_eq!(text.len(), 6);
    }

    #[test]
    fn label_addr_reports_bound_position() {
        let mut a = Asm::with_text_base(0x100);
        let l = a.new_label();
        a.nop();
        a.nop();
        a.bind(l);
        assert_eq!(a.label_addr(l), Some(0x108));
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn rebinding_panics() {
        let mut a = Asm::new();
        let l = a.new_label();
        a.bind(l);
        a.bind(l);
    }

    #[test]
    fn delay_slot_filling_moves_safe_instruction() {
        let mut a = Asm::new();
        let top = a.new_label();
        a.bind(top);
        a.ori(Reg::T2, Reg::Zero, 1); // block leader: must stay put
        a.addu(Reg::V0, Reg::V0, Reg::T0); // safe to move (branch reads T1)
        a.bne(Reg::T1, Reg::Zero, top);
        a.nop();
        a.jr(Reg::Ra);
        a.nop();
        assert_eq!(a.fill_delay_slots(), 1);
        let text = a.finish().unwrap();
        // ori stays the leader; bne moves up; addu lands in the slot
        assert!(matches!(text[0], Instr::Ori { .. }));
        assert!(matches!(text[1], Instr::Bne { .. }));
        assert!(matches!(text[2], Instr::Addu { .. }));
        // offset resolves from the branch's new position back to `top`
        assert_eq!(
            text[1],
            Instr::Bne {
                rs: Reg::T1,
                rt: Reg::Zero,
                offset: -2
            }
        );
    }

    #[test]
    fn delay_slot_not_filled_when_unsafe() {
        // candidate writes the branch's condition register
        let mut a = Asm::new();
        let top = a.new_label();
        a.bind(top);
        a.addiu(Reg::T1, Reg::T1, -1);
        a.bne(Reg::T1, Reg::Zero, top);
        a.nop();
        assert_eq!(a.fill_delay_slots(), 0);
        // candidate reads $ra defined by jal
        let mut a2 = Asm::new();
        let f = a2.new_label();
        a2.mov(Reg::T0, Reg::Ra);
        a2.jal(f);
        a2.nop();
        a2.bind(f);
        a2.jr(Reg::Ra);
        a2.nop();
        assert_eq!(a2.fill_delay_slots(), 0);
    }
}

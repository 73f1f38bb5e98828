//! Binary encoding and decoding of the MIPS-I subset.
//!
//! Encodings follow the real MIPS32 formats (R/I/J-type), so text sections
//! produced here are genuine machine code for the covered subset.

use crate::{Instr, Reg};
use std::fmt;

/// Error returned by [`decode`] for machine words outside the supported
/// subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The undecodable machine word.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unsupported machine word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

const fn r(op: u32, rs: Reg, rt: Reg, rd: Reg, shamt: u32, funct: u32) -> u32 {
    (op << 26)
        | ((rs as u32) << 21)
        | ((rt as u32) << 16)
        | ((rd as u32) << 11)
        | (shamt << 6)
        | funct
}

const fn i(op: u32, rs: Reg, rt: Reg, imm: u16) -> u32 {
    (op << 26) | ((rs as u32) << 21) | ((rt as u32) << 16) | imm as u32
}

/// Encodes an instruction into its 32-bit machine word.
///
/// # Example
///
/// ```
/// use binpart_mips::{encode, Instr};
/// assert_eq!(encode(Instr::NOP), 0);
/// ```
pub fn encode(instr: Instr) -> u32 {
    use Instr::*;
    const Z: Reg = Reg::Zero;
    match instr {
        Add { rd, rs, rt } => r(0, rs, rt, rd, 0, 0x20),
        Addu { rd, rs, rt } => r(0, rs, rt, rd, 0, 0x21),
        Sub { rd, rs, rt } => r(0, rs, rt, rd, 0, 0x22),
        Subu { rd, rs, rt } => r(0, rs, rt, rd, 0, 0x23),
        And { rd, rs, rt } => r(0, rs, rt, rd, 0, 0x24),
        Or { rd, rs, rt } => r(0, rs, rt, rd, 0, 0x25),
        Xor { rd, rs, rt } => r(0, rs, rt, rd, 0, 0x26),
        Nor { rd, rs, rt } => r(0, rs, rt, rd, 0, 0x27),
        Slt { rd, rs, rt } => r(0, rs, rt, rd, 0, 0x2a),
        Sltu { rd, rs, rt } => r(0, rs, rt, rd, 0, 0x2b),
        Sll { rd, rt, shamt } => r(0, Z, rt, rd, shamt as u32 & 0x1f, 0x00),
        Srl { rd, rt, shamt } => r(0, Z, rt, rd, shamt as u32 & 0x1f, 0x02),
        Sra { rd, rt, shamt } => r(0, Z, rt, rd, shamt as u32 & 0x1f, 0x03),
        Sllv { rd, rt, rs } => r(0, rs, rt, rd, 0, 0x04),
        Srlv { rd, rt, rs } => r(0, rs, rt, rd, 0, 0x06),
        Srav { rd, rt, rs } => r(0, rs, rt, rd, 0, 0x07),
        Mult { rs, rt } => r(0, rs, rt, Z, 0, 0x18),
        Multu { rs, rt } => r(0, rs, rt, Z, 0, 0x19),
        Div { rs, rt } => r(0, rs, rt, Z, 0, 0x1a),
        Divu { rs, rt } => r(0, rs, rt, Z, 0, 0x1b),
        Mfhi { rd } => r(0, Z, Z, rd, 0, 0x10),
        Mflo { rd } => r(0, Z, Z, rd, 0, 0x12),
        Mthi { rs } => r(0, rs, Z, Z, 0, 0x11),
        Mtlo { rs } => r(0, rs, Z, Z, 0, 0x13),
        Jr { rs } => r(0, rs, Z, Z, 0, 0x08),
        Jalr { rd, rs } => r(0, rs, Z, rd, 0, 0x09),
        Break { code } => ((code & 0xf_ffff) << 6) | 0x0d,
        Addi { rt, rs, imm } => i(0x08, rs, rt, imm as u16),
        Addiu { rt, rs, imm } => i(0x09, rs, rt, imm as u16),
        Slti { rt, rs, imm } => i(0x0a, rs, rt, imm as u16),
        Sltiu { rt, rs, imm } => i(0x0b, rs, rt, imm as u16),
        Andi { rt, rs, imm } => i(0x0c, rs, rt, imm),
        Ori { rt, rs, imm } => i(0x0d, rs, rt, imm),
        Xori { rt, rs, imm } => i(0x0e, rs, rt, imm),
        Lui { rt, imm } => i(0x0f, Z, rt, imm),
        Lb { rt, base, offset } => i(0x20, base, rt, offset as u16),
        Lh { rt, base, offset } => i(0x21, base, rt, offset as u16),
        Lw { rt, base, offset } => i(0x23, base, rt, offset as u16),
        Lbu { rt, base, offset } => i(0x24, base, rt, offset as u16),
        Lhu { rt, base, offset } => i(0x25, base, rt, offset as u16),
        Sb { rt, base, offset } => i(0x28, base, rt, offset as u16),
        Sh { rt, base, offset } => i(0x29, base, rt, offset as u16),
        Sw { rt, base, offset } => i(0x2b, base, rt, offset as u16),
        Beq { rs, rt, offset } => i(0x04, rs, rt, offset as u16),
        Bne { rs, rt, offset } => i(0x05, rs, rt, offset as u16),
        Blez { rs, offset } => i(0x06, rs, Z, offset as u16),
        Bgtz { rs, offset } => i(0x07, rs, Z, offset as u16),
        Bltz { rs, offset } => i(0x01, rs, Z, offset as u16),
        Bgez { rs, offset } => {
            (0x01 << 26) | ((rs as u32) << 21) | (1 << 16) | (offset as u16 as u32)
        }
        J { target } => (0x02 << 26) | (target & 0x03ff_ffff),
        Jal { target } => (0x03 << 26) | (target & 0x03ff_ffff),
    }
}

/// Decodes a 32-bit machine word.
///
/// # Errors
///
/// Returns [`DecodeError`] for opcodes/function codes outside the supported
/// MIPS-I subset. The decompiler surfaces this as a binary-parsing failure.
pub fn decode(word: u32) -> Result<Instr, DecodeError> {
    use Instr::*;
    let op = word >> 26;
    let rs = Reg::ALL[((word >> 21) & 0x1f) as usize];
    let rt = Reg::ALL[((word >> 16) & 0x1f) as usize];
    let rd = Reg::ALL[((word >> 11) & 0x1f) as usize];
    let shamt = ((word >> 6) & 0x1f) as u8;
    let funct = word & 0x3f;
    let imm_i = word as u16 as i16;
    let imm_u = word as u16;
    let err = Err(DecodeError { word });
    Ok(match op {
        0 => match funct {
            0x00 => Sll { rd, rt, shamt },
            0x02 => Srl { rd, rt, shamt },
            0x03 => Sra { rd, rt, shamt },
            0x04 => Sllv { rd, rt, rs },
            0x06 => Srlv { rd, rt, rs },
            0x07 => Srav { rd, rt, rs },
            0x08 => Jr { rs },
            0x09 => Jalr { rd, rs },
            0x0d => Break {
                code: (word >> 6) & 0xf_ffff,
            },
            0x10 => Mfhi { rd },
            0x11 => Mthi { rs },
            0x12 => Mflo { rd },
            0x13 => Mtlo { rs },
            0x18 => Mult { rs, rt },
            0x19 => Multu { rs, rt },
            0x1a => Div { rs, rt },
            0x1b => Divu { rs, rt },
            0x20 => Add { rd, rs, rt },
            0x21 => Addu { rd, rs, rt },
            0x22 => Sub { rd, rs, rt },
            0x23 => Subu { rd, rs, rt },
            0x24 => And { rd, rs, rt },
            0x25 => Or { rd, rs, rt },
            0x26 => Xor { rd, rs, rt },
            0x27 => Nor { rd, rs, rt },
            0x2a => Slt { rd, rs, rt },
            0x2b => Sltu { rd, rs, rt },
            _ => return err,
        },
        0x01 => match (word >> 16) & 0x1f {
            0 => Bltz { rs, offset: imm_i },
            1 => Bgez { rs, offset: imm_i },
            _ => return err,
        },
        0x02 => J {
            target: word & 0x03ff_ffff,
        },
        0x03 => Jal {
            target: word & 0x03ff_ffff,
        },
        0x04 => Beq {
            rs,
            rt,
            offset: imm_i,
        },
        0x05 => Bne {
            rs,
            rt,
            offset: imm_i,
        },
        0x06 if rt == Reg::Zero => Blez { rs, offset: imm_i },
        0x07 if rt == Reg::Zero => Bgtz { rs, offset: imm_i },
        0x08 => Addi { rt, rs, imm: imm_i },
        0x09 => Addiu { rt, rs, imm: imm_i },
        0x0a => Slti { rt, rs, imm: imm_i },
        0x0b => Sltiu { rt, rs, imm: imm_i },
        0x0c => Andi { rt, rs, imm: imm_u },
        0x0d => Ori { rt, rs, imm: imm_u },
        0x0e => Xori { rt, rs, imm: imm_u },
        0x0f => Lui { rt, imm: imm_u },
        0x20 => Lb {
            rt,
            base: rs,
            offset: imm_i,
        },
        0x21 => Lh {
            rt,
            base: rs,
            offset: imm_i,
        },
        0x23 => Lw {
            rt,
            base: rs,
            offset: imm_i,
        },
        0x24 => Lbu {
            rt,
            base: rs,
            offset: imm_i,
        },
        0x25 => Lhu {
            rt,
            base: rs,
            offset: imm_i,
        },
        0x28 => Sb {
            rt,
            base: rs,
            offset: imm_i,
        },
        0x29 => Sh {
            rt,
            base: rs,
            offset: imm_i,
        },
        0x2b => Sw {
            rt,
            base: rs,
            offset: imm_i,
        },
        _ => return err,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn nop_encodes_to_zero_word() {
        assert_eq!(encode(Instr::NOP), 0);
        assert_eq!(decode(0).unwrap(), Instr::NOP);
    }

    #[test]
    fn known_encodings_match_mips_manual() {
        // addu $t0, $t1, $t2 => 0x012a4021
        assert_eq!(
            encode(Instr::Addu {
                rd: Reg::T0,
                rs: Reg::T1,
                rt: Reg::T2
            }),
            0x012a_4021
        );
        // lw $a0, 8($sp) => 0x8fa40008
        assert_eq!(
            encode(Instr::Lw {
                rt: Reg::A0,
                base: Reg::Sp,
                offset: 8
            }),
            0x8fa4_0008
        );
        // jr $ra => 0x03e00008
        assert_eq!(encode(Instr::Jr { rs: Reg::Ra }), 0x03e0_0008);
        // beq $zero, $zero, -1 => 0x1000ffff
        assert_eq!(
            encode(Instr::Beq {
                rs: Reg::Zero,
                rt: Reg::Zero,
                offset: -1
            }),
            0x1000_ffff
        );
    }

    #[test]
    fn undecodable_words_error() {
        // opcode 0x3f is not in the subset
        assert!(decode(0xfc00_0000).is_err());
        // SPECIAL funct 0x3f unsupported
        assert!(decode(0x0000_003f).is_err());
        let e = decode(0xfc00_0000).unwrap_err();
        assert_eq!(e.word, 0xfc00_0000);
        assert!(e.to_string().contains("fc000000"));
    }

    // Seeded-random property checks (the offline container cannot fetch
    // proptest; the local deterministic `rand` shim stands in).

    fn arb_reg(rng: &mut StdRng) -> Reg {
        Reg::from_number(rng.gen_range(0..32) as u8).unwrap()
    }

    fn arb_instr(rng: &mut StdRng) -> Instr {
        use Instr::*;
        let r = |rng: &mut StdRng| arb_reg(rng);
        let i16r = |rng: &mut StdRng| (rng.gen::<u32>() & 0xffff) as u16 as i16;
        let u16r = |rng: &mut StdRng| (rng.gen::<u32>() & 0xffff) as u16;
        match rng.gen_range(0..19) {
            0 => Addu {
                rd: r(rng),
                rs: r(rng),
                rt: r(rng),
            },
            1 => Subu {
                rd: r(rng),
                rs: r(rng),
                rt: r(rng),
            },
            2 => Slt {
                rd: r(rng),
                rs: r(rng),
                rt: r(rng),
            },
            3 => Sll {
                rd: r(rng),
                rt: r(rng),
                shamt: rng.gen_range(0..32) as u8,
            },
            4 => Sra {
                rd: r(rng),
                rt: r(rng),
                shamt: rng.gen_range(0..32) as u8,
            },
            5 => Addiu {
                rt: r(rng),
                rs: r(rng),
                imm: i16r(rng),
            },
            6 => Ori {
                rt: r(rng),
                rs: r(rng),
                imm: u16r(rng),
            },
            7 => Lui {
                rt: r(rng),
                imm: u16r(rng),
            },
            8 => Lw {
                rt: r(rng),
                base: r(rng),
                offset: i16r(rng),
            },
            9 => Sw {
                rt: r(rng),
                base: r(rng),
                offset: i16r(rng),
            },
            10 => Beq {
                rs: r(rng),
                rt: r(rng),
                offset: i16r(rng),
            },
            11 => Bgez {
                rs: r(rng),
                offset: i16r(rng),
            },
            12 => Bltz {
                rs: r(rng),
                offset: i16r(rng),
            },
            13 => J {
                target: rng.gen::<u32>() & 0x03ff_ffff,
            },
            14 => Jal {
                target: rng.gen::<u32>() & 0x03ff_ffff,
            },
            15 => Jr { rs: r(rng) },
            16 => Mult {
                rs: r(rng),
                rt: r(rng),
            },
            17 => Divu {
                rs: r(rng),
                rt: r(rng),
            },
            _ => Mflo { rd: r(rng) },
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0001);
        for _ in 0..20_000 {
            let instr = arb_instr(&mut rng);
            let word = encode(instr);
            let back = decode(word).expect("decodable");
            assert_eq!(instr, back, "word {word:#010x}");
        }
    }

    #[test]
    fn decode_encode_is_identity_when_decodable() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0002);
        let mut decodable = 0u32;
        for _ in 0..200_000 {
            let word: u32 = rng.gen();
            if let Ok(instr) = decode(word) {
                decodable += 1;
                // Re-encoding may canonicalize don't-care fields, but decoding
                // again must give the same instruction.
                let word2 = encode(instr);
                assert_eq!(decode(word2).unwrap(), instr, "word {word:#010x}");
            }
        }
        assert!(decodable > 0, "sample never hit a decodable word");
    }
}

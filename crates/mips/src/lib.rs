//! MIPS-I subset instruction-set model, assembler, binary image format, and a
//! cycle-approximate profiling simulator.
//!
//! This crate is the processor substrate for the decompilation-based
//! partitioning flow: the mini-C compiler emits [`Binary`] images of encoded
//! MIPS words, the [`sim::Machine`] executes them (with architecturally
//! correct branch delay slots) collecting a [`sim::Profile`], and the
//! decompiler in `binpart-core` re-parses the same words back into a CDFG.
//!
//! | file | role | entry point |
//! |---|---|---|
//! | `instr.rs` | the MIPS-I subset instruction enum and its text form | [`Instr`] |
//! | `reg.rs` | general-purpose register names | [`Reg`] |
//! | `encode.rs` | 32-bit word encoding and decoding | [`encode::encode`], [`encode::decode`] |
//! | `asm.rs` | label-based assembler with pseudo-instructions | [`Asm`] |
//! | `binary.rs` | the binary image: text, data, entry, optional symbols | [`Binary`], [`BinaryBuilder`] |
//! | `cycles.rs` | per-instruction cycle costs | [`CycleModel`] |
//! | `sim.rs` | the simulator: paged memory, pre-decode, block dispatch, superinstruction fusion, profile | [`sim::Machine`], [`sim::Profile`] |
//! | `superblock.rs` | the trace cache: record hot dispatch rounds, fuse them, replay them | [`sim::Machine::trace_cache_stats`] |
//! | `reference.rs` | the seed simulator, kept as the differential oracle | [`reference::ReferenceMachine`] |
//! | `hybrid.rs` | the CPU/FPGA machine: trap at partitioned regions, run an accelerator, diff its stores | [`hybrid::HybridMachine`] |
//!
//! # Example
//!
//! Assemble a tiny program that sums 10..=1 into `$v0`, run it, and inspect
//! the result:
//!
//! ```
//! use binpart_mips::{Asm, Reg, BinaryBuilder, sim::Machine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new();
//! let loop_top = a.new_label();
//! a.li(Reg::T0, 10);           // i = 10
//! a.li(Reg::V0, 0);            // sum = 0
//! a.bind(loop_top);
//! a.addu(Reg::V0, Reg::V0, Reg::T0);
//! a.addiu(Reg::T0, Reg::T0, -1);
//! a.bgtz(Reg::T0, loop_top);
//! a.nop();                     // branch delay slot
//! a.jr(Reg::Ra);
//! a.nop();
//! let text = a.finish()?;
//!
//! let binary = BinaryBuilder::new().text(text).build();
//! let mut m = Machine::new(&binary)?;
//! let exit = m.run()?;
//! assert_eq!(exit.reg(Reg::V0), 55);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod asm;
pub mod binary;
pub mod cycles;
pub mod encode;
pub mod hybrid;
pub mod instr;
pub mod reference;
pub mod reg;
pub mod sim;
pub mod superblock;

pub use asm::{Asm, AsmError, Label};
pub use binary::{Binary, BinaryBuilder, LoadBinaryError, Symbol, SymbolKind};
pub use cycles::CycleModel;
pub use encode::{decode, encode, DecodeError};
pub use instr::Instr;
pub use reg::Reg;

/// Program counter value that terminates simulation: the loader seeds `$ra`
/// with this address so a `jr $ra` from the entry function halts the machine.
pub const HALT_PC: u32 = 0xffff_0000;

/// Default base address of the text section (mirrors conventional MIPS
/// user-space layout).
pub const DEFAULT_TEXT_BASE: u32 = 0x0040_0000;

/// Default base address of the data section.
pub const DEFAULT_DATA_BASE: u32 = 0x1001_0000;

/// Default initial stack pointer (grows downward).
pub const DEFAULT_STACK_TOP: u32 = 0x7fff_f000;

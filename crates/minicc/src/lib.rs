//! A mini-C compiler targeting the MIPS-I subset, with gcc-like `-O0..-O3`
//! optimization pipelines.
//!
//! The crate exists to stand in for "any software compiler" in the
//! decompilation-based partitioning flow: the paper's premise is that the
//! partitioning tool consumes the final **binary**, so what matters is that
//! this compiler produces binaries with the same artifacts real compilers
//! emit — stack-resident locals at `-O0`, strength-reduced multiplies,
//! filled branch delay slots and jump tables at `-O2`, unrolled loops and
//! inlined calls at `-O3`.
//!
//! # Example
//!
//! ```
//! use binpart_minicc::{compile, OptLevel};
//! use binpart_mips::{sim::Machine, Reg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let binary = compile(
//!     "int main(void) { int i; int s = 0; for (i = 1; i <= 10; i++) s += i; return s; }",
//!     OptLevel::O1,
//! )?;
//! let mut m = Machine::new(&binary)?;
//! let exit = m.run()?;
//! assert_eq!(exit.reg(Reg::V0), 55);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ast;
pub mod ast_opt;
pub mod codegen;
pub mod lexer;
pub mod lower;
pub mod opt;
pub mod parser;
pub mod tir;

pub use ast::{Program, Ty};
pub use codegen::CodegenError;
pub use lower::LowerError;
pub use opt::OptLevel;
pub use parser::ParseError;

use binpart_mips::Binary;
use std::fmt;

/// Any failure across the compiler pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Lexing/parsing failure.
    Parse(ParseError),
    /// Semantic failure.
    Lower(LowerError),
    /// Code generation failure.
    Codegen(CodegenError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Lower(e) => write!(f, "{e}"),
            CompileError::Codegen(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Parse(e) => Some(e),
            CompileError::Lower(e) => Some(e),
            CompileError::Codegen(e) => Some(e),
        }
    }
}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<LowerError> for CompileError {
    fn from(e: LowerError) -> Self {
        CompileError::Lower(e)
    }
}

impl From<CodegenError> for CompileError {
    fn from(e: CodegenError) -> Self {
        CompileError::Codegen(e)
    }
}

/// Compiles mini-C source into a MIPS [`Binary`] at the given level.
///
/// The entry point of the binary is `main` (which must exist and should
/// take no arguments); the loader arranges for a `jr $ra` from `main` to
/// halt the simulator.
///
/// # Errors
///
/// Returns [`CompileError`] for syntax errors, semantic errors (undefined
/// names, arity mismatches), or a missing `main`.
pub fn compile(source: &str, level: OptLevel) -> Result<Binary, CompileError> {
    let mut program = parser::parse(source)?;
    if level >= OptLevel::O3 {
        ast_opt::optimize_ast(&mut program);
    }
    let mut tprog = lower::lower(&program)?;
    for f in &mut tprog.funcs {
        opt::optimize(f, level);
    }
    Ok(codegen::generate(&tprog, level)?)
}

/// Compiles and also returns the optimized TIR (used by tests and reports).
///
/// # Errors
///
/// Same as [`compile`].
pub fn compile_with_tir(
    source: &str,
    level: OptLevel,
) -> Result<(Binary, tir::TProgram), CompileError> {
    let mut program = parser::parse(source)?;
    if level >= OptLevel::O3 {
        ast_opt::optimize_ast(&mut program);
    }
    let mut tprog = lower::lower(&program)?;
    for f in &mut tprog.funcs {
        opt::optimize(f, level);
    }
    let binary = codegen::generate(&tprog, level)?;
    Ok((binary, tprog))
}

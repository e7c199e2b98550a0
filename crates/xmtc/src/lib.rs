//! # xmtc — a miniature XMTC compiler
//!
//! The paper's programs are written in XMTC, "a modest extension of C"
//! compiled by the XMT toolchain (\[20\]); Section IV-B argues that the
//! whole tuned FFT "required only a modest effort beyond … a serial
//! implementation". This crate reproduces that programming layer: a
//! small C-like language with the XMT parallel primitives, compiled to
//! the `xmt-isa` instruction set and runnable on both the untimed
//! interpreter and the cycle simulator.
//!
//! ## The language
//!
//! ```c
//! // serial code runs on the MTCU …
//! g0 = 1000;                 // global registers broadcast parameters
//! int n = 64;
//! spawn (n) {                // … parallel sections on the TCUs
//!     int i = $;             // `$` is the thread id, as in XMTC
//!     mem[i + 64] = mem[i] * 2 + g0;
//!     int t = ps(g1, 1);     // prefix-sum: constant-time coordination
//!     if (t == 0) { sspawn(1); }   // dynamically extend the section
//! }
//! mem[0] = g1;
//! ```
//!
//! * Types: `int` (u32, wrapping) and `float` (f32).
//! * Shared memory: `mem[addr]` (int) and `fmem[addr]` (float), word
//!   addressed.
//! * `spawn (n) { … }` / `$` / `ps(gK, e)` / `sspawn(e)` map 1:1 to
//!   the ISA's XMT primitives.
//! * Serial locals live in MTCU registers and are *not visible* inside
//!   `spawn` — pass values through `g0..g15`, as real XMT code does.
//!
//! ## Example
//!
//! ```
//! let prog = xmtc::compile("spawn (8) { mem[$] = $ * $; }").unwrap();
//! let mut m = xmt_isa::Interp::new(16);
//! m.run(&prog).unwrap();
//! assert_eq!(m.mem[7], 49);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod codegen;
pub mod lexer;
pub mod parser;
pub mod samples;

pub use ast::{BinOp, CmpOp, Cond, Expr, ProgramAst, Stmt, Ty};
pub use codegen::{compile_ast, CodegenError};
pub use lexer::{lex, LexError, Tok, Token};
pub use parser::{parse, ParseError};

use std::fmt;

/// End-to-end compilation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Parsing failed.
    Parse(ParseError),
    /// Code generation failed.
    Codegen(CodegenError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Codegen(e) => write!(f, "codegen error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compile XMTC source to an executable [`xmt_isa::Program`].
pub fn compile(src: &str) -> Result<xmt_isa::Program, CompileError> {
    let ast = parse(src).map_err(CompileError::Parse)?;
    compile_ast(&ast).map_err(CompileError::Codegen)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_compile_and_disassemble() {
        let prog = compile("int x = 2; mem[0] = x;").unwrap();
        let dis = prog.disassemble();
        assert!(dis.contains("halt"));
        assert!(dis.contains("sw"));
    }

    #[test]
    fn compiled_program_runs_on_cycle_simulator() {
        let prog = compile(
            "g0 = 5;
             spawn (32) { mem[$] = $ * g0; }",
        )
        .unwrap();
        let cfg = xmt_sim::XmtConfig::xmt_4k().scaled_to(2);
        let mut m = xmt_sim::SimConfig::new(&cfg)
            .builder(prog.clone())
            .mem_words(64)
            .build();
        let summary = m.run().unwrap();
        for t in 0..32u32 {
            assert_eq!(m.mem[t as usize], t * 5);
        }
        assert_eq!(summary.stats.threads, 32);

        // And the interpreter agrees exactly.
        let mut i = xmt_isa::Interp::new(64);
        i.run(&prog).unwrap();
        assert_eq!(&i.mem[..32], &m.mem[..32]);
    }

    #[test]
    fn error_types_propagate() {
        assert!(matches!(compile("int x = ;"), Err(CompileError::Parse(_))));
        assert!(matches!(
            compile("mem[0] = $;"),
            Err(CompileError::Codegen(_))
        ));
    }
}

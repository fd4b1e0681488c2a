//! A small register-machine IR for floating-point programs, with an
//! interpreter and the instrumentation passes of the paper's Reduction
//! Kernel.
//!
//! The original implementation of weak-distance minimization instruments C
//! programs with an LLVM pass (Section 5.3): a global variable `w` is added
//! and a small stub is injected before every conditional branch (boundary
//! value analysis, path reachability) or after every floating-point
//! operation (overflow detection). This crate reproduces that layer without
//! a C toolchain:
//!
//! * [`ir`] defines a compact CFG-based IR whose instructions each perform
//!   one binary64 operation, mirroring the paper's "each FP operation
//!   corresponds to exactly one instruction in the IR";
//! * [`builder`] provides an `IRBuilder`-style API for constructing
//!   programs;
//! * [`interp`] executes a program while reporting
//!   [`fp_runtime`] events, so IR programs are
//!   [`Analyzable`](fp_runtime::Analyzable) like any hand-instrumented Rust
//!   port;
//! * [`kernel`] specializes a module into a lanewise structure-of-arrays
//!   kernel that evaluates whole batches in lockstep (the SIMD-style
//!   backend behind [`fp_runtime::KernelPolicy`]), bit-identical to the
//!   interpreter;
//! * [`instrument`] contains the *transformation-based* weak-distance
//!   constructions: given a program, it injects the `w` updates of Figures
//!   3(a), 4(a) and Algorithm 3 step 2 and produces a new entry point `W`;
//! * [`programs`] has ready-made IR versions of the paper's example
//!   programs (Figures 1 and 2).
//!
//! # Example
//!
//! ```
//! use fpir::programs::fig2_program;
//! use fpir::ModuleProgram;
//! use fp_runtime::{Analyzable, NullObserver};
//!
//! let module = fig2_program();
//! let prog = ModuleProgram::new(module, "prog").unwrap();
//! // Fig. 2: Prog(0.5) takes both branches and returns 0.5 + 1 - 1.
//! assert_eq!(prog.run(&[0.5], &mut NullObserver), Some(0.5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod instrument;
pub mod interp;
pub mod ir;
pub mod kernel;
mod lower;
pub mod opt;
pub mod programs;
pub mod validate;

pub use analysis::{ModuleAnalysis, StaticInfo};
pub use builder::{FunctionBuilder, ModuleBuilder};
pub use interp::{ExecError, Interpreter, ModuleProgram};
pub use ir::{
    BinOp, Block, BlockId, FuncId, Function, GlobalId, Inst, Module, Reg, Terminator, UnOp,
};
pub use kernel::KernelExecutor;
pub use opt::{specialize, OptStats, SpecializeError};
pub use validate::{validate, ValidationError};

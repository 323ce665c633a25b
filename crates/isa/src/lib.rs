//! # lf-isa — the LoopFrog reproduction ISA
//!
//! A small RISC-like instruction set extended with the three LoopFrog hint
//! instructions (`detach`, `reattach`, `sync`) from *LoopFrog: In-Core
//! Hint-Based Loop Parallelization* (MICRO 2025, §3.1). This crate provides:
//!
//! - the instruction definitions ([`Inst`], [`AluOp`], [`FpuOp`], …),
//! - a unified 64-register architectural register space ([`Reg`]),
//! - a label-resolving assembler ([`ProgramBuilder`]),
//! - a byte-addressed memory image ([`Memory`]),
//! - and a sequential golden-model interpreter ([`Emulator`]) that treats
//!   hints as NOPs — the semantics every LoopFrog execution must preserve.
//!
//! # Examples
//!
//! Assemble and run a counted loop:
//!
//! ```
//! use lf_isa::{ProgramBuilder, Emulator, Memory, reg, AluOp, BranchCond};
//!
//! let mut b = ProgramBuilder::new();
//! let top = b.label("top");
//! b.li(reg::x(1), 0);
//! b.li(reg::x(2), 0);
//! b.bind(top);
//! b.alu(AluOp::Add, reg::x(2), reg::x(2), reg::x(1));
//! b.alui(AluOp::Add, reg::x(1), reg::x(1), 1);
//! b.branch(BranchCond::Lt, reg::x(1), reg::x(1), top); // never taken
//! b.halt();
//! let program = b.build()?;
//! let mut emu = Emulator::new(&program, Memory::new(64));
//! emu.run(100)?;
//! assert!(emu.is_halted());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod checksum;
pub mod diff;
pub mod emu;
pub mod fast;
pub mod inst;
pub mod mem;
pub mod parse;
pub mod program;
pub mod reg;

pub use builder::{BuildError, Label, ProgramBuilder};
pub use diff::{MemDiff, RegDiff, StateDiff};
pub use emu::{
    eval_alu, eval_branch, eval_fpu, extend_load, EmuError, Emulator, ExecResult, Profile,
    StepStop, StopReason,
};
pub use fast::{
    Checkpoint, CheckpointError, FastTier, MemAccessHint, WarmHints, BBV_NEW_LINES_KEY,
};
pub use inst::{AluOp, BranchCond, FpuOp, FuClass, HintKind, Inst, MemSize, Operand, RegionId};
pub use mem::{MemError, Memory};
pub use parse::{parse_program, ParseError};
pub use program::Program;
pub use reg::{Reg, RegSet, NUM_ARCH_REGS, NUM_FP_REGS, NUM_INT_REGS};

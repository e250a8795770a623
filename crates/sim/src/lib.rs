//! Cycle-level simulator of the Piton 25-core manycore.
//!
//! This crate models the chip the HPCA'18 characterization paper
//! measured: 25 tiles in a 5×5 mesh, each with a modified OpenSPARC
//! T1-style core (single-issue, six-stage, two-way fine-grained
//! multithreaded, 8-entry store buffer with speculative issue and
//! roll-back), a write-through L1D wrapped by a private write-back L1.5,
//! a distributed shared L2 with a directory-based MESI protocol, three
//! 64-bit physical NoCs with dimension-ordered wormhole routing, and the
//! off-chip chipset path (gateway FPGA → FMC → chipset FPGA → DDR3
//! DRAM) whose latency pipeline matches Figure 15.
//!
//! The simulator is *functional + timing + activity*: instructions
//! execute over real 64-bit values (so operand-dependent energy emerges),
//! every transaction returns its latency, and all energy-relevant events
//! are tallied into [`events::ActivityCounters`] for the power model in
//! `piton-power`.
//!
//! # Examples
//!
//! ```
//! use piton_sim::machine::Machine;
//! use piton_sim::program::Program;
//! use piton_arch::config::ChipConfig;
//! use piton_arch::isa::{Instruction, Opcode, Reg};
//!
//! // Run an add loop on all 25 cores for a measurement window.
//! let program = Program::from_instructions(vec![
//!     Instruction::movi(Reg::new(1), 0),
//!     Instruction::movi(Reg::new(2), 3),
//!     Instruction::alu(Opcode::Add, Reg::new(1), Reg::new(1), Reg::new(2)),
//!     Instruction::branch(Opcode::Beq, Reg::new(0), Reg::new(0), 2),
//! ]);
//! let mut m = Machine::new(&ChipConfig::default());
//! m.load_on_tiles(25, 0, &program);
//! m.run(10_000);
//! let adds = m.counters().issues[Opcode::Add.index()];
//! assert!(adds > 25 * 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chipset;
pub mod core;
pub mod events;
pub mod fastmap;
pub mod machine;
pub mod mem;
pub mod memsys;
pub mod noc;
pub mod program;
pub mod testprog;

pub use crate::core::WaitKind;
pub use events::ActivityCounters;
pub use machine::Machine;
pub use program::Program;

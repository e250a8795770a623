//! The simulated SPARC-V9-like instruction set.
//!
//! Piton's core is a modified OpenSPARC T1: single-issue, six-stage,
//! in-order, with two-way fine-grained multithreading. The EPI study of
//! §IV-E characterizes exactly the instruction classes modelled here, with
//! the latencies of Table VI. We keep the set small but *functional* —
//! instructions execute over real 64-bit values, because the paper's key
//! finding is that **operand values have a large impact on EPI** and we
//! want that effect to emerge from actual datapath bit activity.
//!
//! # Examples
//!
//! ```
//! use piton_arch::isa::{Instruction, Opcode, Reg};
//!
//! let add = Instruction::alu(Opcode::Add, Reg::new(1), Reg::new(2), Reg::new(3));
//! assert_eq!(add.opcode.base_latency(), 1);
//! assert_eq!(Opcode::Sdivx.base_latency(), 72); // Table VI
//! ```

use std::fmt;

/// Architectural integer or floating-point register index.
///
/// Register 0 of the integer file is hardwired to zero (`%g0`), as in
/// SPARC.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Number of architectural registers in each file.
    pub const COUNT: usize = 32;

    /// The hardwired-zero integer register `%g0`.
    pub const G0: Reg = Reg(0);

    /// Creates a register index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub const fn new(index: u8) -> Self {
        assert!(index < Self::COUNT as u8, "register index out of range");
        Self(index)
    }

    /// Returns the raw index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%r{}", self.0)
    }
}

/// Broad instruction class, matching the grouping of Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// 64-bit integer ALU operations.
    Integer,
    /// Double-precision floating point.
    FpDouble,
    /// Single-precision floating point.
    FpSingle,
    /// Loads, stores, atomics.
    Memory,
    /// Branches.
    Control,
    /// `nop` and other pipeline-only instructions.
    Misc,
}

impl fmt::Display for InstrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            InstrClass::Integer => "Integer",
            InstrClass::FpDouble => "FP DP",
            InstrClass::FpSingle => "FP SP",
            InstrClass::Memory => "Mem.",
            InstrClass::Control => "Control",
            InstrClass::Misc => "Misc",
        };
        f.write_str(name)
    }
}

/// Operation code of the simulated instruction set.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// No operation.
    #[default]
    Nop,
    /// Bitwise AND (64-bit).
    And,
    /// Integer add (64-bit).
    Add,
    /// Integer subtract (64-bit); used by loop counters.
    Sub,
    /// Integer multiply (64-bit), 11-cycle latency.
    Mulx,
    /// Integer divide (64-bit), 72-cycle latency.
    Sdivx,
    /// FP add, double precision.
    Faddd,
    /// FP multiply, double precision.
    Fmuld,
    /// FP divide, double precision.
    Fdivd,
    /// FP add, single precision.
    Fadds,
    /// FP multiply, single precision.
    Fmuls,
    /// FP divide, single precision.
    Fdivs,
    /// Load extended (64-bit).
    Ldx,
    /// Store extended (64-bit); goes through the 8-entry store buffer.
    Stx,
    /// Compare-and-swap extended (64-bit atomic); used for locks.
    Casx,
    /// Branch if rs1 == rs2.
    Beq,
    /// Branch if rs1 != rs2.
    Bne,
    /// Move immediate into a register (models SPARC `sethi`/`or` pairs).
    Movi,
    /// Memory barrier; drains the store buffer.
    Membar,
    /// Stop the executing thread (test harness control, not SPARC).
    Halt,
}

impl Opcode {
    /// Number of distinct opcodes.
    pub const COUNT: usize = 20;

    /// Stable dense index of this opcode, for per-opcode counter arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// All opcodes, in a stable presentation order.
    pub const ALL: [Opcode; 20] = [
        Opcode::Nop,
        Opcode::And,
        Opcode::Add,
        Opcode::Sub,
        Opcode::Mulx,
        Opcode::Sdivx,
        Opcode::Faddd,
        Opcode::Fmuld,
        Opcode::Fdivd,
        Opcode::Fadds,
        Opcode::Fmuls,
        Opcode::Fdivs,
        Opcode::Ldx,
        Opcode::Stx,
        Opcode::Casx,
        Opcode::Beq,
        Opcode::Bne,
        Opcode::Movi,
        Opcode::Membar,
        Opcode::Halt,
    ];

    /// The instruction class used for grouping results in Figure 11.
    #[must_use]
    pub fn class(self) -> InstrClass {
        match self {
            Opcode::Nop | Opcode::Membar | Opcode::Halt => InstrClass::Misc,
            Opcode::And
            | Opcode::Add
            | Opcode::Sub
            | Opcode::Mulx
            | Opcode::Sdivx
            | Opcode::Movi => InstrClass::Integer,
            Opcode::Faddd | Opcode::Fmuld | Opcode::Fdivd => InstrClass::FpDouble,
            Opcode::Fadds | Opcode::Fmuls | Opcode::Fdivs => InstrClass::FpSingle,
            Opcode::Ldx | Opcode::Stx | Opcode::Casx => InstrClass::Memory,
            Opcode::Beq | Opcode::Bne => InstrClass::Control,
        }
    }

    /// Best-case occupancy latency in core clock cycles (Table VI).
    ///
    /// For memory instructions this is the L1-hit latency; misses add the
    /// memory-system latency on top. For branches it is the
    /// taken/not-taken pipeline latency of 3 cycles.
    #[must_use]
    pub fn base_latency(self) -> u64 {
        match self {
            Opcode::Nop | Opcode::And | Opcode::Add | Opcode::Sub | Opcode::Movi => 1,
            Opcode::Mulx => 11,
            Opcode::Sdivx => 72,
            Opcode::Faddd | Opcode::Fadds => 22,
            Opcode::Fmuld | Opcode::Fmuls => 25,
            Opcode::Fdivd => 79,
            Opcode::Fdivs => 50,
            Opcode::Ldx => 3,
            Opcode::Stx => 10,
            Opcode::Casx => 24,
            Opcode::Beq | Opcode::Bne => 3,
            Opcode::Membar => 4,
            Opcode::Halt => 1,
        }
    }

    /// Whether the instruction reads data operands whose values influence
    /// datapath switching energy (the min/random/max study of Figure 11).
    #[must_use]
    pub fn has_value_operands(self) -> bool {
        !matches!(
            self,
            Opcode::Nop | Opcode::Membar | Opcode::Halt | Opcode::Movi
        )
    }

    /// Whether this opcode is a conditional branch.
    #[must_use]
    pub fn is_branch(self) -> bool {
        matches!(self, Opcode::Beq | Opcode::Bne)
    }

    /// The mnemonic as printed in the paper's figures.
    #[must_use]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Nop => "nop",
            Opcode::And => "and",
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::Mulx => "mulx",
            Opcode::Sdivx => "sdivx",
            Opcode::Faddd => "faddd",
            Opcode::Fmuld => "fmuld",
            Opcode::Fdivd => "fdivd",
            Opcode::Fadds => "fadds",
            Opcode::Fmuls => "fmuls",
            Opcode::Fdivs => "fdivs",
            Opcode::Ldx => "ldx",
            Opcode::Stx => "stx",
            Opcode::Casx => "casx",
            Opcode::Beq => "beq",
            Opcode::Bne => "bne",
            Opcode::Movi => "movi",
            Opcode::Membar => "membar",
            Opcode::Halt => "halt",
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One decoded instruction.
///
/// The encoding is deliberately uniform (a compound struct rather than an
/// enum of shapes) because the simulator's decode stage treats all
/// instructions identically; unused fields are zero.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Instruction {
    /// Operation.
    pub opcode: Opcode,
    /// Destination register.
    pub rd: Reg,
    /// First source register.
    pub rs1: Reg,
    /// Second source register.
    pub rs2: Reg,
    /// Immediate: address offset for memory ops, value for `movi`,
    /// branch target (absolute instruction index) for branches.
    pub imm: i64,
}

impl Instruction {
    /// Architectural size of one instruction in bytes (SPARC fixed 4-byte
    /// encoding); used for I-cache footprint modelling.
    pub const SIZE_BYTES: u64 = 4;

    /// A `nop`.
    #[must_use]
    pub fn nop() -> Self {
        Self::default()
    }

    /// A three-register ALU or FP operation `rd = rs1 op rs2`.
    #[must_use]
    pub fn alu(opcode: Opcode, rd: Reg, rs1: Reg, rs2: Reg) -> Self {
        Self {
            opcode,
            rd,
            rs1,
            rs2,
            imm: 0,
        }
    }

    /// `movi rd, imm` — load a 64-bit immediate.
    #[must_use]
    pub fn movi(rd: Reg, value: i64) -> Self {
        Self {
            opcode: Opcode::Movi,
            rd,
            imm: value,
            ..Self::default()
        }
    }

    /// `ldx rd, [rs1 + offset]`.
    #[must_use]
    pub fn ldx(rd: Reg, base: Reg, offset: i64) -> Self {
        Self {
            opcode: Opcode::Ldx,
            rd,
            rs1: base,
            imm: offset,
            ..Self::default()
        }
    }

    /// `stx rs2, [rs1 + offset]`.
    #[must_use]
    pub fn stx(src: Reg, base: Reg, offset: i64) -> Self {
        Self {
            opcode: Opcode::Stx,
            rs1: base,
            rs2: src,
            imm: offset,
            ..Self::default()
        }
    }

    /// `casx [rs1], rs2, rd` — if `mem[rs1] == rs2` then swap with `rd`;
    /// `rd` receives the old memory value either way.
    #[must_use]
    pub fn casx(rd: Reg, addr: Reg, expected: Reg) -> Self {
        Self {
            opcode: Opcode::Casx,
            rd,
            rs1: addr,
            rs2: expected,
            ..Self::default()
        }
    }

    /// A conditional branch comparing `rs1` and `rs2`, targeting the
    /// absolute instruction index `target`.
    #[must_use]
    pub fn branch(opcode: Opcode, rs1: Reg, rs2: Reg, target: usize) -> Self {
        assert!(opcode.is_branch(), "branch() requires a branch opcode");
        Self {
            opcode,
            rs1,
            rs2,
            imm: target as i64,
            ..Self::default()
        }
    }

    /// Memory barrier: drains the store buffer.
    #[must_use]
    pub fn membar() -> Self {
        Self {
            opcode: Opcode::Membar,
            ..Self::default()
        }
    }

    /// Stops the executing thread.
    #[must_use]
    pub fn halt() -> Self {
        Self {
            opcode: Opcode::Halt,
            ..Self::default()
        }
    }

    /// Branch target as an instruction index.
    ///
    /// # Panics
    ///
    /// Panics if the instruction is not a branch.
    #[must_use]
    pub fn branch_target(&self) -> usize {
        assert!(self.opcode.is_branch(), "not a branch: {}", self.opcode);
        self.imm as usize
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.opcode {
            Opcode::Nop | Opcode::Membar | Opcode::Halt => write!(f, "{}", self.opcode),
            Opcode::Movi => write!(f, "movi {}, {:#x}", self.rd, self.imm),
            Opcode::Ldx => write!(f, "ldx {}, [{} + {:#x}]", self.rd, self.rs1, self.imm),
            Opcode::Stx => write!(f, "stx {}, [{} + {:#x}]", self.rs2, self.rs1, self.imm),
            Opcode::Casx => write!(f, "casx [{}], {}, {}", self.rs1, self.rs2, self.rd),
            Opcode::Beq | Opcode::Bne => {
                write!(
                    f,
                    "{} {}, {}, @{}",
                    self.opcode, self.rs1, self.rs2, self.imm
                )
            }
            _ => write!(f, "{} {}, {}, {}", self.opcode, self.rd, self.rs1, self.rs2),
        }
    }
}

/// Operand value pattern used in the EPI study (Figure 11).
///
/// "Minimum" drives all datapath bits to zero, "maximum" to the all-ones
/// 64-bit pattern, and "random" to uniformly random values — the three
/// series the paper reports for every instruction with input operands.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandPattern {
    /// All operand bits zero.
    Minimum,
    /// Uniformly random operand bits (the default measurement condition).
    #[default]
    Random,
    /// All operand bits one.
    Maximum,
}

impl OperandPattern {
    /// The three patterns in the paper's presentation order.
    pub const ALL: [OperandPattern; 3] = [
        OperandPattern::Minimum,
        OperandPattern::Random,
        OperandPattern::Maximum,
    ];
}

impl fmt::Display for OperandPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OperandPattern::Minimum => "minimum",
            OperandPattern::Random => "random",
            OperandPattern::Maximum => "maximum",
        };
        f.write_str(name)
    }
}

/// Table VI of the paper: the latencies used in the EPI calculations.
///
/// Returned as `(label, latency)` rows exactly as printed.
#[must_use]
pub fn table_vi_latencies() -> Vec<(&'static str, u64)> {
    vec![
        ("nop", Opcode::Nop.base_latency()),
        ("and", Opcode::And.base_latency()),
        ("add", Opcode::Add.base_latency()),
        ("mulx", Opcode::Mulx.base_latency()),
        ("sdivx", Opcode::Sdivx.base_latency()),
        ("faddd", Opcode::Faddd.base_latency()),
        ("fmuld", Opcode::Fmuld.base_latency()),
        ("fdivd", Opcode::Fdivd.base_latency()),
        ("fadds", Opcode::Fadds.base_latency()),
        ("fmuls", Opcode::Fmuls.base_latency()),
        ("fdivs", Opcode::Fdivs.base_latency()),
        ("ldx (L1/L1.5 hit)", Opcode::Ldx.base_latency()),
        ("stx stb full", Opcode::Stx.base_latency()),
        ("stx stb space", Opcode::Stx.base_latency()),
        ("beq taken", Opcode::Beq.base_latency()),
        ("bne nottaken", Opcode::Bne.base_latency()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_vi_matches_paper() {
        assert_eq!(Opcode::Nop.base_latency(), 1);
        assert_eq!(Opcode::And.base_latency(), 1);
        assert_eq!(Opcode::Add.base_latency(), 1);
        assert_eq!(Opcode::Mulx.base_latency(), 11);
        assert_eq!(Opcode::Sdivx.base_latency(), 72);
        assert_eq!(Opcode::Faddd.base_latency(), 22);
        assert_eq!(Opcode::Fmuld.base_latency(), 25);
        assert_eq!(Opcode::Fdivd.base_latency(), 79);
        assert_eq!(Opcode::Fadds.base_latency(), 22);
        assert_eq!(Opcode::Fmuls.base_latency(), 25);
        assert_eq!(Opcode::Fdivs.base_latency(), 50);
        assert_eq!(Opcode::Ldx.base_latency(), 3);
        assert_eq!(Opcode::Stx.base_latency(), 10);
        assert_eq!(Opcode::Beq.base_latency(), 3);
        assert_eq!(Opcode::Bne.base_latency(), 3);
    }

    #[test]
    fn classes_match_figure_11_grouping() {
        assert_eq!(Opcode::Add.class(), InstrClass::Integer);
        assert_eq!(Opcode::Faddd.class(), InstrClass::FpDouble);
        assert_eq!(Opcode::Fmuls.class(), InstrClass::FpSingle);
        assert_eq!(Opcode::Ldx.class(), InstrClass::Memory);
        assert_eq!(Opcode::Beq.class(), InstrClass::Control);
        assert_eq!(Opcode::Nop.class(), InstrClass::Misc);
    }

    #[test]
    fn operand_sensitivity_flags() {
        assert!(!Opcode::Nop.has_value_operands());
        assert!(Opcode::Add.has_value_operands());
        assert!(Opcode::Ldx.has_value_operands());
        assert!(!Opcode::Movi.has_value_operands());
    }

    #[test]
    fn reg_zero_is_g0() {
        assert_eq!(Reg::G0.index(), 0);
        assert_eq!(Reg::new(5).index(), 5);
    }

    #[test]
    #[should_panic(expected = "register index out of range")]
    fn reg_out_of_range_panics() {
        let _ = Reg::new(32);
    }

    #[test]
    fn builders_fill_fields() {
        let i = Instruction::ldx(Reg::new(1), Reg::new(2), 0x40);
        assert_eq!(i.opcode, Opcode::Ldx);
        assert_eq!(i.rd, Reg::new(1));
        assert_eq!(i.rs1, Reg::new(2));
        assert_eq!(i.imm, 0x40);

        let b = Instruction::branch(Opcode::Bne, Reg::new(1), Reg::G0, 7);
        assert_eq!(b.branch_target(), 7);
    }

    #[test]
    #[should_panic(expected = "branch opcode")]
    fn non_branch_opcode_in_branch_builder_panics() {
        let _ = Instruction::branch(Opcode::Add, Reg::G0, Reg::G0, 0);
    }

    #[test]
    fn display_is_readable() {
        let i = Instruction::alu(Opcode::Add, Reg::new(3), Reg::new(1), Reg::new(2));
        assert_eq!(i.to_string(), "add %r3, %r1, %r2");
        assert_eq!(Instruction::nop().to_string(), "nop");
        assert_eq!(
            Instruction::stx(Reg::new(4), Reg::new(5), 8).to_string(),
            "stx %r4, [%r5 + 0x8]"
        );
    }

    #[test]
    fn table_vi_has_all_sixteen_rows() {
        assert_eq!(table_vi_latencies().len(), 16);
    }
}

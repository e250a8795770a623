//! Programs: instruction sequences plus initial data images.
//!
//! A [`Program`] is what a hardware thread executes — a flat vector of
//! decoded instructions (the PC is an index into it) plus the data words
//! the test loader would have written to DRAM before releasing resets.

use piton_arch::isa::Instruction;

/// An executable image for one hardware thread.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Program {
    /// Decoded instruction stream; the PC indexes this vector.
    pub instructions: Vec<Instruction>,
    /// Initial data image: `(address, value)` words loaded before start.
    pub data: Vec<(u64, u64)>,
}

impl Program {
    /// Creates an empty program.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a program from an instruction stream with no data image.
    #[must_use]
    pub fn from_instructions(instructions: Vec<Instruction>) -> Self {
        Self {
            instructions,
            data: Vec::new(),
        }
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Code footprint in bytes (for checking the paper's "fits in the L1
    /// caches" precondition of the EPI study).
    #[must_use]
    pub fn code_bytes(&self) -> u64 {
        self.instructions.len() as u64 * Instruction::SIZE_BYTES
    }

    /// Whether the code fits within `capacity_bytes` (e.g. the 16 KB L1I).
    #[must_use]
    pub fn fits_in(&self, capacity_bytes: u64) -> bool {
        self.code_bytes() <= capacity_bytes
    }
}

impl FromIterator<Instruction> for Program {
    fn from_iter<T: IntoIterator<Item = Instruction>>(iter: T) -> Self {
        Self::from_instructions(iter.into_iter().collect())
    }
}

impl Extend<Instruction> for Program {
    fn extend<T: IntoIterator<Item = Instruction>>(&mut self, iter: T) {
        self.instructions.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piton_arch::isa::{Instruction, Opcode, Reg};

    #[test]
    fn footprint_accounting() {
        let p: Program = (0..100).map(|_| Instruction::nop()).collect();
        assert_eq!(p.len(), 100);
        assert_eq!(p.code_bytes(), 400);
        assert!(p.fits_in(16 * 1024));
        assert!(!p.fits_in(256));
    }

    #[test]
    fn extend_appends() {
        let mut p = Program::from_instructions(vec![Instruction::nop()]);
        p.extend([Instruction::alu(
            Opcode::Add,
            Reg::new(1),
            Reg::new(2),
            Reg::new(3),
        )]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }
}

//! The energy-per-instruction assembly tests of §IV-E.
//!
//! Each test places the target instruction in an infinite loop unrolled
//! by a factor of 20, sized to fit in the L1 caches, with operand values
//! set to the minimum (all zeros), maximum (all ones) or random pattern
//! of Figure 11. Two store variants reproduce the paper's store-buffer
//! methodology:
//!
//! * `stx (NF)` — nine `nop`s follow each store so the 8-entry store
//!   buffer always has space (their energy is subtracted afterwards);
//! * `stx (F)` — back-to-back stores fill the buffer and incur the
//!   speculative-issue roll-back.

use piton_arch::isa::{Opcode, OperandPattern, Reg};
use piton_sim::program::Program;

use crate::asm::Assembler;

/// Unroll factor of every EPI loop (§IV-E).
pub const UNROLL: usize = 20;

/// `nop`s inserted after each store in the `stx (NF)` test.
pub const STX_DRAIN_NOPS: usize = 9;

/// Store variant under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreVariant {
    /// Store buffer never fills (drain `nop`s inserted).
    NotFull,
    /// Store buffer fills; roll-backs included in the measurement.
    Full,
}

/// One measurable instruction case of Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EpiCase {
    /// A plain ALU/FP/branch/nop instruction.
    Plain(Opcode),
    /// `ldx` hitting the L1.
    Load,
    /// `stx` hitting the L1.5, with the buffer full or not.
    Store(StoreVariant),
}

impl EpiCase {
    /// The sixteen cases of Figure 11, in presentation order.
    #[must_use]
    pub fn figure_11() -> Vec<EpiCase> {
        vec![
            EpiCase::Plain(Opcode::Nop),
            EpiCase::Plain(Opcode::And),
            EpiCase::Plain(Opcode::Add),
            EpiCase::Plain(Opcode::Mulx),
            EpiCase::Plain(Opcode::Sdivx),
            EpiCase::Plain(Opcode::Faddd),
            EpiCase::Plain(Opcode::Fmuld),
            EpiCase::Plain(Opcode::Fdivd),
            EpiCase::Plain(Opcode::Fadds),
            EpiCase::Plain(Opcode::Fmuls),
            EpiCase::Plain(Opcode::Fdivs),
            EpiCase::Load,
            EpiCase::Store(StoreVariant::Full),
            EpiCase::Store(StoreVariant::NotFull),
            EpiCase::Plain(Opcode::Beq),
            EpiCase::Plain(Opcode::Bne),
        ]
    }

    /// The label used on the Figure 11 x-axis.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            EpiCase::Plain(Opcode::Beq) => "beq (T)".to_owned(),
            EpiCase::Plain(Opcode::Bne) => "bne (NT)".to_owned(),
            EpiCase::Plain(op) => op.mnemonic().to_owned(),
            EpiCase::Load => "ldx".to_owned(),
            EpiCase::Store(StoreVariant::Full) => "stx (F)".to_owned(),
            EpiCase::Store(StoreVariant::NotFull) => "stx (NF)".to_owned(),
        }
    }

    /// The opcode whose Table VI latency enters the EPI formula.
    #[must_use]
    pub fn opcode(self) -> Opcode {
        match self {
            EpiCase::Plain(op) => op,
            EpiCase::Load => Opcode::Ldx,
            EpiCase::Store(_) => Opcode::Stx,
        }
    }

    /// Whether this case takes value operands (the min/random/max sweep
    /// applies).
    #[must_use]
    pub fn has_value_operands(self) -> bool {
        self.opcode().has_value_operands()
    }
}

/// Operand bit patterns for a test, per Figure 11's legend.
#[must_use]
pub fn operand_values(pattern: OperandPattern, seed: u64) -> (u64, u64) {
    match pattern {
        OperandPattern::Minimum => (0, 0),
        OperandPattern::Maximum => (u64::MAX, u64::MAX),
        OperandPattern::Random => {
            // SplitMix64: deterministic, well mixed.
            let next = |s: &mut u64| {
                *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = *s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let mut s = seed.wrapping_add(1);
            (next(&mut s), next(&mut s))
        }
    }
}

const SRC_A: Reg = Reg::new(10);
const SRC_B: Reg = Reg::new(11);
const DST: Reg = Reg::new(12);
const ADDR: Reg = Reg::new(13);

/// Per-tile data region for the load/store tests (distinct L2 lines per
/// tile, §IV-E: "Each of the 25 cores store to different L2 cache lines
/// ... to avoid invoking cache coherence").
#[must_use]
pub fn tile_data_base(tile_index: usize) -> u64 {
    0x100_0000 + (tile_index as u64) * 0x1_0000
}

/// Builds the EPI assembly test for one case/pattern on one tile.
///
/// The instruction stream fits comfortably in the 16 KB L1I and the data
/// (for loads/stores) in one L1 line per tile.
#[must_use]
pub fn epi_test(case: EpiCase, pattern: OperandPattern, tile_index: usize) -> Program {
    let (a_raw, b_raw) = operand_values(pattern, 42 + tile_index as u64);
    // Integer divides by zero trap on real SPARC; the paper's minimum
    // operand tests necessarily keep divisors legal.
    let b_val = match case {
        EpiCase::Plain(Opcode::Sdivx) if b_raw == 0 => 1,
        _ => b_raw,
    };

    let mut asm = Assembler::new();
    let base = tile_data_base(tile_index);
    asm.movi(SRC_A, a_raw as i64);
    asm.movi(SRC_B, b_val as i64);
    asm.movi(ADDR, base as i64);
    // The loaded value carries the operand pattern.
    asm.data_word(base, a_raw);

    // Warm the cache hierarchy so the measured loop sees steady state:
    // one load (fills L1/L1.5) and one store (takes ownership), drained.
    match case {
        EpiCase::Load => {
            asm.ldx(DST, ADDR, 0);
        }
        EpiCase::Store(_) => {
            asm.stx(SRC_A, ADDR, 0);
            asm.membar();
        }
        EpiCase::Plain(_) => {}
    }

    asm.label("loop");
    for _ in 0..UNROLL {
        match case {
            EpiCase::Plain(Opcode::Nop) => {
                asm.nop();
            }
            EpiCase::Plain(op) if op.is_branch() => {
                // Comparing a register with itself makes beq always
                // taken and bne always fall through; either way the
                // target is the next instruction, so the emitted
                // operands are identical for both opcodes.
                let next = asm.here() + 1;
                asm.emit(piton_arch::isa::Instruction::branch(op, SRC_A, SRC_A, next));
            }
            EpiCase::Plain(op) => {
                asm.alu(op, DST, SRC_A, SRC_B);
            }
            EpiCase::Load => {
                asm.ldx(DST, ADDR, 0);
            }
            EpiCase::Store(StoreVariant::NotFull) => {
                asm.stx(SRC_A, ADDR, 0);
                asm.nops(STX_DRAIN_NOPS);
            }
            EpiCase::Store(StoreVariant::Full) => {
                asm.stx(SRC_A, ADDR, 0);
            }
        }
    }
    asm.jump("loop");
    asm.assemble()
}

#[cfg(test)]
mod tests {
    use super::*;
    use piton_arch::config::ChipConfig;
    use piton_arch::topology::TileId;
    use piton_sim::machine::Machine;

    #[test]
    fn figure_11_has_sixteen_cases() {
        let cases = EpiCase::figure_11();
        assert_eq!(cases.len(), 16);
        assert_eq!(cases[0].label(), "nop");
        assert_eq!(cases[12].label(), "stx (F)");
        assert_eq!(cases[14].label(), "beq (T)");
    }

    #[test]
    fn operand_patterns_hit_extremes() {
        assert_eq!(operand_values(OperandPattern::Minimum, 0), (0, 0));
        assert_eq!(
            operand_values(OperandPattern::Maximum, 0),
            (u64::MAX, u64::MAX)
        );
        let (a, b) = operand_values(OperandPattern::Random, 0);
        assert_ne!(a, 0);
        assert_ne!(a, b);
        // Deterministic per seed.
        assert_eq!(
            operand_values(OperandPattern::Random, 5),
            operand_values(OperandPattern::Random, 5)
        );
    }

    #[test]
    fn tests_fit_in_the_l1_caches() {
        // §IV-E: "We verified ... the assembly test fits in the L1
        // caches of each core".
        let cfg = ChipConfig::piton();
        for case in EpiCase::figure_11() {
            let p = epi_test(case, OperandPattern::Random, 0);
            assert!(
                p.fits_in(cfg.l1i.size_bytes),
                "{} does not fit: {} B",
                case.label(),
                p.code_bytes()
            );
        }
    }

    fn run_case(case: EpiCase, cycles: u64) -> piton_sim::events::ActivityCounters {
        let mut m = Machine::new(&ChipConfig::piton());
        for t in 0..25 {
            m.load_thread(TileId::new(t), 0, epi_test(case, OperandPattern::Random, t));
        }
        m.run(cycles);
        m.counters().clone()
    }

    #[test]
    fn add_test_issues_mostly_adds() {
        let act = run_case(EpiCase::Plain(Opcode::Add), 20_000);
        let adds = act.issues[Opcode::Add.index()];
        let total = act.total_issues();
        assert!(adds * 10 > total * 8, "adds {adds} of {total}");
    }

    #[test]
    fn load_test_stays_in_the_l1_after_warmup() {
        let act = run_case(EpiCase::Load, 30_000);
        // One cold miss per tile; everything else L1 hits.
        assert!(act.l1d_misses <= 25 * 2, "misses {}", act.l1d_misses);
        assert!(act.issues[Opcode::Ldx.index()] > 25 * 1_000);
        assert_eq!(act.l2_misses, act.offchip_requests);
    }

    #[test]
    fn store_nf_never_rolls_back_and_f_always_does() {
        let nf = run_case(EpiCase::Store(StoreVariant::NotFull), 30_000);
        assert_eq!(nf.store_rollbacks, 0);
        assert!(nf.sb_enqueues > 25 * 100);

        let full = run_case(EpiCase::Store(StoreVariant::Full), 30_000);
        assert!(
            full.store_rollbacks > 25 * 100,
            "rollbacks {}",
            full.store_rollbacks
        );
    }

    #[test]
    fn stores_avoid_cross_tile_coherence() {
        let act = run_case(EpiCase::Store(StoreVariant::NotFull), 30_000);
        // Distinct L2 lines per tile: no invalidations at steady state.
        assert_eq!(act.invalidations, 0);
    }

    #[test]
    fn branch_tests_execute_branches() {
        let taken = run_case(EpiCase::Plain(Opcode::Beq), 20_000);
        assert!(taken.issues[Opcode::Beq.index()] > 25 * 500);
        let not_taken = run_case(EpiCase::Plain(Opcode::Bne), 20_000);
        assert!(not_taken.issues[Opcode::Bne.index()] > 25 * 500);
    }

    #[test]
    fn operand_pattern_changes_recorded_activity() {
        let mut min_act = 0.0;
        let mut max_act = 0.0;
        for (pattern, out) in [
            (OperandPattern::Minimum, &mut min_act),
            (OperandPattern::Maximum, &mut max_act),
        ] {
            let mut m = Machine::new(&ChipConfig::piton());
            for t in 0..25 {
                m.load_thread(
                    TileId::new(t),
                    0,
                    epi_test(EpiCase::Plain(Opcode::Add), pattern, t),
                );
            }
            m.run(10_000);
            *out = m.counters().mean_operand_activity(Opcode::Add).unwrap();
        }
        assert!(min_act < 0.05, "min activity {min_act}");
        assert!(max_act > 0.9, "max activity {max_act}");
    }
}

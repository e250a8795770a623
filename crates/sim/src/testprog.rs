//! Deterministic randomized-program generators for engine differential
//! testing.
//!
//! The engine-equivalence proptests, the golden-trace differential
//! tests (`tests/trace_differential.rs`) and the `trace_diff` dev
//! binary all need the *same* family of randomized programs: seeds in,
//! scheduler-stressing instruction mixes out, with no dependency on
//! the (vendored, stub) proptest RNG so a failing seed can be replayed
//! verbatim from any of the three harnesses.
//!
//! The mix covers every scheduler-relevant instruction class: 1-cycle
//! ALU ops, long execute occupancy (`sdivx`), memory waits
//! (`ldx`/`casx`), store-buffer pressure (`stx`/`membar`) and control
//! flow (loops included, so programs may run forever and must be
//! driven with bounded cycle budgets).

use piton_arch::isa::{Instruction, Opcode, Reg};

use crate::program::Program;

/// Mixes a seed word with a position (SplitMix64 finalizer) so every
/// `(slot, pc)` gets an independent instruction word.
#[must_use]
pub fn mix(seed: u64, slot: usize, i: usize) -> u64 {
    let mut z = seed ^ (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add((i as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Decodes one instruction from a random word.
#[must_use]
pub fn decode(word: u64, len: usize) -> Instruction {
    let r = |sh: u32| Reg::new(1 + ((word >> sh) as u8 % 6));
    // Word-aligned offsets within a few pages keeps some address
    // sharing across cores (coherence traffic) while mulx-fed bases
    // also reach far pages.
    let imm = ((word >> 32) & 0x1FF) as i64 * 8;
    match word % 12 {
        0 => Instruction::nop(),
        1 | 2 => Instruction::movi(r(8), ((word >> 24) & 0xFFFF) as i64),
        3 => Instruction::alu(Opcode::Add, r(8), r(12), r(16)),
        4 => Instruction::alu(Opcode::Mulx, r(8), r(12), r(16)),
        5 => Instruction::alu(Opcode::Sdivx, r(8), r(12), r(16)),
        6 => Instruction::ldx(r(8), r(12), imm),
        7 | 8 => Instruction::stx(r(8), r(12), imm),
        9 => Instruction::casx(r(8), r(12), r(16)),
        10 => Instruction::membar(),
        _ => Instruction::branch(
            if word & 0x400 == 0 {
                Opcode::Bne
            } else {
                Opcode::Beq
            },
            r(8),
            r(12),
            (word >> 44) as usize % (len + 1),
        ),
    }
}

/// Builds the program for placement slot `slot` from a seed pool:
/// 4–17 instructions, fully determined by `(seeds, slot)`.
#[must_use]
pub fn decode_program(seeds: &[u64], slot: usize) -> Program {
    let seed = seeds[slot % seeds.len()];
    let len = 4 + (mix(seed, slot, 0) as usize % 14);
    let instrs = (0..len)
        .map(|i| decode(mix(seed, slot, i + 1), len))
        .collect();
    Program::from_instructions(instrs)
}

/// The standard randomized placement for a seed pool: tiles and
/// threads derived from the seeds themselves, `n_slots` programs.
/// Returns `(tile, thread, program)` triples, ready for
/// `Machine::load_thread`.
#[must_use]
pub fn placement(seeds: &[u64], n_slots: usize) -> Vec<(usize, usize, Program)> {
    (0..n_slots)
        .map(|slot| {
            let w = mix(seeds[slot % seeds.len()], slot, usize::MAX / 2);
            (
                (w % 25) as usize,
                ((w >> 8) % 2) as usize,
                decode_program(seeds, slot),
            )
        })
        .collect()
}

/// Base of the private lines [`owned_placement`] gives its slots: one
/// 64 B line per slot, 0x1040 apart so they spread over L1 sets and L2
/// slices.
const OWNED_BASE: u64 = 0x500_0000;

/// The private line of owned-placement slot `slot`.
fn owned_line(slot: usize) -> u64 {
    OWNED_BASE + slot as u64 * 0x1040
}

/// The steady loop of an owned-placement slot on `line`: ALU work, two
/// loads and a store, all to a line the slot's tile owns once the
/// prologue's store and `membar` have run.
fn owned_loop(asm: &mut Vec<Instruction>, line: u64, pattern: i64, alu: usize) {
    let r = Reg::new;
    asm.extend([
        Instruction::movi(r(1), line as i64),
        Instruction::movi(r(2), pattern),
        Instruction::stx(r(2), r(1), 0),
        Instruction::membar(),
    ]);
    let top = asm.len();
    for k in 0..alu {
        let op = if k % 2 == 0 { Opcode::Add } else { Opcode::And };
        asm.push(Instruction::alu(op, r(3), r(2), r(2)));
    }
    asm.extend([
        Instruction::ldx(r(4), r(1), 0),
        Instruction::alu(Opcode::And, r(3), r(4), r(2)),
        Instruction::ldx(r(5), r(1), 8),
        Instruction::stx(r(2), r(1), 0),
        Instruction::branch(Opcode::Beq, Reg::G0, Reg::G0, top),
    ]);
}

/// A placement where every slot loops on a private line its tile owns
/// — L1 hits and store drains the dense engine takes off the live path
/// — except that slot 0 first waits a seed-chosen number of cycles
/// (up to about `max_wait`), then stores into slot 2's line: a foreign
/// store that lands while slot 2's lane has run ahead on that line.
///
/// Slots pair up on tiles (slots `2k` and `2k + 1` share a core, so the
/// two-thread loop runs too), and pairs sit on distinct tiles, so slot
/// 0's store is always foreign to slot 2. At least three slots are
/// placed. Returns `(tile, thread, program)` triples.
#[must_use]
pub fn owned_placement(
    seeds: &[u64],
    n_slots: usize,
    max_wait: u64,
) -> Vec<(usize, usize, Program)> {
    let base = mix(seeds[0], 0, 1) as usize % 25;
    (0..n_slots.max(3))
        .map(|slot| {
            let word = mix(seeds[slot % seeds.len()], slot, 2);
            let pattern = (word >> 8) as i64 & 0xFFFF | 1;
            let alu = 2 + word as usize % 12;
            let mut code = Vec::new();
            if slot == 0 {
                // Two-instruction countdown: about four cycles a turn.
                let turns = 1 + (mix(seeds[0], 0, 3) % max_wait.max(4)) / 4;
                let r = Reg::new;
                code.extend([
                    Instruction::movi(r(6), turns as i64),
                    Instruction::movi(r(7), 1),
                    Instruction::movi(r(8), owned_line(2) as i64),
                    Instruction::movi(r(9), !pattern),
                    Instruction::alu(Opcode::Sub, r(6), r(6), r(7)),
                    Instruction::branch(Opcode::Bne, r(6), Reg::G0, 4),
                    Instruction::stx(r(9), r(8), 0),
                ]);
            }
            owned_loop(&mut code, owned_line(slot), pattern, alu);
            let tile = (base + 7 * (slot / 2)) % 25;
            (tile, slot % 2, Program::from_instructions(code))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let seeds = [7, 11, 13];
        assert_eq!(mix(7, 3, 9), mix(7, 3, 9));
        let a = decode_program(&seeds, 2);
        let b = decode_program(&seeds, 2);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(placement(&seeds, 6).len(), 6);
        let p1 = placement(&seeds, 6);
        let p2 = placement(&seeds, 6);
        for (x, y) in p1.iter().zip(&p2) {
            assert_eq!((x.0, x.1), (y.0, y.1));
            assert_eq!(x.2.instructions, y.2.instructions);
        }
    }

    #[test]
    fn programs_cover_scheduler_classes() {
        // Over a modest seed pool the decoder must emit memory ops and
        // long-latency ops — the classes that decide where the dense
        // engine's local runs stop and which cycles it fast-forwards.
        let seeds: Vec<u64> = (0..32).map(|i| mix(0xABCD, 0, i)).collect();
        let mut classes = std::collections::BTreeSet::new();
        for slot in 0..32 {
            for instr in &decode_program(&seeds, slot).instructions {
                classes.insert(format!("{:?}", instr.opcode.class()));
            }
        }
        assert!(classes.len() >= 4, "instruction classes seen: {classes:?}");
    }
}

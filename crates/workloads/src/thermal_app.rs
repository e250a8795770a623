//! The two-phase application of the §IV-J scheduling study.
//!
//! The paper's test application alternates between a compute-heavy
//! phase (an arithmetic loop) and an idle phase (a `nop` loop), run on
//! all fifty threads under two scheduling strategies:
//!
//! * **synchronized** — all threads execute the same phase at the same
//!   time, producing large chip-wide power swings;
//! * **interleaved** — half the threads (26 vs 24 in the paper) run one
//!   phase while the other half runs the opposite phase, flattening the
//!   power profile.
//!
//! The power↔temperature hysteresis of Figure 18 comes from driving the
//! thermal model with these workloads.

use piton_arch::isa::{Opcode, Reg};
use piton_arch::topology::TileId;
use piton_sim::machine::Machine;
use piton_sim::program::Program;

use crate::asm::Assembler;

/// Scheduling strategy of the two-phase study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// All threads phase-aligned.
    Synchronized,
    /// Half the threads offset by one phase.
    Interleaved,
}

impl Schedule {
    /// The paper's plot label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Schedule::Synchronized => "Synchronized",
            Schedule::Interleaved => "Interleaved",
        }
    }
}

const ONE: Reg = Reg::new(2);
const COUNTER: Reg = Reg::new(3);
const PAT_A: Reg = Reg::new(10);
const PAT_B: Reg = Reg::new(11);
const SCRATCH: Reg = Reg::new(12);

fn emit_compute_phase(asm: &mut Assembler, iters: u32, tag: &str) {
    asm.movi(COUNTER, i64::from(iters));
    let top = format!("compute_{tag}");
    asm.label(&top);
    for k in 0..8 {
        let op = if k % 2 == 0 { Opcode::Add } else { Opcode::And };
        asm.alu(op, SCRATCH, PAT_A, PAT_B);
    }
    asm.alu(Opcode::Sub, COUNTER, COUNTER, ONE);
    asm.branch_to(Opcode::Bne, COUNTER, Reg::G0, &top);
}

fn emit_idle_phase(asm: &mut Assembler, iters: u32, tag: &str) {
    asm.movi(COUNTER, i64::from(iters));
    let top = format!("idle_{tag}");
    asm.label(&top);
    asm.nops(8);
    asm.alu(Opcode::Sub, COUNTER, COUNTER, ONE);
    asm.branch_to(Opcode::Bne, COUNTER, Reg::G0, &top);
}

/// Builds one two-phase thread: alternating compute and idle phases of
/// `phase_iters` inner iterations each, forever. `start_idle` starts in
/// the idle phase (the offset half of the interleaved schedule).
#[must_use]
pub fn two_phase_program(phase_iters: u32, start_idle: bool) -> Program {
    let mut asm = Assembler::new();
    asm.movi(ONE, 1);
    asm.movi(PAT_A, 0x5555_5555_5555_5555);
    asm.movi(PAT_B, -0x5555_5555_5555_5556);
    asm.label("outer");
    if start_idle {
        emit_idle_phase(&mut asm, phase_iters, "a");
        emit_compute_phase(&mut asm, phase_iters, "b");
    } else {
        emit_compute_phase(&mut asm, phase_iters, "a");
        emit_idle_phase(&mut asm, phase_iters, "b");
    }
    asm.jump("outer");
    asm.assemble()
}

/// Loads the two-phase application on all 50 threads under a schedule.
/// Interleaved offsets 24 of the 50 threads into the opposite phase
/// (the paper schedules 26 and 24).
pub fn load_two_phase(machine: &mut Machine, schedule: Schedule, phase_iters: u32) {
    let tiles = machine.config().tile_count();
    let mut loaded = 0usize;
    for core in 0..tiles {
        for slot in 0..2 {
            let start_idle = match schedule {
                Schedule::Synchronized => false,
                // Offset 24 of the 50 threads.
                Schedule::Interleaved => loaded % 2 == 1 && loaded < 48,
            };
            machine.load_thread(
                TileId::new(core),
                slot,
                two_phase_program(phase_iters, start_idle),
            );
            loaded += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piton_arch::config::ChipConfig;

    #[test]
    fn phases_alternate_in_activity() {
        let mut m = Machine::new(&ChipConfig::piton());
        m.load_thread(TileId::new(0), 0, two_phase_program(50, false));
        // During the compute phase the add/and mix dominates; during the
        // idle phase nops dominate. Sample two consecutive windows.
        m.run(500); // inside compute phase (50 iters x ~11 cyc = 550)
        let a = m.counters().clone();
        m.run(800); // into the idle phase
        let b = m.counters().delta_since(&a);
        let compute_rate_a = a.issues[Opcode::Add.index()] as f64 / a.cycles as f64;
        let nop_share_b =
            b.issues[Opcode::Nop.index()] as f64 / b.issues.iter().sum::<u64>() as f64;
        assert!(compute_rate_a > 0.2, "compute phase rate {compute_rate_a}");
        assert!(nop_share_b > 0.4, "idle phase nop share {nop_share_b}");
    }

    #[test]
    fn interleaved_offsets_about_half_the_threads() {
        // Measure chip activity variance: synchronized should swing the
        // add-issue rate much harder between windows than interleaved.
        let swing = |schedule: Schedule| {
            let mut m = Machine::new(&ChipConfig::piton());
            load_two_phase(&mut m, schedule, 40);
            let mut rates = Vec::new();
            let mut prev = m.counters().clone();
            for _ in 0..12 {
                m.run(300);
                let d = m.counters().delta_since(&prev);
                prev = m.counters().clone();
                rates.push(d.issues[Opcode::Add.index()] as f64 / d.cycles as f64);
            }
            let max = rates.iter().copied().fold(0.0f64, f64::max);
            let min = rates.iter().copied().fold(f64::MAX, f64::min);
            max - min
        };
        let sync_swing = swing(Schedule::Synchronized);
        let inter_swing = swing(Schedule::Interleaved);
        assert!(
            inter_swing < sync_swing,
            "interleaved {inter_swing} vs synchronized {sync_swing}"
        );
    }

    #[test]
    fn all_fifty_threads_load() {
        let mut m = Machine::new(&ChipConfig::piton());
        load_two_phase(&mut m, Schedule::Synchronized, 10);
        for t in m.config().topology().tiles() {
            assert!(m.core(t).any_running());
        }
    }
}

//! EPI methodology walk-through (§IV-E, a slice of Figure 11).
//!
//! Builds the paper's assembly tests for a few instruction classes, runs
//! them on all 25 simulated cores, measures steady-state power through
//! the virtual bench, and applies the paper's EPI formula — then checks
//! the famous "three adds for one load" insight.
//!
//! Run with: `cargo run --release --example epi_tour`

use piton::arch::isa::{Opcode, OperandPattern};
use piton::characterization::experiments::{epi, Fidelity};
use piton::workloads::epi::EpiCase;

fn main() {
    let cases = [
        EpiCase::Plain(Opcode::Nop),
        EpiCase::Plain(Opcode::Add),
        EpiCase::Plain(Opcode::Mulx),
        EpiCase::Plain(Opcode::Sdivx),
        EpiCase::Plain(Opcode::Faddd),
        EpiCase::Load,
    ];
    println!("Measuring EPI on 25 cores (this runs the full methodology)...\n");
    let result = epi::run_cases(&cases, Fidelity::quick(), None, None);
    println!("{}", result.render());

    let add = result
        .row("add")
        .and_then(|r| r.at(OperandPattern::Random))
        .expect("add measured");
    let ldx = result
        .row("ldx")
        .and_then(|r| r.at(OperandPattern::Random))
        .expect("ldx measured");
    println!(
        "Recompute-vs-load: one L1-hit ldx ({:.0} pJ, 3 cycles) ≈ {:.1} adds ({:.0} pJ, 1 cycle each).",
        ldx.value,
        ldx.value / add.value,
        add.value
    );
    println!("The paper's §IV-E insight: if a value can be recomputed in fewer than");
    println!("three adds, recomputing beats loading it from the cache.");
}

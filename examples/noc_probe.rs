//! NoC energy-per-flit probe (Figure 12).
//!
//! Streams dummy invalidation packets from the chipset into the chip —
//! seven valid flits every 47 bridge cycles — at increasing hop counts
//! and payload switching patterns, and reports the fitted pJ/hop
//! trendlines next to the paper's.
//!
//! Run with: `cargo run --release --example noc_probe`

use piton::characterization::experiments::{noc_energy, Fidelity};

fn main() {
    println!("Sweeping NoC dummy-packet traffic over 0..=8 hops × 4 patterns...\n");
    let result = noc_energy::run(Fidelity::quick(), None, None);
    println!("{}", result.render());

    let hsw = result.series_for("HSW").expect("HSW series");
    let across_chip = hsw.points[8].1;
    println!(
        "Sending one flit across the whole chip (8 hops, half switching) costs ~{across_chip:.0} pJ —"
    );
    println!("about one add instruction. On-chip data movement is not where this");
    println!("chip's power goes (§IV-G, contradicting the dominant-NoC folklore).");
}

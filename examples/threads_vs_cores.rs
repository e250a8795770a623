//! Multithreading versus multicore (a slice of Figure 14).
//!
//! Runs the Int and Hist microbenchmarks with 16 threads as 16
//! single-threaded cores (multicore) and as 8 dual-threaded cores
//! (multithreading), then compares power, execution time and energy with
//! the paper's idle-charging convention.
//!
//! Run with: `cargo run --release --example threads_vs_cores`

use piton::characterization::bench::CycleBench;
use piton::characterization::experiments::{mt_vs_mc, Fidelity};
use piton::workloads::micro::{Microbenchmark, ThreadsPerCore};

fn main() {
    println!("Measuring 16 threads as multicore (1 T/C) and multithreading (2 T/C)...\n");
    let result = mt_vs_mc::run_with_threads(&CycleBench, &[16], Fidelity::quick());
    println!("{}", result.render());

    for bench in [Microbenchmark::Int, Microbenchmark::Hist] {
        let s = result.series_for(bench);
        let mc = s
            .points
            .iter()
            .find(|p| p.tpc == ThreadsPerCore::One)
            .unwrap();
        let mt = s
            .points
            .iter()
            .find(|p| p.tpc == ThreadsPerCore::Two)
            .unwrap();
        // The cycle bench times every run.
        let (mt_j, mc_j) = (mt.total_energy().unwrap().0, mc.total_energy().unwrap().0);
        let winner = if mt_j < mc_j {
            "multithreading"
        } else {
            "multicore"
        };
        println!(
            "{:4}: MT {:.1} µJ vs MC {:.1} µJ  →  {winner} is more energy efficient",
            bench.label(),
            mt_j * 1e6,
            mc_j * 1e6,
        );
    }
    println!("\n§IV-H2: integer-bound code favors multicore; workloads with");
    println!("memory/compute overlap (Hist) favor multithreading.");
}

//! `Machine::{new, load_thread, run}`: the dense regime with all 25
//! tiles busy (Int, Hist, and Int at two threads per core), and the
//! calendar regime with one busy tile.

#[path = "../timing.rs"]
mod timing;

use piton_arch::config::ChipConfig;
use piton_sim::machine::Machine;
use piton_workloads::micro::{load_microbenchmark, Microbenchmark, RunLength, ThreadsPerCore};

const WARMUP: u64 = 50_000;

/// A warmed machine running `bench` on `cores` cores.
fn loaded(bench: Microbenchmark, cores: usize, tpc: ThreadsPerCore) -> Machine {
    let mut m = Machine::new(&ChipConfig::piton());
    load_microbenchmark(&mut m, bench, cores * tpc.count(), tpc, RunLength::Forever);
    m.run(WARMUP);
    m
}

/// ns per simulated cycle over 10 000-cycle chunks (the saturated
/// workload's chunk size).
fn ns_per_cycle(m: &mut Machine, cycles: u64) -> f64 {
    let chunks = cycles / 10_000;
    timing::median_secs(5, || (0..chunks).for_each(|_| m.run(10_000))) * 1e9
        / (chunks * 10_000) as f64
}

fn main() {
    timing::report(
        "sim.machine.new_us",
        timing::ns_per_call(5, 20, |_| Machine::new(&ChipConfig::piton())) / 1e3,
    );

    let mut int = loaded(Microbenchmark::Int, 25, ThreadsPerCore::One);
    let retired = int.retired();
    let start = std::time::Instant::now();
    int.run(300_000);
    let secs = start.elapsed().as_secs_f64();
    timing::report(
        "sim.core.ns_per_retired_instr",
        secs * 1e9 / (int.retired() - retired).max(1) as f64,
    );
    timing::report(
        "sim.machine.dense_int_ns_per_cycle",
        ns_per_cycle(&mut int, 300_000),
    );

    let mut hist = loaded(Microbenchmark::Hist, 25, ThreadsPerCore::One);
    timing::report(
        "sim.machine.dense_hist_ns_per_cycle",
        ns_per_cycle(&mut hist, 300_000),
    );

    let mut two = loaded(Microbenchmark::Int, 25, ThreadsPerCore::Two);
    timing::report(
        "sim.machine.dense_2tpc_ns_per_cycle",
        ns_per_cycle(&mut two, 300_000),
    );

    let mut sparse = loaded(Microbenchmark::Int, 1, ThreadsPerCore::One);
    timing::report(
        "sim.machine.calendar_ns_per_cycle",
        ns_per_cycle(&mut sparse, 6_000_000),
    );
}

//! Golden snapshot tests: the rendered tables and figures the paper
//! reproduction prints, pinned byte-for-byte at quick fidelity against
//! committed fixtures in `tests/golden/`.
//!
//! The experiment pipeline is deterministic (seeded monitors, fixed
//! grids, jobs-independent ordering), so any diff here is a real
//! output change. After an intentional change, regenerate with:
//!
//! ```text
//! PITON_BLESS=1 cargo test --test golden_reports
//! git diff tests/golden/   # review what changed
//! ```

use piton::characterization::bench::CycleBench;
use piton::characterization::experiments::{
    core_scaling, epi, governor, mt_vs_mc, noc_energy, specint, yield_stats, Fidelity,
};

mod common;

/// The `reproduce quick` core grid (Figure 13).
const QUICK_CORES: [usize; 7] = [1, 5, 9, 13, 17, 21, 25];
/// The `reproduce quick` thread grid (Figure 14).
const QUICK_THREADS: [usize; 3] = [8, 16, 24];

#[test]
fn table_iv_chip_testing_statistics() {
    common::assert_matches_golden("table4_yield.txt", &yield_stats::run().render());
}

#[test]
fn table_ix_specint() {
    common::assert_matches_golden(
        "table9_specint.txt",
        &specint::run(Fidelity::quick()).render(),
    );
}

#[test]
fn figure_11_energy_per_instruction() {
    let r = epi::run(&CycleBench, Fidelity::quick(), None, None);
    assert!(r.holes.is_empty(), "unexpected holes: {:?}", r.holes);
    common::assert_matches_golden("figure11_epi.txt", &r.render());
}

#[test]
fn figure_12_noc_energy_per_flit() {
    let r = noc_energy::run(&CycleBench, Fidelity::quick(), None, None);
    assert!(r.holes.is_empty(), "unexpected holes: {:?}", r.holes);
    common::assert_matches_golden("figure12_noc.txt", &r.render());
}

#[test]
fn figure_13_power_scaling() {
    let r = core_scaling::run_with_cores(&CycleBench, &QUICK_CORES, Fidelity::quick(), None, None);
    assert!(r.holes.is_empty(), "unexpected holes: {:?}", r.holes);
    common::assert_matches_golden("figure13_scaling.txt", &r.render());
}

#[test]
fn figure_14_mt_vs_mc() {
    common::assert_matches_golden(
        "figure14_mt_mc.txt",
        &mt_vs_mc::run_with_threads(&CycleBench, &QUICK_THREADS, Fidelity::quick()).render(),
    );
}

#[test]
fn figure_9_closed_loop_throttle_boundary() {
    common::assert_matches_golden(
        "figure9_governor_boundary.txt",
        &governor::run_throttle_boundary(Fidelity::quick()).render(),
    );
}

#[test]
fn figure_18_closed_loop_hysteresis() {
    common::assert_matches_golden(
        "figure18_governor_hysteresis.txt",
        &governor::run_hysteresis(64, 1.0, Fidelity::quick()).render(),
    );
}

#[test]
fn energy_frontier_race() {
    common::assert_matches_golden(
        "energy_frontier.txt",
        &governor::run_energy_frontier(Fidelity::quick()).render(),
    );
}

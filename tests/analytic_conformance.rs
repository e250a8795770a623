//! Conformance suite for the analytic fast-path backend: the cycle
//! engine is the oracle, and every power figure, run once on each
//! bench, must land within its committed relative-error budget
//! (`piton::characterization::analytic::compare::budget_for`) at quick
//! fidelity.
//!
//! One rate library is shared across the whole binary (the probes are
//! the expensive part), and each figure gets its own test so a
//! regression names the figure — and its first worst point — in the
//! failure message.

use std::sync::OnceLock;

use piton::characterization::analytic::{
    self, battery, compare, AnalyticBench, AnalyticModel, Calibrated,
};
use piton::characterization::bench::{Bench, CycleBench};
use piton::characterization::experiments::{
    core_scaling, design_space, epi, mt_vs_mc, noc_energy, static_idle, thermal, Fidelity,
};
use piton::characterization::journal::JournalPayload;

mod common;

/// The `reproduce quick` core grid (Figure 13).
const QUICK_CORES: [usize; 7] = [1, 5, 9, 13, 17, 21, 25];
/// The `reproduce quick` thread grid (Figure 14).
const QUICK_THREADS: [usize; 3] = [8, 16, 24];

/// One full rate library for the whole test binary.
fn calibrated() -> &'static Calibrated {
    static CAL: OnceLock<Calibrated> = OnceLock::new();
    CAL.get_or_init(|| {
        analytic::calibrate(Fidelity::quick(), battery::probe_specs())
            .expect("rate library at quick fidelity")
    })
}

/// Asserts a figure landed within its budget, naming the first worst
/// point (label, analytic value, oracle value) on failure.
fn assert_within_budget(c: &compare::FigureComparison) {
    assert!(!c.points.is_empty(), "{}: nothing was compared", c.figure);
    let w = c.worst().expect("non-empty comparison has a worst point");
    assert!(
        c.within_budget(),
        "{}: max relative error {:.3}% exceeds the committed {:.1}% budget\n\
         worst point: {} — analytic {:.6} vs cycle oracle {:.6}",
        c.figure,
        c.max_rel() * 100.0,
        c.budget * 100.0,
        w.label,
        w.analytic,
        w.cycle,
    );
}

#[test]
fn calibration_reads_the_reference_coefficients() {
    let cal = calibrated();
    assert_eq!(cal.model, AnalyticModel::reference());
    assert_eq!(cal.probes.len(), battery::probe_specs().len());
}

/// `piton-serve` builds only the probes `design_space` reads; its
/// points must be the bytes `reproduce` computes from the full library.
#[test]
fn design_space_points_from_its_own_probes_match_the_full_library() {
    let own = analytic::calibrate(Fidelity::quick(), design_space::probe_specs())
        .expect("design_space probes at quick fidelity");
    assert_eq!(own.probes.len(), 21);
    let full = calibrated();
    let (own_table, full_table) = (design_space::mix_table(&own), design_space::mix_table(full));
    let grid = design_space::grid();
    for index in (0..grid.len()).step_by(997).chain([grid.len() - 1]) {
        let point = |cal, table: &[design_space::MixRow]| {
            design_space::compute_point(cal, table, grid[index]).to_text()
        };
        assert_eq!(
            point(&own, &own_table),
            point(full, &full_table),
            "index {index}"
        );
    }
}

/// The analytic bench over the shared rate library.
fn analytic() -> AnalyticBench<'static> {
    AnalyticBench::new(calibrated())
}

#[test]
fn figure_10_and_table_v_within_budget() {
    let run = |bench: &dyn Bench| static_idle::run(bench, Fidelity::quick());
    for c in compare::compare_static_idle(&run(&CycleBench), &run(&analytic())) {
        assert_within_budget(&c);
    }
}

#[test]
fn figure_11_within_budget() {
    let run = |bench: &dyn Bench| epi::run(bench, Fidelity::quick(), None, None);
    assert_within_budget(&compare::compare_epi(&run(&CycleBench), &run(&analytic())));
}

#[test]
fn figure_12_within_budget() {
    let run = |bench: &dyn Bench| noc_energy::run(bench, Fidelity::quick(), None, None);
    assert_within_budget(&compare::compare_noc(&run(&CycleBench), &run(&analytic())));
}

#[test]
fn figure_13_within_budget() {
    let run = |bench: &dyn Bench| {
        core_scaling::run_with_cores(bench, &QUICK_CORES, Fidelity::quick(), None, None)
    };
    assert_within_budget(&compare::compare_core_scaling(
        &run(&CycleBench),
        &run(&analytic()),
    ));
}

#[test]
fn figure_14_within_budget() {
    let run =
        |bench: &dyn Bench| mt_vs_mc::run_with_threads(bench, &QUICK_THREADS, Fidelity::quick());
    assert_within_budget(&compare::compare_mt_vs_mc(
        &run(&CycleBench),
        &run(&analytic()),
    ));
}

#[test]
fn figure_17_within_budget() {
    let run = |bench: &dyn Bench| thermal::run_thermal_power(bench, Fidelity::quick());
    assert_within_budget(&compare::compare_thermal(
        &run(&CycleBench),
        &run(&analytic()),
    ));
}

#[test]
fn design_space_oracle_within_budget() {
    assert_within_budget(&design_space::cycle_oracle(calibrated(), Fidelity::quick()));
}

/// The mega-sweep completes every point and its stride sample is
/// pinned byte-for-byte (regenerate with `PITON_BLESS=1` after an
/// intentional model change).
#[test]
fn design_space_snapshot() {
    let r = design_space::run(calibrated(), Fidelity::quick(), None, None);
    assert!(r.holes.is_empty(), "fault-free sweep left holes");
    assert_eq!(r.evaluated(), r.grid.len());
    common::assert_matches_golden("design_space.txt", &r.render());
}

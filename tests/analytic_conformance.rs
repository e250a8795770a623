//! Conformance suite for the analytic fast-path backend: the cycle
//! engine is the oracle, and every figure the analytic backend can
//! reproduce must land within its committed relative-error budget
//! (`piton::characterization::analytic::compare::budget_for`) at quick
//! fidelity.
//!
//! One calibration is shared across the whole binary (the probe
//! battery is the expensive part), and each figure gets its own test
//! so a regression names the figure — and its first worst point — in
//! the failure message.

use std::sync::OnceLock;

use piton::characterization::analytic::{self, compare, Calibrated};
use piton::characterization::experiments::{
    core_scaling, design_space, epi, mt_vs_mc, noc_energy, static_idle, thermal, Fidelity,
};

mod common;

/// The `reproduce quick` core grid (Figure 13).
const QUICK_CORES: [usize; 7] = [1, 5, 9, 13, 17, 21, 25];
/// The `reproduce quick` thread grid (Figure 14).
const QUICK_THREADS: [usize; 3] = [8, 16, 24];

/// One calibration for the whole test binary.
fn calibrated() -> &'static Calibrated {
    static CAL: OnceLock<Calibrated> = OnceLock::new();
    CAL.get_or_init(|| {
        analytic::calibrate(Fidelity::quick()).expect("calibration at quick fidelity")
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
fn calibration_fit_is_healthy() {
    let cal = calibrated();
    assert_eq!(cal.report.probes, cal.probes.len());
    for r in &cal.report.residuals {
        assert!(
            r.max_rel < 0.05,
            "a rail fit residual blew past 5%: {:?}",
            cal.report.residuals
        );
        assert!(r.mean_rel <= r.max_rel);
    }
    assert!(cal.report.worst.is_some());
}

#[test]
fn figure_10_and_table_v_within_budget() {
    let cycle = static_idle::run(Fidelity::quick());
    for c in compare::compare_static_idle(&cycle, calibrated()) {
        assert_within_budget(&c);
    }
}

#[test]
fn figure_11_within_budget() {
    let cycle = epi::run(Fidelity::quick(), None, None);
    assert_within_budget(&compare::compare_epi(&cycle, calibrated()));
}

#[test]
fn figure_12_within_budget() {
    let cycle = noc_energy::run(Fidelity::quick(), None, None);
    assert_within_budget(&compare::compare_noc(&cycle, calibrated()));
}

#[test]
fn figure_13_within_budget() {
    let cycle = core_scaling::run_with_cores(&QUICK_CORES, Fidelity::quick(), None, None);
    assert_within_budget(&compare::compare_core_scaling(&cycle, calibrated()));
}

#[test]
fn figure_14_within_budget() {
    let cycle = mt_vs_mc::run_with_threads(&QUICK_THREADS, Fidelity::quick());
    assert_within_budget(&compare::compare_mt_vs_mc(&cycle, calibrated()));
}

#[test]
fn figure_17_within_budget() {
    let cycle = thermal::run_thermal_power(Fidelity::quick());
    assert_within_budget(&compare::compare_thermal(&cycle, calibrated()));
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

/// Every experiment module is classified as either covered by the
/// analytic backend or deliberately cycle-only — a new module must be
/// placed in one of the two lists.
#[test]
fn coverage_classifies_every_experiment_module() {
    const MODULES: [&str; 15] = [
        "ablations",
        "area",
        "core_scaling",
        "design_space",
        "epi",
        "governor",
        "mem_latency",
        "memory_energy",
        "mt_vs_mc",
        "noc_energy",
        "specint",
        "static_idle",
        "thermal",
        "vf_sweep",
        "yield_stats",
    ];
    let (covered, uncovered) = compare::coverage();
    let base = |s: &str| s.split([' ', '(']).next().unwrap().to_owned();
    let classified: std::collections::BTreeSet<String> =
        covered.iter().chain(&uncovered).map(|s| base(s)).collect();
    for m in MODULES {
        assert!(
            classified.contains(m),
            "experiment module {m:?} is neither covered nor cycle-only in compare::coverage()"
        );
    }
    for c in classified {
        assert!(
            MODULES.contains(&c.as_str()),
            "coverage() names {c:?}, which is not an experiment module"
        );
    }
}

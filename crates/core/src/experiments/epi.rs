//! Figure 11 + Table VI — energy per instruction.
//!
//! For each instruction class the §IV-E assembly test runs on all 25
//! cores until steady state; EPI is computed with the paper's formula
//! from the measured power, the measured idle power and the Table VI
//! latency. Instructions with input operands are swept over
//! minimum/random/maximum operand values. The `stx (NF)` case subtracts
//! the energy of its nine drain-`nop`s, exactly as §IV-E describes.

use std::sync::Mutex;

use piton_arch::error::PitonError;
use piton_arch::isa::{Opcode, OperandPattern};
use piton_arch::units::Watts;
use piton_board::fault::{self, FaultPlan};
use piton_board::population::NamedChip;
use piton_workloads::epi::{EpiCase, StoreVariant, STX_DRAIN_NOPS};

use super::Fidelity;
use crate::bench::{Bench, ProbeKind, Rig};
use crate::journal::Journal;
use crate::measure::{epi_with_error, WithError};
use crate::report::{render_holes, Hole, Table, HOLE_MARK};
use crate::runner;

/// EPI of one case under each operand pattern (pJ).
#[derive(Debug, Clone)]
pub struct EpiRow {
    /// Figure 11 x-axis label.
    pub label: String,
    /// Table VI latency used in the formula.
    pub latency: u64,
    /// `(pattern, EPI ± error in pJ)`; a single `Random` entry for
    /// operand-free instructions.
    pub epi_pj: Vec<(OperandPattern, WithError)>,
}

impl EpiRow {
    /// EPI under one pattern, if measured.
    #[must_use]
    pub fn at(&self, pattern: OperandPattern) -> Option<WithError> {
        self.epi_pj
            .iter()
            .find(|(p, _)| *p == pattern)
            .map(|(_, e)| *e)
    }
}

/// The Figure 11 dataset.
#[derive(Debug, Clone)]
pub struct EpiResult {
    /// One row per Figure 11 case.
    pub rows: Vec<EpiRow>,
    /// Measured idle power used in the subtraction (mW).
    pub idle_mw: f64,
    /// Grid points lost to injected faults (empty without a fault plan).
    pub holes: Vec<Hole>,
}

/// Paper anchors (random operands) readable from Figure 11 / §IV-E
/// prose: the `ldx` L1-hit EPI (Table VII) and the three-adds-per-load
/// relation.
#[must_use]
pub fn paper_ldx_epi_pj() -> f64 {
    286.46
}

/// Decorrelates the monitor-fault stream of one sweep attempt from
/// every other point and attempt; the plan seed is further mixed per
/// channel, so a plain xor suffices for distinctness.
fn attempt_seed(index: usize, attempt: u32) -> u64 {
    ((index as u64) << 32) ^ u64::from(attempt)
}

/// Figure 11 cell label, shared by the sweep and the hole trailer.
fn point_label(case: EpiCase, pattern: OperandPattern) -> String {
    format!("{}/{}", case.label(), pattern)
}

/// The §IV-E rig: every EPI test and its idle baseline run on Chip #2.
fn rig() -> Rig {
    Rig::chip(NamedChip::Chip2)
}

fn measure_case(
    bench: &dyn Bench,
    case: EpiCase,
    pattern: OperandPattern,
    idle: (f64, f64),
    fidelity: Fidelity,
    nop_epi: Option<f64>,
    faults: Option<(&FaultPlan, u64)>,
) -> Result<WithError, PitonError> {
    let m = bench.measure(&rig(), ProbeKind::Epi(case, pattern), fidelity, faults)?;
    let latency = case.opcode().base_latency();
    let mut epi = epi_with_error(
        m.total.mean,
        m.total.stddev,
        Watts(idle.0),
        Watts(idle.1),
        rig().op().freq,
        latency,
    );
    if case == EpiCase::Store(StoreVariant::NotFull) {
        // The measured 10-cycle group contains the store plus nine
        // nops; subtract their energy (§IV-E).
        let nop = nop_epi.expect("nop EPI measured before stx (NF)");
        epi.value -= STX_DRAIN_NOPS as f64 * nop;
    }
    Ok(epi)
}

/// Runs a chosen subset of cases (tests use a few; the harness runs all)
/// on `bench` under an optional fault plan, serving and recording
/// points through an optional result journal.
#[must_use]
pub fn run_cases(
    bench: &dyn Bench,
    cases: &[EpiCase],
    fidelity: Fidelity,
    plan: Option<&FaultPlan>,
    journal: Option<&Mutex<Journal>>,
) -> EpiResult {
    // Idle baseline.
    let idle_m = bench
        .measure(&rig(), ProbeKind::Idle, fidelity, None)
        .expect("fault-free idle window");
    let idle = (idle_m.total.mean.0, idle_m.total.stddev.0);

    // nop EPI first (needed by the stx (NF) subtraction); baselines are
    // always measured fault-free so one glitchy window cannot poison
    // every row of the table.
    let nop_epi = measure_case(
        bench,
        EpiCase::Plain(Opcode::Nop),
        OperandPattern::Random,
        idle,
        fidelity,
        None,
        None,
    )
    .expect("fault-free baseline measurement cannot fail");

    // Every remaining (case, pattern) point builds its own system, so
    // the grid fans out across the sweep workers; regrouping by case
    // afterwards keeps the row order identical at any jobs level.
    let grid: Vec<(EpiCase, OperandPattern)> = cases
        .iter()
        .flat_map(|&case| {
            let patterns: &[OperandPattern] = if case.has_value_operands() {
                &OperandPattern::ALL
            } else {
                &[OperandPattern::Random]
            };
            patterns.iter().map(move |&p| (case, p))
        })
        .collect();
    let measured = runner::try_sweep_journaled(
        fidelity.jobs,
        grid.iter().copied().enumerate().collect(),
        "epi",
        plan,
        journal,
        |index, &(case, pattern), attempt| {
            if let Some(plan) = plan {
                fault::sabotage_gate(plan, "epi", index, attempt)?;
            }
            if case == EpiCase::Plain(Opcode::Nop) {
                Ok(nop_epi)
            } else {
                measure_case(
                    bench,
                    case,
                    pattern,
                    idle,
                    fidelity,
                    Some(nop_epi.value),
                    plan.map(|p| (p, attempt_seed(index, attempt))),
                )
            }
        },
    );

    let holes: Vec<Hole> = grid
        .iter()
        .zip(&measured)
        .filter_map(|(&(case, pattern), r)| {
            r.as_ref()
                .err()
                .map(|e| Hole::from_point("epi", point_label(case, pattern), e))
        })
        .collect();
    let rows = cases
        .iter()
        .map(|&case| EpiRow {
            label: case.label(),
            latency: case.opcode().base_latency(),
            epi_pj: grid
                .iter()
                .zip(&measured)
                .filter(|((c, _), _)| *c == case)
                .filter_map(|(&(_, p), e)| e.as_ref().ok().map(|&e| (p, e)))
                .collect(),
        })
        .collect();
    EpiResult {
        rows,
        idle_mw: idle.0 * 1e3,
        holes,
    }
}

/// Runs the full Figure 11 sweep on `bench`.
#[must_use]
pub fn run(
    bench: &dyn Bench,
    fidelity: Fidelity,
    plan: Option<&FaultPlan>,
    journal: Option<&Mutex<Journal>>,
) -> EpiResult {
    run_cases(bench, &EpiCase::figure_11(), fidelity, plan, journal)
}

impl EpiResult {
    /// A row by its Figure 11 label.
    #[must_use]
    pub fn row(&self, label: &str) -> Option<&EpiRow> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// Exports the Figure 11 dataset as CSV (one row per instruction,
    /// one column per operand pattern, pJ).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut t = Table::new("");
        t.header([
            "instruction",
            "latency_cycles",
            "epi_min_pj",
            "epi_random_pj",
            "epi_max_pj",
        ]);
        for r in &self.rows {
            let fmt = |p: OperandPattern| {
                r.at(p)
                    .map_or_else(String::new, |e| format!("{:.2}", e.value))
            };
            t.row([
                r.label.clone(),
                r.latency.to_string(),
                fmt(OperandPattern::Minimum),
                fmt(OperandPattern::Random),
                fmt(OperandPattern::Maximum),
            ]);
        }
        t.to_csv()
    }

    /// Renders Figure 11 (plus the Table VI latencies).
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::new(&format!(
            "Figure 11: EPI by instruction and operand value (idle {:.1} mW)",
            self.idle_mw
        ));
        t.header([
            "Instruction",
            "Latency (cyc)",
            "EPI min (pJ)",
            "EPI random (pJ)",
            "EPI max (pJ)",
        ]);
        for r in &self.rows {
            let fmt = |p: OperandPattern| {
                r.at(p).map_or_else(
                    || {
                        let label = format!("{}/{p}", r.label);
                        if self.holes.iter().any(|h| h.covers(&label)) {
                            HOLE_MARK.to_owned()
                        } else {
                            "-".to_owned()
                        }
                    },
                    |e| format!("{e:.0}"),
                )
            };
            t.row([
                r.label.clone(),
                r.latency.to_string(),
                fmt(OperandPattern::Minimum),
                fmt(OperandPattern::Random),
                fmt(OperandPattern::Maximum),
            ]);
        }
        let mut out = t.render();
        out.push_str(&render_holes(&self.holes));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::CycleBench;

    fn quick_cases() -> EpiResult {
        run_cases(
            &CycleBench,
            &[
                EpiCase::Plain(Opcode::Nop),
                EpiCase::Plain(Opcode::Add),
                EpiCase::Plain(Opcode::Sdivx),
                EpiCase::Load,
            ],
            Fidelity::quick(),
            None,
            None,
        )
    }

    #[test]
    fn ldx_epi_matches_the_table_vii_anchor() {
        let r = quick_cases();
        let ldx = r.row("ldx").unwrap().at(OperandPattern::Random).unwrap();
        let dev = (ldx.value - paper_ldx_epi_pj()).abs() / paper_ldx_epi_pj();
        assert!(
            dev < 0.25,
            "ldx EPI {:.1} pJ vs paper {:.1} ({:.0}%)",
            ldx.value,
            paper_ldx_epi_pj(),
            dev * 100.0
        );
    }

    #[test]
    fn three_adds_cost_one_l1_load() {
        // The §IV-E recompute-vs-load insight.
        let r = quick_cases();
        let add = r.row("add").unwrap().at(OperandPattern::Random).unwrap();
        let ldx = r.row("ldx").unwrap().at(OperandPattern::Random).unwrap();
        let ratio = ldx.value / add.value;
        assert!((2.2..=3.8).contains(&ratio), "ldx/add ratio {ratio:.2}");
    }

    #[test]
    fn operand_values_shift_epi() {
        let r = quick_cases();
        let add = r.row("add").unwrap();
        let min = add.at(OperandPattern::Minimum).unwrap().value;
        let max = add.at(OperandPattern::Maximum).unwrap().value;
        assert!(
            max > 1.15 * min,
            "operand effect too small: min {min:.1}, max {max:.1}"
        );
    }

    #[test]
    fn long_latency_instructions_cost_most() {
        let r = quick_cases();
        let add = r.row("add").unwrap().at(OperandPattern::Random).unwrap();
        let div = r.row("sdivx").unwrap().at(OperandPattern::Random).unwrap();
        assert!(
            div.value > 4.0 * add.value,
            "sdivx {} vs add {}",
            div.value,
            add.value
        );
    }

    #[test]
    fn nop_has_single_pattern() {
        let r = quick_cases();
        let nop = r.row("nop").unwrap();
        assert_eq!(nop.epi_pj.len(), 1);
        assert!(nop.at(OperandPattern::Random).unwrap().value > 0.0);
    }

    #[test]
    fn render_is_complete() {
        let s = quick_cases().render();
        assert!(s.contains("sdivx"));
        assert!(s.contains("Latency"));
    }
}

//! Analytic-vs-cycle conformance: per-figure error tables against the
//! cycle engine treated as the oracle.
//!
//! Every comparison walks the *cycle* result (so fault holes simply
//! drop out of the comparison), predicts the same quantity from the
//! closed-form model, and records the relative error against a
//! committed per-figure budget. Both backends charge the same
//! coefficients, so the error is the rate library's alone
//! (interpolation between probes, probe-to-experiment noise). Each
//! budget sits a small multiple above the largest error measured at
//! quick and full fidelity (EXPERIMENTS.md lists both): tight enough to
//! catch methodology drift between the backends.

use super::{predict, Calibrated};
use crate::experiments::core_scaling::CoreScalingResult;
use crate::experiments::epi::EpiResult;
use crate::experiments::mt_vs_mc::MtMcResult;
use crate::experiments::noc_energy::NocEnergyResult;
use crate::experiments::static_idle::StaticIdleResult;
use crate::experiments::thermal::ThermalPowerResult;
use crate::report::Table;

/// Committed relative-error budgets, one per compared figure. The
/// conformance suite and the `--backend both` report both enforce
/// these; tightening one is a deliberate, reviewed act.
#[must_use]
pub fn budget_for(figure: &str) -> f64 {
    match figure {
        "table_v" => 0.005,
        "figure_10" => 0.005,
        "figure_11" => 0.005,
        "figure_12" => 0.08,
        "figure_13" => 0.05,
        "figure_14" => 0.035,
        "figure_17" => 0.0005,
        "design_space" => 0.12,
        other => panic!("no committed budget for figure {other:?}"),
    }
}

/// Small-denominator floors so near-zero oracle values do not explode
/// the relative error (watts / picojoules / degrees Celsius).
const FLOOR_W: f64 = 0.005;
const FLOOR_PJ: f64 = 5.0;
const FLOOR_C: f64 = 1.0;

fn rel_err(cycle: f64, analytic: f64, floor: f64) -> f64 {
    (analytic - cycle).abs() / cycle.abs().max(floor)
}

/// One compared quantity.
#[derive(Debug, Clone)]
pub struct ComparedPoint {
    /// Human-readable point label (`"0.90 V static_vdd"`, …).
    pub label: String,
    /// The cycle oracle's value.
    pub cycle: f64,
    /// The analytic prediction.
    pub analytic: f64,
    /// Relative error against the floored oracle magnitude.
    pub rel: f64,
}

/// One figure's error summary.
#[derive(Debug, Clone)]
pub struct FigureComparison {
    /// Stable figure key (`"figure_11"`, …).
    pub figure: &'static str,
    /// Committed budget on the maximum relative error.
    pub budget: f64,
    /// Every compared point.
    pub points: Vec<ComparedPoint>,
}

impl FigureComparison {
    fn new(figure: &'static str) -> Self {
        Self {
            figure,
            budget: budget_for(figure),
            points: Vec::new(),
        }
    }

    /// Builds a comparison from `(label, cycle, analytic, floor)`
    /// tuples (used by sweeps that compare outside this module).
    pub fn from_points<I>(figure: &'static str, points: I) -> Self
    where
        I: IntoIterator<Item = (String, f64, f64, f64)>,
    {
        let mut cmp = Self::new(figure);
        for (label, cycle, analytic, floor) in points {
            cmp.push(label, cycle, analytic, floor);
        }
        cmp
    }

    fn push(&mut self, label: String, cycle: f64, analytic: f64, floor: f64) {
        self.points.push(ComparedPoint {
            rel: rel_err(cycle, analytic, floor),
            label,
            cycle,
            analytic,
        });
    }

    /// Maximum relative error across the figure; NaN if any point's
    /// error is NaN (`f64::max` would drop it).
    #[must_use]
    pub fn max_rel(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.rel)
            .fold(0.0, |m, r| if r > m || r.is_nan() { r } else { m })
    }

    /// Mean relative error across the figure.
    #[must_use]
    pub fn mean_rel(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.rel).sum::<f64>() / self.points.len() as f64
    }

    /// The worst point, if any were compared.
    #[must_use]
    pub fn worst(&self) -> Option<&ComparedPoint> {
        self.points.iter().max_by(|a, b| a.rel.total_cmp(&b.rel))
    }

    /// Whether the figure's maximum error is within its budget (never,
    /// when an error is not finite).
    #[must_use]
    pub fn within_budget(&self) -> bool {
        self.max_rel() <= self.budget
    }
}

/// Figure 10 + Table V: static and idle rail power per voltage step.
#[must_use]
pub fn compare_static_idle(cycle: &StaticIdleResult, cal: &Calibrated) -> Vec<FigureComparison> {
    let mut fig10 = FigureComparison::new("figure_10");
    let predicted = predict::static_idle(cal);
    for (c, a) in cycle.points.iter().zip(&predicted) {
        let v = c.vdd.0;
        for (metric, cw, aw) in [
            ("static_vdd", c.static_vdd.0, a.static_vdd),
            ("static_vcs", c.static_vcs.0, a.static_vcs),
            ("dynamic_vdd", c.dynamic_vdd.0, a.dynamic_vdd),
            ("dynamic_vcs", c.dynamic_vcs.0, a.dynamic_vcs),
        ] {
            fig10.push(format!("{v:.2} V {metric}"), cw, aw, FLOOR_W);
        }
    }
    let mut tv = FigureComparison::new("table_v");
    let (static_w, idle_w) = predict::table_v(cal);
    tv.push(
        "static".to_owned(),
        cycle.table_v_static.0,
        static_w,
        FLOOR_W,
    );
    tv.push("idle".to_owned(), cycle.table_v_idle.0, idle_w, FLOOR_W);
    vec![fig10, tv]
}

/// Figure 11: EPI per instruction case and operand pattern.
#[must_use]
pub fn compare_epi(cycle: &EpiResult, cal: &Calibrated) -> FigureComparison {
    let mut cmp = FigureComparison::new("figure_11");
    let predicted = predict::epi(cal);
    for row in &cycle.rows {
        for (pattern, measured) in &row.epi_pj {
            let Some((_, _, a)) = predicted
                .iter()
                .find(|(label, p, _)| *label == row.label && p == pattern)
            else {
                continue;
            };
            cmp.push(
                format!("{} {pattern}", row.label),
                measured.value,
                *a,
                FLOOR_PJ,
            );
        }
    }
    cmp
}

/// Figure 12: NoC pJ/hop trendlines and the 8-hop EPF endpoints.
#[must_use]
pub fn compare_noc(cycle: &NocEnergyResult, cal: &Calibrated) -> FigureComparison {
    let mut cmp = FigureComparison::new("figure_12");
    let predicted = predict::noc(cal);
    for series in &cycle.series {
        let Some((_, points, slope)) = predicted.iter().find(|(p, _, _)| *p == series.pattern)
        else {
            continue;
        };
        cmp.push(
            format!("{} pJ/hop", series.pattern),
            series.pj_per_hop,
            *slope,
            FLOOR_PJ,
        );
        if let (Some(&(8, c8)), Some(&(8, a8))) = (
            series.points.iter().find(|p| p.0 == 8),
            points.iter().find(|p| p.0 == 8),
        ) {
            cmp.push(format!("{} epf@8", series.pattern), c8, a8, FLOOR_PJ);
        }
    }
    cmp
}

/// Figure 13: full-chip watts per measured core count plus the fitted
/// mW/core slopes and the chip idle.
#[must_use]
pub fn compare_core_scaling(cycle: &CoreScalingResult, cal: &Calibrated) -> FigureComparison {
    let mut cmp = FigureComparison::new("figure_13");
    cmp.push(
        "chip3 idle".to_owned(),
        cycle.idle.0,
        predict::chip3_idle_w(cal),
        FLOOR_W,
    );
    for series in &cycle.series {
        let name = format!("{} {}", series.bench.label(), series.tpc.label());
        for &(cores, watts) in &series.points {
            let a = predict::micro_power_w(cal, series.bench, series.tpc, cores as f64);
            cmp.push(format!("{name} @{cores}"), watts, a, FLOOR_W);
        }
        let fit: Vec<(f64, f64)> = series
            .points
            .iter()
            .map(|&(c, _)| {
                (
                    c as f64,
                    predict::micro_power_w(cal, series.bench, series.tpc, c as f64),
                )
            })
            .collect();
        if let Ok((_, slope)) = crate::measure::linear_fit(&fit) {
            cmp.push(
                format!("{name} mW/core"),
                series.mw_per_core,
                slope * 1e3,
                1.0,
            );
        }
    }
    cmp
}

/// Figure 14: steady-state total power per (benchmark, threads, T/C).
#[must_use]
pub fn compare_mt_vs_mc(cycle: &MtMcResult, cal: &Calibrated) -> FigureComparison {
    let mut cmp = FigureComparison::new("figure_14");
    for series in &cycle.series {
        for p in &series.points {
            let a = predict::micro_power_w(cal, series.bench, p.tpc, p.active_cores as f64);
            cmp.push(
                format!("{} {}T {}", series.bench.label(), p.threads, p.tpc.label()),
                p.total_power.0,
                a,
                FLOOR_W,
            );
        }
    }
    cmp
}

/// Figure 17: equilibrium power and surface temperature per point.
#[must_use]
pub fn compare_thermal(cycle: &ThermalPowerResult, cal: &Calibrated) -> FigureComparison {
    let mut cmp = FigureComparison::new("figure_17");
    let predicted = predict::thermal(cal);
    for p in &cycle.points {
        let Some(&(_, _, a_power, a_surface)) = predicted.iter().find(|&&(threads, eff, _, _)| {
            threads == p.threads && (eff - p.fan_effectiveness).abs() < 1e-9
        }) else {
            continue;
        };
        let label = format!("{}T fan {:.1}", p.threads, p.fan_effectiveness);
        cmp.push(format!("{label} power"), p.power.0, a_power, FLOOR_W);
        cmp.push(format!("{label} surface"), p.surface_c, a_surface, FLOOR_C);
    }
    cmp
}

/// Renders the `--backend both` error table.
#[must_use]
pub fn error_table(comparisons: &[FigureComparison]) -> String {
    let mut t = Table::new("Analytic vs cycle: per-figure relative error");
    t.header([
        "Figure",
        "Points",
        "Max rel",
        "Mean rel",
        "Budget",
        "Worst point",
        "Status",
    ]);
    for c in comparisons {
        let (worst, status) = match c.worst() {
            Some(w) => (
                format!("{} ({:.4} vs {:.4})", w.label, w.analytic, w.cycle),
                if c.within_budget() {
                    "ok"
                } else {
                    "OVER BUDGET"
                },
            ),
            None => ("—".to_owned(), "empty"),
        };
        t.row([
            c.figure.to_owned(),
            c.points.len().to_string(),
            format!("{:.3}%", c.max_rel() * 100.0),
            format!("{:.3}%", c.mean_rel() * 100.0),
            format!("{:.2}%", c.budget * 100.0),
            worst,
            status.to_owned(),
        ]);
    }
    t.render()
}

/// Which experiment modules the analytic backend covers versus leaves
/// to the cycle engine alone (timing and functional studies have no
/// power-model fast path).
#[must_use]
pub fn coverage() -> (Vec<&'static str>, Vec<&'static str>) {
    (
        vec![
            "static_idle",
            "epi",
            "noc_energy",
            "core_scaling",
            "mt_vs_mc",
            "thermal (figure 17)",
            "design_space",
        ],
        vec![
            "vf_sweep (already closed-form, shared by both backends)",
            "yield_stats (no power content)",
            "area (no power content)",
            "memory_energy (derived table, no steady-state sweep)",
            "specint (timing-driven phase traces)",
            "mem_latency (pure timing)",
            "thermal (figure 18 scheduling transient)",
            "governor (closed-loop control transients)",
            "ablations (design-choice deltas need the cycle engine)",
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_non_finite_prediction_fails_its_budget() {
        for bad in [f64::NAN, f64::INFINITY] {
            let cmp = FigureComparison::from_points(
                "figure_11",
                [
                    ("nop".to_owned(), 100.0, bad, FLOOR_PJ),
                    ("add".to_owned(), 100.0, 100.0, FLOOR_PJ),
                ],
            );
            assert!(!cmp.within_budget(), "{bad} passed at {}", cmp.max_rel());
            assert!(!cmp.max_rel().is_finite());
        }
        let fine = FigureComparison::from_points(
            "figure_11",
            [("add".to_owned(), 100.0, 100.1, FLOOR_PJ)],
        );
        assert!(fine.within_budget());
    }
}

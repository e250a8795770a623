//! Analytic-vs-cycle conformance: per-figure error tables against the
//! cycle engine treated as the oracle.
//!
//! Each experiment runs once per backend, and every comparison diffs
//! the two results of the same type. It walks the *cycle* result (so
//! fault holes simply drop out of the comparison), looks up the same
//! quantity in the analytic result, and records the relative error
//! against a committed per-figure budget. Both backends charge the same
//! coefficients, so the error is the rate library's alone
//! (interpolation between probes, probe-to-experiment noise). Each
//! budget sits a small multiple above the largest error measured at
//! quick and full fidelity (EXPERIMENTS.md lists both): tight enough to
//! catch methodology drift between the backends.

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
    pub fn with_points<I>(figure: &'static str, points: I) -> Self
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
pub fn compare_static_idle(
    cycle: &StaticIdleResult,
    analytic: &StaticIdleResult,
) -> Vec<FigureComparison> {
    let mut fig10 = FigureComparison::new("figure_10");
    for (c, a) in cycle.points.iter().zip(&analytic.points) {
        let v = c.vdd.0;
        for (metric, cw, aw) in [
            ("static_vdd", c.static_vdd, a.static_vdd),
            ("static_vcs", c.static_vcs, a.static_vcs),
            ("dynamic_vdd", c.dynamic_vdd, a.dynamic_vdd),
            ("dynamic_vcs", c.dynamic_vcs, a.dynamic_vcs),
        ] {
            fig10.push(format!("{v:.2} V {metric}"), cw.0, aw.0, FLOOR_W);
        }
    }
    let mut tv = FigureComparison::new("table_v");
    for (label, c, a) in [
        ("static", cycle.table_v_static, analytic.table_v_static),
        ("idle", cycle.table_v_idle, analytic.table_v_idle),
    ] {
        tv.push(label.to_owned(), c.0, a.0, FLOOR_W);
    }
    vec![fig10, tv]
}

/// Figure 11: EPI per instruction case and operand pattern.
#[must_use]
pub fn compare_epi(cycle: &EpiResult, analytic: &EpiResult) -> FigureComparison {
    let mut cmp = FigureComparison::new("figure_11");
    for row in &cycle.rows {
        for (pattern, measured) in &row.epi_pj {
            if let Some(a) = analytic.row(&row.label).and_then(|r| r.at(*pattern)) {
                let label = format!("{} {pattern}", row.label);
                cmp.push(label, measured.value, a.value, FLOOR_PJ);
            }
        }
    }
    cmp
}

/// Figure 12: NoC pJ/hop trendlines and the 8-hop EPF endpoints.
#[must_use]
pub fn compare_noc(cycle: &NocEnergyResult, analytic: &NocEnergyResult) -> FigureComparison {
    let mut cmp = FigureComparison::new("figure_12");
    for series in &cycle.series {
        let Some(a) = analytic.series_for(&series.pattern) else {
            continue;
        };
        let label = format!("{} pJ/hop", series.pattern);
        cmp.push(label, series.pj_per_hop, a.pj_per_hop, FLOOR_PJ);
        let at8 = |points: &[(usize, f64)]| points.iter().find(|p| p.0 == 8).map(|p| p.1);
        if let (Some(c8), Some(a8)) = (at8(&series.points), at8(&a.points)) {
            cmp.push(format!("{} epf@8", series.pattern), c8, a8, FLOOR_PJ);
        }
    }
    cmp
}

/// Figure 13: full-chip watts per measured core count plus the fitted
/// mW/core slopes and the chip idle.
#[must_use]
pub fn compare_core_scaling(
    cycle: &CoreScalingResult,
    analytic: &CoreScalingResult,
) -> FigureComparison {
    let mut cmp = FigureComparison::new("figure_13");
    cmp.push(
        "chip3 idle".to_owned(),
        cycle.idle.0,
        analytic.idle.0,
        FLOOR_W,
    );
    for series in &cycle.series {
        let name = format!("{} {}", series.bench.label(), series.tpc.label());
        let a = analytic.series_for(series.bench, series.tpc);
        for &(cores, watts) in &series.points {
            if let Some(&(_, aw)) = a.points.iter().find(|p| p.0 == cores) {
                cmp.push(format!("{name} @{cores}"), watts, aw, FLOOR_W);
            }
        }
        // A trendline with fewer than two surviving points is a hole.
        if series.points.len() >= 2 {
            let label = format!("{name} mW/core");
            cmp.push(label, series.mw_per_core, a.mw_per_core, 1.0);
        }
    }
    cmp
}

/// Figure 14: steady-state total power per (benchmark, threads, T/C).
#[must_use]
pub fn compare_mt_vs_mc(cycle: &MtMcResult, analytic: &MtMcResult) -> FigureComparison {
    let mut cmp = FigureComparison::new("figure_14");
    for series in &cycle.series {
        let a = analytic.series_for(series.bench);
        for p in &series.points {
            let Some(ap) = a
                .points
                .iter()
                .find(|q| q.threads == p.threads && q.tpc == p.tpc)
            else {
                continue;
            };
            cmp.push(
                format!("{} {}T {}", series.bench.label(), p.threads, p.tpc.label()),
                p.total_power.0,
                ap.total_power.0,
                FLOOR_W,
            );
        }
    }
    cmp
}

/// Figure 17: equilibrium power and surface temperature per point.
#[must_use]
pub fn compare_thermal(
    cycle: &ThermalPowerResult,
    analytic: &ThermalPowerResult,
) -> FigureComparison {
    let mut cmp = FigureComparison::new("figure_17");
    for p in &cycle.points {
        let Some(a) = analytic.points.iter().find(|a| {
            a.threads == p.threads && (a.fan_effectiveness - p.fan_effectiveness).abs() < 1e-9
        }) else {
            continue;
        };
        let label = format!("{}T fan {:.1}", p.threads, p.fan_effectiveness);
        cmp.push(format!("{label} power"), p.power.0, a.power.0, FLOOR_W);
        cmp.push(
            format!("{label} surface"),
            p.surface_c,
            a.surface_c,
            FLOOR_C,
        );
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_non_finite_prediction_fails_its_budget() {
        for bad in [f64::NAN, f64::INFINITY] {
            let cmp = FigureComparison::with_points(
                "figure_11",
                [
                    ("nop".to_owned(), 100.0, bad, FLOOR_PJ),
                    ("add".to_owned(), 100.0, 100.0, FLOOR_PJ),
                ],
            );
            assert!(!cmp.within_budget(), "{bad} passed at {}", cmp.max_rel());
            assert!(!cmp.max_rel().is_finite());
        }
        let fine = FigureComparison::with_points(
            "figure_11",
            [("add".to_owned(), 100.0, 100.1, FLOOR_PJ)],
        );
        assert!(fine.within_budget());
    }
}

//! Figure 12 — NoC energy per flit versus hop count and bit-switching
//! pattern.
//!
//! The chipset logic streams dummy invalidation packets (one header +
//! six payload flits, seven valid flits per 47 bridge cycles) into the
//! chip at tile0, destined at tiles 0 through 8 hops away. For each of
//! the four payload switching patterns (NSW/HSW/FSW/FSWA) the energy
//! per flit is `EPF = (47/7) × (P_hop − P_base)/f`, and a linear fit
//! over hops gives the paper's pJ/hop trendlines.

use std::sync::Mutex;

use piton_arch::error::PitonError;
use piton_arch::units::{Hertz, Watts};
use piton_board::fault::{self, FaultPlan};
use piton_power::ChipCorner;
use piton_sim::machine::SwitchPattern;

use super::Fidelity;
use crate::bench::{Bench, Rig};
use crate::journal::Journal;
use crate::measure::{epf_pj, linear_fit};
use crate::report::{render_holes, Hole, Table, HOLE_MARK};
use crate::runner;

/// EPF series for one switching pattern.
#[derive(Debug, Clone)]
pub struct PatternSeries {
    /// Payload pattern.
    pub pattern: String,
    /// `(hops, EPF pJ)` for hops 0..=8 (0 is the baseline, 0 pJ by
    /// construction).
    pub points: Vec<(usize, f64)>,
    /// Fitted slope in pJ/hop (the Figure 12 trendline).
    pub pj_per_hop: f64,
}

/// The Figure 12 dataset.
#[derive(Debug, Clone)]
pub struct NocEnergyResult {
    /// One series per switching pattern.
    pub series: Vec<PatternSeries>,
    /// Grid points lost to injected faults (empty without a fault plan).
    pub holes: Vec<Hole>,
}

/// Paper trendlines (pJ/hop): NSW 3.58, HSW 11.16, FSW 16.68,
/// FSWA 16.98.
#[must_use]
pub fn paper_reference() -> Vec<(&'static str, f64)> {
    vec![
        ("NSW", 3.58),
        ("HSW", 11.16),
        ("FSW", 16.68),
        ("FSWA", 16.98),
    ]
}

/// Figure 12 cell label, shared by the sweep and the hole trailer.
fn point_label(pattern: SwitchPattern, hops: usize) -> String {
    format!("{} hop {hops}", pattern.label())
}

/// The Figure 12 grid in sweep order: 4 patterns × hops 0..=8 as
/// `(pattern index, pattern, hops)`, 36 points. This is the grid the
/// `"noc"` journal section — and therefore the serve cache — indexes.
#[must_use]
pub fn grid() -> Vec<(usize, SwitchPattern, usize)> {
    SwitchPattern::ALL
        .into_iter()
        .enumerate()
        .flat_map(|(i, pattern)| (0..=8usize).map(move |hops| (i, pattern, hops)))
        .collect()
}

/// Computes one Figure 12 grid point on `bench` exactly as the [`run`]
/// sweep does — same per-pattern seed, same sabotage gate — so a result
/// computed here is bit-identical to one journaled by a full run under
/// the same context.
///
/// # Errors
///
/// Propagates injected sabotage failures from the fault plan.
pub fn compute_point(
    bench: &dyn Bench,
    index: usize,
    point: &(usize, SwitchPattern, usize),
    fidelity: Fidelity,
    plan: Option<&FaultPlan>,
    attempt: u32,
) -> Result<Watts, PitonError> {
    let &(i, pattern, hops) = point;
    if let Some(plan) = plan {
        fault::sabotage_gate(plan, "noc", index, attempt)?;
    }
    let rig = Rig::new(ChipCorner::typical(), 0xE0 + i as u64);
    Ok(bench.traffic_power(&rig, pattern, hops, fidelity))
}

/// Runs the Figure 12 sweep on `bench` under an optional fault plan,
/// serving and recording points through an optional result journal.
#[must_use]
pub fn run(
    bench: &dyn Bench,
    fidelity: Fidelity,
    plan: Option<&FaultPlan>,
    journal: Option<&Mutex<Journal>>,
) -> NocEnergyResult {
    let f = Hertz::from_mhz(500.05);
    // Every point an isolated system; hop 0 is the pattern's baseline
    // power the others subtract.
    let powers = runner::try_sweep_journaled(
        fidelity.jobs,
        grid().into_iter().enumerate().collect(),
        "noc",
        plan,
        journal,
        |index, point, attempt| compute_point(bench, index, point, fidelity, plan, attempt),
    );

    let mut holes = Vec::new();
    let series = SwitchPattern::ALL
        .into_iter()
        .zip(powers.chunks(9))
        .map(|(pattern, chunk)| {
            let label = pattern.label();
            let mut points = Vec::new();
            match &chunk[0] {
                Ok(base) => {
                    points.push((0usize, 0.0f64));
                    for (hops, r) in (1..=8usize).zip(&chunk[1..]) {
                        match r {
                            Ok(p) => points.push((hops, epf_pj(*p, *base, f))),
                            Err(e) => {
                                holes.push(Hole::from_point("noc", point_label(pattern, hops), e));
                            }
                        }
                    }
                }
                Err(e) => {
                    // Without the hop-0 baseline nothing in the series
                    // can be normalized: hole every cell.
                    holes.push(Hole::from_point("noc", point_label(pattern, 0), e));
                    for hops in 1..=8usize {
                        holes.push(Hole {
                            section: "noc".to_owned(),
                            index: e.index + hops,
                            point: point_label(pattern, hops),
                            attempts: 0,
                            error: format!("baseline (hop 0) of {label} lost; cannot normalize"),
                        });
                    }
                }
            }
            let fit: Vec<(f64, f64)> = points.iter().map(|&(h, e)| (h as f64, e)).collect();
            let slope = match linear_fit(&fit) {
                Ok((_, slope)) => slope,
                Err(e) => {
                    holes.push(Hole {
                        section: "noc".to_owned(),
                        index: 0,
                        point: format!("{label} trendline"),
                        attempts: 0,
                        error: e.to_string(),
                    });
                    0.0
                }
            };
            PatternSeries {
                pattern: label.to_owned(),
                points,
                pj_per_hop: slope,
            }
        })
        .collect();
    NocEnergyResult { series, holes }
}

impl NocEnergyResult {
    /// A series by pattern label.
    #[must_use]
    pub fn series_for(&self, label: &str) -> Option<&PatternSeries> {
        self.series.iter().find(|s| s.pattern == label)
    }

    /// Exports the Figure 12 series as CSV (`pattern,hops,epf_pj`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut t = Table::new("");
        t.header(["pattern", "hops", "epf_pj"]);
        for s in &self.series {
            for (h, e) in &s.points {
                t.row([s.pattern.clone(), h.to_string(), format!("{e:.3}")]);
            }
        }
        t.to_csv()
    }

    /// Renders Figure 12.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::new("Figure 12: NoC energy per flit (pJ) vs hops");
        t.header(["Hops", "NSW", "HSW", "FSW", "FSWA"]);
        for h in 0..=8usize {
            let cell = |label: &str| {
                self.series_for(label)
                    .and_then(|s| s.points.iter().find(|(hh, _)| *hh == h))
                    .map_or_else(
                        || {
                            let point = format!("{label} hop {h}");
                            if self.holes.iter().any(|hole| hole.covers(&point)) {
                                HOLE_MARK.to_owned()
                            } else {
                                "-".to_owned()
                            }
                        },
                        |(_, e)| format!("{e:.1}"),
                    )
            };
            t.row([
                h.to_string(),
                cell("NSW"),
                cell("HSW"),
                cell("FSW"),
                cell("FSWA"),
            ]);
        }
        let mut out = t.render();
        out.push_str("\nTrendlines (pJ/hop):\n");
        for s in &self.series {
            let paper = paper_reference()
                .into_iter()
                .find(|(l, _)| *l == s.pattern)
                .map_or(0.0, |(_, v)| v);
            out.push_str(&format!(
                "  {}: {:.2} pJ/hop (paper ~{paper}, {})\n",
                s.pattern,
                s.pj_per_hop,
                crate::report::vs_paper(s.pj_per_hop, paper)
            ));
        }
        out.push_str(&render_holes(&self.holes));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::CycleBench;

    fn result() -> NocEnergyResult {
        run(&CycleBench, Fidelity::quick(), None, None)
    }

    #[test]
    fn epf_scales_linearly_with_hops() {
        let r = result();
        let hsw = r.series_for("HSW").unwrap();
        // Check rough linearity: point at 8 hops ≈ 2x point at 4 hops.
        let at4 = hsw.points[4].1;
        let at8 = hsw.points[8].1;
        let ratio = at8 / at4;
        assert!((1.6..=2.4).contains(&ratio), "8/4 hop ratio {ratio}");
    }

    #[test]
    fn trendlines_order_and_magnitude_match_figure_12() {
        let r = result();
        let slope = |l: &str| r.series_for(l).unwrap().pj_per_hop;
        let (nsw, hsw, fsw, fswa) = (slope("NSW"), slope("HSW"), slope("FSW"), slope("FSWA"));
        assert!(nsw < hsw && hsw < fsw, "ordering: {nsw} {hsw} {fsw}");
        assert!(fswa >= fsw * 0.97, "FSWA {fswa} vs FSW {fsw}");
        for (label, paper) in paper_reference() {
            let measured = slope(label);
            let dev = (measured - paper).abs() / paper;
            assert!(
                dev < 0.35,
                "{label}: {measured:.2} pJ/hop vs paper {paper} ({:.0}%)",
                dev * 100.0
            );
        }
    }

    #[test]
    fn noc_energy_is_small_versus_computation() {
        // The paper's headline: sending a flit across the whole chip
        // (8 hops) costs about as much as one add (~95 pJ) — far from
        // dominating.
        let r = result();
        let across_chip = r.series_for("HSW").unwrap().points[8].1;
        assert!(
            (40.0..200.0).contains(&across_chip),
            "8-hop flit {across_chip} pJ"
        );
    }

    #[test]
    fn render_contains_trendlines() {
        let s = result().render();
        assert!(s.contains("Trendlines"));
        assert!(s.contains("FSWA"));
    }
}

//! Figure 13 — power scaling with core count.
//!
//! Each microbenchmark (Int, HP, Hist) runs on 1 to 25 cores in both
//! the 1 T/C and 2 T/C configurations on Chip #3 (the paper's
//! microbenchmark die); full-chip power is measured per point and a
//! linear fit gives the mW/core trendline.

use std::sync::Mutex;

use piton_arch::error::PitonError;
use piton_arch::units::Watts;
use piton_board::fault::FaultPlan;
use piton_board::population::NamedChip;
use piton_workloads::micro::{Microbenchmark, ThreadsPerCore};

use super::{At, Env, Fidelity, Measured, Rendered, Runs, Section};
use crate::analytic::compare::{self, FigureComparison};
use crate::bench::{Bench, ProbeKind, Rig};
use crate::journal::Journal;
use crate::measure::linear_fit;
use crate::report::{self, render_holes, Hole, Table, HOLE_MARK};

/// One (benchmark, T/C) power-versus-cores series.
#[derive(Debug, Clone)]
pub struct ScalingSeries {
    /// Which microbenchmark.
    pub bench: Microbenchmark,
    /// Thread configuration.
    pub tpc: ThreadsPerCore,
    /// `(cores, full-chip watts)`.
    pub points: Vec<(usize, f64)>,
    /// Fitted slope in mW/core.
    pub mw_per_core: f64,
}

/// The Figure 13 dataset.
#[derive(Debug, Clone)]
pub struct CoreScalingResult {
    /// Six series (3 benchmarks × 2 T/C configs).
    pub series: Vec<ScalingSeries>,
    /// Chip #3 idle power (the paper reports 1906.2 mW).
    pub idle: Watts,
    /// Grid points lost to injected faults (empty without a fault plan).
    pub holes: Vec<Hole>,
}

/// Paper trendlines in mW/core: `(bench, tpc, slope)`.
#[must_use]
pub fn paper_reference() -> Vec<(Microbenchmark, ThreadsPerCore, f64)> {
    vec![
        (Microbenchmark::Int, ThreadsPerCore::One, 22.8),
        (Microbenchmark::Int, ThreadsPerCore::Two, 37.4),
        (Microbenchmark::Hp, ThreadsPerCore::One, 35.6),
        (Microbenchmark::Hp, ThreadsPerCore::Two, 57.8),
        (Microbenchmark::Hist, ThreadsPerCore::One, 14.5),
        (Microbenchmark::Hist, ThreadsPerCore::Two, 14.4),
    ]
}

/// Figure 13 point label, shared by the sweep and the hole trailer.
fn point_label(bench: Microbenchmark, tpc: ThreadsPerCore, cores: usize) -> String {
    format!("{} {} @ {cores} cores", bench.label(), tpc.label())
}

/// The canonical full-chip Figure 13 grid, 150 points: 3 benchmarks ×
/// 2 T/C × 1..=25 cores as `(bench, tpc, cores)`, so point
/// `(bench, tpc, cores)` sits at `bench·50 + (T/C − 1)·25 + (cores − 1)`.
/// Its index is the point's journal index, fault-plan index and seed in
/// every sweep, and the index the serve layer addresses.
#[must_use]
pub fn grid() -> Vec<(Microbenchmark, ThreadsPerCore, usize)> {
    Microbenchmark::ALL
        .into_iter()
        .flat_map(|bench| {
            [ThreadsPerCore::One, ThreadsPerCore::Two]
                .into_iter()
                .flat_map(move |tpc| (1..=25).map(move |cores| (bench, tpc, cores)))
        })
        .collect()
}

/// The core counts a reduced-fidelity run sweeps.
pub const REDUCED_CORES: [usize; 7] = [1, 5, 9, 13, 17, 21, 25];

/// Figure 13: one point per (benchmark, T/C, cores) of the canonical
/// [`grid`], its full-chip watts.
#[derive(Debug, Clone, Copy)]
pub struct Scaling;

impl Section for Scaling {
    type Point = (Microbenchmark, ThreadsPerCore, usize);
    type Inputs = ();
    type Payload = f64;
    type Output = CoreScalingResult;
    const NAME: &'static str = "scaling";
    const TITLE: &'static str = "Figure 13 — power scaling with core count";
    const RUNS: Runs = Runs::Bench;
    const HOLE_AWARE: bool = true;

    fn grid(&self, _: Fidelity) -> Vec<Self::Point> {
        grid()
    }

    fn shown(&self, fidelity: Fidelity) -> Option<Vec<usize>> {
        fidelity.is_reduced().then(|| {
            let grid = grid();
            (0..grid.len())
                .filter(|&i| REDUCED_CORES.contains(&grid[i].2))
                .collect()
        })
    }

    fn prepare(&self, _: &Env) -> Result<(), PitonError> {
        Ok(())
    }

    /// Full-chip power on Chip #3; the grid index and the attempt seed
    /// the monitor faults, so a point is the same in every sweep.
    fn compute(&self, at: &At<Self>) -> Result<f64, PitonError> {
        let &(micro, tpc, cores) = at.point;
        let seed = ((at.index as u64) << 32) ^ u64::from(at.attempt);
        let faults = at.env.plan.map(|p| (p, seed));
        let work = ProbeKind::Micro(micro, tpc, cores);
        let m =
            at.env
                .bench
                .measure(&Rig::chip(NamedChip::Chip3), work, at.env.fidelity, faults)?;
        Ok(m.total.mean.0)
    }

    fn assemble(&self, env: &Env, (): &(), measured: Vec<Measured<'_, Self>>) -> CoreScalingResult {
        let idle = env
            .bench
            .idle_power(&Rig::chip(NamedChip::Chip3), env.fidelity);
        let points: Vec<_> = measured.iter().map(|&(i, &p, _)| (i, p)).collect();
        let watts: Vec<_> = measured.into_iter().map(|(_, _, r)| r).collect();
        let mut holes: Vec<Hole> = points
            .iter()
            .zip(&watts)
            .filter_map(|(&(_, (bench, tpc, cores)), r)| {
                r.as_ref()
                    .err()
                    .map(|e| report::hole("scaling", point_label(bench, tpc, cores), e))
            })
            .collect();
        let per_series = points.len() / 6;
        let series = points
            .chunks(per_series)
            .zip(watts.chunks(per_series))
            .map(|(grid, chunk)| {
                let (_, (bench, tpc, _)) = grid[0];
                let points: Vec<(usize, f64)> = grid
                    .iter()
                    .zip(chunk)
                    .filter_map(|(&(_, (_, _, c)), r)| r.as_ref().ok().map(|&w| (c, w)))
                    .collect();
                let fit: Vec<(f64, f64)> = points.iter().map(|&(c, w)| (c as f64, w)).collect();
                let slope_w = match linear_fit(&fit) {
                    Ok((_, slope)) => slope,
                    Err(e) => {
                        holes.push(Hole {
                            section: "scaling".to_owned(),
                            index: 0,
                            point: format!("{} {} trendline", bench.label(), tpc.label()),
                            attempts: 0,
                            error: e.to_string(),
                        });
                        0.0
                    }
                };
                ScalingSeries {
                    bench,
                    tpc,
                    points,
                    mw_per_core: slope_w * 1e3,
                }
            })
            .collect();
        CoreScalingResult {
            series,
            idle,
            holes,
        }
    }

    fn render(&self, out: &CoreScalingResult) -> Rendered {
        Rendered {
            body: out.render(),
            holes: out.holes.clone(),
            csv: None,
        }
    }

    fn compare(
        &self,
        cycle: Option<&CoreScalingResult>,
        analytic: &CoreScalingResult,
        _: &Env,
    ) -> Vec<FigureComparison> {
        cycle
            .map(|c| compare::compare_core_scaling(c, analytic))
            .into_iter()
            .collect()
    }
}

/// Runs the Figure 13 sweep over the given core counts (the harness
/// sweeps 1..=25; tests use fewer points) on `bench` under an optional
/// fault plan, serving and recording points through an optional result
/// journal. Each point keeps its canonical [`grid`] index, so a journal
/// of any core subset serves the same points a full run or a serve
/// request does.
#[must_use]
pub fn run_with_cores(
    bench: &dyn Bench,
    core_counts: &[usize],
    fidelity: Fidelity,
    plan: Option<&FaultPlan>,
    journal: Option<&Mutex<Journal>>,
) -> CoreScalingResult {
    let grid = grid();
    let shown = (0..grid.len())
        .filter(|&i| core_counts.contains(&grid[i].2))
        .collect();
    super::run_points(
        Scaling,
        &Env::new(bench, fidelity, plan),
        journal,
        &grid,
        Some(shown),
    )
}

/// Runs the full 1..=25-core sweep on `bench`.
#[must_use]
pub fn run(
    bench: &dyn Bench,
    fidelity: Fidelity,
    plan: Option<&FaultPlan>,
    journal: Option<&Mutex<Journal>>,
) -> CoreScalingResult {
    let cores: Vec<usize> = (1..=25).collect();
    run_with_cores(bench, &cores, fidelity, plan, journal)
}

impl CoreScalingResult {
    /// A series by benchmark and configuration.
    #[must_use]
    pub fn series_for(&self, bench: Microbenchmark, tpc: ThreadsPerCore) -> &ScalingSeries {
        self.series
            .iter()
            .find(|s| s.bench == bench && s.tpc == tpc)
            .expect("all six series present")
    }

    /// Renders Figure 13's trendlines.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::new(&format!(
            "Figure 13: power scaling with core count (Chip #3, idle {:.1} mW)",
            self.idle.as_mw()
        ));
        t.header(["Benchmark", "T/C", "mW/core", "Paper", "vs paper"]);
        for s in &self.series {
            let paper = paper_reference()
                .into_iter()
                .find(|(b, c, _)| *b == s.bench && *c == s.tpc)
                .map_or(0.0, |(_, _, v)| v);
            t.row([
                s.bench.label().to_owned(),
                s.tpc.label().to_owned(),
                format!("{:.1}", s.mw_per_core),
                format!("{paper}"),
                crate::report::vs_paper(s.mw_per_core, paper),
            ]);
        }
        let mut out = t.render();
        out.push_str("\nPer-point power (W):\n");
        for s in &self.series {
            let mut pts: Vec<String> = s
                .points
                .iter()
                .map(|(c, w)| format!("{c}:{w:.3}"))
                .collect();
            for h in &self.holes {
                if let Some(cores) = h
                    .point
                    .strip_prefix(&format!("{} {} @ ", s.bench.label(), s.tpc.label()))
                    .and_then(|rest| rest.strip_suffix(" cores"))
                {
                    pts.push(format!("{cores}:{HOLE_MARK}"));
                }
            }
            out.push_str(&format!(
                "  {} {}: {}\n",
                s.bench.label(),
                s.tpc.label(),
                pts.join(" ")
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

    fn result() -> CoreScalingResult {
        let cores = [1, 5, 9, 13, 17, 21, 25];
        run_with_cores(&CycleBench, &cores, Fidelity::quick(), None, None)
    }

    #[test]
    fn power_scales_linearly_and_two_tpc_scales_faster() {
        let r = result();
        for bench in [Microbenchmark::Int, Microbenchmark::Hp] {
            let one = r.series_for(bench, ThreadsPerCore::One);
            let two = r.series_for(bench, ThreadsPerCore::Two);
            assert!(one.mw_per_core > 0.0);
            assert!(
                two.mw_per_core > 1.18 * one.mw_per_core,
                "{}: 2T/C {} vs 1T/C {}",
                bench.label(),
                two.mw_per_core,
                one.mw_per_core
            );
            // Monotone non-decreasing power with cores.
            for w in one.points.windows(2) {
                assert!(w[1].1 >= w[0].1 - 0.02, "{}: {:?}", bench.label(), w);
            }
        }
    }

    #[test]
    fn hp_consumes_the_most_hist_the_least() {
        let r = result();
        for tpc in [ThreadsPerCore::One, ThreadsPerCore::Two] {
            let int = r.series_for(Microbenchmark::Int, tpc).mw_per_core;
            let hp = r.series_for(Microbenchmark::Hp, tpc).mw_per_core;
            let hist = r.series_for(Microbenchmark::Hist, tpc).mw_per_core;
            assert!(hp > int * 0.9, "{}: HP {hp} vs Int {int}", tpc.label());
            assert!(
                hist < int,
                "{}: Hist {hist} must be below Int {int}",
                tpc.label()
            );
        }
    }

    #[test]
    fn hp_at_full_chip_is_the_highest_observed_power() {
        // ~3.5 W on all 50 threads in the paper.
        let r = result();
        let hp_full = r
            .series_for(Microbenchmark::Hp, ThreadsPerCore::Two)
            .points
            .last()
            .unwrap()
            .1;
        assert!(
            (2.5..=4.5).contains(&hp_full),
            "HP @ 25 cores 2T/C = {hp_full} W"
        );
        for s in &r.series {
            let max = s.points.iter().map(|p| p.1).fold(0.0, f64::max);
            assert!(max <= hp_full + 0.05, "{} exceeds HP", s.bench.label());
        }
    }

    #[test]
    fn hist_tpc_configs_scale_similarly() {
        // Paper: 14.5 vs 14.4 mW/core — nearly identical.
        let r = result();
        let one = r
            .series_for(Microbenchmark::Hist, ThreadsPerCore::One)
            .mw_per_core;
        let two = r
            .series_for(Microbenchmark::Hist, ThreadsPerCore::Two)
            .mw_per_core;
        assert!(
            two < 2.2 * one.max(1.0) && one < 2.2 * two.max(1.0),
            "Hist slopes diverge: {one} vs {two}"
        );
    }

    #[test]
    fn render_includes_all_six_series() {
        let s = result().render();
        assert!(s.matches("Int").count() >= 2);
        assert!(s.contains("Hist"));
        assert!(s.contains("mW/core"));
    }
}

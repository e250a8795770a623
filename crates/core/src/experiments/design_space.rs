//! Beyond the paper: an analytic-only VDD × frequency × core-count ×
//! workload-mix design-space sweep.
//!
//! The grid is 21 voltage steps × 10 frequency fractions × 25 core
//! counts × 20 workload mixes — 105,000 operating points, three orders
//! of magnitude more than any figure in the paper. Each point solves
//! the same warm-up thermal fixed point the cycle bench uses (90 % of
//! total-with-IO power of the warm-up activity heating a
//! heatsink-plus-fan package from a 20 °C ambient), so a cycle-level
//! spot check of any point lands on the same junction temperature.
//! Only the analytic backend can finish this grid; the cycle engine
//! verifies a 27-point corner sample.
//!
//! The sweep reads only the 1 T/C microbenchmark probes
//! ([`probe_specs`]), so a point depends on those 21 probes alone.
//!
//! The sweep runs through the journaled runner under the
//! `"design_space"` section, so it inherits crash-resume and the
//! backend-tagged journal context like every paper figure.

use std::sync::Mutex;

use piton_arch::error::PitonError;
use piton_arch::units::{Hertz, Volts};
use piton_board::population::NamedChip;
use piton_power::model::OperatingPoint;
use piton_power::tech::TechModel;
use piton_power::thermal::{Cooling, ThermalModel, ROOM_AMBIENT_C};
use piton_workloads::micro::{Microbenchmark, ThreadsPerCore};

use piton_board::fault::{self, FaultPlan};
use piton_obs::json::{ObjectBuilder, Value};

use crate::analytic::battery::MICRO_KNOTS;
use crate::analytic::compare::FigureComparison;
use crate::analytic::{Calibrated, Features};
use crate::bench::{Bench, CycleBench, ProbeKind, Rig};
use crate::journal::{Journal, JournalPayload};
use crate::report::{Hole, Table, ANALYTIC_MARK, HOLE_MARK};
use crate::runner;

use super::Fidelity;

/// Voltage axis: 0.80 V to 1.20 V in 20 mV steps.
pub const VDD_STEPS: usize = 21;
/// Frequency axis: fractions 0.1 to 1.0 of `fmax(vdd)`.
pub const FREQ_STEPS: usize = 10;
/// Core-count axis: 1 to 25 active cores.
pub const CORE_STEPS: usize = 25;
/// Workload-mix axis.
pub const MIX_STEPS: usize = 20;
/// Points in [`grid`]: one per (voltage, frequency, cores, mix).
pub const GRID_POINTS: usize = VDD_STEPS * FREQ_STEPS * CORE_STEPS * MIX_STEPS;

/// Workload mixes as `[int, hp, hist]` weights (each row sums to 1).
/// The first three are the pure microbenchmarks — those rows are the
/// corners the cycle oracle spot-checks.
pub const MIXES: [[f64; 3]; MIX_STEPS] = [
    [1.00, 0.00, 0.00],
    [0.00, 1.00, 0.00],
    [0.00, 0.00, 1.00],
    [0.50, 0.50, 0.00],
    [0.50, 0.00, 0.50],
    [0.00, 0.50, 0.50],
    [0.75, 0.25, 0.00],
    [0.25, 0.75, 0.00],
    [0.75, 0.00, 0.25],
    [0.25, 0.00, 0.75],
    [0.00, 0.75, 0.25],
    [0.00, 0.25, 0.75],
    [0.50, 0.25, 0.25],
    [0.25, 0.50, 0.25],
    [0.25, 0.25, 0.50],
    [0.34, 0.33, 0.33],
    [0.60, 0.30, 0.10],
    [0.10, 0.60, 0.30],
    [0.30, 0.10, 0.60],
    [0.80, 0.10, 0.10],
];

/// Short label of one mix row.
#[must_use]
pub fn mix_label(mix: usize) -> String {
    match mix {
        0 => "int".to_owned(),
        1 => "hp".to_owned(),
        2 => "hist".to_owned(),
        m => {
            let [a, b, c] = MIXES[m];
            format!("{a:.2}i/{b:.2}p/{c:.2}h")
        }
    }
}

/// One grid coordinate.
#[derive(Debug, Clone, Copy)]
pub struct GridPoint {
    /// Core voltage.
    pub vdd: Volts,
    /// Fraction of `fmax(vdd)` this point clocks at.
    pub freq_frac: f64,
    /// Operating frequency.
    pub freq: Hertz,
    /// Active cores.
    pub cores: usize,
    /// Index into [`MIXES`].
    pub mix: usize,
}

impl GridPoint {
    /// Point label used for journal holes and diagnostics.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{:.2}V x{:.1} c{} {}",
            self.vdd.0,
            self.freq_frac,
            self.cores,
            mix_label(self.mix)
        )
    }
}

/// One evaluated design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Chip power (VDD + VCS rails), W.
    pub power_w: f64,
    /// Energy per instruction, nJ.
    pub nj_per_inst: f64,
    /// Settled junction temperature, °C.
    pub junction_c: f64,
}

impl JournalPayload for DesignPoint {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("p", Value::Float(self.power_w))
            .field("e", Value::Float(self.nj_per_inst))
            .field("t", Value::Float(self.junction_c))
            .build()
    }

    fn from_value(v: &Value) -> Result<Self, PitonError> {
        let f = |key: &str| -> Result<f64, PitonError> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| PitonError::codec(format!("design point missing '{key}'")))
        };
        Ok(Self {
            power_w: f("p")?,
            nj_per_inst: f("e")?,
            junction_c: f("t")?,
        })
    }
}

/// The full 105,000-point grid, in deterministic row-major order
/// (voltage, then frequency fraction, then cores, then mix).
#[must_use]
pub fn grid() -> Vec<GridPoint> {
    let tech = TechModel::ibm32soi();
    let mut points = Vec::with_capacity(GRID_POINTS);
    for vi in 0..VDD_STEPS {
        let vdd = Volts(0.80 + 0.02 * vi as f64);
        let fmax = tech.fmax(vdd);
        for fi in 0..FREQ_STEPS {
            let freq_frac = 0.1 * (fi + 1) as f64;
            let freq = Hertz(fmax.0 * freq_frac);
            for cores in 1..=CORE_STEPS {
                for mix in 0..MIX_STEPS {
                    points.push(GridPoint {
                        vdd,
                        freq_frac,
                        freq,
                        cores,
                        mix,
                    });
                }
            }
        }
    }
    points
}

/// The design-space sweep outcome.
#[derive(Debug, Clone)]
pub struct DesignSpaceResult {
    /// The grid, parallel to `points`.
    pub grid: Vec<GridPoint>,
    /// One entry per grid point (`None` where a fault plan holed it).
    pub points: Vec<Option<DesignPoint>>,
    /// Failed grid points.
    pub holes: Vec<Hole>,
}

/// The probes the sweep reads: every microbenchmark at 1 T/C on each
/// core-count knot.
#[must_use]
pub fn probe_specs() -> Vec<ProbeKind> {
    Microbenchmark::ALL
        .into_iter()
        .flat_map(|bench| {
            MICRO_KNOTS
                .iter()
                .map(move |&cores| ProbeKind::Micro(bench, ThreadsPerCore::One, cores))
        })
        .collect()
}

/// One (mix, cores) entry of [`mix_table`].
#[derive(Debug, Clone, Copy)]
pub struct MixRow {
    /// Nominal dynamic pJ/cycle per rail over the measurement window.
    pub nominal_pj: (f64, f64, f64),
    /// Nominal dynamic pJ/cycle per rail over the warm-up window, which
    /// settles the junction.
    pub warm_pj: (f64, f64, f64),
    /// Instructions per cycle over the measurement window.
    pub ipc: f64,
}

/// Per-(mix, cores) precomputation. The 500 combinations cover the
/// whole grid, so the 105,000-point sweep never re-derives a rate
/// profile. Build it once per calibration and share it across
/// [`compute_point`] calls.
#[must_use]
pub fn mix_table(cal: &Calibrated) -> Vec<MixRow> {
    let benches = Microbenchmark::ALL;
    let mut table = Vec::with_capacity(MIX_STEPS * CORE_STEPS);
    for mix in MIXES.iter().take(MIX_STEPS) {
        for cores in 1..=CORE_STEPS {
            let mut warm = Features::zero();
            let mut rates = Features::zero();
            for (w, bench) in mix.iter().zip(benches) {
                if *w > 0.0 {
                    let tpc = ThreadsPerCore::One;
                    warm.add_scaled(&cal.micro_warm_rates_at(bench, tpc, cores as f64), *w);
                    rates.add_scaled(&cal.micro_rates_at(bench, tpc, cores as f64), *w);
                }
            }
            table.push(MixRow {
                nominal_pj: cal.model.dynamic_nominal_pj(&rates),
                warm_pj: cal.model.dynamic_nominal_pj(&warm),
                ipc: rates.issue_rate(),
            });
        }
    }
    table
}

/// Evaluates one grid point against a precomputed mix row: the dynamic
/// rail powers are junction-independent, so the warm-up fixed point
/// only iterates the leakage term.
fn evaluate(cal: &Calibrated, row: MixRow, p: GridPoint) -> DesignPoint {
    let corner = NamedChip::Chip3.corner();
    let op0 = OperatingPoint::table_iii()
        .with_vdd_tracked(p.vdd)
        .with_freq(p.freq)
        .with_junction(ROOM_AMBIENT_C);
    let law = cal.model.law();
    let dynamic = |pj_per_cycle| law.dynamic_power(pj_per_cycle, p.freq.period(), op0, corner);
    let leak = |t| law.static_power_at(op0.with_junction(t), corner);
    let warm_w = dynamic(row.warm_pj).total_with_io();
    let junction_c = ThermalModel::new(Cooling::HeatsinkFan, ROOM_AMBIENT_C)
        .settle_warm_junction(|t| warm_w + leak(t).total_with_io());
    let power_w = (dynamic(row.nominal_pj).total() + leak(junction_c).total()).0;
    let nj_per_inst = power_w / (row.ipc * p.freq.0) * 1e9;
    DesignPoint {
        power_w,
        nj_per_inst,
        junction_c,
    }
}

/// Computes one design-space grid point exactly as the [`run`] sweep
/// does — same mix-table lookup, same sabotage gate — so a result
/// computed here is bit-identical to one journaled by a full run under
/// the same context. `table` must come from [`mix_table`] for the same
/// calibration.
///
/// # Errors
///
/// Propagates injected sabotage failures from the fault plan.
pub fn compute_point(
    cal: &Calibrated,
    table: &[MixRow],
    index: usize,
    p: GridPoint,
    plan: Option<&FaultPlan>,
    attempt: u32,
) -> Result<DesignPoint, PitonError> {
    if let Some(plan) = plan {
        fault::sabotage_gate(plan, "design_space", index, attempt)?;
    }
    Ok(evaluate(
        cal,
        table[(p.mix * CORE_STEPS) + (p.cores - 1)],
        p,
    ))
}

/// Runs the mega-sweep with the analytic backend under an optional
/// fault plan, serving and recording points through an optional result
/// journal.
#[must_use]
pub fn run(
    cal: &Calibrated,
    fidelity: Fidelity,
    plan: Option<&FaultPlan>,
    journal: Option<&Mutex<Journal>>,
) -> DesignSpaceResult {
    let grid = grid();
    let table = mix_table(cal);
    let out = runner::try_sweep_journaled(
        fidelity.jobs,
        grid.iter().copied().enumerate().collect(),
        "design_space",
        plan,
        journal,
        |index, &p, attempt| compute_point(cal, &table, index, p, plan, attempt),
    );
    let holes = grid
        .iter()
        .zip(&out)
        .filter_map(|(p, r)| {
            r.as_ref()
                .err()
                .map(|e| Hole::from_point("design_space", p.label(), e))
        })
        .collect();
    DesignSpaceResult {
        grid,
        points: out.into_iter().map(Result::ok).collect(),
        holes,
    }
}

/// Sub-sampling stride of the rendered (and golden-snapshotted) table.
/// Coprime to every grid axis, so the sample walks all four axes.
pub const RENDER_STRIDE: usize = 4001;

impl DesignSpaceResult {
    /// Number of successfully evaluated points.
    #[must_use]
    pub fn evaluated(&self) -> usize {
        self.points.iter().flatten().count()
    }

    /// The most efficient evaluated point (min nJ/instruction).
    #[must_use]
    pub fn best_efficiency(&self) -> Option<(&GridPoint, &DesignPoint)> {
        self.grid
            .iter()
            .zip(&self.points)
            .filter_map(|(g, p)| p.as_ref().map(|p| (g, p)))
            .min_by(|a, b| a.1.nj_per_inst.total_cmp(&b.1.nj_per_inst))
    }

    /// Renders the deterministic sub-sample plus summary lines.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::new(&format!(
            "Design space: {} of {} points (analytic backend), stride-{RENDER_STRIDE} sample",
            self.evaluated(),
            self.grid.len()
        ));
        t.header([
            "Index",
            "VDD (V)",
            "f (MHz)",
            "Cores",
            "Mix",
            "Power (W)",
            "nJ/inst",
            "Tj (degC)",
        ]);
        for i in (0..self.grid.len()).step_by(RENDER_STRIDE) {
            let g = &self.grid[i];
            match &self.points[i] {
                Some(p) => t.row([
                    i.to_string(),
                    format!("{:.2}", g.vdd.0),
                    format!("{:.1}", g.freq.as_mhz()),
                    g.cores.to_string(),
                    mix_label(g.mix),
                    format!("{ANALYTIC_MARK}{:.3}", p.power_w),
                    format!("{ANALYTIC_MARK}{:.3}", p.nj_per_inst),
                    format!("{ANALYTIC_MARK}{:.1}", p.junction_c),
                ]),
                None => t.row([
                    i.to_string(),
                    format!("{:.2}", g.vdd.0),
                    format!("{:.1}", g.freq.as_mhz()),
                    g.cores.to_string(),
                    mix_label(g.mix),
                    HOLE_MARK.to_owned(),
                    HOLE_MARK.to_owned(),
                    HOLE_MARK.to_owned(),
                ]),
            };
        }
        let best = match self.best_efficiency() {
            Some((g, p)) => format!(
                "best efficiency: {} at {:.3} nJ/inst ({:.3} W, Tj {:.1} degC)",
                g.label(),
                p.nj_per_inst,
                p.power_w,
                p.junction_c
            ),
            None => "best efficiency: no points evaluated".to_owned(),
        };
        format!("{}\n{best}\n", t.render())
    }
}

/// Spot-checks the analytic grid against the cycle engine on the 27
/// pure-workload corners (3 benchmarks × cores {1, 13, 25} × VDD
/// {0.8, 1.0, 1.2} at full frequency).
#[must_use]
pub fn cycle_oracle(cal: &Calibrated, fidelity: Fidelity) -> FigureComparison {
    let tech = TechModel::ibm32soi();
    let sample: Vec<(usize, usize, f64)> = (0..3)
        .flat_map(|mix| {
            [1usize, 13, 25].into_iter().flat_map(move |cores| {
                [0.8, 1.0, 1.2]
                    .into_iter()
                    .map(move |vdd| (mix, cores, vdd))
            })
        })
        .collect();
    let table = mix_table(cal);
    let compared = runner::sweep(fidelity.jobs, sample, |_, (mix, cores, vdd)| {
        let freq = tech.fmax(Volts(vdd));
        let rig = Rig::chip(NamedChip::Chip3).at(Volts(vdd), freq);
        let work = ProbeKind::Micro(Microbenchmark::ALL[mix], ThreadsPerCore::One, cores);
        let cycle_w = CycleBench
            .measure(&rig, work, fidelity, None)
            .expect("fault-free window")
            .total
            .mean
            .0;
        let p = GridPoint {
            vdd: Volts(vdd),
            freq_frac: 1.0,
            freq,
            cores,
            mix,
        };
        let analytic = evaluate(cal, table[(mix * CORE_STEPS) + (cores - 1)], p);
        (p.label(), cycle_w, analytic.power_w)
    });
    FigureComparison::from_points(
        "design_space",
        compared
            .into_iter()
            .map(|(label, cycle, analytic)| (label, cycle, analytic, 0.005)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_the_advertised_shape() {
        let g = grid();
        assert_eq!(g.len(), 105_000);
        assert_eq!(g.len(), GRID_POINTS);
        // Row-major order: the mix axis varies fastest.
        assert_eq!(g[0].mix, 0);
        assert_eq!(g[1].mix, 1);
        assert_eq!(g[MIX_STEPS].cores, 2);
        // Every mix row is a convex combination.
        for row in MIXES {
            assert!(row.iter().all(|w| *w >= 0.0));
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn design_point_round_trips_through_journal_payload() {
        let p = DesignPoint {
            power_w: 3.25,
            nj_per_inst: 1.75,
            junction_c: 47.5,
        };
        let v = p.to_value();
        assert_eq!(DesignPoint::from_value(&v).unwrap(), p);
    }
}

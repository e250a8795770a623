//! Figure 9 — maximum Linux-boot frequency versus VDD for three chips.
//!
//! Sweeps VDD from 0.8 V to 1.2 V (VCS tracking +0.05 V) for the three
//! named dies, solving the timing/IR-drop/thermal fixed point per
//! point. Chip #1 (fast, leaky) must be the fastest at low voltage and
//! thermally limited at 1.2 V; the PLL-quantization error bars come out
//! of the solver.

use piton_arch::error::PitonError;
use piton_arch::units::{Hertz, Volts};
use piton_board::population::NamedChip;
use piton_power::model::PowerModel;
use piton_power::thermal::ROOM_AMBIENT_C;
use piton_power::vf::{VfPoint, VfSolver};
use piton_power::{Calibration, TechModel};

use super::{grouped, whole, At, Env, Fidelity, Measured, Rendered, Runs, Section};
use crate::bench::CycleBench;
use crate::report::Table;

/// One chip's sweep.
#[derive(Debug, Clone)]
pub struct ChipSweep {
    /// Which die.
    pub chip: NamedChip,
    /// Sweep points, 0.8 V to 1.2 V.
    pub points: Vec<VfPoint>,
}

/// The Figure 9 reproduction.
#[derive(Debug, Clone)]
pub struct VfSweepResult {
    /// Per-chip sweeps.
    pub chips: Vec<ChipSweep>,
}

/// Paper anchor: Chip #2's (VDD, MHz) pairs from the Figure 10 x-axis
/// labels.
#[must_use]
pub fn paper_reference() -> Vec<(f64, f64)> {
    vec![
        (0.80, 285.74),
        (0.85, 360.04),
        (0.90, 414.33),
        (0.95, 461.59),
        (1.00, 514.33),
        (1.05, 562.55),
        (1.10, 600.06),
        (1.15, 621.49),
        (1.20, 562.55), // thermally limited minimum across chips
    ]
}

/// The swept dies.
const CHIPS: [NamedChip; 3] = [NamedChip::Chip1, NamedChip::Chip2, NamedChip::Chip3];

/// Figure 9: one point per (chip, VDD step), solved on its own.
#[derive(Debug, Clone, Copy)]
pub struct Vf;

impl Section for Vf {
    type Point = (NamedChip, Volts);
    type Inputs = ();
    /// Frequency, next PLL step (Hz), thermally limited, junction °C.
    type Payload = (f64, f64, bool, f64);
    type Output = VfSweepResult;
    const NAME: &'static str = "vf";
    const TITLE: &'static str = "Figure 9 — voltage versus frequency";
    const RUNS: Runs = Runs::Always;

    fn grid(&self, _: Fidelity) -> Vec<Self::Point> {
        CHIPS
            .into_iter()
            .flat_map(|chip| (0..=8).map(move |i| (chip, Volts(0.8 + 0.05 * f64::from(i)))))
            .collect()
    }

    fn prepare(&self, _: &Env) -> Result<(), PitonError> {
        Ok(())
    }

    fn compute(&self, at: &At<Self>) -> Result<Self::Payload, PitonError> {
        let &(chip, vdd) = at.point;
        let model = PowerModel::new(
            Calibration::piton_hpca18(),
            TechModel::ibm32soi(),
            chip.corner(),
        );
        let p = VfSolver::new(model, ROOM_AMBIENT_C).max_frequency(vdd);
        Ok((p.freq.0, p.next_step.0, p.thermally_limited, p.junction_c))
    }

    fn assemble(&self, _: &Env, (): &(), points: Vec<Measured<'_, Self>>) -> VfSweepResult {
        let points = points.into_iter().map(|(_, &(chip, vdd), r)| {
            let (freq, next, thermally_limited, junction_c) = whole(r);
            let p = VfPoint {
                vdd,
                freq: Hertz(freq),
                next_step: Hertz(next),
                thermally_limited,
                junction_c,
            };
            (chip, p)
        });
        let chips = grouped(points)
            .into_iter()
            .map(|(chip, points)| ChipSweep { chip, points })
            .collect();
        VfSweepResult { chips }
    }

    fn render(&self, out: &VfSweepResult) -> Rendered {
        Rendered::body(out.render())
    }
}

/// Runs the three-chip sweep serially.
#[must_use]
pub fn run() -> VfSweepResult {
    run_with_jobs(1)
}

/// Runs the three-chip sweep on up to `jobs` workers (each point's
/// solver is independent).
#[must_use]
pub fn run_with_jobs(jobs: usize) -> VfSweepResult {
    let fidelity = Fidelity::quick().with_jobs(jobs);
    super::run(Vf, &Env::new(&CycleBench, fidelity, None), None)
}

impl VfSweepResult {
    /// The sweep of one chip.
    #[must_use]
    pub fn chip(&self, chip: NamedChip) -> &ChipSweep {
        self.chips
            .iter()
            .find(|c| c.chip == chip)
            .expect("all three chips are swept")
    }

    /// Minimum across chips of the maximum frequency at one sweep index
    /// (the operating points Figure 10 uses).
    #[must_use]
    pub fn min_fmax_mhz(&self, index: usize) -> f64 {
        self.chips
            .iter()
            .map(|c| c.points[index].freq.as_mhz())
            .fold(f64::MAX, f64::min)
    }

    /// Renders the Figure 9 series.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::new("Figure 9: max frequency at which Linux boots vs VDD");
        t.header([
            "VDD (V)",
            "Chip #1 (MHz)",
            "Chip #2 (MHz)",
            "Chip #3 (MHz)",
            "Chip #1 limit",
        ]);
        for i in 0..self.chips[0].points.len() {
            let p1 = &self.chip(NamedChip::Chip1).points[i];
            let p2 = &self.chip(NamedChip::Chip2).points[i];
            let p3 = &self.chip(NamedChip::Chip3).points[i];
            t.row([
                format!("{:.2}", p1.vdd.0),
                format!("{:.1}", p1.freq.as_mhz()),
                format!("{:.1}", p2.freq.as_mhz()),
                format!("{:.1}", p3.freq.as_mhz()),
                if p1.thermally_limited {
                    "thermal".to_owned()
                } else {
                    "timing".to_owned()
                },
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_sweep_points_per_chip() {
        let r = run();
        assert_eq!(r.chips.len(), 3);
        for c in &r.chips {
            assert_eq!(c.points.len(), 9);
            assert!((c.points[0].vdd.0 - 0.8).abs() < 1e-12);
            assert!((c.points[8].vdd.0 - 1.2).abs() < 1e-12);
        }
    }

    #[test]
    fn chip1_fastest_cold_then_thermally_limited() {
        let r = run();
        let c1 = r.chip(NamedChip::Chip1);
        let c2 = r.chip(NamedChip::Chip2);
        // Fastest at 0.8 V ("at lower voltages it actually has the
        // highest maximum frequency of the three chips").
        assert!(c1.points[0].freq.0 > c2.points[0].freq.0);
        // Thermally limited at 1.2 V with a severe drop below its peak.
        let last = c1.points.last().unwrap();
        assert!(last.thermally_limited);
        let peak = c1.points.iter().map(|p| p.freq.0).fold(0.0, f64::max);
        assert!(last.freq.0 < 0.97 * peak);
    }

    #[test]
    fn typical_chip_tracks_paper_curve_within_15_percent() {
        let r = run();
        let c2 = r.chip(NamedChip::Chip2);
        for (point, (v, paper_mhz)) in c2.points.iter().zip(paper_reference()) {
            if (v - 1.2).abs() < 1e-9 {
                continue; // the paper's 1.2 V row is Chip #1's throttle
            }
            assert!((point.vdd.0 - v).abs() < 1e-9);
            let measured = point.freq.as_mhz();
            let dev = (measured - paper_mhz).abs() / paper_mhz;
            assert!(
                dev < 0.15,
                "at {v} V: measured {measured:.1} MHz vs paper {paper_mhz} ({:.0}%)",
                dev * 100.0
            );
        }
    }

    #[test]
    fn quantization_error_bars_are_present() {
        let r = run();
        for p in &r.chip(NamedChip::Chip2).points {
            assert!(p.next_step.0 > p.freq.0);
            let step = p.next_step.0 / p.freq.0;
            assert!((1.0..1.1).contains(&step));
        }
    }

    #[test]
    fn render_has_all_voltages() {
        let s = run().render();
        assert!(s.contains("0.80"));
        assert!(s.contains("1.20"));
        assert!(s.contains("thermal"));
    }
}

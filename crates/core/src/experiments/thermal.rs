//! Figures 17 & 18 — thermal characterization (§IV-J).
//!
//! Both experiments follow the paper's setup: heat sink removed (bare
//! package with an adjustable fan), core clock reduced to 100.01 MHz,
//! VDD/VCS at 0.9 V/0.95 V, on a fourth chip not used elsewhere.
//!
//! * **Figure 17** — chip power versus package temperature for 0–50
//!   active HP threads; temperature is swept by changing the fan angle
//!   and the power↔temperature fixed point is solved per point,
//!   revealing the exponential leakage dependence.
//! * **Figure 18** — the two-phase application on all 50 threads under
//!   synchronized and interleaved scheduling; power and surface
//!   temperature are logged over time, exposing the hysteresis loop and
//!   the lower average temperature of the balanced schedule.

use piton_arch::error::PitonError;
use piton_arch::units::Watts;
use piton_power::thermal::{Cooling, ThermalModel, ThermalStep, EQUILIBRIUM_CAP_C, ROOM_AMBIENT_C};
use piton_workloads::thermal_app::{load_two_phase, Schedule};

use super::{whole, At, Env, Fidelity, Measured, Rendered, Runs, Section};
use crate::analytic::compare::{self, FigureComparison};
use crate::bench::{Bench, CycleBench, ProbeKind, Rig};
use crate::report::Table;

/// The §IV-J cooling: heat sink removed, the fan at `effectiveness` on
/// the bare package, in a room-temperature lab.
pub(crate) fn bare_package_rig(effectiveness: f64) -> ThermalModel {
    ThermalModel::new(Cooling::BarePackageFan { effectiveness }, ROOM_AMBIENT_C)
}

/// Active HP threads of the Figure 17 series.
pub const FIG17_THREADS: [usize; 6] = [0, 10, 20, 30, 40, 50];

/// The thermal-study rig of one Figure 17 series (each series has its
/// own monitor seed).
#[must_use]
pub fn fig17_rig(threads: usize) -> Rig {
    let i = FIG17_THREADS
        .iter()
        .position(|&t| t == threads)
        .expect("thread count from FIG17_THREADS");
    Rig::thermal_study(0x17 + i as u64)
}

/// One Figure 17 point.
#[derive(Debug, Clone, Copy)]
pub struct ThermalPoint {
    /// Active threads.
    pub threads: usize,
    /// Fan effectiveness of this sweep step.
    pub fan_effectiveness: f64,
    /// Package surface temperature (what the FLIR camera images).
    pub surface_c: f64,
    /// Chip power at the equilibrium.
    pub power: Watts,
}

/// The Figure 17 dataset.
#[derive(Debug, Clone)]
pub struct ThermalPowerResult {
    /// Points grouped by thread count, each swept over fan angles.
    pub points: Vec<ThermalPoint>,
}

/// Fan effectiveness steps of every Figure 17 series.
const FAN_STEPS: [f64; 6] = [1.0, 0.8, 0.6, 0.4, 0.2, 0.0];

/// Figure 17: one point per active-thread count, its `(surface °C,
/// power)` equilibrium at each fan step.
#[derive(Debug, Clone, Copy)]
pub struct ThermalPower;

impl Section for ThermalPower {
    type Point = usize;
    type Inputs = ();
    type Payload = Vec<(f64, Watts)>;
    type Output = ThermalPowerResult;
    const NAME: &'static str = "thermal";
    const TITLE: &'static str = "Figure 17 — power versus temperature";
    const RUNS: Runs = Runs::Bench;

    fn grid(&self, _: Fidelity) -> Vec<usize> {
        FIG17_THREADS.to_vec()
    }

    fn prepare(&self, _: &Env) -> Result<(), PitonError> {
        Ok(())
    }

    /// Captures the workload's activity once (it does not depend on
    /// temperature), then solves the fixed point per fan angle.
    fn compute(&self, at: &At<Self>) -> Result<Self::Payload, PitonError> {
        let env = at.env;
        let &threads = at.point;
        let power_at =
            env.bench
                .window(&fig17_rig(threads), ProbeKind::Fig17(threads), env.fidelity);
        Ok(FAN_STEPS
            .iter()
            .map(|&eff| {
                let (junction, power) =
                    bare_package_rig(eff).equilibrium(&power_at, EQUILIBRIUM_CAP_C);
                // Surface = junction − P × R_js.
                let surface = junction - power.0 * Cooling::HeatsinkFan.r_junction_surface();
                (surface, power)
            })
            .collect())
    }

    fn assemble(&self, _: &Env, (): &(), points: Vec<Measured<'_, Self>>) -> ThermalPowerResult {
        let points = points
            .into_iter()
            .flat_map(|(_, &threads, r)| {
                FAN_STEPS.into_iter().zip(whole(r)).map(
                    move |(fan_effectiveness, (surface_c, power))| ThermalPoint {
                        threads,
                        fan_effectiveness,
                        surface_c,
                        power,
                    },
                )
            })
            .collect();
        ThermalPowerResult { points }
    }

    fn render(&self, out: &ThermalPowerResult) -> Rendered {
        Rendered::body(out.render())
    }

    fn compare(
        &self,
        cycle: Option<&ThermalPowerResult>,
        analytic: &ThermalPowerResult,
        _: &Env,
    ) -> Vec<FigureComparison> {
        cycle
            .map(|c| compare::compare_thermal(c, analytic))
            .into_iter()
            .collect()
    }
}

/// Runs the Figure 17 sweep on `bench`: thread counts × fan
/// effectiveness.
#[must_use]
pub fn run_thermal_power(bench: &dyn Bench, fidelity: Fidelity) -> ThermalPowerResult {
    super::run(ThermalPower, &Env::new(bench, fidelity, None), None)
}

impl ThermalPowerResult {
    /// Points for one thread count, ordered by fan step.
    #[must_use]
    pub fn for_threads(&self, threads: usize) -> Vec<&ThermalPoint> {
        self.points
            .iter()
            .filter(|p| p.threads == threads)
            .collect()
    }

    /// Renders the Figure 17 series.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Figure 17: chip power vs package temperature (0.9 V, 100.01 MHz, no heat sink)",
        );
        t.header(["Threads", "Fan", "Surface (°C)", "Power (mW)"]);
        for p in &self.points {
            t.row([
                p.threads.to_string(),
                format!("{:.1}", p.fan_effectiveness),
                format!("{:.1}", p.surface_c),
                format!("{:.1}", p.power.as_mw()),
            ]);
        }
        t.render()
    }
}

/// One logged instant of the Figure 18 run.
#[derive(Debug, Clone, Copy)]
pub struct SchedulingSample {
    /// Seconds since the run started.
    pub time_s: f64,
    /// Chip power.
    pub power: Watts,
    /// Package surface temperature.
    pub surface_c: f64,
}

/// One schedule's trace.
#[derive(Debug, Clone)]
pub struct ScheduleTrace {
    /// Which schedule.
    pub schedule: Schedule,
    /// The time series.
    pub samples: Vec<SchedulingSample>,
}

impl ScheduleTrace {
    /// Peak-to-peak power swing.
    #[must_use]
    pub fn power_swing(&self) -> Watts {
        let max = self
            .samples
            .iter()
            .map(|s| s.power.0)
            .fold(f64::MIN, f64::max);
        let min = self
            .samples
            .iter()
            .map(|s| s.power.0)
            .fold(f64::MAX, f64::min);
        Watts(max - min)
    }

    /// Mean surface temperature.
    #[must_use]
    pub fn mean_temperature_c(&self) -> f64 {
        self.samples.iter().map(|s| s.surface_c).sum::<f64>() / self.samples.len() as f64
    }

    /// Area of the power/temperature hysteresis loop (shoelace formula
    /// over the trajectory; larger loops mean stronger feedback lag).
    #[must_use]
    pub fn hysteresis_area(&self) -> f64 {
        let pts: Vec<(f64, f64)> = self
            .samples
            .iter()
            .map(|s| (s.surface_c, s.power.0))
            .collect();
        let mut area = 0.0;
        for i in 0..pts.len() {
            let (x1, y1) = pts[i];
            let (x2, y2) = pts[(i + 1) % pts.len()];
            area += x1 * y2 - x2 * y1;
        }
        (area / 2.0).abs()
    }
}

/// The Figure 18 dataset.
#[derive(Debug, Clone)]
pub struct SchedulingResult {
    /// Synchronized and interleaved traces.
    pub traces: Vec<ScheduleTrace>,
}

/// Figure 18: one point per schedule, its whole trace; the sample
/// count is set by the fidelity, one second apart.
#[derive(Debug, Clone, Copy)]
pub struct Scheduling;

/// Figure 18 samples at `fidelity` (the closed-loop study uses the same).
pub(crate) fn fig18_samples(fidelity: Fidelity) -> usize {
    if fidelity.is_reduced() {
        64
    } else {
        180
    }
}

impl Section for Scheduling {
    /// Schedule, samples and seconds per sample.
    type Point = (Schedule, usize, f64);
    type Inputs = ();
    /// `(seconds, power, surface °C)` per sample.
    type Payload = Vec<(f64, Watts, f64)>;
    type Output = SchedulingResult;
    const NAME: &'static str = "hysteresis";
    const TITLE: &'static str = "Figure 18 — scheduling and thermal hysteresis";
    const RUNS: Runs = Runs::Cycle;

    fn grid(&self, fidelity: Fidelity) -> Vec<Self::Point> {
        let n = fig18_samples(fidelity);
        vec![
            (Schedule::Synchronized, n, 1.0),
            (Schedule::Interleaved, n, 1.0),
        ]
    }

    fn prepare(&self, _: &Env) -> Result<(), PitonError> {
        Ok(())
    }

    fn compute(&self, at: &At<Self>) -> Result<Self::Payload, PitonError> {
        let &(schedule, samples, dt_seconds) = at.point;
        let fidelity = at.env.fidelity;
        let mut sys = Rig::thermal_study(0x18).system();
        sys.set_chunk_cycles(fidelity.chunk_cycles);
        *sys.thermal_mut() = bare_package_rig(0.5);
        // Phase length ≈ four sampling chunks so phases span
        // multiple thermal steps.
        let phase_iters = (fidelity.chunk_cycles / 4).max(200) as u32;
        load_two_phase(sys.machine_mut(), schedule, phase_iters);
        sys.warm_up(fidelity.warmup_cycles / 4);

        // The same fixed-timestep integrator the governor loop and
        // the thermal-camera example use — one RC code path.
        let stepper = ThermalStep::new(dt_seconds);
        let mut out = Vec::with_capacity(samples);
        for k in 0..samples {
            let before = sys.machine().counters().clone();
            sys.machine_mut().run(fidelity.chunk_cycles);
            let delta = sys.machine().counters().delta_since(&before);
            let p = sys
                .power_model()
                .power(&delta, sys.operating_point())
                .total();
            stepper.advance(sys.thermal_mut(), p);
            out.push((k as f64 * dt_seconds, p, sys.thermal().surface_c()));
        }
        Ok(out)
    }

    fn assemble(&self, _: &Env, (): &(), points: Vec<Measured<'_, Self>>) -> SchedulingResult {
        let traces = points
            .into_iter()
            .map(|(_, &(schedule, _, _), r)| ScheduleTrace {
                schedule,
                samples: whole(r)
                    .into_iter()
                    .map(|(time_s, power, surface_c)| SchedulingSample {
                        time_s,
                        power,
                        surface_c,
                    })
                    .collect(),
            })
            .collect();
        SchedulingResult { traces }
    }

    fn render(&self, out: &SchedulingResult) -> Rendered {
        Rendered::body(out.render())
    }
}

/// Runs the Figure 18 study: the two-phase app on all 50 threads under
/// both schedules, logging power and temperature over `samples` steps
/// of `dt_seconds` each.
#[must_use]
pub fn run_scheduling(samples: usize, dt_seconds: f64, fidelity: Fidelity) -> SchedulingResult {
    let grid = [Schedule::Synchronized, Schedule::Interleaved].map(|s| (s, samples, dt_seconds));
    let env = Env::new(&CycleBench, fidelity, None);
    super::run_points(Scheduling, &env, None, &grid, None)
}

impl SchedulingResult {
    /// A trace by schedule.
    #[must_use]
    pub fn trace(&self, schedule: Schedule) -> &ScheduleTrace {
        self.traces
            .iter()
            .find(|t| t.schedule == schedule)
            .expect("both schedules present")
    }

    /// Renders the Figure 18 digest.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::new("Figure 18: synchronized vs interleaved scheduling");
        t.header([
            "Schedule",
            "Power swing (mW)",
            "Mean surface (°C)",
            "Hysteresis area (mW·°C)",
        ]);
        for tr in &self.traces {
            t.row([
                tr.schedule.label().to_owned(),
                format!("{:.1}", tr.power_swing().as_mw()),
                format!("{:.2}", tr.mean_temperature_c()),
                format!("{:.2}", tr.hysteresis_area() * 1e3),
            ]);
        }
        let sync = self.trace(Schedule::Synchronized).mean_temperature_c();
        let inter = self.trace(Schedule::Interleaved).mean_temperature_c();
        let mut out = t.render();
        out.push_str(&format!(
            "\nInterleaved average temperature is {:.2} °C lower (paper: 0.22 °C lower)\n",
            sync - inter
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::CycleBench;

    #[test]
    fn power_rises_exponentially_with_temperature() {
        let r = run_thermal_power(&CycleBench, Fidelity::quick());
        // For the 50-thread series, power at the hottest point must
        // exceed the coolest by a leakage-driven margin, convex upward.
        let pts = r.for_threads(50);
        assert_eq!(pts.len(), 6);
        let coolest = pts.first().unwrap();
        let hottest = pts.last().unwrap();
        assert!(hottest.surface_c > coolest.surface_c + 5.0);
        assert!(
            hottest.power.0 > 1.15 * coolest.power.0,
            "no leakage growth: {} -> {}",
            coolest.power.0,
            hottest.power.0
        );
    }

    #[test]
    fn temperatures_span_the_figure_17_band() {
        let r = run_thermal_power(&CycleBench, Fidelity::quick());
        let all_temps: Vec<f64> = r.points.iter().map(|p| p.surface_c).collect();
        let min = all_temps.iter().copied().fold(f64::MAX, f64::min);
        let max = all_temps.iter().copied().fold(f64::MIN, f64::max);
        // Paper band: 36–56 °C.
        assert!((25.0..=45.0).contains(&min), "min {min}");
        assert!((40.0..=75.0).contains(&max), "max {max}");
    }

    #[test]
    fn more_threads_more_power() {
        let r = run_thermal_power(&CycleBench, Fidelity::quick());
        let at = |threads: usize| r.for_threads(threads)[0].power.0;
        assert!(at(50) > at(20));
        assert!(at(20) > at(0));
    }

    #[test]
    fn synchronized_swings_harder_than_interleaved() {
        let r = run_scheduling(48, 1.0, Fidelity::quick());
        let sync = r.trace(Schedule::Synchronized);
        let inter = r.trace(Schedule::Interleaved);
        assert!(
            sync.power_swing().0 > 1.5 * inter.power_swing().0,
            "sync {} vs inter {}",
            sync.power_swing().0,
            inter.power_swing().0
        );
    }

    #[test]
    fn interleaved_runs_cooler_and_with_less_hysteresis() {
        let r = run_scheduling(48, 1.0, Fidelity::quick());
        let sync = r.trace(Schedule::Synchronized);
        let inter = r.trace(Schedule::Interleaved);
        assert!(
            inter.mean_temperature_c() <= sync.mean_temperature_c() + 0.02,
            "interleaved {} vs synchronized {}",
            inter.mean_temperature_c(),
            sync.mean_temperature_c()
        );
        assert!(
            inter.hysteresis_area() < sync.hysteresis_area(),
            "hysteresis: inter {} vs sync {}",
            inter.hysteresis_area(),
            sync.hysteresis_area()
        );
    }

    #[test]
    fn renders_mention_both_figures() {
        assert!(run_thermal_power(&CycleBench, Fidelity::quick())
            .render()
            .contains("Figure 17"));
        let s = run_scheduling(16, 1.0, Fidelity::quick()).render();
        assert!(s.contains("Figure 18"));
        assert!(s.contains("Interleaved"));
    }
}

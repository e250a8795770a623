//! Figures 9 & 18, closed-loop — the DVFS/thermal governor family.
//!
//! The open-loop experiments replay the paper's curves from solved
//! fixed points; this family regenerates two of them from the actual
//! feedback loop ([`piton_board::system::PitonSystem::run_governed`])
//! plus one study the paper never ran:
//!
//! * **Throttle boundary** (Figure 9, closed loop) — per chip and VDD,
//!   boot at the cold-die analog capability and let `ThrottleOnBoot`
//!   walk the PLL ladder until the junction holds; which points end up
//!   thermal- versus capability-limited must agree with the open-loop
//!   classification.
//! * **Hysteresis** (Figure 18, closed loop) — the two-phase
//!   application under synchronized and interleaved scheduling with the
//!   governor in the loop; the interleaved schedule must still run
//!   cooler.
//! * **Energy frontier** (no paper analogue) — the three policies race
//!   a finite workload to completion per chip; `EnergyFrontier`
//!   searches the V/F grid for minimum energy per cycle.

use piton_arch::config::ChipConfig;
use piton_arch::units::{Joules, Seconds, Volts};
use piton_board::population::NamedChip;
use piton_board::system::PitonSystem;
use piton_power::governor::{Governor, GovernorConfig};
use piton_power::model::PowerModel;
use piton_power::thermal::ROOM_AMBIENT_C;
use piton_power::vf::VfSolver;
use piton_power::{Calibration, TechModel};
use piton_workloads::micro::{load_microbenchmark, Microbenchmark, RunLength, ThreadsPerCore};
use piton_workloads::thermal_app::{load_two_phase, Schedule};

use super::thermal::{bare_package_rig, ScheduleTrace, SchedulingSample};
use super::Fidelity;
use crate::bench::Rig;
use crate::report::Table;
use crate::runner;

/// Human name of a reference die, Figure 9 style.
fn chip_label(chip: NamedChip) -> &'static str {
    match chip {
        NamedChip::Chip1 => "Chip #1",
        NamedChip::Chip2 => "Chip #2",
        NamedChip::Chip3 => "Chip #3",
    }
}

/// The capability solver for one die corner.
fn solver_for(chip: NamedChip) -> VfSolver {
    VfSolver::new(
        PowerModel::new(
            Calibration::piton_hpca18(),
            TechModel::ibm32soi(),
            chip.corner(),
        ),
        ROOM_AMBIENT_C,
    )
}

/// Control steps a closed-loop settle gets: enough for the throttle
/// walk to converge even at quick fidelity.
fn settle_steps(fidelity: Fidelity) -> usize {
    fidelity.samples.max(64)
}

/// One VDD point of the closed-loop throttle boundary.
#[derive(Debug, Clone, Copy)]
pub struct BoundaryPoint {
    /// Socket-pin core voltage.
    pub vdd: Volts,
    /// Open-loop solved maximum boot frequency (MHz) — Figure 9's
    /// fixed-point answer.
    pub open_mhz: f64,
    /// Open-loop classification: thermally limited?
    pub open_thermal: bool,
    /// Frequency the closed loop settled at (MHz).
    pub closed_mhz: f64,
    /// Closed-loop classification: did the governor ever throttle?
    pub closed_thermal: bool,
}

/// One chip's boundary sweep.
#[derive(Debug, Clone)]
pub struct ChipBoundary {
    /// Which die.
    pub chip: NamedChip,
    /// Nine points, 0.8 V to 1.2 V.
    pub points: Vec<BoundaryPoint>,
}

/// The closed-loop Figure 9 reproduction.
#[derive(Debug, Clone)]
pub struct ThrottleBoundaryResult {
    /// Per-chip sweeps.
    pub chips: Vec<ChipBoundary>,
}

/// Runs the closed-loop throttle boundary: per chip and VDD, boot at
/// the cold-die analog capability under the boot-weight workload and
/// let [`GovernorConfig::ThrottleOnBoot`] find the holdable frequency.
/// Chips sweep on up to `fidelity.jobs` workers; results are
/// byte-identical at every jobs setting.
#[must_use]
pub fn run_throttle_boundary(fidelity: Fidelity) -> ThrottleBoundaryResult {
    let chips = runner::sweep(
        fidelity.jobs,
        vec![NamedChip::Chip1, NamedChip::Chip2, NamedChip::Chip3],
        move |i, chip| {
            let solver = solver_for(chip);
            let open = solver.sweep();
            let points = open
                .iter()
                .map(|o| {
                    let mut sys =
                        PitonSystem::new(&ChipConfig::piton(), chip.corner(), 0x90 + i as u64);
                    sys.set_chunk_cycles(fidelity.chunk_cycles);
                    sys.set_vdd_tracked(o.vdd);
                    // Boot-weight load: a Linux boot keeps roughly one
                    // core busy (the solver's boot activity factor), so
                    // the closed loop heats the die with one working
                    // core over the idle floor.
                    load_microbenchmark(
                        sys.machine_mut(),
                        Microbenchmark::Hp,
                        1,
                        ThreadsPerCore::Two,
                        RunLength::Forever,
                    );
                    // The PLL is programmed at the cold-die analog
                    // capability — the frequency the chip *would* run
                    // at if heat never mattered.
                    let cold = solver.capability(o.vdd, sys.thermal().junction_c());
                    let mut gov =
                        Governor::new(GovernorConfig::ThrottleOnBoot, solver.clone(), o.vdd, cold);
                    sys.set_frequency(gov.frequency());
                    sys.warm_up(fidelity.warmup_cycles);
                    // 30 s control steps: long against the heatsink's
                    // ~60 s surface time constant, so each decision
                    // sees a near-equilibrium junction and the ladder
                    // walk settles *at* the boundary instead of
                    // digging past it while the die is still hot.
                    let run =
                        sys.run_governed(&mut gov, settle_steps(fidelity), Some(Seconds(30.0)));
                    BoundaryPoint {
                        vdd: o.vdd,
                        open_mhz: o.freq.as_mhz(),
                        open_thermal: o.thermally_limited,
                        closed_mhz: run
                            .final_frequency()
                            .expect("forever workload always samples")
                            .as_mhz(),
                        closed_thermal: run.throttled_steps > 0,
                    }
                })
                .collect();
            ChipBoundary { chip, points }
        },
    );
    ThrottleBoundaryResult { chips }
}

impl ThrottleBoundaryResult {
    /// One chip's boundary.
    #[must_use]
    pub fn chip(&self, chip: NamedChip) -> &ChipBoundary {
        self.chips
            .iter()
            .find(|c| c.chip == chip)
            .expect("all three chips are swept")
    }

    /// Do open- and closed-loop thermal classifications agree at every
    /// point of every chip?
    #[must_use]
    pub fn classifications_agree(&self) -> bool {
        self.chips
            .iter()
            .flat_map(|c| &c.points)
            .all(|p| p.open_thermal == p.closed_thermal)
    }

    /// Renders the closed-loop Figure 9 table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::new("Figure 9 (closed loop): throttle boundary from the DVFS governor");
        t.header([
            "VDD (V)",
            "Chip #1 (MHz)",
            "limit",
            "Chip #2 (MHz)",
            "limit",
            "Chip #3 (MHz)",
            "limit",
        ]);
        let label = |thermal: bool| {
            if thermal {
                "thermal".to_owned()
            } else {
                "timing".to_owned()
            }
        };
        for i in 0..self.chips[0].points.len() {
            let p1 = &self.chip(NamedChip::Chip1).points[i];
            let p2 = &self.chip(NamedChip::Chip2).points[i];
            let p3 = &self.chip(NamedChip::Chip3).points[i];
            t.row([
                format!("{:.2}", p1.vdd.0),
                format!("{:.1}", p1.closed_mhz),
                label(p1.closed_thermal),
                format!("{:.1}", p2.closed_mhz),
                label(p2.closed_thermal),
                format!("{:.1}", p3.closed_mhz),
                label(p3.closed_thermal),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "\nOpen/closed-loop limit classifications {}\n",
            if self.classifications_agree() {
                "agree at all 27 points"
            } else {
                "DISAGREE — closed loop drifted from the solver"
            }
        ));
        out
    }
}

/// One schedule's closed-loop Figure 18 trace.
#[derive(Debug, Clone)]
pub struct GovernedScheduleTrace {
    /// The power/temperature time series, in the open-loop trace shape
    /// so the hysteresis metrics are shared.
    pub trace: ScheduleTrace,
    /// Governor operating-point changes over the run.
    pub transitions: u64,
    /// Steps decided at or above the thermal limit.
    pub throttled_steps: u64,
}

/// The closed-loop Figure 18 reproduction.
#[derive(Debug, Clone)]
pub struct HysteresisResult {
    /// Synchronized and interleaved traces.
    pub traces: Vec<GovernedScheduleTrace>,
}

/// Runs the closed-loop Figure 18 study: the two-phase application on
/// all 50 threads under both schedules on the §IV-J thermal rig (bare
/// package, half-effective fan), with a `ThrottleOnBoot` governor in
/// the loop starting from the paper's 100.01 MHz operating point.
#[must_use]
pub fn run_hysteresis(samples: usize, dt_seconds: f64, fidelity: Fidelity) -> HysteresisResult {
    let traces = runner::sweep(
        fidelity.jobs,
        vec![Schedule::Synchronized, Schedule::Interleaved],
        move |_, schedule| {
            // Same operating point as the open-loop study, *before*
            // warm-up — warming up at the default clock would settle
            // the bare-package rig far above the Figure 18 regime.
            let mut sys = Rig::thermal_study(0x18).system();
            sys.set_chunk_cycles(fidelity.chunk_cycles);
            *sys.thermal_mut() = bare_package_rig(0.5);
            let phase_iters = (fidelity.chunk_cycles / 4).max(200) as u32;
            load_two_phase(sys.machine_mut(), schedule, phase_iters);
            sys.warm_up(fidelity.warmup_cycles / 4);
            let solver = VfSolver::new(sys.power_model().clone(), ROOM_AMBIENT_C);
            let mut gov = Governor::new(
                GovernorConfig::ThrottleOnBoot,
                solver,
                Volts(0.9),
                piton_arch::units::Hertz::from_mhz(100.01),
            );
            let run = sys.run_governed(&mut gov, samples, Some(Seconds(dt_seconds)));
            GovernedScheduleTrace {
                trace: ScheduleTrace {
                    schedule,
                    samples: run
                        .samples
                        .iter()
                        .map(|s| SchedulingSample {
                            time_s: s.time_s - dt_seconds,
                            power: s.power,
                            surface_c: s.surface_c,
                        })
                        .collect(),
                },
                transitions: run.transitions,
                throttled_steps: run.throttled_steps,
            }
        },
    );
    HysteresisResult { traces }
}

impl HysteresisResult {
    /// A trace by schedule.
    #[must_use]
    pub fn trace(&self, schedule: Schedule) -> &GovernedScheduleTrace {
        self.traces
            .iter()
            .find(|t| t.trace.schedule == schedule)
            .expect("both schedules present")
    }

    /// Renders the closed-loop Figure 18 digest.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::new("Figure 18 (closed loop): scheduling under the DVFS governor");
        t.header([
            "Schedule",
            "Power swing (mW)",
            "Mean surface (°C)",
            "Hysteresis area (mW·°C)",
            "Transitions",
        ]);
        for tr in &self.traces {
            t.row([
                tr.trace.schedule.label().to_owned(),
                format!("{:.1}", tr.trace.power_swing().as_mw()),
                format!("{:.2}", tr.trace.mean_temperature_c()),
                format!("{:.2}", tr.trace.hysteresis_area() * 1e3),
                tr.transitions.to_string(),
            ]);
        }
        let sync = self
            .trace(Schedule::Synchronized)
            .trace
            .mean_temperature_c();
        let inter = self.trace(Schedule::Interleaved).trace.mean_temperature_c();
        let mut out = t.render();
        out.push_str(&format!(
            "\nInterleaved average temperature is {:.2} °C lower with the governor in the loop\n",
            sync - inter
        ));
        out
    }
}

/// One policy × chip race of the energy-frontier study.
#[derive(Debug, Clone, Copy)]
pub struct FrontierRow {
    /// The policy that drove the run.
    pub policy: GovernorConfig,
    /// Which die.
    pub chip: NamedChip,
    /// Whether every thread halted within the step budget.
    pub completed: bool,
    /// Wall time to completion (s).
    pub time_s: f64,
    /// Chip energy integrated over the run.
    pub energy: Joules,
    /// Mean held frequency (MHz).
    pub mean_mhz: f64,
    /// Hottest junction seen (°C).
    pub peak_junction_c: f64,
}

/// The energy-frontier study (no paper analogue).
#[derive(Debug, Clone)]
pub struct EnergyFrontierResult {
    /// All policy × chip rows, policies major.
    pub rows: Vec<FrontierRow>,
}

/// Races a finite workload to completion under each policy on each
/// chip, in real (undilated) time — the energy/latency tradeoff the
/// `EnergyFrontier` policy optimizes. Jobs-deterministic like every
/// other grid.
#[must_use]
pub fn run_energy_frontier(fidelity: Fidelity) -> EnergyFrontierResult {
    let policies = [
        GovernorConfig::ThrottleOnBoot,
        GovernorConfig::RaceToHalt,
        GovernorConfig::EnergyFrontier,
    ];
    let chips = [NamedChip::Chip1, NamedChip::Chip2, NamedChip::Chip3];
    let grid: Vec<(GovernorConfig, NamedChip)> = policies
        .iter()
        .flat_map(|&p| chips.iter().map(move |&c| (p, c)))
        .collect();
    let rows = runner::sweep(fidelity.jobs, grid, move |_, (policy, chip)| {
        let mut sys = PitonSystem::new(&ChipConfig::piton(), chip.corner(), 0xEF);
        sys.set_chunk_cycles(fidelity.chunk_cycles);
        sys.set_vdd_tracked(Volts(1.0));
        let iters = (fidelity.chunk_cycles / 2).max(500) as u32;
        load_microbenchmark(
            sys.machine_mut(),
            Microbenchmark::Hp,
            50,
            ThreadsPerCore::Two,
            RunLength::Iterations(iters),
        );
        let solver = solver_for(chip);
        let cold = solver.capability(Volts(1.0), sys.thermal().junction_c());
        let mut gov = Governor::new(policy, solver, Volts(1.0), cold);
        let run = sys.run_governed(&mut gov, 4 * settle_steps(fidelity), None);
        FrontierRow {
            policy,
            chip,
            completed: run.completed,
            time_s: run.samples.last().map_or(0.0, |s| s.time_s),
            energy: run.energy,
            mean_mhz: run.mean_frequency().as_mhz(),
            peak_junction_c: run.peak_junction_c(),
        }
    });
    EnergyFrontierResult { rows }
}

impl EnergyFrontierResult {
    /// The row for one policy × chip pair.
    #[must_use]
    pub fn row(&self, policy: GovernorConfig, chip: NamedChip) -> &FrontierRow {
        self.rows
            .iter()
            .find(|r| r.policy == policy && r.chip == chip)
            .expect("full policy x chip grid")
    }

    /// Renders the frontier table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t =
            Table::new("Energy frontier: policies racing a fixed workload (no paper analogue)");
        t.header([
            "Policy",
            "Chip",
            "Done",
            "Time (ms)",
            "Energy (mJ)",
            "Mean f (MHz)",
            "Peak Tj (°C)",
        ]);
        for r in &self.rows {
            t.row([
                r.policy.label().to_owned(),
                chip_label(r.chip).to_owned(),
                if r.completed { "yes" } else { "NO" }.to_owned(),
                format!("{:.3}", r.time_s * 1e3),
                format!("{:.3}", r.energy.0 * 1e3),
                format!("{:.1}", r.mean_mhz),
                format!("{:.1}", r.peak_junction_c),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_matches_open_loop_classification() {
        let r = run_throttle_boundary(Fidelity::quick());
        assert_eq!(r.chips.len(), 3);
        for c in &r.chips {
            assert_eq!(c.points.len(), 9);
        }
        assert!(
            r.classifications_agree(),
            "closed loop must reproduce the Figure 9 thermal/timing split:\n{}",
            r.render()
        );
        // The known EXPERIMENTS.md deviation, now emerging from the
        // loop: Chip #1 is thermally limited at 1.2 V.
        let c1 = r.chip(NamedChip::Chip1).points.last().unwrap();
        assert!(c1.closed_thermal);
        assert!(c1.closed_mhz < c1.open_mhz * 1.05);
    }

    #[test]
    fn boundary_is_jobs_deterministic() {
        let serial = run_throttle_boundary(Fidelity::quick());
        let parallel = run_throttle_boundary(Fidelity::quick().with_jobs(4));
        assert_eq!(serial.render(), parallel.render());
    }

    #[test]
    fn hysteresis_keeps_interleaved_cooler() {
        let r = run_hysteresis(48, 1.0, Fidelity::quick());
        let sync = r.trace(Schedule::Synchronized);
        let inter = r.trace(Schedule::Interleaved);
        assert!(
            inter.trace.mean_temperature_c() <= sync.trace.mean_temperature_c() + 0.02,
            "interleaved {} vs synchronized {}",
            inter.trace.mean_temperature_c(),
            sync.trace.mean_temperature_c()
        );
        assert!(
            sync.trace.power_swing().0 > inter.trace.power_swing().0,
            "synchronized must swing harder"
        );
    }

    #[test]
    fn frontier_race_to_halt_is_fastest_and_frontier_is_thriftiest() {
        let r = run_energy_frontier(Fidelity::quick());
        assert_eq!(r.rows.len(), 9);
        for &chip in &[NamedChip::Chip1, NamedChip::Chip2, NamedChip::Chip3] {
            let race = r.row(GovernorConfig::RaceToHalt, chip);
            let frontier = r.row(GovernorConfig::EnergyFrontier, chip);
            assert!(race.completed, "{}", chip_label(chip));
            assert!(frontier.completed, "{}", chip_label(chip));
            assert!(
                frontier.energy.0 <= race.energy.0 * 1.001,
                "{}: frontier {} J vs race {} J",
                chip_label(chip),
                frontier.energy.0,
                race.energy.0
            );
        }
    }

    #[test]
    fn renders_name_their_figures() {
        assert!(run_throttle_boundary(Fidelity::quick())
            .render()
            .contains("Figure 9 (closed loop)"));
        assert!(run_hysteresis(12, 1.0, Fidelity::quick())
            .render()
            .contains("Figure 18 (closed loop)"));
        assert!(run_energy_frontier(Fidelity::quick())
            .render()
            .contains("Energy frontier"));
    }
}

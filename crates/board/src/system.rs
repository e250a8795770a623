//! The assembled experimental system: chip + board + cooling +
//! measurement loop.
//!
//! [`PitonSystem`] is the virtual counterpart of Figure 3: a simulated
//! Piton die (with its process corner) in the socket of the test board,
//! bench supplies with remote sense on all three rails, I²C monitors
//! behind sense resistors, and the heat-sink/fan stack. Experiments load
//! workloads onto the machine, let it reach steady state, and collect
//! 128-sample measurement windows exactly as §III-A describes.
//!
//! **Time dilation.** The real monitors poll at 17 Hz — 29 million core
//! cycles apart. Simulating every cycle between samples would be
//! pointless for steady-state workloads, so each sample is backed by a
//! *chunk* of simulated cycles (default 10 000) whose average power
//! stands in for the 1/17 s interval; the thermal model still advances
//! by the real 1/17 s per sample. This preserves the paper's
//! methodology (steady-state mean ± stddev) at tractable cost.
//!
//! # Examples
//!
//! ```
//! use piton_board::system::PitonSystem;
//!
//! let mut sys = PitonSystem::reference_chip_2();
//! let idle = sys.measure_idle_power();
//! assert!((idle.mean.as_mw() - 2015.3).abs() < 30.0); // Table V
//! ```

use piton_arch::config::ChipConfig;
use piton_arch::error::PitonError;
use piton_arch::units::{Hertz, Joules, Seconds, Volts, Watts};
use piton_obs::{metrics, trace};
use piton_power::governor::Governor;
use piton_power::model::{OperatingPoint, PowerModel, RailPower};
use piton_power::thermal::{Cooling, ThermalModel, ThermalStep, HEATING_SHARE, ROOM_AMBIENT_C};
use piton_power::{Calibration, ChipCorner, TechModel};
use piton_sim::machine::Machine;

use crate::fault::FaultPlan;
use crate::monitor::{window_duration, Measured, MeasurementWindow, MonitorChannel, Quality};
use crate::population::{Die, NamedChip};
use crate::supply::PowerRails;

/// Default simulated cycles backing one monitor sample.
pub const DEFAULT_CHUNK_CYCLES: u64 = 10_000;

/// A three-rail measurement result.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct RailMeasurement {
    /// Core rail.
    pub vdd: Measured,
    /// SRAM rail.
    pub vcs: Measured,
    /// I/O rail.
    pub vio: Measured,
    /// VDD + VCS — the chip power the paper reports.
    pub total: Measured,
    /// Bench-side health of the window that produced this measurement
    /// (all-zero when no fault plan is attached).
    pub quality: Quality,
}

/// Result of running a finite workload to completion under measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadRun {
    /// Execution time (cycles / core clock).
    pub elapsed: Seconds,
    /// Chip energy (VDD + VCS) integrated over the run.
    pub energy: Joules,
    /// Mean chip power over the run.
    pub mean_power: Watts,
    /// Cycles executed.
    pub cycles: u64,
    /// Whether all threads halted before the cycle limit.
    pub completed: bool,
}

/// One control step of a governed run: the closed loop's state after
/// the governor's decision took effect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernedSample {
    /// Wall time at the end of the step (s).
    pub time_s: f64,
    /// Clock the governor holds after this step.
    pub freq: Hertz,
    /// Rail setpoint after this step.
    pub vdd: Volts,
    /// True chip power (VDD + VCS) of the step's chunk.
    pub power: Watts,
    /// Junction temperature after the thermal step (°C).
    pub junction_c: f64,
    /// Package surface temperature after the thermal step (°C) — what
    /// the FLIR camera in Figure 18 images.
    pub surface_c: f64,
    /// Whether the governor was limited by temperature this step.
    pub thermally_limited: bool,
}

/// Result of driving the machine under a closed-loop governor.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernedRun {
    /// Per-control-step trajectory.
    pub samples: Vec<GovernedSample>,
    /// Operating-point changes over the run.
    pub transitions: u64,
    /// Steps decided at or above the thermal limit.
    pub throttled_steps: u64,
    /// Chip energy (VDD + VCS) integrated over the run.
    pub energy: Joules,
    /// Cycles executed.
    pub cycles: u64,
    /// Whether all threads halted before the step budget ran out.
    pub completed: bool,
}

impl GovernedRun {
    /// Mean of the held frequencies over the run.
    #[must_use]
    pub fn mean_frequency(&self) -> Hertz {
        if self.samples.is_empty() {
            return Hertz(0.0);
        }
        Hertz(self.samples.iter().map(|s| s.freq.0).sum::<f64>() / self.samples.len() as f64)
    }

    /// Hottest junction temperature seen.
    #[must_use]
    pub fn peak_junction_c(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.junction_c)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Frequency held at the end of the run (Hz), if any step ran.
    #[must_use]
    pub fn final_frequency(&self) -> Option<Hertz> {
        self.samples.last().map(|s| s.freq)
    }
}

/// The full experimental setup of Figure 3.
#[derive(Debug, Clone)]
pub struct PitonSystem {
    machine: Machine,
    model: PowerModel,
    rails: PowerRails,
    thermal: ThermalModel,
    freq: Hertz,
    chunk_cycles: u64,
    mon_vdd: MonitorChannel,
    mon_vcs: MonitorChannel,
    mon_vio: MonitorChannel,
    fault: Option<FaultPlan>,
    core_mask: u32,
}

impl PitonSystem {
    /// Builds a system around a die with the given corner, with the
    /// default board, cooling and ambient. `seed` drives measurement
    /// noise.
    #[must_use]
    pub fn new(cfg: &ChipConfig, corner: ChipCorner, seed: u64) -> Self {
        Self {
            machine: Machine::new(cfg),
            model: PowerModel::new(Calibration::piton_hpca18(), TechModel::ibm32soi(), corner),
            rails: PowerRails::table_iii(),
            thermal: ThermalModel::new(Cooling::HeatsinkFan, ROOM_AMBIENT_C),
            freq: Hertz::from_mhz(500.05),
            chunk_cycles: DEFAULT_CHUNK_CYCLES,
            mon_vdd: MonitorChannel::piton_board(seed),
            mon_vcs: MonitorChannel::piton_board(seed.wrapping_add(1)),
            mon_vio: MonitorChannel::piton_board(seed.wrapping_add(2)),
            fault: None,
            core_mask: 0,
        }
    }

    /// Builds the degraded system a specific packaged die yields: its
    /// process corner, with its faulty cores fused off (routers still
    /// forwarding) exactly as the paper ran its 24-core chips.
    #[must_use]
    pub fn for_die(die: &Die, seed: u64) -> Self {
        let mut sys = Self::new(&ChipConfig::piton(), die.corner, seed);
        sys.set_core_mask(die.faulty_core_mask());
        sys
    }

    /// Attaches a fault plan: monitor channels start drawing injected
    /// faults and [`Self::try_measure`] honours the plan's brownout
    /// window. Without monitor-fault rates and brownout this is a no-op
    /// (measurement stays byte-identical to the fault-free bench).
    pub fn inject_faults(&mut self, plan: &FaultPlan) {
        self.mon_vdd.attach_faults(plan);
        self.mon_vcs.attach_faults(plan);
        self.mon_vio.attach_faults(plan);
        self.fault = Some(plan.clone());
    }

    /// The attached fault plan, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Fuses off the cores in `mask` (bit *i* = tile *i*); their routers
    /// keep forwarding. The mask survives [`Self::reset_machine`], like
    /// real fused-off silicon.
    pub fn set_core_mask(&mut self, mask: u32) {
        self.core_mask = mask;
        self.machine.apply_core_mask(mask);
    }

    /// The fused-off core mask.
    #[must_use]
    pub fn core_mask(&self) -> u32 {
        self.core_mask
    }

    /// Chip #1: fast but leaky.
    #[must_use]
    pub fn reference_chip_1() -> Self {
        Self::new(&ChipConfig::piton(), NamedChip::Chip1.corner(), 1)
    }

    /// Chip #2: the typical die used for most of the paper's studies.
    #[must_use]
    pub fn reference_chip_2() -> Self {
        Self::new(&ChipConfig::piton(), NamedChip::Chip2.corner(), 2)
    }

    /// Chip #3: the microbenchmark die.
    #[must_use]
    pub fn reference_chip_3() -> Self {
        Self::new(&ChipConfig::piton(), NamedChip::Chip3.corner(), 3)
    }

    /// The simulated machine (load workloads here).
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Replaces the machine with a fresh idle one (power-cycle). Fused
    /// off cores stay fused off.
    pub fn reset_machine(&mut self) {
        self.machine = Machine::new(&self.machine.config().clone());
        self.machine.apply_core_mask(self.core_mask);
    }

    /// The power model of the socketed die.
    #[must_use]
    pub fn power_model(&self) -> &PowerModel {
        &self.model
    }

    /// The thermal state.
    #[must_use]
    pub fn thermal(&self) -> &ThermalModel {
        &self.thermal
    }

    /// Mutable thermal access (e.g. removing the heat sink for §IV-J).
    pub fn thermal_mut(&mut self) -> &mut ThermalModel {
        &mut self.thermal
    }

    /// The supply rails.
    #[must_use]
    pub fn rails(&self) -> &PowerRails {
        &self.rails
    }

    /// Programs VDD (VCS tracks at +0.05 V).
    pub fn set_vdd_tracked(&mut self, vdd: Volts) {
        self.rails.set_vdd_tracked(vdd);
    }

    /// Sets the core clock.
    pub fn set_frequency(&mut self, f: Hertz) {
        self.freq = f;
    }

    /// Current core clock.
    #[must_use]
    pub fn frequency(&self) -> Hertz {
        self.freq
    }

    /// Sets the cycles simulated per monitor sample.
    pub fn set_chunk_cycles(&mut self, cycles: u64) {
        assert!(cycles > 0, "chunk must be non-empty");
        self.chunk_cycles = cycles;
    }

    /// The operating point implied by the current rails, clock and
    /// junction temperature.
    #[must_use]
    pub fn operating_point(&self) -> OperatingPoint {
        OperatingPoint {
            vdd: self.rails.vdd.setpoint(),
            vcs: self.rails.vcs.setpoint(),
            vio: self.rails.vio.setpoint(),
            freq: self.freq,
            junction_c: self.thermal.junction_c(),
        }
    }

    /// True (noise-free) rail power of one freshly simulated chunk.
    fn chunk_power(&mut self) -> RailPower {
        let before = self.machine.counters().clone();
        self.machine.run(self.chunk_cycles);
        let delta = self.machine.counters().delta_since(&before);
        self.model.power(&delta, self.operating_point())
    }

    /// Chunk power with VDD/VCS sagged to `factor` of their setpoints —
    /// what the chip actually draws during a supply brownout.
    fn chunk_power_browned(&mut self, factor: f64) -> RailPower {
        let before = self.machine.counters().clone();
        self.machine.run(self.chunk_cycles);
        let delta = self.machine.counters().delta_since(&before);
        let mut op = self.operating_point();
        op.vdd = Volts(op.vdd.0 * factor);
        op.vcs = Volts(op.vcs.0 * factor);
        self.model.power(&delta, op)
    }

    /// Runs the machine for `cycles` without measuring (reaching the
    /// steady state the paper requires before sampling), settling the
    /// thermal state to the resulting power.
    ///
    /// Runs in 1 000-cycle steps. The simulated result is the same as
    /// one run call, but a step bounds each lane's effect buffer to
    /// 1 000 cycles of deferred issues: one call fills whole 2 048-cycle
    /// segments, which raised the saturated 25-core sweep's peak RSS
    /// from ≈ 5.3 to ≈ 5.5–5.6 MB (2-CPU host). The `engine.batches`
    /// count follows the steps too.
    pub fn warm_up(&mut self, cycles: u64) {
        let before = self.machine.counters().clone();
        let mut remaining = cycles;
        while remaining > 0 {
            let step = remaining.min(1_000);
            self.machine.run(step);
            remaining -= step;
        }
        let delta = self.machine.counters().delta_since(&before);
        // Settle at the leakage-aware fixed point: power depends on
        // junction temperature, which depends on power.
        let op0 = self.operating_point();
        self.thermal.settle_warm_junction(|t| {
            self.model
                .power(&delta, op0.with_junction(t))
                .total_with_io()
        });
    }

    /// Collects a measurement window of `samples` monitor polls while
    /// the loaded workload runs.
    ///
    /// # Panics
    ///
    /// Panics if the attached fault plan drops *every* sample of a rail
    /// window — use [`Self::try_measure`] where that must be survivable.
    pub fn measure(&mut self, samples: usize) -> RailMeasurement {
        self.try_measure(samples)
            .expect("measurement window fully dropped under fault plan")
    }

    /// Fallible [`Self::measure`]: collects the window under the
    /// attached fault plan (injected monitor faults, bounded retry,
    /// brownout sag, outlier rejection), reporting what the bench had to
    /// tolerate in the result's `quality`.
    ///
    /// Without an attached plan the sampling sequence — and therefore
    /// every byte of downstream output — is identical to the historical
    /// infallible path.
    ///
    /// # Errors
    ///
    /// [`PitonError::EmptyWindow`] if every sample of some rail was
    /// dropped.
    pub fn try_measure(&mut self, samples: usize) -> Result<RailMeasurement, PitonError> {
        let dt = Seconds(window_duration(samples).0 / samples as f64);
        let mut w_vdd = MeasurementWindow::new();
        let mut w_vcs = MeasurementWindow::new();
        let mut w_vio = MeasurementWindow::new();
        let mut w_tot = MeasurementWindow::new();
        let mut quality = Quality::default();
        let faulty = self
            .fault
            .as_ref()
            .is_some_and(|p| p.has_monitor_faults() || p.brownout.is_some());
        let brownout = self.fault.as_ref().and_then(|p| p.brownout);
        for i in 0..samples {
            let p = match brownout.filter(|b| b.covers(i)) {
                Some(b) => self.chunk_power_browned(b.factor),
                None => self.chunk_power(),
            };
            self.thermal.step(p.total_with_io() * HEATING_SHARE, dt);
            if faulty {
                let svdd = self.mon_vdd.sample_with_retry(p.vdd, &mut quality);
                let svcs = self.mon_vcs.sample_with_retry(p.vcs, &mut quality);
                let svio = self.mon_vio.sample_with_retry(p.vio, &mut quality);
                w_vdd.extend(svdd);
                w_vcs.extend(svcs);
                w_vio.extend(svio);
                if let (Some(a), Some(b)) = (svdd, svcs) {
                    w_tot.push(a + b);
                }
            } else {
                let svdd = self.mon_vdd.sample(p.vdd);
                let svcs = self.mon_vcs.sample(p.vcs);
                let svio = self.mon_vio.sample(p.vio);
                w_vdd.push(svdd);
                w_vcs.push(svcs);
                w_vio.push(svio);
                w_tot.push(svdd + svcs);
            }
        }
        if faulty {
            Ok(RailMeasurement {
                vdd: w_vdd.robust_stats(&mut quality)?,
                vcs: w_vcs.robust_stats(&mut quality)?,
                vio: w_vio.robust_stats(&mut quality)?,
                total: w_tot.robust_stats(&mut quality)?,
                quality,
            })
        } else {
            quality.kept = u32::try_from(3 * samples).expect("window fits in u32");
            Ok(RailMeasurement {
                vdd: Measured::from_window(&w_vdd)?,
                vcs: Measured::from_window(&w_vcs)?,
                vio: Measured::from_window(&w_vio)?,
                total: Measured::from_window(&w_tot)?,
                quality,
            })
        }
    }

    /// Idle power (clocks running, all threads idle) — the Table V
    /// measurement. Resets the machine first.
    pub fn measure_idle_power(&mut self) -> Measured {
        self.reset_machine();
        self.warm_up(10_000);
        self.measure(64).total
    }

    /// Static power (all inputs including clocks grounded) — no dynamic
    /// activity at all, leakage at the thermal equilibrium.
    pub fn measure_static_power(&mut self) -> Measured {
        let op_cold = self.operating_point();
        let p = self
            .thermal
            .static_equilibrium(|t| self.model.static_power(op_cold.with_junction(t)))
            .total();
        let mut w = MeasurementWindow::new();
        for _ in 0..64 {
            w.push(self.mon_vdd.sample(p));
        }
        Measured::from_window(&w).expect("static window is never empty")
    }

    /// Runs the loaded workload to completion (or `max_cycles`),
    /// integrating power into energy — the §IV-H2 energy methodology
    /// (energy derived from power and execution time).
    pub fn run_measured(&mut self, max_cycles: u64) -> WorkloadRun {
        let start_cycle = self.machine.now();
        let mut energy = Joules(0.0);
        while self.machine.any_running() && self.machine.now() - start_cycle < max_cycles {
            let before = self.machine.counters().clone();
            let chunk = self
                .chunk_cycles
                .min(max_cycles - (self.machine.now() - start_cycle));
            self.machine.run(chunk);
            let delta = self.machine.counters().delta_since(&before);
            if delta.cycles == 0 {
                break;
            }
            let p = self.model.power(&delta, self.operating_point());
            let t = self.freq.period() * delta.cycles as f64;
            energy += p.total() * t;
            self.thermal.step(p.total_with_io() * HEATING_SHARE, t);
        }
        let cycles = self.machine.now() - start_cycle;
        let elapsed = self.freq.period() * cycles as f64;
        WorkloadRun {
            elapsed,
            energy,
            mean_power: if elapsed.0 > 0.0 {
                energy / elapsed
            } else {
                Watts(0.0)
            },
            cycles,
            completed: !self.machine.any_running(),
        }
    }

    /// Drives the loaded workload under a closed-loop DVFS governor for
    /// up to `steps` fixed-timestep control steps (or until every
    /// thread halts): per step, simulate one chunk at the held
    /// operating point, advance the thermal model, integrate energy,
    /// then let the governor pick the next operating point from the
    /// junction temperature and the chunk's activity window.
    ///
    /// `dt` selects the step's thermal timestep: `Some(dt)` dilates
    /// time exactly like [`Self::measure`] (each chunk stands in for a
    /// longer real interval — use for thermal studies), `None` uses the
    /// chunk's real duration at the held clock (use for
    /// energy-to-completion runs, where elapsed time is the point).
    ///
    /// An attached fault plan's brownout window sags the rails exactly
    /// as in [`Self::try_measure`], and the sag also lowers the
    /// capability curve the governor sees. Fused-off cores never
    /// execute, so they contribute no activity to the power fed into
    /// the thermal model.
    pub fn run_governed(
        &mut self,
        governor: &mut Governor,
        steps: usize,
        dt: Option<Seconds>,
    ) -> GovernedRun {
        let stats0 = governor.stats();
        self.set_vdd_tracked(governor.vdd());
        self.set_frequency(governor.frequency());
        let stepper = dt.map(|d| ThermalStep::new(d.0));
        let brownout = self.fault.as_ref().and_then(|p| p.brownout);
        let start_cycle = self.machine.now();
        let mut energy = Joules(0.0);
        let mut time_s = 0.0;
        let mut samples = Vec::with_capacity(steps);
        for i in 0..steps {
            if !self.machine.any_running() {
                break;
            }
            let sag = brownout.filter(|b| b.covers(i)).map_or(1.0, |b| b.factor);
            let before = self.machine.counters().clone();
            self.machine.run(self.chunk_cycles);
            let delta = self.machine.counters().delta_since(&before);
            if delta.cycles == 0 {
                break;
            }
            let mut op = self.operating_point();
            op.vdd = Volts(op.vdd.0 * sag);
            op.vcs = Volts(op.vcs.0 * sag);
            let p = self.model.power(&delta, op);
            // The governor loop heats the die with the core-rail total,
            // the same power the V/F solver's boot-equilibrium oracle
            // and the Figure 17/18 scheduling studies integrate — so a
            // closed-loop run is directly comparable to both.
            let step_dt = match stepper {
                Some(s) => {
                    s.advance(&mut self.thermal, p.total());
                    s.dt()
                }
                None => {
                    let d = self.freq.period() * delta.cycles as f64;
                    self.thermal.step(p.total(), d);
                    d
                }
            };
            energy += p.total() * step_dt;
            time_s += step_dt.0;
            let t_j = self.thermal.junction_c();
            let choice = governor.step_sagged(t_j, &delta, sag);
            let khz = (choice.freq.0 / 1_000.0).round() as u64;
            if choice.freq != self.freq || choice.vdd != self.rails.vdd.setpoint() {
                self.set_vdd_tracked(choice.vdd);
                self.set_frequency(choice.freq);
                if trace::active() {
                    trace::emit(trace::TraceEvent::Governor {
                        cycle: self.machine.now(),
                        khz,
                        millicelsius: (t_j * 1_000.0).round() as i64,
                        policy: governor.policy().label().to_owned(),
                    });
                }
                metrics::counter_add("governor.transitions", 1);
            }
            metrics::counter_add("governor.steps", 1);
            if choice.thermally_limited {
                metrics::counter_add("governor.throttled_steps", 1);
            }
            metrics::histogram_observe("governor.freq_mhz", khz / 1_000);
            samples.push(GovernedSample {
                time_s,
                freq: choice.freq,
                vdd: choice.vdd,
                power: p.total(),
                junction_c: self.thermal.junction_c(),
                surface_c: self.thermal.surface_c(),
                thermally_limited: choice.thermally_limited,
            });
        }
        let stats = governor.stats();
        GovernedRun {
            samples,
            transitions: stats.transitions - stats0.transitions,
            throttled_steps: stats.throttled_steps - stats0.throttled_steps,
            energy,
            cycles: self.machine.now() - start_cycle,
            completed: !self.machine.any_running(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piton_arch::isa::{Instruction, Opcode, Reg};
    use piton_arch::topology::TileId;
    use piton_sim::program::Program;

    #[test]
    fn idle_power_reproduces_table_v() {
        let mut sys = PitonSystem::reference_chip_2();
        sys.set_chunk_cycles(2_000);
        let idle = sys.measure_idle_power();
        assert!(
            (idle.mean.as_mw() - 2015.3).abs() < 30.0,
            "idle {}",
            idle.mean.as_mw()
        );
        assert!(idle.stddev.as_mw() < 10.0);
    }

    #[test]
    fn static_power_reproduces_table_v() {
        let mut sys = PitonSystem::reference_chip_2();
        let s = sys.measure_static_power();
        assert!(
            (s.mean.as_mw() - 389.3).abs() < 25.0,
            "static {}",
            s.mean.as_mw()
        );
    }

    #[test]
    fn chip_3_is_cooler_than_chip_2() {
        let mut s2 = PitonSystem::reference_chip_2();
        let mut s3 = PitonSystem::reference_chip_3();
        s2.set_chunk_cycles(2_000);
        s3.set_chunk_cycles(2_000);
        let i2 = s2.measure_idle_power();
        let i3 = s3.measure_idle_power();
        assert!(i3.mean < i2.mean);
        // Chip #3 idle ≈ 1906 mW.
        assert!(
            (i3.mean.as_mw() - 1906.2).abs() < 40.0,
            "{}",
            i3.mean.as_mw()
        );
    }

    #[test]
    fn busy_cores_raise_power_over_idle() {
        let mut sys = PitonSystem::reference_chip_2();
        sys.set_chunk_cycles(2_000);
        let idle = sys.measure_idle_power();

        sys.reset_machine();
        let p = Program::from_instructions(vec![
            Instruction::movi(Reg::new(1), 0x0F0F),
            Instruction::movi(Reg::new(2), 0x3333),
            Instruction::alu(Opcode::Add, Reg::new(3), Reg::new(1), Reg::new(2)),
            Instruction::alu(Opcode::And, Reg::new(4), Reg::new(1), Reg::new(2)),
            Instruction::branch(Opcode::Beq, Reg::G0, Reg::G0, 2),
        ]);
        sys.machine_mut().load_on_tiles(25, 0, &p);
        sys.warm_up(5_000);
        let busy = sys.measure(32);
        assert!(
            busy.total.mean > idle.mean + piton_arch::units::Watts(0.2),
            "busy {} vs idle {}",
            busy.total.mean,
            idle.mean
        );
    }

    #[test]
    fn run_measured_integrates_energy() {
        let mut sys = PitonSystem::reference_chip_2();
        sys.set_chunk_cycles(1_000);
        let p = Program::from_instructions(vec![
            Instruction::movi(Reg::new(1), 50),
            Instruction::movi(Reg::new(2), 1),
            Instruction::alu(Opcode::Sub, Reg::new(1), Reg::new(1), Reg::new(2)),
            Instruction::branch(Opcode::Bne, Reg::new(1), Reg::G0, 2),
            Instruction::halt(),
        ]);
        sys.machine_mut().load_thread(TileId::new(0), 0, p);
        let run = sys.run_measured(100_000);
        assert!(run.completed);
        assert!(run.energy.0 > 0.0);
        assert!(run.elapsed.0 > 0.0);
        // Energy ≈ mean power × time.
        let recomputed = run.mean_power * run.elapsed;
        assert!((recomputed.0 - run.energy.0).abs() / run.energy.0 < 1e-6);
    }

    #[test]
    fn voltage_sweep_changes_power() {
        let mut sys = PitonSystem::reference_chip_2();
        sys.set_chunk_cycles(1_000);
        let at_nominal = sys.measure_idle_power();
        sys.set_vdd_tracked(Volts(0.8));
        sys.set_frequency(Hertz::from_mhz(285.74));
        let at_low = sys.measure_idle_power();
        assert!(at_low.mean < at_nominal.mean * 0.7);
    }

    #[test]
    fn no_fault_plan_measurement_is_byte_identical_to_the_plain_path() {
        let mut plain = PitonSystem::reference_chip_2();
        let mut planned = PitonSystem::reference_chip_2();
        // A plan with zero rates and no brownout must not perturb a bit.
        planned.inject_faults(&crate::fault::FaultPlan {
            drop_rate: 0.0,
            stuck_rate: 0.0,
            glitch_rate: 0.0,
            ..crate::fault::FaultPlan::with_seed(1)
        });
        plain.set_chunk_cycles(500);
        planned.set_chunk_cycles(500);
        let a = plain.measure(16);
        let b = planned.try_measure(16).unwrap();
        assert_eq!(a.total, b.total);
        assert_eq!(a.vdd, b.vdd);
        assert_eq!(a.vio, b.vio);
    }

    #[test]
    fn faulty_measurement_degrades_gracefully_and_reports_quality() {
        let plan = crate::fault::FaultPlan {
            drop_rate: 0.05,
            stuck_rate: 0.03,
            glitch_rate: 0.04,
            ..crate::fault::FaultPlan::with_seed(77)
        };
        let mut clean = PitonSystem::reference_chip_2();
        let mut faulty = PitonSystem::reference_chip_2();
        faulty.inject_faults(&plan);
        clean.set_chunk_cycles(500);
        faulty.set_chunk_cycles(500);
        clean.reset_machine();
        faulty.reset_machine();
        clean.warm_up(5_000);
        faulty.warm_up(5_000);
        let a = clean.measure(64);
        let b = faulty.try_measure(64).unwrap();
        assert!(!b.quality.is_clean(), "quality: {}", b.quality);
        // Outlier rejection keeps the degraded mean in the noise band.
        assert!(
            (a.total.mean.as_mw() - b.total.mean.as_mw()).abs() < 8.0,
            "clean {} vs faulty {}",
            a.total.mean,
            b.total.mean
        );
    }

    #[test]
    fn brownout_sag_is_rejected_as_outliers() {
        let plan = crate::fault::FaultPlan {
            brownout: Some(crate::fault::Brownout {
                start_sample: 20,
                samples: 8,
                factor: 0.85,
            }),
            drop_rate: 0.0,
            stuck_rate: 0.0,
            glitch_rate: 0.0,
            ..crate::fault::FaultPlan::with_seed(3)
        };
        let mut sys = PitonSystem::reference_chip_2();
        sys.inject_faults(&plan);
        sys.set_chunk_cycles(500);
        sys.reset_machine();
        sys.warm_up(5_000);
        let m = sys.try_measure(64).unwrap();
        assert!(
            m.quality.rejected >= 8,
            "brownout samples must be rejected: {}",
            m.quality
        );
        assert!(
            (m.total.mean.as_mw() - 2015.3).abs() < 30.0,
            "{}",
            m.total.mean
        );
    }

    #[test]
    fn for_die_fuses_off_faulty_cores_across_resets() {
        use crate::population::{ChipStatus, Die};
        use piton_power::ChipCorner;
        let die = Die {
            serial: 7,
            corner: ChipCorner::default(),
            status: ChipStatus::UnstableDeterministic,
            packaged: true,
        };
        let mask = die.faulty_core_mask();
        assert!(mask.count_ones() >= 1 && mask.count_ones() <= 2);
        let mut sys = PitonSystem::for_die(&die, 9);
        assert_eq!(sys.machine().disabled_cores(), mask.count_ones() as usize);
        sys.reset_machine();
        assert_eq!(
            sys.machine().disabled_cores(),
            mask.count_ones() as usize,
            "fused-off cores must survive a power cycle"
        );
    }

    #[test]
    fn governed_run_completes_and_tracks_the_governor() {
        use piton_power::governor::{Governor, GovernorConfig};
        let mut sys = PitonSystem::reference_chip_2();
        sys.set_chunk_cycles(1_000);
        let p = Program::from_instructions(vec![
            Instruction::movi(Reg::new(1), 400),
            Instruction::movi(Reg::new(2), 1),
            Instruction::alu(Opcode::Sub, Reg::new(1), Reg::new(1), Reg::new(2)),
            Instruction::branch(Opcode::Bne, Reg::new(1), Reg::G0, 2),
            Instruction::halt(),
        ]);
        sys.machine_mut().load_thread(TileId::new(0), 0, p);
        let solver = piton_power::vf::VfSolver::new(sys.power_model().clone(), 20.0);
        let mut gov = Governor::new(
            GovernorConfig::RaceToHalt,
            solver,
            Volts(1.0),
            Hertz::from_mhz(500.05),
        );
        let run = sys.run_governed(&mut gov, 64, None);
        assert!(run.completed, "finite workload must halt");
        assert!(run.energy.0 > 0.0);
        assert!(!run.samples.is_empty());
        // The system's clock must end where the governor left it.
        assert_eq!(sys.frequency(), gov.frequency());
    }

    #[test]
    fn governed_run_throttles_a_preheated_die() {
        use piton_power::governor::{Governor, GovernorConfig};
        use piton_power::vf::T_JUNCTION_LIMIT_C;
        let mut sys = PitonSystem::reference_chip_1();
        sys.set_chunk_cycles(1_000);
        sys.thermal_mut()
            .settle_to_junction(T_JUNCTION_LIMIT_C + 6.0);
        let p = Program::from_instructions(vec![
            Instruction::movi(Reg::new(1), 0x5555),
            Instruction::alu(Opcode::Add, Reg::new(2), Reg::new(1), Reg::new(1)),
            Instruction::branch(Opcode::Beq, Reg::G0, Reg::G0, 1),
        ]);
        sys.machine_mut().load_on_tiles(25, 0, &p);
        let solver = piton_power::vf::VfSolver::new(sys.power_model().clone(), 20.0);
        let start = Hertz::from_mhz(500.05);
        let mut gov = Governor::new(GovernorConfig::ThrottleOnBoot, solver, Volts(1.0), start);
        // Time-dilated steps: hold the die hot long enough to force
        // several downward walks before the RC model cools it.
        let run = sys.run_governed(&mut gov, 8, Some(Seconds(0.05)));
        assert!(run.throttled_steps > 0, "preheated die must throttle");
        assert!(
            sys.frequency().0 < start.0,
            "clock must come down: {}",
            sys.frequency()
        );
    }

    #[test]
    fn operating_point_tracks_rails_and_thermal() {
        let mut sys = PitonSystem::reference_chip_2();
        sys.set_vdd_tracked(Volts(1.1));
        sys.set_frequency(Hertz::from_mhz(600.06));
        let op = sys.operating_point();
        assert_eq!(op.vdd, Volts(1.1));
        assert!((op.vcs.0 - 1.15).abs() < 1e-12);
        assert!((op.freq.as_mhz() - 600.06).abs() < 1e-9);
    }
}

//! Voltage-versus-frequency solver — the model behind Figure 9.
//!
//! The paper measures, per chip, the maximum core clock at which Debian
//! Linux boots for VDD from 0.8 V to 1.2 V (VCS = VDD + 0.05 V). Three
//! effects shape the curve:
//!
//! 1. the **alpha-power delay law** sets the analog maximum frequency of
//!    the die's critical path (rising with voltage, falling slightly
//!    with temperature);
//! 2. **IR drop** across socket, pins, wirebonds and die lowers the
//!    voltage the transistors actually see below the socket-pin voltage
//!    (§IV-C's packaging discussion);
//! 3. the **thermal limit**: at high voltage a fast, leaky die (Chip #1)
//!    reaches the maximum heat the package can transfer, and frequency
//!    must drop to keep the die at a bootable temperature — the Figure 9
//!    roll-off at 1.2 V.
//!
//! The PLL reference clock is discretized, so the reported frequency is
//! quantized onto a ladder and the distance to the next step is the
//! "quantization noise" error bar of Figure 9.

use piton_arch::units::{Hertz, Volts, Watts};
use piton_sim::events::ActivityCounters;

use crate::model::{OperatingPoint, PowerModel};
use crate::thermal::{Cooling, ThermalModel, EQUILIBRIUM_CAP_C};

/// Maximum junction temperature at which the stability workload (a
/// Linux boot) still passes.
pub const T_JUNCTION_LIMIT_C: f64 = 95.0;

/// Frequency derating per °C of junction temperature above 25 °C (hot
/// transistors switch slower).
pub const FREQ_TEMP_DERATE_PER_C: f64 = 8.0e-4;

/// Effective supply-network resistance (socket + wirebond + die grid) in
/// ohms, per rail.
pub const R_SUPPLY_OHMS: f64 = 0.008;

/// One point of the Figure 9 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VfPoint {
    /// Socket-pin core voltage.
    pub vdd: Volts,
    /// Maximum stable (quantized) frequency.
    pub freq: Hertz,
    /// The next PLL step above `freq` — the chip failed there or was
    /// never tried, giving the Figure 9 error bar.
    pub next_step: Hertz,
    /// Whether the point was limited by temperature rather than timing.
    pub thermally_limited: bool,
    /// Junction temperature at the solution.
    pub junction_c: f64,
}

/// The PLL frequency ladder: a geometric grid of achievable core clocks
/// (discretized reference clock × integer dividers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PllLadder {
    base: Hertz,
    ratio: f64,
}

impl PllLadder {
    /// The gateway-FPGA reference ladder: ~3.5% steps from 50 MHz.
    #[must_use]
    pub fn piton() -> Self {
        Self {
            base: Hertz::from_mhz(50.0),
            ratio: 1.035,
        }
    }

    /// Largest ladder frequency ≤ `f`, and the following step.
    ///
    /// # Panics
    ///
    /// Panics if `f` is below the bottom of the ladder.
    #[must_use]
    pub fn quantize(&self, f: Hertz) -> (Hertz, Hertz) {
        let q = self.frequency(self.index_of(f));
        (q, Hertz(q.0 * self.ratio))
    }

    /// The ladder frequency at integer step `index` (step 0 is the
    /// base). The governor tracks its operating point as a ladder index
    /// so state transitions are exact integer arithmetic.
    #[must_use]
    pub fn frequency(&self, index: u32) -> Hertz {
        Hertz(self.base.0 * self.ratio.powf(f64::from(index)))
    }

    /// Largest step index whose frequency does not exceed `f`.
    ///
    /// The closed-form floor is corrected against [`Self::frequency`] at
    /// the boundaries, so this agrees exactly with a linear scan of the
    /// ladder (the governor's reference controller does exactly that
    /// scan).
    ///
    /// # Panics
    ///
    /// Panics if `f` is below the bottom of the ladder.
    #[must_use]
    pub fn index_of(&self, f: Hertz) -> u32 {
        assert!(
            f.0 >= self.base.0,
            "frequency {} below PLL ladder base {}",
            f,
            self.base
        );
        let mut n = ((f.0 / self.base.0).ln() / self.ratio.ln())
            .floor()
            .max(0.0) as u32;
        while self.frequency(n + 1).0 <= f.0 {
            n += 1;
        }
        while n > 0 && self.frequency(n).0 > f.0 {
            n -= 1;
        }
        n
    }
}

impl Default for PllLadder {
    fn default() -> Self {
        Self::piton()
    }
}

/// Solves the maximum bootable frequency across a VDD sweep for one die.
#[derive(Debug, Clone)]
pub struct VfSolver {
    model: PowerModel,
    thermal: ThermalModel,
    ladder: PllLadder,
    /// Activity of the stability workload relative to idle (a Linux boot
    /// keeps roughly one core busy: a small bump over pure clock power).
    boot_activity_factor: f64,
}

impl VfSolver {
    /// Solver for a die with the default heat-sink cooling at the given
    /// ambient temperature.
    #[must_use]
    pub fn new(model: PowerModel, ambient_c: f64) -> Self {
        Self {
            model,
            thermal: ThermalModel::new(Cooling::HeatsinkFan, ambient_c),
            ladder: PllLadder::piton(),
            boot_activity_factor: 1.10,
        }
    }

    /// Chip power of the boot workload at `(vdd, f, junction)`.
    fn boot_power(&self, vdd: Volts, f: Hertz, junction_c: f64) -> Watts {
        let op = OperatingPoint::table_iii()
            .with_vdd_tracked(vdd)
            .with_freq(f)
            .with_junction(junction_c);
        if f.0 <= 0.0 {
            // Clock stopped: static power only.
            return self.model.static_power(op).total();
        }
        let idle = ActivityCounters {
            cycles: 100_000,
            ..Default::default()
        };
        let p = self.model.power(&idle, op);
        let dynamic = p.total() - self.model.static_power(op).total();
        dynamic * self.boot_activity_factor + self.model.static_power(op).total()
    }

    /// The power model of the die being solved.
    #[must_use]
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// The thermal model (heat-sink cooling at the solver's ambient)
    /// used for equilibrium solves.
    #[must_use]
    pub fn thermal(&self) -> &ThermalModel {
        &self.thermal
    }

    /// The PLL frequency ladder.
    #[must_use]
    pub fn ladder(&self) -> PllLadder {
        self.ladder
    }

    /// The V/F capability curve: analog (pre-quantization) maximum
    /// frequency at pin voltage `vdd` and junction temperature `t_j`,
    /// accounting for IR drop and the thermal derate.
    ///
    /// Monotone nonincreasing in `t_j`: a hotter die both switches
    /// slower (derate) and leaks more (deeper IR drop), so the closed-
    /// loop governor can never be *raised* by a temperature increase.
    #[must_use]
    pub fn capability(&self, vdd: Volts, t_j: f64) -> Hertz {
        self.analog_fmax(vdd, t_j)
    }

    /// Analog (pre-quantization) maximum frequency at pin voltage `vdd`
    /// and junction temperature `t_j`, accounting for IR drop.
    fn analog_fmax(&self, vdd: Volts, t_j: f64) -> Hertz {
        // Iterate the IR-drop fixed point: higher f -> more current ->
        // larger drop -> lower die voltage -> lower f.
        let corner = self.model.corner();
        let mut f = self.model.tech().fmax(vdd) * corner.speed;
        for _ in 0..10 {
            let p = self.boot_power(vdd, f, t_j);
            let current = p / vdd;
            // The die voltage cannot collapse below threshold in a
            // functioning system; the thermal walk handles infeasible
            // points.
            let v_die = Volts(
                (vdd.0 - current.0 * R_SUPPLY_OHMS).max(self.model.tech().v_threshold.0 + 0.02),
            );
            let derate = 1.0 - FREQ_TEMP_DERATE_PER_C * (t_j - 25.0).max(0.0);
            f = Hertz(
                (self.model.tech().fmax(v_die) * corner.speed * derate)
                    .0
                    .max(self.ladder.base.0),
            );
        }
        f
    }

    /// Junction temperature at thermal equilibrium for `(vdd, f)` under
    /// the boot workload — the feasibility oracle the governor's
    /// energy-frontier policy consults before committing to a point.
    #[must_use]
    pub fn equilibrium_junction(&self, vdd: Volts, f: Hertz) -> f64 {
        let (t_j, _) = self
            .thermal
            .equilibrium(|t| self.boot_power(vdd, f, t), EQUILIBRIUM_CAP_C);
        t_j
    }

    /// Maximum stable frequency at one pin voltage.
    #[must_use]
    pub fn max_frequency(&self, vdd: Volts) -> VfPoint {
        // Timing limit at the thermal equilibrium of the timing limit.
        let mut t_j = self.thermal.ambient_c() + 10.0;
        let mut f = self.analog_fmax(vdd, t_j);
        for _ in 0..20 {
            t_j = self.equilibrium_junction(vdd, f);
            let next = self.analog_fmax(vdd, t_j.min(150.0));
            if (next.0 - f.0).abs() < 1e4 {
                f = next;
                break;
            }
            f = next;
        }

        // Thermal limit: if the equilibrium junction exceeds the boot
        // limit, walk the frequency down until it doesn't.
        let mut thermally_limited = false;
        let mut t_eq = self.equilibrium_junction(vdd, f);
        while t_eq > T_JUNCTION_LIMIT_C && f.0 > self.ladder.base.0 * 1.1 {
            thermally_limited = true;
            f = Hertz(f.0 * 0.97);
            t_eq = self.equilibrium_junction(vdd, f);
        }

        let (q, next) = self.ladder.quantize(f);
        VfPoint {
            vdd,
            freq: q,
            next_step: next,
            thermally_limited,
            junction_c: t_eq,
        }
    }

    /// The full Figure 9 sweep: VDD from 0.8 V to 1.2 V in 50 mV steps.
    #[must_use]
    pub fn sweep(&self) -> Vec<VfPoint> {
        (0..=8)
            .map(|i| self.max_frequency(Volts(0.8 + 0.05 * f64::from(i))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Calibration;
    use crate::model::ChipCorner;
    use crate::tech::TechModel;

    fn chip(speed: f64, leakage: f64, dynamic: f64) -> PowerModel {
        PowerModel::new(
            Calibration::piton_hpca18(),
            TechModel::ibm32soi(),
            ChipCorner {
                speed,
                leakage,
                dynamic,
            },
        )
    }

    #[test]
    fn pll_ladder_quantizes_down() {
        let l = PllLadder::piton();
        let (q, next) = l.quantize(Hertz::from_mhz(514.0));
        assert!(q.as_mhz() <= 514.0);
        assert!(next.as_mhz() > 514.0);
        assert!((next.as_mhz() / q.as_mhz() - 1.035).abs() < 1e-9);
    }

    #[test]
    fn nominal_chip_matches_figure9_anchor() {
        let solver = VfSolver::new(chip(1.0, 1.0, 1.0), 20.0);
        let p = solver.max_frequency(Volts(1.0));
        // Chip #2 boots at ~514 MHz at 1.0 V (within quantization and IR
        // drop of the analog model).
        assert!(
            (430.0..530.0).contains(&p.freq.as_mhz()),
            "fmax {} MHz",
            p.freq.as_mhz()
        );
        assert!(!p.thermally_limited);
    }

    #[test]
    fn frequency_rises_with_voltage_for_typical_die() {
        let solver = VfSolver::new(chip(1.0, 1.0, 1.0), 20.0);
        let sweep = solver.sweep();
        for pair in sweep.windows(2) {
            assert!(
                pair[1].freq.0 >= pair[0].freq.0 * 0.99,
                "typical die throttled at {} V",
                pair[1].vdd
            );
        }
        // Dynamic range roughly matches the paper (286 -> 620 MHz).
        let ratio = sweep.last().unwrap().freq.0 / sweep[0].freq.0;
        assert!((1.5..=2.6).contains(&ratio), "sweep ratio {ratio}");
    }

    #[test]
    fn fast_leaky_die_throttles_at_high_voltage() {
        // Chip #1: fastest at low voltage, thermally limited at 1.2 V.
        let leaky = VfSolver::new(chip(1.06, 1.45, 1.12), 20.0);
        let typical = VfSolver::new(chip(1.0, 1.0, 1.0), 20.0);

        let low_leaky = leaky.max_frequency(Volts(0.8));
        let low_typ = typical.max_frequency(Volts(0.8));
        assert!(
            low_leaky.freq.0 > low_typ.freq.0,
            "leaky die should be fastest cold"
        );

        let hi = leaky.max_frequency(Volts(1.2));
        assert!(hi.thermally_limited, "no thermal limit at 1.2 V");
        // The paper's Chip #1 peaks before 1.2 V and drops severely
        // there: the 1.2 V point must fall below the sweep's peak.
        let peak = leaky
            .sweep()
            .iter()
            .map(|p| p.freq.0)
            .fold(0.0f64, f64::max);
        assert!(
            hi.freq.0 < 0.97 * peak,
            "frequency must drop at 1.2 V: {} vs peak {}",
            hi.freq.as_mhz(),
            peak / 1e6
        );
    }

    #[test]
    fn junction_temperature_reported_is_consistent() {
        let solver = VfSolver::new(chip(1.0, 1.0, 1.0), 20.0);
        let p = solver.max_frequency(Volts(1.0));
        assert!(p.junction_c > 20.0 && p.junction_c < T_JUNCTION_LIMIT_C + 1.0);
    }

    #[test]
    #[should_panic(expected = "below PLL ladder base")]
    fn quantize_below_ladder_panics() {
        let _ = PllLadder::piton().quantize(Hertz::from_mhz(10.0));
    }
}

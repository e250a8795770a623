//! The chip power model: activity window → per-rail power.
//!
//! [`PowerModel::power`] converts an [`ActivityCounters`] window from the
//! simulator into the three rail powers a Piton test board measures
//! through its sense resistors: VDD (core logic), VCS (SRAM arrays) and
//! VIO (I/O pads). Dynamic energy scales quadratically with voltage,
//! leakage scales polynomially with voltage and exponentially with
//! junction temperature, and each physical chip carries a process corner
//! that multiplies its speed, leakage and dynamic energy — the source of
//! the chip-to-chip differences in Figures 9 and 10.
//!
//! # Examples
//!
//! ```
//! use piton_power::model::{ChipCorner, OperatingPoint, PowerModel};
//! use piton_sim::events::ActivityCounters;
//!
//! let model = PowerModel::nominal();
//! let mut idle = ActivityCounters::default();
//! idle.cycles = 500_050; // 1 ms at 500.05 MHz
//! // Idle chips self-heat to a ~35 °C junction (Table V conditions).
//! let p = model.power(&idle, OperatingPoint::table_iii().with_junction(35.3));
//! // Table V: idle power ≈ 2015 mW.
//! assert!((p.total().as_mw() - 2015.3).abs() < 30.0);
//! ```

use piton_arch::config::MeasurementDefaults;
use piton_arch::units::{Hertz, Joules, Seconds, Volts, Watts};
use piton_sim::events::ActivityCounters;

use crate::calibration::Calibration;
use crate::energy::{self, Charge, SLOTS};
use crate::tech::TechModel;

/// The supplies (VDD, VCS, VIO) the calibrated energies and leakage are
/// quoted at: Table III.
const V_NOMINAL: [Volts; 3] = [Volts(1.0), Volts(1.05), Volts(1.8)];

/// The electrical/thermal operating point of a measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Core supply at the socket pins.
    pub vdd: Volts,
    /// SRAM supply at the socket pins.
    pub vcs: Volts,
    /// I/O supply.
    pub vio: Volts,
    /// Core clock frequency.
    pub freq: Hertz,
    /// Junction temperature in °C.
    pub junction_c: f64,
}

impl OperatingPoint {
    /// The Table III defaults at a typical heat-sunk junction
    /// temperature.
    #[must_use]
    pub fn table_iii() -> Self {
        let d = MeasurementDefaults::table_iii();
        Self {
            vdd: d.vdd,
            vcs: d.vcs,
            vio: d.vio,
            freq: d.core_clock,
            junction_c: 25.0,
        }
    }

    /// Same supplies with a different junction temperature.
    #[must_use]
    pub fn with_junction(mut self, t_c: f64) -> Self {
        self.junction_c = t_c;
        self
    }

    /// Same operating point at another VDD, tracking the paper's
    /// `VCS = VDD + 0.05 V` convention.
    #[must_use]
    pub fn with_vdd_tracked(mut self, vdd: Volts) -> Self {
        self.vdd = vdd;
        self.vcs = MeasurementDefaults::vcs_for(vdd);
        self
    }

    /// Same operating point at another frequency.
    #[must_use]
    pub fn with_freq(mut self, f: Hertz) -> Self {
        self.freq = f;
        self
    }
}

/// Process corner of one physical die: multipliers applied on top of the
/// nominal model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipCorner {
    /// Transistor speed multiplier (fast chips boot Linux at higher
    /// frequencies).
    pub speed: f64,
    /// Leakage multiplier (fast chips usually leak more).
    pub leakage: f64,
    /// Dynamic-energy multiplier (effective switched capacitance).
    pub dynamic: f64,
}

impl ChipCorner {
    /// The typical corner (Chip #2, the paper's workhorse die).
    #[must_use]
    pub fn typical() -> Self {
        Self {
            speed: 1.0,
            leakage: 1.0,
            dynamic: 1.0,
        }
    }
}

impl Default for ChipCorner {
    fn default() -> Self {
        Self::typical()
    }
}

/// Power broken down by supply rail — what the board's three sense
/// resistors report.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct RailPower {
    /// Core-logic rail.
    pub vdd: Watts,
    /// SRAM rail.
    pub vcs: Watts,
    /// I/O rail.
    pub vio: Watts,
}

impl RailPower {
    /// VDD + VCS — the chip power the paper reports (VIO excluded from
    /// EPI/idle numbers).
    #[must_use]
    pub fn total(&self) -> Watts {
        self.vdd + self.vcs
    }

    /// All three rails.
    #[must_use]
    pub fn total_with_io(&self) -> Watts {
        self.vdd + self.vcs + self.vio
    }
}

impl std::ops::Add for RailPower {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            vdd: self.vdd + rhs.vdd,
            vcs: self.vcs + rhs.vcs,
            vio: self.vio + rhs.vio,
        }
    }
}

/// The calibrated chip power model for one die.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    calib: Calibration,
    tech: TechModel,
    corner: ChipCorner,
    /// Each [`energy::TERMS`] entry's coefficients, read from `calib`.
    coefficients: [[f64; 2]; energy::TERMS.len()],
}

impl PowerModel {
    /// Model for a die at the given process corner.
    #[must_use]
    pub fn new(calib: Calibration, tech: TechModel, corner: ChipCorner) -> Self {
        Self {
            coefficients: energy::TERMS.map(|t| t.coefficients(&calib)),
            calib,
            tech,
            corner,
        }
    }

    /// The nominal (Chip #2-like) model with the paper calibration.
    #[must_use]
    pub fn nominal() -> Self {
        Self::new(
            Calibration::piton_hpca18(),
            TechModel::ibm32soi(),
            ChipCorner::typical(),
        )
    }

    /// The calibration table.
    #[must_use]
    pub fn calibration(&self) -> &Calibration {
        &self.calib
    }

    /// The technology model.
    #[must_use]
    pub fn tech(&self) -> &TechModel {
        &self.tech
    }

    /// The die's process corner.
    #[must_use]
    pub fn corner(&self) -> ChipCorner {
        self.corner
    }

    /// The dynamic-energy law: nominal energy (pJ) per rail of a window
    /// laid out in the per-rail [`energy::TERMS`] slots (VDD, VCS, VIO),
    /// summed term by term in table order. The cycle engine passes
    /// counts, the analytic twin per-cycle rates.
    #[must_use]
    pub fn dynamic_nominal_pj(&self, slots: [&[f64]; 3]) -> (f64, f64, f64) {
        let mut pj = [0.0; 3];
        for (t, &k) in energy::TERMS.iter().zip(&self.coefficients) {
            let e = t.pj(&slots[t.rail as usize][t.slot..], k);
            let sum = &mut pj[t.rail as usize];
            *sum = match t.charge {
                Charge::Credit(_) => (*sum - e).max(0.0),
                Charge::Issue(_) | Charge::Event(_) => *sum + e,
            };
        }
        (pj[0], pj[1], pj[2])
    }

    /// Static (leakage) power at an operating point.
    ///
    /// The junction temperature is clamped to the thermal model's
    /// physical ceiling so runaway feedback loops saturate rather than
    /// diverge.
    #[must_use]
    pub fn static_power(&self, op: OperatingPoint) -> RailPower {
        self.static_power_at(op, self.corner)
    }

    /// [`Self::static_power`] of a die at another process corner.
    #[must_use]
    pub fn static_power_at(&self, op: OperatingPoint, corner: ChipCorner) -> RailPower {
        let c = &self.calib;
        let t_scale = self.tech.leakage_temperature_scale(
            op.junction_c.min(crate::thermal::T_CLAMP_C),
            c.static_calibration_temp_c,
        ) * corner.leakage;
        let vdd_scale = self.tech.leakage_voltage_scale(op.vdd, V_NOMINAL[0]);
        let vcs_scale = self.tech.leakage_voltage_scale(op.vcs, V_NOMINAL[1]);
        RailPower {
            vdd: Watts::from_mw(c.static_vdd_mw * vdd_scale * t_scale),
            vcs: Watts::from_mw(c.static_vcs_mw * vcs_scale * t_scale),
            vio: Watts::from_mw(c.static_vio_mw),
        }
    }

    /// Dynamic rail power of the nominal energies `pj` (VDD, VCS, VIO)
    /// spent over `window` at an operating point, on a die at `corner`:
    /// voltage-scaled from the nominal supplies, VDD and VCS also by the
    /// corner's dynamic multiplier.
    #[must_use]
    pub fn dynamic_power(
        &self,
        pj: (f64, f64, f64),
        window: Seconds,
        op: OperatingPoint,
        corner: ChipCorner,
    ) -> RailPower {
        let vdd_scale = self.tech.dynamic_scale(op.vdd, V_NOMINAL[0]) * corner.dynamic;
        let vcs_scale = self.tech.dynamic_scale(op.vcs, V_NOMINAL[1]) * corner.dynamic;
        let vio_scale = self.tech.dynamic_scale(op.vio, V_NOMINAL[2]);
        RailPower {
            vdd: Joules::from_pj(pj.0 * vdd_scale) / window,
            vcs: Joules::from_pj(pj.1 * vcs_scale) / window,
            vio: Joules::from_pj(pj.2 * vio_scale) / window,
        }
    }

    /// Total rail power of an activity window at an operating point.
    ///
    /// The window's wall time is `a.cycles / op.freq`; dynamic energy is
    /// voltage-scaled and spread over that window, then leakage is added.
    ///
    /// # Panics
    ///
    /// Panics if the window contains no cycles.
    #[must_use]
    pub fn power(&self, a: &ActivityCounters, op: OperatingPoint) -> RailPower {
        assert!(a.cycles > 0, "empty activity window");
        let mut slots = ([0.0; SLOTS[0]], [0.0; SLOTS[1]], [0.0; SLOTS[2]]);
        energy::read_slots(a, [&mut slots.0, &mut slots.1, &mut slots.2]);
        let pj = self.dynamic_nominal_pj([&slots.0, &slots.1, &slots.2]);
        let window: Seconds = op.freq.period() * a.cycles as f64;
        self.dynamic_power(pj, window, op, self.corner) + self.static_power(op)
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::nominal()
    }
}

#[cfg(test)]
mod tests {
    use piton_arch::isa::Opcode;

    use super::*;

    fn idle_window(cycles: u64) -> ActivityCounters {
        ActivityCounters {
            cycles,
            ..Default::default()
        }
    }

    #[test]
    fn idle_power_matches_table_v_at_idle_junction() {
        // An idle chip under the §III-C cooling self-heats to ≈ 35 °C;
        // Table V's 2015.3 mW is measured there.
        let m = PowerModel::nominal();
        let op = OperatingPoint::table_iii().with_junction(35.3);
        let p = m.power(&idle_window(1_000_000), op);
        assert!(
            (p.total().as_mw() - 2015.3).abs() < 30.0,
            "idle {} mW",
            p.total().as_mw()
        );
    }

    #[test]
    fn static_power_matches_table_v() {
        let m = PowerModel::nominal();
        let s = m.static_power(OperatingPoint::table_iii());
        assert!(
            (s.total().as_mw() - 389.3).abs() < 1.0,
            "static {} mW",
            s.total().as_mw()
        );
    }

    #[test]
    fn idle_power_scales_with_frequency() {
        let m = PowerModel::nominal();
        let op = OperatingPoint::table_iii();
        let half = op.with_freq(Hertz::from_mhz(250.0));
        let p_full = m.power(&idle_window(1_000_000), op);
        let p_half = m.power(&idle_window(1_000_000), half);
        // Dynamic halves; static unchanged.
        let dyn_full = p_full.total().as_mw() - 389.3;
        let dyn_half = p_half.total().as_mw() - 389.3;
        assert!((dyn_half / dyn_full - 0.5).abs() < 0.02);
    }

    #[test]
    fn power_scales_quadratically_with_voltage() {
        let m = PowerModel::nominal();
        let base = OperatingPoint::table_iii();
        let hi = base.with_vdd_tracked(Volts(1.2));
        let p_base = m.power(&idle_window(100_000), base);
        let p_hi = m.power(&idle_window(100_000), hi);
        assert!(p_hi.total() > p_base.total() * 1.3);
    }

    #[test]
    fn leakage_rises_exponentially_with_temperature() {
        let m = PowerModel::nominal();
        let cold = m.static_power(OperatingPoint::table_iii().with_junction(25.0));
        let warm = m.static_power(OperatingPoint::table_iii().with_junction(55.0));
        let hot = m.static_power(OperatingPoint::table_iii().with_junction(85.0));
        let r1 = warm.total() / cold.total();
        let r2 = hot.total() / warm.total();
        assert!((r1 - r2).abs() < 0.02, "not exponential: {r1} vs {r2}");
        assert!(r1 > 2.0);
    }

    #[test]
    fn leaky_corner_raises_static_only() {
        let leaky = PowerModel::new(
            Calibration::piton_hpca18(),
            TechModel::ibm32soi(),
            ChipCorner {
                speed: 1.05,
                leakage: 1.4,
                dynamic: 1.0,
            },
        );
        let nominal = PowerModel::nominal();
        let op = OperatingPoint::table_iii();
        let s_ratio = leaky.static_power(op).total() / nominal.static_power(op).total();
        assert!((s_ratio - 1.4).abs() < 1e-9);
    }

    #[test]
    fn instructions_add_power_over_idle() {
        let m = PowerModel::nominal();
        let op = OperatingPoint::table_iii();
        let mut busy = idle_window(1_000_000);
        // 25 cores issuing an add every cycle with random operands.
        for _ in 0..25 {
            for _ in 0..10 {
                busy.record_issue(Opcode::Add, 1, 0.5);
            }
        }
        busy.issues[Opcode::Add.index()] = 25_000_000;
        busy.operand_activity[Opcode::Add.index()] = 12_500_000.0;
        busy.l1i_accesses = 25_000_000;
        let p_busy = m.power(&busy, op);
        let p_idle = m.power(&idle_window(1_000_000), op);
        let delta = p_busy.total() - p_idle.total();
        // 25 cores × ~95 pJ/add + fetch ≈ 25 × 110 pJ/cycle × 500 MHz ≈ 1.4 W.
        assert!((1.0..2.0).contains(&delta.0), "delta {} W", delta.0);
    }

    #[test]
    #[should_panic(expected = "empty activity window")]
    fn empty_window_panics() {
        let m = PowerModel::nominal();
        let _ = m.power(&ActivityCounters::default(), OperatingPoint::table_iii());
    }

    #[test]
    fn vio_power_tracks_bridge_traffic() {
        let m = PowerModel::nominal();
        let op = OperatingPoint::table_iii();
        let mut a = idle_window(1_000_000);
        a.chip_bridge_flits = 100_000;
        let p = m.power(&a, op);
        let p_idle = m.power(&idle_window(1_000_000), op);
        assert!(p.vio > p_idle.vio);
    }
}

//! Technology-level scaling laws for the 32 nm SOI process.
//!
//! Two relations underpin the whole power model:
//!
//! * **Dynamic energy** scales with the square of the supply voltage
//!   (`E = α·C·V²`): every calibrated per-event energy is referenced to
//!   the nominal supplies of Table III and scaled by `(V/V_nom)²` at
//!   other operating points.
//! * **Gate delay** follows the alpha-power law, so the maximum
//!   operating frequency rises with voltage as
//!   `f_max ∝ (V − V_t)^α / V`. The paper's Figure 9 (maximum frequency
//!   at which Linux boots versus VDD) is the observable of this law,
//!   moderated by IR drop and thermal limits.
//!
//! # Examples
//!
//! ```
//! use piton_arch::units::Volts;
//! use piton_power::tech::TechModel;
//!
//! let tech = TechModel::ibm32soi();
//! // Dynamic energy at 0.8 V is (0.8)² = 0.64 of nominal.
//! let s = tech.dynamic_scale(Volts(0.8), Volts(1.0));
//! assert!((s - 0.64).abs() < 1e-12);
//! ```

use piton_arch::units::{Hertz, Volts};

/// Process-level constants of the IBM 32 nm SOI technology model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechModel {
    /// Effective threshold voltage for the alpha-power delay law.
    pub v_threshold: Volts,
    /// Velocity-saturation exponent α of the alpha-power law.
    pub alpha: f64,
    /// Frequency the delay law is calibrated to at `v_calibration`.
    pub f_calibration: Hertz,
    /// Supply voltage of the calibration point (at the *die*, after IR
    /// drop).
    pub v_calibration: Volts,
    /// Leakage voltage exponent (`P_leak ∝ V^γ`).
    pub leakage_gamma: f64,
    /// Leakage temperature e-folding constant in kelvin
    /// (`P_leak ∝ exp((T − T₀)/T_k)`).
    pub leakage_t_k: f64,
}

impl TechModel {
    /// The calibrated Piton process model.
    ///
    /// `v_threshold` and `alpha` are fitted to the Figure 9 frequency
    /// ratios (f(1.0 V)/f(0.8 V) ≈ 1.8, f(1.15 V)/f(1.0 V) ≈ 1.2);
    /// the calibration point is Chip #2's 514.33 MHz at 1.0 V.
    #[must_use]
    pub fn ibm32soi() -> Self {
        Self {
            v_threshold: Volts(0.60),
            alpha: 1.2,
            f_calibration: Hertz::from_mhz(514.33),
            v_calibration: Volts(1.0),
            leakage_gamma: 4.5,
            leakage_t_k: 35.0,
        }
    }

    /// Dynamic-energy scale factor for operating at `v` relative to the
    /// nominal `v_nom`: `(v / v_nom)²`.
    #[must_use]
    pub fn dynamic_scale(&self, v: Volts, v_nom: Volts) -> f64 {
        let r = v.0 / v_nom.0;
        r * r
    }

    /// Leakage-power scale for voltage `v` relative to `v_nom`:
    /// `(v / v_nom)^γ`.
    #[must_use]
    pub fn leakage_voltage_scale(&self, v: Volts, v_nom: Volts) -> f64 {
        (v.0 / v_nom.0).powf(self.leakage_gamma)
    }

    /// Leakage-power scale for junction temperature `t_c` (°C) relative
    /// to the calibration temperature `t0_c`.
    #[must_use]
    pub fn leakage_temperature_scale(&self, t_c: f64, t0_c: f64) -> f64 {
        ((t_c - t0_c) / self.leakage_t_k).exp()
    }

    /// Alpha-power-law maximum frequency at die voltage `v` (before
    /// quantization and thermal limiting). Returns zero at or below
    /// threshold.
    #[must_use]
    pub fn fmax(&self, v: Volts) -> Hertz {
        if v.0 <= self.v_threshold.0 {
            return Hertz(0.0);
        }
        let drive = |vv: f64| (vv - self.v_threshold.0).powf(self.alpha) / vv;
        let k = self.f_calibration.0 / drive(self.v_calibration.0);
        Hertz(k * drive(v.0))
    }
}

impl Default for TechModel {
    fn default() -> Self {
        Self::ibm32soi()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_energy_is_quadratic() {
        let t = TechModel::ibm32soi();
        assert!((t.dynamic_scale(Volts(1.2), Volts(1.0)) - 1.44).abs() < 1e-12);
        assert!((t.dynamic_scale(Volts(1.0), Volts(1.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fmax_matches_figure9_ratios() {
        let t = TechModel::ibm32soi();
        let f08 = t.fmax(Volts(0.8)).as_mhz();
        let f10 = t.fmax(Volts(1.0)).as_mhz();
        let f115 = t.fmax(Volts(1.15)).as_mhz();
        // Calibration point.
        assert!((f10 - 514.33).abs() < 0.01);
        // Paper: 514.33 / 285.74 ≈ 1.80.
        let low_ratio = f10 / f08;
        assert!((1.6..=2.0).contains(&low_ratio), "ratio {low_ratio}");
        // Paper: 621.49 / 514.33 ≈ 1.21.
        let high_ratio = f115 / f10;
        assert!((1.1..=1.35).contains(&high_ratio), "ratio {high_ratio}");
    }

    #[test]
    fn fmax_is_zero_below_threshold() {
        let t = TechModel::ibm32soi();
        assert_eq!(t.fmax(Volts(0.5)), Hertz(0.0));
        assert_eq!(t.fmax(Volts(0.6)), Hertz(0.0));
    }

    #[test]
    fn fmax_is_monotonic_in_voltage() {
        let t = TechModel::ibm32soi();
        let mut prev = 0.0;
        for mv in (650..1300).step_by(25) {
            let f = t.fmax(Volts(f64::from(mv) / 1000.0)).0;
            assert!(f > prev, "non-monotonic at {mv} mV");
            prev = f;
        }
    }

    #[test]
    fn leakage_scales() {
        let t = TechModel::ibm32soi();
        // One e-folding per 35 °C.
        let s = t.leakage_temperature_scale(60.0, 25.0);
        assert!((s - std::f64::consts::E).abs() < 1e-9);
        // Cooler than calibration shrinks leakage.
        assert!(t.leakage_temperature_scale(15.0, 25.0) < 1.0);
        // Higher voltage leaks more than linearly.
        assert!(t.leakage_voltage_scale(Volts(1.2), Volts(1.0)) > 1.2);
    }
}

//! The paper's measurement methodology (§III-A, §IV-E, §IV-G).
//!
//! Three formulas drive the characterization:
//!
//! * **EPI** (§IV-E): run the instruction's assembly test on all 25
//!   cores, measure steady-state power, subtract idle, convert to
//!   energy per cycle, multiply by the instruction's latency:
//!
//!   `EPI = (1/25) × (P_inst − P_idle) / f × L`
//!
//! * **EPF** (§IV-G): dummy packets enter through the chip bridge with
//!   seven valid flits every 47 cycles; relative to the zero-hop
//!   baseline:
//!
//!   `EPF = (47/7) × (P_hop − P_base) / f`
//!
//! * **Energy per completed operation** (used for Table VII, where the
//!   L2-miss path serializes): `E = (P − P_idle) × t_window / n_ops`,
//!   which reduces to the EPI formula whenever the chip completes 25
//!   concurrent operations per latency window.

use piton_arch::error::PitonError;
use piton_arch::units::{Hertz, Joules, Seconds, Watts};

/// Core count of the EPI methodology.
pub const EPI_CORES: f64 = 25.0;

/// Bridge pattern constants of the EPF methodology.
pub const EPF_PATTERN_CYCLES: f64 = 47.0;
/// Valid flits per bridge pattern.
pub const EPF_PATTERN_FLITS: f64 = 7.0;

/// A value with a propagated standard deviation, as every measurement
/// in the paper is reported.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct WithError {
    /// Mean value.
    pub value: f64,
    /// One standard deviation.
    pub error: f64,
}

impl WithError {
    /// Creates a value ± error.
    #[must_use]
    pub fn new(value: f64, error: f64) -> Self {
        Self { value, error }
    }
}

impl std::fmt::Display for WithError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let prec = f.precision().unwrap_or(2);
        write!(f, "{:.*}±{:.*}", prec, self.value, prec, self.error)
    }
}

/// §IV-E EPI formula. Powers in watts, frequency in hertz, latency in
/// cycles; returns picojoules.
#[must_use]
pub fn epi_pj(p_inst: Watts, p_idle: Watts, f: Hertz, latency: u64) -> f64 {
    let per_cycle = (p_inst.0 - p_idle.0) / f.0 / EPI_CORES;
    per_cycle * latency as f64 * 1e12
}

/// §IV-E EPI formula with error propagation (errors add in quadrature
/// through the subtraction).
#[must_use]
pub fn epi_with_error(
    p_inst: Watts,
    p_inst_err: Watts,
    p_idle: Watts,
    p_idle_err: Watts,
    f: Hertz,
    latency: u64,
) -> WithError {
    let value = epi_pj(p_inst, p_idle, f, latency);
    let sigma_p = (p_inst_err.0.powi(2) + p_idle_err.0.powi(2)).sqrt();
    let error = sigma_p / f.0 / EPI_CORES * latency as f64 * 1e12;
    WithError::new(value, error)
}

/// §IV-G EPF formula: picojoules per flit from the hop-count power
/// delta.
#[must_use]
pub fn epf_pj(p_hop: Watts, p_base: Watts, f: Hertz) -> f64 {
    (EPF_PATTERN_CYCLES / EPF_PATTERN_FLITS) * (p_hop.0 - p_base.0) / f.0 * 1e12
}

/// Energy per completed operation: `(P − P_idle) × t / n`, in
/// nanojoules.
#[must_use]
pub fn energy_per_op_nj(p: Watts, p_idle: Watts, window: Seconds, ops: u64) -> f64 {
    assert!(ops > 0, "no operations completed");
    let e: Joules = (p - p_idle) * window;
    e.as_nj() / ops as f64
}

/// Ordinary least-squares line fit `y = a + b·x`; returns `(a, b)`.
///
/// Used for the paper's trendlines (pJ/hop in Figure 12, mW/core in
/// Figure 13). A fault-holed sweep can leave too few surviving points,
/// so the degenerate cases are reported, not panicked.
///
/// # Errors
///
/// [`PitonError::DegenerateFit`] with fewer than two points or zero
/// x-variance.
pub fn linear_fit(points: &[(f64, f64)]) -> Result<(f64, f64), PitonError> {
    if points.len() < 2 {
        return Err(PitonError::DegenerateFit {
            points: points.len(),
            reason: "need at least two points to fit",
        });
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() <= 1e-12 {
        return Err(PitonError::DegenerateFit {
            points: points.len(),
            reason: "degenerate x values",
        });
    }
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    Ok((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epi_formula_matches_hand_computation() {
        // 25 cores, 1.194 W over idle at 500.05 MHz, L=3:
        // (1/25) x 1.194/500.05e6 x 3 = 286.5 pJ (the ldx anchor).
        let e = epi_pj(
            Watts(2.0153 + 1.194),
            Watts(2.0153),
            Hertz::from_mhz(500.05),
            3,
        );
        assert!((e - 286.5).abs() < 1.0, "epi {e}");
    }

    #[test]
    fn epi_error_propagates_in_quadrature() {
        let we = epi_with_error(
            Watts(3.0),
            Watts(0.003),
            Watts(2.0),
            Watts(0.004),
            Hertz::from_mhz(500.0),
            10,
        );
        let expected_err =
            (0.003f64.powi(2) + 0.004f64.powi(2)).sqrt() / 500.0e6 / 25.0 * 10.0 * 1e12;
        assert!((we.error - expected_err).abs() < 1e-9);
        assert!(we.value > 0.0);
    }

    #[test]
    fn epf_formula_matches_hand_computation() {
        // 11.16 pJ/flit at 4 hops = 44.64 pJ -> ΔP = 44.64 x 7/47 x f.
        let f = Hertz::from_mhz(500.05);
        let dp = 44.64e-12 * 7.0 / 47.0 * f.0;
        let e = epf_pj(Watts(2.0 + dp), Watts(2.0), f);
        assert!((e - 44.64).abs() < 0.01, "epf {e}");
    }

    #[test]
    fn energy_per_op_reduces_to_epi_under_concurrency() {
        // 25 concurrent ops of latency L: n = 25 x t x f / L.
        let f = Hertz::from_mhz(500.0);
        let window = Seconds(1.0);
        let latency = 3u64;
        let n = (25.0 * window.0 * f.0 / latency as f64) as u64;
        let p_delta = Watts(1.194);
        let per_op = energy_per_op_nj(Watts(2.0) + p_delta, Watts(2.0), window, n);
        let epi = epi_pj(Watts(2.0) + p_delta, Watts(2.0), f, latency) / 1e3;
        assert!((per_op - epi).abs() / epi < 1e-6);
    }

    #[test]
    fn linear_fit_recovers_line() {
        let pts: Vec<(f64, f64)> = (0..9)
            .map(|x| (x as f64, 3.58 + 11.16 * x as f64))
            .collect();
        let (a, b) = linear_fit(&pts).unwrap();
        assert!((a - 3.58).abs() < 1e-9);
        assert!((b - 11.16).abs() < 1e-9);
    }

    #[test]
    fn fit_reports_degenerate_inputs_instead_of_panicking() {
        assert_eq!(
            linear_fit(&[(1.0, 1.0)]).unwrap_err(),
            PitonError::DegenerateFit {
                points: 1,
                reason: "need at least two points to fit"
            }
        );
        // Two points at the same x: zero x-variance.
        let e = linear_fit(&[(2.0, 1.0), (2.0, 5.0)]).unwrap_err();
        assert!(
            matches!(
                e,
                PitonError::DegenerateFit {
                    points: 2,
                    reason: "degenerate x values"
                }
            ),
            "{e}"
        );
    }

    #[test]
    fn with_error_displays() {
        let w = WithError::new(286.46, 0.89);
        assert_eq!(format!("{w:.2}"), "286.46±0.89");
    }
}

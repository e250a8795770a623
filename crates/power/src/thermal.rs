//! Lumped-RC thermal model of the packaged Piton die and its cooling.
//!
//! The paper's §IV-J thermal study (and the thermal limiting visible in
//! Figure 9) hinge on the package: the die is wire-bonded cavity-up under
//! epoxy in a socketed ceramic QFP, so the junction-to-surface thermal
//! resistance is high, and the removable heat-sink/fan stack (§III-C)
//! sets the surface-to-ambient resistance. We model two thermal nodes:
//!
//! * the **junction** (die + cavity), low capacitance, coupled to
//! * the **surface** (package/spreader/heat-sink mass), high capacitance,
//!   convecting to ambient.
//!
//! Fan airflow (or, in the Figure 17 experiment, fan *angle*) modulates
//! the convective resistance. The power↔temperature feedback loop —
//! leakage rises with temperature, raising power, raising temperature —
//! is closed by [`ThermalModel::equilibrium`], and its transient form
//! produces the Figure 18 hysteresis.
//!
//! # Examples
//!
//! ```
//! use piton_power::thermal::{Cooling, ThermalModel};
//! use piton_arch::units::Watts;
//!
//! let mut t = ThermalModel::new(Cooling::HeatsinkFan, 20.0);
//! let (junction, _surface) = t.steady_state(Watts(2.0));
//! assert!(junction > 20.0 && junction < 60.0);
//! ```

use piton_arch::units::{Seconds, Watts};

use crate::model::RailPower;

/// Physical ceiling of the model: beyond this the real part would have
/// shut down (or desoldered itself); the transient clamps here so
/// unstable operating points saturate instead of running away to
/// infinity.
pub const T_CLAMP_C: f64 = 125.0;

/// Room temperature of the virtual bench (°C; Table III, §IV-J).
pub const ROOM_AMBIENT_C: f64 = 20.0;

/// Share of the chip's total rail power (VIO included) that heats the
/// package; the rest leaves through the board.
pub const HEATING_SHARE: f64 = 0.9;

/// Where the bench's equilibrium solves give up: a leakage loop still
/// climbing at this junction temperature is thermal runaway and is
/// reported here.
pub const EQUILIBRIUM_CAP_C: f64 = 120.0;

/// Cooling configuration of the test setup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cooling {
    /// The §III-C stock heat sink with aluminium spacers plus the 44 cfm
    /// case fan (the default for every study except §IV-J).
    HeatsinkFan,
    /// Heat sink removed, fan aimed at the bare package with the given
    /// effectiveness in `[0, 1]` (1 = fan square-on, 0 = fan turned
    /// away) — the Figure 17 temperature-sweep mechanism.
    BarePackageFan {
        /// Fractional fan effectiveness.
        effectiveness: f64,
    },
}

impl Cooling {
    /// Junction-to-surface thermal resistance in °C/W (package-internal:
    /// die, epoxy, spreader).
    #[must_use]
    pub fn r_junction_surface(self) -> f64 {
        5.0
    }

    /// Surface-to-ambient convective resistance in °C/W.
    #[must_use]
    pub fn r_surface_ambient(self) -> f64 {
        match self {
            Cooling::HeatsinkFan => 3.0,
            Cooling::BarePackageFan { effectiveness } => {
                let e = effectiveness.clamp(0.0, 1.0);
                // Fan square-on: ~16 °C/W; turned away: ~26 °C/W
                // (fitted to the Figure 17 temperature band; the bare
                // ceramic package under direct airflow).
                26.0 - 10.0 * e
            }
        }
    }

    /// Thermal capacitance of the surface node in J/°C (heat-sink mass
    /// versus bare ceramic package).
    #[must_use]
    pub fn c_surface(self) -> f64 {
        match self {
            Cooling::HeatsinkFan => 20.0,
            Cooling::BarePackageFan { .. } => 5.0,
        }
    }
}

/// The two-node transient thermal model.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalModel {
    cooling: Cooling,
    ambient_c: f64,
    /// Junction node capacitance in J/°C.
    c_junction: f64,
    t_junction: f64,
    t_surface: f64,
}

impl ThermalModel {
    /// Creates a model at thermal equilibrium with the ambient.
    #[must_use]
    pub fn new(cooling: Cooling, ambient_c: f64) -> Self {
        Self {
            cooling,
            ambient_c,
            c_junction: 0.2,
            t_junction: ambient_c,
            t_surface: ambient_c,
        }
    }

    /// The cooling configuration.
    #[must_use]
    pub fn cooling(&self) -> Cooling {
        self.cooling
    }

    /// Ambient temperature in °C.
    #[must_use]
    pub fn ambient_c(&self) -> f64 {
        self.ambient_c
    }

    /// Current junction temperature in °C.
    #[must_use]
    pub fn junction_c(&self) -> f64 {
        self.t_junction
    }

    /// Current package-surface temperature in °C (what the FLIR camera
    /// of §IV-J images).
    #[must_use]
    pub fn surface_c(&self) -> f64 {
        self.t_surface
    }

    /// Advances the transient model by `dt` with dissipated power `p`.
    ///
    /// Uses sub-stepping to stay stable for large `dt`.
    pub fn step(&mut self, p: Watts, dt: Seconds) {
        let r_js = self.cooling.r_junction_surface();
        let r_sa = self.cooling.r_surface_ambient();
        let c_s = self.cooling.c_surface();

        // Sub-step at a fraction of the fastest time constant.
        let tau_fast = (r_js * self.c_junction).min(r_sa * c_s);
        let max_h = (tau_fast / 4.0).max(1e-3);
        let mut remaining = dt.0.max(0.0);
        while remaining > 0.0 {
            let h = remaining.min(max_h);
            let q_js = (self.t_junction - self.t_surface) / r_js;
            let q_sa = (self.t_surface - self.ambient_c) / r_sa;
            self.t_junction = (self.t_junction + h * (p.0 - q_js) / self.c_junction)
                .clamp(self.ambient_c.min(self.t_junction), T_CLAMP_C);
            self.t_surface = (self.t_surface + h * (q_js - q_sa) / c_s)
                .clamp(self.ambient_c.min(self.t_surface), T_CLAMP_C);
            remaining -= h;
        }
    }

    /// Steady-state `(junction, surface)` temperatures for constant
    /// power `p` (without leakage feedback).
    #[must_use]
    pub fn steady_state(&self, p: Watts) -> (f64, f64) {
        let surface = self.ambient_c + p.0 * self.cooling.r_surface_ambient();
        let junction = surface + p.0 * self.cooling.r_junction_surface();
        (junction, surface)
    }

    /// Jumps the model to the steady state of power `p`.
    pub fn settle(&mut self, p: Watts) {
        let (j, s) = self.steady_state(p);
        self.t_junction = j;
        self.t_surface = s;
    }

    /// Jumps the model to the steady-state profile whose junction sits
    /// at `t_j` (used when an equilibrium solve already found the
    /// junction temperature).
    pub fn settle_to_junction(&mut self, t_j: f64) {
        let r_sa = self.cooling.r_surface_ambient();
        let r_js = self.cooling.r_junction_surface();
        self.t_junction = t_j;
        self.t_surface = self.ambient_c + (t_j - self.ambient_c) * r_sa / (r_sa + r_js);
    }

    /// Closes the power↔temperature feedback loop: `power_at(t_junction)`
    /// gives the chip's power at a junction temperature (leakage rises
    /// with temperature); the fixed point is the thermal equilibrium.
    ///
    /// Returns `(junction_c, power)`; diverging loops (thermal runaway)
    /// are capped at `t_max_c` and reported at that temperature.
    pub fn equilibrium<F>(&self, power_at: F, t_max_c: f64) -> (f64, Watts)
    where
        F: Fn(f64) -> Watts,
    {
        let mut t = self.ambient_c;
        for _ in 0..200 {
            let p = power_at(t);
            let (j, _) = self.steady_state(p);
            let next = t + 0.5 * (j - t); // damped iteration
            if next >= t_max_c {
                return (t_max_c, power_at(t_max_c));
            }
            if (next - t).abs() < 1e-4 {
                return (next, power_at(next));
            }
            t = next;
        }
        (t, power_at(t))
    }

    /// Settles the model at the leakage-aware fixed point of a warm-up
    /// window — `power_at(t_junction)` is the chip's total rail power
    /// (VIO included), of which [`HEATING_SHARE`] heats the package —
    /// and returns the junction temperature (capped at
    /// [`EQUILIBRIUM_CAP_C`]).
    pub fn settle_warm_junction<F>(&mut self, power_at: F) -> f64
    where
        F: Fn(f64) -> Watts,
    {
        let (t_j, _) = self.equilibrium(|t| power_at(t) * HEATING_SHARE, EQUILIBRIUM_CAP_C);
        self.settle_to_junction(t_j);
        t_j
    }

    /// The leakage-only fixed point with clocks grounded (Table V's
    /// static reading): `leak_at(t_junction)` is the chip's rail
    /// leakage, all of it (VIO included) heating the package. Returns
    /// the leakage at the equilibrium junction (capped at
    /// [`EQUILIBRIUM_CAP_C`]); the model's own state is untouched.
    pub fn static_equilibrium<F>(&self, leak_at: F) -> RailPower
    where
        F: Fn(f64) -> RailPower,
    {
        let (t_j, _) = self.equilibrium(|t| leak_at(t).total_with_io(), EQUILIBRIUM_CAP_C);
        leak_at(t_j)
    }
}

/// Fixed-timestep integrator over a [`ThermalModel`] — the single
/// shared way the thermal-camera example, the Figure 17/18 experiments
/// and the closed-loop governor advance the RC model, so every consumer
/// integrates the exact same transient (no hand-rolled Euler steps to
/// drift apart).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalStep {
    dt: Seconds,
}

impl ThermalStep {
    /// A stepper with timestep `dt_seconds`.
    ///
    /// # Panics
    ///
    /// Panics if the timestep is not strictly positive.
    #[must_use]
    pub fn new(dt_seconds: f64) -> Self {
        assert!(
            dt_seconds > 0.0,
            "thermal timestep must be positive, got {dt_seconds}"
        );
        Self {
            dt: Seconds(dt_seconds),
        }
    }

    /// The fixed timestep.
    #[must_use]
    pub fn dt(&self) -> Seconds {
        self.dt
    }

    /// Advances `model` by one timestep with dissipated power `p`,
    /// returning the resulting `(junction_c, surface_c)`.
    pub fn advance(&self, model: &mut ThermalModel, p: Watts) -> (f64, f64) {
        model.step(p, self.dt);
        (model.junction_c(), model.surface_c())
    }

    /// Integrates a whole power trace, returning the `(junction_c,
    /// surface_c)` trajectory (one entry per input power, after that
    /// step). The thermal-camera example plots exactly this.
    #[must_use]
    pub fn trajectory(&self, model: &mut ThermalModel, powers: &[Watts]) -> Vec<(f64, f64)> {
        powers.iter().map(|&p| self.advance(model, p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_scales_with_power_and_resistance() {
        let t = ThermalModel::new(Cooling::HeatsinkFan, 20.0);
        let (j2, s2) = t.steady_state(Watts(2.0));
        assert!((s2 - 26.0).abs() < 1e-9); // 20 + 2*3
        assert!((j2 - 36.0).abs() < 1e-9); // 26 + 2*5

        let bare = ThermalModel::new(Cooling::BarePackageFan { effectiveness: 0.0 }, 20.0);
        let (j_bare, _) = bare.steady_state(Watts(0.6));
        assert!(j_bare > 35.0, "bare package runs hot: {j_bare}");
    }

    #[test]
    fn fan_effectiveness_cools_the_package() {
        let on = Cooling::BarePackageFan { effectiveness: 1.0 };
        let off = Cooling::BarePackageFan { effectiveness: 0.0 };
        assert!(on.r_surface_ambient() < off.r_surface_ambient());
        // Heat sink beats any bare-package fan setting.
        assert!(Cooling::HeatsinkFan.r_surface_ambient() < on.r_surface_ambient());
    }

    #[test]
    fn transient_approaches_steady_state() {
        let mut t = ThermalModel::new(Cooling::HeatsinkFan, 20.0);
        let p = Watts(2.0);
        for _ in 0..5_000 {
            t.step(p, Seconds(0.1));
        }
        let (j, s) = t.steady_state(p);
        assert!(
            (t.junction_c() - j).abs() < 0.2,
            "{} vs {j}",
            t.junction_c()
        );
        assert!((t.surface_c() - s).abs() < 0.2);
    }

    #[test]
    fn transient_lags_behind_steps() {
        // The thermal mass means the surface moves slowly — the substrate
        // of the Figure 18 hysteresis.
        let mut t = ThermalModel::new(Cooling::BarePackageFan { effectiveness: 0.5 }, 20.0);
        t.settle(Watts(0.6));
        let before = t.surface_c();
        t.step(Watts(0.9), Seconds(1.0));
        let after = t.surface_c();
        let (_, target) = t.steady_state(Watts(0.9));
        assert!(after > before);
        assert!(after < target, "surface jumped instantly");
    }

    #[test]
    fn equilibrium_finds_leakage_fixed_point() {
        let t = ThermalModel::new(Cooling::HeatsinkFan, 20.0);
        // Power rises gently with temperature: stable fixed point.
        let (tj, p) = t.equilibrium(|tc| Watts(2.0 + 0.005 * (tc - 20.0)), 120.0);
        assert!(tj > 20.0 && tj < 60.0, "tj {tj}");
        assert!(p.0 > 2.0);
        // Steady state at the fixed point is self-consistent.
        let (j, _) = t.steady_state(p);
        assert!((j - tj).abs() < 0.5);
    }

    #[test]
    fn warm_settle_heats_with_the_share_and_settles_the_profile() {
        let power = |t: f64| Watts(2.0 + 0.01 * (t - ROOM_AMBIENT_C));
        let mut m = ThermalModel::new(Cooling::HeatsinkFan, ROOM_AMBIENT_C);
        let t_j = m.settle_warm_junction(power);
        let (want, _) = m.equilibrium(|t| power(t) * HEATING_SHARE, EQUILIBRIUM_CAP_C);
        assert_eq!(t_j, want);
        let mut settled = ThermalModel::new(Cooling::HeatsinkFan, ROOM_AMBIENT_C);
        settled.settle_to_junction(want);
        assert_eq!(m, settled);

        let runaway = |t: f64| Watts(((t - ROOM_AMBIENT_C) / 5.0).exp());
        assert_eq!(m.settle_warm_junction(runaway), EQUILIBRIUM_CAP_C);
    }

    #[test]
    fn runaway_is_capped() {
        let t = ThermalModel::new(Cooling::BarePackageFan { effectiveness: 0.0 }, 20.0);
        // Strongly temperature-dependent power: runaway.
        let (tj, _) = t.equilibrium(|tc| Watts(1.0 * ((tc - 20.0) / 30.0).exp()), 95.0);
        assert_eq!(tj, 95.0);
    }

    #[test]
    fn thermal_step_matches_direct_stepping() {
        // The shared integrator must be bit-identical to calling
        // `ThermalModel::step` directly — it is the same integration,
        // packaged once.
        let powers: Vec<Watts> = (0..40)
            .map(|i| Watts(0.5 + 0.4 * f64::from(i % 7)))
            .collect();
        let mut direct = ThermalModel::new(Cooling::BarePackageFan { effectiveness: 0.5 }, 20.0);
        let mut stepped = direct.clone();
        let traj = ThermalStep::new(1.0).trajectory(&mut stepped, &powers);
        for (k, &p) in powers.iter().enumerate() {
            direct.step(p, Seconds(1.0));
            assert_eq!(traj[k], (direct.junction_c(), direct.surface_c()));
        }
        assert_eq!(stepped, direct);
    }

    #[test]
    #[should_panic(expected = "timestep must be positive")]
    fn thermal_step_rejects_zero_dt() {
        let _ = ThermalStep::new(0.0);
    }

    #[test]
    fn settle_matches_steady_state() {
        let mut t = ThermalModel::new(Cooling::HeatsinkFan, 22.0);
        t.settle(Watts(3.0));
        let (j, s) = t.steady_state(Watts(3.0));
        assert_eq!(t.junction_c(), j);
        assert_eq!(t.surface_c(), s);
    }
}

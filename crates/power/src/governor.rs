//! Closed-loop DVFS + thermal governor.
//!
//! The paper's Figure 9 annotations ("thermally limited at 1.2 V") and
//! the Figure 18 hysteresis study are the visible traces of a feedback
//! loop: frequency capability rolls off as the die heats, leakage grows
//! with temperature, and the operating point the chip can actually hold
//! is the fixed point of that loop. [`Governor`] closes it explicitly —
//! a deterministic, fixed-timestep controller in the THEAS style
//! (power management as a feedback controller over live activity):
//! per control step it reads the simulated junction temperature and the
//! last activity window, consults the V/F capability curve
//! ([`crate::vf::VfSolver::capability`]), and picks the next operating
//! point from a [`GovernorConfig`] policy.
//!
//! The controller's state is a PLL **ladder index** (integer), not a
//! raw frequency — transitions are exact integer arithmetic, so the
//! production controller and the step-by-step [`Reference`] controller
//! (compiled in like `Machine::run_naive`, for the determinism
//! property test) can be compared for equality, bit for bit.
//!
//! Invariants the conformance suite pins (`tests/governor_properties.rs`):
//!
//! 1. **Capability bound** — the chosen frequency never exceeds the
//!    quantized V/F capability at the current junction temperature.
//! 2. **Monotone** — from identical controller state, a hotter die
//!    never yields a higher chosen frequency.
//! 3. **Fixed point** — under constant load the closed loop converges
//!    to one operating point and stays there.
//! 4. **Determinism** — identical to the reference controller, and
//!    byte-identical across sweep-worker counts.

use piton_arch::units::{Hertz, Volts};
use piton_sim::events::ActivityCounters;
use serde::{Deserialize, Serialize};

use crate::model::OperatingPoint;
use crate::vf::{PllLadder, VfSolver, T_JUNCTION_LIMIT_C};

/// Hysteresis band below [`T_JUNCTION_LIMIT_C`]: the throttle policy
/// only *raises* frequency while the junction sits at least this far
/// under the boot limit, so one ladder step's worth of extra heat
/// cannot ping-pong the controller across the limit.
pub const THROTTLE_HEADROOM_C: f64 = 4.0;

/// Relative improvement the energy-frontier policy demands before
/// leaving its current operating point (switching hysteresis — without
/// it, two grid points with near-equal energy could trade places every
/// control step as the die temperature breathes).
pub const FRONTIER_SWITCH_MARGIN: f64 = 0.02;

/// Governor policy knob (`reproduce --governor`). `Off` (the default)
/// keeps every historical code path byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum GovernorConfig {
    /// No governor: open-loop operation, exactly as before this module
    /// existed.
    #[default]
    Off,
    /// Paper-faithful Figure 9 behaviour: hold the highest frequency at
    /// which the junction stays bootable, walking one PLL step at a
    /// time with a hysteresis band (the chip "throttles on boot"). The
    /// boot PLL setpoint is a *ceiling*: the policy throttles below it
    /// and recovers at most back to it, never past it.
    ThrottleOnBoot,
    /// Jump straight to the capability curve every step (finish fast,
    /// then idle), backing off only when the junction crosses the boot
    /// limit.
    RaceToHalt,
    /// Search the VDD grid for the feasible operating point with the
    /// lowest energy per cycle of the *current* workload — no paper
    /// analogue; the frontier Figure 9 never measured.
    EnergyFrontier,
}

impl GovernorConfig {
    /// Is the governor disabled?
    #[must_use]
    pub fn is_off(self) -> bool {
        self == GovernorConfig::Off
    }

    /// Stable CLI/spec name (`--governor=NAME`).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            GovernorConfig::Off => "off",
            GovernorConfig::ThrottleOnBoot => "throttle-on-boot",
            GovernorConfig::RaceToHalt => "race-to-halt",
            GovernorConfig::EnergyFrontier => "energy-frontier",
        }
    }

    /// Parses a [`Self::label`] name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim() {
            "off" => Ok(GovernorConfig::Off),
            "throttle-on-boot" => Ok(GovernorConfig::ThrottleOnBoot),
            "race-to-halt" => Ok(GovernorConfig::RaceToHalt),
            "energy-frontier" => Ok(GovernorConfig::EnergyFrontier),
            other => Err(format!(
                "unknown governor policy '{other}' \
                 (expected off, throttle-on-boot, race-to-halt or energy-frontier)"
            )),
        }
    }
}

impl std::fmt::Display for GovernorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One control decision: the operating point to hold for the next
/// control step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingChoice {
    /// Core rail setpoint (VCS tracks at +0.05 V).
    pub vdd: Volts,
    /// Chosen (ladder-quantized) core clock.
    pub freq: Hertz,
    /// Whether this step was limited by temperature rather than by the
    /// capability curve — the junction was at or above the boot limit.
    pub thermally_limited: bool,
}

/// Lifetime accounting of one governor instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GovernorStats {
    /// Control steps taken.
    pub steps: u64,
    /// Steps whose decision changed the operating point.
    pub transitions: u64,
    /// Steps decided at or above the thermal limit (throttle residency).
    pub throttled_steps: u64,
}

/// The VDD grid the energy-frontier policy searches: the Figure 9
/// sweep's nine points, 0.8 V to 1.2 V in 50 mV steps.
fn vdd_grid() -> impl Iterator<Item = Volts> {
    (0..=8).map(|i| Volts(0.8 + 0.05 * f64::from(i)))
}

/// Controller state shared by the production and reference
/// implementations: everything a decision depends on besides the
/// inputs of the step itself.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ControlState {
    vdd: Volts,
    /// Current PLL ladder index (integer operating point).
    index: u32,
}

/// The closed-loop governor. Owns the capability model; the thermal
/// state stays with the system driving the loop, which feeds the
/// junction temperature in each step.
#[derive(Debug, Clone)]
pub struct Governor {
    policy: GovernorConfig,
    solver: VfSolver,
    state: ControlState,
    /// The boot-programmed ladder index: [`GovernorConfig::ThrottleOnBoot`]
    /// never climbs above it (the PLL setpoint is the chip's maximum;
    /// the governor only throttles below it and recovers back).
    ceiling: u32,
    stats: GovernorStats,
}

impl Governor {
    /// A governor running `policy` over the capability model `solver`,
    /// starting at rail `vdd` and the highest ladder step not exceeding
    /// `start_freq`.
    ///
    /// # Panics
    ///
    /// Panics if `policy` is [`GovernorConfig::Off`] (an off governor
    /// must never be constructed — the caller gates on `is_off`), or if
    /// `start_freq` is below the PLL ladder.
    #[must_use]
    pub fn new(policy: GovernorConfig, solver: VfSolver, vdd: Volts, start_freq: Hertz) -> Self {
        assert!(!policy.is_off(), "cannot construct an Off governor");
        let index = solver.ladder().index_of(start_freq);
        Self {
            policy,
            solver,
            state: ControlState { vdd, index },
            ceiling: index,
            stats: GovernorStats::default(),
        }
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> GovernorConfig {
        self.policy
    }

    /// Current rail setpoint.
    #[must_use]
    pub fn vdd(&self) -> Volts {
        self.state.vdd
    }

    /// Current chosen frequency (a PLL ladder point).
    #[must_use]
    pub fn frequency(&self) -> Hertz {
        self.solver.ladder().frequency(self.state.index)
    }

    /// The capability model.
    #[must_use]
    pub fn solver(&self) -> &VfSolver {
        &self.solver
    }

    /// Lifetime statistics.
    #[must_use]
    pub fn stats(&self) -> GovernorStats {
        self.stats
    }

    /// One fixed-timestep control decision from the current junction
    /// temperature and the last activity window.
    pub fn step(&mut self, t_junction_c: f64, window: &ActivityCounters) -> OperatingChoice {
        self.step_sagged(t_junction_c, window, 1.0)
    }

    /// [`Self::step`] under a supply brownout: the rails deliver `sag`
    /// (≤ 1.0) of their setpoints, so the capability curve is evaluated
    /// at the sagged voltage — a mid-run brownout *lowers* what the
    /// governor may choose.
    pub fn step_sagged(
        &mut self,
        t_junction_c: f64,
        window: &ActivityCounters,
        sag: f64,
    ) -> OperatingChoice {
        let (next, limited) = decide(
            self.policy,
            &self.solver,
            self.state,
            self.ceiling,
            t_junction_c,
            window,
            sag,
        );
        self.stats.steps += 1;
        self.stats.throttled_steps += u64::from(limited);
        if next != self.state {
            self.stats.transitions += 1;
        }
        self.state = next;
        OperatingChoice {
            vdd: self.state.vdd,
            freq: self.frequency(),
            thermally_limited: limited,
        }
    }
}

/// Ladder index of the quantized capability at `(vdd × sag, t_j)`,
/// computed via the closed-form [`PllLadder::index_of`].
fn capability_index(solver: &VfSolver, ladder: PllLadder, vdd: Volts, t_j: f64, sag: f64) -> u32 {
    ladder.index_of(solver.capability(Volts(vdd.0 * sag), t_j))
}

/// Energy per cycle (J) of `window` replayed at ladder step `index` of
/// rail `vdd`, junction `t_j` — the frontier policy's ranking metric.
/// Dynamic energy per cycle is frequency-independent; leakage energy
/// per cycle shrinks as frequency rises, which is what makes the
/// frontier non-trivial.
fn energy_per_cycle(
    solver: &VfSolver,
    ladder: PllLadder,
    vdd: Volts,
    index: u32,
    t_j: f64,
    window: &ActivityCounters,
) -> f64 {
    let f = ladder.frequency(index);
    let op = OperatingPoint::table_iii()
        .with_vdd_tracked(vdd)
        .with_freq(f)
        .with_junction(t_j);
    let p = solver.model().power(window, op).total();
    p.0 / f.0
}

/// Thermal feasibility of holding ladder step `index` at rail `vdd`:
/// the boot-workload equilibrium junction must stay bootable. Depends
/// only on `(vdd, index)` — not on the instantaneous temperature — so
/// the feasible set cannot flap as the die breathes.
fn frontier_feasible(solver: &VfSolver, ladder: PllLadder, vdd: Volts, index: u32) -> bool {
    solver.equilibrium_junction(vdd, ladder.frequency(index)) <= T_JUNCTION_LIMIT_C
}

/// The pure control law: next state and throttle flag from the current
/// state and step inputs. Shared by [`Governor::step_sagged`]; the
/// [`Reference`] controller re-derives the same semantics
/// independently (linear ladder scans, reversed grid iteration) so the
/// determinism property test compares two genuinely different
/// computations.
fn decide(
    policy: GovernorConfig,
    solver: &VfSolver,
    state: ControlState,
    ceiling: u32,
    t_j: f64,
    window: &ActivityCounters,
    sag: f64,
) -> (ControlState, bool) {
    let ladder = solver.ladder();
    let cap = capability_index(solver, ladder, state.vdd, t_j, sag);
    match policy {
        GovernorConfig::Off => unreachable!("Off governors are never constructed"),
        GovernorConfig::ThrottleOnBoot => {
            let hot = t_j >= T_JUNCTION_LIMIT_C;
            let cool = t_j <= T_JUNCTION_LIMIT_C - THROTTLE_HEADROOM_C;
            let walked = if hot {
                state.index.saturating_sub(1)
            } else if cool && state.index < cap.min(ceiling) {
                state.index + 1
            } else {
                state.index
            };
            (
                ControlState {
                    vdd: state.vdd,
                    index: walked.min(cap).min(ceiling),
                },
                hot,
            )
        }
        GovernorConfig::RaceToHalt => {
            let hot = t_j >= T_JUNCTION_LIMIT_C;
            let index = if hot {
                state.index.min(cap).saturating_sub(1)
            } else {
                cap
            };
            (
                ControlState {
                    vdd: state.vdd,
                    index,
                },
                hot,
            )
        }
        GovernorConfig::EnergyFrontier => {
            // Rank the VDD grid (each at its own quantized capability,
            // feasibility-filtered) by energy per cycle, ascending VDD
            // with strict improvement — ties resolve to the lowest
            // rail.
            let mut best: Option<(Volts, u32, f64)> = None;
            for v in vdd_grid() {
                let idx = capability_index(solver, ladder, v, t_j, sag);
                if !frontier_feasible(solver, ladder, v, idx) {
                    continue;
                }
                let e = energy_per_cycle(solver, ladder, v, idx, t_j, window);
                if best.is_none_or(|(_, _, be)| e < be) {
                    best = Some((v, idx, e));
                }
            }
            let Some((bv, bi, be)) = best else {
                // Nothing on the grid holds the boot limit (a pathological
                // cooling setup): throttle in place like the boot policy.
                let hot = t_j >= T_JUNCTION_LIMIT_C;
                let index = if hot {
                    state.index.min(cap).saturating_sub(1)
                } else {
                    state.index.min(cap)
                };
                return (
                    ControlState {
                        vdd: state.vdd,
                        index,
                    },
                    true,
                );
            };
            // Switching hysteresis: hold the current point unless the
            // winner improves on it by the margin. The current point is
            // re-clamped to its own capability first (never exceed the
            // curve, even while holding).
            let held = ControlState {
                vdd: state.vdd,
                index: state.index.min(cap),
            };
            let here = energy_per_cycle(solver, ladder, held.vdd, held.index, t_j, window);
            let switch =
                (bv, bi) != (held.vdd, held.index) && be < here * (1.0 - FRONTIER_SWITCH_MARGIN);
            let next = if switch {
                ControlState { vdd: bv, index: bi }
            } else {
                held
            };
            (next, t_j >= T_JUNCTION_LIMIT_C)
        }
    }
}

/// The step-by-step reference controller, a test oracle like
/// `Machine::run_naive`: same semantics as [`Governor`], independently
/// re-derived — capability indices by linear ladder scan instead of the closed-form floor, the
/// frontier grid walked in descending order with a mirrored tie-break.
/// The determinism property test locksteps the two and requires equal
/// decisions at every step.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct Reference {
    policy: GovernorConfig,
    solver: VfSolver,
    state: ControlState,
    /// Boot setpoint ceiling, mirroring [`Governor::new`]'s capture.
    ceiling: u32,
}

impl Reference {
    /// Mirror of [`Governor::new`].
    ///
    /// # Panics
    ///
    /// Panics if `policy` is `Off` (mirroring [`Governor::new`]).
    #[must_use]
    pub fn new(policy: GovernorConfig, solver: VfSolver, vdd: Volts, start_freq: Hertz) -> Self {
        assert!(!policy.is_off(), "cannot construct an Off reference");
        let index = Self::scan_index(&solver, start_freq);
        Self {
            policy,
            solver,
            state: ControlState { vdd, index },
            ceiling: index,
        }
    }

    /// Largest ladder index whose frequency does not exceed `f`, by
    /// linear scan from the base (the definitional form of
    /// [`PllLadder::index_of`]).
    fn scan_index(solver: &VfSolver, f: Hertz) -> u32 {
        let ladder = solver.ladder();
        let mut i = 0u32;
        while ladder.frequency(i + 1).0 <= f.0 {
            i += 1;
        }
        i
    }

    /// Current chosen frequency.
    #[must_use]
    pub fn frequency(&self) -> Hertz {
        self.solver.ladder().frequency(self.state.index)
    }

    /// Mirror of [`Governor::step_sagged`].
    pub fn step_sagged(
        &mut self,
        t_j: f64,
        window: &ActivityCounters,
        sag: f64,
    ) -> OperatingChoice {
        let ladder = self.solver.ladder();
        let cap = Self::scan_index(
            &self.solver,
            self.solver.capability(Volts(self.state.vdd.0 * sag), t_j),
        );
        let (next, limited) = match self.policy {
            GovernorConfig::Off => unreachable!("Off references are never constructed"),
            GovernorConfig::ThrottleOnBoot => {
                let hot = t_j >= T_JUNCTION_LIMIT_C;
                let cool = t_j <= T_JUNCTION_LIMIT_C - THROTTLE_HEADROOM_C;
                let walked = if hot {
                    self.state.index.saturating_sub(1)
                } else if cool && self.state.index < cap.min(self.ceiling) {
                    self.state.index + 1
                } else {
                    self.state.index
                };
                (
                    ControlState {
                        vdd: self.state.vdd,
                        index: walked.min(cap).min(self.ceiling),
                    },
                    hot,
                )
            }
            GovernorConfig::RaceToHalt => {
                let hot = t_j >= T_JUNCTION_LIMIT_C;
                let index = if hot {
                    self.state.index.min(cap).saturating_sub(1)
                } else {
                    cap
                };
                (
                    ControlState {
                        vdd: self.state.vdd,
                        index,
                    },
                    hot,
                )
            }
            GovernorConfig::EnergyFrontier => {
                // Descending grid walk keeping better-or-equal: the
                // winner is the lowest-VDD point of minimal energy —
                // the same point the ascending strict walk selects.
                let mut best: Option<(Volts, u32, f64)> = None;
                let grid: Vec<Volts> = vdd_grid().collect();
                for &v in grid.iter().rev() {
                    let idx = Self::scan_index(
                        &self.solver,
                        self.solver.capability(Volts(v.0 * sag), t_j),
                    );
                    if !frontier_feasible(&self.solver, ladder, v, idx) {
                        continue;
                    }
                    let e = energy_per_cycle(&self.solver, ladder, v, idx, t_j, window);
                    if best.is_none_or(|(_, _, be)| e <= be) {
                        best = Some((v, idx, e));
                    }
                }
                match best {
                    Some((bv, bi, be)) => {
                        let held = ControlState {
                            vdd: self.state.vdd,
                            index: self.state.index.min(cap),
                        };
                        let here = energy_per_cycle(
                            &self.solver,
                            ladder,
                            held.vdd,
                            held.index,
                            t_j,
                            window,
                        );
                        let switch = (bv, bi) != (held.vdd, held.index)
                            && be < here * (1.0 - FRONTIER_SWITCH_MARGIN);
                        (
                            if switch {
                                ControlState { vdd: bv, index: bi }
                            } else {
                                held
                            },
                            t_j >= T_JUNCTION_LIMIT_C,
                        )
                    }
                    None => {
                        let hot = t_j >= T_JUNCTION_LIMIT_C;
                        let index = if hot {
                            self.state.index.min(cap).saturating_sub(1)
                        } else {
                            self.state.index.min(cap)
                        };
                        (
                            ControlState {
                                vdd: self.state.vdd,
                                index,
                            },
                            true,
                        )
                    }
                }
            }
        };
        self.state = next;
        OperatingChoice {
            vdd: self.state.vdd,
            freq: self.frequency(),
            thermally_limited: limited,
        }
    }
}

/// A small idle-shaped activity window for callers that need a decision
/// before any cycles ran (e.g. the first control step after reset).
#[must_use]
pub fn idle_window(cycles: u64) -> ActivityCounters {
    ActivityCounters {
        cycles: cycles.max(1),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Calibration;
    use crate::model::{ChipCorner, PowerModel};
    use crate::tech::TechModel;

    fn solver(speed: f64, leakage: f64, dynamic: f64) -> VfSolver {
        VfSolver::new(
            PowerModel::new(
                Calibration::piton_hpca18(),
                TechModel::ibm32soi(),
                ChipCorner {
                    speed,
                    leakage,
                    dynamic,
                },
            ),
            20.0,
        )
    }

    fn window() -> ActivityCounters {
        idle_window(10_000)
    }

    #[test]
    fn config_labels_round_trip() {
        for c in [
            GovernorConfig::Off,
            GovernorConfig::ThrottleOnBoot,
            GovernorConfig::RaceToHalt,
            GovernorConfig::EnergyFrontier,
        ] {
            assert_eq!(GovernorConfig::parse(c.label()).unwrap(), c);
        }
        assert!(GovernorConfig::parse("turbo").is_err());
        assert!(GovernorConfig::default().is_off());
    }

    #[test]
    #[should_panic(expected = "cannot construct an Off governor")]
    fn off_governor_is_unconstructible() {
        let _ = Governor::new(
            GovernorConfig::Off,
            solver(1.0, 1.0, 1.0),
            Volts(1.0),
            Hertz::from_mhz(500.0),
        );
    }

    #[test]
    fn throttle_walks_down_when_hot_and_up_when_cool() {
        let s = solver(1.0, 1.0, 1.0);
        let mut g = Governor::new(
            GovernorConfig::ThrottleOnBoot,
            s,
            Volts(1.0),
            Hertz::from_mhz(400.0),
        );
        let f0 = g.frequency();
        let hot = g.step(T_JUNCTION_LIMIT_C + 5.0, &window());
        assert!(hot.thermally_limited);
        assert!(hot.freq.0 < f0.0, "hot step must lower frequency");
        let f1 = g.frequency();
        let cool = g.step(30.0, &window());
        assert!(!cool.thermally_limited);
        assert!(cool.freq.0 > f1.0, "cool step must raise frequency");
        assert_eq!(g.stats().steps, 2);
        assert_eq!(g.stats().throttled_steps, 1);
        assert_eq!(g.stats().transitions, 2);
    }

    #[test]
    fn throttle_holds_inside_the_hysteresis_band() {
        let s = solver(1.0, 1.0, 1.0);
        let mut g = Governor::new(
            GovernorConfig::ThrottleOnBoot,
            s,
            Volts(1.0),
            Hertz::from_mhz(300.0),
        );
        let before = g.frequency();
        // Inside the band: neither hot enough to throttle nor cool
        // enough to raise.
        let c = g.step(T_JUNCTION_LIMIT_C - THROTTLE_HEADROOM_C / 2.0, &window());
        assert_eq!(c.freq, before);
        assert_eq!(g.stats().transitions, 0);
    }

    #[test]
    fn race_to_halt_jumps_to_capability() {
        let s = solver(1.0, 1.0, 1.0);
        let cap = s.ladder().index_of(s.capability(Volts(1.0), 40.0));
        let mut g = Governor::new(
            GovernorConfig::RaceToHalt,
            s,
            Volts(1.0),
            Hertz::from_mhz(60.0),
        );
        let c = g.step(40.0, &window());
        assert_eq!(c.freq, g.solver().ladder().frequency(cap));
    }

    #[test]
    fn brownout_sag_lowers_the_choice() {
        let s = solver(1.0, 1.0, 1.0);
        let mut nominal = Governor::new(
            GovernorConfig::RaceToHalt,
            s.clone(),
            Volts(1.0),
            Hertz::from_mhz(300.0),
        );
        let mut sagged = Governor::new(
            GovernorConfig::RaceToHalt,
            s,
            Volts(1.0),
            Hertz::from_mhz(300.0),
        );
        let full = nominal.step(40.0, &window());
        let brown = sagged.step_sagged(40.0, &window(), 0.85);
        assert!(
            brown.freq.0 < full.freq.0,
            "sagged capability must be lower: {} vs {}",
            brown.freq,
            full.freq
        );
    }

    #[test]
    fn energy_frontier_picks_a_feasible_grid_point() {
        let s = solver(1.0, 1.0, 1.0);
        let mut g = Governor::new(
            GovernorConfig::EnergyFrontier,
            s,
            Volts(1.0),
            Hertz::from_mhz(300.0),
        );
        let c = g.step(45.0, &window());
        // The chosen point must respect its own capability curve.
        let cap = g.solver().capability(c.vdd, 45.0);
        assert!(c.freq.0 <= cap.0);
        assert!(!c.thermally_limited);
    }

    #[test]
    fn reference_matches_production_on_a_mixed_trajectory() {
        for policy in [
            GovernorConfig::ThrottleOnBoot,
            GovernorConfig::RaceToHalt,
            GovernorConfig::EnergyFrontier,
        ] {
            let s = solver(1.06, 1.45, 1.12);
            let mut prod = Governor::new(policy, s.clone(), Volts(1.1), Hertz::from_mhz(450.0));
            let mut refc = Reference::new(policy, s, Volts(1.1), Hertz::from_mhz(450.0));
            let temps = [30.0, 60.0, 96.0, 97.0, 94.0, 80.0, 91.5, 99.0, 40.0, 25.0];
            for (k, &t) in temps.iter().enumerate() {
                let sag = if k % 3 == 2 { 0.9 } else { 1.0 };
                let a = prod.step_sagged(t, &window(), sag);
                let b = refc.step_sagged(t, &window(), sag);
                assert_eq!(a, b, "{policy} diverged at step {k} (t={t})");
            }
        }
    }
}

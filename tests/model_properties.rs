//! Property tests of the cache, memory and monitor building blocks,
//! plus the analog models the DVFS governor closes its loop over: the
//! V/F capability curve and the package RC network.

use proptest::prelude::*;

use piton::arch::config::CacheConfig;
use piton::arch::units::{Seconds, Volts, Watts};
use piton::board::monitor::{MeasurementWindow, MonitorChannel};
use piton::power::thermal::{Cooling, ThermalModel, ThermalStep};
use piton::power::vf::VfSolver;
use piton::power::{Calibration, ChipCorner, PowerModel, TechModel};
use piton::sim::cache::{LineState, SetAssocCache};
use piton::sim::mem::Memory;

mod common;

fn vf_solver(speed: f64, leakage: f64, dynamic: f64) -> VfSolver {
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

/// Asserts the analog capability curve never dips as VDD rises across
/// the Figure 9 grid at a fixed junction temperature.
fn assert_capability_monotone_in_vdd(solver: &VfSolver, t_j: f64) {
    let mut prev = 0.0f64;
    for i in 0..=8u32 {
        let vdd = Volts(0.8 + 0.05 * f64::from(i));
        let f = solver.capability(vdd, t_j).0;
        assert!(
            f >= prev - 1e-6,
            "capability dipped at {:.2} V, t={t_j}: {f} < {prev}",
            vdd.0
        );
        prev = f;
    }
}

proptest! {
    /// LRU invariant: after any insertion sequence, the most recently
    /// inserted `associativity` distinct lines of a set are resident.
    #[test]
    fn lru_keeps_the_most_recent_ways(lines in proptest::collection::vec(0u64..32, 1..64)) {
        // Single-set cache: 4 ways of 16 B.
        let mut c = SetAssocCache::new(CacheConfig::new(64, 4, 16));
        for (t, &line) in lines.iter().enumerate() {
            // All addresses map to set 0 (only one set exists).
            c.insert(line * 16, LineState::Shared, t as u64);
        }
        // Most recent distinct lines (up to 4) must be present.
        let mut seen = Vec::new();
        for &line in lines.iter().rev() {
            if !seen.contains(&line) {
                seen.push(line);
            }
            if seen.len() == 4 {
                break;
            }
        }
        for &line in &seen {
            prop_assert_eq!(
                c.peek(line * 16),
                Some(LineState::Shared),
                "recent line {} evicted",
                line
            );
        }
        prop_assert!(c.valid_lines() <= 4);
    }

    /// Functional memory: the last write to each word wins, CAS included.
    #[test]
    fn memory_last_write_wins(ops in proptest::collection::vec((0u64..64, any::<u64>(), any::<bool>()), 1..200)) {
        let mut m = Memory::new();
        let mut model = std::collections::HashMap::new();
        for (slot, value, use_cas) in ops {
            let addr = 0x100 + slot * 8;
            if use_cas {
                let current = model.get(&addr).copied().unwrap_or(0);
                let old = m.compare_and_swap(addr, current, value);
                prop_assert_eq!(old, current);
                model.insert(addr, value);
            } else {
                m.write(addr, value);
                model.insert(addr, value);
            }
        }
        for (addr, value) in model {
            prop_assert_eq!(m.read(addr), value);
        }
    }

    /// Monitor sampling is unbiased within its noise floor for any
    /// power level and seed.
    #[test]
    fn monitor_is_unbiased(power_mw in 10.0f64..6_000.0, seed in 0u64..1_000) {
        let truth = Watts(power_mw / 1e3);
        let mut chan = MonitorChannel::piton_board(seed);
        let w: MeasurementWindow = (0..512).map(|_| chan.sample(truth)).collect();
        let bias = (w.mean().unwrap().0 - truth.0).abs();
        // 512 samples: standard error ≈ σ/√512; allow 6 standard errors.
        let sigma = 1.5e-3 + 5.0e-4 * truth.0 + 0.5e-3; // + LSB slack
        prop_assert!(bias < 6.0 * sigma / (512f64).sqrt() + 0.3e-3, "bias {bias}");
        prop_assert!(w.stddev().unwrap().0 > 0.0);
    }

    /// Measurement windows aggregate linearly: splitting the samples
    /// into two windows and pooling the means equals the single-window
    /// mean.
    #[test]
    fn window_means_pool(samples in proptest::collection::vec(0.5f64..4.0, 2..64)) {
        prop_assume!(samples.len() % 2 == 0);
        let all: MeasurementWindow = samples.iter().map(|&w| Watts(w)).collect();
        let half = samples.len() / 2;
        let a: MeasurementWindow = samples[..half].iter().map(|&w| Watts(w)).collect();
        let b: MeasurementWindow = samples[half..].iter().map(|&w| Watts(w)).collect();
        let pooled = (a.mean().unwrap().0 + b.mean().unwrap().0) / 2.0;
        prop_assert!((pooled - all.mean().unwrap().0).abs() < 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// V/F capability is monotone nondecreasing in VDD at any fixed
    /// junction temperature up to the thermal knee (the boot limit) —
    /// more voltage never costs analog frequency before heat enters
    /// the picture.
    #[test]
    fn capability_is_monotone_in_vdd_below_the_knee(
        corner in (0.9f64..1.1, 0.8f64..1.5, 0.9f64..1.15),
        t_j in 20.0f64..95.0,
    ) {
        let s = vf_solver(corner.0, corner.1, corner.2);
        assert_capability_monotone_in_vdd(&s, t_j);
    }

    /// RC step response under constant power is monotone rising and
    /// bounded between ambient and the closed-form steady state — the
    /// integrator can neither overshoot nor undershoot the network it
    /// discretizes.
    #[test]
    fn rc_step_response_is_bounded_and_monotone(
        p_mw in 10.0f64..20_000.0,
        eff in 0.0f64..1.0,
        dt in 0.05f64..4.0,
    ) {
        let p = Watts(p_mw / 1e3);
        let mut m = ThermalModel::new(Cooling::BarePackageFan { effectiveness: eff }, 20.0);
        let (steady_j, _) = m.steady_state(p);
        let stepper = ThermalStep::new(dt);
        let mut last = m.junction_c();
        for _ in 0..300 {
            let (j, s_c) = stepper.advance(&mut m, p);
            prop_assert!(j >= 20.0 - 1e-9 && s_c >= 20.0 - 1e-9, "fell below ambient");
            prop_assert!(j <= steady_j + 1e-6, "junction {j} overshot steady state {steady_j}");
            prop_assert!(j >= last - 1e-9, "step response not monotone: {j} < {last}");
            last = j;
        }
    }

    /// Cooling an unpowered die from a settled hot junction is monotone
    /// decreasing and never undershoots ambient.
    #[test]
    fn cooling_curve_is_monotone_decreasing(
        t_hot in 30.0f64..120.0,
        eff in 0.0f64..1.0,
        dt in 0.05f64..4.0,
    ) {
        let mut m = ThermalModel::new(Cooling::BarePackageFan { effectiveness: eff }, 20.0);
        m.settle_to_junction(t_hot);
        let stepper = ThermalStep::new(dt);
        let mut last = m.junction_c();
        for _ in 0..300 {
            let (j, _) = stepper.advance(&mut m, Watts(0.0));
            prop_assert!(j >= 20.0 - 1e-9, "cooled below ambient: {j}");
            prop_assert!(j <= last + 1e-9, "cooling not monotone: {j} > {last}");
            last = j;
        }
    }
}

/// Replays the pinned shrink input of the capability-monotonicity
/// property (see `tests/common`): the leakiest corner a hair under the
/// knee, where IR drop bites hardest.
#[test]
fn capability_monotone_pinned_replay() {
    let s = vf_solver(1.0, common::pinned::VF_MONOTONE_LEAKAGE, 1.0);
    assert_capability_monotone_in_vdd(&s, common::pinned::VF_MONOTONE_T_J);
}

/// The thermal-camera example's cooldown (same constants as
/// `examples/thermal_camera.rs::cooldown_trajectory`: §IV-J rig settled
/// at 80 °C, unpowered, twelve 5 s steps) must match a raw
/// `ThermalModel::step` integration exactly — `ThermalStep` is a
/// packaging of the crate's RC path, not a second integrator.
#[test]
fn thermal_camera_cooldown_matches_a_raw_rc_integration() {
    let rig = || {
        let mut m = ThermalModel::new(Cooling::BarePackageFan { effectiveness: 0.5 }, 20.0);
        m.settle_to_junction(80.0);
        m
    };
    let mut via_stepper = rig();
    let trajectory = ThermalStep::new(5.0).trajectory(&mut via_stepper, &[Watts(0.0); 12]);
    assert_eq!(trajectory.len(), 12);

    let mut raw = rig();
    for (k, &(junction_c, surface_c)) in trajectory.iter().enumerate() {
        raw.step(Watts(0.0), Seconds(5.0));
        assert_eq!(
            (raw.junction_c(), raw.surface_c()),
            (junction_c, surface_c),
            "trajectories diverged at step {k}"
        );
    }
    // And it genuinely cools: strictly below the start, above ambient.
    let (last_j, _) = *trajectory.last().unwrap();
    assert!((20.0..80.0).contains(&last_j), "final junction {last_j}");
}

// --- Analytic fast-path model properties -------------------------------

use piton::characterization::analytic::features::{self, Features};
use piton::characterization::analytic::AnalyticModel;
use piton::power::OperatingPoint;

/// A random per-cycle rate profile: every feature in `[0, 2)` per
/// cycle, with the cycle rate pinned at 1 (rates are per-cycle by
/// definition) and the drafted-issue rate zeroed so the VDD clamp in
/// [`AnalyticModel::dynamic_nominal_pj`] stays out of play for the
/// linearity properties.
fn rate_profile() -> impl Strategy<Value = Features> {
    (
        proptest::collection::vec(
            0.0f64..2.0,
            features::VDD_FEATURES..features::VDD_FEATURES + 1,
        ),
        proptest::collection::vec(
            0.0f64..2.0,
            features::VCS_FEATURES..features::VCS_FEATURES + 1,
        ),
        proptest::collection::vec(
            0.0f64..2.0,
            features::VIO_FEATURES..features::VIO_FEATURES + 1,
        ),
    )
        .prop_map(|(vdd, vcs, vio)| {
            let mut f = Features { vdd, vcs, vio };
            f.vdd[features::CYCLES] = 1.0;
            f.vdd[features::DRAFTED] = 0.0;
            f
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Analytic rail power is finite and non-negative for any rate
    /// profile and operating point — leakage floors it, the VDD clamp
    /// guards the drafted-issue credit.
    #[test]
    fn analytic_power_is_nonnegative_and_finite(
        rates in rate_profile(),
        vdd in 0.8f64..1.2,
        t_j in 20.0f64..110.0,
        drafted in 0.0f64..4.0,
    ) {
        let mut rates = rates;
        rates.vdd[features::DRAFTED] = drafted;
        let m = AnalyticModel::reference();
        let op = OperatingPoint::table_iii()
            .with_vdd_tracked(Volts(vdd))
            .with_junction(t_j);
        let p = m.power(&rates, op, ChipCorner::typical());
        for w in [p.vdd, p.vcs, p.vio] {
            prop_assert!(w.0.is_finite() && w.0 >= 0.0, "rail power {w:?}");
        }
    }

    /// Total analytic power is monotone non-decreasing in VDD at fixed
    /// work and frequency: both the dynamic voltage scale and the
    /// leakage curves rise with voltage.
    #[test]
    fn analytic_power_is_monotone_in_vdd(
        rates in rate_profile(),
        t_j in 20.0f64..95.0,
    ) {
        let m = AnalyticModel::reference();
        let mut prev = 0.0f64;
        for i in 0..=8u32 {
            let vdd = Volts(0.8 + 0.05 * f64::from(i));
            let op = OperatingPoint::table_iii()
                .with_vdd_tracked(vdd)
                .with_junction(t_j);
            let total = m.power(&rates, op, ChipCorner::typical()).total_with_io().0;
            prop_assert!(
                total >= prev - 1e-12,
                "power dipped at {:.2} V: {total} < {prev}",
                vdd.0
            );
            prev = total;
        }
    }

    /// Dynamic energy is additive across workload mixes: blending two
    /// rate profiles blends their nominal energies, per rail — the
    /// property the design-space mix table is built on.
    #[test]
    fn analytic_dynamic_energy_is_additive_across_mixes(
        a in rate_profile(),
        b in rate_profile(),
        k in 0.0f64..2.0,
    ) {
        let m = AnalyticModel::reference();
        let mut mix = a.clone();
        mix.add_scaled(&b, k);
        let pa = m.dynamic_nominal_pj(&a);
        let pb = m.dynamic_nominal_pj(&b);
        let pm = m.dynamic_nominal_pj(&mix);
        for (got, want) in [
            (pm.0, pa.0 + k * pb.0),
            (pm.1, pa.1 + k * pb.1),
            (pm.2, pa.2 + k * pb.2),
        ] {
            prop_assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "mix energy {got} != {want}"
            );
        }
    }

}

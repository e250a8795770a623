//! The analytic fast-path backend: a second answer to the bench's
//! measurement calls, checked against the cycle engine.
//!
//! The cycle engine is the oracle: it simulates every core, cache and
//! flit and reads power off the modelled rails. The analytic model
//! ([`model`]) runs the cycle engine's own power law — the same term
//! table, voltage scaling and leakage code — on per-cycle activity
//! rates. Those rates are what is approximated: a small library of
//! cycle-level probes ([`battery`]) measures them, and
//! [`AnalyticBench`] answers the power experiments' [`Bench`] calls
//! from it with one table sum per evaluation, so every figure is
//! derived by its experiment module alone. A conformance layer
//! ([`compare`]) diffs the two backends' results per figure against
//! committed budgets.
//!
//! The payoff is scale: the `design_space` mega-sweep evaluates grids
//! the cycle engine could never finish, while `--backend both` keeps a
//! running proof that the fast path still agrees with the oracle.

pub mod battery;
pub mod compare;
pub mod features;
pub mod model;

pub use battery::Probe;
pub use features::Features;
pub use model::AnalyticModel;

pub use crate::bench::ProbeKind;

use std::borrow::Cow;

use piton_arch::error::PitonError;
use piton_arch::units::{Seconds, Watts};
use piton_board::fault::FaultPlan;
use piton_board::monitor::{Measured, Quality};
use piton_board::system::RailMeasurement;
use piton_power::model::RailPower;
use piton_power::thermal::{Cooling, ThermalModel, ROOM_AMBIENT_C};
use piton_sim::machine::SwitchPattern;
use piton_workloads::micro::{Microbenchmark, ThreadsPerCore};

use crate::bench::{Bench, Rig, Unsupported};
use crate::experiments::Fidelity;

/// The model together with the rate library the analytic bench reads.
/// The power experiments need the full [`battery::probe_specs`]
/// library; the `design_space` sweep needs only its own `probe_specs`.
/// Asking for a probe the library lacks panics.
#[derive(Debug, Clone)]
pub struct Calibrated {
    /// The closed-form model ([`AnalyticModel::reference`]).
    pub model: AnalyticModel,
    /// The cycle-level probes: the rate library.
    pub probes: Vec<Probe>,
}

impl Calibrated {
    fn probe(&self, kind: ProbeKind) -> &Probe {
        self.probes
            .iter()
            .find(|p| p.kind == kind)
            .expect("rate library holds the probe")
    }

    /// Measurement-window rate profile of a microbenchmark
    /// configuration at an arbitrary core count: piecewise-linear
    /// between the probed [`battery::MICRO_KNOTS`], clamped at the ends.
    #[must_use]
    pub fn micro_rates_at(
        &self,
        bench: Microbenchmark,
        tpc: ThreadsPerCore,
        cores: f64,
    ) -> Features {
        self.micro_lerp(bench, tpc, cores, |p| &p.rates)
    }

    /// [`Self::micro_rates_at`] over the warm-up windows.
    #[must_use]
    pub fn micro_warm_rates_at(
        &self,
        bench: Microbenchmark,
        tpc: ThreadsPerCore,
        cores: f64,
    ) -> Features {
        self.micro_lerp(bench, tpc, cores, |p| &p.warm)
    }

    fn micro_lerp(
        &self,
        bench: Microbenchmark,
        tpc: ThreadsPerCore,
        cores: f64,
        pick: fn(&Probe) -> &Features,
    ) -> Features {
        let at = |cores| pick(self.probe(ProbeKind::Micro(bench, tpc, cores)));
        let knots = battery::MICRO_KNOTS;
        let first = knots[0];
        let last = knots[knots.len() - 1];
        if cores <= first as f64 {
            return at(first).clone();
        }
        for w in knots.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if cores <= hi as f64 {
                let t = (cores - lo as f64) / (hi - lo) as f64;
                return at(lo).lerp(at(hi), t);
            }
        }
        at(last).clone()
    }

    /// Rate profile of NoC traffic at an arbitrary hop count: the
    /// per-slot least-squares line through the probed
    /// [`battery::NOC_KNOTS`].
    fn noc_line(
        &self,
        pattern: SwitchPattern,
        hops: f64,
        pick: fn(&Probe) -> &Features,
    ) -> Features {
        let knots: Vec<(f64, &Features)> = battery::NOC_KNOTS
            .iter()
            .map(|&h| (h as f64, pick(self.probe(ProbeKind::Noc(pattern, h)))))
            .collect();
        let n = knots.len() as f64;
        let sx: f64 = knots.iter().map(|k| k.0).sum();
        let denom: f64 = knots.iter().map(|k| k.0 * k.0).sum::<f64>() - sx * sx / n;
        let mut out = Features::zero();
        let project = |rail: fn(&Features) -> &[f64], slot: &mut [f64]| {
            for (j, s) in slot.iter_mut().enumerate() {
                let sy: f64 = knots.iter().map(|k| rail(k.1)[j]).sum();
                let sxy: f64 = knots.iter().map(|k| k.0 * rail(k.1)[j]).sum();
                let slope = (sxy - sx * sy / n) / denom;
                let intercept = (sy - slope * sx) / n;
                *s = intercept + slope * hops;
            }
        };
        project(|f| &f.vdd, &mut out.vdd);
        project(|f| &f.vcs, &mut out.vcs);
        project(|f| &f.vio, &mut out.vio);
        out
    }
}

/// The rate library as a [`Bench`]: each call looks up the probe of its
/// workload and evaluates the power law at the rig's operating point
/// and corner. Microbenchmarks interpolate between core-count knots,
/// NoC traffic follows the line through the hop knots, and every other
/// workload is a probe of its own. The library has rates but no time to
/// completion, so [`Bench::run_time`] is [`Unsupported`].
#[derive(Debug, Clone, Copy)]
pub struct AnalyticBench<'a> {
    cal: &'a Calibrated,
}

impl<'a> AnalyticBench<'a> {
    /// A bench over a calibrated rate library.
    #[must_use]
    pub fn new(cal: &'a Calibrated) -> Self {
        Self { cal }
    }

    /// Warm-up and measurement-window rates of `work`.
    fn profile(&self, work: ProbeKind) -> (Cow<'a, Features>, Cow<'a, Features>) {
        let cal = self.cal;
        match work {
            ProbeKind::Micro(bench, tpc, cores) => {
                let cores = cores as f64;
                (
                    Cow::Owned(cal.micro_warm_rates_at(bench, tpc, cores)),
                    Cow::Owned(cal.micro_rates_at(bench, tpc, cores)),
                )
            }
            ProbeKind::Noc(pattern, hops) => {
                let hops = hops as f64;
                (
                    Cow::Owned(cal.noc_line(pattern, hops, |p| &p.warm)),
                    Cow::Owned(cal.noc_line(pattern, hops, |p| &p.rates)),
                )
            }
            _ => {
                let probe = cal.probe(work);
                (Cow::Borrowed(&probe.warm), Cow::Borrowed(&probe.rates))
            }
        }
    }

    /// Power of `work`'s measurement window at the junction its warm-up
    /// window settles to, as [`piton_board::system::PitonSystem::warm_up`]
    /// settles it.
    fn settled(&self, rig: &Rig, work: ProbeKind) -> RailPower {
        let (warm, rates) = self.profile(work);
        let (model, op0) = (&self.cal.model, rig.op());
        let t_eq =
            ThermalModel::new(Cooling::HeatsinkFan, ROOM_AMBIENT_C).settle_warm_junction(|t| {
                model
                    .power(&warm, op0.with_junction(t), rig.corner)
                    .total_with_io()
            });
        model.power(&rates, op0.with_junction(t_eq), rig.corner)
    }
}

impl Bench for AnalyticBench<'_> {
    fn measure(
        &self,
        rig: &Rig,
        work: ProbeKind,
        _: Fidelity,
        _: Option<(&FaultPlan, u64)>,
    ) -> Result<RailMeasurement, PitonError> {
        let p = self.settled(rig, work);
        let exact = |mean| Measured {
            mean,
            stddev: Watts::ZERO,
        };
        Ok(RailMeasurement {
            vdd: exact(p.vdd),
            vcs: exact(p.vcs),
            vio: exact(p.vio),
            total: exact(p.total()),
            quality: Quality::default(),
        })
    }

    fn idle_power(&self, rig: &Rig, _: Fidelity) -> Watts {
        self.settled(rig, ProbeKind::Idle).total()
    }

    fn static_power(&self, rig: &Rig) -> RailPower {
        self.cal.model.law().static_power_at(rig.op(), rig.corner)
    }

    fn table_v(&self, rig: &Rig, fidelity: Fidelity) -> (Watts, Watts) {
        let (law, op) = (self.cal.model.law(), rig.op());
        let static_w = ThermalModel::new(Cooling::HeatsinkFan, ROOM_AMBIENT_C)
            .static_equilibrium(|t| law.static_power_at(op.with_junction(t), rig.corner))
            .total();
        (static_w, self.idle_power(rig, fidelity))
    }

    fn traffic_power(&self, rig: &Rig, pattern: SwitchPattern, hops: usize, _: Fidelity) -> Watts {
        let (_, rates) = self.profile(ProbeKind::Noc(pattern, hops));
        self.cal.model.power(&rates, rig.op(), rig.corner).total()
    }

    fn window(&self, rig: &Rig, work: ProbeKind, _: Fidelity) -> Box<dyn Fn(f64) -> Watts + '_> {
        let (_, rates) = self.profile(work);
        let (model, op0, corner) = (&self.cal.model, rig.op(), rig.corner);
        Box::new(move |t| model.power(&rates, op0.with_junction(t), corner).total())
    }

    fn run_time(&self, _: &Rig, _: ProbeKind, _: u32, _: Fidelity) -> Result<Seconds, Unsupported> {
        Err(Unsupported)
    }
}

/// Runs the given probes at the given fidelity and pairs them with the
/// reference model.
///
/// # Errors
///
/// Propagates probe failures.
pub fn calibrate(fidelity: Fidelity, specs: Vec<ProbeKind>) -> Result<Calibrated, PitonError> {
    Ok(Calibrated {
        model: AnalyticModel::reference(),
        probes: battery::run_battery(fidelity, specs)?,
    })
}

#[cfg(test)]
mod tests {
    use piton_board::population::NamedChip;

    use super::*;
    use crate::experiments::mt_vs_mc;

    /// A rate profile that grows quadratically with `k`, so a lerp
    /// between two knots differs from the profile of any one point.
    fn profile(k: f64) -> Features {
        let mut f = Features::zero();
        for v in f.vdd.iter_mut().chain(&mut f.vcs).chain(&mut f.vio) {
            *v = 1e-3 * k * k;
        }
        f.vdd[features::CYCLES] = 1.0;
        f
    }

    /// A library of synthetic probes: every microbenchmark knot at its
    /// core count's profile, and idle at `idle`.
    fn library(idle: Features) -> Calibrated {
        let mut probes = vec![Probe {
            kind: ProbeKind::Idle,
            warm: idle.clone(),
            rates: idle,
        }];
        for bench in Microbenchmark::ALL {
            for tpc in [ThreadsPerCore::One, ThreadsPerCore::Two] {
                probes.extend(battery::MICRO_KNOTS.iter().map(|&cores| Probe {
                    kind: ProbeKind::Micro(bench, tpc, cores),
                    warm: profile(cores as f64),
                    rates: profile(cores as f64),
                }));
            }
        }
        Calibrated {
            model: AnalyticModel::reference(),
            probes,
        }
    }

    /// Settled window power of `work`, read through the bench.
    fn power(cal: &Calibrated, work: ProbeKind) -> Watts {
        let rig = Rig::chip(NamedChip::Chip3);
        let m = AnalyticBench::new(cal).measure(&rig, work, Fidelity::quick(), None);
        m.expect("the analytic bench always measures").total.mean
    }

    #[test]
    fn a_knot_reads_its_own_probe_bit_for_bit() {
        let micro = |cores| ProbeKind::Micro(Microbenchmark::Hp, ThreadsPerCore::Two, cores);
        for cores in battery::MICRO_KNOTS {
            // Idle is a probe of its own: the same profile must settle to
            // the same bits whichever lookup reaches it.
            let cal = library(profile(cores as f64));
            assert_eq!(
                power(&cal, micro(cores)).0.to_bits(),
                power(&cal, ProbeKind::Idle).0.to_bits(),
                "knot {cores}"
            );
        }
    }

    #[test]
    fn between_knots_the_bench_reads_the_lerp() {
        let micro = |cores| ProbeKind::Micro(Microbenchmark::Int, ThreadsPerCore::One, cores);
        // 11 cores sits halfway between the 9- and 13-core knots.
        let cal = library(profile(9.0).lerp(&profile(13.0), 0.5));
        let mid = power(&cal, micro(11));
        assert_eq!(mid.0.to_bits(), power(&cal, ProbeKind::Idle).0.to_bits());
        assert!(power(&cal, micro(9)) < mid && mid < power(&cal, micro(13)));
        assert_ne!(mid, power(&library(profile(11.0)), ProbeKind::Idle));
    }

    #[test]
    fn figure_14_time_and_energy_are_unsupported_never_numbers() {
        let cal = library(profile(0.0));
        let r = mt_vs_mc::run_with_threads(&AnalyticBench::new(&cal), &[8], Fidelity::quick());
        let unsupported = Err(Unsupported);
        for p in r.series.iter().flat_map(|s| &s.points) {
            assert!(p.total_power.0.is_finite() && p.total_power.0 > 0.0);
            assert_eq!(p.exec_time, unsupported);
            assert_eq!(p.active_energy.map(|e| e.0), unsupported.map(|t| t.0));
            assert_eq!(p.idle_energy.map(|e| e.0), unsupported.map(|t| t.0));
            assert!(p.total_energy().is_err());
        }
        let text = r.render();
        assert_eq!(text.matches("unsupported").count(), 3 * 6);
    }
}

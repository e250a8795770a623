//! The analytic fast-path backend: closed-form power predictions
//! checked against the cycle engine.
//!
//! The cycle engine is the oracle: it simulates every core, cache and
//! flit and reads power off the modelled rails. The analytic model
//! ([`model`]) runs the cycle engine's own power law — the same term
//! table, voltage scaling and leakage code — on per-cycle activity
//! rates. Those rates are what is approximated: a small library of
//! cycle-level probes ([`battery`]) measures them, and the predictors
//! ([`predict`]) interpolate between probes and answer the experimental
//! questions with one table sum per evaluation. A conformance layer
//! ([`compare`]) bounds the analytic error per figure against committed
//! budgets.
//!
//! The payoff is scale: the `design_space` mega-sweep evaluates grids
//! the cycle engine could never finish, while `--backend both` keeps a
//! running proof that the fast path still agrees with the oracle.

pub mod battery;
pub mod compare;
pub mod features;
pub mod model;
pub mod predict;

pub use battery::{Probe, ProbeKind};
pub use features::Features;
pub use model::AnalyticModel;

use piton_arch::error::PitonError;
use piton_arch::isa::OperandPattern;
use piton_sim::machine::SwitchPattern;
use piton_workloads::epi::EpiCase;
use piton_workloads::micro::{Microbenchmark, ThreadsPerCore};

use crate::experiments::Fidelity;

/// The model together with the rate library the predictors
/// interpolate over. The figure predictors need the full
/// [`battery::probe_specs`] library; the `design_space` sweep needs
/// only its own `probe_specs`. Asking for a probe the library lacks
/// panics.
#[derive(Debug, Clone)]
pub struct Calibrated {
    /// The closed-form model ([`AnalyticModel::reference`]).
    pub model: AnalyticModel,
    /// The cycle-level probes: the rate library.
    pub probes: Vec<Probe>,
}

impl Calibrated {
    fn find(&self, kind: ProbeKind) -> &Probe {
        self.probes
            .iter()
            .find(|p| p.kind == kind)
            .expect("rate library holds the probe")
    }

    /// The Chip #2 idle probe.
    #[must_use]
    pub fn idle(&self) -> &Probe {
        self.find(ProbeKind::Idle)
    }

    /// One Figure 11 EPI probe.
    #[must_use]
    pub fn epi(&self, case: EpiCase, pattern: OperandPattern) -> &Probe {
        self.find(ProbeKind::Epi(case, pattern))
    }

    /// One NoC traffic probe at a hop knot.
    #[must_use]
    pub fn noc(&self, pattern: SwitchPattern, hops: usize) -> &Probe {
        self.find(ProbeKind::Noc(pattern, hops))
    }

    /// One microbenchmark probe at a core-count knot.
    #[must_use]
    pub fn micro(&self, bench: Microbenchmark, tpc: ThreadsPerCore, cores: usize) -> &Probe {
        self.find(ProbeKind::Micro(bench, tpc, cores))
    }

    /// One Figure 17 thermal-study probe.
    #[must_use]
    pub fn fig17(&self, threads: usize) -> &Probe {
        self.find(ProbeKind::Fig17(threads))
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
        let knots = battery::MICRO_KNOTS;
        let first = knots[0];
        let last = knots[knots.len() - 1];
        if cores <= first as f64 {
            return pick(self.micro(bench, tpc, first)).clone();
        }
        for w in knots.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if cores <= hi as f64 {
                let t = (cores - lo as f64) / (hi - lo) as f64;
                return pick(self.micro(bench, tpc, lo)).lerp(pick(self.micro(bench, tpc, hi)), t);
            }
        }
        pick(self.micro(bench, tpc, last)).clone()
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

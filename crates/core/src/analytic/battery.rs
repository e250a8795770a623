//! The rate library: a small set of cycle-level runs whose activity
//! rates the analytic bench evaluates.
//!
//! Each probe builds its system through [`CycleBench::system`] — the
//! same rig and workload setup the cycle bench measures (the Figure 11
//! EPI tests and idle on Chip #2, the Figure 12 invalidation traffic at
//! a typical corner, the Figure 13/14 microbenchmarks on Chip #3, the
//! Figure 17 thermal-study rig) — and records the per-cycle activity
//! rates of its warm-up and measurement windows. The per-event energies
//! are not measured here: the model reads them from the calibration
//! table.

use piton_arch::error::PitonError;
use piton_arch::isa::OperandPattern;
use piton_arch::topology::{Mesh, TileId};
use piton_board::population::NamedChip;
use piton_board::system::PitonSystem;
use piton_power::model::ChipCorner;
use piton_sim::machine::SwitchPattern;
use piton_workloads::epi::EpiCase;
use piton_workloads::micro::{Microbenchmark, RunLength, ThreadsPerCore};

use super::features::Features;
use crate::bench::{CycleBench, ProbeKind, Rig};
use crate::experiments::thermal::{fig17_rig, FIG17_THREADS};
use crate::experiments::Fidelity;
use crate::runner;

/// Core-count knots the microbenchmark probes sample; rate profiles at
/// other core counts are piecewise-linear interpolations between them.
/// Dense enough (4-core gaps) that saturating workloads like `hist`
/// interpolate within the committed figure budgets.
pub const MICRO_KNOTS: [usize; 7] = [1, 5, 9, 13, 17, 21, 25];
/// Hop-count knots the NoC traffic probes sample; per-feature linear
/// fits over them extend the profile to the full 0..=8 hop axis. Hop 0
/// is probed directly — it anchors the EPF baseline.
pub const NOC_KNOTS: [usize; 4] = [0, 2, 5, 8];

/// One completed cycle-level probe: a rate-library entry.
#[derive(Debug, Clone)]
pub struct Probe {
    /// What was exercised.
    pub kind: ProbeKind,
    /// Per-cycle activity rates over the warm-up window: the activity
    /// (cold caches included) the bench settles the junction from.
    pub warm: Features,
    /// Per-cycle activity rates over the measurement window.
    pub rates: Features,
}

/// The full rate library: idle + every Figure 11 cell + NoC
/// pattern×knot + microbenchmark knots + the Figure 17 thread axis.
#[must_use]
pub fn probe_specs() -> Vec<ProbeKind> {
    let mut specs = vec![ProbeKind::Idle];
    for case in EpiCase::figure_11() {
        let patterns: &[OperandPattern] = if case.has_value_operands() {
            &OperandPattern::ALL
        } else {
            &[OperandPattern::Random]
        };
        specs.extend(patterns.iter().map(|&p| ProbeKind::Epi(case, p)));
    }
    for pattern in SwitchPattern::ALL {
        specs.extend(NOC_KNOTS.iter().map(|&h| ProbeKind::Noc(pattern, h)));
    }
    for bench in Microbenchmark::ALL {
        for tpc in [ThreadsPerCore::One, ThreadsPerCore::Two] {
            specs.extend(
                MICRO_KNOTS
                    .iter()
                    .map(move |&cores| ProbeKind::Micro(bench, tpc, cores)),
            );
        }
    }
    specs.extend(FIG17_THREADS.iter().map(|&t| ProbeKind::Fig17(t)));
    specs
}

/// Per-cycle rates of the activity `run` drives on `sys`.
fn rates_of(
    sys: &mut PitonSystem,
    run: impl FnOnce(&mut PitonSystem) -> Result<(), PitonError>,
) -> Result<Features, PitonError> {
    let before = sys.machine().counters().clone();
    run(sys)?;
    Ok(Features::rates(
        &sys.machine().counters().delta_since(&before),
    ))
}

/// The rig each probe runs on: the Figure 11 tests and idle on Chip #2,
/// the microbenchmarks on Chip #3, the Figure 17 workload on its
/// thermal-study rig, and the NoC traffic on a typical die.
fn rig_of(kind: ProbeKind) -> Rig {
    match kind {
        ProbeKind::Idle | ProbeKind::Epi(..) => Rig::chip(NamedChip::Chip2),
        ProbeKind::Noc(_, hops) => Rig::new(ChipCorner::typical(), 0xA0 + hops as u64),
        ProbeKind::Micro(..) => Rig::chip(NamedChip::Chip3),
        ProbeKind::Fig17(threads) => fig17_rig(threads),
    }
}

fn run_probe(kind: ProbeKind, fidelity: Fidelity) -> Result<Probe, PitonError> {
    let window = fidelity.chunk_cycles * fidelity.samples as u64;
    let mut sys = CycleBench::system(&rig_of(kind), kind, RunLength::Forever, fidelity);
    let (warm, rates) = match kind {
        ProbeKind::Noc(pattern, hops) => {
            // Mirrors the Figure 12 methodology: the traffic warms the
            // network itself, and the thermal state never advances.
            let dst = Mesh::piton()
                .tile_at_distance(TileId::new(0), hops)
                .expect("5x5 mesh covers 0..=8 hops");
            let mut traffic = |cycles| {
                rates_of(&mut sys, |s| {
                    s.machine_mut()
                        .run_invalidation_traffic(dst, pattern, cycles);
                    Ok(())
                })
            };
            (traffic(fidelity.warmup_cycles / 4)?, traffic(window)?)
        }
        _ => {
            let warm = rates_of(&mut sys, |s| {
                s.warm_up(fidelity.warmup_cycles);
                Ok(())
            })?;
            let rates = if matches!(kind, ProbeKind::Fig17(_)) {
                // Figure 17 reads model power over a plain run.
                rates_of(&mut sys, |s| {
                    s.machine_mut().run(window);
                    Ok(())
                })?
            } else {
                rates_of(&mut sys, |s| s.try_measure(fidelity.samples).map(drop))?
            };
            (warm, rates)
        }
    };
    Ok(Probe { kind, warm, rates })
}

/// Runs the given probes across the fidelity's sweep workers, in
/// order.
///
/// # Errors
///
/// Propagates the first probe failure (probes run fault-free, so a
/// failure means a measurement window came back empty).
pub fn run_battery(fidelity: Fidelity, specs: Vec<ProbeKind>) -> Result<Vec<Probe>, PitonError> {
    runner::sweep(fidelity.jobs, specs, |_, kind| run_probe(kind, fidelity))
        .into_iter()
        .collect()
}

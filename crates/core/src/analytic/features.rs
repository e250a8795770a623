//! Per-rail slot vectors: an activity window, or a per-cycle rate
//! profile, laid out as the power law reads it.
//!
//! The layout is not written here: each vector holds the slots of
//! [`piton_power::energy::TERMS`] on its rail, in table order, so
//! [`piton_power::model::PowerModel::dynamic_nominal_pj`] sums a rate
//! profile exactly as it sums a simulated window.

use piton_power::energy::{self, Charge, Rail, SLOTS, TERMS};
use piton_sim::events::ActivityCounters;

/// Number of VDD-rail features.
pub const VDD_FEATURES: usize = SLOTS[0];
/// Number of VCS-rail features.
pub const VCS_FEATURES: usize = SLOTS[1];
/// Number of VIO-rail features.
pub const VIO_FEATURES: usize = SLOTS[2];

/// Index of the window-cycle feature in the VDD vector (the clock-tree
/// term).
pub const CYCLES: usize = energy::slot(Rail::Vdd, "cycles");
/// Index of the drafted-issue feature in the VDD vector (the one
/// credit: Execution Drafting *saves* front-end energy).
pub const DRAFTED: usize = energy::slot(Rail::Vdd, "drafted_issues");

/// One activity window (or per-cycle rate profile) flattened into the
/// three per-rail feature vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct Features {
    /// VDD-rail features, laid out per [`TERMS`].
    pub vdd: Vec<f64>,
    /// VCS-rail features.
    pub vcs: Vec<f64>,
    /// VIO-rail features.
    pub vio: Vec<f64>,
}

impl Features {
    /// All-zero features.
    #[must_use]
    pub fn zero() -> Self {
        Self {
            vdd: vec![0.0; VDD_FEATURES],
            vcs: vec![0.0; VCS_FEATURES],
            vio: vec![0.0; VIO_FEATURES],
        }
    }

    /// Flattens an activity delta into absolute per-rail feature
    /// vectors (same counts, different shape).
    #[must_use]
    pub fn extract(a: &ActivityCounters) -> Self {
        let mut f = Self::zero();
        energy::read_slots(a, [&mut f.vdd, &mut f.vcs, &mut f.vio]);
        f
    }

    /// The three vectors, in the order the power law takes them.
    #[must_use]
    pub fn rails(&self) -> [&[f64]; 3] {
        [&self.vdd, &self.vcs, &self.vio]
    }

    /// Per-cycle rate profile of a window: every feature divided by the
    /// window's cycle count (the cycle features become exactly `1.0`).
    ///
    /// # Panics
    ///
    /// Panics on an empty window, mirroring
    /// [`piton_power::model::PowerModel::power`].
    #[must_use]
    pub fn rates(a: &ActivityCounters) -> Self {
        assert!(a.cycles > 0, "empty activity window");
        let mut f = Self::extract(a);
        let inv = 1.0 / a.cycles as f64;
        f.scale_in_place(inv);
        f
    }

    /// Scales every feature in place (rate blending / normalization).
    pub fn scale_in_place(&mut self, k: f64) {
        for v in self
            .vdd
            .iter_mut()
            .chain(self.vcs.iter_mut())
            .chain(self.vio.iter_mut())
        {
            *v *= k;
        }
    }

    /// Adds `k × other` into `self` (workload-mix accumulation).
    pub fn add_scaled(&mut self, other: &Self, k: f64) {
        for (a, b) in self
            .vdd
            .iter_mut()
            .zip(&other.vdd)
            .chain(self.vcs.iter_mut().zip(&other.vcs))
            .chain(self.vio.iter_mut().zip(&other.vio))
        {
            *a += k * b;
        }
    }

    /// Element-wise linear interpolation `self + t × (other − self)`.
    #[must_use]
    pub fn lerp(&self, other: &Self, t: f64) -> Self {
        let mut out = self.clone();
        out.scale_in_place(1.0 - t);
        out.add_scaled(other, t);
        out
    }

    /// Total instruction-issue rate (sum of the per-opcode issue
    /// features) — IPC when `self` holds per-cycle rates.
    #[must_use]
    pub fn issue_rate(&self) -> f64 {
        TERMS
            .iter()
            .filter(|t| matches!(t.charge, Charge::Issue(_)))
            .map(|t| self.vdd[t.slot])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use piton_arch::isa::Opcode;

    use super::*;

    #[test]
    fn layout_matches_vector_widths() {
        let z = Features::zero();
        assert_eq!(z.vdd.len(), VDD_FEATURES);
        assert_eq!(z.vcs.len(), VCS_FEATURES);
        assert_eq!(z.vio.len(), VIO_FEATURES);
    }

    #[test]
    fn extract_places_counters_in_named_slots() {
        let mut a = ActivityCounters::new();
        a.cycles = 1000;
        a.record_issue(Opcode::Add, 1, 0.25);
        a.record_issue(Opcode::Add, 1, 0.75);
        a.sb_enqueues = 7;
        a.io_transactions = 3;
        let f = Features::extract(&a);
        assert_eq!(f.vdd[CYCLES], 1000.0);
        assert_eq!(f.vcs[energy::slot(Rail::Vcs, "cycles")], 1000.0);
        assert_eq!(f.vdd[energy::slot(Rail::Vdd, "sb_enqueues")], 7.0);
        assert_eq!(f.vio[energy::slot(Rail::Vio, "io_transactions")], 3.0);
        assert_eq!(f.vdd.iter().filter(|&&v| v != 0.0).count(), 4);
        assert!((f.issue_rate() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rates_normalize_and_mixes_blend() {
        let mut a = ActivityCounters::new();
        a.cycles = 200;
        a.l1d_reads = 100;
        let reads = energy::slot(Rail::Vcs, "l1d_reads");
        let r = Features::rates(&a);
        assert_eq!(r.vdd[CYCLES], 1.0);
        assert_eq!(r.vcs[reads], 0.5);
        let mut mix = Features::zero();
        mix.add_scaled(&r, 0.5);
        mix.add_scaled(&r, 0.5);
        assert_eq!(mix, r);
        let mid = r.lerp(&Features::zero(), 0.5);
        assert_eq!(mid.vcs[reads], 0.25);
    }
}

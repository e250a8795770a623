//! Per-rail feature vectors: the linear-algebra view of an activity
//! window.
//!
//! The closed-form model is linear in exactly the counters the cycle
//! engine's [`piton_power::model::PowerModel`] charges, so an activity
//! window flattens into three feature vectors (one per rail) and the
//! model becomes three dot products. The layout is explicit — one slot
//! per counter, opcode-indexed blocks for issues and operand activity —
//! and [`super::AnalyticModel::reference`] fills the matching
//! coefficient slots from the [`piton_power::calibration::Calibration`]
//! table.

use piton_arch::isa::Opcode;
use piton_sim::events::ActivityCounters;

/// Number of VDD-rail features.
pub const VDD_FEATURES: usize = 16 + 2 * Opcode::COUNT;
/// Number of VCS-rail features.
pub const VCS_FEATURES: usize = 10;
/// Number of VIO-rail features.
pub const VIO_FEATURES: usize = 2;

/// Index of the window-cycle feature in the VDD and VCS vectors (the
/// clock-tree column; also the normalizer when converting counts to
/// per-cycle rates).
pub const CYCLES: usize = 0;
/// Index of the drafted-issue feature in the VDD vector (the one
/// negative coefficient: Execution Drafting *saves* front-end energy).
pub const DRAFTED: usize = 4;
const ISSUES_BASE: usize = 5;
const ACTIVITY_BASE: usize = ISSUES_BASE + Opcode::COUNT;
const TAIL_BASE: usize = ACTIVITY_BASE + Opcode::COUNT;

/// One activity window (or per-cycle rate profile) flattened into the
/// three per-rail feature vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct Features {
    /// VDD-rail features, laid out per [`Features::extract`].
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
        let mut vdd = vec![0.0_f64; VDD_FEATURES];
        vdd[CYCLES] = a.cycles as f64;
        vdd[1] = a.core_active_cycles as f64;
        vdd[2] = a.mem_stall_cycles as f64;
        vdd[3] = a.dual_thread_cycles as f64;
        vdd[DRAFTED] = a.drafted_issues as f64;
        for op in Opcode::ALL {
            let i = op.index();
            vdd[ISSUES_BASE + i] = a.issues[i] as f64;
            vdd[ACTIVITY_BASE + i] = a.operand_activity[i];
        }
        let tail = [
            a.l15_misses as f64,
            a.invalidations as f64,
            a.load_rollbacks as f64,
            a.store_rollbacks as f64,
            a.sb_enqueues as f64,
            a.noc_flit_hops as f64,
            a.noc_bit_switches as f64,
            a.noc_coupling_switches as f64,
            a.noc_route_computes as f64,
            a.offchip_requests as f64,
            a.chip_bridge_flits as f64,
        ];
        vdd[TAIL_BASE..].copy_from_slice(&tail);

        let vcs = vec![
            a.cycles as f64,
            a.l1i_accesses as f64,
            a.l1d_reads as f64,
            a.l1d_writes as f64,
            a.l15_reads as f64,
            a.l15_writes as f64,
            a.l15_writebacks as f64,
            a.l2_reads as f64,
            a.l2_writes as f64,
            a.dir_lookups as f64,
        ];
        let vio = vec![a.chip_bridge_flits as f64, a.io_transactions as f64];
        Self { vdd, vcs, vio }
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
        self.vdd[ISSUES_BASE..ISSUES_BASE + Opcode::COUNT]
            .iter()
            .sum()
    }
}

#[cfg(test)]
mod tests {
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
        assert_eq!(f.vdd[ISSUES_BASE + Opcode::Add.index()], 2.0);
        assert!((f.vdd[ACTIVITY_BASE + Opcode::Add.index()] - 1.0).abs() < 1e-12);
        assert_eq!(f.vdd[TAIL_BASE + 4], 7.0); // sb_enqueue

        assert_eq!(f.vio[1], 3.0);
        assert!((f.issue_rate() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rates_normalize_and_mixes_blend() {
        let mut a = ActivityCounters::new();
        a.cycles = 200;
        a.l1d_reads = 100;
        let r = Features::rates(&a);
        assert_eq!(r.vdd[CYCLES], 1.0);
        assert_eq!(r.vcs[2], 0.5);
        let mut mix = Features::zero();
        mix.add_scaled(&r, 0.5);
        mix.add_scaled(&r, 0.5);
        assert_eq!(mix, r);
        let mid = r.lerp(&Features::zero(), 0.5);
        assert_eq!(mid.vcs[2], 0.25);
    }
}

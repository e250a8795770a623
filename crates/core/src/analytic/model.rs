//! The closed-form power model: the cycle engine's own power law over
//! per-cycle rate profiles.
//!
//! [`AnalyticModel`] holds a nominal [`PowerModel`] and calls its code:
//! the term table ([`piton_power::energy::TERMS`]) sums a rate profile
//! into pJ per cycle, which is voltage- and corner-scaled and spread
//! over one clock period exactly as a simulated window is over its
//! cycles, and leakage comes from the same curves at the die corner of
//! each evaluation. One evaluation is a table sum and a handful of
//! exponentials instead of thousands of simulated cycles.

use std::fmt::Write as _;

use piton_power::energy::{Term, TERMS};
use piton_power::model::{ChipCorner, OperatingPoint, PowerModel, RailPower};

use super::features::Features;

/// The closed-form model (corner-independent: the die corner is applied
/// per evaluation, exactly as the cycle engine does).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticModel {
    law: PowerModel,
}

impl AnalyticModel {
    /// The model: the nominal cycle-engine power model, charging
    /// [`piton_power::calibration::Calibration::piton_hpca18`].
    /// Predictions match the cycle engine on any activity window.
    #[must_use]
    pub fn reference() -> Self {
        Self {
            law: PowerModel::nominal(),
        }
    }

    /// FNV-1a digest of the law: each term's name, rail and coefficient
    /// bits in table order, then the leakage constants. It is the
    /// model's identity in the analytic journal context, so results
    /// cached under one law (coefficients *or* summation order) are
    /// never served under another.
    #[must_use]
    pub fn digest(&self) -> u64 {
        digest_of(&self.law, &TERMS)
    }

    /// Nominal dynamic energy of a feature vector, per rail (pJ per
    /// feature-unit — pJ/cycle when given a rate profile): the cycle
    /// model's term-table sum, drafted-issue clamp included.
    #[must_use]
    pub fn dynamic_nominal_pj(&self, f: &Features) -> (f64, f64, f64) {
        self.law.dynamic_nominal_pj(f.rails())
    }

    /// The cycle engine's power model this one evaluates: its leakage,
    /// voltage and corner scaling take the corner as an argument.
    #[must_use]
    pub fn law(&self) -> &PowerModel {
        &self.law
    }

    /// Total rail power of a per-cycle rate profile at an operating
    /// point and corner: the rates' energy per cycle spread over one
    /// clock period, plus leakage.
    #[must_use]
    pub fn power(&self, rates: &Features, op: OperatingPoint, corner: ChipCorner) -> RailPower {
        let pj_per_cycle = self.dynamic_nominal_pj(rates);
        self.law
            .dynamic_power(pj_per_cycle, op.freq.period(), op, corner)
            + self.law.static_power_at(op, corner)
    }
}

fn digest_of(law: &PowerModel, terms: &[Term]) -> u64 {
    let c = law.calibration();
    let mut text = String::new();
    for t in terms {
        let bits = t.coefficients(c).map(f64::to_bits);
        let _ = write!(text, "{}/{:?}/{bits:x?};", t.name, t.rail);
    }
    let leakage = [
        c.static_vdd_mw,
        c.static_vcs_mw,
        c.static_vio_mw,
        c.static_calibration_temp_c,
        law.tech().leakage_gamma,
        law.tech().leakage_t_k,
    ];
    let _ = write!(text, "{:x?}", leakage.map(f64::to_bits));
    crate::journal::fnv64(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use piton_arch::units::Volts;
    use piton_power::calibration::Calibration;
    use piton_power::energy::Charge;
    use piton_power::tech::TechModel;
    use piton_sim::events::ActivityCounters;

    use super::*;

    /// A representative busy activity window.
    fn window() -> ActivityCounters {
        use piton_arch::isa::Opcode;
        let mut a = ActivityCounters::new();
        a.cycles = 10_000;
        for _ in 0..4000 {
            a.record_issue(Opcode::Add, 1, 0.4);
        }
        for _ in 0..900 {
            a.record_issue(Opcode::Ldx, 3, 0.6);
        }
        for _ in 0..350 {
            a.record_issue(Opcode::Stx, 10, 0.2);
        }
        a.core_active_cycles = 9_000;
        a.mem_stall_cycles = 2_500;
        a.dual_thread_cycles = 4_000;
        a.drafted_issues = 120;
        a.l1i_accesses = 5_000;
        a.l1d_reads = 900;
        a.l1d_writes = 350;
        a.l15_reads = 80;
        a.l15_writes = 40;
        a.l15_misses = 12;
        a.l15_writebacks = 6;
        a.l2_reads = 20;
        a.l2_writes = 9;
        a.dir_lookups = 20;
        a.invalidations = 4;
        a.sb_enqueues = 350;
        a.store_rollbacks = 3;
        a.load_rollbacks = 2;
        a.noc_flit_hops = 420;
        a.noc_route_computes = 70;
        a.noc_bit_switches = 9_000;
        a.noc_coupling_switches = 800;
        a.offchip_requests = 2;
        a.chip_bridge_flits = 14;
        a.io_transactions = 1;
        a
    }

    #[test]
    fn reference_model_matches_cycle_power_model_exactly() {
        let a = window();
        let analytic = AnalyticModel::reference();
        for corner in [
            ChipCorner::typical(),
            ChipCorner {
                speed: 1.06,
                leakage: 1.45,
                dynamic: 1.12,
            },
        ] {
            let cycle = PowerModel::new(Calibration::piton_hpca18(), TechModel::ibm32soi(), corner);
            for (vdd, t) in [(1.0, 25.0), (0.8, 20.0), (1.2, 87.5)] {
                let op = OperatingPoint::table_iii()
                    .with_vdd_tracked(Volts(vdd))
                    .with_junction(t);
                let want = cycle.power(&a, op);
                let got = analytic.power(&Features::rates(&a), op, corner);
                for (w, g) in [
                    (want.vdd, got.vdd),
                    (want.vcs, got.vcs),
                    (want.vio, got.vio),
                ] {
                    assert!(
                        (w.0 - g.0).abs() < 1e-9 * w.0.abs().max(1.0),
                        "rail mismatch at vdd={vdd} t={t}: {w:?} vs {g:?}"
                    );
                }
                let want_static = cycle.static_power(op);
                let got_static = analytic.law().static_power_at(op, corner);
                assert!(
                    (want_static.total_with_io().0 - got_static.total_with_io().0).abs() < 1e-12
                );
            }
        }
    }

    /// Per-rail dynamic watts of both backends on one window: the cycle
    /// model's, then the analytic model's on the window's rates.
    fn dynamic_both(a: &ActivityCounters) -> [(f64, f64); 3] {
        let corner = ChipCorner::typical();
        let cycle = PowerModel::nominal();
        let analytic = AnalyticModel::reference();
        let op = OperatingPoint::table_iii().with_junction(25.0);
        let leak = cycle.static_power(op);
        let want = cycle.power(a, op);
        let got = analytic.power(&Features::rates(a), op, corner);
        [
            (want.vdd.0 - leak.vdd.0, got.vdd.0 - leak.vdd.0),
            (want.vcs.0 - leak.vcs.0, got.vcs.0 - leak.vcs.0),
            (want.vio.0 - leak.vio.0, got.vio.0 - leak.vio.0),
        ]
    }

    /// Every term of the table, alone in a 1 000-cycle window, costs the
    /// same dynamic energy on both backends: a swapped or sign-flipped
    /// slot (the drafted-issue credit included) cannot hide behind the
    /// other counters.
    #[test]
    fn every_feature_slot_matches_the_cycle_power_model() {
        let mut reached = Features::zero();
        for term in &TERMS {
            let mut a = ActivityCounters::new();
            a.cycles = 1_000;
            match term.charge {
                Charge::Issue(op) => {
                    a.issues[op.index()] = 700;
                    a.operand_activity[op.index()] = 350.0;
                }
                Charge::Event(c) | Charge::Credit(c) => *(c.cell)(&mut a) = 700,
            }
            reached.add_scaled(&Features::extract(&a), 1.0);
            for (rail, (w, g)) in ["vdd", "vcs", "vio"].into_iter().zip(dynamic_both(&a)) {
                assert!(
                    (w - g).abs() <= 1e-12 * w.abs(),
                    "{} on {rail}: cycle {w} W vs analytic {g} W",
                    term.name
                );
            }
        }
        // Together the windows reach every slot.
        for v in reached.vdd.iter().chain(&reached.vcs).chain(&reached.vio) {
            assert!(*v > 0.0, "a slot no term sets: {reached:?}");
        }
    }

    /// The drafted-issue credit clamps the VDD sum where the cycle model
    /// clamps it — after the core terms, before the memory and NoC
    /// terms — so a credit larger than the core terms still leaves the
    /// L1.5 miss energy charged.
    #[test]
    fn drafted_credit_clamps_at_the_cycle_models_position() {
        let mut a = ActivityCounters::new();
        a.cycles = 1_000;
        a.drafted_issues = 1_000_000;
        a.l15_misses = 500;
        let [(w, g), (wc, gc), (wi, gi)] = dynamic_both(&a);
        assert!((w - 0.150).abs() < 1e-3, "cycle VDD dynamic {w} W");
        for (w, g) in [(w, g), (wc, gc), (wi, gi)] {
            assert!((w - g).abs() <= 1e-12, "cycle {w} W vs analytic {g} W");
        }
    }

    #[test]
    fn reordering_two_terms_changes_the_digest() {
        let law = PowerModel::nominal();
        let mut swapped = TERMS;
        let reads = TERMS.iter().position(|t| t.name == "l1d_reads");
        let reads = reads.expect("the table charges L1D reads");
        swapped.swap(reads, reads + 1);
        assert_eq!(digest_of(&law, &TERMS), AnalyticModel::reference().digest());
        assert_ne!(digest_of(&law, &swapped), digest_of(&law, &TERMS));
    }
}

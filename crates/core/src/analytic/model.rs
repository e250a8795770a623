//! The closed-form power model: three coefficient vectors plus the
//! shared technology curves.
//!
//! [`AnalyticModel::power`] mirrors the cycle engine's
//! [`piton_power::model::PowerModel::power`] term for term — nominal
//! per-event energies scaled by the alpha-power voltage law and the
//! die's process corner, leakage from the same exponential
//! temperature/voltage curves — but takes a *per-cycle rate profile*
//! instead of a simulated window, so one evaluation is three dot
//! products and a handful of exponentials instead of thousands of
//! simulated cycles.

use piton_arch::units::{Volts, Watts};
use piton_power::calibration::Calibration;
use piton_power::model::{ChipCorner, OperatingPoint, RailPower};
use piton_power::tech::TechModel;
use piton_power::thermal::T_CLAMP_C;

use super::features::{self, Features};

const V_NOM_VDD: Volts = Volts(1.00);
const V_NOM_VCS: Volts = Volts(1.05);
const V_NOM_VIO: Volts = Volts(1.80);

/// The closed-form model (corner-independent: the die corner is applied
/// per evaluation, exactly as the cycle engine does).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticModel {
    /// Nominal VDD energy per feature unit (pJ), laid out per
    /// [`Features::extract`].
    pub vdd_pj: Vec<f64>,
    /// Nominal VCS energy per feature unit (pJ).
    pub vcs_pj: Vec<f64>,
    /// Nominal VIO energy per feature unit (pJ).
    pub vio_pj: Vec<f64>,
    /// Static rail power at the calibration temperature (mW).
    pub static_mw: [f64; 3],
    /// Leakage calibration temperature (°C).
    pub static_t0_c: f64,
    tech: TechModel,
}

impl AnalyticModel {
    /// The model: coefficient vectors copied straight out of
    /// [`Calibration::piton_hpca18`], the table the cycle engine's
    /// power model charges. Predictions match the cycle engine's power
    /// law exactly on any activity window.
    #[must_use]
    pub fn reference() -> Self {
        let c = Calibration::piton_hpca18();
        let mut vdd = vec![0.0_f64; features::VDD_FEATURES];
        vdd[0] = c.clock_vdd_pj_per_cycle;
        vdd[1] = c.active_core_pj_per_cycle;
        vdd[2] = c.stall_pj_per_cycle;
        vdd[3] = c.dual_thread_pj_per_cycle;
        vdd[features::DRAFTED] = -c.execd_saving_pj;
        for (i, e) in c.instr.iter().enumerate() {
            vdd[5 + i] = e.base_pj;
            vdd[5 + piton_arch::isa::Opcode::COUNT + i] = e.value_pj;
        }
        let tail = [
            c.l15_miss_pj,
            c.invalidation_pj,
            c.load_rollback_pj,
            c.store_rollback_pj,
            c.sb_enqueue_pj,
            c.noc_flit_hop_pj,
            c.noc_bit_switch_pj,
            c.noc_coupling_pj,
            c.noc_route_pj,
            c.offchip_request_pj,
            c.bridge_flit_vdd_pj,
        ];
        let tail_base = features::VDD_FEATURES - tail.len();
        vdd[tail_base..].copy_from_slice(&tail);
        Self {
            vdd_pj: vdd,
            vcs_pj: vec![
                c.clock_vcs_pj_per_cycle,
                c.l1i_pj,
                c.l1d_read_pj,
                c.l1d_write_pj,
                c.l15_read_pj,
                c.l15_write_pj,
                c.l15_writeback_pj,
                c.l2_read_pj,
                c.l2_write_pj,
                c.dir_pj,
            ],
            vio_pj: vec![c.bridge_flit_vio_pj, c.io_transaction_pj],
            static_mw: [c.static_vdd_mw, c.static_vcs_mw, c.static_vio_mw],
            static_t0_c: c.static_calibration_temp_c,
            tech: TechModel::ibm32soi(),
        }
    }

    /// FNV-1a digest of every coefficient's bits: the model's identity
    /// in the analytic journal context, so results cached under one
    /// coefficient table are never served under another.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let bytes: Vec<u8> = self
            .vdd_pj
            .iter()
            .chain(&self.vcs_pj)
            .chain(&self.vio_pj)
            .chain(&self.static_mw)
            .chain([&self.static_t0_c])
            .flat_map(|c| c.to_bits().to_le_bytes())
            .collect();
        crate::journal::fnv64(&bytes)
    }

    /// Nominal dynamic energy of a feature vector, per rail (pJ per
    /// feature-unit — pJ/cycle when given a rate profile). The VDD sum
    /// is clamped at zero so the drafted-issue saving can never drive
    /// energy negative, mirroring the cycle model's clamp.
    #[must_use]
    pub fn dynamic_nominal_pj(&self, f: &Features) -> (f64, f64, f64) {
        let dot = |c: &[f64], x: &[f64]| c.iter().zip(x).map(|(a, b)| a * b).sum::<f64>();
        (
            dot(&self.vdd_pj, &f.vdd).max(0.0),
            dot(&self.vcs_pj, &f.vcs),
            dot(&self.vio_pj, &f.vio),
        )
    }

    /// Static (leakage) power at an operating point and corner — the
    /// same exponential curves as the cycle engine's
    /// [`piton_power::model::PowerModel::static_power`].
    #[must_use]
    pub fn static_power(&self, op: OperatingPoint, corner: ChipCorner) -> RailPower {
        let t_scale = self
            .tech
            .leakage_temperature_scale(op.junction_c.min(T_CLAMP_C), self.static_t0_c)
            * corner.leakage;
        let vdd_scale = self.tech.leakage_voltage_scale(op.vdd, V_NOM_VDD);
        let vcs_scale = self.tech.leakage_voltage_scale(op.vcs, V_NOM_VCS);
        RailPower {
            vdd: Watts::from_mw(self.static_mw[0] * vdd_scale * t_scale),
            vcs: Watts::from_mw(self.static_mw[1] * vcs_scale * t_scale),
            vio: Watts::from_mw(self.static_mw[2]),
        }
    }

    /// Total rail power of a per-cycle rate profile at an operating
    /// point and corner: dynamic dot products voltage-scaled and spread
    /// over the cycle time, plus leakage.
    #[must_use]
    pub fn power(&self, rates: &Features, op: OperatingPoint, corner: ChipCorner) -> RailPower {
        let (vdd_pj, vcs_pj, vio_pj) = self.dynamic_nominal_pj(rates);
        let f_hz = 1.0 / op.freq.period().0;
        let vdd_scale = self.tech.dynamic_scale(op.vdd, V_NOM_VDD) * corner.dynamic;
        let vcs_scale = self.tech.dynamic_scale(op.vcs, V_NOM_VCS) * corner.dynamic;
        let vio_scale = self.tech.dynamic_scale(op.vio, V_NOM_VIO);
        let leak = self.static_power(op, corner);
        RailPower {
            vdd: Watts(vdd_pj * vdd_scale * f_hz * 1e-12) + leak.vdd,
            vcs: Watts(vcs_pj * vcs_scale * f_hz * 1e-12) + leak.vcs,
            vio: Watts(vio_pj * vio_scale * f_hz * 1e-12) + leak.vio,
        }
    }

    /// The per-rail dynamic voltage scales at an operating point and
    /// corner.
    #[must_use]
    pub fn dynamic_scales(&self, op: OperatingPoint, corner: ChipCorner) -> [f64; 3] {
        [
            self.tech.dynamic_scale(op.vdd, V_NOM_VDD) * corner.dynamic,
            self.tech.dynamic_scale(op.vcs, V_NOM_VCS) * corner.dynamic,
            self.tech.dynamic_scale(op.vio, V_NOM_VIO),
        ]
    }
}

#[cfg(test)]
mod tests {
    use piton_power::model::PowerModel;
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
                let got_static = analytic.static_power(op, corner);
                assert!(
                    (want_static.total_with_io().0 - got_static.total_with_io().0).abs() < 1e-12
                );
            }
        }
    }

    /// Every charged counter, alone in a 1 000-cycle window, costs the
    /// same dynamic energy on both backends: a swapped or sign-flipped
    /// feature slot (the drafted-issue credit included) cannot hide
    /// behind the other counters.
    #[test]
    fn every_feature_slot_matches_the_cycle_power_model() {
        use piton_arch::isa::Opcode;
        type Set = fn(&mut ActivityCounters);
        let mut windows: Vec<(String, ActivityCounters)> = Vec::new();
        let counters: [(&str, Set); 26] = [
            ("cycles", |_| {}),
            ("core_active_cycles", |a| a.core_active_cycles = 700),
            ("mem_stall_cycles", |a| a.mem_stall_cycles = 700),
            ("dual_thread_cycles", |a| a.dual_thread_cycles = 700),
            ("drafted_issues", |a| a.drafted_issues = 700),
            ("l15_misses", |a| a.l15_misses = 700),
            ("invalidations", |a| a.invalidations = 700),
            ("load_rollbacks", |a| a.load_rollbacks = 700),
            ("store_rollbacks", |a| a.store_rollbacks = 700),
            ("sb_enqueues", |a| a.sb_enqueues = 700),
            ("noc_flit_hops", |a| a.noc_flit_hops = 700),
            ("noc_bit_switches", |a| a.noc_bit_switches = 700),
            ("noc_coupling_switches", |a| a.noc_coupling_switches = 700),
            ("noc_route_computes", |a| a.noc_route_computes = 700),
            ("offchip_requests", |a| a.offchip_requests = 700),
            ("chip_bridge_flits", |a| a.chip_bridge_flits = 700),
            ("l1i_accesses", |a| a.l1i_accesses = 700),
            ("l1d_reads", |a| a.l1d_reads = 700),
            ("l1d_writes", |a| a.l1d_writes = 700),
            ("l15_reads", |a| a.l15_reads = 700),
            ("l15_writes", |a| a.l15_writes = 700),
            ("l15_writebacks", |a| a.l15_writebacks = 700),
            ("l2_reads", |a| a.l2_reads = 700),
            ("l2_writes", |a| a.l2_writes = 700),
            ("dir_lookups", |a| a.dir_lookups = 700),
            ("io_transactions", |a| a.io_transactions = 700),
        ];
        for (name, set) in counters {
            let mut a = ActivityCounters::new();
            a.cycles = 1_000;
            set(&mut a);
            windows.push((name.to_owned(), a));
        }
        for op in Opcode::ALL {
            let mut a = ActivityCounters::new();
            a.cycles = 1_000;
            a.issues[op.index()] = 700;
            windows.push((format!("issues.{}", op.mnemonic()), a.clone()));
            // The cycle model charges operand activity only alongside
            // issues of the same opcode.
            a.operand_activity[op.index()] = 350.0;
            windows.push((format!("activity.{}", op.mnemonic()), a));
        }

        // Together the windows reach every feature slot.
        let mut reached = Features::zero();
        for (_, a) in &windows {
            reached.add_scaled(&Features::extract(a), 1.0);
        }
        for v in reached.vdd.iter().chain(&reached.vcs).chain(&reached.vio) {
            assert!(*v > 0.0, "a feature slot no window sets: {reached:?}");
        }

        let corner = ChipCorner::typical();
        let cycle = PowerModel::new(Calibration::piton_hpca18(), TechModel::ibm32soi(), corner);
        let analytic = AnalyticModel::reference();
        let op = OperatingPoint::table_iii().with_junction(25.0);
        let leak = cycle.static_power(op);
        for (name, a) in &windows {
            let want = cycle.power(a, op);
            let got = analytic.power(&Features::rates(a), op, corner);
            for (rail, w, g, l) in [
                ("vdd", want.vdd.0, got.vdd.0, leak.vdd.0),
                ("vcs", want.vcs.0, got.vcs.0, leak.vcs.0),
                ("vio", want.vio.0, got.vio.0, leak.vio.0),
            ] {
                let (w, g) = (w - l, g - l);
                assert!(
                    (w - g).abs() <= 1e-12 * w.abs(),
                    "{name} on {rail}: cycle {w} W vs analytic {g} W"
                );
            }
        }
    }
}

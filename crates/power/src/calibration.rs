//! Calibrated per-event energies.
//!
//! The power model charges simulator activity counters against the
//! coefficients in [`Calibration`]; the term table
//! ([`crate::energy::TERMS`]) says which counter each one multiplies,
//! and is the only reader of the per-event energies. All values are picojoules at the
//! nominal supplies of Table III (1.0 V VDD / 1.05 V VCS) and are scaled
//! quadratically with voltage at other operating points.
//!
//! ## Where the numbers come from
//!
//! Piton's silicon is the ground truth; the coefficients below are fitted
//! so that the *experiments of this repository reproduce the paper's
//! published measurements*:
//!
//! * the chip-wide idle clock energy reproduces Table V
//!   (idle − static = 1626 mW at 500.05 MHz ⇒ ≈ 3252 pJ/cycle);
//! * per-instruction base + operand-value coefficients reproduce the
//!   Figure 11 EPI bars, including the 3 × `add` ≈ 1 × `ldx` insight
//!   (`ldx` L1 hit anchored at 286.46 pJ, Table VII);
//! * cache and off-chip coefficients reproduce the Table VII
//!   memory-energy ladder (1.54 nJ local L2, ≈ 309 nJ L2 miss);
//! * NoC coefficients reproduce the Figure 12 trendlines
//!   (≈ 3.58 pJ/hop NSW fixed cost, ≈ 0.205 pJ per switched bit,
//!   a small coupling adder for FSWA).

use piton_arch::isa::Opcode;

/// Per-opcode energy: a fixed base plus a term proportional to the
/// operand-value activity factor in `[0, 1]`.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct InstrEnergy {
    /// Energy at all-zero operands, in pJ.
    pub base_pj: f64,
    /// Additional energy at all-ones operands, in pJ (scaled by the
    /// activity factor in between).
    pub value_pj: f64,
}

/// The full coefficient table of the power model. All energies in pJ at
/// nominal voltage; all rails referenced to Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Per-opcode issue energies (indexed by [`Opcode::index`]); VDD.
    pub instr: [InstrEnergy; Opcode::COUNT],

    /// Chip-wide clock-tree + always-on energy per cycle, VDD share.
    pub clock_vdd_pj_per_cycle: f64,
    /// Chip-wide clock/array-precharge energy per cycle, VCS share.
    pub clock_vcs_pj_per_cycle: f64,
    /// Extra energy per active core per cycle (issue logic, thread
    /// scheduler), VDD.
    pub active_core_pj_per_cycle: f64,
    /// Energy per stalled thread-cycle (pipeline holding state), VDD.
    pub stall_pj_per_cycle: f64,
    /// Extra energy per core-cycle with two runnable threads resident —
    /// the hardware thread-switching overhead §IV-H2 finds "comparable
    /// to the active power of an extra core", VDD.
    pub dual_thread_pj_per_cycle: f64,
    /// Front-end energy saved per Execution-Drafting hit (shared
    /// fetch/decode when the two threads issue identical instructions
    /// from the same PC, §II), VDD.
    pub execd_saving_pj: f64,

    /// L1I fetch, VCS.
    pub l1i_pj: f64,
    /// L1D read, VCS.
    pub l1d_read_pj: f64,
    /// L1D write, VCS.
    pub l1d_write_pj: f64,
    /// L1.5 read, VCS.
    pub l15_read_pj: f64,
    /// L1.5 write, VCS.
    pub l15_write_pj: f64,
    /// L1.5 miss handling (MSHR, replay queues, fill), VDD.
    pub l15_miss_pj: f64,
    /// L1.5 dirty write-back, VCS.
    pub l15_writeback_pj: f64,
    /// L2 slice read (tag + data), VCS.
    pub l2_read_pj: f64,
    /// L2 slice write, VCS.
    pub l2_write_pj: f64,
    /// Directory-cache lookup/update, VCS.
    pub dir_pj: f64,
    /// Invalidation delivery at an L1.5, VDD.
    pub invalidation_pj: f64,

    /// Load roll-back (flush + replay), VDD.
    pub load_rollback_pj: f64,
    /// Store roll-back, VDD.
    pub store_rollback_pj: f64,
    /// Store-buffer enqueue, VDD.
    pub sb_enqueue_pj: f64,

    /// Router + link traversal per flit per hop with no bit switching
    /// (the Figure 12 NSW trendline), VDD.
    pub noc_flit_hop_pj: f64,
    /// Energy per switched NoC data bit (Figure 12 FSW slope), VDD.
    pub noc_bit_switch_pj: f64,
    /// Extra energy per coupling-aggressor transition (FSWA − FSW), VDD.
    pub noc_coupling_pj: f64,
    /// Head-flit route computation, VDD.
    pub noc_route_pj: f64,

    /// Chip-side energy of one off-chip memory request (serdes, buffer
    /// FFs, request/response handling — excludes DRAM device energy per
    /// the paper's note), VDD.
    pub offchip_request_pj: f64,
    /// Chip-bridge flit transfer, VDD share.
    pub bridge_flit_vdd_pj: f64,
    /// Chip-bridge flit pad driving, VIO share.
    pub bridge_flit_vio_pj: f64,
    /// I/O transaction (SD/UART), VIO.
    pub io_transaction_pj: f64,

    /// Static (leakage) power at nominal voltage and the calibration
    /// temperature, VDD share, in mW.
    pub static_vdd_mw: f64,
    /// Static power, VCS share, in mW.
    pub static_vcs_mw: f64,
    /// Static + quiescent VIO power in mW.
    pub static_vio_mw: f64,
    /// Junction temperature (°C) at which the static split was measured.
    pub static_calibration_temp_c: f64,
}

impl Calibration {
    /// The coefficient set fitted to the paper (see module docs).
    #[must_use]
    pub fn piton_hpca18() -> Self {
        let mut instr = [InstrEnergy::default(); Opcode::COUNT];
        let mut set = |op: Opcode, base: f64, value: f64| {
            instr[op.index()] = InstrEnergy {
                base_pj: base,
                value_pj: value,
            };
        };
        set(Opcode::Nop, 25.0, 0.0);
        set(Opcode::And, 45.0, 60.0);
        set(Opcode::Add, 50.0, 60.0);
        set(Opcode::Sub, 50.0, 60.0);
        set(Opcode::Movi, 35.0, 0.0);
        set(Opcode::Mulx, 280.0, 250.0);
        set(Opcode::Sdivx, 620.0, 370.0);
        set(Opcode::Faddd, 405.0, 240.0);
        set(Opcode::Fmuld, 455.0, 260.0);
        set(Opcode::Fdivd, 705.0, 380.0);
        set(Opcode::Fadds, 325.0, 200.0);
        set(Opcode::Fmuls, 365.0, 220.0);
        set(Opcode::Fdivs, 465.0, 260.0);
        set(Opcode::Ldx, 171.5, 80.0);
        set(Opcode::Stx, 135.0, 80.0);
        set(Opcode::Casx, 300.0, 80.0);
        set(Opcode::Beq, 135.0, 60.0);
        set(Opcode::Bne, 125.0, 60.0);
        set(Opcode::Membar, 30.0, 0.0);
        set(Opcode::Halt, 10.0, 0.0);

        Self {
            instr,
            // Fitted so the assembled system (including leakage
            // self-heating to a ~35 °C idle junction) measures the
            // Table V idle power of 2015.3 mW at 500.05 MHz.
            clock_vdd_pj_per_cycle: 2483.0,
            clock_vcs_pj_per_cycle: 500.0,
            active_core_pj_per_cycle: 0.8,
            stall_pj_per_cycle: 0.3,
            dual_thread_pj_per_cycle: 60.0,
            execd_saving_pj: 30.0,

            l1i_pj: 15.0,
            l1d_read_pj: 60.0,
            l1d_write_pj: 70.0,
            l15_read_pj: 80.0,
            l15_write_pj: 90.0,
            l15_miss_pj: 600.0,
            l15_writeback_pj: 100.0,
            l2_read_pj: 350.0,
            l2_write_pj: 380.0,
            dir_pj: 40.0,
            invalidation_pj: 20.0,

            load_rollback_pj: 150.0,
            store_rollback_pj: 150.0,
            sb_enqueue_pj: 25.0,

            noc_flit_hop_pj: 3.58,
            noc_bit_switch_pj: 0.2047,
            noc_coupling_pj: 0.005,
            noc_route_pj: 1.0,

            offchip_request_pj: 215_000.0,
            bridge_flit_vdd_pj: 6_000.0,
            bridge_flit_vio_pj: 5_000.0,
            io_transaction_pj: 50_000.0,

            static_vdd_mw: 220.0,
            static_vcs_mw: 169.3,
            static_vio_mw: 100.0,
            static_calibration_temp_c: 25.0,
        }
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Self::piton_hpca18()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Calibration {
        /// Model EPI of one instruction class at a given operand
        /// activity, including the instruction fetch — the quantity the
        /// Figure 11 experiment should report for non-memory
        /// instructions.
        fn model_epi_pj(&self, op: Opcode, activity: f64) -> f64 {
            let e = self.instr[op.index()];
            e.base_pj + e.value_pj * activity + self.l1i_pj
        }
    }

    #[test]
    fn idle_clock_energy_is_consistent_with_table_v() {
        // Table V: idle − static = 1626 mW at 500.05 MHz, i.e. up to
        // 3252 pJ/cycle *including* the leakage growth from idle
        // self-heating. The pure clock energy is therefore below that
        // bound but above ~85% of it.
        let c = Calibration::piton_hpca18();
        let per_cycle = c.clock_vdd_pj_per_cycle + c.clock_vcs_pj_per_cycle;
        assert!(per_cycle < 3252.0);
        assert!(per_cycle > 0.85 * 3252.0);
    }

    #[test]
    fn static_split_matches_table_v() {
        let c = Calibration::piton_hpca18();
        assert!((c.static_vdd_mw + c.static_vcs_mw - 389.3).abs() < 0.1);
    }

    #[test]
    fn three_adds_equal_one_l1_load() {
        // §IV-E: "three add instructions can be executed with the same
        // amount of energy and latency as a ldx that hits in the L1".
        let c = Calibration::piton_hpca18();
        let add = c.model_epi_pj(Opcode::Add, 0.5);
        let ldx = c.model_epi_pj(Opcode::Ldx, 0.5) + c.l1d_read_pj;
        let ratio = ldx / add;
        assert!((2.5..=3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn operand_values_change_epi_substantially() {
        let c = Calibration::piton_hpca18();
        for op in [Opcode::Add, Opcode::Mulx, Opcode::Sdivx, Opcode::Faddd] {
            let min = c.model_epi_pj(op, 0.0);
            let max = c.model_epi_pj(op, 1.0);
            assert!(max > 1.2 * min, "{op}: {min} vs {max}");
        }
        // nop has no operands.
        assert_eq!(
            c.model_epi_pj(Opcode::Nop, 0.0),
            c.model_epi_pj(Opcode::Nop, 1.0)
        );
    }

    #[test]
    fn longest_latency_instructions_cost_most() {
        let c = Calibration::piton_hpca18();
        let e = |op| c.model_epi_pj(op, 0.5);
        assert!(e(Opcode::Sdivx) > e(Opcode::Mulx));
        assert!(e(Opcode::Mulx) > e(Opcode::Add));
        assert!(e(Opcode::Fdivd) > e(Opcode::Faddd));
        assert!(e(Opcode::Fdivd) > e(Opcode::Fdivs));
    }

    #[test]
    fn noc_trendline_coefficients_match_figure_12() {
        let c = Calibration::piton_hpca18();
        // NSW per flit-hop.
        assert!((c.noc_flit_hop_pj - 3.58).abs() < 0.01);
        // HSW: 32 switched bits.
        let hsw = c.noc_flit_hop_pj + 32.0 * c.noc_bit_switch_pj;
        assert!((9.0..=12.0).contains(&hsw), "HSW {hsw}");
        // FSW: 64 switched bits ≈ 16.68.
        let fsw = c.noc_flit_hop_pj + 64.0 * c.noc_bit_switch_pj;
        assert!((fsw - 16.68).abs() < 0.2, "FSW {fsw}");
        // FSWA: slightly above FSW.
        let fswa = fsw + 63.0 * c.noc_coupling_pj;
        assert!(fswa > fsw && fswa < fsw + 1.0);
    }
}

//! Figure 10 + Table V — static and idle power versus voltage and
//! frequency.
//!
//! For each VDD from 0.8 V to 1.2 V (VCS tracking +0.05 V) the chip
//! runs at the *minimum* of the three chips' maximum frequencies
//! (§IV-D), static power is measured with clocks grounded, idle power
//! with clocks running and resets released, and both are split into
//! their VDD (core) and VCS (SRAM) contributions and averaged across
//! the three chips.

use piton_arch::units::{Hertz, Volts, Watts};
use piton_board::population::NamedChip;

use super::{vf_sweep, Fidelity};
use crate::bench::{Bench, ProbeKind, Rig};
use crate::report::Table;
use crate::runner;

/// One voltage/frequency point of Figure 10 (three-chip average).
#[derive(Debug, Clone, Copy)]
pub struct StaticIdlePoint {
    /// Core voltage.
    pub vdd: Volts,
    /// Operating frequency (min of the three chips' maxima).
    pub freq: Hertz,
    /// Static power, core rail.
    pub static_vdd: Watts,
    /// Static power, SRAM rail.
    pub static_vcs: Watts,
    /// Idle *dynamic* power (idle − static), core rail.
    pub dynamic_vdd: Watts,
    /// Idle dynamic power, SRAM rail.
    pub dynamic_vcs: Watts,
}

impl StaticIdlePoint {
    /// Total idle power at this point.
    #[must_use]
    pub fn idle_total(&self) -> Watts {
        self.static_vdd + self.static_vcs + self.dynamic_vdd + self.dynamic_vcs
    }

    /// Total static power at this point.
    #[must_use]
    pub fn static_total(&self) -> Watts {
        self.static_vdd + self.static_vcs
    }
}

/// The Figure 10 sweep plus the Table V defaults.
#[derive(Debug, Clone)]
pub struct StaticIdleResult {
    /// One point per voltage step.
    pub points: Vec<StaticIdlePoint>,
    /// Table V: Chip #2 static power at the default operating point.
    pub table_v_static: Watts,
    /// Table V: Chip #2 idle power at 500.05 MHz.
    pub table_v_idle: Watts,
}

/// Paper values of Table V.
#[must_use]
pub fn paper_table_v() -> (Watts, Watts) {
    (Watts::from_mw(389.3), Watts::from_mw(2015.3))
}

fn measure_chip(
    bench: &dyn Bench,
    chip: NamedChip,
    vdd: Volts,
    freq: Hertz,
    fidelity: Fidelity,
) -> (Watts, Watts, Watts, Watts) {
    let rig = Rig::new(chip.corner(), 0xF10 + chip as u64).at(vdd, freq);
    let s = bench.static_power(&rig);
    let idle = bench
        .measure(&rig, ProbeKind::Idle, fidelity, None)
        .expect("fault-free idle window");
    (
        s.vdd,
        s.vcs,
        (idle.vdd.mean - s.vdd).max(Watts::ZERO),
        (idle.vcs.mean - s.vcs).max(Watts::ZERO),
    )
}

/// Runs the Figure 10 sweep and the Table V defaults on `bench`.
#[must_use]
pub fn run(bench: &dyn Bench, fidelity: Fidelity) -> StaticIdleResult {
    let vf = vf_sweep::run_with_jobs(fidelity.jobs);
    // 9 voltage steps × 3 chips, averaged per step after the sweep.
    let grid: Vec<(Volts, Hertz, NamedChip)> = vf
        .chip(NamedChip::Chip2)
        .points
        .iter()
        .enumerate()
        .flat_map(|(i, p)| {
            let freq = Hertz::from_mhz(vf.min_fmax_mhz(i));
            [NamedChip::Chip1, NamedChip::Chip2, NamedChip::Chip3]
                .into_iter()
                .map(move |chip| (p.vdd, freq, chip))
        })
        .collect();
    let measured = runner::sweep(fidelity.jobs, grid.clone(), |_, (vdd, freq, chip)| {
        measure_chip(bench, chip, vdd, freq, fidelity)
    });

    let points = grid
        .chunks(3)
        .zip(measured.chunks(3))
        .map(|(step, rails)| {
            let mut acc = [Watts::ZERO; 4];
            for &(sv, sc, dv, dc) in rails {
                acc[0] += sv;
                acc[1] += sc;
                acc[2] += dv;
                acc[3] += dc;
            }
            StaticIdlePoint {
                vdd: step[0].0,
                freq: step[0].1,
                static_vdd: acc[0] / 3.0,
                static_vcs: acc[1] / 3.0,
                dynamic_vdd: acc[2] / 3.0,
                dynamic_vcs: acc[3] / 3.0,
            }
        })
        .collect();

    // Table V: Chip #2 at the Table III defaults.
    let (table_v_static, table_v_idle) = bench.table_v(&Rig::chip(NamedChip::Chip2), fidelity);

    StaticIdleResult {
        points,
        table_v_static,
        table_v_idle,
    }
}

impl StaticIdleResult {
    /// Renders Figure 10 + Table V.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t =
            Table::new("Figure 10: static and idle power vs voltage/frequency (3-chip average)");
        t.header([
            "VDD (V)",
            "f (MHz)",
            "Core static (mW)",
            "SRAM static (mW)",
            "Core dynamic (mW)",
            "SRAM dynamic (mW)",
            "Idle total (W)",
        ]);
        for p in &self.points {
            t.row([
                format!("{:.2}", p.vdd.0),
                format!("{:.2}", p.freq.as_mhz()),
                format!("{:.1}", p.static_vdd.as_mw()),
                format!("{:.1}", p.static_vcs.as_mw()),
                format!("{:.1}", p.dynamic_vdd.as_mw()),
                format!("{:.1}", p.dynamic_vcs.as_mw()),
                format!("{:.3}", p.idle_total().0),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "\nTable V (Chip #2 defaults): static {:.1} mW, idle {:.1} mW\n",
            self.table_v_static.as_mw(),
            self.table_v_idle.as_mw()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::CycleBench;

    #[test]
    fn table_v_defaults_match_paper() {
        let r = run(&CycleBench, Fidelity::quick());
        let (paper_static, paper_idle) = paper_table_v();
        assert!(
            (r.table_v_static.as_mw() - paper_static.as_mw()).abs() < 30.0,
            "static {}",
            r.table_v_static.as_mw()
        );
        assert!(
            (r.table_v_idle.as_mw() - paper_idle.as_mw()).abs() < 40.0,
            "idle {}",
            r.table_v_idle.as_mw()
        );
    }

    #[test]
    fn power_rises_superlinearly_with_voltage() {
        let r = run(&CycleBench, Fidelity::quick());
        let first = &r.points[0]; // 0.8 V
        let nominal = &r.points[4]; // 1.0 V
        let last = &r.points[7]; // 1.15 V (1.2 V is throttled)
        assert!(nominal.idle_total().0 > 1.5 * first.idle_total().0);
        assert!(last.idle_total().0 > 1.3 * nominal.idle_total().0);
        // Static grows faster than linearly in V.
        let sr = last.static_total().0 / first.static_total().0;
        let vr = last.vdd.0 / first.vdd.0;
        assert!(sr > vr, "static ratio {sr} vs voltage ratio {vr}");
    }

    #[test]
    fn sram_and_core_rails_both_contribute() {
        let r = run(&CycleBench, Fidelity::quick());
        for p in &r.points {
            assert!(p.static_vdd.0 > 0.0 && p.static_vcs.0 > 0.0);
            assert!(p.dynamic_vdd.0 > 0.0 && p.dynamic_vcs.0 > 0.0);
            // Core dominates the idle dynamic power (clock tree).
            assert!(p.dynamic_vdd > p.dynamic_vcs);
        }
    }

    #[test]
    fn render_has_nine_rows() {
        let r = run(&CycleBench, Fidelity::quick());
        assert_eq!(r.points.len(), 9);
        assert!(r.render().contains("Table V"));
    }
}

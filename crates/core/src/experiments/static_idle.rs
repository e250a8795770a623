//! Figure 10 + Table V — static and idle power versus voltage and
//! frequency.
//!
//! For each VDD from 0.8 V to 1.2 V (VCS tracking +0.05 V) the chip
//! runs at the *minimum* of the three chips' maximum frequencies
//! (§IV-D), static power is measured with clocks grounded, idle power
//! with clocks running and resets released, and both are split into
//! their VDD (core) and VCS (SRAM) contributions and averaged across
//! the three chips.

use piton_arch::error::PitonError;
use piton_arch::units::{Hertz, Volts, Watts};
use piton_board::population::NamedChip;

use super::vf_sweep::{self, VfSweepResult};
use super::{whole, At, Env, Fidelity, Measured, Rendered, Runs, Section};
use crate::analytic::compare::{self, FigureComparison};
use crate::bench::{Bench, ProbeKind, Rig};
use crate::report::Table;

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

/// The three dies every voltage step averages.
const CHIPS: [NamedChip; 3] = [NamedChip::Chip1, NamedChip::Chip2, NamedChip::Chip3];

/// Figure 10 + Table V: one point per (VDD step, chip), then the Table
/// V defaults (`None`).
#[derive(Debug, Clone, Copy)]
pub struct StaticIdle;

impl Section for StaticIdle {
    type Point = Option<(usize, NamedChip)>;
    /// The Figure 9 sweep, whose steps set each point's operating point.
    type Inputs = VfSweepResult;
    /// Static VDD, static VCS, idle-dynamic VDD, idle-dynamic VCS (W);
    /// Table V's static and idle fill the first two.
    type Payload = [f64; 4];
    type Output = StaticIdleResult;
    const NAME: &'static str = "static_idle";
    const TITLE: &'static str = "Figure 10 + Table V — static and idle power";
    const RUNS: Runs = Runs::Bench;

    fn grid(&self, _: Fidelity) -> Vec<Self::Point> {
        (0..9)
            .flat_map(|i| CHIPS.map(|chip| Some((i, chip))))
            .chain([None])
            .collect()
    }

    fn prepare(&self, env: &Env) -> Result<VfSweepResult, PitonError> {
        Ok(vf_sweep::run_with_jobs(env.fidelity.jobs))
    }

    fn compute(&self, at: &At<Self>) -> Result<[f64; 4], PitonError> {
        let env = at.env;
        let vf = at.inputs;
        let point = at.point;
        let Some((i, chip)) = *point else {
            let (s, idle) = env
                .bench
                .table_v(&Rig::chip(NamedChip::Chip2), env.fidelity);
            return Ok([s.0, idle.0, 0.0, 0.0]);
        };
        let (vdd, freq) = step(vf, i);
        let rig = Rig::new(chip.corner(), 0xF10 + chip as u64).at(vdd, freq);
        let s = env.bench.static_power(&rig);
        let idle = env
            .bench
            .measure(&rig, ProbeKind::Idle, env.fidelity, None)
            .expect("fault-free idle window");
        Ok([
            s.vdd.0,
            s.vcs.0,
            (idle.vdd.mean - s.vdd).max(Watts::ZERO).0,
            (idle.vcs.mean - s.vcs).max(Watts::ZERO).0,
        ])
    }

    fn assemble(
        &self,
        _: &Env,
        vf: &VfSweepResult,
        points: Vec<Measured<'_, Self>>,
    ) -> StaticIdleResult {
        let mut rails: Vec<[f64; 4]> = points.into_iter().map(|(_, _, r)| whole(r)).collect();
        let table_v = rails.pop().expect("the Table V point");
        let points = rails
            .chunks(3)
            .enumerate()
            .map(|(i, chips)| {
                let mut acc = [Watts::ZERO; 4];
                for rail in chips {
                    for (a, w) in acc.iter_mut().zip(rail) {
                        *a += Watts(*w);
                    }
                }
                let (vdd, freq) = step(vf, i);
                StaticIdlePoint {
                    vdd,
                    freq,
                    static_vdd: acc[0] / 3.0,
                    static_vcs: acc[1] / 3.0,
                    dynamic_vdd: acc[2] / 3.0,
                    dynamic_vcs: acc[3] / 3.0,
                }
            })
            .collect();
        StaticIdleResult {
            points,
            table_v_static: Watts(table_v[0]),
            table_v_idle: Watts(table_v[1]),
        }
    }

    fn render(&self, out: &StaticIdleResult) -> Rendered {
        Rendered::body(out.render())
    }

    fn compare(
        &self,
        cycle: Option<&StaticIdleResult>,
        analytic: &StaticIdleResult,
        _: &Env,
    ) -> Vec<FigureComparison> {
        cycle.map_or_else(Vec::new, |c| compare::compare_static_idle(c, analytic))
    }
}

/// VDD step `i` of Figure 10: Chip #2's voltage at the minimum of the
/// three chips' maximum frequencies (§IV-D).
fn step(vf: &VfSweepResult, i: usize) -> (Volts, Hertz) {
    (
        vf.chip(NamedChip::Chip2).points[i].vdd,
        Hertz::from_mhz(vf.min_fmax_mhz(i)),
    )
}

/// Runs the Figure 10 sweep and the Table V defaults on `bench`.
#[must_use]
pub fn run(bench: &dyn Bench, fidelity: Fidelity) -> StaticIdleResult {
    super::run(StaticIdle, &Env::new(bench, fidelity, None), None)
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

//! Per-figure analytic predictors.
//!
//! Each predictor mirrors its cycle-level experiment's methodology step
//! for step — the same EPI/EPF formulas, the same trendline fits, the
//! same warm-up thermal convention — but evaluates the closed-form
//! model over rate profiles instead of simulating windows. The model
//! charges the cycle engine's own coefficients, so every disagreement
//! between the backends comes from the rate library (interpolation
//! between probes, probe-to-experiment noise) rather than from
//! divergent bookkeeping.

use piton_arch::isa::OperandPattern;
use piton_arch::units::Hertz;
use piton_board::population::NamedChip;
use piton_power::model::{ChipCorner, OperatingPoint, RailPower};
use piton_power::thermal::{Cooling, ThermalModel};
use piton_sim::machine::SwitchPattern;
use piton_workloads::epi::{EpiCase, StoreVariant, STX_DRAIN_NOPS};
use piton_workloads::micro::{Microbenchmark, ThreadsPerCore};

use super::battery::NOC_KNOTS;
use super::features::Features;
use super::Calibrated;
use crate::experiments::vf_sweep;
use crate::measure::{epf_pj, epi_pj, linear_fit};
use crate::report::{Table, ANALYTIC_MARK};

/// Ambient temperature of every thermal mirror (§IV-J room
/// temperature, the virtual bench default).
const AMBIENT_C: f64 = 20.0;

/// Power of the measurement-window `rates` at the warmed-up junction:
/// the analytic mirror of
/// [`piton_board::system::PitonSystem::warm_up`]'s leakage fixed point
/// (90 % of total-with-IO heating the package), which the bench solves
/// from the warm-up window's activity `warm`.
fn settled(
    cal: &Calibrated,
    warm: &Features,
    rates: &Features,
    op0: OperatingPoint,
    corner: ChipCorner,
) -> RailPower {
    let thermal = ThermalModel::new(Cooling::HeatsinkFan, AMBIENT_C);
    let (t_eq, _) = thermal.equilibrium(
        |t| {
            cal.model
                .power(warm, op0.with_junction(t), corner)
                .total_with_io()
                * 0.9
        },
        120.0,
    );
    cal.model.power(rates, op0.with_junction(t_eq), corner)
}

/// Per-feature least-squares line through the NoC hop knots, evaluated
/// at an arbitrary hop count.
fn noc_rates_at(knots: &[(f64, &Features)], hops: f64) -> Features {
    let n = knots.len() as f64;
    let sx: f64 = knots.iter().map(|k| k.0).sum();
    let denom: f64 = knots.iter().map(|k| k.0 * k.0).sum::<f64>() - sx * sx / n;
    let mut out = Features::zero();
    let project = |pick: fn(&Features) -> &[f64], slot: &mut [f64]| {
        for (j, s) in slot.iter_mut().enumerate() {
            let sy: f64 = knots.iter().map(|k| pick(k.1)[j]).sum();
            let sxy: f64 = knots.iter().map(|k| k.0 * pick(k.1)[j]).sum();
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

/// Table V, analytically: Chip #2 static and idle power (W).
#[must_use]
pub fn table_v(cal: &Calibrated) -> (f64, f64) {
    let corner = NamedChip::Chip2.corner();
    let op = OperatingPoint::table_iii().with_junction(AMBIENT_C);
    // Static: leakage-only self-heating fixed point, mirroring
    // `measure_static_power` (which warms from the fresh junction).
    let thermal = ThermalModel::new(Cooling::HeatsinkFan, AMBIENT_C);
    let (t_static, _) = thermal.equilibrium(
        |t| {
            cal.model
                .static_power(op.with_junction(t), corner)
                .total_with_io()
        },
        120.0,
    );
    let static_w = cal
        .model
        .static_power(op.with_junction(t_static), corner)
        .total()
        .0;
    let idle = cal.idle();
    let idle_w = settled(cal, &idle.warm, &idle.rates, op, corner).total().0;
    (static_w, idle_w)
}

/// One Figure 10 voltage step, chip-averaged (all in W).
#[derive(Debug, Clone, Copy)]
pub struct StaticIdleStep {
    /// Core voltage (V).
    pub vdd: f64,
    /// Static power, core rail.
    pub static_vdd: f64,
    /// Static power, SRAM rail.
    pub static_vcs: f64,
    /// Idle dynamic power, core rail.
    pub dynamic_vdd: f64,
    /// Idle dynamic power, SRAM rail.
    pub dynamic_vcs: f64,
}

/// Figure 10, analytically: static at the fresh junction, idle dynamic
/// as settled idle minus static, averaged over the three chips — the
/// exact shape of `static_idle::run`'s per-step averaging.
#[must_use]
pub fn static_idle(cal: &Calibrated) -> Vec<StaticIdleStep> {
    let vf = vf_sweep::run_with_jobs(1);
    let chips = [NamedChip::Chip1, NamedChip::Chip2, NamedChip::Chip3];
    let idle_probe = cal.idle();
    vf.chip(NamedChip::Chip2)
        .points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let freq = Hertz::from_mhz(vf.min_fmax_mhz(i));
            let mut acc = [0.0_f64; 4];
            for chip in chips {
                let corner = chip.corner();
                let op = OperatingPoint::table_iii()
                    .with_vdd_tracked(p.vdd)
                    .with_freq(freq)
                    .with_junction(AMBIENT_C);
                // The cycle bench reads static power *before* warm-up,
                // at the fresh system's ambient junction.
                let s = cal.model.static_power(op, corner);
                let idle = settled(cal, &idle_probe.warm, &idle_probe.rates, op, corner);
                acc[0] += s.vdd.0;
                acc[1] += s.vcs.0;
                acc[2] += (idle.vdd.0 - s.vdd.0).max(0.0);
                acc[3] += (idle.vcs.0 - s.vcs.0).max(0.0);
            }
            StaticIdleStep {
                vdd: p.vdd.0,
                static_vdd: acc[0] / 3.0,
                static_vcs: acc[1] / 3.0,
                dynamic_vdd: acc[2] / 3.0,
                dynamic_vcs: acc[3] / 3.0,
            }
        })
        .collect()
}

/// Figure 11, analytically: EPI per case and operand pattern (pJ), in
/// the cycle experiment's row order.
#[must_use]
pub fn epi(cal: &Calibrated) -> Vec<(String, OperandPattern, f64)> {
    let corner = NamedChip::Chip2.corner();
    let idle_probe = cal.idle();
    let idle_w = settled(
        cal,
        &idle_probe.warm,
        &idle_probe.rates,
        idle_probe.op,
        corner,
    )
    .total();
    let f = idle_probe.op.freq;
    let nop_probe = cal.epi(
        EpiCase::Plain(piton_arch::isa::Opcode::Nop),
        OperandPattern::Random,
    );
    let nop_epi = epi_pj(
        settled(cal, &nop_probe.warm, &nop_probe.rates, nop_probe.op, corner).total(),
        idle_w,
        f,
        1,
    );
    let mut rows = Vec::new();
    for case in EpiCase::figure_11() {
        let patterns: &[OperandPattern] = if case.has_value_operands() {
            &OperandPattern::ALL
        } else {
            &[OperandPattern::Random]
        };
        for &pattern in patterns {
            let probe = cal.epi(case, pattern);
            let p = settled(cal, &probe.warm, &probe.rates, probe.op, corner).total();
            let mut e = epi_pj(p, idle_w, f, case.opcode().base_latency());
            if case == EpiCase::Store(StoreVariant::NotFull) {
                e -= STX_DRAIN_NOPS as f64 * nop_epi;
            }
            rows.push((case.label(), pattern, e));
        }
    }
    rows
}

/// One Figure 12 series: pattern label, per-hop (hops, pJ/flit) points,
/// and the fitted pJ/hop trendline slope.
pub type NocSeries = (&'static str, Vec<(usize, f64)>, f64);

/// Figure 12, analytically: per-pattern EPF series over hops 0..=8 and
/// the fitted pJ/hop trendline.
#[must_use]
pub fn noc(cal: &Calibrated) -> Vec<NocSeries> {
    let f = Hertz::from_mhz(500.05);
    SwitchPattern::ALL
        .into_iter()
        .map(|pattern| {
            let probes: Vec<_> = NOC_KNOTS
                .iter()
                .map(|&h| (h as f64, &cal.noc(pattern, h).rates))
                .collect();
            let op = cal.noc(pattern, NOC_KNOTS[0]).op;
            let corner = ChipCorner::typical();
            let power_at = |hops: f64| {
                cal.model
                    .power(&noc_rates_at(&probes, hops), op, corner)
                    .total()
            };
            let base = power_at(0.0);
            let mut points = vec![(0usize, 0.0_f64)];
            points.extend((1..=8usize).map(|h| (h, epf_pj(power_at(h as f64), base, f))));
            let fit: Vec<(f64, f64)> = points.iter().map(|&(h, e)| (h as f64, e)).collect();
            let (_, slope) = linear_fit(&fit).expect("nine points are never degenerate");
            (pattern.label(), points, slope)
        })
        .collect()
}

/// The settled idle total (W) of Chip #3 — the `measure_idle_power`
/// mirror shared by the Figure 13/14 predictors.
#[must_use]
pub fn chip3_idle_w(cal: &Calibrated) -> f64 {
    let op = OperatingPoint::table_iii().with_junction(AMBIENT_C);
    let idle = cal.idle();
    settled(cal, &idle.warm, &idle.rates, op, NamedChip::Chip3.corner())
        .total()
        .0
}

/// Settled full-chip watts of one microbenchmark configuration at an
/// interpolated core count (Chip #3, the Figure 13/14 die).
#[must_use]
pub fn micro_power_w(
    cal: &Calibrated,
    bench: Microbenchmark,
    tpc: ThreadsPerCore,
    cores: f64,
) -> f64 {
    let warm = cal.micro_warm_rates_at(bench, tpc, cores);
    let rates = cal.micro_rates_at(bench, tpc, cores);
    let op = cal.micro(bench, tpc, super::battery::MICRO_KNOTS[0]).op;
    settled(cal, &warm, &rates, op, NamedChip::Chip3.corner())
        .total()
        .0
}

/// One Figure 13 series: benchmark, threads/core, per-count (cores, W)
/// points, and the fitted mW/core slope.
pub type ScalingSeries = (Microbenchmark, ThreadsPerCore, Vec<(usize, f64)>, f64);

/// Figure 13, analytically: full-chip watts per core count and the
/// fitted mW/core slope, per (benchmark, T/C) series.
#[must_use]
pub fn core_scaling(cal: &Calibrated, core_counts: &[usize]) -> Vec<ScalingSeries> {
    let mut series = Vec::new();
    for bench in Microbenchmark::ALL {
        for tpc in [ThreadsPerCore::One, ThreadsPerCore::Two] {
            let points: Vec<(usize, f64)> = core_counts
                .iter()
                .map(|&cores| (cores, micro_power_w(cal, bench, tpc, cores as f64)))
                .collect();
            let fit: Vec<(f64, f64)> = points.iter().map(|&(c, w)| (c as f64, w)).collect();
            let (_, slope) = linear_fit(&fit).expect("scaling series has ≥2 points");
            series.push((bench, tpc, points, slope * 1e3));
        }
    }
    series
}

/// Figure 14, analytically: steady-state total power (W) per
/// (benchmark, thread count, T/C) point, in the cycle sweep's order.
#[must_use]
pub fn mt_vs_mc(
    cal: &Calibrated,
    thread_counts: &[usize],
) -> Vec<(Microbenchmark, usize, ThreadsPerCore, f64)> {
    let mut points = Vec::new();
    for bench in Microbenchmark::ALL {
        for &threads in thread_counts {
            for tpc in [ThreadsPerCore::One, ThreadsPerCore::Two] {
                let cores = threads.div_ceil(tpc.count());
                let p = micro_power_w(cal, bench, tpc, cores as f64);
                points.push((bench, threads, tpc, p));
            }
        }
    }
    points
}

/// Figure 17, analytically: the thermal-study equilibrium per (thread
/// count, fan effectiveness) — same closure shape as the cycle
/// experiment, evaluated over the probed rate profiles.
#[must_use]
pub fn thermal(cal: &Calibrated) -> Vec<(usize, f64, f64, f64)> {
    let fan_steps = [1.0, 0.8, 0.6, 0.4, 0.2, 0.0];
    let mut points = Vec::new();
    for &threads in &super::battery::FIG17_THREADS {
        let probe = cal.fig17(threads);
        for &eff in &fan_steps {
            let thermal =
                ThermalModel::new(Cooling::BarePackageFan { effectiveness: eff }, AMBIENT_C);
            let (junction, power) = thermal.equilibrium(
                |t| {
                    cal.model
                        .power(&probe.rates, probe.op.with_junction(t), probe.corner)
                        .total()
                },
                120.0,
            );
            let surface = junction - power.0 * Cooling::HeatsinkFan.r_junction_surface();
            points.push((threads, eff, power.0, surface));
        }
    }
    points
}

/// Renders the analytic figure family for the `--backend analytic`
/// report (compact mirrors of the cycle tables, marked as analytic).
#[must_use]
pub fn render_analytic_sections(cal: &Calibrated) -> Vec<(&'static str, String)> {
    let mut sections = Vec::new();

    let (static_w, idle_w) = table_v(cal);
    let mut t = Table::new("Figure 10: static and idle power vs VDD (analytic, 3-chip average)");
    t.header([
        "VDD (V)",
        "Static VDD (mW)",
        "Static VCS (mW)",
        "Dyn VDD (mW)",
        "Dyn VCS (mW)",
    ]);
    for s in static_idle(cal) {
        t.row([
            format!("{:.2}", s.vdd),
            format!("{ANALYTIC_MARK}{:.1}", s.static_vdd * 1e3),
            format!("{ANALYTIC_MARK}{:.1}", s.static_vcs * 1e3),
            format!("{ANALYTIC_MARK}{:.1}", s.dynamic_vdd * 1e3),
            format!("{ANALYTIC_MARK}{:.1}", s.dynamic_vcs * 1e3),
        ]);
    }
    sections.push((
        "Figure 10 + Table V — static and idle power (analytic)",
        format!(
            "{}\nTable V (Chip #2 defaults, analytic): static {ANALYTIC_MARK}{:.1} mW, \
             idle {ANALYTIC_MARK}{:.1} mW\n",
            t.render(),
            static_w * 1e3,
            idle_w * 1e3
        ),
    ));

    let mut t = Table::new("Figure 11: EPI by instruction and operand value (analytic)");
    t.header(["Instruction", "Pattern", "EPI (pJ)"]);
    for (label, pattern, e) in epi(cal) {
        t.row([label, pattern.to_string(), format!("{ANALYTIC_MARK}{e:.0}")]);
    }
    sections.push(("Figure 11 — energy per instruction (analytic)", t.render()));

    let mut t = Table::new("Figure 12: NoC energy per flit (analytic)");
    t.header(["Pattern", "pJ/hop", "EPF @ 8 hops (pJ)"]);
    for (pattern, points, slope) in noc(cal) {
        t.row([
            pattern.to_owned(),
            format!("{ANALYTIC_MARK}{slope:.2}"),
            format!(
                "{ANALYTIC_MARK}{:.1}",
                points.last().expect("nine points").1
            ),
        ]);
    }
    sections.push(("Figure 12 — NoC energy per flit (analytic)", t.render()));

    let cores: Vec<usize> = vec![1, 5, 9, 13, 17, 21, 25];
    let mut t = Table::new(&format!(
        "Figure 13: power scaling with core count (analytic, idle {:.1} mW)",
        chip3_idle_w(cal) * 1e3
    ));
    t.header(["Benchmark", "Config", "mW/core", "W @ 25 cores"]);
    for (bench, tpc, points, slope) in core_scaling(cal, &cores) {
        t.row([
            bench.label().to_owned(),
            tpc.label().to_owned(),
            format!("{ANALYTIC_MARK}{slope:.1}"),
            format!("{ANALYTIC_MARK}{:.3}", points.last().expect("non-empty").1),
        ]);
    }
    sections.push((
        "Figure 13 — power scaling with core count (analytic)",
        t.render(),
    ));

    let mut t = Table::new("Figure 17: thermal study (analytic)");
    t.header(["Threads", "Fan", "Surface (°C)", "Power (mW)"]);
    for (threads, eff, power, surface) in thermal(cal) {
        t.row([
            threads.to_string(),
            format!("{eff:.1}"),
            format!("{ANALYTIC_MARK}{surface:.1}"),
            format!("{ANALYTIC_MARK}{:.1}", power * 1e3),
        ]);
    }
    sections.push((
        "Figure 17 — thermal characterization (analytic)",
        t.render(),
    ));

    sections
}

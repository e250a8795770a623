//! Tables VIII & IX and Figure 16 — the SPECint 2006 application study.
//!
//! Each benchmark's surrogate kernel runs on tile0 of the simulated
//! Piton system; CPI and power are *measured* (with the profile's I/O
//! transaction rate injected at the chip bridge), and the analytic
//! Sun Fire T2000 model prices the same profile on the comparison
//! machine. The benchmark's total instruction count is derived from the
//! paper's published T2000 minutes — an independent anchor — so the
//! Piton execution time, slowdown, average power and energy of Table IX
//! all *emerge* from the measured CPI and power.

use piton_arch::topology::TileId;
use piton_arch::units::{Hertz, Joules, Seconds, Watts};
use piton_board::system::PitonSystem;
use piton_workloads::spec::{spec_kernel, table_ix_benchmarks, SpecBenchmark, T2000Model};

use super::Fidelity;
use crate::report::Table;
use crate::runner;

/// One Table IX row as reproduced.
#[derive(Debug, Clone)]
pub struct SpecRow {
    /// Benchmark/input label.
    pub name: String,
    /// T2000 execution time (the paper's measured anchor), minutes.
    pub t2000_minutes: f64,
    /// Extrapolated Piton execution time, minutes.
    pub piton_minutes: f64,
    /// Piton slowdown (time ratio).
    pub slowdown: f64,
    /// Measured Piton CPI of the surrogate kernel.
    pub piton_cpi: f64,
    /// Modelled T2000 CPI of the same profile.
    pub t2000_cpi: f64,
    /// Measured average Piton chip power.
    pub avg_power: Watts,
    /// Piton energy over the full run.
    pub energy: Joules,
}

/// The Table IX dataset.
#[derive(Debug, Clone)]
pub struct SpecResult {
    /// One row per benchmark/input pair.
    pub rows: Vec<SpecRow>,
}

/// Paper values of Table IX: `(name, t2000 min, piton min, slowdown,
/// power W, energy kJ)`.
#[must_use]
pub fn paper_reference() -> Vec<(&'static str, f64, f64, f64, f64, f64)> {
    vec![
        ("bzip2-chicken", 11.74, 57.36, 4.89, 2.199, 7.566),
        ("bzip2-source", 23.62, 129.02, 5.46, 2.119, 16.404),
        ("gcc-166", 5.72, 38.28, 6.70, 2.094, 4.809),
        ("gcc-200", 9.21, 70.67, 7.67, 2.156, 9.139),
        ("gobmk-13x13", 16.67, 77.51, 4.65, 2.127, 9.889),
        ("h264ref-foreman-baseline", 22.76, 71.08, 3.12, 2.149, 9.162),
        ("hmmer-nph3", 48.38, 164.94, 3.41, 2.400, 23.750),
        ("libquantum", 201.61, 1175.70, 5.83, 2.287, 161.363),
        ("omnetpp", 72.94, 727.04, 9.97, 2.096, 91.431),
        ("perlbench-checkspam", 11.57, 92.56, 8.00, 2.137, 11.863),
        ("perlbench-diffmail", 23.13, 184.37, 7.97, 2.141, 22.320),
        ("sjeng", 122.07, 569.22, 4.66, 2.080, 71.043),
        ("xalancbmk", 102.99, 730.03, 7.09, 2.148, 94.077),
    ]
}

/// Measured CPI and power of one surrogate kernel.
#[derive(Debug, Clone, Copy)]
struct KernelMeasurement {
    cpi: f64,
    power: Watts,
}

fn measure_kernel(bench: &SpecBenchmark, fidelity: Fidelity) -> KernelMeasurement {
    let mut sys = PitonSystem::reference_chip_2();
    sys.set_chunk_cycles(fidelity.chunk_cycles);
    sys.machine_mut()
        .load_thread(TileId::new(0), 0, spec_kernel(&bench.profile));
    // Warm past the kernel's L2-region warming pass (~0.12 M cycles).
    sys.warm_up(fidelity.warmup_cycles.max(220_000));

    let mut window = piton_board::monitor::MeasurementWindow::new();
    let retired_before = sys.machine().core(TileId::new(0)).retired();
    let cycles_before = sys.machine().counters().cycles;
    for _ in 0..fidelity.samples {
        let before = sys.machine().counters().clone();
        let r0 = sys.machine().core(TileId::new(0)).retired();
        sys.machine_mut().run(fidelity.chunk_cycles);
        // Inject the profile's I/O traffic in proportion to progress.
        let executed = sys.machine().core(TileId::new(0)).retired() - r0;
        let io = (executed as f64 * bench.profile.io_per_kinstr / 1_000.0).round() as u64;
        sys.machine_mut().record_io(io);
        let delta = sys.machine().counters().delta_since(&before);
        let p = sys.power_model().power(&delta, sys.operating_point());
        window.push(p.total());
    }
    let retired = sys.machine().core(TileId::new(0)).retired() - retired_before;
    let cycles = sys.machine().counters().cycles - cycles_before;
    KernelMeasurement {
        cpi: cycles as f64 / retired as f64,
        power: window.mean().expect("kernel window is never empty"),
    }
}

/// Runs the Table IX study over all 13 pairs.
#[must_use]
pub fn run(fidelity: Fidelity) -> SpecResult {
    let t2000 = T2000Model::sun_fire_t2000();
    let piton_f = Hertz::from_mhz(500.05);
    // Each surrogate kernel simulates its own single-core system.
    let benches = table_ix_benchmarks();
    let measured = runner::sweep(fidelity.jobs, benches.clone(), |_, bench| {
        measure_kernel(&bench, fidelity)
    });
    let rows = benches
        .iter()
        .zip(measured)
        .map(|(bench, m)| {
            let cpi_t = t2000.cpi(&bench.profile);
            // Instruction count from the independent T2000 anchor.
            let instructions = bench.t2000_minutes * 60.0 * (t2000.freq_mhz * 1e6) / cpi_t;
            // Effective CPI: measured kernel CPI plus the fitted OS
            // overhead (TLB reloads, paging, kernel time).
            let cpi_eff = m.cpi + bench.profile.os_stall_cpi;
            let piton_seconds = instructions * cpi_eff / piton_f.0;
            let piton_minutes = piton_seconds / 60.0;
            SpecRow {
                name: bench.name.to_owned(),
                t2000_minutes: bench.t2000_minutes,
                piton_minutes,
                slowdown: piton_minutes / bench.t2000_minutes,
                piton_cpi: cpi_eff,
                t2000_cpi: cpi_t,
                avg_power: m.power,
                energy: m.power * Seconds(piton_seconds),
            }
        })
        .collect();
    SpecResult { rows }
}

impl SpecResult {
    /// A row by benchmark name.
    #[must_use]
    pub fn row(&self, name: &str) -> Option<&SpecRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Exports Table IX as CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut t = Table::new("");
        t.header([
            "benchmark",
            "t2000_minutes",
            "piton_minutes",
            "slowdown",
            "piton_cpi",
            "t2000_cpi",
            "avg_power_w",
            "energy_kj",
        ]);
        for r in &self.rows {
            t.row([
                r.name.clone(),
                format!("{:.2}", r.t2000_minutes),
                format!("{:.2}", r.piton_minutes),
                format!("{:.3}", r.slowdown),
                format!("{:.3}", r.piton_cpi),
                format!("{:.3}", r.t2000_cpi),
                format!("{:.3}", r.avg_power.0),
                format!("{:.3}", r.energy.as_kj()),
            ]);
        }
        t.to_csv()
    }

    /// Renders Table IX with paper deviations.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::new("Table IX: SPECint 2006 performance, power, and energy");
        t.header([
            "Benchmark/Input",
            "T2000 (min)",
            "Piton (min)",
            "Slowdown",
            "Paper slowdown",
            "Power (W)",
            "Energy (kJ)",
        ]);
        for r in &self.rows {
            let paper = paper_reference()
                .into_iter()
                .find(|p| p.0 == r.name)
                .map_or(0.0, |p| p.3);
            t.row([
                r.name.clone(),
                format!("{:.2}", r.t2000_minutes),
                format!("{:.2}", r.piton_minutes),
                format!("{:.2}", r.slowdown),
                format!("{paper}"),
                format!("{:.3}", r.avg_power.0),
                format!("{:.3}", r.energy.as_kj()),
            ]);
        }
        t.render()
    }

    /// Renders Table VIII (the static system comparison).
    #[must_use]
    pub fn render_table_viii() -> String {
        let mut t = Table::new("Table VIII: Sun Fire T2000 and Piton system specifications");
        t.header(["System Parameter", "Sun Fire T2000", "Piton System"]);
        for row in piton_workloads::spec::table_viii() {
            t.row([row.parameter, row.t2000, row.piton]);
        }
        t.render()
    }
}

/// Figure 16 — power time series per rail over a full `gcc-166` run.
#[derive(Debug, Clone)]
pub struct TimeSeriesResult {
    /// `(emulated seconds, core mW, sram mW, io mW)` samples.
    pub samples: Vec<(f64, f64, f64, f64)>,
    /// Emulated total runtime in seconds.
    pub total_seconds: f64,
}

/// Runs the Figure 16 time-series logging: the `gcc-166` surrogate with
/// its phases (compute-lean and memory/I/O-lean segments alternating),
/// logging per-rail power at the emulated 17 Hz → run-length mapping.
#[must_use]
pub fn run_timeseries(samples: usize, fidelity: Fidelity) -> TimeSeriesResult {
    let benches = table_ix_benchmarks();
    let gcc = benches
        .iter()
        .find(|b| b.name == "gcc-166")
        .expect("gcc-166");
    // Phase variants: lean (fewer misses) and heavy (profile as-is).
    let mut lean = gcc.profile;
    lean.mem_load_pct *= 0.3;
    lean.l2_load_pct *= 0.5;
    lean.int_pct += 4.0;
    lean.io_per_kinstr = 0.0;
    let heavy = gcc.profile;

    let mut sys = PitonSystem::reference_chip_2();
    sys.set_chunk_cycles(fidelity.chunk_cycles);
    let total_seconds = 38.28 * 60.0; // the paper's gcc-166 runtime
    let dt = total_seconds / samples as f64;

    let mut out = Vec::with_capacity(samples);
    let mut phase_heavy = true;
    for k in 0..samples {
        // Swap phases every eighth of the run (gcc's front-end/back-end
        // alternation).
        if k % (samples / 8).max(1) == 0 {
            phase_heavy = !phase_heavy;
            let profile = if phase_heavy { &heavy } else { &lean };
            sys.machine_mut()
                .load_thread(TileId::new(0), 0, spec_kernel(profile));
            sys.warm_up(fidelity.warmup_cycles.max(220_000));
        }
        let before = sys.machine().counters().clone();
        let r0 = sys.machine().core(TileId::new(0)).retired();
        sys.machine_mut().run(fidelity.chunk_cycles);
        let executed = sys.machine().core(TileId::new(0)).retired() - r0;
        let io_rate = if phase_heavy {
            gcc.profile.io_per_kinstr
        } else {
            0.0
        };
        let io = (executed as f64 * io_rate / 1_000.0).round() as u64;
        sys.machine_mut().record_io(io);
        let delta = sys.machine().counters().delta_since(&before);
        let p = sys.power_model().power(&delta, sys.operating_point());
        out.push((k as f64 * dt, p.vdd.as_mw(), p.vcs.as_mw(), p.vio.as_mw()));
    }
    TimeSeriesResult {
        samples: out,
        total_seconds,
    }
}

impl TimeSeriesResult {
    /// Renders a digest of the Figure 16 series.
    #[must_use]
    pub fn render(&self) -> String {
        let stat = |f: fn(&(f64, f64, f64, f64)) -> f64| {
            let vals: Vec<f64> = self.samples.iter().map(f).collect();
            let min = vals.iter().copied().fold(f64::MAX, f64::min);
            let max = vals.iter().copied().fold(f64::MIN, f64::max);
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            format!("min {min:.1} / mean {mean:.1} / max {max:.1} mW")
        };
        format!(
            "Figure 16: gcc-166 rail power over {:.0} s ({} samples)\n  Core (VDD): {}\n  SRAM (VCS): {}\n  I/O (VIO):  {}\n",
            self.total_seconds,
            self.samples.len(),
            stat(|s| s.1),
            stat(|s| s.2),
            stat(|s| s.3),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SpecResult {
        // Subset via full run at quick fidelity (13 kernels; each is a
        // single-core sim, cheap).
        run(Fidelity::quick())
    }

    #[test]
    fn slowdowns_land_in_the_paper_band_and_order_extremes() {
        let r = quick();
        for row in &r.rows {
            assert!(
                (2.0..=14.0).contains(&row.slowdown),
                "{}: slowdown {}",
                row.name,
                row.slowdown
            );
        }
        // The paper's extremes: h264ref fastest-relative, omnetpp worst.
        let h264 = r.row("h264ref-foreman-baseline").unwrap().slowdown;
        let omnetpp = r.row("omnetpp").unwrap().slowdown;
        assert!(omnetpp > 2.0 * h264, "omnetpp {omnetpp} vs h264 {h264}");
    }

    #[test]
    fn slowdowns_track_paper_within_forty_percent() {
        let r = quick();
        for (name, _, _, paper_slow, _, _) in paper_reference() {
            let row = r.row(name).unwrap();
            let dev = (row.slowdown - paper_slow).abs() / paper_slow;
            assert!(
                dev < 0.40,
                "{name}: slowdown {:.2} vs paper {paper_slow} ({:.0}%)",
                row.slowdown,
                dev * 100.0
            );
        }
    }

    #[test]
    fn average_power_is_marginally_above_idle() {
        // §IV-I: "The average power for SPECint benchmarks is marginally
        // larger than idle power, as only one core is active".
        let r = quick();
        for row in &r.rows {
            assert!(
                (1.95..=2.75).contains(&row.avg_power.0),
                "{}: power {}",
                row.name,
                row.avg_power.0
            );
        }
        // hmmer (heavy I/O) draws more than gcc.
        let hmmer = r.row("hmmer-nph3").unwrap().avg_power;
        let gcc = r.row("gcc-166").unwrap().avg_power;
        assert!(hmmer > gcc, "hmmer {hmmer} vs gcc {gcc}");
    }

    #[test]
    fn energy_correlates_with_execution_time() {
        let r = quick();
        let lib = r.row("libquantum").unwrap();
        let gcc = r.row("gcc-166").unwrap();
        assert!(lib.energy.0 > 10.0 * gcc.energy.0);
        // Energy ≈ power × time self-consistency.
        for row in &r.rows {
            let recomputed = row.avg_power.0 * row.piton_minutes * 60.0;
            assert!((recomputed - row.energy.0).abs() / row.energy.0 < 1e-9);
        }
    }

    #[test]
    fn timeseries_shows_io_phases() {
        let ts = run_timeseries(24, Fidelity::quick());
        assert_eq!(ts.samples.len(), 24);
        let io: Vec<f64> = ts.samples.iter().map(|s| s.3).collect();
        let min = io.iter().copied().fold(f64::MAX, f64::min);
        let max = io.iter().copied().fold(f64::MIN, f64::max);
        assert!(max > min + 5.0, "I/O rail must swing: {min}..{max}");
        assert!(ts.render().contains("gcc-166"));
    }

    #[test]
    fn table_viii_renders() {
        let s = SpecResult::render_table_viii();
        assert!(s.contains("UltraSPARC T1"));
        assert!(s.contains("848ns"));
    }
}

//! Figure 14 — power and energy of multithreading versus multicore.
//!
//! Each microbenchmark runs with equal thread counts in the 1 T/C
//! (multicore) and 2 T/C (multithreading) configurations. Power is
//! measured at steady state; energy comes from power × execution time
//! of a fixed-iteration variant. Following §IV-H2, power and energy
//! are split into an *active* portion and the idle portion charged for
//! the number of active cores (full-chip idle divided by 25, times
//! active cores) — so multicore is charged double the idle power of
//! multithreading. A bench that cannot time a run (the analytic one)
//! reports time and energy as [`Unsupported`].

use piton_arch::units::{Joules, Seconds, Watts};
use piton_board::population::NamedChip;
use piton_workloads::micro::{Microbenchmark, ThreadsPerCore};
use serde::{Deserialize, Serialize};

use super::Fidelity;
use crate::bench::{Bench, ProbeKind, Rig, Unsupported};
use crate::report::Table;
use crate::runner;

/// One (benchmark, threads, T/C) measurement.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MtMcPoint {
    /// Thread count.
    pub threads: usize,
    /// Configuration.
    pub tpc: ThreadsPerCore,
    /// Active cores.
    pub active_cores: usize,
    /// Measured full-chip power.
    pub total_power: Watts,
    /// Idle power attributed to the active cores.
    pub active_idle_power: Watts,
    /// Power above full-chip idle (the "active power").
    pub active_power: Watts,
    /// Execution time of the fixed-iteration variant.
    pub exec_time: Result<Seconds, Unsupported>,
    /// Active energy (active power × time).
    pub active_energy: Result<Joules, Unsupported>,
    /// Active-cores idle energy (active idle power × time).
    pub idle_energy: Result<Joules, Unsupported>,
}

impl MtMcPoint {
    /// Total attributed energy (active + active-cores idle), the
    /// quantity Figure 14's stacked bars sum to.
    ///
    /// # Errors
    ///
    /// [`Unsupported`] where the bench could not time the run.
    pub fn total_energy(&self) -> Result<Joules, Unsupported> {
        Ok(self.active_energy? + self.idle_energy?)
    }
}

/// One benchmark's sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MtMcSeries {
    /// Which microbenchmark.
    pub bench: Microbenchmark,
    /// Points for both configurations at each thread count.
    pub points: Vec<MtMcPoint>,
}

/// The Figure 14 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MtMcResult {
    /// Per-benchmark series.
    pub series: Vec<MtMcSeries>,
    /// Full-chip idle power (Chip #3).
    pub chip_idle: Watts,
}

/// Iterations of the fixed-length variants (scaled so runs are long
/// enough to time but short enough to simulate).
fn iterations(bench: Microbenchmark, fidelity: Fidelity) -> u32 {
    let base = (fidelity.chunk_cycles / 40).max(50) as u32;
    match bench {
        // Long enough that the serialized cold-miss warm-up of the
        // mixed threads is a small fraction of the run.
        Microbenchmark::Int | Microbenchmark::Hp => base * 30,
        Microbenchmark::Hist => 2,
    }
}

fn measure_point(
    bench: &dyn Bench,
    micro: Microbenchmark,
    threads: usize,
    tpc: ThreadsPerCore,
    chip_idle: Watts,
    fidelity: Fidelity,
) -> MtMcPoint {
    assert_eq!(
        threads % tpc.count(),
        0,
        "{threads} threads at {}",
        tpc.label()
    );
    let active_cores = threads / tpc.count();
    let rig = Rig::chip(NamedChip::Chip3);
    let work = ProbeKind::Micro(micro, tpc, active_cores);
    // Steady-state power with the infinite variant, execution time with
    // the fixed-iteration one.
    let total_power = bench
        .measure(&rig, work, fidelity, None)
        .expect("fault-free window")
        .total
        .mean;
    let exec_time = bench.run_time(&rig, work, iterations(micro, fidelity), fidelity);

    let active_idle_power = chip_idle * (active_cores as f64 / 25.0);
    let active_power = (total_power - chip_idle).max(Watts::ZERO);
    MtMcPoint {
        threads,
        tpc,
        active_cores,
        total_power,
        active_idle_power,
        active_power,
        exec_time,
        active_energy: exec_time.map(|t| active_power * t),
        idle_energy: exec_time.map(|t| active_idle_power * t),
    }
}

/// Runs the Figure 14 sweep over the given thread counts (the harness
/// uses 2..=24 even counts) on `bench`.
#[must_use]
pub fn run_with_threads(
    bench: &dyn Bench,
    thread_counts: &[usize],
    fidelity: Fidelity,
) -> MtMcResult {
    let chip_idle = bench.idle_power(&Rig::chip(NamedChip::Chip3), fidelity);

    // 3 benchmarks × thread counts × 2 T/C; the shared chip-idle
    // baseline was measured once above and is copied into every point.
    let grid: Vec<(Microbenchmark, usize, ThreadsPerCore)> = Microbenchmark::ALL
        .into_iter()
        .flat_map(|bench| {
            thread_counts.iter().flat_map(move |&threads| {
                [ThreadsPerCore::One, ThreadsPerCore::Two]
                    .into_iter()
                    .map(move |tpc| (bench, threads, tpc))
            })
        })
        .collect();
    let points = runner::sweep(fidelity.jobs, grid, |_, (micro, threads, tpc)| {
        measure_point(bench, micro, threads, tpc, chip_idle, fidelity)
    });

    let per_bench = thread_counts.len() * 2;
    let series = Microbenchmark::ALL
        .into_iter()
        .zip(points.chunks(per_bench))
        .map(|(bench, chunk)| MtMcSeries {
            bench,
            points: chunk.to_vec(),
        })
        .collect();
    MtMcResult { series, chip_idle }
}

/// Runs the full sweep (thread counts 2, 4, …, 24) on `bench`.
#[must_use]
pub fn run(bench: &dyn Bench, fidelity: Fidelity) -> MtMcResult {
    let threads: Vec<usize> = (1..=12).map(|k| 2 * k).collect();
    run_with_threads(bench, &threads, fidelity)
}

impl MtMcResult {
    /// A benchmark's series.
    #[must_use]
    pub fn series_for(&self, bench: Microbenchmark) -> &MtMcSeries {
        self.series
            .iter()
            .find(|s| s.bench == bench)
            .expect("all benchmarks present")
    }

    /// Renders Figure 14.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.series {
            let mut t = Table::new(&format!(
                "Figure 14: {} — multithreading (2 T/C) vs multicore (1 T/C)",
                s.bench.label()
            ));
            t.header([
                "Threads",
                "Config",
                "Cores",
                "Active P (W)",
                "Idle P (W)",
                "Time (ms)",
                "Active E (J)",
                "Idle E (J)",
            ]);
            let timed = |cell: Result<f64, Unsupported>, text: fn(f64) -> String| {
                cell.map_or_else(|_| "unsupported".to_owned(), text)
            };
            for p in &s.points {
                t.row([
                    p.threads.to_string(),
                    p.tpc.label().to_owned(),
                    p.active_cores.to_string(),
                    format!("{:.3}", p.active_power.0),
                    format!("{:.3}", p.active_idle_power.0),
                    timed(p.exec_time.map(|t| t.0 * 1e3), |ms| format!("{ms:.3}")),
                    timed(p.active_energy.map(|e| e.0), |j| format!("{j:.6}")),
                    timed(p.idle_energy.map(|e| e.0), |j| format!("{j:.6}")),
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::CycleBench;

    fn result() -> MtMcResult {
        run_with_threads(&CycleBench, &[8, 16], Fidelity::quick())
    }

    fn pick(
        r: &MtMcResult,
        bench: Microbenchmark,
        threads: usize,
        tpc: ThreadsPerCore,
    ) -> MtMcPoint {
        *r.series_for(bench)
            .points
            .iter()
            .find(|p| p.threads == threads && p.tpc == tpc)
            .unwrap()
    }

    #[test]
    fn multicore_is_charged_double_idle() {
        let r = result();
        let mc = pick(&r, Microbenchmark::Int, 16, ThreadsPerCore::One);
        let mt = pick(&r, Microbenchmark::Int, 16, ThreadsPerCore::Two);
        assert_eq!(mc.active_cores, 16);
        assert_eq!(mt.active_cores, 8);
        assert!((mc.active_idle_power.0 - 2.0 * mt.active_idle_power.0).abs() < 1e-9);
    }

    #[test]
    fn int_multithreading_uses_less_power_but_more_energy() {
        // §IV-H2: "for Int and HP multithreading consumes more energy
        // and less power than multicore".
        let r = result();
        for bench in [Microbenchmark::Int, Microbenchmark::Hp] {
            let mc = pick(&r, bench, 16, ThreadsPerCore::One);
            let mt = pick(&r, bench, 16, ThreadsPerCore::Two);
            assert!(
                mt.total_power < mc.total_power,
                "{}: MT power {} !< MC power {}",
                bench.label(),
                mt.total_power,
                mc.total_power
            );
            assert!(
                mt.total_energy().unwrap().0 > mc.total_energy().unwrap().0,
                "{}: MT energy {} !> MC energy {}",
                bench.label(),
                mt.total_energy().unwrap().0,
                mc.total_energy().unwrap().0
            );
            // Execution-time ratio ≈ 2 (little overlap).
            let ratio = mt.exec_time.unwrap().0 / mc.exec_time.unwrap().0;
            assert!(
                (1.5..=2.3).contains(&ratio),
                "{}: ratio {ratio}",
                bench.label()
            );
        }
    }

    #[test]
    fn hist_multithreading_is_more_energy_efficient() {
        // §IV-H2: overlapping opportunities make MT win for Hist.
        let r = result();
        let mc = pick(&r, Microbenchmark::Hist, 16, ThreadsPerCore::One);
        let mt = pick(&r, Microbenchmark::Hist, 16, ThreadsPerCore::Two);
        // Execution times are similar (lots of overlap)...
        let ratio = mt.exec_time.unwrap().0 / mc.exec_time.unwrap().0;
        assert!(ratio < 1.7, "Hist MT/MC time ratio {ratio}");
        // ...so the double idle charge makes multicore lose.
        assert!(
            mt.total_energy().unwrap().0 < mc.total_energy().unwrap().0 * 1.05,
            "Hist: MT {} vs MC {}",
            mt.total_energy().unwrap().0,
            mc.total_energy().unwrap().0
        );
    }

    #[test]
    fn int_and_hp_energy_scales_with_threads_hist_stays_flat() {
        let r = result();
        let e = |bench, threads| {
            pick(&r, bench, threads, ThreadsPerCore::One)
                .total_energy()
                .unwrap()
                .0
        };
        // Int/HP double total work when threads double.
        assert!(e(Microbenchmark::Int, 16) > 1.5 * e(Microbenchmark::Int, 8));
        // Hist keeps total work constant.
        let h8 = e(Microbenchmark::Hist, 8);
        let h16 = e(Microbenchmark::Hist, 16);
        assert!(
            h16 < 1.6 * h8,
            "Hist energy should stay roughly flat: {h8} -> {h16}"
        );
    }

    #[test]
    fn render_shows_both_configs() {
        let s = result().render();
        assert!(s.contains("1 T/C"));
        assert!(s.contains("2 T/C"));
    }
}

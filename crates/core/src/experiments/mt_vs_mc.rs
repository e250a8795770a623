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

use piton_arch::error::PitonError;
use piton_arch::units::{Joules, Seconds, Watts};
use piton_board::population::NamedChip;
use piton_workloads::micro::{Microbenchmark, ThreadsPerCore};

use super::{grouped, whole, At, Env, Fidelity, Measured, Rendered, Runs, Section};
use crate::analytic::compare::{self, FigureComparison};
use crate::bench::{Bench, ProbeKind, Rig, Unsupported};
use crate::report::Table;

/// One (benchmark, threads, T/C) measurement.
#[derive(Debug, Clone, Copy)]
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
#[derive(Debug, Clone)]
pub struct MtMcSeries {
    /// Which microbenchmark.
    pub bench: Microbenchmark,
    /// Points for both configurations at each thread count.
    pub points: Vec<MtMcPoint>,
}

/// The Figure 14 dataset.
#[derive(Debug, Clone)]
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

/// The thread counts a reduced-fidelity run sweeps.
pub const REDUCED_THREADS: [usize; 3] = [8, 16, 24];

/// Figure 14: one point per (benchmark, threads, T/C), thread counts
/// 2, 4, …, 24.
#[derive(Debug, Clone, Copy)]
pub struct MtMc;

impl Section for MtMc {
    type Point = (Microbenchmark, usize, ThreadsPerCore);
    /// Full-chip idle power (Chip #3), copied into every point.
    type Inputs = Watts;
    /// Steady-state total power (W) and, where the bench can time the
    /// fixed-iteration run, its execution time (s).
    type Payload = (Watts, Option<f64>);
    type Output = MtMcResult;
    const NAME: &'static str = "mt_mc";
    const TITLE: &'static str = "Figure 14 — multithreading versus multicore";
    const RUNS: Runs = Runs::Bench;

    fn grid(&self, _: Fidelity) -> Vec<Self::Point> {
        Microbenchmark::ALL
            .into_iter()
            .flat_map(|bench| {
                (1..=12).flat_map(move |k| {
                    [ThreadsPerCore::One, ThreadsPerCore::Two]
                        .into_iter()
                        .map(move |tpc| (bench, 2 * k, tpc))
                })
            })
            .collect()
    }

    fn shown(&self, fidelity: Fidelity) -> Option<Vec<usize>> {
        fidelity
            .is_reduced()
            .then(|| threads_shown(&REDUCED_THREADS))
    }

    fn prepare(&self, env: &Env) -> Result<Watts, PitonError> {
        Ok(env
            .bench
            .idle_power(&Rig::chip(NamedChip::Chip3), env.fidelity))
    }

    /// Steady-state power with the infinite variant, execution time with
    /// the fixed-iteration one.
    fn compute(&self, at: &At<Self>) -> Result<Self::Payload, PitonError> {
        let env = at.env;
        let &(micro, threads, tpc) = at.point;
        let rig = Rig::chip(NamedChip::Chip3);
        let work = ProbeKind::Micro(micro, tpc, threads / tpc.count());
        let total_power = env
            .bench
            .measure(&rig, work, env.fidelity, None)
            .expect("fault-free window")
            .total
            .mean;
        let exec_time =
            env.bench
                .run_time(&rig, work, iterations(micro, env.fidelity), env.fidelity);
        Ok((total_power, exec_time.ok().map(|t| t.0)))
    }

    fn assemble(&self, _: &Env, &chip_idle: &Watts, points: Vec<Measured<'_, Self>>) -> MtMcResult {
        let points = points.into_iter().map(|(_, &(bench, threads, tpc), r)| {
            let (total_power, exec_time) = whole(r);
            let exec_time = exec_time.map(Seconds).ok_or(Unsupported);
            let active_cores = threads / tpc.count();
            let active_idle_power = chip_idle * (active_cores as f64 / 25.0);
            let active_power = (total_power - chip_idle).max(Watts::ZERO);
            let point = MtMcPoint {
                threads,
                tpc,
                active_cores,
                total_power,
                active_idle_power,
                active_power,
                exec_time,
                active_energy: exec_time.map(|t| active_power * t),
                idle_energy: exec_time.map(|t| active_idle_power * t),
            };
            (bench, point)
        });
        let series = grouped(points)
            .into_iter()
            .map(|(bench, points)| MtMcSeries { bench, points })
            .collect();
        MtMcResult { series, chip_idle }
    }

    fn render(&self, out: &MtMcResult) -> Rendered {
        Rendered::body(out.render())
    }

    fn compare(
        &self,
        cycle: Option<&MtMcResult>,
        analytic: &MtMcResult,
        _: &Env,
    ) -> Vec<FigureComparison> {
        cycle
            .map(|c| compare::compare_mt_vs_mc(c, analytic))
            .into_iter()
            .collect()
    }
}

/// The canonical grid indices at the given thread counts.
fn threads_shown(thread_counts: &[usize]) -> Vec<usize> {
    let grid = MtMc.grid(Fidelity::full());
    (0..grid.len())
        .filter(|&i| thread_counts.contains(&grid[i].1))
        .collect()
}

/// Runs the Figure 14 sweep over the given thread counts (even, at most
/// 24; the harness uses all twelve) on `bench`.
#[must_use]
pub fn run_with_threads(
    bench: &dyn Bench,
    thread_counts: &[usize],
    fidelity: Fidelity,
) -> MtMcResult {
    let grid = MtMc.grid(fidelity);
    let env = Env::new(bench, fidelity, None);
    super::run_points(MtMc, &env, None, &grid, Some(threads_shown(thread_counts)))
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

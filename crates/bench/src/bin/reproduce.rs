//! Regenerates every table and figure of the paper's evaluation and
//! prints them in EXPERIMENTS.md form.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p piton-bench --bin reproduce              # full fidelity
//! cargo run --release -p piton-bench --bin reproduce -- quick     # reduced fidelity
//! cargo run --release -p piton-bench --bin reproduce -- csv=DIR   # also export CSV datasets
//! cargo run --release -p piton-bench --bin reproduce -- --jobs 8  # sweep worker threads
//! ```
//!
//! A run is its command line: no environment variable changes it. Every
//! flag takes `--flag VALUE` or `--flag=VALUE`; any argument other than
//! the ones below exits 2 before anything runs, naming it.
//!
//! Sweep parallelism defaults to the machine's available cores and can
//! be overridden with `--jobs N`. Results are byte-identical at every
//! jobs level; a per-section speedup table is printed to stderr at the
//! end.
//!
//! Fault injection (see `piton_board::fault`) is enabled with
//! `--fault-plan=SPEC` (`--fault-plan=seed=N,drop=0.03,stuck=0.02,glitch=0.02`
//! gives moderate monitor faults). Grid points that fail permanently are
//! rendered as explicitly-marked holes and the process exits nonzero so
//! a partially-failed reproduction cannot pass silently.
//!
//! The closed-loop DVFS/thermal governor family (see
//! `piton_core::experiments::governor`) is off by default — the stdout
//! of an ungoverned run is byte-identical to builds that predate the
//! governor. `--governor=POLICY`, with POLICY one of
//! `throttle-on-boot`, `race-to-halt` or `energy-frontier`, appends the
//! closed-loop Figure 9/18 reproductions and the energy-frontier race,
//! and records the policy in the run manifest.
//!
//! Durable runs (see `piton_core::journal`): `--journal PATH` appends
//! every completed grid point of the journaled sweep sections (`epi`,
//! `noc`, `scaling`, and `design_space` under the analytic backend) to
//! a write-ahead `piton-journal/v3` file of checksummed point lines.
//! Each sweep appends a computed point as soon as every earlier point
//! of the sweep is done, so the file grows in index order, and fsyncs
//! once when it ends; the file is the one `piton-serve` writes for the
//! same points and the next `--resume` indexes it without parsing.
//! Adding `--resume` serves completed points from an existing journal
//! and recomputes only the missing ones — the stdout, tables and
//! deterministic manifest projection are byte-identical to an
//! uninterrupted run at any `--jobs` level. Torn or truncated trailing
//! lines are detected by checksum, discarded and recomputed, never
//! trusted. Deterministic crash injection for the recovery harness: a
//! `crash=SECTION:IDX` fault-plan entry hard-aborts the process when
//! the sweep that computed that grid point ends, strictly *after* its
//! record is durably on disk.
//!
//! Backend selection (see `piton_core::analytic`): `--backend cycle`
//! (the default; stdout is byte-identical to builds that predate the
//! knob), `--backend analytic`, or `--backend both`. The analytic
//! backend runs a library of cycle-level probes for their activity
//! rates and answers the power experiments' bench measurements from
//! them with the cycle engine's own power law
//! (`piton_core::analytic::AnalyticBench`); each power figure renders
//! through its own table, titled `(analytic)`, and the run finishes
//! with the `design_space` mega-sweep the cycle engine could never run.
//! `both` runs the full cycle flow and each power experiment once more
//! on the analytic bench — without the journal or the fault plan — and
//! appends a per-figure analytic-vs-cycle error table; any figure over
//! its committed error budget fails the run. The backend (and, for
//! analytic runs, the model's law digest) is part of the journal
//! context, so a journal recorded under one backend refuses to resume
//! under another. The run manifest records the backend.
//!
//! Observability (see `piton_obs`): `--trace SPEC` streams structured
//! simulator events to a JSONL file — spec grammar in
//! `piton_obs::trace::TraceSpec` — and every invocation writes a
//! `piton-run-manifest/v1` run manifest (section timings, sweep holes,
//! and the full metrics-registry snapshot) to `piton-run-manifest.json`,
//! overridable with `--metrics PATH`. Neither touches stdout: the
//! rendered tables stay byte-identical with and without them.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use piton_bench::{flag_value, unknown_arg};
use piton_board::fault::FaultPlan;
use piton_core::analytic::{self, compare, AnalyticBench};
use piton_core::bench::{Bench, CycleBench};
use piton_core::experiments::core_scaling::CoreScalingResult;
use piton_core::experiments::epi::EpiResult;
use piton_core::experiments::mt_vs_mc::MtMcResult;
use piton_core::experiments::noc_energy::NocEnergyResult;
use piton_core::experiments::static_idle::StaticIdleResult;
use piton_core::experiments::thermal::ThermalPowerResult;
use piton_core::experiments::{
    ablations, area, core_scaling, design_space, epi, governor, mem_latency, memory_energy,
    mt_vs_mc, noc_energy, specint, static_idle, thermal, vf_sweep, yield_stats, Backend, Fidelity,
};
use piton_core::journal::{self, Journal};
use piton_core::report::Hole;
use piton_core::runner;
use piton_core::GovernorConfig;
use piton_obs::manifest::{RunManifest, SectionRecord};
use piton_obs::metrics;
use piton_obs::trace::{self, TraceSpec};

/// Wall/busy timing of one reproduced section.
struct SectionTiming {
    title: String,
    wall: Duration,
    stats: runner::SweepStats,
}

/// Parses a flag's value, if given, exiting with status 2 and
/// `reproduce: {what}{error}` when it is malformed.
fn parse_or_exit<T, E: std::fmt::Display>(
    value: Option<String>,
    what: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Option<T> {
    value.map(|v| {
        parse(&v).unwrap_or_else(|e| {
            eprintln!("reproduce: {what}{e}");
            std::process::exit(2);
        })
    })
}

/// Runs the bench-driven experiments once per selected backend: the
/// cycle pass with the run's fault plan and journal, the analytic pass
/// with neither, so it never serves, appends or crashes on a record of
/// the cycle run.
struct Passes<'a> {
    cycle: bool,
    analytic: Option<&'a AnalyticBench<'a>>,
    plan: Option<&'a FaultPlan>,
    journal: Option<&'a Mutex<Journal>>,
}

impl Passes<'_> {
    fn run<R>(
        &self,
        run: impl Fn(&dyn Bench, Option<&FaultPlan>, Option<&Mutex<Journal>>) -> R,
    ) -> Results<R> {
        Results {
            cycle: self
                .cycle
                .then(|| run(&CycleBench, self.plan, self.journal)),
            analytic: self.analytic.map(|bench| run(bench, None, None)),
        }
    }
}

/// One experiment's result per backend.
struct Results<R> {
    cycle: Option<R>,
    analytic: Option<R>,
}

impl<R> Results<R> {
    /// The analytic-vs-cycle diff, when both backends ran.
    fn compare<C>(&self, diff: impl Fn(&R, &R) -> C) -> Option<C> {
        Some(diff(self.cycle.as_ref()?, self.analytic.as_ref()?))
    }

    /// The section's title and body: the cycle result when there is
    /// one, else the analytic result under a marked title.
    fn shown(&self, title: &str, render: impl Fn(&R) -> String) -> (String, String) {
        match (&self.cycle, &self.analytic) {
            (Some(r), _) => (title.to_owned(), render(r)),
            (None, Some(r)) => (format!("{title} (analytic)"), render(r)),
            (None, None) => unreachable!("every backend runs cycle, analytic or both"),
        }
    }
}

/// The flags that take a value.
const FLAGS: [&str; 7] = [
    "jobs",
    "backend",
    "governor",
    "fault-plan",
    "trace",
    "metrics",
    "journal",
];
/// The arguments that stand alone (`csv=` takes its value after `=`).
const WORDS: [&str; 3] = ["quick", "csv=", "--resume"];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(a) = unknown_arg(&args, &FLAGS, &WORDS) {
        eprintln!(
            "reproduce: unknown argument {a:?} (accepted: quick, csv=DIR, --resume, --{})",
            FLAGS.join(" V, --") + " V"
        );
        std::process::exit(2);
    }
    let flag = |name: &str| flag_value(&args, name);
    let quick = args.iter().any(|a| a == "quick");
    // `--jobs N` or `--jobs=N`, else every available core; 0 means 1.
    let jobs = parse_or_exit(flag("jobs"), "bad --jobs: ", |v| {
        v.trim()
            .parse::<usize>()
            .map(|n| n.max(1))
            .map_err(|_| format!("{v:?} is not a worker count"))
    })
    .unwrap_or_else(runner::default_jobs);
    let backend =
        parse_or_exit(flag("backend"), "bad --backend: ", Backend::parse).unwrap_or(Backend::Cycle);
    let governor_policy = parse_or_exit(
        flag("governor"),
        "bad --governor policy: ",
        GovernorConfig::parse,
    )
    .unwrap_or(GovernorConfig::Off);
    let fault_plan = parse_or_exit(flag("fault-plan"), "", FaultPlan::parse);
    let trace_spec = parse_or_exit(flag("trace"), "bad --trace spec: ", TraceSpec::parse);
    let manifest_path = flag("metrics").unwrap_or_else(|| "piton-run-manifest.json".to_owned());
    let journal_path = flag("journal");
    let resume = args.iter().any(|a| a == "--resume");
    if resume && journal_path.is_none() {
        eprintln!("reproduce: --resume requires --journal PATH");
        std::process::exit(2);
    }
    // The registry only accumulates (and is drained into the run
    // manifest); nothing printed to stdout depends on it.
    metrics::enable();
    let csv_dir: Option<std::path::PathBuf> = args
        .iter()
        .find_map(|a| a.strip_prefix("csv=").map(std::path::PathBuf::from));
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv directory");
    }
    let write_csv = |name: &str, data: String| {
        if let Some(dir) = &csv_dir {
            std::fs::write(dir.join(name), data).expect("write csv");
        }
    };
    let fidelity = if quick {
        Fidelity::quick()
    } else {
        Fidelity::full()
    }
    .with_jobs(jobs);
    let plan = fault_plan.as_ref();
    let journal = journal_path.as_ref().map(|path| {
        // The same context the serve daemon derives, so a `--journal`
        // file and a `piton-serve` cache entry for one configuration
        // carry byte-identical context strings.
        let context = journal::run_context(if quick { "quick" } else { "full" }, plan, backend);
        if !resume {
            // A fresh durable run starts from a clean slate; only
            // `--resume` trusts (and recovers) an existing journal.
            let _ = std::fs::remove_file(path);
        }
        match Journal::open(std::path::Path::new(path), &context) {
            Ok(j) => {
                let s = j.stats();
                eprintln!(
                    "reproduce: journal {path}: {} point(s) recovered, {} torn byte(s) discarded{}",
                    s.recovered,
                    s.torn,
                    if resume { " (resuming)" } else { "" }
                );
                Mutex::new(j)
            }
            Err(e) => {
                eprintln!("reproduce: {e}");
                std::process::exit(2);
            }
        }
    });
    let journal = journal.as_ref();
    eprintln!(
        "reproduce: {} fidelity, {jobs} sweep worker(s)",
        if quick { "quick" } else { "full" }
    );
    if backend != Backend::Cycle {
        eprintln!("reproduce: backend {}", backend.label());
    }
    if !governor_policy.is_off() {
        eprintln!("reproduce: closed-loop governor family enabled (policy {governor_policy})");
    }
    if let Some(plan) = &fault_plan {
        eprintln!(
            "reproduce: fault plan active (seed {}, drop {}, stuck {}, glitch {}, {} sabotage(s), {} crash point(s))",
            plan.seed,
            plan.drop_rate,
            plan.stuck_rate,
            plan.glitch_rate,
            plan.sabotage.len(),
            plan.crash.len()
        );
    }

    let t0 = Instant::now();
    // Everything the sections observe, sweep workers included, reaches
    // this thread's metrics registry and, under `--trace`, the run's
    // trace file.
    let run = || {
        let mut timings: Vec<SectionTiming> = Vec::new();
        let mut section = |title: &str, body: String| {
            println!("\n# {title}\n");
            println!("{body}");
            // `body` was produced before entry; charge the elapsed time
            // since the previous section to this one.
            let wall = t0.elapsed() - timings.iter().map(|t| t.wall).sum::<Duration>();
            let stats = runner::take_stats();
            eprintln!("[{:7.1?}] {title} done", t0.elapsed());
            timings.push(SectionTiming {
                title: title.to_owned(),
                wall,
                stats,
            });
        };

        section(
            "Table IV — chip testing statistics",
            yield_stats::run().render(),
        );
        section("Figure 8 — area breakdown", area::run().render());
        section(
            "Figure 9 — voltage versus frequency",
            vf_sweep::run_with_jobs(jobs).render(),
        );
        let mut holes: Vec<Hole> = Vec::new();
        // Build the analytic rate library up front so each power figure
        // can run on both benches as its section comes up.
        let cal = if backend.runs_analytic() {
            let t_cal = Instant::now();
            match analytic::calibrate(fidelity, analytic::battery::probe_specs()) {
                Ok(cal) => {
                    eprintln!(
                        "reproduce: analytic rate library: {} cycle-level probe(s) in {:.1?}",
                        cal.probes.len(),
                        t_cal.elapsed()
                    );
                    Some(cal)
                }
                Err(e) => {
                    eprintln!("reproduce: rate library failed: {e}");
                    std::process::exit(2);
                }
            }
        } else {
            None
        };
        let mut comparisons: Vec<compare::FigureComparison> = Vec::new();
        let cycle = backend.runs_cycle();
        let analytic_bench = cal.as_ref().map(AnalyticBench::new);
        let passes = Passes {
            cycle,
            analytic: analytic_bench.as_ref(),
            plan,
            journal,
        };

        let static_result = passes.run(|bench, _, _| static_idle::run(bench, fidelity));
        comparisons.extend(
            static_result
                .compare(compare::compare_static_idle)
                .into_iter()
                .flatten(),
        );
        let (title, body) = static_result.shown(
            "Figure 10 + Table V — static and idle power",
            StaticIdleResult::render,
        );
        section(&title, body);
        let epi_result =
            passes.run(|bench, plan, journal| epi::run(bench, fidelity, plan, journal));
        if let Some(r) = &epi_result.cycle {
            holes.extend_from_slice(&r.holes);
            write_csv("figure11_epi.csv", r.to_csv());
        }
        comparisons.extend(epi_result.compare(compare::compare_epi));
        let (title, body) = epi_result.shown(
            "Figure 11 + Table VI — energy per instruction",
            EpiResult::render,
        );
        section(&title, body);
        if cycle {
            let mem_result = memory_energy::run(fidelity);
            write_csv("table7_memory_energy.csv", mem_result.to_csv());
            section("Table VII — memory system energy", mem_result.render());
        }
        let noc_result =
            passes.run(|bench, plan, journal| noc_energy::run(bench, fidelity, plan, journal));
        if let Some(r) = &noc_result.cycle {
            holes.extend_from_slice(&r.holes);
            write_csv("figure12_noc_epf.csv", r.to_csv());
        }
        comparisons.extend(noc_result.compare(compare::compare_noc));
        let (title, body) =
            noc_result.shown("Figure 12 — NoC energy per flit", NocEnergyResult::render);
        section(&title, body);
        let cores: Vec<usize> = if quick {
            vec![1, 5, 9, 13, 17, 21, 25]
        } else {
            (1..=25).collect()
        };
        let t_fig13 = Instant::now();
        let scaling_result = passes.run(|bench, plan, journal| {
            core_scaling::run_with_cores(bench, &cores, fidelity, plan, journal)
        });
        let fig13_wall = cycle.then(|| t_fig13.elapsed());
        if let Some(r) = &scaling_result.cycle {
            holes.extend_from_slice(&r.holes);
        }
        comparisons.extend(scaling_result.compare(compare::compare_core_scaling));
        let (title, body) = scaling_result.shown(
            "Figure 13 — power scaling with core count",
            CoreScalingResult::render,
        );
        section(&title, body);
        let threads: Vec<usize> = if quick {
            vec![8, 16, 24]
        } else {
            (1..=12).map(|k| 2 * k).collect()
        };
        let mt_result =
            passes.run(|bench, _, _| mt_vs_mc::run_with_threads(bench, &threads, fidelity));
        comparisons.extend(mt_result.compare(compare::compare_mt_vs_mc));
        let (title, body) = mt_result.shown(
            "Figure 14 — multithreading versus multicore",
            MtMcResult::render,
        );
        section(&title, body);
        if cycle {
            section(
                "Table VIII — system specifications",
                specint::SpecResult::render_table_viii(),
            );
            let spec_result = specint::run(fidelity);
            write_csv("table9_specint.csv", spec_result.to_csv());
            section(
                "Table IX — SPECint 2006 performance, power, and energy",
                spec_result.render(),
            );
            section(
                "Figure 15 — memory latency breakdown",
                mem_latency::run().render(),
            );
            section(
                "Figure 16 — gcc-166 power time series",
                specint::run_timeseries(if quick { 48 } else { 256 }, fidelity).render(),
            );
        }
        let thermal_result = passes.run(|bench, _, _| thermal::run_thermal_power(bench, fidelity));
        comparisons.extend(thermal_result.compare(compare::compare_thermal));
        let (title, body) = thermal_result.shown(
            "Figure 17 — power versus temperature",
            ThermalPowerResult::render,
        );
        section(&title, body);
        if cycle {
            section(
                "Figure 18 — scheduling and thermal hysteresis",
                thermal::run_scheduling(if quick { 64 } else { 180 }, 1.0, fidelity).render(),
            );
            if !governor_policy.is_off() {
                section(
                    "Figure 9 (closed loop) — governor throttle boundary",
                    governor::run_throttle_boundary(fidelity).render(),
                );
                section(
                    "Figure 18 (closed loop) — governor scheduling hysteresis",
                    governor::run_hysteresis(if quick { 64 } else { 180 }, 1.0, fidelity).render(),
                );
                section(
                    "Energy frontier — governor policies racing to completion",
                    governor::run_energy_frontier(fidelity).render(),
                );
            }
            section(
                "Ablations — design-choice sweeps (beyond the paper)",
                format!(
                    "{}\n{}\n{}\n{}\n{}",
                    ablations::slice_mapping().render(),
                    ablations::render_store_buffer(&ablations::store_buffer_depth(fidelity)),
                    ablations::render_overhead(&ablations::dual_thread_overhead(fidelity)),
                    ablations::render_noc_split(&ablations::noc_energy_split(fidelity)),
                    ablations::execution_drafting(fidelity).render(),
                ),
            );
        }
        if let Some(cal) = &cal {
            let t_ds = Instant::now();
            let ds = design_space::run(cal, fidelity, plan, journal);
            let ds_wall = t_ds.elapsed();
            holes.extend_from_slice(&ds.holes);
            let evaluated = ds.evaluated();
            section(
                "Design space — analytic V/f/cores/mix mega-sweep",
                ds.render(),
            );
            match fig13_wall {
                Some(w) => eprintln!(
                    "reproduce: analytic design_space: {evaluated} point(s) in {ds_wall:.1?} vs cycle Figure 13 {w:.1?}"
                ),
                None => eprintln!(
                    "reproduce: analytic design_space: {evaluated} point(s) in {ds_wall:.1?}"
                ),
            }
            if backend == Backend::Both {
                comparisons.push(design_space::cycle_oracle(cal, fidelity));
            }
        }
        if !comparisons.is_empty() {
            section(
                "Analytic vs cycle — per-figure conformance",
                compare::error_table(&comparisons),
            );
        }
        (timings, holes, comparisons)
    };
    let (timings, holes, comparisons) = match &trace_spec {
        Some(spec) => {
            let (out, written) = trace::to_file(spec, run);
            match written {
                Ok((lines, dropped)) => eprintln!(
                    "reproduce: trace: {lines} event(s) -> {} ({dropped} ring-dropped)",
                    spec.out
                ),
                Err(e) => eprintln!("reproduce: trace: {e}"),
            }
            out
        }
        None => run(),
    };

    // Per-section sweep speedup: how much grid-point work ran versus
    // the wall-clock the section took.
    eprintln!("\nsweep speedup by section ({jobs} worker(s)):");
    eprintln!(
        "  {:<55} {:>9} {:>9} {:>8}",
        "section", "wall", "busy", "speedup"
    );
    let mut total_busy = Duration::ZERO;
    for t in &timings {
        if t.stats.points == 0 {
            continue; // no sweeps in this section
        }
        total_busy += t.stats.busy;
        eprintln!(
            "  {:<55} {:>8.1?} {:>8.1?} {:>7.2}x",
            t.title,
            t.wall,
            t.stats.busy,
            t.stats.speedup()
        );
    }
    let total = t0.elapsed();
    eprintln!(
        "total: {total:?} (sweep work {total_busy:.1?}, overall speedup {:.2}x)",
        total_busy.as_secs_f64() / total.as_secs_f64()
    );

    // Drain the journal accounting into the metrics registry (before the
    // snapshot below) and the manifest's journal block.
    let journal_stats = journal.map(|j| {
        let stats = j.lock().expect("journal lock").stats();
        metrics::counter_add("journal.served", stats.served);
        metrics::counter_add("journal.appended", stats.appended);
        metrics::counter_add("journal.recovered", stats.recovered);
        metrics::counter_add("journal.torn", stats.torn);
        eprintln!(
            "reproduce: journal: {} served, {} appended, {} recovered, {} torn byte(s)",
            stats.served, stats.appended, stats.recovered, stats.torn
        );
        stats
    });

    // Emit the run manifest: section timings, sweep holes and the full
    // metrics-registry snapshot.
    let manifest = RunManifest {
        fidelity: if quick { "quick" } else { "full" }.to_owned(),
        jobs,
        fault_plan: fault_plan.as_ref().map(FaultPlan::render),
        fault_effects: fault_plan.as_ref().and_then(FaultPlan::render_effects),
        journal: journal_stats,
        governor: (!governor_policy.is_off()).then(|| governor_policy.label().to_owned()),
        backend: (backend != Backend::Cycle).then(|| backend.label().to_owned()),
        total_wall_s: total.as_secs_f64(),
        sections: timings
            .iter()
            .map(|t| SectionRecord {
                title: t.title.clone(),
                wall_s: t.wall.as_secs_f64(),
                busy_s: t.stats.busy.as_secs_f64(),
                sweeps: t.stats.sweeps as u64,
                points: t.stats.points as u64,
            })
            .collect(),
        holes,
        metrics: metrics::snapshot(),
    };
    if let Err(e) = std::fs::write(&manifest_path, manifest.to_json()) {
        eprintln!("reproduce: writing run manifest {manifest_path}: {e}");
        std::process::exit(2);
    }
    eprintln!("reproduce: run manifest -> {manifest_path}");

    if !manifest.holes.is_empty() {
        eprintln!(
            "reproduce: {} grid point(s) lost to faults — tables contain marked holes",
            manifest.holes.len()
        );
        std::process::exit(1);
    }
    let over_budget: Vec<_> = comparisons.iter().filter(|c| !c.within_budget()).collect();
    if !over_budget.is_empty() {
        for c in &over_budget {
            eprintln!(
                "reproduce: {} exceeds its analytic error budget: max {:.3}% > {:.2}%",
                c.figure,
                c.max_rel() * 100.0,
                c.budget * 100.0
            );
        }
        std::process::exit(1);
    }
}

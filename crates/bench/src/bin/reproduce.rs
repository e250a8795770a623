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
//! Every section is one entry of the registry
//! (`piton_core::experiments::each`), run in its order; a section's name
//! is its journal section and its `kill=`/`flaky=`/`crash=` address.
//!
//! Durable runs (see `piton_core::journal`): `--journal PATH` appends
//! every completed grid point of each section's pass on its natural
//! backend — the cycle engine for every section but `design_space`,
//! whose analytic pass is journaled, so an analytic-only run journals
//! `design_space` alone — to a write-ahead `piton-journal/v3` file of
//! checksummed point lines.
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
//! its committed error budget fails the run. Building the rate library
//! is a run-manifest section record of its own, which prints nothing. The backend (and, for
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
use piton_core::bench::CycleBench;
use piton_core::experiments::{self, Backend, Env, Fidelity, Rendered, Runs, Section, Visit};
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

/// What the sections of one run leave behind.
struct Run {
    t0: Instant,
    timings: Vec<SectionTiming>,
    holes: Vec<Hole>,
    comparisons: Vec<compare::FigureComparison>,
    /// Figure 13's wall, which the design-space line compares against.
    scaling_wall: Option<Duration>,
}

impl Run {
    /// Charges the time since the previous record, and the sweeps run
    /// since, to `title`; returns that wall and the points swept.
    fn record(&mut self, title: &str) -> (Duration, usize) {
        let wall = self.t0.elapsed() - self.timings.iter().map(|t| t.wall).sum::<Duration>();
        eprintln!("[{:7.1?}] {title} done", self.t0.elapsed());
        let stats = runner::take_stats();
        self.timings.push(SectionTiming {
            title: title.to_owned(),
            wall,
            stats,
        });
        (wall, stats.points)
    }
}

/// Runs each registry section on the backends it and the run select,
/// prints the shown pass, and compares the two passes under `both`.
struct Driver<'a> {
    run: &'a mut Run,
    backend: Backend,
    governed: bool,
    /// The cycle pass's environment: the run's plan and rate library.
    cycle_env: Env<'a>,
    analytic_bench: Option<&'a AnalyticBench<'a>>,
    journal: Option<&'a Mutex<Journal>>,
    write_csv: &'a dyn Fn(&str, &str),
}

impl Visit for Driver<'_> {
    fn visit<S: Section>(&mut self, s: &'static S) {
        let backend = self.backend;
        let cycle = backend.runs_cycle()
            && match S::RUNS {
                Runs::Governed => self.governed,
                runs => runs != Runs::Analytic,
            };
        let analytic = match S::RUNS {
            Runs::Always => !backend.runs_cycle(),
            Runs::Bench | Runs::Analytic => backend.runs_analytic(),
            Runs::Cycle | Runs::Governed => false,
        };
        // The cycle pass meets the plan and the journal; the analytic
        // pass only where it is the section's natural one.
        let natural = S::RUNS.natural() == Backend::Analytic;
        let pass = |env: &Env, journaled: bool| {
            experiments::pass(s, env, self.journal.filter(|_| journaled)).unwrap_or_else(|err| {
                eprintln!("reproduce: {}: {err}", S::NAME);
                std::process::exit(2);
            })
        };
        let cycle_run = cycle.then(|| pass(&self.cycle_env, true));
        let analytic_run = analytic.then(|| {
            let env = Env {
                bench: self
                    .analytic_bench
                    .expect("an analytic run has a rate library"),
                plan: self.cycle_env.plan.filter(|_| natural),
                ..self.cycle_env
            };
            pass(&env, natural)
        });
        self.show(
            (S::NAME, S::TITLE, S::RUNS),
            cycle_run.as_ref().map(|(r, _)| r),
            analytic_run.as_ref().map(|(r, _)| r),
        );
        if let (Backend::Both, Some((_, Some(a)))) = (backend, &analytic_run) {
            let c = cycle_run.as_ref().and_then(|(_, c)| c.as_ref());
            let found = s.compare(c, a, &self.cycle_env);
            self.run.comparisons.extend(found);
        }
    }
}

impl Driver<'_> {
    /// Prints a section's shown pass (the cycle pass when there is
    /// one), writes its CSV when that pass is the journaled one, and
    /// records its holes and timing.
    fn show(
        &mut self,
        (name, title, runs): (&str, &str, Runs),
        cycle: Option<&Rendered>,
        analytic: Option<&Rendered>,
    ) {
        let natural = runs.natural() == Backend::Analytic;
        let (shown, journaled) = match (cycle, analytic) {
            (Some(c), _) => (c, true),
            (None, Some(a)) => (a, natural),
            (None, None) => return,
        };
        for rendered in cycle.into_iter().chain(analytic) {
            self.run.holes.extend_from_slice(&rendered.holes);
        }
        if let (true, Some((file, data))) = (journaled, &shown.csv) {
            (self.write_csv)(file, data);
        }
        let title = if cycle.is_none() && runs == Runs::Bench {
            format!("{title} (analytic)")
        } else {
            title.to_owned()
        };
        println!("\n# {title}\n");
        println!("{}", shown.body);
        let (wall, points) = self.run.record(&title);
        if name == "scaling" {
            self.run.scaling_wall = Some(wall);
        }
        if runs == Runs::Analytic {
            let swept = points - shown.holes.len();
            match self.run.scaling_wall {
                Some(w) => eprintln!(
                    "reproduce: analytic {name}: {swept} point(s) in {wall:.1?} vs cycle Figure 13 {w:.1?}"
                ),
                None => eprintln!("reproduce: analytic {name}: {swept} point(s) in {wall:.1?}"),
            }
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
    let fault_plan = parse_or_exit(flag("fault-plan"), "", experiments::parse_plan);
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
    let write_csv = |name: &str, data: &str| {
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
        let mut run = Run {
            t0,
            timings: Vec::new(),
            holes: Vec::new(),
            comparisons: Vec::new(),
            scaling_wall: None,
        };
        // The analytic rate library, charged to a manifest record of its
        // own (it prints nothing).
        let cal = backend.runs_analytic().then(|| {
            let t_cal = Instant::now();
            match analytic::calibrate(fidelity, analytic::battery::probe_specs()) {
                Ok(cal) => {
                    eprintln!(
                        "reproduce: analytic rate library: {} cycle-level probe(s) in {:.1?}",
                        cal.probes.len(),
                        t_cal.elapsed()
                    );
                    run.record("Analytic rate library");
                    cal
                }
                Err(e) => {
                    eprintln!("reproduce: rate library failed: {e}");
                    std::process::exit(2);
                }
            }
        });
        let analytic_bench = cal.as_ref().map(AnalyticBench::new);
        experiments::each(&mut Driver {
            run: &mut run,
            backend,
            governed: !governor_policy.is_off(),
            cycle_env: Env {
                cal: cal.as_ref(),
                ..Env::new(&CycleBench, fidelity, plan)
            },
            analytic_bench: analytic_bench.as_ref(),
            journal,
            write_csv: &write_csv,
        });
        if !run.comparisons.is_empty() {
            let title = "Analytic vs cycle — per-figure conformance";
            println!("\n# {title}\n");
            println!("{}", compare::error_table(&run.comparisons));
            run.record(title);
        }
        (run.timings, run.holes, run.comparisons)
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

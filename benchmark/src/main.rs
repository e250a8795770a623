//! The repo benchmark: six workloads driven through the `reproduce`
//! and `piton-serve` command lines, eleven end-to-end metrics, and a
//! traced run that adds spans and per-layer probes. See `README.md`.
//!
//! ```text
//! piton-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
//! piton-benchmark --selfcheck [--seed N] [--seconds N]
//! piton-benchmark --spec > BENCHMARK.json
//! ```
//!
//! Run from the repository root. Without `--workload` every workload
//! runs in turn. The last line of stdout is the result as one JSON
//! object; the exit status is non-zero when any operation failed an
//! output check.

mod child;
mod frame;
mod json;
mod probes;
mod reproduce;
mod serve;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use child::{CpuSet, Scratch};
use spans::SpanLog;
use spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::Outcome;

/// Measuring budget per run when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 12.0;

/// What a per-layer metric reads when its source is not part of this
/// run: another workload's spans, or a probe that no longer builds.
/// Every real per-layer value is non-negative except the overhead
/// percentage, which is never exactly this.
pub const UNAVAILABLE: f64 = -1.0;

/// Everything a workload needs to know about its surroundings.
pub struct Env {
    pub reproduce: PathBuf,
    pub serve: PathBuf,
    pub goldens: Vec<(String, String)>,
    /// Measuring budget in seconds; set-up comes on top.
    pub seconds: f64,
    pub seed: u64,
    pub traced: bool,
    /// Time spent creating this run's scratch directory (part of set-up).
    pub scratch_s: f64,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    selfcheck: bool,
    /// Print `BENCHMARK.json` as the tables in `spec.rs` define it.
    spec: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: piton-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--selfcheck] [--spec]\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        selfcheck: false,
        spec: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                spec::workload(name).ok_or(format!("unknown workload {name:?}"))?;
                out.workload = Some(name.clone());
            }
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--selfcheck" => out.selfcheck = true,
            "--spec" => out.spec = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// Where the product is built: the driver's `CARGO_TARGET_DIR`, or a
/// directory of the benchmark's own.
fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("benchmark/target"),
    }
}

/// Builds `reproduce` and `piton-serve` from the checkout with the
/// product's own manifest, profile and lock file. A no-op when they
/// are current; never part of `setup_s`.
fn build_product(root: &Path, target: &Path) -> Result<(), String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "piton-bench",
        ])
        .args([
            "--bin",
            "reproduce",
            "--bin",
            "piton-serve",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", target)
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!(
            "building reproduce and piton-serve failed: {status}"
        ))
    }
}

/// Runs one workload in a fresh scratch directory under
/// `benchmark/out/`, which is also the children's working directory.
fn run_workload(
    root: &Path,
    env: &mut Env,
    name: &str,
    log: &mut SpanLog,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let scratch =
        Scratch::create(root.join(format!("benchmark/out/tmp-{}-{name}", std::process::id())))
            .map_err(|e| format!("scratch directory: {e}"))?;
    std::env::set_current_dir(scratch.path()).map_err(|e| format!("scratch directory: {e}"))?;
    env.scratch_s = start.elapsed().as_secs_f64();
    let outcome = match workloads::shape(name) {
        Some(shape) => workloads::serve_workload(env, &shape, log),
        None => workloads::reproduce_workload(env, name, name.ends_with("_trace_on"), log),
    };
    // Leave the directory before the guard removes it.
    let _ = std::env::set_current_dir(root);
    outcome
}

fn print_e2e(workload: &str, outcome: &Outcome) {
    for (m, (name, value)) in END_TO_END.iter().zip(&outcome.e2e) {
        assert_eq!(m.name, *name, "end-to-end metrics out of order");
        println!(
            "{workload:<26} {name:<28} {value:>16.6} {:<10} ({} is better, bound {:.1}%)",
            m.unit,
            m.better.label(),
            100.0 * m.bound
        );
    }
    println!(
        "{workload:<26} operations: {} attempted, {} failed, {} rep(s)",
        outcome.ops.attempted, outcome.ops.failed, outcome.reps
    );
    for note in &outcome.notes {
        println!("{workload:<26} note: {note}");
    }
    for failure in &outcome.ops.failures {
        println!("{workload:<26} FAILED: {failure}");
    }
}

/// The last line: `correct`, `attempted`, `failed` and `metrics`.
fn result_line(outcome: &Outcome, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(name),
                json::number(*value),
                json::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.ops.failed == 0,
        outcome.ops.attempted.max(1),
        outcome.ops.failed,
        body.join(",")
    )
}

/// Every per-layer metric of a traced run: the workload's own, the
/// probes', and `UNAVAILABLE` for the rest.
fn layer_values(
    outcome: &Outcome,
    probed: &[(String, f64)],
) -> Vec<(&'static str, &'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|l| {
            let value = outcome
                .layers
                .iter()
                .find(|(n, _)| *n == l.name)
                .map(|(_, v)| *v)
                .or_else(|| probed.iter().find(|(n, _)| n == l.name).map(|(_, v)| *v))
                .unwrap_or(UNAVAILABLE);
            (l.name, l.unit, value)
        })
        .collect()
}

fn print_layers(workload: &str, layers: &[(&str, &str, f64)]) {
    for (l, (name, unit, value)) in PER_LAYER.iter().zip(layers) {
        if *value == UNAVAILABLE {
            println!(
                "{workload:<26} {name:<48} {:>16} {unit:<10} moves: {}",
                "unavailable", l.moves
            );
        } else {
            println!(
                "{workload:<26} {name:<48} {value:>16.4} {unit:<10} moves: {}",
                l.moves
            );
        }
    }
}

/// Runs the untraced set twice and holds the second against the first
/// with the benchmark's own bounds.
fn selfcheck(root: &Path, env: &mut Env) -> Result<bool, String> {
    let mut sets: Vec<Vec<Outcome>> = Vec::new();
    for set in 0..2 {
        let mut outcomes = Vec::new();
        for w in &WORKLOADS {
            eprintln!("selfcheck: set {} of 2, {}", set + 1, w.name);
            outcomes.push(run_workload(root, env, w.name, &mut SpanLog::new(false))?);
        }
        sets.push(outcomes);
    }
    let mut ok = true;
    println!(
        "{:<26} {:<28} {:>14} {:>14} {:>9} {:>8}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        for (j, m) in END_TO_END.iter().enumerate() {
            let (first, second) = (a.e2e[j].1, b.e2e[j].1);
            // Journal bytes are exact for the daemon; a `reproduce`
            // manifest embeds timings whose digit count varies.
            let exact = m.exact
                || (m.name == "cache_bytes_per_point" && workloads::shape(w.name).is_some());
            let worse = stats::worsening(first, second, m.better == Better::Lower);
            let pass = if exact {
                first == second
            } else {
                worse <= m.bound
            };
            ok &= pass;
            println!(
                "{:<26} {:<28} {first:>14.6} {second:>14.6} {:>8.2}% {:>8} {}",
                w.name,
                m.name,
                100.0 * worse,
                if exact {
                    "exact".to_owned()
                } else {
                    format!("{:.1}%", 100.0 * m.bound)
                },
                if pass { "ok" } else { "EXCEEDED" }
            );
        }
        for o in [a, b] {
            ok &= o.ops.failed == 0;
            for failure in &o.ops.failures {
                println!("{:<26} FAILED: {failure}", w.name);
            }
        }
    }
    Ok(ok)
}

fn run(args: &Args) -> Result<bool, String> {
    if args.spec {
        print!("{}", spec::benchmark_json());
        return Ok(true);
    }
    let root = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    if !root.join("Cargo.toml").is_file()
        || !root.join("crates/bench/src/bin/reproduce.rs").is_file()
    {
        return Err(format!(
            "{} is not the repository root: the benchmark builds reproduce and piton-serve from the checkout it runs in",
            root.display()
        ));
    }
    let target = target_dir(&root);
    build_product(&root, &target)?;
    // From here on the harness and the children it measures share one
    // CPU: on a two-CPU host the kernel otherwise moves the client and
    // the daemon between "same CPU" and "one each" every few hundred
    // requests, and warm throughput jumps 30 % with it.
    let all_cpus = CpuSet::current();
    match all_cpus.and_then(|set| set.last_only()) {
        Some((cpu, one)) if one.apply() => eprintln!("piton-benchmark: measuring on CPU {cpu}"),
        _ => eprintln!("piton-benchmark: could not pin to one CPU; measuring unpinned"),
    }
    let mut env = Env {
        reproduce: target.join("release/reproduce"),
        serve: target.join("release/piton-serve"),
        goldens: reproduce::load_goldens(&root)?,
        seconds: args.seconds,
        seed: args.seed,
        traced: args.traced,
        scratch_s: 0.0,
    };
    if args.selfcheck {
        env.traced = false;
        return selfcheck(&root, &mut env);
    }

    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut all_ok = true;
    for name in names {
        let mut log = SpanLog::new(args.traced);
        let outcome = run_workload(&root, &mut env, name, &mut log)?;
        all_ok &= outcome.ops.failed == 0;
        print_e2e(name, &outcome);
        if !args.traced {
            let metrics: Vec<(&str, &str, f64)> = END_TO_END
                .iter()
                .zip(&outcome.e2e)
                .map(|(m, (_, v))| (m.name, m.unit, *v))
                .collect();
            println!("{}", result_line(&outcome, &metrics));
            continue;
        }
        let out_dir = root.join("benchmark/out");
        let trace_path = out_dir.join("trace.json");
        std::fs::write(&trace_path, log.to_json(name))
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        println!(
            "{name:<26} {} span(s) -> {}",
            log.len(),
            trace_path.display()
        );
        // The probes time single-threaded loops and stay pinned;
        // building them need not.
        let (probed, notes) = probes::run_all(&root, &target, &out_dir, all_cpus);
        for note in notes {
            println!("{name:<26} probe: {note}");
        }
        let layers = layer_values(&outcome, &probed);
        print_layers(name, &layers);
        println!("{}", result_line(&outcome, &layers));
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("piton-benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // Every guard (scratch directories, daemons) is dropped inside
    // `run`, on success, error and panic alike, before the exit code.
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("piton-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "noc_stream",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("noc_stream"));
        assert_eq!(
            (a.seed, a.seconds, a.traced, a.selfcheck),
            (42, 10.0, true, false)
        );
        let d = args(&[]).unwrap();
        assert_eq!(
            (d.workload, d.seed, d.seconds, d.traced),
            (None, 1, DEFAULT_SECONDS, false)
        );
        assert!(args(&["--selfcheck"]).unwrap().selfcheck);
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "inf"],
            &["--trace", "2"],
            &["--bogus"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_result_line_is_one_json_object_with_the_contract_keys() {
        let outcome = Outcome {
            e2e: Vec::new(),
            layers: Vec::new(),
            ops: workloads::Ops {
                attempted: 12,
                failed: 1,
                failures: vec!["x".to_owned()],
            },
            reps: 3,
            notes: Vec::new(),
        };
        let line = result_line(
            &outcome,
            &[("wall_s", "s", 2.034_125), ("paper_dev_pct", "%", 39.0)],
        );
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let json::Value::Object(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&json::Value::Bool(false)));
        assert_eq!(
            v.path("metrics/wall_s/value").and_then(json::Value::as_f64),
            Some(2.034_125)
        );
        assert_eq!(
            v.path("metrics/paper_dev_pct/unit")
                .and_then(json::Value::as_str),
            Some("%")
        );
    }

    #[test]
    fn unavailable_layers_are_reported_not_dropped() {
        let outcome = Outcome {
            e2e: Vec::new(),
            layers: vec![("core.serve.ttff_ms", 3.5)],
            ops: workloads::Ops::default(),
            reps: 1,
            notes: Vec::new(),
        };
        let probed = vec![("power.model.power_ns".to_owned(), 41.0)];
        let layers = layer_values(&outcome, &probed);
        assert_eq!(layers.len(), PER_LAYER.len());
        let value = |name: &str| layers.iter().find(|(n, _, _)| *n == name).unwrap().2;
        assert_eq!(value("core.serve.ttff_ms"), 3.5);
        assert_eq!(value("power.model.power_ns"), 41.0);
        assert_eq!(value("sim.memsys.cas_ns"), UNAVAILABLE);
    }
}

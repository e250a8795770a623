//! Builds and runs the per-layer probes under `probes/`. Unlike the
//! end-to-end harness the probes link the product's libraries, so a
//! refactor may stop one from compiling: each is built on its own, and
//! one that fails to build or run only makes its own metrics read
//! `unavailable`.
//!
//! Probe allow-list: a probe may call only the `pub` item its metric is
//! named after, plus the constructors needed to reach it.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

use crate::child::{self, CpuSet, Scratch};
use crate::spec;

/// Cold, the probes' dependency build takes ~20 s; `battery` alone
/// runs for ~2 s.
const BUILD_DEADLINE: Duration = Duration::from_secs(600);
const RUN_DEADLINE: Duration = Duration::from_secs(60);

/// `name value` lines of a probe's stdout.
pub fn parse_output(stdout: &str) -> Vec<(String, f64)> {
    stdout
        .lines()
        .filter_map(|line| {
            let (name, value) = line.split_once(' ')?;
            let value: f64 = value.trim().parse().ok()?;
            value.is_finite().then(|| (name.to_owned(), value))
        })
        .collect()
}

fn first_error(stderr: &str) -> &str {
    stderr
        .lines()
        .find(|l| l.starts_with("error"))
        .unwrap_or("no error line")
}

/// Builds one probe; `Err` is the note that explains why it is
/// unavailable.
fn build(bin: &str, manifest: &Path, probe_target: &Path, scratch: &Path) -> Result<(), String> {
    let build_log = scratch.join(format!("{bin}.build"));
    let built = File::create(&build_log).and_then(|log| {
        let mut cmd = Command::new("cargo");
        cmd.args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            bin,
            "--manifest-path",
        ])
        .arg(manifest)
        .env("CARGO_TARGET_DIR", probe_target)
        .stdout(Stdio::null())
        .stderr(log);
        child::run_to_exit(&mut cmd, BUILD_DEADLINE)
    });
    match built {
        Ok(done) if done.status.is_some_and(|s| s.success()) => Ok(()),
        Ok(_) => {
            let stderr = std::fs::read_to_string(&build_log).unwrap_or_default();
            Err(format!("{bin} does not build: {}", first_error(&stderr)))
        }
        Err(e) => Err(format!("{bin}: cargo: {e}")),
    }
}

/// Runs one built probe and returns the metrics it printed.
fn run(bin: &str, probe_target: &Path, scratch: &Path) -> Result<Vec<(String, f64)>, String> {
    let out_path = scratch.join(format!("{bin}.out"));
    let ran = File::create(&out_path).and_then(|out| {
        let mut cmd = Command::new(probe_target.join("release").join(bin));
        child::scrub_env(&mut cmd);
        cmd.current_dir(scratch)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(Stdio::null());
        child::run_to_exit(&mut cmd, RUN_DEADLINE)
    });
    match ran {
        Ok(done) if done.status.is_some_and(|s| s.success()) => Ok(parse_output(
            &std::fs::read_to_string(&out_path).unwrap_or_default(),
        )),
        Ok(done) => Err(format!("{bin} failed: {:?}", done.status)),
        Err(e) => Err(format!("{bin}: {e}")),
    }
}

/// Builds every probe on `build_cpus`, then runs those that built on
/// the CPU the harness measures on; returns the metrics that were
/// measured and one note per probe that was not.
pub fn run_all(
    root: &Path,
    target: &Path,
    out_dir: &Path,
    build_cpus: Option<CpuSet>,
) -> (Vec<(String, f64)>, Vec<String>) {
    let manifest = root.join("benchmark/probes/Cargo.toml");
    // A target directory of their own: building the probes must never
    // touch the artifacts the end-to-end numbers are measured on.
    let probe_target = target.join("probes");
    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    let scratch = match Scratch::create(out_dir.join(format!("tmp-{}-probes", std::process::id())))
    {
        Ok(s) => s,
        Err(e) => return (metrics, vec![format!("scratch directory: {e}")]),
    };
    let bins: Vec<String> = spec::probe_names()
        .iter()
        .map(|name| format!("probe_{name}"))
        .collect();
    let measuring_cpu = CpuSet::current();
    if let Some(all) = build_cpus {
        all.apply();
    }
    let built: Vec<Result<(), String>> = bins
        .iter()
        .map(|bin| build(bin, &manifest, &probe_target, scratch.path()))
        .collect();
    if let Some(one) = measuring_cpu {
        one.apply();
    }
    for (bin, built) in bins.iter().zip(built) {
        match built.and_then(|()| run(bin, &probe_target, scratch.path())) {
            Ok(measured) => metrics.extend(measured),
            Err(note) => notes.push(note),
        }
    }
    (metrics, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_output_is_name_value_lines() {
        let out = "sim.noc.send_ns_per_flit_hop 3.25\nnoise\npower.model.power_ns 41\nbad.value x\nnan.value NaN\n";
        assert_eq!(
            parse_output(out),
            vec![
                ("sim.noc.send_ns_per_flit_hop".to_owned(), 3.25),
                ("power.model.power_ns".to_owned(), 41.0)
            ]
        );
    }

    #[test]
    fn every_probe_metric_names_a_probe_binary_that_exists() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("probes/src/bin");
        for name in spec::probe_names() {
            assert!(
                dir.join(format!("probe_{name}.rs")).is_file(),
                "probe_{name}.rs"
            );
        }
    }

    #[test]
    fn build_failures_are_summarised_by_their_first_error() {
        let stderr =
            "warning: unused\nerror[E0425]: cannot find function `run_naive`\nerror: aborting\n";
        assert_eq!(
            first_error(stderr),
            "error[E0425]: cannot find function `run_naive`"
        );
        assert_eq!(first_error(""), "no error line");
    }
}

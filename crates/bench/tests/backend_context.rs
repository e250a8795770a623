//! The experiment backend is part of the journal context: results a
//! cycle run journaled must never be served to an analytic run (their
//! grids share section names, but the numbers mean different things).
//! A `--resume` under a different backend must be refused outright —
//! exit status 2 and a context-mismatch diagnostic — before any grid
//! point is recomputed or trusted. Malformed flag values get the same
//! exit status 2 before any section runs.

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_reproduce");

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "piton-backend-context-{tag}-{}",
        std::process::id()
    ))
}

/// Runs the quick reproduction with extra args, capturing everything.
fn reproduce(extra: &[&str]) -> Output {
    Command::new(BIN)
        .args(["quick", "--jobs", "4"])
        .args(extra)
        .output()
        .expect("spawn reproduce")
}

fn stderr_text(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn cycle_journal_refuses_an_analytic_resume() {
    let journal = tmp("journal");
    let manifest = tmp("manifest.json");
    let _ = std::fs::remove_file(&journal);

    // A journaled cycle run (the default backend).
    let cycle = reproduce(&[
        "--journal",
        journal.to_str().unwrap(),
        "--metrics",
        manifest.to_str().unwrap(),
    ]);
    assert!(cycle.status.success(), "{}", stderr_text(&cycle));

    // Resuming that journal under the analytic backend must be
    // refused before any point is served.
    let refused = reproduce(&[
        "--journal",
        journal.to_str().unwrap(),
        "--resume",
        "--backend",
        "analytic",
        "--metrics",
        manifest.to_str().unwrap(),
    ]);
    assert_eq!(
        refused.status.code(),
        Some(2),
        "stderr: {}",
        stderr_text(&refused)
    );
    let err = stderr_text(&refused);
    assert!(err.contains("context mismatch"), "{err}");
    assert!(
        err.contains("backend=cycle") && err.contains("backend=analytic"),
        "the diagnostic must name both backends: {err}"
    );

    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&manifest);
}

#[test]
fn malformed_jobs_count_exits_2_before_running() {
    for jobs in [&["--jobs", "abc"][..], &["--jobs=abc"]] {
        let out = Command::new(BIN)
            .arg("quick")
            .args(jobs)
            .output()
            .expect("spawn reproduce");
        let err = stderr_text(&out);
        assert_eq!(out.status.code(), Some(2), "{jobs:?}: {err}");
        assert!(
            err.contains("\"abc\""),
            "the diagnostic must name the value: {err}"
        );
        assert!(out.stdout.is_empty(), "{jobs:?} must not run any section");
    }
}

#[test]
fn unknown_backend_exits_2_listing_the_accepted_forms() {
    let out = reproduce(&["--backend", "warp"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_text(&out));
    let err = stderr_text(&out);
    assert!(
        err.contains("cycle") && err.contains("analytic") && err.contains("both"),
        "{err}"
    );
}

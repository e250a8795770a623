//! The experiment backend is part of the journal context: results a
//! cycle run journaled must never be served to an analytic run (their
//! grids share section names, but the numbers mean different things).
//! A `--resume` under a different backend must be refused outright —
//! exit status 2 and a context-mismatch diagnostic — before any grid
//! point is recomputed or trusted. Malformed flag values and unknown
//! arguments get the same exit status 2 before any section runs. Under `--backend both` the
//! journal and the fault plan belong to the cycle run alone: the
//! analytic pass neither serves nor appends records and never fires a
//! crash point.

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

/// An analytic journal recorded under a context without the model's
/// coefficient digest (what the least-squares refit wrote) must be
/// refused on `--resume`, never served.
#[test]
fn analytic_journal_without_the_model_digest_refuses_a_resume() {
    let journal = tmp("stale-model");
    let manifest = tmp("stale-model-manifest.json");
    let _ = std::fs::remove_file(&journal);
    let stale = format!(
        "piton/{}|fidelity=quick|effects=none|backend=analytic",
        env!("CARGO_PKG_VERSION")
    );
    drop(piton_core::journal::Journal::open(&journal, &stale).expect("write stale journal"));

    let refused = reproduce(&[
        "--journal",
        journal.to_str().unwrap(),
        "--resume",
        "--backend",
        "analytic",
        "--metrics",
        manifest.to_str().unwrap(),
    ]);
    let err = stderr_text(&refused);
    assert_eq!(refused.status.code(), Some(2), "stderr: {err}");
    assert!(
        err.contains("context mismatch") && err.contains("|model="),
        "{err}"
    );
    assert!(refused.stdout.is_empty(), "no section may run");

    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&manifest);
}

/// The `reproduce quick --backend both` stdout, pinned byte for byte.
const BOTH_GOLDEN: &str = include_str!("../../../tests/golden/reproduce_quick_both.txt");

/// The `(served, appended)` counts of the run's closing journal line.
fn journal_counts(out: &Output) -> (u64, u64) {
    let err = stderr_text(out);
    let line = err
        .lines()
        .find_map(|l| l.strip_prefix("reproduce: journal: "))
        .unwrap_or_else(|| panic!("no journal summary: {err}"));
    let count = |unit: &str| {
        line.split(", ")
            .find_map(|part| part.strip_suffix(unit))
            .and_then(|n| n.trim().parse().ok())
            .unwrap_or_else(|| panic!("no {unit:?} count in {line:?}"))
    };
    (count(" served"), count(" appended"))
}

#[test]
fn both_backends_journal_the_cycle_run_only() {
    let journal = tmp("both-journal");
    let manifest = tmp("both-manifest.json");
    let _ = std::fs::remove_file(&journal);
    let (j, m) = (journal.to_str().unwrap(), manifest.to_str().unwrap());

    let first = reproduce(&["--backend", "both", "--journal", j, "--metrics", m]);
    assert!(first.status.success(), "{}", stderr_text(&first));
    // 46 EPI + 36 NoC + 42 scaling cycle points and the 105 000
    // design-space points: the analytic figure passes append nothing.
    assert_eq!(journal_counts(&first), (0, 105_124));
    assert!(
        first.stdout == BOTH_GOLDEN.as_bytes(),
        "stdout left the golden"
    );

    let resumed = reproduce(&[
        "--backend",
        "both",
        "--journal",
        j,
        "--resume",
        "--metrics",
        m,
    ]);
    assert!(resumed.status.success(), "{}", stderr_text(&resumed));
    assert_eq!(journal_counts(&resumed), (105_124, 0));
    assert!(resumed.stdout == first.stdout, "resumed stdout differs");

    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&manifest);
}

#[test]
fn both_backends_crash_on_the_cycle_run_only_and_resume_identically() {
    let journal = tmp("both-crash");
    let manifest = tmp("both-crash-manifest.json");
    let _ = std::fs::remove_file(&journal);
    let (j, m) = (journal.to_str().unwrap(), manifest.to_str().unwrap());
    let plan = "--fault-plan=crash=scaling:20";

    let crashed = reproduce(&["--backend", "both", "--journal", j, plan, "--metrics", m]);
    assert!(!crashed.status.success(), "the crash point must fire");
    assert!(stderr_text(&crashed).contains("injected crash at scaling:20"));

    let resumed = reproduce(&[
        "--backend",
        "both",
        "--journal",
        j,
        "--resume",
        plan,
        "--metrics",
        m,
    ]);
    assert!(resumed.status.success(), "{}", stderr_text(&resumed));
    assert!(
        resumed.stdout == BOTH_GOLDEN.as_bytes(),
        "resumed stdout left the golden"
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

#[test]
fn unknown_arguments_exit_2_naming_the_argument() {
    let serve = env!("CARGO_BIN_EXE_piton-serve");
    let serve_job = [
        "--socket",
        "unused.sock",
        "--cache-dir",
        "unused",
        "--job",
        "4",
    ];
    for (bin, args, named) in [
        (BIN, &["quik"][..], "quik"),
        (BIN, &["quick", "--job", "4"], "--job"),
        (BIN, &["quick", "jobs=4"], "jobs=4"),
        (serve, &serve_job, "--job"),
    ] {
        let out = Command::new(bin).args(args).output().expect("spawn");
        let err = stderr_text(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
        assert!(
            err.contains(named),
            "the diagnostic must name {named:?}: {err}"
        );
    }
}

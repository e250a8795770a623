//! Every registry section honours the fault plan's grid-point entries:
//! a `kill=` point becomes exactly one marked hole, and a run that a
//! `crash=` point aborted resumes from its journal to the bytes of a
//! clean run. Sections run at a tiny fidelity, and the crash runs in a
//! child process — this test binary running its ignored `crash_child`
//! test — since the injected crash aborts the process. Two threads
//! share the table, costliest sections (the last) first.

use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};

use piton::board::FaultPlan;
use piton::characterization::analytic::{self, AnalyticBench, Calibrated};
use piton::characterization::bench::CycleBench;
use piton::characterization::experiments::{
    self, design_space, parse_plan, Env, Experiment, Fidelity, Rendered, Section, Visit,
};
use piton::characterization::journal::Journal;
use piton::characterization::report::HOLE_MARK;

/// The environment variables that hand the crash child its section and
/// journal path.
const CHILD_SECTION: &str = "SECTION_FAULTS_CHILD_SECTION";
const CHILD_JOURNAL: &str = "SECTION_FAULTS_CHILD_JOURNAL";
const CONTEXT: &str = "section-faults";

fn tiny() -> Fidelity {
    Fidelity {
        samples: 2,
        chunk_cycles: 300,
        warmup_cycles: 1_000,
        jobs: 1,
    }
}

/// The rate library, for the sections that read one: the design space
/// (its own 21 probes), and Figure 14, which runs on the analytic bench
/// because its timed runs (1 500 iterations at any fidelity) take
/// seconds unoptimized.
fn rate_library(name: &str) -> Option<Calibrated> {
    let probes = match name {
        "design_space" => design_space::probe_specs(),
        "mt_mc" => analytic::battery::probe_specs(),
        _ => return None,
    };
    Some(analytic::calibrate(tiny(), probes).unwrap())
}

/// Runs section `s` at [`tiny`] fidelity.
fn run<S: Section>(
    s: &S,
    cal: Option<&Calibrated>,
    plan: Option<&FaultPlan>,
    journal: Option<&Mutex<Journal>>,
) -> Rendered {
    let analytic = cal.map(AnalyticBench::new);
    let env = Env {
        cal,
        ..Env::new(&CycleBench, tiny(), plan)
    };
    let env = match (&analytic, S::NAME) {
        (Some(bench), "mt_mc") => Env { bench, ..env },
        _ => env,
    };
    experiments::pass(s, &env, journal)
        .expect("section inputs")
        .0
}

/// The point each section's plan names: its grid's last, which every
/// section sweeps at [`tiny`] fidelity.
fn plan<S: Section>(s: &S, key: &str) -> FaultPlan {
    parse_plan(&format!("{key}={}:{}", S::NAME, s.len(tiny()) - 1)).unwrap()
}

/// Kills the last point of section `s`, then crashes on it and resumes.
fn kill_crash_resume<S: Section>(s: &S) {
    let (name, idx) = (S::NAME, s.len(tiny()) - 1);
    let cal = rate_library(name);
    let path = std::env::temp_dir().join(format!(
        "piton-section-faults-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    // The killed point is one marked hole and is never journaled.
    let journal = Mutex::new(Journal::open(&path, CONTEXT).unwrap());
    let killed = run(s, cal.as_ref(), Some(&plan(s, "kill")), Some(&journal));
    assert_eq!(killed.holes.len(), 1, "{name}: {:?}", killed.holes);
    let hole = &killed.holes[0];
    assert_eq!((hole.section.as_str(), hole.index), (name, idx));
    assert!(killed.body.contains(HOLE_MARK), "{name}");
    drop(journal);

    // The child computes that point, commits it and aborts.
    let status = Command::new(std::env::current_exe().unwrap())
        .args(["crash_child", "--exact", "--ignored", "--test-threads=1"])
        .env(CHILD_SECTION, name)
        .env(CHILD_JOURNAL, &path)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(!status.success(), "{name}: the crash run must die");

    // The same plan resumes: the crash point is served, so it never
    // re-fires, and nothing is recomputed.
    let journal = Mutex::new(Journal::open(&path, CONTEXT).unwrap());
    let resumed = run(s, cal.as_ref(), Some(&plan(s, "crash")), Some(&journal));
    let stats = journal.lock().unwrap().stats();
    assert_eq!(
        (stats.appended, stats.served),
        (0, stats.recovered),
        "{name}"
    );
    let clean = run(s, cal.as_ref(), None, None);
    assert_eq!(resumed.body, clean.body, "{name}");
    drop(journal);
    let _ = std::fs::remove_file(&path);
}

/// Each section's check, queued.
#[derive(Default)]
struct Checks(Vec<Box<dyn FnOnce() + Send>>);

impl Visit for Checks {
    fn visit<S: Section>(&mut self, s: &'static S) {
        self.0.push(Box::new(move || kill_crash_resume(s)));
    }
}

#[test]
fn every_section_holes_a_killed_point_and_resumes_a_crash() {
    let mut checks = Checks::default();
    experiments::each(&mut checks);
    let queue = Arc::new(Mutex::new(checks.0));
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let queue = Arc::clone(&queue);
            scope.spawn(move || loop {
                let Some(check) = queue.lock().unwrap().pop() else {
                    break;
                };
                check();
            });
        }
    });
}

/// The crash run of one section.
struct Crash(String, String);

impl Visit for Crash {
    fn visit<S: Section>(&mut self, s: &'static S) {
        if S::NAME != self.0 {
            return;
        }
        let journal = Mutex::new(Journal::open(self.1.as_ref(), CONTEXT).unwrap());
        let cal = rate_library(S::NAME);
        run(s, cal.as_ref(), Some(&plan(s, "crash")), Some(&journal));
        panic!("{}: the crash point did not fire", S::NAME);
    }
}

/// The crash run: sweeps one section under `crash=` into a journal and
/// must not return.
#[test]
#[ignore = "run by every_section_holes_a_killed_point_and_resumes_a_crash"]
fn crash_child() {
    if let (Ok(name), Ok(path)) = (std::env::var(CHILD_SECTION), std::env::var(CHILD_JOURNAL)) {
        experiments::each(&mut Crash(name, path));
    }
}

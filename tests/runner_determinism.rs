//! The parallel sweep runner must never change results: every
//! experiment collects grid points by index, so rendered tables and CSV
//! exports are byte-identical at every `jobs` level. These tests pin
//! that guarantee — any accidental order- or thread-dependence in an
//! experiment shows up as a byte diff here.

use std::sync::Mutex;

use piton::board::fault::FaultPlan;
use piton::characterization::experiments::{core_scaling, epi, noc_energy, Fidelity};
use piton::characterization::journal::Journal;
use piton::obs::metrics;
use piton::obs::trace::{self, TraceSpec};

/// A deliberately tiny fidelity: determinism does not depend on sample
/// counts, so keep the simulated work minimal.
fn tiny(jobs: usize) -> Fidelity {
    Fidelity {
        samples: 4,
        chunk_cycles: 1_000,
        warmup_cycles: 4_000,
        jobs,
    }
}

#[test]
fn noc_energy_is_byte_identical_across_jobs_levels() {
    let serial = noc_energy::run(tiny(1), None, None);
    let parallel = noc_energy::run(tiny(4), None, None);
    assert_eq!(serial.render(), parallel.render());
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn epi_is_byte_identical_across_jobs_levels() {
    let serial = epi::run(tiny(1), None, None);
    let parallel = epi::run(tiny(8), None, None);
    assert_eq!(serial.render(), parallel.render());
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn core_scaling_is_byte_identical_across_jobs_levels() {
    let cores = [1usize, 9, 25];
    let serial = core_scaling::run_with_cores(&cores, tiny(1), None, None);
    let parallel = core_scaling::run_with_cores(&cores, tiny(3), None, None);
    assert_eq!(serial.render(), parallel.render());
}

/// The durable-sweep contract: a run resumed from *any* completed
/// prefix of a write-ahead journal — including one with a torn
/// trailing record — renders byte-identically to an uninterrupted,
/// journal-free run, at a different jobs level than the original.
#[test]
fn resume_from_any_completed_prefix_is_byte_identical() {
    let baseline = noc_energy::run(tiny(1), None, None).render();

    let mut path = std::env::temp_dir();
    path.push(format!("piton-determinism-journal-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let journal = Mutex::new(Journal::open(&path, "determinism-ctx").unwrap());
    let journaled = noc_energy::run(tiny(4), None, Some(&journal));
    assert_eq!(journaled.render(), baseline);
    let stats = journal.lock().unwrap().stats();
    assert_eq!(stats.appended, 4 * 9, "every noc grid point journaled");

    // Truncate the journal at assorted byte offsets — a crash
    // mid-append leaves exactly such files — and resume at jobs=1.
    let full = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    for cut in [full.len() / 3, full.len() / 2, full.len() - 11] {
        let mut partial = std::env::temp_dir();
        partial.push(format!(
            "piton-determinism-journal-{}-cut{cut}",
            std::process::id()
        ));
        std::fs::write(&partial, &full[..cut]).unwrap();
        let journal = Mutex::new(Journal::open(&partial, "determinism-ctx").unwrap());
        let resumed = noc_energy::run(tiny(1), None, Some(&journal));
        assert_eq!(resumed.render(), baseline, "cut={cut}");
        let stats = journal.lock().unwrap().stats();
        assert_eq!(
            stats.served + stats.appended,
            4 * 9,
            "served and recomputed points must cover the grid (cut={cut})"
        );
        assert!(stats.served > 0, "some points must be served (cut={cut})");
        let _ = std::fs::remove_file(&partial);
    }
}

/// Observation belongs to the run: two runs on two threads of one
/// process, each with its own metrics registry and trace file, observe
/// exactly what the same run observes alone — their sweep workers'
/// events and counts included.
#[test]
fn two_runs_in_one_process_observe_disjointly() {
    // Flaky points give the workers something to count: their retries.
    let plan = FaultPlan::parse("flaky=noc:3,flaky=noc:8").unwrap();
    let counted = || {
        metrics::enable();
        let run = noc_energy::run(tiny(2), Some(&plan), None);
        assert!(run.holes.is_empty());
        metrics::snapshot().counters
    };
    let solo = std::thread::scope(|s| s.spawn(counted).join().unwrap());
    assert!(!solo.is_empty(), "a run that counts nothing pins nothing");
    let (a, b) = std::thread::scope(|s| {
        let (a, b) = (s.spawn(counted), s.spawn(counted));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(a, solo);
    assert_eq!(b, solo);

    // Returns the file's lines, sorted when the workers' blocks land
    // in scheduling order.
    let traced = |tag: &str, jobs: usize| {
        let mut path = std::env::temp_dir();
        path.push(format!("piton-disjoint-{}-{tag}.jsonl", std::process::id()));
        let spec = TraceSpec::parse(&format!("noc,out={}", path.display())).unwrap();
        let (_, written) = trace::to_file(&spec, || noc_energy::run(tiny(jobs), None, None));
        let lines = written.expect("trace file written").0;
        let doc = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(doc.lines().count(), lines);
        let mut lines: Vec<String> = doc.lines().map(str::to_owned).collect();
        if jobs > 1 {
            lines.sort();
        }
        lines
    };
    let solo = traced("solo", 1);
    assert!(!solo.is_empty(), "an empty trace pins nothing");
    let (a, b) = std::thread::scope(|s| {
        let (a, b) = (s.spawn(|| traced("a", 1)), s.spawn(|| traced("b", 1)));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(a, solo);
    assert_eq!(b, solo);
    // Workers inherit the file: a parallel run traces the same events.
    let mut sorted = solo;
    sorted.sort();
    assert_eq!(traced("parallel", 2), sorted);
}

/// A killed grid point must neither abort the sweep nor perturb any
/// other point: the holed table is byte-identical at every jobs level,
/// and every line that is not part of the hole matches the fault-free
/// run exactly.
#[test]
fn injected_kill_holes_identically_at_every_jobs_level() {
    let plan = FaultPlan::parse("seed=7,kill=epi:3").unwrap();
    let serial = epi::run(tiny(1), Some(&plan), None);
    let parallel = epi::run(tiny(8), Some(&plan), None);
    assert_eq!(serial.render(), parallel.render());
    assert_eq!(serial.holes.len(), 1);
    assert_eq!(serial.holes[0].attempts, 3);
    assert!(serial.render().contains('✗'), "hole must be marked");

    // The kill plan injects no monitor faults, so all surviving lines
    // must match the fault-free output byte for byte.
    let clean = epi::run(tiny(1), None, None).render();
    let clean_lines: std::collections::HashSet<&str> = clean.lines().collect();
    for line in serial.render().lines() {
        assert!(
            line.is_empty() || line.contains('✗') || clean_lines.contains(line),
            "unexpected divergence on non-holed line: {line:?}"
        );
    }
}

/// A grid point that fails every attempt is a hole, never a journal
/// record: the first run appends every other point, and a resume under
/// the same plan serves all of them, recomputes only the killed point
/// and holes it again, rendering byte-identically.
#[test]
fn journaled_fault_holes_are_never_journaled() {
    let plan = FaultPlan::parse("kill=noc:5").unwrap();
    let mut path = std::env::temp_dir();
    path.push(format!("piton-determinism-holes-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let journal = Mutex::new(Journal::open(&path, "holes-ctx").unwrap());
    let first = noc_energy::run(tiny(2), Some(&plan), Some(&journal));
    let stats = journal.into_inner().unwrap().stats();
    assert_eq!((stats.appended, stats.served), (35, 0));
    assert_eq!(first.holes.len(), 1);
    assert_eq!(first.holes[0].index, 5);

    let journal = Mutex::new(Journal::open(&path, "holes-ctx").unwrap());
    let resumed = noc_energy::run(tiny(1), Some(&plan), Some(&journal));
    let stats = journal.into_inner().unwrap().stats();
    assert_eq!((stats.recovered, stats.served, stats.appended), (35, 35, 0));
    assert_eq!(resumed.holes, first.holes);
    assert_eq!(resumed.render(), first.render());
    let _ = std::fs::remove_file(&path);
}

//! Crash and robustness harness for the `piton-serve` binary: the
//! daemon is killed mid-request — by an injected `crash=` abort and by
//! an external SIGKILL — restarted over the same cache directory, and
//! re-asked the same question. Completed shards must be served from
//! cache (never recomputed), the warm client transcript must be
//! byte-identical to a golden never-crashed daemon's, a daemon killed
//! after answering must leave the cache file a clean shutdown leaves,
//! and a hand-torn cache-file tail must be detected, counted and
//! recomputed.
//!
//! `reproduce --journal` writes the same file the daemon does: a quick
//! run's journal serves the daemon's requests at quick fidelity under
//! the same point indices, and both write byte-identical files for one
//! configuration.
//!
//! Client transcripts (one JSON frame body per line) are the
//! comparison unit: the daemon's frames carry no cache-state-dependent
//! fields, so any two daemons answering the same request must produce
//! identical bytes regardless of crash history.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use piton_arch::config::Backend;
use piton_core::journal::run_context;
use piton_core::serve::cache::context_file_name;
use piton_obs::json::{self, Value};

const SERVE: &str = env!("CARGO_BIN_EXE_piton-serve");
const CLIENT: &str = env!("CARGO_BIN_EXE_piton-client");
const REPRODUCE: &str = env!("CARGO_BIN_EXE_reproduce");

/// Tiny custom fidelity — milliseconds per grid point.
const FIDELITY: &str = "s=2,c=500,w=2000";

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("piton-serve-crash-{tag}-{}", std::process::id()))
}

struct Daemon {
    child: Child,
    socket: PathBuf,
    stderr_file: PathBuf,
}

impl Daemon {
    /// Starts `piton-serve` over `cache` with 4-point shards, stderr
    /// captured to a file for post-mortem assertions.
    fn start(dir: &Path, tag: &str) -> Self {
        Self::start_sharded(dir, tag, "4")
    }

    /// [`Daemon::start`] with `shard` points per shard.
    fn start_sharded(dir: &Path, tag: &str, shard: &str) -> Self {
        let socket = dir.join(format!("{tag}.sock"));
        let stderr_file = dir.join(format!("{tag}.stderr"));
        let child = Command::new(SERVE)
            .args([
                "--socket",
                socket.to_str().unwrap(),
                "--cache-dir",
                dir.join("cache").to_str().unwrap(),
                "--jobs",
                "2",
                "--shard",
                shard,
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::from(
                std::fs::File::create(&stderr_file).expect("stderr file"),
            ))
            .spawn()
            .expect("spawn piton-serve");
        Daemon {
            child,
            socket,
            stderr_file,
        }
    }

    /// Runs `piton-client` against this daemon.
    fn client(&self, requests: &[&str]) -> Output {
        Command::new(CLIENT)
            .args(["--socket", self.socket.to_str().unwrap()])
            .args(requests)
            .output()
            .expect("spawn piton-client")
    }

    /// Reads a `serve.*` counter off a live metrics round-trip.
    fn counter(&self, name: &str) -> u64 {
        let out = self.client(&["metrics"]);
        assert!(out.status.success(), "metrics: {}", stderr(&out));
        let line = String::from_utf8(out.stdout).expect("metrics frame is utf-8");
        let frame = json::parse(line.trim()).expect("metrics frame parses");
        match frame.get("counters").and_then(|c| c.get(name)) {
            Some(Value::Int(n)) => u64::try_from(*n).expect("counter fits u64"),
            other => panic!("counter {name}: {other:?} in {line}"),
        }
    }

    fn stderr_text(&self) -> String {
        std::fs::read_to_string(&self.stderr_file).unwrap_or_default()
    }

    /// Waits for the daemon process to exit (it aborts on injected
    /// crashes; callers send `shutdown` for clean exits).
    fn wait(&mut self) -> std::process::ExitStatus {
        let t0 = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(120),
                "daemon never exited"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn shutdown(mut self) {
        let out = self.client(&["shutdown"]);
        assert!(out.status.success(), "shutdown: {}", stderr(&out));
        let status = self.wait();
        assert!(status.success(), "clean shutdown exits 0, got {status:?}");
    }
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn run_request(grid: &str, fault: Option<&str>) -> String {
    match fault {
        Some(f) => format!(
            r#"{{"op":"run","section":"scaling","grid":"{grid}","fidelity":"{FIDELITY}","fault":"{f}"}}"#
        ),
        None => {
            format!(r#"{{"op":"run","section":"scaling","grid":"{grid}","fidelity":"{FIDELITY}"}}"#)
        }
    }
}

/// The single per-context cache file of a cache directory that has
/// served exactly one context.
fn cache_file(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join("cache"))
        .expect("cache dir")
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ctx-") && n.ends_with(".journal"))
        })
        .collect();
    assert_eq!(files.len(), 1, "one context expected: {files:?}");
    files.pop().expect("one file")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = tmp(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dir");
    dir
}

#[test]
fn injected_crash_resumes_from_cache_byte_identically() {
    // Golden: a never-crashed daemon answers the request cold.
    let golden_dir = fresh_dir("golden");
    let golden = Daemon::start(&golden_dir, "golden");
    let golden_out = golden.client(&[&run_request("0-19", None)]);
    assert!(golden_out.status.success(), "{}", stderr(&golden_out));
    golden.shutdown();

    // Crash run: same request plus `crash=scaling:10`. Crash points
    // are stripped from the cache context, so this shares the golden's
    // context — they decide when the process dies, never what it
    // computes. With 4-point shards the abort fires after the shard
    // holding index 10 (8..=11) is durable: 12 records on disk, the
    // client saw only shards 0..=7 before the daemon died.
    let crash_dir = fresh_dir("crash");
    let mut crashed = Daemon::start(&crash_dir, "cold");
    let crash_out = crashed.client(&[&run_request("0-19", Some("crash=scaling:10"))]);
    assert!(
        !crash_out.status.success(),
        "client must report the daemon dying mid-response"
    );
    let status = crashed.wait();
    assert!(!status.success(), "daemon must abort, got {status:?}");
    assert!(
        crashed
            .stderr_text()
            .contains("injected crash at scaling:10"),
        "{}",
        crashed.stderr_text()
    );

    // Restart over the same cache; the completed shards are served,
    // only the lost tail is computed, and the transcript matches the
    // golden byte-for-byte.
    let warm = Daemon::start(&crash_dir, "warm");
    let warm_out = warm.client(&[&run_request("0-19", None)]);
    assert!(warm_out.status.success(), "{}", stderr(&warm_out));
    assert_eq!(
        golden_out.stdout, warm_out.stdout,
        "post-crash transcript must be byte-identical to the golden"
    );
    assert_eq!(warm.counter("serve.cache_hits"), 12, "durable shards hit");
    assert_eq!(
        warm.counter("serve.points_computed"),
        8,
        "only the lost shards recompute"
    );
    assert_eq!(warm.counter("serve.recovered"), 12, "recovery counted");
    assert_eq!(warm.counter("serve.torn"), 0);

    // A second warm pass serves everything: the crash is fully healed.
    let healed = warm.client(&[&run_request("0-19", None)]);
    assert_eq!(golden_out.stdout, healed.stdout);
    assert_eq!(warm.counter("serve.points_computed"), 8, "no new computes");
    warm.shutdown();

    let _ = std::fs::remove_dir_all(&golden_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

#[test]
fn sigkill_mid_request_loses_nothing_durable() {
    let golden_dir = fresh_dir("sig-golden");
    let golden = Daemon::start(&golden_dir, "golden");
    let golden_out = golden.client(&[&run_request("0-49", None)]);
    assert!(golden_out.status.success(), "{}", stderr(&golden_out));
    golden.shutdown();

    // Fire the same request and SIGKILL the daemon as soon as the
    // cache file shows mid-request progress.
    let dir = fresh_dir("sigkill");
    let mut victim = Daemon::start(&dir, "victim");
    let mut client = Command::new(CLIENT)
        .args(["--socket", victim.socket.to_str().unwrap()])
        .arg(run_request("0-49", None))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn client");
    let file = dir.join("cache");
    let t0 = Instant::now();
    loop {
        let progress = std::fs::read_dir(&file)
            .ok()
            .into_iter()
            .flatten()
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum::<u64>();
        if progress >= 400 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "daemon never reached mid-request progress"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    victim.child.kill().expect("SIGKILL daemon");
    let _ = victim.child.wait();
    let _ = client.wait();

    // Restart: every durably-recorded point is served, the remainder
    // recomputed, and the transcript matches the golden exactly.
    let warm = Daemon::start(&dir, "warm");
    let warm_out = warm.client(&[&run_request("0-49", None)]);
    assert!(warm_out.status.success(), "{}", stderr(&warm_out));
    assert_eq!(
        golden_out.stdout, warm_out.stdout,
        "post-SIGKILL transcript must be byte-identical to the golden"
    );
    let hits = warm.counter("serve.cache_hits");
    let computed = warm.counter("serve.points_computed");
    assert!(hits > 0, "the kill landed after durable appends");
    assert_eq!(hits + computed, 50, "every point served exactly once");
    warm.shutdown();

    let _ = std::fs::remove_dir_all(&golden_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_killed_daemon_leaves_the_file_a_clean_shutdown_does() {
    // The same request under two daemons: one stops cleanly, the other
    // is SIGKILLed once its client has read the `done` frame.
    let clean_dir = fresh_dir("kill-eq-clean");
    let clean = Daemon::start(&clean_dir, "cold");
    let cold_out = clean.client(&[&run_request("0-9", None)]);
    assert!(cold_out.status.success(), "{}", stderr(&cold_out));
    clean.shutdown();

    let kill_dir = fresh_dir("kill-eq-kill");
    let mut victim = Daemon::start(&kill_dir, "cold");
    let victim_out = victim.client(&[&run_request("0-9", None)]);
    assert!(victim_out.status.success(), "{}", stderr(&victim_out));
    assert_eq!(cold_out.stdout, victim_out.stdout);
    victim.child.kill().expect("SIGKILL daemon");
    let _ = victim.child.wait();

    let clean_bytes = std::fs::read(cache_file(&clean_dir)).expect("read clean cache file");
    let killed_bytes = std::fs::read(cache_file(&kill_dir)).expect("read killed cache file");
    assert!(
        clean_bytes == killed_bytes,
        "a killed daemon's cache file must equal the clean-shutdown one"
    );
    let header = clean_bytes
        .split(|&b| b == b'\n')
        .next()
        .expect("header line");
    let header = json::parse(std::str::from_utf8(&header[17..]).expect("utf-8 header"))
        .expect("header parses");
    assert_eq!(
        header.get("schema").and_then(Value::as_str),
        Some("piton-journal/v3")
    );

    // A restart from either file recovers every point and answers
    // with the cold bytes.
    for dir in [&clean_dir, &kill_dir] {
        let warm = Daemon::start(dir, "restart");
        let warm_out = warm.client(&[&run_request("0-9", None)]);
        assert!(warm_out.status.success(), "{}", stderr(&warm_out));
        assert_eq!(cold_out.stdout, warm_out.stdout, "{}", dir.display());
        assert_eq!(warm.counter("serve.recovered"), 10, "{}", dir.display());
        assert_eq!(
            warm.counter("serve.points_computed"),
            0,
            "{}",
            dir.display()
        );
        assert_eq!(warm.counter("serve.torn"), 0, "{}", dir.display());
        warm.shutdown();
        // With nothing appended, the restart leaves the file alone.
        let after = std::fs::read(cache_file(dir)).expect("read cache file");
        assert!(after == clean_bytes, "{}", dir.display());
    }

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&kill_dir);
}

#[test]
fn torn_cache_tail_is_counted_and_recomputed() {
    let dir = fresh_dir("torn");
    let daemon = Daemon::start(&dir, "cold");
    let cold_out = daemon.client(&[&run_request("0-9", None)]);
    assert!(cold_out.status.success(), "{}", stderr(&cold_out));
    daemon.shutdown();

    // Tear the cache file mid-record — exactly what a crash inside a
    // `write` leaves behind.
    let file = cache_file(&dir);
    let bytes = std::fs::read(&file).expect("read cache file");
    std::fs::write(&file, &bytes[..bytes.len() - 11]).expect("tear cache file");

    let warm = Daemon::start(&dir, "warm");
    let warm_out = warm.client(&[&run_request("0-9", None)]);
    assert!(warm_out.status.success(), "{}", stderr(&warm_out));
    assert_eq!(
        cold_out.stdout, warm_out.stdout,
        "recovery must not change a single response byte"
    );
    assert!(warm.counter("serve.torn") > 0, "the tear must be counted");
    assert_eq!(warm.counter("serve.recovered"), 9, "intact prefix kept");
    assert_eq!(warm.counter("serve.cache_hits"), 9);
    assert_eq!(
        warm.counter("serve.points_computed"),
        1,
        "exactly the torn record recomputes"
    );
    warm.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_leave_the_daemon_serving() {
    let dir = fresh_dir("malformed");
    let daemon = Daemon::start(&dir, "daemon");

    // One connection: garbage, a refused run, then real work.
    let out = daemon.client(&[
        "definitely not json",
        r#"{"op":"run","section":"flux-capacitor"}"#,
        "ping",
        &run_request("0-3", None),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let transcript = String::from_utf8(out.stdout).expect("utf-8 transcript");
    let kinds: Vec<String> = transcript
        .lines()
        .map(|l| {
            json::parse(l)
                .expect("frame parses")
                .get("frame")
                .and_then(Value::as_str)
                .expect("frame kind")
                .to_owned()
        })
        .collect();
    assert_eq!(
        kinds,
        ["error", "error", "pong", "hello", "result", "result", "result", "result", "done"],
        "{transcript}"
    );
    assert_eq!(daemon.counter("serve.errors"), 2);
    assert_eq!(daemon.counter("serve.points_computed"), 4);
    daemon.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `reproduce quick` with extra args, its run manifest kept in
/// `dir`, and asserts that it succeeded.
fn reproduce_quick(dir: &Path, extra: &[&str]) {
    let manifest = dir.join("reproduce-manifest.json");
    let out = Command::new(REPRODUCE)
        .args([
            "quick",
            "--jobs",
            "2",
            "--metrics",
            manifest.to_str().unwrap(),
        ])
        .args(extra)
        .output()
        .expect("spawn reproduce");
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn a_reproduce_journal_serves_scaling_points_by_their_grid_index() {
    // `reproduce quick` journals Figure 13 at 7 core counts, each point
    // under its index in the 150-point grid the daemon addresses.
    let dir = fresh_dir("shared-index");
    let journal = dir.join("quick.journal");
    reproduce_quick(&dir, &["--journal", journal.to_str().unwrap()]);
    std::fs::create_dir_all(dir.join("cache")).expect("create cache dir");
    let context = run_context("quick", None, Backend::Cycle);
    std::fs::copy(
        &journal,
        dir.join("cache").join(context_file_name(&context)),
    )
    .expect("copy the journal into the cache");

    // Int 1 T/C at 1 and 21 cores, HP 1 T/C and Hist 2 T/C at 25 cores.
    let request = r#"{"op":"run","section":"scaling","grid":"0,20,74,149","fidelity":"quick"}"#;
    let warm = Daemon::start(&dir, "warm");
    let warm_out = warm.client(&[request]);
    assert!(warm_out.status.success(), "{}", stderr(&warm_out));
    assert_eq!(
        warm.counter("serve.points_computed"),
        0,
        "all four are quick points"
    );
    assert_eq!(warm.counter("serve.cache_hits"), 4);
    warm.shutdown();

    let cold_dir = fresh_dir("shared-index-cold");
    let cold = Daemon::start(&cold_dir, "cold");
    let cold_out = cold.client(&[request]);
    assert!(cold_out.status.success(), "{}", stderr(&cold_out));
    assert_eq!(cold.counter("serve.points_computed"), 4);
    cold.shutdown();
    assert_eq!(
        cold_out.stdout, warm_out.stdout,
        "a served point must be the point a cold daemon computes"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cold_dir);
}

#[test]
fn reproduce_and_the_daemon_write_one_file_for_one_configuration() {
    // The analytic quick run journals the whole design space; a cold
    // daemon asked for the same grid at the same fidelity writes the
    // same file, at any jobs level and shard size.
    let dir = fresh_dir("one-file");
    let journal = dir.join("analytic.journal");
    reproduce_quick(
        &dir,
        &[
            "--backend",
            "analytic",
            "--journal",
            journal.to_str().unwrap(),
        ],
    );
    let daemon = Daemon::start_sharded(&dir, "cold", "512");
    let out = daemon
        .client(&[r#"{"op":"run","section":"design_space","grid":"all","fidelity":"quick"}"#]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(daemon.counter("serve.points_computed"), 105_000);
    daemon.shutdown();

    let ours = std::fs::read(&journal).expect("read reproduce journal");
    let theirs = std::fs::read(cache_file(&dir)).expect("read daemon cache file");
    assert!(
        ours == theirs,
        "reproduce and piton-serve must write the same bytes ({} vs {} B)",
        ours.len(),
        theirs.len()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

//! Child-process hygiene: a scrubbed environment, one CPU for the
//! measured processes, per-operation deadlines, peak-RSS sampling, and
//! guards that reap every child and remove every scratch directory on
//! any exit path, panics included.

use std::ffi::OsString;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Removes every `PITON_*` variable (`PITON_JOBS`, `PITON_TRACE`,
/// `PITON_BACKEND`, `PITON_FAULT_PLAN`, `PITON_DENSE_THREADS`,
/// `PITON_METRICS`, ...) so the caller's shell cannot steer a child
/// onto another code path.
pub fn scrub_env(cmd: &mut Command) {
    for key in piton_keys(std::env::vars_os().map(|(k, _)| k)) {
        cmd.env_remove(key);
    }
}

fn piton_keys(keys: impl Iterator<Item = OsString>) -> Vec<OsString> {
    keys.filter(|k| k.to_string_lossy().starts_with("PITON_"))
        .collect()
}

/// The process's CPU affinity mask, as the kernel's 1024-bit `cpu_set_t`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CpuSet([u64; 16]);

extern "C" {
    // From the C library `std` already links; no crate is involved.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

impl CpuSet {
    /// The CPUs this process may run on.
    pub fn current() -> Option<Self> {
        let mut set = Self([0; 16]);
        // SAFETY: `mask` points at 128 writable bytes, the size passed;
        // pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    /// Restricts this process, and every child it spawns from now on,
    /// to these CPUs.
    pub fn apply(&self) -> bool {
        // SAFETY: `mask` points at 128 readable bytes, the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) == 0 }
    }

    /// The highest-numbered CPU of the set alone (interrupts tend to
    /// land on the lowest), with its number.
    pub fn last_only(&self) -> Option<(usize, Self)> {
        let cpu = (0..1024)
            .rev()
            .find(|cpu| self.0[cpu / 64] >> (cpu % 64) & 1 == 1)?;
        let mut one = Self([0; 16]);
        one.0[cpu / 64] = 1 << (cpu % 64);
        Some((cpu, one))
    }
}

/// A scratch directory removed on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create(dir: PathBuf) -> std::io::Result<Self> {
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Kills and reaps the child unless it was already waited for.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None) | Err(_)) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

/// `VmHWM` (peak resident set) of a live process, in kB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// One process run to completion (or to its deadline).
pub struct Finished {
    pub wall_s: f64,
    /// Last `VmHWM` seen while the process lived.
    pub peak_rss_kb: Option<u64>,
    /// `None` when the deadline passed and the child was killed.
    pub status: Option<ExitStatus>,
}

const POLL: Duration = Duration::from_millis(2);
/// RSS is sampled every this many polls; the peak is monotone, so only
/// growth in the last few milliseconds of a run can be missed.
const RSS_EVERY: u32 = 5;

/// Spawns `cmd`, waits for it to exit, and samples its peak RSS on the
/// way. A child still running at `deadline` is killed.
pub fn run_to_exit(cmd: &mut Command, deadline: Duration) -> std::io::Result<Finished> {
    let start = Instant::now();
    let mut child = Reaper(cmd.spawn()?);
    let pid = child.0.id();
    let mut peak = None;
    let mut polls = 0u32;
    loop {
        if let Some(status) = child.0.try_wait()? {
            return Ok(Finished {
                wall_s: start.elapsed().as_secs_f64(),
                peak_rss_kb: peak,
                status: Some(status),
            });
        }
        if start.elapsed() > deadline {
            drop(child);
            return Ok(Finished {
                wall_s: start.elapsed().as_secs_f64(),
                peak_rss_kb: peak,
                status: None,
            });
        }
        if polls.is_multiple_of(RSS_EVERY) {
            peak = vm_hwm_kb(pid).or(peak);
        }
        polls += 1;
        std::thread::sleep(POLL);
    }
}

/// A running `piton-serve`. Its stderr is drained on a thread so the
/// daemon can never block on a full pipe.
pub struct Daemon {
    child: Option<Reaper>,
    lines: Receiver<String>,
    drain: Option<JoinHandle<()>>,
    /// Stderr lines seen so far, for failure reports.
    pub log: Vec<String>,
}

impl Daemon {
    /// Spawns the daemon and waits for its `listening` line.
    pub fn spawn(cmd: &mut Command, deadline: Duration) -> Result<Self, String> {
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = Reaper(cmd.spawn().map_err(|e| format!("spawn piton-serve: {e}"))?);
        let stderr = child.0.stderr.take().expect("stderr was piped");
        let (tx, lines) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut daemon = Self {
            child: Some(child),
            lines,
            drain: Some(drain),
            log: Vec::new(),
        };
        let start = Instant::now();
        loop {
            let left = deadline.saturating_sub(start.elapsed());
            match daemon.lines.recv_timeout(left) {
                Ok(line) => {
                    let ready = line.contains("listening");
                    daemon.log.push(line);
                    if ready {
                        return Ok(daemon);
                    }
                }
                Err(_) => {
                    return Err(format!(
                        "piton-serve never reported 'listening': {}",
                        daemon.log.join(" | ")
                    ))
                }
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, |c| c.0.id())
    }

    /// Waits for the daemon to exit by itself (after a `shutdown`
    /// request); kills it at the deadline. `Some(true)` is a clean exit.
    pub fn wait_exit(&mut self, deadline: Duration) -> Option<bool> {
        let mut child = self.child.take()?;
        let start = Instant::now();
        let status = loop {
            match child.0.try_wait() {
                Ok(Some(status)) => break Some(status.success()),
                Ok(None) if start.elapsed() <= deadline => std::thread::sleep(POLL),
                _ => break None,
            }
        };
        drop(child);
        self.finish_drain();
        status
    }

    fn finish_drain(&mut self) {
        if let Some(t) = self.drain.take() {
            let _ = t.join();
        }
        self.log.extend(self.lines.try_iter());
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reap first: the drain thread ends when the pipe closes.
        self.child.take();
        self.finish_drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_a_status_block() {
        let status =
            "Name:\treproduce\nVmPeak:\t   12000 kB\nVmHWM:\t    6200 kB\nVmRSS:\t    6100 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(6200));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert!(vm_hwm_kb(std::process::id()).is_some_and(|kb| kb > 0));
    }

    #[test]
    fn a_child_past_its_deadline_is_killed_and_reported() {
        let mut cmd = Command::new("sleep");
        cmd.arg("30");
        let done = run_to_exit(&mut cmd, Duration::from_millis(50)).unwrap();
        assert!(done.status.is_none());
        assert!(done.wall_s < 5.0);
    }

    #[test]
    fn the_last_allowed_cpu_is_picked_and_the_mask_round_trips() {
        let mut set = CpuSet([0; 16]);
        set.0[0] = 0b0110;
        set.0[1] = 0b1;
        let (cpu, one) = set.last_only().unwrap();
        assert_eq!(cpu, 64);
        assert_eq!((one.0[0], one.0[1]), (0, 1));
        assert_eq!(CpuSet([0; 16]).last_only(), None);
        // Re-applying the current mask changes nothing and must succeed.
        let now = CpuSet::current().expect("sched_getaffinity");
        assert!(now.last_only().is_some());
        assert!(now.apply());
        assert_eq!(CpuSet::current(), Some(now));
    }

    #[test]
    fn every_piton_variable_is_selected_for_removal() {
        let keys = [
            "PITON_JOBS",
            "PATH",
            "PITON_TRACE",
            "CARGO_TARGET_DIR",
            "PITON_",
            "XPITON_X",
        ];
        let picked = piton_keys(keys.iter().map(OsString::from));
        assert_eq!(
            picked,
            ["PITON_JOBS", "PITON_TRACE", "PITON_"].map(OsString::from)
        );
    }

    #[test]
    fn scratch_directories_vanish_on_drop_even_when_unwinding() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-scratch-{}", std::process::id()));
        let caught = std::panic::catch_unwind(|| {
            let s = Scratch::create(dir.clone()).unwrap();
            std::fs::write(s.path().join("f"), b"x").unwrap();
            panic!("unwinding with a live scratch directory");
        });
        assert!(caught.is_err());
        assert!(!dir.exists());
    }
}

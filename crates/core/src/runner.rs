//! Parallel sweep engine for independent experiment grid points.
//!
//! Every experiment in [`crate::experiments`] measures a grid of
//! independent points — (instruction × operand pattern), (benchmark ×
//! thread count × configuration), (voltage × chip) — and each point
//! builds its own [`piton_board::system::PitonSystem`] from scratch.
//! Nothing is shared between points, so they can run on worker threads
//! without changing any result: [`sweep`] fans a grid across
//! `jobs` scoped threads ([`std::thread::scope`], no extra
//! dependencies) and collects results **in index order**, so the output
//! is byte-identical to the serial run at any jobs level.
//!
//! [`try_sweep`] adds per-point fault isolation and retries, and
//! [`try_sweep_journaled`] makes a sweep durable: it is the one code
//! path that serves, computes, commits, fsyncs and crash-aborts a
//! journaled point, for `reproduce --journal` and for every
//! `piton-serve` shard alike.
//!
//! Workers enter the calling thread's [`piton_obs::Scope`], so their
//! trace events and metrics reach the run that called the sweep.
//! Wall-clock and busy time (per point on workers, the whole loop when
//! inline) are accumulated in the calling thread's tally, which the
//! `reproduce` binary drains per section ([`take_stats`]) to report the
//! achieved speedup.
//!
//! # Examples
//!
//! ```
//! use piton_core::runner;
//!
//! let squares = runner::sweep(4, (0u64..8).collect(), |_, x| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use piton_arch::error::PitonError;
use piton_board::fault::FaultPlan;
use piton_obs::trace::{JournalKind, TraceEvent};
use piton_obs::{metrics, trace};

use crate::journal::{point_key, Journal, JournalPayload};

pub use piton_obs::manifest::SweepStats;

/// Returns the stats of the sweeps this thread called since the last
/// call and resets the tally (the `reproduce` harness drains this once
/// per section).
pub fn take_stats() -> SweepStats {
    SweepStats::take()
}

/// Runs `f(index, item)` over every item of the grid on up to `jobs`
/// worker threads and returns the results in item order.
///
/// Work is handed out dynamically (an atomic cursor over the grid), so
/// long points don't serialize behind short ones; results land in a
/// slot per index, making the output order — and therefore every
/// rendered table and CSV downstream — independent of scheduling.
/// With `jobs <= 1` or a single item the grid runs inline on the
/// caller's thread.
///
/// # Panics
///
/// Propagates the first panic from any grid point (the scope joins all
/// workers first), and panics if a worker thread cannot be spawned.
pub fn sweep<I, T, F>(jobs: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let n = items.len();
    let workers = jobs.max(1).min(n);
    let t_sweep = Instant::now();

    if workers <= 1 {
        // Inline, the one thread is busy for the whole sweep, so busy
        // time is the wall time (speedup 1.00); timing each point would
        // put two clock reads on every warm cache hit a serve shard
        // streams.
        let out: Vec<T> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
        let wall = t_sweep.elapsed();
        SweepStats::record(n, wall, wall);
        return out;
    }

    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let busy_ns = std::sync::atomic::AtomicU64::new(0);
    let cursor = AtomicUsize::new(0);
    let observers = piton_obs::current();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                // Each worker reports to the caller's trace file and
                // metrics registry.
                scope.spawn(|| {
                    observers.enter(|| loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        let item = slots[idx]
                            .lock()
                            .expect("item slot lock")
                            .take()
                            .expect("each grid point is claimed once");
                        let t0 = Instant::now();
                        let out = f(idx, item);
                        let spent = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        busy_ns.fetch_add(spent, Ordering::Relaxed);
                        *results[idx].lock().expect("result slot lock") = Some(out);
                    });
                })
            })
            .collect();
        // Join explicitly: a panicking grid point must reach the caller
        // with its original payload, not the scope's generic
        // "a scoped thread panicked" message.
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    let out: Vec<T> = results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock")
                .expect("all grid points completed")
        })
        .collect();
    SweepStats::record(
        n,
        Duration::from_nanos(busy_ns.load(Ordering::Relaxed)),
        t_sweep.elapsed(),
    );
    out
}

/// Retry policy of a fault-isolated sweep: how many attempts each grid
/// point gets before its failure becomes a hole. Retries run at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per point (first try included).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 3 }
    }
}

/// How a grid point ultimately failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointFailure {
    /// The point panicked (payload text preserved).
    Panicked(String),
    /// The point returned an error.
    Failed(PitonError),
}

/// A grid point that failed all its attempts — the marked hole in the
/// sweep's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointError {
    /// Grid index of the failed point.
    pub index: usize,
    /// Attempts made (= the policy's `max_attempts`, or fewer when the
    /// failure was not worth retrying).
    pub attempts: u32,
    /// The final failure.
    pub failure: PointFailure,
}

impl std::fmt::Display for PointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Panicked(msg) => write!(f, "panic: {msg}"),
            Self::Failed(e) => write!(f, "{e}"),
        }
    }
}

impl std::fmt::Display for PointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "point {} failed after {} attempt(s): {}",
            self.index, self.attempts, self.failure
        )
    }
}

/// Renders a caught panic payload (the two shapes `panic!` produces).
fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// Fault-isolated [`sweep`]: every grid point runs under
/// [`std::panic::catch_unwind`], panics and transient errors are
/// retried up to the policy's `max_attempts` (the attempt number is
/// passed to `f`, so points can reseed per attempt), and each point
/// independently resolves to `Ok(T)` or a [`PointError`] — one bad
/// point can no longer abort a whole section.
///
/// Non-transient errors ([`PitonError::is_transient`] false) fail
/// immediately: retrying a deterministic failure cannot help.
/// Scheduling, ordering and stats behave exactly like [`sweep`], so
/// output stays byte-identical at any jobs level.
pub fn try_sweep<I, T, F>(
    jobs: usize,
    items: Vec<I>,
    policy: RetryPolicy,
    f: F,
) -> Vec<Result<T, PointError>>
where
    I: Send,
    T: Send,
    F: Fn(usize, &I, u32) -> Result<T, PitonError> + Sync,
{
    sweep(jobs, items, |idx, item| {
        let (attempt, out) = run_point(idx, &item, policy, &f);
        note_point_metrics(attempt, out.is_err());
        out
    })
}

/// One grid point's attempt loop: panic isolation and transient retry.
/// Returns the final attempt number alongside the outcome.
fn run_point<I, T>(
    idx: usize,
    item: &I,
    policy: RetryPolicy,
    f: &(impl Fn(usize, &I, u32) -> Result<T, PitonError> + Sync),
) -> (u32, Result<T, PointError>) {
    let max_attempts = policy.max_attempts.max(1);
    let mut attempt = 0;
    let out = loop {
        let tried =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(idx, item, attempt)));
        match tried {
            Ok(Ok(v)) => break Ok(v),
            Ok(Err(e)) => {
                if e.is_transient() && attempt + 1 < max_attempts {
                    attempt += 1;
                    continue;
                }
                break Err(PointError {
                    index: idx,
                    attempts: attempt + 1,
                    failure: PointFailure::Failed(e),
                });
            }
            Err(payload) => {
                if attempt + 1 < max_attempts {
                    attempt += 1;
                    continue;
                }
                break Err(PointError {
                    index: idx,
                    attempts: attempt + 1,
                    failure: PointFailure::Panicked(payload_text(payload.as_ref())),
                });
            }
        }
    };
    (attempt, out)
}

fn note_point_metrics(attempt: u32, holed: bool) {
    if metrics::enabled() {
        if attempt > 0 {
            metrics::counter_add("sweep.retries", u64::from(attempt));
        }
        if holed {
            metrics::counter_add("sweep.holes", 1);
        }
    }
}

/// Journal-backed [`try_sweep`]: the one durable, crash-resumable
/// sweep, behind `reproduce --journal` and every `piton-serve` shard.
///
/// Items arrive as `(grid index, item)` in ascending index order. The
/// grid index is the point's journal index, the index `f` sees (its
/// sabotage gate and seed) and [`PointError::index`]. One call runs in
/// three steps:
///
/// 1. **Partition.** Under one lock hold on the calling thread, every
///    point the journal holds is served from it
///    ([`JournalPayload::from_text`]), skipping `f` and with it every
///    sabotage gate and retry.
/// 2. **Compute.** The misses run as in [`try_sweep`] (default
///    [`RetryPolicy`]) on up to `jobs` workers, one per miss at most,
///    with the lock released.
/// 3. **Commit.** A computed point is appended as soon as every point
///    before it in the call has finished, so the file grows in index
///    order while the sweep runs and a killed process keeps every point
///    appended so far. A point the journal already holds (a concurrent
///    request may have recorded it) is skipped. When the sweep ends the
///    journal is fsync'd once; when an append or the fsync fails, every
///    point the call computed becomes a hole. Only then, when a
///    computed point is a `crash=SECTION:IDX` point of the plan, the
///    process aborts, so a relaunch serves that point and the crash
///    never re-fires. Without a journal a crash point aborts after the
///    sweep.
///
/// Payload round-trips are exact and the journal file grows in index
/// order, so a resumed sweep's output — and the file — are
/// byte-identical to an uninterrupted one at any jobs level. The call
/// counts as one [`sweep`] of all its items, hits included.
pub fn try_sweep_journaled<I, T, F>(
    jobs: usize,
    items: Vec<(usize, I)>,
    section: &str,
    plan: Option<&FaultPlan>,
    journal: Option<&Mutex<Journal>>,
    f: F,
) -> Vec<Result<T, PointError>>
where
    I: Send,
    T: Send + JournalPayload,
    F: Fn(usize, &I, u32) -> Result<T, PitonError> + Sync,
{
    // Partition: a hit carries its served payload, a miss its item.
    let mut misses = 0;
    let points: Vec<(usize, Result<T, I>)> = {
        let mut j = journal.map(|j| j.lock().expect("journal lock"));
        items
            .into_iter()
            .map(|(idx, item)| {
                // A stored point that no longer decodes as `T` means the
                // payload type changed under an unchanged context
                // string; recompute rather than trust it.
                let hit = j.as_deref_mut().and_then(|j| {
                    let t = T::from_text(j.serve(section, idx)?).ok()?;
                    trace_journal(j, section, idx, JournalKind::Serve);
                    Some(t)
                });
                misses += usize::from(hit.is_none());
                (idx, hit.ok_or(item))
            })
            .collect()
    };

    // Compute, on no more workers than there are misses, so an all-hit
    // call runs inline, and commit as the points finish.
    let commit = journal.filter(|_| misses > 0).map(|journal| {
        Mutex::new(Commit {
            journal,
            section,
            ready: points
                .iter()
                .map(|(_, p)| p.is_ok().then_some(None))
                .collect(),
            next: 0,
            committed: Vec::new(),
            failed: None,
        })
    });
    let crash = AtomicUsize::new(usize::MAX);
    let mut out = sweep(jobs.min(misses), points, |pos, (idx, point)| {
        let item = match point {
            Ok(hit) => return Ok(hit),
            Err(item) => item,
        };
        let (attempt, out) = run_point(idx, &item, RetryPolicy::default(), &f);
        note_point_metrics(attempt, out.is_err());
        if out.is_ok() && plan.is_some_and(|p| p.crash_for(section, idx)) {
            crash.fetch_min(idx, Ordering::Relaxed);
        }
        if let Some(commit) = &commit {
            let point = out.as_ref().ok().map(|v| (idx, attempt + 1, v.to_text()));
            commit.lock().expect("commit lock").finish(pos, point);
        }
        out
    });

    // Sync, and trace the appends on the calling thread (workers trace
    // to rings of their own). A result we cannot make durable must not
    // be reported as completed: when an append or the fsync failed,
    // every point this call computed becomes a hole, and no crash point
    // fires.
    if let Some(commit) = commit {
        let commit = commit.into_inner().expect("commit lock");
        let mut j = commit.journal.lock().expect("journal lock");
        for &(_, index, _, appended) in &commit.committed {
            if appended {
                trace_journal(&j, section, index, JournalKind::Append);
            }
        }
        if let Err(e) = commit.failed.map_or_else(|| j.sync(), Err) {
            for (pos, index, attempts, _) in commit.committed {
                out[pos] = Err(PointError {
                    index,
                    attempts,
                    failure: PointFailure::Failed(e.clone()),
                });
            }
            return out;
        }
    }
    let crash = crash.into_inner();
    if crash != usize::MAX {
        eprintln!("piton: injected crash at {section}:{crash}");
        std::process::abort();
    }
    out
}

/// The in-order commit of one journaled sweep: points finish in any
/// order, and each computed point is appended once every point before
/// it (by position in the call) has finished.
struct Commit<'a> {
    journal: &'a Mutex<Journal>,
    section: &'a str,
    /// Per position: `None` while the point runs, then its grid index,
    /// attempt count and text when it was computed, until committed.
    ready: Vec<Option<Option<(usize, u32, String)>>>,
    /// The first position not yet committed.
    next: usize,
    /// `(position, grid index, attempts, appended)` of every computed
    /// point committed so far, in index order; a point the journal
    /// already held (a concurrent request recorded it) is not appended.
    committed: Vec<(usize, usize, u32, bool)>,
    /// The first failed append; nothing is appended after it.
    failed: Option<PitonError>,
}

impl Commit<'_> {
    /// Marks the point at `pos` finished, then commits the finished
    /// points from the first uncommitted position on, in order.
    fn finish(&mut self, pos: usize, point: Option<(usize, u32, String)>) {
        self.ready[pos] = Some(point);
        let mut journal = None;
        while let Some(Some(slot)) = self.ready.get_mut(self.next) {
            let pos = self.next;
            self.next += 1;
            let Some((index, attempts, text)) = slot.take() else {
                continue;
            };
            let j = journal.get_or_insert_with(|| self.journal.lock().expect("journal lock"));
            let mut appended = self.failed.is_none() && !j.contains(self.section, index);
            if appended {
                if let Err(e) = j.record_text(self.section, index, &text) {
                    self.failed = Some(e);
                    appended = false;
                }
            }
            self.committed.push((pos, index, attempts, appended));
        }
    }
}

/// Emits a journal trace event, built only when this thread's collector
/// keeps journal events.
fn trace_journal(j: &Journal, section: &str, index: usize, kind: JournalKind) {
    if trace::wants(trace::SUB_JOURNAL) {
        trace::emit(TraceEvent::Journal {
            section: section.to_owned(),
            index: index as u64,
            kind,
            key: point_key(j.context(), section, index),
        });
    }
}

/// The number of worker threads to use when the caller doesn't say:
/// the machine's available parallelism. (The binaries' `--jobs`
/// overrides it.)
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        // Make early indices the slowest so a scheduling-order bug
        // would scramble the output.
        let out = sweep(4, (0u64..32).collect(), |i, x| {
            std::thread::sleep(Duration::from_micros(300 - 9 * i as u64));
            (i, x * 2)
        });
        for (i, (idx, doubled)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*doubled, 2 * i as u64);
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let grid: Vec<u64> = (0..50).collect();
        let f = |i: usize, x: u64| x.wrapping_mul(0x9E37_79B9).rotate_left(i as u32);
        assert_eq!(sweep(1, grid.clone(), f), sweep(8, grid, f));
    }

    #[test]
    fn jobs_zero_and_one_fall_back_to_inline_execution() {
        // Both must produce the full result set without spawning.
        for jobs in [0, 1] {
            let out = sweep(jobs, vec![10u64, 20, 30], |i, x| x + i as u64);
            assert_eq!(out, vec![10, 21, 32]);
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<u64> = sweep(8, Vec::<u64>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "grid point 3 exploded")]
    fn panics_propagate_to_the_caller() {
        let _ = sweep(4, (0usize..8).collect(), |i, x| {
            assert!(i != 3, "grid point 3 exploded");
            x
        });
    }

    #[test]
    fn try_sweep_isolates_a_panicking_point() {
        let out = try_sweep(4, (0u64..8).collect(), RetryPolicy::default(), |i, x, _| {
            assert!(i != 3, "grid point 3 exploded");
            Ok(x * 10)
        });
        assert_eq!(out.len(), 8);
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.index, 3);
                assert_eq!(e.attempts, 3);
                assert!(
                    matches!(&e.failure, PointFailure::Panicked(m) if m.contains("exploded")),
                    "{e}"
                );
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u64 * 10);
            }
        }
    }

    #[test]
    fn try_sweep_retries_transient_failures_with_attempt_reseeding() {
        // Point 5 fails its first two attempts, then succeeds: retry
        // with the attempt number must recover it with no hole.
        let out = try_sweep(
            2,
            (0u64..8).collect(),
            RetryPolicy::default(),
            |i, x, attempt| {
                if i == 5 && attempt < 2 {
                    return Err(PitonError::transient("flaky point"));
                }
                Ok(x + u64::from(attempt))
            },
        );
        let vals: Vec<u64> = out.into_iter().map(Result::unwrap).collect();
        // Point 5 succeeded on attempt 2 and saw its reseeded attempt.
        assert_eq!(vals, vec![0, 1, 2, 3, 4, 7, 6, 7]);
    }

    #[test]
    fn try_sweep_fails_nontransient_errors_without_retry() {
        let out = try_sweep(
            1,
            vec![0u64],
            RetryPolicy { max_attempts: 5 },
            |_, _, attempt| {
                assert_eq!(attempt, 0, "deterministic failures must not retry");
                Err::<u64, _>(PitonError::injected("dead point"))
            },
        );
        let e = out[0].as_ref().unwrap_err();
        assert_eq!(e.attempts, 1);
        assert!(matches!(
            &e.failure,
            PointFailure::Failed(PitonError::Injected { .. })
        ));
    }

    #[test]
    fn try_sweep_is_deterministic_across_jobs_levels() {
        let run = |jobs| {
            try_sweep(
                jobs,
                (0u64..16).collect(),
                RetryPolicy::default(),
                |i, x, attempt| {
                    if i == 2 && attempt == 0 {
                        return Err(PitonError::transient("first attempt glitch"));
                    }
                    if i == 9 {
                        panic!("point 9 always dies");
                    }
                    Ok(x.wrapping_mul(0x9E37_79B9) ^ u64::from(attempt))
                },
            )
        };
        assert_eq!(run(1), run(4));
    }

    fn temp_journal(tag: &str) -> (std::path::PathBuf, Mutex<Journal>) {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "piton-runner-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let journal = Mutex::new(Journal::open(&path, "runner-test-ctx").unwrap());
        (path, journal)
    }

    fn indexed(grid: impl IntoIterator<Item = u64>) -> Vec<(usize, u64)> {
        grid.into_iter().map(|x| (x as usize, x)).collect()
    }

    #[test]
    fn journaled_sweep_appends_then_serves_without_recompute() {
        let (path, journal) = temp_journal("serve");
        let calls = AtomicUsize::new(0);
        let f = |_: usize, &x: &u64, _: u32| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(x as f64 * 0.5)
        };
        let first = try_sweep_journaled(2, indexed(0..6), "scaling", None, Some(&journal), f);
        assert_eq!(calls.load(Ordering::Relaxed), 6);
        // Same journal again: every point is served, none recomputed,
        // results byte-identical at a different jobs level.
        let second = try_sweep_journaled(1, indexed(0..6), "scaling", None, Some(&journal), f);
        assert_eq!(calls.load(Ordering::Relaxed), 6);
        let unwrap = |v: Vec<Result<f64, PointError>>| -> Vec<f64> {
            v.into_iter().map(Result::unwrap).collect()
        };
        assert_eq!(unwrap(first), unwrap(second));
        let stats = journal.lock().unwrap().stats();
        assert_eq!(stats.appended, 6);
        assert_eq!(stats.served, 6);
        // The records are durable: a fresh open recovers all of them.
        let reopened = Journal::open(&path, "runner-test-ctx").unwrap();
        assert_eq!(reopened.stats().recovered, 6);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journaled_sweep_without_journal_matches_try_sweep() {
        let f = |i: usize, &x: &u64, attempt: u32| {
            if i == 2 && attempt == 0 {
                return Err(PitonError::transient("glitch"));
            }
            Ok(x as f64 + f64::from(attempt))
        };
        let plain = try_sweep(4, (0..8).collect(), RetryPolicy::default(), f);
        let journaled = try_sweep_journaled(4, indexed(0..8), "scaling", None, None, f);
        assert_eq!(plain, journaled);
    }

    #[test]
    fn journaled_sweep_sees_grid_indices_and_holes_by_them() {
        // A sparse selection: the closure, the hole and the journal all
        // speak the grid index, not the position in the selection.
        let (path, journal) = temp_journal("sparse");
        let out = try_sweep_journaled(
            2,
            indexed([3, 20, 74]),
            "scaling",
            None,
            Some(&journal),
            |idx, &x, _| {
                assert_eq!(idx as u64, x);
                assert!(idx != 20, "point 20 dies");
                Ok(x as f64)
            },
        );
        assert_eq!(out[0], Ok(3.0));
        assert_eq!(out[1].as_ref().unwrap_err().index, 20);
        assert_eq!(out[2], Ok(74.0));
        let j = journal.lock().unwrap();
        assert!(j.contains("scaling", 3) && j.contains("scaling", 74));
        assert!(!j.contains("scaling", 20), "a hole is never journaled");
        drop(j);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journaled_files_are_the_same_bytes_at_every_jobs_level() {
        // Early points sleep longest, so at jobs 4 they finish last; the
        // commit still appends in index order.
        let sweep_at = |jobs| {
            let (path, journal) = temp_journal(&format!("jobs{jobs}"));
            let _ = try_sweep_journaled(
                jobs,
                indexed(0..12),
                "noc",
                None,
                Some(&journal),
                |i, &x, _| {
                    std::thread::sleep(Duration::from_millis(12 - i as u64));
                    Ok(x as f64 * 0.25)
                },
            );
            drop(journal);
            let bytes = std::fs::read(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            bytes
        };
        assert_eq!(sweep_at(1), sweep_at(4));
    }

    #[test]
    fn a_process_killed_mid_sweep_keeps_the_points_appended_before() {
        // Point 3 snapshots the file as a SIGKILL there would leave it:
        // the points before it are already appended, unsynced.
        let (path, journal) = temp_journal("killed");
        let snapshot = path.with_extension("killed");
        let out = try_sweep_journaled(1, indexed(0..6), "noc", None, Some(&journal), |i, &x, _| {
            if i == 3 {
                std::fs::copy(&path, &snapshot).unwrap();
            }
            Ok(x as f64)
        });
        assert!(out.iter().all(Result::is_ok));
        let killed = Journal::open(&snapshot, "runner-test-ctx").unwrap();
        assert_eq!(killed.stats().recovered, 3, "points 0-2 survive the kill");
        assert_eq!(killed.stats().torn, 0);
        drop(journal);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&snapshot);
    }

    #[test]
    fn a_point_recorded_mid_sweep_is_not_appended_twice() {
        // The closure records point 2 itself, as a concurrent request on
        // the same journal would between partition and commit.
        let (path, journal) = temp_journal("concurrent");
        let out = try_sweep_journaled(2, indexed(0..5), "noc", None, Some(&journal), |i, &x, _| {
            if i == 2 {
                journal
                    .lock()
                    .unwrap()
                    .record("noc", 2, &(x as f64).to_value())
                    .unwrap();
            }
            Ok(x as f64)
        });
        assert!(out.iter().all(Result::is_ok));
        let by_closure = 1;
        let stats = journal.lock().unwrap().stats();
        assert_eq!(stats.appended - by_closure, 5 - 1, "every miss but point 2");
        drop(journal);
        let reopened = Journal::open(&path, "runner-test-ctx").unwrap();
        assert_eq!(reopened.stats().recovered, 5, "each point once");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_trace_appends_cold_points_in_order_and_serves_warm_hits() {
        let (path, journal) = temp_journal("trace");
        let spec = trace::TraceSpec::parse("journal").unwrap();
        let run = || {
            try_sweep_journaled(
                3,
                indexed([1, 4, 5, 9]),
                "epi",
                None,
                Some(&journal),
                |i, &x, _| {
                    std::thread::sleep(Duration::from_millis(10 - i as u64));
                    Ok(x as f64)
                },
            )
        };
        let kinds = |events: Vec<TraceEvent>| -> Vec<(u64, JournalKind)> {
            events
                .into_iter()
                .map(|e| match e {
                    TraceEvent::Journal {
                        section,
                        index,
                        kind,
                        key,
                    } => {
                        assert_eq!(section, "epi");
                        assert_eq!(key, point_key("runner-test-ctx", "epi", index as usize));
                        (index, kind)
                    }
                    other => panic!("not a journal event: {other:?}"),
                })
                .collect()
        };
        let (_, cold) = trace::capture(&spec, run);
        let (_, warm) = trace::capture(&spec, run);
        let order = [1, 4, 5, 9];
        assert_eq!(kinds(cold), order.map(|i| (i, JournalKind::Append)));
        assert_eq!(kinds(warm), order.map(|i| (i, JournalKind::Serve)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn point_errors_render_their_story() {
        let e = PointError {
            index: 7,
            attempts: 3,
            failure: PointFailure::Failed(PitonError::transient("injected flaky grid point")),
        };
        let s = e.to_string();
        assert!(s.contains("point 7") && s.contains("3 attempt"), "{s}");
    }

    #[test]
    fn stats_accumulate_and_reset() {
        // The tally is this test thread's alone: it holds exactly the
        // sweeps called here (a parallel sweep counts once, on the
        // calling thread), and taking it empties it.
        let _ = sweep(2, (0u64..5).collect(), |_, x| x);
        let _ = sweep(1, (0u64..3).collect(), |_, x| x);
        let s = take_stats();
        assert_eq!((s.sweeps, s.points), (2, 8));
        assert!(s.speedup() >= 0.0);
        let empty = take_stats();
        assert_eq!((empty.sweeps, empty.points), (0, 0));
        assert!(empty.busy.is_zero() && empty.wall.is_zero());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}

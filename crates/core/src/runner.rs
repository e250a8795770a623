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
//! Workers enter the calling thread's [`piton_obs::Scope`], so their
//! trace events and metrics reach the run that called the sweep.
//! Wall-clock and per-point busy time are accumulated in the calling
//! thread's tally, which the `reproduce` binary drains per section
//! ([`take_stats`]) to report the achieved speedup.
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
use piton_obs::{json, metrics, trace};

use crate::journal::{Journal, JournalPayload};

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
        let mut busy = Duration::ZERO;
        let out: Vec<T> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                let t0 = Instant::now();
                let r = f(i, item);
                busy += t0.elapsed();
                r
            })
            .collect();
        SweepStats::record(n, busy, t_sweep.elapsed());
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
/// point gets before its failure becomes a hole, how long each attempt
/// may run, and how long to pause between retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per point (first try included).
    pub max_attempts: u32,
    /// Per-attempt deadline budget. Each attempt arms the cooperative
    /// [`piton_arch::deadline`] for this long, so a wedged measurement
    /// surfaces as a *transient* [`PitonError::DeadlineExceeded`]
    /// (polled by warm-up, sampling and the hang watchdog) and the
    /// retry gets a fresh budget. `None` leaves attempts unbudgeted.
    pub timeout: Option<Duration>,
    /// Pause before the first retry, doubling on every further retry
    /// (exponential backoff, saturating). [`Duration::ZERO`] retries
    /// immediately.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            timeout: None,
            backoff: Duration::ZERO,
        }
    }
}

/// Sleeps before retry number `retry` (1-based): `base * 2^(retry-1)`,
/// saturating. A zero base skips the pause entirely.
fn backoff_pause(base: Duration, retry: u32) {
    if base.is_zero() {
        return;
    }
    let factor = 1u32 << (retry - 1).min(16);
    std::thread::sleep(base.saturating_mul(factor));
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

/// One grid point's attempt loop: panic isolation, per-attempt deadline
/// budget, transient retry with exponential backoff. Returns the final
/// attempt number alongside the outcome.
fn run_point<I, T>(
    idx: usize,
    item: &I,
    policy: RetryPolicy,
    f: &(impl Fn(usize, &I, u32) -> Result<T, PitonError> + Sync),
) -> (u32, Result<T, PointError>) {
    let max_attempts = policy.max_attempts.max(1);
    let mut attempt = 0;
    let out = loop {
        if let Some(timeout) = policy.timeout {
            piton_arch::deadline::arm(Instant::now() + timeout);
        }
        let tried =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(idx, item, attempt)));
        piton_arch::deadline::disarm();
        match tried {
            Ok(Ok(v)) => break Ok(v),
            Ok(Err(e)) => {
                if e.is_transient() && attempt + 1 < max_attempts {
                    attempt += 1;
                    backoff_pause(policy.backoff, attempt);
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
                    backoff_pause(policy.backoff, attempt);
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

/// Journal-backed [`try_sweep`]: the durable, crash-resumable sweep.
///
/// With a journal, every grid point already present in the
/// write-ahead [`Journal`] is **served** from it —
/// skipping the closure, and with it every sabotage gate and retry —
/// while freshly computed points are **appended** before the sweep
/// proceeds. Payload round-trips are exact, so a resumed sweep's
/// output is byte-identical to an uninterrupted one at any jobs level.
/// Appends are batched: the journal is fsync'd once at the end of the
/// sweep (and immediately before an injected crash).
///
/// A `crash=SECTION:IDX` entry in the fault plan hard-aborts the
/// process when that point completes on the *compute* path — strictly
/// after its record is durably on disk — so the `--resume` relaunch
/// serves the point from the journal and the crash never re-fires.
///
/// With `journal = None` and a plan without crash points this behaves
/// exactly like [`try_sweep`].
pub fn try_sweep_journaled<I, T, F>(
    jobs: usize,
    items: Vec<I>,
    policy: RetryPolicy,
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
    let out = sweep(jobs, items, |idx, item| {
        if let Some(shared) = journal {
            let mut j = shared.lock().expect("journal lock");
            if let Some(text) = j.serve(section, idx) {
                if let Some(t) = json::parse(text).ok().and_then(|v| T::from_value(&v).ok()) {
                    trace::emit(TraceEvent::Journal {
                        section: section.to_owned(),
                        index: idx as u64,
                        kind: JournalKind::Serve,
                        key: j.key_for(section, idx),
                    });
                    return Ok(t);
                }
                // A checksummed record that no longer decodes as `T`
                // means the payload type changed under an unchanged
                // context string; recompute rather than trust it.
            }
        }
        let (attempt, out) = run_point(idx, &item, policy, &f);
        note_point_metrics(attempt, out.is_err());
        if let Ok(v) = &out {
            if let Some(shared) = journal {
                let mut j = shared.lock().expect("journal lock");
                if let Err(e) = j.record(section, idx, &v.to_value()) {
                    // A result we cannot make durable must not be
                    // reported as completed: better a visible hole.
                    return Err(PointError {
                        index: idx,
                        attempts: attempt + 1,
                        failure: PointFailure::Failed(e),
                    });
                }
                trace::emit(TraceEvent::Journal {
                    section: section.to_owned(),
                    index: idx as u64,
                    kind: JournalKind::Append,
                    key: j.key_for(section, idx),
                });
                if plan.is_some_and(|p| p.crash_for(section, idx)) {
                    // Durability first: the crashed point's record must
                    // reach disk so the resumed run serves it.
                    if let Err(e) = j.sync() {
                        eprintln!("piton: journal sync before injected crash failed: {e}");
                    }
                    eprintln!("piton: injected crash at {section}:{idx}");
                    std::process::abort();
                }
            } else if plan.is_some_and(|p| p.crash_for(section, idx)) {
                eprintln!("piton: injected crash at {section}:{idx}");
                std::process::abort();
            }
        }
        out
    });
    if let Some(shared) = journal {
        // The batch boundary: everything this sweep appended becomes
        // durable in one fsync.
        if let Err(e) = shared.lock().expect("journal lock").sync() {
            eprintln!("piton: journal sync at sweep end failed: {e}");
        }
    }
    out
}

/// The number of worker threads to use when the caller doesn't say:
/// the machine's available parallelism. (The binaries read
/// `PITON_JOBS` themselves.)
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
            RetryPolicy {
                max_attempts: 5,
                ..RetryPolicy::default()
            },
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

    #[test]
    fn deadline_budget_turns_a_wedged_point_into_a_transient_failure() {
        // The point cooperatively polls the deadline (as warm-up and
        // sampling do); an over-budget attempt fails transiently and
        // each retry gets a fresh budget it also blows.
        let policy = RetryPolicy {
            max_attempts: 2,
            timeout: Some(Duration::from_millis(2)),
            backoff: Duration::ZERO,
        };
        let out = try_sweep(1, vec![0u64], policy, |_, _, _| {
            std::thread::sleep(Duration::from_millis(5));
            piton_arch::deadline::check("wedged measurement")?;
            Ok(1u64)
        });
        let e = out[0].as_ref().unwrap_err();
        assert_eq!(e.attempts, 2);
        assert!(
            matches!(
                &e.failure,
                PointFailure::Failed(PitonError::DeadlineExceeded { .. })
            ),
            "{e}"
        );
        // The budget is per attempt: a fast point under the same
        // policy never trips it.
        let ok = try_sweep(1, vec![7u64], policy, |_, &x, _| {
            piton_arch::deadline::check("fast point")?;
            Ok(x)
        });
        assert_eq!(*ok[0].as_ref().unwrap(), 7);
    }

    #[test]
    fn backoff_doubles_between_retries() {
        let policy = RetryPolicy {
            max_attempts: 3,
            timeout: None,
            backoff: Duration::from_millis(4),
        };
        let t0 = Instant::now();
        let out = try_sweep(1, vec![0u64], policy, |_, _, _| {
            Err::<u64, _>(PitonError::transient("always flaky"))
        });
        assert!(out[0].is_err());
        // Two retries: 4 ms + 8 ms of pause at minimum.
        assert!(t0.elapsed() >= Duration::from_millis(12));
    }

    #[test]
    fn journaled_sweep_appends_then_serves_without_recompute() {
        use std::sync::atomic::AtomicUsize;

        let mut path = std::env::temp_dir();
        path.push(format!(
            "piton-runner-journal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let journal = Mutex::new(Journal::open(&path, "runner-test-ctx").unwrap());
        let calls = AtomicUsize::new(0);
        let f = |_: usize, &x: &u64, _: u32| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(x as f64 * 0.5)
        };
        let grid: Vec<u64> = (0..6).collect();
        let first = try_sweep_journaled(
            2,
            grid.clone(),
            RetryPolicy::default(),
            "scaling",
            None,
            Some(&journal),
            f,
        );
        assert_eq!(calls.load(Ordering::Relaxed), 6);
        // Same journal again: every point is served, none recomputed,
        // results byte-identical at a different jobs level.
        let second = try_sweep_journaled(
            1,
            grid,
            RetryPolicy::default(),
            "scaling",
            None,
            Some(&journal),
            f,
        );
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
        let grid: Vec<u64> = (0..8).collect();
        let plain = try_sweep(4, grid.clone(), RetryPolicy::default(), f);
        let journaled =
            try_sweep_journaled(4, grid, RetryPolicy::default(), "scaling", None, None, f);
        assert_eq!(plain, journaled);
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

//! Observability layer for the Piton power-characterization stack.
//!
//! The source paper is a measurement study: every published figure rests
//! on trusting intermediate observations (per-rail sample windows, ADC
//! conversions, activity counters), not just final Joules. This crate
//! gives the simulator the same property. It provides:
//!
//! * [`trace`] — a structured, ring-buffered event trace (instruction
//!   retirement, cache/directory transitions, NoC flit hops, ADC
//!   samples, engine-mode switches), zero-cost when disabled: every
//!   emit site is gated on one thread-local load. Events serialize to
//!   compact JSONL and parse back losslessly.
//! * [`metrics`] — a per-run registry of counters, gauges and
//!   histograms, snapshotted into machine-readable run manifests.
//! * [`manifest`] — the `piton-run-manifest/v1` document `reproduce`
//!   emits alongside its tables: per-section wall/busy time, sweep and
//!   retry tallies, holes, and a metrics snapshot.
//! * [`diff`] — first-divergence alignment of two event streams, the
//!   core of the golden-trace differential harness
//!   (`tests/trace_differential.rs`).
//! * [`json`] — the minimal JSON reader/writer everything above shares;
//!   every machine-readable artifact is encoded and decoded here.
//!
//! Nothing here is process-wide. A run observes itself from its own
//! thread — [`metrics::enable`], [`trace::to_file`] or
//! [`trace::capture`] there, and the sweep tally of
//! [`manifest::SweepStats`] — and the sweep runner hands that thread's
//! [`Scope`] to the workers it spawns, so two runs in one process never
//! see each other's events or counts.
//!
//! The trace hot-path contract: when this thread has no collector,
//! [`trace::active`] is a single thread-local load returning `false`,
//! and every instrumentation site in `piton-sim`/`piton-board` branches
//! over it before constructing an event.

pub mod diff;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod trace;

pub use diff::{first_divergence, Divergence};
pub use manifest::{Hole, RunManifest, SectionRecord, MANIFEST_SCHEMA};
pub use metrics::{snapshot, MetricsSnapshot};
pub use trace::{TraceEvent, TraceSpec};

/// Who observes the work on a thread: its file-backed trace collector
/// and its metrics registry. [`current`] captures it; [`Scope::enter`]
/// lends it to another thread, which is how a sweep's workers report
/// to the run that spawned them.
pub struct Scope {
    trace: Option<trace::Inherited>,
    metrics: Option<metrics::Shared>,
}

/// The calling thread's [`Scope`].
#[must_use]
pub fn current() -> Scope {
    Scope {
        trace: trace::inheritable(),
        metrics: metrics::current(),
    }
}

impl Scope {
    /// Runs `body` on this thread as work of the captured thread: its
    /// events join the same trace file (this thread's ring flushes as
    /// one block when `body` ends) and its metrics the same registry.
    /// The thread's own collector and registry are restored afterwards,
    /// also on unwind.
    pub fn enter<T>(&self, body: impl FnOnce() -> T) -> T {
        metrics::enter(self.metrics.clone(), || {
            trace::enter(self.trace.as_ref(), body)
        })
    }
}

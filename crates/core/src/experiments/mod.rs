//! One experiment per table and figure of the paper's evaluation.
//!
//! | module | reproduces |
//! |---|---|
//! | [`yield_stats`] | Table IV — chip testing statistics |
//! | [`area`] | Figure 8 — chip/tile/core area breakdown |
//! | [`vf_sweep`] | Figure 9 — maximum frequency vs VDD, three chips |
//! | [`static_idle`] | Figure 10 + Table V — static and idle power |
//! | [`epi`] | Figure 11 + Table VI — energy per instruction |
//! | [`memory_energy`] | Table VII — memory-system energy ladder |
//! | [`noc_energy`] | Figure 12 — NoC energy per flit vs hops |
//! | [`core_scaling`] | Figure 13 — power scaling with core count |
//! | [`mt_vs_mc`] | Figure 14 — multithreading vs multicore |
//! | [`specint`] | Tables VIII & IX + Figure 16 — SPECint study |
//! | [`mem_latency`] | Figure 15 — memory latency breakdown |
//! | [`thermal`] | Figures 17 & 18 — thermal characterization |
//! | [`governor`] | Figures 9 & 18, closed-loop — DVFS/thermal governor |
//! | [`design_space`] | beyond the paper — analytic VDD × f × cores × mix mega-sweep |
//!
//! Every experiment takes a [`Fidelity`] so tests can run scaled-down
//! versions of the same code path the full harness uses. The power
//! experiments ([`static_idle`], [`epi`], [`noc_energy`],
//! [`core_scaling`], [`mt_vs_mc`] and Figure 17 of [`thermal`]) also
//! take the [`crate::bench::Bench`] that answers their measurements, so
//! each runs unchanged on the cycle engine or the analytic backend. The
//! four
//! durable sweeps ([`epi`], [`noc_energy`], [`core_scaling`],
//! [`design_space`]) also borrow an optional fault plan and result
//! journal from their caller. Beyond the paper's artifacts,
//! [`ablations`] sweeps the modelled design choices (slice mapping,
//! store-buffer depth, thread-switch overhead, NoC router-versus-wire
//! split) the insights depend on.

pub mod ablations;
pub mod area;
pub mod core_scaling;
pub mod design_space;
pub mod epi;
pub mod governor;
pub mod mem_latency;
pub mod memory_energy;
pub mod mt_vs_mc;
pub mod noc_energy;
pub mod specint;
pub mod static_idle;
pub mod thermal;
pub mod vf_sweep;
pub mod yield_stats;

pub use piton_arch::config::Backend;

/// Measurement effort knob: how many monitor samples back each reported
/// number and how many simulated cycles back each sample. A plain value:
/// fault plans and result journals are passed beside it by reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fidelity {
    /// Monitor samples per measurement window (the paper uses 128).
    pub samples: usize,
    /// Simulated cycles behind each sample.
    pub chunk_cycles: u64,
    /// Warm-up cycles before sampling ("after the system reaches a
    /// steady state", §III-A).
    pub warmup_cycles: u64,
    /// Worker threads for independent sweep points (see
    /// [`crate::runner`]). `1` runs sweeps serially; results are
    /// byte-identical at every setting because each grid point builds
    /// its own isolated system.
    pub jobs: usize,
}

impl Fidelity {
    /// Paper-grade fidelity: 128 samples, long chunks.
    #[must_use]
    pub fn full() -> Self {
        Self {
            samples: 128,
            chunk_cycles: 20_000,
            warmup_cycles: 300_000,
            jobs: 1,
        }
    }

    /// Reduced fidelity for unit/integration tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            samples: 12,
            chunk_cycles: 3_000,
            warmup_cycles: 30_000,
            jobs: 1,
        }
    }

    /// Same fidelity with `jobs` sweep workers.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }
}

impl Default for Fidelity {
    fn default() -> Self {
        Self::full()
    }
}

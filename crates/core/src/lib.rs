//! The characterization framework — the paper's primary deliverable.
//!
//! This crate ties the simulator, power model, virtual bench and
//! workloads together into the measurement methodology of §III/§IV and
//! re-runs every table and figure of the evaluation:
//!
//! * [`measure`] — the EPI and EPF formulas, error propagation,
//!   per-operation energy and trendline fitting;
//! * [`bench`](mod@bench) — the bench's measurement calls the power experiments
//!   make, answered by the cycle engine or the analytic backend;
//! * [`experiments`] — one module per table/figure (see the module
//!   docs for the full index);
//! * [`report`] — plain-text rendering in the paper's row/column
//!   shapes, with paper-versus-measured deviation columns;
//! * [`journal`] — the write-ahead result journal behind durable,
//!   crash-resumable sweeps (`reproduce --journal/--resume`);
//! * [`analytic`] — the closed-form fast-path backend: the cycle
//!   engine's coefficients over a library of probed activity rates,
//!   answering the same bench calls and conformance-checked against
//!   the cycle engine;
//! * [`serve`] — the `piton-serve` daemon core: experiment requests
//!   over a Unix socket, answered from a persistent content-addressed
//!   result cache.
//!
//! # Examples
//!
//! ```
//! use piton_core::experiments::yield_stats;
//!
//! let result = yield_stats::run();
//! assert_eq!(result.counts.good, 19); // Table IV
//! println!("{}", result.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod bench;
pub mod experiments;
pub mod journal;
pub mod measure;
pub mod report;
pub mod runner;
pub mod serve;

pub use experiments::Fidelity;
pub use piton_power::governor::GovernorConfig;

//! The virtual Piton test bench: board, supplies, monitors, cooling and
//! the chip population.
//!
//! The paper's measurements come from a custom PCB designed for power
//! characterization (§III): bench supplies with remote voltage sense,
//! sense resistors on split power planes for each of the three chip
//! rails, I²C voltage/current monitors polled at ≈ 17 Hz, a heat-sink
//! and fan stack, and a drawer of packaged dies with varying process
//! corners and defects. This crate reproduces each piece:
//!
//! * [`fault`] — seeded deterministic bench-fault injection (dropped /
//!   stuck / glitched monitor reads, supply brownouts, sweep sabotage);
//! * [`supply`] — bench supplies and the rail set;
//! * [`monitor`] — sense-resistor channels, sampling noise, and the
//!   128-sample mean ± stddev measurement windows;
//! * [`population`] — process variation, defect classes and the
//!   Table IV yield campaign, plus the three named chips;
//! * [`system`] — [`system::PitonSystem`], the assembled Figure 3 setup
//!   every experiment drives.
//!
//! # Examples
//!
//! ```
//! use piton_board::population::ChipPopulation;
//!
//! let counts = ChipPopulation::piton_run().test_campaign(32);
//! assert_eq!(counts.good, 19); // Table IV
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod monitor;
pub mod population;
pub mod supply;
pub mod system;

pub use fault::FaultPlan;
pub use monitor::{Measured, MeasurementWindow, Quality};
pub use population::{ChipPopulation, ChipStatus, Die, NamedChip, YieldCounts};
pub use system::{PitonSystem, RailMeasurement, WorkloadRun};

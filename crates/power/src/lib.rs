//! Power, energy, leakage, thermal and voltage/frequency models for the
//! Piton manycore, calibrated to the HPCA'18 silicon measurements.
//!
//! The crate layers these models:
//!
//! * [`tech`] — 32 nm SOI scaling laws (V² dynamic energy, alpha-power
//!   delay, exponential leakage-versus-temperature);
//! * [`calibration`] — per-event energy coefficients fitted to the
//!   paper's published numbers (Table V idle/static, Figure 11 EPI,
//!   Table VII memory energy, Figure 12 NoC trendlines);
//! * [`energy`] — the term table: each per-event charge as (rail,
//!   counter, coefficient), in summation order;
//! * [`model`] — [`model::PowerModel`], which sums that table over a
//!   simulator activity window (or the analytic twin's rates) into the
//!   three rail powers (VDD/VCS/VIO) at any operating point, per die
//!   process corner;
//! * [`thermal`] and [`vf`] — the package/cooling RC network and the
//!   maximum-frequency solver that together reproduce Figure 9's
//!   thermal roll-off and §IV-J's power/temperature feedback.
//!
//! # Examples
//!
//! ```
//! use piton_power::model::{OperatingPoint, PowerModel};
//! use piton_sim::events::ActivityCounters;
//!
//! let model = PowerModel::nominal();
//! let mut window = ActivityCounters::default();
//! window.cycles = 1_000_000;
//! // Idle chips self-heat to a ~35 °C junction (Table V conditions).
//! let op = OperatingPoint::table_iii().with_junction(35.3);
//! let idle = model.power(&window, op);
//! assert!(idle.total().as_mw() > 1_900.0); // Table V: ~2015 mW
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod energy;
pub mod governor;
pub mod model;
pub mod tech;
pub mod thermal;
pub mod vf;

pub use calibration::Calibration;
pub use governor::{Governor, GovernorConfig, GovernorStats, OperatingChoice};
pub use model::{ChipCorner, OperatingPoint, PowerModel, RailPower};
pub use tech::TechModel;
pub use thermal::{Cooling, ThermalModel, ThermalStep};
pub use vf::{VfPoint, VfSolver};

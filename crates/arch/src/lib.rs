//! Architectural description of the Piton 25-core manycore processor.
//!
//! This crate is the single source of truth for everything the HPCA'18
//! characterization paper states about the *design* of Piton:
//!
//! * [`units`] — strongly-typed physical quantities (volts, hertz, watts,
//!   joules, seconds, degrees Celsius) used across the whole workspace;
//! * [`config`] — the architectural parameter summary of Table I, the
//!   experimental-system frequencies of Table II and the default
//!   measurement parameters of Table III;
//! * [`isa`] — the simulated SPARC-V9-like instruction set together with
//!   the instruction latencies of Table VI;
//! * [`topology`] — the 5×5 2D-mesh tile grid, dimension-ordered routing
//!   geometry and physical tile pitch used by the NoC energy study;
//! * [`floorplan`] — the place-and-route area database behind the
//!   chip/tile/core area breakdown of Figure 8;
//! * [`request`] — the grid-selection grammar of `piton-serve`
//!   experiment requests.
//!
//! # Examples
//!
//! ```
//! use piton_arch::config::ChipConfig;
//! use piton_arch::topology::TileId;
//!
//! let cfg = ChipConfig::default();
//! assert_eq!(cfg.tile_count(), 25);
//! assert_eq!(cfg.total_thread_count(), 50);
//!
//! let route = cfg.topology().route(TileId::new(0), TileId::new(9));
//! assert_eq!(route.hops, 5); // tile0 -> tile9 is the paper's 5-hop example
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod floorplan;
pub mod isa;
pub mod request;
pub mod topology;
pub mod units;

pub use config::ChipConfig;
pub use error::PitonError;
pub use topology::{Coord, TileId};

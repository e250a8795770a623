//! Figure 8 — detailed area breakdown at chip, tile and core level.
//!
//! The percentages come straight from the floorplan database (the
//! paper's place-and-route sums); this experiment re-derives them and
//! checks completeness.

use piton_arch::floorplan::{figure_8, AreaBreakdown, Level};

use crate::report::Table;

/// One rendered panel of Figure 8.
#[derive(Debug, Clone)]
pub struct AreaPanel {
    /// Hierarchy level.
    pub level: Level,
    /// Floorplanned total in mm².
    pub total_mm2: f64,
    /// `(block, area mm², percent)` rows.
    pub blocks: Vec<(String, f64, f64)>,
}

/// All three panels.
#[derive(Debug, Clone)]
pub struct AreaResult {
    /// Chip, tile and core panels.
    pub panels: Vec<AreaPanel>,
}

fn panel(b: &AreaBreakdown) -> AreaPanel {
    AreaPanel {
        level: b.level(),
        total_mm2: b.total_area_mm2(),
        blocks: b
            .blocks()
            .iter()
            .map(|blk| {
                (
                    blk.name.clone(),
                    blk.area_mm2,
                    b.percent(&blk.name).unwrap_or(0.0),
                )
            })
            .collect(),
    }
}

/// Derives the Figure 8 panels.
#[must_use]
pub fn run() -> AreaResult {
    AreaResult {
        panels: figure_8().iter().map(panel).collect(),
    }
}

impl AreaResult {
    /// Renders all three panels.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.panels {
            let mut t = Table::new(&format!(
                "Figure 8 ({} level, total {:.5} mm²)",
                p.level, p.total_mm2
            ));
            t.header(["Block", "Area (mm²)", "Percent"]);
            for (name, area, pct) in &p.blocks {
                t.row([name.clone(), format!("{area:.5}"), format!("{pct:.2}%")]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_panels_with_paper_percentages() {
        let r = run();
        assert_eq!(r.panels.len(), 3);
        let tile = &r.panels[1];
        assert_eq!(tile.level, Level::Tile);
        let core = tile
            .blocks
            .iter()
            .find(|(n, _, _)| n == "Core")
            .expect("core block");
        assert!((core.2 - 47.0).abs() < 0.01);
    }

    #[test]
    fn each_panel_sums_to_its_total() {
        for p in run().panels {
            let sum: f64 = p.blocks.iter().map(|(_, a, _)| a).sum();
            assert!(
                (sum - p.total_mm2).abs() / p.total_mm2 < 5e-4,
                "{}: {sum} vs {}",
                p.level,
                p.total_mm2
            );
        }
    }

    #[test]
    fn render_mentions_key_blocks() {
        let s = run().render();
        assert!(s.contains("L2 Cache"));
        assert!(s.contains("Load/Store"));
        assert!(s.contains("Chip Bridge"));
    }
}

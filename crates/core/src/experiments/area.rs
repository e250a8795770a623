//! Figure 8 — detailed area breakdown at chip, tile and core level.
//!
//! The percentages come straight from the floorplan database (the
//! paper's place-and-route sums); this experiment re-derives them and
//! checks completeness.

use piton_arch::error::PitonError;
use piton_arch::floorplan::{figure_8, AreaBreakdown, Level};

use super::{whole, At, Env, Fidelity, Measured, Rendered, Runs, Section};
use crate::bench::CycleBench;
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

/// Figure 8: one point per hierarchy level, its `(area mm², percent)`
/// per block.
#[derive(Debug, Clone, Copy)]
pub struct Area;

impl Section for Area {
    type Point = AreaBreakdown;
    type Inputs = ();
    type Payload = Vec<(f64, f64)>;
    type Output = AreaResult;
    const NAME: &'static str = "area";
    const TITLE: &'static str = "Figure 8 — area breakdown";
    const RUNS: Runs = Runs::Always;

    fn grid(&self, _: Fidelity) -> Vec<AreaBreakdown> {
        figure_8().to_vec()
    }

    fn label(&self, b: &AreaBreakdown) -> String {
        format!("{} level", b.level())
    }

    fn prepare(&self, _: &Env) -> Result<(), PitonError> {
        Ok(())
    }

    fn compute(&self, at: &At<Self>) -> Result<Vec<(f64, f64)>, PitonError> {
        let b = at.point;
        Ok(b.blocks()
            .iter()
            .map(|blk| (blk.area_mm2, b.percent(&blk.name).unwrap_or(0.0)))
            .collect())
    }

    fn assemble(&self, _: &Env, (): &(), points: Vec<Measured<'_, Self>>) -> AreaResult {
        let panels = points
            .into_iter()
            .map(|(_, b, r)| AreaPanel {
                level: b.level(),
                total_mm2: b.total_area_mm2(),
                blocks: b
                    .blocks()
                    .iter()
                    .zip(whole(r))
                    .map(|(blk, (area, pct))| (blk.name.clone(), area, pct))
                    .collect(),
            })
            .collect();
        AreaResult { panels }
    }

    fn render(&self, out: &AreaResult) -> Rendered {
        Rendered::body(out.render())
    }
}

/// Derives the Figure 8 panels.
#[must_use]
pub fn run() -> AreaResult {
    super::run(Area, &Env::new(&CycleBench, Fidelity::quick(), None), None)
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

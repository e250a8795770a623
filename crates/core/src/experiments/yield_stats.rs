//! Table IV — Piton testing statistics.
//!
//! Runs the paper's test campaign on the synthetic wafer population: 32
//! of the 45 packaged dies are screened and classified as good,
//! deterministically/nondeterministically unstable (SRAM defects) or
//! bad (supply shorts).

use piton_board::population::{ChipPopulation, ChipStatus, YieldCounts};

use crate::report::Table;

/// Table IV as measured on the synthetic population.
#[derive(Debug, Clone)]
pub struct YieldResult {
    /// Dies received from the wafer run.
    pub total_dies: usize,
    /// Dies packaged.
    pub packaged: usize,
    /// Dies tested.
    pub tested: u32,
    /// Counts per Table IV class.
    pub counts: YieldCounts,
}

/// Paper values of Table IV.
#[must_use]
pub fn paper_reference() -> YieldCounts {
    YieldCounts {
        good: 19,
        unstable_deterministic: 7,
        bad_vcs_short: 4,
        bad_vdd_short: 1,
        unstable_nondeterministic: 1,
    }
}

/// Runs the test campaign (deterministic; the population seed
/// reproduces the paper's counts).
#[must_use]
pub fn run() -> YieldResult {
    let pop = ChipPopulation::piton_run();
    let counts = pop.test_campaign(32);
    YieldResult {
        total_dies: pop.dies().len(),
        packaged: pop.packaged().count(),
        tested: counts.total(),
        counts,
    }
}

impl YieldResult {
    /// Renders the Table IV layout.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::new(&format!(
            "Table IV: Piton testing statistics ({} dies, {} packaged, {} tested)",
            self.total_dies, self.packaged, self.tested
        ));
        t.header(["Status", "Symptom", "Possible Cause", "Count", "Percentage"]);
        let c = &self.counts;
        let rows: [(ChipStatus, u32, &str); 5] = [
            (ChipStatus::Good, c.good, "Good"),
            (
                ChipStatus::UnstableDeterministic,
                c.unstable_deterministic,
                "Unstable*",
            ),
            (ChipStatus::BadVcsShort, c.bad_vcs_short, "Bad"),
            (ChipStatus::BadVddShort, c.bad_vdd_short, "Bad"),
            (
                ChipStatus::UnstableNondeterministic,
                c.unstable_nondeterministic,
                "Unstable*",
            ),
        ];
        for (status, count, label) in rows {
            t.row([
                label.to_owned(),
                status.symptom().to_owned(),
                status.possible_cause().to_owned(),
                count.to_string(),
                format!("{:.1}", c.percent(count)),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_reproduces_table_iv_exactly() {
        let r = run();
        assert_eq!(r.total_dies, 118);
        assert_eq!(r.packaged, 45);
        assert_eq!(r.tested, 32);
        assert_eq!(r.counts, paper_reference());
    }

    #[test]
    fn render_contains_all_classes() {
        let s = run().render();
        assert!(s.contains("Bad SRAM cells"));
        assert!(s.contains("Short"));
        assert!(s.contains("59.4"));
        assert!(s.contains("21.9"));
    }
}

//! Table IV — Piton testing statistics.
//!
//! Runs the paper's test campaign on the synthetic wafer population: 32
//! of the 45 packaged dies are screened and classified as good,
//! deterministically/nondeterministically unstable (SRAM defects) or
//! bad (supply shorts).

use piton_arch::error::PitonError;
use piton_board::population::{ChipPopulation, ChipStatus, YieldCounts};

use super::{whole, At, Env, Fidelity, Measured, Rendered, Runs, Section};
use crate::bench::CycleBench;
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

/// Dies the campaign tests, as in the paper.
const TESTED: usize = 32;

/// The Table IV rows in print order: status and status label.
const ROWS: [(ChipStatus, &str); 5] = [
    (ChipStatus::Good, "Good"),
    (ChipStatus::UnstableDeterministic, "Unstable*"),
    (ChipStatus::BadVcsShort, "Bad"),
    (ChipStatus::BadVddShort, "Bad"),
    (ChipStatus::UnstableNondeterministic, "Unstable*"),
];

/// Table IV: one point per row, the count of tested dies in its class.
#[derive(Debug, Clone, Copy)]
pub struct Yield;

impl Section for Yield {
    type Point = (ChipStatus, &'static str);
    type Inputs = ChipPopulation;
    type Payload = u64;
    type Output = YieldResult;
    const NAME: &'static str = "yield";
    const TITLE: &'static str = "Table IV — chip testing statistics";
    const RUNS: Runs = Runs::Always;

    fn grid(&self, _: Fidelity) -> Vec<Self::Point> {
        ROWS.to_vec()
    }

    fn prepare(&self, _: &Env) -> Result<ChipPopulation, PitonError> {
        Ok(ChipPopulation::piton_run())
    }

    fn compute(&self, at: &At<Self>) -> Result<u64, PitonError> {
        let pop = at.inputs;
        let &(status, _) = at.point;
        Ok(pop
            .packaged()
            .take(TESTED)
            .filter(|d| d.status == status)
            .count() as u64)
    }

    fn assemble(
        &self,
        _: &Env,
        pop: &ChipPopulation,
        points: Vec<Measured<'_, Self>>,
    ) -> YieldResult {
        let c: Vec<u32> = points
            .into_iter()
            .map(|(_, _, r)| u32::try_from(whole(r)).expect("at most 32 dies"))
            .collect();
        let counts = YieldCounts {
            good: c[0],
            unstable_deterministic: c[1],
            bad_vcs_short: c[2],
            bad_vdd_short: c[3],
            unstable_nondeterministic: c[4],
        };
        YieldResult {
            total_dies: pop.dies().len(),
            packaged: pop.packaged().count(),
            tested: counts.total(),
            counts,
        }
    }

    fn render(&self, out: &YieldResult) -> Rendered {
        Rendered::body(out.render())
    }
}

/// Runs the test campaign (deterministic; the population seed
/// reproduces the paper's counts).
#[must_use]
pub fn run() -> YieldResult {
    super::run(Yield, &Env::new(&CycleBench, Fidelity::quick(), None), None)
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
        let counts = [
            c.good,
            c.unstable_deterministic,
            c.bad_vcs_short,
            c.bad_vdd_short,
            c.unstable_nondeterministic,
        ];
        for ((status, label), count) in ROWS.into_iter().zip(counts) {
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

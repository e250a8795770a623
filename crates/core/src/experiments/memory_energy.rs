//! Table VII — memory system energy for different cache hit/miss
//! scenarios.
//!
//! A single core (tile0) runs the §IV-F alias walker for each scenario
//! with the line-to-slice mapping set to high-order address bits, so
//! the home slice (local, 4 hops, 8 hops) is controlled by the address
//! region. Energy per load is the measured extra power divided by the
//! load completion rate — the quantity the paper's formula computes,
//! and the form that stays correct when the off-chip path serializes
//! (the L2-miss row). Latencies are verified directly against the
//! memory system, as the paper verifies them in simulation.

use piton_arch::config::{ChipConfig, SliceMapping};
use piton_arch::error::PitonError;
use piton_arch::isa::Opcode;
use piton_arch::topology::TileId;
use piton_arch::units::Seconds;
use piton_board::system::PitonSystem;
use piton_sim::events::ActivityCounters;
use piton_sim::memsys::MemorySystem;
use piton_workloads::memwalk::{ldx_walker, scenario_addresses, MemScenario};

use super::{whole, At, Env, Fidelity, Measured, Rendered, Runs, Section};
use crate::bench::CycleBench;
use crate::measure::WithError;
use crate::report::Table;

/// One Table VII row.
#[derive(Debug, Clone)]
pub struct MemEnergyRow {
    /// Scenario label as printed in Table VII.
    pub label: String,
    /// Load latency in cycles (verified against the memory system).
    pub latency_cycles: u64,
    /// Mean energy per `ldx` in nJ.
    pub energy_nj: WithError,
}

/// The Table VII dataset.
#[derive(Debug, Clone)]
pub struct MemEnergyResult {
    /// The five scenario rows.
    pub rows: Vec<MemEnergyRow>,
}

/// Paper values of Table VII: `(label, latency, energy nJ)`.
#[must_use]
pub fn paper_reference() -> Vec<(&'static str, u64, f64)> {
    vec![
        ("L1 Hit", 3, 0.28646),
        ("L1 Miss, Local L2 Hit", 34, 1.54),
        ("L1 Miss, Remote L2 Hit (4 hops)", 42, 1.87),
        ("L1 Miss, Remote L2 Hit (8 hops)", 52, 1.97),
        ("L1 Miss, Local L2 Miss", 424, 308.7),
    ]
}

fn high_mapped_config() -> ChipConfig {
    let mut cfg = ChipConfig::piton();
    cfg.slice_mapping = SliceMapping::High;
    cfg
}

/// Probes the steady-state load latency of a scenario directly.
fn probe_latency(scenario: MemScenario) -> u64 {
    let cfg = high_mapped_config();
    let mut sys = MemorySystem::new(&cfg);
    let mut act = ActivityCounters::default();
    let addrs = scenario_addresses(scenario, cfg.l1d, cfg.l2);
    // Warm by walking the set twice, then measure the steady pattern.
    let mut now = 0;
    let mut last = 0;
    for round in 0..3 {
        for &a in &addrs {
            let out = sys.load(TileId::new(0), a, now, &mut act);
            now += out.latency + 1;
            if round == 2 {
                last = out.latency;
            }
        }
    }
    last
}

fn measure_scenario(scenario: MemScenario, fidelity: Fidelity) -> WithError {
    let cfg = high_mapped_config();
    let addrs = scenario_addresses(scenario, cfg.l1d, cfg.l2);

    // Idle baseline on the same configuration.
    let mut idle_sys = PitonSystem::new(&cfg, piton_power::ChipCorner::typical(), 0x77);
    idle_sys.set_chunk_cycles(fidelity.chunk_cycles);
    idle_sys.warm_up(fidelity.warmup_cycles / 2);
    let idle = idle_sys.measure(fidelity.samples);

    let mut sys = PitonSystem::new(&cfg, piton_power::ChipCorner::typical(), 0x78);
    sys.set_chunk_cycles(fidelity.chunk_cycles);
    sys.machine_mut()
        .load_thread(TileId::new(0), 0, ldx_walker(&addrs));
    sys.warm_up(fidelity.warmup_cycles);

    let loads_before = sys.machine().counters().issues[Opcode::Ldx.index()];
    let cycles_before = sys.machine().counters().cycles;
    let m = sys.measure(fidelity.samples);
    let loads = sys.machine().counters().issues[Opcode::Ldx.index()] - loads_before;
    let cycles = sys.machine().counters().cycles - cycles_before;

    let window: Seconds = sys.frequency().period() * cycles as f64;
    let delta_w = m.total.mean - idle.total.mean;
    let e_nj =
        crate::measure::energy_per_op_nj(idle.total.mean + delta_w, idle.total.mean, window, loads);
    let err = (m.total.stddev.0.powi(2) + idle.total.stddev.0.powi(2)).sqrt() * window.0
        / loads as f64
        * 1e9;
    WithError::new(e_nj, err)
}

/// Table VII: one point per access scenario, its load latency and
/// energy per `ldx`.
#[derive(Debug, Clone, Copy)]
pub struct MemoryEnergy;

impl Section for MemoryEnergy {
    type Point = (MemScenario, &'static str);
    type Inputs = ();
    type Payload = (u64, WithError);
    type Output = MemEnergyResult;
    const NAME: &'static str = "memory";
    const TITLE: &'static str = "Table VII — memory system energy";
    const RUNS: Runs = Runs::Cycle;

    fn grid(&self, _: Fidelity) -> Vec<Self::Point> {
        MemScenario::table_vii()
    }

    fn prepare(&self, _: &Env) -> Result<(), PitonError> {
        Ok(())
    }

    fn compute(&self, at: &At<Self>) -> Result<(u64, WithError), PitonError> {
        let env = at.env;
        let &(scenario, _) = at.point;
        Ok((
            probe_latency(scenario),
            measure_scenario(scenario, env.fidelity),
        ))
    }

    fn assemble(&self, _: &Env, (): &(), points: Vec<Measured<'_, Self>>) -> MemEnergyResult {
        let rows = points
            .into_iter()
            .map(|(_, &(_, label), r)| {
                let (latency_cycles, energy_nj) = whole(r);
                MemEnergyRow {
                    label: label.to_owned(),
                    latency_cycles,
                    energy_nj,
                }
            })
            .collect();
        MemEnergyResult { rows }
    }

    fn render(&self, out: &MemEnergyResult) -> Rendered {
        Rendered {
            csv: Some(("table7_memory_energy.csv", out.to_csv())),
            ..Rendered::body(out.render())
        }
    }
}

/// Runs the five Table VII scenarios.
#[must_use]
pub fn run(fidelity: Fidelity) -> MemEnergyResult {
    super::run(MemoryEnergy, &Env::new(&CycleBench, fidelity, None), None)
}

impl MemEnergyResult {
    /// A row by label.
    #[must_use]
    pub fn row(&self, label: &str) -> Option<&MemEnergyRow> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// Exports the Table VII ladder as CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut t = Table::new("");
        t.header(["scenario", "latency_cycles", "energy_nj", "energy_err_nj"]);
        for r in &self.rows {
            t.row([
                r.label.clone(),
                r.latency_cycles.to_string(),
                format!("{:.5}", r.energy_nj.value),
                format!("{:.5}", r.energy_nj.error),
            ]);
        }
        t.to_csv()
    }

    /// Renders Table VII with paper deviations.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::new("Table VII: memory system energy per ldx");
        t.header([
            "Cache Hit/Miss Scenario",
            "Latency (cycles)",
            "Mean LDX Energy (nJ)",
            "Paper (nJ)",
            "vs paper",
        ]);
        for (row, (_, paper_lat, paper_nj)) in self.rows.iter().zip(paper_reference()) {
            let _ = paper_lat;
            t.row([
                row.label.clone(),
                row.latency_cycles.to_string(),
                format!("{:.5}", row.energy_nj.value),
                format!("{paper_nj}"),
                crate::report::vs_paper(row.energy_nj.value, paper_nj),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_match_table_vii_exactly() {
        for (scenario, label) in MemScenario::table_vii() {
            let expect = paper_reference()
                .into_iter()
                .find(|(l, _, _)| *l == label)
                .unwrap()
                .1;
            let got = probe_latency(scenario);
            if matches!(scenario, MemScenario::L2Miss) {
                // Jittered ("memory access latency varies", the paper
                // uses an average).
                assert!(
                    (expect..expect + 20).contains(&got),
                    "{label}: {got} vs ~{expect}"
                );
            } else {
                assert_eq!(got, expect, "{label}");
            }
        }
    }

    #[test]
    fn energy_ladder_is_monotonic_and_in_band() {
        let r = run(Fidelity::quick());
        let vals: Vec<f64> = r.rows.iter().map(|row| row.energy_nj.value).collect();
        // L1 < local L2 < remote 4 < remote 8 << miss.
        assert!(vals[0] < vals[1], "L1 {} vs L2 {}", vals[0], vals[1]);
        assert!(vals[1] < vals[2]);
        assert!(vals[2] < vals[3]);
        assert!(
            vals[4] > 50.0 * vals[3],
            "miss {} vs remote {}",
            vals[4],
            vals[3]
        );

        for (row, (_, _, paper)) in r.rows.iter().zip(paper_reference()) {
            let dev = (row.energy_nj.value - paper).abs() / paper;
            assert!(
                dev < 0.45,
                "{}: {:.3} nJ vs paper {paper} ({:.0}%)",
                row.label,
                row.energy_nj.value,
                dev * 100.0
            );
        }
    }

    #[test]
    fn render_includes_deviation_column() {
        let s = run(Fidelity::quick()).render();
        assert!(s.contains("vs paper"));
        assert!(s.contains("L1 Miss, Local L2 Miss"));
    }
}

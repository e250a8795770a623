//! Figure 15 — memory latency breakdown of a `ldx` from tile0.
//!
//! Renders the chipset path's per-component cycle table and verifies it
//! end-to-end against the simulator: a cold load from tile0 must take
//! ≈ 424 cycles (the Table VII L2-miss latency), the Figure 15 path
//! accounting for ~395 of them.

use piton_arch::config::ChipConfig;
use piton_arch::topology::TileId;
use piton_arch::units::Seconds;
use piton_sim::chipset::{figure15_segments, PathSegment};
use piton_sim::events::ActivityCounters;
use piton_sim::memsys::MemorySystem;

use crate::report::Table;

/// The Figure 15 reproduction.
#[derive(Debug, Clone)]
pub struct MemLatencyResult {
    /// Per-component path segments.
    pub segments: Vec<PathSegment>,
    /// Sum of the segments (the paper's "~395 Total Round Trip Cycles").
    pub path_cycles: u64,
    /// Path round trip in nanoseconds at 500.05 MHz.
    pub path_ns: f64,
    /// Measured end-to-end `ldx` miss latency from the simulator
    /// (includes the on-chip issue/fill overhead beyond the path).
    pub measured_ldx_miss_cycles: u64,
}

/// Runs the latency walk.
#[must_use]
pub fn run() -> MemLatencyResult {
    let segments = figure15_segments();
    let path_cycles: u64 = segments.iter().map(|s| s.cycles).sum();
    let period: Seconds = piton_arch::units::Hertz::from_mhz(500.05).period();
    let path_ns = period.as_ns() * path_cycles as f64;

    let mut sys = MemorySystem::new(&ChipConfig::piton());
    let mut act = ActivityCounters::default();
    let out = sys.load(TileId::new(0), 0x40, 0, &mut act);

    MemLatencyResult {
        segments,
        path_cycles,
        path_ns,
        measured_ldx_miss_cycles: out.latency,
    }
}

impl MemLatencyResult {
    /// Renders the Figure 15 table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::new(&format!(
            "Figure 15: memory latency breakdown (~{} path cycles = ~{:.0} ns; measured ldx miss {} cycles)",
            self.path_cycles, self.path_ns, self.measured_ldx_miss_cycles
        ));
        t.header(["Component", "Activity", "Cycles @ 500.05 MHz"]);
        for s in &self.segments {
            t.row([s.component, s.activity, &s.cycles.to_string()]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_matches_figure_15_totals() {
        let r = run();
        assert_eq!(r.path_cycles, 395);
        assert!((r.path_ns - 790.0).abs() < 2.0);
    }

    #[test]
    fn end_to_end_matches_table_vii_l2_miss() {
        let r = run();
        assert!(
            (424..450).contains(&r.measured_ldx_miss_cycles),
            "measured {}",
            r.measured_ldx_miss_cycles
        );
    }

    #[test]
    fn gateway_overhead_is_visible() {
        // §IV-I: "Almost 80 cycles are spent in the gateway FPGA" side
        // of the path (chip bridge + gateway + FMC buffering on the way
        // out).
        let r = run();
        let outbound_fpga: u64 = r.segments.iter().take(4).skip(1).map(|s| s.cycles).sum();
        assert!((70..=95).contains(&outbound_fpga), "{outbound_fpga}");
    }

    #[test]
    fn render_lists_dram_double_access() {
        assert!(run().render().contains("2x"));
    }
}

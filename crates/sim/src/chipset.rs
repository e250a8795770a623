//! The off-chip memory path: chip bridge, gateway FPGA, FMC link, chipset
//! FPGA (demux, north bridge, DRAM controller) and DDR3 DRAM.
//!
//! Figure 15 of the paper breaks the ~790 ns round trip of a `ldx` miss
//! from tile0 into per-component segments, all normalized to the
//! 500.05 MHz core clock, totalling ~395 cycles. This module reproduces
//! that pipeline as data (one [`PathSegment`] per component) and models
//! the path as a *blocking, single-outstanding-request* channel: the
//! Xilinx memory controller behind a 32-bit DRAM interface services one
//! cache-line request at a time (and needs two DRAM accesses per request),
//! so concurrent misses from many cores queue and serialize — the
//! behaviour behind the paper's very large L2-miss energy (Table VII).
//!
//! # Examples
//!
//! ```
//! use piton_sim::chipset::{figure15_segments, MemoryPath};
//!
//! let total: u64 = figure15_segments().iter().map(|s| s.cycles).sum();
//! assert_eq!(total, 395); // "~395 Total Round Trip Cycles = ~790ns"
//! ```

use crate::events::ActivityCounters;

/// One component of the memory round trip (Figure 15).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    /// Component name as labelled in Figure 15.
    pub component: &'static str,
    /// What the cycles are spent on.
    pub activity: &'static str,
    /// Cycles, normalized to the Piton core clock (500.05 MHz).
    pub cycles: u64,
}

/// The Figure 15 latency breakdown of a `ldx` from tile0 to DRAM and
/// back. Segments are in traversal order; the DRAM segment folds in the
/// two accesses required by the 32-bit DRAM data interface.
#[must_use]
pub fn figure15_segments() -> Vec<PathSegment> {
    vec![
        PathSegment {
            component: "Tile Array",
            activity: "L1 Miss + L2 Miss",
            cycles: 28,
        },
        PathSegment {
            component: "Chip Bridge",
            activity: "Buf FFs + AFIFO",
            cycles: 39,
        },
        PathSegment {
            component: "Gateway FPGA",
            activity: "AFIFO + Mux",
            cycles: 5,
        },
        PathSegment {
            component: "FMC",
            activity: "Buf FFs + AFIFO",
            cycles: 39,
        },
        PathSegment {
            component: "Chip Bridge Demux",
            activity: "Buf FFs + AFIFO",
            cycles: 11,
        },
        PathSegment {
            component: "North Bridge",
            activity: "Buf FFs + Route",
            cycles: 8,
        },
        PathSegment {
            component: "DRAM Ctl",
            activity: "AFIFO + Buf FFs + Req Send",
            cycles: 16,
        },
        PathSegment {
            component: "DRAM",
            activity: "Mem Ctl + DRAM Access (2x: 32-bit interface)",
            cycles: 140,
        },
        PathSegment {
            component: "DRAM Ctl",
            activity: "Resp Process + AFIFO",
            cycles: 11,
        },
        PathSegment {
            component: "North Bridge",
            activity: "Buf FFs + Mux",
            cycles: 6,
        },
        PathSegment {
            component: "Chip Bridge Demux",
            activity: "Buf FFs + Mux",
            cycles: 12,
        },
        PathSegment {
            component: "Chip Bridge",
            activity: "Buf FFs + AFIFO",
            cycles: 63,
        },
        PathSegment {
            component: "Tile Array",
            activity: "L2 Fill + L1 Fill",
            cycles: 17,
        },
    ]
}

/// Round-trip cycles of the unloaded memory path (sum of Figure 15).
#[must_use]
pub fn round_trip_cycles() -> u64 {
    figure15_segments().iter().map(|s| s.cycles).sum()
}

/// The blocking off-chip memory channel.
#[derive(Debug, Clone)]
pub struct MemoryPath {
    /// Cycle at which the channel next becomes free.
    free_at: u64,
    /// Requests serviced so far (drives deterministic latency jitter).
    serviced: u64,
    /// Peak-to-peak deterministic jitter in cycles ("memory access
    /// latency varies", §IV-F).
    jitter_cycles: u64,
}

impl MemoryPath {
    /// Creates an idle memory path with the paper's default jitter.
    #[must_use]
    pub fn new() -> Self {
        Self {
            free_at: 0,
            serviced: 0,
            jitter_cycles: 16,
        }
    }

    /// Unloaded service latency (request issue to fill) in core cycles.
    #[must_use]
    pub fn base_latency(&self) -> u64 {
        round_trip_cycles()
    }

    /// Issues one cache-line request at cycle `now`.
    ///
    /// Returns the number of cycles until the fill returns, including any
    /// wait for earlier requests occupying the blocking channel. Counts
    /// the off-chip request, the two DRAM accesses and the chip-bridge
    /// flit traffic (3-flit request out, line fill back) into `act`.
    pub fn access(&mut self, now: u64, act: &mut ActivityCounters) -> u64 {
        let start = self.free_at.max(now);
        let jitter = self.jitter(self.serviced);
        let service = self.base_latency() + jitter;
        self.free_at = start + service;
        self.serviced += 1;

        act.offchip_requests += 1;
        act.dram_accesses += 2; // 32-bit DRAM interface: two accesses per request
                                // 3-flit request out; a 64 B line returns as 8 data flits + header.
        act.chip_bridge_flits += 3 + 9;

        self.free_at - now
    }

    /// Deterministic per-request jitter in `[0, jitter_cycles)`.
    fn jitter(&self, n: u64) -> u64 {
        if self.jitter_cycles == 0 {
            return 0;
        }
        // Small multiplicative hash; deterministic and well spread.
        let h = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 33) % self.jitter_cycles
    }

    /// Average service latency over the requests issued so far, or the
    /// base latency if none were issued (diagnostics).
    #[must_use]
    pub fn serviced_requests(&self) -> u64 {
        self.serviced
    }
}

impl Default for MemoryPath {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure15_sums_to_395() {
        assert_eq!(round_trip_cycles(), 395);
        // ~790 ns at 500.05 MHz.
        let ns: f64 = 395.0 / 500.05e6 * 1e9;
        assert!((ns - 790.0).abs() < 2.0);
    }

    #[test]
    fn dram_segment_reflects_double_access() {
        let dram = figure15_segments()
            .into_iter()
            .find(|s| s.component == "DRAM")
            .unwrap();
        assert_eq!(dram.cycles, 140); // 2 x ~70
    }

    #[test]
    fn unloaded_access_latency_near_base() {
        let mut path = MemoryPath::new();
        let mut act = ActivityCounters::default();
        let lat = path.access(1000, &mut act);
        assert!((395..395 + 16).contains(&lat), "latency {lat}");
        assert_eq!(act.dram_accesses, 2);
        assert_eq!(act.offchip_requests, 1);
    }

    #[test]
    fn concurrent_requests_serialize() {
        let mut path = MemoryPath::new();
        let mut act = ActivityCounters::default();
        let l1 = path.access(0, &mut act);
        let l2 = path.access(0, &mut act);
        let l3 = path.access(0, &mut act);
        assert!(l2 > l1 + 390, "second request must queue: {l1} {l2}");
        assert!(l3 > l2 + 390);
    }

    #[test]
    fn idle_channel_does_not_penalize_later_requests() {
        let mut path = MemoryPath::new();
        let mut act = ActivityCounters::default();
        let _ = path.access(0, &mut act);
        // Long after the first completed.
        let lat = path.access(10_000, &mut act);
        assert!(lat < 395 + 16);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let a = MemoryPath::new();
        for n in 0..100 {
            let j = a.jitter(n);
            assert!(j < 16);
            assert_eq!(j, MemoryPath::new().jitter(n));
        }
        // Not constant.
        let distinct: std::collections::HashSet<u64> = (0..100).map(|n| a.jitter(n)).collect();
        assert!(distinct.len() > 4);
    }
}

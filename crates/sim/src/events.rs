//! Activity counters — the interface between the simulator and the power
//! model.
//!
//! The power model of `piton-power` is an *event-energy* model: every
//! dynamic-energy-consuming action in the chip (an instruction issue, a
//! cache array access, a router traversal, a NoC wire toggling, a
//! store-buffer roll-back, a DRAM-path transaction) increments a counter
//! here, and the power model later multiplies counter deltas by calibrated
//! per-event energies. The counters are plain dense integers so the
//! simulator's inner loop stays branch-light and allocation-free.
//!
//! # Examples
//!
//! ```
//! use piton_sim::events::ActivityCounters;
//! use piton_arch::isa::Opcode;
//!
//! let mut a = ActivityCounters::default();
//! a.record_issue(Opcode::Add, 1, 0.5);
//! assert_eq!(a.issues[Opcode::Add.index()], 1);
//! let b = ActivityCounters::default();
//! let delta = a.delta_since(&b);
//! assert_eq!(delta.total_issues(), 1);
//! ```

use piton_arch::isa::Opcode;

/// Dense per-event activity counters for a measurement window.
///
/// All counters are cumulative; take [`ActivityCounters::delta_since`] to
/// obtain the activity of a window.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ActivityCounters {
    /// Chip cycles elapsed.
    pub cycles: u64,
    /// Instruction issues per opcode (indexed by [`Opcode::index`]).
    pub issues: [u64; Opcode::COUNT],
    /// Sum of issue-occupancy cycles per opcode (latency each issue held
    /// its thread slot).
    pub occupancy_cycles: [u64; Opcode::COUNT],
    /// Sum of operand-value activity factors per opcode, each in `[0, 1]`
    /// (0 = all-zero operands, 1 = all-ones; drives the Figure 11
    /// min/random/max effect).
    pub operand_activity: [f64; Opcode::COUNT],
    /// Cycles during which at least one thread of a core was running
    /// (summed over cores).
    pub core_active_cycles: u64,
    /// Core-cycles with two runnable threads resident (fine-grained
    /// thread-switching overhead, §IV-H2).
    pub dual_thread_cycles: u64,
    /// Issues that drafted behind the other thread's identical
    /// instruction (Execution Drafting, §II): the front end is shared,
    /// saving fetch/decode energy.
    pub drafted_issues: u64,
    /// Thread-cycles spent stalled on the memory system.
    pub mem_stall_cycles: u64,

    /// L1 instruction cache fetches.
    pub l1i_accesses: u64,
    /// L1 data cache reads (hits and misses both probe the array).
    pub l1d_reads: u64,
    /// L1 data cache writes (write-through traffic).
    pub l1d_writes: u64,
    /// L1 data cache read misses.
    pub l1d_misses: u64,
    /// L1.5 cache reads.
    pub l15_reads: u64,
    /// L1.5 cache writes (store-buffer drains).
    pub l15_writes: u64,
    /// L1.5 read misses.
    pub l15_misses: u64,
    /// L1.5 dirty-line write-backs to the L2.
    pub l15_writebacks: u64,
    /// L2 slice reads (data + tag).
    pub l2_reads: u64,
    /// L2 slice writes (fills, write-backs, stores).
    pub l2_writes: u64,
    /// L2 misses (requests that left the chip).
    pub l2_misses: u64,
    /// Directory-cache lookups/updates at the L2.
    pub dir_lookups: u64,
    /// Invalidation messages delivered to L1.5 caches.
    pub invalidations: u64,
    /// Sum of value-bit activity of data words moved by loads/stores
    /// (popcount/64 per 64-bit word).
    pub mem_value_activity: f64,

    /// Store-buffer enqueues.
    pub sb_enqueues: u64,
    /// Store roll-backs (speculative issue found the buffer full).
    pub store_rollbacks: u64,
    /// Load roll-backs (speculative L1-hit assumption failed).
    pub load_rollbacks: u64,
    /// Atomic (casx) operations performed at the L2.
    pub atomics: u64,

    /// Flit-hops: one flit traversing one router+link.
    pub noc_flit_hops: u64,
    /// Router head-of-packet route computations.
    pub noc_route_computes: u64,
    /// Total data bits toggled on NoC links (Hamming distance between
    /// consecutive flits on each physical link).
    pub noc_bit_switches: u64,
    /// Adjacent-bit opposite-direction toggles (coupling aggressors, the
    /// FSWA case of Figure 12).
    pub noc_coupling_switches: u64,
    /// Packets injected into the NoCs.
    pub noc_packets: u64,

    /// Requests sent down the chip-bridge/chipset path (off-chip).
    pub offchip_requests: u64,
    /// DRAM device accesses (two per memory request: 32-bit interface).
    pub dram_accesses: u64,
    /// Flits crossing the chip bridge (each direction).
    pub chip_bridge_flits: u64,
    /// I/O transactions (SD card, UART — drives VIO activity).
    pub io_transactions: u64,
}

impl ActivityCounters {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an instruction issue with its occupancy latency and
    /// operand-value activity factor.
    pub fn record_issue(&mut self, op: Opcode, occupancy: u64, value_activity: f64) {
        debug_assert!((0.0..=1.0).contains(&value_activity));
        let i = op.index();
        self.issues[i] += 1;
        self.occupancy_cycles[i] += occupancy;
        self.operand_activity[i] += value_activity;
    }

    /// Total instructions issued across all opcodes.
    #[must_use]
    pub fn total_issues(&self) -> u64 {
        self.issues.iter().sum()
    }

    /// Counter values of this window relative to an earlier snapshot.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `earlier` is not actually earlier,
    /// i.e. any counter would go negative.
    #[must_use]
    pub fn delta_since(&self, earlier: &ActivityCounters) -> ActivityCounters {
        let mut d = ActivityCounters::default();
        macro_rules! sub {
            ($($field:ident),* $(,)?) => {
                $( d.$field = self.$field - earlier.$field; )*
            };
        }
        sub!(
            cycles,
            core_active_cycles,
            dual_thread_cycles,
            drafted_issues,
            mem_stall_cycles,
            l1i_accesses,
            l1d_reads,
            l1d_writes,
            l1d_misses,
            l15_reads,
            l15_writes,
            l15_misses,
            l15_writebacks,
            l2_reads,
            l2_writes,
            l2_misses,
            dir_lookups,
            invalidations,
            sb_enqueues,
            store_rollbacks,
            load_rollbacks,
            atomics,
            noc_flit_hops,
            noc_route_computes,
            noc_bit_switches,
            noc_coupling_switches,
            noc_packets,
            offchip_requests,
            dram_accesses,
            chip_bridge_flits,
            io_transactions,
        );
        for i in 0..Opcode::COUNT {
            d.issues[i] = self.issues[i] - earlier.issues[i];
            d.occupancy_cycles[i] = self.occupancy_cycles[i] - earlier.occupancy_cycles[i];
            d.operand_activity[i] = self.operand_activity[i] - earlier.operand_activity[i];
        }
        d.mem_value_activity = self.mem_value_activity - earlier.mem_value_activity;
        d
    }

    /// Mean operand-activity factor for one opcode over this window, or
    /// `None` if it never issued.
    #[must_use]
    pub fn mean_operand_activity(&self, op: Opcode) -> Option<f64> {
        let i = op.index();
        if self.issues[i] == 0 {
            None
        } else {
            Some(self.operand_activity[i] / self.issues[i] as f64)
        }
    }
}

/// Value-activity factor of a 64-bit datapath value: the fraction of bits
/// set. All-zero operands (the paper's "minimum") score 0, all-ones
/// ("maximum") score 1 and uniform random values score ≈ 0.5, which is
/// what makes the Figure 11 operand-value effect emerge mechanically.
#[must_use]
pub fn value_activity(value: u64) -> f64 {
    f64::from(value.count_ones()) / 64.0
}

/// Combined activity factor of an instruction's datapath traffic: the two
/// source operands and the result, averaged.
#[must_use]
pub fn datapath_activity(a: u64, b: u64, result: u64) -> f64 {
    (value_activity(a) + value_activity(b) + value_activity(result)) / 3.0
}

/// [`datapath_activity`] as a one-byte *code*: the set bits of the
/// three words it averages, `0..=192`. [`activity_of_code`] turns it
/// back into the same `f64`, bit for bit: the three per-word fractions
/// are multiples of 1/64 that add without rounding, so the average is
/// the code over 64, divided by three once.
#[must_use]
pub fn datapath_activity_code(a: u64, b: u64, result: u64) -> u8 {
    // At most 192: fits.
    #[allow(clippy::cast_possible_truncation)]
    let code = (a.count_ones() + b.count_ones() + result.count_ones()) as u8;
    code
}

/// [`value_activity`] as a code: three times the set bits, since a
/// fraction over 64 divides by three exactly back into itself.
#[must_use]
pub fn value_activity_code(value: u64) -> u8 {
    // At most 192: fits.
    #[allow(clippy::cast_possible_truncation)]
    let code = (3 * value.count_ones()) as u8;
    code
}

/// The activity an activity code stands for (see
/// [`datapath_activity_code`]).
#[must_use]
pub fn activity_of_code(code: u8) -> f64 {
    ACTIVITY_OF_CODE[usize::from(code)]
}

/// [`activity_of_code`]'s table: code `s` is `s / 64 / 3`.
static ACTIVITY_OF_CODE: [f64; 256] = {
    let mut table = [0.0; 256];
    let mut s = 0;
    while s < 256 {
        table[s] = s as f64 / 64.0 / 3.0;
        s += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_codes_round_trip_exactly() {
        for p in 0..=64u32 {
            let word = if p == 64 { u64::MAX } else { (1u64 << p) - 1 };
            assert_eq!(
                activity_of_code(value_activity_code(word)).to_bits(),
                value_activity(word).to_bits()
            );
            for q in 0..=64u32 {
                let b = if q == 64 { u64::MAX } else { (1u64 << q) - 1 };
                for r in 0..=64u32 {
                    let c = if r == 64 { u64::MAX } else { (1u64 << r) - 1 };
                    assert_eq!(
                        activity_of_code(datapath_activity_code(word, b, c)).to_bits(),
                        datapath_activity(word, b, c).to_bits(),
                        "{p} {q} {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn value_activity_extremes() {
        assert_eq!(value_activity(0), 0.0);
        assert_eq!(value_activity(u64::MAX), 1.0);
        assert_eq!(value_activity(0x3333_3333_3333_3333), 0.5);
    }

    #[test]
    fn datapath_activity_averages() {
        assert_eq!(datapath_activity(0, 0, 0), 0.0);
        assert_eq!(datapath_activity(u64::MAX, u64::MAX, u64::MAX), 1.0);
        let mid = datapath_activity(u64::MAX, 0, 0);
        assert!((mid - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn record_and_delta() {
        let mut a = ActivityCounters::new();
        a.cycles = 100;
        a.record_issue(Opcode::Add, 1, 0.5);
        a.record_issue(Opcode::Add, 1, 0.7);
        a.record_issue(Opcode::Sdivx, 72, 1.0);
        a.l1d_reads = 5;

        let snap = a.clone();
        a.cycles = 250;
        a.record_issue(Opcode::Add, 1, 0.1);
        a.l1d_reads = 9;

        let d = a.delta_since(&snap);
        assert_eq!(d.cycles, 150);
        assert_eq!(d.issues[Opcode::Add.index()], 1);
        assert_eq!(d.issues[Opcode::Sdivx.index()], 0);
        assert_eq!(d.l1d_reads, 4);
        assert!((d.operand_activity[Opcode::Add.index()] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn mean_operand_activity_handles_zero_issues() {
        let mut a = ActivityCounters::new();
        assert_eq!(a.mean_operand_activity(Opcode::Add), None);
        a.record_issue(Opcode::Add, 1, 0.25);
        a.record_issue(Opcode::Add, 1, 0.75);
        assert!((a.mean_operand_activity(Opcode::Add).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn opcode_all_indices_are_dense() {
        for (pos, op) in Opcode::ALL.iter().enumerate() {
            assert_eq!(op.index(), pos, "{op} index mismatch");
        }
    }
}

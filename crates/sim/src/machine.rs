//! The whole-chip machine: 25 cores, the coherent memory system, and the
//! global cycle loop.
//!
//! [`Machine`] is the simulator's top level. Workloads are loaded onto
//! hardware threads, the machine is stepped for a number of cycles, and
//! the resulting [`ActivityCounters`] window is handed to the power
//! model.
//!
//! The cycle loop is *event-driven*: a per-core ready calendar (min-heap
//! over each core's `next_ready_at`) means only cores that can issue at
//! `now` — plus cores with store-buffer drains in flight — are stepped
//! each cycle; all other cores' per-cycle charges (`core_active_cycles`,
//! `mem_stall_cycles`) are accrued in bulk at cached rates, which are
//! constant over any window in which a core cannot issue. Cycles where
//! no core can issue are fast-forwarded in one jump. This generalizes
//! the old all-stalled-only fast-forward to the common partially-idle
//! case (e.g. the single-tile EPI tests, where 24 of 25 cores are idle)
//! while remaining counter-for-counter identical to the naive
//! step-everything engine, which is kept as the hidden
//! [`Machine::run_naive`] oracle and pinned by an equivalence property
//! test.
//!
//! When most live cores issue most cycles the calendar buys nothing,
//! and the loop hands over to the one dense mode, a batched two-phase
//! engine (see `run_dense_batched`): lanes run ahead locally — through
//! L1 hits and store drains on lines their tile owns — then one ordered
//! replay folds their deferred effects, applies their logged accesses
//! and emits their `Retire` trace events in the naive engine's
//! (cycle, tile) order.
//! So there is one fast path and one oracle, and which mode runs
//! depends on the machine's state alone: tracing changes what is
//! emitted, never what is executed.
//!
//! The machine also exposes the chipset-side dummy-packet injector used
//! by the NoC energy study of §IV-G (Figure 12): the real experiment
//! modified the chipset FPGA logic to stream invalidation packets into
//! the chip through the chip bridge at tile0, producing seven valid NoC
//! flits every 47 cycles due to the bandwidth mismatch between the
//! 32-bit chip bridge and the 64-bit NoCs.
//!
//! # Examples
//!
//! ```
//! use piton_sim::machine::Machine;
//! use piton_sim::program::Program;
//! use piton_arch::isa::Instruction;
//! use piton_arch::config::ChipConfig;
//!
//! let mut m = Machine::new(&ChipConfig::default());
//! m.load_thread(0.into(), 0, Program::from_instructions(vec![
//!     Instruction::nop(),
//!     Instruction::halt(),
//! ]));
//! assert!(m.run_until_halted(1_000));
//! assert_eq!(m.counters().issues.iter().sum::<u64>(), 2);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use piton_arch::config::ChipConfig;
use piton_arch::error::PitonError;
use piton_arch::topology::TileId;
use piton_obs::metrics::{self, Histogram};
use piton_obs::trace::{self, EngineMode, TraceEvent, SUB_RETIRE};

use crate::core::{
    emit_retire, Core, IssueRecord, LocalCharges, LocalMem, MemLog, MemOp, RunMark, WaitKind,
};
use crate::events::{activity_of_code, ActivityCounters};
use crate::memsys::MemorySystem;
use crate::noc::NocId;
use crate::program::Program;
use piton_arch::isa::Opcode;

/// How a watched run stopped making progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HangKind {
    /// No thread retired an instruction for a whole watchdog window
    /// while threads were still running.
    Stalled,
    /// Threads were still running (and possibly retiring) when the
    /// cycle budget ran out.
    Timeout,
}

/// One running-but-held thread named by a [`HangReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckThread {
    /// The tile whose core holds the thread.
    pub tile: TileId,
    /// Hardware thread index within the core.
    pub thread: usize,
    /// What the thread's occupancy is waiting on.
    pub wait: WaitKind,
    /// The cycle at which the occupancy releases.
    pub ready_at: u64,
}

/// Structured diagnosis of a machine that stopped making progress —
/// what [`Machine::run_until_halted_watched`] returns instead of a bare
/// `false`: which cores are stuck, on what [`WaitKind`], and how loaded
/// the store/memory path still is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HangReport {
    /// How progress stopped.
    pub kind: HangKind,
    /// Cycle at which the watchdog fired.
    pub at_cycle: u64,
    /// The no-retirement window that triggered it (cycles).
    pub window: u64,
    /// Instructions retired chip-wide before the hang.
    pub retired: u64,
    /// Every running thread still held by an occupancy, in tile order.
    pub stuck: Vec<StuckThread>,
    /// Store-buffer entries still waiting to drain, chip-wide.
    pub pending_stores: u64,
    /// Fused-off cores (a degraded chip hangs differently).
    pub disabled_cores: usize,
    /// Clock the DVFS governor held when the watchdog fired (kHz), if a
    /// governor was driving the machine — a hang at a throttled
    /// frequency reads very differently from one at full speed.
    pub governed_khz: Option<u64>,
}

impl std::fmt::Display for HangReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            HangKind::Stalled => "no retirement",
            HangKind::Timeout => "cycle budget exhausted",
        };
        write!(
            f,
            "{kind} at cycle {} ({} retired, window {}, {} store(s) pending, {} core(s) disabled)",
            self.at_cycle, self.retired, self.window, self.pending_stores, self.disabled_cores
        )?;
        if let Some(khz) = self.governed_khz {
            write!(f, "; governor held {:.2} MHz", khz as f64 / 1_000.0)?;
        }
        for s in &self.stuck {
            let wait = match s.wait {
                WaitKind::Execute => "execute",
                WaitKind::Memory => "memory",
                WaitKind::StoreDrain => "store-drain",
            };
            write!(
                f,
                "; {} thread {} waiting on {wait} until cycle {}",
                s.tile, s.thread, s.ready_at
            )?;
        }
        Ok(())
    }
}

impl From<HangReport> for PitonError {
    fn from(r: HangReport) -> Self {
        PitonError::Hang {
            detail: r.to_string(),
        }
    }
}

/// Cycles between valid-flit groups on the chip bridge (§IV-G: "for
/// every 47 cycles there are seven valid NoC flits").
pub const BRIDGE_PATTERN_CYCLES: u64 = 47;
/// Valid flits per repeating bridge pattern (1 header + 6 payload).
pub const BRIDGE_PATTERN_FLITS: usize = 7;

/// Payload bit-switching pattern for NoC dummy packets (Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchPattern {
    /// No switching: all payload bits zero.
    Nsw,
    /// Half switching: flits alternate `0x3333…` / zero.
    Hsw,
    /// Full switching: flits alternate all-ones / zero.
    Fsw,
    /// Full switching alternate: flits alternate `0xAAAA…` / `0x5555…`
    /// (coupling aggressors).
    Fswa,
}

impl SwitchPattern {
    /// All four patterns in the paper's legend order.
    pub const ALL: [SwitchPattern; 4] = [
        SwitchPattern::Nsw,
        SwitchPattern::Hsw,
        SwitchPattern::Fsw,
        SwitchPattern::Fswa,
    ];

    /// The label used in Figure 12.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SwitchPattern::Nsw => "NSW",
            SwitchPattern::Hsw => "HSW",
            SwitchPattern::Fsw => "FSW",
            SwitchPattern::Fswa => "FSWA",
        }
    }

    /// The two alternating payload flit values.
    #[must_use]
    pub fn flit_pair(self) -> (u64, u64) {
        match self {
            SwitchPattern::Nsw => (0, 0),
            SwitchPattern::Hsw => (0x3333_3333_3333_3333, 0),
            SwitchPattern::Fsw => (u64::MAX, 0),
            SwitchPattern::Fswa => (0xAAAA_AAAA_AAAA_AAAA, 0x5555_5555_5555_5555),
        }
    }
}

/// Cached per-core scheduling state for the event-driven engine: the
/// charge profile of a core over a window in which it does not issue.
///
/// `Core::step` charges a running core one `core_active_cycles` and one
/// `mem_stall_cycles` per memory-waiting thread every cycle. Between a
/// core's issues, its thread states are frozen (every running thread has
/// `busy_until` beyond the window), so both rates are constants that can
/// be accrued in bulk without stepping the core.
#[derive(Debug, Clone, Copy)]
struct CoreSched {
    /// Earliest cycle a thread of this core can issue (`None`: no
    /// running thread).
    ready_at: Option<u64>,
    /// 1 if any thread is running (the per-cycle active charge).
    active: u64,
    /// Running threads held by a memory-system wait (the per-cycle
    /// memory-stall charge).
    mem_wait: u64,
}

impl CoreSched {
    /// Snapshots a core's charge profile just after it was stepped at
    /// `now` (or at engine start). `skew` delays the cached wakeup time
    /// — zero in production; the test-only desync knob
    /// ([`Machine::set_calendar_skew`]) uses it to fault-inject the
    /// scheduler for the trace differential harness.
    fn of(core: &Core, now: u64, skew: u64) -> Self {
        Self {
            ready_at: core.next_ready_at().map(|t| t.saturating_add(skew)),
            active: u64::from(core.any_running()),
            mem_wait: core.memory_waiting_threads(now),
        }
    }
}

/// Cycle-engine diagnostics: scheduler-internal tallies that are *not*
/// part of [`ActivityCounters`] (they describe how the engine ran, not
/// what the chip did). Exposed via [`Machine::engine_metrics`] and
/// published to the `piton-obs` metrics registry by
/// [`Machine::publish_metrics`] (called on drop, so `reproduce` sweeps
/// aggregate them without every experiment knowing about metrics).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineMetrics {
    /// Total `Core::step` calls (same value as [`Machine::engine_steps`]).
    pub steps: u64,
    /// Ready-calendar heap pops, including stale (lazily-deleted) ones.
    pub calendar_pops: u64,
    /// Pops whose entry no longer matched the core's cached ready time.
    pub calendar_stale_pops: u64,
    /// Cycles driven by the event-driven calendar mode.
    pub event_cycles: u64,
    /// Cycles driven by the batched (phase-A/phase-B) dense mode.
    pub batched_cycles: u64,
    /// Batches executed by the batched dense mode (each fixes one poll
    /// set and ends in one issue-duty check).
    pub batches: u64,
    /// High-water mark of deferred issues buffered by any one lane in
    /// any segment of a batch — the effect-buffer depth phase B
    /// replays, counting the records of runs re-armed during phase B
    /// (measured at the segment barrier).
    pub record_hwm: u64,
    /// Cycles driven by the reference naive engine.
    pub naive_cycles: u64,
    /// Lanes of the batched dense mode rewound because a logged owned
    /// access failed its check at its turn (another tile changed the
    /// line or the value first).
    pub rewinds: u64,
    /// Mode handovers (calendar ↔ dense) within `run` calls.
    pub handovers: u64,
    /// Histogram of cores issuing per serviced cycle (recorded only
    /// while the metrics registry is enabled).
    pub issue_duty: Histogram,
}

/// Per-counter watermarks so [`Machine::publish_metrics`] publishes
/// deltas: safe to call repeatedly (and from `Drop`) without double
/// counting.
#[derive(Debug, Clone, Copy, Default)]
struct PublishedMarks {
    steps: u64,
    calendar_pops: u64,
    calendar_stale_pops: u64,
    event_cycles: u64,
    batched_cycles: u64,
    batches: u64,
    naive_cycles: u64,
    rewinds: u64,
    handovers: u64,
}

/// Batch length of the batched dense engine, in cycles: the window
/// over which the poll set stays fixed and at whose end issue duty
/// decides whether to hand back to the calendar.
const DENSE_BATCH_CYCLES: u64 = 4_096;

/// Cycles of a batch that phase A runs ahead before phase B replays
/// them. A batch is worked off in segments so that a lane's effect
/// buffer holds one segment's issues (12 KB of 6-byte records), not a
/// batch's. Long enough to amortize the per-segment lane setup and for
/// a two-thread lane's schedule to come round within one segment
/// (HP's recurs every 843 cycles). It does not bound how long a lane
/// stays live: phase B re-arms a lane's local run after each live
/// step.
const DENSE_SEGMENT_CYCLES: u64 = 2_048;

/// Reusable per-lane state of the batched dense engine: phase A's
/// output (the lane's *effect buffer* of deferred issues, its log of
/// owned memory accesses and its order-free charge aggregates) and
/// phase B's replay cursors. Kept on the machine so the batch loop does
/// not reallocate.
#[derive(Debug, Clone, Default)]
struct LaneBuf {
    /// First cycle phase A could not cover locally (== the batch start
    /// for lanes that must be stepped from the outset).
    horizon: u64,
    /// Next unreplayed record (phase B).
    cursor: usize,
    /// Deferred issues of the local span, in cycle order.
    records: Vec<IssueRecord>,
    /// Order-free charges of the local span.
    charges: LocalCharges,
    /// Owned accesses of the local span, in application order.
    mem: MemLog,
    /// Next unapplied access (phase B).
    mem_cursor: usize,
    /// The cycle that access is due at (`u64::MAX` when none is
    /// pending).
    next_due: u64,
    /// Where the latest local run that logged an access can be
    /// rewound to.
    mark: Box<RunMark>,
}

impl LaneBuf {
    /// Empties the buffers for a new segment.
    fn clear(&mut self) {
        self.cursor = 0;
        self.records.clear();
        self.charges.clear();
        self.mem.clear();
        self.mem_cursor = 0;
        self.next_due = u64::MAX;
    }

    /// Re-reads when the next pending access is due.
    fn refresh_due(&mut self) {
        self.next_due = self
            .mem
            .ops()
            .get(self.mem_cursor)
            .map_or(u64::MAX, MemOp::due);
    }

    /// Runs `core` ahead locally over `[from, end)`, offsets counted
    /// from `origin`.
    fn run_ahead(
        &mut self,
        core: &mut Core,
        memsys: &MemorySystem,
        origin: u64,
        from: u64,
        end: u64,
    ) {
        let mut mem = LocalMem::record(memsys, &mut self.mem, &mut self.mark);
        self.horizon = core.run_local(
            origin,
            from,
            end,
            &mut mem,
            &mut self.records,
            &mut self.charges,
        );
        self.refresh_due();
    }

    /// Applies the lane's logged accesses due at its cycle-`c` turn
    /// through the real memory system, each only after checking that
    /// the live path would take it the same way: a load still hits the
    /// L1 and memory still holds the value read, a drain's line is
    /// still owned. Returns `false` at the first that fails, unapplied.
    fn apply_due(
        &mut self,
        tile: TileId,
        c: u64,
        memsys: &mut MemorySystem,
        act: &mut ActivityCounters,
    ) -> bool {
        while let Some(&op) = self.mem.ops().get(self.mem_cursor) {
            if op.due() > c {
                break;
            }
            if op.is_load() {
                debug_assert_eq!(op.at(), c, "load applied off its issue cycle");
                if !(memsys.l1_holds(tile, op.addr) && memsys.peek_mem(op.addr) == op.value) {
                    return false;
                }
                let _out = memsys.load(tile, op.addr, c, act);
                debug_assert_eq!(
                    (_out.value, _out.latency),
                    (op.value, crate::memsys::L1_HIT_CYCLES)
                );
            } else {
                if !memsys.owns(tile, op.addr) {
                    return false;
                }
                let _latency = memsys.store_drain(tile, op.addr, op.value, op.at(), act);
                debug_assert_eq!(_latency, crate::memsys::STORE_DRAIN_CYCLES);
            }
            self.mem_cursor += 1;
        }
        self.refresh_due();
        true
    }

    /// Rewinds the lane to cycle `c`, where its access at `mem_cursor`
    /// failed its check: restores the state its latest local run saved
    /// before its first logged access and redoes the run from there up
    /// to `c`, taking every earlier access from the log. The lane is
    /// stepped live from `c` on.
    #[cold]
    fn rewind(&mut self, core: &mut Core, memsys: &MemorySystem, origin: u64, c: u64) {
        core.restore(&self.mark);
        self.charges = self.mark.charges;
        self.records.truncate(self.mark.records);
        let stop = self.mem_cursor;
        let mut mem = LocalMem::redo(memsys, &mut self.mem, self.mark.ops, stop);
        let horizon = core.run_local(
            origin,
            self.mark.from,
            c,
            &mut mem,
            &mut self.records,
            &mut self.charges,
        );
        core.finish_redo(c, &mut mem);
        debug_assert_eq!(horizon, c, "redo stopped short");
        debug_assert_eq!(self.cursor, self.records.len(), "redo records");
        self.mem.truncate(stop);
        self.refresh_due();
        self.horizon = c;
    }

    /// The lane goes live (or the segment ends): hands the logged
    /// drains whose turn has not come back to `core`'s store buffer and
    /// empties the log, whose other accesses are all applied.
    fn unlog_pending(&mut self, core: &mut Core) {
        if self.mem_cursor < self.mem.ops().len() {
            core.unlog_drains(&self.mem.ops()[self.mem_cursor..]);
        }
        self.mem.clear();
        self.mem_cursor = 0;
        self.next_due = u64::MAX;
    }

    /// Phase B's turn of this lane at batch-relative cycle `rel` while
    /// the lane is inside its local span: if its next deferred issue
    /// falls on this cycle, folds the issue's operand activity and
    /// returns the record.
    #[inline(always)]
    fn replay(&mut self, rel: u16, act: &mut ActivityCounters) -> Option<IssueRecord> {
        let r = *self.records.get(self.cursor)?;
        if r.offset != rel {
            return None;
        }
        self.cursor += 1;
        if let Some(op) = r.op() {
            act.operand_activity[op] += activity_of_code(r.activity);
        }
        Some(r)
    }
}

/// Phase A of one segment: every polled core runs ahead locally over
/// `span`, filling its lane's effect buffer, memory log, charges and
/// horizon. `scratch` holds one buffer per polled core, in the same
/// order.
fn run_lanes_ahead(
    cores: &mut [Core],
    memsys: &MemorySystem,
    polled: &[usize],
    scratch: &mut [LaneBuf],
    span: std::ops::Range<u64>,
) {
    for (&k, buf) in polled.iter().zip(scratch) {
        buf.clear();
        buf.run_ahead(&mut cores[k], memsys, span.start, span.start, span.end);
    }
}

/// The simulated Piton chip.
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: ChipConfig,
    cores: Vec<Core>,
    memsys: MemorySystem,
    act: ActivityCounters,
    now: u64,
    /// Total `Core::step` calls made by the engine — a scheduler
    /// diagnostic (not part of [`ActivityCounters`]): the event-driven
    /// engine's value stays proportional to *busy* core-cycles, where
    /// the naive engine's grows with `cores × cycles`. Promoted into
    /// the metrics registry (as `engine.steps`) by
    /// [`Machine::publish_metrics`].
    engine_steps: u64,
    /// Scheduler diagnostics beyond the step count.
    emetrics: EngineMetrics,
    /// Publish watermarks (see [`Machine::publish_metrics`]).
    published: PublishedMarks,
    /// Test-only scheduler fault: delays every ready-calendar wakeup by
    /// this many cycles. Zero in production.
    calendar_skew: u64,
    /// Per-lane scratch buffers of the batched dense engine.
    lane_scratch: Vec<LaneBuf>,
    /// Clock the DVFS governor currently holds (kHz), when one is
    /// driving this machine. Set by the board layer's governed run
    /// loop; surfaced in [`HangReport`] so a watchdog firing at a
    /// throttled frequency is diagnosable.
    governed_khz: Option<u64>,
}

impl Machine {
    /// Builds an idle machine from a chip configuration.
    #[must_use]
    pub fn new(cfg: &ChipConfig) -> Self {
        let cores = cfg
            .topology()
            .tiles()
            .map(|t| {
                Core::new(
                    t,
                    cfg.threads_per_core as usize,
                    cfg.store_buffer_entries as usize,
                )
            })
            .collect();
        Self {
            cfg: cfg.clone(),
            cores,
            memsys: MemorySystem::new(cfg),
            act: ActivityCounters::new(),
            now: 0,
            engine_steps: 0,
            emetrics: EngineMetrics::default(),
            published: PublishedMarks::default(),
            calendar_skew: 0,
            lane_scratch: Vec::new(),
            governed_khz: None,
        }
    }

    /// Records the clock a DVFS governor is holding (kHz), or `None`
    /// when ungoverned. Purely diagnostic — it does not alter timing.
    pub fn set_governed_khz(&mut self, khz: Option<u64>) {
        self.governed_khz = khz;
    }

    /// The clock the governor currently holds, if any (kHz).
    #[must_use]
    pub fn governed_khz(&self) -> Option<u64> {
        self.governed_khz
    }

    /// The chip configuration.
    #[must_use]
    pub fn config(&self) -> &ChipConfig {
        &self.cfg
    }

    /// Current cycle.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Cumulative activity counters.
    #[must_use]
    pub fn counters(&self) -> &ActivityCounters {
        &self.act
    }

    /// The memory system (for test inspection and data poking).
    #[must_use]
    pub fn memsys(&self) -> &MemorySystem {
        &self.memsys
    }

    /// Mutable memory-system access (program loaders, experiments).
    pub fn memsys_mut(&mut self) -> &mut MemorySystem {
        &mut self.memsys
    }

    /// A core by tile (test inspection).
    #[must_use]
    pub fn core(&self, tile: TileId) -> &Core {
        &self.cores[tile.index()]
    }

    /// Loads a program onto a hardware thread, writing its data image to
    /// memory first.
    pub fn load_thread(&mut self, tile: TileId, thread: usize, program: Program) {
        self.load_thread_shared(tile, thread, &Arc::new(program));
    }

    /// Loads an already-shared program onto a hardware thread, writing
    /// its data image to memory first.
    pub fn load_thread_shared(&mut self, tile: TileId, thread: usize, program: &Arc<Program>) {
        for &(addr, value) in &program.data {
            self.memsys.poke(addr, value);
        }
        self.cores[tile.index()].load_thread(thread, Arc::clone(program));
    }

    /// Loads the same program onto thread `thread` of every one of the
    /// first `n` tiles (the paper's 25-core EPI tests). All tiles share
    /// one `Arc` of the program, and the data image is written once.
    pub fn load_on_tiles(&mut self, n: usize, thread: usize, program: &Program) {
        for &(addr, value) in &program.data {
            self.memsys.poke(addr, value);
        }
        let shared = Arc::new(program.clone());
        for i in 0..n {
            self.cores[i].load_thread(thread, Arc::clone(&shared));
        }
    }

    /// Fuses cores on or off from a mask (bit *i* = tile *i* disabled);
    /// routers keep forwarding, matching how the paper ran chips with
    /// faulty cores as 24-core parts. Bits outside the mask re-enable
    /// their cores, so applying a mask is idempotent and reversible.
    pub fn apply_core_mask(&mut self, mask: u32) {
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.set_enabled(mask & (1 << i) == 0);
        }
    }

    /// Fuses a single core on or off.
    pub fn set_core_enabled(&mut self, tile: TileId, enabled: bool) {
        self.cores[tile.index()].set_enabled(enabled);
    }

    /// Number of fused-off cores.
    #[must_use]
    pub fn disabled_cores(&self) -> usize {
        self.cores.iter().filter(|c| !c.is_enabled()).count()
    }

    /// Whether any hardware thread is still running.
    #[must_use]
    pub fn any_running(&self) -> bool {
        self.cores.iter().any(Core::any_running)
    }

    /// Total instructions retired across the chip.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.cores.iter().map(Core::retired).sum()
    }

    /// Runs for `cycles` cycles (the clock always ticks; idle cycles are
    /// fast-forwarded but still counted, as the clock tree still burns
    /// idle power).
    ///
    /// Event-driven: each cycle, only cores that can issue (tracked in a
    /// ready calendar) or that have store-buffer drains in flight are
    /// stepped, in core order — the same order the naive engine sweeps
    /// them — so every memory-system and NoC mutation happens in the
    /// exact same global sequence and all counters (including the
    /// order-dependent NoC bit-switch Hamming chains) match
    /// [`Machine::run_naive`] exactly. Skipped cores accrue their
    /// active/memory-stall charges in bulk at cached rates, which are
    /// constant while a core cannot issue.
    ///
    /// Scheduler state is rebuilt per call: between calls, callers may
    /// reload threads or mutate the memory system.
    ///
    /// When issue duty is high — most live cores issuing most cycles,
    /// as in the lockstep 25-tile EPI tests — the calendar is pure
    /// overhead, so the engine hands over to the batched dense mode
    /// (`run_dense_batched`): the naive sweep restricted to
    /// cores that can do anything at all (running threads or store
    /// drains in flight; the naive engine's steps of the others are
    /// observable no-ops). Either mode is exact, so switching between
    /// them at any cycle boundary is too. The choice depends on the
    /// machine's state alone — never on whether anyone is tracing.
    pub fn run(&mut self, cycles: u64) {
        let end = self.now + cycles;
        if cycles == 0 {
            return;
        }
        loop {
            if trace::active() {
                trace::emit(TraceEvent::Engine {
                    cycle: self.now,
                    mode: EngineMode::Calendar,
                });
            }
            let entered = self.now;
            let done = self.run_event(end);
            self.emetrics.event_cycles += self.now - entered;
            if done {
                return;
            }
            self.emetrics.handovers += 1;
            if trace::active() {
                trace::emit(TraceEvent::Engine {
                    cycle: self.now,
                    mode: EngineMode::Dense,
                });
            }
            let entered = self.now;
            let done = self.run_dense_batched(end);
            self.emetrics.batched_cycles += self.now - entered;
            if done {
                return;
            }
            self.emetrics.handovers += 1;
        }
    }

    /// Event-driven scheduling until `end` (returns `true`) or until
    /// issue duty is high enough that dense polling is cheaper (returns
    /// `false`).
    #[allow(clippy::too_many_lines)]
    fn run_event(&mut self, end: u64) -> bool {
        // Per-core charge cache and chip-wide per-cycle rate totals.
        let skew = self.calendar_skew;
        let mut sched: Vec<CoreSched> = self
            .cores
            .iter()
            .map(|c| CoreSched::of(c, self.now, skew))
            .collect();
        let mut total_active: u64 = sched.iter().map(|s| s.active).sum();
        let mut total_mem: u64 = sched.iter().map(|s| s.mem_wait).sum();
        // Cores that can still issue at all, and how many consecutive
        // cycles a majority of them issued (the dense-mode trigger).
        let mut live: usize = sched.iter().filter(|s| s.ready_at.is_some()).count();
        let mut high_duty_streak: u32 = 0;

        // Ready calendar. Lazy deletion: an entry is live iff it matches
        // the core's current cached `ready_at`; each core has exactly one
        // live entry (or none), stale ones are dropped when inspected.
        let mut calendar: BinaryHeap<Reverse<(u64, usize)>> = sched
            .iter()
            .enumerate()
            .filter_map(|(k, s)| s.ready_at.map(|t| Reverse((t, k))))
            .collect();

        // Cores with store-buffer entries still draining: they must be
        // stepped every cycle even when no thread can issue, so their
        // background drains hit the memory system at the same cycles —
        // and in the same core order — as under the naive engine.
        let mut draining: Vec<usize> = (0..self.cores.len())
            .filter(|&k| self.cores[k].has_pending_stores())
            .collect();

        let mut ready: Vec<usize> = Vec::with_capacity(self.cores.len());
        let mut serviced: Vec<usize> = Vec::with_capacity(self.cores.len());

        while self.now < end {
            if trace::active() {
                trace::set_cycle(self.now);
            }
            // Earliest live calendar entry.
            let next_ready = loop {
                match calendar.peek() {
                    None => break None,
                    Some(&Reverse((t, k))) => {
                        if sched[k].ready_at == Some(t) {
                            break Some(t);
                        }
                        calendar.pop();
                        self.emetrics.calendar_pops += 1;
                        self.emetrics.calendar_stale_pops += 1;
                    }
                }
            };

            // Cores that can issue this cycle (consuming their entries).
            ready.clear();
            if next_ready.is_some_and(|t| t <= self.now) {
                while let Some(&Reverse((t, k))) = calendar.peek() {
                    if t > self.now {
                        break;
                    }
                    calendar.pop();
                    self.emetrics.calendar_pops += 1;
                    if sched[k].ready_at == Some(t) {
                        ready.push(k);
                    } else {
                        self.emetrics.calendar_stale_pops += 1;
                    }
                }
                ready.sort_unstable();
            }

            serviced.clear();
            serviced.extend_from_slice(&ready);
            serviced.extend(draining.iter().copied());
            serviced.sort_unstable();
            serviced.dedup();

            // Bulk-charge every core we skip at its cached rates;
            // serviced cores charge themselves inside `step`.
            let mut sub_active = 0;
            let mut sub_mem = 0;
            for &k in &serviced {
                sub_active += sched[k].active;
                sub_mem += sched[k].mem_wait;
            }
            self.act.core_active_cycles += total_active - sub_active;
            self.act.mem_stall_cycles += total_mem - sub_mem;

            let mut issued: u64 = 0;
            for &k in &serviced {
                issued += u64::from(self.cores[k].step(self.now, &mut self.memsys, &mut self.act));
                self.engine_steps += 1;
                let old = sched[k];
                let new = CoreSched::of(&self.cores[k], self.now, skew);
                total_active = total_active - old.active + new.active;
                total_mem = total_mem - old.mem_wait + new.mem_wait;
                live = live - usize::from(old.ready_at.is_some())
                    + usize::from(new.ready_at.is_some());
                sched[k] = new;
                // Keep the one-live-entry calendar invariant: push when
                // the ready time changed (the old entry, if any, went
                // stale) or when this core's entry was consumed into
                // `ready` this cycle.
                if let Some(t) = new.ready_at {
                    if new.ready_at != old.ready_at || ready.binary_search(&k).is_ok() {
                        calendar.push(Reverse((t, k)));
                    }
                }
            }
            if !serviced.is_empty() {
                // Drain-set membership only changes when a core steps
                // (stores enqueue on issue, drains retire in `advance`).
                draining.retain(|&k| self.cores[k].has_pending_stores());
                for &k in &serviced {
                    if self.cores[k].has_pending_stores() && !draining.contains(&k) {
                        draining.push(k);
                    }
                }
                draining.sort_unstable();
            }
            if issued > 0 && metrics::enabled() {
                self.emetrics.issue_duty.observe(issued);
            }

            self.act.cycles += 1;
            self.now += 1;

            if !serviced.is_empty() {
                // Duty tracking. High duty — a majority of the cores
                // that can issue at all stepped this cycle — means the
                // calendar is buying little; two such busy cycles hand
                // over to dense polling (dead cycles between them are
                // duty-neutral: both modes fast-forward those, so e.g.
                // lockstep issue/stall rhythms of long-latency tests
                // still count as saturated).
                if serviced.len() * 2 >= live {
                    high_duty_streak += 1;
                    if high_duty_streak >= 2 {
                        return false;
                    }
                } else {
                    high_duty_streak = 0;
                }
            }
            if ready.is_empty() {
                // Dead cycle: no thread is ready before `next_ready`, so
                // every running thread keeps its current wait for the
                // whole window — charge it in bulk at the cached rates
                // and jump (the naive engine's fast-forward, generalized;
                // in-flight drains are timestamp-based and land
                // unchanged).
                let next = next_ready.unwrap_or(end).min(end).max(self.now);
                if next > self.now {
                    let skipped = next - self.now;
                    self.act.cycles += skipped;
                    self.act.core_active_cycles += skipped * total_active;
                    self.act.mem_stall_cycles += skipped * total_mem;
                    self.now = next;
                }
            }
        }
        true
    }

    /// Batched dense stepping until `end` (returns `true`) or until a
    /// whole batch's issue duty is low enough that the event scheduler
    /// is worth its rebuild (returns `false`). Counter- and
    /// trace-exact against [`Machine::run_naive`]; only the engine
    /// diagnostics can tell them apart.
    ///
    /// Each batch (at most [`DENSE_BATCH_CYCLES`]) fixes the polled
    /// lanes (cores with a running thread or drains in flight) and works
    /// its cycles off in segments of [`DENSE_SEGMENT_CYCLES`], two
    /// phases per segment:
    ///
    /// * **Phase A** — every polled core runs ahead *locally*
    ///   ([`Core::run_local`]): ALU/FP/branch cycles touch nothing
    ///   shared, so order-free integer charges aggregate per lane and
    ///   each issue's order-sensitive residue is deferred into the
    ///   lane's effect buffer. L1 hits and store drains on lines the
    ///   tile owns are taken too, against a shared borrow of the memory
    ///   system, and logged. A lane stops at its *horizon* — the first
    ///   access that must reach the memory system live. Phase A has no
    ///   effects outside its own lane.
    /// * **Phase B** — the one sequential pass that owns the shared
    ///   memory system: cycles ascend, and within each cycle the lanes
    ///   are visited in ascending tile order — folding the lane's
    ///   deferred record before its horizon, taking a real
    ///   [`Core::step`] at and beyond it — which is exactly the naive
    ///   engine's global mutation sequence, so every NoC Hamming chain
    ///   and `f64` accumulation folds in the same order, bit for bit.
    ///   A logged access is applied at the turn where a live step would
    ///   make it (a load at its issue, a drain at the lane's first
    ///   processed cycle after its start) through the real
    ///   [`MemorySystem::load`] or [`MemorySystem::store_drain`], once
    ///   a check shows the live path would take it the same way: the
    ///   L1 still hits and memory still holds the value read, or the
    ///   line is still owned. When another tile got there first the
    ///   check fails and the lane is *rewound*: it restores the state
    ///   its run saved before its first logged access, redoes the run
    ///   up to this cycle taking the earlier accesses from the log, and
    ///   is stepped live from here (`engine.rewinds`).
    ///   Trace events keep that order too: a replayed record emits its
    ///   `Retire` at its (cycle, tile) turn, between the live events of
    ///   the stepped lanes around it.
    ///   After a lane's live step at cycle `c` it is *re-armed*: it
    ///   runs ahead locally again over `(c, segment end)`, unless its
    ///   next drain must go live anyway. That touches only its own
    ///   core, so it may run before the later lanes' cycle-`c` steps;
    ///   its new records keep offsets from the segment start and fold
    ///   at their (cycle, tile) turns like phase A's. Logged drains
    ///   whose turn falls at or after the lane's horizon, or beyond the
    ///   segment, go back to its store buffer for the live path.
    ///   Zero-issue cycles fast-forward like the naive engine: local
    ///   lanes contribute their next record's cycle (equal to their
    ///   hidden `next_ready_at`, since a ready local thread always
    ///   issues), stepped lanes their actual `next_ready_at`, and the
    ///   bulk charge covers stepped lanes only — local spans were
    ///   already charged by phase A at the same frozen rates. A jump
    ///   that reaches its segment's end carries on in the next one, so
    ///   the segment length never shows in which cycles get processed.
    ///
    /// Re-deriving the poll set per batch also keeps mode hysteresis
    /// honest on degraded dies: a core that halts or is fused off
    /// leaves both the stepping loop and the issue-duty denominator at
    /// the next barrier, so a heavily-fused part cannot ping-pong modes
    /// on cores that no longer count.
    #[allow(clippy::too_many_lines)]
    fn run_dense_batched(&mut self, end: u64) -> bool {
        let mut scratch = std::mem::take(&mut self.lane_scratch);
        let mut reached_end = true;
        // Hoisted gates: a collector is per thread, so this thread's
        // answers cannot change while it is inside this call.
        let metrics_on = metrics::enabled();
        let tracing = trace::active();
        let trace_retire = trace::wants(SUB_RETIRE);
        'batches: while self.now < end {
            let polled: Vec<usize> = (0..self.cores.len())
                .filter(|&k| self.cores[k].any_running() || self.cores[k].has_pending_stores())
                .collect();
            if polled.is_empty() {
                // Nothing can ever issue or drain: idle the clock out.
                self.act.cycles += end - self.now;
                self.now = end;
                break;
            }
            let bend = (self.now + DENSE_BATCH_CYCLES).min(end);
            self.emetrics.batches += 1;
            if scratch.len() < polled.len() {
                scratch.resize_with(polled.len(), LaneBuf::default);
            }
            let mut issued_total: u64 = 0;
            let mut processed: u64 = 0;
            // Whether the last processed cycle issued nothing, so the
            // next one starts with a fast-forward. Carried across
            // segment ends: a jump a segment cuts short resumes, before
            // any cycle is processed, once the next segment's records
            // exist — segments never add a processed cycle.
            let mut idle = false;
            while self.now < bend {
                let start = self.now;
                let send = (start + DENSE_SEGMENT_CYCLES).min(bend);

                // Phase A: run every lane ahead locally.
                run_lanes_ahead(
                    &mut self.cores,
                    &self.memsys,
                    &polled,
                    &mut scratch,
                    start..send,
                );

                // Phase B: the sequential exact replay.
                // When every lane covered the whole segment locally
                // without a memory access and no `Retire` events are
                // wanted, the replay is a pure record merge: no horizon
                // checks, no core access, nothing to emit — just each
                // lane's next record against the cycle.
                let merge_only = !trace_retire
                    && scratch[..polled.len()]
                        .iter()
                        .all(|b| b.horizon == send && b.mem.ops().is_empty());
                let mut c = start;
                while c < send {
                    if idle {
                        // The naive fast-forward, batched: local lanes'
                        // next event is their next deferred record (or
                        // their frozen wake time once the buffer is dry
                        // — provably at or beyond their horizon),
                        // stepped lanes' is their live `next_ready_at`.
                        // Charges cover stepped lanes only; phase A
                        // already charged the local spans at the same
                        // frozen rates.
                        let mut next = send;
                        let mut running: u64 = 0;
                        let mut mem_waiting: u64 = 0;
                        let mut dry = false;
                        for (buf, &k) in scratch.iter().zip(&polled) {
                            if c < buf.horizon {
                                if let Some(r) = buf.records.get(buf.cursor) {
                                    next = next.min(start + u64::from(r.offset));
                                } else {
                                    dry = true;
                                    if let Some(t) = self.cores[k].next_ready_at() {
                                        debug_assert!(
                                            t >= buf.horizon,
                                            "local lane wakes inside its span"
                                        );
                                        next = next.min(t);
                                    }
                                }
                            } else {
                                running += u64::from(self.cores[k].any_running());
                                mem_waiting += self.cores[k].memory_waiting_threads(c);
                                if let Some(t) = self.cores[k].next_ready_at() {
                                    next = next.min(t);
                                }
                            }
                        }
                        if next > c {
                            let skipped = next - c;
                            if dry {
                                // A run that stopped mid-stall, at a
                                // drain it could not take, leaves the
                                // rest of the jump to be charged here.
                                for (buf, &k) in scratch.iter().zip(&polled) {
                                    if (c + 1..next).contains(&buf.horizon)
                                        && buf.cursor == buf.records.len()
                                    {
                                        let core = &self.cores[k];
                                        let live = next - buf.horizon;
                                        self.act.core_active_cycles +=
                                            live * u64::from(core.any_running());
                                        self.act.mem_stall_cycles +=
                                            live * core.memory_waiting_threads(buf.horizon);
                                    }
                                }
                            }
                            self.act.cycles += skipped;
                            self.act.core_active_cycles += skipped * running;
                            self.act.mem_stall_cycles += skipped * mem_waiting;
                            c = next;
                            if c == send {
                                break;
                            }
                        }
                    }
                    let mut issued: u64 = 0;
                    #[allow(clippy::cast_possible_truncation)]
                    let rel = (c - start) as u16;
                    if merge_only {
                        for buf in &mut scratch[..polled.len()] {
                            issued += u64::from(buf.replay(rel, &mut self.act).is_some());
                        }
                    } else {
                        if tracing {
                            trace::set_cycle(c);
                        }
                        for (buf, &k) in scratch.iter_mut().zip(&polled) {
                            let tile = TileId::new(k);
                            if c >= buf.next_due
                                && c < buf.horizon
                                && !buf.apply_due(tile, c, &mut self.memsys, &mut self.act)
                            {
                                buf.rewind(&mut self.cores[k], &self.memsys, start, c);
                                self.emetrics.rewinds += 1;
                            }
                            if c >= buf.horizon {
                                let core = &mut self.cores[k];
                                buf.unlog_pending(core);
                                issued += u64::from(core.step(c, &mut self.memsys, &mut self.act));
                                // Re-arm: the lane is local again from
                                // the next cycle on, unless its next
                                // drain must go live anyway.
                                if c + 1 < send
                                    && core.is_enabled()
                                    && core.drains_locally(&self.memsys)
                                {
                                    buf.run_ahead(core, &self.memsys, start, c + 1, send);
                                }
                            } else if let Some(r) = buf.replay(rel, &mut self.act) {
                                issued += 1;
                                if let Some(op) = r.op().filter(|_| trace_retire) {
                                    emit_retire(
                                        c,
                                        tile,
                                        r.thread(),
                                        Opcode::ALL[op],
                                        u64::from(r.pc),
                                    );
                                }
                            }
                        }
                    }
                    self.engine_steps += polled.len() as u64;
                    if issued > 0 && metrics_on {
                        self.emetrics.issue_duty.observe(issued);
                    }
                    issued_total += issued;
                    processed += 1;
                    self.act.cycles += 1;
                    idle = issued == 0;
                    c += 1;
                }
                self.now = c;

                // The barrier: fold the order-free phase-A aggregates
                // (all exact integers, so fold order is free), verify
                // every effect buffer replayed to exhaustion and hand
                // the drains whose turn lies beyond the segment back to
                // their store buffers.
                for (buf, &k) in scratch.iter_mut().zip(&polled) {
                    debug_assert_eq!(buf.cursor, buf.records.len(), "unreplayed issue records");
                    buf.unlog_pending(&mut self.cores[k]);
                    self.emetrics.record_hwm =
                        self.emetrics.record_hwm.max(buf.records.len() as u64);
                    let ch = &buf.charges;
                    self.act.core_active_cycles += ch.active;
                    self.act.mem_stall_cycles += ch.mem_stall;
                    self.act.dual_thread_cycles += ch.dual;
                    self.act.drafted_issues += ch.drafted;
                    self.act.l1i_accesses += ch.l1i;
                    self.act.sb_enqueues += ch.sb_enqueues;
                    for i in 0..Opcode::COUNT {
                        self.act.issues[i] += ch.issues[i];
                        self.act.occupancy_cycles[i] += ch.occupancy[i];
                    }
                }
            }

            // Whole-batch duty check against the freshly-derived lane
            // count: sustained low duty hands back to the calendar.
            if issued_total * 8 < polled.len() as u64 * processed && self.now < end {
                reached_end = false;
                break 'batches;
            }
        }
        self.lane_scratch = scratch;
        reached_end
    }

    /// The seed engine: polls every core every cycle, fast-forwarding
    /// only when *no* core can issue. Kept as the reference
    /// implementation the event-driven [`Machine::run`] is equivalence-
    /// tested against (by the differential suites and `trace_diff`);
    /// both produce identical counters, cycle for cycle.
    #[doc(hidden)]
    pub fn run_naive(&mut self, cycles: u64) {
        let end = self.now + cycles;
        self.emetrics.naive_cycles += cycles;
        if trace::active() {
            trace::emit(TraceEvent::Engine {
                cycle: self.now,
                mode: EngineMode::Naive,
            });
        }
        while self.now < end {
            if trace::active() {
                trace::set_cycle(self.now);
            }
            let mut issued_any = false;
            for core in &mut self.cores {
                issued_any |= core.step(self.now, &mut self.memsys, &mut self.act);
            }
            self.engine_steps += self.cores.len() as u64;
            self.act.cycles += 1;
            self.now += 1;
            if issued_any {
                continue;
            }
            // Fast-forward to the next cycle any core can issue.
            let next = self
                .cores
                .iter()
                .filter_map(Core::next_ready_at)
                .min()
                .unwrap_or(end)
                .min(end)
                .max(self.now);
            if next > self.now {
                let skipped = next - self.now;
                let running = self.cores.iter().filter(|c| c.any_running()).count() as u64;
                // No thread is ready before `next`, so every running
                // thread keeps its current wait for the whole window:
                // active cycles accrue per running core, memory stalls
                // only per thread actually waiting on the memory system
                // (matching Core::step's per-cycle charging).
                let memory_waiting: u64 = self
                    .cores
                    .iter()
                    .map(|c| c.memory_waiting_threads(self.now))
                    .sum();
                self.act.cycles += skipped;
                self.act.core_active_cycles += skipped * running;
                self.act.mem_stall_cycles += skipped * memory_waiting;
                self.now = next;
            }
        }
    }

    /// Total `Core::step` calls made so far (scheduler diagnostics).
    #[must_use]
    pub fn engine_steps(&self) -> u64 {
        self.engine_steps
    }

    /// Cycle-engine diagnostics: calendar pops, per-mode cycle counts,
    /// handovers and the issue-duty histogram (histogram recorded only
    /// while the metrics registry is enabled).
    #[must_use]
    pub fn engine_metrics(&self) -> EngineMetrics {
        EngineMetrics {
            steps: self.engine_steps,
            ..self.emetrics.clone()
        }
    }

    /// Publishes this machine's engine diagnostics into this thread's
    /// `piton-obs` metrics registry (counters `engine.steps`,
    /// `engine.calendar_pops`, … and histogram `engine.issue_duty`).
    ///
    /// Delta-published against per-machine watermarks, so repeated
    /// calls (and the automatic call on drop) never double count. No-op
    /// while the registry is disabled.
    pub fn publish_metrics(&mut self) {
        if !metrics::enabled() {
            return;
        }
        let publish = |name: &str, cur: u64, mark: &mut u64| {
            let delta = cur - *mark;
            *mark = cur;
            if delta > 0 {
                metrics::counter_add(&format!("engine.{name}"), delta);
            }
        };
        let m = &self.emetrics;
        let w = &mut self.published;
        publish("steps", self.engine_steps, &mut w.steps);
        publish("calendar_pops", m.calendar_pops, &mut w.calendar_pops);
        publish(
            "calendar_stale_pops",
            m.calendar_stale_pops,
            &mut w.calendar_stale_pops,
        );
        publish("event_cycles", m.event_cycles, &mut w.event_cycles);
        publish("batched_cycles", m.batched_cycles, &mut w.batched_cycles);
        publish("batches", m.batches, &mut w.batches);
        publish("naive_cycles", m.naive_cycles, &mut w.naive_cycles);
        publish("rewinds", m.rewinds, &mut w.rewinds);
        publish("handovers", m.handovers, &mut w.handovers);
        if m.record_hwm > 0 {
            // A watermark, not a flow: last-write-wins gauge (the
            // registry keeps whichever machine published last; sweeps
            // over homogeneous machines see a representative depth).
            metrics::gauge_set("engine.record_hwm", m.record_hwm as f64);
        }
        let duty = std::mem::take(&mut self.emetrics.issue_duty);
        if duty.count > 0 {
            metrics::histogram_merge("engine.issue_duty", &duty);
        }
    }

    /// Test-only scheduler fault injection: delays every ready-calendar
    /// wakeup by `skew` cycles, desynchronizing the event-driven engine
    /// from [`Machine::run_naive`] without touching the naive path —
    /// the deliberate divergence the `trace_diff` harness must localize.
    /// Zero restores exact equivalence.
    #[doc(hidden)]
    pub fn set_calendar_skew(&mut self, skew: u64) {
        self.calendar_skew = skew;
    }

    /// Runs until every thread halts or `max_cycles` elapse. Returns
    /// `true` if everything halted. The chunk granularity between halt
    /// checks follows `PITON_WATCHDOG_CHUNK` (see [`crate::watchdog`]):
    /// retirement is unaffected, but the clock coasts to the next chunk
    /// boundary after the last thread halts, so smaller chunks stop the
    /// clock closer to the true halt cycle.
    pub fn run_until_halted(&mut self, max_cycles: u64) -> bool {
        let step = crate::watchdog::chunk_cycles();
        let end = self.now + max_cycles;
        while self.any_running() && self.now < end {
            let chunk = step.min(end - self.now);
            self.run(chunk);
        }
        !self.any_running()
    }

    /// [`Machine::run_until_halted`] with a progress watchdog: if no
    /// instruction retires chip-wide for `window` consecutive cycles
    /// while threads are still running, or the cycle budget runs out,
    /// returns a structured [`HangReport`] naming the stuck threads
    /// (tile, [`WaitKind`], release cycle) and the residual store-path
    /// occupancy, instead of a bare `false`.
    ///
    /// Pick `window` above the longest legitimate wait of the workload
    /// (a cold memory miss holds a thread ~424 cycles);
    /// [`Machine::run_until_halted_guarded`] supplies the
    /// environment-tunable default. The chunk granularity between
    /// progress checks follows `PITON_WATCHDOG_CHUNK` (see
    /// [`crate::watchdog`]): retirement is unaffected, but the clock
    /// coasts to the next chunk boundary after the last thread halts.
    /// The loop also polls the runner's per-attempt
    /// deadline budget (`piton_arch::deadline`), reporting a timeout
    /// hang when the budget is blown so a wedged grid point degrades
    /// into a retry or a hole.
    ///
    /// # Errors
    ///
    /// [`HangReport`] when the watchdog fires or the budget is
    /// exhausted with threads still running.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn run_until_halted_watched(
        &mut self,
        max_cycles: u64,
        window: u64,
    ) -> Result<(), HangReport> {
        assert!(window > 0, "watchdog window must be non-zero");
        let step = crate::watchdog::chunk_cycles();
        let end = self.now + max_cycles;
        let mut last_retired = self.retired();
        let mut progress_at = self.now;
        while self.any_running() && self.now < end {
            if piton_arch::deadline::exceeded() {
                return Err(self.hang_report(HangKind::Timeout, window));
            }
            let chunk = step.min(window).min(end - self.now);
            self.run(chunk);
            let retired = self.retired();
            if retired > last_retired {
                last_retired = retired;
                progress_at = self.now;
            } else if self.now - progress_at >= window {
                return Err(self.hang_report(HangKind::Stalled, window));
            }
        }
        if self.any_running() {
            return Err(self.hang_report(HangKind::Timeout, window));
        }
        Ok(())
    }

    /// [`Machine::run_until_halted_watched`] with the environment's
    /// default hang window (`PITON_WATCHDOG_LIMIT`, see
    /// [`crate::watchdog::limit_cycles`]).
    ///
    /// # Errors
    ///
    /// [`HangReport`] when the watchdog fires or the budget is
    /// exhausted with threads still running.
    pub fn run_until_halted_guarded(&mut self, max_cycles: u64) -> Result<(), HangReport> {
        self.run_until_halted_watched(max_cycles, crate::watchdog::limit_cycles())
    }

    /// Snapshots the stuck state for a [`HangReport`].
    fn hang_report(&self, kind: HangKind, window: u64) -> HangReport {
        let stuck = self
            .cores
            .iter()
            .flat_map(|c| {
                c.waiting_threads(self.now)
                    .into_iter()
                    .map(|(thread, wait, ready_at)| StuckThread {
                        tile: c.tile(),
                        thread,
                        wait,
                        ready_at,
                    })
            })
            .collect();
        HangReport {
            kind,
            at_cycle: self.now,
            window,
            retired: self.retired(),
            stuck,
            pending_stores: self.cores.iter().map(|c| c.pending_stores() as u64).sum(),
            disabled_cores: self.disabled_cores(),
            governed_khz: self.governed_khz,
        }
    }

    /// Records I/O transactions (SD card, serial port) crossing the
    /// chip bridge — driven by workload models whose I/O the ISA-level
    /// simulator does not execute (e.g. the SPECint surrogates with
    /// high file activity, §IV-I).
    pub fn record_io(&mut self, transactions: u64) {
        self.act.io_transactions += transactions;
        // Each transaction crosses the pin-limited bridge as a burst.
        self.act.chip_bridge_flits += transactions * 20;
    }

    /// Drives the chipset-side NoC dummy-packet traffic of the Figure 12
    /// experiment for `cycles` cycles: every 47 cycles, one packet of one
    /// header flit plus six payload flits (alternating per `pattern`)
    /// enters through the chip bridge at tile0 and routes to `dst` on
    /// NoC2, where the L1.5 receives it as an invalidation.
    pub fn run_invalidation_traffic(&mut self, dst: TileId, pattern: SwitchPattern, cycles: u64) {
        let end = self.now + cycles;
        let (even, odd) = pattern.flit_pair();
        let entry = TileId::new(0);
        // One reusable flit buffer and one precomputed route for the
        // whole run; the header (the destination route) is constant,
        // only the payload toggles.
        let mut flits = [0u64; BRIDGE_PATTERN_FLITS];
        flits[0] = dst.index() as u64;
        let plan = self.memsys.noc.plan(NocId::Noc2, entry, dst);
        let mut flit_toggle = false;
        while self.now < end {
            if trace::active() {
                trace::set_cycle(self.now);
            }
            for slot in &mut flits[1..] {
                *slot = if flit_toggle { odd } else { even };
                flit_toggle = !flit_toggle;
            }
            self.act.chip_bridge_flits += BRIDGE_PATTERN_FLITS as u64;
            self.memsys.noc.send_planned(&plan, &flits, &mut self.act);
            // Receipt at the destination L1.5.
            self.act.invalidations += 1;
            self.act.l15_reads += 1;

            let step = BRIDGE_PATTERN_CYCLES.min(end - self.now);
            self.act.cycles += step;
            self.now += step;
        }
    }
}

impl Drop for Machine {
    /// Publishes any unpublished engine diagnostics so sweeps aggregate
    /// scheduler behavior without each experiment calling
    /// [`Machine::publish_metrics`] — a no-op (one thread-local load)
    /// unless this thread's metrics registry is enabled.
    fn drop(&mut self) {
        self.publish_metrics();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piton_arch::isa::{Instruction, Opcode, Reg};

    fn machine() -> Machine {
        Machine::new(&ChipConfig::piton())
    }

    fn count_loop(iters: i64) -> Program {
        Program::from_instructions(vec![
            Instruction::movi(Reg::new(1), iters),
            Instruction::movi(Reg::new(2), 1),
            Instruction::alu(Opcode::Sub, Reg::new(1), Reg::new(1), Reg::new(2)),
            Instruction::branch(Opcode::Bne, Reg::new(1), Reg::G0, 2),
            Instruction::halt(),
        ])
    }

    #[test]
    fn runs_a_program_to_halt() {
        let mut m = machine();
        m.load_thread(TileId::new(0), 0, count_loop(10));
        assert!(m.run_until_halted(10_000));
        assert!(m.retired() > 20);
    }

    #[test]
    fn twenty_five_cores_run_in_parallel() {
        let mut m = machine();
        let p = count_loop(100);
        m.load_on_tiles(25, 0, &p);
        assert!(m.run_until_halted(100_000));
        // All 25 retire the same instruction count.
        let per_core = m.core(TileId::new(0)).retired();
        for t in m.config().topology().tiles() {
            assert_eq!(m.core(t).retired(), per_core, "{t}");
        }
    }

    #[test]
    fn clock_keeps_counting_when_idle() {
        let mut m = machine();
        m.run(500);
        assert_eq!(m.counters().cycles, 500);
        assert_eq!(m.now(), 500);
        assert_eq!(m.counters().total_issues(), 0);
    }

    #[test]
    fn fast_forward_preserves_cycle_accounting() {
        let mut m = machine();
        // A single thread that stalls on a cold memory miss: the machine
        // fast-forwards ~424 cycles but must still count them.
        m.load_thread(
            TileId::new(0),
            0,
            Program::from_instructions(vec![
                Instruction::movi(Reg::new(1), 0x9000),
                Instruction::ldx(Reg::new(2), Reg::new(1), 0),
                Instruction::halt(),
            ]),
        );
        assert!(m.run_until_halted(5_000));
        assert!(m.counters().cycles >= 424);
    }

    #[test]
    fn data_image_is_loaded_before_start() {
        let mut m = machine();
        let mut p = Program::from_instructions(vec![
            Instruction::movi(Reg::new(1), 0x8000),
            Instruction::ldx(Reg::new(2), Reg::new(1), 0),
            Instruction::halt(),
        ]);
        p.data.push((0x8000, 777));
        m.load_thread(TileId::new(3), 0, p);
        assert!(m.run_until_halted(5_000));
        assert_eq!(m.core(TileId::new(3)).reg(0, Reg::new(2)), 777);
    }

    #[test]
    fn invalidation_traffic_produces_bridge_pattern() {
        let mut m = machine();
        let window = 47 * 100;
        m.run_invalidation_traffic(TileId::new(4), SwitchPattern::Fsw, window);
        let act = m.counters();
        assert_eq!(act.noc_packets, 100);
        assert_eq!(act.chip_bridge_flits, 700);
        assert_eq!(act.cycles, window);
        // FSW on 4 hops: payload flits alternate 64-bit toggles; header
        // toggles only via payload juxtaposition.
        assert!(act.noc_bit_switches > 100 * 4 * 5 * 32);
    }

    #[test]
    fn nsw_traffic_switches_far_less_than_fsw() {
        let mut nsw = machine();
        nsw.run_invalidation_traffic(TileId::new(4), SwitchPattern::Nsw, 47 * 50);
        let mut fsw = machine();
        fsw.run_invalidation_traffic(TileId::new(4), SwitchPattern::Fsw, 47 * 50);
        assert!(nsw.counters().noc_bit_switches * 4 < fsw.counters().noc_bit_switches);
    }

    #[test]
    fn partially_idle_machine_steps_only_busy_cores() {
        // One running core out of 25: the event-driven engine must not
        // step the 24 idle cores, so total step calls stay bounded by
        // the executed cycles — where the naive engine pays 25x.
        let mut event = machine();
        event.load_thread(TileId::new(7), 0, count_loop(2_000));
        event.run(20_000);
        assert!(event.retired() > 4_000, "workload ran");
        assert!(
            event.engine_steps() <= 20_000,
            "event engine stepped idle cores: {} steps",
            event.engine_steps()
        );

        let mut naive = machine();
        naive.load_thread(TileId::new(7), 0, count_loop(2_000));
        naive.run_naive(20_000);
        assert_eq!(naive.engine_steps() % 25, 0);
        assert!(
            naive.engine_steps() >= 25 * event.engine_steps() / 2,
            "baseline sanity: naive {} vs event {}",
            naive.engine_steps(),
            event.engine_steps()
        );
        // And the counters still agree exactly.
        assert_eq!(event.counters(), naive.counters());
    }

    #[test]
    fn fully_idle_machine_steps_no_cores() {
        let mut m = machine();
        m.run(100_000);
        assert_eq!(m.engine_steps(), 0);
        assert_eq!(m.counters().cycles, 100_000);
    }

    /// Segment ends are invisible: 25 tiles in lockstep on back-to-back
    /// divides issue for one cycle and then stall together for 72, a
    /// rhythm whose fast-forward jumps straddle the segment ends of the
    /// batch. With all 25 cores polled, equal step counts mean the
    /// batched engine processed exactly the naive engine's cycles.
    #[test]
    fn segment_ends_add_no_processed_cycles() {
        let p = Program::from_instructions(vec![
            Instruction::movi(Reg::new(1), 1_000_003),
            Instruction::movi(Reg::new(2), 3),
            Instruction::alu(Opcode::Sdivx, Reg::new(3), Reg::new(1), Reg::new(2)),
            Instruction::branch(Opcode::Beq, Reg::G0, Reg::G0, 2),
        ]);
        let mut batched = machine();
        batched.load_on_tiles(25, 0, &p);
        batched.run(4_000);
        let mut naive = machine();
        naive.load_on_tiles(25, 0, &p);
        naive.run_naive(4_000);
        let m = batched.engine_metrics();
        assert_eq!(m.batches, 1);
        assert!(m.batched_cycles > DENSE_BATCH_CYCLES - DENSE_SEGMENT_CYCLES);
        assert_eq!(batched.engine_steps(), naive.engine_steps());
        assert_eq!(batched.counters(), naive.counters());
    }

    /// Deterministic engine-equivalence regression over a workload mix
    /// that exercises every scheduler path: store-buffer drains in dead
    /// windows, memory stalls, rollbacks, dual threads, cross-core
    /// coherence and chunked runs.
    #[test]
    fn event_engine_matches_naive_on_mixed_workloads() {
        let store_heavy = |base: i64| {
            let mut v = vec![Instruction::movi(Reg::new(1), base)];
            for k in 0..40 {
                v.push(Instruction::stx(Reg::new(1), Reg::new(1), k * 8));
            }
            v.push(Instruction::membar());
            v.push(Instruction::halt());
            Program::from_instructions(v)
        };
        let load_chain = |base: i64| {
            Program::from_instructions(vec![
                Instruction::movi(Reg::new(1), base),
                Instruction::ldx(Reg::new(2), Reg::new(1), 0),
                Instruction::ldx(Reg::new(3), Reg::new(1), 64),
                Instruction::ldx(Reg::new(4), Reg::new(1), 4096),
                Instruction::halt(),
            ])
        };
        let build = || {
            let mut m = machine();
            m.load_thread(TileId::new(0), 0, store_heavy(0x6000));
            m.load_thread(TileId::new(0), 1, count_loop(500));
            m.load_thread(TileId::new(12), 0, load_chain(0x6000));
            m.load_thread(TileId::new(24), 0, store_heavy(0x6000));
            m.load_thread(TileId::new(24), 1, load_chain(0x9000));
            m
        };
        let mut event = build();
        let mut naive = build();
        // Uneven chunks so boundaries land inside fast-forward gaps.
        for chunk in [1, 7, 350, 1_000, 13, 4_000, 30_000] {
            event.run(chunk);
            naive.run_naive(chunk);
        }
        assert_eq!(event.now(), naive.now());
        assert_eq!(event.retired(), naive.retired());
        assert_eq!(event.counters(), naive.counters());
    }

    #[test]
    fn disabled_cores_stay_silent_but_routers_forward() {
        let mut m = machine();
        // Fuse off tiles 3 and 12.
        m.apply_core_mask((1 << 3) | (1 << 12));
        assert_eq!(m.disabled_cores(), 2);
        let p = count_loop(50);
        m.load_on_tiles(25, 0, &p);
        assert!(m.run_until_halted(200_000), "degraded chip must still halt");
        assert_eq!(m.core(TileId::new(3)).retired(), 0);
        assert_eq!(m.core(TileId::new(12)).retired(), 0);
        assert!(m.core(TileId::new(0)).retired() > 0);
        assert!(m.core(TileId::new(24)).retired() > 0);
        // Traffic still routes *through* the disabled tiles' routers:
        // tile 3 sits on the tile0→tile4 X path.
        let before = m.counters().noc_flit_hops;
        m.run_invalidation_traffic(TileId::new(4), SwitchPattern::Fsw, 47 * 10);
        assert!(m.counters().noc_flit_hops > before);
    }

    #[test]
    fn disabling_reenabling_restores_a_loadable_core() {
        let mut m = machine();
        m.apply_core_mask(1 << 7);
        m.load_thread(TileId::new(7), 0, count_loop(10));
        assert!(
            !m.core(TileId::new(7)).any_running(),
            "load must be ignored"
        );
        m.apply_core_mask(0);
        m.load_thread(TileId::new(7), 0, count_loop(10));
        assert!(m.run_until_halted(50_000));
        assert!(m.core(TileId::new(7)).retired() > 0);
    }

    #[test]
    fn watchdog_reports_a_memory_stalled_thread() {
        let mut m = machine();
        // A cold miss holds the thread ~424 cycles; a 50-cycle watchdog
        // window fires mid-wait and must name the memory wait.
        m.load_thread(
            TileId::new(5),
            0,
            Program::from_instructions(vec![
                Instruction::movi(Reg::new(1), 0x9000),
                Instruction::ldx(Reg::new(2), Reg::new(1), 0),
                Instruction::halt(),
            ]),
        );
        let report = m.run_until_halted_watched(5_000, 50).unwrap_err();
        assert_eq!(report.kind, HangKind::Stalled);
        assert_eq!(report.window, 50);
        let stuck: Vec<_> = report.stuck.iter().map(|s| (s.tile, s.wait)).collect();
        assert_eq!(stuck, vec![(TileId::new(5), crate::core::WaitKind::Memory)]);
        assert!(report.stuck[0].ready_at > report.at_cycle);
        let rendered = report.to_string();
        assert!(rendered.contains("no retirement"), "{rendered}");
        assert!(rendered.contains("waiting on memory"), "{rendered}");
        // And it converts into the workspace error currency.
        let err: PitonError = report.into();
        assert!(err.is_transient());
    }

    #[test]
    fn watchdog_timeout_reports_running_threads() {
        let mut m = machine();
        // An infinite loop keeps retiring: only the budget stops it.
        m.load_thread(
            TileId::new(0),
            0,
            Program::from_instructions(vec![
                Instruction::nop(),
                Instruction::branch(Opcode::Beq, Reg::G0, Reg::G0, 0),
            ]),
        );
        let report = m.run_until_halted_watched(2_000, 500).unwrap_err();
        assert_eq!(report.kind, HangKind::Timeout);
        assert!(report.retired > 0);
    }

    #[test]
    fn watchdog_passes_a_completing_workload_unchanged() {
        let mut watched = machine();
        let mut plain = machine();
        watched.load_thread(TileId::new(0), 0, count_loop(100));
        plain.load_thread(TileId::new(0), 0, count_loop(100));
        assert!(watched.run_until_halted_watched(100_000, 1_000).is_ok());
        assert!(plain.run_until_halted(100_000));
        assert_eq!(watched.retired(), plain.retired());
        assert_eq!(watched.counters(), plain.counters());
    }

    #[test]
    fn watchdog_chunk_size_never_changes_retirement() {
        // Chunk granularity only decides how soon the loop notices the
        // halt: retirement is identical, and a finer chunk stops the
        // clock no later than the coarse one.
        let mut coarse = machine();
        coarse.load_thread(TileId::new(0), 0, count_loop(100));
        assert!(coarse.run_until_halted_watched(100_000, 1_000).is_ok());
        std::env::set_var("PITON_WATCHDOG_CHUNK", "77");
        let mut fine = machine();
        fine.load_thread(TileId::new(0), 0, count_loop(100));
        let fine_result = fine.run_until_halted_watched(100_000, 1_000);
        std::env::remove_var("PITON_WATCHDOG_CHUNK");
        assert!(fine_result.is_ok());
        assert_eq!(fine.retired(), coarse.retired());
        assert!(
            fine.now() <= coarse.now(),
            "{} > {}",
            fine.now(),
            coarse.now()
        );
    }

    #[test]
    fn guarded_run_uses_the_default_window() {
        let mut m = machine();
        m.load_thread(TileId::new(0), 0, count_loop(100));
        assert!(m.run_until_halted_guarded(100_000).is_ok());
    }

    #[test]
    fn blown_deadline_fires_the_watchdog_as_a_timeout() {
        use std::time::{Duration, Instant};
        piton_arch::deadline::arm(Instant::now() - Duration::from_millis(1));
        let mut m = machine();
        m.load_thread(TileId::new(0), 0, count_loop(100));
        let report = m.run_until_halted_watched(100_000, 1_000).unwrap_err();
        piton_arch::deadline::disarm();
        assert_eq!(report.kind, HangKind::Timeout);
        let err: PitonError = report.into();
        assert!(err.is_transient());
    }

    #[test]
    fn fswa_has_coupling_fsw_does_not() {
        let mut fswa = machine();
        fswa.run_invalidation_traffic(TileId::new(2), SwitchPattern::Fswa, 47 * 50);
        let mut fsw = machine();
        fsw.run_invalidation_traffic(TileId::new(2), SwitchPattern::Fsw, 47 * 50);
        assert!(
            fswa.counters().noc_coupling_switches
                > 10 * fsw.counters().noc_coupling_switches.max(1)
        );
    }

    mod engine_equivalence {
        use super::*;
        use crate::testprog::{decode_program, owned_placement};
        use proptest::prelude::*;

        /// Re-runs both engines with retire/cache/noc tracing and
        /// renders the first divergent event — the context a bare
        /// counter mismatch hides. Engine-mode events are excluded:
        /// the two engines legitimately differ there.
        fn divergence_context(build: impl Fn() -> Machine, chunks: &[u64]) -> String {
            let spec = piton_obs::trace::TraceSpec::parse("retire,cache,noc").expect("static spec");
            let (_, event_trace) = piton_obs::trace::capture(&spec, || {
                let mut m = build();
                for &chunk in chunks {
                    m.run(chunk);
                }
                m.now()
            });
            let (_, naive_trace) = piton_obs::trace::capture(&spec, || {
                let mut m = build();
                for &chunk in chunks {
                    m.run_naive(chunk);
                }
                m.now()
            });
            match piton_obs::diff::first_divergence(&event_trace, &naive_trace) {
                Some(d) => format!("{d}"),
                None => format!(
                    "traces identical over {} events (divergence is outside traced subsystems)",
                    event_trace.len()
                ),
            }
        }

        /// The equivalence property's configuration, which its last case
        /// reads to know it is the last.
        fn equivalence_config() -> ProptestConfig {
            ProptestConfig::with_cases(24)
        }

        /// Cycles an owned-placement case runs after its drawn chunks:
        /// long enough for slot 0's store to land mid-run.
        const OWNED_TAIL: u64 = 3_000;

        thread_local! {
            /// `(cases seen, owned cases that rewound)` of the running
            /// equivalence property.
            static CASES: std::cell::Cell<(u32, u32)> = const { std::cell::Cell::new((0, 0)) };
        }

        /// Runs `build`'s machine through both engines in `chunks` and
        /// asserts they agree on the clock, retirement and every
        /// counter (`f64` fields bitwise; a mismatch is localized via
        /// the trace differential), and that the engine diagnostics
        /// publish exactly once. Returns the fast engine's diagnostics.
        fn assert_engines_agree(build: impl Fn() -> Machine, chunks: &[u64]) -> EngineMetrics {
            let mut event = build();
            let mut naive = build();
            // Identical chunking for both engines: chunk boundaries
            // are observable (they cut fast-forward windows), so they
            // must cut both engines in the same places.
            for &chunk in chunks {
                event.run(chunk);
                naive.run_naive(chunk);
            }
            assert_eq!(event.now(), naive.now());
            assert_eq!(event.retired(), naive.retired());
            assert!(event.engine_steps() <= naive.engine_steps());
            if event.counters() != naive.counters() {
                assert_eq!(
                    event.counters(),
                    naive.counters(),
                    "engines diverged; {}",
                    divergence_context(build, chunks)
                );
            }
            // The diagnostic counters promote into the metrics
            // registry exactly once (delta-published watermarks), so
            // the skip behavior asserted above is visible to the
            // observability layer too. A fresh thread records into a
            // registry of its own, so the counts are exact.
            let em = event.engine_metrics();
            let expected: std::collections::BTreeMap<String, u64> = [
                ("steps", em.steps),
                ("calendar_pops", em.calendar_pops),
                ("calendar_stale_pops", em.calendar_stale_pops),
                ("event_cycles", em.event_cycles),
                ("batched_cycles", em.batched_cycles),
                ("batches", em.batches),
                ("naive_cycles", em.naive_cycles),
                ("rewinds", em.rewinds),
                ("handovers", em.handovers),
            ]
            .into_iter()
            .filter(|&(_, v)| v > 0)
            .map(|(k, v)| (format!("engine.{k}"), v))
            .collect();
            let (published, again) = std::thread::scope(|s| {
                s.spawn(|| {
                    piton_obs::metrics::enable();
                    event.publish_metrics();
                    let published = piton_obs::metrics::snapshot();
                    // Re-publishing must be a no-op (watermarks consumed).
                    event.publish_metrics();
                    (published, piton_obs::metrics::snapshot())
                })
                .join()
                .expect("publishing thread")
            });
            assert_eq!(&published.counters, &expected);
            assert_eq!(published, again);
            // Batch accounting publishes coherently: every batched
            // cycle belongs to a batch, and a batch implies cycles.
            assert!(
                em.batches == 0 || em.batched_cycles > 0,
                "batches without batched cycles"
            );
            em
        }

        /// Slot 2's lane runs ahead on its owned line, and slot 0, on
        /// another tile, stores into that line mid-segment. The lane
        /// must be rewound to its first access that fails its check,
        /// and both engines must still agree on every counter and on
        /// the retire, cache and NoC trace.
        #[test]
        fn foreign_store_rewinds_a_lane_that_ran_ahead() {
            let seeds = [0x5EED];
            let build = || {
                let mut m = machine();
                for (tile, thread, program) in owned_placement(&seeds, 3, 1_500) {
                    m.load_thread(TileId::new(tile), thread, program);
                }
                m
            };
            let chunks = [2_500, 3_000];
            let em = assert_engines_agree(build, &chunks);
            assert!(em.rewinds >= 1, "no lane was rewound");
            let spec = piton_obs::trace::TraceSpec::parse("retire,cache,noc").expect("static spec");
            let traced = |naive: bool| {
                piton_obs::trace::capture(&spec, || {
                    let mut m = build();
                    for &chunk in &chunks {
                        if naive {
                            m.run_naive(chunk);
                        } else {
                            m.run(chunk);
                        }
                    }
                })
                .1
            };
            let (fast, naive) = (traced(false), traced(true));
            assert!(fast.len() > 1_000, "{} events", fast.len());
            assert!(fast == naive, "traces diverge");
        }

        proptest! {
            #![proptest_config(equivalence_config())]
            /// Random programs, or (`owned`) lanes looping on owned lines
            /// with one foreign store among them: the fast engine agrees
            /// with the naive one, and at least one owned case rewinds.
            #[test]
            fn event_engine_matches_naive_engine(
                seeds in proptest::collection::vec(proptest::strategy::any::<u64>(), 2..8),
                placement in proptest::collection::vec((0usize..25, 0usize..2), 1..9),
                chunks in proptest::collection::vec(50u64..4_000, 1..6),
                owned in 0u8..2,
            ) {
                let owned = owned == 1;
                let build = || {
                    let mut m = machine();
                    if owned {
                        for (tile, thread, program) in owned_placement(&seeds, placement.len(), 1_500) {
                            m.load_thread(TileId::new(tile), thread, program);
                        }
                    } else {
                        for (slot, &(tile, thread)) in placement.iter().enumerate() {
                            m.load_thread(
                                TileId::new(tile),
                                thread,
                                decode_program(&seeds, slot),
                            );
                        }
                    }
                    m
                };
                let mut chunks = chunks;
                if owned {
                    chunks.push(OWNED_TAIL);
                }
                let em = assert_engines_agree(build, &chunks);
                let (seen, rewound) = CASES.get();
                let (seen, rewound) = (seen + 1, rewound + u32::from(owned && em.rewinds > 0));
                CASES.set((seen, rewound));
                if seen == equivalence_config().effective_cases() {
                    prop_assert!(rewound > 0, "no generated case rewound a lane");
                }
            }

            /// Table IV degraded parts: under ANY faulty-core mask the
            /// two engines still agree exactly, and disabled tiles
            /// retire nothing while their routers keep forwarding.
            #[test]
            fn engines_agree_under_any_faulty_core_mask(
                seeds in proptest::collection::vec(proptest::strategy::any::<u64>(), 2..6),
                placement in proptest::collection::vec((0usize..25, 0usize..2), 1..8),
                mask in 0u32..(1 << 25),
                chunks in proptest::collection::vec(50u64..2_000, 1..4),
            ) {
                let build = || {
                    let mut m = machine();
                    m.apply_core_mask(mask);
                    for (slot, &(tile, thread)) in placement.iter().enumerate() {
                        m.load_thread(
                            TileId::new(tile),
                            thread,
                            decode_program(&seeds, slot),
                        );
                    }
                    m
                };
                let mut event = build();
                let mut naive = build();
                for &chunk in &chunks {
                    event.run(chunk);
                    naive.run_naive(chunk);
                }
                prop_assert_eq!(event.now(), naive.now());
                prop_assert_eq!(event.retired(), naive.retired());
                prop_assert_eq!(event.counters(), naive.counters());
                prop_assert_eq!(event.disabled_cores(), mask.count_ones() as usize);
                for t in 0..25 {
                    if mask & (1 << t) != 0 {
                        prop_assert_eq!(event.core(TileId::new(t)).retired(), 0);
                    }
                }
            }
        }
    }
}

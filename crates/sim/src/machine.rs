//! The whole-chip machine: 25 cores, the coherent memory system, and the
//! global cycle loop.
//!
//! [`Machine`] is the simulator's top level. Workloads are loaded onto
//! hardware threads, the machine is stepped for a number of cycles, and
//! the resulting [`ActivityCounters`] window is handed to the power
//! model.
//!
//! The cycle loop is one batched two-phase dense engine (see
//! `run_dense_batched`). It polls only the cores that can do anything
//! at all — a running thread or store-buffer drains in flight — and
//! re-derives that set at every segment barrier, so a core that halts
//! leaves the loop. Lanes run ahead locally — through L1 hits and store
//! drains on lines their tile owns — then one ordered replay folds
//! their deferred effects, applies their logged accesses and emits
//! their `Retire` trace events in the naive engine's (cycle, tile)
//! order. Cycles where no core can issue are fast-forwarded in one
//! jump.
//!
//! The engine is counter-for-counter identical to the naive
//! step-everything engine, which is kept as the hidden
//! [`Machine::run_naive`] oracle and pinned by equivalence property
//! tests. So there is one fast path and one oracle, and tracing changes
//! what is emitted, never what is executed.
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

use std::sync::Arc;

use piton_arch::config::ChipConfig;
use piton_arch::topology::TileId;
use piton_obs::metrics::{self, Histogram};
use piton_obs::trace::{self, EngineMode, TraceEvent, SUB_NOC, SUB_RETIRE};

use crate::core::{emit_retire, Core, IssueRecord, LocalCharges, LocalMem, MemLog, MemOp, RunMark};
use crate::events::{activity_of_code, ActivityCounters};
use crate::memsys::MemorySystem;
use crate::noc::NocId;
use crate::program::Program;
use piton_arch::isa::Opcode;

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
    /// Cycles driven by [`Machine::run`], the batched (phase-A/phase-B)
    /// dense engine.
    pub batched_cycles: u64,
    /// Segments worked off by the batched dense engine; each derives
    /// its own poll set.
    pub batches: u64,
    /// High-water mark of deferred issues buffered by any one lane in
    /// any segment — the effect-buffer depth phase B replays, counting
    /// the records of runs re-armed during phase B (measured at the
    /// segment barrier).
    pub record_hwm: u64,
    /// Cycles driven by the reference naive engine.
    pub naive_cycles: u64,
    /// Lanes of the batched dense engine rewound because a logged owned
    /// access failed its check at its turn (another tile changed the
    /// line or the value first).
    pub rewinds: u64,
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
    batched_cycles: u64,
    batches: u64,
    naive_cycles: u64,
    rewinds: u64,
}

/// Cycles [`Machine::run_until_halted`] runs between halt checks.
const CHUNK_CYCLES: u64 = 1_000;

/// Cycles of a segment: phase A runs them ahead before phase B
/// replays them, and the poll set is re-derived at each segment
/// barrier. A lane's effect buffer holds one segment's issues (12 KB
/// of 6-byte records). Long enough to amortize the per-segment lane
/// setup and for a two-thread lane's schedule to come round within one
/// segment (HP's recurs every 843 cycles). It does not bound how long
/// a lane stays live: phase B re-arms a lane's local run after each
/// live step.
const DENSE_SEGMENT_CYCLES: u64 = 2_048;

/// Reusable per-lane state of the batched dense engine: phase A's
/// output (the lane's *effect buffer* of deferred issues, its log of
/// owned memory accesses and its order-free charge aggregates) and
/// phase B's replay cursors. Kept on the machine so segments do not
/// reallocate.
#[derive(Debug, Clone, Default)]
struct LaneBuf {
    /// First cycle phase A could not cover locally (== the segment
    /// start for lanes that must be stepped from the outset).
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

    /// Phase B's turn of this lane at segment-relative cycle `rel` while
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
    /// Total `Core::step` calls made by the engine, counting each
    /// polled lane once per processed cycle — a scheduler diagnostic
    /// (not part of [`ActivityCounters`]): the dense engine's value
    /// grows with the cores that can do anything, where the naive
    /// engine's grows with `cores × cycles`. Promoted into the metrics
    /// registry (as `engine.steps`) by [`Machine::publish_metrics`].
    engine_steps: u64,
    /// Scheduler diagnostics beyond the step count.
    emetrics: EngineMetrics,
    /// Publish watermarks (see [`Machine::publish_metrics`]).
    published: PublishedMarks,
    /// Per-lane scratch buffers of the batched dense engine.
    lane_scratch: Vec<LaneBuf>,
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
            lane_scratch: Vec::new(),
        }
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
    /// Batched dense stepping (`run_dense_batched`): the naive sweep
    /// restricted to cores that can do anything at all (running threads
    /// or store drains in flight; the naive engine's steps of the
    /// others are observable no-ops), in core order — the same order
    /// the naive engine sweeps them — so every memory-system and NoC
    /// mutation happens in the exact same global sequence and all
    /// counters (including the order-dependent NoC bit-switch Hamming
    /// chains) match [`Machine::run_naive`] exactly. Tracing changes
    /// what is emitted, never which code path runs.
    ///
    /// Engine state is rebuilt per call: between calls, callers may
    /// reload threads or mutate the memory system.
    pub fn run(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        if trace::active() {
            trace::emit(TraceEvent::Engine {
                cycle: self.now,
                mode: EngineMode::Dense,
            });
        }
        self.run_dense_batched(self.now + cycles);
        self.emetrics.batched_cycles += cycles;
    }

    /// Batched dense stepping until `end`. Counter- and trace-exact
    /// against [`Machine::run_naive`]; only the engine diagnostics can
    /// tell them apart.
    ///
    /// The run is worked off in segments of [`DENSE_SEGMENT_CYCLES`].
    /// Each segment re-derives the polled lanes (cores with a running
    /// thread or drains in flight), so a core that halts or is fused off
    /// leaves the stepping loop at the next barrier, and runs two phases:
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
    #[allow(clippy::too_many_lines)]
    fn run_dense_batched(&mut self, end: u64) {
        let mut scratch = std::mem::take(&mut self.lane_scratch);
        // Hoisted gates: a collector is per thread, so this thread's
        // answers cannot change while it is inside this call.
        let metrics_on = metrics::enabled();
        let tracing = trace::active();
        let trace_retire = trace::wants(SUB_RETIRE);
        // Whether the last processed cycle issued nothing, so the next
        // one starts with a fast-forward. Carried across segment ends:
        // a jump a segment cuts short resumes, before any cycle is
        // processed, once the next segment's records exist — segments
        // never add a processed cycle. The poll set only shrinks within
        // a call, and a core that leaves it has nothing left to charge.
        let mut idle = false;
        while self.now < end {
            let polled: Vec<usize> = (0..self.cores.len())
                .filter(|&k| self.cores[k].any_running() || self.cores[k].has_pending_stores())
                .collect();
            if polled.is_empty() {
                // Nothing can ever issue or drain: idle the clock out.
                self.act.cycles += end - self.now;
                self.now = end;
                break;
            }
            self.emetrics.batches += 1;
            if scratch.len() < polled.len() {
                scratch.resize_with(polled.len(), LaneBuf::default);
            }
            let start = self.now;
            let send = (start + DENSE_SEGMENT_CYCLES).min(end);

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
                                emit_retire(c, tile, r.thread(), Opcode::ALL[op], u64::from(r.pc));
                            }
                        }
                    }
                }
                self.engine_steps += polled.len() as u64;
                if issued > 0 && metrics_on {
                    self.emetrics.issue_duty.observe(issued);
                }
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
                self.emetrics.record_hwm = self.emetrics.record_hwm.max(buf.records.len() as u64);
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
        self.lane_scratch = scratch;
    }

    /// The seed engine: polls every core every cycle, fast-forwarding
    /// only when *no* core can issue. Kept as the reference
    /// implementation the batched dense [`Machine::run`] is equivalence-
    /// tested against (by the differential suites in `tests/`);
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

    /// Cycle-engine diagnostics: per-engine cycle counts, segments,
    /// rewinds and the issue-duty histogram (histogram recorded only
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
    /// `engine.batched_cycles`, … and histogram `engine.issue_duty`).
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
        publish("batched_cycles", m.batched_cycles, &mut w.batched_cycles);
        publish("batches", m.batches, &mut w.batches);
        publish("naive_cycles", m.naive_cycles, &mut w.naive_cycles);
        publish("rewinds", m.rewinds, &mut w.rewinds);
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

    /// Runs until every thread halts or `max_cycles` elapse. Returns
    /// `true` if everything halted. Halts are checked every
    /// `CHUNK_CYCLES` (1 000) cycles, so the clock coasts to the next chunk
    /// boundary after the last thread halts; retirement is unaffected.
    /// Timings read off [`Machine::now`] after this call include that
    /// coast (the ablations' dual-thread MT/MC overhead study does).
    pub fn run_until_halted(&mut self, max_cycles: u64) -> bool {
        let end = self.now + max_cycles;
        while self.any_running() && self.now < end {
            let chunk = CHUNK_CYCLES.min(end - self.now);
            self.run(chunk);
        }
        !self.any_running()
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
    ///
    /// The stream is summed in closed form, exactly. Six payload toggles
    /// return the alternation to its start, so every packet is the same
    /// seven flits; `cycles.div_ceil(47)` of them enter (a partial last
    /// window still sends one), and [`NocFabric::send_repeated`] accounts
    /// them in one call. Tracing changes what is emitted, never what is
    /// counted: a `noc` trace gets each packet's hop events at its own
    /// cycle, and any active trace is left with the last packet's cycle
    /// as its ambient clock.
    ///
    /// [`NocFabric::send_repeated`]: crate::noc::NocFabric::send_repeated
    pub fn run_invalidation_traffic(&mut self, dst: TileId, pattern: SwitchPattern, cycles: u64) {
        const {
            assert!(
                (BRIDGE_PATTERN_FLITS - 1).is_multiple_of(2),
                "an odd payload count would alternate packets"
            );
        }
        let (even, odd) = pattern.flit_pair();
        let entry = TileId::new(0);
        // The header (the destination route), then the payload starting
        // on the pattern's even word.
        let flits: [u64; BRIDGE_PATTERN_FLITS] = std::array::from_fn(|i| match i {
            0 => dst.index() as u64,
            i if i % 2 == 1 => even,
            _ => odd,
        });
        let packets = cycles.div_ceil(BRIDGE_PATTERN_CYCLES);
        if packets > 0 && trace::active() {
            if trace::wants(SUB_NOC) {
                for k in 0..packets {
                    trace::set_cycle(self.now + k * BRIDGE_PATTERN_CYCLES);
                    self.memsys
                        .noc
                        .trace_packet(NocId::Noc2, entry, dst, BRIDGE_PATTERN_FLITS);
                }
            }
            trace::set_cycle(self.now + (packets - 1) * BRIDGE_PATTERN_CYCLES);
        }
        self.memsys
            .noc
            .send_repeated(NocId::Noc2, entry, dst, &flits, packets, &mut self.act);
        self.act.chip_bridge_flits += BRIDGE_PATTERN_FLITS as u64 * packets;
        // Receipt at the destination L1.5.
        self.act.invalidations += packets;
        self.act.l15_reads += packets;
        self.act.cycles += cycles;
        self.now += cycles;
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
        // One running core out of 25: the dense engine must not poll
        // the 24 idle cores, so total step calls stay bounded by the
        // executed cycles — where the naive engine pays 25x.
        let mut event = machine();
        event.load_thread(TileId::new(7), 0, count_loop(2_000));
        event.run(20_000);
        assert!(event.retired() > 4_000, "workload ran");
        assert!(
            event.engine_steps() <= 20_000,
            "dense engine stepped idle cores: {} steps",
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
    /// rhythm whose fast-forward jumps straddle the segment end. With
    /// all 25 cores polled, equal step counts mean the batched engine
    /// processed exactly the naive engine's cycles.
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
        assert_eq!(m.batches, 2);
        assert_eq!(m.batched_cycles, 4_000);
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

    mod bridge_stream {
        use super::*;
        use crate::noc::ReferenceNocFabric;
        use piton_arch::topology::Mesh;
        use piton_obs::trace::TraceSpec;
        use proptest::prelude::*;

        /// Stream lengths that sit on and around the 47-cycle pattern.
        const EDGE_CYCLES: [u64; 6] = [0, 1, 46, 47, 48, 47 * 3 + 5];

        /// The Figure 12 stream as the per-packet loop the closed form
        /// replaced: one packet per 47 cycles through the reference
        /// fabric, the payload toggle carried from flit to flit. Hop
        /// events are built beside it, stamped like the machine's.
        struct ReferenceStream {
            mesh: Mesh,
            noc: ReferenceNocFabric,
            act: ActivityCounters,
            now: u64,
            ambient: u64,
            events: Vec<TraceEvent>,
        }

        impl ReferenceStream {
            fn new() -> Self {
                Self {
                    mesh: Mesh::piton(),
                    noc: ReferenceNocFabric::new(Mesh::piton()),
                    act: ActivityCounters::default(),
                    now: 0,
                    ambient: 0,
                    events: Vec::new(),
                }
            }

            fn send(&mut self, noc: NocId, src: TileId, dst: TileId, flits: &[u64]) {
                let mut at = src;
                while let Some(next) = self.mesh.next_hop(at, dst) {
                    self.events.push(TraceEvent::NocHop {
                        cycle: self.ambient,
                        noc: NocId::ALL.iter().position(|&n| n == noc).unwrap() as u32,
                        from: at.index() as u32,
                        to: next.index() as u32,
                        flits: flits.len() as u32,
                    });
                    at = next;
                }
                self.noc.send(noc, src, dst, flits, &mut self.act);
            }

            fn run(&mut self, dst: TileId, pattern: SwitchPattern, cycles: u64) {
                let end = self.now + cycles;
                let (even, odd) = pattern.flit_pair();
                let mut flits = [0u64; BRIDGE_PATTERN_FLITS];
                flits[0] = dst.index() as u64;
                let mut toggle = false;
                while self.now < end {
                    self.ambient = self.now;
                    for slot in &mut flits[1..] {
                        *slot = if toggle { odd } else { even };
                        toggle = !toggle;
                    }
                    self.act.chip_bridge_flits += BRIDGE_PATTERN_FLITS as u64;
                    self.send(NocId::Noc2, TileId::new(0), dst, &flits);
                    self.act.invalidations += 1;
                    self.act.l15_reads += 1;
                    let step = BRIDGE_PATTERN_CYCLES.min(end - self.now);
                    self.act.cycles += step;
                    self.now += step;
                }
            }
        }

        /// Up to three random packets of cross traffic from `seed`.
        fn cross_traffic(seed: u64) -> Vec<(NocId, TileId, TileId, Vec<u64>)> {
            let mut x = seed | 1;
            (0..seed % 4)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let flits = (0..1 + (x >> 40) % 7)
                        .map(|k| x.rotate_left(k as u32 * 11))
                        .collect();
                    (
                        NocId::ALL[(x % 3) as usize],
                        TileId::new((x >> 8) as usize % 25),
                        TileId::new((x >> 16) as usize % 25),
                        flits,
                    )
                })
                .collect()
        }

        /// Runs the stream in `calls` on a fresh machine, with each
        /// call's cross traffic before it; returns the machine and the
        /// counts of a probe packet sent along the stream's route last.
        fn run_machine(
            dst: TileId,
            pattern: SwitchPattern,
            calls: &[(u64, u64)],
        ) -> (Machine, ActivityCounters) {
            let mut m = machine();
            for &(cycles, seed) in calls {
                for (noc, src, to, flits) in cross_traffic(seed) {
                    m.memsys.noc.send(noc, src, to, &flits, &mut m.act);
                }
                m.run_invalidation_traffic(dst, pattern, cycles);
            }
            let mut probe = ActivityCounters::default();
            m.memsys
                .noc
                .send(NocId::Noc2, TileId::new(0), dst, &[0x0F0F, !0], &mut probe);
            (m, probe)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// The closed-form stream, split into random calls with
            /// random cross traffic between them, counts, times, leaves
            /// the wires and traces exactly like the per-packet loop.
            #[test]
            fn closed_form_stream_equals_the_per_packet_loop(
                dst in 0usize..25,
                pattern in 0usize..4,
                calls in proptest::collection::vec((0u64..2_000, 0usize..12, any::<u64>()), 1..6),
            ) {
                let dst = TileId::new(dst);
                let pattern = SwitchPattern::ALL[pattern];
                let calls: Vec<(u64, u64)> = calls
                    .into_iter()
                    .map(|(cycles, edge, seed)| (EDGE_CYCLES.get(edge).copied().unwrap_or(cycles), seed))
                    .collect();

                let mut reference = ReferenceStream::new();
                for &(cycles, seed) in &calls {
                    for (noc, src, to, flits) in cross_traffic(seed) {
                        reference.send(noc, src, to, &flits);
                    }
                    reference.run(dst, pattern, cycles);
                }
                let mut probe = ActivityCounters::default();
                reference.noc.send(NocId::Noc2, TileId::new(0), dst, &[0x0F0F, !0], &mut probe);

                let (m, machine_probe) = run_machine(dst, pattern, &calls);
                prop_assert_eq!(m.counters(), &reference.act);
                prop_assert_eq!(m.now(), reference.now);
                prop_assert_eq!(machine_probe, probe);

                let spec = TraceSpec::parse("noc").expect("static spec");
                let ((traced, traced_probe), events) = trace::capture(&spec, || {
                    trace::set_cycle(0);
                    run_machine(dst, pattern, &calls)
                });
                prop_assert_eq!(traced.counters(), &reference.act);
                prop_assert_eq!(traced_probe, probe);
                // The probe's own hops close the capture at the last
                // packet's cycle.
                let probe_hops = events.len() - reference.events.len();
                prop_assert_eq!(probe_hops, traced.memsys.noc.route(TileId::new(0), dst).hops());
                prop_assert_eq!(&events[..reference.events.len()], reference.events.as_slice());
                prop_assert!(events[reference.events.len()..]
                    .iter()
                    .all(|e| e.cycle() == reference.ambient));

                // A trace that keeps no NoC events still gets the last
                // packet's cycle as its ambient clock.
                let spec = TraceSpec::parse("retire").expect("static spec");
                let (ambient, events) = trace::capture(&spec, || {
                    trace::set_cycle(0);
                    run_machine(dst, pattern, &calls);
                    trace::ambient_cycle()
                });
                prop_assert!(events.is_empty());
                prop_assert_eq!(ambient, reference.ambient);
            }
        }
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
                ("batched_cycles", em.batched_cycles),
                ("batches", em.batches),
                ("naive_cycles", em.naive_cycles),
                ("rewinds", em.rewinds),
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

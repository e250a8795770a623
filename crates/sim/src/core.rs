//! The modified OpenSPARC T1 core model.
//!
//! Single-issue, six-stage, in-order, with two-way fine-grained
//! multithreading: each cycle the core issues from one *ready* thread,
//! rotating round-robin between ready threads, so two threads running
//! 1-cycle integer ops each achieve half throughput — exactly the
//! behaviour behind the paper's multithreading-versus-multicore study
//! (the Int multithreading/multicore execution-time ratio of two, §IV-H2).
//!
//! Two speculation mechanisms the paper calls out are modelled because
//! they *pollute energy measurements* (§IV-E):
//!
//! * **Store roll-back** — the core speculatively issues stores assuming
//!   the 8-entry store buffer has space; when it is full the store and
//!   subsequent instructions roll back and re-execute, costing extra
//!   energy (the `stx (F)` case of Figure 11).
//! * **Load roll-back** — the thread scheduler speculates that loads hit
//!   the L1; a miss rolls back younger instructions and stalls the
//!   thread until the fill returns.
//!
//! Three loops drive a core: the live per-cycle [`Core::step`], and the
//! two loops behind the batched dense engine's local run-ahead
//! [`Core::run_local`], one for a single running thread and one for
//! two, which both replay steady-state loop iterations instead of
//! re-interpreting them. All three take the register-only instruction
//! semantics (ALU, FP, branch, `movi`, nop) from a single function over
//! the thread's register file; each loop owns only its scheduling
//! bookkeeping and its memory/store/membar/halt arms.
//!
//! The local loops also run through the memory accesses that touch
//! only lines the tile owns: an `ldx` that hits the L1 on a line the
//! L1.5 holds Modified or Exclusive, and a store-buffer drain to such a
//! line. They read the memory system without changing it and log each
//! such access as a [`MemOp`]; the machine applies the log at each
//! access's (cycle, tile) turn after checking that the live path would
//! take it the same way, and rewinds the lane when it would not.

use std::collections::VecDeque;
use std::sync::Arc;

use piton_arch::isa::{Instruction, Opcode, Reg};
use piton_arch::topology::TileId;
use piton_obs::trace::{self, TraceEvent, SUB_RETIRE};

use crate::events::{
    activity_of_code, datapath_activity_code, value_activity, value_activity_code, ActivityCounters,
};
use crate::memsys::{MemorySystem, L1_HIT_CYCLES, STORE_DRAIN_CYCLES};
use crate::program::Program;

/// Pipeline-flush penalty of a store roll-back, in cycles (refill a
/// six-stage pipeline plus refetch).
pub const ROLLBACK_PENALTY_CYCLES: u64 = 8;

/// Opcode slot of an [`IssueRecord`] for a fall-off-the-end halt: the
/// issue slot was consumed (the machine must count the cycle as
/// issuing) but no instruction was fetched, so nothing folds into the
/// per-opcode counters and nothing retires.
pub const PHANTOM_OP: u8 = 0x1F;

/// Hardware threads an [`IssueRecord`] can name; a core running a
/// thread beyond them is stepped live.
const RECORD_THREADS: usize = 8;

/// Program length an [`IssueRecord`] can address; a core running a
/// longer program is stepped live. Programs fit the 16 KB L1I, so no
/// workload comes near it.
const RECORD_PCS: usize = u16::MAX as usize;

/// One instruction issue deferred by [`Core::run_local`].
///
/// Everything *order-sensitive* about an issue travels here: the
/// per-opcode operand-activity accumulation is the one `f64` the
/// engines must fold in the naive engine's global (cycle, core) order,
/// since floating-point addition does not associate, and the thread
/// and `pc` are what the machine's ordered replay needs to emit the
/// issue's `Retire` trace event at its (cycle, tile) turn. Order-free
/// `u64` tallies travel in [`LocalCharges`] instead and fold at the
/// replay barrier in any order.
///
/// Filled unconditionally — the local run never asks whether anyone is
/// tracing — and kept at 6 bytes: a saturated lane buffers one record
/// per cycle it runs ahead. The activity travels as its one-byte code
/// ([`crate::events::activity_of_code`]).
#[derive(Debug, Clone, Copy)]
pub struct IssueRecord {
    /// Cycle of the issue, as an offset from the local run's origin
    /// (the machine's segment start; a segment spans at most 2¹⁶
    /// cycles).
    pub offset: u16,
    /// Dense opcode index ([`piton_arch::isa::Opcode::index`]) in the
    /// low five bits, or [`PHANTOM_OP`] for a fall-off-the-end halt;
    /// the issuing hardware thread in the high three.
    tag: u8,
    /// Operand-value activity code of the issue: what `record_issue`
    /// would have added to `operand_activity`.
    pub activity: u8,
    /// Program counter of the issued instruction ([`Core::run_local`]
    /// runs only programs short enough for it).
    pub pc: u16,
}

const _: () = assert!(std::mem::size_of::<IssueRecord>() == 6);
const _: () = assert!(Opcode::COUNT <= PHANTOM_OP as usize);

impl IssueRecord {
    /// A phantom issue (no opcode yet) of `thread` at `pc`.
    #[allow(clippy::cast_possible_truncation)]
    fn new(offset: u16, thread: usize, pc: usize) -> Self {
        debug_assert!(thread < RECORD_THREADS);
        Self {
            offset,
            tag: (thread as u8) << 5 | PHANTOM_OP,
            activity: 0,
            pc: pc as u16,
        }
    }

    #[allow(clippy::cast_possible_truncation)]
    fn set_op(&mut self, op: Opcode) {
        self.tag = self.tag & !PHANTOM_OP | op.index() as u8;
    }

    /// The issued opcode's dense index, `None` for a phantom issue.
    #[must_use]
    pub fn op(&self) -> Option<usize> {
        let op = self.tag & PHANTOM_OP;
        (op != PHANTOM_OP).then_some(usize::from(op))
    }

    /// The hardware thread that issued.
    #[must_use]
    pub fn thread(&self) -> usize {
        usize::from(self.tag >> 5)
    }
}

/// Order-free activity accumulated by [`Core::run_local`] over a local
/// span, folded into the machine's [`ActivityCounters`] at the replay
/// barrier. Integer addition is exact and commutative, so per-core
/// batch aggregation is bit-identical to the naive engine's per-cycle
/// charging no matter how lanes interleave.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalCharges {
    /// `core_active_cycles` charged over the span.
    pub active: u64,
    /// `mem_stall_cycles` charged over the span.
    pub mem_stall: u64,
    /// `dual_thread_cycles` charged over the span.
    pub dual: u64,
    /// `drafted_issues` charged over the span.
    pub drafted: u64,
    /// `l1i_accesses` charged over the span.
    pub l1i: u64,
    /// `sb_enqueues` charged over the span.
    pub sb_enqueues: u64,
    /// Per-opcode issue counts (`ActivityCounters::issues`).
    pub issues: [u64; Opcode::COUNT],
    /// Per-opcode occupancy totals
    /// (`ActivityCounters::occupancy_cycles`).
    pub occupancy: [u64; Opcode::COUNT],
}

impl LocalCharges {
    /// Zeroes every field for buffer reuse.
    pub fn clear(&mut self) {
        *self = LocalCharges::default();
    }

    /// Adds `k` more copies of what accrued since `mark`, an earlier
    /// snapshot of these charges: the integer side of replaying a loop
    /// period `k` more times.
    fn repeat_since(&mut self, mark: &LocalCharges, k: u64) {
        let (now, old) = (self.scalars(), mark.scalars());
        self.add_scalars(std::array::from_fn(|i| now[i] - old[i]), k);
        for i in 0..Opcode::COUNT {
            self.issues[i] += k * (self.issues[i] - mark.issues[i]);
            self.occupancy[i] += k * (self.occupancy[i] - mark.occupancy[i]);
        }
    }

    /// The charges other than the per-opcode ones.
    fn scalars(&self) -> [u64; 6] {
        [
            self.active,
            self.mem_stall,
            self.dual,
            self.drafted,
            self.l1i,
            self.sb_enqueues,
        ]
    }

    /// Adds `k` times `delta` to the charges [`LocalCharges::scalars`]
    /// lists.
    fn add_scalars(&mut self, delta: [u64; 6], k: u64) {
        let cur = [
            &mut self.active,
            &mut self.mem_stall,
            &mut self.dual,
            &mut self.drafted,
            &mut self.l1i,
            &mut self.sb_enqueues,
        ];
        for (c, d) in cur.into_iter().zip(delta) {
            *c += k * d;
        }
    }
}

/// One owned-line memory access a [`Core::run_local`] took off the
/// live path, in the order the machine applies them. 24 bytes: the
/// kind rides in the top bits of the cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// [`MemOp::at`] below [`MemOp::KIND_SHIFT`], the kind above.
    at_kind: u64,
    /// The address accessed.
    pub addr: u64,
    /// The value the load read, or the value the drain writes.
    pub value: u64,
}

const _: () = assert!(std::mem::size_of::<MemOp>() == 24);

/// The kind of a [`MemOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOpKind {
    /// An `ldx` that hit the L1.
    Load,
    /// A store-buffer drain to an owned line. `silent` when it writes
    /// the value the lane already saw there, so it changes nothing any
    /// later load of the lane reads.
    Drain {
        /// The drain leaves the lane's view of memory unchanged.
        silent: bool,
    },
}

impl MemOp {
    const KIND_SHIFT: u32 = 62;

    fn new(at: u64, addr: u64, value: u64, kind: MemOpKind) -> Self {
        debug_assert!(at >> Self::KIND_SHIFT == 0, "cycle overflows a MemOp");
        let code = match kind {
            MemOpKind::Load => 0,
            MemOpKind::Drain { silent: true } => 1,
            MemOpKind::Drain { silent: false } => 2,
        };
        Self {
            at_kind: at | code << Self::KIND_SHIFT,
            addr,
            value,
        }
    }

    /// The issue cycle of a load; the start cycle of a drain (the
    /// `now` that [`MemorySystem::store_drain`] takes).
    #[must_use]
    pub fn at(&self) -> u64 {
        self.at_kind & ((1 << Self::KIND_SHIFT) - 1)
    }

    /// What kind of access this is.
    #[must_use]
    pub fn kind(&self) -> MemOpKind {
        match self.at_kind >> Self::KIND_SHIFT {
            0 => MemOpKind::Load,
            1 => MemOpKind::Drain { silent: true },
            _ => MemOpKind::Drain { silent: false },
        }
    }

    /// Whether this is a load.
    #[must_use]
    pub fn is_load(&self) -> bool {
        self.at_kind >> Self::KIND_SHIFT == 0
    }

    /// First cycle at which the live path would make this access: a
    /// load at its issue, a drain at the first step after its start
    /// (what `StoreBuffer::advance` does).
    #[must_use]
    pub fn due(&self) -> u64 {
        self.at() + u64::from(!self.is_load())
    }
}

/// A lane's log of owned accesses over one segment, and the values its
/// logged drains leave behind as the lane sees them. The model has no
/// store-to-load forwarding, so a later load of the lane reads memory
/// overlaid with those drains, which reach memory only when the
/// machine applies them.
#[derive(Debug, Clone, Default)]
pub struct MemLog {
    ops: Vec<MemOp>,
    /// `(word, value)` of the last logged drain to each word.
    overlay: Vec<(u64, u64)>,
    /// What the lane's two-thread runs learned about its loops, kept
    /// from run to run ([`PairCache`]); emptying the log keeps it.
    pair: Option<Box<PairCache>>,
}

impl MemLog {
    /// The logged accesses, in application order.
    #[must_use]
    pub fn ops(&self) -> &[MemOp] {
        &self.ops
    }

    /// Empties the log for buffer reuse.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.overlay.clear();
    }

    /// Drops every access from `len` on.
    pub fn truncate(&mut self, len: usize) {
        self.ops.truncate(len);
        self.overlay.clear();
        for i in 0..self.ops.len() {
            let op = self.ops[i];
            if !op.is_load() {
                self.note_drain(op.addr, op.value);
            }
        }
    }

    /// The value the lane reads at `addr`.
    fn view(&self, memsys: &MemorySystem, addr: u64) -> u64 {
        let word = addr >> 3;
        self.overlay
            .iter()
            .find(|&&(w, _)| w == word)
            .map_or_else(|| memsys.peek_mem(addr), |&(_, v)| v)
    }

    fn note_drain(&mut self, addr: u64, value: u64) {
        let word = addr >> 3;
        match self.overlay.iter_mut().find(|(w, _)| *w == word) {
            Some(slot) => slot.1 = value,
            None => self.overlay.push((word, value)),
        }
    }
}

/// Accesses one local run may log. A run that would log more stops
/// there and goes live, so a lane's log stays a few kilobytes however
/// long its segment.
const LOG_CAP: usize = 160;

/// The memory side of a [`Core::run_local`]: the memory system it may
/// read and the lane's [`MemLog`] it writes.
///
/// A *recording* run checks each access against the memory system and
/// logs it. A *redo* run re-executes a rewound lane: it takes the
/// accesses from the log, never from the memory system, which has moved
/// on since they were logged, and goes no further than the one whose
/// check failed.
pub struct LocalMem<'a> {
    memsys: &'a MemorySystem,
    log: &'a mut MemLog,
    /// Recording only: where the run saves its state just before it
    /// could first log an access, until it has.
    mark: Option<&'a mut RunMark>,
    /// Next access index; the log's length while recording.
    pos: usize,
    /// Redo only: the failing access, which the run must not take.
    stop: Option<usize>,
    /// Redo only: `stop` is a drain, so the store buffer holds from
    /// here on.
    held: bool,
    /// Drains logged so far that changed the lane's view of memory.
    loud: u64,
}

impl<'a> LocalMem<'a> {
    /// A recording run appending to `log`. Before it first logs an
    /// access, the run saves into `mark` the point a redo restarts
    /// from.
    pub fn record(memsys: &'a MemorySystem, log: &'a mut MemLog, mark: &'a mut RunMark) -> Self {
        let pos = log.ops.len();
        Self {
            memsys,
            log,
            mark: Some(mark),
            pos,
            stop: None,
            held: false,
            loud: 0,
        }
    }

    /// A redo run taking the accesses `from..stop` of `log`.
    pub fn redo(memsys: &'a MemorySystem, log: &'a mut MemLog, from: usize, stop: usize) -> Self {
        debug_assert!(from <= stop && stop <= log.ops.len());
        Self {
            memsys,
            log,
            mark: None,
            pos: from,
            stop: Some(stop),
            held: false,
            loud: 0,
        }
    }

    /// Saves the run's state at the top of its cycle `now` into the
    /// mark, if this run has not yet: `threads` are the running
    /// threads' contexts, `last` the `(next_thread, last_issue)` pair.
    #[allow(clippy::too_many_arguments)]
    fn mark(
        &mut self,
        now: u64,
        threads: &[(usize, ThreadMark)],
        sb: &StoreBuffer,
        last: (usize, Option<(usize, usize, Opcode)>),
        charges: &LocalCharges,
        records: usize,
    ) {
        if let Some(m) = self.mark.take() {
            let c = &mut m.core;
            c.threads.clear();
            c.threads.extend_from_slice(threads);
            c.entries.clear();
            c.entries.extend(sb.entries.iter().copied());
            c.drain_free_at = sb.drain_free_at;
            (c.next_thread, c.last_issue) = last;
            m.charges = *charges;
            m.records = records;
            m.ops = self.pos;
            m.from = now;
        }
    }

    /// Whether the run can take an `ldx` of `addr` off the live path:
    /// it hits the L1 on a line the L1.5 owns (a redo: it comes before
    /// the failing access).
    fn takes_load(&self, tile: TileId, addr: u64) -> bool {
        match self.stop {
            Some(stop) => self.pos < stop,
            None => {
                self.has_room() && self.memsys.owns(tile, addr) && self.memsys.l1_holds(tile, addr)
            }
        }
    }

    /// Whether a recording run may log another access.
    fn has_room(&self) -> bool {
        self.log.ops.len() < LOG_CAP
    }

    /// Takes an `ldx` of `addr` issued at `now` that
    /// [`LocalMem::takes_load`] admitted, and returns its value.
    fn load(&mut self, addr: u64, now: u64) -> u64 {
        if self.stop.is_some() {
            let op = self.log.ops[self.pos];
            debug_assert!(op.is_load() && op.addr == addr && op.at() == now);
            self.pos += 1;
            return op.value;
        }
        let value = self.log.view(self.memsys, addr);
        self.log
            .ops
            .push(MemOp::new(now, addr, value, MemOpKind::Load));
        self.pos += 1;
        value
    }

    /// Whether the run can take a drain to `addr` off the live path:
    /// the L1.5 owns its line (a redo: it comes before the failing
    /// access).
    fn takes_drain(&self, tile: TileId, addr: u64) -> bool {
        match self.stop {
            Some(stop) => self.pos < stop,
            None => self.has_room() && self.memsys.owns(tile, addr),
        }
    }

    /// A drain of `value` to `addr` starting at `start`: whether it was
    /// taken. A redo that reaches its failing drain holds the buffer
    /// instead.
    fn drain(&mut self, tile: TileId, addr: u64, value: u64, start: u64) -> bool {
        if let Some(stop) = self.stop {
            if self.pos == stop {
                self.held = true;
                return false;
            }
            debug_assert!({
                let op = self.log.ops[self.pos];
                !op.is_load() && op.addr == addr && op.at() == start
            });
            self.pos += 1;
            return true;
        }
        if !self.takes_drain(tile, addr) {
            return false;
        }
        let silent = self.log.view(self.memsys, addr) == value;
        self.loud += u64::from(!silent);
        self.log.note_drain(addr, value);
        self.log
            .ops
            .push(MemOp::new(start, addr, value, MemOpKind::Drain { silent }));
        self.pos += 1;
        true
    }

    /// Logs again a load an earlier iteration of the run logged: same
    /// address, and the same value while no drain has changed memory
    /// since.
    fn relog_load(&mut self, now: u64, addr: u64, value: u64) {
        debug_assert!(self.stop.is_none(), "relog_load in a redo");
        self.log
            .ops
            .push(MemOp::new(now, addr, value, MemOpKind::Load));
        self.pos += 1;
    }

    /// Logs `k` copies of a [`PairCycle`]'s accesses, the `j`-th
    /// shifted to start `j * period` cycles after `base`, and returns
    /// the largest `k` the log allows ([`LOG_CAP`]).
    fn append_cycle(&mut self, ops: &[MemOp], base: u64, k: u64, period: u64) -> u64 {
        debug_assert!(self.stop.is_none(), "append_cycle in a redo");
        let k = if ops.is_empty() {
            k
        } else {
            k.min(LOG_CAP.saturating_sub(self.log.ops.len()) as u64 / ops.len() as u64)
        };
        for j in 0..k {
            let shift = base + j * period;
            self.log.ops.extend(ops.iter().map(|op| MemOp {
                at_kind: op.at_kind + shift,
                ..*op
            }));
        }
        self.pos = self.log.ops.len();
        k
    }

    /// Logs `k` more copies of the accesses `body`, the `j`-th shifted
    /// `j * period` cycles later (a redo steps over them instead).
    /// Returns the largest `k` the log allows: a redo never replays
    /// past its failing access, a recording never past [`LOG_CAP`].
    fn repeat(&mut self, body: std::ops::Range<usize>, k: u64, period: u64) -> u64 {
        let n = body.len() as u64;
        if n == 0 {
            return k;
        }
        if let Some(stop) = self.stop {
            let k = k.min((stop - self.pos) as u64 / n);
            self.pos += (k * n) as usize;
            return k;
        }
        let k = k.min(LOG_CAP.saturating_sub(self.log.ops.len()) as u64 / n);
        for j in 1..=k {
            let copy = self.log.ops.len();
            self.log.ops.extend_from_within(body.clone());
            for op in &mut self.log.ops[copy..] {
                op.at_kind += j * period;
            }
        }
        self.pos = self.log.ops.len();
        k
    }
}

/// Consecutive loop heads that may fail to recur before a
/// [`Core::run_local`] stops looking for a period: a loop whose
/// registers change every iteration (a countdown) never recurs, and the
/// lookup is not free.
const HEAD_MISSES: u32 = 8;

/// Where a [`Core::run_local`] loop last took a backward branch: the
/// loop's `state` there — everything its next iteration depends on —
/// and what the run had produced by then.
struct LoopHead<S> {
    state: S,
    now: u64,
    records: usize,
    ops: usize,
    charges: LocalCharges,
}

/// A loop's last [`LoopHead`], and how many heads in a row have failed
/// to recur.
struct LoopHeads<S> {
    last: Option<LoopHead<S>>,
    misses: u32,
}

impl<S: PartialEq> LoopHeads<S> {
    fn new() -> Self {
        Self {
            last: None,
            misses: 0,
        }
    }

    /// Whether the loop still looks for a period.
    fn looking(&self) -> bool {
        self.misses < HEAD_MISSES
    }

    /// Steady-state loop replay, called at a taken backward branch with
    /// the loop's `state` at `now`, store buffer empty. A state equal
    /// to the one at the previous call proves the period in between
    /// repeats verbatim, so its records are copied once per whole
    /// period that fits before `end`, each shifted one period later,
    /// and its integer charges are added as many times. The `f64`
    /// activities stay one per record, so the machine still folds them
    /// one by one in naive order. A period's logged accesses repeat with
    /// it when every drain in it is silent: then memory does not change
    /// under the loop, so each load reads the same value again. A
    /// period containing a `membar`, whose occupancy reads the
    /// drain-port clock, or a drain that changes memory is left to the
    /// interpreter.
    ///
    /// Returns the cycles replayed (zero if none) and remembers `state`.
    #[allow(clippy::cast_possible_truncation, clippy::too_many_arguments)]
    fn replay(
        &mut self,
        state: S,
        now: u64,
        end: u64,
        records: &mut Vec<IssueRecord>,
        charges: &mut LocalCharges,
        mem: &mut LocalMem<'_>,
        sb: &mut StoreBuffer,
    ) -> u64 {
        let mut replayed = 0;
        match self.last.as_ref().filter(|h| h.state == state) {
            None => self.misses += 1,
            Some(h) => {
                self.misses = 0;
                let period = now - h.now;
                let membar = Opcode::Membar.index();
                let ops = h.ops..mem.pos;
                let body = &mem.log.ops[ops.clone()];
                let drains = body.iter().any(|op| !op.is_load());
                let repeats = charges.issues[membar] == h.charges.issues[membar]
                    && body
                        .iter()
                        .all(|op| op.kind() != MemOpKind::Drain { silent: false });
                let k = if repeats {
                    mem.repeat(ops, (end - now) / period, period)
                } else {
                    0
                };
                if k > 0 {
                    let body = h.records..records.len();
                    for j in 1..=k {
                        let copy = records.len();
                        records.extend_from_within(body.clone());
                        let shift = (j * period) as u16;
                        for r in &mut records[copy..] {
                            r.offset += shift;
                        }
                    }
                    charges.repeat_since(&h.charges, k);
                    replayed = k * period;
                    if drains {
                        // The last drain moved on with the copies.
                        sb.drain_free_at += replayed;
                    }
                }
            }
        }
        self.last = Some(LoopHead {
            state,
            now: now + replayed,
            records: records.len(),
            ops: mem.pos,
            charges: *charges,
        });
        replayed
    }
}

/// One issue of a [`ThreadLoop`] iteration: everything about it that
/// does not depend on when it issues.
#[derive(Debug, Clone, Copy)]
struct LoopStep {
    pc: usize,
    op: Opcode,
    occupancy: u64,
    wait: WaitKind,
    /// Operand activity code.
    activity: u8,
    access: LoopAccess,
}

/// The memory side of a [`LoopStep`].
#[derive(Debug, Clone, Copy)]
enum LoopAccess {
    None,
    Load { addr: u64, value: u64 },
    Store { addr: u64, value: u64 },
}

/// One thread's steady loop inside a [`Core::run_local`] pair: the
/// issues of one iteration, recorded from a taken backward branch to
/// the next, and proven to repeat when the thread comes back to the
/// same `pc` with the same registers while memory has not changed under
/// it. Two threads whose loops differ in length recur *together* only
/// after hundreds of cycles (HP's compute and mixed kinds), but each
/// thread's own loop repeats every iteration: the pair then issues from
/// both loops' steps, and only the schedule between them — which thread
/// issues when, and the charges that depend on it — is computed cycle
/// by cycle.
#[derive(Debug, Clone, Default)]
struct ThreadLoop {
    /// The iteration's top: its `pc`, the registers there and the
    /// run's loud-drain count when it was reached.
    head: Option<(usize, [u64; Reg::COUNT], u64)>,
    steps: Vec<LoopStep>,
    /// Nothing in the recording so far depends on timing (`membar`).
    clean: bool,
    /// The recording is a whole iteration that repeats.
    proven: bool,
}

impl ThreadLoop {
    /// Records one issue of the thread while an iteration is being
    /// recorded.
    fn record(&mut self, step: LoopStep) {
        if self.head.is_some() && !self.proven {
            self.clean &= step.op != Opcode::Membar;
            self.steps.push(step);
        }
    }

    /// The thread took a backward branch to `pc` with `regs`: proves
    /// the recorded iteration if it ends where it began, or starts
    /// recording a new one.
    fn branch(&mut self, pc: usize, regs: &[u64; Reg::COUNT], loud: u64) {
        let repeats = self.clean
            && self
                .head
                .as_ref()
                .is_some_and(|(p, r, l)| *p == pc && r == regs && *l == loud);
        if repeats {
            self.proven = true;
        } else {
            self.head = Some((pc, *regs, loud));
            self.steps.clear();
            self.clean = true;
            self.proven = false;
        }
    }

    /// Forgets the recording, keeping its buffer.
    fn reset(&mut self) {
        self.head = None;
        self.steps.clear();
        self.clean = false;
        self.proven = false;
    }

    /// Position in the iteration of the step at `pc`.
    fn position(&self, pc: usize) -> Option<usize> {
        self.steps.iter().position(|s| s.pc == pc)
    }

    /// Whether `thread` stands where this proven loop puts a thread at
    /// its `pc`: the registers there are the ones the loop's steps
    /// would leave.
    fn holds(&self, thread: &Thread, code: &[Instruction]) -> bool {
        let Some(at) = self.position(thread.pc).filter(|_| self.proven) else {
            return false;
        };
        let mut probe = Thread::new();
        self.restore(&mut probe, code, at);
        probe.regs == thread.regs
    }

    /// Sets `thread`'s registers to where `steps[..at]` of an iteration
    /// leave them — the registers at the top, then the register effect
    /// of each step — and returns the `pc` of the next step.
    fn restore(&self, thread: &mut Thread, code: &[Instruction], at: usize) -> usize {
        let (top, regs, _) = self.head.expect("a proven loop has a head");
        thread.regs = regs;
        for step in &self.steps[..at] {
            let instr = &code[step.pc];
            match (instr.opcode, step.access) {
                (Opcode::Ldx, LoopAccess::Load { value, .. }) => thread.write(instr.rd, value),
                (Opcode::Stx | Opcode::Membar, _) => {}
                _ => {
                    thread.execute_local(instr);
                }
            }
        }
        self.steps.get(at).map_or(top, |s| s.pc)
    }
}

/// Store-buffer entries a [`PairPhase`] can hold.
const PHASE_ENTRIES: usize = 4;

/// The state of a pair running from two proven [`ThreadLoop`]s, at the
/// top of a cycle, relative to that cycle: where each thread is in its
/// loop (which fixes its registers), how long each stays occupied and
/// on what, the round-robin pointer, the last issue (drafting), and the
/// store buffer. Two cycles with equal phases issue the same schedule
/// from there on, so the span between them repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PairPhase {
    cursor: [usize; 2],
    ahead: [u64; 2],
    wait: [WaitKind; 2],
    next: usize,
    last: Option<(usize, usize, Opcode)>,
    free: u64,
    entries: [(u64, u64, u64); PHASE_ENTRIES],
}

impl PairPhase {
    /// The phase at the top of cycle `now`, or `None` when the store
    /// buffer holds more than [`PHASE_ENTRIES`] entries.
    fn of(
        cursor: [usize; 2],
        busy: [u64; 2],
        wait: [WaitKind; 2],
        next: usize,
        last: Option<(usize, usize, Opcode)>,
        sb: &StoreBuffer,
        now: u64,
    ) -> Option<Self> {
        if sb.entries.len() > PHASE_ENTRIES {
            return None;
        }
        // Unused slots read as an entry enqueued at `now + 1`, which no
        // real entry can be.
        let mut entries = [(0, 0, u64::MAX); PHASE_ENTRIES];
        for (slot, e) in entries.iter_mut().zip(&sb.entries) {
            *slot = (e.addr, e.value, now - e.enqueued_at);
        }
        Some(Self {
            cursor,
            ahead: busy.map(|b| b.saturating_sub(now)),
            wait,
            next,
            last,
            free: sb.drain_free_at.saturating_sub(now),
            entries,
        })
    }
}

/// What a two-thread lane's runs learn about its loops, kept from one
/// local run to the next so that a later run need not prove them
/// again: each thread's proven loop, and a schedule period found by an
/// earlier run, which a later run replays as soon as the pair comes
/// round to its phase. Any use is checked first: a thread must stand
/// where its loop says (`pc` and registers), and every access replayed
/// from the period is still checked by the machine at its turn.
#[derive(Debug, Clone, Default)]
pub struct PairCache {
    /// The threads' programs the loops were recorded from.
    programs: Option<[Arc<Program>; 2]>,
    loops: [ThreadLoop; 2],
    cycle: Option<PairCycle>,
}

/// One period of a pair's schedule, from a [`PairPhase`] back to it.
#[derive(Debug, Clone)]
struct PairCycle {
    phase: PairPhase,
    period: u64,
    /// The period's records, offsets counted from its start.
    records: Vec<IssueRecord>,
    /// The period's logged accesses, cycles counted from its start.
    ops: Vec<MemOp>,
    /// What [`LocalCharges::scalars`] gained over the period.
    scalars: [u64; 6],
    /// Issues of each thread over the period: whole iterations.
    issued: [u64; 2],
    /// The period drains stores (the drain port moves with it).
    drains: bool,
}

impl PairCycle {
    /// The period between two rounds of a run with equal phases, `h`
    /// and `at`, whose `body` (records, accesses) lies in between.
    #[allow(clippy::cast_possible_truncation)]
    fn between(
        phase: PairPhase,
        h: &PairMark,
        at: &PairMark,
        origin: u64,
        body: (&[IssueRecord], &[MemOp]),
    ) -> Self {
        let base = (h.now - origin) as u16;
        Self {
            phase,
            period: at.now - h.now,
            records: body
                .0
                .iter()
                .map(|r| IssueRecord {
                    offset: r.offset - base,
                    ..*r
                })
                .collect(),
            ops: body
                .1
                .iter()
                .map(|op| MemOp {
                    at_kind: op.at_kind - h.now,
                    ..*op
                })
                .collect(),
            scalars: std::array::from_fn(|i| at.scalars[i] - h.scalars[i]),
            issued: [at.retired[0] - h.retired[0], at.retired[1] - h.retired[1]],
            drains: body.1.iter().any(|op| !op.is_load()),
        }
    }

    /// Replays up to `k` periods from cycle `now` (offsets from
    /// `origin`): their records, accesses and charges, each thread
    /// running whole iterations of its loop in `loops`. Returns the
    /// cycles replayed, zero when the log has no room for a period.
    #[allow(clippy::cast_possible_truncation, clippy::too_many_arguments)]
    fn replay(
        &self,
        loops: &[ThreadLoop; 2],
        k: u64,
        (now, origin): (u64, u64),
        mem: &mut LocalMem<'_>,
        records: &mut Vec<IssueRecord>,
        charges: &mut LocalCharges,
        retired: &mut [u64; 2],
    ) -> u64 {
        let k = mem.append_cycle(&self.ops, now, k, self.period);
        for j in 0..k {
            let base = (now - origin + j * self.period) as u16;
            records.extend(self.records.iter().map(|r| IssueRecord {
                offset: base + r.offset,
                ..*r
            }));
        }
        charges.add_scalars(self.scalars, k);
        for ((l, &issued), done) in loops.iter().zip(&self.issued).zip(retired) {
            let turns = k * issued / l.steps.len() as u64;
            for step in &l.steps {
                charges.issues[step.op.index()] += turns;
                charges.occupancy[step.op.index()] += turns * step.occupancy;
            }
            *done += k * issued;
        }
        k * self.period
    }
}

/// What a pair run had produced when it reached a [`PairPhase`].
struct PairMark {
    now: u64,
    records: usize,
    ops: usize,
    /// [`LocalCharges::scalars`] then.
    scalars: [u64; 6],
    retired: [u64; 2],
}

/// Execution state of one hardware thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// No program loaded.
    Idle,
    /// Executing.
    Running,
    /// Executed `halt`.
    Halted,
}

/// What a thread's current occupancy (`busy_until`) is waiting on.
///
/// [`ActivityCounters::mem_stall_cycles`] charges only memory-system
/// waits, so every site that sets `busy_until` must record why: a
/// divide's execute occupancy or a store-buffer roll-back holds the
/// thread just as long, but is not a memory stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// Pipeline occupancy of a non-memory instruction (ALU, FPU,
    /// branch, nop).
    Execute,
    /// A memory-system round trip (load or atomic).
    Memory,
    /// The store buffer: a roll-back penalty or a `membar` drain wait.
    StoreDrain,
}

/// One hardware thread context.
#[derive(Debug, Clone)]
struct Thread {
    regs: [u64; Reg::COUNT],
    pc: usize,
    busy_until: u64,
    /// Why the thread is occupied until `busy_until`.
    wait: WaitKind,
    state: ThreadState,
    program: Option<Arc<Program>>,
    /// Retired instruction count (for IPC / progress measurements).
    retired: u64,
}

impl Thread {
    fn new() -> Self {
        Self {
            regs: [0; Reg::COUNT],
            pc: 0,
            busy_until: 0,
            wait: WaitKind::Execute,
            state: ThreadState::Idle,
            program: None,
            retired: 0,
        }
    }

    /// Whether the thread is running but held by a memory-system wait
    /// at `now`.
    fn memory_waiting(&self, now: u64) -> bool {
        self.state == ThreadState::Running && self.busy_until > now && self.wait == WaitKind::Memory
    }

    fn read(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    fn write(&mut self, r: Reg, v: u64) {
        if r != Reg::G0 {
            self.regs[r.index()] = v;
        }
    }

    /// Executes a *register-only* instruction (nop, `movi`, integer
    /// ALU, FP, branch) against this thread's register file and returns
    /// its unclamped operand activity plus the branch target when a
    /// branch is taken. Such an instruction always occupies the thread
    /// for `base_latency()` cycles.
    ///
    /// The one copy of these semantics: the live issue path and both
    /// local run-ahead loops call it, each keeping only its own
    /// scheduling bookkeeping and its memory/store/membar/halt arms.
    #[inline(always)]
    fn execute_local(&mut self, instr: &Instruction) -> (u8, Option<usize>) {
        let op = instr.opcode;
        match op {
            Opcode::Nop => (0, None),
            Opcode::Movi => {
                self.write(instr.rd, instr.imm as u64);
                (0, None)
            }
            Opcode::And | Opcode::Add | Opcode::Sub | Opcode::Mulx | Opcode::Sdivx => {
                let a = self.read(instr.rs1);
                let b = self.read(instr.rs2);
                let r = match op {
                    Opcode::And => a & b,
                    Opcode::Add => a.wrapping_add(b),
                    Opcode::Sub => a.wrapping_sub(b),
                    Opcode::Mulx => a.wrapping_mul(b),
                    Opcode::Sdivx => {
                        if b == 0 {
                            u64::MAX
                        } else {
                            ((a as i64).wrapping_div(b as i64)) as u64
                        }
                    }
                    _ => unreachable!(),
                };
                self.write(instr.rd, r);
                (datapath_activity_code(a, b, r), None)
            }
            Opcode::Faddd | Opcode::Fmuld | Opcode::Fdivd => {
                let a = f64::from_bits(self.read(instr.rs1));
                let b = f64::from_bits(self.read(instr.rs2));
                let r = match op {
                    Opcode::Faddd => a + b,
                    Opcode::Fmuld => a * b,
                    Opcode::Fdivd => a / b,
                    _ => unreachable!(),
                };
                let bits = r.to_bits();
                self.write(instr.rd, bits);
                (datapath_activity_code(a.to_bits(), b.to_bits(), bits), None)
            }
            Opcode::Fadds | Opcode::Fmuls | Opcode::Fdivs => {
                let a = f32::from_bits(self.read(instr.rs1) as u32);
                let b = f32::from_bits(self.read(instr.rs2) as u32);
                let r = match op {
                    Opcode::Fadds => a + b,
                    Opcode::Fmuls => a * b,
                    Opcode::Fdivs => a / b,
                    _ => unreachable!(),
                };
                let bits = u64::from(r.to_bits());
                self.write(instr.rd, bits);
                let activity =
                    datapath_activity_code(u64::from(a.to_bits()), u64::from(b.to_bits()), bits);
                (activity, None)
            }
            Opcode::Beq | Opcode::Bne => {
                let a = self.read(instr.rs1);
                let b = self.read(instr.rs2);
                let taken = (op == Opcode::Beq) == (a == b);
                (
                    datapath_activity_code(a, b, u64::from(taken)),
                    taken.then(|| instr.branch_target()),
                )
            }
            Opcode::Ldx | Opcode::Stx | Opcode::Casx | Opcode::Membar | Opcode::Halt => {
                unreachable!("not a register-only instruction")
            }
        }
    }
}

/// Emits the `Retire` trace event of one issue. The event allocates
/// (it carries the opcode's name), so call sites gate on
/// `trace::wants(SUB_RETIRE)`.
#[cold]
pub(crate) fn emit_retire(cycle: u64, tile: TileId, thread: usize, op: Opcode, pc: u64) {
    trace::emit(TraceEvent::Retire {
        cycle,
        tile: tile.index() as u32,
        thread: thread as u32,
        op: format!("{op:?}"),
        pc,
    });
}

/// One pending store-buffer entry.
#[derive(Debug, Clone, Copy)]
struct StoreEntry {
    addr: u64,
    value: u64,
    enqueued_at: u64,
}

/// The per-core eight-entry store buffer, drained serially to the L1.5.
#[derive(Debug, Clone)]
struct StoreBuffer {
    entries: VecDeque<StoreEntry>,
    capacity: usize,
    /// Cycle at which the drain port is next free.
    drain_free_at: u64,
}

impl StoreBuffer {
    fn new(capacity: usize) -> Self {
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            drain_free_at: 0,
        }
    }

    /// Retires every entry whose drain completes by `now`.
    fn advance(
        &mut self,
        tile: TileId,
        now: u64,
        memsys: &mut MemorySystem,
        act: &mut ActivityCounters,
    ) {
        while let Some(head) = self.entries.front().copied() {
            let start = self.drain_free_at.max(head.enqueued_at);
            if start >= now {
                break;
            }
            let latency = memsys.store_drain(tile, head.addr, head.value, start, act);
            let done = start + latency;
            if done > now {
                // Commit the drain (it is in flight) but keep the slot
                // occupied until it completes.
                self.drain_free_at = done;
                self.entries.pop_front();
                // Occupancy is approximated by the port-busy time; the
                // next entry cannot start before `done`.
                break;
            }
            self.drain_free_at = done;
            self.entries.pop_front();
        }
    }

    /// [`StoreBuffer::advance`] for a local run: takes every drain that
    /// starts before `now` through `mem` instead of the memory system.
    /// Returns `false` when the head drain must reach the memory system
    /// live (its line is not owned); a redo that reaches its failing
    /// drain holds the buffer instead.
    fn drain_local(&mut self, tile: TileId, now: u64, mem: &mut LocalMem<'_>) -> bool {
        while let Some(head) = self.entries.front().copied() {
            let start = self.drain_free_at.max(head.enqueued_at);
            if start >= now || mem.held {
                break;
            }
            if !mem.drain(tile, head.addr, head.value, start) {
                return mem.held;
            }
            self.drain_free_at = start + STORE_DRAIN_CYCLES;
            self.entries.pop_front();
        }
        true
    }

    /// The address of the head drain if it starts before `now` and the
    /// buffer is not held: [`StoreBuffer::drain_local`] has work.
    fn due_head(&self, now: u64, mem: &LocalMem<'_>) -> Option<u64> {
        let head = self.entries.front().filter(|_| !mem.held)?;
        (self.drain_free_at.max(head.enqueued_at) < now).then_some(head.addr)
    }

    /// The next cycle at which [`StoreBuffer::drain_local`] has work: a
    /// local run's stall spans end there.
    fn next_local_drain(&self, mem: &LocalMem<'_>) -> u64 {
        match self.entries.front() {
            Some(head) if !mem.held => self.drain_free_at.max(head.enqueued_at) + 1,
            _ => u64::MAX,
        }
    }

    fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    fn push(&mut self, addr: u64, value: u64, now: u64) {
        debug_assert!(!self.is_full());
        self.entries.push_back(StoreEntry {
            addr,
            value,
            enqueued_at: now,
        });
    }

    /// Earliest cycle by which all current entries will have drained
    /// (used by `membar`). A loose upper bound is fine.
    fn drained_by(&self, now: u64) -> u64 {
        let mut t = self.drain_free_at.max(now);
        for e in &self.entries {
            t = t.max(e.enqueued_at) + crate::memsys::STORE_DRAIN_CYCLES;
        }
        t
    }
}

/// The per-thread part of a [`CoreMark`]: a [`Thread`] without its
/// program, which a local run never changes.
#[derive(Debug, Clone, Copy)]
struct ThreadMark {
    regs: [u64; Reg::COUNT],
    pc: usize,
    busy_until: u64,
    wait: WaitKind,
    state: ThreadState,
    retired: u64,
}

/// The part of a [`Core`] a local run changes, as it stood at one of
/// the run's cycles.
#[derive(Debug, Clone, Default)]
struct CoreMark {
    /// The running threads, by index; the others do not change.
    threads: Vec<(usize, ThreadMark)>,
    entries: Vec<StoreEntry>,
    drain_free_at: u64,
    next_thread: usize,
    last_issue: Option<(usize, usize, Opcode)>,
}

/// Where a recording [`Core::run_local`] stood just before it could
/// first log an access: the point a rewound lane restores
/// ([`Core::restore`]) and redoes the run from.
#[derive(Debug, Clone, Default)]
pub struct RunMark {
    core: CoreMark,
    /// The lane's charges, record count and log length then.
    pub(crate) charges: LocalCharges,
    pub(crate) records: usize,
    pub(crate) ops: usize,
    /// The cycle the redo starts at.
    pub(crate) from: u64,
}

/// One Piton core: two hardware threads, a store buffer, and issue logic.
#[derive(Debug, Clone)]
pub struct Core {
    tile: TileId,
    threads: Vec<Thread>,
    store_buffer: StoreBuffer,
    /// Round-robin pointer for fine-grained thread selection.
    next_thread: usize,
    /// `(thread, pc, opcode)` of the previous issue — Execution
    /// Drafting (§II) lets the next thread reuse the front-end work
    /// when it issues the same instruction from the same PC.
    last_issue: Option<(usize, usize, Opcode)>,
    /// Whether the core is fused on. The paper ran chips with faulty
    /// cores as 24-core parts: the core is disabled but its tile's
    /// router keeps forwarding, which is exactly what a disabled `Core`
    /// does (the NoC lives in the memory system, not here).
    enabled: bool,
}

impl Core {
    /// Creates an idle core on `tile` with `threads_per_core` contexts
    /// and a store buffer of `sb_entries`.
    #[must_use]
    pub fn new(tile: TileId, threads_per_core: usize, sb_entries: usize) -> Self {
        Self {
            tile,
            threads: (0..threads_per_core).map(|_| Thread::new()).collect(),
            store_buffer: StoreBuffer::new(sb_entries),
            next_thread: 0,
            last_issue: None,
            enabled: true,
        }
    }

    /// The tile this core lives on.
    #[must_use]
    pub fn tile(&self) -> TileId {
        self.tile
    }

    /// Whether the core is fused on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Fuses the core on or off. Disabling resets every thread to idle
    /// and empties the store buffer — fused-off silicon holds no state —
    /// so a disabled core contributes zero activity from this cycle on.
    pub fn set_enabled(&mut self, enabled: bool) {
        if !enabled {
            for t in &mut self.threads {
                *t = Thread::new();
            }
            self.store_buffer = StoreBuffer::new(self.store_buffer.capacity);
            self.next_thread = 0;
            self.last_issue = None;
        }
        self.enabled = enabled;
    }

    /// Loads a program onto a hardware thread and marks it runnable.
    /// Silently ignored on a fused-off core, matching the real bench:
    /// software simply cannot target a disabled core.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn load_thread(&mut self, thread: usize, program: Arc<Program>) {
        assert!(thread < self.threads.len(), "thread index out of range");
        if !self.enabled {
            return;
        }
        let t = &mut self.threads[thread];
        *t = Thread::new();
        t.program = Some(program);
        t.state = ThreadState::Running;
    }

    /// State of a hardware thread.
    #[must_use]
    pub fn thread_state(&self, thread: usize) -> ThreadState {
        self.threads[thread].state
    }

    /// Whether any thread is still running.
    #[must_use]
    pub fn any_running(&self) -> bool {
        self.threads.iter().any(|t| t.state == ThreadState::Running)
    }

    /// Total instructions retired by all threads.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.threads.iter().map(|t| t.retired).sum()
    }

    /// Register value of a thread (test inspection).
    #[must_use]
    pub fn reg(&self, thread: usize, r: Reg) -> u64 {
        self.threads[thread].read(r)
    }

    /// The earliest cycle at which this core can next issue, or `None`
    /// when no thread is running (lets the machine skip dead cycles).
    #[must_use]
    pub fn next_ready_at(&self) -> Option<u64> {
        self.threads
            .iter()
            .filter(|t| t.state == ThreadState::Running)
            .map(|t| t.busy_until)
            .min()
    }

    /// Whether the store buffer still holds entries to drain. The
    /// dense engine must keep polling such a core every cycle —
    /// even when no thread can issue — so its background drains reach
    /// the memory system at the same cycles, in the same core order, as
    /// under per-cycle polling.
    #[must_use]
    pub fn has_pending_stores(&self) -> bool {
        !self.store_buffer.entries.is_empty()
    }

    /// Whether a local run could take the store buffer's next drain:
    /// the buffer is empty or its head's line is owned. A run whose
    /// head drain must go live stops within a few cycles, so the
    /// machine keeps such a core on the live path instead.
    #[must_use]
    pub fn drains_locally(&self, memsys: &MemorySystem) -> bool {
        self.store_buffer
            .entries
            .front()
            .is_none_or(|e| memsys.owns(self.tile, e.addr))
    }

    /// Number of running threads held by a memory-system wait at `now`
    /// (the machine's fast-forward path charges these per skipped
    /// cycle).
    #[must_use]
    pub fn memory_waiting_threads(&self, now: u64) -> u64 {
        self.threads
            .iter()
            .filter(|t| t.memory_waiting(now))
            .count() as u64
    }

    /// Advances the core by one cycle: drain the store buffer, pick a
    /// ready thread round-robin, and issue its next instruction.
    ///
    /// Returns `true` if an instruction issued this cycle.
    pub fn step(
        &mut self,
        now: u64,
        memsys: &mut MemorySystem,
        act: &mut ActivityCounters,
    ) -> bool {
        if !self.enabled {
            return false;
        }
        self.store_buffer.advance(self.tile, now, memsys, act);

        if !self.any_running() {
            return false;
        }
        act.core_active_cycles += 1;
        // Memory stalls are charged per thread-cycle actually spent
        // waiting on the memory system — not for execute occupancy,
        // store-buffer drains or losing the round-robin, and regardless
        // of whether the sibling thread issues this cycle.
        act.mem_stall_cycles += self
            .threads
            .iter()
            .filter(|t| t.memory_waiting(now))
            .count() as u64;
        let dual = self
            .threads
            .iter()
            .filter(|t| t.state == ThreadState::Running)
            .count()
            >= 2;

        let n = self.threads.len();
        let mut chosen = None;
        for k in 0..n {
            let idx = (self.next_thread + k) % n;
            let t = &self.threads[idx];
            if t.state == ThreadState::Running && t.busy_until <= now {
                chosen = Some(idx);
                break;
            }
        }
        let Some(idx) = chosen else {
            return false;
        };
        self.next_thread = (idx + 1) % n;
        if dual {
            // Thread-switching overhead is paid when the dual-threaded
            // front end actually issues (§IV-H2).
            act.dual_thread_cycles += 1;
        }
        // Execution Drafting (§II): if this thread issues the same
        // instruction from the same PC the other thread just issued,
        // the shared front end drafts it.
        let t = &self.threads[idx];
        let here = t
            .program
            .as_ref()
            .and_then(|p| p.instructions.get(t.pc))
            .map(|i| (idx, t.pc, i.opcode));
        if let (Some((prev_t, prev_pc, prev_op)), Some((_, pc, op))) = (self.last_issue, here) {
            if prev_t != idx && prev_pc == pc && prev_op == op {
                act.drafted_issues += 1;
            }
        }
        self.last_issue = here;
        self.issue(idx, now, memsys, act);
        true
    }

    /// Batch-steps this core over `[start, end)` while its cycles stay
    /// *local* — touching only its own threads, registers and store
    /// buffer, and reading, never changing, the shared memory system —
    /// and returns the first cycle it could not cover (its *horizon*).
    ///
    /// Order-free integer charges accrue into `charges`; each issue
    /// appends an [`IssueRecord`] to `records`, its offset counted from
    /// `origin`, so the machine can fold the order-sensitive
    /// operand-activity `f64`s, count issuing cycles and emit `Retire`
    /// trace events in the naive engine's global (cycle, core) order.
    /// Each owned access goes into `mem`'s log: an `ldx` that hits the
    /// L1 on a line the L1.5 holds Modified or Exclusive (3 cycles; the
    /// value is memory overlaid with the run's own logged drains), and a
    /// store-buffer drain to such a line (10 cycles), taken when the
    /// buffer would drain it. The machine applies the log through the
    /// real memory system at each access's turn. The run stops
    /// **before** (horizon = that cycle, none of its charges applied):
    ///
    /// * a `casx`, or an `ldx` that is not an owned L1 hit;
    /// * an `stx` that finds the store buffer full (the roll-back);
    /// * a drain to a line the L1.5 does not own, at the first cycle
    ///   after the drain's start;
    /// * an access that would overfill the log ([`LOG_CAP`]);
    ///
    /// and at `end`, or when every thread has halted (horizon = `end`;
    /// remaining cycles charge nothing, exactly like a [`Core::step`] of
    /// a fully-halted core) — unless stores are still buffered, when
    /// the horizon is the cycle after the halt.
    ///
    /// Stall spans are bulk-charged at frozen rates, mirroring the
    /// machine's fast-forward: while no thread can issue, no thread
    /// state changes, so the active/memory-stall rates are constants of
    /// the span.
    ///
    /// One running thread takes `run_local_single`, two take
    /// `run_local_pair`. A core with more than two running
    /// threads (not a Piton shape), or running a program longer than
    /// an [`IssueRecord`] can address, has no local loop: the horizon
    /// is `start` and the machine steps it live.
    ///
    /// The caller must ensure the core is enabled and `[origin, end)`
    /// fits an [`IssueRecord`] offset; `Machine::run_dense_batched`
    /// guards both.
    pub fn run_local(
        &mut self,
        origin: u64,
        start: u64,
        end: u64,
        mem: &mut LocalMem<'_>,
        records: &mut Vec<IssueRecord>,
        charges: &mut LocalCharges,
    ) -> u64 {
        debug_assert!(self.enabled, "run_local on a fused-off core");
        debug_assert!(
            origin <= start && end - origin <= 1 << 16,
            "span overflows the record offset"
        );
        let mut running = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state == ThreadState::Running)
            .map(|(i, _)| i);
        let long = |t: &Thread| {
            t.program
                .as_ref()
                .is_some_and(|p| p.instructions.len() > RECORD_PCS)
        };
        if self.threads.iter().any(long) {
            return start;
        }
        match (running.next(), running.next(), running.next()) {
            (None, _, _) if self.store_buffer.entries.is_empty() => end,
            (Some(only), None, _) if only < RECORD_THREADS => {
                self.run_local_single(only, origin, start, end, mem, records, charges)
            }
            (Some(_), Some(_), None) if self.threads.len() == 2 => {
                self.run_local_pair(origin, start, end, mem, records, charges)
            }
            _ => start,
        }
    }

    /// Ends a redo at `now`, the cycle of its failing access: takes the
    /// logged drains before that access that are due by `now`, which
    /// the machine has already applied at this turn.
    pub fn finish_redo(&mut self, now: u64, mem: &mut LocalMem<'_>) {
        debug_assert!(mem.stop.is_some(), "finish_redo after a recording run");
        self.store_buffer.drain_local(self.tile, now, mem);
        debug_assert_eq!(mem.pos, mem.stop.unwrap_or(mem.pos), "redo left accesses");
    }

    /// Puts logged drains the machine has not applied back at the front
    /// of the store buffer, for the live path to drain. Each goes back
    /// with its start as its enqueue time and the port free at the
    /// first start, which makes every later start, drain and `membar`
    /// wait exactly what it was.
    pub fn unlog_drains(&mut self, ops: &[MemOp]) {
        let sb = &mut self.store_buffer;
        for op in ops.iter().rev() {
            debug_assert!(!op.is_load(), "unapplied load");
            sb.entries.push_front(StoreEntry {
                addr: op.addr,
                value: op.value,
                enqueued_at: op.at(),
            });
        }
        if let Some(first) = ops.first() {
            sb.drain_free_at = first.at();
        }
        debug_assert!(sb.entries.len() <= sb.capacity, "store buffer overfilled");
    }

    /// Restores the state a recording run saved in `mark`.
    pub fn restore(&mut self, mark: &RunMark) {
        let m = &mark.core;
        for &(i, t) in &m.threads {
            let thread = &mut self.threads[i];
            thread.regs = t.regs;
            thread.pc = t.pc;
            thread.busy_until = t.busy_until;
            thread.wait = t.wait;
            thread.state = t.state;
            thread.retired = t.retired;
        }
        self.store_buffer.entries.clear();
        self.store_buffer.entries.extend(m.entries.iter().copied());
        self.store_buffer.drain_free_at = m.drain_free_at;
        self.next_thread = m.next_thread;
        self.last_issue = m.last_issue;
    }

    /// [`Core::run_local`] for exactly one running thread — the shape of
    /// the 1 T/C sweeps (Figures 13/14). The thread's hot state (`pc`,
    /// `busy_until`, wait kind) lives in locals for the whole span and
    /// is flushed once on exit, and the invariants of the single-thread
    /// case delete the per-cycle bookkeeping wholesale: the issuing
    /// thread is never memory-waiting at its own issue cycle, idle and
    /// halted siblings never are, `dual` is statically false, the
    /// round-robin always picks this thread, `next_thread`/`last_issue`
    /// take the same value at every issue (written once at exit), and
    /// only the *first* issue can draft (against a sibling's final
    /// issue from before the span).
    ///
    /// Steady-state loops are replayed, not re-interpreted
    /// ([`LoopHeads::replay`]) at taken backward branches that find the
    /// store buffer empty: the state compared is the head `pc`, the
    /// registers, the occupancy left, its wait kind and how long the
    /// drain port stays busy. Nothing else a local iteration reads can
    /// change, and a replayed period never holds a drafted issue: only
    /// the run's first issue drafts, and it precedes every branch.
    #[allow(
        clippy::cast_possible_truncation,
        clippy::too_many_lines,
        clippy::too_many_arguments
    )]
    fn run_local_single(
        &mut self,
        idx: usize,
        origin: u64,
        start: u64,
        end: u64,
        mem: &mut LocalMem<'_>,
        records: &mut Vec<IssueRecord>,
        charges: &mut LocalCharges,
    ) -> u64 {
        let n = self.threads.len();
        let tile = self.tile;
        let prog = self.threads[idx]
            .program
            .take()
            .expect("running thread has a program");
        let code = &prog.instructions;
        let sb = &mut self.store_buffer;
        let t = &mut self.threads[idx];
        let mut pc = t.pc;
        let mut busy = t.busy_until;
        let mut wait = t.wait;
        let mut retired = 0u64;
        // `Some(v)` once any issue slot was consumed: `last_issue`
        // becomes `v` and `next_thread` advances past `idx`, exactly as
        // the final per-cycle issue would have left them.
        let mut new_last: Option<Option<(usize, usize, Opcode)>> = None;
        let mut first = true;
        let mut heads = LoopHeads::new();
        let mut now = start;
        // Saves the state at the top of cycle `now` before the run's
        // first logged access.
        macro_rules! mark {
            () => {
                if mem.mark.is_some() {
                    let thread = ThreadMark {
                        regs: t.regs,
                        pc,
                        busy_until: busy,
                        wait,
                        state: t.state,
                        retired: t.retired + retired,
                    };
                    let last = match new_last {
                        Some(v) => ((idx + 1) % n, v),
                        None => (self.next_thread, self.last_issue),
                    };
                    mem.mark(now, &[(idx, thread)], sb, last, charges, records.len());
                }
            };
        }
        let horizon = 'run: {
            while now < end {
                if let Some(addr) = sb.due_head(now, mem) {
                    if mem.takes_drain(tile, addr) {
                        mark!();
                    }
                    if !sb.drain_local(tile, now, mem) {
                        break 'run now;
                    }
                }
                if busy > now {
                    // Stall span at frozen rates.
                    let wake = busy.min(end).min(sb.next_local_drain(mem));
                    let span = wake - now;
                    charges.active += span;
                    if wait == WaitKind::Memory {
                        charges.mem_stall += span;
                    }
                    now = wake;
                    continue;
                }
                // After a halt the buffer still drains live.
                let halted = |sb: &StoreBuffer| {
                    if sb.entries.is_empty() {
                        end
                    } else {
                        now + 1
                    }
                };
                let mut record = IssueRecord::new((now - origin) as u16, idx, pc);
                let Some(instr) = code.get(pc) else {
                    // Fell off the end: phantom issue, then every
                    // remaining cycle charges nothing.
                    charges.active += 1;
                    new_last = Some(None);
                    t.state = ThreadState::Halted;
                    records.push(record);
                    break 'run halted(sb);
                };
                let op = instr.opcode;
                let loaded = match op {
                    Opcode::Casx => break 'run now,
                    Opcode::Stx if sb.is_full() => break 'run now,
                    Opcode::Ldx => {
                        let addr = t.read(instr.rs1).wrapping_add(instr.imm as u64);
                        if !mem.takes_load(tile, addr) {
                            break 'run now;
                        }
                        mark!();
                        mem.load(addr, now)
                    }
                    _ => 0,
                };
                charges.active += 1;
                if first {
                    if let Some((prev_t, prev_pc, prev_op)) = self.last_issue {
                        if prev_t != idx && prev_pc == pc && prev_op == op {
                            charges.drafted += 1;
                        }
                    }
                    first = false;
                }
                new_last = Some(Some((idx, pc, op)));
                charges.l1i += 1;
                record.set_op(op);
                retired += 1;
                let (occupancy, activity, kind, target) = match op {
                    Opcode::Halt => {
                        t.state = ThreadState::Halted;
                        charges.issues[op.index()] += 1;
                        charges.occupancy[op.index()] += 1;
                        records.push(record);
                        break 'run halted(sb);
                    }
                    Opcode::Ldx => {
                        t.write(instr.rd, loaded);
                        let activity = value_activity_code(loaded);
                        (L1_HIT_CYCLES, activity, WaitKind::Memory, None)
                    }
                    Opcode::Stx => {
                        let addr = t.read(instr.rs1).wrapping_add(instr.imm as u64);
                        let value = t.read(instr.rs2);
                        sb.push(addr, value, now);
                        charges.sb_enqueues += 1;
                        (1, value_activity_code(value), WaitKind::Execute, None)
                    }
                    Opcode::Membar => {
                        let held = sb.drained_by(now) - now;
                        (held.max(op.base_latency()), 0, WaitKind::StoreDrain, None)
                    }
                    _ => {
                        let (activity, target) = t.execute_local(instr);
                        (op.base_latency(), activity, WaitKind::Execute, target)
                    }
                };
                let occupancy = occupancy.max(1);
                charges.issues[op.index()] += 1;
                charges.occupancy[op.index()] += occupancy;
                record.activity = activity;
                records.push(record);
                busy = now + occupancy;
                wait = kind;
                now += 1;
                let Some(target) = target else {
                    pc += 1;
                    continue;
                };
                let backward = target <= pc;
                pc = target;
                if backward && sb.entries.is_empty() && heads.looking() {
                    let before = records.len();
                    let free = sb.drain_free_at.saturating_sub(now);
                    let state = (pc, t.regs, busy - now, wait, free);
                    let replayed = heads.replay(state, now, end, records, charges, mem, sb);
                    retired += (records.len() - before) as u64;
                    now += replayed;
                    busy += replayed;
                }
            }
            end
        };
        t.pc = pc;
        t.busy_until = busy;
        t.wait = wait;
        t.retired += retired;
        t.program = Some(prog);
        if let Some(v) = new_last {
            self.last_issue = v;
            self.next_thread = (idx + 1) % n;
        }
        horizon
    }

    /// [`Core::run_local`] for a two-thread core with both threads
    /// running — the 2 T/C sweeps. Both threads' `pc`, `busy_until` and
    /// wait kind live in locals, so the round-robin pick, the
    /// dual-thread charge and the sibling's memory-wait charge are a
    /// few compares instead of scans over the thread vector. A thread
    /// that halts (or falls off the end) mid-span leaves its sibling
    /// running here alone, exactly as [`Core::step`] would.
    ///
    /// Steady-state loops are not re-interpreted. Each thread's own
    /// loop is recorded from one taken backward branch to the next and
    /// proven when it comes back to the same `pc` and registers
    /// ([`ThreadLoop`]). Once both are proven, the pair issues from
    /// their steps and computes only the schedule between them; and
    /// whenever the schedule's whole state ([`PairPhase`]: where each
    /// thread is in its loop, occupancy left and wait kinds, the
    /// round-robin pointer, the last issue — which decides drafting —
    /// and the store buffer) comes round, the span in between is
    /// replayed like a loop period: its records and logged accesses
    /// copied, its integer charges multiplied. The proven loops and the
    /// period are kept in the lane's [`PairCache`] from run to run.
    #[allow(clippy::cast_possible_truncation, clippy::too_many_lines)]
    fn run_local_pair(
        &mut self,
        origin: u64,
        start: u64,
        end: u64,
        mem: &mut LocalMem<'_>,
        records: &mut Vec<IssueRecord>,
        charges: &mut LocalCharges,
    ) -> u64 {
        let Core {
            tile,
            threads,
            store_buffer: sb,
            next_thread,
            last_issue,
            ..
        } = self;
        let tile = *tile;
        let [a, b] = &mut threads[..] else {
            unreachable!("run_local_pair on a core without two threads")
        };
        let mut th = [a, b];
        let progs = [
            th[0].program.take().expect("running thread has a program"),
            th[1].program.take().expect("running thread has a program"),
        ];
        let code = [&progs[0].instructions[..], &progs[1].instructions[..]];
        let mut pc = [th[0].pc, th[1].pc];
        let mut busy = [th[0].busy_until, th[1].busy_until];
        let mut wait = [th[0].wait, th[1].wait];
        let mut running = [true; 2];
        let mut retired = [0u64; 2];
        let mut next = *next_thread;
        let mut last = *last_issue;
        // The loops the lane's earlier runs proved, if its threads still
        // stand where those loops put them; a redo starts afresh.
        let mut cache = mem.log.pair.take().unwrap_or_default();
        let same = cache
            .programs
            .as_ref()
            .is_some_and(|p| Arc::ptr_eq(&p[0], &progs[0]) && Arc::ptr_eq(&p[1], &progs[1]));
        if mem.stop.is_none() && same && (0..2).all(|i| cache.loops[i].holds(th[i], code[i])) {
            for l in &mut cache.loops {
                if let Some(head) = &mut l.head {
                    head.2 = mem.loud;
                }
            }
        } else {
            if !same {
                cache.programs = Some([Arc::clone(&progs[0]), Arc::clone(&progs[1])]);
            }
            cache.loops.iter_mut().for_each(ThreadLoop::reset);
            cache.cycle = None;
        }
        let mut try_steady = true;
        let mut now = start;
        // Saves the state at the top of cycle `now` before the run's
        // first logged access.
        macro_rules! mark {
            () => {
                if mem.mark.is_some() {
                    let thread = |i: usize| {
                        let t = ThreadMark {
                            regs: th[i].regs,
                            pc: pc[i],
                            busy_until: busy[i],
                            wait: wait[i],
                            state: th[i].state,
                            retired: th[i].retired + retired[i],
                        };
                        (i, t)
                    };
                    let threads = [thread(0), thread(1)];
                    mem.mark(now, &threads, sb, (next, last), charges, records.len());
                }
            };
        }
        let horizon = loop {
            if now >= end {
                break end;
            }
            if let Some(addr) = sb.due_head(now, mem) {
                if mem.takes_drain(tile, addr) {
                    mark!();
                }
                if !sb.drain_local(tile, now, mem) {
                    break now;
                }
            }
            if std::mem::take(&mut try_steady) {
                let loops = &cache.loops;
                let steady = |l: &ThreadLoop| l.proven && l.head.is_some_and(|h| h.2 == mem.loud);
                let cursor = [loops[0].position(pc[0]), loops[1].position(pc[1])];
                if let (true, [Some(c0), Some(c1)]) = (
                    mem.stop.is_none() && running == [true, true] && loops.iter().all(steady),
                    cursor,
                ) {
                    // Both loops proven: issue from their steps, computing
                    // only the schedule, until the span ends or a step
                    // needs the interpreter (a full buffer or log, a drain
                    // to take live, a drain that changes memory under the
                    // loops).
                    mark!();
                    let mut cursor = [c0, c1];
                    let loud = mem.loud;
                    // The pair's state each time thread 0's loop comes
                    // round, and what the run had produced by then: once
                    // it recurs, the schedule in between repeats too.
                    let mut rounds: Vec<(PairPhase, PairMark)> = Vec::new();
                    let mut round = false;
                    while now < end {
                        let drained = sb.entries.is_empty() || sb.drain_local(tile, now, mem);
                        if !drained || mem.loud != loud {
                            break;
                        }
                        if std::mem::take(&mut round) {
                            if let Some(phase) =
                                PairPhase::of(cursor, busy, wait, next, last, sb, now)
                            {
                                let at = PairMark {
                                    now,
                                    records: records.len(),
                                    ops: mem.pos,
                                    scalars: charges.scalars(),
                                    retired,
                                };
                                let known = cache.cycle.as_ref().is_some_and(|c| c.phase == phase);
                                if let Some((_, h)) =
                                    rounds.iter().find(|(p, _)| *p == phase).filter(|_| !known)
                                {
                                    // A period: keep it for this run and
                                    // the lane's later ones.
                                    let body = (
                                        &records[h.records..at.records],
                                        &mem.log.ops[h.ops..at.ops],
                                    );
                                    cache.cycle =
                                        Some(PairCycle::between(phase, h, &at, origin, body));
                                }
                                if let Some(cy) = cache.cycle.as_ref().filter(|c| c.phase == phase)
                                {
                                    let k = (end - now) / cy.period;
                                    let shift = cy.replay(
                                        &cache.loops,
                                        k,
                                        (now, origin),
                                        mem,
                                        records,
                                        charges,
                                        &mut retired,
                                    );
                                    if shift > 0 {
                                        now += shift;
                                        for b in &mut busy {
                                            *b += shift;
                                        }
                                        for e in &mut sb.entries {
                                            e.enqueued_at += shift;
                                        }
                                        if cy.drains {
                                            sb.drain_free_at += shift;
                                        }
                                        rounds.clear();
                                        continue;
                                    }
                                }
                                rounds.push((phase, at));
                            }
                        }
                        let idx = if busy[next] <= now {
                            next
                        } else if busy[next ^ 1] <= now {
                            next ^ 1
                        } else {
                            let wake = busy[0].min(busy[1]).min(end).min(sb.next_local_drain(mem));
                            let span = wake - now;
                            let mem_waiting =
                                wait.iter().filter(|&&w| w == WaitKind::Memory).count();
                            charges.active += span;
                            charges.mem_stall += span * mem_waiting as u64;
                            now = wake;
                            continue;
                        };
                        let steps = &cache.loops[idx].steps;
                        let step = &steps[cursor[idx]];
                        match step.access {
                            LoopAccess::Store { .. } if sb.is_full() => break,
                            LoopAccess::Load { .. } if !mem.has_room() => break,
                            _ => {}
                        }
                        let other = idx ^ 1;
                        charges.active += 1;
                        charges.mem_stall +=
                            u64::from(busy[other] > now && wait[other] == WaitKind::Memory);
                        charges.dual += 1;
                        if last.is_some_and(|(t, p, o)| t == other && p == step.pc && o == step.op)
                        {
                            charges.drafted += 1;
                        }
                        last = Some((idx, step.pc, step.op));
                        next = other;
                        charges.l1i += 1;
                        charges.issues[step.op.index()] += 1;
                        charges.occupancy[step.op.index()] += step.occupancy;
                        match step.access {
                            LoopAccess::None => {}
                            LoopAccess::Load { addr, value } => mem.relog_load(now, addr, value),
                            LoopAccess::Store { addr, value } => {
                                sb.push(addr, value, now);
                                charges.sb_enqueues += 1;
                            }
                        }
                        let mut record = IssueRecord::new((now - origin) as u16, idx, step.pc);
                        record.set_op(step.op);
                        record.activity = step.activity;
                        records.push(record);
                        retired[idx] += 1;
                        busy[idx] = now + step.occupancy;
                        wait[idx] = step.wait;
                        cursor[idx] += 1;
                        if cursor[idx] == steps.len() {
                            cursor[idx] = 0;
                            round = idx == 0;
                        }
                        now += 1;
                    }
                    for i in 0..2 {
                        pc[i] = cache.loops[i].restore(th[i], code[i], cursor[i]);
                    }
                    if mem.loud != loud {
                        cache.loops.iter_mut().for_each(ThreadLoop::reset);
                        cache.cycle = None;
                    }
                    continue;
                }
            }
            let ready = |i: usize| running[i] && busy[i] <= now;
            let idx = if ready(next) {
                next
            } else if ready(next ^ 1) {
                next ^ 1
            } else {
                // Stall span: every running thread is occupied, so no
                // state changes before the earliest wake-up.
                let wake = match running {
                    [true, true] => busy[0].min(busy[1]),
                    [true, false] => busy[0],
                    [false, true] => busy[1],
                    // Both halted: buffered stores still drain live.
                    [false, false] if sb.entries.is_empty() => break end,
                    [false, false] => break now,
                };
                let wake = wake.min(end).min(sb.next_local_drain(mem));
                let span = wake - now;
                let mem_waiting = (0..2)
                    .filter(|&i| running[i] && wait[i] == WaitKind::Memory)
                    .count() as u64;
                charges.active += span;
                charges.mem_stall += span * mem_waiting;
                now = wake;
                continue;
            };
            let other = idx ^ 1;
            let here = pc[idx];
            let instr = code[idx].get(here);
            let mut access = LoopAccess::None;
            let loaded = match instr {
                Some(i) if i.opcode == Opcode::Casx => break now,
                Some(i) if i.opcode == Opcode::Stx && sb.is_full() => break now,
                Some(i) if i.opcode == Opcode::Ldx => {
                    let addr = th[idx].read(i.rs1).wrapping_add(i.imm as u64);
                    if !mem.takes_load(tile, addr) {
                        break now;
                    }
                    mark!();
                    let value = mem.load(addr, now);
                    access = LoopAccess::Load { addr, value };
                    value
                }
                _ => 0,
            };
            // The issue slot of cycle `at` is consumed from here on.
            let at = now;
            now += 1;
            charges.active += 1;
            charges.mem_stall +=
                u64::from(running[other] && busy[other] > at && wait[other] == WaitKind::Memory);
            charges.dual += u64::from(running[other]);
            next = other;
            let mut record = IssueRecord::new((at - origin) as u16, idx, here);
            let Some(instr) = instr else {
                // Fell off the end: an issuing step that fetches and
                // records nothing, halting the thread.
                last = None;
                running[idx] = false;
                th[idx].state = ThreadState::Halted;
                records.push(record);
                continue;
            };
            let op = instr.opcode;
            if let Some((prev_t, prev_pc, prev_op)) = last {
                if prev_t != idx && prev_pc == here && prev_op == op {
                    charges.drafted += 1;
                }
            }
            last = Some((idx, here, op));
            charges.l1i += 1;
            record.set_op(op);
            retired[idx] += 1;
            let t = &mut th[idx];
            let (occupancy, activity, kind, target) = match op {
                Opcode::Halt => {
                    running[idx] = false;
                    t.state = ThreadState::Halted;
                    charges.issues[op.index()] += 1;
                    charges.occupancy[op.index()] += 1;
                    records.push(record);
                    continue;
                }
                Opcode::Ldx => {
                    t.write(instr.rd, loaded);
                    let activity = value_activity_code(loaded);
                    (L1_HIT_CYCLES, activity, WaitKind::Memory, None)
                }
                Opcode::Stx => {
                    let addr = t.read(instr.rs1).wrapping_add(instr.imm as u64);
                    let value = t.read(instr.rs2);
                    sb.push(addr, value, at);
                    charges.sb_enqueues += 1;
                    access = LoopAccess::Store { addr, value };
                    (1, value_activity_code(value), WaitKind::Execute, None)
                }
                Opcode::Membar => {
                    let held = sb.drained_by(at) - at;
                    (held.max(op.base_latency()), 0, WaitKind::StoreDrain, None)
                }
                _ => {
                    let (activity, target) = t.execute_local(instr);
                    (op.base_latency(), activity, WaitKind::Execute, target)
                }
            };
            let occupancy = occupancy.max(1);
            charges.issues[op.index()] += 1;
            charges.occupancy[op.index()] += occupancy;
            record.activity = activity;
            records.push(record);
            cache.loops[idx].record(LoopStep {
                pc: here,
                op,
                occupancy,
                wait: kind,
                activity: record.activity,
                access,
            });
            busy[idx] = at + occupancy;
            wait[idx] = kind;
            pc[idx] = target.unwrap_or(here + 1);
            if target.is_none_or(|t| t > here) {
                continue;
            }
            cache.loops[idx].branch(pc[idx], &th[idx].regs, mem.loud);
            if !cache.loops[idx].proven {
                cache.cycle = None;
            }
            try_steady = true;
        };
        mem.log.pair = Some(cache);
        let [p0, p1] = progs;
        for (i, (t, p)) in th.into_iter().zip([p0, p1]).enumerate() {
            t.pc = pc[i];
            t.busy_until = busy[i];
            t.wait = wait[i];
            t.retired += retired[i];
            t.program = Some(p);
        }
        *next_thread = next;
        *last_issue = last;
        horizon
    }

    /// Issues the next instruction of thread `idx`.
    fn issue(
        &mut self,
        idx: usize,
        now: u64,
        memsys: &mut MemorySystem,
        act: &mut ActivityCounters,
    ) {
        let t = &mut self.threads[idx];
        let program = t.program.as_ref().expect("running thread has a program");
        let Some(&instr) = program.instructions.get(t.pc) else {
            // Fell off the end: halt.
            t.state = ThreadState::Halted;
            return;
        };
        act.l1i_accesses += 1;

        let op = instr.opcode;
        match op {
            Opcode::Ldx => {
                let addr = t.read(instr.rs1).wrapping_add(instr.imm as u64);
                let out = memsys.load(self.tile, addr, now, act);
                t.write(instr.rd, out.value);
                let activity = value_activity(out.value);
                self.finish(idx, now, out.latency, op, activity, None, act);
            }
            Opcode::Stx => {
                if self.store_buffer.is_full() {
                    // Speculative issue found the buffer full: roll back
                    // and re-execute (the stx (F) case of Figure 11).
                    act.store_rollbacks += 1;
                    t.busy_until = now + ROLLBACK_PENALTY_CYCLES;
                    t.wait = WaitKind::StoreDrain;
                    return; // PC unchanged: the store retries
                }
                let addr = t.read(instr.rs1).wrapping_add(instr.imm as u64);
                let value = t.read(instr.rs2);
                self.store_buffer.push(addr, value, now);
                act.sb_enqueues += 1;
                // The thread continues past the store after one cycle;
                // the buffer drains in the background.
                self.finish(idx, now, 1, op, value_activity(value), None, act);
            }
            Opcode::Casx => {
                let addr = t.read(instr.rs1);
                let expected = t.read(instr.rs2);
                let new = t.read(instr.rd);
                let (old, latency) = memsys.cas(self.tile, addr, expected, new, now, act);
                t.write(instr.rd, old);
                let activity = value_activity(old ^ expected);
                self.finish(idx, now, latency, op, activity, None, act);
            }
            Opcode::Membar => {
                let held = self.store_buffer.drained_by(now) - now;
                self.finish(idx, now, held.max(op.base_latency()), op, 0.0, None, act);
            }
            Opcode::Halt => {
                let pc = t.pc as u64;
                t.retired += 1;
                t.state = ThreadState::Halted;
                act.record_issue(op, 1, 0.0);
                if trace::wants(SUB_RETIRE) {
                    emit_retire(now, self.tile, idx, op, pc);
                }
            }
            _ => {
                let (activity, target) = t.execute_local(&instr);
                let activity = activity_of_code(activity);
                self.finish(idx, now, op.base_latency(), op, activity, target, act);
            }
        }
    }

    /// Completes an issued instruction: records its issue and activity,
    /// occupies the thread (tagging what the occupancy waits on) and
    /// advances (or redirects) the PC.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &mut self,
        idx: usize,
        now: u64,
        occupancy: u64,
        op: Opcode,
        activity: f64,
        branch_target: Option<usize>,
        act: &mut ActivityCounters,
    ) {
        let occupancy = occupancy.max(1);
        act.record_issue(op, occupancy, activity.clamp(0.0, 1.0));
        let t = &mut self.threads[idx];
        t.busy_until = now + occupancy;
        t.wait = match op {
            Opcode::Ldx | Opcode::Casx => WaitKind::Memory,
            Opcode::Membar => WaitKind::StoreDrain,
            _ => WaitKind::Execute,
        };
        let pc = t.pc as u64;
        t.pc = branch_target.unwrap_or(t.pc + 1);
        t.retired += 1;
        if trace::wants(SUB_RETIRE) {
            emit_retire(now, self.tile, idx, op, pc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piton_arch::config::ChipConfig;

    fn setup() -> (Core, MemorySystem, ActivityCounters) {
        (
            Core::new(TileId::new(0), 2, 8),
            MemorySystem::new(&ChipConfig::piton()),
            ActivityCounters::default(),
        )
    }

    fn run(core: &mut Core, memsys: &mut MemorySystem, act: &mut ActivityCounters, cycles: u64) {
        for now in 0..cycles {
            core.step(now, memsys, act);
        }
    }

    #[test]
    fn executes_straight_line_arithmetic() {
        let (mut core, mut memsys, mut act) = setup();
        let program = Program::from_instructions(vec![
            Instruction::movi(Reg::new(1), 6),
            Instruction::movi(Reg::new(2), 7),
            Instruction::alu(Opcode::Mulx, Reg::new(3), Reg::new(1), Reg::new(2)),
            Instruction::halt(),
        ]);
        core.load_thread(0, Arc::new(program));
        run(&mut core, &mut memsys, &mut act, 100);
        assert_eq!(core.thread_state(0), ThreadState::Halted);
        assert_eq!(core.reg(0, Reg::new(3)), 42);
    }

    #[test]
    fn g0_stays_zero() {
        let (mut core, mut memsys, mut act) = setup();
        let program =
            Program::from_instructions(vec![Instruction::movi(Reg::G0, 99), Instruction::halt()]);
        core.load_thread(0, Arc::new(program));
        run(&mut core, &mut memsys, &mut act, 50);
        assert_eq!(core.reg(0, Reg::G0), 0);
    }

    #[test]
    fn branch_loop_counts_down() {
        let (mut core, mut memsys, mut act) = setup();
        // r1 = 5; loop: r1 -= 1; bne r1, g0, loop; halt
        let program = Program::from_instructions(vec![
            Instruction::movi(Reg::new(1), 5),
            Instruction::movi(Reg::new(2), 1),
            Instruction::alu(Opcode::Sub, Reg::new(1), Reg::new(1), Reg::new(2)),
            Instruction::branch(Opcode::Bne, Reg::new(1), Reg::G0, 2),
            Instruction::halt(),
        ]);
        core.load_thread(0, Arc::new(program));
        run(&mut core, &mut memsys, &mut act, 200);
        assert_eq!(core.thread_state(0), ThreadState::Halted);
        assert_eq!(core.reg(0, Reg::new(1)), 0);
    }

    #[test]
    fn load_returns_stored_value_through_memory() {
        let (mut core, mut memsys, mut act) = setup();
        memsys.poke(0x1000, 0x1234_5678);
        let program = Program::from_instructions(vec![
            Instruction::movi(Reg::new(1), 0x1000),
            Instruction::ldx(Reg::new(2), Reg::new(1), 0),
            Instruction::halt(),
        ]);
        core.load_thread(0, Arc::new(program));
        run(&mut core, &mut memsys, &mut act, 2000);
        assert_eq!(core.reg(0, Reg::new(2)), 0x1234_5678);
        assert_eq!(act.load_rollbacks, 1); // cold miss rolled back
    }

    #[test]
    fn store_then_load_round_trips() {
        let (mut core, mut memsys, mut act) = setup();
        let program = Program::from_instructions(vec![
            Instruction::movi(Reg::new(1), 0x2000),
            Instruction::movi(Reg::new(2), 0xBEEF),
            Instruction::stx(Reg::new(2), Reg::new(1), 0),
            Instruction::membar(),
            Instruction::ldx(Reg::new(3), Reg::new(1), 0),
            Instruction::halt(),
        ]);
        core.load_thread(0, Arc::new(program));
        run(&mut core, &mut memsys, &mut act, 5000);
        assert_eq!(core.thread_state(0), ThreadState::Halted);
        assert_eq!(core.reg(0, Reg::new(3)), 0xBEEF);
        assert_eq!(memsys.peek_mem(0x2000), 0xBEEF);
    }

    #[test]
    fn back_to_back_stores_fill_buffer_and_roll_back() {
        let (mut core, mut memsys, mut act) = setup();
        // 64 stores back-to-back: issue rate (1/cycle) far exceeds the
        // drain rate (1/10 cycles), so the 8-entry buffer must fill.
        let mut instrs = vec![Instruction::movi(Reg::new(1), 0x3000)];
        for k in 0..64 {
            instrs.push(Instruction::stx(Reg::new(1), Reg::new(1), k * 8));
        }
        instrs.push(Instruction::halt());
        core.load_thread(0, Arc::new(Program::from_instructions(instrs)));
        run(&mut core, &mut memsys, &mut act, 20_000);
        assert_eq!(core.thread_state(0), ThreadState::Halted);
        assert!(act.store_rollbacks > 0, "buffer never filled");
        assert_eq!(act.sb_enqueues, 64);
    }

    #[test]
    fn nine_nops_after_store_avoid_roll_backs() {
        // The paper's EPI trick: nine nops cover the 10-cycle drain.
        // Warm up ownership first (a cold store upgrade takes hundreds of
        // cycles and would legitimately back up the buffer), then run the
        // steady-state pattern the EPI test measures.
        let (mut core, mut memsys, mut act) = setup();
        let mut instrs = vec![
            Instruction::movi(Reg::new(1), 0x4000),
            Instruction::stx(Reg::new(1), Reg::new(1), 0),
            Instruction::membar(),
        ];
        for _ in 0..32 {
            instrs.push(Instruction::stx(Reg::new(1), Reg::new(1), 0));
            for _ in 0..9 {
                instrs.push(Instruction::nop());
            }
        }
        instrs.push(Instruction::halt());
        core.load_thread(0, Arc::new(Program::from_instructions(instrs)));
        run(&mut core, &mut memsys, &mut act, 50_000);
        assert_eq!(core.thread_state(0), ThreadState::Halted);
        assert_eq!(act.store_rollbacks, 0);
    }

    #[test]
    fn two_threads_share_issue_bandwidth() {
        let (mut core, mut memsys, mut act) = setup();
        let loop_program = |iters: i64| {
            Program::from_instructions(vec![
                Instruction::movi(Reg::new(1), iters),
                Instruction::movi(Reg::new(2), 1),
                Instruction::alu(Opcode::Sub, Reg::new(1), Reg::new(1), Reg::new(2)),
                Instruction::branch(Opcode::Bne, Reg::new(1), Reg::G0, 2),
                Instruction::halt(),
            ])
        };
        // One thread alone:
        core.load_thread(0, Arc::new(loop_program(1000)));
        let mut solo_cycles = 0;
        for now in 0..2_000_000u64 {
            core.step(now, &mut memsys, &mut act);
            if !core.any_running() {
                solo_cycles = now;
                break;
            }
        }
        // Two threads together:
        let mut core2 = Core::new(TileId::new(1), 2, 8);
        core2.load_thread(0, Arc::new(loop_program(1000)));
        core2.load_thread(1, Arc::new(loop_program(1000)));
        let mut duo_cycles = 0;
        for now in 0..4_000_000u64 {
            core2.step(now, &mut memsys, &mut act);
            if !core2.any_running() {
                duo_cycles = now;
                break;
            }
        }
        let ratio = duo_cycles as f64 / solo_cycles as f64;
        // Branch shadows leave some slack; the ratio must be well above
        // 1 (threads share the pipe) but at most ~2.
        assert!(
            (1.2..=2.2).contains(&ratio),
            "duo/solo ratio {ratio} (solo {solo_cycles}, duo {duo_cycles})"
        );
    }

    #[test]
    fn casx_spinlock_between_threads() {
        let (mut core, mut memsys, mut act) = setup();
        // Each thread: acquire lock (casx 0->1 at 0x5000), increment
        // counter at 0x5040, release (stx 0). 10 iterations each.
        let worker = || {
            let mut p = vec![
                Instruction::movi(Reg::new(1), 0x5000), // lock addr
                Instruction::movi(Reg::new(2), 0x5040), // counter addr
                Instruction::movi(Reg::new(5), 10),     // iterations
                Instruction::movi(Reg::new(6), 1),
                // 4: acquire
                Instruction::movi(Reg::new(3), 1), // swap-in value
                Instruction::casx(Reg::new(3), Reg::new(1), Reg::G0),
                Instruction::branch(Opcode::Bne, Reg::new(3), Reg::G0, 4),
                // 7: critical section
                Instruction::ldx(Reg::new(4), Reg::new(2), 0),
                Instruction::alu(Opcode::Add, Reg::new(4), Reg::new(4), Reg::new(6)),
                Instruction::stx(Reg::new(4), Reg::new(2), 0),
                Instruction::membar(),
                // release
                Instruction::stx(Reg::G0, Reg::new(1), 0),
                Instruction::membar(),
                Instruction::alu(Opcode::Sub, Reg::new(5), Reg::new(5), Reg::new(6)),
                Instruction::branch(Opcode::Bne, Reg::new(5), Reg::G0, 4),
                Instruction::halt(),
            ];
            p.shrink_to_fit();
            Program::from_instructions(p)
        };
        core.load_thread(0, Arc::new(worker()));
        core.load_thread(1, Arc::new(worker()));
        let mut now = 0;
        while core.any_running() && now < 3_000_000 {
            core.step(now, &mut memsys, &mut act);
            now += 1;
        }
        assert!(!core.any_running(), "deadlocked");
        assert_eq!(memsys.peek_mem(0x5040), 20, "lost updates under the lock");
        assert!(act.atomics >= 20);
    }

    /// [`assert_local_matches_step_on`] over a cold memory system.
    fn assert_local_matches_step(core: Core, start: u64, end: u64) -> u64 {
        let sys = MemorySystem::new(&ChipConfig::piton());
        assert_local_matches_step_on(core, &sys, start, end)
    }

    /// Runs `core` ahead locally over `[start, end)` against `sys` and a
    /// clone live, one `step` per cycle on a copy of `sys`, over the
    /// cycles the local run covered. The local run's logged accesses
    /// are applied to a second copy as the machine applies them when
    /// every cycle is processed, and the ones due at or after the
    /// horizon go back to the store buffer. Asserts the two agree on
    /// every counter (the records' activities folded in cycle order, as
    /// the machine does) and on which cycles issued, then steps both on
    /// live and asserts they stay in step, down to the whole core state.
    /// Returns the horizon.
    fn assert_local_matches_step_on(core: Core, sys: &MemorySystem, start: u64, end: u64) -> u64 {
        let tile = core.tile();
        let mut stepped = core.clone();
        let mut local = core;
        let mut records = Vec::new();
        let mut charges = LocalCharges::default();
        let mut log = MemLog::default();
        let horizon = local.run_local(
            start,
            start,
            end,
            &mut LocalMem::record(sys, &mut log, &mut RunMark::default()),
            &mut records,
            &mut charges,
        );

        let (mut live_sys, mut act) = (sys.clone(), ActivityCounters::default());
        let issued: Vec<u64> = (start..horizon)
            .filter(|&now| stepped.step(now, &mut live_sys, &mut act))
            .collect();

        let mut local_sys = sys.clone();
        let mut folded = ActivityCounters {
            core_active_cycles: charges.active,
            mem_stall_cycles: charges.mem_stall,
            dual_thread_cycles: charges.dual,
            drafted_issues: charges.drafted,
            l1i_accesses: charges.l1i,
            sb_enqueues: charges.sb_enqueues,
            issues: charges.issues,
            occupancy_cycles: charges.occupancy,
            ..ActivityCounters::default()
        };
        let due = log.ops().iter().take_while(|op| op.due() < horizon).count();
        for op in &log.ops()[..due] {
            if op.is_load() {
                let out = local_sys.load(tile, op.addr, op.at(), &mut folded);
                assert_eq!((out.value, out.latency), (op.value, L1_HIT_CYCLES));
            } else {
                let latency = local_sys.store_drain(tile, op.addr, op.value, op.at(), &mut folded);
                assert_eq!(latency, STORE_DRAIN_CYCLES);
            }
        }
        local.unlog_drains(&log.ops()[due..]);
        for r in &records {
            if let Some(op) = r.op() {
                folded.operand_activity[op] += activity_of_code(r.activity);
            }
        }
        let offsets: Vec<u64> = records
            .iter()
            .map(|r| start + u64::from(r.offset))
            .collect();
        assert_eq!(offsets, issued, "issuing cycles");
        assert_eq!(folded, act);

        for now in horizon..horizon + 200 {
            local.step(now, &mut local_sys, &mut folded);
            stepped.step(now, &mut live_sys, &mut act);
        }
        assert_eq!(folded, act, "after the horizon");
        assert_eq!(format!("{local:?}"), format!("{stepped:?}"), "core state");
        horizon
    }

    fn core_with(programs: &[Vec<Instruction>]) -> Core {
        let mut core = Core::new(TileId::new(0), 2, 8);
        for (thread, code) in programs.iter().enumerate() {
            core.load_thread(thread, Arc::new(Program::from_instructions(code.clone())));
        }
        core
    }

    /// An endless loop whose registers never change: the shape both
    /// local loops replay instead of re-interpreting.
    fn steady_loop() -> Vec<Instruction> {
        vec![
            Instruction::movi(Reg::new(1), 0x5555),
            Instruction::movi(Reg::new(2), 0x0F0F),
            Instruction::alu(Opcode::Add, Reg::new(3), Reg::new(1), Reg::new(2)),
            Instruction::alu(Opcode::Mulx, Reg::new(4), Reg::new(1), Reg::new(2)),
            Instruction::alu(Opcode::And, Reg::new(3), Reg::new(1), Reg::new(2)),
            Instruction::branch(Opcode::Beq, Reg::G0, Reg::G0, 2),
        ]
    }

    #[test]
    fn two_thread_run_local_matches_step() {
        // Lockstep copies of one loop draft each other's issues; loops
        // of different lengths recur only together.
        let tight = vec![
            Instruction::movi(Reg::new(1), 3),
            Instruction::alu(Opcode::Add, Reg::new(2), Reg::new(1), Reg::new(1)),
            Instruction::branch(Opcode::Beq, Reg::G0, Reg::G0, 1),
        ];
        for pair in [[steady_loop(), steady_loop()], [steady_loop(), tight]] {
            let horizon = assert_local_matches_step(core_with(&pair), 0, 3_001);
            assert_eq!(horizon, 3_001);
        }
        // A countdown that halts mid-span leaves its sibling running
        // alone; a program without `halt` falls off the end.
        let countdown = vec![
            Instruction::movi(Reg::new(1), 40),
            Instruction::movi(Reg::new(2), 1),
            Instruction::alu(Opcode::Sub, Reg::new(1), Reg::new(1), Reg::new(2)),
            Instruction::branch(Opcode::Bne, Reg::new(1), Reg::G0, 2),
            Instruction::halt(),
        ];
        let short = vec![Instruction::nop(), Instruction::movi(Reg::new(5), 9)];
        for pair in [
            [steady_loop(), countdown.clone()],
            [short.clone(), steady_loop()],
        ] {
            let horizon = assert_local_matches_step(core_with(&pair), 0, 2_000);
            assert_eq!(horizon, 2_000);
        }
        let horizon = assert_local_matches_step(core_with(&[countdown, short]), 0, 2_000);
        assert_eq!(horizon, 2_000, "both threads halt: the run covers the span");
    }

    #[test]
    fn two_thread_run_local_stops_at_memory() {
        let mut store = steady_loop();
        store.insert(4, Instruction::stx(Reg::new(1), Reg::new(2), 0));
        let load = vec![
            Instruction::movi(Reg::new(1), 0x4000),
            Instruction::nop(),
            Instruction::ldx(Reg::new(2), Reg::new(1), 0),
        ];
        // Stops after the store, at its drain to a line not owned…
        let horizon = assert_local_matches_step(core_with(&[store, steady_loop()]), 0, 1_000);
        assert!(horizon < 1_000);
        // …and before the load that misses the L1.
        let horizon = assert_local_matches_step(core_with(&[steady_loop(), load]), 0, 1_000);
        assert!(horizon < 1_000);
    }

    /// An HP-style mixed loop over one line: ALU work, two loads and a
    /// store, slow enough that two copies never fill the store buffer.
    fn owned_loop(base: i64) -> Vec<Instruction> {
        let mut code = vec![
            Instruction::movi(Reg::new(1), base),
            Instruction::movi(Reg::new(2), 0x0F0F),
        ];
        for _ in 0..12 {
            code.push(Instruction::alu(
                Opcode::Add,
                Reg::new(3),
                Reg::new(2),
                Reg::new(2),
            ));
        }
        code.extend([
            Instruction::ldx(Reg::new(4), Reg::new(1), 0),
            Instruction::alu(Opcode::And, Reg::new(3), Reg::new(4), Reg::new(2)),
            Instruction::ldx(Reg::new(5), Reg::new(1), 8),
            Instruction::stx(Reg::new(2), Reg::new(1), 0),
            Instruction::branch(Opcode::Beq, Reg::G0, Reg::G0, 2),
        ]);
        code
    }

    /// A memory system where tile 0 owns the lines at 0x4000 and 0x5000
    /// and holds them in its L1, their first words still 7.
    fn owned_lines() -> MemorySystem {
        let mut sys = MemorySystem::new(&ChipConfig::piton());
        let mut act = ActivityCounters::default();
        for base in [0x4000, 0x5000] {
            sys.store_drain(TileId::new(0), base, 7, 0, &mut act);
            assert!(sys.owns(TileId::new(0), base) && sys.l1_holds(TileId::new(0), base));
        }
        sys
    }

    #[test]
    fn owned_accesses_run_locally() {
        let sys = owned_lines();
        // One thread, two threads on two lines, and a loop next to it.
        for programs in [
            vec![owned_loop(0x4000)],
            vec![owned_loop(0x4000), owned_loop(0x5000)],
            vec![steady_loop(), owned_loop(0x5000)],
        ] {
            for (start, end) in [(0, 800), (5, 605), (100, 113)] {
                let horizon = assert_local_matches_step_on(core_with(&programs), &sys, start, end);
                assert_eq!(horizon, end, "owned accesses never end the run");
            }
        }
    }

    #[test]
    fn owned_loop_replays_once_its_stores_are_silent() {
        // The first store changes the word from 7; every later one
        // rewrites it, so the loop replays from then on.
        let sys = owned_lines();
        let mut core = core_with(&[owned_loop(0x4000)]);
        let mut log = MemLog::default();
        let mut records = Vec::new();
        let horizon = core.run_local(
            0,
            0,
            1_000,
            &mut LocalMem::record(&sys, &mut log, &mut RunMark::default()),
            &mut records,
            &mut LocalCharges::default(),
        );
        assert_eq!(horizon, 1_000);
        let loud = log
            .ops()
            .iter()
            .filter(|op| op.kind() == MemOpKind::Drain { silent: false })
            .count();
        assert_eq!(loud, 1);
        assert!(log.ops().len() > 100, "{} accesses", log.ops().len());
    }

    #[test]
    fn foreign_owner_ends_the_run_at_the_access() {
        // Another tile owns the line: the first load is not local.
        let mut sys = MemorySystem::new(&ChipConfig::piton());
        sys.store_drain(
            TileId::new(3),
            0x4000,
            7,
            0,
            &mut ActivityCounters::default(),
        );
        let horizon = assert_local_matches_step_on(core_with(&[owned_loop(0x4000)]), &sys, 0, 500);
        assert_eq!(horizon, 14, "stops before the first ldx");
    }

    #[test]
    fn three_running_threads_have_no_local_loop() {
        let mut core = Core::new(TileId::new(0), 3, 8);
        for thread in 0..3 {
            core.load_thread(thread, Arc::new(Program::from_instructions(steady_loop())));
        }
        let mut records = Vec::new();
        let sys = MemorySystem::new(&ChipConfig::piton());
        let horizon = core.run_local(
            5,
            9,
            100,
            &mut LocalMem::record(&sys, &mut MemLog::default(), &mut RunMark::default()),
            &mut records,
            &mut LocalCharges::default(),
        );
        assert_eq!(horizon, 9, "stepped live from the start");
        assert!(records.is_empty());
    }

    #[test]
    fn steady_loop_replay_matches_step() {
        // Spans that end mid-period, on a period boundary and long
        // after the first replay all fold to what stepping produces.
        for end in [7, 40, 1_000, 1_024, 4_099] {
            assert_local_matches_step(core_with(&[steady_loop()]), 0, end);
        }
    }

    #[test]
    fn loop_with_changing_counter_matches_step() {
        // The counter feeds an ALU op, so a replayed period would
        // repeat stale registers and stale operand activities.
        let counting = vec![
            Instruction::movi(Reg::new(1), 0),
            Instruction::movi(Reg::new(2), 1),
            Instruction::movi(Reg::new(4), 0x00FF),
            Instruction::alu(Opcode::Add, Reg::new(1), Reg::new(1), Reg::new(2)),
            Instruction::alu(Opcode::And, Reg::new(3), Reg::new(1), Reg::new(4)),
            Instruction::branch(Opcode::Beq, Reg::G0, Reg::G0, 3),
        ];
        for programs in [vec![counting.clone()], vec![counting, steady_loop()]] {
            let mut core = core_with(&programs);
            assert_local_matches_step(core.clone(), 0, 3_000);
            let mut records = Vec::new();
            let sys = MemorySystem::new(&ChipConfig::piton());
            core.run_local(
                0,
                0,
                3_000,
                &mut LocalMem::record(&sys, &mut MemLog::default(), &mut RunMark::default()),
                &mut records,
                &mut LocalCharges::default(),
            );
            assert!(core.reg(0, Reg::new(1)) > 300, "the counter ran");
        }
    }

    #[test]
    fn loop_with_membar_matches_step() {
        // A cold store leaves the drain port busy for hundreds of
        // cycles after the buffer empties. The first taken backward
        // branch reaches the head before the `membar` has waited, so
        // the second reaches it in the same state after a long wait
        // that no later period repeats.
        let code = vec![
            Instruction::movi(Reg::new(1), 0x2000),
            Instruction::stx(Reg::new(1), Reg::new(1), 0),
            Instruction::branch(Opcode::Beq, Reg::G0, Reg::G0, 5),
            Instruction::membar(),
            Instruction::nop(),
            Instruction::branch(Opcode::Beq, Reg::G0, Reg::G0, 3),
        ];
        let (mut core, mut memsys, mut act) = setup();
        core.load_thread(0, Arc::new(Program::from_instructions(code)));
        let mut now = 0;
        while now < 2 || core.has_pending_stores() {
            core.step(now, &mut memsys, &mut act);
            now += 1;
        }
        assert!(
            core.store_buffer.drained_by(now) > now + 100,
            "drain port busy"
        );
        assert_local_matches_step(core, now, now + 2_000);
    }
}
